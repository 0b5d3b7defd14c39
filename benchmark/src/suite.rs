//! Runs workloads window by window and turns what they recorded into
//! results.
//!
//! The statistic is the median over timed windows, each preceded by an
//! untimed warm-up. When several workloads run together their windows are
//! interleaved round robin, so a noisy host phase costs each workload one
//! window instead of costing one workload all of them.

use crate::daemon::{RunDir, Tools};
use crate::host::{self, ProcSample, TICK_US};
use crate::report::{WorkloadResult, TRACE_LAYERS};
use crate::stats;
use crate::workload::{self, Recorder, SetupTimes, Sut, Workload};
use std::path::Path;
use std::time::Duration;

/// How a run spends its time.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Timed windows without tracing; the end-to-end numbers come from
    /// these only.
    pub untraced: usize,
    /// Timed windows with spans recorded, after the untraced ones.
    pub traced: usize,
    /// Length of a timed window.
    pub window: Duration,
    /// Untimed warm-up before each window.
    pub warmup: Duration,
    /// Repetitions of every set-up step (`setup_s` sums the step medians).
    pub setup_reps: usize,
}

impl Plan {
    /// The suite's plan for `seconds` of measuring per workload: windows of
    /// about 2 s, at least five of them, plus two traced windows on request.
    #[must_use]
    pub fn suite(seconds: f64, traced: bool) -> Self {
        let windows = ((seconds / 2.0).round() as usize).clamp(5, 15);
        Self {
            untraced: windows,
            traced: if traced { 2 } else { 0 },
            window: Duration::from_secs_f64(seconds / windows as f64),
            warmup: Duration::from_millis(250),
            setup_reps: 5,
        }
    }

    /// The plan for one workload under the driver, which allots `seconds`
    /// to the whole run. Untraced, that is the suite's plan; traced, four
    /// fifths of the time go to two untraced and two traced windows and the
    /// rest is left to the probe.
    #[must_use]
    pub fn driver(seconds: f64, traced: bool) -> Self {
        if !traced {
            return Self::suite(seconds, false);
        }
        Self {
            untraced: 2,
            traced: 2,
            window: Duration::from_secs_f64(seconds / 5.0),
            ..Self::suite(seconds, false)
        }
    }

    /// `--quick`: one window of half a second (plus a traced one on
    /// request), set-up steps once. Checks that everything runs.
    #[must_use]
    pub fn quick(traced: bool) -> Self {
        Self {
            untraced: 1,
            traced: usize::from(traced),
            window: Duration::from_millis(500),
            warmup: Duration::from_millis(50),
            setup_reps: 1,
        }
    }
}

/// One timed window, reduced to numbers.
#[derive(Clone, Debug, Default)]
struct Window {
    throughput_sps: f64,
    lat_p50_us: f64,
    lat_p90_us: f64,
    lat_p99_us: f64,
    lat_max_us: f64,
    lat_samples: f64,
    cpu_us_per_sample: f64,
    svc_p50_us: f64,
    svc_p90_us: f64,
    wire_queue_p50_us: f64,
    loadgen_cpu_us_per_sample: f64,
    admin_lag_p90_us: f64,
    admin_rtt_p50_us: f64,
    calib_ns: f64,
}

impl Window {
    fn of(mut rec: Recorder, calib_ns: f64, loadgen_cpu_ns: u64) -> Self {
        let samples = rec.samples_ok.max(1) as f64;
        let wire_queue_p50_us = rec.wire_queue_p50_us();
        let lat = stats::sort(&mut rec.lat_us);
        let svc = stats::sort(&mut rec.svc_us);
        Self {
            throughput_sps: rec.samples_ok as f64 / rec.wall_s.max(1e-9),
            lat_p50_us: stats::percentile(lat, 0.5),
            lat_p90_us: stats::percentile(lat, 0.9),
            lat_p99_us: stats::percentile(lat, 0.99),
            lat_max_us: lat.last().copied().unwrap_or(0.0),
            lat_samples: lat.len() as f64,
            cpu_us_per_sample: rec.sut_cpu_ns as f64 / 1000.0 / samples,
            svc_p50_us: stats::percentile(svc, 0.5),
            svc_p90_us: stats::percentile(svc, 0.9),
            wire_queue_p50_us,
            loadgen_cpu_us_per_sample: loadgen_cpu_ns as f64 / 1000.0 / samples,
            admin_lag_p90_us: stats::percentile(stats::sort(&mut rec.admin_lag_us), 0.9),
            admin_rtt_p50_us: stats::percentile(stats::sort(&mut rec.admin_rtt_us), 0.5),
            calib_ns,
        }
    }
}

fn median_of(windows: &[Window], field: impl Fn(&Window) -> f64) -> f64 {
    stats::median(&windows.iter().map(field).collect::<Vec<_>>())
}

/// A workload in flight: what it recorded so far.
struct Entry {
    workload: Box<dyn Workload>,
    setup: SetupTimes,
    untraced: Vec<Window>,
    traced: Vec<Window>,
    attempted: u64,
    failed: u64,
    samples_ok: u64,
    shed: u64,
    first_error: Option<String>,
    /// Daemon accounting and client-side answered count at the start of
    /// the first untraced warm-up and the end of the last untraced window.
    span: Option<((ProcSample, u64), (ProcSample, u64))>,
}

impl Entry {
    fn account(&self) -> (ProcSample, u64) {
        let proc = match self.workload.sut() {
            Sut::Daemon(pid) => ProcSample::of(pid),
            Sut::CallingThread => ProcSample::default(),
        };
        (proc, self.workload.samples_answered_total())
    }

    fn window(&mut self, plan: &Plan, traced: bool) {
        if !traced && self.untraced.is_empty() {
            let now = self.account();
            self.span = Some((now, now));
        }
        let calib_ns = host::calibrate_ns();
        let warm = self.workload.run(plan.warmup, false);
        self.first_error = self.first_error.take().or(warm.first_error);
        let me = std::process::id();
        let before = ProcSample::of(me);
        let rec = self.workload.run(plan.window, traced);
        let loadgen_cpu_ns = ProcSample::of(me).since(before).cpu_ns;
        if !traced {
            // Failures count in every window, but the end-to-end totals are
            // the untraced pass's.
            self.attempted += rec.attempted;
            self.samples_ok += rec.samples_ok;
        }
        self.failed += rec.failed;
        self.shed += rec.shed;
        self.first_error = self.first_error.take().or_else(|| rec.first_error.clone());
        let window = Window::of(rec, calib_ns, loadgen_cpu_ns);
        if traced {
            self.traced.push(window);
        } else {
            self.untraced.push(window);
            let now = self.account();
            if let Some(span) = &mut self.span {
                span.1 = now;
            }
        }
    }

    fn finish(mut self, steal_pct: f64) -> WorkloadResult {
        let name = self.workload.name();
        let u = &self.untraced;
        let mut result = WorkloadResult {
            name,
            attempted: self.attempted,
            failed: self.failed,
            samples_ok: self.samples_ok,
            calib_ns: u.iter().chain(&self.traced).map(|w| w.calib_ns).collect(),
            ..WorkloadResult::default()
        };
        type Field = fn(&Window) -> f64;
        let windowed: [(&'static str, Field); 4] = [
            ("throughput_sps", |w| w.throughput_sps),
            ("lat_p50_us", |w| w.lat_p50_us),
            ("lat_p90_us", |w| w.lat_p90_us),
            ("cpu_us_per_sample", |w| w.cpu_us_per_sample),
        ];
        for (metric, field) in windowed {
            let values: Vec<f64> = u.iter().map(field).collect();
            result.end_to_end.insert(metric, stats::median(&values));
            result.layers.insert(
                format!("loadgen.window_spread_pct.{metric}"),
                100.0 * stats::quartile_spread(&values),
            );
            result.windows.insert(metric, values);
        }
        result.end_to_end.insert("setup_s", self.setup.seconds());
        result
            .windows
            .insert("setup_s", self.setup.per_repetition());
        let sut_pid = match self.workload.sut() {
            Sut::Daemon(pid) => pid,
            Sut::CallingThread => std::process::id(),
        };
        result
            .end_to_end
            .insert("peak_rss_mb", host::peak_rss_mib(sut_pid));

        let mut put = |metric: &str, value: f64| {
            result.layers.insert(metric.to_owned(), value);
        };
        put(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        put("server.svc_p50_us", median_of(u, |w| w.svc_p50_us));
        put("server.svc_p90_us", median_of(u, |w| w.svc_p90_us));
        put(
            "server.wire_queue_p50_us",
            median_of(u, |w| w.wire_queue_p50_us),
        );
        put("server.shed", self.shed as f64);
        put("client.lat_p99_us", median_of(u, |w| w.lat_p99_us));
        put(
            "client.lat_max_us",
            u.iter().map(|w| w.lat_max_us).fold(0.0, f64::max),
        );
        put(
            "client.lat_samples_per_window",
            median_of(u, |w| w.lat_samples),
        );
        put(
            "loadgen.cpu_us_per_sample",
            median_of(u, |w| w.loadgen_cpu_us_per_sample),
        );
        put(
            "loadgen.admin_lag_p90_us",
            median_of(u, |w| w.admin_lag_p90_us),
        );
        put(
            "server.admin.activate_rtt_us",
            median_of(u, |w| w.admin_rtt_p50_us),
        );
        put(
            "server.admin.status_rtt_us",
            self.workload.admin_status_rtt_us().unwrap_or(0.0),
        );
        let calib = median_of(u, |w| w.calib_ns);
        put("host.calib_ns", calib);
        put("host.steal_pct", steal_pct);
        // Counted and reported, never dropped.
        let noisy = result
            .calib_ns
            .iter()
            .filter(|&&c| (c - calib).abs() > 0.10 * calib)
            .count();
        put("host.noisy_windows", noisy as f64);

        // What boltd itself spent and counted over the untraced pass.
        let ((proc0, answered0), (proc1, answered1)) = self.span.unwrap_or_default();
        let (spent, answered) = (proc1.since(proc0), answered1.saturating_sub(answered0));
        let per_sample = |v: u64| v as f64 / answered.max(1) as f64;
        put(
            "server.cpu_user_us_per_sample",
            per_sample(spent.utime_ticks) * TICK_US,
        );
        put(
            "server.cpu_sys_us_per_sample",
            per_sample(spent.stime_ticks) * TICK_US,
        );
        put(
            "server.ctx_switches_per_sample",
            per_sample(spent.voluntary_switches + spent.involuntary_switches),
        );
        put("server.threads", spent.threads as f64);
        put(
            "server.mean_samples_per_wakeup",
            answered as f64 / spent.voluntary_switches.max(1) as f64,
        );

        let mut problems = Vec::new();
        let (mut booked, mut status) = (0, crate::daemon::Status::default());
        if let Some(daemon) = self.workload.daemon() {
            match (daemon.requests_booked(), daemon.status()) {
                (Ok(b), Ok(s)) => (booked, status) = (b, s),
                (b, s) => problems.extend(b.err().into_iter().chain(s.err())),
            }
            let sent = self.workload.samples_answered_total();
            if booked != sent && problems.is_empty() {
                problems.push(format!(
                    "boltd booked {booked} samples but {sent} were answered: run invalid"
                ));
            }
        }
        put("server.stats.requests_delta", booked as f64);
        put("server.store.evictions", status.evictions as f64);
        put("server.store.thrash_reloads", status.thrash_reloads as f64);
        put(
            "server.store.miss_ratio",
            status.thrash_reloads as f64 / booked.max(1) as f64,
        );
        put(
            "server.store.resident_bytes_hwm",
            status.resident_bytes_hwm as f64,
        );

        // The traced pass: overhead against the untraced one, and where
        // the time of a request went.
        let tracer = self.workload.tracer();
        let untraced_tput = median_of(u, |w| w.throughput_sps);
        let overhead = if self.traced.is_empty() || untraced_tput == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - median_of(&self.traced, |w| w.throughput_sps) / untraced_tput)
        };
        put("trace.overhead_pct", overhead);
        put("trace.requests", tracer.requests() as f64);
        put("trace.self_sum_pct", tracer.self_sum_pct());
        for layer in TRACE_LAYERS {
            put(
                &format!("trace.self_us.{layer}"),
                tracer.mean_self_us(layer),
            );
        }

        if self.failed > 0 {
            problems.push(format!(
                "{} failed operation(s), first: {}",
                self.failed,
                self.first_error.take().unwrap_or_default()
            ));
        }
        if self.samples_ok == 0 {
            problems.push("no correct sample in any timed window".into());
        }
        result.trace_table = (tracer.requests() > 0).then(|| tracer.table());
        result.kernel = status.kernel;
        result.correct = problems.is_empty();
        result.problems = problems;
        result
    }
}

/// What a run of one or more workloads produced.
pub struct Outcome {
    /// One result per workload, in the order asked for.
    pub results: Vec<WorkloadResult>,
    /// Each workload's kept spans as a JSON object, for `trace.json`.
    pub traces: Vec<String>,
}

/// Sets up `names` under `dir`, runs the plan with windows interleaved
/// across them, tears everything down and returns the results.
///
/// # Errors
///
/// A set-up failure, or SIGINT/SIGTERM during the run (everything started
/// is stopped first either way).
pub fn run(
    names: &[&str],
    seed: u64,
    plan: &Plan,
    tools: &Tools,
    dir: &Path,
) -> Result<Outcome, String> {
    let run_dir = RunDir::create(dir)?;
    let mut entries = Vec::new();
    for name in names {
        let (workload, setup) =
            workload::setup(name, tools, run_dir.path(), seed, plan.setup_reps)?;
        entries.push(Entry {
            workload,
            setup,
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            samples_ok: 0,
            shed: 0,
            first_error: None,
            span: None,
        });
    }
    let ticks_before = host::cpu_ticks();
    for round in 0..plan.untraced + plan.traced {
        for entry in &mut entries {
            if host::stop_requested() {
                return Err("interrupted".into());
            }
            entry.window(plan, round >= plan.untraced);
        }
    }
    let steal_pct = host::steal_pct(ticks_before, host::cpu_ticks());
    let traces = entries
        .iter()
        .filter(|e| e.workload.tracer().requests() > 0)
        .map(|e| e.workload.tracer().to_json())
        .collect();
    let results = entries.into_iter().map(|e| e.finish(steal_pct)).collect();
    Ok(Outcome { results, traces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SVC;
    use crate::workload::LibWorkload;

    fn entry(workload: LibWorkload) -> Entry {
        Entry {
            workload: Box::new(workload),
            setup: SetupTimes::default(),
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            samples_ok: 0,
            shed: 0,
            first_error: None,
            span: None,
        }
    }

    #[test]
    fn plans_fit_the_seconds_they_are_given() {
        let p = Plan::driver(10.0, false);
        assert_eq!(
            (p.untraced, p.traced, p.window),
            (5, 0, Duration::from_secs(2))
        );
        let p = Plan::suite(14.0, true);
        assert_eq!(
            (p.untraced, p.traced, p.window),
            (7, 2, Duration::from_secs(2))
        );
        let p = Plan::suite(1.0, false);
        assert_eq!((p.untraced, p.window), (5, Duration::from_millis(200)));
        let p = Plan::driver(10.0, true);
        assert_eq!(
            (p.untraced, p.traced, p.window),
            (2, 2, Duration::from_secs(2))
        );
    }

    #[test]
    fn a_wrong_oracle_lands_in_failed_frac_and_fails_the_run() {
        let plan = Plan {
            window: Duration::from_millis(40),
            warmup: Duration::from_millis(5),
            ..Plan::quick(true)
        };
        let (good, _) = LibWorkload::setup("lib_single_deep", &SVC, false, 5, 1);
        let mut good = entry(good);
        good.window(&plan, false);
        good.window(&plan, true);
        let good = good.finish(0.0);
        assert!(good.correct, "{:?}", good.problems);
        assert_eq!(good.layers["failed_frac"], 0.0);
        assert!(good.end_to_end["throughput_sps"] > 0.0 && good.end_to_end["lat_p50_us"] > 0.0);
        assert!(good.end_to_end["cpu_us_per_sample"] > 0.0 && good.end_to_end["peak_rss_mb"] > 0.0);
        assert!(good.layers["trace.self_us.core.dictionary.scan"] > 0.0);
        assert_eq!(good.layers["server.threads"], 0.0, "no server on this path");
        assert!(good.trace_table.is_some());

        let (mut bad, _) = LibWorkload::setup("lib_single_deep", &SVC, false, 5, 1);
        bad.corrupt_oracle();
        let mut bad = entry(bad);
        bad.window(&plan, false);
        let bad = bad.finish(0.0);
        assert!(!bad.correct);
        assert!(bad.layers["failed_frac"] > 0.0 && bad.failed > 0);
        assert!(
            bad.problems[0].contains("differ from the oracle"),
            "{:?}",
            bad.problems
        );
    }
}
