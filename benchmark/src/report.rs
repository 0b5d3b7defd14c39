//! The metric tables — the names, units and bounds `BENCHMARK.json`
//! repeats — and everything that prints them: `workload metric value unit`
//! lines, the driver's JSON result line, and the A/A verdict table.

use crate::host::Fingerprint;
use crate::probe::Metrics;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the reference median by which it may worsen before a change
/// counts as a regression; each was set to at least three times the
/// run-to-run quartile spread measured on the reference host (README.md).
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound, as a share of the median.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The gated metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_sps", "samples/s", Better::Higher, 0.25),
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
    e2e("lat_p90_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_sample", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Spans whose mean self time the traced run reports.
pub const TRACE_LAYERS: [&str; 10] = [
    "forest.binarize.encode",
    "core.dictionary.scan",
    "core.table.lookup",
    "core.engine.vote",
    "client.encode",
    "client.write",
    "server.service",
    "client.read_decode",
    "server.wire_queue",
    "artifact.open",
];

/// Per-layer metrics measured on a workload's own run (the rest come from
/// the probe). A layer that is not on a workload's path reports 0.
pub const RUN_LAYER: [(&str, &str, Better); 32] = [
    ("failed_frac", "ratio", Better::Lower),
    ("server.svc_p50_us", "us", Better::Lower),
    ("server.svc_p90_us", "us", Better::Lower),
    ("server.wire_queue_p50_us", "us", Better::Lower),
    ("server.cpu_user_us_per_sample", "us", Better::Lower),
    ("server.cpu_sys_us_per_sample", "us", Better::Lower),
    ("server.ctx_switches_per_sample", "count", Better::Lower),
    ("server.threads", "count", Better::Lower),
    ("server.mean_samples_per_wakeup", "count", Better::Higher),
    ("server.shed", "count", Better::Lower),
    ("server.stats.requests_delta", "count", Better::Higher),
    ("server.store.evictions", "count", Better::Lower),
    ("server.store.thrash_reloads", "count", Better::Lower),
    ("server.store.miss_ratio", "ratio", Better::Lower),
    ("server.store.resident_bytes_hwm", "B", Better::Lower),
    ("server.admin.activate_rtt_us", "us", Better::Lower),
    ("server.admin.status_rtt_us", "us", Better::Lower),
    ("client.lat_p99_us", "us", Better::Lower),
    ("client.lat_max_us", "us", Better::Lower),
    ("client.lat_samples_per_window", "count", Better::Higher),
    ("loadgen.cpu_us_per_sample", "us", Better::Lower),
    ("loadgen.admin_lag_p90_us", "us", Better::Lower),
    (
        "loadgen.window_spread_pct.throughput_sps",
        "%",
        Better::Lower,
    ),
    ("loadgen.window_spread_pct.lat_p50_us", "%", Better::Lower),
    ("loadgen.window_spread_pct.lat_p90_us", "%", Better::Lower),
    (
        "loadgen.window_spread_pct.cpu_us_per_sample",
        "%",
        Better::Lower,
    ),
    ("host.calib_ns", "ns", Better::Lower),
    ("host.steal_pct", "%", Better::Lower),
    ("host.noisy_windows", "count", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.requests", "count", Better::Higher),
    ("trace.self_sum_pct", "%", Better::Higher),
];

/// Per-layer metrics the probe measures, per model where suffixed.
const PROBE_PER_MODEL: [(&str, &str, Better); 10] = [
    ("forest.binarize.encode_ns", "ns", Better::Lower),
    ("forest.binarize.predicates", "count", Better::Lower),
    ("core.compile_s", "s", Better::Lower),
    ("core.dictionary.scan_ns", "ns", Better::Lower),
    ("core.dictionary.entries", "count", Better::Lower),
    ("core.dictionary.scan_bytes", "B", Better::Lower),
    ("core.engine.classify_bits_ns", "ns", Better::Lower),
    ("core.engine.vote_self_ns", "ns", Better::Lower),
    ("core.engine.classify_ns", "ns", Better::Lower),
    ("core.resident_bytes", "B", Better::Lower),
];

const PROBE_SINGLE: [(&str, &str, Better); 34] = [
    ("forest.train_s", "s", Better::Lower),
    ("forest.predict_ns", "ns", Better::Lower),
    (
        "core.engine.entries_matched_per_sample",
        "count",
        Better::Lower,
    ),
    (
        "core.filter.bloom_rejects_per_sample",
        "count",
        Better::Higher,
    ),
    ("core.table.hits_per_sample", "count", Better::Lower),
    ("core.table.misses_per_sample", "count", Better::Lower),
    ("core.table.useful_probe_ratio", "ratio", Better::Higher),
    ("core.table.lookup_ns", "ns", Better::Lower),
    ("core.batch.votes_ns_per_sample.b8", "ns", Better::Lower),
    ("core.batch.votes_ns_per_sample.b64", "ns", Better::Lower),
    ("core.batch.votes_ns_per_sample.b512", "ns", Better::Lower),
    (
        "core.batch.votes_ns_per_sample.wide_b64",
        "ns",
        Better::Lower,
    ),
    ("core.batch.speedup_b64", "ratio", Better::Higher),
    (
        "simcpu.bolt.instructions_per_sample",
        "count",
        Better::Lower,
    ),
    (
        "simcpu.bolt.branch_misses_per_sample",
        "count",
        Better::Lower,
    ),
    ("simcpu.bolt.llc_misses_per_sample", "count", Better::Lower),
    ("simcpu.fp.instructions_per_sample", "count", Better::Lower),
    ("baselines.scikit.classify_ns", "ns", Better::Lower),
    ("baselines.ranger.classify_ns", "ns", Better::Lower),
    ("baselines.fp.classify_ns", "ns", Better::Lower),
    ("artifact.write_s", "s", Better::Lower),
    ("artifact.bytes.wide", "B", Better::Lower),
    ("artifact.bytes.svc", "B", Better::Lower),
    ("artifact.bytes.deep", "B", Better::Lower),
    ("artifact.map_us", "us", Better::Lower),
    ("artifact.view_build_us", "us", Better::Lower),
    ("artifact.open_us", "us", Better::Lower),
    ("artifact.mapped_classify_ns", "ns", Better::Lower),
    ("server.proto.decode_single_ns", "ns", Better::Lower),
    ("server.proto.decode_batch64_ns", "ns", Better::Lower),
    ("server.proto.encode_resp_ns", "ns", Better::Lower),
    ("server.store.resolve_hit_ns", "ns", Better::Lower),
    ("server.store.resolve_miss_us", "us", Better::Lower),
    ("server.store.activate_us", "us", Better::Lower),
];

/// Every per-layer metric: name, unit, direction. Run-derived ones first,
/// then the traced run's, then the probe's.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = RUN_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u, b))
        .collect();
    all.extend(
        TRACE_LAYERS
            .iter()
            .map(|l| (format!("trace.self_us.{l}"), "us", Better::Lower)),
    );
    for (metric, unit, better) in PROBE_PER_MODEL {
        for model in crate::models::ALL {
            all.push((format!("{metric}.{}", model.name), unit, better));
        }
    }
    all.extend(PROBE_SINGLE.iter().map(|&(n, u, b)| (n.to_owned(), u, b)));
    all
}

/// What one workload's run produced.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// End-to-end values (medians over untraced windows).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The per-window values behind the windowed end-to-end metrics, and
    /// the per-repetition totals behind `setup_s`.
    pub windows: BTreeMap<&'static str, Vec<f64>>,
    /// Run-derived per-layer values (see [`RUN_LAYER`]), plus the traced
    /// run's when there was one.
    pub layers: Metrics,
    /// Operations attempted in timed windows.
    pub attempted: u64,
    /// Operations failed in timed windows.
    pub failed: u64,
    /// Samples answered with the oracle's class in timed windows.
    pub samples_ok: u64,
    /// Whether every answer was right and the daemon's own request count
    /// matched what was sent.
    pub correct: bool,
    /// Why not, if not.
    pub problems: Vec<String>,
    /// `host.calib_ns` of each window, for the noise sentinel line.
    pub calib_ns: Vec<f64>,
    /// The scan kernel the daemon reported (served workloads).
    pub kernel: String,
    /// The per-layer span table of the traced windows, if any.
    pub trace_table: Option<String>,
}

/// Unit of every per-layer metric, by name.
fn layer_units() -> BTreeMap<String, &'static str> {
    per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
}

/// The header every output starts with: host fingerprint and what ran.
#[must_use]
pub fn header(host: &Fingerprint, seed: u64, what: &str) -> String {
    format!("# bolt benchmark: {what}; seed {seed}\n# host {host}\n")
}

/// One workload's rows, `workload metric value unit`, end-to-end first.
#[must_use]
pub fn rows(result: &WorkloadResult, with_layers: bool) -> String {
    let units = layer_units();
    let mut out = String::new();
    for m in END_TO_END {
        if let Some(v) = result.end_to_end.get(m.name) {
            let _ = writeln!(out, "{} {} {v:.6} {}", result.name, m.name, m.unit);
        }
    }
    let _ = writeln!(
        out,
        "# {}: sent {} ops, succeeded {}, failed {}; {} correct samples; boltd kernel {}",
        result.name,
        result.attempted,
        result.attempted - result.failed,
        result.failed,
        result.samples_ok,
        if result.kernel.is_empty() {
            "n/a (in process)"
        } else {
            &result.kernel
        },
    );
    let list = |values: &[f64]| {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        values.join(" ")
    };
    for (metric, values) in &result.windows {
        let per = if *metric == "setup_s" {
            "repetition"
        } else {
            "window"
        };
        let _ = writeln!(
            out,
            "# {}: {metric} per {per} [{}]",
            result.name,
            list(values)
        );
    }
    let _ = writeln!(
        out,
        "# {}: host.calib_ns per window [{}]",
        result.name,
        list(&result.calib_ns)
    );
    for problem in &result.problems {
        let _ = writeln!(out, "# {}: PROBLEM {problem}", result.name);
    }
    if with_layers {
        for (metric, v) in &result.layers {
            let unit = units.get(metric).copied().unwrap_or("?");
            let _ = writeln!(out, "{} {metric} {v:.6} {unit}", result.name);
        }
    }
    if let Some(table) = &result.trace_table {
        for line in table.lines() {
            let _ = writeln!(out, "# {line}");
        }
    }
    out
}

/// The probe's rows, under the pseudo-workload `probe`.
#[must_use]
pub fn probe_rows(probe: &Metrics) -> String {
    let units = layer_units();
    probe.iter().fold(String::new(), |mut out, (metric, v)| {
        let unit = units.get(metric).copied().unwrap_or("?");
        let _ = writeln!(out, "probe {metric} {v:.6} {unit}");
        out
    })
}

/// The driver's result: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values keep all their digits.
#[must_use]
pub fn json_line(result: &WorkloadResult, traced: bool, probe: &Metrics) -> String {
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if traced {
        for (name, unit, _) in per_layer() {
            let value = result
                .layers
                .get(&name)
                .or_else(|| probe.get(&name))
                .copied()
                .unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        for m in END_TO_END {
            let value = result.end_to_end.get(m.name).copied().unwrap_or(0.0);
            metrics.push((m.name.to_owned(), value, m.unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        body.join(", ")
    )
}

/// One row of the A/A table.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// First run's median.
    pub a: f64,
    /// Second run's median.
    pub b: f64,
    /// Quartile spread of the first run's windows, share of its median.
    pub spread_a: f64,
    /// Same for the second run.
    pub spread_b: f64,
    /// `(b − a) / a`.
    pub diff: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `agree`, `unresolved` or `differ`.
    pub verdict: &'static str,
}

/// Compares two runs of the same build: a pair of medians within the bound
/// agrees; one outside it is `unresolved` when either run's own windows
/// spread wider than the bound, and `differ` otherwise.
#[must_use]
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<Verdict> {
    let mut out = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.name == ra.name) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(&va), Some(&vb)) = (ra.end_to_end.get(m.name), rb.end_to_end.get(m.name))
            else {
                continue;
            };
            let spread = |r: &WorkloadResult| {
                r.windows
                    .get(m.name)
                    .map_or(0.0, |w| stats::quartile_spread(w))
            };
            let (spread_a, spread_b) = (spread(ra), spread(rb));
            let diff = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let verdict = if diff.abs() <= m.bound {
                "agree"
            } else if spread_a.max(spread_b) > m.bound {
                "unresolved"
            } else {
                "differ"
            };
            out.push(Verdict {
                workload: ra.name,
                metric: m.name,
                a: va,
                b: vb,
                spread_a,
                spread_b,
                diff,
                bound: m.bound,
                verdict,
            });
        }
    }
    out
}

/// The A/A table as text.
#[must_use]
pub fn verdict_table(verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "# A/A: two runs of one build\n# {:<16} {:<18} {:>14} {:>14} {:>9} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median_a", "median_b", "spread_a%", "spread_b%", "diff_%", "bound%"
    );
    for v in verdicts {
        let _ = writeln!(
            out,
            "aa {:<16} {:<18} {:>14.4} {:>14.4} {:>9.2} {:>9.2} {:>+8.2} {:>6.1}  {}",
            v.workload,
            v.metric,
            v.a,
            v.b,
            100.0 * v.spread_a,
            100.0 * v.spread_b,
            100.0 * v.diff,
            100.0 * v.bound,
            v.verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &'static str, tput: f64, windows: &[f64]) -> WorkloadResult {
        WorkloadResult {
            name,
            end_to_end: BTreeMap::from([("throughput_sps", tput)]),
            windows: BTreeMap::from([("throughput_sps", windows.to_vec())]),
            correct: true,
            attempted: 10,
            ..WorkloadResult::default()
        }
    }

    #[test]
    fn aa_verdicts_follow_bound_and_spread() {
        let quiet = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [100.0, 160.0, 60.0, 100.0, 130.0];
        let a = [result("w", 100.0, &quiet)];
        // Inside the 25 % bound.
        assert_eq!(
            compare(&a, &[result("w", 120.0, &quiet)])[0].verdict,
            "agree"
        );
        // Outside it with quiet windows on both sides.
        assert_eq!(
            compare(&a, &[result("w", 130.0, &quiet)])[0].verdict,
            "differ"
        );
        assert_eq!(
            compare(&a, &[result("w", 70.0, &quiet)])[0].verdict,
            "differ"
        );
        // Outside it, but one run's own windows spread wider than the bound.
        let v = &compare(&a, &[result("w", 130.0, &noisy)])[0];
        assert_eq!(v.verdict, "unresolved");
        assert!((v.diff - 0.30).abs() < 1e-12 && v.spread_b > 0.25);
        assert!(verdict_table(std::slice::from_ref(v)).contains("unresolved"));
        // A workload missing from the second run is skipped, not invented.
        assert!(compare(&a, &[result("other", 1.0, &quiet)]).is_empty());
    }

    #[test]
    fn names_obey_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer names", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        let legal = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in layers
            .iter()
            .map(|(n, u, _)| (n.as_str(), *u))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
        {
            assert!(seen.insert(name.to_owned()), "{name} is used twice");
            assert!(name.len() <= 64 && legal(name, "_.-"), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                !unit.is_empty() && unit.len() <= 16 && legal(unit, "_/%.-"),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = result("w", 123.456, &[1.0]);
        r.layers.insert("server.shed".into(), 0.0);
        let line = json_line(&r, false, &Metrics::new());
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"throughput_sps\": {\"value\": 123.456, \"unit\": \"samples/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let probe = Metrics::from([("forest.train_s".to_owned(), 0.5)]);
        let traced = json_line(&r, true, &probe);
        assert_eq!(traced.matches("\"value\"").count(), per_layer().len());
        assert!(traced.contains("\"forest.train_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!traced.contains("\"throughput_sps\": {"));
    }
}
