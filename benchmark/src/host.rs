//! What the benchmark reads from the host: CPU time, memory and context
//! switches of the system under test from `/proc`, the host fingerprint
//! and noise sentinel printed with every result, and the stop flag that
//! turns SIGINT/SIGTERM into an orderly teardown.

use std::fs;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn field<T: std::str::FromStr + Default>(text: &str, index: usize) -> T {
    text.split_whitespace()
        .nth(index)
        .and_then(|f| f.parse().ok())
        .unwrap_or_default()
}

/// One reading of a process's accounting, summed over its tasks.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// On-CPU nanoseconds (`/proc/PID/task/*/schedstat`, first field).
    pub cpu_ns: u64,
    /// User-mode clock ticks (`/proc/PID/stat` field 14).
    pub utime_ticks: u64,
    /// Kernel-mode clock ticks (field 15).
    pub stime_ticks: u64,
    /// Voluntary context switches, summed over tasks.
    pub voluntary_switches: u64,
    /// Involuntary context switches, summed over tasks.
    pub involuntary_switches: u64,
    /// Live tasks.
    pub threads: u64,
}

impl ProcSample {
    /// Reads `pid`'s counters; all zero if the process is gone.
    #[must_use]
    pub fn of(pid: u32) -> Self {
        let mut sample = Self::default();
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            return sample;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let dir = dir.display();
            sample.threads += 1;
            sample.cpu_ns += field::<u64>(&read(&format!("{dir}/schedstat")), 0);
            for line in read(&format!("{dir}/status")).lines() {
                if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
                    sample.voluntary_switches += field::<u64>(v, 0);
                } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                    sample.involuntary_switches += field::<u64>(v, 0);
                }
            }
        }
        // Fields after the parenthesised command name, which may hold spaces.
        let stat = read(&format!("/proc/{pid}/stat"));
        if let Some((_, rest)) = stat.rsplit_once(')') {
            sample.utime_ticks = field(rest, 11);
            sample.stime_ticks = field(rest, 12);
        }
        sample
    }

    /// Counters gained since `earlier` (`threads` is the current count).
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
            involuntary_switches: self
                .involuntary_switches
                .saturating_sub(earlier.involuntary_switches),
            threads: self.threads,
        }
    }
}

/// On-CPU nanoseconds of the calling thread so far.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    field(&read("/proc/thread-self/schedstat"), 0)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
#[must_use]
pub fn peak_rss_mib(pid: u32) -> f64 {
    read(&format!("/proc/{pid}/status"))
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .map_or(0.0, |v| field::<f64>(v, 0) / 1024.0)
}

/// Microseconds per clock tick of `/proc/PID/stat` (USER_HZ is 100 on
/// every Linux ABI; `getconf CLK_TCK` agrees on this host).
pub const TICK_US: f64 = 10_000.0;

/// The aggregate `cpu` line of `/proc/stat`: (all ticks, steal ticks).
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().unwrap_or_default();
    let all = (1..=8).map(|i| field::<u64>(line, i)).sum();
    (all, field(line, 8))
}

/// Steal time as a percentage of all CPU time between two readings.
#[must_use]
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / all as f64
}

/// The noise sentinel: a fixed integer loop (2¹⁹ dependent xorshift-multiply
/// steps, about 2 ms) timed before each window. It touches no memory and
/// makes no system call, so only the host — frequency, steal, a neighbour
/// on the core — can move it. (The steps do not compose algebraically, so
/// the compiler cannot shorten the chain.)
#[must_use]
pub fn calibrate_ns() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..(1 << 19) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    started.elapsed().as_nanos() as f64
}

/// Host description printed at the top of every output.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Cores the process may run on.
    pub nproc: usize,
    /// The SIMD-relevant subset of the CPU flags.
    pub cpu_flags: String,
    /// CPU model string.
    pub cpu_model: String,
    /// 1/5/15-minute load averages at start.
    pub loadavg: String,
    /// Kernel release.
    pub kernel_release: String,
}

impl Fingerprint {
    /// Reads the fingerprint from `/proc`.
    #[must_use]
    pub fn read() -> Self {
        let cpuinfo = read("/proc/cpuinfo");
        let value = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or(String::new(), |(_, v)| v.trim().to_owned())
        };
        let simd = [
            "sse2", "sse4_2", "avx", "avx2", "avx512f", "avx512bw", "neon", "asimd",
        ];
        let flags = value("flags") + &value("Features");
        let cpu_flags = flags
            .split_whitespace()
            .filter(|f| simd.contains(f))
            .collect::<Vec<_>>()
            .join(",");
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_flags,
            cpu_model: value("model name"),
            loadavg: read("/proc/loadavg")
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
            kernel_release: read("/proc/sys/kernel/osrelease").trim().to_owned(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" flags={} loadavg=\"{}\" kernel={}",
            self.nproc, self.cpu_model, self.cpu_flags, self.loadavg, self.kernel_release
        )
    }
}

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Relaxed: the flag publishes no other data.
    STOP.store(true, Ordering::Relaxed);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Routes SIGINT and SIGTERM to a flag the measuring loops poll, so an
/// interrupted run unwinds through the same guards (daemon kill + reap,
/// run-directory removal) as a finished one.
pub fn install_stop_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's; the handler only stores to an
    // atomic, which is async-signal-safe, and is a plain `extern "C" fn`
    // that lives for the whole program.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether SIGINT/SIGTERM arrived.
#[must_use]
pub fn stop_requested() -> bool {
    STOP.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_is_readable() {
        let me = std::process::id();
        let before = ProcSample::of(me);
        let busy = calibrate_ns();
        let after = ProcSample::of(me).since(before);
        assert!(busy > 0.0);
        assert!(after.threads >= 1);
        assert!(after.cpu_ns > 0, "schedstat must advance while spinning");
        assert!(peak_rss_mib(me) > 0.0);
        assert!(thread_cpu_ns() > 0);
        assert_eq!(ProcSample::of(u32::MAX).threads, 0);
    }

    #[test]
    fn steal_share_is_a_percentage_of_all_ticks() {
        assert_eq!(steal_pct((1000, 10), (2000, 60)), 5.0);
        assert_eq!(steal_pct((5, 1), (5, 1)), 0.0);
        let (all, steal) = cpu_ticks();
        assert!(all > 0 && steal <= all);
        assert!(Fingerprint::read().nproc >= 1);
    }
}
