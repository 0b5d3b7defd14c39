//! The benchmark command. `run.sh` builds it, changes into
//! `benchmark/out` and executes it there; every path it writes is relative
//! to that directory.
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--trace] [--aa] [--quick]   the whole suite
//! run.sh --workload NAME --seed N --seconds S --trace 0|1      one workload, JSON result last
//! ```

use bolt_benchmark::daemon::{RunDir, Tools};
use bolt_benchmark::host::{self, Fingerprint};
use bolt_benchmark::probe::{self, Effort, Metrics};
use bolt_benchmark::report::{self, WorkloadResult};
use bolt_benchmark::suite::{self, Plan};
use bolt_benchmark::workload::NAMES;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--aa] [--quick]
  --workload NAME  run one workload and print a JSON result as the last line
                   (lib_single_wide lib_single_deep lib_batch_deep uds_single
                    uds_pipelined tcp_batch64 cold_churn swap_admin);
                   without it, all eight run with their windows interleaved
  --seed N         request-sample seed, decimal or 0x hex [default 0xB017]
  --seconds S      seconds measured per workload [default 14]
  --trace [0|1]    add the traced windows, the per-layer probe and trace.json
  --aa             run the suite twice on this build (second time in reverse
                   workload order) and compare; exit 1 on any `differ`
  --quick          one 0.5 s window per workload: checks that everything runs";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0xB017,
        seconds: 14.0,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let raw = value("--seed")?;
                parsed.seed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                }
                .map_err(|_| format!("--seed wants an integer, got {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                parsed.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds wants a positive number, got {raw:?}"))?;
            }
            // The driver passes `--trace 0|1`; by hand it is a bare flag.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => parsed.aa = true,
            "--quick" => parsed.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if !NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?}"));
        }
        if parsed.aa {
            return Err("--aa compares whole suites; drop --workload".into());
        }
    }
    Ok(parsed)
}

fn write_trace(traces: &[String]) -> Result<(), String> {
    if traces.is_empty() {
        return Ok(());
    }
    let json = format!("{{\"workloads\":[{}]}}\n", traces.join(","));
    std::fs::write("trace.json", json).map_err(|e| format!("write trace.json: {e}"))?;
    println!("# spans written to benchmark/out/trace.json");
    Ok(())
}

fn run_probe(seed: u64, effort: Effort) -> Result<Metrics, String> {
    let dir = RunDir::create(Path::new("."))?;
    probe::run(seed, dir.path(), effort)
}

fn run(args: &Args) -> Result<bool, String> {
    let tools = Tools::locate()?;
    let host = Fingerprint::read();
    let plan = if args.quick {
        Plan::quick(args.trace)
    } else if args.workload.is_some() {
        Plan::driver(args.seconds, args.trace)
    } else {
        Plan::suite(args.seconds, args.trace)
    };
    let effort = if args.quick {
        Effort::QUICK
    } else {
        Effort::FULL
    };
    let what = format!(
        "{}; {} untraced + {} traced windows of {:.3} s, closed loop",
        args.workload.as_deref().unwrap_or("all eight workloads"),
        plan.untraced,
        plan.traced,
        plan.window.as_secs_f64()
    );
    print!("{}", report::header(&host, args.seed, &what));

    if let Some(name) = &args.workload {
        // Driver mode: one workload, JSON result as the last line.
        let outcome = suite::run(&[name.as_str()], args.seed, &plan, &tools, Path::new("."))?;
        let probe = if args.trace {
            run_probe(args.seed, effort)?
        } else {
            Metrics::new()
        };
        let result = &outcome.results[0];
        print!("{}", report::rows(result, args.trace));
        print!("{}", report::probe_rows(&probe));
        write_trace(&outcome.traces)?;
        println!("{}", report::json_line(result, args.trace, &probe));
        return Ok(true);
    }

    let pass = |names: &[&str]| -> Result<Vec<WorkloadResult>, String> {
        let outcome = suite::run(names, args.seed, &plan, &tools, Path::new("."))?;
        for result in &outcome.results {
            print!("{}", report::rows(result, true));
        }
        write_trace(&outcome.traces)?;
        Ok(outcome.results)
    };
    let first = pass(&NAMES)?;
    let mut ok = first.iter().all(|r| r.correct);
    if args.aa {
        // Reversed order, so agreement does not lean on who ran after whom.
        let reversed: Vec<&str> = NAMES.iter().rev().copied().collect();
        println!("# A/A second run, workload order reversed");
        let second = pass(&reversed)?;
        ok &= second.iter().all(|r| r.correct);
        let verdicts = report::compare(&first, &second);
        print!("{}", report::verdict_table(&verdicts));
        ok &= verdicts.iter().all(|v| v.verdict != "differ");
    } else {
        print!("{}", report::probe_rows(&run_probe(args.seed, effort)?));
    }
    println!("# result: {}", if ok { "ok" } else { "NOT ok" });
    Ok(ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::install_stop_handler();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
