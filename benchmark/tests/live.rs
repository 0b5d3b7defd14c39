//! Tests that need the real binaries: the generator's frame codec against
//! a live `boltd`, and `run.sh --quick --trace` against `BENCHMARK.json`.
//!
//! They use the release binaries `run.sh` builds (`benchmark/ci.sh` runs it
//! first); without them they fail with a message that says so.

use bolt_benchmark::daemon::{Daemon, DaemonOptions, RunDir, Tools};
use bolt_benchmark::models::SVC;
use bolt_benchmark::report::{per_layer, Better, END_TO_END};
use bolt_benchmark::wire::{self, AdminReply, Reply};
use bolt_benchmark::workload::NAMES;
use bolt_forest::RandomForest;
use std::collections::BTreeSet;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    )
}

fn tools() -> Tools {
    // Set once per process; every test computes the same value.
    std::env::set_var("BOLT_BENCH_BIN_DIR", target_dir().join("release"));
    Tools::locate().expect("release binaries (run benchmark/ci.sh, or run.sh once, first)")
}

fn call(stream: &mut UnixStream, frame: &[u8], classes: &mut Vec<u32>) -> Reply {
    let mut payload = Vec::new();
    stream.write_all(frame).expect("write");
    wire::read_frame(stream, &mut payload).expect("reply frame");
    wire::decode_reply(&payload, classes).expect("reply decodes")
}

#[test]
fn codec_round_trips_against_a_live_boltd() {
    let tools = tools();
    let dir = RunDir::create(Path::new("out")).expect("run dir");
    let models = dir.path().join("models");
    std::fs::create_dir_all(&models).expect("mkdir");
    let forest_json = dir.path().join("forest.json");
    tools.train(&SVC, &forest_json).expect("boltc train");
    tools
        .compile(&SVC, &forest_json, 1, &models.join("svc@1.blt"))
        .expect("boltc compile");
    let forest: RandomForest =
        serde_json::from_str(&std::fs::read_to_string(&forest_json).expect("read"))
            .expect("forest.json parses");
    let options = DaemonOptions {
        default_model: Some("svc"),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::start(&tools, dir.path(), options).expect("boltd starts");
    let data = SVC.training_data();
    let samples: Vec<&[f32]> = (0..64).map(|i| data.sample(i)).collect();
    let expected: Vec<u32> = samples.iter().map(|s| forest.predict(s)).collect();

    let mut stream = UnixStream::connect(&daemon.socket).expect("connect");
    let (mut frame, mut classes) = (Vec::new(), Vec::new());

    // Legacy single frame -> default model.
    wire::encode_single(&mut frame, samples[0]);
    assert!(matches!(
        call(&mut stream, &frame, &mut classes),
        Reply::Classes { .. }
    ));
    assert_eq!(classes, expected[..1]);

    // v2 ClassifyWith -> named model.
    frame.clear();
    wire::encode_classify_with(&mut frame, "svc", samples[1]);
    assert!(matches!(
        call(&mut stream, &frame, &mut classes),
        Reply::Classes { .. }
    ));
    assert_eq!(classes, expected[1..2]);

    // v2 ClassifyBatchWith: 64 samples, one class each, in order.
    frame.clear();
    wire::encode_batch_with(&mut frame, "svc", &samples);
    match call(&mut stream, &frame, &mut classes) {
        Reply::Classes { service_ns } => assert!(service_ns > 0),
        other => panic!("{other:?}"),
    }
    assert_eq!(classes, expected);

    // Unknown model: a structured error frame, and the connection lives on.
    frame.clear();
    wire::encode_classify_with(&mut frame, "nope", samples[0]);
    match call(&mut stream, &frame, &mut classes) {
        Reply::Error { code, detail } => {
            assert_eq!(code, wire::ERR_UNKNOWN_MODEL);
            assert!(detail.contains("nope"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    frame.clear();
    wire::encode_single(&mut frame, samples[2]);
    assert!(matches!(
        call(&mut stream, &frame, &mut classes),
        Reply::Classes { .. }
    ));
    assert_eq!(classes, expected[2..3]);

    // Two pipelined frames in one write come back in order.
    frame.clear();
    wire::encode_single(&mut frame, samples[3]);
    wire::encode_single(&mut frame, samples[4]);
    stream.write_all(&frame).expect("write");
    let mut payload = Vec::new();
    for want in &expected[3..5] {
        wire::read_frame(&mut stream, &mut payload).expect("reply frame");
        wire::decode_reply(&payload, &mut classes).expect("decodes");
        assert_eq!(classes, [*want]);
    }

    // The admin codec: status answers, activating a missing version is
    // refused, and the daemon counted exactly what was answered.
    let mut admin = UnixStream::connect(&daemon.admin).expect("connect admin");
    frame.clear();
    wire::encode_admin_status(&mut frame);
    admin.write_all(&frame).expect("write");
    wire::read_frame(&mut admin, &mut payload).expect("admin reply");
    assert_eq!(
        wire::decode_admin_reply(&payload),
        Ok(AdminReply::Other(0x83))
    );
    frame.clear();
    wire::encode_admin_activate(&mut frame, "svc", 9);
    admin.write_all(&frame).expect("write");
    wire::read_frame(&mut admin, &mut payload).expect("admin reply");
    assert_eq!(
        wire::decode_admin_reply(&payload),
        Ok(AdminReply::Refused(6))
    );
    assert_eq!(daemon.requests_booked(), Ok(1 + 1 + 64 + 1 + 2));
    assert!(!daemon.status().expect("status").kernel.is_empty());

    // Dropping the daemon kills and reaps it.
    let pid = daemon.pid();
    drop(daemon);
    assert!(!Path::new(&format!("/proc/{pid}")).exists());
}

/// The `"name": "..."` values between `key` and the end of its array.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let from = json.find(&format!("\"{key}\"")).expect(key);
    let section = &json[from..];
    let section = &section[..section.find(']').expect("array end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn quick_run_prints_exactly_the_metrics_benchmark_json_names() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");

    // The file repeats the tables in src/report.rs.
    assert_eq!(names_under(&spec, "workloads"), NAMES);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names_under(&spec, "end_to_end"), end_to_end);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(names_under(&spec, "per_layer"), layers);
    for m in END_TO_END {
        let better = if m.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        let row = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
            m.name, m.unit, m.bound
        );
        assert!(spec.contains(&row), "BENCHMARK.json lacks {row}");
    }

    let output = Command::new("bash")
        .arg(manifest.join("run.sh"))
        .args(["--quick", "--trace", "--seed", "7"])
        .env("CARGO_TARGET_DIR", target_dir())
        .output()
        .expect("run.sh runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "run.sh --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let wanted: BTreeSet<&str> = end_to_end
        .iter()
        .copied()
        .chain(layers.iter().map(String::as_str))
        .collect();
    let printed = |who: &str| -> BTreeSet<&str> {
        stdout
            .lines()
            .filter_map(|l| l.strip_prefix(who)?.strip_prefix(' ')?.split(' ').next())
            .collect()
    };
    let probe = printed("probe");
    assert!(!probe.is_empty());
    for workload in NAMES {
        let got: BTreeSet<&str> = printed(workload).union(&probe).copied().collect();
        let missing: Vec<_> = wanted.difference(&got).collect();
        let extra: Vec<_> = got.difference(&wanted).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{workload}: missing {missing:?}, extra {extra:?}"
        );
    }
    assert!(stdout.contains("# result: ok"));
    assert!(stdout.contains("# host nproc="));
    // The run's directory (rPID.N, sockets and fleets inside) is gone; the
    // trace stays. Directories of this test process's own tests are not
    // the run's.
    let mine = format!("r{}.", std::process::id());
    let left: Vec<_> = std::fs::read_dir(manifest.join("out"))
        .expect("out/")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with('r') && n[1..].starts_with(|c: char| c.is_ascii_digit()))
        .filter(|n| !n.starts_with(&mine))
        .collect();
    assert!(left.is_empty(), "run directories left behind: {left:?}");
    assert!(manifest.join("out/trace.json").is_file());
}
