//! End-to-end test of the `boltc` CLI: train → compile → eval on disk
//! artifacts, plus CSV ingestion and error reporting.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn boltc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_boltc"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("boltc-test-{}-{name}", std::process::id()))
}

#[test]
fn train_compile_eval_round_trip() {
    let forest_path = temp_path("forest.json");
    let bolt_path = temp_path("bolt.json");

    let out = boltc()
        .args([
            "train",
            "--workload",
            "mnist",
            "--samples",
            "400",
            "--trees",
            "5",
            "--height",
            "3",
            "--seed",
            "9",
        ])
        .args(["--out", forest_path.to_str().expect("utf8 path")])
        .output()
        .expect("boltc train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(forest_path.exists());

    let out = boltc()
        .args(["compile", "--forest", forest_path.to_str().expect("utf8")])
        .args([
            "--threshold",
            "2",
            "--out",
            bolt_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("boltc compile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("dictionary entries"), "{stdout}");

    for model_flag in [("--forest", &forest_path), ("--bolt", &bolt_path)] {
        let out = boltc()
            .args(["eval", model_flag.0, model_flag.1.to_str().expect("utf8")])
            .args(["--workload", "mnist", "--samples", "200", "--seed", "9"])
            .output()
            .expect("boltc eval runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("accuracy"));
    }

    // The two representations agree on accuracy for the same eval set.
    let acc = |flag: &str, path: &PathBuf| -> String {
        let out = boltc()
            .args(["eval", flag, path.to_str().expect("utf8")])
            .args(["--workload", "mnist", "--samples", "200", "--seed", "9"])
            .output()
            .expect("runs");
        String::from_utf8_lossy(&out.stdout)
            .split_whitespace()
            .last()
            .expect("accuracy token")
            .to_owned()
    };
    assert_eq!(acc("--forest", &forest_path), acc("--bolt", &bolt_path));

    let _ = std::fs::remove_file(forest_path);
    let _ = std::fs::remove_file(bolt_path);
}

#[test]
fn csv_training_works() {
    let csv_path = temp_path("data.csv");
    let forest_path = temp_path("csv-forest.json");
    let mut csv = String::from("x0,x1,label\n");
    for i in 0..60 {
        let x0 = i % 6;
        csv.push_str(&format!("{x0},{},{}\n", i % 3, u32::from(x0 > 2)));
    }
    std::fs::write(&csv_path, csv).expect("writes csv");

    let out = boltc()
        .args(["train", "--csv", csv_path.to_str().expect("utf8")])
        .args(["--trees", "3", "--height", "3"])
        .args(["--out", forest_path.to_str().expect("utf8")])
        .output()
        .expect("boltc train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = boltc()
        .args(["eval", "--forest", forest_path.to_str().expect("utf8")])
        .args(["--csv", csv_path.to_str().expect("utf8")])
        .output()
        .expect("boltc eval runs");
    assert!(out.status.success());

    let _ = std::fs::remove_file(csv_path);
    let _ = std::fs::remove_file(forest_path);
}

#[test]
fn regression_train_compile_eval_round_trip() {
    let forest_path = temp_path("reg-forest.json");
    let bolt_path = temp_path("reg-bolt.json");

    let out = boltc()
        .args(["train-reg", "--workload", "trips", "--samples", "500"])
        .args(["--trees", "4", "--height", "4", "--seed", "3"])
        .args(["--out", forest_path.to_str().expect("utf8")])
        .output()
        .expect("boltc train-reg runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("RMSE"));

    let out = boltc()
        .args(["compile", "--forest", forest_path.to_str().expect("utf8")])
        .args(["--out", bolt_path.to_str().expect("utf8")])
        .output()
        .expect("boltc compile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let rmse = |flag: &str, path: &PathBuf| -> String {
        let out = boltc()
            .args(["eval", flag, path.to_str().expect("utf8")])
            .args(["--workload", "trips", "--samples", "300", "--seed", "3"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .split_whitespace()
            .last()
            .expect("rmse token")
            .to_owned()
    };
    // Compiled regressor matches the forest to printed precision.
    assert_eq!(rmse("--forest", &forest_path), rmse("--bolt", &bolt_path));

    let _ = std::fs::remove_file(forest_path);
    let _ = std::fs::remove_file(bolt_path);
}

#[test]
fn bad_usage_reports_errors() {
    let out = boltc().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = boltc()
        .args(["train", "--out", "/tmp/x.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload or --csv"));

    let out = boltc().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
}

/// `verify` reads a boosted forest as what its JSON says it is: its tree
/// weights count (read as a random forest, the weights would be dropped
/// and the weighted artifact would seem to diverge).
#[test]
fn boosted_artifact_verifies_against_its_weighted_forest() {
    use bolt_repro::artifact::ArtifactWriter;
    use bolt_repro::core::{BoltConfig, BoltForest};
    use bolt_repro::data::{generate, Workload};
    use bolt_repro::forest::{BoostConfig, BoostedForest};
    let data = generate(Workload::LstwLike, 600, 1);
    let config = BoostConfig::new(6).with_max_height(4).with_seed(2);
    let boosted = BoostedForest::train(&data, &config);
    let (forest_path, blt_path) = (temp_path("boosted.json"), temp_path("boosted.blt"));
    let json = serde_json::to_string(&boosted).expect("serializes");
    std::fs::write(&forest_path, json).expect("writes forest");
    let bolt = BoltForest::compile(&boosted, &BoltConfig::default()).expect("compiles");
    ArtifactWriter::write_forest(&bolt, &blt_path).expect("writes artifact");

    let out = boltc()
        .args(["verify", "--blt", blt_path.to_str().expect("utf8")])
        .args(["--forest", forest_path.to_str().expect("utf8")])
        .args(["--workload", "lstw", "--samples", "500"])
        .output()
        .expect("boltc verify runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(forest_path);
    let _ = std::fs::remove_file(blt_path);
}

/// A reader that stops early (`boltc inspect --blt m.blt | head -1`) closes
/// boltc's stdout under it. That ends boltc quietly and successfully, with
/// no panic: once when the pipe closes before boltc writes anything, and
/// once after the reader has taken the first line.
#[test]
fn closed_stdout_ends_boltc_quietly() {
    let forest_path = temp_path("pipe-forest.json");
    let model_path = temp_path("pipe-model.blt");
    let out = boltc()
        .args(["train", "--workload", "lstw", "--samples", "300"])
        .args(["--trees", "3", "--height", "3", "--seed", "5"])
        .args(["--out", forest_path.to_str().expect("utf8")])
        .output()
        .expect("boltc train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = boltc()
        .args(["compile", "--forest", forest_path.to_str().expect("utf8")])
        .args(["--out", model_path.to_str().expect("utf8")])
        .output()
        .expect("boltc compile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for lines_read in [0, 1] {
        let mut child = boltc()
            .args(["inspect", "--blt", model_path.to_str().expect("utf8")])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("boltc inspect starts");
        let stdout = child.stdout.take().expect("piped stdout");
        if lines_read == 1 {
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("first line");
            assert!(line.contains("BLT1"), "{line}");
        } else {
            drop(stdout);
        }
        let out = child.wait_with_output().expect("boltc inspect exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "after {lines_read} line(s): {stderr}"
        );
        assert!(
            out.status.success(),
            "after {lines_read} line(s): {:?}: {stderr}",
            out.status
        );
    }
    std::fs::remove_file(&forest_path).ok();
    std::fs::remove_file(&model_path).ok();
}
