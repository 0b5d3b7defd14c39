//! Extra experiment (beyond the paper's figures): the batching trade-off of
//! §2.1 — "when batching queries Ranger can benefit from its optimizations
//! and achieve very low response times", whereas Bolt targets the no-batching
//! service regime. Compares single-sample vs amortized-batch cost for
//! Ranger-style traversal and for Bolt (sequential, batched, thread-sharded,
//! and sample-parallel), then sweeps the batched path — the per-sample
//! index body looped over the batch into one vote arena — across batch
//! sizes.
//!
//! Run: `cargo run -p bolt-bench --release --bin extra_batching`

use bolt_baselines::{InferenceEngine, RangerLikeForest};
use bolt_bench::{fmt_us, print_table, test_samples, train_workload, Platforms};
use bolt_core::{PartitionPlan, PartitionedBolt};
use bolt_data::Workload;
use std::sync::Arc;
use std::time::Instant;

fn batch_size_sweep(bolt: &bolt_core::BoltForest, samples: &[&[f32]], tag: &str) {
    let mut rows = Vec::new();
    let scratch = std::cell::RefCell::new(bolt.scratch());
    let batch_scratch = std::cell::RefCell::new(bolt.batch_scratch());
    for batch in [1usize, 8, 64, 512] {
        let slice = &samples[..batch.min(samples.len())];
        let b = slice.len() as f64;
        let time_batch = |f: &dyn Fn()| {
            f(); // warm
            let mut best = f64::INFINITY;
            // Repeat small batches so each timing covers >= ~512 samples.
            let reps = (512 / slice.len()).max(1);
            for _ in 0..5 {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                best = best.min(start.elapsed().as_nanos() as f64 / (reps as f64 * b));
            }
            best
        };
        let per_sample = time_batch(&|| {
            let mut scratch = scratch.borrow_mut();
            for s in slice {
                std::hint::black_box(bolt.classify_with(s, &mut scratch));
            }
        });
        let batched = time_batch(&|| {
            let mut out = Vec::new();
            bolt.classify_batch_with(slice, &mut batch_scratch.borrow_mut(), &mut out);
            std::hint::black_box(out.len());
        });
        let sharded = time_batch(&|| {
            std::hint::black_box(bolt.classify_batch_sharded(slice, 4));
        });
        rows.push(vec![
            batch.to_string(),
            fmt_us(per_sample),
            fmt_us(batched),
            format!("{:.2}x", per_sample / batched),
            fmt_us(sharded),
            format!("{:.2}x", per_sample / sharded),
        ]);
    }
    print_table(
        &format!("Batched index path by batch size (amortized µs/sample) [{tag}]"),
        &[
            "batch",
            "per-sample",
            "batched",
            "speedup",
            "sharded(4)",
            "speedup",
        ],
        &rows,
    );
}

fn main() {
    let trained = train_workload(Workload::MnistLike, 10, 4, 2000, test_samples());
    let platforms = Platforms::build_tuned(&trained);
    let ranger = RangerLikeForest::from_forest(&trained.forest);
    let samples: Vec<&[f32]> = (0..trained.test.len())
        .map(|i| trained.test.sample(i))
        .collect();
    let n = samples.len() as f64;

    let time_it = |f: &dyn Fn()| {
        f(); // warm
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_nanos() as f64 / n);
        }
        best
    };

    let ranger_single = time_it(&|| {
        for s in &samples {
            std::hint::black_box(ranger.classify(s));
        }
    });
    let ranger_batch = time_it(&|| {
        std::hint::black_box(ranger.classify_batch(&samples));
    });
    let bolt_single = time_it(&|| {
        let mut scratch = platforms.bolt.scratch();
        for s in &samples {
            std::hint::black_box(platforms.bolt.classify_with(s, &mut scratch));
        }
    });
    let bolt_batched = time_it(&|| {
        let mut scratch = platforms.bolt.batch_scratch();
        let mut out = Vec::new();
        platforms
            .bolt
            .classify_batch_with(&samples, &mut scratch, &mut out);
        std::hint::black_box(out.len());
    });
    let bolt_sharded = time_it(&|| {
        std::hint::black_box(platforms.bolt.classify_batch_sharded(&samples, 4));
    });
    let partitioned = PartitionedBolt::new(Arc::clone(&platforms.bolt), PartitionPlan::new(2, 2))
        .expect("valid plan");
    let bolt_parallel_batch = time_it(&|| {
        std::hint::black_box(partitioned.classify_batch(&samples));
    });

    print_table(
        "Batching trade-off (amortized µs/sample) [MNIST, 10 trees, height 4]",
        &["configuration", "µs/sample"],
        &[
            vec![
                "Ranger, single-sample service".into(),
                fmt_us(ranger_single),
            ],
            vec![
                "Ranger, full-batch (its §2.1 strength)".into(),
                fmt_us(ranger_batch),
            ],
            vec!["BOLT, single-sample service".into(), fmt_us(bolt_single)],
            vec!["BOLT, batched (1 thread)".into(), fmt_us(bolt_batched)],
            vec![
                "BOLT, batched + sharded (4 threads)".into(),
                fmt_us(bolt_sharded),
            ],
            vec![
                "BOLT, sample-parallel batch (4 workers)".into(),
                fmt_us(bolt_parallel_batch),
            ],
        ],
    );

    // The batched path across batch sizes: the same per-sample body as the
    // caller's loop, so what it can buy is only the per-call overhead it
    // saves. Swept on the tuned service forest above (small dictionary) and
    // on the same forest compiled at threshold 0 (one dictionary entry per
    // path).
    batch_size_sweep(&platforms.bolt, &samples, "tuned service forest");
    let scan_heavy = bolt_core::BoltForest::compile(
        &trained.forest,
        &bolt_core::BoltConfig::default().with_cluster_threshold(0),
    )
    .expect("threshold-0 forest compiles");
    batch_size_sweep(&scan_heavy, &samples, "threshold-0 forest");

    // A deeper forest (height 8): ~3k dictionary entries and ~100
    // thresholds per feature, where each run-start count is longest.
    let deep = train_workload(Workload::LstwLike, 20, 8, 2000, test_samples());
    let deep_bolt = bolt_core::BoltForest::compile(
        &deep.forest,
        &bolt_core::BoltConfig::default().with_cluster_threshold(0),
    )
    .expect("threshold-0 forest compiles");
    let deep_samples: Vec<&[f32]> = (0..deep.test.len()).map(|i| deep.test.sample(i)).collect();
    batch_size_sweep(
        &deep_bolt,
        &deep_samples,
        "deep forest (LSTW, 20 trees, height 8, threshold 0)",
    );

    println!(
        "\nthe paper's positioning: batching favours traversal engines, but \
         \"inference workloads increasingly demand low response times and \
         cannot wait to batch queries\" (§1). bolt's batched path is its \
         single-sample body in a loop: a batch costs what its samples do."
    );
}
