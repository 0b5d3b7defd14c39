//! Criterion micro-benchmarks of the dictionary scan kernels: the scalar
//! flat-layout reference vs each blocked SIMD kernel the host supports,
//! on deep scan-bound LSTW forests (cluster threshold 0 — one dictionary
//! entry per root-to-leaf path, so the scan dominates inference).
//!
//! Two dictionary sizes are measured: a cache-resident one (the serving
//! sweet spot Bolt targets) and a larger one that spills to L3, where the
//! scan is memory-bandwidth-bound and SIMD width matters less.
//!
//! Throughput is reported in dictionary entries tested per second; the
//! tentpole target is ≥1.5× scalar for the best native kernel on the
//! cache-resident forest.
//!
//! The `index_vs_scan` group sets the feature-level single-sample path's
//! two matchers side by side — the dispatched scan and the entry-bitmap
//! index — on the three model shapes the repo benchmark serves. (Batches
//! have no kernel: `benches/batching.rs` measures the batched index path.)

use bolt_bench::{benchmark_models, train_workload, TrainedWorkload};
use bolt_core::{BoltConfig, BoltForest, Kernel};
use bolt_data::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_scan_group(c: &mut Criterion, name: &str, trained: &TrainedWorkload, bolt: &BoltForest) {
    let view = bolt.view();
    let dict = view.dict();
    let inputs: Vec<_> = (0..trained.test.len())
        .map(|i| bolt.encode(trained.test.sample(i)))
        .collect();
    println!(
        "{name}: {} entries x {} words/entry ({} KiB mask+key), {} inputs",
        dict.len(),
        dict.stride(),
        dict.len() * dict.stride() * 16 / 1024,
        inputs.len(),
    );
    let mut group = c.benchmark_group(name);
    // One iteration scans the whole dictionary once per input sample.
    group.throughput(Throughput::Elements((dict.len() * inputs.len()) as u64));
    for kernel in Kernel::all_supported() {
        group.bench_with_input(BenchmarkId::from_parameter(kernel), &kernel, |b, &k| {
            b.iter(|| {
                let mut acc = 0u32;
                for bits in &inputs {
                    dict.scan_with_kernel(black_box(bits), k, |id| acc = acc.wrapping_add(id));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// Feature-level single-sample classification two ways on one model: the
/// dictionary scan (encode, then `classify_bits_into` under the dispatched
/// kernel — what `classify_with` ran before the entry-bitmap index) against
/// the index match `classify_with` runs now. Samples per second.
fn bench_index_vs_scan(
    group: &mut criterion::BenchmarkGroup<'_>,
    model: &str,
    trained: &TrainedWorkload,
    bolt: &BoltForest,
) {
    let samples: Vec<&[f32]> = (0..trained.test.len())
        .map(|i| trained.test.sample(i))
        .collect();
    println!(
        "index_vs_scan/{model}: {} entries, {} predicates in {} groups, index {} KiB",
        bolt.dictionary().len(),
        bolt.universe().len(),
        bolt.universe().n_groups(),
        bolt.index().heap_bytes() / 1024,
    );
    group.throughput(Throughput::Elements(samples.len() as u64));
    group.bench_function(BenchmarkId::new("scan", model), |b| {
        let (view, universe) = (bolt.view(), bolt.universe());
        let mut bits = bolt_bitpack::Mask::zeros(universe.len());
        let mut votes = Vec::new();
        b.iter(|| {
            let mut last = 0u32;
            for s in &samples {
                universe.evaluate_into(black_box(s), &mut bits);
                last = view.classify_bits_into(&bits, &mut votes);
            }
            black_box(last)
        });
    });
    group.bench_function(BenchmarkId::new("index", model), |b| {
        let mut scratch = bolt.scratch();
        b.iter(|| {
            let mut last = 0u32;
            for s in &samples {
                last = bolt.classify_with(black_box(s), &mut scratch);
            }
            black_box(last)
        });
    });
}

fn compile_deep(trained: &TrainedWorkload) -> BoltForest {
    BoltForest::compile(
        &trained.forest,
        &BoltConfig::default().with_cluster_threshold(0),
    )
    .expect("threshold-0 forest compiles")
}

fn bench_scan_kernels(c: &mut Criterion) {
    println!("host kernel: {}", Kernel::selected());

    let small = train_workload(Workload::LstwLike, 20, 8, 400, 64);
    let small_bolt = compile_deep(&small);
    bench_scan_group(
        c,
        "scan_kernels_lstw_20trees_h8_th0_small",
        &small,
        &small_bolt,
    );

    let deep = train_workload(Workload::LstwLike, 20, 8, 2000, 64);
    let bolt = compile_deep(&deep);
    bench_scan_group(c, "scan_kernels_lstw_20trees_h8_th0_large", &deep, &bolt);

    // End-to-end single-sample classification under the dispatched kernel,
    // for the satellite question "what does the scan win buy the whole
    // pipeline" — same deep forest, votes + argmax included.
    let mut group = c.benchmark_group("classify_lstw_20trees_h8_th0");
    let samples: Vec<&[f32]> = (0..deep.test.len()).map(|i| deep.test.sample(i)).collect();
    group.throughput(Throughput::Elements(samples.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(Kernel::selected()), |b| {
        let mut scratch = bolt.scratch();
        b.iter(|| {
            let mut last = 0u32;
            for s in &samples {
                last = bolt.classify_with(black_box(s), &mut scratch);
            }
            black_box(last)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("index_vs_scan");
    for (model, trained, bolt) in benchmark_models(256) {
        bench_index_vs_scan(&mut group, model, &trained, &bolt);
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scan_kernels
);
criterion_main!(benches);
