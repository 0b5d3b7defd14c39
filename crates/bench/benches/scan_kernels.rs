//! Criterion micro-benchmark of the feature-level single-sample path's two
//! matchers side by side — the reference dictionary scan (`DictView::scan`,
//! the paper's §4 linear scan, which no inference path runs any more) and
//! the entry-bitmap index — on the three model shapes the repo benchmark
//! serves. (`benches/batching.rs` measures the batched index path.)

use bolt_bench::{benchmark_models, TrainedWorkload};
use bolt_core::BoltForest;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Feature-level single-sample classification two ways on one model: the
/// reference dictionary scan (encode, then `classify_bits_into` — what
/// `classify_with` ran before the entry-bitmap index) against the index
/// match `classify_with` runs now. Samples per second.
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

fn bench_index_vs_scan_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_vs_scan");
    for (model, trained, bolt) in benchmark_models(256) {
        bench_index_vs_scan(&mut group, model, &trained, &bolt);
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_index_vs_scan_models
);
criterion_main!(benches);
