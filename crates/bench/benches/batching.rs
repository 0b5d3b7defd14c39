//! Criterion micro-benchmarks of batched inference: the caller's own
//! `classify_with` loop vs the batched body (the same per-sample body looped
//! inside the library into one vote arena) vs the thread-sharded batch, at
//! batch sizes 8/64/512 on the three model shapes the repo benchmark serves.
//!
//! Times are per *batch*, so divide by the batch size for per-sample cost;
//! `extra_batching` prints that amortized table directly.

use bolt_bench::benchmark_models;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BATCH_SIZES: [usize; 3] = [8, 64, 512];

fn bench_batch_index(c: &mut Criterion) {
    for (model, trained, bolt) in benchmark_models(512) {
        let samples: Vec<&[f32]> = (0..trained.test.len())
            .map(|i| trained.test.sample(i))
            .collect();
        let mut group = c.benchmark_group(format!("batch_index_{model}"));
        for &batch in &BATCH_SIZES {
            let slice = &samples[..batch];
            group.throughput(Throughput::Elements(batch as u64));

            group.bench_with_input(BenchmarkId::new("per_sample", batch), &batch, |b, _| {
                let mut scratch = bolt.scratch();
                b.iter(|| {
                    let mut last = 0u32;
                    for s in slice {
                        last = bolt.classify_with(black_box(s), &mut scratch);
                    }
                    black_box(last)
                });
            });

            group.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, _| {
                let mut scratch = bolt.batch_scratch();
                b.iter(|| {
                    bolt.batch_votes_with(black_box(slice), &mut scratch);
                    black_box(scratch.class(batch - 1))
                });
            });

            group.bench_with_input(BenchmarkId::new("sharded_4", batch), &batch, |b, _| {
                b.iter(|| black_box(bolt.classify_batch_sharded(black_box(slice), 4)));
            });
        }
        group.finish();
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batch_index
);
criterion_main!(benches);
