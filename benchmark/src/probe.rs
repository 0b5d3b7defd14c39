//! The per-layer probe: every layer of the repo timed from outside, by
//! calling its public functions on the three benchmark models.
//!
//! Nothing here is gated. The numbers exist so a change to one layer can
//! say which stage it moved (README.md maps each to the end-to-end metric
//! and workload it should show up in). Timings are medians over repeated
//! passes across one fixed sample set; counts are exact and repeat
//! bit-for-bit for a given seed.

use crate::models::{ModelSpec, Pool, ALL, SVC};
use crate::stats;
use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_baselines::{ForestPackingForest, InferenceEngine, RangerLikeForest, ScikitLikeForest};
use bolt_bitpack::Mask;
use bolt_core::{BoltForest, InferenceStats};
use bolt_forest::RandomForest;
use bolt_server::proto::{ClassifyResponse, Request};
use bolt_server::{ModelRegistry, ModelStore};
use bolt_simcpu::instrument::{self, FpLayout};
use bolt_simcpu::{hw, SimCpu};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Samples each timing pass walks.
const SAMPLES: usize = 256;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// How long the probe may spend per timing.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Target length of one timed repetition.
    pub repetition: Duration,
    /// Repetitions; the median is reported.
    pub repetitions: usize,
}

impl Effort {
    /// What a measuring run uses: about 20 ms per timing.
    pub const FULL: Self = Self {
        repetition: Duration::from_millis(2),
        repetitions: 9,
    };
    /// What `--quick` uses: enough to produce every number.
    pub const QUICK: Self = Self {
        repetition: Duration::from_micros(300),
        repetitions: 3,
    };

    /// Median nanoseconds per call of `pass`, which makes `calls` calls.
    fn ns_per_call(self, calls: usize, mut pass: impl FnMut()) -> f64 {
        // Size a repetition from one warm-up pass (which also fills caches).
        let started = Instant::now();
        pass();
        let one = started.elapsed().max(Duration::from_nanos(1));
        let passes = (self.repetition.as_nanos() / one.as_nanos()).clamp(1, 100_000) as usize;
        let times: Vec<f64> = (0..self.repetitions)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..passes {
                    pass();
                }
                started.elapsed().as_nanos() as f64 / (passes * calls) as f64
            })
            .collect();
        stats::median(&times)
    }

    /// Median seconds of `repetitions.min(3)` runs of a one-shot step.
    fn seconds(self, mut step: impl FnMut()) -> f64 {
        let times: Vec<f64> = (0..self.repetitions.min(3))
            .map(|_| {
                let started = Instant::now();
                step();
                started.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&times)
    }
}

/// One model built in process, with its probe sample set.
struct Built {
    spec: ModelSpec,
    forest: RandomForest,
    bolt: BoltForest,
    pool: Pool,
}

impl Built {
    fn samples(&self) -> impl Iterator<Item = &[f32]> + Clone {
        (0..SAMPLES).map(|i| self.pool.sample(i))
    }
}

/// Runs the whole probe. `dir` receives the artifacts and model
/// directories the artifact and store timings need.
///
/// # Errors
///
/// File-system failures under `dir`.
pub fn run(seed: u64, dir: &Path, effort: Effort) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut train_s = 0.0;
    let mut built = Vec::new();
    for spec in ALL {
        let data = spec.training_data();
        let mut forest = None;
        train_s += effort.seconds(|| {
            forest = Some(RandomForest::train(&data, &spec.forest_config()));
        });
        let forest = forest.expect("trained at least once");
        let mut bolt = None;
        let compile_s = effort.seconds(|| {
            bolt = Some(BoltForest::compile(&forest, &spec.bolt_config()));
        });
        m.insert(format!("core.compile_s.{}", spec.name), compile_s);
        let bolt = bolt
            .expect("compiled at least once")
            .map_err(|e| format!("compile {}: {e}", spec.name))?;
        let pool = Pool::draw(&spec, &forest, seed);
        built.push(Built {
            spec,
            forest,
            bolt,
            pool,
        });
    }
    m.insert("forest.train_s".into(), train_s);
    for b in &built {
        core_layers(b, effort, &mut m);
    }
    let [wide, svc, deep] = &built[..] else {
        unreachable!("three models");
    };
    batch_layers(wide, deep, effort, &mut m);
    exact_counts(wide, &mut m);
    baselines(wide, effort, &mut m);
    artifact_layers(&built, svc, dir, effort, &mut m)?;
    server_layers(svc, dir, effort, &mut m)?;
    Ok(m)
}

/// forest.binarize, core.dictionary, core.table, core.engine per model.
fn core_layers(b: &Built, effort: Effort, m: &mut Metrics) {
    let name = b.spec.name;
    let (bolt, view, universe) = (&b.bolt, b.bolt.view(), b.bolt.universe());
    let dict = view.dict();
    let mut put = |metric: &str, value: f64| {
        m.insert(format!("{metric}.{name}"), value);
    };
    put("forest.binarize.predicates", universe.len() as f64);
    put("core.dictionary.entries", bolt.dictionary().len() as f64);
    put(
        "core.dictionary.scan_bytes",
        bolt.dictionary().scan_bytes() as f64,
    );
    put("core.resident_bytes", bolt.approx_resident_bytes() as f64);

    let mut mask = Mask::zeros(universe.len());
    let encode = effort.ns_per_call(SAMPLES, || {
        for s in b.samples() {
            universe.evaluate_into(s, &mut mask);
        }
        black_box(&mask);
    });
    put("forest.binarize.encode_ns", encode);

    // The later stages run on masks encoded beforehand, and the lookups on
    // the matches a scan recorded, so each is timed alone.
    let masks: Vec<Mask> = b.samples().map(|s| universe.evaluate(s)).collect();
    let scan = effort.ns_per_call(SAMPLES, || {
        let mut hits = 0u32;
        for mask in &masks {
            dict.scan(mask, |id| hits = hits.wrapping_add(id));
        }
        black_box(hits);
    });
    put("core.dictionary.scan_ns", scan);

    let mut matches = Vec::new();
    for mask in &masks {
        dict.scan(mask, |id| matches.push((id, dict.address_of(id, mask))));
    }
    // Per sample: all of its matched entries' lookups.
    let lookup = effort.ns_per_call(SAMPLES, || {
        for &(id, address) in &matches {
            black_box(view.lookup_entry_votes(id, address));
        }
    });

    let mut votes = Vec::new();
    let classify_bits = effort.ns_per_call(SAMPLES, || {
        for mask in &masks {
            black_box(view.classify_bits_into(mask, &mut votes));
        }
    });
    put("core.engine.classify_bits_ns", classify_bits);
    put(
        "core.engine.vote_self_ns",
        (classify_bits - scan - lookup).max(0.0),
    );

    let mut scratch = bolt.scratch();
    let classify = effort.ns_per_call(SAMPLES, || {
        for s in b.samples() {
            black_box(bolt.classify_with(s, &mut scratch));
        }
    });
    put("core.engine.classify_ns", classify);

    if name == "wide" {
        m.insert("core.table.lookup_ns".into(), lookup);
        let predict = effort.ns_per_call(SAMPLES, || {
            for s in b.samples() {
                black_box(b.forest.predict(s));
            }
        });
        m.insert("forest.predict_ns".into(), predict);
    }
}

/// core.batch: the entry-major kernel at three batch sizes.
fn batch_layers(wide: &Built, deep: &Built, effort: Effort, m: &mut Metrics) {
    let per_sample = |b: &Built, batch: usize| {
        let samples: Vec<&[f32]> = (0..batch)
            .map(|i| b.pool.sample(i % b.pool.len()))
            .collect();
        let mut scratch = b.bolt.batch_scratch();
        effort.ns_per_call(batch, || {
            b.bolt.batch_votes_with(&samples, &mut scratch);
            black_box(scratch.class(0));
        })
    };
    for batch in [8, 64, 512] {
        m.insert(
            format!("core.batch.votes_ns_per_sample.b{batch}"),
            per_sample(deep, batch),
        );
    }
    m.insert(
        "core.batch.votes_ns_per_sample.wide_b64".into(),
        per_sample(wide, 64),
    );
    // Base: the single-sample classify_with on the same model.
    let speedup = m["core.engine.classify_ns.deep"] / m["core.batch.votes_ns_per_sample.b64"];
    m.insert("core.batch.speedup_b64".into(), speedup);
}

/// Exact per-sample counts on `wide`: the engine's own counters and the
/// simulated CPU replaying the real structures.
fn exact_counts(wide: &Built, m: &mut Metrics) {
    let mut total = InferenceStats::default();
    for s in wide.samples() {
        let (_, stats) = wide.bolt.classify_with_stats(s);
        total.entries_matched += stats.entries_matched;
        total.bloom_rejects += stats.bloom_rejects;
        total.table_hits += stats.table_hits;
        total.table_misses += stats.table_misses;
    }
    let per = |count: usize| count as f64 / SAMPLES as f64;
    let probes = total.table_hits + total.table_misses + total.bloom_rejects;
    m.insert(
        "core.engine.entries_matched_per_sample".into(),
        per(total.entries_matched),
    );
    m.insert(
        "core.filter.bloom_rejects_per_sample".into(),
        per(total.bloom_rejects),
    );
    m.insert("core.table.hits_per_sample".into(), per(total.table_hits));
    m.insert(
        "core.table.misses_per_sample".into(),
        per(total.table_misses),
    );
    m.insert(
        "core.table.useful_probe_ratio".into(),
        total.table_hits as f64 / probes.max(1) as f64,
    );

    let profile = hw::xeon_e5_2650_v4();
    let (mut bolt_cpu, mut fp_cpu) = (SimCpu::new(&profile), SimCpu::new(&profile));
    let fp_layout = FpLayout::new(&wide.forest, &wide.spec.training_data());
    for s in wide.samples() {
        instrument::run_bolt(&wide.bolt, &wide.bolt.encode(s), &mut bolt_cpu);
        instrument::run_forest_packing(&wide.forest, &fp_layout, s, &mut fp_cpu);
    }
    let (bolt, fp) = (bolt_cpu.counters(), fp_cpu.counters());
    let per = |count: u64| count as f64 / SAMPLES as f64;
    m.insert(
        "simcpu.bolt.instructions_per_sample".into(),
        per(bolt.instructions),
    );
    m.insert(
        "simcpu.bolt.branch_misses_per_sample".into(),
        per(bolt.branch_misses),
    );
    m.insert(
        "simcpu.bolt.llc_misses_per_sample".into(),
        per(bolt.cache_misses),
    );
    m.insert(
        "simcpu.fp.instructions_per_sample".into(),
        per(fp.instructions),
    );
}

/// baselines: the Fig. 10 reference platforms, and a host-noise control —
/// a Bolt change must not move them.
fn baselines(wide: &Built, effort: Effort, m: &mut Metrics) {
    let engines: [(&str, Box<dyn InferenceEngine>); 3] = [
        (
            "scikit",
            Box::new(ScikitLikeForest::from_forest(&wide.forest)),
        ),
        (
            "ranger",
            Box::new(RangerLikeForest::from_forest(&wide.forest)),
        ),
        (
            "fp",
            Box::new(ForestPackingForest::from_forest(
                &wide.forest,
                &wide.spec.training_data(),
            )),
        ),
    ];
    for (name, engine) in engines {
        let ns = effort.ns_per_call(SAMPLES, || {
            for s in wide.samples() {
                black_box(engine.classify(s));
            }
        });
        m.insert(format!("baselines.{name}.classify_ns"), ns);
    }
}

/// artifact: write, map, view build, and classification through the map.
fn artifact_layers(
    built: &[Built],
    svc: &Built,
    dir: &Path,
    effort: Effort,
    m: &mut Metrics,
) -> Result<(), String> {
    for b in built {
        let bytes = ArtifactWriter::serialize_forest_versioned(&b.bolt, 1).len();
        m.insert(format!("artifact.bytes.{}", b.spec.name), bytes as f64);
    }
    let path = dir.join("probe-svc@1.blt");
    let mut written = Ok(());
    let write_s = effort.seconds(|| {
        written = ArtifactWriter::write_forest_versioned(&svc.bolt, 1, &path);
    });
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    m.insert("artifact.write_s".into(), write_s);

    let us = |ns: f64| ns / 1000.0;
    m.insert(
        "artifact.map_us".into(),
        us(effort.ns_per_call(1, || {
            black_box(Artifact::map(&path).is_ok());
        })),
    );
    m.insert(
        "artifact.open_us".into(),
        us(effort.ns_per_call(1, || {
            black_box(MappedForest::open(&path).is_ok());
        })),
    );
    // The view build alone: open minus map would also carry noise, so time
    // from_artifact on artifacts mapped outside the clock.
    let view_build = {
        let times: Vec<f64> = (0..effort.repetitions.max(3) * 3)
            .filter_map(|_| {
                let artifact = Artifact::map(&path).ok()?;
                let started = Instant::now();
                black_box(MappedForest::from_artifact(artifact).is_ok());
                Some(started.elapsed().as_nanos() as f64)
            })
            .collect();
        stats::median(&times)
    };
    m.insert("artifact.view_build_us".into(), us(view_build));

    let mapped = MappedForest::open(&path).map_err(|e| format!("map {}: {e}", path.display()))?;
    let (view, universe) = (mapped.view(), mapped.universe());
    let mut mask = Mask::zeros(universe.len());
    let mut votes = Vec::new();
    // The same steps classify_with takes, on the mapped sections: equal to
    // core.engine.classify_ns.svc when the mapping really is zero-copy.
    let ns = effort.ns_per_call(SAMPLES, || {
        for s in svc.samples() {
            universe.evaluate_into(s, &mut mask);
            black_box(view.classify_bits_into(&mask, &mut votes));
        }
    });
    m.insert("artifact.mapped_classify_ns".into(), ns);
    Ok(())
}

/// server: the wire codec, and the model store in process (resolve on a
/// resident model, resolve that must evict and map, durable activate).
fn server_layers(svc: &Built, dir: &Path, effort: Effort, m: &mut Metrics) -> Result<(), String> {
    let mut single = Vec::new();
    crate::wire::encode_single(&mut single, svc.pool.sample(0));
    let refs: Vec<&[f32]> = (0..64).map(|i| svc.pool.sample(i)).collect();
    let mut batch = Vec::new();
    crate::wire::encode_batch_with(&mut batch, SVC.name, &refs);
    m.insert(
        "server.proto.decode_single_ns".into(),
        effort.ns_per_call(1, || {
            black_box(Request::decode(&single[4..]).is_ok());
        }),
    );
    m.insert(
        "server.proto.decode_batch64_ns".into(),
        effort.ns_per_call(1, || {
            black_box(Request::decode(&batch[4..]).is_ok());
        }),
    );
    let response = ClassifyResponse {
        class: 2,
        latency_ns: 12_345,
    };
    m.insert(
        "server.proto.encode_resp_ns".into(),
        effort.ns_per_call(1, || {
            black_box(response.encode());
        }),
    );

    // Four artifacts under a budget of one and a half: resolving them in
    // turn misses every time; resolving one repeatedly hits.
    let models = dir.join("probe-store");
    std::fs::create_dir_all(&models).map_err(|e| format!("mkdir: {e}"))?;
    let bytes = ArtifactWriter::serialize_forest_versioned(&svc.bolt, 1);
    for name in ["a", "b", "c", "d"] {
        std::fs::write(models.join(format!("{name}@1.blt")), &bytes).map_err(|e| e.to_string())?;
    }
    std::fs::write(
        models.join("a@2.blt"),
        ArtifactWriter::serialize_forest_versioned(&svc.bolt, 2),
    )
    .map_err(|e| e.to_string())?;
    let budget = bytes.len() as u64 * 3 / 2;
    let store = ModelStore::open(ModelRegistry::new(), &models, Some(budget), 0)
        .map_err(|e| format!("open {}: {e}", models.display()))?;
    let resolve = |name: &str| black_box(store.resolve(Some(name)).is_ok());
    m.insert(
        "server.store.resolve_hit_ns".into(),
        effort.ns_per_call(1, || {
            resolve("a");
        }),
    );
    m.insert(
        "server.store.resolve_miss_us".into(),
        effort.ns_per_call(4, || {
            for name in ["a", "b", "c", "d"] {
                resolve(name);
            }
        }) / 1000.0,
    );
    // WAL append + fsync + apply, alternating so no call is a duplicate.
    let mut version = 1;
    let activate: Vec<f64> = (0..effort.repetitions.max(3) * 2)
        .map(|_| {
            version = 3 - version;
            let started = Instant::now();
            black_box(store.activate("a", version).is_ok());
            started.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    m.insert("server.store.activate_us".into(), stats::median(&activate));
    Ok(())
}
