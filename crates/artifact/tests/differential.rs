//! Artifact round-trip differential harness: a model served from a mapped
//! `.blt` file must classify **bit-identically** to the in-memory model it
//! was serialized from, across the full compile configuration matrix
//! (cluster threshold × bloom filtering × explanation payloads), on
//! adversarial inputs, through the per-sample and batched paths — and so
//! must a regressor's prediction bits.

use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_core::oracle::{self, OracleRng};
use bolt_core::{BatchScratch, BoltConfig, BoltForest, BoltScratch};
use bolt_forest::{RegressionConfig, RegressionDataset, RegressionForest};

/// The index a mapped model builds at open (from the mapped flat arrays and
/// the `PRED` section), fed the run starts of its constraining groups, must
/// match exactly the entries the owned model's reference scan matches over
/// the sample's `Mask`, in the same order — the artifact leg of the index
/// differential — as must the reference scan over the mapped flat arrays
/// themselves; each match's address gathered by direct compares over the
/// mapped arrays must equal the owned scan's; and the scratch-based serving
/// entry point must classify as the owned model does.
fn assert_mapped_index_matches(
    bolt: &BoltForest,
    mapped: &MappedForest,
    sample: &[f32],
    scratch: &mut BoltScratch,
) {
    let universe = mapped.universe();
    let bits = bolt.encode(sample);
    let mut reference = Vec::new();
    bolt.view().dict().scan(&bits, |id| reference.push(id));
    let mut mapped_scan = Vec::new();
    mapped.view().dict().scan(&bits, |id| mapped_scan.push(id));
    assert_eq!(
        mapped_scan, reference,
        "mapped scan diverges from owned scan"
    );
    let index = mapped.view().index();
    let mut starts = vec![0u32; index.constraining().len()];
    universe.run_starts_into(sample, index.constraining(), &mut starts);
    let mut acc = vec![0u64; index.words()];
    let mut got = Vec::new();
    index.for_each_match(&starts, &mut acc, |id| got.push(id));
    assert_eq!(got, reference, "mapped index diverges from owned scan");
    for &id in &reference {
        assert_eq!(
            mapped.view().dict().address_of_sample(id, universe, sample),
            bolt.view().dict().address_of(id, &bits),
            "mapped compared address of entry {id} diverges from the owned bits"
        );
    }
    assert_eq!(
        mapped.classify_with(sample, scratch),
        bolt.classify_bits(&bits),
        "mapped classify_with diverges from the owned scan"
    );
}

/// The mapped artifact's batched path must leave vote vectors bit-identical
/// to the owned model's batched engine (which the core harness pins to the
/// scalar raw-bits reference), through one caller-owned scratch each.
fn assert_mapped_batch_matches(
    bolt: &BoltForest,
    mapped: &MappedForest,
    slices: &[&[f32]],
    owned_scratch: &mut BatchScratch,
    mapped_scratch: &mut BatchScratch,
) {
    bolt.batch_votes_with(slices, owned_scratch);
    let mut classes = Vec::new();
    mapped.classify_batch_with(slices, mapped_scratch, &mut classes);
    assert_eq!(mapped_scratch.len(), slices.len());
    for (b, &class) in classes.iter().enumerate() {
        assert_eq!(
            mapped_scratch.votes(b),
            owned_scratch.votes(b),
            "mapped batched votes diverge from owned on sample {b}"
        );
        assert_eq!(class, owned_scratch.class(b));
    }
}

fn temp_blt(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bolt-artifact-diff-{}-{tag}.blt",
        std::process::id()
    ));
    p
}

#[test]
fn classifier_round_trip_is_bit_identical_across_config_matrix() {
    // One batch scratch per side across every seed and configuration: the
    // models differ in shape, so each run after the first is a refit.
    let (mut owned_batch, mut mapped_batch) = (BatchScratch::default(), BatchScratch::default());
    for seed in [11u64, 427] {
        let case = oracle::served_case(seed, 40);
        for (i, config) in oracle::config_matrix().iter().enumerate() {
            let bolt = BoltForest::compile(&case.forest, config).expect("compile");
            let bytes = ArtifactWriter::serialize_forest(&bolt);
            let mapped =
                MappedForest::from_artifact(Artifact::from_bytes(&bytes).expect("valid artifact"))
                    .expect("valid classifier");

            assert_eq!(
                mapped.n_classes(),
                bolt.n_classes(),
                "seed {seed} config {i}"
            );
            let mut refs = Vec::with_capacity(case.inputs.len());
            let mut scratch = BoltScratch::default();
            for sample in &case.inputs {
                let expected = bolt.classify(sample);
                refs.push(expected);
                assert_eq!(mapped.classify(sample), expected, "seed {seed} config {i}");
                // Vote vectors bit-identical, not merely argmax-equal.
                let owned: Vec<u64> = bolt
                    .votes_for_bits(&bolt.encode(sample))
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let via_map: Vec<u64> = mapped.votes(sample).iter().map(|v| v.to_bits()).collect();
                assert_eq!(via_map, owned, "seed {seed} config {i}: vote bits diverge");
                assert_mapped_index_matches(&bolt, &mapped, sample, &mut scratch);
            }
            let slices: Vec<&[f32]> = case.inputs.iter().map(Vec::as_slice).collect();
            assert_eq!(
                mapped.classify_batch(&slices),
                refs,
                "batched, seed {seed} config {i}"
            );
            assert_mapped_batch_matches(
                &bolt,
                &mapped,
                &slices,
                &mut owned_batch,
                &mut mapped_batch,
            );
        }
    }
}

#[test]
fn file_mapped_load_matches_in_memory_load() {
    let case = oracle::served_case(7, 24);
    let bolt = BoltForest::compile(&case.forest, &BoltConfig::default()).expect("compile");
    let path = temp_blt("fileload");
    ArtifactWriter::write_forest(&bolt, &path).expect("write");
    let mapped = MappedForest::open(&path).expect("open");
    let in_mem = MappedForest::from_artifact(
        Artifact::from_bytes(&ArtifactWriter::serialize_forest(&bolt)).unwrap(),
    )
    .unwrap();
    for sample in &case.inputs {
        assert_eq!(mapped.classify(sample), bolt.classify(sample));
        assert_eq!(mapped.classify(sample), in_mem.classify(sample));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn regressor_round_trip_is_bit_identical() {
    let mut rng = OracleRng::new(91);
    let n_features = 5usize;
    let rows: Vec<Vec<f32>> = (0..80)
        .map(|_| (0..n_features).map(|_| rng.uniform(-4.0, 4.0)).collect())
        .collect();
    let targets: Vec<f32> = rows
        .iter()
        .map(|r| r[0] * 2.0 - r[1] + (r[2] * r[3]).sin())
        .collect();
    let data = RegressionDataset::from_rows(rows.clone(), targets).expect("dataset");
    let forest = RegressionForest::train(&data, &RegressionConfig::new(6).with_seed(3));

    for threshold in [1usize, 3, 6] {
        for bloom_bits in [0usize, 8] {
            let config = BoltConfig::default()
                .with_cluster_threshold(threshold)
                .with_bloom_bits_per_key(bloom_bits);
            let bolt = BoltForest::compile(&forest, &config).expect("compile");
            let path = temp_blt(&format!("reg-{threshold}-{bloom_bits}"));
            ArtifactWriter::write_forest(&bolt, &path).expect("write");
            let mapped = MappedForest::open(&path).expect("open");
            assert_eq!(mapped.head(), bolt.head());
            for row in &rows {
                assert_eq!(
                    mapped.predict(row).to_bits(),
                    bolt.predict(row).to_bits(),
                    "threshold {threshold} bloom {bloom_bits}: prediction bits diverge"
                );
                // Mapped index match vs owned dictionary scan.
                assert_eq!(
                    mapped.predict(row).to_bits(),
                    bolt.head()
                        .read(&bolt.votes_for_bits(&bolt.encode(row)), bolt.n_trees())
                        .to_bits(),
                    "threshold {threshold} bloom {bloom_bits}: mapped index diverges from owned scan"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The library contract on mapped models: a sample shorter than the
/// model's feature count panics on every feature-level path — single,
/// votes, batched and regressor — with the encode's up-front length check,
/// whichever features the model's index happens to read.
#[test]
fn short_samples_panic_on_every_mapped_path() {
    let case = oracle::served_case(13, 4);
    let bolt = BoltForest::compile(&case.forest, &BoltConfig::default()).expect("compile");
    let mapped = MappedForest::from_artifact(
        Artifact::from_bytes(&ArtifactWriter::serialize_forest(&bolt)).expect("valid artifact"),
    )
    .expect("valid classifier");
    let rows: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![(i % 7) as f32, (i % 5) as f32])
        .collect();
    let targets = rows.iter().map(|r| r[0] - r[1]).collect();
    let data = RegressionDataset::from_rows(rows, targets).expect("dataset");
    let forest = RegressionForest::train(&data, &RegressionConfig::new(3).with_seed(2));
    let regressor = BoltForest::compile(&forest, &BoltConfig::default()).expect("compile");
    let path = temp_blt("short-reg");
    ArtifactWriter::write_forest(&regressor, &path).expect("write");
    let mapped_regressor = MappedForest::open(&path).expect("open");
    std::fs::remove_file(&path).ok();

    let short = vec![0.5f32; mapped.n_features() - 1];
    let full = vec![0.5f32; mapped.n_features()];
    assert_short_sample_panics("single", || mapped.classify(&short));
    assert_short_sample_panics("votes", || mapped.votes(&short));
    assert_short_sample_panics("batched", || mapped.classify_batch(&[&full, &short]));
    assert_short_sample_panics("regressor", || mapped_regressor.predict(&[0.5]));
}

fn assert_short_sample_panics<T: std::fmt::Debug>(what: &str, run: impl FnOnce() -> T) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).expect_err(what);
    let message = err.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains("universe expects"), "{what}: {message}");
}

/// One feature split at both `-0.0` and `0.0` (and at ±1): the two zero
/// predicates compare equal as floats but are distinct predicates, so the
/// canonical order must still place them one way only (`-0.0` first).
/// Every compile of such a forest writes the same bytes, and every open
/// of the file passes the loader's order check and classifies as the
/// forest does.
#[test]
fn signed_zero_thresholds_compile_and_open_the_same_way_every_time() {
    use bolt_forest::{DecisionTree, NodeKind, RandomForest};
    // x <= t ? class 0 : class 1 per tree; two trees, so the -0.0 tree and
    // the 0.0 tree vote together.
    let stump = |threshold: f32, low: u32| {
        DecisionTree::from_nodes(
            vec![
                NodeKind::Split {
                    feature: 0,
                    threshold,
                    left: 1,
                    right: 2,
                },
                NodeKind::Leaf { class: low },
                NodeKind::Leaf { class: 2 - low },
            ],
            1,
            3,
        )
    };
    let forest = RandomForest::from_trees(vec![
        stump(-0.0, 0),
        stump(0.0, 1),
        stump(1.0, 0),
        stump(-1.0, 1),
    ])
    .expect("forest");
    let samples: Vec<[f32; 1]> = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, f32::NAN]
        .map(|x| [x])
        .to_vec();
    let path = temp_blt("signed-zero");
    let mut first: Option<Vec<u8>> = None;
    for _ in 0..20 {
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compile");
        let thresholds: Vec<u32> = (0..bolt.universe().len() as u32)
            .map(|id| bolt.universe().predicate(id).threshold.to_bits())
            .collect();
        assert_eq!(
            thresholds,
            [-1.0f32, -0.0, 0.0, 1.0].map(f32::to_bits),
            "canonical order: -0.0 before 0.0"
        );
        let bytes = ArtifactWriter::serialize_forest(&bolt);
        match &first {
            None => first = Some(bytes),
            Some(first) => assert_eq!(&bytes, first, "every compile writes the same bytes"),
        }
        ArtifactWriter::write_forest(&bolt, &path).expect("write");
        let mapped = MappedForest::open(&path).expect("every open passes the order check");
        for sample in &samples {
            assert_eq!(
                mapped.classify(sample),
                forest.predict(sample),
                "{sample:?}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
