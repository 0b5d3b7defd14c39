//! Hostile-bytes fuzz leg: `Artifact` loading must be total. Random
//! truncations and bit flips of a valid `.blt` file must either be rejected
//! with a structured [`ArtifactError`] or — when the damage lands in bytes
//! no kernel reads (inter-section padding) — load successfully and classify
//! exactly like the undamaged reference. Never a panic, never a silent
//! misclassification.

use bolt_artifact::format::{crc32, section, HEADER_LEN, SECTION_ENTRY_LEN};
use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_core::oracle;
use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{RegressionConfig, RegressionDataset, RegressionForest};
use proptest::prelude::*;

struct Reference {
    bytes: Vec<u8>,
    inputs: Vec<Vec<f32>>,
    expected: Vec<u32>,
}

fn reference() -> &'static Reference {
    use std::sync::OnceLock;
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let case = oracle::served_case(23, 16);
        let bolt = BoltForest::compile(
            &case.forest,
            &BoltConfig::default().with_cluster_threshold(2),
        )
        .expect("compile");
        let bytes = ArtifactWriter::serialize_forest(&bolt);
        let expected = case.inputs.iter().map(|s| bolt.classify(s)).collect();
        Reference {
            bytes,
            inputs: case.inputs,
            expected,
        }
    })
}

/// The property every corruption must satisfy: structured rejection or
/// bit-identical behavior.
fn assert_total(bytes: &[u8], what: &str) {
    let loaded = Artifact::from_bytes(bytes).and_then(MappedForest::from_artifact);
    if let Ok(mapped) = loaded {
        let r = reference();
        for (sample, &expected) in r.inputs.iter().zip(&r.expected) {
            assert_eq!(
                mapped.classify(sample),
                expected,
                "{what}: accepted corruption changed a classification"
            );
        }
    }
    // Err(...) is the expected outcome: structured, no panic.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_truncation_never_panics(frac in 0.0f64..1.0) {
        let r = reference();
        let keep = ((r.bytes.len() as f64) * frac) as usize;
        assert_total(&r.bytes[..keep], "truncation");
    }

    #[test]
    fn random_bit_flips_never_panic(
        flips in proptest::collection::vec((0usize..1_000_000, 0u8..8), 1..6)
    ) {
        let r = reference();
        let mut bytes = r.bytes.clone();
        for (pos, bit) in flips {
            let at = pos % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        assert_total(&bytes, "bit flips");
    }

    #[test]
    fn flip_then_truncate_never_panics(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
        frac in 0.0f64..1.0,
    ) {
        let r = reference();
        let mut bytes = r.bytes.clone();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let keep = ((bytes.len() as f64) * frac) as usize;
        assert_total(&bytes[..keep], "flip+truncate");
    }
}

#[test]
fn every_single_byte_flip_is_survived() {
    // Exhaustive over the header + section table and strided over payloads:
    // cheap, deterministic coverage alongside the random leg.
    let r = reference();
    let dense_prefix = 64 + 13 * 32;
    let mut positions: Vec<usize> = (0..dense_prefix.min(r.bytes.len())).collect();
    positions.extend((dense_prefix..r.bytes.len()).step_by(97));
    for at in positions {
        let mut bytes = r.bytes.clone();
        bytes[at] ^= 0x20;
        assert_total(&bytes, &format!("byte {at}"));
    }
}

#[test]
fn garbage_and_empty_inputs_are_rejected() {
    assert!(Artifact::from_bytes(&[]).is_err());
    assert!(Artifact::from_bytes(b"BLT").is_err());
    assert!(Artifact::from_bytes(&[0u8; 64]).is_err());
    assert!(Artifact::from_bytes(b"not a model at all, definitely json {}").is_err());
    // A JSON model file must not be mistaken for an artifact.
    assert!(MappedForest::open("/definitely/not/a/real/path.blt").is_err());
}

#[test]
fn version_bump_is_rejected_as_unsupported() {
    let r = reference();
    let mut bytes = r.bytes.clone();
    // Bump the version field and restamp the header CRC so only the version
    // gate can object.
    bytes[4] = 2;
    let crc_at = bolt_artifact::format::HEADER_CRC_OFFSET;
    bytes[crc_at..crc_at + 4].fill(0);
    let crc = bolt_artifact::format::crc32(&bytes[..64]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    match Artifact::from_bytes(&bytes) {
        Err(bolt_artifact::ArtifactError::UnsupportedVersion(2)) => {}
        other => panic!("expected UnsupportedVersion(2), got {:?}", other.err()),
    }
}

/// A regression head reads a single accumulator slot, so every vote class
/// of a regressor artifact must be 0. A class of 1, with its section CRC
/// restamped, is refused at load rather than indexing past the slot.
#[test]
fn regressor_vote_class_beyond_its_one_slot_is_rejected() {
    let rows: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![(i % 7) as f32, (i % 5) as f32])
        .collect();
    let targets = rows.iter().map(|r| r[0] - r[1]).collect();
    let data = RegressionDataset::from_rows(rows, targets).expect("dataset");
    let forest = RegressionForest::train(&data, &RegressionConfig::new(3).with_seed(2));
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compile");
    let bytes = ArtifactWriter::serialize_forest(&bolt);
    let artifact = Artifact::from_bytes(&bytes).expect("valid artifact");
    MappedForest::from_artifact(artifact).expect("the untouched file loads");

    let bytes = with_words(&bytes, section::TBL_VOTE_CLASS, |w| w[0] = 1);
    assert_refused(&bytes, "vote class out of range");
}

/// `bytes` with `edit` applied to the payload of section `id` (as
/// little-endian `u32` words) and that section's CRC restamped, so the
/// checksum passes and only the loader's structural checks can object.
fn with_words(bytes: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u32>)) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let artifact = Artifact::from_bytes(&bytes).expect("valid artifact");
    let (i, desc) = artifact
        .sections()
        .iter()
        .enumerate()
        .find(|(_, d)| d.id == id)
        .map(|(i, d)| (i, *d))
        .expect("section present");
    let payload = desc.offset as usize..(desc.offset + desc.len) as usize;
    let mut words: Vec<u32> = bytes[payload.clone()]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        .collect();
    edit(&mut words);
    for (chunk, word) in bytes[payload.clone()].chunks_exact_mut(4).zip(&words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    let crc = crc32(&bytes[payload]);
    let crc_at = HEADER_LEN + i * SECTION_ENTRY_LEN + 24;
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// The reference model's `META`.
fn reference_meta() -> bolt_artifact::ModelMeta {
    let artifact = Artifact::from_bytes(&reference().bytes).expect("valid artifact");
    MappedForest::from_artifact(artifact)
        .expect("the untouched file loads")
        .meta()
}

/// Loads `bytes` (whose checksums must all pass) and expects the model
/// check to refuse them with an `Invalid` error naming `message`.
fn assert_refused(bytes: &[u8], message: &str) {
    let artifact = Artifact::from_bytes(bytes).expect("checksums restamped");
    match MappedForest::from_artifact(artifact) {
        Err(bolt_artifact::ArtifactError::Invalid(got)) => {
            assert!(got.contains(message), "expected {message:?}, got {got:?}");
        }
        Err(other) => panic!("expected Invalid({message:?}), got {other}"),
        Ok(_) => panic!("accepted a file that should fail with {message:?}"),
    }
}

/// `PRED` as `(feature, threshold bits)` word pairs: the pair at `i`
/// starts at word `2 * i`.
fn pred_pairs(words: &[u32]) -> Vec<(u32, f32)> {
    words
        .chunks_exact(2)
        .map(|p| (p[0], f32::from_bits(p[1])))
        .collect()
}

/// Index of the first adjacent pair of predicates on one feature, so an
/// edit there leaves the feature order intact.
fn same_feature_neighbours(words: &[u32]) -> usize {
    pred_pairs(words)
        .windows(2)
        .position(|w| w[0].0 == w[1].0)
        .expect("some feature carries two thresholds")
}

#[test]
fn swapped_predicates_are_refused_as_not_canonical() {
    let bytes = with_words(&reference().bytes, section::PRED, |w| {
        let i = same_feature_neighbours(w);
        w.swap(2 * i + 1, 2 * i + 3);
    });
    assert_refused(
        &bytes,
        "PRED is not in canonical (feature, threshold) order",
    );
    // Across features too: the last predicate moved to the front.
    let bytes = with_words(&reference().bytes, section::PRED, |w| w.rotate_right(2));
    assert_refused(
        &bytes,
        "PRED is not in canonical (feature, threshold) order",
    );
}

#[test]
fn a_duplicated_predicate_is_refused() {
    let bytes = with_words(&reference().bytes, section::PRED, |w| {
        let i = same_feature_neighbours(w);
        w[2 * i + 3] = w[2 * i + 1];
    });
    assert_refused(&bytes, "PRED contains duplicate predicates");
}

#[test]
fn non_finite_thresholds_are_refused() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        // The last predicate, so the order is not what breaks first.
        let bytes = with_words(&reference().bytes, section::PRED, |w| {
            let last = w.len() - 1;
            w[last] = bad.to_bits();
        });
        assert_refused(&bytes, "PRED threshold is not finite");
    }
}

#[test]
fn a_feature_beyond_n_features_is_refused() {
    let n_features = reference_meta().n_features;
    let bytes = with_words(&reference().bytes, section::PRED, |w| {
        let last = w.len() - 2;
        w[last] = n_features;
    });
    assert_refused(&bytes, &format!("PRED feature {n_features} out of range"));
}

#[test]
fn non_monotone_dict_offsets_are_refused() {
    let bytes = with_words(&reference().bytes, section::DICT_OFFSETS, |w| {
        // An entry boundary that steps back by one below its predecessor.
        let k = (1..w.len()).find(|&k| w[k - 1] > 0).expect("some uncommon");
        w[k] = w[k - 1] - 1;
    });
    assert_refused(&bytes, "DICT_OFFSETS is not monotone");
}

#[test]
fn a_slot_naming_a_missing_entry_is_refused() {
    let n_entries = reference_meta().n_entries;
    let bytes = with_words(&reference().bytes, section::TBL_SLOT_ENTRY, |w| {
        let slot = w
            .iter()
            .position(|&e| e != bolt_core::EMPTY_SLOT_ENTRY)
            .expect("an occupied slot");
        w[slot] = n_entries;
    });
    assert_refused(
        &bytes,
        "table slot references a nonexistent dictionary entry",
    );
}

#[test]
fn a_table_without_an_empty_slot_is_refused() {
    let bytes = with_words(&reference().bytes, section::TBL_SLOT_ENTRY, |w| {
        for e in w.iter_mut().filter(|e| **e == bolt_core::EMPTY_SLOT_ENTRY) {
            *e = 0;
        }
    });
    assert_refused(
        &bytes,
        "table has no empty slot; probing would not terminate",
    );
}

#[test]
fn a_vote_class_beyond_the_heads_slots_is_refused() {
    let n_classes = reference_meta().n_classes;
    let bytes = with_words(&reference().bytes, section::TBL_VOTE_CLASS, |w| {
        let last = w.len() - 1;
        w[last] = n_classes;
    });
    assert_refused(&bytes, "vote class out of range");
}
