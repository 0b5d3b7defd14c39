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
    let mut bytes = ArtifactWriter::serialize_forest(&bolt);
    let artifact = Artifact::from_bytes(&bytes).expect("valid artifact");
    let (i, desc) = artifact
        .sections()
        .iter()
        .enumerate()
        .find(|(_, d)| d.id == section::TBL_VOTE_CLASS)
        .map(|(i, d)| (i, *d))
        .expect("vote class section");
    MappedForest::from_artifact(artifact).expect("the untouched file loads");

    let payload = desc.offset as usize..(desc.offset + desc.len) as usize;
    bytes[payload.start..payload.start + 4].copy_from_slice(&1u32.to_le_bytes());
    let crc = crc32(&bytes[payload]);
    let crc_at = HEADER_LEN + i * SECTION_ENTRY_LEN + 24;
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let artifact = Artifact::from_bytes(&bytes).expect("checksums restamped");
    match MappedForest::from_artifact(artifact) {
        Err(e) => assert!(e.to_string().contains("vote class out of range"), "{e}"),
        Ok(_) => panic!("regressor with vote class 1 accepted"),
    }
}
