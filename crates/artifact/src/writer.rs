//! Serialization of compiled models into the `BLT1` on-disk form.

use crate::format::{self, align_up, crc32, section, Header, SectionDesc};
use bolt_core::{BoltForest, BoltRegressor};
use std::io::{self, Write};
use std::path::Path;

/// Serializes compiled Bolt models into `.blt` artifact bytes.
///
/// The writer emits each kernel array verbatim in little-endian order, so a
/// mapped reader reinterprets the payloads in place. Sections are padded to
/// 64-byte payload alignment and individually CRC-32'd.
pub struct ArtifactWriter;

/// Fixed size of the `META` section.
const META_LEN: usize = 64;

impl ArtifactWriter {
    /// Serializes a classification forest into `BLT1` bytes with
    /// [`Header::model_version`] zero ("unversioned"); see
    /// [`serialize_forest_versioned`](Self::serialize_forest_versioned)
    /// to stamp a deployment version for a model store.
    #[must_use]
    pub fn serialize_forest(bolt: &BoltForest) -> Vec<u8> {
        Self::serialize_forest_versioned(bolt, 0)
    }

    /// Serializes a classification forest into `BLT1` bytes, stamping
    /// `model_version` into the header — the `V` a model store expects to
    /// match the artifact's `NAME@V.blt` file name.
    #[must_use]
    pub fn serialize_forest_versioned(bolt: &BoltForest, model_version: u32) -> Vec<u8> {
        let view = bolt.view();
        let dict = view.dict();
        let table = view.table();

        let mut meta = [0u8; META_LEN];
        meta[0..4].copy_from_slice(&(dict.width() as u32).to_le_bytes());
        meta[4..8].copy_from_slice(&(dict.len() as u32).to_le_bytes());
        meta[8..12].copy_from_slice(&(bolt.n_classes() as u32).to_le_bytes());
        meta[12..16].copy_from_slice(&(bolt.n_trees() as u32).to_le_bytes());
        meta[16..20].copy_from_slice(&(bolt.universe().n_features() as u32).to_le_bytes());
        meta[20..24].copy_from_slice(&view.bloom().map_or(0, |b| b.n_hashes()).to_le_bytes());
        meta[24] = 0; // aggregation: unused for classifiers
        meta[32..40].copy_from_slice(&(table.capacity() as u64).to_le_bytes());

        let consts = view.constant_votes();
        let mut const_bytes = Vec::with_capacity(4 + consts.len() * 12);
        const_bytes.extend_from_slice(&(consts.len() as u32).to_le_bytes());
        for &(class, _) in consts {
            const_bytes.extend_from_slice(&class.to_le_bytes());
        }
        for &(_, weight) in consts {
            const_bytes.extend_from_slice(&weight.to_le_bytes());
        }

        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (section::META, meta.to_vec()),
            (section::PRED, pred_bytes(bolt.universe())),
            (section::DICT_MASK, u64_bytes(dict.mask_words())),
            (section::DICT_KEY, u64_bytes(dict.key_words())),
            (section::DICT_UNCOMMON, u32_bytes(dict.uncommon_flat())),
            (section::DICT_OFFSETS, u32_bytes(dict.uncommon_offsets())),
            (section::TBL_SLOT_ENTRY, u32_bytes(table.slot_entries())),
            (section::TBL_SLOT_ADDR, u64_bytes(table.slot_addrs())),
            (section::TBL_VOTE_OFF, u32_bytes(table.vote_offsets())),
            (section::TBL_VOTE_CLASS, u32_bytes(table.vote_classes())),
            (section::TBL_VOTE_WEIGHT, f64_bytes(table.vote_weights())),
        ];
        let mut flags = 0u8;
        if let Some(bloom) = view.bloom() {
            flags |= format::FLAG_HAS_BLOOM;
            sections.push((section::BLOOM, u64_bytes(bloom.words())));
        }
        sections.push((section::CONST, const_bytes));

        assemble(format::KIND_CLASSIFIER, flags, model_version, &sections)
    }

    /// Serializes a regression forest into `BLT1` bytes with
    /// [`Header::model_version`] zero; see
    /// [`serialize_regressor_versioned`](Self::serialize_regressor_versioned).
    #[must_use]
    pub fn serialize_regressor(bolt: &BoltRegressor) -> Vec<u8> {
        Self::serialize_regressor_versioned(bolt, 0)
    }

    /// Serializes a regression forest into `BLT1` bytes, stamping
    /// `model_version` into the header.
    #[must_use]
    pub fn serialize_regressor_versioned(bolt: &BoltRegressor, model_version: u32) -> Vec<u8> {
        let view = bolt.view();
        let dict = view.dict();
        let table = view.table();

        let mut meta = [0u8; META_LEN];
        meta[0..4].copy_from_slice(&(dict.width() as u32).to_le_bytes());
        meta[4..8].copy_from_slice(&(dict.len() as u32).to_le_bytes());
        // n_classes stays 0: regressors have no vote classes.
        meta[12..16].copy_from_slice(&(bolt.n_trees() as u32).to_le_bytes());
        meta[16..20].copy_from_slice(&(bolt.universe().n_features() as u32).to_le_bytes());
        meta[20..24].copy_from_slice(&view.bloom().map_or(0, |b| b.n_hashes()).to_le_bytes());
        meta[24] = match bolt.aggregation() {
            bolt_core::Aggregation::Mean => 0,
            bolt_core::Aggregation::Sum => 1,
        };
        meta[32..40].copy_from_slice(&(table.capacity() as u64).to_le_bytes());

        let mut const_bytes = Vec::with_capacity(16);
        const_bytes.extend_from_slice(&bolt.constant_sum().to_le_bytes());
        const_bytes.extend_from_slice(&bolt.base().to_le_bytes());

        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (section::META, meta.to_vec()),
            (section::PRED, pred_bytes(bolt.universe())),
            (section::DICT_MASK, u64_bytes(dict.mask_words())),
            (section::DICT_KEY, u64_bytes(dict.key_words())),
            (section::DICT_UNCOMMON, u32_bytes(dict.uncommon_flat())),
            (section::DICT_OFFSETS, u32_bytes(dict.uncommon_offsets())),
            (section::TBL_SLOT_ENTRY, u32_bytes(table.slot_entries())),
            (section::TBL_SLOT_ADDR, u64_bytes(table.slot_addrs())),
            (section::TBL_VOTE_OFF, u32_bytes(table.vote_offsets())),
            (section::TBL_VOTE_CLASS, u32_bytes(table.vote_classes())),
            (section::TBL_VOTE_WEIGHT, f64_bytes(table.vote_weights())),
        ];
        let mut flags = 0u8;
        if let Some(bloom) = view.bloom() {
            flags |= format::FLAG_HAS_BLOOM;
            sections.push((section::BLOOM, u64_bytes(bloom.words())));
        }
        sections.push((section::CONST, const_bytes));

        assemble(format::KIND_REGRESSOR, flags, model_version, &sections)
    }

    /// Serializes a classification forest and writes it to `path`.
    pub fn write_forest(bolt: &BoltForest, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &Self::serialize_forest(bolt))
    }

    /// Serializes a classification forest with a stamped model version
    /// and writes it to `path`.
    pub fn write_forest_versioned(
        bolt: &BoltForest,
        model_version: u32,
        path: impl AsRef<Path>,
    ) -> io::Result<()> {
        write_atomic(
            path.as_ref(),
            &Self::serialize_forest_versioned(bolt, model_version),
        )
    }

    /// Serializes a regression forest and writes it to `path`.
    pub fn write_regressor(bolt: &BoltRegressor, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &Self::serialize_regressor(bolt))
    }

    /// Serializes a regression forest with a stamped model version and
    /// writes it to `path`.
    pub fn write_regressor_versioned(
        bolt: &BoltRegressor,
        model_version: u32,
        path: impl AsRef<Path>,
    ) -> io::Result<()> {
        write_atomic(
            path.as_ref(),
            &Self::serialize_regressor_versioned(bolt, model_version),
        )
    }
}

/// Writes via a sibling temp file + rename so a serving process never maps a
/// half-written artifact (hot-swap safety).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("blt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn pred_bytes(universe: &bolt_forest::PredicateUniverse) -> Vec<u8> {
    let mut out = Vec::with_capacity(universe.len() * 8);
    for id in 0..universe.len() as u32 {
        let p = universe.predicate(id);
        out.extend_from_slice(&p.feature.to_le_bytes());
        out.extend_from_slice(&p.threshold.to_bits().to_le_bytes());
    }
    out
}

fn u64_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn u32_bytes(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn f64_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Lays out header + section table + aligned payloads and stamps CRCs.
fn assemble(model_kind: u8, flags: u8, model_version: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = format::HEADER_LEN + sections.len() * format::SECTION_ENTRY_LEN;
    let mut descs = Vec::with_capacity(sections.len());
    let mut cursor = table_end;
    for (id, payload) in sections {
        cursor = align_up(cursor);
        descs.push(SectionDesc {
            id: *id,
            offset: cursor as u64,
            len: payload.len() as u64,
            crc32: crc32(payload),
        });
        cursor += payload.len();
    }
    let file_len = cursor;

    let mut out = vec![0u8; file_len];
    let header = Header {
        version: format::FORMAT_VERSION,
        model_kind,
        flags,
        section_count: sections.len() as u32,
        model_version,
        file_len: file_len as u64,
    };
    out[..format::HEADER_LEN].copy_from_slice(&header.to_bytes());
    for (i, desc) in descs.iter().enumerate() {
        let at = format::HEADER_LEN + i * format::SECTION_ENTRY_LEN;
        out[at..at + format::SECTION_ENTRY_LEN].copy_from_slice(&desc.to_bytes());
    }
    for (desc, (_, payload)) in descs.iter().zip(sections) {
        let at = desc.offset as usize;
        out[at..at + payload.len()].copy_from_slice(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Artifact, ArtifactError, MappedForest};
    use bolt_core::BoltConfig;
    use bolt_forest::{ForestConfig, RandomForest};

    /// `bytes` re-assembled with `extra` sections appended to its own.
    fn reassembled_with(bytes: &[u8], extra: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let artifact = Artifact::from_bytes(bytes).expect("valid artifact");
        let mut sections: Vec<(u32, Vec<u8>)> = artifact
            .sections()
            .iter()
            .map(|desc| (desc.id, artifact.require(desc.id).expect("listed").to_vec()))
            .collect();
        sections.extend_from_slice(extra);
        let header = artifact.header();
        assemble(
            header.model_kind,
            header.flags,
            header.model_version,
            &sections,
        )
    }

    /// Artifacts written by PR 9–16 builds carry the retired sections 14/15.
    /// They must keep loading — with any payload, or half the pair — and
    /// classify exactly as the file without them, while still getting the
    /// generic per-section checks.
    #[test]
    fn retired_blocked_sections_are_ignored_but_still_checksummed() {
        let data = bolt_data::lstw_like(300, 5);
        let forest =
            RandomForest::train(&data, &ForestConfig::new(6).with_max_height(5).with_seed(5));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let plain = ArtifactWriter::serialize_forest(&bolt);
        let artifact = Artifact::from_bytes(&plain).expect("valid artifact");
        assert!(
            artifact.section(section::DICT_MASK_BLK).is_none()
                && artifact.section(section::DICT_KEY_BLK).is_none(),
            "fresh artifacts carry neither retired section"
        );
        let reference = MappedForest::from_artifact(artifact).expect("valid classifier");

        // The old shape (whole 4-entry blocks of stride words) with
        // arbitrary contents, which the old reader would have rejected as
        // diverging from the flat arrays.
        let dict = bolt.view().dict();
        let old_shape = vec![0xA5u8; dict.len() / 4 * 4 * dict.stride() * 8];
        assert!(!old_shape.is_empty(), "fixture needs a full block");
        let pair = [
            (section::DICT_MASK_BLK, old_shape.clone()),
            (section::DICT_KEY_BLK, old_shape),
        ];
        for extra in [&pair[..], &pair[..1], &pair[1..]] {
            let bytes = reassembled_with(&plain, extra);
            let artifact = Artifact::from_bytes(&bytes).expect("generic checks pass");
            for (id, payload) in extra {
                assert_eq!(artifact.section(*id), Some(payload.as_slice()));
            }
            let first_retired_byte = artifact.section_range(extra[0].0).expect("present").start;
            let mapped = MappedForest::from_artifact(artifact).expect("retired ids are skipped");
            for (sample, _) in data.iter().take(100) {
                assert_eq!(mapped.votes(sample), reference.votes(sample));
                assert_eq!(mapped.classify(sample), bolt.classify(sample));
            }

            // A flipped byte inside a retired section is still corruption.
            let mut flipped = bytes;
            flipped[first_retired_byte] ^= 0x01;
            assert!(matches!(
                Artifact::from_bytes(&flipped),
                Err(ArtifactError::ChecksumMismatch(_))
            ));
        }
    }
}
