//! The raw mapped artifact: header + section table parsing and integrity
//! validation, independent of model semantics.

use crate::cast::check_little_endian;
use crate::format::{self, crc32, section, Header, SectionDesc};
use crate::ArtifactError;
use std::path::Path;

/// A memory-mapped (or heap-backed) `BLT1` file whose header, section table,
/// and per-section checksums have been verified.
///
/// This type owns the bytes and answers "where is section N"; model-level
/// structural validation lives in [`MappedForest`](crate::MappedForest) /
/// [`MappedRegressor`](crate::MappedRegressor), which borrow section slices
/// from here to build kernel views.
pub struct Artifact {
    data: mmap::Mmap,
    header: Header,
    sections: Vec<SectionDesc>,
}

/// Upper bound on `section_count` — far above anything v1 writes, small
/// enough that a hostile header can't force a large allocation.
const MAX_SECTIONS: u32 = 1024;

impl Artifact {
    /// Opens and memory-maps `path`, validating magic, version, header CRC,
    /// section-table bounds, and every section's CRC-32.
    pub fn map(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let mut file = std::fs::File::open(path.as_ref())?;
        let data = mmap::Mmap::map(&mut file)?;
        Self::from_mmap(data)
    }

    /// Validates an in-memory byte buffer (copied into an aligned buffer).
    /// Used by tests and network paths; files should prefer [`Self::map`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        Self::from_mmap(mmap::Mmap::from_bytes(bytes))
    }

    fn from_mmap(data: mmap::Mmap) -> Result<Self, ArtifactError> {
        check_little_endian()?;
        let bytes: &[u8] = &data;
        if bytes.len() < format::HEADER_LEN {
            if bytes.len() < 4 || bytes[0..4] != format::MAGIC {
                return Err(ArtifactError::NotBlt);
            }
            return Err(ArtifactError::Truncated {
                needed: format::HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let head: &[u8; format::HEADER_LEN] = bytes[..format::HEADER_LEN].try_into().unwrap();
        if head[0..4] != format::MAGIC {
            return Err(ArtifactError::NotBlt);
        }
        let header = Header::from_bytes(head).ok_or(ArtifactError::ChecksumMismatch("header"))?;
        if header.version != format::FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(header.version));
        }
        if header.model_kind != format::KIND_CLASSIFIER
            && header.model_kind != format::KIND_REGRESSOR
        {
            return Err(ArtifactError::UnsupportedKind(header.model_kind));
        }
        if header.flags & !format::FLAG_HAS_BLOOM != 0 {
            return Err(ArtifactError::Invalid(format!(
                "unknown header flags {:#04x}",
                header.flags
            )));
        }
        if header.file_len != bytes.len() as u64 {
            // Both directions are fatal: shorter means truncation, longer
            // means trailing bytes no checksum covers.
            return Err(ArtifactError::Truncated {
                needed: header.file_len,
                actual: bytes.len() as u64,
            });
        }
        if header.section_count > MAX_SECTIONS {
            return Err(ArtifactError::Invalid(format!(
                "section count {} exceeds limit {MAX_SECTIONS}",
                header.section_count
            )));
        }
        let table_end = format::HEADER_LEN as u64
            + u64::from(header.section_count) * format::SECTION_ENTRY_LEN as u64;
        if table_end > bytes.len() as u64 {
            return Err(ArtifactError::Truncated {
                needed: table_end,
                actual: bytes.len() as u64,
            });
        }

        let mut sections = Vec::with_capacity(header.section_count as usize);
        for i in 0..header.section_count as usize {
            let at = format::HEADER_LEN + i * format::SECTION_ENTRY_LEN;
            let entry: &[u8; format::SECTION_ENTRY_LEN] = bytes[at..at + format::SECTION_ENTRY_LEN]
                .try_into()
                .unwrap();
            let desc = SectionDesc::from_bytes(entry);
            let end = desc
                .offset
                .checked_add(desc.len)
                .ok_or_else(|| ArtifactError::Invalid("section range overflows".into()))?;
            if end > bytes.len() as u64 {
                return Err(ArtifactError::Truncated {
                    needed: end,
                    actual: bytes.len() as u64,
                });
            }
            if !(desc.offset as usize).is_multiple_of(format::SECTION_ALIGN) {
                return Err(ArtifactError::Invalid(format!(
                    "section {} payload at offset {} is not {}-byte aligned",
                    section_name(desc.id),
                    desc.offset,
                    format::SECTION_ALIGN
                )));
            }
            if sections.iter().any(|s: &SectionDesc| s.id == desc.id) {
                return Err(ArtifactError::Invalid(format!(
                    "duplicate section {}",
                    section_name(desc.id)
                )));
            }
            let payload = &bytes[desc.offset as usize..end as usize];
            if crc32(payload) != desc.crc32 {
                return Err(ArtifactError::ChecksumMismatch(section_name(desc.id)));
            }
            sections.push(desc);
        }
        Ok(Self {
            data,
            header,
            sections,
        })
    }

    /// The parsed header.
    #[must_use]
    pub fn header(&self) -> Header {
        self.header
    }

    /// The validated section descriptors, in file order.
    #[must_use]
    pub fn sections(&self) -> &[SectionDesc] {
        &self.sections
    }

    /// The full artifact bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Whether the bytes come from a real OS memory map (vs. the aligned
    /// heap fallback used on non-unix hosts and for in-memory buffers).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Byte range of section `id` within [`Self::bytes`], if present.
    #[must_use]
    pub fn section_range(&self, id: u32) -> Option<std::ops::Range<usize>> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.offset as usize..(s.offset + s.len) as usize)
    }

    /// Borrowed payload of section `id`, if present.
    #[must_use]
    pub fn section(&self, id: u32) -> Option<&[u8]> {
        self.section_range(id).map(|range| &self.bytes()[range])
    }

    /// Payload of a section this model kind requires.
    pub fn require(&self, id: u32) -> Result<&[u8], ArtifactError> {
        self.section(id)
            .ok_or_else(|| ArtifactError::Invalid(format!("missing section {}", section_name(id))))
    }
}

/// Human name for a section id (for error messages and `boltc inspect`).
#[must_use]
pub fn section_name(id: u32) -> &'static str {
    match id {
        section::META => "META",
        section::PRED => "PRED",
        section::DICT_MASK => "DICT_MASK",
        section::DICT_KEY => "DICT_KEY",
        section::DICT_UNCOMMON => "DICT_UNCOMMON",
        section::DICT_OFFSETS => "DICT_OFFSETS",
        section::TBL_SLOT_ENTRY => "TBL_SLOT_ENTRY",
        section::TBL_SLOT_ADDR => "TBL_SLOT_ADDR",
        section::TBL_VOTE_OFF => "TBL_VOTE_OFF",
        section::TBL_VOTE_CLASS => "TBL_VOTE_CLASS",
        section::TBL_VOTE_WEIGHT => "TBL_VOTE_WEIGHT",
        section::BLOOM => "BLOOM",
        section::CONST => "CONST",
        section::DICT_MASK_BLK => "DICT_MASK_BLK",
        section::DICT_KEY_BLK => "DICT_KEY_BLK",
        _ => "UNKNOWN",
    }
}
