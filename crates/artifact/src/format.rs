//! On-disk constants and helpers for the `BLT1` artifact format.
//!
//! A `.blt` file is a fixed little-endian header, a table of section
//! descriptors, and then the section payloads, each padded so its payload
//! starts on a 64-byte boundary:
//!
//! ```text
//! offset 0    +----------------------------------------------+
//!             | header (64 bytes)                            |
//!             |   magic "BLT1" | version | kind | flags      |
//!             |   section_count | file_len | header_crc      |
//! offset 64   +----------------------------------------------+
//!             | section table (32 bytes per section)         |
//!             |   { id, offset, len, crc32 } x section_count |
//! align 64    +----------------------------------------------+
//!             | section payloads, each 64-byte aligned,      |
//!             | covered by its descriptor's crc32            |
//!             +----------------------------------------------+
//! ```
//!
//! All multi-byte fields are little-endian. The header CRC is computed over
//! the 64 header bytes with the `header_crc` field zeroed.

/// File magic: ASCII `BLT1`.
pub const MAGIC: [u8; 4] = *b"BLT1";
/// Current (and only) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;
/// Every section payload starts on this alignment.
pub const SECTION_ALIGN: usize = 64;

/// Byte offset of the `header_crc` field inside the header.
pub const HEADER_CRC_OFFSET: usize = 16;

/// `model_kind` header value for a classification forest.
pub const KIND_CLASSIFIER: u8 = 1;
/// `model_kind` header value for a regression forest.
pub const KIND_REGRESSOR: u8 = 2;

/// Header flag bit: the artifact carries a bloom filter section.
pub const FLAG_HAS_BLOOM: u8 = 1 << 0;

/// Section identifiers. Unknown ids are tolerated by readers (skipped) so
/// future minor additions don't break old loaders; *missing* required ids
/// are an error.
pub mod section {
    /// Fixed-size model metadata (counts, widths, aggregation...).
    pub const META: u32 = 1;
    /// Predicate universe: `(feature: u32, threshold_bits: u32)` pairs.
    pub const PRED: u32 = 2;
    /// Dictionary mask lane words (`u64`).
    pub const DICT_MASK: u32 = 3;
    /// Dictionary key lane words (`u64`).
    pub const DICT_KEY: u32 = 4;
    /// Flattened uncommon predicate ids (`u32`).
    pub const DICT_UNCOMMON: u32 = 5;
    /// Per-entry offsets into `DICT_UNCOMMON` (`u32`, `n_entries + 1`).
    pub const DICT_OFFSETS: u32 = 6;
    /// Recombined table: owning entry id per slot (`u32`).
    pub const TBL_SLOT_ENTRY: u32 = 7;
    /// Recombined table: address per slot (`u64`).
    pub const TBL_SLOT_ADDR: u32 = 8;
    /// Recombined table: vote-range offsets per slot (`u32`, `capacity + 1`).
    pub const TBL_VOTE_OFF: u32 = 9;
    /// Recombined table: concatenated vote classes (`u32`).
    pub const TBL_VOTE_CLASS: u32 = 10;
    /// Recombined table: concatenated vote weights (`f64`).
    pub const TBL_VOTE_WEIGHT: u32 = 11;
    /// Bloom filter words (`u64`); present iff `FLAG_HAS_BLOOM`.
    pub const BLOOM: u32 = 12;
    /// Constant votes / regressor scalars; small, copied to the heap at load.
    pub const CONST: u32 = 13;
    /// **Retired** — never written, ignored when read, id not to be reused.
    /// PR 9–16 builds stored an entry-blocked (4-entry interleaved) copy of
    /// [`DICT_MASK`] here for the single-sample SIMD scan. The section was
    /// always optional, so files with and without it are both version 1;
    /// the id stays named so `boltc inspect` can label it on old files.
    pub const DICT_MASK_BLK: u32 = 14;
    /// **Retired**, as [`DICT_MASK_BLK`]: the entry-blocked copy of
    /// [`DICT_KEY`].
    pub const DICT_KEY_BLK: u32 = 15;
}

/// One entry of the in-file section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionDesc {
    /// Section identifier (see [`section`]).
    pub id: u32,
    /// Absolute byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// IEEE CRC-32 of the payload bytes.
    pub crc32: u32,
}

impl SectionDesc {
    /// Serializes this descriptor into its 32-byte on-disk form.
    pub fn to_bytes(self) -> [u8; SECTION_ENTRY_LEN] {
        let mut out = [0u8; SECTION_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.id.to_le_bytes());
        // bytes 4..8 reserved (zero)
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.len.to_le_bytes());
        out[24..28].copy_from_slice(&self.crc32.to_le_bytes());
        // bytes 28..32 reserved (zero)
        out
    }

    /// Parses a descriptor from its 32-byte on-disk form.
    pub fn from_bytes(bytes: &[u8; SECTION_ENTRY_LEN]) -> Self {
        Self {
            id: u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            offset: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            len: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            crc32: u32::from_le_bytes(bytes[24..28].try_into().unwrap()),
        }
    }
}

/// Parsed form of the fixed 64-byte header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version (currently always [`FORMAT_VERSION`]).
    pub version: u16,
    /// [`KIND_CLASSIFIER`] or [`KIND_REGRESSOR`].
    pub model_kind: u8,
    /// Flag bits ([`FLAG_HAS_BLOOM`]).
    pub flags: u8,
    /// Number of entries in the section table.
    pub section_count: u32,
    /// Deployment version of the *model* (not the format): the `V` in a
    /// model store's `NAME@V.blt` naming, stamped by `boltc compile
    /// --model-version`. Stored in previously-reserved header bytes, so
    /// pre-versioning files read back as 0 ("unversioned") and the format
    /// version stays [`FORMAT_VERSION`].
    pub model_version: u32,
    /// Total file length in bytes, for truncation detection.
    pub file_len: u64,
}

impl Header {
    /// Serializes the header, computing and embedding `header_crc`.
    pub fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6] = self.model_kind;
        out[7] = self.flags;
        out[8..12].copy_from_slice(&self.section_count.to_le_bytes());
        out[12..16].copy_from_slice(&self.model_version.to_le_bytes());
        // header_crc at 16..20 is zero while hashing
        out[24..32].copy_from_slice(&self.file_len.to_le_bytes());
        let crc = crc32(&out);
        out[HEADER_CRC_OFFSET..HEADER_CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and CRC-checks a header. Returns `None` on bad magic or CRC;
    /// version/kind checks are left to the caller so it can distinguish
    /// "not a BLT file" from "a BLT file we can't read".
    pub fn from_bytes(bytes: &[u8; HEADER_LEN]) -> Option<Self> {
        if bytes[0..4] != MAGIC {
            return None;
        }
        let stored_crc = u32::from_le_bytes(
            bytes[HEADER_CRC_OFFSET..HEADER_CRC_OFFSET + 4]
                .try_into()
                .unwrap(),
        );
        let mut scratch = *bytes;
        scratch[HEADER_CRC_OFFSET..HEADER_CRC_OFFSET + 4].fill(0);
        if crc32(&scratch) != stored_crc {
            return None;
        }
        Some(Self {
            version: u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
            model_kind: bytes[6],
            flags: bytes[7],
            section_count: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            model_version: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            file_len: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        })
    }
}

/// Rounds `offset` up to the next [`SECTION_ALIGN`] boundary.
pub fn align_up(offset: usize) -> usize {
    offset.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// The IEEE CRC-32 polynomial, bit-reversed (the zlib/PNG form).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables. `CRC_TABLES[0][b]` is the CRC register after
/// feeding byte `b` into a zero register — the classic byte-at-a-time
/// table — and `CRC_TABLES[k][b]` is that register after `k` more zero
/// bytes, so one 16-byte step is sixteen independent lookups XORed
/// together. 16 KiB of read-only data.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 (the zlib/PNG polynomial), slicing-by-16: sixteen bytes per
/// step through [`CRC_TABLES`], then the tail byte by byte. The same
/// function as the byte-at-a-time table CRC, so every stored checksum
/// still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let (head, data) = block.split_at(4);
        // Bytes 4..16 do not depend on the register, so their twelve
        // lookups run ahead while the register's four are in flight.
        let ahead = data
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &b)| acc ^ CRC_TABLES[11 - j][usize::from(b)]);
        let r = (crc ^ u32::from_le_bytes(head.try_into().expect("4-byte head"))).to_le_bytes();
        crc = ahead
            ^ CRC_TABLES[15][usize::from(r[0])]
            ^ CRC_TABLES[14][usize::from(r[1])]
            ^ CRC_TABLES[13][usize::from(r[2])]
            ^ CRC_TABLES[12][usize::from(r[3])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from((crc as u8) ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 straight from its definition: one bit at a time, shifting
    /// the reflected polynomial in whenever the low bit is set.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length_and_offset() {
        // Every length across the 16-byte step and its tail, at every
        // alignment of the start.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..16 + 256)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32(&[0u8; 4096]), crc32_bitwise(&[0u8; 4096]));
        assert_eq!(crc32(&[0xFFu8; 4096]), crc32_bitwise(&[0xFFu8; 4096]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_equals_the_bitwise_definition_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000)
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn header_round_trip() {
        let h = Header {
            version: FORMAT_VERSION,
            model_kind: KIND_CLASSIFIER,
            flags: FLAG_HAS_BLOOM,
            section_count: 13,
            model_version: 42,
            file_len: 123_456,
        };
        let bytes = h.to_bytes();
        assert_eq!(Header::from_bytes(&bytes), Some(h));
        // The model version rides in the previously-reserved bytes, so a
        // pre-versioning header (zeros there) parses as version 0.
        assert_eq!(bytes[12..16], 42u32.to_le_bytes());
        // A single flipped bit must break the header CRC.
        let mut bad = bytes;
        bad[9] ^= 0x40;
        assert_eq!(Header::from_bytes(&bad), None);
        // Bad magic is rejected outright.
        let mut not_blt = bytes;
        not_blt[0] = b'X';
        assert_eq!(Header::from_bytes(&not_blt), None);
    }

    #[test]
    fn section_desc_round_trip() {
        let d = SectionDesc {
            id: section::TBL_VOTE_WEIGHT,
            offset: 4096,
            len: 808,
            crc32: 0xDEAD_BEEF,
        };
        assert_eq!(SectionDesc::from_bytes(&d.to_bytes()), d);
    }

    #[test]
    fn align_up_is_monotone_and_aligned() {
        for off in [0usize, 1, 63, 64, 65, 127, 128, 4097] {
            let a = align_up(off);
            assert!(a >= off);
            assert_eq!(a % SECTION_ALIGN, 0);
            assert!(a - off < SECTION_ALIGN);
        }
    }
}
