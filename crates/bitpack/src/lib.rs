//! Bit-level packed containers used by Bolt's compressed memory layouts.
//!
//! The Bolt paper (§5, Fig. 8) reports that verbose data layouts inflate the
//! storage demand of lookup tables and dictionaries, and that bit-level
//! packing of masks, feature values, results, and dictionary entry IDs is
//! what lets a compiled forest fit in processor cache. This crate provides
//! the packing primitives:
//!
//! * [`BitVec`] — a growable vector of single bits.
//! * [`Mask`] — a fixed-width, word-backed bitmask supporting the branch-free
//!   `(input & mask) == key` membership test at the heart of Bolt's
//!   dictionary scan.
//! * [`PackedIntVec`] — a vector of fixed-width (1–64 bit) unsigned integers.
//! * [`KneeCodec`] — the "knee-point" variable-width codec from §5 of the
//!   paper: most values are stored with just enough bits to cover the 99th
//!   percentile, and rare outliers spill into a side table.
//! * [`lanes`] — word-level helpers for the entry-major, multi-sample masked
//!   compare of the dictionary's reference batch scan.
//!
//! # Examples
//!
//! ```
//! use bolt_bitpack::{BitVec, Mask, PackedIntVec};
//!
//! let mut bits = BitVec::new();
//! bits.push(true);
//! bits.push(false);
//! assert_eq!(bits.get(0), Some(true));
//!
//! let mut mask = Mask::zeros(128);
//! mask.set(70, true);
//! assert!(mask.get(70));
//!
//! let mut packed = PackedIntVec::new(5); // 5 bits per value
//! packed.push(21);
//! assert_eq!(packed.get(0), Some(21));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod knee;
pub mod lanes;
mod mask;
mod packed;

pub use bitvec::BitVec;
pub use knee::{KneeCodec, KneeStats};
pub use mask::Mask;
pub use packed::PackedIntVec;

/// Number of bits required to represent `value` (at least 1).
///
/// ```
/// assert_eq!(bolt_bitpack::bits_for(0), 1);
/// assert_eq!(bolt_bitpack::bits_for(1), 1);
/// assert_eq!(bolt_bitpack::bits_for(255), 8);
/// assert_eq!(bolt_bitpack::bits_for(256), 9);
/// ```
#[must_use]
pub fn bits_for(value: u64) -> u32 {
    if value == 0 {
        1
    } else {
        64 - value.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::bits_for;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }
}
