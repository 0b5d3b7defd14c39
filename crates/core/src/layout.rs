//! Compressed memory layouts and their storage accounting (§5, Fig. 8).
//!
//! The paper's implementation section describes four layout optimizations
//! and Fig. 8 compares bytes-per-entry against verbose ("decompressed")
//! layouts:
//!
//! * **Masks** — bitmaps sized by the largest feature set across dictionary
//!   entries, instead of 1-byte boolean arrays.
//! * **Features** — feature values stored with just enough bits for the
//!   largest value used in any binary split, instead of full integers.
//! * **Results** — knee-point (99th-percentile) encoding instead of fixed
//!   integers, "compressing table entries by 3X".
//! * **Dictionary entry ID** — 1 byte (`id mod 256`) instead of a full
//!   integer, relying on the adjacency argument of §5.
//!
//! [`LayoutReport`] computes both columns of Fig. 8 for a compiled forest;
//! [`PackedBolt`] actually *runs inference from packed structures*, proving
//! the compressed layout is executable rather than bookkeeping.

use crate::engine::BoltForest;
use crate::filter::table_key;
use bolt_bitpack::{bits_for, BitVec, KneeCodec, Mask, PackedIntVec};

/// Compressed vs decompressed byte counts for one layout section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SectionBytes {
    /// Bytes per entry under Bolt's packed layout.
    pub compressed: usize,
    /// Bytes per entry under the verbose layout Fig. 8 compares against.
    pub decompressed: usize,
}

impl SectionBytes {
    /// Compression ratio (decompressed / compressed); ∞-safe.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.compressed == 0 {
            0.0
        } else {
            self.decompressed as f64 / self.compressed as f64
        }
    }
}

/// Per-section storage accounting for a compiled forest (Fig. 8's bars).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutReport {
    /// Dictionary-entry masks (bitmap vs boolean array), bytes per entry.
    pub masks: SectionBytes,
    /// Dictionary-entry feature-value pairs, bytes per entry.
    pub features: SectionBytes,
    /// Lookup-table results, bytes per table entry.
    pub results: SectionBytes,
    /// Stored dictionary entry ID, bytes per table entry.
    pub entry_id: SectionBytes,
    /// Entry-bitmap index, bytes per dictionary entry
    /// (`(n_preds + n_groups) / 8`, rounded up): memory the single-sample
    /// paths hold on top of Fig. 8's packed layout. It has no verbose
    /// counterpart, so it is not a [`SectionBytes`] and stays out of the
    /// dictionary totals.
    pub index_per_entry: usize,
}

impl LayoutReport {
    /// Computes the report for a compiled forest. `max_split_value` is the
    /// largest feature value used in any binary split (discovered from the
    /// trained forest, as §5 describes).
    #[must_use]
    pub fn for_forest(bolt: &BoltForest) -> Self {
        let universe = bolt.universe();
        let max_split_value = (0..universe.len())
            .map(|p| universe.predicate(p as u32).threshold.abs().ceil() as u64)
            .max()
            .unwrap_or(1)
            .max(1);
        let max_feature_set = bolt.dictionary().max_feature_set().max(1);

        // Masks: one membership mask + one value mask over the entry's
        // feature set. Verbose layout: 1 byte per boolean; packed: 1 bit.
        let masks = SectionBytes {
            compressed: 2 * max_feature_set.div_ceil(8),
            decompressed: 2 * max_feature_set,
        };

        // Features: (feature id, value) pairs. Verbose: two 4-byte ints per
        // pair; packed: just enough bits for the feature index and for the
        // largest split value.
        let feature_bits = bits_for(universe.n_features().max(1) as u64) as usize;
        let value_bits = bits_for(max_split_value) as usize;
        let features = SectionBytes {
            compressed: (max_feature_set * (feature_bits + value_bits)).div_ceil(8),
            decompressed: max_feature_set * 8,
        };

        // Results: knee-point coded votes vs 4-byte integers, averaged per
        // occupied table cell.
        let all_votes: Vec<u64> = bolt
            .table()
            .cells()
            .flat_map(|c| c.votes.iter().map(|&(class, _)| u64::from(class)))
            .collect();
        let n_cells = bolt.table().n_cells().max(1);
        let codec = KneeCodec::fit(&all_votes, 0.99);
        let results = SectionBytes {
            compressed: codec.packed_bytes().div_ceil(n_cells).max(1),
            decompressed: (all_votes.len() * 4).div_ceil(n_cells).max(4),
        };

        let entry_id = SectionBytes {
            compressed: 1, // id mod 256, as in §5
            decompressed: 4,
        };

        Self {
            masks,
            features,
            results,
            entry_id,
            index_per_entry: bolt
                .index()
                .heap_bytes()
                .div_ceil(bolt.dictionary().len().max(1)),
        }
    }

    /// Total compressed bytes per dictionary entry.
    #[must_use]
    pub fn dictionary_compressed(&self) -> usize {
        self.masks.compressed + self.features.compressed
    }

    /// Total decompressed bytes per dictionary entry.
    #[must_use]
    pub fn dictionary_decompressed(&self) -> usize {
        self.masks.decompressed + self.features.decompressed
    }

    /// Total compressed bytes per lookup-table entry.
    #[must_use]
    pub fn table_compressed(&self) -> usize {
        self.results.compressed + self.entry_id.compressed
    }

    /// Total decompressed bytes per lookup-table entry.
    #[must_use]
    pub fn table_decompressed(&self) -> usize {
        self.results.decompressed + self.entry_id.decompressed
    }
}

/// A fully bit-packed, runnable Bolt engine.
///
/// Dictionary masks/keys live in the packed scan arrays; uncommon-predicate
/// lists, table addresses, stored entry IDs, and result classes are all in
/// packed integer vectors. `classify` decodes on the fly and produces the
/// same answer as the unpacked [`BoltForest`] for unweighted forests (the
/// only regime the paper's Fig. 8 measures).
#[derive(Clone, Debug)]
pub struct PackedBolt {
    /// Universe width (bits of the input mask).
    width: usize,
    /// Per entry: offset into `uncommon_preds`.
    entry_uncommon_offsets: Vec<u32>,
    /// Packed predicate IDs of every entry's uncommon list, concatenated.
    uncommon_preds: PackedIntVec,
    /// Per entry: common mask/key words (reused from the dictionary layout).
    mask_words: Vec<u64>,
    key_words: Vec<u64>,
    stride: usize,
    /// Open-addressed packed table, same capacity/probing as the source.
    occupied: BitVec,
    slot_entry_ids: PackedIntVec,
    slot_addresses: PackedIntVec,
    /// Per slot: offset into `vote_classes`.
    slot_vote_offsets: Vec<u32>,
    /// Knee-coded class of every vote, concatenated in slot order.
    vote_classes: KneeCodec,
    index_mask: u64,
    constant_votes: Vec<(u32, f64)>,
    n_classes: usize,
}

impl PackedBolt {
    /// Packs a compiled forest. Weighted (boosted) forests are not
    /// supported — Fig. 8's measurement regime is plain random forests.
    ///
    /// # Panics
    ///
    /// Panics if the forest carries non-unit path weights.
    #[must_use]
    pub fn from_bolt(bolt: &BoltForest) -> Self {
        let dict = bolt.dictionary();
        let universe_len = bolt.universe().len().max(1);
        let pred_bits = bits_for(universe_len as u64);
        let mut entry_uncommon_offsets = Vec::with_capacity(dict.len() + 1);
        let mut uncommon_preds = PackedIntVec::new(pred_bits);
        let mut mask_words = Vec::new();
        let mut key_words = Vec::new();
        let stride = dict.stride();
        for entry in dict.entries() {
            entry_uncommon_offsets.push(uncommon_preds.len() as u32);
            for &p in &entry.uncommon {
                uncommon_preds.push(u64::from(p));
            }
            // Re-derive the packed mask/key words from the entry itself.
            let mut mask = vec![0u64; stride];
            let mut key = vec![0u64; stride];
            for &(pred, value) in &entry.common {
                let p = pred as usize;
                mask[p / 64] |= 1 << (p % 64);
                if value {
                    key[p / 64] |= 1 << (p % 64);
                }
            }
            mask_words.extend_from_slice(&mask);
            key_words.extend_from_slice(&key);
        }
        entry_uncommon_offsets.push(uncommon_preds.len() as u32);

        let table = bolt.table();
        let capacity = table.capacity();
        let entry_bits = bits_for(dict.len().max(1) as u64);
        let max_address = table.cells().map(|c| c.address).max().unwrap_or(0);
        let address_bits = bits_for(max_address);
        let mut occupied = BitVec::zeros(capacity);
        let mut slot_entry_ids = PackedIntVec::new(entry_bits);
        let mut slot_addresses = PackedIntVec::new(address_bits);
        let mut slot_vote_offsets = Vec::with_capacity(capacity + 1);
        let mut classes: Vec<u64> = Vec::new();
        // Walk slots in their stored order so probing works identically.
        let mut slot_to_cell: Vec<Option<&crate::table::TableCell>> = vec![None; capacity];
        for cell in table.cells() {
            slot_to_cell[table.slot_of(cell.entry_id, cell.address)] = Some(cell);
        }
        for (slot, cell) in slot_to_cell.iter().enumerate() {
            slot_vote_offsets.push(classes.len() as u32);
            match *cell {
                Some(cell) => {
                    occupied.set(slot, true);
                    slot_entry_ids.push(u64::from(cell.entry_id));
                    slot_addresses.push(cell.address);
                    for &(class, weight) in &cell.votes {
                        assert!(
                            (weight - 1.0).abs() < f64::EPSILON,
                            "PackedBolt supports unweighted forests only"
                        );
                        classes.push(u64::from(class));
                    }
                }
                None => {
                    slot_entry_ids.push(0);
                    slot_addresses.push(0);
                }
            }
        }
        slot_vote_offsets.push(classes.len() as u32);
        Self {
            width: dict.width(),
            entry_uncommon_offsets,
            uncommon_preds,
            mask_words,
            key_words,
            stride,
            occupied,
            slot_entry_ids,
            slot_addresses,
            slot_vote_offsets,
            vote_classes: KneeCodec::fit(&classes, 0.99),
            index_mask: (capacity - 1) as u64,
            constant_votes: bolt.constant_votes().to_vec(),
            n_classes: bolt.n_classes(),
        }
    }

    /// Number of dictionary entries.
    #[must_use]
    pub fn n_entries(&self) -> usize {
        self.entry_uncommon_offsets.len() - 1
    }

    /// Classifies an encoded input from packed structures only: a flat
    /// scalar scan of the mask/key columns, then packed table probes.
    #[must_use]
    pub fn classify_bits(&self, bits: &Mask) -> u32 {
        let words = bits.as_words();
        let mut votes = vec![0.0f64; self.n_classes];
        for &(class, weight) in &self.constant_votes {
            votes[class as usize] += weight;
        }
        for entry in 0..self.n_entries() {
            let base = entry * self.stride;
            let mut diff = 0u64;
            for w in 0..self.stride {
                diff |= (words.get(w).copied().unwrap_or(0) & self.mask_words[base + w])
                    ^ self.key_words[base + w];
            }
            if diff == 0 {
                self.accumulate_entry(entry, bits, &mut votes);
            }
        }
        let mut best = 0usize;
        for (i, &v) in votes.iter().enumerate().skip(1) {
            if v > votes[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Back half of the packed scan for one matched entry: gather the
    /// packed uncommon predicates into an address and probe the packed
    /// table, accumulating unit votes.
    fn accumulate_entry(&self, entry: usize, bits: &Mask, votes: &mut [f64]) {
        let (start, end) = (
            self.entry_uncommon_offsets[entry] as usize,
            self.entry_uncommon_offsets[entry + 1] as usize,
        );
        let mut address = 0u64;
        for (bit, i) in (start..end).enumerate() {
            let pred = self.uncommon_preds.get(i).expect("offset in range") as usize;
            address |= u64::from(bits.get(pred)) << bit;
        }
        let mut idx = table_key(entry as u32, address) & self.index_mask;
        loop {
            if self.occupied.get(idx as usize) != Some(true) {
                break;
            }
            let same = self.slot_entry_ids.get(idx as usize) == Some(entry as u64)
                && self.slot_addresses.get(idx as usize) == Some(address);
            if same {
                let (vs, ve) = (
                    self.slot_vote_offsets[idx as usize] as usize,
                    self.slot_vote_offsets[idx as usize + 1] as usize,
                );
                for v in vs..ve {
                    let class = self.vote_classes.get(v).expect("vote in range");
                    votes[class as usize] += 1.0;
                }
                break;
            }
            idx = (idx + 1) & self.index_mask;
        }
    }

    /// Total packed heap bytes of the engine's data structures.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.uncommon_preds.packed_bytes()
            + self.entry_uncommon_offsets.len() * 4
            + (self.mask_words.len() + self.key_words.len()) * 8
            + self.occupied.packed_bytes()
            + self.slot_entry_ids.packed_bytes()
            + self.slot_addresses.packed_bytes()
            + self.slot_vote_offsets.len() * 4
            + self.vote_classes.packed_bytes()
    }

    /// Universe width in bits (for building input masks).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoltConfig;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn fixture() -> (Dataset, RandomForest, BoltForest) {
        let rows: Vec<Vec<f32>> = (0..140)
            .map(|i| vec![(i % 9) as f32, (i % 6) as f32, ((i * 3) % 7) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] + r[2] > 7.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(17),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        (data, forest, bolt)
    }

    #[test]
    fn report_sections_all_compress() {
        let (_, _, bolt) = fixture();
        let report = LayoutReport::for_forest(&bolt);
        assert!(report.masks.compressed < report.masks.decompressed);
        assert!(report.features.compressed < report.features.decompressed);
        assert!(report.results.compressed <= report.results.decompressed);
        assert!(report.entry_id.compressed < report.entry_id.decompressed);
        assert!(report.dictionary_compressed() < report.dictionary_decompressed());
        assert!(report.table_compressed() < report.table_decompressed());
    }

    #[test]
    fn index_is_charged_per_entry() {
        let (_, _, bolt) = fixture();
        let report = LayoutReport::for_forest(&bolt);
        let rows = bolt.universe().len() + bolt.universe().n_groups();
        // One bit per row per entry, padded to the 64-entry word.
        assert!(report.index_per_entry >= rows.div_ceil(8));
        assert_eq!(
            report.index_per_entry,
            bolt.index().heap_bytes().div_ceil(bolt.dictionary().len())
        );
    }

    #[test]
    fn entry_id_is_one_byte_as_in_paper() {
        let (_, _, bolt) = fixture();
        let report = LayoutReport::for_forest(&bolt);
        assert_eq!(report.entry_id.compressed, 1);
        assert_eq!(report.entry_id.decompressed, 4);
        assert_eq!(report.entry_id.ratio(), 4.0);
    }

    #[test]
    fn packed_engine_is_equivalent() {
        let (data, forest, bolt) = fixture();
        let packed = PackedBolt::from_bolt(&bolt);
        for (sample, _) in data.iter() {
            let bits = bolt.encode(sample);
            assert_eq!(packed.classify_bits(&bits), forest.predict(sample));
        }
    }

    #[test]
    fn packed_engine_is_smaller_than_verbose_accounting() {
        let (_, _, bolt) = fixture();
        let packed = PackedBolt::from_bolt(&bolt);
        // Verbose accounting: each table slot as a 16-byte struct plus each
        // dictionary entry as decompressed bytes.
        let report = LayoutReport::for_forest(&bolt);
        let verbose = bolt.table().capacity() * 16
            + bolt.dictionary().len() * report.dictionary_decompressed();
        assert!(
            packed.packed_bytes() < verbose,
            "packed {} >= verbose {verbose}",
            packed.packed_bytes()
        );
    }

    #[test]
    fn packed_handles_unseen_inputs() {
        let (_, forest, bolt) = fixture();
        let packed = PackedBolt::from_bolt(&bolt);
        for i in 0..100 {
            let sample = vec![i as f32 * 0.13, -(i as f32) * 0.7, i as f32];
            let bits = bolt.encode(&sample);
            assert_eq!(packed.classify_bits(&bits), forest.predict(&sample));
        }
    }
}
