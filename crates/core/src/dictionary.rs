//! The Bolt dictionary: one entry per path cluster.
//!
//! "These are not traditional dictionaries in the sense of associative maps
//! with O(1) lookup" (§4 fn. 2): during inference every entry is *scanned*,
//! but each test is a branch-free word-wide masked compare
//! (`(input & mask) == key`), so the scan costs bit-ops, not memory stalls
//! or branch mispredictions. Masks and keys are stored column-contiguously
//! so the scan walks memory sequentially.

use crate::cluster::Clustering;
use bolt_bitpack::Mask;
use bolt_forest::{PredId, PredicateUniverse};
use serde::{Deserialize, Serialize};

/// The scalar reference compare for one entry: folds
/// `(input & mask) ^ key` over the words both sides share, then folds the
/// key words beyond the input's width (a zero input word can only match
/// them if no key bit is set there — narrow inputs reject, they don't
/// panic). Returns the accumulated difference; zero means the entry
/// matches.
///
/// This is the single source of truth for match semantics: [`DictView::scan`]
/// and [`DictView::matches`] both go through it, and the entry-bitmap index
/// ([`crate::index`]) that feature-level inference matches through is
/// pinned bit-for-bit against it.
#[inline]
fn entry_diff(words: &[u64], mask: &[u64], key: &[u64]) -> u64 {
    let n = words.len().min(mask.len());
    let mut diff = 0u64;
    for w in 0..n {
        diff |= (words[w] & mask[w]) ^ key[w];
    }
    for &key_word in &key[n..] {
        diff |= key_word;
    }
    diff
}

/// One dictionary entry: the membership key (common pairs) and address
/// layout (uncommon predicates) of one path cluster.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DictEntry {
    /// Entry ID (index in the dictionary; hashed into table keys).
    pub id: u32,
    /// Common `(predicate, value)` pairs, sorted by predicate.
    pub common: Vec<(PredId, bool)>,
    /// Uncommon predicates in address-bit order (bit `i` of the lookup
    /// address is the input's value of `uncommon[i]`).
    pub uncommon: Vec<PredId>,
}

impl DictEntry {
    /// Builds the lookup-table address for an input's predicate mask by
    /// gathering the bits of the uncommon predicates.
    #[must_use]
    pub fn address_of(&self, bits: &Mask) -> u64 {
        let mut address = 0u64;
        for (i, &pred) in self.uncommon.iter().enumerate() {
            address |= u64::from(bits.get(pred as usize)) << i;
        }
        address
    }
}

/// A borrowed, storage-agnostic view of the dictionary's scan arrays.
///
/// All of Bolt's inference kernels run over this view, so the same code
/// serves an owned [`Dictionary`] (whose arrays live in `Vec`s) and a
/// memory-mapped `BLT1` artifact (whose arrays are borrowed straight from
/// the mapped file, never copied). Callbacks receive entry *indices*; the
/// owned wrapper resolves them to [`DictEntry`] metadata, which a mapped
/// model does not carry.
///
/// The view trusts its invariants (slice lengths consistent with
/// `width`/entry count, offsets monotone, predicate IDs `< width`); the
/// cheap shape checks are asserted in [`DictView::new`] and the O(n)
/// invariants are enforced by the artifact loader before a view is ever
/// built over untrusted bytes.
#[derive(Clone, Copy, Debug)]
pub struct DictView<'a> {
    width: usize,
    stride: usize,
    n_entries: usize,
    mask_words: &'a [u64],
    key_words: &'a [u64],
    uncommon_flat: &'a [u32],
    uncommon_offsets: &'a [u32],
}

impl<'a> DictView<'a> {
    /// Builds a view over raw scan arrays for a universe of `width`
    /// predicates. The entry count is `uncommon_offsets.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are mutually inconsistent
    /// (`mask_words`/`key_words` must be `n_entries x stride` long and
    /// `uncommon_offsets` must be non-empty).
    #[must_use]
    pub fn new(
        width: usize,
        mask_words: &'a [u64],
        key_words: &'a [u64],
        uncommon_flat: &'a [u32],
        uncommon_offsets: &'a [u32],
    ) -> Self {
        let stride = width.div_ceil(64).max(1);
        assert!(
            !uncommon_offsets.is_empty(),
            "uncommon_offsets needs a terminating sentinel"
        );
        let n_entries = uncommon_offsets.len() - 1;
        assert_eq!(mask_words.len(), n_entries * stride, "mask words shape");
        assert_eq!(key_words.len(), n_entries * stride, "key words shape");
        Self {
            width,
            stride,
            n_entries,
            mask_words,
            key_words,
            uncommon_flat,
            uncommon_offsets,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_entries
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Predicate-universe width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per entry in the packed scan arrays.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The packed common-predicate masks, `stride` words per entry.
    #[must_use]
    pub fn mask_words(&self) -> &'a [u64] {
        self.mask_words
    }

    /// The packed expected values under the masks.
    #[must_use]
    pub fn key_words(&self) -> &'a [u64] {
        self.key_words
    }

    /// Every entry's uncommon predicates, concatenated.
    #[must_use]
    pub fn uncommon_flat(&self) -> &'a [u32] {
        self.uncommon_flat
    }

    /// Entry `i`'s uncommon run is `uncommon_offsets[i]..uncommon_offsets[i+1]`.
    #[must_use]
    pub fn uncommon_offsets(&self) -> &'a [u32] {
        self.uncommon_offsets
    }

    /// The branch-free membership test for entry `id`:
    /// `(input & mask) == key` over the entry's stride words. Inputs
    /// narrower than the dictionary width are handled exactly as
    /// [`Self::scan`] handles them — key bits beyond the input reject.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn matches(&self, id: u32, input: &Mask) -> bool {
        let words = input.as_words();
        let words = &words[..self.stride.min(words.len())];
        let base = id as usize * self.stride;
        entry_diff(
            words,
            &self.mask_words[base..base + self.stride],
            &self.key_words[base..base + self.stride],
        ) == 0
    }

    /// Scans all entries against an input mask, invoking `on_match` with the
    /// index of each entry whose common pairs all hold, in ascending entry
    /// order — one [`entry_diff`] per entry over the flat arrays.
    ///
    /// This is the paper's §4 linear scan, kept as the reference the
    /// oracles pin the entry-bitmap index against; no feature-level
    /// inference path runs it.
    pub fn scan<F: FnMut(u32)>(&self, input: &Mask, mut on_match: F) {
        let words = input.as_words();
        let words = &words[..self.stride.min(words.len())];
        for (idx, (mask, key)) in self
            .mask_words
            .chunks_exact(self.stride)
            .zip(self.key_words.chunks_exact(self.stride))
            .enumerate()
        {
            if entry_diff(words, mask, key) == 0 {
                on_match(idx as u32);
            }
        }
    }

    /// Entry-major scan of a whole batch: tests `n_samples` encoded inputs
    /// against every entry, invoking `on_entry` with each entry that some
    /// sample matched and the ascending indices of the samples that did.
    ///
    /// Retained as the flat scalar reference the oracle and the repo
    /// benchmark's stage probe call; no first-party inference path does —
    /// batches are matched through the entry-bitmap index
    /// ([`ForestView::batch_votes_into`](crate::ForestView::batch_votes_into)).
    ///
    /// `lane_words` holds the batch's predicate masks lane-contiguously:
    /// word `w` of sample `b` lives at `lane_words[w * n_samples + b]`, so
    /// each entry's stride words are loaded once and folded across all
    /// samples with dense word loops; per entry and sample that fold is
    /// exactly [`entry_diff`]. `diffs` (≥ `n_samples` words) and `matched`
    /// are caller-owned scratch.
    ///
    /// Words with no mask *and* no key bits are skipped: such a word can
    /// never reject a sample. A key bit *outside* its mask (a corrupted
    /// deserialized artifact can carry one) is still folded in, so the
    /// entry rejects every sample exactly as [`Self::scan`] and
    /// [`Self::matches`] do.
    ///
    /// # Panics
    ///
    /// Panics if `lane_words` is not `stride x n_samples` long or `diffs`
    /// is shorter than `n_samples`.
    pub fn scan_lanes<F: FnMut(u32, &[u32])>(
        &self,
        lane_words: &[u64],
        n_samples: usize,
        diffs: &mut [u64],
        matched: &mut Vec<u32>,
        mut on_entry: F,
    ) {
        if self.n_entries == 0 || n_samples == 0 {
            return;
        }
        assert_eq!(
            lane_words.len(),
            self.stride * n_samples,
            "lane words must be stride ({}) x n_samples ({})",
            self.stride,
            n_samples
        );
        let diffs = &mut diffs[..n_samples];
        for (idx, (mask, key)) in self
            .mask_words
            .chunks_exact(self.stride)
            .zip(self.key_words.chunks_exact(self.stride))
            .enumerate()
        {
            let mut first = true;
            for w in 0..self.stride {
                if mask[w] == 0 && key[w] == 0 {
                    continue;
                }
                let lane = &lane_words[w * n_samples..(w + 1) * n_samples];
                if first {
                    bolt_bitpack::lanes::masked_compare_into(lane, mask[w], key[w], diffs);
                    first = false;
                } else {
                    bolt_bitpack::lanes::fold_masked_compare(lane, mask[w], key[w], diffs);
                }
            }
            matched.clear();
            if first {
                // Entry with an all-zero mask matches every sample.
                matched.extend(0..n_samples as u32);
            } else {
                bolt_bitpack::lanes::zero_lanes_into(diffs, matched);
            }
            if !matched.is_empty() {
                on_entry(idx as u32, matched);
            }
        }
    }

    /// Address gather for entry `id` from an encoded input (see
    /// [`Dictionary::address_of`]): the raw-bits reference.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn address_of(&self, id: u32, bits: &Mask) -> u64 {
        let words = bits.as_words();
        self.uncommon(id)
            .iter()
            .enumerate()
            .fold(0, |address, (bit, &pred)| {
                let p = pred as usize;
                address | (words[p / 64] >> (p % 64) & 1) << bit
            })
    }

    /// Hot-path address gather for entry `id` straight from a raw sample:
    /// bit `i` is one `sample[feature] <= threshold` compare of the entry's
    /// `i`-th uncommon predicate ([`PredicateUniverse::holds`]) — the bit
    /// [`Self::address_of`] reads from the sample's encoded mask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `sample` lacks a feature the
    /// entry's uncommon predicates test.
    #[inline]
    #[must_use]
    pub fn address_of_sample(&self, id: u32, universe: &PredicateUniverse, sample: &[f32]) -> u64 {
        self.uncommon(id)
            .iter()
            .enumerate()
            .fold(0, |address, (bit, &pred)| {
                address | u64::from(universe.holds(pred, sample)) << bit
            })
    }

    /// Entry `id`'s uncommon predicates, in address-bit order.
    #[inline]
    fn uncommon(&self, id: u32) -> &'a [u32] {
        let id = id as usize;
        &self.uncommon_flat
            [self.uncommon_offsets[id] as usize..self.uncommon_offsets[id + 1] as usize]
    }

    /// Bytes consumed by the packed scan arrays.
    #[must_use]
    pub fn scan_bytes(&self) -> usize {
        (self.mask_words.len() + self.key_words.len()) * 8
    }
}

/// The compiled dictionary: per-entry metadata plus flat, stride-packed mask
/// and key words for the branch-free scan.
///
/// # Examples
///
/// ```
/// use bolt_core::{cluster::Clustering, paths::SortedPaths, Dictionary};
/// use bolt_forest::{Dataset, ForestConfig, PredicateUniverse, RandomForest};
///
/// let rows: Vec<Vec<f32>> = (0..60).map(|i| vec![(i % 6) as f32]).collect();
/// let labels: Vec<u32> = (0..60).map(|i| u32::from(i % 6 > 2)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(4).with_seed(3));
/// let universe = PredicateUniverse::from_forest(&forest);
/// let sorted = SortedPaths::from_forest(&forest, &universe);
/// let clustering = Clustering::greedy(&sorted, 4)?;
/// let dict = Dictionary::from_clustering(&clustering, universe.len());
/// assert_eq!(dict.len(), clustering.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Dictionary {
    entries: Vec<DictEntry>,
    /// Predicate-universe width in bits.
    width: usize,
    /// Words per entry in the flat mask/key arrays.
    stride: usize,
    /// `stride`-word mask of common predicates, per entry, contiguous.
    mask_words: Vec<u64>,
    /// `stride`-word expected values under the mask, per entry, contiguous.
    key_words: Vec<u64>,
    /// Every entry's uncommon predicates, concatenated (hot-path mirror of
    /// the per-entry lists, avoiding heap hops during address gathering).
    uncommon_flat: Vec<u32>,
    /// Entry `i`'s uncommon run is `uncommon_offsets[i]..uncommon_offsets[i+1]`.
    uncommon_offsets: Vec<u32>,
}

impl Dictionary {
    /// Builds the dictionary for a clustering over a predicate universe of
    /// `width` predicates.
    #[must_use]
    pub fn from_clustering(clustering: &Clustering, width: usize) -> Self {
        let stride = width.div_ceil(64).max(1);
        let mut entries = Vec::with_capacity(clustering.len());
        let mut mask_words = Vec::with_capacity(clustering.len() * stride);
        let mut key_words = Vec::with_capacity(clustering.len() * stride);
        let mut uncommon_flat = Vec::new();
        let mut uncommon_offsets = Vec::with_capacity(clustering.len() + 1);
        for (id, cluster) in clustering.clusters().iter().enumerate() {
            uncommon_offsets.push(uncommon_flat.len() as u32);
            uncommon_flat.extend_from_slice(&cluster.uncommon);
            let mut mask = vec![0u64; stride];
            let mut key = vec![0u64; stride];
            for &(pred, value) in &cluster.common {
                let p = pred as usize;
                mask[p / 64] |= 1 << (p % 64);
                if value {
                    key[p / 64] |= 1 << (p % 64);
                }
            }
            mask_words.extend_from_slice(&mask);
            key_words.extend_from_slice(&key);
            entries.push(DictEntry {
                id: id as u32,
                common: cluster.common.clone(),
                uncommon: cluster.uncommon.clone(),
            });
        }
        uncommon_offsets.push(uncommon_flat.len() as u32);
        Self {
            entries,
            width,
            stride,
            mask_words,
            key_words,
            uncommon_flat,
            uncommon_offsets,
        }
    }

    /// A borrowed [`DictView`] over the packed scan arrays — the shape the
    /// inference kernels actually run over, shared with memory-mapped
    /// artifacts.
    #[must_use]
    pub fn view(&self) -> DictView<'_> {
        DictView {
            width: self.width,
            stride: self.stride,
            n_entries: self.entries.len(),
            mask_words: &self.mask_words,
            key_words: &self.key_words,
            uncommon_flat: &self.uncommon_flat,
            uncommon_offsets: &self.uncommon_offsets,
        }
    }

    /// Address gather for entry `id` from an encoded input: collects the
    /// input's bits of the entry's uncommon predicates from the flat arrays
    /// (equivalent to [`DictEntry::address_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn address_of(&self, id: u32, bits: &Mask) -> u64 {
        self.view().address_of(id, bits)
    }

    /// The entries in ID order.
    #[must_use]
    pub fn entries(&self) -> &[DictEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Predicate-universe width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per entry in the packed scan arrays.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The branch-free membership test for entry `id`:
    /// `(input & mask) == key` over the entry's stride words.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `input` has the wrong width.
    #[must_use]
    pub fn matches(&self, id: u32, input: &Mask) -> bool {
        self.view().matches(id, input)
    }

    /// Bytes consumed by the packed scan arrays.
    #[must_use]
    pub fn scan_bytes(&self) -> usize {
        (self.mask_words.len() + self.key_words.len()) * 8
    }

    /// Largest number of common pairs across entries (drives the mask width
    /// discussion of Fig. 8).
    #[must_use]
    pub fn max_common_pairs(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.common.len())
            .max()
            .unwrap_or(0)
    }

    /// Largest total feature count (common + uncommon) across entries — the
    /// paper's "largest feature set across all dictionary entries".
    #[must_use]
    pub fn max_feature_set(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.common.len() + e.uncommon.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::SortedPaths;
    use bolt_forest::BinaryPath;

    fn path(pairs: &[(PredId, bool)], class: u32, tree: u32) -> BinaryPath {
        BinaryPath {
            pairs: pairs.to_vec(),
            class,
            tree,
            weight: 1.0,
        }
    }

    fn small_dictionary() -> Dictionary {
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(0, true), (1, true)], 0, 0),
                path(&[(0, true), (1, false)], 1, 0),
                path(&[(0, false), (2, true)], 1, 0),
                path(&[(0, false), (2, false)], 0, 0),
            ],
            1,
        );
        let clustering = Clustering::greedy(&sorted, 1).expect("clusters");
        Dictionary::from_clustering(&clustering, 3)
    }

    #[test]
    fn matches_agrees_with_common_pairs() {
        let dict = small_dictionary();
        // Try all 8 inputs over 3 predicates.
        for input_bits in 0u8..8 {
            let mut input = Mask::zeros(3);
            for b in 0..3 {
                input.set(b, input_bits >> b & 1 == 1);
            }
            for entry in dict.entries() {
                let expected = entry
                    .common
                    .iter()
                    .all(|&(p, v)| input.get(p as usize) == v);
                assert_eq!(dict.matches(entry.id, &input), expected);
            }
        }
    }

    #[test]
    fn scan_visits_exactly_matching_entries() {
        let dict = small_dictionary();
        let mut input = Mask::zeros(3);
        input.set(0, true);
        input.set(1, true);
        let mut via_scan = Vec::new();
        dict.view().scan(&input, |id| via_scan.push(id));
        let direct: Vec<u32> = dict
            .entries()
            .iter()
            .filter(|e| dict.matches(e.id, &input))
            .map(|e| e.id)
            .collect();
        assert_eq!(via_scan, direct);
        assert!(!via_scan.is_empty());
    }

    #[test]
    fn address_gathers_uncommon_bits_in_order() {
        let entry = DictEntry {
            id: 0,
            common: vec![],
            uncommon: vec![2, 0],
        };
        let mut input = Mask::zeros(3);
        input.set(2, true); // bit 0 of the address
        assert_eq!(entry.address_of(&input), 0b01);
        input.set(0, true); // bit 1 of the address
        assert_eq!(entry.address_of(&input), 0b11);
    }

    #[test]
    fn wide_universe_uses_multiple_words() {
        // Predicates beyond bit 63 exercise the multi-word path.
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(70, true), (100, false)], 0, 0),
                path(&[(70, true), (100, true)], 1, 0),
            ],
            1,
        );
        let clustering = Clustering::greedy(&sorted, 2).expect("clusters");
        let dict = Dictionary::from_clustering(&clustering, 128);
        assert_eq!(dict.stride(), 2);
        let mut input = Mask::zeros(128);
        input.set(70, true);
        assert!(dict.matches(0, &input));
        input.set(70, false);
        assert!(!dict.matches(0, &input));
    }

    #[test]
    fn matches_handles_inputs_narrower_than_the_dictionary() {
        // Regression: `matches` used to assert on inputs narrower than the
        // dictionary width, while `scan` handled them (key bits beyond the
        // input reject). The two must agree on every entry.
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(70, true), (100, false)], 0, 0),
                path(&[(70, true), (100, true)], 1, 0),
                path(&[(2, true)], 0, 0),
            ],
            1,
        );
        let clustering = Clustering::greedy(&sorted, 2).expect("clusters");
        let dict = Dictionary::from_clustering(&clustering, 128);
        assert_eq!(dict.stride(), 2);
        let mut narrow = Mask::zeros(3); // one word, dictionary needs two
        narrow.set(2, true);
        let mut via_scan = Vec::new();
        dict.view().scan(&narrow, |id| via_scan.push(id));
        for entry in dict.entries() {
            assert_eq!(
                dict.matches(entry.id, &narrow),
                via_scan.contains(&entry.id),
                "entry {}",
                entry.id
            );
            // Entries keyed on predicates beyond the narrow input reject.
            if entry.common.iter().any(|&(p, v)| p >= 64 && v) {
                assert!(!dict.matches(entry.id, &narrow));
            }
        }
        assert!(
            via_scan.iter().any(|&id| {
                dict.entries()[id as usize]
                    .common
                    .iter()
                    .all(|&(p, _)| p < 64)
            }),
            "the low-word entry should still match"
        );
    }

    #[test]
    fn flat_address_matches_entry_address() {
        let dict = small_dictionary();
        for input_bits in 0u8..8 {
            let mut input = Mask::zeros(3);
            for b in 0..3 {
                input.set(b, input_bits >> b & 1 == 1);
            }
            for entry in dict.entries() {
                assert_eq!(dict.address_of(entry.id, &input), entry.address_of(&input));
            }
        }
    }

    /// Packs sample masks lane-contiguously (word `w` of sample `b` at
    /// `out[w * n + b]`), the layout `scan_lanes` reads.
    fn to_lanes(inputs: &[Mask], stride: usize) -> Vec<u64> {
        let n = inputs.len();
        let mut lanes = vec![0u64; stride * n];
        for (b, input) in inputs.iter().enumerate() {
            for (w, &word) in input.as_words().iter().enumerate().take(stride) {
                lanes[w * n + b] = word;
            }
        }
        lanes
    }

    #[test]
    fn lane_scan_agrees_with_per_sample_scan() {
        let dict = small_dictionary();
        let inputs: Vec<Mask> = (0u8..8)
            .map(|input_bits| {
                let mut input = Mask::zeros(3);
                for b in 0..3 {
                    input.set(b, input_bits >> b & 1 == 1);
                }
                input
            })
            .collect();
        let lanes = to_lanes(&inputs, dict.stride());
        let mut per_entry: Vec<(u32, Vec<u32>)> = Vec::new();
        let (mut diffs, mut matched) = (vec![0u64; inputs.len()], Vec::new());
        dict.view()
            .scan_lanes(&lanes, inputs.len(), &mut diffs, &mut matched, |id, m| {
                per_entry.push((id, m.to_vec()));
            });
        // Reference: per-sample scan, regrouped entry-major.
        let mut expected: Vec<(u32, Vec<u32>)> = Vec::new();
        for entry in dict.entries() {
            let samples: Vec<u32> = inputs
                .iter()
                .enumerate()
                .filter(|(_, input)| dict.matches(entry.id, input))
                .map(|(b, _)| b as u32)
                .collect();
            if !samples.is_empty() {
                expected.push((entry.id, samples));
            }
        }
        assert_eq!(per_entry, expected);
    }

    #[test]
    fn lane_scan_handles_multiword_stride() {
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(70, true), (100, false)], 0, 0),
                path(&[(70, true), (100, true)], 1, 0),
            ],
            1,
        );
        let clustering = Clustering::greedy(&sorted, 2).expect("clusters");
        let dict = Dictionary::from_clustering(&clustering, 128);
        let mut yes = Mask::zeros(128);
        yes.set(70, true);
        let no = Mask::zeros(128);
        let inputs = [yes, no];
        let lanes = to_lanes(&inputs, dict.stride());
        let (mut diffs, mut matched) = (vec![0u64; 2], Vec::new());
        let mut seen = Vec::new();
        dict.view()
            .scan_lanes(&lanes, 2, &mut diffs, &mut matched, |id, m| {
                seen.push((id, m.to_vec()));
            });
        assert_eq!(seen, vec![(0, vec![0])], "only sample 0 sets predicate 70");
    }

    #[test]
    fn corrupted_key_outside_mask_fails_identically_in_both_scans() {
        // from_clustering guarantees key ⊆ mask, but a deserialized
        // artifact carries no such guarantee. A stray key bit in a
        // zero-mask word makes the per-sample compare reject everything;
        // the batched scan must reject identically, not skip the word and
        // silently diverge.
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(70, true), (100, false)], 0, 0),
                path(&[(70, true), (100, true)], 1, 0),
            ],
            1,
        );
        let clustering = Clustering::greedy(&sorted, 2).expect("clusters");
        let mut dict = Dictionary::from_clustering(&clustering, 128);
        assert_eq!(dict.stride(), 2);
        assert_eq!(dict.mask_words[0], 0, "entry 0 word 0 starts unmasked");
        dict.key_words[0] = 1; // corrupt: key bit with no mask bit
        let mut inputs: Vec<Mask> = Vec::new();
        for bits in 0u8..4 {
            let mut input = Mask::zeros(128);
            input.set(0, bits & 1 == 1); // under the corrupted key bit
            input.set(70, bits >> 1 & 1 == 1);
            inputs.push(input);
        }
        for input in &inputs {
            assert!(!dict.matches(0, input), "per-sample scan rejects");
        }
        let lanes = to_lanes(&inputs, dict.stride());
        let (mut diffs, mut matched) = (vec![0u64; inputs.len()], Vec::new());
        let mut lane_hits: Vec<(u32, Vec<u32>)> = Vec::new();
        dict.view()
            .scan_lanes(&lanes, inputs.len(), &mut diffs, &mut matched, |id, m| {
                lane_hits.push((id, m.to_vec()));
            });
        assert!(
            !lane_hits.iter().any(|(id, _)| *id == 0),
            "batched scan must reject the corrupted entry for every sample"
        );
        // And the two scans agree entry-by-entry on the whole dictionary.
        for entry in dict.entries() {
            let per_sample: Vec<u32> = inputs
                .iter()
                .enumerate()
                .filter(|(_, input)| dict.matches(entry.id, input))
                .map(|(b, _)| b as u32)
                .collect();
            let batched = lane_hits
                .iter()
                .find(|(id, _)| *id == entry.id)
                .map(|(_, m)| m.clone())
                .unwrap_or_default();
            assert_eq!(batched, per_sample, "entry {}", entry.id);
        }
    }

    #[test]
    fn size_metrics() {
        let dict = small_dictionary();
        assert!(dict.scan_bytes() >= dict.len() * 16);
        assert!(dict.max_common_pairs() >= 1);
        assert!(dict.max_feature_set() >= dict.max_common_pairs());
    }
}
