//! Entry-bitmap index: match the dictionary once per feature instead of
//! once per entry.
//!
//! The dictionary scan ([`DictView::scan`]) re-derives the same handful of
//! feature outcomes for every entry. But a feature-level input is
//! *thermometer-coded*: within one feature group (the predicates on one
//! feature, thresholds ascending) the bits are a run of `false` followed by
//! a run of `true`, so a single number — where the true run starts — fixes
//! the whole group. An entry's common pairs on that group therefore accept an
//! *interval* of run starts: every pair expecting `true` at offset `i`
//! needs the run to start at or before `i`, every pair expecting `false`
//! needs it to start after `i`.
//!
//! The index stores, for each group `g` and each of its `n_g + 1` possible
//! run starts, one bitset over dictionary entries whose interval on `g`
//! contains that run start. Matching ANDs one row per group —
//! `n_groups × ⌈entries/64⌉` word-ops in place of the scan's
//! `entries × stride × 2` loads — and the set bits of the result are exactly
//! the entries the scan would report, in the same ascending order. A group
//! no entry has a common pair on accepts every run start for every live
//! entry, so all of its rows are the same bitset and the AND skips it: a
//! 784-feature forest whose 33 entries share 21 features reads 21 rows per
//! match, not 79.
//!
//! The input side is encoded to match what the index reads. A feature-level
//! input never becomes a bit vector: [`PredicateUniverse::run_starts_into`]
//! counts, per constraining group only, how many of the group's ascending
//! thresholds the value satisfies (run start = group end − count), and a
//! matched entry's table address is gathered from one `feature <= threshold`
//! compare per uncommon predicate ([`DictView::address_of_sample`]).
//!
//! It is derived data: rebuilt from the dictionary's flat mask/key arrays
//! and the universe's group boundaries, never serialized, so nothing new
//! has to be trusted from a file. Callers that hand in raw bits, which need
//! not be thermometer-coded, keep scanning.

use crate::dictionary::DictView;
use bolt_forest::PredicateUniverse;

/// Name of the one mechanism that matches dictionary entries on every
/// feature-level inference path — what the reporting slots that used to
/// carry the selected SIMD scan kernel (`boltctl status`'s `scan kernel:`
/// line, a bench snapshot's `kernel` field) now say.
pub const MATCH_MECHANISM: &str = "index";

/// Owned entry-bitmap index for one dictionary under one predicate
/// universe. Empty (`Default`) until built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryIndex {
    /// Words per row: `⌈entries / 64⌉`.
    words: usize,
    /// Row `s + g` belongs to group `g` and run start `s` (a predicate ID
    /// in `offsets[g]..=offsets[g + 1]`), so group `g`'s rows begin at
    /// `offsets[g] + g` and the index holds `n_preds + n_groups` rows of
    /// `words` words. A universe without groups gets a single row holding
    /// every entry that can match at all.
    rows: Vec<u64>,
    /// Ascending groups on which some live entry rejects some run start;
    /// the rows of every other group all equal the live-entry bitset.
    constraining: Vec<u32>,
}

/// Borrowed form of an [`EntryIndex`], carried by
/// [`ForestView`](crate::ForestView).
#[derive(Clone, Copy, Debug)]
pub struct IndexView<'a> {
    words: usize,
    rows: &'a [u64],
    constraining: &'a [u32],
}

impl EntryIndex {
    /// Builds the index for `dict` under `universe`'s feature groups.
    ///
    /// An entry constrains only the few groups its common pairs touch, and
    /// its mask bits come out in ascending predicate order, group by group.
    /// So one pass over an entry's mask words yields its interval on each
    /// constrained group; the interval is carved out of an all-rows default
    /// with *toggle* bits (off at the group's first row and on again at the
    /// interval's first, when it starts late; off just past its last, when
    /// it ends early). Afterwards each group's first row is switched on for
    /// every live entry and a running XOR down the group's rows turns the
    /// toggles into filled intervals. That is
    /// `O(entries × stride + common pairs + rows × words)`: no term in
    /// `entries × groups` (a 784-feature forest has hundreds of groups) nor
    /// in `entries × rows`, which is what setting every bit of every
    /// interval costs — and a model store pays the build on every cold load.
    ///
    /// Entries that can never match are set in no row, so they reject here
    /// exactly as the scan's compare does: a key bit outside the mask, a
    /// key bit at or past the universe width (feature-level inputs are zero
    /// there), or contradictory pairs on one group.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is not the one the dictionary was compiled
    /// against (widths differ).
    #[must_use]
    pub fn build(dict: DictView<'_>, universe: &PredicateUniverse) -> Self {
        let width = universe.len();
        assert_eq!(dict.width(), width, "dictionary/universe width mismatch");
        let n_groups = universe.n_groups();
        let words = dict.len().div_ceil(64);
        let n_rows = (width + n_groups).max(1);
        let mut rows = vec![0u64; n_rows * words];
        if dict.is_empty() {
            return Self {
                words,
                rows,
                constraining: Vec::new(),
            };
        }
        let offsets = universe.group_offsets();
        assert_eq!(
            offsets.len(),
            n_groups + 1,
            "predicate universe used before rebuild_index() after deserialization"
        );
        let mut group_of = vec![0u32; width];
        for g in 0..n_groups {
            group_of[offsets[g] as usize..offsets[g + 1] as usize].fill(g as u32);
        }

        /// One entry's accepted run starts `first..=last` on one group.
        struct Span {
            group: usize,
            first: u32,
            last: u32,
        }
        // Entries that can match at all, and the current entry's spans.
        let mut live = vec![0u64; words];
        let mut constrains = vec![false; n_groups];
        let mut spans: Vec<Span> = Vec::with_capacity(n_groups);
        let (stride, masks, keys) = (dict.stride(), dict.mask_words(), dict.key_words());
        'entries: for entry in 0..dict.len() {
            spans.clear();
            // The span being narrowed lives in locals until its group ends.
            let mut current: Option<Span> = None;
            let base = entry * stride;
            for w in 0..stride {
                let (mask, key) = (masks[base + w], keys[base + w]);
                if key & !mask != 0 {
                    continue 'entries;
                }
                let mut pending = mask;
                while pending != 0 {
                    let bit = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let expects_true = key >> bit & 1 == 1;
                    let pred = w * 64 + bit;
                    if pred >= width {
                        // Padding bits of a feature-level input are zero.
                        if expects_true {
                            continue 'entries;
                        }
                        continue;
                    }
                    let group = group_of[pred] as usize;
                    let span = match &mut current {
                        Some(span) if span.group == group => span,
                        other => {
                            spans.extend(other.take());
                            other.insert(Span {
                                group,
                                first: offsets[group],
                                last: offsets[group + 1],
                            })
                        }
                    };
                    // Selects, not a branch: which side a pair narrows is
                    // a coin flip the predictor cannot learn.
                    let pred = pred as u32;
                    span.last = span.last.min(if expects_true { pred } else { u32::MAX });
                    span.first = span.first.max(if expects_true { 0 } else { pred + 1 });
                }
            }
            spans.extend(current);
            if spans.iter().any(|span| span.first > span.last) {
                continue;
            }
            let (word, bit) = (entry / 64, 1u64 << (entry % 64));
            live[word] |= bit;
            for span in &spans {
                let (lo, hi) = (offsets[span.group], offsets[span.group + 1]);
                let mut toggle =
                    |start: u32| rows[(start as usize + span.group) * words + word] ^= bit;
                if span.first > lo {
                    toggle(lo);
                    toggle(span.first);
                }
                if span.last < hi {
                    toggle(span.last + 1);
                }
                constrains[span.group] |= span.first > lo || span.last < hi;
            }
        }
        // Row 0 is group 0's first row — and the single row of a universe
        // without groups, which holds exactly the live entries.
        for (g, &lo) in offsets.iter().enumerate().take(n_groups.max(1)) {
            let at = (lo as usize + g) * words;
            for (row, l) in rows[at..at + words].iter_mut().zip(&live) {
                *row ^= l;
            }
        }
        for g in 0..n_groups {
            let (lo, hi) = (offsets[g] as usize + g, offsets[g + 1] as usize + g);
            for row in lo + 1..=hi {
                let (above, below) = rows.split_at_mut(row * words);
                let above = &above[(row - 1) * words..];
                for (b, a) in below[..words].iter_mut().zip(above) {
                    *b ^= a;
                }
            }
        }
        let constraining = (0..n_groups as u32)
            .filter(|&g| constrains[g as usize])
            .collect();
        Self {
            words,
            rows,
            constraining,
        }
    }

    /// The borrowed form the inference paths run over.
    #[must_use]
    pub fn view(&self) -> IndexView<'_> {
        IndexView {
            words: self.words,
            rows: &self.rows,
            constraining: &self.constraining,
        }
    }

    /// Heap bytes held by the rows.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * 8
    }
}

impl<'a> IndexView<'a> {
    /// Words per row (`⌈entries / 64⌉`): the length of the accumulator
    /// [`Self::for_each_match`] needs.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The feature groups on which some live entry rejects some run start,
    /// ascending: the only groups a match reads a row of, and so the only
    /// groups an input needs encoded
    /// ([`PredicateUniverse::run_starts_into`]).
    #[must_use]
    pub fn constraining(&self) -> &'a [u32] {
        self.constraining
    }

    /// Rows one match reads: one per group that constrains some entry, and
    /// the live-entry row alone when none does.
    #[must_use]
    pub fn rows_per_match(&self) -> usize {
        self.constraining.len().max(1)
    }

    /// Invokes `on_match` with every entry whose common pairs all hold for
    /// the input whose run starts on the [`Self::constraining`] groups are
    /// `run_starts` (one per group, in that order), in ascending entry
    /// order — the same entries, in the same order, as [`DictView::scan`]
    /// over that input's bits. `acc` is caller-owned scratch of
    /// [`Self::words`] words.
    ///
    /// # Panics
    ///
    /// Panics if `run_starts` or `acc` has the wrong length, or a run start
    /// lies outside the index (the starts came from another universe).
    pub fn for_each_match<F: FnMut(u32)>(
        &self,
        run_starts: &[u32],
        acc: &mut [u64],
        mut on_match: F,
    ) {
        assert_eq!(
            run_starts.len(),
            self.constraining.len(),
            "one run start per constraining group"
        );
        assert_eq!(acc.len(), self.words, "accumulator length");
        let row = |g: u32, start: u32| {
            let at = (start as usize + g as usize) * self.words;
            &self.rows[at..at + self.words]
        };
        let mut groups = self.constraining.iter().zip(run_starts);
        match groups.next() {
            // Row 0 holds exactly the live entries: it is the single row of
            // a group-less universe, and otherwise a row of group 0, which
            // constrains nothing here.
            None => acc.copy_from_slice(&self.rows[..self.words]),
            Some((&first, &start)) => {
                acc.copy_from_slice(row(first, start));
                for (&g, &start) in groups {
                    for (a, r) in acc.iter_mut().zip(row(g, start)) {
                        *a &= r;
                    }
                }
            }
        }
        for (w, &word) in acc.iter().enumerate() {
            let mut pending = word;
            while pending != 0 {
                on_match((w * 64) as u32 + pending.trailing_zeros());
                pending &= pending - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{next_above, next_below, OracleRng};

    /// A hand-built dictionary: flat mask/key words plus the (empty)
    /// uncommon lists a `DictView` needs.
    struct RawDict {
        width: usize,
        masks: Vec<u64>,
        keys: Vec<u64>,
        offsets: Vec<u32>,
    }

    impl RawDict {
        fn new(width: usize, entries: &[Vec<(u32, bool)>]) -> Self {
            let stride = width.div_ceil(64).max(1);
            let mut dict = Self {
                width,
                masks: vec![0; entries.len() * stride],
                keys: vec![0; entries.len() * stride],
                offsets: vec![0; entries.len() + 1],
            };
            for (e, pairs) in entries.iter().enumerate() {
                for &(pred, value) in pairs {
                    let at = e * stride + pred as usize / 64;
                    dict.masks[at] |= 1 << (pred % 64);
                    // A predicate listed with both values expects `true`.
                    dict.keys[at] |= u64::from(value) << (pred % 64);
                }
            }
            dict
        }

        fn view(&self) -> DictView<'_> {
            DictView::new(self.width, &self.masks, &self.keys, &[], &self.offsets)
        }
    }

    fn universe(thresholds: &[&[f32]]) -> PredicateUniverse {
        let splits = thresholds
            .iter()
            .enumerate()
            .flat_map(|(f, ts)| ts.iter().map(move |&t| (f as u32, t)));
        PredicateUniverse::from_splits(splits, thresholds.len())
    }

    /// Every combination of per-feature probe values: NaN, both
    /// infinities, below and above all thresholds, and each threshold
    /// exactly, one ULP below and one ULP above.
    fn probe_samples(thresholds: &[&[f32]]) -> Vec<Vec<f32>> {
        let mut samples: Vec<Vec<f32>> = vec![Vec::new()];
        for ts in thresholds {
            let mut values = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e9, 1e9];
            for &t in *ts {
                values.extend([t, next_below(t), next_above(t)]);
            }
            samples = samples
                .iter()
                .flat_map(|prefix| {
                    values.iter().map(move |&v| {
                        let mut sample = prefix.clone();
                        sample.push(v);
                        sample
                    })
                })
                .collect();
        }
        samples
    }

    /// The index's match list must equal the reference scan's on every
    /// sample; returns how many (sample, entry) matches were seen.
    fn assert_index_equals_scan(
        dict: &RawDict,
        universe: &PredicateUniverse,
        samples: &[Vec<f32>],
    ) -> usize {
        let index = EntryIndex::build(dict.view(), universe);
        assert_eq!(
            index.heap_bytes(),
            (universe.len() + universe.n_groups()).max(1) * dict.view().len().div_ceil(64) * 8
        );
        let constraining = index.view().constraining();
        let mut starts = vec![0u32; constraining.len()];
        let mut acc = vec![0u64; index.view().words()];
        let mut seen = 0;
        for sample in samples {
            let bits = universe.evaluate(sample);
            universe.run_starts_into(sample, constraining, &mut starts);
            let mut scanned = Vec::new();
            dict.view().scan(&bits, |id| scanned.push(id));
            let mut indexed = Vec::new();
            index
                .view()
                .for_each_match(&starts, &mut acc, |id| indexed.push(id));
            assert_eq!(indexed, scanned, "sample {sample:?}");
            seen += indexed.len();
        }
        seen
    }

    /// `n` entries of one to three random pairs each (some contradictory,
    /// some repeated), so intervals open on either side, close, and empty.
    fn random_entries(n: usize, width: usize, rng: &mut OracleRng) -> Vec<Vec<(u32, bool)>> {
        (0..n)
            .map(|_| {
                (0..=rng.below(3))
                    .map(|_| (rng.below(width) as u32, rng.chance(0.5)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_scan_when_entry_count_straddles_word_boundaries() {
        let thresholds: [&[f32]; 3] = [&[-1.0, 0.0, 2.5], &[0.5], &[-3.0, 4.0]];
        let universe = universe(&thresholds);
        let samples = probe_samples(&thresholds);
        let mut rng = OracleRng::new(7);
        for n in [1usize, 63, 64, 65, 130] {
            let dict = RawDict::new(universe.len(), &random_entries(n, universe.len(), &mut rng));
            let seen = assert_index_equals_scan(&dict, &universe, &samples);
            assert!(seen > 0, "{n} entries: the probes must match something");
        }
    }

    #[test]
    fn matches_scan_on_a_multiword_universe() {
        // 70 thresholds on one feature and 3 on another: stride 2, a group
        // spanning a word boundary.
        let long: Vec<f32> = (0..70).map(|i| i as f32 * 0.5).collect();
        let thresholds: [&[f32]; 2] = [&long, &[-1.0, 0.0, 1.0]];
        let universe = universe(&thresholds);
        assert_eq!(universe.len(), 73);
        let mut rng = OracleRng::new(8);
        let dict = RawDict::new(
            universe.len(),
            &random_entries(90, universe.len(), &mut rng),
        );
        let samples: Vec<Vec<f32>> = (0..400)
            .map(|i| {
                vec![
                    if i % 17 == 0 {
                        f32::NAN
                    } else {
                        i as f32 * 0.09 - 0.5
                    },
                    (i % 7) as f32 - 3.0,
                ]
            })
            .collect();
        assert!(assert_index_equals_scan(&dict, &universe, &samples) > 0);
    }

    #[test]
    fn single_threshold_features_have_two_rows_each() {
        let thresholds: [&[f32]; 3] = [&[0.0], &[1.0], &[2.0]];
        let universe = universe(&thresholds);
        let dict = RawDict::new(
            3,
            &[
                vec![(0, true)],
                vec![(0, false), (2, true)],
                vec![(1, true), (2, false)],
                vec![],
            ],
        );
        let seen = assert_index_equals_scan(&dict, &universe, &probe_samples(&thresholds));
        assert!(seen > 0);
    }

    #[test]
    fn only_constraining_groups_are_anded() {
        // Five features. The live entries' pairs touch groups 1 and 3 only;
        // entry 2 has a pair on group 4 but is dead (a key bit outside its
        // mask), so group 4 constrains no live entry either.
        let thresholds: [&[f32]; 5] = [&[0.0, 1.0], &[0.5], &[-1.0, 2.0], &[3.0, 4.0], &[7.0]];
        let universe = universe(&thresholds);
        let mut dict = RawDict::new(
            universe.len(),
            &[
                vec![(2, true)],
                vec![(5, false), (6, true)],
                vec![(7, true)],
                vec![],
            ],
        );
        dict.keys[2] |= 1;
        let index = EntryIndex::build(dict.view(), &universe);
        assert_eq!(index.view().constraining(), [1, 3]);
        assert_eq!(index.view().rows_per_match(), 2);
        // Every row of a skipped group is the live-entry bitset, so leaving
        // it out of the AND cannot change the result.
        let offsets = universe.group_offsets();
        for g in [0usize, 2, 4] {
            for start in offsets[g]..=offsets[g + 1] {
                assert_eq!(
                    index.rows[start as usize + g],
                    0b1011,
                    "group {g} row {start}"
                );
            }
        }
        let seen = assert_index_equals_scan(&dict, &universe, &probe_samples(&thresholds));
        assert!(seen > 0);

        // No group constrains anything: a match is the live row alone.
        let free = RawDict::new(universe.len(), &[vec![], vec![]]);
        let index = EntryIndex::build(free.view(), &universe);
        assert!(index.constraining.is_empty());
        assert_eq!(index.view().rows_per_match(), 1);
        let samples = probe_samples(&thresholds[..1])
            .into_iter()
            .map(|s| vec![s[0], 0.0, 0.0, 0.0, 0.0])
            .collect::<Vec<_>>();
        assert_eq!(
            assert_index_equals_scan(&free, &universe, &samples),
            2 * samples.len()
        );
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let thresholds: [&[f32]; 1] = [&[0.0, 1.0]];
        let universe = universe(&thresholds);
        let dict = RawDict::new(2, &[]);
        assert_eq!(
            assert_index_equals_scan(&dict, &universe, &probe_samples(&thresholds)),
            0
        );
    }

    #[test]
    fn zero_predicate_universe_matches_every_live_entry() {
        let universe = universe(&[&[]]);
        assert_eq!((universe.len(), universe.n_groups()), (0, 0));
        // 70 unconstrained entries (two words of bitset) match every input.
        let mut dict = RawDict::new(0, &vec![Vec::new(); 70]);
        let samples = vec![vec![0.0f32], vec![f32::NAN]];
        assert_eq!(assert_index_equals_scan(&dict, &universe, &samples), 140);
        // A stray key bit past the width (and outside the mask) rejects
        // that entry in both matchers.
        dict.keys[5] = 1;
        assert_eq!(assert_index_equals_scan(&dict, &universe, &samples), 138);
    }

    #[test]
    fn corrupted_entries_reject_exactly_as_the_scan_does() {
        let thresholds: [&[f32]; 2] = [&[0.0, 1.0, 2.0], &[5.0]];
        let universe = universe(&thresholds);
        let samples = probe_samples(&thresholds);
        let entries = vec![vec![(1u32, true)], vec![(3, false)], vec![(0, false)]];
        let clean = RawDict::new(4, &entries);
        let clean_matches = assert_index_equals_scan(&clean, &universe, &samples);

        // A key bit outside the mask: entry 0 must now match nothing.
        let mut dict = RawDict::new(4, &entries);
        dict.keys[0] |= 1 << 2;
        let index = EntryIndex::build(dict.view(), &universe);
        assert!(
            index.view().rows.iter().all(|row| row & 1 == 0),
            "a never-matching entry is set in no row"
        );
        assert!(assert_index_equals_scan(&dict, &universe, &samples) < clean_matches);

        // A mask bit past the width: harmless while its key bit is clear
        // (padding bits of the input are zero), fatal once it is set.
        let mut dict = RawDict::new(4, &entries);
        dict.masks[1] |= 1 << 40;
        assert_eq!(
            assert_index_equals_scan(&dict, &universe, &samples),
            clean_matches
        );
        dict.keys[1] |= 1 << 40;
        assert!(assert_index_equals_scan(&dict, &universe, &samples) < clean_matches);

        // Contradictory pairs on one group (false at predicate 1 needs the
        // run to start past it, true at predicate 0 needs it to start
        // there): never matches, like the scan.
        let contradictory = RawDict::new(4, &[vec![(1, false), (0, true)]]);
        assert_eq!(
            assert_index_equals_scan(&contradictory, &universe, &samples),
            0
        );
    }
}
