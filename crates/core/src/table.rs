//! The recombined lookup table (§4.1 end, §4.3, Figs. 5–6).
//!
//! After clustering, Bolt "hashes every entry in each of the lookup tables
//! ... into one big recombined lookup table", keyed by the feature-value
//! address *and the dictionary entry ID*. Recombination avoids per-cluster
//! pointers (and their branch misses) and makes false positives detectable:
//! every stored cell records the entry ID that owns it, and a lookup only
//! counts when the IDs match.
//!
//! This implementation stores the full `(entry ID, address)` key in each
//! cell, so false positives are rejected *exactly* (the paper's layout keeps
//! only `ID mod 256` and accepts a vanishing error probability; our
//! compressed layout accounting in [`crate::layout`] still budgets 1 byte
//! per stored ID exactly as §5 describes). Slots are resolved with linear
//! probing at ≤50% load, so a hit costs one cache-line-local probe in the
//! common case.

use crate::cluster::Clustering;
use crate::filter::{mix64, table_key};
use serde::{Deserialize, Serialize};

/// One vote stored in a table cell: the leaf class and the owning tree's
/// weight (1.0 for plain random forests).
pub type Vote = (u32, f64);

/// One occupied cell of the recombined table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TableCell {
    /// Owning dictionary entry ID (full width; `id % 256` is what the
    /// paper's compressed layout stores).
    pub entry_id: u32,
    /// Feature-value address within the owning entry.
    pub address: u64,
    /// Votes of every path expanded into this cell (possibly from several
    /// trees — the `[yes, no]` cells of Fig. 3).
    pub votes: Vec<Vote>,
    /// For explanation workloads: per-contributing-path tested feature
    /// lists (predicate IDs). Empty unless explanations were requested.
    pub path_features: Vec<Vec<u32>>,
}

/// The single, conflict-free, open-addressed lookup table for the whole
/// forest.
///
/// # Examples
///
/// ```
/// use bolt_core::{cluster::Clustering, paths::SortedPaths, RecombinedTable};
/// use bolt_forest::{Dataset, ForestConfig, PredicateUniverse, RandomForest};
///
/// let rows: Vec<Vec<f32>> = (0..60).map(|i| vec![(i % 6) as f32]).collect();
/// let labels: Vec<u32> = (0..60).map(|i| u32::from(i % 6 > 2)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(4).with_seed(3));
/// let universe = PredicateUniverse::from_forest(&forest);
/// let sorted = SortedPaths::from_forest(&forest, &universe);
/// let clustering = Clustering::greedy(&sorted, 4)?;
/// let table = RecombinedTable::build(&clustering, false);
/// assert!(table.n_cells() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecombinedTable {
    slots: Vec<Option<TableCell>>,
    /// `slots.len() - 1`; capacity is a power of two.
    index_mask: u64,
    n_cells: usize,
    /// Worst-case probes needed by any stored key (1 = perfect).
    max_probes: usize,
    /// Hot-path mirror of `slots`, split into primitive parallel arrays so
    /// a memory-mapped artifact can expose the identical layout borrowed
    /// from the file: per-slot owning entry ID ([`EMPTY_SLOT_ENTRY`] marks
    /// an empty slot).
    slot_entries: Vec<u32>,
    /// Per-slot feature-value address (0 for empty slots).
    slot_addrs: Vec<u64>,
    /// Monotone prefix offsets, `capacity + 1` long: slot `i`'s votes are
    /// `vote_classes[off[i]..off[i+1]]` / `vote_weights[..]`.
    vote_offsets: Vec<u32>,
    /// Every cell's vote classes, concatenated in slot order.
    vote_classes: Vec<u32>,
    /// Every cell's vote weights, parallel to `vote_classes`.
    vote_weights: Vec<f64>,
}

/// Sentinel entry ID marking an empty slot in the hot-path arrays (no real
/// entry uses `u32::MAX`: entry IDs are dictionary indices).
pub const EMPTY_SLOT_ENTRY: u32 = u32::MAX;

/// The votes stored in one table cell, as a pair of borrowed parallel
/// columns (classes and weights). This is what the hot-path lookup returns:
/// for an owned [`RecombinedTable`] the slices borrow its vectors, for a
/// mapped `BLT1` artifact they borrow the file bytes directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Votes<'a> {
    classes: &'a [u32],
    weights: &'a [f64],
}

impl<'a> Votes<'a> {
    /// Builds a votes view over parallel class/weight columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    #[must_use]
    pub fn new(classes: &'a [u32], weights: &'a [f64]) -> Self {
        assert_eq!(classes.len(), weights.len(), "vote columns must align");
        Self { classes, weights }
    }

    /// The empty vote set (misses and bloom rejects).
    #[must_use]
    pub fn empty() -> Votes<'static> {
        Votes {
            classes: &[],
            weights: &[],
        }
    }

    /// Number of votes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the cell holds no votes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The vote classes column.
    #[must_use]
    pub fn classes(&self) -> &'a [u32] {
        self.classes
    }

    /// The vote weights column.
    #[must_use]
    pub fn weights(&self) -> &'a [f64] {
        self.weights
    }

    /// Iterates `(class, weight)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.classes.iter().zip(self.weights).map(|(&c, &w)| (c, w))
    }

    /// Collects the votes into the owned pair form used by [`TableCell`].
    #[must_use]
    pub fn to_vec(&self) -> Vec<Vote> {
        self.iter().collect()
    }
}

/// A borrowed, storage-agnostic view of the table's hot-path arrays — the
/// shape every inference kernel probes, whether the arrays are owned
/// vectors or borrowed from a memory-mapped `BLT1` file.
///
/// Probe termination relies on the open-addressed invariant that at least
/// one slot is empty; [`RecombinedTable::build`] guarantees it (≤50% load)
/// and the artifact loader validates it before building a view over
/// untrusted bytes.
#[derive(Clone, Copy, Debug)]
pub struct TableView<'a> {
    index_mask: u64,
    slot_entries: &'a [u32],
    slot_addrs: &'a [u64],
    vote_offsets: &'a [u32],
    vote_classes: &'a [u32],
    vote_weights: &'a [f64],
}

impl<'a> TableView<'a> {
    /// Builds a view over raw hot-path arrays.
    ///
    /// # Panics
    ///
    /// Panics if the slice shapes are mutually inconsistent: the capacity
    /// (`slot_entries.len()`) must be a power of two equal to
    /// `index_mask + 1`, with `slot_addrs` parallel and `vote_offsets`
    /// one longer.
    #[must_use]
    pub fn new(
        index_mask: u64,
        slot_entries: &'a [u32],
        slot_addrs: &'a [u64],
        vote_offsets: &'a [u32],
        vote_classes: &'a [u32],
        vote_weights: &'a [f64],
    ) -> Self {
        let capacity = slot_entries.len();
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert_eq!(capacity as u64, index_mask + 1, "index mask shape");
        assert_eq!(slot_addrs.len(), capacity, "slot address shape");
        assert_eq!(vote_offsets.len(), capacity + 1, "vote offsets shape");
        assert_eq!(vote_classes.len(), vote_weights.len(), "vote columns");
        Self {
            index_mask,
            slot_entries,
            slot_addrs,
            vote_offsets,
            vote_classes,
            vote_weights,
        }
    }

    /// Total slot capacity (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slot_entries.len()
    }

    /// Per-slot owning entry IDs ([`EMPTY_SLOT_ENTRY`] marks empties).
    #[must_use]
    pub fn slot_entries(&self) -> &'a [u32] {
        self.slot_entries
    }

    /// Per-slot feature-value addresses.
    #[must_use]
    pub fn slot_addrs(&self) -> &'a [u64] {
        self.slot_addrs
    }

    /// Monotone vote prefix offsets (`capacity + 1` long).
    #[must_use]
    pub fn vote_offsets(&self) -> &'a [u32] {
        self.vote_offsets
    }

    /// All vote classes, concatenated in slot order.
    #[must_use]
    pub fn vote_classes(&self) -> &'a [u32] {
        self.vote_classes
    }

    /// All vote weights, parallel to [`Self::vote_classes`].
    #[must_use]
    pub fn vote_weights(&self) -> &'a [f64] {
        self.vote_weights
    }

    /// Hints the CPU to pull the home slot's line for `(entry_id,
    /// address)` toward L1 before [`Self::lookup`] probes it — issued as
    /// soon as the address is gathered, so the fetch overlaps the bloom
    /// check. Pure latency hiding: no side effects, no result changes.
    #[inline]
    pub fn prefetch(&self, entry_id: u32, address: u64) {
        let idx = (table_key(entry_id, address) & self.index_mask) as usize;
        crate::simd::prefetch(self.slot_entries, idx);
        crate::simd::prefetch(self.slot_addrs, idx);
    }

    /// Hot-path lookup: the votes stored for `(entry_id, address)`, empty
    /// for misses/false positives. Linear probing with exact key
    /// verification, touching only the dense primitive arrays.
    #[must_use]
    pub fn lookup(&self, entry_id: u32, address: u64) -> Votes<'a> {
        let mut idx = table_key(entry_id, address) & self.index_mask;
        loop {
            let i = idx as usize;
            let entry = self.slot_entries[i];
            if entry == entry_id && self.slot_addrs[i] == address {
                let (lo, hi) = (
                    self.vote_offsets[i] as usize,
                    self.vote_offsets[i + 1] as usize,
                );
                return Votes {
                    classes: &self.vote_classes[lo..hi],
                    weights: &self.vote_weights[lo..hi],
                };
            }
            if entry == EMPTY_SLOT_ENTRY {
                return Votes::empty();
            }
            idx = (idx + 1) & self.index_mask;
        }
    }
}

impl RecombinedTable {
    /// Builds the recombined table from a clustering. When
    /// `with_explanations` is set, each cell also records the tested
    /// features of its contributing paths (for salience tracking, §2.1).
    ///
    /// The capacity is the smallest power of two holding all occupied cells
    /// at ≤50% load — at least the paper's `2^ceil(log2 p)` bound.
    #[must_use]
    pub fn build(clustering: &Clustering, with_explanations: bool) -> Self {
        // Gather cells keyed by (entry, address).
        let mut cells: Vec<TableCell> = Vec::new();
        let mut index: std::collections::HashMap<(u32, u64), usize> =
            std::collections::HashMap::new();
        for (entry_id, cluster) in clustering.clusters().iter().enumerate() {
            let entry_id = entry_id as u32;
            for (address, path_idx) in cluster.expansions() {
                let path = &cluster.paths[path_idx];
                let slot = *index.entry((entry_id, address)).or_insert_with(|| {
                    cells.push(TableCell {
                        entry_id,
                        address,
                        votes: Vec::new(),
                        path_features: Vec::new(),
                    });
                    cells.len() - 1
                });
                cells[slot].votes.push((path.class, path.weight));
                if with_explanations {
                    cells[slot]
                        .path_features
                        .push(path.pairs.iter().map(|&(p, _)| p).collect());
                }
            }
        }

        let capacity = (cells.len() * 2).next_power_of_two().max(2);
        let mut slots: Vec<Option<TableCell>> = vec![None; capacity];
        let index_mask = (capacity - 1) as u64;
        let mut max_probes = 0usize;
        for cell in cells.iter().cloned() {
            let mut idx = table_key(cell.entry_id, cell.address) & index_mask;
            let mut probes = 1usize;
            while slots[idx as usize].is_some() {
                idx = (idx + 1) & index_mask;
                probes += 1;
            }
            slots[idx as usize] = Some(cell);
            max_probes = max_probes.max(probes);
        }
        // Dense hot-path mirror, split into primitive parallel arrays (the
        // exact section layout a BLT1 artifact stores and maps back).
        let mut slot_entries = vec![EMPTY_SLOT_ENTRY; capacity];
        let mut slot_addrs = vec![0u64; capacity];
        let mut vote_offsets = Vec::with_capacity(capacity + 1);
        let mut vote_classes = Vec::new();
        let mut vote_weights = Vec::new();
        vote_offsets.push(0u32);
        for (i, slot) in slots.iter().enumerate() {
            if let Some(cell) = slot {
                slot_entries[i] = cell.entry_id;
                slot_addrs[i] = cell.address;
                for &(class, weight) in &cell.votes {
                    vote_classes.push(class);
                    vote_weights.push(weight);
                }
            }
            vote_offsets.push(vote_classes.len() as u32);
        }
        Self {
            slots,
            index_mask,
            n_cells: cells.len(),
            max_probes,
            slot_entries,
            slot_addrs,
            vote_offsets,
            vote_classes,
            vote_weights,
        }
    }

    /// A borrowed [`TableView`] over the hot-path arrays — the shape the
    /// inference kernels probe, shared with memory-mapped artifacts.
    #[must_use]
    pub fn view(&self) -> TableView<'_> {
        TableView {
            index_mask: self.index_mask,
            slot_entries: &self.slot_entries,
            slot_addrs: &self.slot_addrs,
            vote_offsets: &self.vote_offsets,
            vote_classes: &self.vote_classes,
            vote_weights: &self.vote_weights,
        }
    }

    /// Hot-path lookup: the votes stored for `(entry_id, address)`, or an
    /// empty view for misses/false positives. Touches only the dense
    /// primitive arrays (no per-cell heap indirection).
    #[must_use]
    pub fn lookup_votes(&self, entry_id: u32, address: u64) -> Votes<'_> {
        self.view().lookup(entry_id, address)
    }

    /// Looks up the cell for `(entry_id, address)`, verifying the stored key
    /// so false positives (Fig. 5) are rejected. Returns `None` when the
    /// input matched an entry's common features but no stored path.
    #[must_use]
    pub fn lookup(&self, entry_id: u32, address: u64) -> Option<&TableCell> {
        let mut idx = table_key(entry_id, address) & self.index_mask;
        loop {
            match &self.slots[idx as usize] {
                None => return None,
                Some(cell) if cell.entry_id == entry_id && cell.address == address => {
                    return Some(cell)
                }
                Some(_) => idx = (idx + 1) & self.index_mask,
            }
        }
    }

    /// The table slot index where a `(entry_id, address)` key resolves (or
    /// would resolve). Used by partitioned inference to decide which core
    /// owns the lookup.
    #[must_use]
    pub fn slot_of(&self, entry_id: u32, address: u64) -> usize {
        let mut idx = table_key(entry_id, address) & self.index_mask;
        loop {
            match &self.slots[idx as usize] {
                None => return idx as usize,
                Some(cell) if cell.entry_id == entry_id && cell.address == address => {
                    return idx as usize
                }
                Some(_) => idx = (idx + 1) & self.index_mask,
            }
        }
    }

    /// Total slot capacity (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied cells.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Worst-case probe count over stored keys (1 means conflict-free).
    #[must_use]
    pub fn max_probes(&self) -> usize {
        self.max_probes
    }

    /// Iterates over the occupied cells.
    pub fn cells(&self) -> impl Iterator<Item = &TableCell> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// All `(entry ID, address)` keys, for bloom-filter construction.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells().map(|c| table_key(c.entry_id, c.address))
    }

    /// A pseudorandom non-member key probe, used by tests and benches to
    /// measure bloom false-positive behaviour.
    #[must_use]
    pub fn scramble(i: u64) -> u64 {
        mix64(i ^ 0x5EED_F00D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::SortedPaths;
    use bolt_forest::{BinaryPath, PredId};

    fn path(pairs: &[(PredId, bool)], class: u32, tree: u32) -> BinaryPath {
        // Real BinaryPaths from binarization are sorted by predicate ID.
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        BinaryPath {
            pairs,
            class,
            tree,
            weight: 1.0,
        }
    }

    fn figure3_clustering() -> Clustering {
        let (a, b, c, h) = (0, 1, 2, 3);
        let sorted = SortedPaths::from_paths(
            vec![
                path(&[(a, true), (b, true)], 0, 0),
                path(&[(a, true), (b, false)], 1, 0),
                path(&[(a, false), (c, true)], 1, 0),
                path(&[(a, false), (c, false)], 0, 0),
                path(&[(h, true), (a, true)], 1, 1),
                path(&[(h, true), (a, false)], 0, 1),
                path(&[(h, false), (c, true)], 1, 1),
                path(&[(h, false), (c, false)], 0, 1),
            ],
            2,
        );
        Clustering::greedy(&sorted, 2).expect("clusters")
    }

    #[test]
    fn figure3_table_has_ten_cells() {
        let table = RecombinedTable::build(&figure3_clustering(), false);
        assert_eq!(table.n_cells(), 10);
        assert!(table.capacity() >= 20);
        assert!(table.capacity().is_power_of_two());
    }

    #[test]
    fn every_expansion_is_retrievable() {
        let clustering = figure3_clustering();
        let table = RecombinedTable::build(&clustering, false);
        for (entry_id, cluster) in clustering.clusters().iter().enumerate() {
            for (address, path_idx) in cluster.expansions() {
                let cell = table
                    .lookup(entry_id as u32, address)
                    .expect("stored cell found");
                let path = &cluster.paths[path_idx];
                assert!(
                    cell.votes.contains(&(path.class, path.weight)),
                    "cell {cell:?} missing vote for {path:?}"
                );
            }
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let table = RecombinedTable::build(&figure3_clustering(), false);
        // Entry 99 stores nothing.
        assert!(table.lookup(99, 0).is_none());
        // Count stored addresses of entry 0; some address must be absent in
        // other entries.
        let total_probes = (0..1u32)
            .flat_map(|e| (0..16u64).map(move |a| (e, a)))
            .filter(|&(e, a)| table.lookup(e, a).is_some())
            .count();
        assert!(total_probes <= 16);
    }

    #[test]
    fn shared_cells_hold_multiple_votes() {
        // Fig. 3's green table cell (b=0, h=0) holds [yes, no]: two votes.
        let table = RecombinedTable::build(&figure3_clustering(), false);
        let multi = table.cells().filter(|c| c.votes.len() > 1).count();
        assert!(multi >= 2, "expected shared cells, got {multi}");
        // Total votes across cells equals total path expansions.
        let votes: usize = table.cells().map(|c| c.votes.len()).sum();
        let expansions: usize = figure3_clustering()
            .clusters()
            .iter()
            .map(|c| c.expansions().len())
            .sum();
        assert_eq!(votes, expansions);
    }

    #[test]
    fn explanations_record_path_features() {
        let table = RecombinedTable::build(&figure3_clustering(), true);
        for cell in table.cells() {
            assert_eq!(cell.path_features.len(), cell.votes.len());
            for features in &cell.path_features {
                assert!(!features.is_empty());
            }
        }
        // And without the flag nothing is stored.
        let bare = RecombinedTable::build(&figure3_clustering(), false);
        assert!(bare.cells().all(|c| c.path_features.is_empty()));
    }

    #[test]
    fn probing_terminates_and_verifies_keys() {
        let table = RecombinedTable::build(&figure3_clustering(), false);
        assert!(table.max_probes() >= 1);
        // A missing address under a *stored* entry id must return None, not
        // a colliding cell (false-positive rejection).
        let cellless = (0..64u64).filter(|&a| table.lookup(0, a).is_none()).count();
        assert!(cellless > 0, "entry 0 cannot cover all 64 addresses");
    }

    #[test]
    fn lookup_votes_agrees_with_lookup() {
        let table = RecombinedTable::build(&figure3_clustering(), false);
        for entry in 0..4u32 {
            for address in 0..8u64 {
                let via_cell = table
                    .lookup(entry, address)
                    .map(|c| c.votes.clone())
                    .unwrap_or_default();
                assert_eq!(table.lookup_votes(entry, address).to_vec(), via_cell);
            }
        }
    }

    #[test]
    fn view_lookup_matches_owned_lookup() {
        let table = RecombinedTable::build(&figure3_clustering(), true);
        let view = table.view();
        assert_eq!(view.capacity(), table.capacity());
        for entry in 0..5u32 {
            for address in 0..8u64 {
                assert_eq!(
                    view.lookup(entry, address).to_vec(),
                    table.lookup_votes(entry, address).to_vec()
                );
            }
        }
        // The prefix offsets account for every stored vote exactly once.
        assert_eq!(
            *view.vote_offsets().last().expect("sentinel") as usize,
            view.vote_classes().len()
        );
    }

    #[test]
    fn keys_are_unique() {
        let table = RecombinedTable::build(&figure3_clustering(), false);
        let keys: Vec<u64> = table.keys().collect();
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(keys.len(), distinct.len());
    }
}
