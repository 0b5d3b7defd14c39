//! Model-level readers: structural validation of a mapped artifact and
//! zero-copy inference through the shared `bolt-core` kernel views.

use crate::artifact::{section_name, Artifact};
use crate::cast::{cast_f64, cast_u32, cast_u64};
use crate::format::{self, section};
use crate::ArtifactError;
use bolt_core::{
    BatchScratch, BloomView, BoltScratch, DictView, EntryIndex, ForestView, Head, TableView,
    EMPTY_SLOT_ENTRY,
};
use bolt_forest::{Predicate, PredicateUniverse};
use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;

/// Parsed `META` section: the fixed-size scalars describing a model's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelMeta {
    /// Predicate-universe size == dictionary scan width in bits.
    pub width: u32,
    /// Number of dictionary entries.
    pub n_entries: u32,
    /// Number of classes (0 under a regression head).
    pub n_classes: u32,
    /// Number of trees in the source ensemble.
    pub n_trees: u32,
    /// Number of input features.
    pub n_features: u32,
    /// Bloom-filter probes per query (0 when no bloom section).
    pub bloom_n_hashes: u32,
    /// Regression head byte: 0 = [`Head::Mean`], 1 = [`Head::Sum`]
    /// (0 for classifiers).
    pub aggregation: u8,
    /// Recombined-table slot capacity (a power of two).
    pub table_capacity: u64,
}

const META_LEN: usize = 64;

fn invalid(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Invalid(msg.into())
}

fn parse_meta(artifact: &Artifact) -> Result<ModelMeta, ArtifactError> {
    let bytes = artifact.require(section::META)?;
    if bytes.len() != META_LEN {
        return Err(invalid(format!(
            "META must be {META_LEN} bytes, got {}",
            bytes.len()
        )));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    Ok(ModelMeta {
        width: u32_at(0),
        n_entries: u32_at(4),
        n_classes: u32_at(8),
        n_trees: u32_at(12),
        n_features: u32_at(16),
        bloom_n_hashes: u32_at(20),
        aggregation: bytes[24],
        table_capacity: u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
    })
}

/// Reconstructs the predicate universe from the `PRED` section in one pass.
/// Every predicate must have a finite threshold and a feature in range,
/// and each must sort strictly after the one before it in the canonical
/// order ([`Predicate::canonical_cmp`]); so the universe built from that
/// order gives every predicate the id the file gives it (the encoding the
/// dictionary's masks were built against), and no two are the same.
fn rebuild_universe(
    artifact: &Artifact,
    meta: &ModelMeta,
) -> Result<PredicateUniverse, ArtifactError> {
    let pred = cast_u32(artifact.require(section::PRED)?, "PRED")?;
    let width = meta.width as usize;
    if pred.len() != 2 * width {
        return Err(invalid(format!(
            "PRED holds {} words, expected {} (2 per predicate)",
            pred.len(),
            2 * width
        )));
    }
    let mut preds: Vec<Predicate> = Vec::with_capacity(width);
    for pair in pred.chunks_exact(2) {
        let (feature, threshold) = (pair[0], f32::from_bits(pair[1]));
        if !threshold.is_finite() {
            return Err(invalid("PRED threshold is not finite"));
        }
        if feature >= meta.n_features {
            return Err(invalid(format!(
                "PRED feature {feature} out of range (n_features {})",
                meta.n_features
            )));
        }
        let p = Predicate { feature, threshold };
        match preds
            .last()
            .map_or(Ordering::Less, |prev| prev.canonical_cmp(&p))
        {
            Ordering::Less => preds.push(p),
            Ordering::Equal => return Err(invalid("PRED contains duplicate predicates")),
            Ordering::Greater => {
                return Err(invalid(
                    "PRED is not in canonical (feature, threshold) order",
                ))
            }
        }
    }
    Ok(PredicateUniverse::from_canonical(
        preds,
        meta.n_features as usize,
    ))
}

/// Whether `bad` holds for any element: a fold over the whole column with
/// no early exit, so the compiler can vectorise it.
fn any_of<T: Copy>(column: &[T], bad: impl Fn(T) -> bool) -> bool {
    column.iter().fold(false, |acc, &x| acc | bad(x))
}

/// Whether `bad` holds for any adjacent pair `(column[i], column[i + 1])`,
/// folded like [`any_of`].
fn any_pair<T: Copy>(column: &[T], bad: impl Fn(T, T) -> bool) -> bool {
    column
        .iter()
        .zip(column.iter().skip(1))
        .fold(false, |acc, (&a, &b)| acc | bad(a, b))
}

/// Typed borrows of every kernel section; [`validate`] proves their
/// structural invariants once at load.
struct RawSections<'a> {
    mask_words: &'a [u64],
    key_words: &'a [u64],
    uncommon_flat: &'a [u32],
    uncommon_offsets: &'a [u32],
    slot_entries: &'a [u32],
    slot_addrs: &'a [u64],
    vote_offsets: &'a [u32],
    vote_classes: &'a [u32],
    vote_weights: &'a [f64],
    bloom_words: Option<&'a [u64]>,
}

/// Byte ranges of every kernel section within the artifact, resolved from
/// the section table once at load so the per-call `view()` rebuild is a
/// handful of slice casts, not a table search.
///
/// The retired sections 14/15 (the entry-blocked dictionary mirror PR 9–16
/// builds wrote) are not located: like any id this reader does not consume
/// they get [`Artifact`]'s generic bounds, alignment, duplicate and CRC
/// checks and nothing else. Their old presence rule and word-by-word
/// interleave re-validation existed to keep a crafted mirror from steering
/// the SIMD scan away from the flat arrays; no code dereferences those
/// bytes any more, so there is nothing left for that check to protect.
struct SectionRanges {
    mask_words: Range<usize>,
    key_words: Range<usize>,
    uncommon_flat: Range<usize>,
    uncommon_offsets: Range<usize>,
    slot_entries: Range<usize>,
    slot_addrs: Range<usize>,
    vote_offsets: Range<usize>,
    vote_classes: Range<usize>,
    vote_weights: Range<usize>,
    bloom_words: Option<Range<usize>>,
}

impl SectionRanges {
    fn locate(artifact: &Artifact) -> Result<Self, ArtifactError> {
        let range = |id: u32| artifact.section_range(id);
        let require = |id: u32| {
            range(id).ok_or_else(|| invalid(format!("missing section {}", section_name(id))))
        };
        let has_bloom = artifact.header().flags & format::FLAG_HAS_BLOOM != 0;
        let bloom_words = range(section::BLOOM);
        if has_bloom != bloom_words.is_some() {
            return Err(invalid("bloom flag and BLOOM section presence disagree"));
        }
        Ok(Self {
            mask_words: require(section::DICT_MASK)?,
            key_words: require(section::DICT_KEY)?,
            uncommon_flat: require(section::DICT_UNCOMMON)?,
            uncommon_offsets: require(section::DICT_OFFSETS)?,
            slot_entries: require(section::TBL_SLOT_ENTRY)?,
            slot_addrs: require(section::TBL_SLOT_ADDR)?,
            vote_offsets: require(section::TBL_VOTE_OFF)?,
            vote_classes: require(section::TBL_VOTE_CLASS)?,
            vote_weights: require(section::TBL_VOTE_WEIGHT)?,
            bloom_words,
        })
    }

    /// Casts every range of `bytes` (the artifact these ranges were located
    /// in) to its typed slice, checking alignment and length.
    fn typed<'a>(&self, bytes: &'a [u8]) -> Result<RawSections<'a>, ArtifactError> {
        let at = |range: &Range<usize>| &bytes[range.clone()];
        Ok(RawSections {
            mask_words: cast_u64(at(&self.mask_words), "DICT_MASK")?,
            key_words: cast_u64(at(&self.key_words), "DICT_KEY")?,
            uncommon_flat: cast_u32(at(&self.uncommon_flat), "DICT_UNCOMMON")?,
            uncommon_offsets: cast_u32(at(&self.uncommon_offsets), "DICT_OFFSETS")?,
            slot_entries: cast_u32(at(&self.slot_entries), "TBL_SLOT_ENTRY")?,
            slot_addrs: cast_u64(at(&self.slot_addrs), "TBL_SLOT_ADDR")?,
            vote_offsets: cast_u32(at(&self.vote_offsets), "TBL_VOTE_OFF")?,
            vote_classes: cast_u32(at(&self.vote_classes), "TBL_VOTE_CLASS")?,
            vote_weights: cast_f64(at(&self.vote_weights), "TBL_VOTE_WEIGHT")?,
            bloom_words: self
                .bloom_words
                .as_ref()
                .map(|range| cast_u64(at(range), "BLOOM"))
                .transpose()?,
        })
    }
}

/// Structural validation of everything the scan kernels assume, so the views
/// can never panic or read out of bounds on data that passed here. Runs once
/// at load — O(model size), same cost class as the CRC pass.
fn validate(raw: &RawSections<'_>, meta: &ModelMeta, head: Head) -> Result<(), ArtifactError> {
    let width = meta.width as usize;
    let n_entries = meta.n_entries as usize;
    let stride = width.div_ceil(64).max(1);

    // Dictionary shapes.
    let offs = raw.uncommon_offsets;
    if offs.len() != n_entries + 1 {
        return Err(invalid(format!(
            "DICT_OFFSETS has {} words, expected n_entries + 1 = {}",
            offs.len(),
            n_entries + 1
        )));
    }
    if offs[0] != 0 {
        return Err(invalid("DICT_OFFSETS must start at 0"));
    }
    if any_pair(offs, |a, b| b < a) {
        return Err(invalid("DICT_OFFSETS is not monotone"));
    }
    if any_pair(offs, |a, b| b - a > 64) {
        return Err(invalid(
            "dictionary entry has more than 64 uncommon predicates",
        ));
    }
    if *offs.last().unwrap() as usize != raw.uncommon_flat.len() {
        return Err(invalid("DICT_OFFSETS does not cover DICT_UNCOMMON"));
    }
    if any_of(raw.uncommon_flat, |id| id as usize >= width) {
        return Err(invalid("DICT_UNCOMMON predicate id out of range"));
    }
    if raw.mask_words.len() != n_entries * stride || raw.key_words.len() != n_entries * stride {
        return Err(invalid(format!(
            "dictionary lanes hold {}/{} words, expected {} (n_entries x stride)",
            raw.mask_words.len(),
            raw.key_words.len(),
            n_entries * stride
        )));
    }

    // Recombined-table shapes. The probe loop terminates only if at least
    // one slot is empty (guaranteed by the writer's <= 50% load factor).
    let capacity = raw.slot_entries.len();
    if capacity as u64 != meta.table_capacity {
        return Err(invalid(
            "TBL_SLOT_ENTRY length disagrees with META capacity",
        ));
    }
    if capacity == 0 || !capacity.is_power_of_two() {
        return Err(invalid("table capacity must be a nonzero power of two"));
    }
    if raw.slot_addrs.len() != capacity {
        return Err(invalid("TBL_SLOT_ADDR length disagrees with capacity"));
    }
    if raw.vote_offsets.len() != capacity + 1 {
        return Err(invalid("TBL_VOTE_OFF must be capacity + 1 long"));
    }
    if raw.vote_offsets[0] != 0 {
        return Err(invalid("TBL_VOTE_OFF must start at 0"));
    }
    if any_pair(raw.vote_offsets, |a, b| b < a) {
        return Err(invalid("TBL_VOTE_OFF is not monotone"));
    }
    if *raw.vote_offsets.last().unwrap() as usize != raw.vote_classes.len() {
        return Err(invalid("TBL_VOTE_OFF does not cover TBL_VOTE_CLASS"));
    }
    if raw.vote_weights.len() != raw.vote_classes.len() {
        return Err(invalid("vote class/weight columns differ in length"));
    }
    if any_of(raw.slot_entries, |e| {
        (e != EMPTY_SLOT_ENTRY) & (e as usize >= n_entries)
    }) {
        return Err(invalid(
            "table slot references a nonexistent dictionary entry",
        ));
    }
    if !any_of(raw.slot_entries, |e| e == EMPTY_SLOT_ENTRY) {
        return Err(invalid(
            "table has no empty slot; probing would not terminate",
        ));
    }
    // Every vote adds into the accumulator slot its class names; a
    // regression head has one slot, so its classes must all be 0.
    let slots = head.slots();
    if any_of(raw.vote_classes, |c| c as usize >= slots) {
        return Err(invalid("vote class out of range"));
    }

    // Bloom filter shape: the probe masks a 64-bit hash down with
    // `bit_mask`, which is only uniform when the bit count is a power of
    // two.
    if let Some(words) = raw.bloom_words {
        if words.is_empty() || !words.len().is_power_of_two() {
            return Err(invalid("BLOOM words must be a nonzero power of two"));
        }
        if !(1..=8).contains(&meta.bloom_n_hashes) {
            return Err(invalid(format!(
                "bloom n_hashes {} outside 1..=8",
                meta.bloom_n_hashes
            )));
        }
    }
    Ok(())
}

fn dict_view<'a>(raw: &RawSections<'a>, meta: &ModelMeta) -> DictView<'a> {
    DictView::new(
        meta.width as usize,
        raw.mask_words,
        raw.key_words,
        raw.uncommon_flat,
        raw.uncommon_offsets,
    )
}

/// A compiled model served directly from a mapped `BLT1` artifact — any
/// [`Head`]: the header's `model_kind`, `META` byte 24 and the `CONST`
/// layout say which.
///
/// Only the predicate universe (needed for input encoding), the derived
/// entry-bitmap index and the constant votes are materialized on the heap;
/// the dictionary, table, and bloom filter are borrowed from the mapped file
/// on every [`Self::view`] call — no full-model heap copy ever happens.
pub struct MappedForest {
    artifact: Artifact,
    meta: ModelMeta,
    head: Head,
    constant_votes: Vec<(u32, f64)>,
    /// Derived at load, and so nothing new to trust: the predicate
    /// universe, where the kernel sections lie, and the entry-bitmap index
    /// built over the validated dictionary arrays.
    universe: PredicateUniverse,
    ranges: SectionRanges,
    index: EntryIndex,
}

impl MappedForest {
    /// Maps and validates the artifact at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_artifact(Artifact::map(path)?)
    }

    /// Validates an already-mapped artifact as the model its header
    /// declares.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, ArtifactError> {
        let meta = parse_meta(&artifact)?;
        let (head, constant_votes) = parse_head(&artifact, &meta)?;
        let universe = rebuild_universe(&artifact, &meta)?;
        let ranges = SectionRanges::locate(&artifact)?;
        let raw = ranges.typed(artifact.bytes())?;
        validate(&raw, &meta, head)?;
        let index = EntryIndex::build(dict_view(&raw, &meta), &universe);
        Ok(Self {
            artifact,
            meta,
            head,
            constant_votes,
            universe,
            ranges,
            index,
        })
    }

    /// The kernel view over the mapped bytes — the same [`ForestView`] an
    /// owned [`BoltForest`](bolt_core::BoltForest) produces, so every
    /// downstream scan is shared code and bit-identical. The `TableView`
    /// and `DictView` constructors re-assert the O(1) shape facts of the
    /// sections validated at load.
    #[must_use]
    pub fn view(&self) -> ForestView<'_> {
        let raw = self
            .ranges
            .typed(self.artifact.bytes())
            .expect("sections validated at load");
        let table = TableView::new(
            (raw.slot_entries.len() - 1) as u64,
            raw.slot_entries,
            raw.slot_addrs,
            raw.vote_offsets,
            raw.vote_classes,
            raw.vote_weights,
        );
        let bloom = raw.bloom_words.map(|words| {
            BloomView::new(words, words.len() as u64 * 64 - 1, self.meta.bloom_n_hashes)
        });
        ForestView::new(
            dict_view(&raw, &self.meta),
            self.index.view(),
            table,
            bloom,
            &self.constant_votes,
            self.head.slots(),
        )
    }

    /// How the accumulated weights are read.
    #[must_use]
    pub fn head(&self) -> Head {
        self.head
    }

    /// Predicts one sample through the caller's scratch — the same body as
    /// [`BoltForest::predict_with`](bolt_core::BoltForest::predict_with),
    /// run over the mapped bytes: same accumulation order, same final cast.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the model's feature count.
    #[must_use]
    pub fn predict_with(&self, sample: &[f32], scratch: &mut BoltScratch) -> f32 {
        let acc = self
            .view()
            .votes_with(&self.universe, sample, scratch, None);
        self.head.read(acc, self.meta.n_trees as usize)
    }

    /// [`Self::predict_with`] with a scratch allocated for the call.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the model's feature count.
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        self.predict_with(sample, &mut BoltScratch::default())
    }

    /// Classifies one sample, allocating a scratch for the call; serving
    /// loops use [`Self::classify_with`].
    #[must_use]
    pub fn classify(&self, sample: &[f32]) -> u32 {
        self.classify_with(sample, &mut BoltScratch::default())
    }

    /// Allocation-free classification through the caller's scratch — the
    /// same index-matched body as
    /// [`BoltForest::classify_with`](bolt_core::BoltForest::classify_with),
    /// run over the mapped bytes.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the model's feature count.
    #[must_use]
    pub fn classify_with(&self, sample: &[f32], scratch: &mut BoltScratch) -> u32 {
        self.view().classify_with(&self.universe, sample, scratch)
    }

    /// Per-class vote totals for one sample (bit-identical to the owned
    /// engine's).
    #[must_use]
    pub fn votes(&self, sample: &[f32]) -> Vec<f64> {
        self.view()
            .votes_with(&self.universe, sample, &mut BoltScratch::default(), None)
            .to_vec()
    }

    /// Heap bytes this model holds beyond the mapped file: the derived
    /// entry-bitmap index (a residency ledger charges them with the file
    /// length).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// Classifies a batch through the shared batched body
    /// ([`ForestView::batch_votes_into`]) with a fresh scratch; serving
    /// loops use [`Self::classify_batch_with`].
    #[must_use]
    pub fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let mut out = Vec::with_capacity(samples.len());
        self.classify_batch_with(samples, &mut BatchScratch::default(), &mut out);
        out
    }

    /// Allocation-free batched classification through the caller's
    /// scratch: classes are written into `out` (cleared first),
    /// index-for-index with `samples`, and every sample's vote vector stays
    /// in `scratch` ([`BatchScratch::votes`]) — bit-identical to the owned
    /// engine's.
    ///
    /// # Panics
    ///
    /// Panics if any sample is shorter than the model's feature count.
    pub fn classify_batch_with(
        &self,
        samples: &[&[f32]],
        scratch: &mut BatchScratch,
        out: &mut Vec<u32>,
    ) {
        self.view()
            .batch_votes_into(&self.universe, samples, scratch);
        out.clear();
        out.extend((0..samples.len()).map(|b| scratch.class(b)));
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.meta.n_classes as usize
    }

    /// Number of input features.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.meta.n_features as usize
    }

    /// The model-shape metadata from the `META` section.
    #[must_use]
    pub fn meta(&self) -> ModelMeta {
        self.meta
    }

    /// The reconstructed predicate universe.
    #[must_use]
    pub fn universe(&self) -> &PredicateUniverse {
        &self.universe
    }

    /// The underlying validated artifact.
    #[must_use]
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }
}

/// The head the header's `model_kind` and `META` byte 24 declare, and the
/// constant votes its `CONST` layout holds. A vote head's `CONST` is a
/// count, then that many classes, then as many weights; a regression
/// head's is its folded constant sum and its base, and the sum becomes the
/// one constant vote `(0, sum)`.
fn parse_head(
    artifact: &Artifact,
    meta: &ModelMeta,
) -> Result<(Head, Vec<(u32, f64)>), ArtifactError> {
    let bytes = artifact.require(section::CONST)?;
    let f64_at = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if artifact.header().model_kind == format::KIND_REGRESSOR {
        if meta.aggregation > 1 {
            return Err(invalid(format!(
                "unknown aggregation byte {}",
                meta.aggregation
            )));
        }
        if meta.aggregation == 0 && meta.n_trees == 0 {
            return Err(invalid("mean aggregation needs at least one tree"));
        }
        if bytes.len() != 16 {
            return Err(invalid(format!(
                "regressor CONST must be 16 bytes, got {}",
                bytes.len()
            )));
        }
        let (constant_sum, base) = (f64_at(0), f64_at(8));
        if !constant_sum.is_finite() || !base.is_finite() {
            return Err(invalid("regressor CONST scalars must be finite"));
        }
        let head = if meta.aggregation == 0 {
            Head::Mean
        } else {
            Head::Sum { base }
        };
        return Ok((head, vec![(0, constant_sum)]));
    }
    if meta.n_classes == 0 {
        return Err(invalid("classifier must have at least one class"));
    }
    if bytes.len() < 4 {
        return Err(invalid("CONST too short for its count field"));
    }
    let count = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let expect = 4 + count * 4 + count * 8;
    if bytes.len() != expect {
        return Err(invalid(format!(
            "CONST length {} does not match count {count} (expected {expect})",
            bytes.len()
        )));
    }
    let mut votes = Vec::with_capacity(count);
    for i in 0..count {
        let class = u32::from_le_bytes(bytes[4 + i * 4..8 + i * 4].try_into().unwrap());
        if class >= meta.n_classes {
            return Err(invalid("CONST vote class out of range"));
        }
        votes.push((class, f64_at(4 + count * 4 + i * 8)));
    }
    let head = Head::Vote {
        n_classes: meta.n_classes as usize,
    };
    Ok((head, votes))
}
