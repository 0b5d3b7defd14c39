//! Model-level readers: structural validation of a mapped artifact and
//! zero-copy inference through the shared `bolt-core` kernel views.

use crate::artifact::{section_name, Artifact};
use crate::cast::{cast_f64, cast_u32, cast_u64};
use crate::format::{self, section};
use crate::ArtifactError;
use bolt_bitpack::Mask;
use bolt_core::{
    Aggregation, BatchScratch, BloomView, BoltScratch, DictView, EntryIndex, ForestView, TableView,
    EMPTY_SLOT_ENTRY,
};
use bolt_forest::PredicateUniverse;
use std::ops::Range;
use std::path::Path;

/// Parsed `META` section: the fixed-size scalars describing a model's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelMeta {
    /// Predicate-universe size == dictionary scan width in bits.
    pub width: u32,
    /// Number of dictionary entries.
    pub n_entries: u32,
    /// Number of classes (0 for regressors).
    pub n_classes: u32,
    /// Number of trees in the source ensemble.
    pub n_trees: u32,
    /// Number of input features.
    pub n_features: u32,
    /// Bloom-filter probes per query (0 when no bloom section).
    pub bloom_n_hashes: u32,
    /// Aggregation byte (regressors: 0 = mean, 1 = sum).
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

/// Reconstructs the predicate universe from the `PRED` section and proves
/// the round-trip preserves predicate ids (the encoding the dictionary's
/// masks were built against).
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
    let pairs = || pred.chunks_exact(2).map(|p| (p[0], f32::from_bits(p[1])));
    for (feature, threshold) in pairs() {
        if !threshold.is_finite() {
            return Err(invalid("PRED threshold is not finite"));
        }
        if feature >= meta.n_features {
            return Err(invalid(format!(
                "PRED feature {feature} out of range (n_features {})",
                meta.n_features
            )));
        }
    }
    let universe = PredicateUniverse::from_splits(pairs(), meta.n_features as usize);
    if universe.len() != width {
        return Err(invalid("PRED contains duplicate predicates"));
    }
    // Ids must land exactly where the file says: the dictionary's mask/key
    // bits index this ordering.
    for (id, (feature, threshold)) in pairs().enumerate() {
        let p = universe.predicate(id as u32);
        if p.feature != feature || p.threshold.to_bits() != threshold.to_bits() {
            return Err(invalid(
                "PRED is not in canonical (feature, threshold) order",
            ));
        }
    }
    Ok(universe)
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
fn validate(raw: &RawSections<'_>, meta: &ModelMeta) -> Result<(), ArtifactError> {
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
    for w in offs.windows(2) {
        if w[1] < w[0] {
            return Err(invalid("DICT_OFFSETS is not monotone"));
        }
        if w[1] - w[0] > 64 {
            return Err(invalid(
                "dictionary entry has more than 64 uncommon predicates",
            ));
        }
    }
    if *offs.last().unwrap() as usize != raw.uncommon_flat.len() {
        return Err(invalid("DICT_OFFSETS does not cover DICT_UNCOMMON"));
    }
    if raw.uncommon_flat.iter().any(|&id| id as usize >= width) {
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
    if raw.vote_offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(invalid("TBL_VOTE_OFF is not monotone"));
    }
    if *raw.vote_offsets.last().unwrap() as usize != raw.vote_classes.len() {
        return Err(invalid("TBL_VOTE_OFF does not cover TBL_VOTE_CLASS"));
    }
    if raw.vote_weights.len() != raw.vote_classes.len() {
        return Err(invalid("vote class/weight columns differ in length"));
    }
    let mut has_empty = false;
    for &entry in raw.slot_entries {
        if entry == EMPTY_SLOT_ENTRY {
            has_empty = true;
        } else if entry as usize >= n_entries {
            return Err(invalid(
                "table slot references a nonexistent dictionary entry",
            ));
        }
    }
    if !has_empty {
        return Err(invalid(
            "table has no empty slot; probing would not terminate",
        ));
    }
    if meta.n_classes > 0 && raw.vote_classes.iter().any(|&c| c >= meta.n_classes) {
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

/// Everything a mapped model derives from its artifact at load: the
/// predicate universe, where the kernel sections lie, and the entry-bitmap
/// index built over the validated dictionary arrays (derived data — the
/// file carries none of it, so there is nothing new to trust).
struct Derived {
    universe: PredicateUniverse,
    ranges: SectionRanges,
    index: EntryIndex,
}

fn derive(artifact: &Artifact, meta: &ModelMeta) -> Result<Derived, ArtifactError> {
    let universe = rebuild_universe(artifact, meta)?;
    let ranges = SectionRanges::locate(artifact)?;
    let raw = ranges.typed(artifact.bytes())?;
    validate(&raw, meta)?;
    let index = EntryIndex::build(dict_view(&raw, meta), &universe);
    Ok(Derived {
        universe,
        ranges,
        index,
    })
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

/// Builds the kernel view over sections [`derive`] validated. The
/// `TableView`/`DictView` constructors re-assert the O(1) shape facts.
fn forest_view<'a>(
    artifact: &'a Artifact,
    derived: &'a Derived,
    meta: &ModelMeta,
    constant_votes: &'a [(u32, f64)],
) -> ForestView<'a> {
    let raw = derived
        .ranges
        .typed(artifact.bytes())
        .expect("sections validated at load");
    let table = TableView::new(
        (raw.slot_entries.len() - 1) as u64,
        raw.slot_entries,
        raw.slot_addrs,
        raw.vote_offsets,
        raw.vote_classes,
        raw.vote_weights,
    );
    let bloom = raw
        .bloom_words
        .map(|words| BloomView::new(words, words.len() as u64 * 64 - 1, meta.bloom_n_hashes));
    ForestView::new(
        dict_view(&raw, meta),
        derived.index.view(),
        table,
        bloom,
        constant_votes,
        meta.n_classes as usize,
    )
}

/// A classification forest served directly from a mapped `BLT1` artifact.
///
/// Only the predicate universe (needed for input encoding), the derived
/// entry-bitmap index and the constant votes are materialized on the heap;
/// the dictionary, table, and bloom filter are borrowed from the mapped file
/// on every [`Self::view`] call — no full-model heap copy ever happens.
pub struct MappedForest {
    artifact: Artifact,
    derived: Derived,
    constant_votes: Vec<(u32, f64)>,
    meta: ModelMeta,
}

impl MappedForest {
    /// Maps and validates a classifier artifact at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_artifact(Artifact::map(path)?)
    }

    /// Validates an already-mapped artifact as a classifier.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, ArtifactError> {
        if artifact.header().model_kind != format::KIND_CLASSIFIER {
            return Err(invalid("artifact is not a classifier"));
        }
        let meta = parse_meta(&artifact)?;
        if meta.n_classes == 0 {
            return Err(invalid("classifier must have at least one class"));
        }
        let derived = derive(&artifact, &meta)?;
        let constant_votes = parse_constant_votes(&artifact, &meta)?;
        Ok(Self {
            artifact,
            derived,
            constant_votes,
            meta,
        })
    }

    /// The kernel view over the mapped bytes — the same [`ForestView`] an
    /// owned [`BoltForest`](bolt_core::BoltForest) produces, so every
    /// downstream scan is shared code and bit-identical.
    #[must_use]
    pub fn view(&self) -> ForestView<'_> {
        forest_view(
            &self.artifact,
            &self.derived,
            &self.meta,
            &self.constant_votes,
        )
    }

    /// Encodes a sample into predicate space.
    #[must_use]
    pub fn encode(&self, sample: &[f32]) -> Mask {
        self.derived.universe.evaluate(sample)
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
        self.view()
            .classify_with(&self.derived.universe, sample, scratch)
    }

    /// Per-class vote totals for one sample (bit-identical to the owned
    /// engine's).
    #[must_use]
    pub fn votes(&self, sample: &[f32]) -> Vec<f64> {
        self.view()
            .votes_with(
                &self.derived.universe,
                sample,
                &mut BoltScratch::default(),
                None,
            )
            .to_vec()
    }

    /// Heap bytes this model holds beyond the mapped file: the derived
    /// entry-bitmap index (a residency ledger charges them with the file
    /// length).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.derived.index.heap_bytes()
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
            .batch_votes_into(&self.derived.universe, samples, scratch);
        out.clear();
        out.extend((0..samples.len()).map(|b| scratch.class(b)));
    }

    /// Sharded batched classification across scoped threads; results are
    /// identical to [`Self::classify_batch`] regardless of shard count.
    #[must_use]
    pub fn classify_batch_sharded(&self, samples: &[&[f32]], shards: usize) -> Vec<u32> {
        let shards = shards.clamp(1, samples.len().max(1));
        if shards <= 1 {
            return self.classify_batch(samples);
        }
        let chunk = samples.len().div_ceil(shards);
        let mut out = vec![0u32; samples.len()];
        crossbeam::scope(|scope| {
            for (shard_samples, shard_out) in samples.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| {
                    shard_out.copy_from_slice(&self.classify_batch(shard_samples));
                });
            }
        })
        .expect("crossbeam scope");
        out
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
        &self.derived.universe
    }

    /// The underlying validated artifact.
    #[must_use]
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }
}

fn parse_constant_votes(
    artifact: &Artifact,
    meta: &ModelMeta,
) -> Result<Vec<(u32, f64)>, ArtifactError> {
    let bytes = artifact.require(section::CONST)?;
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
        let at = 4 + count * 4 + i * 8;
        let weight = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        votes.push((class, weight));
    }
    Ok(votes)
}

/// A regression forest served directly from a mapped `BLT1` artifact.
pub struct MappedRegressor {
    artifact: Artifact,
    derived: Derived,
    constant_sum: f64,
    base: f64,
    aggregation: Aggregation,
    meta: ModelMeta,
}

impl MappedRegressor {
    /// Maps and validates a regressor artifact at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_artifact(Artifact::map(path)?)
    }

    /// Validates an already-mapped artifact as a regressor.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, ArtifactError> {
        if artifact.header().model_kind != format::KIND_REGRESSOR {
            return Err(invalid("artifact is not a regressor"));
        }
        let meta = parse_meta(&artifact)?;
        let derived = derive(&artifact, &meta)?;
        let aggregation = match meta.aggregation {
            0 => Aggregation::Mean,
            1 => Aggregation::Sum,
            other => return Err(invalid(format!("unknown aggregation byte {other}"))),
        };
        if aggregation == Aggregation::Mean && meta.n_trees == 0 {
            return Err(invalid("mean aggregation needs at least one tree"));
        }
        let bytes = artifact.require(section::CONST)?;
        if bytes.len() != 16 {
            return Err(invalid(format!(
                "regressor CONST must be 16 bytes, got {}",
                bytes.len()
            )));
        }
        let constant_sum = f64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let base = f64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if !constant_sum.is_finite() || !base.is_finite() {
            return Err(invalid("regressor CONST scalars must be finite"));
        }
        Ok(Self {
            artifact,
            derived,
            constant_sum,
            base,
            aggregation,
            meta,
        })
    }

    /// The kernel view over the mapped bytes (regressor form: no constant
    /// votes, zero classes).
    #[must_use]
    pub fn view(&self) -> ForestView<'_> {
        forest_view(&self.artifact, &self.derived, &self.meta, &[])
    }

    /// Predicts from an encoded input, replicating
    /// [`BoltRegressor::predict_bits`](bolt_core::BoltRegressor::predict_bits)
    /// exactly (same accumulation order, same final cast).
    #[must_use]
    pub fn predict_bits(&self, bits: &Mask) -> f32 {
        self.aggregate(self.view().accumulate_weights(bits, self.constant_sum))
    }

    /// Predicts the target value for one sample, replicating
    /// [`BoltRegressor::predict`](bolt_core::BoltRegressor::predict)
    /// exactly (index match, same accumulation order, same final cast).
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        let mut scratch = BoltScratch::default();
        self.aggregate(self.view().weight_sum_with(
            &self.derived.universe,
            sample,
            &mut scratch,
            self.constant_sum,
        ))
    }

    fn aggregate(&self, sum: f64) -> f32 {
        match self.aggregation {
            Aggregation::Mean => (sum / self.meta.n_trees as f64) as f32,
            Aggregation::Sum => (self.base + sum) as f32,
        }
    }

    /// The model-shape metadata from the `META` section.
    #[must_use]
    pub fn meta(&self) -> ModelMeta {
        self.meta
    }

    /// The underlying validated artifact.
    #[must_use]
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }
}

/// Either kind of mapped model, dispatched on the header's `model_kind`.
pub enum MappedModel {
    /// A classification artifact.
    Forest(MappedForest),
    /// A regression artifact.
    Regressor(MappedRegressor),
}

impl MappedModel {
    /// Maps `path` and validates it as whichever kind its header declares.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_artifact(Artifact::map(path)?)
    }

    /// Validates an already-mapped artifact as its declared kind.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, ArtifactError> {
        match artifact.header().model_kind {
            format::KIND_CLASSIFIER => MappedForest::from_artifact(artifact).map(Self::Forest),
            format::KIND_REGRESSOR => MappedRegressor::from_artifact(artifact).map(Self::Regressor),
            other => Err(ArtifactError::UnsupportedKind(other)),
        }
    }

    /// The model-shape metadata.
    #[must_use]
    pub fn meta(&self) -> ModelMeta {
        match self {
            Self::Forest(m) => m.meta(),
            Self::Regressor(m) => m.meta(),
        }
    }

    /// The underlying validated artifact.
    #[must_use]
    pub fn artifact(&self) -> &Artifact {
        match self {
            Self::Forest(m) => m.artifact(),
            Self::Regressor(m) => m.artifact(),
        }
    }
}
