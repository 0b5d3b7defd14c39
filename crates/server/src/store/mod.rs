//! The fleet-scale model store: one front door for model lifecycle.
//!
//! [`ModelStore`] subsumes the bare [`ModelRegistry`] for serving
//! deployments: on top of the registry's in-memory routing it adds
//!
//! * a **model directory** (`--model-dir`) of `NAME@VERSION.blt`
//!   artifacts, scanned at startup and **mapped lazily** — an artifact
//!   costs nothing until the first request names it;
//! * an **LRU eviction** policy keeping total resident bytes (mapped
//!   file plus the entry-bitmap index built at open) under a
//!   `--resident-bytes` budget ([`cache`]); mmap makes eviction a
//!   pointer drop, and in-flight requests keep their `Arc` engine alive
//!   so eviction never races inference;
//! * a **write-ahead registry log** (`registry.wal`, [`wal`]) making
//!   activate/retire/set-default durable: kill −9 the process and the
//!   restart replays to the exact pre-crash lifecycle state, down to
//!   which version of each name was active;
//! * an **insert-only bloom filter** over every name the process has
//!   ever seen ([`bloom`]), shared with the registry, so unknown-model
//!   traffic is rejected O(1) without a lock or a directory probe;
//! * **compaction**: the WAL rewrites to the minimal record set for the
//!   live state, and superseded artifact versions beyond a
//!   `--keep-versions N` retention are deleted from the directory.
//!
//! Models registered *in memory* (boltd `--model` flags, tests,
//! [`crate::ServerBuilder::register`]) route through the same store but
//! are **not** WAL-logged and never evicted — only directory-backed
//! lifecycle is durable, because only it can be reloaded after a crash.

pub mod bloom;
pub(crate) mod cache;
pub mod wal;

pub use bloom::NameBloom;
pub use wal::{Wal, WalOp};

use crate::engine::ArtifactEngine;
use crate::proto::{ModelInfo, MAX_MODEL_NAME_BYTES};
use crate::registry::{ModelHandle, ModelRegistry, RouteError};
use bolt_baselines::InferenceEngine;
use cache::ResidentCache;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a lifecycle operation was refused. Every variant names the model
/// it refers to; callers match instead of parsing strings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The name is empty or longer than the wire protocol can address.
    InvalidName(String),
    /// `register` on a name that is already serving (use `swap`).
    Duplicate(String),
    /// `swap`/`retire`/`set_default` on a name never seen.
    Unknown(String),
    /// The name exists but has been retired.
    Retired(String),
    /// `retire` on the current default model; move the default first.
    DefaultInUse(String),
    /// `activate` named a version with no artifact file in the
    /// directory.
    MissingArtifact {
        /// Model name.
        name: String,
        /// Version whose `NAME@VERSION.blt` file is absent.
        version: u32,
    },
    /// The operation requires a model directory but the store was built
    /// without one.
    NoDirectory,
    /// Durability failure: the WAL append/compaction or an artifact
    /// file operation failed. The in-memory state was *not* changed.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidName(name) => write!(
                f,
                "model name must be 1..={MAX_MODEL_NAME_BYTES} bytes, got {name:?}"
            ),
            Self::Duplicate(name) => {
                write!(f, "model {name:?} is already registered (swap to replace)")
            }
            Self::Unknown(name) => write!(f, "no model registered as {name:?}"),
            Self::Retired(name) => write!(f, "model {name:?} has been retired"),
            Self::DefaultInUse(name) => write!(
                f,
                "model {name:?} is the default route; move the default before retiring it"
            ),
            Self::MissingArtifact { name, version } => {
                write!(
                    f,
                    "no artifact file for {name}@{version} in the model directory"
                )
            }
            Self::NoDirectory => write!(f, "store has no model directory"),
            Self::Io(e) => write!(f, "store i/o: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// What [`ModelStore::compact`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// WAL bytes before the rewrite.
    pub wal_bytes_before: u64,
    /// WAL bytes after.
    pub wal_bytes_after: u64,
    /// Superseded artifact files deleted by the retention policy.
    pub files_deleted: usize,
}

/// What [`ModelStore::rescan`] found that the catalog did not have.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RescanStats {
    /// Names that entered the catalog for the first time.
    pub names_added: u32,
    /// `NAME@VERSION.blt` files newly cataloged (across all names).
    pub versions_added: u32,
}

/// Eviction-pressure counters for the resident-bytes budget, plus the
/// current residency footprint. All counters are cumulative since the
/// store opened; `resident_*` fields are the instantaneous state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Artifacts unmapped by the LRU policy since startup.
    pub evictions: u64,
    /// Artifacts re-mapped after a prior eviction — the thrash signal: a
    /// rising rate means the resident-bytes budget is too tight for the
    /// working set.
    pub thrash_reloads: u64,
    /// Resident bytes right now: each mapped artifact's file length plus
    /// the entry-bitmap index built on the heap when it was opened.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes since startup.
    pub resident_bytes_hwm: u64,
    /// Directory artifacts mapped right now.
    pub resident_models: u64,
}

/// One name's footprint in the model directory.
#[derive(Debug, Default)]
struct CatalogEntry {
    /// Version → artifact path, every version present on disk.
    versions: BTreeMap<u32, PathBuf>,
    /// The version requests are served from; `None` falls back to the
    /// highest on disk.
    active: Option<u32>,
    /// Retired names stay cataloged (their files may still exist) so
    /// lookups answer *retired*, not *unknown*, and revival can find
    /// the files again.
    retired: bool,
}

impl CatalogEntry {
    /// The version a request for this name would serve.
    fn serving_version(&self) -> Option<u32> {
        self.active
            .filter(|v| self.versions.contains_key(v))
            .or_else(|| self.versions.keys().next_back().copied())
    }
}

/// Directory-backed state, under one mutex: the catalog, the WAL
/// handle, and the resident-bytes ledger. The mutex is **not** on the
/// hot path — resolve only takes it on a registry miss (cold load).
struct StoreInner {
    dir: PathBuf,
    wal: Wal,
    catalog: BTreeMap<String, CatalogEntry>,
    cache: ResidentCache,
    keep_versions: usize,
    /// Activation recency, oldest → newest, one entry per live name:
    /// rebuilt from WAL replay order at open, maintained by live commits.
    /// [`ModelStore::warm`] pre-maps from the tail.
    recency: Vec<String>,
    /// Names evicted by the LRU policy and not re-mapped since; a load of
    /// one of these counts as a thrash reload.
    evicted: BTreeSet<String>,
    /// Cumulative eviction counters (see [`StoreMetrics`]).
    evictions: u64,
    thrash_reloads: u64,
    resident_bytes_hwm: u64,
}

/// The unified model-lifecycle API: registry routing plus the durable,
/// budgeted model directory. Cheap to clone; all clones share state.
///
/// Construction: [`ModelStore::detached`] for registry-only serving
/// (the pre-store behavior, still what `ServerBuilder` gives by
/// default), [`ModelStore::open`] to attach a model directory.
#[derive(Clone)]
pub struct ModelStore {
    registry: ModelRegistry,
    inner: Option<Arc<Mutex<StoreInner>>>,
}

impl ModelStore {
    /// A store with no model directory: every model lives in memory via
    /// [`register`](Self::register)/[`swap`](Self::swap), nothing is
    /// WAL-logged, nothing is evicted.
    #[must_use]
    pub fn detached(registry: ModelRegistry) -> Self {
        Self {
            registry,
            inner: None,
        }
    }

    /// Opens the model directory `dir` (created if absent): scans it
    /// for `NAME@VERSION.blt` artifacts, replays `registry.wal` over
    /// the scan (truncating a torn tail), and seeds the name bloom
    /// filter. No artifact is mapped yet — first request does that.
    ///
    /// `resident_budget` bounds total resident bytes — mapped files plus
    /// their heap-side indexes (`None` = unbounded); `keep_versions` is the per-name retention for
    /// [`compact`](Self::compact) (0 = keep every version).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or the WAL cannot be
    /// read.
    pub fn open(
        registry: ModelRegistry,
        dir: &Path,
        resident_budget: Option<u64>,
        keep_versions: usize,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let catalog = scan_dir(dir)?;
        let (wal, ops) = Wal::open(&dir.join("registry.wal"))?;
        let mut inner = StoreInner {
            dir: dir.to_owned(),
            wal,
            catalog,
            cache: ResidentCache::new(resident_budget),
            keep_versions,
            recency: Vec::new(),
            evicted: BTreeSet::new(),
            evictions: 0,
            thrash_reloads: 0,
            resident_bytes_hwm: 0,
        };
        let store = Self {
            registry,
            inner: None,
        };
        // Every scanned name must pass the bloom fast path before the
        // WAL has its say (replay may retire some again).
        for name in inner.catalog.keys() {
            store.registry.bloom().insert(name);
        }
        for op in ops {
            store.apply(&mut inner, &op);
        }
        Ok(Self {
            inner: Some(Arc::new(Mutex::new(inner))),
            ..store
        })
    }

    /// The routing registry behind this store. Stats, hot-swap of
    /// in-memory engines, and the serving hot path live here.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Applies one (already validated / already durable) op to the
    /// catalog and the registry. Replay and live mutation share this so
    /// a replayed log reconstructs the exact same state the live ops
    /// produced.
    fn apply(&self, inner: &mut StoreInner, op: &WalOp) {
        match op {
            WalOp::Register { name, version } => {
                let entry = inner.catalog.entry(name.clone()).or_default();
                let path = artifact_path(&inner.dir, name, *version);
                if path.is_file() {
                    entry.versions.insert(*version, path);
                    entry.active = Some(*version);
                } else if entry.versions.contains_key(version) {
                    entry.active = Some(*version);
                } else {
                    // The activated version's file is gone (deleted
                    // between append and crash); serve the newest that
                    // survives rather than nothing.
                    entry.active = entry.versions.keys().next_back().copied();
                }
                entry.retired = false;
                self.registry.unretire(name);
                self.registry.bloom().insert(name);
                // Invalidate any resident mapping: the next request
                // loads the activated version.
                if self.registry.remove_resident(name) {
                    inner.cache.remove(name);
                }
                // Most recent activation moves to the recency tail, so a
                // replayed log reconstructs the same warm-up order the
                // live ops produced.
                inner.recency.retain(|n| n != name);
                inner.recency.push(name.clone());
            }
            WalOp::Retire { name } => {
                if let Some(entry) = inner.catalog.get_mut(name) {
                    entry.retired = true;
                }
                inner.cache.remove(name);
                inner.recency.retain(|n| n != name);
                self.registry.retire_unchecked(name);
            }
            WalOp::SetDefault { name } => {
                self.registry.set_default_unchecked(name);
            }
        }
    }

    /// Validates, logs, and applies one lifecycle op: the write-ahead
    /// discipline. The op mutates in-memory state only after the WAL
    /// append has fsync'd, so every applied op is durable and every
    /// durable op was valid when logged.
    fn commit(&self, inner: &mut StoreInner, op: WalOp) -> Result<(), StoreError> {
        inner.wal.append(&op)?;
        self.apply(inner, &op);
        Ok(())
    }

    /// Activates `name@version` from the model directory: the version
    /// becomes what requests for `name` serve, durably. A new name
    /// becomes registered (and revives a retired one); an existing name
    /// is hot-swapped — in-flight requests finish on the old mapping,
    /// the next request maps the new version lazily.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoDirectory`] without a model directory;
    /// [`StoreError::MissingArtifact`] if `NAME@VERSION.blt` is not in
    /// it; [`StoreError::Duplicate`] if `name@version` is already the
    /// active version; [`StoreError::InvalidName`] /
    /// [`StoreError::Io`] as usual.
    pub fn activate(&self, name: &str, version: u32) -> Result<(), StoreError> {
        if name.is_empty() || name.len() > MAX_MODEL_NAME_BYTES {
            return Err(StoreError::InvalidName(name.to_owned()));
        }
        let inner = self.inner.as_ref().ok_or(StoreError::NoDirectory)?;
        let mut inner = inner.lock();
        if !artifact_path(&inner.dir, name, version).is_file() {
            return Err(StoreError::MissingArtifact {
                name: name.to_owned(),
                version,
            });
        }
        if let Some(entry) = inner.catalog.get(name) {
            if !entry.retired && entry.active == Some(version) {
                return Err(StoreError::Duplicate(format!("{name}@{version}")));
            }
        }
        self.commit(
            &mut inner,
            WalOp::Register {
                name: name.to_owned(),
                version,
            },
        )
    }

    /// Retires a model, durably when it is directory-backed: requests
    /// get a structured *retired* error, the mapping (if any) drops,
    /// statistics stay conserved.
    ///
    /// # Errors
    ///
    /// [`StoreError::DefaultInUse`] for the current default,
    /// [`StoreError::Retired`] if already retired,
    /// [`StoreError::Unknown`] if never seen. In-memory models are
    /// retired through the registry with the same checks.
    pub fn retire(&self, name: &str) -> Result<(), StoreError> {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock();
            if inner.catalog.contains_key(name) {
                if self.registry.default_model().as_deref() == Some(name) {
                    return Err(StoreError::DefaultInUse(name.to_owned()));
                }
                let entry = inner.catalog.get(name).expect("checked");
                if entry.retired {
                    return Err(StoreError::Retired(name.to_owned()));
                }
                return self.commit(
                    &mut inner,
                    WalOp::Retire {
                        name: name.to_owned(),
                    },
                );
            }
        }
        self.registry.retire(name)
    }

    /// Makes `name` the default route, durably when directory-backed.
    /// The model need not be resident — a cold catalog name becomes
    /// default and is mapped on the first legacy frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unknown`] / [`StoreError::Retired`] if the name
    /// cannot serve.
    pub fn set_default(&self, name: &str) -> Result<(), StoreError> {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock();
            if let Some(entry) = inner.catalog.get(name) {
                if entry.retired {
                    return Err(StoreError::Retired(name.to_owned()));
                }
                if entry.serving_version().is_none() {
                    return Err(StoreError::Unknown(name.to_owned()));
                }
                return self.commit(
                    &mut inner,
                    WalOp::SetDefault {
                        name: name.to_owned(),
                    },
                );
            }
        }
        self.registry.set_default(name)
    }

    /// Registers an in-memory engine under a new name (not WAL-logged,
    /// never evicted — there is no artifact to reload it from). See
    /// [`ModelRegistry::register`] for the semantics.
    ///
    /// # Errors
    ///
    /// [`StoreError::Duplicate`] if the name is serving *or* cataloged
    /// in the model directory; registry errors as usual.
    pub fn register(
        &self,
        name: impl Into<String>,
        engine: Arc<dyn InferenceEngine>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if let Some(inner) = &self.inner {
            let inner = inner.lock();
            if let Some(entry) = inner.catalog.get(&name) {
                if !entry.retired {
                    return Err(StoreError::Duplicate(name));
                }
            }
        }
        self.registry.register(name, engine)
    }

    /// Hot-swaps the engine behind an in-memory name. See
    /// [`ModelRegistry::swap`]; directory-backed names should use
    /// [`activate`](Self::activate) so the change is durable.
    ///
    /// # Errors
    ///
    /// Registry errors ([`StoreError::Unknown`] / [`StoreError::Retired`]).
    pub fn swap(&self, name: &str, engine: Arc<dyn InferenceEngine>) -> Result<(), StoreError> {
        self.registry.swap(name, engine)
    }

    /// Resolves a model for serving, mapping its artifact on first use.
    ///
    /// Hot path: a resident name (or a bloom-rejected unknown) never
    /// touches the store lock — it is exactly
    /// [`ModelRegistry::resolve`]. Only a registry miss on a cataloged
    /// name pays for the lock and the mmap, and eviction then keeps the
    /// resident set under budget.
    ///
    /// # Errors
    ///
    /// The [`RouteError`] the protocol maps to structured error frames.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<ModelHandle>, RouteError> {
        let miss = match self.registry.resolve(name) {
            Ok(handle) => return Ok(handle),
            Err(RouteError::UnknownModel(missing)) if self.inner.is_some() => missing,
            Err(e) => return Err(e),
        };
        let inner = self.inner.as_ref().expect("checked above");
        let mut inner = inner.lock();
        // Another thread may have loaded it while we waited.
        if let Ok(handle) = self.registry.resolve(name) {
            return Ok(handle);
        }
        self.load_locked(&mut inner, &miss)?;
        self.registry.resolve(name)
    }

    /// Maps the serving version of `miss` into the registry and evicts
    /// over-budget residents. Caller holds the store lock.
    fn load_locked(&self, inner: &mut StoreInner, miss: &str) -> Result<(), RouteError> {
        let entry = inner
            .catalog
            .get(miss)
            .ok_or_else(|| RouteError::UnknownModel(miss.to_owned()))?;
        if entry.retired {
            return Err(RouteError::RetiredModel(miss.to_owned()));
        }
        let version = entry
            .serving_version()
            .ok_or_else(|| RouteError::UnknownModel(miss.to_owned()))?;
        let path = entry
            .versions
            .get(&version)
            .expect("serving version is on disk");
        let engine = ArtifactEngine::open(path)
            .map_err(|e| RouteError::LoadFailed(format!("{miss}@{version}: {e}")))?;
        // Resident cost: the mapped file plus the entry-bitmap index built
        // on the heap at open.
        let model = engine.model();
        let bytes = (model.artifact().bytes().len() + model.index_bytes()) as u64;
        self.registry.insert_resident(miss, Arc::new(engine));
        if inner.evicted.remove(miss) {
            inner.thrash_reloads += 1;
        }
        inner.cache.insert(miss, bytes);
        inner.resident_bytes_hwm = inner.resident_bytes_hwm.max(inner.cache.total_bytes());
        while let Some(victim) = inner
            .cache
            .victim(miss, |name| self.registry.last_used(name))
        {
            self.registry.remove_resident(&victim);
            inner.cache.remove(&victim);
            inner.evictions += 1;
            inner.evicted.insert(victim);
        }
        Ok(())
    }

    /// Every model this store can serve, sorted by name: resident
    /// in-memory engines and resident *and cold* directory artifacts,
    /// with version, residency, and mapped/on-disk byte size — the
    /// extended `ListModels` payload.
    ///
    /// The rows are a *point-in-time snapshot*: the whole listing —
    /// registry residency, catalog versions, and cache byte sizes — is
    /// gathered under one store-lock acquisition. Residency only changes
    /// under that same lock ([`load_locked`](Self::load_locked) and WAL
    /// apply), so no row can reflect an eviction that another row
    /// predates.
    #[must_use]
    pub fn list(&self) -> Vec<ModelInfo> {
        let Some(inner) = &self.inner else {
            return self.registry.list();
        };
        let inner = inner.lock();
        let mut infos = self.registry.list();
        let default = self.registry.default_model();
        for (name, entry) in &inner.catalog {
            if entry.retired {
                continue;
            }
            let Some(version) = entry.serving_version() else {
                continue;
            };
            if let Some(info) = infos.iter_mut().find(|info| &info.name == name) {
                info.version = version;
                info.bytes = inner.cache.bytes_of(name).unwrap_or(0);
            } else {
                let path = entry.versions.get(&version).expect("on disk");
                infos.push(ModelInfo {
                    name: name.clone(),
                    engine: "BOLT-BLT".to_owned(),
                    requests: self.registry.stats(name).map_or(0, |stats| stats.requests),
                    is_default: default.as_deref() == Some(name.as_str()),
                    version,
                    resident: false,
                    bytes: std::fs::metadata(path).map_or(0, |meta| meta.len()),
                });
            }
        }
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Total bytes of mapped directory artifacts right now.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().cache.total_bytes())
    }

    /// Eviction-pressure counters and the current residency footprint.
    /// A detached store reports all zeros.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        let Some(inner) = &self.inner else {
            return StoreMetrics::default();
        };
        let inner = inner.lock();
        StoreMetrics {
            evictions: inner.evictions,
            thrash_reloads: inner.thrash_reloads,
            resident_bytes: inner.cache.total_bytes(),
            resident_bytes_hwm: inner.resident_bytes_hwm,
            resident_models: inner.cache.len() as u64,
        }
    }

    /// Re-scans the model directory and merges what it finds into the
    /// live catalog: new `NAME@VERSION.blt` files become servable without
    /// a restart (mapped lazily, like the startup scan). Existing catalog
    /// state — active versions, retirement, residency — is untouched, and
    /// **nothing is journaled**: only explicit [`activate`](Self::activate)
    /// calls enter the WAL, so a half-written file that a later load
    /// rejects leaves no durable trace.
    ///
    /// A new name with no activation serves its highest version on disk;
    /// a new *version* of an explicitly activated name is cataloged but
    /// not served until activated.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoDirectory`] without a model directory;
    /// [`StoreError::Io`] if the directory cannot be read.
    pub fn rescan(&self) -> Result<RescanStats, StoreError> {
        let inner = self.inner.as_ref().ok_or(StoreError::NoDirectory)?;
        let mut inner = inner.lock();
        let scanned = scan_dir(&inner.dir)?;
        let mut stats = RescanStats::default();
        for (name, found) in scanned {
            let is_new = !inner.catalog.contains_key(&name);
            let entry = inner.catalog.entry(name.clone()).or_default();
            for (version, path) in found.versions {
                if entry.versions.insert(version, path).is_none() {
                    stats.versions_added += 1;
                }
            }
            if is_new {
                stats.names_added += 1;
                self.registry.bloom().insert(&name);
            }
        }
        Ok(stats)
    }

    /// Pre-maps the top-`k` most recently activated models (WAL-recovered
    /// recency, padded with cataloged names when fewer than `k` were ever
    /// journaled) so the first requests after a restart hit warm mappings
    /// instead of paying the mmap + validate cost inline. Loads run
    /// coldest-first so the LRU budget, if tighter than `k` artifacts,
    /// keeps the *most* recent ones resident.
    ///
    /// Returns the names actually mapped; artifacts that fail to load
    /// (half-written drops, validation failures) are skipped, not errors.
    /// A detached store warms nothing.
    pub fn warm(&self, k: usize) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let candidates: Vec<String> = {
            let inner = inner.lock();
            let mut names: Vec<String> = inner.recency.iter().rev().cloned().collect();
            for (name, entry) in &inner.catalog {
                if !entry.retired
                    && entry.serving_version().is_some()
                    && !names.iter().any(|n| n == name)
                {
                    names.push(name.clone());
                }
            }
            names.retain(|name| {
                inner
                    .catalog
                    .get(name)
                    .is_some_and(|e| !e.retired && e.serving_version().is_some())
            });
            names.truncate(k);
            names
        };
        let mut warmed = Vec::new();
        // Reverse: warm the coldest candidate first, the most recent
        // last, so its resolve stamp is the newest when eviction bites.
        for name in candidates.iter().rev() {
            if self.resolve(Some(name)).is_ok() {
                warmed.push(name.clone());
            }
        }
        warmed
    }

    /// Compacts the WAL to the minimal record set for the live state
    /// and — when a `keep_versions` retention is configured — deletes
    /// superseded artifact versions beyond the newest N per name (the
    /// serving version is always kept).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoDirectory`] without a directory;
    /// [`StoreError::Io`] if the rewrite fails (the original log stays
    /// intact in that case).
    pub fn compact(&self) -> Result<CompactStats, StoreError> {
        let inner = self.inner.as_ref().ok_or(StoreError::NoDirectory)?;
        let mut inner = inner.lock();
        let mut stats = CompactStats {
            wal_bytes_before: inner.wal.len()?,
            ..CompactStats::default()
        };
        // Retention first, so the snapshot never references a file this
        // same call deletes.
        if inner.keep_versions > 0 {
            let keep = inner.keep_versions;
            let mut doomed: Vec<(String, u32, PathBuf)> = Vec::new();
            for (name, entry) in &inner.catalog {
                let serving = entry.serving_version();
                let mut kept = 0usize;
                for (&version, path) in entry.versions.iter().rev() {
                    if Some(version) == serving || kept < keep {
                        kept += 1;
                        continue;
                    }
                    doomed.push((name.clone(), version, path.clone()));
                }
            }
            for (name, version, path) in doomed {
                std::fs::remove_file(&path)?;
                stats.files_deleted += 1;
                if let Some(entry) = inner.catalog.get_mut(&name) {
                    entry.versions.remove(&version);
                }
            }
        }
        let mut ops = Vec::new();
        for (name, entry) in &inner.catalog {
            if entry.retired {
                ops.push(WalOp::Retire { name: name.clone() });
            } else if let Some(version) = entry.serving_version() {
                ops.push(WalOp::Register {
                    name: name.clone(),
                    version,
                });
            }
        }
        if let Some(default) = self.registry.default_model() {
            if inner.catalog.contains_key(&default) {
                ops.push(WalOp::SetDefault { name: default });
            }
        }
        inner.wal.compact(&ops)?;
        stats.wal_bytes_after = inner.wal.len()?;
        Ok(stats)
    }

    /// The model directory, if one is attached.
    #[must_use]
    pub fn model_dir(&self) -> Option<PathBuf> {
        self.inner.as_ref().map(|inner| inner.lock().dir.clone())
    }
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("registry", &self.registry)
            .field("model_dir", &self.model_dir())
            .finish()
    }
}

/// `DIR/NAME@VERSION.blt`.
fn artifact_path(dir: &Path, name: &str, version: u32) -> PathBuf {
    dir.join(format!("{name}@{version}.blt"))
}

/// Scans `dir` for `NAME@VERSION.blt` artifacts. Unparseable file names
/// (including `registry.wal` and temp files) are ignored, not errors —
/// operators drop files in and the store picks up what it understands.
fn scan_dir(dir: &Path) -> std::io::Result<BTreeMap<String, CatalogEntry>> {
    let mut catalog: BTreeMap<String, CatalogEntry> = BTreeMap::new();
    for dirent in std::fs::read_dir(dir)? {
        let dirent = dirent?;
        let file_name = dirent.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let Some(stem) = file_name.strip_suffix(".blt") else {
            continue;
        };
        let Some((name, version)) = stem.rsplit_once('@') else {
            continue;
        };
        let Ok(version) = version.parse::<u32>() else {
            continue;
        };
        if name.is_empty() || name.len() > MAX_MODEL_NAME_BYTES {
            continue;
        }
        catalog
            .entry(name.to_owned())
            .or_default()
            .versions
            .insert(version, dirent.path());
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_baselines::ScikitLikeForest;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn forest() -> RandomForest {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        RandomForest::train(&data, &ForestConfig::new(3).with_seed(5))
    }

    #[test]
    fn detached_store_is_a_registry_passthrough() {
        let store = ModelStore::detached(ModelRegistry::new());
        store
            .register("m", Arc::new(ScikitLikeForest::from_forest(&forest())))
            .expect("registers");
        assert_eq!(
            store
                .register("m", Arc::new(ScikitLikeForest::from_forest(&forest())))
                .expect_err("duplicate"),
            StoreError::Duplicate("m".into())
        );
        store.resolve(Some("m")).expect("resolves");
        store.resolve(None).expect("first registration is default");
        assert_eq!(
            store.resolve(Some("ghost")).expect_err("unknown"),
            RouteError::UnknownModel("ghost".into())
        );
        assert_eq!(
            store.activate("m", 1).expect_err("no directory"),
            StoreError::NoDirectory
        );
        assert_eq!(
            store.compact().expect_err("no directory"),
            StoreError::NoDirectory
        );
        let listed = store.list();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].resident);
    }

    #[test]
    fn resident_ledger_charges_the_index_with_the_file() {
        let dir = std::env::temp_dir().join(format!("bolt-store-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let bolt = bolt_core::BoltForest::compile(&forest(), &bolt_core::BoltConfig::default())
            .expect("compiles");
        let path = dir.join("m@1.blt");
        bolt_artifact::ArtifactWriter::write_forest(&bolt, &path).expect("writes");
        let file_len = std::fs::metadata(&path).expect("meta").len();
        let index_bytes = bolt.index().heap_bytes() as u64;
        assert!(index_bytes > 0);

        let store = ModelStore::open(ModelRegistry::new(), &dir, None, 0).expect("opens");
        assert_eq!(store.list()[0].bytes, file_len, "cold: the file on disk");
        store.resolve(Some("m")).expect("maps");
        assert_eq!(store.resident_bytes(), file_len + index_bytes);
        assert_eq!(store.list()[0].bytes, file_len + index_bytes);
        assert_eq!(store.metrics().resident_bytes_hwm, file_len + index_bytes);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn scan_parses_only_well_formed_artifact_names() {
        let dir = std::env::temp_dir().join(format!("bolt-store-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for file in [
            "fraud@1.blt",
            "fraud@2.blt",
            "spam@7.blt",
            "registry.wal",
            "notes.txt",
            "noversion.blt",
            "bad@version.blt",
            "@3.blt",
            "tricky@name@5.blt", // name may itself contain '@'
        ] {
            std::fs::write(dir.join(file), b"x").expect("touch");
        }
        let catalog = scan_dir(&dir).expect("scan");
        assert_eq!(
            catalog.keys().map(String::as_str).collect::<Vec<_>>(),
            ["fraud", "spam", "tricky@name"]
        );
        assert_eq!(
            catalog["fraud"]
                .versions
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(catalog["fraud"].serving_version(), Some(2), "highest wins");
        assert_eq!(catalog["tricky@name"].serving_version(), Some(5));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
