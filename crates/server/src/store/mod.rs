//! The model store: one name table for every model a process serves.
//!
//! §4.5 frames the classification front-end as engine-agnostic ("the
//! front-end can connect to other forest implementations"). The
//! [`ModelStore`] makes that first-class: one table maps each model name
//! to its record — lifecycle, resident engine, statistics and, for a
//! directory-backed name, its versions on disk — with atomic hot-swap
//! under live traffic and a *default* model that legacy (unrouted)
//! protocol frames fall back to.
//!
//! A name is one of two kinds for its whole life:
//!
//! * **in memory** — registered with [`register`](ModelStore::register)
//!   (boltd `--model` flags, tests, [`crate::ServerBuilder::register`])
//!   and replaced with [`swap`](ModelStore::swap). It is not WAL-logged
//!   and never evicted: there is no artifact to reload it from.
//! * **directory-backed** — a `NAME@VERSION.blt` artifact in the model
//!   directory (`--model-dir`, [`ModelStore::open`]), **mapped lazily**
//!   on its first request and switched with
//!   [`activate`](ModelStore::activate). An **LRU eviction** keeps the
//!   total resident bytes (mapped file plus the entry-bitmap index built
//!   at open) under a `--resident-bytes` budget; mmap makes eviction a
//!   pointer drop, and in-flight requests keep their `Arc` engine alive.
//!   Lifecycle ops go to a **write-ahead log** (`registry.wal`, [`wal`])
//!   before they apply, so kill −9 and a restart replay to the exact
//!   pre-crash state, down to which version of each name was active.
//!   **Compaction** rewrites the log to the minimal record set and deletes
//!   superseded versions beyond a `--keep-versions N` retention.
//!
//! Lifecycle mutations are fallible and say why:
//! [`register`](ModelStore::register) refuses to overwrite a serving
//! name, [`swap`](ModelStore::swap) refuses to invent one, and
//! [`retire`](ModelStore::retire) refuses to strand the default route —
//! each failure is a typed [`StoreError`].
//!
//! Locks: the table sits behind one `RwLock`; a directory `Mutex`
//! serializes WAL append + fsync, cold loads and every change to the
//! table. The order is directory, then names, never the reverse, and no
//! fsync, mmap or directory scan runs under the names lock. A warm
//! [`resolve`](ModelStore::resolve) takes only the names read lock, once,
//! to clone the handle's `Arc`; classification and booking run with no
//! table lock held, so swap, retire and eviction never wait on inference.
//! Statistics belong to the name, not the engine: a name's request count
//! is the sum over every engine that ever served it.

pub mod wal;

pub use wal::{Wal, WalOp};

use crate::engine::ArtifactEngine;
use crate::proto::{ModelInfo, MAX_MODEL_NAME_BYTES};
use crate::server::ServerStats;
use bolt_baselines::InferenceEngine;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Why a model lookup failed; maps 1:1 onto the protocol's structured
/// error codes.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The name has never been registered.
    UnknownModel(String),
    /// The name was registered once but has since been retired.
    RetiredModel(String),
    /// A default-model lookup was made but no default is configured.
    NoDefaultModel,
    /// The model is cataloged but its artifact failed to map (I/O
    /// error or corruption) — the server's fault, not the client's.
    LoadFailed(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(name) => write!(f, "no model registered as {name:?}"),
            Self::RetiredModel(name) => write!(f, "model {name:?} has been retired"),
            Self::NoDefaultModel => write!(f, "no default model configured"),
            Self::LoadFailed(detail) => write!(f, "model failed to load: {detail}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Why a lifecycle operation was refused. Every variant names the model
/// it refers to; callers match instead of parsing strings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The name is empty or longer than the wire protocol can address.
    InvalidName(String),
    /// `register` on a name that is already serving or directory-backed,
    /// `swap` on a directory-backed name, or `activate` on an in-memory
    /// one.
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
            Self::Duplicate(name) => write!(
                f,
                "model {name:?} is already registered (swap replaces an in-memory model, \
                 activate a directory one)"
            ),
            Self::Unknown(name) => write!(f, "no model registered as {name:?}"),
            Self::Retired(name) => write!(f, "model {name:?} has been retired"),
            Self::DefaultInUse(name) => write!(
                f,
                "model {name:?} is the default route; move the default before retiring it"
            ),
            Self::MissingArtifact { name, version } => write!(
                f,
                "no artifact file for {name}@{version} in the model directory"
            ),
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

/// A resolved model: the engine plus the name's statistics slot.
///
/// The stats slot is shared *across* hot-swaps of the same name, so
/// booking into a handle resolved before a swap still lands in the name's
/// totals.
pub struct ModelHandle {
    engine: Arc<dyn InferenceEngine>,
    stats: Arc<Mutex<ServerStats>>,
    /// Store clock reading of the last resolve that returned this handle
    /// — the LRU recency eviction orders by.
    last_used: AtomicU64,
}

impl ModelHandle {
    /// The engine backing this model right now.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn InferenceEngine> {
        &self.engine
    }

    /// Books `requests` answered in `latency_ns` total into the model's
    /// statistics.
    ///
    /// Both counters saturate at `u64::MAX` instead of wrapping: a
    /// long-lived server (or a load harness hammering one) accumulates
    /// latency without bound, and an unchecked `+` would panic in debug
    /// builds and silently wrap — corrupting the mean — in release.
    pub fn book(&self, requests: u64, latency_ns: u64) {
        let mut stats = lock(&self.stats);
        stats.requests = stats.requests.saturating_add(requests);
        stats.total_latency_ns = stats.total_latency_ns.saturating_add(latency_ns);
    }
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHandle")
            .field("engine", &self.engine.name())
            .finish()
    }
}

// Every update under these locks leaves its data whole at each step, so a
// panic elsewhere while one is held (in an admin call, say) recovers the
// guard instead of poisoning serving.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Where a name stands.
enum Slot {
    /// Serving from this handle.
    Resident(Arc<ModelHandle>),
    /// Directory-backed and not mapped: the next request maps it.
    Cold,
    /// Retired: lookups answer *retired*, statistics stay.
    Retired,
}

/// A directory-backed name's versions on disk and its residency.
#[derive(Debug, Default)]
struct OnDisk {
    /// Version → artifact path, every version present on disk.
    versions: BTreeMap<u32, PathBuf>,
    /// The version requests are served from; `None` falls back to the
    /// highest on disk.
    active: Option<u32>,
    /// Resident bytes of the newest mapping (file plus index); they count
    /// only while the name is resident.
    bytes: u64,
    /// The LRU dropped the mapping and nothing re-mapped it since: the
    /// next load counts as a thrash reload.
    evicted: bool,
    /// Clock reading of the newest activation (0: never activated);
    /// [`ModelStore::warm`] maps the most recent first.
    activated: u64,
}

impl OnDisk {
    /// The version a request for this name would serve.
    fn serving_version(&self) -> Option<u32> {
        self.active
            .filter(|v| self.versions.contains_key(v))
            .or_else(|| self.versions.keys().next_back().copied())
    }
}

/// One name's record — the only place the name lives.
struct Model {
    slot: Slot,
    /// The name's statistics: every handle books here, and the slot stays
    /// put across swap, retire and eviction.
    stats: Arc<Mutex<ServerStats>>,
    /// `Some` for a directory-backed name, `None` for an in-memory one,
    /// for the name's whole life.
    disk: Option<OnDisk>,
}

impl Model {
    fn new(slot: Slot, disk: Option<OnDisk>) -> Self {
        Self {
            slot,
            stats: Arc::default(),
            disk,
        }
    }

    fn is_retired(&self) -> bool {
        matches!(self.slot, Slot::Retired)
    }

    /// Serves `engine` from now on; requests holding the previous handle
    /// finish on it.
    fn serve(&mut self, engine: Arc<dyn InferenceEngine>, last_used: u64) -> Arc<ModelHandle> {
        let handle = Arc::new(ModelHandle {
            engine,
            stats: Arc::clone(&self.stats),
            last_used: AtomicU64::new(last_used),
        });
        self.slot = Slot::Resident(Arc::clone(&handle));
        handle
    }
}

/// The name table and the default route.
#[derive(Default)]
struct Names {
    models: BTreeMap<String, Model>,
    default: Option<String>,
}

impl Names {
    /// The resident directory names — the ones eviction may drop.
    fn mapped(&self) -> impl Iterator<Item = (&String, &ModelHandle, &OnDisk)> {
        self.models
            .iter()
            .filter_map(|(name, model)| match (&model.slot, &model.disk) {
                (Slot::Resident(handle), Some(disk)) => Some((name, &**handle, disk)),
                _ => None,
            })
    }

    /// Resident bytes of the mapped directory names, saturating.
    fn resident_bytes(&self) -> u64 {
        self.mapped()
            .fold(0u64, |total, (_, _, disk)| total.saturating_add(disk.bytes))
    }

    /// The next eviction victim, or `None` when the resident bytes fit
    /// `budget` (`None`: unbounded) or nothing but `protect` is left to
    /// evict.
    ///
    /// The victim is the least-recently-used resident directory name (an
    /// unstamped handle counts as oldest). `protect` — the name that just
    /// loaded — is never chosen, so a single artifact larger than the
    /// whole budget still serves: the budget bounds the *steady state*,
    /// not one model. In-memory names are never chosen.
    fn victim(&self, budget: Option<u64>, protect: &str) -> Option<String> {
        if self.resident_bytes() <= budget? {
            return None;
        }
        self.mapped()
            .filter(|(name, ..)| name.as_str() != protect)
            .map(|(name, handle, _)| (handle.last_used.load(Ordering::Relaxed), name))
            .min()
            .map(|(_, name)| name.clone())
    }

    /// Drops a resident directory name's mapping; in-flight requests keep
    /// the engine alive through their handles, and the next request maps
    /// it again.
    fn evict(&mut self, name: &str) {
        let model = self.models.get_mut(name).expect("a victim is in the table");
        model.slot = Slot::Cold;
        model
            .disk
            .as_mut()
            .expect("only directory names are evicted")
            .evicted = true;
    }
}

/// The model directory's side of the store, under the directory lock.
struct Directory {
    path: PathBuf,
    wal: Wal,
    /// `None` = unbounded (no `--resident-bytes` flag).
    budget: Option<u64>,
    keep_versions: usize,
    /// Cumulative eviction counters (see [`StoreMetrics`]).
    evictions: u64,
    thrash_reloads: u64,
    resident_bytes_hwm: u64,
}

#[derive(Default)]
struct Inner {
    names: RwLock<Names>,
    /// Set once, by [`ModelStore::open`]. Lock order: this, then `names`.
    dir: OnceLock<Mutex<Directory>>,
    /// Monotone logical clock: LRU stamps and activation order.
    clock: AtomicU64,
}

/// The model-lifecycle API and the serving lookup: one table of names,
/// in memory and (after [`open`](Self::open)) directory-backed. Cheap to
/// clone; all clones share state, so a handle can go to an operator
/// thread for live reconfiguration while the server routes traffic
/// through it.
///
/// # Examples
///
/// ```
/// use bolt_server::ModelStore;
/// use bolt_baselines::{InferenceEngine, ScikitLikeForest};
/// use bolt_forest::{Dataset, ForestConfig, RandomForest};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
/// let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(1));
/// let engine: Arc<dyn InferenceEngine> = Arc::new(ScikitLikeForest::from_forest(&forest));
///
/// let store = ModelStore::new();
/// store.register("scikit", Arc::clone(&engine))?;
/// // One engine can back many names without re-compilation:
/// store.register("scikit-alias", engine)?;
/// store.set_default("scikit")?;
/// let model = store.resolve(Some("scikit-alias"))?;
/// assert!(model.engine().classify(&[3.0]) < 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct ModelStore(Arc<Inner>);

impl ModelStore {
    /// An empty store with no model directory and no default model:
    /// every model lives in memory via [`register`](Self::register) and
    /// [`swap`](Self::swap), nothing is WAL-logged, nothing is evicted.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the model directory `dir` (created if absent) to `base`,
    /// adopting its in-memory names: scans `dir` for `NAME@VERSION.blt`
    /// artifacts and replays `registry.wal` over the scan (truncating a
    /// torn tail). No artifact is mapped yet — the first request does
    /// that.
    ///
    /// `resident_budget` bounds total resident bytes — mapped files plus
    /// their heap-side indexes (`None` = unbounded); `keep_versions` is
    /// the per-name retention for [`compact`](Self::compact) (0 = keep
    /// every version).
    ///
    /// # Errors
    ///
    /// The I/O error if the directory or the WAL cannot be read;
    /// `InvalidInput` if one of `base`'s names is also in `dir`;
    /// `AlreadyExists` if `base` already has a directory.
    pub fn open(
        base: ModelStore,
        dir: &Path,
        resident_budget: Option<u64>,
        keep_versions: usize,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let scanned = scan_dir(dir)?;
        let (wal, ops) = Wal::open(&dir.join("registry.wal"))?;
        let clash = {
            let names = read(&base.0.names);
            let logged = ops.iter().map(|op| {
                let (WalOp::Register { name, .. }
                | WalOp::Retire { name }
                | WalOp::SetDefault { name }) = op;
                name
            });
            scanned
                .keys()
                .chain(logged)
                .find(|name| names.models.contains_key(*name))
                .cloned()
        };
        if let Some(name) = clash {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("model {name:?} is registered in memory and in {dir:?}"),
            ));
        }
        let directory = Directory {
            path: dir.to_owned(),
            wal,
            budget: resident_budget,
            keep_versions,
            evictions: 0,
            thrash_reloads: 0,
            resident_bytes_hwm: 0,
        };
        if base.0.dir.set(Mutex::new(directory)).is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "the store already has a model directory",
            ));
        }
        // Clones of `base` wait for the replay to finish.
        let guard = base.directory();
        write(&base.0.names).models.extend(
            scanned
                .into_iter()
                .map(|(name, disk)| (name, Model::new(Slot::Cold, Some(disk)))),
        );
        for op in &ops {
            base.apply(Some(dir), op);
        }
        drop(guard);
        Ok(base)
    }

    /// The directory lock, when the store has a directory. Every change
    /// to the table is made under it, so a check made under the names
    /// read lock still holds after the WAL fsync that follows it.
    fn directory(&self) -> Option<MutexGuard<'_, Directory>> {
        self.0.dir.get().map(lock)
    }

    /// The next clock reading (the first is 1, so 0 means never).
    fn tick(&self) -> u64 {
        self.0.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Applies one validated — and, for a directory-backed name, already
    /// durable — op to the table. Live commits and WAL replay share this,
    /// so a replayed log rebuilds exactly the state the live ops made.
    /// `dir` is the model directory, needed by `Register` only.
    fn apply(&self, dir: Option<&Path>, op: &WalOp) {
        match op {
            WalOp::Register { name, version } => {
                let dir = dir.expect("an activation is directory-backed");
                let path = artifact_path(dir, name, *version);
                let on_disk = path.is_file();
                let activated = self.tick();
                let mut names = write(&self.0.names);
                let model = names
                    .models
                    .entry(name.clone())
                    .or_insert_with(|| Model::new(Slot::Cold, Some(OnDisk::default())));
                let disk = model
                    .disk
                    .as_mut()
                    .expect("activate and open refuse in-memory names");
                if on_disk {
                    disk.versions.insert(*version, path);
                }
                // When the activated version's file is gone (deleted
                // between append and crash), serve the newest that
                // survives rather than nothing.
                disk.active = if disk.versions.contains_key(version) {
                    Some(*version)
                } else {
                    disk.versions.keys().next_back().copied()
                };
                disk.activated = activated;
                // Drops any mapping (and revives a retired name): the next
                // request maps the activated version.
                model.slot = Slot::Cold;
            }
            WalOp::Retire { name } => {
                let mut names = write(&self.0.names);
                let model = names
                    .models
                    .entry(name.clone())
                    .or_insert_with(|| Model::new(Slot::Retired, Some(OnDisk::default())));
                model.slot = Slot::Retired;
                if names.default.as_deref() == Some(name) {
                    names.default = None;
                }
            }
            WalOp::SetDefault { name } => write(&self.0.names).default = Some(name.clone()),
        }
    }

    /// Applies `op`, logging it first when its name is directory-backed
    /// (`dir` is `Some`): the write-ahead discipline. The table changes
    /// only after the append has fsync'd, so every applied op is durable
    /// and every durable op was valid when logged.
    fn commit(&self, mut dir: Option<&mut Directory>, op: &WalOp) -> Result<(), StoreError> {
        if let Some(dir) = &mut dir {
            dir.wal.append(op)?;
        }
        self.apply(dir.map(|dir| dir.path.as_path()), op);
        Ok(())
    }

    /// Registers `engine` in memory under a **new** (or retired in-memory)
    /// name. The first registration becomes the default model if none is
    /// configured yet. Re-registering a retired name revives it with its
    /// historical statistics.
    ///
    /// # Errors
    ///
    /// [`StoreError::Duplicate`] if the name is serving or
    /// directory-backed (use [`swap`](Self::swap) to replace a live
    /// in-memory model and [`activate`](Self::activate) for a directory
    /// one — deploy tooling that *meant* to create must not silently
    /// clobber), [`StoreError::InvalidName`] if the name is empty or
    /// longer than [`MAX_MODEL_NAME_BYTES`] bytes — such a name could
    /// never be addressed over the wire.
    pub fn register(
        &self,
        name: impl Into<String>,
        engine: Arc<dyn InferenceEngine>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        check_name(&name)?;
        let _dir = self.directory();
        let mut names = write(&self.0.names);
        // A fresh name enters as a retired in-memory record and is
        // revived like one.
        let model = names
            .models
            .entry(name.clone())
            .or_insert_with(|| Model::new(Slot::Retired, None));
        if model.disk.is_some() || !model.is_retired() {
            return Err(StoreError::Duplicate(name));
        }
        model.serve(engine, 0);
        names.default.get_or_insert(name);
        Ok(())
    }

    /// Hot-swaps the engine behind an **existing** in-memory name,
    /// atomically: requests resolved after this call see the new engine,
    /// requests already in flight finish on the old one, and the name's
    /// statistics carry over.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unknown`] if the name was never registered,
    /// [`StoreError::Duplicate`] if it is directory-backed (use
    /// [`activate`](Self::activate), which is durable),
    /// [`StoreError::Retired`] if it has been retired (revive it with
    /// [`register`](Self::register) instead).
    pub fn swap(&self, name: &str, engine: Arc<dyn InferenceEngine>) -> Result<(), StoreError> {
        let _dir = self.directory();
        let mut names = write(&self.0.names);
        let model = names
            .models
            .get_mut(name)
            .ok_or_else(|| StoreError::Unknown(name.to_owned()))?;
        if model.disk.is_some() {
            return Err(StoreError::Duplicate(name.to_owned()));
        }
        let Slot::Resident(current) = &model.slot else {
            return Err(StoreError::Retired(name.to_owned()));
        };
        let last_used = current.last_used.load(Ordering::Relaxed);
        model.serve(engine, last_used);
        Ok(())
    }

    /// Activates `name@version` from the model directory: the version
    /// becomes what requests for `name` serve, durably. A new name
    /// becomes registered (and a retired one revives); an existing name
    /// is hot-swapped — in-flight requests finish on the old mapping,
    /// the next request maps the new version lazily.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoDirectory`] without a model directory;
    /// [`StoreError::MissingArtifact`] if `NAME@VERSION.blt` is not in
    /// it; [`StoreError::Duplicate`] if `name@version` is already the
    /// active version or `name` is registered in memory;
    /// [`StoreError::InvalidName`] / [`StoreError::Io`] as usual.
    pub fn activate(&self, name: &str, version: u32) -> Result<(), StoreError> {
        check_name(name)?;
        let mut dir = self.directory().ok_or(StoreError::NoDirectory)?;
        if !artifact_path(&dir.path, name, version).is_file() {
            return Err(StoreError::MissingArtifact {
                name: name.to_owned(),
                version,
            });
        }
        if let Some(model) = read(&self.0.names).models.get(name) {
            match &model.disk {
                None => return Err(StoreError::Duplicate(name.to_owned())),
                Some(disk) if !model.is_retired() && disk.active == Some(version) => {
                    return Err(StoreError::Duplicate(format!("{name}@{version}")));
                }
                Some(_) => {}
            }
        }
        self.commit(
            Some(&mut *dir),
            &WalOp::Register {
                name: name.to_owned(),
                version,
            },
        )
    }

    /// Retires a model, durably when it is directory-backed: the model
    /// disappears from routing and listing, requests that already
    /// resolved it finish unharmed, the mapping (if any) drops, its
    /// statistics keep counting toward [`total_stats`](Self::total_stats),
    /// and later lookups get the *retired* (not *unknown*) error.
    ///
    /// # Errors
    ///
    /// [`StoreError::DefaultInUse`] if the name is the current default —
    /// retiring it would break every legacy (unrouted) client, so the
    /// caller must move or [`clear_default`](Self::clear_default) first.
    /// [`StoreError::Retired`] if already retired, [`StoreError::Unknown`]
    /// if never seen, [`StoreError::Io`] if the WAL append fails.
    pub fn retire(&self, name: &str) -> Result<(), StoreError> {
        let mut dir = self.directory();
        let durable = {
            let names = read(&self.0.names);
            if names.default.as_deref() == Some(name) {
                return Err(StoreError::DefaultInUse(name.to_owned()));
            }
            live(&names, name)?.disk.is_some()
        };
        self.commit(
            dir.as_deref_mut().filter(|_| durable),
            &WalOp::Retire {
                name: name.to_owned(),
            },
        )
    }

    /// Makes `name` the model legacy (unrouted) frames fall back to,
    /// durably when it is directory-backed. The model need not be
    /// resident — a cold directory name becomes default and is mapped on
    /// the first legacy frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unknown`] / [`StoreError::Retired`] if the name
    /// cannot serve, [`StoreError::Io`] if the WAL append fails.
    pub fn set_default(&self, name: &str) -> Result<(), StoreError> {
        let mut dir = self.directory();
        let durable = {
            let names = read(&self.0.names);
            let model = live(&names, name)?;
            if let Some(disk) = &model.disk {
                if disk.serving_version().is_none() {
                    return Err(StoreError::Unknown(name.to_owned()));
                }
            }
            model.disk.is_some()
        };
        self.commit(
            dir.as_deref_mut().filter(|_| durable),
            &WalOp::SetDefault {
                name: name.to_owned(),
            },
        )
    }

    /// Removes the default route; legacy frames are answered with a
    /// structured *no default model* error until a new default is set.
    /// This is the sanctioned prelude to retiring the default model. Not
    /// journaled: a restart restores a logged default.
    pub fn clear_default(&self) {
        let _dir = self.directory();
        write(&self.0.names).default = None;
    }

    /// The current default model's name, if one is configured.
    #[must_use]
    pub fn default_model(&self) -> Option<String> {
        read(&self.0.names).default.clone()
    }

    /// Resolves a model by name (`None` → the default model) to a handle
    /// that stays valid — engine alive, statistics attached — even if the
    /// model is swapped, retired or evicted while the request is in
    /// flight.
    ///
    /// A resident name costs one names read lock. Only a cold directory
    /// name takes the directory lock, to map its artifact and then evict
    /// over-budget residents.
    ///
    /// # Errors
    ///
    /// The [`RouteError`] the protocol maps to structured error frames.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<ModelHandle>, RouteError> {
        if let Some(handle) = self.lookup(name)? {
            return Ok(handle);
        }
        let mut dir = self.directory().expect("cold names need a directory");
        // Another thread may have mapped it while this one waited.
        match self.lookup(name)? {
            Some(handle) => Ok(handle),
            None => self.load(&mut dir, name),
        }
    }

    /// One read of the table: the resident handle, stamped for the LRU,
    /// or `None` for a cold directory name.
    fn lookup(&self, name: Option<&str>) -> Result<Option<Arc<ModelHandle>>, RouteError> {
        let names = read(&self.0.names);
        let name = name
            .or(names.default.as_deref())
            .ok_or(RouteError::NoDefaultModel)?;
        match names.models.get(name).map(|model| &model.slot) {
            Some(Slot::Resident(handle)) => {
                handle.last_used.store(self.tick(), Ordering::Relaxed);
                Ok(Some(Arc::clone(handle)))
            }
            Some(Slot::Cold) => Ok(None),
            Some(Slot::Retired) => Err(RouteError::RetiredModel(name.to_owned())),
            None => Err(RouteError::UnknownModel(name.to_owned())),
        }
    }

    /// Maps the serving version of the cold name `name` routes to, then
    /// evicts least-recently-used residents while over budget. The caller
    /// holds the directory lock, so the record cannot change meanwhile;
    /// the mmap and checksum run without the names lock.
    fn load(
        &self,
        dir: &mut Directory,
        name: Option<&str>,
    ) -> Result<Arc<ModelHandle>, RouteError> {
        let (name, version, path) = {
            let names = read(&self.0.names);
            let name = name
                .or(names.default.as_deref())
                .expect("the lookup routed it");
            let disk = names.models[name]
                .disk
                .as_ref()
                .expect("only directory names are cold");
            let version = disk
                .serving_version()
                .ok_or_else(|| RouteError::UnknownModel(name.to_owned()))?;
            (name.to_owned(), version, disk.versions[&version].clone())
        };
        let engine = ArtifactEngine::open(&path)
            .map_err(|e| RouteError::LoadFailed(format!("{name}@{version}: {e}")))?;
        // Resident cost: the mapped file plus the entry-bitmap index built
        // on the heap at open.
        let model = engine.model();
        let bytes = (model.artifact().bytes().len() + model.index_bytes()) as u64;
        let stamp = self.tick();
        let mut names = write(&self.0.names);
        let model = names
            .models
            .get_mut(&name)
            .expect("names are never removed");
        let handle = model.serve(Arc::new(engine), stamp);
        let disk = model.disk.as_mut().expect("only directory names are cold");
        disk.bytes = bytes;
        if std::mem::take(&mut disk.evicted) {
            dir.thrash_reloads += 1;
        }
        dir.resident_bytes_hwm = dir.resident_bytes_hwm.max(names.resident_bytes());
        while let Some(victim) = names.victim(dir.budget, &name) {
            names.evict(&victim);
            dir.evictions += 1;
        }
        Ok(handle)
    }

    /// Every model this store can serve, sorted by name, with live
    /// request counts — the extended `ListModels` payload. In-memory
    /// engines carry no artifact metadata (`version` 0, `bytes` 0,
    /// `resident` true); directory names carry their serving version,
    /// residency, and mapped (or on-disk) byte size.
    ///
    /// The rows are a *point-in-time snapshot*, gathered under one names
    /// read lock.
    #[must_use]
    pub fn list(&self) -> Vec<ModelInfo> {
        let names = read(&self.0.names);
        names
            .models
            .iter()
            .filter_map(|(name, model)| {
                let (engine, resident) = match &model.slot {
                    Slot::Resident(handle) => (handle.engine.name(), true),
                    Slot::Cold => ("BOLT-BLT", false),
                    Slot::Retired => return None,
                };
                let (version, bytes) = match &model.disk {
                    None => (0, 0),
                    Some(disk) => {
                        let version = disk.serving_version()?;
                        let bytes = if resident {
                            disk.bytes
                        } else {
                            std::fs::metadata(&disk.versions[&version]).map_or(0, |meta| meta.len())
                        };
                        (version, bytes)
                    }
                };
                Some(ModelInfo {
                    name: name.clone(),
                    engine: engine.to_owned(),
                    requests: lock(&model.stats).requests,
                    is_default: names.default.as_deref() == Some(name),
                    version,
                    resident,
                    bytes,
                })
            })
            .collect()
    }

    /// Snapshot of one model's statistics (serving, retired, or evicted).
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<ServerStats> {
        let names = read(&self.0.names);
        names.models.get(name).map(|model| *lock(&model.stats))
    }

    /// Aggregate statistics across every model, including retired and
    /// evicted ones — total requests here always equals the sum of every
    /// request the server ever booked.
    #[must_use]
    pub fn total_stats(&self) -> ServerStats {
        let names = read(&self.0.names);
        let mut total = ServerStats::default();
        for model in names.models.values() {
            let stats = lock(&model.stats);
            total.requests = total.requests.saturating_add(stats.requests);
            // Saturate like `ModelHandle::book`: summing many models'
            // accumulated latencies must never overflow the aggregate.
            total.total_latency_ns = total
                .total_latency_ns
                .saturating_add(stats.total_latency_ns);
        }
        total
    }

    /// Total bytes of mapped directory artifacts right now.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        read(&self.0.names).resident_bytes()
    }

    /// Eviction-pressure counters and the current residency footprint.
    /// A store without a directory reports all zeros.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        let Some(dir) = self.directory() else {
            return StoreMetrics::default();
        };
        let names = read(&self.0.names);
        StoreMetrics {
            evictions: dir.evictions,
            thrash_reloads: dir.thrash_reloads,
            resident_bytes: names.resident_bytes(),
            resident_bytes_hwm: dir.resident_bytes_hwm,
            resident_models: names.mapped().count() as u64,
        }
    }

    /// Re-scans the model directory and merges what it finds into the
    /// live catalog: new `NAME@VERSION.blt` files become servable without
    /// a restart (mapped lazily, like the startup scan). Existing state —
    /// active versions, retirement, residency — is untouched, and
    /// **nothing is journaled**: only explicit [`activate`](Self::activate)
    /// calls enter the WAL, so a half-written file that a later load
    /// rejects leaves no durable trace.
    ///
    /// A new name with no activation serves its highest version on disk;
    /// a new *version* of an explicitly activated name is cataloged but
    /// not served until activated. Files named after an in-memory name
    /// are ignored: that name stays in memory.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoDirectory`] without a model directory;
    /// [`StoreError::Io`] if the directory cannot be read.
    pub fn rescan(&self) -> Result<RescanStats, StoreError> {
        let dir = self.directory().ok_or(StoreError::NoDirectory)?;
        let scanned = scan_dir(&dir.path)?;
        let mut stats = RescanStats::default();
        let mut names = write(&self.0.names);
        for (name, found) in scanned {
            let model = names.models.entry(name).or_insert_with(|| {
                stats.names_added += 1;
                Model::new(Slot::Cold, Some(OnDisk::default()))
            });
            let Some(disk) = &mut model.disk else {
                continue;
            };
            for (version, path) in found.versions {
                if disk.versions.insert(version, path).is_none() {
                    stats.versions_added += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Pre-maps the top-`k` most recently activated models (WAL-recovered
    /// activation order, padded with cataloged names when fewer than `k`
    /// were ever journaled) so the first requests after a restart hit
    /// warm mappings instead of paying the mmap + validate cost inline.
    /// Loads run coldest-first so the LRU budget, if tighter than `k`
    /// artifacts, keeps the *most* recent ones resident.
    ///
    /// Returns the names actually mapped; artifacts that fail to load
    /// (half-written drops, validation failures) are skipped, not errors.
    /// A store without a directory warms nothing.
    pub fn warm(&self, k: usize) -> Vec<String> {
        let mut candidates: Vec<(u64, String)> = read(&self.0.names)
            .models
            .iter()
            .filter_map(|(name, model)| {
                let disk = model.disk.as_ref()?;
                (!model.is_retired() && disk.serving_version().is_some())
                    .then(|| (disk.activated, name.clone()))
            })
            .collect();
        // Newest activation first; the never-activated follow in name
        // order (the sort is stable).
        candidates.sort_by_key(|&(activated, _)| Reverse(activated));
        candidates.truncate(k);
        // Warm the coldest candidate first and the most recent last, so
        // its resolve stamp is the newest when eviction bites.
        candidates
            .into_iter()
            .rev()
            .map(|(_, name)| name)
            .filter(|name| self.resolve(Some(name.as_str())).is_ok())
            .collect()
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
        let mut dir = self.directory().ok_or(StoreError::NoDirectory)?;
        let mut stats = CompactStats {
            wal_bytes_before: dir.wal.len()?,
            ..CompactStats::default()
        };
        // Retention first, so the snapshot never references a file this
        // same call deletes.
        if dir.keep_versions > 0 {
            let mut doomed: Vec<(String, u32, PathBuf)> = Vec::new();
            for (name, model) in &read(&self.0.names).models {
                let Some(disk) = &model.disk else {
                    continue;
                };
                let serving = disk.serving_version();
                let mut kept = 0usize;
                for (&version, path) in disk.versions.iter().rev() {
                    if Some(version) == serving || kept < dir.keep_versions {
                        kept += 1;
                        continue;
                    }
                    doomed.push((name.clone(), version, path.clone()));
                }
            }
            for (name, version, path) in doomed {
                std::fs::remove_file(&path)?;
                stats.files_deleted += 1;
                let mut names = write(&self.0.names);
                if let Some(disk) = names.models.get_mut(&name).and_then(|m| m.disk.as_mut()) {
                    disk.versions.remove(&version);
                }
            }
        }
        let ops = {
            let names = read(&self.0.names);
            let mut ops: Vec<WalOp> = names
                .models
                .iter()
                .filter_map(|(name, model)| {
                    let disk = model.disk.as_ref()?;
                    let name = name.clone();
                    if model.is_retired() {
                        Some(WalOp::Retire { name })
                    } else {
                        let version = disk.serving_version()?;
                        Some(WalOp::Register { name, version })
                    }
                })
                .collect();
            if let Some(default) = &names.default {
                if names.models.get(default).is_some_and(|m| m.disk.is_some()) {
                    ops.push(WalOp::SetDefault {
                        name: default.clone(),
                    });
                }
            }
            ops
        };
        dir.wal.compact(&ops)?;
        stats.wal_bytes_after = dir.wal.len()?;
        Ok(stats)
    }

    /// The model directory, if one is attached.
    #[must_use]
    pub fn model_dir(&self) -> Option<PathBuf> {
        self.directory().map(|dir| dir.path.clone())
    }
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Directory before names: the lock order.
        let model_dir = self.model_dir();
        let names = read(&self.0.names);
        f.debug_struct("ModelStore")
            .field("models", &names.models.keys().collect::<Vec<_>>())
            .field("default_model", &names.default)
            .field("model_dir", &model_dir)
            .finish()
    }
}

/// The record of a name that can still change: known and not retired.
fn live<'n>(names: &'n Names, name: &str) -> Result<&'n Model, StoreError> {
    match names.models.get(name) {
        None => Err(StoreError::Unknown(name.to_owned())),
        Some(model) if model.is_retired() => Err(StoreError::Retired(name.to_owned())),
        Some(model) => Ok(model),
    }
}

fn check_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() || name.len() > MAX_MODEL_NAME_BYTES {
        return Err(StoreError::InvalidName(name.to_owned()));
    }
    Ok(())
}

/// `DIR/NAME@VERSION.blt`.
fn artifact_path(dir: &Path, name: &str, version: u32) -> PathBuf {
    dir.join(format!("{name}@{version}.blt"))
}

/// Scans `dir` for `NAME@VERSION.blt` artifacts. Unparseable file names
/// (including `registry.wal` and temp files) are ignored, not errors —
/// operators drop files in and the store picks up what it understands.
fn scan_dir(dir: &Path) -> std::io::Result<BTreeMap<String, OnDisk>> {
    let mut catalog: BTreeMap<String, OnDisk> = BTreeMap::new();
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
        if check_name(name).is_err() {
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
    use bolt_baselines::{RangerLikeForest, ScikitLikeForest};
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn forest() -> RandomForest {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        RandomForest::train(&data, &ForestConfig::new(3).with_seed(5))
    }

    fn scikit() -> Arc<dyn InferenceEngine> {
        Arc::new(ScikitLikeForest::from_forest(&forest()))
    }

    fn ranger() -> Arc<dyn InferenceEngine> {
        Arc::new(RangerLikeForest::from_forest(&forest()))
    }

    /// A unique, empty model directory holding `names`, each as version 1
    /// of one compiled artifact; returns the directory and the bytes one
    /// such artifact holds resident.
    fn model_dir(tag: &str, names: &[&str]) -> (PathBuf, u64) {
        let dir = std::env::temp_dir().join(format!("bolt-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let bolt = bolt_core::BoltForest::compile(&forest(), &bolt_core::BoltConfig::default())
            .expect("compiles");
        for name in names {
            bolt_artifact::ArtifactWriter::write_forest(&bolt, dir.join(format!("{name}@1.blt")))
                .expect("writes");
        }
        let file_len = std::fs::metadata(dir.join(format!("{}@1.blt", names[0])))
            .expect("meta")
            .len();
        (dir, file_len + bolt.index().heap_bytes() as u64)
    }

    /// Puts a resident directory name of `bytes` last used at `stamp`
    /// into the table, as a load leaves it.
    fn put(store: &ModelStore, name: &str, bytes: u64, stamp: u64) {
        let disk = OnDisk {
            bytes,
            ..OnDisk::default()
        };
        let mut model = Model::new(Slot::Cold, Some(disk));
        model.serve(scikit(), stamp);
        write(&store.0.names).models.insert(name.to_owned(), model);
    }

    fn served_by(store: &ModelStore, name: Option<&str>) -> &'static str {
        store.resolve(name).expect("resolves").engine().name()
    }

    fn last_used(store: &ModelStore, name: &str) -> Option<u64> {
        match &read(&store.0.names).models.get(name)?.slot {
            Slot::Resident(handle) => Some(handle.last_used.load(Ordering::Relaxed)),
            Slot::Cold | Slot::Retired => None,
        }
    }

    #[test]
    fn first_registration_becomes_default() {
        let store = ModelStore::new();
        assert_eq!(
            store.resolve(None).expect_err("empty"),
            RouteError::NoDefaultModel
        );
        store.register("a", scikit()).expect("fresh name");
        store.register("b", ranger()).expect("fresh name");
        assert_eq!(store.default_model().as_deref(), Some("a"));
        assert_eq!(served_by(&store, None), "Scikit");
        store.set_default("b").expect("exists");
        assert_eq!(served_by(&store, None), "Ranger");
    }

    #[test]
    fn duplicate_register_is_refused_swap_is_not() {
        let store = ModelStore::new();
        store.register("m", scikit()).expect("fresh name");
        assert_eq!(
            store.register("m", ranger()).expect_err("duplicate"),
            StoreError::Duplicate("m".into())
        );
        // The refused registration changed nothing.
        assert_eq!(served_by(&store, Some("m")), "Scikit");
        store.swap("m", ranger()).expect("swap replaces");
        assert_eq!(served_by(&store, Some("m")), "Ranger");
        // Swap demands an existing name.
        assert_eq!(
            store.swap("ghost", scikit()).expect_err("unknown"),
            StoreError::Unknown("ghost".into())
        );
    }

    #[test]
    fn unknown_vs_retired_are_distinct_errors() {
        let store = ModelStore::new();
        store.register("m", scikit()).expect("fresh name");
        assert_eq!(
            store.resolve(Some("ghost")).expect_err("unknown"),
            RouteError::UnknownModel("ghost".into())
        );
        // "m" is the default; retiring it out from under legacy clients
        // is refused until the default is moved away.
        assert_eq!(
            store.retire("m").expect_err("default in use"),
            StoreError::DefaultInUse("m".into())
        );
        store.clear_default();
        store.retire("m").expect("retires");
        assert_eq!(
            store.retire("m").expect_err("double retire"),
            StoreError::Retired("m".into())
        );
        assert_eq!(
            store.retire("ghost").expect_err("never existed"),
            StoreError::Unknown("ghost".into())
        );
        assert_eq!(
            store.resolve(Some("m")).expect_err("retired"),
            RouteError::RetiredModel("m".into())
        );
        // The default was cleared before the retire.
        assert_eq!(
            store.resolve(None).expect_err("no default"),
            RouteError::NoDefaultModel
        );
        // Swapping a retired name is refused too; revival is register's
        // job.
        assert_eq!(
            store.swap("m", scikit()).expect_err("retired"),
            StoreError::Retired("m".into())
        );
    }

    #[test]
    fn stats_survive_swap_and_retire() {
        let store = ModelStore::new();
        store.register("m", scikit()).expect("fresh name");
        let before_swap = store.resolve(Some("m")).expect("resolves");
        before_swap.book(3, 300);
        // Hot-swap the engine behind the name.
        store.swap("m", ranger()).expect("swap");
        // A handle resolved before the swap still books into the name.
        before_swap.book(2, 200);
        assert_eq!(store.stats("m").expect("stats").requests, 5);
        assert_eq!(served_by(&store, Some("m")), "Ranger");
        // Retire: stats stay visible and conserved in the total.
        store.clear_default();
        store.retire("m").expect("retires");
        assert_eq!(store.stats("m").expect("retired stats").requests, 5);
        assert_eq!(store.total_stats().requests, 5);
        // Revival restores the historical counts.
        store.register("m", scikit()).expect("revival");
        assert_eq!(store.stats("m").expect("revived stats").requests, 5);
        assert_eq!(store.total_stats().requests, 5);
    }

    #[test]
    fn eviction_keeps_stats_and_reload_reattaches() {
        let (dir, one) = model_dir("evict", &["m", "n"]);
        let store = ModelStore::open(ModelStore::new(), &dir, Some(one), 0).expect("opens");
        // The resident ledger charges the heap-side index with the file.
        let file_len = std::fs::metadata(dir.join("m@1.blt")).expect("meta").len();
        assert!(one > file_len, "the index has heap bytes");
        assert_eq!(store.list()[0].bytes, file_len, "cold: the file on disk");
        store.resolve(Some("m")).expect("maps").book(7, 70);
        assert_eq!(store.resident_bytes(), one);
        assert_eq!(store.list()[0].bytes, one);
        assert_eq!(store.metrics().resident_bytes_hwm, one);
        // Mapping n pushes the resident bytes over a budget of one: m goes.
        store.resolve(Some("n")).expect("maps");
        assert_eq!(store.metrics().evictions, 1);
        assert_eq!(last_used(&store, "m"), None, "evicted");
        // Evicted ≠ retired: still listed (cold), stats conserved.
        assert!(!store.list()[0].resident);
        assert_eq!(store.stats("m").expect("evicted stats").requests, 7);
        assert_eq!(store.total_stats().requests, 7);
        store.resolve(Some("m")).expect("routable again");
        assert_eq!(store.stats("m").expect("reloaded").requests, 7);
        assert_eq!(store.metrics().thrash_reloads, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn never_registered_names_are_unknown() {
        let store = ModelStore::new();
        store.register("real", scikit()).expect("fresh name");
        assert_eq!(
            store
                .resolve(Some("bolt-bench-missing"))
                .expect_err("unknown"),
            RouteError::UnknownModel("bolt-bench-missing".into())
        );
    }

    #[test]
    fn resolve_stamps_lru_recency() {
        let store = ModelStore::new();
        store.register("a", scikit()).expect("fresh");
        store.register("b", scikit()).expect("fresh");
        store.resolve(Some("a")).expect("a");
        store.resolve(Some("b")).expect("b");
        let (a, b) = (
            last_used(&store, "a").expect("resident"),
            last_used(&store, "b").expect("resident"),
        );
        assert!(a < b, "b touched later: {a} vs {b}");
        store.resolve(Some("a")).expect("a again");
        assert!(last_used(&store, "a").expect("resident") > b);
        assert_eq!(last_used(&store, "ghost"), None);
    }

    #[test]
    fn list_is_sorted_and_flags_default() {
        let store = ModelStore::new();
        store.register("zeta", scikit()).expect("fresh name");
        store.register("alpha", ranger()).expect("fresh name");
        let listed = store.list();
        assert_eq!(
            listed.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["alpha", "zeta"]
        );
        assert!(listed[1].is_default, "first registration is default");
        assert!(!listed[0].is_default);
        assert_eq!(listed[0].engine, "Ranger");
        // In-memory engines carry no artifact metadata.
        assert_eq!(listed[0].version, 0);
        assert!(listed[0].resident);
        assert_eq!(listed[0].bytes, 0);
    }

    #[test]
    fn one_engine_backs_many_names() {
        let store = ModelStore::new();
        let engine = scikit();
        store.register("a", Arc::clone(&engine)).expect("fresh");
        store.register("b", engine).expect("fresh");
        let a = store.resolve(Some("a")).expect("a");
        let b = store.resolve(Some("b")).expect("b");
        assert!(Arc::ptr_eq(a.engine(), b.engine()), "no re-compilation");
        // ...but statistics are per *name*.
        a.book(1, 10);
        assert_eq!(store.stats("a").expect("a").requests, 1);
        assert_eq!(store.stats("b").expect("b").requests, 0);
    }

    #[test]
    fn booking_saturates_instead_of_overflowing() {
        let store = ModelStore::new();
        store.register("m", scikit()).expect("fresh name");
        store.register("n", scikit()).expect("fresh name");
        let handle = store.resolve(Some("m")).expect("resolves");
        // Drive the latency accumulator to the boundary, then past it:
        // pre-fix this panics in debug builds and wraps in release.
        handle.book(1, u64::MAX - 5);
        handle.book(1, 100);
        let stats = store.stats("m").expect("stats");
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.total_latency_ns, u64::MAX);
        // The mean stays finite and sane rather than collapsing to ~0 as
        // a wrapped sum would.
        assert!(stats.mean_latency_ns() > 1e18);
        // The aggregate across models saturates too instead of wrapping
        // when two saturated counters are summed.
        store
            .resolve(Some("n"))
            .expect("resolves")
            .book(3, u64::MAX);
        let total = store.total_stats();
        assert_eq!(total.requests, 5);
        assert_eq!(total.total_latency_ns, u64::MAX);
    }

    #[test]
    fn unaddressable_name_is_rejected() {
        let store = ModelStore::new();
        assert_eq!(
            store.register("", scikit()).expect_err("empty name"),
            StoreError::InvalidName(String::new())
        );
        let long = "x".repeat(MAX_MODEL_NAME_BYTES + 1);
        assert_eq!(
            store
                .register(long.clone(), scikit())
                .expect_err("oversized name"),
            StoreError::InvalidName(long)
        );
    }

    #[test]
    fn under_budget_evicts_nothing() {
        let store = ModelStore::new();
        put(&store, "a", 40, 1);
        put(&store, "b", 60, 1);
        let names = read(&store.0.names);
        assert_eq!(names.resident_bytes(), 100);
        assert_eq!(names.victim(Some(100), "b"), None);
    }

    #[test]
    fn no_budget_never_evicts() {
        let store = ModelStore::new();
        for i in 0..100 {
            put(&store, &format!("m{i}"), u64::MAX / 128, 1);
        }
        assert_eq!(read(&store.0.names).victim(None, "m0"), None);
    }

    #[test]
    fn lru_order_picks_the_coldest() {
        let store = ModelStore::new();
        put(&store, "a", 50, 7);
        put(&store, "b", 50, 3); // coldest
        put(&store, "c", 50, 9); // 150 > 100
        let mut names = write(&store.0.names);
        assert_eq!(names.victim(Some(100), "c").as_deref(), Some("b"));
        names.evict("b");
        // a + c = 100 <= 100 → done.
        assert_eq!(names.victim(Some(100), "c"), None);
    }

    #[test]
    fn protected_name_survives_even_when_oversized() {
        let store = ModelStore::new();
        put(&store, "huge", 1000, 1);
        // The only resident entry is the one that just loaded: nothing
        // to evict, the request must still be served.
        assert_eq!(read(&store.0.names).victim(Some(10), "huge"), None);
        put(&store, "other", 5, 1);
        // Now the other entry goes, huge stays.
        assert_eq!(
            read(&store.0.names).victim(Some(10), "huge").as_deref(),
            Some("other")
        );
    }

    #[test]
    fn unstamped_entries_count_as_oldest() {
        let store = ModelStore::new();
        put(&store, "warm", 8, 99);
        put(&store, "never-touched", 8, 0);
        assert_eq!(
            read(&store.0.names).victim(Some(10), "x").as_deref(),
            Some("never-touched")
        );
    }

    #[test]
    fn totals_saturate() {
        let store = ModelStore::new();
        put(&store, "a", u64::MAX, 1);
        put(&store, "b", u64::MAX, 1);
        assert_eq!(store.resident_bytes(), u64::MAX);
    }

    #[test]
    fn store_without_directory_refuses_directory_ops() {
        let store = ModelStore::new();
        store.register("m", scikit()).expect("registers");
        assert_eq!(
            store.activate("m", 1).expect_err("no directory"),
            StoreError::NoDirectory
        );
        assert_eq!(
            store.compact().expect_err("no directory"),
            StoreError::NoDirectory
        );
        assert_eq!(
            store.rescan().expect_err("no directory"),
            StoreError::NoDirectory
        );
        assert_eq!(store.metrics(), StoreMetrics::default());
        assert!(store.warm(1).is_empty());
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
