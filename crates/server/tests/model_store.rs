//! Fleet-scale model store: lazy mapping, LRU eviction under a
//! resident-bytes budget, and crash recovery from the write-ahead log.
//!
//! Three layers of guarantee:
//!
//! 1. A directory of 64 artifacts serves through a budget that admits at
//!    most 8 concurrently — with zero protocol errors and responses
//!    bit-identical to the unevicted (reference forest) path, across
//!    evict/reload cycles.
//! 2. Lifecycle operations (activate / retire / set-default) survive an
//!    unclean restart: the WAL replays to the exact pre-crash registry
//!    state, tolerating torn tails and duplicate records.
//! 3. A proptest drives random lifecycle sequences and checks the live
//!    store and a fresh WAL replay project to identical state.
//!
//! And one rule: a name is in memory or directory-backed for its whole
//! life, so no in-memory operation reaches a directory name.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bolt_artifact::ArtifactWriter;
use bolt_baselines::ScikitLikeForest;
use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use bolt_server::store::{Wal, WalOp};
use bolt_server::{ClassificationClient, ModelStore, RouteError, ServerBuilder, StoreError};

/// A tiny forest whose predictions depend on `seed`, so distinct models
/// in the directory answer differently and a misrouted or stale mapping
/// shows up as a wrong class, not a silent pass.
fn forest(seed: u64) -> RandomForest {
    let rows: Vec<Vec<f32>> = (0..48)
        .map(|i| vec![(i % 6) as f32, ((i * 7) % 5) as f32])
        .collect();
    let labels: Vec<u32> = (0..48u64)
        .map(|i| (((i + seed) * (seed | 1)) % 3) as u32)
        .collect();
    let data = Dataset::from_rows(rows, labels, 3).expect("valid dataset");
    RandomForest::train(&data, &ForestConfig::new(4).with_seed(seed))
}

fn artifact(seed: u64, version: u32) -> Vec<u8> {
    let bolt = BoltForest::compile(&forest(seed), &BoltConfig::default()).expect("compiles");
    ArtifactWriter::serialize_forest_versioned(&bolt, version)
}

/// One serialized artifact, reused wherever the *content* of the file is
/// irrelevant (WAL replay tests care about names and versions, not trees).
fn stock_artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| artifact(7, 1))
}

/// A unique, empty model directory per call (tests run concurrently).
fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bolt-test-store-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create model dir");
    dir
}

fn write_artifact(dir: &std::path::Path, name: &str, version: u32, bytes: &[u8]) {
    std::fs::write(dir.join(format!("{name}@{version}.blt")), bytes).expect("write artifact");
}

/// Serving state that must survive a crash: `(name, version, default?)`
/// per live model, sorted. Retired models are absent; residency is
/// deliberately excluded (a restarted store is cold by design).
fn project(store: &ModelStore) -> Vec<(String, u32, bool)> {
    let mut rows: Vec<_> = store
        .list()
        .into_iter()
        .map(|m| (m.name, m.version, m.is_default))
        .collect();
    rows.sort();
    rows
}

const FLEET: usize = 64;
const ADMIT: usize = 8;

#[test]
fn fleet_of_64_serves_bit_identically_through_a_budget_admitting_8() {
    let dir = unique_dir("fleet");
    let samples: Vec<Vec<f32>> = (0..6)
        .map(|i| vec![(i % 6) as f32, ((i * 3) % 5) as f32])
        .collect();
    // Reference classes from the *unevicted* path: the training-time
    // forest itself, before any artifact round trip.
    let mut expected = Vec::with_capacity(FLEET);
    for i in 0..FLEET {
        let seed = 100 + i as u64;
        let f = forest(seed);
        expected.push(samples.iter().map(|s| f.predict(s)).collect::<Vec<u32>>());
        write_artifact(&dir, &format!("m{i:02}"), 1, &artifact(seed, 1));
    }
    // Budget: one byte short of the 9 smallest artifacts together, so no
    // 9 models can ever be resident at once — but comfortably above 8
    // (the artifacts are near-identical in size).
    let mut sizes: Vec<u64> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").metadata().expect("meta").len())
        .collect();
    sizes.sort_unstable();
    let budget = sizes.iter().take(ADMIT + 1).sum::<u64>() - 1;
    assert!(
        budget >= sizes[sizes.len() - 1],
        "budget {budget} must fit at least the largest single artifact"
    );

    let socket = dir.join("serve.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .resident_bytes(budget)
        .bind_uds(&socket)
        .expect("binds");
    let store = server.store();
    let mut client = ClassificationClient::connect(&socket).expect("connects");

    // Two full passes over the fleet: the first maps every artifact (and
    // evicts 56 of them along the way), the second re-maps what was
    // evicted. Every answer must match the reference forest bit-exactly.
    for pass in 0..2 {
        for (i, want) in expected.iter().enumerate() {
            let name = format!("m{i:02}");
            for (j, sample) in samples.iter().enumerate() {
                let got = client
                    .classify_with(&name, sample)
                    .unwrap_or_else(|e| panic!("pass {pass} {name} sample {j}: {e}"));
                assert_eq!(got.class, want[j], "pass {pass} {name} sample {j}");
            }
        }
        assert!(
            store.resident_bytes() <= budget,
            "pass {pass}: resident {} bytes over budget {budget}",
            store.resident_bytes()
        );
    }

    // The extended listing agrees: 64 models, at most 8 resident.
    let listing = client.list_models().expect("list").models;
    assert_eq!(listing.len(), FLEET);
    let resident = listing.iter().filter(|m| m.resident).count();
    assert!(
        (1..=ADMIT).contains(&resident),
        "expected 1..={ADMIT} resident models, got {resident}"
    );
    for m in &listing {
        assert_eq!(m.version, 1, "{}", m.name);
        assert!(m.bytes > 0, "{} reports its artifact size", m.name);
    }
    server.shutdown();
}

#[test]
fn lifecycle_survives_an_unclean_restart() {
    let dir = unique_dir("restart");
    for v in 1..=2 {
        write_artifact(&dir, "fraud", v, stock_artifact());
    }
    write_artifact(&dir, "spam", 1, stock_artifact());
    write_artifact(&dir, "old", 1, stock_artifact());

    {
        let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("opens");
        // Scan picks the newest version; roll fraud back to 1 explicitly.
        store.activate("fraud", 1).expect("rollback");
        store.set_default("spam").expect("default");
        store.retire("old").expect("retire");
        assert_eq!(
            project(&store),
            vec![("fraud".into(), 1, false), ("spam".into(), 1, true),]
        );
        // Dropped without any shutdown handshake: every op was fsync'd
        // at append time, so this models a crash.
    }

    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("reopens");
    assert_eq!(
        project(&store),
        vec![("fraud".into(), 1, false), ("spam".into(), 1, true),],
        "replayed state differs from pre-crash state"
    );
    assert!(
        matches!(store.resolve(Some("old")), Err(RouteError::RetiredModel(_))),
        "retirement survives restart"
    );
    // The default route works cold: resolving it maps spam@1 lazily.
    let handle = store.resolve(None).expect("default routes");
    assert_eq!(handle.engine().name(), "BOLT-BLT");
}

#[test]
fn torn_wal_tail_is_truncated_and_the_log_stays_writable() {
    let dir = unique_dir("torn");
    for v in 1..=2 {
        write_artifact(&dir, "fraud", v, stock_artifact());
    }
    {
        let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("opens");
        store.activate("fraud", 1).expect("rollback");
    }
    let wal_path = dir.join("registry.wal");
    let clean_len = std::fs::metadata(&wal_path).expect("wal exists").len();
    // A crash mid-append leaves a partial record: a plausible length
    // prefix with only half the payload behind it.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open wal");
        f.write_all(&[16, 0, 0, 0, 0xde, 0xad, 0xbe]).expect("tear");
    }

    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("reopens");
    assert_eq!(project(&store), vec![("fraud".into(), 1, false)]);
    assert_eq!(
        std::fs::metadata(&wal_path).expect("wal").len(),
        clean_len,
        "torn tail truncated away on replay"
    );
    // The log keeps accepting appends after truncation, and they stick.
    store.activate("fraud", 2).expect("roll forward");
    drop(store);
    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("reopens again");
    assert_eq!(project(&store), vec![("fraud".into(), 2, false)]);
}

#[test]
fn duplicate_and_superseded_wal_records_replay_idempotently() {
    let dir = unique_dir("dupes");
    for v in 1..=2 {
        write_artifact(&dir, "fraud", v, stock_artifact());
    }
    // Hand-craft a log a crashing writer could plausibly leave behind:
    // duplicated registers, a retire, then a revival of the same name.
    {
        let (mut wal, ops) = Wal::open(&dir.join("registry.wal")).expect("fresh wal");
        assert!(ops.is_empty());
        let register = |version| WalOp::Register {
            name: "fraud".into(),
            version,
        };
        for op in [
            register(1),
            register(1), // duplicate
            register(2),
            WalOp::Retire {
                name: "fraud".into(),
            },
            register(2), // retire-then-register: the name comes back
            WalOp::SetDefault {
                name: "fraud".into(),
            },
            WalOp::Register {
                name: "ghost".into(),
                version: 9, // no artifact file on disk
            },
        ] {
            wal.append(&op).expect("append");
        }
    }

    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("replays");
    assert_eq!(
        project(&store),
        vec![("fraud".into(), 2, true)],
        "last write wins; ghost (no artifact) is not served"
    );
    assert!(
        store.resolve(Some("ghost")).is_err(),
        "a register record without its artifact file must not route"
    );
    let handle = store.resolve(Some("fraud")).expect("revived model serves");
    assert_eq!(handle.engine().name(), "BOLT-BLT");
}

#[test]
fn compaction_prunes_superseded_versions_and_shrinks_the_log() {
    let dir = unique_dir("compact");
    for v in 1..=3 {
        write_artifact(&dir, "fraud", v, stock_artifact());
    }
    write_artifact(&dir, "other", 1, stock_artifact());

    let store = ModelStore::open(ModelStore::new(), &dir, None, 1).expect("opens");
    // Churn the log — roll forward through every version, then back to 1,
    // so the serving version is *not* the newest on disk.
    store.activate("fraud", 1).expect("activate");
    store.activate("fraud", 2).expect("activate");
    store.activate("fraud", 3).expect("activate");
    store.activate("fraud", 1).expect("rollback");
    store.set_default("other").expect("default");
    let wal_len = std::fs::metadata(dir.join("registry.wal"))
        .expect("wal")
        .len();

    let stats = store.compact().expect("compacts");
    // keep_versions = 1 keeps the newest version (3) plus the serving
    // version (1) wherever it sits; only fraud@2 goes.
    assert_eq!(stats.files_deleted, 1);
    assert!(dir.join("fraud@1.blt").exists());
    assert!(!dir.join("fraud@2.blt").exists());
    assert!(dir.join("fraud@3.blt").exists());
    assert_eq!(stats.wal_bytes_before, wal_len);
    assert!(
        stats.wal_bytes_after < stats.wal_bytes_before,
        "snapshot {} must be smaller than the churned log {}",
        stats.wal_bytes_after,
        stats.wal_bytes_before
    );
    drop(store);

    let store = ModelStore::open(ModelStore::new(), &dir, None, 1).expect("reopens");
    assert_eq!(
        project(&store),
        vec![("fraud".into(), 1, false), ("other".into(), 1, true)],
        "compaction must not change serving state"
    );
}

#[test]
fn compaction_with_keep_versions_zero_deletes_no_files() {
    let dir = unique_dir("keepall");
    for v in 1..=3 {
        write_artifact(&dir, "fraud", v, stock_artifact());
    }
    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("opens");
    store.activate("fraud", 3).expect("activate");
    let stats = store.compact().expect("compacts");
    assert_eq!(stats.files_deleted, 0);
    for v in 1..=3 {
        assert!(dir.join(format!("fraud@{v}.blt")).exists(), "v{v} kept");
    }
}

#[test]
fn swap_of_a_directory_name_is_refused_cold_and_resident() {
    let dir = unique_dir("swap");
    write_artifact(&dir, "a", 1, &artifact(11, 1));
    write_artifact(&dir, "b", 1, &artifact(12, 1));
    // A one-byte budget keeps only the model that loaded last resident.
    let store = ModelStore::open(ModelStore::new(), &dir, Some(1), 0).expect("opens");
    let other = Arc::new(ScikitLikeForest::from_forest(&forest(99)));
    assert_eq!(
        store.swap("a", other.clone()).expect_err("cold"),
        StoreError::Duplicate("a".into())
    );
    store.resolve(Some("a")).expect("maps");
    assert_eq!(
        store.swap("a", other).expect_err("resident"),
        StoreError::Duplicate("a".into())
    );
    // After an eviction and a reload, `a` still serves its artifact.
    store.resolve(Some("b")).expect("maps b, evicting a");
    assert_eq!(store.metrics().evictions, 1);
    let handle = store.resolve(Some("a")).expect("reloads");
    let want = forest(11);
    for i in 0..12 {
        let sample = [(i % 6) as f32, ((i * 7) % 5) as f32];
        assert_eq!(handle.engine().classify(&sample), want.predict(&sample));
    }
}

#[test]
fn retired_directory_name_is_revived_by_activate_not_register() {
    let dir = unique_dir("revive");
    write_artifact(&dir, "a", 1, stock_artifact());
    let store = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("opens");
    store.retire("a").expect("retires");
    let engine = Arc::new(ScikitLikeForest::from_forest(&forest(1)));
    assert_eq!(
        store.register("a", engine).expect_err("a directory name"),
        StoreError::Duplicate("a".into())
    );
    assert!(matches!(
        store.resolve(Some("a")),
        Err(RouteError::RetiredModel(_))
    ));
    store.activate("a", 1).expect("revives");
    store.resolve(Some("a")).expect("serves");
    store.retire("a").expect("a revived name retires again");
}

#[test]
fn open_refuses_a_base_name_that_is_also_in_the_directory() {
    let dir = unique_dir("clash");
    write_artifact(&dir, "a", 1, stock_artifact());
    let base = ModelStore::new();
    let engine = Arc::new(ScikitLikeForest::from_forest(&forest(1)));
    base.register("a", engine).expect("registers in memory");
    let err = ModelStore::open(base, &dir, None, 0).expect_err("a is in both");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

mod replay_equivalence {
    //! Random lifecycle sequences, applied live and then replayed from
    //! the WAL by a fresh store, must project to identical state —
    //! including which operations were *refused* (refusals must never
    //! reach the log, or replay would diverge).

    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
    const VERSIONS: u32 = 3;

    #[derive(Clone, Debug)]
    enum Op {
        Activate(usize, u32),
        Retire(usize),
        SetDefault(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // No prop_oneof in the vendored proptest: draw the variant
        // discriminant alongside the operands and map.
        (0..3u8, 0..NAMES.len(), 1..=VERSIONS).prop_map(|(kind, n, v)| match kind {
            0 => Op::Activate(n, v),
            1 => Op::Retire(n),
            _ => Op::SetDefault(n),
        })
    }

    proptest! {
        // Each case writes a directory and fsyncs every append; keep the
        // case count modest so the suite stays fast on spinning disks.
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn live_state_equals_replayed_state(ops in proptest::collection::vec(op(), 0..14)) {
            let dir = unique_dir("prop");
            for name in NAMES {
                for v in 1..=VERSIONS {
                    write_artifact(&dir, name, v, stock_artifact());
                }
            }
            let live = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("opens");
            for op in &ops {
                // Refusals (retiring the default, re-activating the
                // active version, retired names) are part of the
                // property: they must leave no trace in the log.
                let _ = match *op {
                    Op::Activate(n, v) => live.activate(NAMES[n], v),
                    Op::Retire(n) => live.retire(NAMES[n]),
                    Op::SetDefault(n) => live.set_default(NAMES[n]),
                };
            }
            let want = project(&live);
            let default = live.default_model();
            drop(live);

            let replayed = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("replays");
            prop_assert_eq!(project(&replayed), want);
            prop_assert_eq!(replayed.default_model(), default);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
