//! Control-plane integration: the admin socket under real traffic.
//!
//! Three layers of guarantee:
//!
//! 1. Every admin opcode round-trips over the socket, the socket is 0600, garbage on it gets a typed refusal (or a
//!    drop for corrupt framing) and never a stall.
//! 2. Admin churn — activate / retire / rescan / compact / status — runs
//!    concurrently with sustained inference traffic with zero protocol
//!    errors and bit-identical responses on the data plane, and a model
//!    dropped into the directory mid-run activates and serves with zero
//!    restarts.
//! 3. Every admin mutation is journaled before it applies: at any point
//!    in an admin sequence, a *fresh* store replaying the directory's WAL
//!    projects exactly the live store's state (the in-process equivalent
//!    of `kill -9` between any two operations; the real-SIGKILL leg lives
//!    in `scripts/run_loadgen.sh`).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bolt_artifact::ArtifactWriter;
use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use bolt_server::{
    AdminClient, AdminReply, AdminRequest, ClassificationClient, ModelStore, ServerBuilder,
};

/// A tiny forest whose predictions depend on `seed`, so a misrouted or
/// stale model answers with a wrong class instead of silently passing.
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

/// A unique, empty model directory per call (tests run concurrently).
fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bolt-test-admin-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create model dir");
    dir
}

fn write_artifact(dir: &std::path::Path, name: &str, version: u32, bytes: &[u8]) {
    std::fs::write(dir.join(format!("{name}@{version}.blt")), bytes).expect("write artifact");
}

/// Serving state that must agree between a live store and a WAL replay:
/// `(name, version, default?)` per live model, sorted.
fn project(store: &ModelStore) -> Vec<(String, u32, bool)> {
    let mut rows: Vec<_> = store
        .list()
        .into_iter()
        .map(|m| (m.name, m.version, m.is_default))
        .collect();
    rows.sort();
    rows
}

#[test]
fn every_admin_opcode_round_trips() {
    let dir = unique_dir("opcodes");
    write_artifact(&dir, "fraud", 1, &artifact(1, 1));
    write_artifact(&dir, "fraud", 2, &artifact(1, 2));
    let sock = dir.join("data.sock");
    let admin_sock = dir.join("admin.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .admin_socket(&admin_sock)
        .bind_uds(&sock)
        .expect("binds");
    assert_eq!(server.admin_path(), Some(admin_sock.as_path()));

    // The socket is owner-only: possession is the credential.
    {
        use std::os::unix::fs::PermissionsExt;
        let mode = std::fs::metadata(&admin_sock)
            .expect("socket")
            .permissions()
            .mode();
        assert_eq!(mode & 0o777, 0o600, "admin socket must be 0600");
    }

    let mut admin = AdminClient::connect(&admin_sock).expect("admin connects");

    // Status sees the cataloged model before any mutation.
    match admin.call(&AdminRequest::Status).expect("status") {
        AdminReply::Status(report) => {
            assert_eq!(report.models.len(), 1);
            assert_eq!(report.models[0].name, "fraud");
        }
        other => panic!("expected Status, got {other:?}"),
    }

    // Activate a newer version, make it the default.
    assert_eq!(
        admin
            .call(&AdminRequest::Activate {
                name: "fraud".into(),
                version: 2
            })
            .expect("activate"),
        AdminReply::Ok
    );
    assert_eq!(
        admin
            .call(&AdminRequest::SetDefault("fraud".into()))
            .expect("set-default"),
        AdminReply::Ok
    );

    // Drop a brand-new artifact into the directory on the *running*
    // daemon: rescan catalogs it, activate serves it — no restart.
    write_artifact(&dir, "spam", 1, &artifact(2, 1));
    match admin.call(&AdminRequest::Rescan).expect("rescan") {
        AdminReply::Rescanned(stats) => {
            assert_eq!(stats.names_added, 1);
            assert_eq!(stats.versions_added, 1);
        }
        other => panic!("expected Rescanned, got {other:?}"),
    }
    assert_eq!(
        admin
            .call(&AdminRequest::Activate {
                name: "spam".into(),
                version: 1
            })
            .expect("activate spam"),
        AdminReply::Ok
    );
    let spam_forest = forest(2);
    let mut data = ClassificationClient::connect(&sock).expect("data connects");
    for sample in [[0.0_f32, 1.0], [3.0, 2.0], [5.0, 4.0]] {
        let got = data.classify_with("spam", &sample).expect("serves");
        assert_eq!(got.class, spam_forest.predict(&sample), "bit-identical");
    }

    // Retiring the default is refused with a typed error; a
    // non-default retires cleanly and stops serving.
    match admin
        .call(&AdminRequest::Retire("fraud".into()))
        .expect("retire default")
    {
        AdminReply::Refused(e) => {
            assert_eq!(e.code, bolt_server::admin::ADMIN_ERR_DEFAULT_IN_USE)
        }
        other => panic!("expected Refused, got {other:?}"),
    }
    assert_eq!(
        admin
            .call(&AdminRequest::Retire("spam".into()))
            .expect("retire spam"),
        AdminReply::Ok
    );
    assert!(
        data.classify_with("spam", &[0.0, 1.0]).is_err(),
        "a retired model must answer a structured rejection"
    );

    // Compact prunes the superseded fraud@1 and rewrites the log.
    match admin.call(&AdminRequest::Compact).expect("compact") {
        AdminReply::Compacted(stats) => {
            assert!(stats.wal_bytes_after > 0);
        }
        other => panic!("expected Compacted, got {other:?}"),
    }

    // The stats drain accounts for the traffic this test sent.
    match admin.call(&AdminRequest::DrainStats).expect("stats") {
        AdminReply::Stats(report) => assert!(report.total.requests >= 3),
        other => panic!("expected Stats, got {other:?}"),
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_on_the_admin_socket_is_refused_or_dropped_never_stalls() {
    let dir = unique_dir("hostile");
    write_artifact(&dir, "fraud", 1, &artifact(1, 1));
    let sock = dir.join("data.sock");
    let admin_sock = dir.join("admin.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .admin_socket(&admin_sock)
        .bind_uds(&sock)
        .expect("binds");

    // Well-delimited garbage: a typed MALFORMED refusal comes back
    // and the connection keeps working for a real request after it.
    let mut stream = UnixStream::connect(&admin_sock).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let payload = [0xAB_u8; 9];
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| stream.write_all(&payload))
        .expect("write garbage");
    let reply = bolt_server::proto::read_frame(&mut stream)
        .expect("a frame, not a stall")
        .expect("a frame, not a drop");
    match AdminReply::decode(&reply).expect("typed reply") {
        AdminReply::Refused(e) => {
            assert_eq!(e.code, bolt_server::admin::ADMIN_ERR_MALFORMED);
        }
        other => panic!("expected Refused, got {other:?}"),
    }
    let framed = AdminRequest::Status.encode().expect("encodes");
    stream.write_all(&framed).expect("write status");
    let reply = bolt_server::proto::read_frame(&mut stream)
        .expect("frame")
        .expect("connection survived the garbage");
    assert!(matches!(
        AdminReply::decode(&reply).expect("decodes"),
        AdminReply::Status(_)
    ));

    // Corrupt framing (oversized declaration): the server must drop
    // the connection — EOF or reset, never a reply, never a hang.
    let mut stream = UnixStream::connect(&admin_sock).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("write corrupt framing");
    // The server may drop the connection as soon as it reads the
    // declaration, so the trailing bytes can meet a closed socket.
    let _ = stream.write_all(&[0xCD; 8]);
    let mut sink = [0u8; 16];
    match stream.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered {n} byte(s) after corrupt framing"),
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admin_churn_under_sustained_load_stays_bit_identical() {
    let dir = unique_dir("churn");
    write_artifact(&dir, "steady", 1, &artifact(3, 1));
    const CHURN_ROUNDS: u32 = 12;
    for v in 1..=CHURN_ROUNDS {
        write_artifact(&dir, "churner", v, &artifact(4, v));
    }
    let sock = dir.join("data.sock");
    let admin_sock = dir.join("admin.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .admin_socket(&admin_sock)
        .bind_uds(&sock)
        .expect("binds");

    let steady = forest(3);
    let samples: Vec<[f32; 2]> = (0..16)
        .map(|i| [(i % 6) as f32, ((i * 7) % 5) as f32])
        .collect();
    let expected: Vec<u32> = samples.iter().map(|s| steady.predict(s)).collect();

    std::thread::scope(|scope| {
        // Data plane: four workers hammer the steady model; any wrong
        // class or protocol error while admin ops run alongside fails.
        let mut workers = Vec::new();
        for w in 0..4 {
            let sock = &sock;
            let samples = &samples;
            let expected = &expected;
            workers.push(scope.spawn(move || {
                let mut client = ClassificationClient::connect(sock).expect("connects");
                for i in 0..300usize {
                    let k = (i + w) % samples.len();
                    let got = client
                        .classify_with("steady", &samples[k])
                        .expect("zero protocol errors under admin churn");
                    assert_eq!(got.class, expected[k], "bit-identical under churn");
                }
            }));
        }

        // Control plane: a full lifecycle per round — activate a fresh
        // version, retire it, rescan, compact, status — while the data
        // plane runs.
        let mut admin = AdminClient::connect(&admin_sock).expect("admin connects");
        for v in 1..=CHURN_ROUNDS {
            assert_eq!(
                admin
                    .call(&AdminRequest::Activate {
                        name: "churner".into(),
                        version: v
                    })
                    .expect("activate"),
                AdminReply::Ok,
                "round {v}"
            );
            assert_eq!(
                admin
                    .call(&AdminRequest::Retire("churner".into()))
                    .expect("retire"),
                AdminReply::Ok,
                "round {v}"
            );
            assert!(matches!(
                admin.call(&AdminRequest::Rescan).expect("rescan"),
                AdminReply::Rescanned(_)
            ));
            assert!(matches!(
                admin.call(&AdminRequest::Compact).expect("compact"),
                AdminReply::Compacted(_)
            ));
            assert!(matches!(
                admin.call(&AdminRequest::Status).expect("status"),
                AdminReply::Status(_)
            ));
        }
        for worker in workers {
            worker.join().expect("data-plane worker");
        }
    });

    // The books balance after the dust settles: 4 workers × 300 frames.
    match AdminClient::connect(&admin_sock)
        .expect("reconnects")
        .call(&AdminRequest::DrainStats)
        .expect("stats")
    {
        AdminReply::Stats(report) => assert_eq!(report.total.requests, 1200),
        other => panic!("expected Stats, got {other:?}"),
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_replay_projects_the_live_state_after_every_admin_step() {
    let dir = unique_dir("replay");
    for v in 1..=3u32 {
        write_artifact(&dir, "fraud", v, &artifact(5, v));
    }
    write_artifact(&dir, "spam", 1, &artifact(6, 1));
    let sock = dir.join("data.sock");
    let admin_sock = dir.join("admin.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .admin_socket(&admin_sock)
        .bind_uds(&sock)
        .expect("binds");
    let mut admin = AdminClient::connect(&admin_sock).expect("admin connects");

    // After *each* admin mutation the WAL on disk must already describe
    // the post-op state: a second store opening the same directory — the
    // moral equivalent of a kill -9 restart at that instant — projects
    // exactly what the live store serves.
    let steps = [
        AdminRequest::Activate {
            name: "fraud".into(),
            version: 2,
        },
        AdminRequest::SetDefault("fraud".into()),
        AdminRequest::Activate {
            name: "spam".into(),
            version: 1,
        },
        AdminRequest::Activate {
            name: "fraud".into(),
            version: 3,
        },
        AdminRequest::Retire("spam".into()),
        AdminRequest::Compact,
    ];
    for (i, step) in steps.iter().enumerate() {
        match admin.call(step).expect("admin op") {
            AdminReply::Ok | AdminReply::Compacted(_) => {}
            other => panic!("step {i} refused: {other:?}"),
        }
        let replayed = ModelStore::open(ModelStore::new(), &dir, None, 0).expect("replays");
        assert_eq!(
            project(&server.store()),
            project(&replayed),
            "step {i}: WAL replay diverged from live state"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
