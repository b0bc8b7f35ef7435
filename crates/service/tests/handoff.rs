//! Blue/green warm restarts: `handoff_from` imports the template-cache
//! section of another server's snapshot directory. These tests drive a
//! real donor server to produce snapshots, then boot receivers against
//! that directory and check what was (and was not) absorbed.

use std::path::{Path, PathBuf};

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_durable::{list_snapshots, snapshot_file_name, FsyncPolicy, StoreConfig};
use fedsched_service::client::Client;
use fedsched_service::protocol::Response;
use fedsched_service::server::{serve, ConnectionLimits, ServerConfig, ServerHandle};
use fedsched_service::state::AdmissionConfig;

/// A fresh scratch directory for one handoff test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-handoff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable donor that snapshots after every record, so the directory
/// always holds a snapshot covering everything the donor has decided.
fn start_donor(dir: &Path) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability: Some(StoreConfig {
            fsync: FsyncPolicy::Every,
            snapshot_every_records: 1,
            ..StoreConfig::new(dir)
        }),
        handoff_from: None,
    })
    .expect("bind donor")
}

fn start_receiver(handoff_from: Option<PathBuf>, durability: Option<StoreConfig>) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability,
        handoff_from,
    })
    .expect("bind receiver")
}

/// A high-density shape (6 unit jobs due in 2 ticks, μ* = 3): only these
/// run `MINPROCS`, so only these populate the template cache.
fn wide_task() -> DagTask {
    let mut b = DagBuilder::new();
    b.add_vertices([1, 1, 1, 1, 1, 1].map(Ticks::new));
    DagTask::new(b.build().unwrap(), Ticks::new(2), Ticks::new(10)).unwrap()
}

/// A second, distinct high-density shape (8 unit jobs due in 2 ticks).
fn wider_task() -> DagTask {
    let mut b = DagBuilder::new();
    b.add_vertices([1, 1, 1, 1, 1, 1, 1, 1].map(Ticks::new));
    DagTask::new(b.build().unwrap(), Ticks::new(2), Ticks::new(10)).unwrap()
}

fn admit(client: &mut Client, task: &DagTask) -> u64 {
    match client.admit(task).expect("admit transport") {
        Response::Admitted { token, .. } => token,
        other => panic!("admit answered {other:?}"),
    }
}

fn stats(client: &mut Client) -> fedsched_service::stats::StatsSnapshot {
    match client.stats().expect("stats transport") {
        Response::Stats { snapshot } => snapshot,
        other => panic!("stats answered {other:?}"),
    }
}

/// Drives `task` through a donor on `dir` so its sizing lands in a
/// snapshot, then shuts the donor down.
fn seed_donor(dir: &Path, tasks: &[DagTask]) {
    let donor = start_donor(dir);
    let mut client = Client::connect(donor.local_addr()).expect("connect donor");
    for task in tasks {
        admit(&mut client, task);
    }
    drop(client);
    donor.shutdown();
    assert!(
        !list_snapshots(dir)
            .expect("list donor snapshots")
            .is_empty(),
        "donor must leave at least one snapshot behind"
    );
}

#[test]
fn handoff_imports_the_donor_template_cache() {
    let dir = scratch_dir("import");
    seed_donor(&dir, &[wide_task()]);

    let handle = start_receiver(Some(dir.clone()), None);
    assert_eq!(
        handle.handoff_absorbed(),
        Some(1),
        "the donor sized exactly one shape"
    );

    // First sight of the donor's shape on the receiver must already hit.
    let mut client = Client::connect(handle.local_addr()).expect("connect receiver");
    admit(&mut client, &wide_task());
    let snap = stats(&mut client);
    assert_eq!((snap.cache_hits, snap.cache_misses), (1, 0));
    assert_eq!(snap.cache_entries, 1);
    // Imported warmth is cache-only: no placements or tokens came along.
    assert_eq!(snap.resident_tasks, 1);
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_donor_directory_imports_nothing() {
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let handle = start_receiver(Some(dir.clone()), None);
    assert_eq!(handle.handoff_absorbed(), Some(0));

    // The receiver still works from cold.
    let mut client = Client::connect(handle.local_addr()).expect("connect receiver");
    admit(&mut client, &wide_task());
    let snap = stats(&mut client);
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 1));
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_donor_directory_is_a_boot_error() {
    let dir = scratch_dir("missing"); // never created
    let err = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: Some(dir),
    });
    assert!(err.is_err(), "a nonexistent handoff dir must fail loudly");
}

#[test]
fn damaged_newest_snapshot_falls_back_to_an_older_one() {
    let dir = scratch_dir("damaged");
    seed_donor(&dir, &[wide_task()]);

    // Plant a damaged snapshot *newer* than the donor's real one; the
    // import must skip it and fall back to the older, loadable snapshot.
    let seqs = list_snapshots(&dir).expect("list donor snapshots");
    let newest = *seqs.last().unwrap();
    std::fs::write(dir.join(snapshot_file_name(newest + 1)), b"garbage").unwrap();

    let handle = start_receiver(Some(dir.clone()), None);
    assert_eq!(
        handle.handoff_absorbed(),
        Some(1),
        "the older snapshot must still supply the donor's shape"
    );

    let mut client = Client::connect(handle.local_addr()).expect("connect receiver");
    admit(&mut client, &wide_task());
    let snap = stats(&mut client);
    assert_eq!(
        (snap.cache_hits, snap.cache_misses),
        (1, 0),
        "the first donor shape must have survived the fallback"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_receiver_restarts_cleanly_after_a_handoff() {
    let donor_dir = scratch_dir("durable-donor");
    let recv_dir = scratch_dir("durable-recv");
    seed_donor(&donor_dir, &[wide_task()]);

    // A durable receiver warm-starts from the donor, then takes decisions
    // whose logged `cache_hit` flags depend on the imported warmth. The
    // handoff path compacts immediately after absorbing, so a crash
    // recovery replays from a snapshot that already contains the import —
    // without that, replaying the hit-flagged decision from a cold cache
    // would be detected as divergence and refuse to boot.
    let token;
    {
        let handle = start_receiver(
            Some(donor_dir.clone()),
            Some(StoreConfig {
                fsync: FsyncPolicy::Every,
                ..StoreConfig::new(&recv_dir)
            }),
        );
        assert_eq!(handle.handoff_absorbed(), Some(1));
        let mut client = Client::connect(handle.local_addr()).expect("connect receiver");
        token = admit(&mut client, &wide_task()); // a hit only thanks to the import
        admit(&mut client, &wider_task()); // a genuine miss, logged as such
        let snap = stats(&mut client);
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        drop(client);
        handle.shutdown();
    }

    // Restart on the same data directory, no handoff this time: replay
    // must accept the logged decisions and reproduce the exact state.
    let handle = start_receiver(None, Some(StoreConfig::new(&recv_dir)));
    assert_eq!(handle.handoff_absorbed(), None);
    let mut client = Client::connect(handle.local_addr()).expect("reconnect receiver");
    match client.query(token).expect("query transport") {
        Response::TaskInfo { token: t, .. } => assert_eq!(t, token),
        other => panic!("query answered {other:?}"),
    }
    let snap = stats(&mut client);
    assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
    assert_eq!(snap.cache_entries, 2);
    assert_eq!(snap.resident_tasks, 2);
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&donor_dir);
    let _ = std::fs::remove_dir_all(&recv_dir);
}
