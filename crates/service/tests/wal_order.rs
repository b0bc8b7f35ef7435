//! The WAL under concurrent durable writers, and the quiet-log sync.
//!
//! Online admission is order-sensitive (the paper's Fig. 4 first fit), so
//! recovery re-executes the WAL in decision order and must land on the
//! state the live server held. Here four clients write at once to a
//! durable server with four dispatch workers and a 16-record snapshot
//! threshold, so decisions, appends and snapshot installs interleave;
//! after shutdown the data directory must recover to the live state.
//!
//! An interval fsync policy must also sync a quiet log: an acknowledged
//! decision reaches the disk within about one interval even when no later
//! request arrives to check the deadline on append.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_durable::{
    DurableStore, FsyncPolicy, PersistedState, StoreConfig, DEFAULT_SNAPSHOT_RECORDS,
};
use fedsched_service::protocol::Response;
use fedsched_service::{
    recover_state, serve, AdmissionConfig, Client, ConnectionLimits, ServerConfig, ServerHandle,
};

/// Concurrent client connections, and dispatch workers to serve them.
const CLIENTS: u64 = 4;
/// Servers started per fsync policy, each with fresh seeds: one
/// interleaving can happen to hide an ordering fault.
const ROUNDS: u64 = 10;
/// Operations each client makes.
const OPERATIONS: usize = 150;
/// Tokens a client holds before it only removes.
const HELD_MAX: usize = 8;

/// A fresh scratch directory for one durable run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-wal-order-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path, fsync: FsyncPolicy, snapshot_records: u64) -> StoreConfig {
    StoreConfig {
        fsync,
        snapshot_every_records: snapshot_records,
        ..StoreConfig::new(dir)
    }
}

fn start(store: StoreConfig, workers: usize) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability: Some(store),
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// Deterministic xorshift64, so each client's operations are seeded.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Low-density chain `i` of twelve: utilization between 1/23 and 1/4.
fn chain(i: u64) -> DagTask {
    let deadline = 8 + i % 5;
    DagTask::sequential(
        Ticks::new(1 + i % 3),
        Ticks::new(deadline),
        Ticks::new(deadline + 4 + i % 7),
    )
    .expect("chain shape is valid")
}

/// High-density shape `k` of six: 3 to 5 independent vertices due in
/// half their volume, so each claims a dedicated cluster. The first admit
/// of a shape sizes it cold; later ones hit the template cache.
fn wide(k: u64) -> DagTask {
    let wcet = 2 + k % 2;
    let width = 3 + k % 3;
    let mut b = DagBuilder::new();
    for _ in 0..width {
        b.add_vertex(Ticks::new(wcet));
    }
    let deadline = (wcet * width / 2).max(wcet);
    DagTask::new(
        b.build().expect("wide shape builds"),
        Ticks::new(deadline),
        Ticks::new(deadline + 4 + k),
    )
    .expect("wide shape is valid")
}

/// What one client's run decided: admits, rejections and removes.
#[derive(Debug, Default)]
struct Tally {
    admitted: u64,
    rejected: u64,
    removed: u64,
}

/// One closed-loop client: seeded admits of chains and, one step in
/// five, a wide shape, plus removes of its own tokens.
fn client_run(addr: SocketAddr, seed: u64) -> Tally {
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = XorShift(seed | 1);
    let mut held: Vec<u64> = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..OPERATIONS {
        let roll = rng.next();
        if !held.is_empty() && (held.len() >= HELD_MAX || roll.is_multiple_of(3)) {
            let token = held.swap_remove((roll >> 32) as usize % held.len());
            let response = client.remove(token).expect("remove");
            assert!(
                matches!(response, Response::Removed { .. }),
                "remove {token}: {response:?}"
            );
            tally.removed += 1;
            continue;
        }
        let task = if roll % 5 == 1 {
            wide((roll >> 8) % 6)
        } else {
            chain((roll >> 8) % 12)
        };
        match client.admit(&task).expect("admit") {
            Response::Admitted { token, .. } => {
                held.push(token);
                tally.admitted += 1;
            }
            Response::Rejected { .. } => tally.rejected += 1,
            other => panic!("admit answered {other:?}"),
        }
    }
    tally
}

/// The parts of an exported state that recovery must reproduce: all but
/// the format version, the configuration echo, and the wall-clock fields
/// (the latency histogram and the probe's timings).
fn replayable(state: PersistedState) -> impl PartialEq + std::fmt::Debug {
    let mut stats = state.stats;
    stats.latency_buckets_us.clear();
    (
        state.next_token,
        state.clusters,
        state.shared,
        state.cache,
        stats,
        state.probe.deterministic(),
    )
}

/// One round: four concurrent clients against a fresh durable server,
/// then recovery of its data directory compared with the live state.
fn concurrent_round(fsync: FsyncPolicy, round: u64) {
    let dir = scratch_dir(&format!("{fsync:?}-{round}"));
    let config = store_config(&dir, fsync, 16);
    let handle = start(config.clone(), CLIENTS as usize);
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let seed = 0x0A1D_0000 + round * CLIENTS + c;
            std::thread::spawn(move || client_run(addr, seed))
        })
        .collect();
    let tallies: Vec<Tally> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    // Every answer came after its decision's append (and any snapshot
    // it triggered), so the live state is what the journal must hold.
    let live = handle.state().lock().expect("ledger").export();
    handle.shutdown();

    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let mix = [sum(|t| t.admitted), sum(|t| t.rejected), sum(|t| t.removed)];
    assert!(
        mix.iter().all(|&n| n > 0),
        "{fsync:?} round {round}: {tallies:?}"
    );
    assert!(live.stats.cache_hits > 0 && live.stats.cache_misses > 0);

    let (_store, recovered) = DurableStore::open(config).expect("reopen the journal");
    assert!(
        recovered.snapshot_seq.is_some(),
        "{fsync:?} round {round}: the run installed no snapshot"
    );
    let (state, _) = recover_state(AdmissionConfig::new(16), &recovered)
        .unwrap_or_else(|e| panic!("{fsync:?} round {round}: the journal does not replay: {e:?}"));
    assert_eq!(
        replayable(state.export()),
        replayable(live),
        "{fsync:?} round {round}: recovery diverged from the live state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_durable_writers_recover_to_the_live_state() {
    for round in 0..ROUNDS {
        for fsync in [FsyncPolicy::Never, FsyncPolicy::Every] {
            concurrent_round(fsync, round);
        }
    }
}

#[test]
fn an_interval_policy_syncs_a_quiet_log() {
    const INTERVAL: Duration = Duration::from_secs(1);
    let dir = scratch_dir("quiet");
    let booted = Instant::now();
    let handle = start(
        store_config(
            &dir,
            FsyncPolicy::Interval(INTERVAL),
            DEFAULT_SNAPSHOT_RECORDS,
        ),
        1,
    );
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let fsyncs = |client: &mut Client| match client.stats().expect("stats") {
        Response::Stats { snapshot } => snapshot.durability.wal_fsyncs,
        other => panic!("stats answered {other:?}"),
    };
    let response = client.admit(&chain(0)).expect("admit");
    assert!(
        matches!(response, Response::Admitted { .. }),
        "{response:?}"
    );
    let acked = Instant::now();
    let first = fsyncs(&mut client);
    // The log was opened after `booted`, so its deadline cannot have
    // passed yet unless the host stalled for a whole interval.
    assert!(
        first == 0 || booted.elapsed() >= INTERVAL,
        "an append inside the interval synced ({first} fsyncs)"
    );
    // No further decision: only the server's own timer can sync now.
    while fsyncs(&mut client) == 0 {
        assert!(
            acked.elapsed() < 3 * INTERVAL,
            "a quiet log still owed its sync {:?} after the ack",
            acked.elapsed()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
