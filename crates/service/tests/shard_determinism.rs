//! Connection-plane determinism: the reactor and the dispatch pool are a
//! pure concurrency structure, so the *decisions* a server produces must
//! not depend on what carried the requests.
//!
//! Randomized (seeded, proptest-style) admit/remove interleavings are
//! driven sequentially — one connection, one in-flight request — and the
//! suite asserts three layers of identity:
//!
//! * the raw NDJSON response bytes, request for request;
//! * the deterministic slice of the stats snapshot (decision counters,
//!   cache traffic, the analysis probe's deterministic view);
//! * the write-ahead-log bytes on disk after shutdown.
//!
//! Sequential driving matters: concurrent clients' requests could reach
//! the ledger in a different order per run — but then the *inputs*
//! differ, which is outside this suite's claim. Same input order in,
//! same bytes out.
//!
//! The three layers are diffed between the epoll reactor over TCP and an
//! in-process [`Session`](fedsched_service::Session) on a server of the
//! same shape: one request pipeline, whatever carries the bytes. One
//! seed's three layers are also compared with a transcript pinned in
//! `tests/data/`, recorded from an earlier build of the plane, so a
//! change to the plane is judged against the builds before it, not only
//! against itself.
//!
//! A churn soak rides along for the bounded template cache: admissions
//! over more distinct shapes than the cap must pin `cache_entries` to
//! the cap and surface the overflow in `cache_evictions`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_durable::{FsyncPolicy, StoreConfig, DEFAULT_SNAPSHOT_RECORDS};
use fedsched_service::protocol::{Request, Response};
use fedsched_service::{
    serve, AdmissionConfig, ConnectionLimits, ServerConfig, ServerHandle, StatsSnapshot,
};

/// A fresh scratch directory for one durable run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-shard-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server of the suite's shape; with `dir`, durable under `--fsync
/// every`, installing a snapshot every `snapshot_records` WAL records.
fn start(cache_cap: usize, dir: Option<&PathBuf>, snapshot_records: u64) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        admission: AdmissionConfig::new(16).with_cache_cap(cache_cap),
        limits: ConnectionLimits::default(),
        durability: dir.map(|dir| StoreConfig {
            fsync: FsyncPolicy::Every,
            snapshot_every_records: snapshot_records,
            ..StoreConfig::new(dir)
        }),
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// Deterministic xorshift64 — the suite's own RNG so the interleaving
/// is stable across toolchains (no external RNG semantics involved).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A pool of distinct task shapes: sequential chains (always low
/// density), wide parallel tasks (high density when the deadline sits
/// under the volume — these claim dedicated clusters), and one
/// always-rejected arbitrary-deadline shape.
fn shape_pool(variants: usize) -> Vec<DagTask> {
    let mut pool = Vec::new();
    for i in 0..variants as u64 {
        let exec = 1 + i % 3;
        let deadline = exec + 3 + i % 5;
        let period = deadline + 2 + i % 7;
        pool.push(
            DagTask::sequential(Ticks::new(exec), Ticks::new(deadline), Ticks::new(period))
                .expect("chain shape is valid"),
        );
        let width = 2 + (i as usize) % 4;
        let mut b = DagBuilder::new();
        for v in 0..width as u64 {
            b.add_vertex(Ticks::new(2 + (i + v) % 3));
        }
        let volume: u64 = (0..width as u64).map(|v| 2 + (i + v) % 3).sum();
        // Deadline below the volume but at/above the longest vertex:
        // chain-feasible, dense enough for a dedicated cluster.
        let deadline = (volume - 1).max(4);
        pool.push(
            DagTask::new(
                b.build().expect("parallel shape builds"),
                Ticks::new(deadline),
                Ticks::new(deadline + 4 + i % 5),
            )
            .expect("parallel shape is valid"),
        );
    }
    // D > T: FEDCONS refuses outright, exercising the rejected path.
    pool.push(
        DagTask::sequential(Ticks::new(1), Ticks::new(9), Ticks::new(4))
            .expect("arbitrary-deadline shape is valid"),
    );
    pool
}

/// One request line, newline-terminated.
fn frame(request: &Request) -> String {
    let mut line = serde_json::to_string(request).expect("serialize request");
    line.push('\n');
    line
}

/// [`drive`] over a TCP connection to the server at `addr`.
fn drive_tcp(
    addr: std::net::SocketAddr,
    seed: u64,
    operations: usize,
) -> (Vec<String>, StatsSnapshot) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    drive(seed, operations, |request| {
        reader
            .get_ref()
            .write_all(frame(request).as_bytes())
            .expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        response
    })
}

/// [`drive`] over an in-process session on `handle`.
fn drive_session(
    handle: &ServerHandle,
    seed: u64,
    operations: usize,
) -> (Vec<String>, StatsSnapshot) {
    let mut session = handle.session();
    drive(seed, operations, |request| {
        String::from_utf8(session.send(frame(request).as_bytes())).expect("UTF-8 response")
    })
}

/// One sequential client run: a seeded interleaving of admits and
/// removes over the shape pool, one request in flight at a time, each
/// answered through `call`. Returns the raw response line per request
/// plus the final snapshot.
fn drive(
    seed: u64,
    operations: usize,
    mut call: impl FnMut(&Request) -> String,
) -> (Vec<String>, StatsSnapshot) {
    let mut call = |request: &Request| -> String {
        let response = call(request);
        assert!(
            response.ends_with('\n') && response.matches('\n').count() == 1,
            "expected one response line, got {response:?}"
        );
        response
    };
    let pool = shape_pool(6);
    let mut rng = XorShift::new(seed);
    let mut tokens: Vec<u64> = Vec::new();
    let mut responses = Vec::with_capacity(operations);
    for step in 0..operations {
        let roll = rng.next();
        let line = if !tokens.is_empty() && roll.is_multiple_of(4) {
            let token = tokens.remove((roll >> 32) as usize % tokens.len());
            call(&Request::Remove { token })
        } else {
            let task = pool[(roll >> 16) as usize % pool.len()].clone();
            let line = call(&Request::Admit {
                task,
                trace_id: Some(step as u64),
                echo_timing: false,
            });
            if let Response::Admitted { token, .. } =
                serde_json::from_str(&line).expect("parse response")
            {
                tokens.push(token);
            }
            line
        };
        responses.push(line);
    }
    let stats = call(&Request::Stats);
    let Response::Stats { snapshot } = serde_json::from_str(&stats).expect("parse stats") else {
        panic!("stats request answered {stats:?}");
    };
    (responses, snapshot)
}

/// The snapshot fields that must not depend on the carrier or the run.
/// Wall times, latency buckets, and the reactor counters legitimately
/// are run-dependent; everything decision-shaped is not.
fn deterministic_view(snapshot: &StatsSnapshot) -> impl PartialEq + std::fmt::Debug {
    (
        (
            snapshot.processors,
            snapshot.dedicated_processors,
            snapshot.shared_processors,
            snapshot.resident_tasks,
        ),
        (
            snapshot.admitted_high,
            snapshot.admitted_low,
            snapshot.rejected_high,
            snapshot.rejected_low,
            snapshot.removed,
            snapshot.remove_anomalies,
        ),
        (
            snapshot.cache_hits,
            snapshot.cache_misses,
            snapshot.cache_entries,
            snapshot.cache_evictions,
        ),
        snapshot.probe.deterministic(),
        (
            snapshot.durability.wal_records_appended,
            snapshot.durability.wal_bytes_appended,
        ),
    )
}

fn shutdown(addr: std::net::SocketAddr, handle: ServerHandle) {
    let mut client = fedsched_service::Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// The pinned transcript: seed `0x0D5E_ED01` driven over TCP against a
/// durable server with a cache cap of 8. It was recorded from an earlier
/// build of the plane (two shards and a second cache tier), so it pins
/// this build against that one, not only against itself.
const PINNED_TRANSCRIPT: &str = include_str!("data/shard_transcript_0d5eed01.txt");

/// One durable TCP run of `seed`, flattened to the pinned transcript's
/// layout: `view <deterministic view>`, `wal <length> <crc32>`, then the
/// response lines in request order.
fn transcript(seed: u64) -> String {
    let dir = scratch_dir(&format!("pinned-{seed:x}"));
    let handle = start(8, Some(&dir), DEFAULT_SNAPSHOT_RECORDS);
    let addr = handle.local_addr();
    let (responses, snapshot) = drive_tcp(addr, seed, 120);
    shutdown(addr, handle);
    let wal = std::fs::read(dir.join("wal.log")).expect("read wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = format!(
        "view {:?}\nwal {} {:#010x}\n",
        deterministic_view(&snapshot),
        wal.len(),
        fedsched_durable::crc32(&wal)
    );
    out.extend(responses);
    out
}

#[test]
fn decisions_stats_and_wal_match_the_pinned_transcript() {
    let pinned: Vec<&str> = PINNED_TRANSCRIPT.lines().collect();
    assert_eq!(pinned.len(), 2 + 120, "pinned transcript is truncated");
    let run = transcript(0x0D5E_ED01);
    let lines: Vec<&str> = run.lines().collect();
    assert_eq!(lines.len(), pinned.len(), "line count");
    for (at, (pinned, got)) in pinned.iter().zip(&lines).enumerate() {
        assert_eq!(
            pinned,
            got,
            "transcript line {} diverged from the pinned one",
            at + 1
        );
    }
}

#[test]
fn the_reactor_over_tcp_and_an_in_process_session_produce_identical_bytes() {
    // One pipeline, two carriers: the same seeded interleaving must
    // yield the same response bytes, the same deterministic stats view,
    // and the same WAL bytes on disk whether it arrives over a socket or
    // through a session. A snapshot every 4 records puts dozens of
    // snapshot markers in each WAL, so the WAL bytes and
    // `wal_records_appended` also pin where each marker lands: right
    // after the decision whose records crossed the threshold.
    type Run = (Vec<String>, String, Vec<u8>);
    let run = |seed: u64, in_process: bool| -> Run {
        let dir = scratch_dir(&format!("carrier-{seed:x}-{in_process}"));
        let handle = start(8, Some(&dir), 4);
        let (responses, snapshot) = if in_process {
            let driven = drive_session(&handle, seed, 120);
            handle.shutdown();
            driven
        } else {
            let addr = handle.local_addr();
            let driven = drive_tcp(addr, seed, 120);
            shutdown(addr, handle);
            driven
        };
        let wal = std::fs::read(dir.join("wal.log")).expect("read wal");
        let _ = std::fs::remove_dir_all(&dir);
        // Sanity: the interleaving exercised real traffic and snapshots.
        assert!(snapshot.durability.snapshots_written > 0);
        assert!(snapshot.admitted_high + snapshot.admitted_low > 0);
        assert!(snapshot.rejected_high + snapshot.rejected_low > 0);
        assert!(snapshot.removed > 0);
        assert!(snapshot.cache_hits > 0 && snapshot.cache_misses > 0);
        let view = format!("{:?}", deterministic_view(&snapshot));
        (responses, view, wal)
    };
    for seed in [
        0x0D5E_ED01_u64,
        0x0D5E_ED02,
        0x0D5E_ED03,
        0x0D5E_ED0C,
        0x0D5E_ED0D,
        0x0D5E_ED0E,
    ] {
        let (tcp_responses, tcp_view, tcp_wal) = run(seed, false);
        let (responses, view, wal) = run(seed, true);
        assert_eq!(
            tcp_responses, responses,
            "seed {seed:#x}: responses diverged between TCP and a session"
        );
        assert_eq!(
            tcp_view, view,
            "seed {seed:#x}: stats diverged between TCP and a session"
        );
        assert_eq!(
            tcp_wal, wal,
            "seed {seed:#x}: WAL bytes diverged between TCP and a session"
        );
    }
}

#[test]
fn churn_soak_pins_the_template_cache_to_its_cap() {
    let cap = 4usize;
    let handle = start(cap, None, DEFAULT_SNAPSHOT_RECORDS);
    let addr = handle.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let pool = shape_pool(10);
    assert!(pool.len() > cap, "soak needs more shapes than the cap");
    let mut rng = XorShift::new(0x50AC);
    let mut tokens: Vec<u64> = Vec::new();
    for round in 0..300usize {
        let line = if tokens.len() > 8 {
            let token = tokens.remove(rng.next() as usize % tokens.len());
            serde_json::to_string(&Request::Remove { token })
        } else {
            let task = pool[(rng.next() >> 8) as usize % pool.len()].clone();
            serde_json::to_string(&Request::Admit {
                task,
                trace_id: Some(round as u64),
                echo_timing: false,
            })
        }
        .expect("serialize");
        reader
            .get_ref()
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        if let Ok(Response::Admitted { token, .. }) = serde_json::from_str(&response) {
            tokens.push(token);
        }
    }

    let mut client = fedsched_service::Client::connect(addr).expect("connect for stats");
    let Ok(Response::Stats { snapshot }) = client.stats() else {
        panic!("stats failed");
    };
    assert!(
        snapshot.cache_entries <= cap as u64,
        "cache grew past its cap: {} > {cap}",
        snapshot.cache_entries
    );
    assert!(
        snapshot.cache_evictions > 0,
        "churn over {} shapes never evicted",
        pool.len()
    );
    // Memory stays pinned under churn: entries + evictions account for
    // every distinct shape that ever missed.
    assert!(snapshot.cache_misses >= snapshot.cache_evictions);
    client.shutdown().expect("shutdown");
    handle.join();
}
