//! FEDCONS, MINPROCS and the admission server's cold sizings run on the
//! calling thread: after a batch analysis and cold high-density admits
//! whose sizing windows hold several candidates, the process has no
//! `worksteal-*` pool worker, whatever `FEDSCHED_THREADS` says.
//!
//! The same census counts the server's own crew: one reactor, which
//! accepts its own connections, so no acceptor thread, and `workers`
//! dispatch workers, plus one WAL thread, the flusher, only for a durable
//! server under `--fsync interval:<ms>`. The dispatch workers journal
//! their own decisions, so a memory-only server and a durable one under
//! `--fsync every` start no WAL thread at all.
//!
//! The `fedsched-parallel` pool is built lazily, once per process, and its
//! workers live as long as the process does. This binary therefore holds
//! exactly one test: another test that built the pool would leave its
//! workers behind, and another server would add its threads to the
//! census; its servers run one at a time.

use fedsched_core::fedcons::{fedcons, FedConsConfig};
use fedsched_dag::graph::DagBuilder;
use fedsched_dag::system::TaskSystem;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_durable::{FsyncPolicy, StoreConfig};
use fedsched_service::protocol::{Placement, Request, Response};
use fedsched_service::{serve, AdmissionConfig, ConnectionLimits, ServerConfig, ServerHandle};

/// Dispatch workers of the server under test.
const WORKERS: usize = 2;

/// Two independent vertices of WCET `3k` beside a chain of three `2k`
/// vertices, due in `7k`: `⌈δ⌉ = 2` and the bracket caps the window at 5,
/// so MINPROCS sweeps {2, 3, …} and stops at μ = 3. Each `k` is a distinct
/// shape, so each admit is a template-cache miss.
fn fork_task(k: u64) -> DagTask {
    let mut b = DagBuilder::new();
    let v = b.add_vertices([3 * k, 3 * k, 2 * k, 2 * k, 2 * k].map(Duration::new));
    b.add_edge(v[2], v[3]).unwrap();
    b.add_edge(v[3], v[4]).unwrap();
    DagTask::new(
        b.build().unwrap(),
        Duration::new(7 * k),
        Duration::new(10 * k),
    )
    .unwrap()
}

/// This process's thread names, as the kernel keeps them: cut to 15
/// bytes, so `fedsched-reactor` reads `fedsched-reacto`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// How many of this process's threads carry each server-thread prefix,
/// and the names of any `fedsched-parallel` pool workers.
fn census() -> ([usize; 4], Vec<String>) {
    let names = thread_names();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    let crew = [
        count("fedsched-reacto"),
        count("fedsched-accept"),
        count("fedsched-dispat"),
        count("fedsched-wal-"),
    ];
    let pool = names
        .into_iter()
        .filter(|n| n.starts_with("worksteal-"))
        .collect();
    (crew, pool)
}

/// A server of the census's shape, durable when given a store.
fn start(durability: Option<StoreConfig>) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability,
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// Waits until the census reads `expected` server threads (a thread
/// takes its name once it starts running, so a freshly spawned one gets a
/// moment), then asserts it, and that no pool worker exists.
fn assert_census(expected: [usize; 4]) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let (crew, pool) = loop {
        let (crew, pool) = census();
        if crew == expected || std::time::Instant::now() >= deadline {
            break (crew, pool);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(
        crew,
        expected,
        "[reactor, acceptors, dispatchers, WAL] threads of {:?}",
        thread_names()
    );
    assert_eq!(pool, Vec::<String>::new());
}

#[test]
fn batch_and_cold_admits_spawn_no_pool_workers() {
    let system: TaskSystem = (1..=3).map(fork_task).collect();
    let schedule = fedcons(&system, 16, FedConsConfig::default()).expect("admits");
    assert_eq!(schedule.clusters().len(), 3);
    assert!(schedule.clusters().iter().all(|c| c.processors == 3));

    let handle = start(None);
    let mut session = handle.session();
    for k in 4..=6 {
        let mut line = serde_json::to_string(&Request::Admit {
            task: fork_task(k),
            trace_id: None,
            echo_timing: false,
        })
        .expect("serialize request");
        line.push('\n');
        let bytes = session.send(line.as_bytes());
        let text = std::str::from_utf8(&bytes).expect("UTF-8 response");
        let response: Response = serde_json::from_str(text.trim_end()).expect("one response");
        assert!(
            matches!(
                response,
                Response::Admitted {
                    placement: Placement::Dedicated { processors: 3, .. },
                    cache_hit: false,
                    ..
                }
            ),
            "cold admit of shape {k} answered {response:?}"
        );
    }

    assert_census([1, 0, WORKERS, 0]);
    drop(session);
    handle.shutdown();

    // Durable servers, one at a time: only the interval policy owes a
    // quiet log a timed sync, so only it starts the WAL flusher.
    for (fsync, wal_threads) in [
        (FsyncPolicy::Every, 0),
        (FsyncPolicy::Interval(std::time::Duration::from_secs(1)), 1),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "fedsched-no-pool-{}-{}",
            wal_threads,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(Some(StoreConfig {
            fsync,
            ..StoreConfig::new(&dir)
        }));
        assert_census([1, 0, WORKERS, wal_threads]);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
