//! FEDCONS, MINPROCS and the admission server's cold sizings run on the
//! calling thread: after a batch analysis and cold high-density admits
//! whose sizing windows hold several candidates, the process has no
//! `worksteal-*` pool worker, whatever `FEDSCHED_THREADS` says.
//!
//! The `fedsched-parallel` pool is built lazily, once per process, and its
//! workers live as long as the process does. This binary therefore holds
//! exactly one test: another test that built the pool would leave its
//! workers behind.

use fedsched_core::fedcons::{fedcons, FedConsConfig};
use fedsched_dag::graph::DagBuilder;
use fedsched_dag::system::TaskSystem;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_service::protocol::{Placement, Request, Response};
use fedsched_service::{serve, AdmissionConfig, ConnectionLimits, ServerConfig};

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

/// Names of this process's `fedsched-parallel` pool worker threads.
fn pool_workers() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("worksteal-"))
        .collect()
}

#[test]
fn batch_and_cold_admits_spawn_no_pool_workers() {
    let system: TaskSystem = (1..=3).map(fork_task).collect();
    let schedule = fedcons(&system, 16, FedConsConfig::default()).expect("admits");
    assert_eq!(schedule.clusters().len(), 3);
    assert!(schedule.clusters().iter().all(|c| c.processors == 3));

    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 2,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback");
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

    assert_eq!(pool_workers(), Vec::<String>::new());
    drop(session);
    handle.shutdown();
}
