//! End-to-end exercise of the TCP server: four concurrent client threads
//! over a loopback socket, per-request response checking, cache-hit
//! accounting, malformed-input handling, and shutdown.

use std::collections::HashSet;

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_service::client::Client;
use fedsched_service::protocol::{Placement, Response};
use fedsched_service::server::{serve, ConnectionLimits, ServerConfig, ServerHandle};
use fedsched_service::state::AdmissionConfig;

const CLIENTS: usize = 4;
const ROUNDS: usize = 25;

fn start_server(processors: u32) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        admission: AdmissionConfig::new(processors),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// The one high-density shape every client re-submits: 6 unit jobs due in
/// 2 ticks (μ* = 3). Identical shapes are the template cache's hot path.
fn wide_task() -> DagTask {
    let mut b = DagBuilder::new();
    b.add_vertices([1, 1, 1, 1, 1, 1].map(Duration::new));
    DagTask::new(b.build().unwrap(), Duration::new(2), Duration::new(10)).unwrap()
}

fn light_task() -> DagTask {
    DagTask::sequential(Duration::new(1), Duration::new(4), Duration::new(8)).unwrap()
}

#[test]
fn four_concurrent_clients_admit_query_remove() {
    // 4 clients × (3-processor cluster + 1 shared slot) stays well under 32,
    // so every admission must succeed.
    let handle = start_server(32);
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut seen_tokens = Vec::new();
                for _ in 0..ROUNDS {
                    for task in [wide_task(), light_task()] {
                        let high = task.is_high_density();
                        let (token, placement) = match client.admit(&task).unwrap() {
                            Response::Admitted {
                                token, placement, ..
                            } => (token, placement),
                            other => panic!("admit answered {other:?}"),
                        };
                        match placement {
                            Placement::Dedicated { processors, .. } => {
                                assert!(high);
                                assert_eq!(processors, 3);
                            }
                            Placement::Shared { .. } => assert!(!high),
                        }
                        match client.query(token).unwrap() {
                            Response::TaskInfo { token: t, .. } => assert_eq!(t, token),
                            other => panic!("query answered {other:?}"),
                        }
                        match client.remove(token).unwrap() {
                            Response::Removed { token: t, .. } => assert_eq!(t, token),
                            other => panic!("remove answered {other:?}"),
                        }
                        match client.query(token).unwrap() {
                            Response::NotFound { token: t } => assert_eq!(t, token),
                            other => panic!("stale query answered {other:?}"),
                        }
                        seen_tokens.push(token);
                    }
                }
                seen_tokens
            })
        })
        .collect();

    let mut all_tokens = Vec::new();
    for t in threads {
        all_tokens.extend(t.join().expect("client thread"));
    }
    // Tokens are handed out under one lock: globally unique across clients.
    let distinct: HashSet<u64> = all_tokens.iter().copied().collect();
    assert_eq!(distinct.len(), all_tokens.len());
    assert_eq!(all_tokens.len(), CLIENTS * ROUNDS * 2);

    let mut client = Client::connect(addr).expect("connect for stats");
    let snapshot = match client.stats().unwrap() {
        Response::Stats { snapshot } => snapshot,
        other => panic!("stats answered {other:?}"),
    };
    let ops = (CLIENTS * ROUNDS) as u64;
    assert_eq!(snapshot.admitted_high, ops);
    assert_eq!(snapshot.admitted_low, ops);
    assert_eq!(snapshot.removed, 2 * ops);
    assert_eq!(snapshot.resident_tasks, 0);
    assert_eq!(snapshot.dedicated_processors, 0);
    // All clients submit the same shape: one miss, everything else hits.
    assert_eq!(snapshot.cache_misses, 1);
    assert_eq!(snapshot.cache_hits, ops - 1);
    assert!(snapshot.cache_hits > 0, "cache hits must be non-zero");
    assert_eq!(snapshot.cache_entries, 1);
    assert_eq!(
        snapshot.latency_buckets_us.iter().sum::<u64>(),
        2 * ops,
        "every admit decision must be latency-sampled"
    );

    assert!(matches!(client.shutdown().unwrap(), Response::ShuttingDown));
    handle.join();
}

#[test]
fn malformed_requests_get_an_error_response() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start_server(4);
    let addr = handle.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"{this is not json\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(
        line.contains("Error"),
        "expected an Error response line, got {line:?}"
    );
    drop(raw);

    // The server survives the bad client: a well-formed client still works.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.admit(&light_task()).unwrap(),
        Response::Admitted { .. }
    ));
    assert!(matches!(client.shutdown().unwrap(), Response::ShuttingDown));
    handle.join();
}

#[test]
fn in_process_shutdown_stops_the_workers() {
    let handle = start_server(4);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.admit(&light_task()).unwrap(),
        Response::Admitted { .. }
    ));
    drop(client);
    handle.shutdown(); // joins internally; must not hang
}

#[test]
fn registered_fd_gauge_excludes_connections_in_dispatch() {
    // Connection A completes one request and idles, so its fd is back in
    // the epoll set. Connection B asks for stats: while B's response
    // renders, B is in dispatch and its fd is out of epoll, so the gauge
    // must read exactly 1. A's re-registration follows its response onto
    // the wire, hence the bounded poll.
    let handle = start_server(4);
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).expect("connect A");
    assert!(matches!(
        a.admit(&light_task()).unwrap(),
        Response::Admitted { .. }
    ));
    let mut b = Client::connect(addr).expect("connect B");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let registered = loop {
        let snapshot = match b.stats().unwrap() {
            Response::Stats { snapshot } => snapshot,
            other => panic!("stats answered {other:?}"),
        };
        let fds = snapshot.reactor.registered_fds;
        if fds == 1 || std::time::Instant::now() >= deadline {
            break fds;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(
        registered, 1,
        "the idle connection counts, the one in dispatch does not"
    );
    drop(a);
    assert!(matches!(b.shutdown().unwrap(), Response::ShuttingDown));
    handle.join();
}
