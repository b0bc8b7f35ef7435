//! Fault-injection suite: drives hostile and overloaded traffic —
//! slowloris trickles, newline-free floods, garbage bytes, partial
//! writes, mid-request disconnects, connection hogs — against a real
//! server over loopback and asserts the hardening layer holds: bounded
//! memory, bounded time, fast `Busy` rejections, drain-based shutdown,
//! and a counter incremented for every failure mode.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_durable::{DurableStore, FsyncPolicy, StoreConfig};
use fedsched_service::chaos::ChaosClient;
use fedsched_service::client::{Client, ClientConfig};
use fedsched_service::protocol::{write_message, Placement, Response};
use fedsched_service::recover_state;
use fedsched_service::server::{
    serve, ConnectionLimits, ServerConfig, ServerHandle, TransportCounters,
};
use fedsched_service::state::{AdmissionConfig, AdmissionState};
use fedsched_service::stats::TransportStats;

fn start_server(limits: ConnectionLimits) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        admission: AdmissionConfig::new(16).with_telemetry(256),
        limits,
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// A fresh scratch directory for one durability test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_durable_server(dir: &std::path::Path) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        admission: AdmissionConfig::new(16).with_telemetry(256),
        limits: ConnectionLimits::default(),
        durability: Some(StoreConfig {
            fsync: FsyncPolicy::Every,
            ..StoreConfig::new(dir)
        }),
        handoff_from: None,
    })
    .expect("bind loopback with durability")
}

fn task() -> DagTask {
    DagTask::sequential(Ticks::new(1), Ticks::new(4), Ticks::new(8)).expect("valid task")
}

/// Polls the transport counters until `pred` holds or five seconds pass.
fn wait_for(counters: &TransportCounters, pred: impl Fn(&TransportStats) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if pred(&counters.snapshot()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slowloris_clients_strike_out_and_cannot_starve_admissions() {
    let handle = start_server(ConnectionLimits {
        io_timeout: Some(Duration::from_millis(150)),
        idle_strikes: 2,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // Four attackers trickle bytes with pauses beyond the read deadline,
    // never completing a request line.
    let attackers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut chaos = ChaosClient::connect(addr).expect("attacker connect");
                chaos.trickle(b"{\"Admit\":{\"task\":", Duration::from_millis(400));
            })
        })
        .collect();

    // While the attack runs, a well-formed client's admissions go through.
    let mut client = Client::connect(addr).expect("client connect");
    for _ in 0..10 {
        assert!(
            matches!(client.admit(&task()).unwrap(), Response::Admitted { .. }),
            "admissions must not starve under slowloris load"
        );
    }

    // Every attacker eventually times out repeatedly and is dropped.
    assert!(
        wait_for(&counters, |t| t.read_timeouts >= 1),
        "trickle pauses beyond the deadline must register as read timeouts"
    );
    assert!(
        wait_for(&counters, |t| t.connections_timed_out >= 4),
        "all four slowloris connections must strike out, got {:?}",
        counters.snapshot()
    );
    for attacker in attackers {
        attacker.join().expect("attacker thread");
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn newline_free_floods_are_rejected_with_bounded_memory() {
    let handle = start_server(ConnectionLimits {
        max_frame_bytes: 64 * 1024,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // A 10 MiB stream with no newline: the server must give up after the
    // 64 KiB frame cap, not buffer the flood.
    let mut chaos = ChaosClient::connect(addr).expect("flood connect");
    chaos
        .set_io_timeout(Some(Duration::from_millis(500)))
        .expect("set deadline");
    let written = chaos.flood(b'a', 10 * 1024 * 1024);
    assert!(written > 64 * 1024, "the flood outran the frame cap");
    assert!(
        wait_for(&counters, |t| t.oversized_requests == 1),
        "the flood must register exactly one oversized rejection, got {:?}",
        counters.snapshot()
    );
    // Best-effort: the framed Error may be lost to the connection reset,
    // but the drain must terminate either way.
    let _ = chaos.drain_within(Duration::from_millis(500));
    drop(chaos);

    // The server survives with memory to spare: normal service continues.
    let mut client = Client::connect(addr).expect("client connect");
    assert!(matches!(
        client.admit(&task()).unwrap(),
        Response::Admitted { .. }
    ));
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_silent_clients_connected() {
    let handle = start_server(ConnectionLimits {
        io_timeout: Some(Duration::from_millis(200)),
        idle_strikes: 50, // never strike out during the test
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // Three clients connect and go silent; a fourth stalls mid-request.
    let silent: Vec<_> = (0..3)
        .map(|_| ChaosClient::connect(addr).expect("silent connect"))
        .collect();
    let mut partial = ChaosClient::connect(addr).expect("partial connect");
    partial.send(b"{\"Admit\"").expect("partial write");
    assert!(
        wait_for(&counters, |t| t.connections_served == 4),
        "all four connections must reach their handlers"
    );

    // Shutdown must terminate despite the held-open connections: every
    // handler wakes within one read deadline, observes the flag, exits.
    let (tx, rx) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        let started = Instant::now();
        handle.shutdown();
        tx.send(started.elapsed()).expect("report elapsed");
    });
    let elapsed = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown() must return with silent clients connected");
    assert!(
        elapsed < Duration::from_secs(6),
        "drain took {elapsed:?}, beyond the deadline bound"
    );
    shutdown.join().expect("shutdown thread");
    assert!(
        counters.snapshot().drained_connections >= 3,
        "the drain must be visible in the counters, got {:?}",
        counters.snapshot()
    );
    drop(silent);
    drop(partial);
}

#[test]
fn over_capacity_connections_get_a_fast_busy_and_clients_retry_through() {
    let handle = start_server(ConnectionLimits {
        max_connections: 1,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // The hog occupies the only permit; a completed request/response pair
    // proves its handler is live before we probe.
    let mut hog = ChaosClient::connect(addr).expect("hog connect");
    hog.send(b"\"Stats\"\n").expect("hog request");
    assert!(
        hog.read_line_within(Duration::from_secs(2))
            .expect("hog read")
            .is_some(),
        "the hog's handler must be serving"
    );

    // A raw probe is turned away with a framed Busy, fast — no deadline
    // expiry involved.
    let mut probe = ChaosClient::connect(addr).expect("probe connect");
    let started = Instant::now();
    let line = probe
        .read_line_within(Duration::from_secs(2))
        .expect("probe read")
        .expect("probe must get a response, not silence");
    assert!(line.contains("Busy"), "expected a Busy line, got {line:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "Busy must be fast, took {:?}",
        started.elapsed()
    );

    // A hardened client retries through the saturation once the hog leaves.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(hog);
    });
    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            busy_retries: 20,
            backoff_base: Duration::from_millis(30),
            ..ClientConfig::default()
        },
    )
    .expect("client connect");
    assert!(
        matches!(client.admit(&task()).unwrap(), Response::Admitted { .. }),
        "the Busy retry must land once capacity frees up"
    );
    assert!(
        counters.snapshot().busy_rejections >= 1,
        "rejections must be counted, got {:?}",
        counters.snapshot()
    );
    drop(client);
    handle.shutdown();
}

/// Whether `line` is a framed `Busy` response.
fn is_busy(line: &str) -> bool {
    line.starts_with("{\"Busy\"")
}

#[test]
fn busy_only_when_max_conns_connections_are_live() {
    // One gate of two permits: two hogs hold both, so a third connection
    // hears Busy. Once a hog leaves, a new client is served, and the next
    // one hears Busy again.
    let handle = start_server(ConnectionLimits {
        io_timeout: Some(Duration::from_secs(2)),
        max_connections: 2,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    let mut hogs = Vec::new();
    for i in 0..2 {
        let mut hog = ChaosClient::connect(addr).expect("hog connect");
        hog.send(b"\"Stats\"\n").expect("hog request");
        assert!(
            hog.read_line_within(Duration::from_secs(2))
                .expect("hog read")
                .is_some(),
            "hog {i} must be serving"
        );
        hogs.push(hog);
    }

    // Both permits are held: a fast framed Busy.
    let mut probe = ChaosClient::connect(addr).expect("probe connect");
    let line = probe
        .read_line_within(Duration::from_secs(2))
        .expect("probe read")
        .expect("a full server must answer, not hang");
    assert!(is_busy(&line), "expected Busy, got {line:?}");

    // One hog leaves; its permit returns to the one gate and serves a
    // new client within 5 s.
    drop(hogs.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    let newcomer = loop {
        let mut client = ChaosClient::connect(addr).expect("newcomer connect");
        client.send(b"\"Stats\"\n").expect("newcomer request");
        let line = client
            .read_line_within(Duration::from_secs(2))
            .expect("newcomer read")
            .expect("the newcomer must get an answer, not silence");
        if !is_busy(&line) {
            break client;
        }
        assert!(
            Instant::now() < deadline,
            "the freed permit must serve a new client within 5 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // Two connections are live again: the next client hears Busy.
    let mut next = ChaosClient::connect(addr).expect("next connect");
    let line = next
        .read_line_within(Duration::from_secs(2))
        .expect("next read")
        .expect("a full server must answer, not hang");
    assert!(is_busy(&line), "expected Busy, got {line:?}");
    let transport = counters.snapshot();
    assert!(
        transport.busy_rejections >= 2,
        "both full-capacity rejections must be counted, got {transport:?}"
    );

    drop(newcomer);
    drop(hogs);
    drop(probe);
    drop(next);
    handle.shutdown();
}

#[test]
fn a_trickling_busy_client_lingers_at_most_one_deadline() {
    // One served slot, one hog. A rejected client that writes a byte
    // every 50 ms keeps its linger fed; the linger still ends at one
    // deadline, so the listener, out of the epoll set while the one
    // allowed rejected socket lingers, takes the next client, which hears
    // Busy at once.
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        admission: AdmissionConfig::new(16),
        limits: ConnectionLimits {
            max_connections: 1,
            ..ConnectionLimits::default()
        },
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback");
    let addr = handle.local_addr();

    let mut hog = ChaosClient::connect(addr).expect("hog connect");
    hog.send(b"\"Stats\"\n").expect("hog request");
    assert!(
        hog.read_line_within(Duration::from_secs(2))
            .expect("hog read")
            .is_some(),
        "the hog's connection must be serving"
    );

    let mut trickler = ChaosClient::connect(addr).expect("trickler connect");
    let trickle =
        std::thread::spawn(move || trickler.trickle(&[b' '; 60], Duration::from_millis(50)));
    // Let the reactor reach the trickler's linger.
    std::thread::sleep(Duration::from_millis(200));

    let mut third = ChaosClient::connect(addr).expect("third connect");
    let line = third
        .read_line_within(Duration::from_secs(1))
        .expect("the third client must hear Busy within 1 s")
        .expect("the third client must get an answer, not a close");
    assert!(is_busy(&line), "expected Busy, got {line:?}");

    let _ = trickle.join();
    drop(hog);
    drop(third);
    handle.shutdown();
}

#[test]
fn rejected_clients_that_never_read_or_close_each_hear_one_busy() {
    // One served slot, one hog. Five rejected clients send a partial line
    // and then neither read nor close, so each rejection lingers its full
    // deadline. One rejected socket lingers at a time; the backlog holds
    // the rest, and every one still hears its Busy, while the hog keeps
    // being served.
    let handle = start_server(ConnectionLimits {
        max_connections: 1,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    let mut hog = ChaosClient::connect(addr).expect("hog connect");
    let hog_stats = |hog: &mut ChaosClient| {
        let started = Instant::now();
        hog.send(b"\"Stats\"\n").expect("hog request");
        let line = hog
            .read_line_within(Duration::from_secs(1))
            .expect("the hog's Stats must be answered within 1 s")
            .expect("the hog must get an answer, not a close");
        assert!(
            line.starts_with("{\"Stats\""),
            "expected Stats, got {line:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(1));
    };
    hog_stats(&mut hog);

    let started = Instant::now();
    let mut rejected: Vec<ChaosClient> = (0..5)
        .map(|_| {
            let mut client = ChaosClient::connect(addr).expect("rejected connect");
            client.send(b"{\"Admit\":{").expect("partial line");
            client
        })
        .collect();
    for client in &mut rejected {
        let left = Duration::from_secs(2).saturating_sub(started.elapsed());
        let line = client
            .read_line_within(left)
            .expect("each rejected client must hear Busy within 2 s")
            .expect("a rejected client must get an answer, not a close");
        assert!(is_busy(&line), "expected Busy, got {line:?}");
        hog_stats(&mut hog);
    }
    for client in &mut rejected {
        assert_eq!(
            client
                .read_line_within(Duration::from_secs(2))
                .expect("the linger must end in a clean close"),
            None,
            "exactly one line per rejected client"
        );
    }
    assert!(
        wait_for(&counters, |t| t.busy_rejections == 5),
        "all five rejections must be counted, got {:?}",
        counters.snapshot()
    );
    hog_stats(&mut hog);

    drop(rejected);
    drop(hog);
    handle.shutdown();
}

#[test]
fn garbage_partial_writes_and_disconnects_leave_the_server_serving() {
    let handle = start_server(ConnectionLimits::default());
    let addr = handle.local_addr();
    let counters = handle.transport();

    // Garbage bytes (not even UTF-8) on a complete line: framed Error.
    let mut garbage = ChaosClient::connect(addr).expect("garbage connect");
    garbage
        .send(b"\x00\xff\xfe total garbage\n")
        .expect("garbage send");
    let line = garbage
        .read_line_within(Duration::from_secs(2))
        .expect("garbage read")
        .expect("garbage must be answered before the drop");
    assert!(line.contains("Error"), "expected Error, got {line:?}");

    // Valid UTF-8, invalid JSON: also a framed Error.
    let mut notjson = ChaosClient::connect(addr).expect("notjson connect");
    notjson.send(b"{this is not json\n").expect("notjson send");
    let line = notjson
        .read_line_within(Duration::from_secs(2))
        .expect("notjson read")
        .expect("malformed JSON must be answered");
    assert!(line.contains("Error"), "expected Error, got {line:?}");

    // A mid-request disconnect (partial line, then write-side close) is
    // dropped quietly — no response, no handler wedge.
    let mut dropped = ChaosClient::connect(addr).expect("dropped connect");
    dropped.send(b"{\"Admit\":{\"task\"").expect("partial send");
    dropped.disconnect_write().expect("half close");
    assert_eq!(
        dropped
            .read_line_within(Duration::from_secs(2))
            .expect("dropped read"),
        None,
        "a mid-request disconnect gets EOF, not a response"
    );

    assert!(
        wait_for(&counters, |t| t.malformed_requests >= 2),
        "both malformed requests must be counted, got {:?}",
        counters.snapshot()
    );

    // After all of it, a well-formed client is served normally.
    let mut client = Client::connect(addr).expect("client connect");
    assert!(matches!(
        client.admit(&task()).unwrap(),
        Response::Admitted { .. }
    ));
    drop(client);
    handle.shutdown();
}

#[test]
fn client_calls_fail_within_the_deadline_against_a_stalled_server() {
    // A listener that accepts nothing: connections sit in the backlog and
    // no byte is ever answered.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stall");
    let addr = listener.local_addr().expect("stall addr");

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            io_timeout: Some(Duration::from_millis(300)),
            ..ClientConfig::default()
        },
    )
    .expect("connect lands in the backlog");
    let started = Instant::now();
    let err = client.stats().expect_err("the call must not hang");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a deadline error, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline must bound the call, took {:?}",
        started.elapsed()
    );
    drop(listener);
}

#[test]
fn a_framed_error_drops_the_client_connection_so_the_next_call_redials() {
    // A scripted server: its first connection answers one line with a
    // framed Error and closes; its second answers Stats.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind script");
    let addr = listener.local_addr().expect("script addr");
    let (closed_tx, closed_rx) = mpsc::channel();
    let script = std::thread::spawn(move || {
        let answer = |response: &Response| {
            let (stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("read request");
            write_message(&mut &stream, response).expect("write response");
        };
        answer(&Response::Error {
            message: "scripted".to_owned(),
        });
        closed_tx.send(()).expect("signal the close");
        answer(&Response::Stats {
            snapshot: AdmissionState::new(AdmissionConfig::new(4)).snapshot(),
        });
    });
    let mut client = Client::connect(addr).expect("client connect");
    assert!(matches!(
        client.stats().expect("first call"),
        Response::Error { .. }
    ));
    closed_rx.recv().expect("the first connection closed");
    assert!(matches!(
        client.stats().expect("the second call redials"),
        Response::Stats { .. }
    ));
    script.join().expect("scripted server");
}

#[test]
fn per_connection_request_budgets_force_reconnection() {
    let handle = start_server(ConnectionLimits {
        max_requests_per_connection: 3,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    let mut client = Client::connect(addr).expect("client connect");
    for _ in 0..3 {
        assert!(matches!(client.stats().unwrap(), Response::Stats { .. }));
    }
    // The budget notice was framed after the third response and the
    // connection closed; depending on buffering the fourth call sees the
    // Error line or the closed stream. Either way it terminates.
    match client.stats() {
        Ok(Response::Error { message }) => {
            assert!(message.contains("budget"), "unexpected error: {message}");
        }
        Ok(other) => panic!("the fourth call cannot succeed, got {other:?}"),
        Err(_) => {}
    }
    assert!(
        wait_for(&counters, |t| t.budget_exhausted == 1),
        "the exhausted budget must be counted, got {:?}",
        counters.snapshot()
    );
    // The client reconnects transparently and service continues.
    assert!(matches!(client.stats().unwrap(), Response::Stats { .. }));
    drop(client);
    handle.shutdown();
}

#[test]
fn every_chaos_counter_surfaces_in_the_live_prometheus_exposition() {
    let handle = start_server(ConnectionLimits {
        max_frame_bytes: 1024,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // One oversized flood and one malformed line.
    let mut flood = ChaosClient::connect(addr).expect("flood connect");
    flood
        .set_io_timeout(Some(Duration::from_millis(500)))
        .expect("set deadline");
    flood.flood(b'x', 8 * 1024);
    let mut garbage = ChaosClient::connect(addr).expect("garbage connect");
    garbage.send(b"nonsense\n").expect("garbage send");
    assert!(
        wait_for(&counters, |t| t.oversized_requests == 1
            && t.malformed_requests == 1),
        "both incidents must be counted, got {:?}",
        counters.snapshot()
    );

    let mut client = Client::connect(addr).expect("client connect");
    let Response::Metrics { text } = client.stats_prometheus().expect("scrape") else {
        panic!("StatsPrometheus answered something else");
    };
    fedsched_telemetry::validate_exposition(&text).expect("exposition parses");
    for line in [
        "fedsched_oversized_requests_total 1",
        "fedsched_malformed_requests_total 1",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "expected {line:?} in the exposition:\n{text}"
        );
    }
    assert!(
        text.lines()
            .any(|l| l.starts_with("fedsched_connections_served_total ")),
        "served connections render:\n{text}"
    );
    drop(client);
    drop(flood);
    drop(garbage);
    handle.shutdown();
}

#[test]
fn a_durable_server_under_hostile_traffic_recovers_to_its_exact_final_state() {
    let dir = scratch_dir("hostile");
    let handle = start_durable_server(&dir);
    let addr = handle.local_addr();

    // Hostile traffic interleaved with real decisions: garbage lines and a
    // mid-request disconnect must not leave half-written journal entries.
    let mut garbage = ChaosClient::connect(addr).expect("garbage connect");
    garbage.send(b"\x00\xff not json\n").expect("garbage send");
    let mut client = Client::connect(addr).expect("client connect");
    let mut placements: Vec<(u64, Placement)> = Vec::new();
    for i in 0..6 {
        let Response::Admitted {
            token, placement, ..
        } = client.admit(&task()).unwrap()
        else {
            panic!("admission {i} must land");
        };
        placements.push((token, placement));
    }
    let mut dropped = ChaosClient::connect(addr).expect("dropped connect");
    dropped.send(b"{\"Admit\":{\"task\"").expect("partial send");
    dropped.disconnect_write().expect("half close");
    let (removed_token, _) = placements.remove(2);
    assert!(matches!(
        client.remove(removed_token).unwrap(),
        Response::Removed { .. }
    ));
    // The removal replays the shared pool and may migrate survivors:
    // re-query for the placements actually in force at shutdown.
    for (token, placement) in &mut placements {
        let Response::TaskInfo { placement: now, .. } = client.query(*token).unwrap() else {
            panic!("token {token} must still be resident");
        };
        *placement = now;
    }
    let Response::Stats { snapshot: live } = client.stats().unwrap() else {
        panic!("stats answered something else");
    };
    assert!(live.durability.enabled, "journaling must be on");
    assert!(
        live.durability.wal_records_appended >= 7,
        "6 admits + 1 depart"
    );
    assert!(live.durability.wal_len_bytes > 0);
    assert!(live.durability.wal_fsyncs >= live.durability.wal_records_appended);
    drop(client);
    drop(garbage);
    drop(dropped);
    handle.shutdown();

    // Offline recovery must reproduce the exact final state: same
    // decision counters, same resident placements, token for token.
    let (_store, recovered) = DurableStore::open(StoreConfig::new(&dir)).expect("reopen journal");
    let (state, report) = recover_state(AdmissionConfig::new(16).with_telemetry(256), &recovered)
        .expect("journal replays cleanly");
    assert_eq!(report.replayed_records, recovered.suffix.len() as u64);
    let rec = state.snapshot();
    assert_eq!(rec.admitted_high + rec.admitted_low, 6);
    assert_eq!(rec.removed, 1);
    assert_eq!(
        (rec.cache_hits, rec.cache_misses),
        (live.cache_hits, live.cache_misses)
    );
    assert_eq!(state.resident_tasks(), placements.len());
    for (token, placement) in &placements {
        assert_eq!(
            state.query(*token).as_ref(),
            Some(placement),
            "placement for token {token} must survive recovery"
        );
    }
    assert_eq!(state.query(removed_token), None, "the removal must survive");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_wal_tail_is_truncated_and_the_server_restarts_serving() {
    let dir = scratch_dir("torn-tail");
    let handle = start_durable_server(&dir);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("client connect");
    let Response::Admitted {
        token, placement, ..
    } = client.admit(&task()).unwrap()
    else {
        panic!("seed admission must land");
    };
    drop(client);
    handle.shutdown();

    // A crash mid-append leaves a torn frame: a header promising more
    // payload than ever reached the disk.
    let wal = dir.join(fedsched_durable::WAL_FILE);
    let clean_len = std::fs::metadata(&wal).expect("wal exists").len();
    let mut torn = std::fs::read(&wal).expect("read wal");
    torn.extend_from_slice(&100u32.to_le_bytes()); // len: 100 bytes promised
    torn.extend_from_slice(&0u32.to_le_bytes()); // crc (never checked: torn first)
    torn.extend_from_slice(b"half"); // 4 of 100 payload bytes
    std::fs::write(&wal, &torn).expect("tear the tail");

    // Restart on the same directory: the torn tail is truncated, every
    // complete frame survives, and the server picks up where it left off.
    let handle = start_durable_server(&dir);
    let boot = handle.boot_report().expect("durability enabled");
    assert_eq!(boot.truncated_bytes, 12, "exactly the torn frame goes");
    assert_eq!(
        std::fs::metadata(&wal).expect("wal exists").len(),
        clean_len,
        "truncation restores the last clean length"
    );
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let Response::TaskInfo {
        placement: survived,
        ..
    } = client.query(token).unwrap()
    else {
        panic!("the pre-crash admission must still be resident");
    };
    assert_eq!(survived, placement);
    assert!(
        matches!(client.admit(&task()).unwrap(), Response::Admitted { .. }),
        "new admissions must proceed after recovery"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_thousand_slowloris_connections_cannot_wedge_the_reactor() {
    // The C10k-style attack the reactor exists for: 1,000 connections
    // held open mid-frame at once. Thread-per-connection would burn a
    // thousand stacks on this; the reactor must hold every socket on its
    // one loop without spawning anything, answer a healthy client
    // within one io-timeout while the attack is live, and strike every
    // attacker out on schedule.
    const ATTACKERS: usize = 1000;
    let io_timeout = Duration::from_secs(1);
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        admission: AdmissionConfig::new(16).with_telemetry(256),
        limits: ConnectionLimits {
            io_timeout: Some(io_timeout),
            idle_strikes: 3,
            max_connections: ATTACKERS + 8,
            ..ConnectionLimits::default()
        },
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback");
    let addr = handle.local_addr();
    let counters = handle.transport();

    let threads_before = std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0);

    // Every attacker opens a socket and stalls mid-frame, keeping the
    // connection (and its server-side buffer) alive until it strikes out.
    let mut attackers = Vec::with_capacity(ATTACKERS);
    for _ in 0..ATTACKERS {
        let mut s = std::net::TcpStream::connect(addr).expect("attacker connect");
        use std::io::Write as _;
        s.write_all(b"{\"Admit\":{")
            .expect("attacker partial frame");
        attackers.push(s);
    }

    // Every attacker lands on the reactor. The registered-fd gauge alone
    // is racy here: on a loaded machine the connect loop above can
    // outlast the strike-out window, so early attackers may already be
    // reaped while late ones are still registering. Parked + reaped is
    // monotone and proves each of the 1,000 sockets was held by the
    // reactor (the plane is pinned, so every timeout is the reactor's).
    let parked = {
        let deadline = Instant::now() + io_timeout * 3 + Duration::from_secs(10);
        loop {
            let fds = handle.reactor_stats().registered_fds;
            let reaped = counters.snapshot().connections_timed_out;
            if fds + reaped >= ATTACKERS as u64 || Instant::now() >= deadline {
                break fds + reaped;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    assert!(
        parked >= ATTACKERS as u64,
        "every attacker must be parked on a reactor, saw {parked}"
    );
    // Bounded resources: the attack adds sockets, never threads. The
    // server runs a fixed crew (reactor, dispatchers); even
    // with generous slack for the test harness, a thread-per-connection
    // plane would blow far past this.
    let threads_during = std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(usize::MAX);
    assert!(
        threads_during < threads_before + 64,
        "the reactor must not spawn per-connection threads: \
         {threads_before} before, {threads_during} during"
    );

    // A healthy client is answered while the attack is at full strength.
    let mut client = Client::connect(addr).expect("healthy connect");
    let started = Instant::now();
    assert!(
        matches!(client.admit(&task()).unwrap(), Response::Admitted { .. }),
        "admissions must go through mid-attack"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < io_timeout,
        "a healthy request must be answered within one io-timeout, took {elapsed:?}"
    );
    drop(client);

    // Every attacker strikes out on the idle deadline and is dropped;
    // the registered-fd gauge drains back down with them.
    let deadline = Instant::now() + io_timeout * 3 + Duration::from_secs(10);
    loop {
        let timed_out = counters.snapshot().connections_timed_out;
        if timed_out >= ATTACKERS as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {timed_out}/{ATTACKERS} attackers struck out in time"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        wait_for(&counters, |t| t.read_timeouts >= ATTACKERS as u64),
        "every strike-out implies at least one read timeout, got {:?}",
        counters.snapshot()
    );
    let fds = handle.reactor_stats().registered_fds;
    assert_eq!(fds, 0, "dropped attackers must leave no registered fds");

    drop(attackers);
    handle.shutdown();
}

#[test]
fn stage_histogram_counts_equal_the_request_total_under_fault_injection() {
    // The per-stage decomposition's core invariant: every *fully
    // answered* request lands exactly once in each of the six stage
    // histograms — and aborted paths (garbage frames, floods, slowloris
    // strike-outs) land in none of them. Fault traffic must not be able
    // to desynchronize the columns.
    let handle = start_server(ConnectionLimits {
        io_timeout: Some(Duration::from_millis(150)),
        idle_strikes: 2,
        max_frame_bytes: 4 * 1024,
        ..ConnectionLimits::default()
    });
    let addr = handle.local_addr();
    let counters = handle.transport();

    // Fault injection: a garbage line (malformed → answered but aborted
    // before dispatch), a newline-free flood (oversized), and a slowloris
    // trickle (strikes out without ever completing a frame).
    let mut garbage = ChaosClient::connect(addr).expect("garbage connect");
    garbage.send(b"\x00\xffnot json at all\n").expect("send");
    let mut flood = ChaosClient::connect(addr).expect("flood connect");
    flood
        .set_io_timeout(Some(Duration::from_millis(500)))
        .expect("set deadline");
    let _ = flood.flood(b'a', 64 * 1024);
    let trickler = std::thread::spawn(move || {
        let mut chaos = ChaosClient::connect(addr).expect("trickle connect");
        chaos.trickle(b"{\"Admit\":{", Duration::from_millis(400));
    });

    // Interleaved real traffic: admissions, queries (hit and miss),
    // stats, and a Prometheus fetch — every one a fully answered request.
    let mut client = Client::connect(addr).expect("client connect");
    let mut answered = 0u64;
    let mut tokens = Vec::new();
    for _ in 0..5 {
        match client.admit(&task()).unwrap() {
            Response::Admitted { token, .. } => tokens.push(token),
            other => panic!("admit answered {other:?}"),
        }
        answered += 1;
    }
    for token in &tokens {
        assert!(matches!(
            client.query(*token).unwrap(),
            Response::TaskInfo { .. }
        ));
        answered += 1;
    }
    assert!(matches!(
        client.query(u64::MAX).unwrap(),
        Response::NotFound { .. }
    ));
    answered += 1;
    assert!(matches!(
        client.stats_prometheus().unwrap(),
        Response::Metrics { .. }
    ));
    answered += 1;

    // Let the fault traffic finish registering before the final readout.
    assert!(
        wait_for(&counters, |t| {
            t.oversized_requests >= 1 && t.malformed_requests >= 1 && t.connections_timed_out >= 1
        }),
        "all three fault modes must register, got {:?}",
        counters.snapshot()
    );
    trickler.join().expect("trickle thread");
    drop(client);

    // The first client sat idle while the fault traffic drained, so the
    // server may have struck it out — read the totals over a fresh
    // connection. The snapshot is assembled before the Stats request
    // itself is recorded, so it is not part of its own count.
    let mut reader = Client::connect(addr).expect("reader connect");
    let Response::Stats { snapshot } = reader.stats().unwrap() else {
        panic!("stats answered something else");
    };
    assert_eq!(
        snapshot.stages.requests_total, answered,
        "only fully answered requests count"
    );
    for stage in fedsched_service::stats::RequestStage::ALL {
        let total: u64 = snapshot.stages.buckets(stage).iter().sum();
        assert_eq!(
            total,
            answered,
            "stage {} histogram must count each answered request exactly once",
            stage.name()
        );
    }
    drop(reader);
    drop(garbage);
    drop(flood);
    handle.shutdown();
}
