//! The request pipeline driven through in-process sessions: the frame
//! cap's exact boundary, pipelined admission — how a run of `Admit`s
//! sent in one burst meets the request budget, and that pipelining never
//! changes a single response byte — and hostile lines (nesting bombs,
//! tasks whose fields lie) that must get a framed error while the server
//! keeps serving.

use std::io::{Read, Write};
use std::net::TcpStream;

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_service::protocol::{Placement, Request, Response};
use fedsched_service::{
    serve, AdmissionConfig, ConnectionLimits, ServerConfig, ServerHandle, StatsSnapshot,
};

fn start(limits: ConnectionLimits) -> ServerHandle {
    start_on(16, limits)
}

fn start_on(processors: u32, limits: ConnectionLimits) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        shards: 2,
        admission: AdmissionConfig::new(processors),
        limits,
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback")
}

fn line(request: &Request) -> String {
    let mut line = serde_json::to_string(request).expect("serialize request");
    line.push('\n');
    line
}

/// `request` padded with trailing spaces to exactly `len` bytes,
/// newline included.
fn padded(request: &Request, len: usize) -> Vec<u8> {
    let mut bytes = serde_json::to_string(request)
        .expect("serialize request")
        .into_bytes();
    assert!(bytes.len() < len, "request too long to pad to {len} bytes");
    bytes.resize(len - 1, b' ');
    bytes.push(b'\n');
    bytes
}

fn responses(bytes: &[u8]) -> Vec<Response> {
    std::str::from_utf8(bytes)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| serde_json::from_str(l).expect("parse response"))
        .collect()
}

#[test]
fn a_frame_of_exactly_the_cap_is_served_and_one_byte_more_is_refused() {
    let cap = 100;
    let handle = start(ConnectionLimits {
        max_frame_bytes: cap,
        ..ConnectionLimits::default()
    });
    let query = Request::Query { token: 7 };
    let mut session = handle.session();

    let at_cap = padded(&query, cap);
    assert_eq!(at_cap.len(), cap);
    assert_eq!(
        responses(&session.send(&at_cap)),
        vec![Response::NotFound { token: 7 }],
        "a {cap}-byte frame, newline included, is within the cap"
    );
    assert!(!session.is_closed());
    assert_eq!(handle.transport_stats().oversized_requests, 0);

    let over = padded(&query, cap + 1);
    let answered = responses(&session.send(&over));
    let [Response::Error { message }] = answered.as_slice() else {
        panic!(
            "a {}-byte frame must get one framed error, got {answered:?}",
            cap + 1
        );
    };
    assert_eq!(
        message,
        &format!("request exceeds the {cap}-byte frame cap")
    );
    assert!(
        session.is_closed(),
        "an oversized frame ends the connection"
    );
    assert_eq!(handle.transport_stats().oversized_requests, 1);
    assert!(
        session.send(&at_cap).is_empty(),
        "a closed session answers nothing"
    );
    handle.shutdown();
}

#[test]
fn an_unterminated_frame_is_refused_the_moment_it_reaches_the_cap() {
    let cap = 100;
    let handle = start(ConnectionLimits {
        max_frame_bytes: cap,
        ..ConnectionLimits::default()
    });
    let mut session = handle.session();
    // Byte by byte, as a trickling client sends it: nothing is answered
    // while the frame could still complete within the cap.
    for _ in 0..cap - 1 {
        assert!(session.send(b" ").is_empty());
    }
    let answered = responses(&session.send(b" "));
    assert_eq!(
        answered,
        vec![Response::Error {
            message: format!("request exceeds the {cap}-byte frame cap")
        }],
        "{cap} bytes without a newline can only be an oversized frame"
    );
    assert_eq!(handle.transport_stats().oversized_requests, 1);
    handle.shutdown();
}

#[test]
fn frames_ahead_of_an_oversized_one_are_answered_first() {
    let handle = start(ConnectionLimits {
        max_frame_bytes: 100,
        ..ConnectionLimits::default()
    });
    let mut bytes = line(&Request::Query { token: 1 }).into_bytes();
    bytes.extend_from_slice(line(&Request::Query { token: 2 }).as_bytes());
    bytes.extend_from_slice(&[b'z'; 4096]);
    let answered = responses(&handle.session().send(&bytes));
    assert_eq!(
        answered,
        vec![
            Response::NotFound { token: 1 },
            Response::NotFound { token: 2 },
            Response::Error {
                message: "request exceeds the 100-byte frame cap".to_owned()
            },
        ]
    );
    handle.shutdown();
}

#[test]
fn a_line_split_across_sends_is_answered_once_it_completes() {
    let handle = start(ConnectionLimits::default());
    let mut session = handle.session();
    let query = line(&Request::Query { token: 3 });
    let (head, tail) = query.split_at(query.len() / 2);
    assert!(session.send(head.as_bytes()).is_empty());
    assert_eq!(
        responses(&session.send(tail.as_bytes())),
        vec![Response::NotFound { token: 3 }]
    );
    // A blank line is a frame too, answered with nothing.
    assert!(session.send(b"\n").is_empty());
    assert!(!session.is_closed());
    handle.shutdown();
}

/// Chains for the shared pool, wide tasks dense enough for dedicated
/// clusters, and (task 9) a deadline past the period, always rejected.
fn task(i: u64) -> DagTask {
    if i == 9 {
        DagTask::sequential(Ticks::new(1), Ticks::new(9), Ticks::new(4))
            .expect("arbitrary-deadline shape is valid")
    } else if i.is_multiple_of(2) {
        DagTask::sequential(Ticks::new(1 + i % 3), Ticks::new(6), Ticks::new(9))
            .expect("chain shape is valid")
    } else {
        let mut b = DagBuilder::new();
        for v in 0..3 {
            b.add_vertex(Ticks::new(2 + (i + v) % 2));
        }
        DagTask::new(
            b.build().expect("parallel shape builds"),
            Ticks::new(5),
            Ticks::new(7),
        )
        .expect("parallel shape is valid")
    }
}

/// Six admits split by a blank line, a query, a removal, six more
/// admits, and a malformed last line: 14 requests.
fn stream() -> Vec<String> {
    let admit = |i: u64| {
        line(&Request::Admit {
            task: task(i),
            trace_id: Some(i),
            echo_timing: false,
        })
    };
    let mut lines: Vec<String> = (0..4).map(admit).collect();
    lines.push("\n".to_owned());
    lines.extend((4..6).map(admit));
    lines.push(line(&Request::Query { token: 1 }));
    lines.push(line(&Request::Remove { token: 2 }));
    lines.extend((6..12).map(admit));
    lines.push("{\"Admit\":\n".to_owned());
    lines
}

/// The decision-shaped slice of a snapshot, plus the transport counters
/// this stream can move.
fn deterministic_view(s: &StatsSnapshot) -> String {
    format!(
        "{:?}",
        (
            (
                s.resident_tasks,
                s.dedicated_processors,
                s.shared_processors
            ),
            (
                s.admitted_high,
                s.admitted_low,
                s.rejected_high,
                s.rejected_low
            ),
            (s.removed, s.remove_anomalies),
            (s.cache_hits, s.cache_misses, s.cache_entries),
            s.probe.deterministic(),
            (s.transport.malformed_requests, s.transport.budget_exhausted),
        )
    )
}

/// How the stream reaches the server.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Carrier {
    /// One `send` on a session.
    Pipelined,
    /// One `send` per line on a session.
    LineByLine,
    /// One write on a TCP connection, read until the server closes it.
    Tcp,
}

/// Runs the stream on a fresh server with request budget `budget`.
/// Returns the response bytes and the deterministic view.
fn run(budget: u64, carrier: Carrier) -> (Vec<u8>, String) {
    let handle = start(ConnectionLimits {
        max_requests_per_connection: budget,
        ..ConnectionLimits::default()
    });
    let lines = stream();
    let bytes = if carrier == Carrier::Tcp {
        let mut tcp = TcpStream::connect(handle.local_addr()).expect("connect");
        tcp.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        tcp.write_all(lines.concat().as_bytes())
            .expect("send stream");
        let mut bytes = Vec::new();
        tcp.read_to_end(&mut bytes).expect("read until close");
        bytes
    } else {
        let mut session = handle.session();
        let bytes = if carrier == Carrier::Pipelined {
            session.send(lines.concat().as_bytes())
        } else {
            lines
                .iter()
                .flat_map(|l| session.send(l.as_bytes()))
                .collect()
        };
        assert!(session.is_closed(), "the stream always ends the connection");
        bytes
    };
    let stats = responses(&handle.session().send(line(&Request::Stats).as_bytes()));
    let [Response::Stats { snapshot }] = stats.as_slice() else {
        panic!("stats request failed");
    };
    let view = deterministic_view(snapshot);
    handle.shutdown();
    (bytes, view)
}

#[test]
fn a_pipelined_stream_is_answered_as_line_by_line_at_every_budget() {
    // Budget 100 outlasts the stream; 7 runs out right after the query
    // (a non-Admit); 12 runs out inside the second run of admits.
    for (budget, answered, last) in [
        (100u64, 14usize, "malformed"),
        (7, 7, "budget"),
        (12, 12, "budget"),
    ] {
        let (piped, piped_view) = run(budget, Carrier::Pipelined);
        let (single, single_view) = run(budget, Carrier::LineByLine);
        assert_eq!(
            String::from_utf8_lossy(&piped),
            String::from_utf8_lossy(&single),
            "budget {budget}: pipelining changed the response bytes"
        );
        assert_eq!(
            piped_view, single_view,
            "budget {budget}: pipelining changed the decisions"
        );

        let answers = responses(&piped);
        assert_eq!(answers.len(), answered + 1, "budget {budget}: {answers:?}");
        assert!(
            answers[..answered]
                .iter()
                .all(|r| !matches!(r, Response::Error { .. })),
            "budget {budget}: {answers:?}"
        );
        assert!(
            matches!(answers[6], Response::TaskInfo { token: 1, .. }),
            "budget {budget}: the query finds token 1: {answers:?}"
        );
        let Some(Response::Error { message }) = answers.last() else {
            panic!("budget {budget}: the stream must end in an error");
        };
        if last == "budget" {
            assert_eq!(
                message,
                &format!("per-connection request budget ({budget}) exhausted; reconnect")
            );
        } else {
            assert!(!message.contains("budget"), "{message}");
        }
    }
}

#[test]
fn a_pipelined_stream_over_tcp_is_answered_as_through_a_session() {
    // The reactor cuts frames wherever its reads end, so its runs of
    // frames may differ from a session's; the bytes and decisions may
    // not. The stream ends with a malformed line, so the server reads all
    // of it and closes cleanly.
    let (session, session_view) = run(100, Carrier::Pipelined);
    let (tcp, tcp_view) = run(100, Carrier::Tcp);
    assert_eq!(
        String::from_utf8_lossy(&session),
        String::from_utf8_lossy(&tcp)
    );
    assert_eq!(session_view, tcp_view);
}

/// Sends `line` on a fresh session and returns the one framed error it
/// must get; the malformed line ends that connection.
fn refused(handle: &ServerHandle, line: &[u8]) -> String {
    let mut session = handle.session();
    let answered = responses(&session.send(line));
    let [Response::Error { message }] = answered.as_slice() else {
        panic!("a hostile line must get one framed error, got {answered:?}");
    };
    assert!(session.is_closed(), "a malformed line ends the connection");
    message.clone()
}

/// An honest admit on a fresh session: the server still serves.
fn admits_normally(handle: &ServerHandle) {
    let answered = responses(
        &handle.session().send(
            line(&Request::Admit {
                task: task(0),
                trace_id: None,
                echo_timing: false,
            })
            .as_bytes(),
        ),
    );
    assert!(
        matches!(answered.as_slice(), [Response::Admitted { .. }]),
        "after a hostile line the server must admit normally: {answered:?}"
    );
}

#[test]
fn nesting_bombs_get_a_framed_error_and_the_server_keeps_serving() {
    let handle = start(ConnectionLimits::default());
    let bombs = [
        format!("{{\"Admit\":{}\n", "[".repeat(10_000)),
        format!("{{\"Admit\":{{\"added_later\":{}\n", "[".repeat(100_000)),
    ];
    for (i, bomb) in bombs.iter().enumerate() {
        let message = refused(&handle, bomb.as_bytes());
        assert!(!message.is_empty(), "bomb {i}");
        assert_eq!(handle.transport_stats().malformed_requests, i as u64 + 1);
        admits_normally(&handle);
    }
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
    handle.shutdown();
}

/// `task`'s wire form with `edit` applied to its top-level fields.
fn tampered(task: &DagTask, edit: impl FnOnce(&mut Vec<(String, serde_json::Value)>)) -> String {
    let text = serde_json::to_string(task).expect("serialize task");
    let mut value: serde_json::Value = serde_json::from_str(&text).expect("task is JSON");
    let serde_json::Value::Map(fields) = &mut value else {
        panic!("a task is an object");
    };
    edit(fields);
    format!(
        "{{\"Admit\":{{\"task\":{},\"trace_id\":null}}}}\n",
        serde_json::to_string(&value).expect("serialize value")
    )
}

fn set(fields: &mut [(String, serde_json::Value)], key: &str, json: &str) {
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field {key}"));
    slot.1 = serde_json::from_str(json).expect("replacement is JSON");
}

#[test]
fn tasks_whose_fields_lie_are_refused_and_never_reach_the_analysis() {
    let handle = start_on(4, ConnectionLimits::default());
    let mut b = DagBuilder::new();
    b.add_vertices([9, 9, 9, 9].map(Ticks::new));
    let wide = DagTask::new(b.build().expect("builds"), Ticks::new(10), Ticks::new(10))
        .expect("valid task");
    assert!(
        wide.density().ceil() == 4,
        "δ = 3.6 needs a 4-processor cluster"
    );
    let pair = {
        let mut b = DagBuilder::new();
        b.add_vertices([1, 1].map(Ticks::new));
        DagTask::new(b.build().expect("builds"), Ticks::new(5), Ticks::new(5)).expect("valid")
    };
    let cases = [
        // δ computed from a claimed volume of 1 would route it to the
        // shared pool, where it misses deadlines for certain.
        (
            "understated volume and chain",
            tampered(&wide, |f| {
                set(f, "volume", "1");
                set(f, "longest_chain", r#"{"length":1,"vertices":[0]}"#);
            }),
        ),
        (
            "zero deadline",
            tampered(&wide, |f| set(f, "deadline", "0")),
        ),
        ("zero period", tampered(&wide, |f| set(f, "period", "0"))),
        (
            "two-vertex cycle",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[1,1],"successors":[[1],[0]],"predecessors":[[1],[0]],"edge_count":2,"topo":[0,1]}"#,
                );
            }),
        ),
        (
            "zero WCET",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[0,1],"successors":[[],[]],"predecessors":[[],[]],"edge_count":0,"topo":[0,1]}"#,
                );
                set(f, "volume", "1");
            }),
        ),
        (
            "empty DAG",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[],"successors":[],"predecessors":[],"edge_count":0,"topo":[]}"#,
                );
                set(f, "volume", "0");
                set(f, "longest_chain", r#"{"length":0,"vertices":[]}"#);
            }),
        ),
        (
            "chain vertex out of range",
            tampered(&pair, |f| {
                set(f, "longest_chain", r#"{"length":1,"vertices":[7]}"#);
            }),
        ),
        (
            "topo repeats a vertex",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[1,1],"successors":[[],[]],"predecessors":[[],[]],"edge_count":0,"topo":[1,1]}"#,
                );
            }),
        ),
        (
            "predecessors do not mirror successors",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[1,1],"successors":[[1],[]],"predecessors":[[],[]],"edge_count":1,"topo":[0,1]}"#,
                );
            }),
        ),
        (
            "duplicate edge",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[1,1],"successors":[[1,1],[]],"predecessors":[[],[0,0]],"edge_count":2,"topo":[0,1]}"#,
                );
            }),
        ),
        (
            "volume that wraps",
            tampered(&pair, |f| {
                set(
                    f,
                    "dag",
                    r#"{"wcets":[18446744073709551615,2],"successors":[[],[]],"predecessors":[[],[]],"edge_count":0,"topo":[0,1]}"#,
                );
                set(f, "volume", "1");
            }),
        ),
    ];
    for (i, (case, line)) in cases.iter().enumerate() {
        let message = refused(&handle, line.as_bytes());
        assert!(
            message.contains("Dag") || message.contains("DagTask"),
            "{case}: {message}"
        );
        assert_eq!(
            handle.transport_stats().malformed_requests,
            i as u64 + 1,
            "{case}: counted as malformed"
        );
    }
    // Nothing hostile was admitted; the honest wide task still gets its
    // 4-processor cluster.
    let answered = responses(
        &handle.session().send(
            line(&Request::Admit {
                task: wide,
                trace_id: None,
                echo_timing: false,
            })
            .as_bytes(),
        ),
    );
    assert!(
        matches!(
            answered.as_slice(),
            [Response::Admitted {
                placement: Placement::Dedicated { processors: 4, .. },
                ..
            }]
        ),
        "{answered:?}"
    );
    handle.shutdown();
}
