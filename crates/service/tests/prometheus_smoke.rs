//! Smoke test for the metrics surface: start a real server, admit a task,
//! and assert the Prometheus exposition parses — every non-comment line
//! matches `name{labels} value` — over both transports (the
//! `StatsPrometheus` protocol request and a raw HTTP `GET /metrics`).
//! The metric inventory is pinned too: the families a live scrape
//! exports are exactly the ones docs/OBSERVABILITY.md documents.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_service::client::Client;
use fedsched_service::protocol::Response;
use fedsched_service::server::{serve, ConnectionLimits, ServerConfig, ServerHandle};
use fedsched_service::state::AdmissionConfig;

fn start_server() -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: AdmissionConfig::new(8).with_telemetry(256),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback")
}

fn task() -> DagTask {
    DagTask::sequential(Duration::new(1), Duration::new(4), Duration::new(8)).expect("valid task")
}

#[test]
fn exposition_parses_after_an_admission() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let admitted = client.admit_traced(&task(), 7).expect("admit call");
    let Response::Admitted { trace_id, .. } = admitted else {
        panic!("admit answered {admitted:?}");
    };
    assert_eq!(trace_id, Some(7), "server echoes the trace id");

    let Response::Metrics { text } = client.stats_prometheus().expect("stats call") else {
        panic!("StatsPrometheus answered something else");
    };
    fedsched_telemetry::validate_exposition(&text).expect("exposition parses");
    assert!(
        text.lines()
            .any(|l| l == "fedsched_admitted_total{density=\"low\"} 1"),
        "admission shows up in the counters:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("fedsched_admit_latency_us_count 1")),
        "latency histogram counted the decision:\n{text}"
    );
    // Transport-hardening counters ride along in the same exposition.
    assert!(
        text.lines()
            .any(|l| l.starts_with("fedsched_connections_served_total ")),
        "connection counter is exposed:\n{text}"
    );
    for name in [
        "fedsched_busy_rejections_total 0",
        "fedsched_read_timeouts_total 0",
        "fedsched_oversized_requests_total 0",
        "fedsched_drained_connections_total 0",
    ] {
        assert!(
            text.lines().any(|l| l == name),
            "quiet counter {name:?} renders as zero:\n{text}"
        );
    }

    // The server state retained the admission's telemetry, stamped with
    // the request's trace id.
    {
        let state = handle.state();
        let state = state.lock().expect("state lock");
        assert!(state
            .telemetry_events()
            .iter()
            .any(|e| e.trace_id() == Some(fedsched_telemetry::TraceId(7))));
    }

    client.shutdown().expect("shutdown call");
    handle.join();
}

#[test]
fn raw_http_get_metrics_scrape_works() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.admit(&task()).expect("admit");

    // Scrape exactly as a Prometheus server would: plain HTTP/1.1.
    let mut scrape = TcpStream::connect(handle.local_addr()).expect("connect scrape");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut reader = BufReader::new(scrape);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(
        status.starts_with("HTTP/1.0 200 OK"),
        "unexpected status {status:?}"
    );
    let mut body = String::new();
    let mut in_body = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        if in_body {
            body.push_str(&line);
        } else if line.trim_end().is_empty() {
            in_body = true;
        }
    }
    fedsched_telemetry::validate_exposition(&body).expect("scraped body parses");
    assert!(body.contains("fedsched_processors 8"), "{body}");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn stage_histogram_counts_match_requests_total_over_a_live_scrape() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Drive a mix of fully answered requests: admissions, a query hit, a
    // query miss, and a protocol-level Prometheus fetch (which, unlike an
    // HTTP scrape, is itself a recorded NDJSON request).
    let mut token = None;
    for _ in 0..3 {
        let Response::Admitted { token: t, .. } = client.admit(&task()).expect("admit") else {
            panic!("admit rejected the sequential task");
        };
        token = Some(t);
    }
    assert!(matches!(
        client.query(token.expect("admitted")).expect("query"),
        Response::TaskInfo { .. }
    ));
    assert!(matches!(
        client.query(u64::MAX).expect("query miss"),
        Response::NotFound { .. }
    ));
    assert!(matches!(
        client.stats_prometheus().expect("metrics"),
        Response::Metrics { .. }
    ));
    let answered = 6u64;

    // Scrape over HTTP — the scrape itself bypasses the NDJSON pipeline
    // and must not bump the totals it reports.
    let mut scrape = TcpStream::connect(handle.local_addr()).expect("connect scrape");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut reader = BufReader::new(scrape);
    let mut body = String::new();
    let mut in_body = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        if in_body {
            body.push_str(&line);
        } else if line.trim_end().is_empty() {
            in_body = true;
        }
    }
    fedsched_telemetry::validate_exposition(&body).expect("scraped body parses");

    assert!(
        body.lines()
            .any(|l| l == format!("fedsched_requests_total {answered}")),
        "request total counts every answered NDJSON request:\n{body}"
    );
    // Every stage histogram's _count column agrees with the request
    // total — the decomposition never drops or double-counts a stage.
    let mut stages_seen = 0;
    for l in body.lines() {
        let Some(rest) = l.strip_prefix("fedsched_stage_duration_") else {
            continue;
        };
        let Some((name, value)) = rest.split_once("_us_count ") else {
            continue;
        };
        assert_eq!(
            value.trim(),
            answered.to_string(),
            "stage {name} _count must equal fedsched_requests_total:\n{body}"
        );
        stages_seen += 1;
    }
    assert_eq!(
        stages_seen,
        fedsched_service::stats::RequestStage::ALL.len(),
        "every stage exports a histogram:\n{body}"
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Every metric family docs/OBSERVABILITY.md documents: the backticked
/// `fedsched_*` names of each table cell that opens with one, with
/// `{a,b}` alternations expanded and label sets (`{shard}`,
/// `{density="high|low"}`) dropped.
fn documented_families() -> BTreeSet<String> {
    fn expand(token: &str) -> Vec<String> {
        let Some(open) = token.find('{') else {
            return vec![token.to_owned()];
        };
        let close = open + token[open..].find('}').expect("unclosed brace");
        let (head, group, tail) = (&token[..open], &token[open + 1..close], &token[close + 1..]);
        if group.contains('=') || !group.contains(',') {
            return expand(&format!("{head}{tail}"));
        }
        group
            .split(',')
            .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
            .collect()
    }
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("read docs/OBSERVABILITY.md");
    let mut names = BTreeSet::new();
    for row in doc.lines().filter(|l| l.starts_with('|')) {
        // `\|` escapes a pipe inside a cell.
        for cell in row.replace("\\|", "/").split('|') {
            if !cell.trim().starts_with("`fedsched_") {
                continue;
            }
            for token in cell.split('`').skip(1).step_by(2) {
                if token.starts_with("fedsched_") {
                    names.extend(expand(token));
                }
            }
        }
    }
    names
}

#[test]
fn every_exported_metric_family_is_documented_and_vice_versa() {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        shards: 2,
        admission: AdmissionConfig::new(8),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback");
    let mut scrape = TcpStream::connect(handle.local_addr()).expect("connect scrape");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("read scrape");
    handle.shutdown();

    let exported: BTreeSet<String> = response
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_owned)
        .collect();
    let documented = documented_families();
    assert!(exported.len() > 50, "scrape exported {exported:?}");
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let unexported: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && unexported.is_empty(),
        "exported but undocumented: {undocumented:?}; documented but not exported: {unexported:?}"
    );
}
