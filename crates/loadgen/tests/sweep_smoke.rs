//! End-to-end sweep against a real in-process server: the open-loop
//! engine must complete requests, produce exact quantiles, validate the
//! mid-load metrics scrape, and serialize a schema-stable
//! `BENCH_service.json` report.

use std::time::Duration;

use fedsched_loadgen::{
    run_connection_scaling, run_sweep, ArrivalProcess, LoadConfig, ScalingConfig, SweepConfig,
};
use fedsched_service::server::{serve, ConnectionLimits, ServerConfig};
use fedsched_service::state::AdmissionConfig;

fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        load: LoadConfig {
            connections: 2,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(400),
            process: ArrivalProcess::Poisson,
            seed: 7,
            echo_timing: true,
        },
        start_rps: 40.0,
        growth: 2.0,
        max_steps: 2,
        sustain_ratio: 0.5,
        scrape_metrics: true,
    }
}

#[test]
fn sweep_completes_requests_and_validates_metrics_under_load() {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: AdmissionConfig::new(8),
        limits: ConnectionLimits::default(),
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback");
    let addr = handle.local_addr().to_string();

    let mut report = run_sweep(&addr, &tiny_sweep(), true);

    assert!(!report.steps.is_empty(), "at least one rung ran");
    let first = &report.steps[0];
    assert!(first.completed > 0, "requests completed: {first:?}");
    assert_eq!(first.errors, 0, "no IO errors against a healthy server");
    assert_eq!(
        first.completed,
        first.admitted + first.rejected + first.removed,
        "every completed request is categorized"
    );
    assert!(
        first.admitted > 0 && first.removed > 0,
        "the admit/remove alternation exercises both paths: {first:?}"
    );
    assert_eq!(first.rejected, 0, "occupancy stays under the platform size");
    assert!(
        first.latency.samples == first.completed,
        "one latency sample per completed request"
    );
    assert!(
        first.latency.p50_us <= first.latency.p99_us
            && first.latency.p99_us <= first.latency.max_us,
        "quantiles are ordered: {:?}",
        first.latency
    );
    let stages = first
        .server_stages
        .as_ref()
        .expect("echo_timing produces server stage means");
    assert!(stages.samples > 0 && stages.samples <= first.admitted);
    assert_eq!(
        report.metrics_validated,
        Some(true),
        "mid-load /metrics exposition validates"
    );
    assert!(
        report.max_sustainable_rps.is_some(),
        "a lenient sustain ratio finds a sustained rung: {report:?}"
    );
    assert!(
        !first.latency.reliable,
        "a tiny smoke rung must be flagged as quantile-unreliable"
    );

    // The connection-scaling ladder rides the same server.
    let scaling = run_connection_scaling(
        &addr,
        &ScalingConfig {
            load: tiny_sweep().load,
            fixed_rps: 40.0,
            ladder: vec![1, 4],
            knee_factor: 1e9, // no knee at smoke scale
        },
    );
    assert_eq!(scaling.rungs.len(), 2, "every ladder rung ran: {scaling:?}");
    assert!(scaling.rungs.iter().all(|r| r.errors == 0));
    assert_eq!(
        scaling.max_connections_before_knee,
        Some(4),
        "no knee at smoke scale: {scaling:?}"
    );
    assert!(
        !scaling.top_rung_shards.is_empty(),
        "the top-rung occupancy probe lands"
    );
    report.connection_scaling = Some(scaling);

    // The machine-readable artifact round-trips through JSON with the
    // fields CI's schema check greps for.
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    for key in [
        "\"max_sustainable_rps\"",
        "\"p50_us\"",
        "\"p999_us\"",
        "\"busy_retries\"",
        "\"busy_giveups\"",
        "\"errors\"",
        "\"achieved_rps\"",
        "\"metrics_validated\"",
        "\"reliable\"",
        "\"connection_scaling\"",
        "\"max_connections_before_knee\"",
    ] {
        assert!(json.contains(key), "report JSON carries {key}:\n{json}");
    }

    // The sweep cleaned up after itself: no resident tasks leak across
    // rungs, so back-to-back sweeps see the same server.
    let mut client = fedsched_service::Client::connect(handle.local_addr()).expect("connect");
    let fedsched_service::Response::Stats { snapshot } = client.stats().expect("stats") else {
        panic!("stats answered something else");
    };
    assert_eq!(snapshot.resident_tasks, 0, "admit/remove left no residue");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn sweep_against_a_dead_address_reports_errors_not_panics() {
    // Nothing listens on this port (bind, take the addr, drop the
    // listener).
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let config = SweepConfig {
        max_steps: 1,
        scrape_metrics: false,
        load: LoadConfig {
            connections: 1,
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(50),
            ..LoadConfig::default()
        },
        ..tiny_sweep()
    };
    let report = run_sweep(&dead, &config, true);
    assert_eq!(report.steps.len(), 1);
    assert!(!report.steps[0].sustained);
    assert_eq!(report.max_sustainable_rps, None);
    assert_eq!(report.steps[0].completed, 0);
}
