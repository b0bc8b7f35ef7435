//! The fedsched benchmark: four seeded workloads driven through the
//! program's public entry points — the admission server as `fedsched
//! serve` wires it (`fedsched_cli::start_server`) with
//! `fedsched_service::Client`s, and batch
//! `fedsched_core::fedcons::fedcons_probed` — with every answer checked.
//!
//! An untraced run reports the end-to-end metrics; a traced run repeats
//! the workload with spans around the benchmark's own calls into each
//! layer and reports the per-layer metrics. See `README.md` beside this
//! crate for the workloads, metrics and steadiness rules.

pub mod alloc;
pub mod batch;
pub mod check;
pub mod inputs;
pub mod measure;
pub mod report;
pub mod serve;
pub mod trace;

use std::io;

pub use report::{Options, Outcome, Workload, DEFAULT_SEED, HOLDOUT_SEED};

/// The end-to-end metrics every untraced run reports, with units (its
/// p99 latency is printed and goes to the run record, ungated).
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("e2e.mean_us", "us"),
    ("unattributed_us", "us"),
    ("trace.overhead_us", "us"),
    ("server.frame_read_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("client.codec_us", "us"),
    ("cache.lookup_us", "us"),
    ("state.analysis_us", "us"),
    ("durable.wal_us", "us"),
    ("core.minprocs_us", "us"),
    ("analysis.partition_us", "us"),
    ("graham.ls_ns_per_run", "ns"),
    ("process.allocs_per_op", "count/op"),
    ("process.alloc_bytes_per_op", "B/op"),
    ("reactor.wakeups_per_op", "count/op"),
    ("reactor.events_per_wakeup", "count"),
    ("durable.fsyncs_per_op", "count/op"),
    ("durable.bytes_per_op", "B/op"),
    ("durable.snapshots", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count/op"),
    ("state.reject_ratio", "ratio"),
    ("analysis.fits_per_op", "count/op"),
    ("analysis.dbf_evals_per_op", "count/op"),
    ("core.ls_runs_per_op", "count/op"),
    ("core.ls_runs_pruned_per_op", "count/op"),
    ("parallel.tasks_per_op", "count/op"),
    ("server.batched_share", "ratio"),
    ("server.permit_steals", "count"),
];

/// Runs one workload and returns its outcome with the metrics in the
/// canonical order of [`END_TO_END`] or [`PER_LAYER`].
///
/// # Errors
///
/// Failures to set the workload up (bind, connect, write the output
/// directory); the program's answers never surface here, they are
/// counted as failed operations.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let ticks0 = measure::cpu_ticks();
    let mut out = match opts.workload {
        Workload::BatchFedcons => batch::run(opts)?,
        _ => serve::run(opts)?,
    };
    let ticks1 = measure::cpu_ticks();
    let total = ticks1.0.saturating_sub(ticks0.0).max(1);
    out.record_num(
        "host_steal_share",
        ticks1.1.saturating_sub(ticks0.1) as f64 / total as f64,
    );
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(report::Metric { name, unit, value });
    }
    out.metrics = ordered;
    let mut record = vec![
        (
            "workload".to_owned(),
            report::json_string(opts.workload.name()),
        ),
        ("seed".to_owned(), opts.seed.to_string()),
        ("nproc".to_owned(), measure::nproc().to_string()),
        ("seconds".to_owned(), opts.seconds.as_secs_f64().to_string()),
        ("trace".to_owned(), opts.trace.to_string()),
        ("short".to_owned(), opts.short.to_string()),
    ];
    record.append(&mut out.record);
    out.record = record;
    for (key, value) in [
        ("ops_attempted", out.attempted),
        ("ops_succeeded", out.succeeded),
        ("ops_rejected", out.rejected),
        ("ops_failed", out.failed),
    ] {
        out.record_num(key, value);
    }
    Ok(out)
}
