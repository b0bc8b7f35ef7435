//! The JSON codec's golden byte corpus and its seeded mutation test.
//!
//! `tests/data/codec_golden.txt` pins the wire, WAL and snapshot bytes.
//! Each line is `<label> <json>`:
//!
//! * `Request`, `Response`, `LogRecord`, `PersistedState`, `TaskSystem`:
//!   the compact encoding of the next value [`corpus`] builds. The value
//!   must encode to exactly these bytes and decode back to itself.
//! * `TaskSystem.pretty`: a JSON string holding the pretty-printed
//!   encoding of the next value.
//! * `Request.decode`, `Response.decode`: text a peer may send that is not
//!   our own encoding (unknown fields, duplicated keys, whitespace). It
//!   must decode to the next value; the first occurrence of a key wins.
//!
//! The values are seeded and deterministic: warm-catalogue-shaped
//! Erdős–Rényi tasks (20–120 vertices), every `Response` variant, every
//! `LogRecord` variant, one `PersistedState` and one `TaskSystem`. The
//! file was generated by the `Value`-tree codec at commit `1d0c394` with
//!
//! ```sh
//! cargo test -p fedsched-service --test codec_corpus -- --ignored regenerate_golden_corpus
//! ```
//!
//! which rewrites it from [`corpus`]; the direct codec must reproduce it
//! byte for byte. Line 20, the `Stats` response, was regenerated the same
//! way when the snapshot's per-shard list became one `reactor` section;
//! every other line is still the `Value`-tree codec's.
//!
//! The mutation test truncates every golden line at every byte, and flips,
//! inserts and deletes bytes at seeded offsets. Each mutated line is
//! decoded as its own type and as a `Value`: the decoder must return,
//! never panic, and whatever it accepts must re-encode to a line that
//! decodes to the same value. Release builds wrap on integer overflow
//! instead of panicking, so CI runs this file with `--release` too.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fedsched_analysis::probe::AnalysisProbe;
use fedsched_dag::system::TaskSystem;
use fedsched_dag::task::DagTask;
use fedsched_durable::record::{
    LogRecord, PersistedCacheEntry, PersistedCluster, PersistedConfig, PersistedShared,
    PersistedSizing, PersistedState, PersistedStats, PoolAssignment, FORMAT_VERSION,
};
use fedsched_graham::list::PriorityPolicy;
use fedsched_graham::schedule::{ScheduleEntry, TemplateSchedule};
use fedsched_service::protocol::{Placement, Request, RequestTiming, Response};
use fedsched_service::stats::{
    DurabilityStats, ReactorStats, StageStats, StatsSnapshot, TransportStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;

mod common;
use common::warm_task;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/codec_golden.txt");

/// One corpus value, tagged with its type. The corpus holds a few dozen,
/// so the variants' size spread does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Golden {
    Request(Request),
    Response(Response),
    LogRecord(LogRecord),
    PersistedState(PersistedState),
    TaskSystem(TaskSystem),
}

/// How a line relates to its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The compact encoding: both directions must match.
    RoundTrip,
    /// The pretty encoding, stored as a JSON string.
    Pretty,
    /// Peer text that must decode to the value.
    Decode,
}

struct Entry {
    value: Golden,
    mode: Mode,
    /// For [`Mode::Decode`]: the text to decode.
    text: Option<String>,
}

impl Golden {
    fn label(&self) -> &'static str {
        match self {
            Golden::Request(_) => "Request",
            Golden::Response(_) => "Response",
            Golden::LogRecord(_) => "LogRecord",
            Golden::PersistedState(_) => "PersistedState",
            Golden::TaskSystem(_) => "TaskSystem",
        }
    }

    fn compact(&self) -> String {
        match self {
            Golden::Request(v) => serde_json::to_string(v),
            Golden::Response(v) => serde_json::to_string(v),
            Golden::LogRecord(v) => serde_json::to_string(v),
            Golden::PersistedState(v) => serde_json::to_string(v),
            Golden::TaskSystem(v) => serde_json::to_string(v),
        }
        .expect("corpus values encode")
    }

    /// Decodes `text` as this value's type and compares.
    fn decodes_from(&self, text: &str) -> Result<bool, serde_json::Error> {
        Ok(match self {
            Golden::Request(v) => serde_json::from_str::<Request>(text)? == *v,
            Golden::Response(v) => serde_json::from_str::<Response>(text)? == *v,
            Golden::LogRecord(v) => serde_json::from_str::<LogRecord>(text)? == *v,
            Golden::PersistedState(v) => serde_json::from_str::<PersistedState>(text)? == *v,
            Golden::TaskSystem(v) => serde_json::from_str::<TaskSystem>(text)? == *v,
        })
    }
}

impl Entry {
    fn line(&self) -> String {
        let label = self.value.label();
        match self.mode {
            Mode::RoundTrip => format!("{label} {}", self.value.compact()),
            Mode::Pretty => {
                let Golden::TaskSystem(system) = &self.value else {
                    unreachable!("only task systems are pretty-printed");
                };
                let pretty = serde_json::to_string_pretty(system).expect("pretty encodes");
                format!(
                    "{label}.pretty {}",
                    serde_json::to_string(&pretty).expect("strings encode")
                )
            }
            Mode::Decode => format!(
                "{label}.decode {}",
                self.text.as_deref().expect("decode entries carry text")
            ),
        }
    }
}

// ── seeded values ───────────────────────────────────────────────────────

fn template(task: &DagTask, processors: u32) -> TemplateSchedule {
    let starts = task.dag().earliest_starts();
    let entries = task
        .dag()
        .vertices()
        .map(|v| ScheduleEntry {
            processor: v.index() as u32 % processors,
            start: starts[v.index()],
            finish: starts[v.index()] + task.dag().wcet(v),
        })
        .collect();
    TemplateSchedule::from_entries(processors, entries)
}

fn probe(k: u64) -> AnalysisProbe {
    AnalysisProbe {
        ls_runs: 41 * k,
        makespan_evaluations: 43 * k,
        ls_runs_pruned: 7 * k,
        par_tasks_dispatched: 5 * k,
        dbf_approx_evals: 4_684 * k,
        dbf_exact_evals: 3 * k,
        fits_calls: 582 * k,
        cache_hits: 72 * k,
        cache_misses: 68 * k,
        sizing_nanos: 1_234_567 * k,
        partition_nanos: 89_012 * k,
        wall_nanos: 9_876_543_210 * k,
    }
}

fn buckets(rng: &mut StdRng) -> Vec<u64> {
    (0..20).map(|i| rng.gen_range(0..1_000u64) >> i).collect()
}

fn stage_stats(rng: &mut StdRng) -> StageStats {
    StageStats {
        requests_total: 1_001,
        idle_wait_buckets_us: buckets(rng),
        frame_read_buckets_us: buckets(rng),
        parse_buckets_us: buckets(rng),
        cache_lookup_buckets_us: buckets(rng),
        analysis_buckets_us: buckets(rng),
        wal_append_buckets_us: buckets(rng),
        serialize_buckets_us: buckets(rng),
    }
}

fn stats_snapshot(rng: &mut StdRng) -> StatsSnapshot {
    let snapshot = StatsSnapshot {
        processors: 32,
        dedicated_processors: 11,
        shared_processors: 21,
        resident_tasks: 10,
        admitted_high: 3_017,
        admitted_low: 7_120,
        rejected_high: 4,
        rejected_low: 199,
        removed: 10_127,
        remove_anomalies: 1,
        cache_hits: 9_800,
        cache_misses: 300,
        cache_entries: 300,
        cache_evictions: 0,
        latency_buckets_us: buckets(rng),
        latency_p50_us: Some(64),
        latency_p90_us: Some(128),
        latency_p99_us: None,
        probe: probe(3),
        transport: TransportStats {
            connections_served: 3,
            busy_rejections: 1,
            read_timeouts: 0,
            connections_timed_out: 2,
            oversized_requests: 1,
            malformed_requests: 5,
            budget_exhausted: 0,
            drained_connections: 1,
        },
        durability: DurabilityStats {
            enabled: true,
            wal_records_appended: 10_431,
            wal_bytes_appended: 12_726_044,
            wal_fsyncs: 10_431,
            wal_len_bytes: 12_726_052,
            snapshots_written: 2,
            last_snapshot_seq: 2,
            replayed_records: 17,
            replay_nanos: 5_550_123,
            truncated_bytes: 0,
            snapshots_skipped: 1,
        },
        stages: stage_stats(rng),
        reactor: ReactorStats {
            registered_fds: 2,
            wakeups: 10_004,
            ready_events: 10_006,
        },
    };
    // The sample once carried two per-shard stage sections. Their draws
    // stay, so every corpus value after this one keeps its bytes.
    for _ in 0..2 {
        stage_stats(rng);
    }
    snapshot
}

/// A rejection reason with quotes, backslashes, every escaped control
/// character, an unnamed control character, non-ASCII text and an
/// astral-plane character.
const AWKWARD_REASON: &str = "task \"τ₇\" (δ = 3/2) fits on none of the 4 shared \
     processors\n\tC:\\pool\r\u{8}\u{c}\u{1}\u{1f}\u{7f} — ✓ 😀";

fn corpus() -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(20_150_309);
    let mut out = Vec::new();
    let mut push = |value: Golden| {
        out.push(Entry {
            value,
            mode: Mode::RoundTrip,
            text: None,
        });
    };

    // Warm-catalogue admits, with and without `trace_id` and `echo_timing`.
    let warm: Vec<DagTask> = (0..6)
        .map(|_| warm_task(&mut rng, (20, 120), 0.03))
        .collect();
    for (i, task) in warm.iter().enumerate() {
        push(Golden::Request(Request::Admit {
            task: task.clone(),
            trace_id: (i % 2 == 1).then_some(rng.gen_range(0..u64::MAX)),
            echo_timing: i % 3 == 2,
        }));
    }
    for request in [
        Request::Remove { token: 0 },
        Request::Remove { token: u64::MAX },
        Request::Query { token: 42 },
        Request::Stats,
        Request::StatsPrometheus,
        Request::Shutdown,
    ] {
        push(Golden::Request(request));
    }

    // Every response variant.
    let timing = RequestTiming {
        idle_us: 5,
        read_us: 12,
        parse_us: 74,
        cache_us: 0,
        analysis_us: 20,
        wal_us: 210,
    };
    for response in [
        Response::Admitted {
            token: 7,
            placement: Placement::Dedicated {
                first_processor: 2,
                processors: 3,
            },
            cache_hit: true,
            trace_id: Some(99),
            timing: Some(timing),
        },
        Response::Admitted {
            token: 8,
            placement: Placement::Shared { processor: 31 },
            cache_hit: false,
            trace_id: None,
            timing: None,
        },
        Response::Rejected {
            reason: AWKWARD_REASON.to_owned(),
            trace_id: Some(1),
            timing: Some(timing),
        },
        Response::Rejected {
            reason: String::new(),
            trace_id: None,
            timing: None,
        },
        Response::Removed {
            token: 7,
            migrated: 2,
        },
        Response::TaskInfo {
            token: 8,
            placement: Placement::Shared { processor: 5 },
        },
        Response::NotFound { token: 42 },
        Response::Stats {
            snapshot: stats_snapshot(&mut rng),
        },
        Response::Metrics {
            text: "# HELP fedsched_processors Platform size m\n\
                   # TYPE fedsched_processors gauge\nfedsched_processors 32\n"
                .to_owned(),
        },
        Response::ShuttingDown,
        Response::Busy {
            retry_after_ms: 100,
        },
        Response::Error {
            message: "expected `,` or `}` in object at byte 17".to_owned(),
        },
    ] {
        push(Golden::Response(response));
    }

    // Every log record variant.
    let small: Vec<DagTask> = (0..4).map(|_| warm_task(&mut rng, (3, 12), 0.3)).collect();
    let sizing = |task: &DagTask, processors: u32| PersistedSizing {
        processors,
        template: template(task, processors),
    };
    for record in [
        LogRecord::Admit {
            token: 1,
            task: small[0].clone(),
            placement: PoolAssignment::Dedicated {
                first_processor: 0,
                processors: 2,
            },
            cache_hit: false,
            sizing: Some(sizing(&small[0], 2)),
        },
        LogRecord::Admit {
            token: 2,
            task: small[1].clone(),
            placement: PoolAssignment::Shared { processor: 3 },
            cache_hit: true,
            sizing: None,
        },
        LogRecord::Reject {
            task: small[2].clone(),
            high_density: true,
            cache_hit: false,
        },
        LogRecord::Depart {
            token: 1,
            anomaly: true,
        },
        LogRecord::CacheInsert {
            task: small[0].clone(),
            sizing: Some(sizing(&small[0], 2)),
        },
        LogRecord::CacheInsert {
            task: small[3].clone(),
            sizing: None,
        },
        LogRecord::SnapshotMarker { seq: 3 },
    ] {
        push(Golden::LogRecord(record));
    }

    // One persisted state.
    push(Golden::PersistedState(PersistedState {
        version: FORMAT_VERSION,
        config: PersistedConfig {
            processors: 16,
            policy: PriorityPolicy::CriticalPathFirst,
            utilization_check: true,
            exact_budget: Some(4_096),
            template_cache_cap: 32,
        },
        next_token: 12,
        clusters: vec![
            PersistedCluster {
                token: 1,
                task: small[0].clone(),
                processors: 2,
                sizing: None,
            },
            PersistedCluster {
                token: 4,
                task: small[2].clone(),
                processors: 3,
                sizing: Some(sizing(&small[2], 3)),
            },
        ],
        shared: vec![PersistedShared {
            token: 2,
            task: small[1].clone(),
            processor: 0,
        }],
        cache: vec![
            PersistedCacheEntry {
                key: vec![1, 6, 3, 2, 3, 1, 0, 1],
                sizing: Some(sizing(&small[0], 2)),
                referenced: true,
            },
            PersistedCacheEntry {
                key: vec![0, 9, 1, 4],
                sizing: None,
                referenced: false,
            },
        ],
        stats: PersistedStats {
            admitted_high: 2,
            admitted_low: 1,
            rejected_high: 1,
            rejected_low: 0,
            removed: 1,
            remove_anomalies: 1,
            cache_hits: 1,
            cache_misses: 2,
            cache_evictions: 0,
            latency_buckets_us: buckets(&mut rng),
        },
        probe: probe(1),
    }));

    // One task system, compact and pretty.
    let system = TaskSystem::from_tasks(small.clone());
    push(Golden::TaskSystem(system.clone()));
    out.push(Entry {
        value: Golden::TaskSystem(system),
        mode: Mode::Pretty,
        text: None,
    });

    // Peer text that is not our own encoding.
    let admit = Request::Admit {
        task: small[3].clone(),
        trace_id: Some(5),
        echo_timing: true,
    };
    let canonical = serde_json::to_string(&admit).expect("encodes");
    let mut decode = |value: Golden, text: String| {
        out.push(Entry {
            value,
            mode: Mode::Decode,
            text: Some(text),
        });
    };
    // Unknown fields in the request payload, the task and the DAG.
    let unknown = canonical
        .replacen(
            "{\"Admit\":{",
            "{\"Admit\":{\"added_later\":{\"n\":[1,-2.5e3,\"x\\\"y\",null,true,{}]},",
            1,
        )
        .replacen(
            "\"task\":{",
            "\"task\":{\"note\":\"\\u03c4\\ud83d\\ude00\",",
            1,
        )
        .replacen("\"dag\":{", "\"dag\":{\"layout\":[[],[[0]]],", 1);
    decode(Golden::Request(admit.clone()), unknown);
    // Every key of the payload repeated after its first occurrence, with
    // a different value: the first wins, and a repeated value is only
    // checked for syntax.
    let repeated = format!(
        "{},\"trace_id\":null,\"echo_timing\":false,\"task\":{{\"bogus\":1}}}}}}",
        canonical
            .strip_suffix("}}")
            .expect("externally tagged payload")
    );
    decode(Golden::Request(admit), repeated);
    decode(
        Golden::Request(Request::Query { token: 3 }),
        " {\t\"Query\" :\t{ \"token\" : 3 } } ".to_owned(),
    );
    decode(
        Golden::Response(Response::Rejected {
            reason: "first".to_owned(),
            trace_id: Some(1),
            timing: None,
        }),
        "{\"Rejected\":{\"reason\":\"first\",\"trace_id\":1,\"reason\":\"second\",\
         \"timing\":null,\"timing\":{\"read_us\":1}}}"
            .to_owned(),
    );
    out
}

fn read_golden() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(GOLDEN).expect("golden corpus is committed");
    text.lines()
        .map(|line| {
            let (label, json) = line.split_once(' ').expect("`<label> <json>` lines");
            (label.to_owned(), json.to_owned())
        })
        .collect()
}

#[test]
#[ignore = "rewrites the committed corpus; run by hand, see the module docs"]
fn regenerate_golden_corpus() {
    let mut text = String::new();
    for entry in corpus() {
        text.push_str(&entry.line());
        text.push('\n');
    }
    std::fs::write(GOLDEN, text).expect("write golden corpus");
}

#[test]
fn the_codec_reproduces_the_golden_corpus_byte_for_byte() {
    let golden = read_golden();
    let corpus = corpus();
    assert_eq!(golden.len(), corpus.len(), "corpus and file disagree");
    for (i, (entry, (label, json))) in corpus.iter().zip(&golden).enumerate() {
        let line = i + 1;
        assert_eq!(
            entry.line(),
            format!("{label} {json}"),
            "line {line}: the encoding moved"
        );
        let text = match entry.mode {
            Mode::RoundTrip | Mode::Decode => json.clone(),
            Mode::Pretty => serde_json::from_str::<String>(json).expect("pretty line is a string"),
        };
        assert!(
            entry
                .value
                .decodes_from(&text)
                .unwrap_or_else(|e| panic!("line {line}: {e}")),
            "line {line}: decodes to a different value"
        );
    }
}

// ── seeded mutations ────────────────────────────────────────────────────

/// Decodes `text` as `T`; anything accepted must survive a re-encode.
fn check_stable<T>(text: &str) -> Result<(), String>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let Ok(value) = serde_json::from_str::<T>(text) else {
        return Ok(());
    };
    let again = serde_json::to_string(&value).map_err(|e| e.to_string())?;
    match serde_json::from_str::<T>(&again) {
        Ok(back) if back == value => Ok(()),
        Ok(back) => Err(format!("re-encoded as {again}, decoded to {back:?}")),
        Err(e) => Err(format!("re-encoded as {again}, which fails: {e}")),
    }
}

/// Decodes `bytes` as the line's own type and as a `Value`, catching
/// panics so the failure names the mutated text.
fn decode_both(label: &str, bytes: &[u8]) -> Result<(), String> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        // The request pipeline refuses non-UTF-8 frames before decoding.
        return Ok(());
    };
    let typed = |text: &str| match label {
        "Request" => check_stable::<Request>(text),
        "Response" => check_stable::<Response>(text),
        "LogRecord" => check_stable::<LogRecord>(text),
        "PersistedState" => check_stable::<PersistedState>(text),
        "TaskSystem" => check_stable::<TaskSystem>(text),
        other => panic!("unknown label {other}"),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        typed(text).and_then(|()| check_stable::<Value>(text))
    }));
    match outcome {
        Ok(result) => result.map_err(|e| format!("{label} {text}: {e}")),
        Err(_) => Err(format!("{label} {text}: the decoder panicked")),
    }
}

/// Bytes that steer a mutation toward the grammar's edges.
const SIGNIFICANT: &[u8] = b"{}[]\",:-+.eE0129 \\nutfl\x00\x1f\x7f\xc3\xff";

#[test]
fn mutated_golden_lines_never_panic_and_what_decodes_is_stable() {
    let mut rng = StdRng::seed_from_u64(7_919);
    let mut failures = Vec::new();
    let mut decoded = 0usize;
    for (label, json) in read_golden() {
        let (base, text) = match label.split_once('.') {
            Some((base, "pretty")) => (
                base.to_owned(),
                serde_json::from_str::<String>(&json).expect("pretty line is a string"),
            ),
            Some((base, _)) => (base.to_owned(), json),
            None => (label, json),
        };
        let bytes = text.as_bytes();
        let mut mutants: Vec<Vec<u8>> = (0..bytes.len()).map(|i| bytes[..i].to_vec()).collect();
        for _ in 0..48 {
            let at = rng.gen_range(0..bytes.len());
            let mut flipped = bytes.to_vec();
            flipped[at] ^= rng.gen_range(1..=255u8);
            mutants.push(flipped);

            let mut inserted = bytes.to_vec();
            let byte = if rng.gen_bool(0.5) {
                SIGNIFICANT[rng.gen_range(0..SIGNIFICANT.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
            inserted.insert(rng.gen_range(0..=bytes.len()), byte);
            mutants.push(inserted);

            let mut deleted = bytes.to_vec();
            deleted.remove(rng.gen_range(0..bytes.len()));
            mutants.push(deleted);
        }
        for mutant in &mutants {
            decoded += 1;
            if let Err(e) = decode_both(&base, mutant) {
                failures.push(e);
            }
        }
    }
    assert!(decoded > 10_000, "only {decoded} mutants decoded");
    assert!(
        failures.is_empty(),
        "{} of {decoded} mutants misbehaved; first: {}",
        failures.len(),
        failures[0]
    );
}
