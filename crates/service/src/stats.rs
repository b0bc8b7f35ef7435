//! Operation counters and a log-scale latency histogram for the server.

use fedsched_analysis::probe::AnalysisProbe;
use serde::{Deserialize, Serialize};

/// Number of buckets in [`LatencyHistogram`]: bucket `i` counts operations
/// that took `[2^i, 2^{i+1})` microseconds (the last bucket is open-ended).
pub const LATENCY_BUCKETS: usize = 22;

/// Number of pipeline stages every served request is decomposed into.
pub const REQUEST_STAGES: usize = 7;

/// One stage of the server's request pipeline, in serving order.
///
/// Every request the server fully answers is recorded **exactly once** in
/// every stage's histogram — stages that did not apply (no cache lookup on
/// a `Stats` request, no WAL append without durability) record a zero
/// duration. That invariant makes the per-stage histogram `_count`s equal
/// `fedsched_requests_total`, so a dashboard can always divide by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestStage {
    /// Waiting for the first byte of the next request: pure client think
    /// time (open-loop pacing, interactive idle). Split out of the old
    /// combined read stage so socket work is measurable on its own.
    IdleWait = 0,
    /// Reading and framing the request line off the socket once its first
    /// byte has arrived (mid-frame stalls — a trickling client — still
    /// land here).
    FrameRead = 1,
    /// UTF-8 validation plus JSON parsing of the framed line.
    Parse = 2,
    /// Template-cache lookup of a high-density admission (zero unless the
    /// sizing was served from the cache).
    CacheLookup = 3,
    /// The admission/removal/stats work itself: everything inside dispatch
    /// that is neither a cache hit nor the WAL append.
    Analysis = 4,
    /// Appending the decision's records to the write-ahead log, fsync and
    /// threshold snapshots included (zero without durability).
    WalAppend = 5,
    /// Serializing the response and writing it back to the client.
    Serialize = 6,
}

impl RequestStage {
    /// Every stage, in pipeline order.
    pub const ALL: [RequestStage; REQUEST_STAGES] = [
        RequestStage::IdleWait,
        RequestStage::FrameRead,
        RequestStage::Parse,
        RequestStage::CacheLookup,
        RequestStage::Analysis,
        RequestStage::WalAppend,
        RequestStage::Serialize,
    ];

    /// The stable lower-snake name used in metric names and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestStage::IdleWait => "idle_wait",
            RequestStage::FrameRead => "frame_read",
            RequestStage::Parse => "parse",
            RequestStage::CacheLookup => "cache_lookup",
            RequestStage::Analysis => "analysis",
            RequestStage::WalAppend => "wal_append",
            RequestStage::Serialize => "serialize",
        }
    }

    /// The stage's index into per-stage arrays (pipeline order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// HELP text for the stage's Prometheus histogram.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            RequestStage::IdleWait => {
                "Time waiting for the first byte of the request — client think time, not server \
                 work, microseconds (power-of-two buckets: derived quantiles are bucket upper \
                 bounds)"
            }
            RequestStage::FrameRead => {
                "Time reading and framing the request line after its first byte arrived, \
                 microseconds (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
            RequestStage::Parse => {
                "Time validating UTF-8 and parsing the request JSON, microseconds \
                 (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
            RequestStage::CacheLookup => {
                "Time serving a sizing from the template cache, zero on misses and non-admissions, \
                 microseconds (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
            RequestStage::Analysis => {
                "Time in admission analysis and state mutation, lock wait included, microseconds \
                 (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
            RequestStage::WalAppend => {
                "Time appending to the write-ahead log, fsync included, zero without durability, \
                 microseconds (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
            RequestStage::Serialize => {
                "Time serializing and writing the response, microseconds \
                 (power-of-two buckets: derived quantiles are bucket upper bounds)"
            }
        }
    }
}

/// A power-of-two histogram of admission-decision latencies, in
/// microseconds. Bucket `i` covers `[2^i, 2^{i+1})` µs; sub-microsecond
/// decisions land in bucket 0 and anything from about 35 minutes up
/// saturates the last bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one operation that took `elapsed`.
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.buckets[Self::bucket_for_micros(elapsed.as_micros())] += 1;
    }

    /// The bucket index an observation of `us` microseconds falls into:
    /// `⌊log2 us⌋`, clamped into `[0, LATENCY_BUCKETS)`. Shared by this
    /// histogram and the server's lock-free per-stage bucket atomics so
    /// both bucket identically.
    #[must_use]
    pub fn bucket_for_micros(us: u128) -> usize {
        if us <= 1 {
            0
        } else {
            (127 - u128::leading_zeros(us) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Total number of recorded operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts, index `i` covering `[2^i, 2^{i+1})` µs.
    #[must_use]
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Rebuilds a histogram from exported bucket counts (shorter slices
    /// fill the low buckets; excess counts land in the open-ended last
    /// bucket, so no observation is ever dropped on restore).
    #[must_use]
    pub fn from_buckets(counts: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (i, &count) in counts.iter().enumerate() {
            let bucket = i.min(LATENCY_BUCKETS - 1);
            h.buckets[bucket] = h.buckets[bucket].saturating_add(count);
        }
        h
    }

    /// An **upper bound** on the `q`-quantile latency, in microseconds.
    ///
    /// The histogram only knows which power-of-two bucket each observation
    /// fell into, so the estimate is the *exclusive upper edge* `2^{i+1}`
    /// of the bucket containing the `⌈q·total⌉`-th smallest observation —
    /// the true quantile is guaranteed `<` the returned value (within a
    /// factor of two of it), never above. The open-ended last bucket
    /// reports [`u64::MAX`].
    ///
    /// Returns `None` for an empty histogram or `q` outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // ⌈q·total⌉ clamped to [1, total]: p0 is the smallest observation,
        // p100 the largest.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(if i == LATENCY_BUCKETS - 1 {
                    u64::MAX
                } else {
                    2u64.pow(i as u32 + 1)
                });
            }
        }
        unreachable!("rank ≤ total implies some bucket reaches it")
    }
}

/// Mutable operation counters kept by
/// [`AdmissionState`](crate::state::AdmissionState).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// High-density tasks admitted onto dedicated clusters.
    pub admitted_high: u64,
    /// Low-density tasks admitted into the shared pool.
    pub admitted_low: u64,
    /// Rejected tasks of high density (δ ≥ 1): chain-infeasible shapes and
    /// clusters that did not fit.
    pub rejected_high: u64,
    /// Rejected tasks of low density: shared-pool first-fit failures (and
    /// arbitrary-deadline submissions whose density is below one).
    pub rejected_low: u64,
    /// Tasks removed.
    pub removed: u64,
    /// Removals whose suffix replay failed (first-fit anomaly); the state
    /// keeps the previous — still sound — placements instead.
    pub remove_anomalies: u64,
    /// Latency of `admit` decisions (the hot path; removals are not timed).
    pub latency: LatencyHistogram,
}

/// Transport-level hardening counters: everything the server's connection
/// layer did to defend itself against hostile, slow, or bursty clients.
///
/// These are kept in lock-free atomics by the server (they must stay
/// observable even when the admission lock is contended) and merged into
/// [`StatsSnapshot`] when a snapshot is taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Connections accepted and handed to the reactor since start.
    pub connections_served: u64,
    /// Connections turned away with `Busy` because the concurrent
    /// connection cap was reached.
    pub busy_rejections: u64,
    /// Per-connection read deadlines that expired (the connection is kept
    /// unless expiries repeat).
    pub read_timeouts: u64,
    /// Connections dropped after repeated consecutive read-deadline
    /// expiries without a complete request.
    pub connections_timed_out: u64,
    /// Request frames that exceeded the configured byte cap (the
    /// connection is dropped after a framed `Error`).
    pub oversized_requests: u64,
    /// Request lines that did not decode to a valid request — not UTF-8,
    /// not JSON, nested too deep, or an `Admit` whose task fails the
    /// decoder's checks (the connection is dropped after a framed
    /// `Error`).
    pub malformed_requests: u64,
    /// Connections dropped because they exhausted the per-connection
    /// request budget.
    pub budget_exhausted: u64,
    /// Connections closed by the graceful-shutdown drain while the client
    /// still held them open.
    pub drained_connections: u64,
}

/// Durability-layer counters: what the write-ahead log and snapshot
/// machinery did since the server started, plus what boot recovery
/// replayed. All zeros when the server runs without a data directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// Whether the server runs with a write-ahead log at all.
    pub enabled: bool,
    /// Decision records appended to the WAL since start.
    pub wal_records_appended: u64,
    /// Bytes appended to the WAL since start (frames, magic excluded).
    pub wal_bytes_appended: u64,
    /// `fsync`s the WAL issued since start.
    pub wal_fsyncs: u64,
    /// Current on-disk length of the WAL file, bytes.
    pub wal_len_bytes: u64,
    /// Snapshots written since start (boot-recovery snapshots included).
    pub snapshots_written: u64,
    /// Sequence number of the newest durable snapshot (0 before the
    /// first).
    pub last_snapshot_seq: u64,
    /// Logged decisions re-executed during boot recovery.
    pub replayed_records: u64,
    /// Wall time boot recovery spent replaying, nanoseconds.
    pub replay_nanos: u64,
    /// Bytes of torn or corrupt WAL tail truncated at boot.
    pub truncated_bytes: u64,
    /// Snapshot files that were damaged or missing and had to be skipped
    /// in favour of an older recovery point at boot.
    pub snapshots_skipped: u64,
}

/// Per-stage request-pipeline latency buckets plus the request total they
/// all sum to.
///
/// Kept in lock-free atomics by the server (the hot path must not take the
/// admission lock to time transport stages) and merged into
/// [`StatsSnapshot`] when a snapshot is taken. The invariant documented on
/// [`RequestStage`] holds: each stage's bucket counts sum to
/// `requests_total`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStats {
    /// Requests fully answered on the NDJSON protocol since start.
    /// Aborted exchanges (malformed lines, oversized frames, idle
    /// timeouts, `GET /metrics` scrapes) are not requests and count in
    /// the transport counters instead.
    pub requests_total: u64,
    /// [`RequestStage::IdleWait`] buckets, `[2^i, 2^{i+1})` µs each.
    /// Defaults to empty (with [`RequestStage::FrameRead`]) in snapshots
    /// from servers predating the idle/frame split of the old combined
    /// read stage; renderers emit nothing for an empty vector.
    #[serde(default)]
    pub idle_wait_buckets_us: Vec<u64>,
    /// [`RequestStage::FrameRead`] buckets.
    #[serde(default)]
    pub frame_read_buckets_us: Vec<u64>,
    /// [`RequestStage::Parse`] buckets.
    pub parse_buckets_us: Vec<u64>,
    /// [`RequestStage::CacheLookup`] buckets.
    pub cache_lookup_buckets_us: Vec<u64>,
    /// [`RequestStage::Analysis`] buckets.
    pub analysis_buckets_us: Vec<u64>,
    /// [`RequestStage::WalAppend`] buckets.
    pub wal_append_buckets_us: Vec<u64>,
    /// [`RequestStage::Serialize`] buckets.
    pub serialize_buckets_us: Vec<u64>,
}

impl Default for StageStats {
    fn default() -> StageStats {
        StageStats {
            requests_total: 0,
            idle_wait_buckets_us: vec![0; LATENCY_BUCKETS],
            frame_read_buckets_us: vec![0; LATENCY_BUCKETS],
            parse_buckets_us: vec![0; LATENCY_BUCKETS],
            cache_lookup_buckets_us: vec![0; LATENCY_BUCKETS],
            analysis_buckets_us: vec![0; LATENCY_BUCKETS],
            wal_append_buckets_us: vec![0; LATENCY_BUCKETS],
            serialize_buckets_us: vec![0; LATENCY_BUCKETS],
        }
    }
}

impl StageStats {
    /// The bucket counts of one stage.
    #[must_use]
    pub fn buckets(&self, stage: RequestStage) -> &[u64] {
        match stage {
            RequestStage::IdleWait => &self.idle_wait_buckets_us,
            RequestStage::FrameRead => &self.frame_read_buckets_us,
            RequestStage::Parse => &self.parse_buckets_us,
            RequestStage::CacheLookup => &self.cache_lookup_buckets_us,
            RequestStage::Analysis => &self.analysis_buckets_us,
            RequestStage::WalAppend => &self.wal_append_buckets_us,
            RequestStage::Serialize => &self.serialize_buckets_us,
        }
    }

    /// One stage's buckets rebuilt as a [`LatencyHistogram`], for quantile
    /// queries.
    #[must_use]
    pub fn histogram(&self, stage: RequestStage) -> LatencyHistogram {
        LatencyHistogram::from_buckets(self.buckets(stage))
    }
}

/// Counters of the server's epoll reactor, merged into [`StatsSnapshot`].
///
/// Kept in lock-free atomics by the reactor thread; they describe how the
/// connection plane waited, never what was decided. All zeros in a
/// snapshot taken from an [`AdmissionState`](crate::state::AdmissionState)
/// with no server around it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactorStats {
    /// Sockets currently registered with the epoll instance: connections
    /// parked in the loop, not those handed to the dispatch pool.
    pub registered_fds: u64,
    /// Times the reactor returned from `epoll_wait` with at least one
    /// ready event (eventfd wakeups included).
    pub wakeups: u64,
    /// Total readiness events the reactor has processed; divided by
    /// `wakeups` this is the ready-per-wakeup batching factor.
    pub ready_events: u64,
}

/// A point-in-time, serializable view of the server's counters, returned by
/// the `Stats` request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Platform size `m` the server was started with.
    pub processors: u32,
    /// Processors currently bound to dedicated clusters.
    pub dedicated_processors: u32,
    /// Processors currently in the shared EDF pool.
    pub shared_processors: u32,
    /// Tasks currently resident (clusters plus shared).
    pub resident_tasks: u64,
    /// High-density tasks admitted since start.
    pub admitted_high: u64,
    /// Low-density tasks admitted since start.
    pub admitted_low: u64,
    /// High-density rejections since start.
    pub rejected_high: u64,
    /// Low-density rejections since start.
    pub rejected_low: u64,
    /// Removals since start.
    pub removed: u64,
    /// Removal replays that hit a first-fit anomaly.
    pub remove_anomalies: u64,
    /// Template-cache hits since start.
    pub cache_hits: u64,
    /// Template-cache misses since start.
    pub cache_misses: u64,
    /// Distinct DAG shapes the template cache holds.
    pub cache_entries: u64,
    /// Entries evicted from the authoritative template cache by the
    /// capacity bound (`--template-cache-cap`); zero while unbounded.
    /// Defaults for snapshots predating the bound.
    #[serde(default)]
    pub cache_evictions: u64,
    /// Admission-latency histogram; index `i` counts decisions that took
    /// `[2^i, 2^{i+1})` microseconds.
    pub latency_buckets_us: Vec<u64>,
    /// Upper bound on the median admission latency, µs (see
    /// [`LatencyHistogram::quantile`]); `None` before the first admission.
    pub latency_p50_us: Option<u64>,
    /// Upper bound on the 90th-percentile admission latency, µs.
    pub latency_p90_us: Option<u64>,
    /// Upper bound on the 99th-percentile admission latency, µs.
    pub latency_p99_us: Option<u64>,
    /// Cumulative analysis cost of every operation since start: LS runs,
    /// demand-bound evaluations, first-fit probes, cache traffic, and
    /// per-phase wall time.
    pub probe: AnalysisProbe,
    /// Transport-level hardening counters (timeouts, oversized frames,
    /// busy rejections, drain events).
    pub transport: TransportStats,
    /// Write-ahead-log and snapshot counters; all zeros when the server
    /// runs without durability.
    pub durability: DurabilityStats,
    /// Per-stage request-pipeline latency decomposition (and the request
    /// total every stage's buckets sum to). Defaults for snapshots from
    /// servers predating the decomposition.
    #[serde(default)]
    pub stages: StageStats,
    /// The reactor's counters. Defaults for snapshots from servers that
    /// reported them per shard; their `shards` key is ignored on decode.
    #[serde(default)]
    pub reactor: ReactorStats,
}

/// Renders a snapshot in the Prometheus text exposition format — the body
/// behind both the `StatsPrometheus` protocol request and the server's
/// `GET /metrics` line. Metric names are stable API, documented in
/// `docs/OBSERVABILITY.md`.
#[must_use]
pub fn render_prometheus(snapshot: &StatsSnapshot) -> String {
    let mut out = fedsched_telemetry::PromText::new();
    let gauges: [(&str, &str, u64); 5] = [
        (
            "fedsched_processors",
            "Platform size m the server was started with",
            u64::from(snapshot.processors),
        ),
        (
            "fedsched_dedicated_processors",
            "Processors currently bound to dedicated clusters",
            u64::from(snapshot.dedicated_processors),
        ),
        (
            "fedsched_shared_processors",
            "Processors currently in the shared EDF pool",
            u64::from(snapshot.shared_processors),
        ),
        (
            "fedsched_resident_tasks",
            "Tasks currently resident",
            snapshot.resident_tasks,
        ),
        (
            "fedsched_cache_entries",
            "Distinct DAG shapes in the template cache",
            snapshot.cache_entries,
        ),
    ];
    for (name, help, value) in gauges {
        out.header(name, help, "gauge");
        out.sample(name, &[], value);
    }

    out.header(
        "fedsched_admitted_total",
        "Tasks admitted since start, by density class",
        "counter",
    );
    out.sample(
        "fedsched_admitted_total",
        &[("density", "high")],
        snapshot.admitted_high,
    );
    out.sample(
        "fedsched_admitted_total",
        &[("density", "low")],
        snapshot.admitted_low,
    );
    out.header(
        "fedsched_rejected_total",
        "Tasks rejected since start, by density class",
        "counter",
    );
    out.sample(
        "fedsched_rejected_total",
        &[("density", "high")],
        snapshot.rejected_high,
    );
    out.sample(
        "fedsched_rejected_total",
        &[("density", "low")],
        snapshot.rejected_low,
    );
    let counters: [(&str, &str, u64); 5] = [
        (
            "fedsched_removed_total",
            "Tasks removed since start",
            snapshot.removed,
        ),
        (
            "fedsched_remove_anomalies_total",
            "Removal replays that hit a first-fit anomaly",
            snapshot.remove_anomalies,
        ),
        (
            "fedsched_cache_hits_total",
            "Template-cache hits since start",
            snapshot.cache_hits,
        ),
        (
            "fedsched_cache_misses_total",
            "Template-cache misses since start",
            snapshot.cache_misses,
        ),
        (
            "fedsched_template_cache_evictions_total",
            "Template-cache entries evicted by the capacity bound",
            snapshot.cache_evictions,
        ),
    ];
    for (name, help, value) in counters {
        out.header(name, help, "counter");
        out.sample(name, &[], value);
    }

    let transport: [(&str, &str, u64); 8] = [
        (
            "fedsched_connections_served_total",
            "Connections accepted and handed to the reactor since start",
            snapshot.transport.connections_served,
        ),
        (
            "fedsched_busy_rejections_total",
            "Connections turned away at the concurrent-connection cap",
            snapshot.transport.busy_rejections,
        ),
        (
            "fedsched_read_timeouts_total",
            "Per-connection read deadlines that expired",
            snapshot.transport.read_timeouts,
        ),
        (
            "fedsched_connections_timed_out_total",
            "Connections dropped after repeated idle read deadlines",
            snapshot.transport.connections_timed_out,
        ),
        (
            "fedsched_oversized_requests_total",
            "Request frames rejected for exceeding the byte cap",
            snapshot.transport.oversized_requests,
        ),
        (
            "fedsched_malformed_requests_total",
            "Request lines that did not decode to a valid request",
            snapshot.transport.malformed_requests,
        ),
        (
            "fedsched_request_budget_exhausted_total",
            "Connections dropped at the per-connection request budget",
            snapshot.transport.budget_exhausted,
        ),
        (
            "fedsched_drained_connections_total",
            "Connections closed by the graceful-shutdown drain",
            snapshot.transport.drained_connections,
        ),
    ];
    for (name, help, value) in transport {
        out.header(name, help, "counter");
        out.sample(name, &[], value);
    }

    // Durability metrics are always exposed (zeros without a data
    // directory) so dashboards need no conditional scraping.
    out.header(
        "fedsched_wal_enabled",
        "Whether the server runs with a write-ahead log (0/1)",
        "gauge",
    );
    out.sample(
        "fedsched_wal_enabled",
        &[],
        u64::from(snapshot.durability.enabled),
    );
    let wal_gauges: [(&str, &str, u64); 2] = [
        (
            "fedsched_wal_size_bytes",
            "Current on-disk length of the write-ahead log",
            snapshot.durability.wal_len_bytes,
        ),
        (
            "fedsched_wal_last_snapshot_seq",
            "Sequence number of the newest durable snapshot",
            snapshot.durability.last_snapshot_seq,
        ),
    ];
    for (name, help, value) in wal_gauges {
        out.header(name, help, "gauge");
        out.sample(name, &[], value);
    }
    let wal_counters: [(&str, &str, u64); 8] = [
        (
            "fedsched_wal_records_appended_total",
            "Decision records appended to the write-ahead log",
            snapshot.durability.wal_records_appended,
        ),
        (
            "fedsched_wal_bytes_written_total",
            "Bytes appended to the write-ahead log",
            snapshot.durability.wal_bytes_appended,
        ),
        (
            "fedsched_wal_fsyncs_total",
            "fsyncs issued by the write-ahead log",
            snapshot.durability.wal_fsyncs,
        ),
        (
            "fedsched_wal_snapshots_written_total",
            "Durable state snapshots written since start",
            snapshot.durability.snapshots_written,
        ),
        (
            "fedsched_wal_replayed_records_total",
            "Logged decisions re-executed during boot recovery",
            snapshot.durability.replayed_records,
        ),
        (
            "fedsched_wal_replay_nanos_total",
            "Wall time boot recovery spent replaying, nanoseconds",
            snapshot.durability.replay_nanos,
        ),
        (
            "fedsched_wal_truncated_bytes_total",
            "Bytes of torn or corrupt WAL tail truncated at boot",
            snapshot.durability.truncated_bytes,
        ),
        (
            "fedsched_wal_snapshots_skipped_total",
            "Damaged snapshot files skipped during boot recovery",
            snapshot.durability.snapshots_skipped,
        ),
    ];
    for (name, help, value) in wal_counters {
        out.header(name, help, "counter");
        out.sample(name, &[], value);
    }

    out.power_of_two_histogram(
        "fedsched_admit_latency_us",
        "Admission decision latency, microseconds (power-of-two buckets: the _sum and any \
         quantile derived from this histogram are bucket upper bounds, within 2x of the true \
         value, never below it)",
        &snapshot.latency_buckets_us,
    );

    out.header(
        "fedsched_requests_total",
        "Requests fully answered on the NDJSON protocol; every fedsched_stage_duration_* \
         histogram records each of them exactly once",
        "counter",
    );
    out.sample(
        "fedsched_requests_total",
        &[],
        snapshot.stages.requests_total,
    );
    for stage in RequestStage::ALL {
        let family = format!("fedsched_stage_duration_{}_us", stage.name());
        out.power_of_two_histogram(&family, stage.help(), snapshot.stages.buckets(stage));
    }

    out.header(
        "fedsched_reactor_registered_fds",
        "Sockets currently registered with the epoll reactor",
        "gauge",
    );
    out.sample(
        "fedsched_reactor_registered_fds",
        &[],
        snapshot.reactor.registered_fds,
    );
    let reactor: [(&str, &str, u64); 2] = [
        (
            "fedsched_reactor_wakeups_total",
            "epoll_wait returns with at least one ready event",
            snapshot.reactor.wakeups,
        ),
        (
            "fedsched_reactor_ready_events_total",
            "Readiness events processed by the reactor (ready-per-wakeup numerator)",
            snapshot.reactor.ready_events,
        ),
    ];
    for (name, help, value) in reactor {
        out.header(name, help, "counter");
        out.sample(name, &[], value);
    }

    fedsched_telemetry::render_probe("fedsched_analysis", &snapshot.probe, &mut out);
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_by_power_of_two_microseconds() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100)); // sub-µs → bucket 0
        h.record(Duration::from_micros(1)); // → bucket 0
        h.record(Duration::from_micros(2)); // → bucket 1
        h.record(Duration::from_micros(3)); // → bucket 1
        h.record(Duration::from_micros(1024)); // → bucket 10
        h.record(Duration::from_secs(36_000)); // saturates the last bucket
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 90 observations in bucket 0 ([1,2) µs), 9 in bucket 3
        // ([8,16) µs), 1 in bucket 10 ([1024,2048) µs).
        for _ in 0..90 {
            h.record(Duration::from_nanos(500));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(9));
        }
        h.record(Duration::from_micros(1500));
        assert_eq!(h.quantile(0.5), Some(2), "p50 in bucket 0 → upper edge 2");
        assert_eq!(h.quantile(0.9), Some(2), "rank 90 still in bucket 0");
        assert_eq!(h.quantile(0.99), Some(16), "rank 99 in bucket 3");
        assert_eq!(h.quantile(1.0), Some(2048), "max in bucket 10");
        assert_eq!(h.quantile(0.0), Some(2), "p0 is the smallest observation");
        assert_eq!(h.quantile(1.5), None, "out-of-range q");
    }

    #[test]
    fn quantile_saturates_in_the_open_ended_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(36_000));
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn prometheus_rendering_is_valid_and_complete() {
        let snapshot = StatsSnapshot {
            processors: 8,
            dedicated_processors: 3,
            shared_processors: 5,
            resident_tasks: 2,
            admitted_high: 1,
            admitted_low: 1,
            rejected_high: 0,
            rejected_low: 4,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 1,
            cache_misses: 1,
            cache_entries: 1,
            cache_evictions: 2,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats {
                connections_served: 9,
                busy_rejections: 3,
                read_timeouts: 2,
                connections_timed_out: 1,
                oversized_requests: 5,
                malformed_requests: 6,
                budget_exhausted: 7,
                drained_connections: 4,
            },
            durability: DurabilityStats {
                enabled: true,
                wal_records_appended: 11,
                wal_bytes_appended: 2048,
                wal_fsyncs: 11,
                wal_len_bytes: 2056,
                snapshots_written: 1,
                last_snapshot_seq: 1,
                replayed_records: 5,
                replay_nanos: 1234,
                truncated_bytes: 17,
                snapshots_skipped: 0,
            },
            stages: StageStats {
                requests_total: 3,
                ..StageStats::default()
            },
            reactor: ReactorStats::default(),
        };
        let text = render_prometheus(&snapshot);
        fedsched_telemetry::validate_exposition(&text).expect("exposition parses");
        assert!(text
            .lines()
            .any(|l| l == "fedsched_admitted_total{density=\"high\"} 1"));
        assert!(text
            .lines()
            .any(|l| l == "fedsched_template_cache_evictions_total 2"));
        assert!(text
            .lines()
            .any(|l| l == "fedsched_rejected_total{density=\"low\"} 4"));
        assert!(text.lines().any(|l| l == "fedsched_processors 8"));
        assert!(text
            .lines()
            .any(|l| l == "fedsched_admit_latency_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("fedsched_analysis_ls_runs_total"));
        // Every transport hardening counter is exported under its stable
        // name with the value the snapshot carried.
        for line in [
            "fedsched_connections_served_total 9",
            "fedsched_busy_rejections_total 3",
            "fedsched_read_timeouts_total 2",
            "fedsched_connections_timed_out_total 1",
            "fedsched_oversized_requests_total 5",
            "fedsched_malformed_requests_total 6",
            "fedsched_request_budget_exhausted_total 7",
            "fedsched_drained_connections_total 4",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}:\n{text}");
        }
    }

    #[test]
    fn reactor_series_render_one_unlabeled_sample_each() {
        let snapshot = StatsSnapshot {
            processors: 8,
            dedicated_processors: 0,
            shared_processors: 8,
            resident_tasks: 0,
            admitted_high: 0,
            admitted_low: 0,
            rejected_high: 0,
            rejected_low: 0,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats::default(),
            durability: DurabilityStats::default(),
            stages: StageStats::default(),
            reactor: ReactorStats {
                registered_fds: 6,
                wakeups: 101,
                ready_events: 250,
            },
        };
        let text = render_prometheus(&snapshot);
        fedsched_telemetry::validate_exposition(&text).expect("exposition parses");
        for line in [
            "fedsched_reactor_registered_fds 6",
            "fedsched_reactor_wakeups_total 101",
            "fedsched_reactor_ready_events_total 250",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}:\n{text}");
        }
        // One reactor: no series carries a shard dimension.
        assert!(!text.contains("shard"), "{text}");
    }

    #[test]
    fn every_histogram_family_ends_with_an_inf_bucket_matching_its_count() {
        let mut snapshot = StatsSnapshot {
            processors: 4,
            dedicated_processors: 0,
            shared_processors: 4,
            resident_tasks: 0,
            admitted_high: 0,
            admitted_low: 0,
            rejected_high: 0,
            rejected_low: 0,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats::default(),
            durability: DurabilityStats::default(),
            stages: StageStats::default(),
            reactor: ReactorStats::default(),
        };
        snapshot.latency_buckets_us[0] = 2;
        snapshot.latency_buckets_us[LATENCY_BUCKETS - 1] = 1;
        snapshot.stages.requests_total = 5;
        snapshot.stages.parse_buckets_us[3] = 5;
        let text = render_prometheus(&snapshot);
        // Collect every histogram family: each must close with a +Inf
        // bucket whose cumulative value equals the family's _count.
        let mut inf: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for line in text.lines() {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Some(name) = series.strip_suffix("_bucket{le=\"+Inf\"}") {
                    inf.insert(name, value.parse().unwrap());
                } else if let Some(name) = series.strip_suffix("_count") {
                    counts.insert(name, value.parse().unwrap());
                }
            }
        }
        let expected: Vec<String> = std::iter::once("fedsched_admit_latency_us".to_owned())
            .chain(
                RequestStage::ALL
                    .iter()
                    .map(|s| format!("fedsched_stage_duration_{}_us", s.name())),
            )
            .collect();
        for family in &expected {
            let inf_value = *inf
                .get(family.as_str())
                .unwrap_or_else(|| panic!("{family} has no +Inf bucket:\n{text}"));
            let count = counts[family.as_str()];
            assert_eq!(inf_value, count, "{family}: +Inf bucket != _count");
        }
        assert_eq!(inf["fedsched_admit_latency_us"], 3);
        assert_eq!(inf["fedsched_stage_duration_parse_us"], 5);
        assert!(text.lines().any(|l| l == "fedsched_requests_total 5"));
    }

    #[test]
    fn latency_help_text_declares_bucket_upper_bound_semantics() {
        let snapshot = StatsSnapshot {
            processors: 1,
            dedicated_processors: 0,
            shared_processors: 1,
            resident_tasks: 0,
            admitted_high: 0,
            admitted_low: 0,
            rejected_high: 0,
            rejected_low: 0,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats::default(),
            durability: DurabilityStats::default(),
            stages: StageStats::default(),
            reactor: ReactorStats::default(),
        };
        let text = render_prometheus(&snapshot);
        // Every latency histogram HELP line must label its quantiles for
        // what they are: power-of-two bucket upper bounds, not exact.
        for line in text.lines().filter(|l| {
            l.starts_with("# HELP fedsched_admit_latency_us")
                || l.starts_with("# HELP fedsched_stage_duration_")
        }) {
            assert!(
                line.contains("upper bounds"),
                "HELP must declare upper-bound semantics: {line}"
            );
        }
    }

    #[test]
    fn stage_stats_expose_buckets_and_histograms_per_stage() {
        let mut stages = StageStats::default();
        stages.wal_append_buckets_us[4] = 7;
        assert_eq!(stages.buckets(RequestStage::WalAppend)[4], 7);
        assert_eq!(stages.buckets(RequestStage::Parse)[4], 0);
        let h = stages.histogram(RequestStage::WalAppend);
        assert_eq!(h.total(), 7);
        assert_eq!(h.quantile(0.5), Some(32), "bucket 4 upper edge");
        for stage in RequestStage::ALL {
            assert_eq!(stages.buckets(stage).len(), LATENCY_BUCKETS);
            assert!(stage
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn snapshots_with_transport_counters_roundtrip() {
        let snapshot = StatsSnapshot {
            processors: 2,
            dedicated_processors: 0,
            shared_processors: 2,
            resident_tasks: 0,
            admitted_high: 0,
            admitted_low: 0,
            rejected_high: 0,
            rejected_low: 0,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats {
                connections_served: 9,
                busy_rejections: 3,
                read_timeouts: 2,
                connections_timed_out: 1,
                oversized_requests: 5,
                malformed_requests: 6,
                budget_exhausted: 7,
                drained_connections: 4,
            },
            durability: DurabilityStats {
                enabled: true,
                wal_records_appended: 3,
                ..DurabilityStats::default()
            },
            stages: StageStats {
                requests_total: 12,
                ..StageStats::default()
            },
            reactor: ReactorStats {
                registered_fds: 2,
                wakeups: 9,
                ready_events: 15,
            },
        };
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.transport, snapshot.transport);
        assert_eq!(back.durability, snapshot.durability);
        assert_eq!(back.stages, snapshot.stages);
        assert_eq!(back.reactor, snapshot.reactor);
        // A snapshot from a server predating the stage decomposition and
        // the reactor section deserializes with default stage stats and
        // zeroed reactor counters.
        let stripped = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            if let serde_json::Value::Map(entries) = &mut v {
                entries.retain(|(k, _)| k != "stages" && k != "reactor" && k != "cache_evictions");
            }
            serde_json::to_string(&v).unwrap()
        };
        let old: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.stages, StageStats::default());
        assert_eq!(old.reactor, ReactorStats::default());
        assert_eq!(old.cache_evictions, 0);
        // A snapshot from a server that reported its reactors per shard
        // decodes, the retired `shards` list ignored.
        let legacy = stripped.replacen(
            "\"processors\":2,",
            "\"processors\":2,\"shards\":[{\"shard\":1,\"connections_served\":40,\
             \"reactor_wakeups\":9,\"stages\":{\"requests_total\":12}}],",
            1,
        );
        assert_ne!(legacy, stripped);
        let back: StatsSnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, old);
    }

    #[test]
    fn histograms_rebuild_from_exported_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(900));
        let rebuilt = LatencyHistogram::from_buckets(h.buckets());
        assert_eq!(rebuilt, h);
        // Excess buckets saturate into the open-ended last one.
        let mut long = vec![0u64; LATENCY_BUCKETS + 3];
        long[LATENCY_BUCKETS + 2] = 4;
        long[0] = 1;
        let clamped = LatencyHistogram::from_buckets(&long);
        assert_eq!(clamped.buckets()[0], 1);
        assert_eq!(clamped.buckets()[LATENCY_BUCKETS - 1], 4);
        assert_eq!(clamped.total(), 5);
    }

    #[test]
    fn wal_metrics_are_always_exposed() {
        let snapshot = StatsSnapshot {
            processors: 2,
            dedicated_processors: 0,
            shared_processors: 2,
            resident_tasks: 0,
            admitted_high: 0,
            admitted_low: 0,
            rejected_high: 0,
            rejected_low: 0,
            removed: 0,
            remove_anomalies: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_evictions: 0,
            latency_buckets_us: vec![0; LATENCY_BUCKETS],
            latency_p50_us: None,
            latency_p90_us: None,
            latency_p99_us: None,
            probe: AnalysisProbe::default(),
            transport: TransportStats::default(),
            durability: DurabilityStats::default(),
            stages: StageStats::default(),
            reactor: ReactorStats::default(),
        };
        let text = render_prometheus(&snapshot);
        fedsched_telemetry::validate_exposition(&text).expect("exposition parses");
        // Disabled durability still renders the whole family, zeroed.
        for line in [
            "fedsched_wal_enabled 0",
            "fedsched_wal_size_bytes 0",
            "fedsched_wal_records_appended_total 0",
            "fedsched_wal_bytes_written_total 0",
            "fedsched_wal_fsyncs_total 0",
            "fedsched_wal_snapshots_written_total 0",
            "fedsched_wal_replayed_records_total 0",
            "fedsched_wal_truncated_bytes_total 0",
            "fedsched_wal_snapshots_skipped_total 0",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}:\n{text}");
        }
    }
}
