//! The admission server: one epoll reactor owning the listener and every
//! connection, a dispatch pool answering requests, and one
//! mutex-protected [`AdmissionState`] — the authoritative admission
//! ledger.
//!
//! The reactor accepts every connection itself. While fewer than
//! [`ConnectionLimits::max_connections`] served connections are open it
//! serves the new one; otherwise it answers a framed [`Response::Busy`]
//! and closes. A slow or hostile client therefore pins at most one
//! reactor slot, never a thread, and a well-formed client always gets
//! *some* answer quickly: a served request or a fast `Busy`.
//!
//! Every request runs through one pipeline, whatever carries its bytes:
//! one frame decoder and one request loop, fed socket bytes by the
//! reactor and in-process bytes by a [`Session`]
//! ([`ServerHandle::session`]), so a session answers a byte stream
//! exactly as a TCP connection does.
//!
//! # The connection plane
//!
//! The server runs one reactor, a dispatch pool of
//! [`ServerConfig::workers`] threads and, under an interval fsync policy
//! only, the WAL flusher:
//!
//! * **One reactor** — a nonblocking event loop owns every socket from
//!   accept to close and decodes frames as bytes arrive; decoded frames
//!   are answered off the loop by the dispatch pool and the responses
//!   handed back to the loop to write. It counts the served sockets
//!   itself, so `Busy` means exactly that `max_connections` of them are
//!   open. Every decision runs under the one ledger lock, so a second
//!   reactor could not run two decisions at once; a per-core plane of
//!   reactors measured no gain on any benchmarked workload.
//! * **One dispatch per request** — every request, `Admit` included, is
//!   answered by `dispatch` under one ledger acquisition. The ledger's
//!   one [`TemplateCache`](crate::cache::TemplateCache) sizes a
//!   high-density task inline on a miss, under the lock, beside the
//!   first-fit suffix replay a low-density admit already runs there; a
//!   hit costs one lookup, and a low-density admit touches no cache.
//! * **Each decider journals its own decision** — the dispatch worker or
//!   session that decides a request takes the WAL's store lock *before*
//!   it releases the ledger lock, then appends and fsyncs with only the
//!   store lock held. WAL order is decision order by construction, no
//!   fsync runs under the ledger lock, and one decision's fsync overlaps
//!   the next decision's analysis. Under `--fsync interval:<ms>` a
//!   flusher thread pays a due sync even when no request arrives.
//!
//! Every served connection runs under the deadlines and caps of
//! [`ConnectionLimits`]:
//!
//! * **IO deadlines** — the reactor keeps an `io_timeout` deadline per
//!   connection on a timer wheel. On an idle expiry it re-checks the
//!   shutdown flag and keeps serving; after `idle_strikes` consecutive
//!   expiries without a complete request it drops the connection
//!   (slowloris clients trickle bytes but never finish a line, so they
//!   strike out too). A response the client will not read within one
//!   deadline closes the connection.
//! * **Bounded framing** — the frame decoder buffers fewer than
//!   `max_frame_bytes` bytes of an unterminated frame; a frame that
//!   reaches the cap without its newline is answered with a framed
//!   `Error` and the connection is dropped, never an unbounded buffer.
//! * **Request budget** — a connection that has served
//!   `max_requests_per_connection` requests is asked to reconnect, so no
//!   single connection holds a `max_connections` slot forever.
//! * **Lingering close** — after every last line the reactor writes (a
//!   `Busy`, a framed `Error`, a metrics reply) it shuts the write half
//!   and discards what the client still sends until EOF, 64 KiB or
//!   100 ms, then closes, so the close cannot reset the connection before
//!   the client reads that line.
//!
//! Shutdown is drain-based: [`ServerHandle::shutdown`] (or a client
//! `Shutdown` request) flips the shared flag and wakes the reactor
//! through its eventfd; idle and mid-frame connections drain at once, and
//! those being answered finish writing first, so with `io_timeout`
//! configured [`ServerHandle::join`] returns within one deadline period.
//! Transport
//! incidents (timeouts, oversized frames, busy rejections, drains) are
//! counted lock-free in [`TransportCounters`] and surfaced both in the
//! Prometheus exposition and on the telemetry event bus.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use fedsched_durable::{
    list_snapshots, load_snapshot, DurableStore, LogRecord, StoreConfig, WalStats, FORMAT_VERSION,
};
use fedsched_telemetry::{monotonic_nanos, CounterKind, SpanPhase, TelemetryEvent, TraceId};

use crate::cache::CachedSizing;
use crate::pipeline::process_lines;
pub use crate::pipeline::Session;
use crate::protocol::{Request, RequestTiming, Response};
use crate::reactor::{reactor_loop, JobQueue, ReactorShared};
use crate::recovery::{admit_records, recover_state, remove_record, ReplayReport};
use crate::state::{AdmissionConfig, AdmissionState};
use crate::stats::{
    render_prometheus, DurabilityStats, LatencyHistogram, ReactorStats, RequestStage, StageStats,
    StatsSnapshot, TransportStats, LATENCY_BUCKETS, REQUEST_STAGES,
};

/// Deadlines and caps protecting every served connection; see the module
/// docs for how each knob defends the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionLimits {
    /// Per-connection read *and* write deadline. `None` disables IO
    /// deadlines entirely — the pre-hardening blocking behaviour — and
    /// with it the termination bound on [`ServerHandle::shutdown`].
    pub io_timeout: Option<Duration>,
    /// Consecutive read-deadline expiries (without a complete request)
    /// tolerated before the connection is dropped; clamped to at least 1.
    pub idle_strikes: u32,
    /// Maximum bytes of one request frame, newline included; an
    /// overflowing frame gets a framed `Error` and the connection is
    /// dropped. Clamped to at least 64.
    pub max_frame_bytes: usize,
    /// Maximum concurrently served connections; overflow is answered with
    /// a fast [`Response::Busy`]. A served connection holds its slot until
    /// its socket closes. Clamped to at least 1.
    pub max_connections: usize,
    /// Requests one connection may issue before being asked to reconnect;
    /// clamped to at least 1.
    pub max_requests_per_connection: u64,
    /// Slow-request log threshold (`--slow-ms`): a request whose
    /// *processing* time — every stage except the read/frame stage, which
    /// contains client think time — reaches it is logged to stderr as one
    /// structured `fedsched-slow-request` line with the per-stage
    /// breakdown, keyed by trace id. `None` (the default) disables the
    /// log; zero is sanitized to `None`.
    pub slow_request: Option<Duration>,
}

impl Default for ConnectionLimits {
    fn default() -> ConnectionLimits {
        ConnectionLimits {
            io_timeout: Some(Duration::from_secs(30)),
            idle_strikes: 4,
            max_frame_bytes: 1 << 20,
            max_connections: 256,
            max_requests_per_connection: 1_000_000,
            slow_request: None,
        }
    }
}

impl ConnectionLimits {
    fn sanitized(self) -> ConnectionLimits {
        ConnectionLimits {
            io_timeout: self.io_timeout.filter(|t| !t.is_zero()),
            idle_strikes: self.idle_strikes.max(1),
            max_frame_bytes: self.max_frame_bytes.max(64),
            max_connections: self.max_connections.max(1),
            max_requests_per_connection: self.max_requests_per_connection.max(1),
            slow_request: self.slow_request.filter(|t| !t.is_zero()),
        }
    }

    /// How long the reactor waits for connections to drain once shutdown
    /// began. With deadlines configured every parked connection times out
    /// within one `io_timeout`, so two periods plus slack bounds the
    /// drain; without deadlines the wait is a short grace period only
    /// (the reactor then drops the stragglers).
    pub(crate) fn drain_deadline(&self) -> Duration {
        match self.io_timeout {
            Some(t) => t.saturating_mul(2).saturating_add(Duration::from_secs(5)),
            None => Duration::from_secs(1),
        }
    }
}

/// Configuration of [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port; read
    /// it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Dispatch-pool width: the threads answering decoded requests
    /// (clamped to at least 1). Connections are accepted and multiplexed
    /// by the one reactor and bounded by
    /// [`ConnectionLimits::max_connections`], not by this count.
    pub workers: usize,
    /// The admission-control platform and FEDCONS knobs.
    pub admission: AdmissionConfig,
    /// Per-connection deadlines and caps.
    pub limits: ConnectionLimits,
    /// Durability: `Some` journals every decision to a write-ahead log in
    /// the given data directory (recovering prior state at boot), `None`
    /// keeps all state in memory.
    pub durability: Option<StoreConfig>,
    /// Warm-start handoff for blue/green restarts: `Some(dir)` imports the
    /// template-cache section — and *only* that section — of the newest
    /// loadable snapshot in another server's data directory. No placements,
    /// tokens, or counters are taken over; the new server merely starts
    /// with the donor's memoized `MINPROCS` sizings so its first admissions
    /// hit warm instead of recomputing. Damaged or version-mismatched
    /// snapshots fall back to older ones; an empty donor imports nothing.
    pub handoff_from: Option<PathBuf>,
}

/// Lock-free transport-hardening counters kept by the connection layer.
///
/// Monotonic since server start; snapshot them with
/// [`TransportCounters::snapshot`] (also merged into every
/// [`StatsSnapshot`] the server serves).
#[derive(Debug, Default)]
pub struct TransportCounters {
    pub(crate) connections_served: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) read_timeouts: AtomicU64,
    pub(crate) connections_timed_out: AtomicU64,
    pub(crate) oversized_requests: AtomicU64,
    pub(crate) malformed_requests: AtomicU64,
    pub(crate) budget_exhausted: AtomicU64,
    pub(crate) drained_connections: AtomicU64,
}

impl TransportCounters {
    /// A point-in-time copy of all counters.
    #[must_use]
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            connections_served: self.connections_served.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            connections_timed_out: self.connections_timed_out.load(Ordering::Relaxed),
            oversized_requests: self.oversized_requests.load(Ordering::Relaxed),
            malformed_requests: self.malformed_requests.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            drained_connections: self.drained_connections.load(Ordering::Relaxed),
        }
    }
}

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A zero-allocation per-request stage stopwatch.
///
/// Lives on the request loop's stack: two fixed arrays of nanosecond tallies
/// and end stamps, fed by the shared telemetry clock
/// ([`monotonic_nanos`]), so stamping a boundary is one clock read and
/// two array writes — no heap traffic on the warm path (enforced by the
/// counting-allocator suite in `tests/stage_alloc.rs`).
#[derive(Debug, Clone, Copy)]
pub struct StageTimer {
    /// Monotonic stamp of the previous boundary.
    last: u64,
    /// Nanoseconds credited to each stage so far.
    nanos: [u64; REQUEST_STAGES],
    /// Monotonic end stamp of each stage's last credited interval (zero
    /// until the stage is first stamped).
    ends: [u64; REQUEST_STAGES],
}

impl StageTimer {
    /// Starts timing a request: the first boundary is "now".
    #[must_use]
    pub fn start() -> StageTimer {
        StageTimer {
            last: monotonic_nanos(),
            nanos: [0; REQUEST_STAGES],
            ends: [0; REQUEST_STAGES],
        }
    }

    /// Credits the interval since the previous boundary to `stage` and
    /// advances the boundary. Safe to call repeatedly for the same stage
    /// (intervals accumulate — a frame resumed across read deadlines
    /// credits each attempt).
    pub fn stamp(&mut self, stage: RequestStage) {
        let now = monotonic_nanos();
        let i = stage.index();
        self.nanos[i] = self.nanos[i].saturating_add(now.saturating_sub(self.last));
        self.ends[i] = now;
        self.last = now;
    }

    /// Credits the interval since the previous boundary to the three
    /// dispatch-internal stages at once: `cache_ns` to the cache lookup,
    /// `wal_ns` to the WAL append, and the remainder (lock wait and the
    /// analysis itself) to the analysis stage.
    pub fn stamp_dispatch(&mut self, cache_ns: u64, wal_ns: u64) {
        let now = monotonic_nanos();
        let total = now.saturating_sub(self.last);
        let analysis = total.saturating_sub(cache_ns).saturating_sub(wal_ns);
        let cache = RequestStage::CacheLookup.index();
        let wal = RequestStage::WalAppend.index();
        let ana = RequestStage::Analysis.index();
        self.nanos[cache] = self.nanos[cache].saturating_add(cache_ns);
        self.nanos[wal] = self.nanos[wal].saturating_add(wal_ns);
        self.nanos[ana] = self.nanos[ana].saturating_add(analysis);
        self.ends[cache] = now;
        self.ends[wal] = now;
        self.ends[ana] = now;
        self.last = now;
    }

    /// Nanoseconds credited to `stage` so far.
    #[must_use]
    pub fn nanos(&self, stage: RequestStage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Microseconds credited to `stage` so far (truncating).
    #[must_use]
    pub fn micros(&self, stage: RequestStage) -> u64 {
        self.nanos[stage.index()] / 1_000
    }

    /// Total processing nanoseconds: every stage except the idle wait and
    /// the frame read, which contain the wait for the client's bytes (a
    /// slowloris trickle included) and would make every idle interactive
    /// session look slow.
    #[must_use]
    pub fn processing_nanos(&self) -> u64 {
        RequestStage::ALL
            .iter()
            .filter(|s| !matches!(**s, RequestStage::IdleWait | RequestStage::FrameRead))
            .map(|s| self.nanos[s.index()])
            .fold(0u64, u64::saturating_add)
    }

    /// The monotonic `(start, end)` of `stage`'s last credited interval,
    /// or `None` if the stage was never stamped — what the Chrome server
    /// lane replays as a span.
    #[must_use]
    pub fn last_interval(&self, stage: RequestStage) -> Option<(u64, u64)> {
        let i = stage.index();
        (self.ends[i] != 0).then(|| (self.ends[i].saturating_sub(self.nanos[i]), self.ends[i]))
    }
}

/// Lock-free per-stage pipeline histograms kept by the connection layer,
/// mirroring the [`TransportCounters`] design: the request loop records
/// into atomics without the admission lock, snapshots merge into
/// [`StatsSnapshot`].
#[derive(Debug)]
pub struct StageCounters {
    requests_total: AtomicU64,
    buckets: [[AtomicU64; LATENCY_BUCKETS]; REQUEST_STAGES],
}

impl Default for StageCounters {
    fn default() -> StageCounters {
        StageCounters {
            requests_total: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl StageCounters {
    /// Records one fully answered request: every stage's tally lands in
    /// its power-of-two bucket (zero-duration stages in bucket 0), then
    /// the request total is bumped — so each per-stage histogram count
    /// equals `requests_total` at all times, fault injection included.
    /// Allocation-free.
    pub fn record(&self, timer: &StageTimer) {
        for stage in RequestStage::ALL {
            let bucket = LatencyHistogram::bucket_for_micros(u128::from(timer.micros(stage)));
            self.buckets[stage.index()][bucket].fetch_add(1, Ordering::Relaxed);
        }
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of all stage buckets and the request total.
    #[must_use]
    pub fn snapshot(&self) -> StageStats {
        let load = |stage: RequestStage| -> Vec<u64> {
            self.buckets[stage.index()]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        };
        StageStats {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            idle_wait_buckets_us: load(RequestStage::IdleWait),
            frame_read_buckets_us: load(RequestStage::FrameRead),
            parse_buckets_us: load(RequestStage::Parse),
            cache_lookup_buckets_us: load(RequestStage::CacheLookup),
            analysis_buckets_us: load(RequestStage::Analysis),
            wal_append_buckets_us: load(RequestStage::WalAppend),
            serialize_buckets_us: load(RequestStage::Serialize),
        }
    }
}

/// Lock-free counters of the epoll reactor, exposed as the
/// `fedsched_reactor_*` metric families.
#[derive(Debug, Default)]
pub(crate) struct ReactorCounters {
    /// Served, non-lingering sockets currently registered with the
    /// reactor (gauge).
    pub(crate) registered_fds: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event.
    pub(crate) wakeups: AtomicU64,
    /// Total readiness events processed.
    pub(crate) ready_events: AtomicU64,
}

impl ReactorCounters {
    /// A point-in-time copy, merged into every [`StatsSnapshot`].
    fn snapshot(&self) -> ReactorStats {
        ReactorStats {
            registered_fds: self.registered_fds.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            ready_events: self.ready_events.load(Ordering::Relaxed),
        }
    }
}

/// Journals one decision's `records` and returns how long the append
/// took and whether it succeeded.
///
/// The store lock is taken while `guard` still holds the ledger, and only
/// then is the ledger released (hand-over-hand), so WAL order is decision
/// order. The append, and any fsync the policy asks for, runs under the
/// store lock alone, overlapping the next decision's analysis. A failed
/// append stops at the failing record, so only this request is refused an
/// acknowledgement.
///
/// The ledger is then taken once more to bank the `wal_*` counters,
/// record the `WalAppend` span when `traced` and the sink is on, and,
/// when a snapshot threshold was crossed, install a snapshot under both
/// locks. Every decider holds the store before it releases the ledger, so
/// with both held the WAL holds exactly the decisions the state reflects.
/// The returned nanoseconds run from the wait for the store lock to the
/// end of the append.
fn journal_decision(
    shared: &Shared,
    journal: &Journal,
    guard: MutexGuard<'_, AdmissionState>,
    records: &[LogRecord],
    trace_id: Option<u64>,
    traced: bool,
) -> (u64, io::Result<()>) {
    let wal_start = monotonic_nanos();
    let mut store = journal.lock();
    drop(guard);
    let before = store.wal_stats();
    let mut appended = 0u64;
    let result = records.iter().try_for_each(|record| {
        store.append(record)?;
        appended += 1;
        Ok(())
    });
    let wal_end = monotonic_nanos();
    let after = store.wal_stats();
    let should_snapshot = store.should_snapshot();
    drop(store);
    if let Err(e) = &result {
        eprintln!("fedsched-wal-append-error: {e}");
    }
    let mut guard = lock(&shared.state);
    bank_wal_counters(&mut guard, appended, before, after);
    if traced && guard.sink.is_enabled() {
        guard.sink.record(TelemetryEvent::Span {
            trace_id: trace_id.map(TraceId),
            phase: SpanPhase::WalAppend,
            start_nanos: wal_start,
            end_nanos: wal_end,
        });
    }
    if should_snapshot {
        let mut store = journal.lock();
        // A concurrent decider may have crossed the same threshold and
        // installed the snapshot first.
        if store.should_snapshot() {
            let before = store.wal_stats();
            let installed = store.install_snapshot(&guard.export());
            bank_wal_counters(&mut guard, 0, before, store.wal_stats());
            match installed {
                Ok(_) => guard.add_counter(CounterKind::WalSnapshotWritten, 1),
                // Non-fatal: decisions are acked from the WAL, not the
                // snapshot; the next threshold crossing retries.
                Err(e) => eprintln!("fedsched-wal-snapshot-error: {e}"),
            }
        }
    }
    (wal_end.saturating_sub(wal_start), result)
}

/// Banks the WAL's cost between two readings of its stats on the
/// telemetry counters: `records` decision records (a snapshot marker is
/// not one), and the bytes and fsyncs the store counted.
fn bank_wal_counters(guard: &mut AdmissionState, records: u64, before: WalStats, after: WalStats) {
    for (kind, delta) in [
        (CounterKind::WalRecordAppended, records),
        (
            CounterKind::WalBytesWritten,
            after.bytes_appended - before.bytes_appended,
        ),
        (CounterKind::WalFsync, after.fsyncs - before.fsyncs),
    ] {
        if delta > 0 {
            guard.add_counter(kind, delta);
        }
    }
}

/// The WAL flusher's body, spawned only under an interval fsync policy.
/// An append pays a due sync itself, but a quiet log gets no next append:
/// the flusher parks until the policy owes the log a sync, then pays it.
/// A clean log owes nothing, so the flusher parks one interval; a frame
/// appended meanwhile still waits at most that long, since an append that
/// finds the last sync an interval old syncs itself. [`ServerHandle::join`]
/// unparks the flusher to exit.
fn flusher_loop(shared: &Shared, interval: Duration) {
    let Some(journal) = &shared.journal else {
        return;
    };
    while !shared.shutdown.load(Ordering::Acquire) {
        let (synced, due) = {
            let mut store = journal.lock();
            (store.sync_if_due(), store.sync_due())
        };
        if matches!(synced, Ok(true)) {
            lock(&shared.state).add_counter(CounterKind::WalFsync, 1);
        }
        // A failed sync leaves the deadline expired: retry after one
        // interval, not in a spin.
        std::thread::park_timeout(due.filter(|d| !d.is_zero()).unwrap_or(interval));
    }
}

/// The open durable store plus what boot recovery found in it.
///
/// The store sits behind its own mutex, after the ledger in the lock
/// order `state → store`: a decider takes the store while it still holds
/// the ledger (see [`journal_decision`]), and nothing that holds the
/// store ever waits for the ledger. Metrics and the flusher take the
/// store alone.
#[derive(Debug)]
pub(crate) struct Journal {
    store: Mutex<DurableStore>,
    boot: ReplayReport,
}

impl Journal {
    fn lock(&self) -> MutexGuard<'_, DurableStore> {
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Everything the reactor, dispatch workers, and sessions share.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) state: Arc<Mutex<AdmissionState>>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: Arc<TransportCounters>,
    /// The reactor's outcome mailbox and waker.
    pub(crate) reactor: ReactorShared,
    /// The reactor's `fedsched_reactor_*` counters.
    pub(crate) reactor_counters: ReactorCounters,
    /// Decoded frames waiting for the dispatch pool.
    pub(crate) jobs: JobQueue,
    pub(crate) limits: ConnectionLimits,
    pub(crate) journal: Option<Journal>,
    pub(crate) stages: Arc<StageCounters>,
}

/// A running server: the shared state plus the threads to join.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    handoff_absorbed: Option<u64>,
    reactor: JoinHandle<()>,
    dispatchers: Vec<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared admission state (for in-process inspection; network
    /// clients use the `Stats` request).
    #[must_use]
    pub fn state(&self) -> Arc<Mutex<AdmissionState>> {
        Arc::clone(&self.shared.state)
    }

    /// The connection layer's lock-free hardening counters. The returned
    /// handle stays valid after [`Self::shutdown`]/[`Self::join`] consume
    /// the server, so tests and hosting processes can assert on the final
    /// tallies.
    #[must_use]
    pub fn transport(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// A point-in-time copy of the transport counters.
    #[must_use]
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    /// The connection layer's lock-free per-stage pipeline histograms.
    /// Like [`Self::transport`], the handle outlives
    /// [`Self::shutdown`]/[`Self::join`].
    #[must_use]
    pub fn stage_counters(&self) -> Arc<StageCounters> {
        Arc::clone(&self.shared.stages)
    }

    /// A point-in-time copy of the per-stage pipeline histograms.
    #[must_use]
    pub fn stage_stats(&self) -> StageStats {
        self.shared.stages.snapshot()
    }

    /// A point-in-time copy of the reactor's counters — the same section
    /// `Stats` responses carry.
    #[must_use]
    pub fn reactor_stats(&self) -> ReactorStats {
        self.shared.reactor_counters.snapshot()
    }

    /// [`Self::reactor_stats`] as a one-entry list, for callers that
    /// still count the connection plane's reactors (the benchmark's run
    /// record does). Deprecated: read [`Self::reactor_stats`].
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ReactorStats> {
        vec![self.reactor_stats()]
    }

    /// What boot recovery replayed from the data directory, or `None`
    /// when the server runs without durability. Hosting processes log
    /// this at startup.
    #[must_use]
    pub fn boot_report(&self) -> Option<ReplayReport> {
        self.shared.journal.as_ref().map(|j| j.boot)
    }

    /// How many template-cache entries the `--handoff-from` warm start
    /// imported, or `None` when no handoff directory was configured.
    #[must_use]
    pub fn handoff_absorbed(&self) -> Option<u64> {
        self.handoff_absorbed
    }

    /// Opens an in-process [`Session`] on this server: bytes sent through
    /// it are framed and answered by the same decoder and request loop as
    /// a TCP connection's, against the same state, counters, and WAL, with
    /// no socket involved. The session borrows the handle, so it cannot
    /// outlive [`Self::shutdown`]/[`Self::join`].
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        Session::new(&self.shared)
    }

    /// Blocks until the reactor exits — once some client sent
    /// `Shutdown`, or [`Self::shutdown`] was called, and the live
    /// connections drained — then joins the dispatch pool and the WAL
    /// flusher and syncs the WAL. With [`ConnectionLimits::io_timeout`]
    /// configured the drain is bounded: every connection parked mid-frame
    /// times out within one deadline period, observes the shutdown flag,
    /// and closes; the reactor drops whatever is still open at the drain
    /// deadline.
    pub fn join(self) {
        let shared = &self.shared;
        let _ = self.reactor.join();
        // With the reactor gone nothing enqueues jobs: close the queue,
        // let the dispatch pool finish what is in flight, and join it.
        shared.jobs.close();
        for thread in self.dispatchers {
            let _ = thread.join();
        }
        // The shutdown flag is set; wake the flusher to observe it.
        if let Some(thread) = self.flusher {
            thread.thread().unpark();
            let _ = thread.join();
        }
        // Whatever the fsync policy, leave nothing in the page cache on
        // an orderly exit.
        if let Some(journal) = &shared.journal {
            let _ = journal.lock().sync();
        }
    }

    /// Initiates shutdown from the hosting process and joins the server.
    /// Terminates within roughly one `io_timeout` of the call even if
    /// clients hold connections open or sit mid-request — their deadlines
    /// fire, the reactor observes the flag, and the connections close.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.reactor.wake();
        self.join();
    }
}

/// Binds the listener and spawns the reactor, which owns it, and the
/// dispatch pool. With [`ServerConfig::durability`] set, the data
/// directory is opened (and created if absent) first: the newest loadable
/// snapshot is restored structurally and the WAL suffix is re-executed
/// through the admission engine, so the server answers `stats` and new
/// admissions exactly as the pre-crash instance would have.
///
/// # Errors
///
/// I/O errors binding the address or spawning threads; with durability,
/// an unreadable WAL or — worse — a replay whose re-derived outcome
/// diverges from a logged one (`InvalidData`: serving would break
/// promises clients already hold).
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    let (mut initial_state, journal) = match &config.durability {
        Some(store_config) => {
            let (store, recovered) = DurableStore::open(store_config.clone())?;
            let (mut state, boot) = recover_state(config.admission, &recovered).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("refusing to serve from {}: {e}", store_config.dir.display()),
                )
            })?;
            state.add_counter(CounterKind::WalRecordReplayed, boot.replayed_records);
            (
                state,
                Some(Journal {
                    store: Mutex::new(store),
                    boot,
                }),
            )
        }
        None => (AdmissionState::new(config.admission), None),
    };
    let handoff_absorbed = match &config.handoff_from {
        Some(dir) => {
            let absorbed = import_handoff_cache(&mut initial_state, dir)?;
            if absorbed > 0 {
                if let Some(journal) = &journal {
                    // The imported entries exist in no snapshot or WAL
                    // record of *this* data directory, but they change
                    // which future admissions are logged as cache hits.
                    // Snapshot (and compact) before serving, so a later
                    // crash-recovery replay starts from the same warm
                    // cache those decisions were judged against instead
                    // of diverging on a cold one.
                    let mut store = journal.lock();
                    store.compact(&initial_state.export())?;
                    initial_state.add_counter(CounterKind::WalSnapshotWritten, 1);
                }
            }
            Some(absorbed)
        }
        None => None,
    };
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        state: Arc::new(Mutex::new(initial_state)),
        shutdown: AtomicBool::new(false),
        counters: Arc::new(TransportCounters::default()),
        reactor: ReactorShared::new()?,
        reactor_counters: ReactorCounters::default(),
        jobs: JobQueue::new(),
        limits: config.limits.sanitized(),
        journal,
        stages: Arc::new(StageCounters::default()),
    });
    let flusher = shared
        .journal
        .as_ref()
        .and_then(|journal| journal.lock().fsync_interval())
        .map(|interval| {
            spawn(&shared, "fedsched-wal-flusher".to_owned(), move |shared| {
                flusher_loop(shared, interval);
            })
        })
        .transpose()?;
    let reactor = spawn(&shared, "fedsched-reactor".to_owned(), move |shared| {
        reactor_loop(shared, listener);
    })?;
    let dispatchers = (0..config.workers.max(1))
        .map(|i| spawn(&shared, format!("fedsched-dispatch-{i}"), dispatch_loop))
        .collect::<io::Result<_>>()?;
    Ok(ServerHandle {
        shared,
        local_addr,
        handoff_absorbed,
        reactor,
        dispatchers,
        flusher,
    })
}

/// Spawns one named server thread running `body` against the shared state.
fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
}

/// One dispatch-pool worker: pops decoded frames, runs the request loop
/// over them, and posts the outcome back to the reactor.
fn dispatch_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        let outcome = process_lines(shared, &job.frames, job.served, job.timer);
        shared.reactor.push_outcome(job.token, outcome);
    }
}

/// Imports the template-cache section of the newest loadable snapshot in
/// `dir` into `state`'s cache; see [`ServerConfig::handoff_from`]. Walks
/// the donor's snapshots newest-first, skipping damaged or
/// version-mismatched files exactly like boot recovery does, and absorbs
/// the first readable one. Returns the number of entries imported.
fn import_handoff_cache(state: &mut AdmissionState, dir: &Path) -> io::Result<u64> {
    let seqs = list_snapshots(dir)?;
    for seq in seqs.into_iter().rev() {
        let Ok(snapshot) = load_snapshot(dir, seq) else {
            continue;
        };
        if snapshot.version != FORMAT_VERSION {
            continue;
        }
        let entries = snapshot
            .cache
            .iter()
            .map(|e| {
                (
                    e.key.clone(),
                    e.sizing.as_ref().map(|s| CachedSizing {
                        processors: s.processors,
                        template: Arc::new(s.template.clone()),
                    }),
                )
            })
            .collect();
        return Ok(state.cache.absorb_entries(entries) as u64);
    }
    Ok(0)
}

/// Locks the state, recovering from a poisoned mutex: the state's own
/// methods leave it consistent even if a panic unwinds elsewhere.
pub(crate) fn lock(state: &Mutex<AdmissionState>) -> MutexGuard<'_, AdmissionState> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Assembles the snapshot the server serves: the admission counters (one
/// short critical section — the guard is dropped before any rendering)
/// merged with the lock-free transport counters.
fn merged_snapshot(shared: &Shared) -> StatsSnapshot {
    // Binding the snapshot first bounds the lock to the copy itself;
    // rendering (and the scrape write) must never block admissions.
    let mut snapshot = lock(&shared.state).snapshot();
    snapshot.transport = shared.counters.snapshot();
    snapshot.stages = shared.stages.snapshot();
    snapshot.reactor = shared.reactor_counters.snapshot();
    if let Some(journal) = &shared.journal {
        let store = journal.lock();
        let wal = store.wal_stats();
        snapshot.durability = DurabilityStats {
            enabled: true,
            wal_records_appended: wal.records_appended,
            wal_bytes_appended: wal.bytes_appended,
            wal_fsyncs: wal.fsyncs,
            wal_len_bytes: store.wal_len(),
            snapshots_written: store.snapshots_written(),
            last_snapshot_seq: store.last_snapshot_seq(),
            replayed_records: journal.boot.replayed_records,
            replay_nanos: journal.boot.replay_nanos,
            truncated_bytes: journal.boot.truncated_bytes,
            snapshots_skipped: journal.boot.snapshots_skipped,
        };
    }
    snapshot
}

/// The response for a decision whose journal append failed. The decision
/// stays applied in memory (still sound — it passed admission), but it is
/// *not* acknowledged: after a crash the log has no record of it, and the
/// client saw an error, so both sides agree it may not survive.
fn journal_error(e: &io::Error) -> Response {
    Response::Error {
        message: format!("durability failure, decision not acknowledged: {e}"),
    }
}

/// Answers a `GET /metrics` scrape with one minimal HTTP response and the
/// Prometheus exposition body.
pub(crate) fn serve_metrics_http<W: Write>(writer: &mut W, shared: &Shared) -> io::Result<()> {
    let body = render_prometheus(&merged_snapshot(shared));
    write!(
        writer,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    writer.flush()
}

/// Builds the per-request timing echo from the stages the timer has
/// credited so far (everything but serialize, which cannot echo itself).
pub(crate) fn request_timing(timer: &StageTimer) -> RequestTiming {
    RequestTiming {
        idle_us: timer.micros(RequestStage::IdleWait),
        read_us: timer.micros(RequestStage::FrameRead),
        parse_us: timer.micros(RequestStage::Parse),
        cache_us: timer.micros(RequestStage::CacheLookup),
        analysis_us: timer.micros(RequestStage::Analysis),
        wal_us: timer.micros(RequestStage::WalAppend),
    }
}

/// Emits one structured `fedsched-slow-request` stderr line when the
/// request's *processing* time (every stage except the idle wait and the
/// frame read, which contain client think time) reached the configured
/// `--slow-ms` threshold.
pub(crate) fn log_slow_request(
    limits: &ConnectionLimits,
    trace_id: Option<u64>,
    timer: &StageTimer,
) {
    let Some(threshold) = limits.slow_request else {
        return;
    };
    let processing = timer.processing_nanos();
    if u128::from(processing) < threshold.as_nanos() {
        return;
    }
    let trace = match trace_id {
        Some(id) => id.to_string(),
        None => "-".to_owned(),
    };
    eprintln!(
        "fedsched-slow-request trace_id={trace} total_us={} idle_us={} read_us={} parse_us={} cache_us={} analysis_us={} wal_us={} serialize_us={}",
        processing / 1_000,
        timer.micros(RequestStage::IdleWait),
        timer.micros(RequestStage::FrameRead),
        timer.micros(RequestStage::Parse),
        timer.micros(RequestStage::CacheLookup),
        timer.micros(RequestStage::Analysis),
        timer.micros(RequestStage::WalAppend),
        timer.micros(RequestStage::Serialize),
    );
}

/// Replays the read/frame and parse intervals the reactor and the request
/// loop stamped before taking the state lock as retro-dated server-lane
/// spans, so the Chrome export shows the full request pipeline, not only
/// what happens inside dispatch.
fn emit_request_spans(guard: &mut AdmissionState, trace_id: Option<u64>, timer: &StageTimer) {
    if !guard.sink.is_enabled() {
        return;
    }
    for (stage, phase) in [
        (RequestStage::FrameRead, SpanPhase::RequestRead),
        (RequestStage::Parse, SpanPhase::RequestParse),
    ] {
        if let Some((start_nanos, end_nanos)) = timer.last_interval(stage) {
            guard.sink.record(TelemetryEvent::Span {
                trace_id: trace_id.map(TraceId),
                phase,
                start_nanos,
                end_nanos,
            });
        }
    }
}

/// Maps one request to its response against the shared state, crediting
/// the dispatch interval to the cache-lookup / analysis / WAL-append
/// stages of `timer` on the way out. Analysis runs under the state lock;
/// the WAL append and fsync never do (see [`journal_decision`]).
pub(crate) fn dispatch(request: Request, shared: &Shared, timer: &mut StageTimer) -> Response {
    let state = &shared.state;
    match request {
        Request::Admit {
            task,
            trace_id,
            echo_timing,
        } => {
            let mut guard = lock(state);
            let journaled = shared
                .journal
                .as_ref()
                .map(|journal| (journal, task.clone()));
            let misses_before = guard.cache.misses();
            let hits_before = guard.cache.hits();
            let sizing_before = guard.probe.sizing_nanos;
            let result = guard.admit_traced(task, trace_id);
            // A hit's sizing interval was the cache probe; a miss's ran
            // MINPROCS and stays in the analysis stage.
            let cache_ns = if guard.cache.hits() > hits_before {
                guard.probe.sizing_nanos.saturating_sub(sizing_before)
            } else {
                0
            };
            emit_request_spans(&mut guard, trace_id, timer);
            let (wal_ns, appended) = match journaled {
                Some((journal, task)) => {
                    let records = admit_records(&guard, &task, &result, misses_before, hits_before);
                    journal_decision(shared, journal, guard, &records, trace_id, true)
                }
                None => {
                    drop(guard);
                    (0, Ok(()))
                }
            };
            timer.stamp_dispatch(cache_ns, wal_ns);
            if let Err(e) = appended {
                return journal_error(&e);
            }
            let timing = echo_timing.then(|| request_timing(timer));
            match result {
                Ok(admitted) => Response::Admitted {
                    token: admitted.token,
                    placement: admitted.placement,
                    cache_hit: admitted.cache_hit,
                    trace_id,
                    timing,
                },
                Err(reason) => Response::Rejected {
                    reason: reason.to_string(),
                    trace_id,
                    timing,
                },
            }
        }
        Request::Remove { token } => {
            let mut guard = lock(state);
            let anomalies_before = guard.stats.remove_anomalies;
            match guard.remove(token) {
                Ok(removed) => {
                    let (wal_ns, appended) = match &shared.journal {
                        Some(journal) => {
                            let record = remove_record(&guard, token, anomalies_before);
                            journal_decision(shared, journal, guard, &[record], None, false)
                        }
                        None => {
                            drop(guard);
                            (0, Ok(()))
                        }
                    };
                    timer.stamp_dispatch(0, wal_ns);
                    if let Err(e) = appended {
                        return journal_error(&e);
                    }
                    Response::Removed {
                        token: removed.token,
                        migrated: removed.migrated,
                    }
                }
                Err(_) => {
                    drop(guard);
                    timer.stamp_dispatch(0, 0);
                    Response::NotFound { token }
                }
            }
        }
        Request::Query { token } => {
            let response = match lock(state).query(token) {
                Some(placement) => Response::TaskInfo { token, placement },
                None => Response::NotFound { token },
            };
            timer.stamp_dispatch(0, 0);
            response
        }
        Request::Stats => {
            let response = Response::Stats {
                snapshot: merged_snapshot(shared),
            };
            timer.stamp_dispatch(0, 0);
            response
        }
        Request::StatsPrometheus => {
            let response = Response::Metrics {
                text: render_prometheus(&merged_snapshot(shared)),
            };
            timer.stamp_dispatch(0, 0);
            response
        }
        Request::Shutdown => {
            // Sync the tail before acknowledging, whatever the policy.
            // Taking the ledger first waits out every decider mid-append:
            // each took the store before releasing the ledger.
            if let Some(journal) = &shared.journal {
                let _ledger = lock(state);
                let _ = journal.lock().sync();
            }
            timer.stamp_dispatch(0, 0);
            Response::ShuttingDown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_sanitize_to_usable_floors() {
        let limits = ConnectionLimits {
            io_timeout: Some(Duration::ZERO),
            idle_strikes: 0,
            max_frame_bytes: 0,
            max_connections: 0,
            max_requests_per_connection: 0,
            slow_request: Some(Duration::ZERO),
        }
        .sanitized();
        assert_eq!(limits.io_timeout, None, "zero deadline means no deadline");
        assert_eq!(limits.idle_strikes, 1);
        assert_eq!(limits.max_frame_bytes, 64);
        assert_eq!(limits.max_connections, 1);
        assert_eq!(limits.max_requests_per_connection, 1);
        assert_eq!(
            limits.slow_request, None,
            "a zero slow threshold would log everything; treat it as off"
        );
    }

    #[test]
    fn stage_timer_credits_intervals_and_sums_processing_time() {
        let mut timer = StageTimer::start();
        timer.stamp(RequestStage::IdleWait);
        timer.stamp(RequestStage::FrameRead);
        std::thread::sleep(Duration::from_millis(2));
        timer.stamp(RequestStage::Parse);
        timer.stamp_dispatch(0, 0);
        timer.stamp(RequestStage::Serialize);
        assert!(timer.nanos(RequestStage::Parse) >= 1_000_000);
        let (start, end) = timer
            .last_interval(RequestStage::Parse)
            .expect("parse was stamped");
        assert_eq!(end - start, timer.nanos(RequestStage::Parse));
        assert!(
            timer.last_interval(RequestStage::FrameRead).is_some(),
            "read was stamped"
        );
        let processing: u64 = RequestStage::ALL
            .iter()
            .filter(|s| !matches!(**s, RequestStage::IdleWait | RequestStage::FrameRead))
            .map(|s| timer.nanos(*s))
            .sum();
        assert_eq!(timer.processing_nanos(), processing);
        assert!(timer.micros(RequestStage::Parse) >= 1_000);
    }

    #[test]
    fn stage_counters_record_every_stage_once_per_request() {
        let counters = StageCounters::default();
        let mut timer = StageTimer::start();
        timer.stamp(RequestStage::IdleWait);
        timer.stamp(RequestStage::FrameRead);
        timer.stamp(RequestStage::Parse);
        timer.stamp_dispatch(5_000, 3_000);
        timer.stamp(RequestStage::Serialize);
        counters.record(&timer);
        counters.record(&timer);
        let stats = counters.snapshot();
        assert_eq!(stats.requests_total, 2);
        for stage in RequestStage::ALL {
            let total: u64 = stats.buckets(stage).iter().sum();
            assert_eq!(
                total,
                2,
                "stage {} must record exactly once per request",
                stage.name()
            );
        }
    }

    #[test]
    fn only_a_template_cache_hit_credits_the_cache_lookup_stage() {
        use fedsched_dag::graph::DagBuilder;
        use fedsched_dag::task::DagTask;
        use fedsched_dag::time::Duration as Ticks;

        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            admission: AdmissionConfig::new(8),
            limits: ConnectionLimits::default(),
            durability: None,
            handoff_from: None,
        })
        .expect("bind loopback");
        let shared = &handle.shared;
        let cache_lookup_nanos = |task: DagTask| -> u64 {
            let mut timer = StageTimer::start();
            let request = Request::Admit {
                task,
                trace_id: None,
                echo_timing: false,
            };
            let response = dispatch(request, shared, &mut timer);
            assert!(
                matches!(response, Response::Admitted { .. }),
                "{response:?}"
            );
            timer.nanos(RequestStage::CacheLookup)
        };
        // Six unit jobs due in 2: high density, μ* = 3.
        let wide = |period: u64| {
            let mut b = DagBuilder::new();
            b.add_vertices([1; 6].map(Ticks::new));
            DagTask::new(b.build().unwrap(), Ticks::new(2), Ticks::new(period)).unwrap()
        };
        let light = DagTask::sequential(Ticks::new(1), Ticks::new(4), Ticks::new(8)).unwrap();
        assert_eq!(
            cache_lookup_nanos(light),
            0,
            "a low-density admit touches no cache"
        );
        assert_eq!(
            cache_lookup_nanos(wide(10)),
            0,
            "a miss runs MINPROCS, which is analysis"
        );
        assert!(
            cache_lookup_nanos(wide(11)) > 0,
            "a hit's sizing interval is the cache probe"
        );
        handle.shutdown();
    }
}
