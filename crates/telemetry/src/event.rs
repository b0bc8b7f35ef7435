//! Typed telemetry events: spans, counters, and the monotonic clock that
//! timestamps them.
//!
//! Every event carries an optional [`TraceId`] — the per-request
//! correlation token the admission protocol threads from client to
//! analysis and back — and a timestamp from a process-wide monotonic
//! clock ([`monotonic_nanos`]), so events from different subsystems
//! (service request handling, analysis phases, simulation) interleave on
//! one coherent timeline.

use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A per-request correlation token.
///
/// Clients mint one (any `u64`), attach it to an `Admit` request, and the
/// server echoes it in the response and stamps it on every span the
/// request's analysis produced. `TraceId`s need not be unique — the server
/// never keys on them — but correlating is only useful when they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl core::fmt::Display for TraceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace:{}", self.0)
    }
}

/// The named phase a span covers. The set is closed on purpose: phases are
/// a stable vocabulary shared by the Prometheus exposition, the Chrome
/// trace exporter, and docs/OBSERVABILITY.md — not free-form strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanPhase {
    /// Template-cache lookup for a high-density admission (hit or miss).
    CacheLookup,
    /// FEDCONS phase 1: `MINPROCS` cluster sizing.
    Sizing,
    /// FEDCONS phase 2: Baruah–Fisher first-fit partition replay.
    Partition,
    /// One whole admission decision as seen by the server.
    Admission,
    /// One whole removal (suffix replay included).
    Removal,
    /// One whole batch analysis (CLI `analyze` / `trace`).
    Analysis,
    /// One simulated run of a schedule.
    Simulation,
    /// Reading and framing one request line off the connection (server
    /// request lane; includes waiting for the client's bytes).
    RequestRead,
    /// Parsing one framed request line into a typed `Request` (server
    /// request lane).
    RequestParse,
    /// Appending one decision's records to the write-ahead log, fsync
    /// included (server request lane).
    WalAppend,
}

impl SpanPhase {
    /// The stable lower-case name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::CacheLookup => "cache_lookup",
            SpanPhase::Sizing => "sizing",
            SpanPhase::Partition => "partition",
            SpanPhase::Admission => "admission",
            SpanPhase::Removal => "removal",
            SpanPhase::Analysis => "analysis",
            SpanPhase::Simulation => "simulation",
            SpanPhase::RequestRead => "request_read",
            SpanPhase::RequestParse => "request_parse",
            SpanPhase::WalAppend => "wal_append",
        }
    }

    /// Whether the phase belongs to the server's request-handling lane
    /// (routed to its own process row in the Chrome trace export) rather
    /// than the analysis lane.
    #[must_use]
    pub fn is_server_stage(self) -> bool {
        matches!(
            self,
            SpanPhase::RequestRead | SpanPhase::RequestParse | SpanPhase::WalAppend
        )
    }
}

/// What a counter event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterKind {
    /// A template-cache hit.
    CacheHit,
    /// A template-cache miss.
    CacheMiss,
    /// An admission that succeeded.
    AdmissionAccepted,
    /// An admission that was rejected.
    AdmissionRejected,
    /// A runtime deadline miss observed by the watchdog.
    DeadlineMiss,
    /// A vertex whose observed on-line LS start diverged from the frozen
    /// template `σᵢ` offset (Graham-anomaly exposure, paper footnote 2).
    TemplateDivergence,
    /// An instant at which a shared EDF processor's pending demand
    /// provably exceeded the time left to a deadline.
    SharedOverload,
    /// A per-connection read deadline expired on the admission server
    /// (the connection is kept unless expiries repeat).
    ReadTimeout,
    /// A request frame exceeded the server's configured byte cap and the
    /// connection was rejected.
    OversizedRequest,
    /// A connection was turned away because the server was already
    /// serving its configured maximum number of connections.
    BusyRejection,
    /// A connection was closed by the graceful-shutdown drain while the
    /// client still held it open.
    ConnectionDrained,
    /// A `MINPROCS` candidate eliminated by the Graham bounds without
    /// running List Scheduling.
    LsRunsPruned,
    /// A work item offered to a parallel analysis fan-out. The analysis
    /// runs on the calling thread, so nothing emits it; the kind keeps its
    /// name in exported traces.
    ParTasksDispatched,
    /// A decision record appended to the admission server's write-ahead
    /// log.
    WalRecordAppended,
    /// Bytes written to the write-ahead log (delta carries the count).
    WalBytesWritten,
    /// An `fsync` issued by the write-ahead log.
    WalFsync,
    /// A durable state snapshot written next to the write-ahead log.
    WalSnapshotWritten,
    /// A logged decision re-executed during boot recovery.
    WalRecordReplayed,
}

impl CounterKind {
    /// The stable lower-case name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::CacheHit => "cache_hit",
            CounterKind::CacheMiss => "cache_miss",
            CounterKind::AdmissionAccepted => "admission_accepted",
            CounterKind::AdmissionRejected => "admission_rejected",
            CounterKind::DeadlineMiss => "deadline_miss",
            CounterKind::TemplateDivergence => "template_divergence",
            CounterKind::SharedOverload => "shared_overload",
            CounterKind::ReadTimeout => "read_timeout",
            CounterKind::OversizedRequest => "oversized_request",
            CounterKind::BusyRejection => "busy_rejection",
            CounterKind::ConnectionDrained => "connection_drained",
            CounterKind::LsRunsPruned => "ls_runs_pruned",
            CounterKind::ParTasksDispatched => "par_tasks_dispatched",
            CounterKind::WalRecordAppended => "wal_record_appended",
            CounterKind::WalBytesWritten => "wal_bytes_written",
            CounterKind::WalFsync => "wal_fsync",
            CounterKind::WalSnapshotWritten => "wal_snapshot_written",
            CounterKind::WalRecordReplayed => "wal_record_replayed",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A completed span: a named phase with monotonic start/end stamps.
    Span {
        /// The request the span belongs to, if any.
        trace_id: Option<TraceId>,
        /// Which phase ran.
        phase: SpanPhase,
        /// Monotonic start, nanoseconds since the process epoch.
        start_nanos: u64,
        /// Monotonic end, nanoseconds since the process epoch.
        end_nanos: u64,
    },
    /// A counter increment at an instant.
    Counter {
        /// The request the increment belongs to, if any.
        trace_id: Option<TraceId>,
        /// What is being counted.
        kind: CounterKind,
        /// Monotonic stamp, nanoseconds since the process epoch.
        at_nanos: u64,
        /// The increment (usually 1).
        delta: u64,
    },
}

impl TelemetryEvent {
    /// The event's trace id, if it carries one.
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        match *self {
            TelemetryEvent::Span { trace_id, .. } | TelemetryEvent::Counter { trace_id, .. } => {
                trace_id
            }
        }
    }

    /// The event's (start) timestamp in nanoseconds since the epoch.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        match *self {
            TelemetryEvent::Span { start_nanos, .. } => start_nanos,
            TelemetryEvent::Counter { at_nanos, .. } => at_nanos,
        }
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide telemetry epoch (the first call).
///
/// Monotonic and cheap: one `Instant::now()` plus a subtraction. All spans
/// and counters share this clock, so events from different subsystems
/// order correctly on one timeline.
#[must_use]
pub fn monotonic_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }

    #[test]
    fn events_roundtrip_through_serde() {
        let events = [
            TelemetryEvent::Span {
                trace_id: Some(TraceId(7)),
                phase: SpanPhase::Sizing,
                start_nanos: 10,
                end_nanos: 25,
            },
            TelemetryEvent::Counter {
                trace_id: None,
                kind: CounterKind::DeadlineMiss,
                at_nanos: 99,
                delta: 2,
            },
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn accessors_cover_both_shapes() {
        let span = TelemetryEvent::Span {
            trace_id: Some(TraceId(1)),
            phase: SpanPhase::Admission,
            start_nanos: 5,
            end_nanos: 9,
        };
        assert_eq!(span.trace_id(), Some(TraceId(1)));
        assert_eq!(span.nanos(), 5);
        let counter = TelemetryEvent::Counter {
            trace_id: None,
            kind: CounterKind::CacheHit,
            at_nanos: 3,
            delta: 1,
        };
        assert_eq!(counter.trace_id(), None);
        assert_eq!(counter.nanos(), 3);
    }

    #[test]
    fn stable_names_are_lower_snake_case() {
        for phase in [
            SpanPhase::CacheLookup,
            SpanPhase::Sizing,
            SpanPhase::Partition,
            SpanPhase::Admission,
            SpanPhase::Removal,
            SpanPhase::Analysis,
            SpanPhase::Simulation,
            SpanPhase::RequestRead,
            SpanPhase::RequestParse,
            SpanPhase::WalAppend,
        ] {
            assert!(phase
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(
            CounterKind::TemplateDivergence.name(),
            "template_divergence"
        );
        for kind in [
            CounterKind::ReadTimeout,
            CounterKind::OversizedRequest,
            CounterKind::BusyRejection,
            CounterKind::ConnectionDrained,
            CounterKind::LsRunsPruned,
            CounterKind::ParTasksDispatched,
            CounterKind::WalRecordAppended,
            CounterKind::WalBytesWritten,
            CounterKind::WalFsync,
            CounterKind::WalSnapshotWritten,
            CounterKind::WalRecordReplayed,
        ] {
            assert!(kind
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(TraceId(4).to_string(), "trace:4");
    }
}
