//! `fedsched-telemetry` — the observability layer for federated scheduling
//! of constrained-deadline sporadic DAG tasks (Baruah, DATE 2015).
//!
//! FEDCONS is only trustworthy in production if its behaviour is visible:
//! which phase of the two-phase algorithm (`MINPROCS` template search vs.
//! Baruah–Fisher DBF\* partitioning) a request spent its time in, what the
//! admission latency distribution looks like, and whether the frozen LS
//! templates actually hold at run time. This crate is the shared
//! vocabulary and plumbing for all of that:
//!
//! * [`event`] — typed [`TelemetryEvent`]s (spans over a closed
//!   [`SpanPhase`] vocabulary, counters over [`CounterKind`]), each
//!   stamped by one process-wide monotonic clock and optionally tagged
//!   with the request's [`TraceId`];
//! * [`sink`] — [`EventSink`]: a ring-buffer subscriber bounded in
//!   memory, and a no-op subscriber that reduces every record call to a
//!   single branch (held to the E17 <2% overhead bar by benchmark E18);
//! * [`prometheus`] — a text-exposition builder ([`PromText`]) plus the
//!   [`AnalysisProbe`](fedsched_analysis::probe::AnalysisProbe) renderer
//!   behind the admission server's `GET /metrics` endpoint;
//! * [`chrome`] — a Chrome / Perfetto `trace_events` exporter turning
//!   simulated [`TraceSegment`](fedsched_sim::trace::TraceSegment) runs
//!   and analysis spans into a `chrome://tracing` document.
//!
//! # Examples
//!
//! Record an analysis span and export it alongside a (tiny) execution
//! trace:
//!
//! ```
//! use fedsched_telemetry::chrome::ChromeTraceBuilder;
//! use fedsched_telemetry::event::{SpanPhase, TraceId};
//! use fedsched_telemetry::sink::EventSink;
//!
//! let mut sink = EventSink::ring(64);
//! let timer = sink.start_span();
//! // ... the work being measured ...
//! sink.end_span(timer, Some(TraceId(7)), SpanPhase::Sizing);
//!
//! let mut builder = ChromeTraceBuilder::new();
//! builder.push_events(&sink.events());
//! let json = builder.to_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("sizing"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod prometheus;
pub mod sink;

pub use chrome::{ChromeArgs, ChromeEvent, ChromeTraceBuilder, ChromeTraceDocument};
pub use event::{monotonic_nanos, CounterKind, SpanPhase, TelemetryEvent, TraceId};
pub use prometheus::{render_probe, validate_exposition, PromText};
pub use sink::{EventSink, RingBuffer, SpanTimer};
