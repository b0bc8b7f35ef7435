//! The event sink: where subsystems hand their telemetry.
//!
//! [`EventSink`] is a concrete enum, not a trait object, so the disabled
//! path is a single branch the optimizer sees through: with the
//! [`EventSink::Noop`] variant every `record` call reduces to a
//! discriminant test on a value the caller owns — no allocation, no
//! timestamp, no indirect call. The E18 benchmark
//! (`fedsched-bench/benches/telemetry_overhead.rs`) holds the enabled path
//! to within 2% of this no-op path on the admission hot loop.

use crate::event::{monotonic_nanos, CounterKind, SpanPhase, TelemetryEvent, TraceId};

/// A bounded ring buffer of the most recent events.
///
/// Pushing into a full buffer overwrites the oldest event and counts the
/// displacement in [`RingBuffer::dropped`]; telemetry must never make the
/// server unbounded in memory.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    slots: Vec<TelemetryEvent>,
    capacity: usize,
    /// Index of the next write.
    head: usize,
    /// Events overwritten before anyone read them.
    dropped: u64,
}

impl RingBuffer {
    /// An empty buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`EventSink::Noop`] to disable).
    #[must_use]
    pub fn new(capacity: usize) -> RingBuffer {
        assert!(capacity > 0, "ring buffer needs a positive capacity");
        RingBuffer {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest if full.
    pub fn push(&mut self, event: TelemetryEvent) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TelemetryEvent> {
        if self.slots.len() < self.capacity {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events lost to eviction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// An in-flight span: the start stamp, taken only when the sink is live.
///
/// `None` means the sink was disabled when the span began — finishing it is
/// free and records nothing, so call sites need no `if enabled` of their
/// own around the timed region.
#[derive(Debug, Clone, Copy)]
#[must_use = "finish the span with EventSink::end_span"]
pub struct SpanTimer(Option<u64>);

impl SpanTimer {
    /// A timer that will record nothing.
    pub const DISABLED: SpanTimer = SpanTimer(None);
}

/// Where telemetry events go.
#[derive(Debug, Default)]
pub enum EventSink {
    /// Discard everything (the default).
    #[default]
    Noop,
    /// Retain the most recent events in a bounded [`RingBuffer`].
    Ring(RingBuffer),
}

impl EventSink {
    /// The disabled sink.
    #[must_use]
    pub fn noop() -> EventSink {
        EventSink::Noop
    }

    /// A ring-buffer sink of the given capacity. Zero capacity yields
    /// the no-op sink, so callers configure capacity unconditionally.
    #[must_use]
    pub fn ring(capacity: usize) -> EventSink {
        if capacity > 0 {
            EventSink::Ring(RingBuffer::new(capacity))
        } else {
            EventSink::Noop
        }
    }

    /// Whether recording does anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, EventSink::Noop)
    }

    /// Records one event (dropped by the no-op sink).
    #[inline]
    pub fn record(&mut self, event: TelemetryEvent) {
        match self {
            EventSink::Noop => {}
            EventSink::Ring(ring) => ring.push(event),
        }
    }

    /// Starts a span: takes a monotonic stamp only if the sink is live.
    #[inline]
    pub fn start_span(&self) -> SpanTimer {
        if self.is_enabled() {
            SpanTimer(Some(monotonic_nanos()))
        } else {
            SpanTimer::DISABLED
        }
    }

    /// Completes a span started with [`EventSink::start_span`].
    #[inline]
    pub fn end_span(&mut self, timer: SpanTimer, trace_id: Option<TraceId>, phase: SpanPhase) {
        if let SpanTimer(Some(start_nanos)) = timer {
            self.record(TelemetryEvent::Span {
                trace_id,
                phase,
                start_nanos,
                end_nanos: monotonic_nanos(),
            });
        }
    }

    /// Records a counter increment of 1.
    #[inline]
    pub fn count(&mut self, trace_id: Option<TraceId>, kind: CounterKind) {
        self.add(trace_id, kind, 1);
    }

    /// Records a counter increment of `delta`.
    #[inline]
    pub fn add(&mut self, trace_id: Option<TraceId>, kind: CounterKind, delta: u64) {
        if self.is_enabled() {
            self.record(TelemetryEvent::Counter {
                trace_id,
                kind,
                at_nanos: monotonic_nanos(),
                delta,
            });
        }
    }

    /// A snapshot of the retained events, oldest first (empty for no-op).
    #[must_use]
    pub fn events(&self) -> Vec<TelemetryEvent> {
        match self {
            EventSink::Noop => Vec::new(),
            EventSink::Ring(ring) => ring.to_vec(),
        }
    }

    /// Events lost to ring eviction (zero for no-op).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        match self {
            EventSink::Noop => 0,
            EventSink::Ring(ring) => ring.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(at: u64) -> TelemetryEvent {
        TelemetryEvent::Counter {
            trace_id: None,
            kind: CounterKind::CacheHit,
            at_nanos: at,
            delta: 1,
        }
    }

    #[test]
    fn noop_sink_records_nothing_for_free() {
        let mut sink = EventSink::noop();
        assert!(!sink.is_enabled());
        let timer = sink.start_span();
        sink.record(counter(1));
        sink.count(None, CounterKind::CacheMiss);
        sink.end_span(timer, Some(TraceId(1)), SpanPhase::Sizing);
        assert!(sink.events().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn zero_capacity_ring_degrades_to_noop() {
        let sink = EventSink::ring(0);
        assert!(!sink.is_enabled());
    }

    #[test]
    fn ring_sink_retains_spans_and_counters() {
        let mut sink = EventSink::ring(16);
        assert!(sink.is_enabled());
        let timer = sink.start_span();
        sink.end_span(timer, Some(TraceId(9)), SpanPhase::Partition);
        sink.count(Some(TraceId(9)), CounterKind::AdmissionAccepted);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            TelemetryEvent::Span {
                trace_id: Some(TraceId(9)),
                phase: SpanPhase::Partition,
                ..
            }
        ));
        assert_eq!(events[1].trace_id(), Some(TraceId(9)));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = RingBuffer::new(3);
        for i in 0..5 {
            ring.push(counter(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let stamps: Vec<u64> = ring.to_vec().iter().map(TelemetryEvent::nanos).collect();
        assert_eq!(stamps, vec![2, 3, 4], "oldest-first order after wrap");
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn ring_buffer_rejects_zero_capacity() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn span_timer_from_disabled_sink_is_inert_on_live_sink() {
        let mut live = EventSink::ring(4);
        live.end_span(SpanTimer::DISABLED, None, SpanPhase::Admission);
        assert!(live.events().is_empty());
    }
}
