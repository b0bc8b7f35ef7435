//! In-memory spans around the benchmark's calls into each layer, written
//! out once at the end as Chrome `trace_events` JSON.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the
/// request id every span of one operation shares (the admission
/// `trace_id` on serve workloads, the corpus index on batch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `client.admit` or `core.min_procs_probed`.
    pub name: &'static str,
    /// Unique id.
    pub id: u64,
    /// The causing span, `None` for a root.
    pub parent: Option<u64>,
    /// Shared request id.
    pub request: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Recording thread (a Chrome lane).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span sink; recorders of one run share an epoch so their
/// lanes line up.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder for lane `tid`.
    #[must_use]
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its span id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (u64::from(self.tid) << 48) | self.next;
        let since = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns: since(start),
            end_ns: since(end),
            tid: self.tid,
        });
        id
    }

    /// Runs `f` inside a span; returns its result and the span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Span) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        let span = self.spans.last().expect("just recorded").clone();
        (out, span)
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The spans as a Chrome `trace_events` document (complete `X` events,
/// microsecond timestamps, ids in `args`).
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.nanos() as f64 / 1e3,
            s.id,
            s.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.request,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Writes [`chrome_json`] to `path`.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_chrome(path: &Path, spans: &[Span]) -> io::Result<()> {
    std::fs::write(path, chrome_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_and_export_as_chrome_events() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let ((), root) = rec.time("client.admit", None, 7, || {});
        let ((), child) = rec.time("client.codec", Some(root.id), 7, || {});
        assert_eq!(child.parent, Some(root.id));
        assert_ne!(child.id, root.id);
        let spans = rec.into_spans();
        let json = chrome_json(&spans);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_seq()).unwrap();
        assert_eq!(events.len(), 2);
        assert!(json.contains("\"request\":7"));
    }
}
