//! The request pipeline every transport shares: one frame decoder that
//! turns a connection's bytes into newline-terminated frames, and one
//! request loop ([`process_lines`]) that answers them.
//!
//! The epoll reactor feeds the pipeline socket bytes (the loop itself
//! runs on the dispatch pool); a [`Session`] feeds it bytes in-process,
//! with no socket at all. Both reach the same decoder and the same loop,
//! so a session answers a byte stream exactly as a TCP connection does —
//! the property `tests/shard_determinism.rs` asserts byte for byte.

use std::sync::atomic::Ordering;

use fedsched_telemetry::CounterKind;

use crate::protocol::{write_message, Request, Response};
use crate::server::{
    bump, dispatch, lock, log_slow_request, serve_metrics_http, Shared, StageTimer,
};
use crate::stats::RequestStage;

/// Complete request frames split off a connection's byte stream.
#[derive(Debug, Default)]
pub(crate) struct Frames {
    /// Complete newline-terminated frames, newline included, in arrival
    /// order.
    pub(crate) lines: Vec<Vec<u8>>,
    /// The frame after `lines` reached the frame cap without its newline:
    /// once `lines` are answered it gets the framed error and the
    /// connection closes.
    pub(crate) oversized: bool,
}

impl Frames {
    /// Nothing to answer yet: the bytes only extended a pending frame.
    pub(crate) fn is_empty(&self) -> bool {
        self.lines.is_empty() && !self.oversized
    }
}

/// The frame decoder: appends `bytes` to the connection's `pending`
/// (unterminated) frame and splits off every complete frame.
///
/// A frame holds at most `cap` bytes, newline included. A frame that has
/// reached `cap` bytes without a newline can never complete, so decoding
/// stops there with [`Frames::oversized`] set and the rest of `bytes` is
/// dropped. `pending` therefore never holds `cap` bytes or more.
pub(crate) fn decode_frames(pending: &mut Vec<u8>, bytes: &[u8], cap: usize) -> Frames {
    let mut frames = Frames::default();
    let mut rest = bytes;
    loop {
        let room = cap - pending.len();
        match rest.iter().take(room).position(|&b| b == b'\n') {
            Some(pos) => {
                let mut line = std::mem::take(pending);
                line.extend_from_slice(&rest[..=pos]);
                frames.lines.push(line);
                rest = &rest[pos + 1..];
            }
            None if rest.len() >= room => {
                frames.oversized = true;
                return frames;
            }
            None => {
                pending.extend_from_slice(rest);
                return frames;
            }
        }
    }
}

/// One frame, classified once.
// `Request` dominates the size, as in the protocol enum itself: lines are
// classified one at a time and consumed at once, never stored in bulk.
#[allow(clippy::large_enum_variant)]
enum Line {
    /// Whitespace only: skipped.
    Blank,
    /// A `GET /metrics` scrape: answered over HTTP, then the connection
    /// closes.
    Metrics,
    /// A parsed request.
    Request(Request, StageTimer),
    /// Not UTF-8 or not a request: answered with a framed error, then the
    /// connection closes (line framing gives no reliable resync point).
    Malformed(String),
}

fn classify(frame: &[u8], mut timer: StageTimer) -> Line {
    let Ok(text) = std::str::from_utf8(frame) else {
        return Line::Malformed("request is not valid UTF-8".to_owned());
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Line::Blank;
    }
    if trimmed == "GET /metrics" || trimmed.starts_with("GET /metrics ") {
        return Line::Metrics;
    }
    match serde_json::from_str::<Request>(trimmed) {
        Ok(request) => {
            timer.stamp(RequestStage::Parse);
            Line::Request(request, timer)
        }
        Err(e) => Line::Malformed(e.to_string()),
    }
}

/// The timer of a frame that was already buffered when its turn came:
/// both read stages are ~0.
fn buffered_timer() -> StageTimer {
    let mut timer = StageTimer::start();
    timer.stamp(RequestStage::IdleWait);
    timer.stamp(RequestStage::FrameRead);
    timer
}

/// What the request loop produced for one run of frames: the response
/// bytes plus how the connection proceeds.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Response bytes to write, in request order.
    pub(crate) bytes: Vec<u8>,
    /// Requests answered (the connection's budget advances by this).
    pub(crate) served_delta: u64,
    /// Close after writing `bytes`: an error, a metrics scrape, budget
    /// exhaustion, a `Shutdown` request, or the shutdown drain ended the
    /// connection.
    pub(crate) close: bool,
}

impl Outcome {
    /// Writes one answered request's response and records its stages.
    fn answer(
        &mut self,
        shared: &Shared,
        response: &Response,
        mut timer: StageTimer,
        trace_id: Option<u64>,
    ) {
        let _ = write_message(&mut self.bytes, response);
        timer.stamp(RequestStage::Serialize);
        shared.stages.record(&timer);
        log_slow_request(&shared.limits, trace_id, &timer);
        self.served_delta += 1;
    }

    /// Writes a final framed error and closes the connection.
    fn fail(mut self, message: String) -> Outcome {
        let _ = write_message(&mut self.bytes, &Response::Error { message });
        self.close = true;
        self
    }
}

/// The request loop: answers `frames` in order for a connection that had
/// answered `served` requests before them. `first`
/// carries the first frame's measured idle-wait and frame-read
/// intervals; later frames were already buffered.
///
/// Every request is answered by [`dispatch`] in arrival order. Every
/// counter bump, error string, and response is produced here and nowhere
/// else, whatever transport carried the bytes.
pub(crate) fn process_lines(
    shared: &Shared,
    frames: &Frames,
    served: u64,
    first: StageTimer,
) -> Outcome {
    let budget = shared.limits.max_requests_per_connection;
    let mut out = Outcome::default();
    let mut lines = frames
        .lines
        .iter()
        .enumerate()
        .map(|(i, frame)| classify(frame, if i == 0 { first } else { buffered_timer() }));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            bump(&shared.counters.drained_connections);
            lock(&shared.state).count_transport(CounterKind::ConnectionDrained);
            out.close = true;
            return out;
        }
        let Some(line) = lines.next() else {
            if !frames.oversized {
                return out;
            }
            bump(&shared.counters.oversized_requests);
            lock(&shared.state).count_transport(CounterKind::OversizedRequest);
            let cap = shared.limits.max_frame_bytes;
            return out.fail(format!("request exceeds the {cap}-byte frame cap"));
        };
        match line {
            Line::Blank => continue,
            Line::Metrics => {
                let _ = serve_metrics_http(&mut out.bytes, shared);
                out.close = true;
                return out;
            }
            Line::Malformed(message) => {
                bump(&shared.counters.malformed_requests);
                return out.fail(message);
            }
            Line::Request(request, mut timer) => {
                let stop = matches!(request, Request::Shutdown);
                if stop {
                    shared.shutdown.store(true, Ordering::Release);
                    shared.reactor.wake();
                }
                let trace_id = match &request {
                    Request::Admit { trace_id, .. } => *trace_id,
                    _ => None,
                };
                let response = dispatch(request, shared, &mut timer);
                out.answer(shared, &response, timer, trace_id);
                if stop {
                    out.close = true;
                    return out;
                }
            }
        }
        if served + out.served_delta >= budget {
            bump(&shared.counters.budget_exhausted);
            return out.fail(format!(
                "per-connection request budget ({budget}) exhausted; reconnect"
            ));
        }
    }
}

/// An in-process connection to a running server, opened with
/// [`ServerHandle::session`](crate::ServerHandle::session).
///
/// Bytes handed to [`Session::send`] go through the same frame decoder
/// and request loop as a socket's, under the same limits, counters, and
/// WAL — only the socket is missing. Unlike an accepted connection, a
/// session holds no `max_connections` slot and never times out, so it is
/// not counted in `connections_served`.
#[derive(Debug)]
pub struct Session<'a> {
    shared: &'a Shared,
    pending: Vec<u8>,
    served: u64,
    closed: bool,
}

impl<'a> Session<'a> {
    pub(crate) fn new(shared: &'a Shared) -> Session<'a> {
        Session {
            shared,
            pending: Vec::new(),
            served: 0,
            closed: false,
        }
    }

    /// Delivers `bytes` as if they had arrived on the connection and
    /// returns every response byte the server writes back for them. An
    /// unterminated trailing line stays pending until a later `send`
    /// completes it. Once the server has closed the session (an error, a
    /// metrics scrape, an exhausted budget, or shutdown), further bytes
    /// are dropped unanswered, as a closed socket would drop them.
    pub fn send(&mut self, bytes: &[u8]) -> Vec<u8> {
        if self.closed {
            return Vec::new();
        }
        let cap = self.shared.limits.max_frame_bytes;
        let frames = decode_frames(&mut self.pending, bytes, cap);
        if frames.is_empty() {
            return Vec::new();
        }
        let outcome = process_lines(self.shared, &frames, self.served, buffered_timer());
        self.served += outcome.served_delta;
        self.closed = outcome.close;
        outcome.bytes
    }

    /// Whether the server has closed this session.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}
