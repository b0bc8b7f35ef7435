//! The epoll reactor: one nonblocking event loop owning the listener and
//! every connection, from accept to close — the server's only connection
//! plane.
//!
//! # Division of labour
//!
//! The **reactor thread** owns the sockets. It runs a level-triggered
//! `epoll_wait` loop (via the vendored [`reactor`] syscall wrapper — all
//! `unsafe` lives there, this crate keeps `#![forbid(unsafe_code)]`)
//! and does only O(bytes) work per wakeup:
//!
//! * **accepting**: the nonblocking listener sits in the epoll set. A new
//!   connection is served while fewer than `max_connections` served
//!   sockets are open; otherwise it hears a framed `Busy` and closes;
//! * **framing**: each read goes through the pipeline's frame decoder,
//!   which keeps an unterminated frame in a per-connection buffer
//!   bounded by `max_frame_bytes` and splits complete newline-terminated
//!   frames off as they arrive;
//! * a 64-slot **timer wheel** implementing the `--io-timeout-ms`
//!   deadlines and idle-strike drops without per-connection timers:
//!   entries are `(token, generation)` pairs revalidated lazily on
//!   expiry, so resetting a deadline on byte arrival is a field store,
//!   never a wheel operation;
//! * a **lingering close**: after a last line (a `Busy`, a framed
//!   `Error`, a metrics reply) the socket's write half is shut and what
//!   the client still sends is drained until EOF, [`LINGER_CAP`] bytes or
//!   [`LINGER`], so the close cannot reset the connection before the
//!   client reads that line;
//! * an **eventfd wakeup** path ([`ReactorShared`]): the dispatch pool
//!   pushes finished outcomes into a mailbox and rings the waker, and
//!   shutdown rings it too, so the loop blocks without polling.
//!
//! The **dispatch pool** does the admission work. Decoded frames ship to
//! it as a [`Job`] and are answered by the pipeline's request loop — the
//! same loop an in-process session runs. Responses come back as an
//! outcome and the reactor writes them out, parking the connection on
//! `EPOLLOUT` only when the socket's send buffer fills.
//!
//! While a job is in flight the connection's fd is **deleted** from the
//! epoll set (level-triggered readiness would otherwise busy-loop on
//! `EPOLLRDHUP` for a half-closed pipelining client) and re-added when
//! its outcome is applied.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ::reactor::{Events, Interest, Poller, Waker};
use fedsched_telemetry::CounterKind;

use crate::pipeline::{decode_frames, Frames, Outcome};
use crate::protocol::{write_message, Response};
use crate::server::{bump, lock, Shared, StageTimer};
use crate::stats::RequestStage;

/// The eventfd's registration token; connection tokens are slab indices
/// and can never reach it.
const WAKER_TOKEN: u64 = u64::MAX;
/// The listener's registration token.
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Events drained per `epoll_wait` call.
const EVENTS_CAPACITY: usize = 1024;
/// Timer-wheel slots; deadlines further out than the wheel's horizon
/// re-insert themselves on expiry (lazy revalidation).
const WHEEL_SLOTS: usize = 64;
/// Floor on the wheel tick so a tiny `--io-timeout-ms` cannot turn the
/// event loop into a spin loop.
const MIN_TICK: Duration = Duration::from_millis(5);
/// Bytes taken off a socket per read.
const READ_CHUNK: usize = 8 * 1024;
/// The longest a socket lingers after its last line, whatever
/// `io_timeout` is.
const LINGER: Duration = Duration::from_millis(100);
/// Most bytes drained from a lingering socket before it closes.
const LINGER_CAP: usize = 64 * 1024;
/// The advisory backoff floor sent with every `Busy` response.
const BUSY_RETRY_AFTER_MS: u64 = 100;

/// One connection's decoded frames, dispatched off the event loop.
#[derive(Debug)]
pub(crate) struct Job {
    /// Slab token of the connection on the reactor.
    pub(crate) token: usize,
    /// The frames to answer, in arrival order.
    pub(crate) frames: Frames,
    /// Requests the connection had served before this job.
    pub(crate) served: u64,
    /// The stage timer carrying the first frame's measured idle-wait and
    /// frame-read intervals.
    pub(crate) timer: StageTimer,
}

/// The cross-thread half of the reactor: the dispatch pool's outcome
/// mailbox plus the eventfd that wakes the loop for mail or shutdown.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    inbox: Mutex<Vec<(usize, Outcome)>>,
    waker: Waker,
}

impl ReactorShared {
    /// Creates the mailbox and its eventfd waker.
    pub(crate) fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn lock_inbox(&self) -> MutexGuard<'_, Vec<(usize, Outcome)>> {
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn take_inbox(&self) -> Vec<(usize, Outcome)> {
        std::mem::take(&mut *self.lock_inbox())
    }

    /// Wakes the loop so it re-checks the shutdown flag and its mailbox.
    pub(crate) fn wake(&self) {
        let _ = self.waker.wake();
    }

    /// Hands a finished job's outcome back to the loop.
    pub(crate) fn push_outcome(&self, token: usize, outcome: Outcome) {
        self.lock_inbox().push((token, outcome));
        self.wake();
    }
}

/// The queue between the reactor and the dispatch pool. A plain
/// `VecDeque` under a mutex with a condvar — *not* a channel whose
/// receiver is itself a lock, so any number of workers pop concurrently.
#[derive(Debug)]
pub(crate) struct JobQueue {
    state: Mutex<JobQueueState>,
    ready: Condvar,
}

#[derive(Debug)]
struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, JobQueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        let mut state = self.lock_state();
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained, so in-flight work finishes before the pool exits.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.lock_state();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: workers drain what is left and exit.
    pub(crate) fn close(&self) {
        self.lock_state().closed = true;
        self.ready.notify_all();
    }
}

/// Where one multiplexed connection is in its request cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for the first byte of the next request.
    Idle,
    /// Mid-frame: bytes buffered, no complete line yet.
    Reading,
    /// Frames shipped to the dispatch pool; the fd is deleted from the
    /// epoll set until the outcome returns.
    Dispatching,
    /// Flushing response bytes the socket would not take synchronously.
    Writing,
    /// The last line is flushed and the write half shut: draining what
    /// the client still sends until the socket closes.
    Lingering,
}

/// One multiplexed connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Answered `Busy` at accept: never served, and holds none of the
    /// `max_connections` slots.
    rejected: bool,
    state: ConnState,
    /// The unterminated frame; `len() < max_frame_bytes` always.
    inbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    outpos: usize,
    /// After the outbuf flushes: `true` returns to [`ConnState::Idle`],
    /// `false` lingers, then closes (the outcome or error message said
    /// so).
    resume: bool,
    /// Registered with the poller right now (false while dispatching).
    registered: bool,
    served: u64,
    strikes: u32,
    timer: StageTimer,
    deadline: Option<Instant>,
    /// A wheel entry for this connection exists (deadline changes just
    /// store the field; the stale entry revalidates on expiry).
    in_wheel: bool,
    /// Bytes discarded while lingering.
    drained: usize,
}

impl Conn {
    /// Whether the `registered_fds` gauge counts this connection while
    /// its fd is in the epoll set: a served one that is not lingering.
    fn counted(&self) -> bool {
        !self.rejected && self.state != ConnState::Lingering
    }
}

/// The hashed timer wheel: O(1) arm, O(due) expiry, entries validated
/// against the owning connection's generation when their slot fires.
#[derive(Debug)]
struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    /// Time the cursor slot began.
    base: Instant,
    cursor: usize,
    len: usize,
}

impl TimerWheel {
    fn new(io_timeout: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_SLOTS],
            tick: (io_timeout / 8).max(MIN_TICK),
            base: now,
            cursor: 0,
            len: 0,
        }
    }

    fn insert(&mut self, token: usize, gen: u64, deadline: Instant) {
        let ahead = deadline.saturating_duration_since(self.base);
        let ticks = (ahead.as_nanos() / self.tick.as_nanos().max(1)).min(WHEEL_SLOTS as u128 - 1);
        let ticks = (ticks as usize).max(1);
        self.slots[(self.cursor + ticks) % WHEEL_SLOTS].push((token, gen));
        self.len += 1;
    }

    /// Advances the cursor to `now`, draining every elapsed slot into
    /// `due` (entries may be stale; the caller revalidates).
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        let elapsed = now.saturating_duration_since(self.base);
        let ticks = elapsed.as_nanos() / self.tick.as_nanos().max(1);
        if self.len == 0 {
            // Nothing armed: snap forward instead of stepping an idle
            // wheel through a long quiet period tick by tick.
            let steps = u32::try_from(ticks).unwrap_or(u32::MAX);
            self.base += self.tick * steps;
            self.cursor = (self.cursor + steps as usize) % WHEEL_SLOTS;
            return;
        }
        for _ in 0..ticks {
            self.base += self.tick;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            let drained = std::mem::take(&mut self.slots[self.cursor]);
            self.len -= drained.len();
            due.extend(drained);
        }
    }
}

/// The event loop over `listener`. Spawned by `serve` as
/// `fedsched-reactor`; it returns once shutdown began and every socket
/// closed, or the drain deadline passed.
pub(crate) fn reactor_loop(shared: &Shared, listener: TcpListener) {
    match Reactor::new(shared, listener) {
        Ok(mut reactor) => {
            if let Err(e) = reactor.run() {
                eprintln!("fedsched-reactor-error: {e}");
            }
        }
        Err(e) => eprintln!("fedsched-reactor-error: failed to start: {e}"),
    }
}

struct Reactor<'a> {
    shared: &'a Shared,
    listener: TcpListener,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    /// Bumped when a slot is freed, invalidating stale wheel and linger
    /// entries.
    slot_gen: Vec<u64>,
    free: Vec<usize>,
    /// Open served sockets, lingering ones included: each holds one of
    /// the `max_connections` slots until it closes.
    served: usize,
    /// Open rejected sockets.
    rejected: usize,
    /// The listener is in the epoll set.
    listening: bool,
    /// Set when shutdown is first seen: the drain ends by then.
    drain_by: Option<Instant>,
    wheel: Option<TimerWheel>,
    /// `(end, token, generation)` of each lingering socket. Every linger
    /// lasts [`LINGER`], so push order is end order.
    lingers: VecDeque<(Instant, usize, u64)>,
}

impl<'a> Reactor<'a> {
    fn new(shared: &'a Shared, listener: TcpListener) -> io::Result<Reactor<'a>> {
        let poller = Poller::new()?;
        poller.add(
            shared.reactor.waker.as_raw_fd(),
            WAKER_TOKEN,
            Interest::READABLE,
        )?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let wheel = shared
            .limits
            .io_timeout
            .map(|t| TimerWheel::new(t, Instant::now()));
        Ok(Reactor {
            shared,
            listener,
            poller,
            conns: Vec::new(),
            slot_gen: Vec::new(),
            free: Vec::new(),
            served: 0,
            rejected: 0,
            listening: true,
            drain_by: None,
            wheel,
            lingers: VecDeque::new(),
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            let n = self.poller.wait(&mut events, self.timeout())?;
            if n > 0 {
                bump(&self.shared.reactor_counters.wakeups);
                self.shared
                    .reactor_counters
                    .ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            let (mut wake_seen, mut accept_ready) = (false, false);
            for event in events.iter() {
                match event.token {
                    WAKER_TOKEN => wake_seen = true,
                    LISTENER_TOKEN => accept_ready = true,
                    token => self.handle_event(token as usize, event.readable, event.writable),
                }
            }
            if wake_seen {
                self.shared.reactor.waker.drain();
            }
            // Mail and new connections are taken after the event batch,
            // so a slot freed by an event is never reused while the
            // batch still references its old occupant.
            for (token, outcome) in self.shared.reactor.take_inbox() {
                self.apply_outcome(token, outcome);
            }
            if accept_ready {
                self.accept();
            }
            let now = Instant::now();
            while let Some(&(end, token, gen)) = self.lingers.front() {
                if end > now {
                    break;
                }
                self.lingers.pop_front();
                // A slot's generation moves only when it closes, so a
                // current entry's socket is still lingering.
                if self.slot_gen[token] == gen {
                    self.close(token);
                }
            }
            if let Some(wheel) = &mut self.wheel {
                due.clear();
                wheel.advance(now, &mut due);
                for (token, gen) in due.drain(..) {
                    self.expire(token, gen, now);
                }
            }
            if self.shared.shutdown.load(Ordering::Acquire) && self.drain(now) {
                return Ok(());
            }
        }
    }

    /// How long `epoll_wait` may sleep: one wheel tick while a deadline
    /// is armed, and no later than the first linger's end or the drain
    /// deadline; otherwise until an event or the waker.
    fn timeout(&self) -> Option<Duration> {
        let tick = self.wheel.as_ref().filter(|w| w.len > 0).map(|w| w.tick);
        let linger = self.lingers.front().map(|&(end, ..)| end);
        let end = linger.into_iter().chain(self.drain_by).min();
        let left = end.map(|end| end.saturating_duration_since(Instant::now()));
        tick.into_iter().chain(left).min()
    }

    /// One pass of the shutdown drain: stop accepting, close the
    /// between-requests connections, and let dispatching, writing and
    /// lingering ones finish their step. Once the drain deadline passes
    /// the stragglers are dropped unflushed. Returns whether every socket
    /// is closed.
    fn drain(&mut self, now: Instant) -> bool {
        let drain_deadline = self.shared.limits.drain_deadline();
        let timed_out = now >= *self.drain_by.get_or_insert(now + drain_deadline);
        self.set_listening(false);
        for token in 0..self.conns.len() {
            match self.conns[token].as_ref().map(|c| c.state) {
                Some(_) if timed_out => self.close(token),
                Some(ConnState::Idle | ConnState::Reading) => self.drain_close(token),
                _ => {}
            }
        }
        self.served + self.rejected == 0
    }

    /// Adds or removes the listener from the epoll set; while it is out,
    /// the kernel backlog holds new connections.
    fn set_listening(&mut self, on: bool) {
        if on == self.listening {
            return;
        }
        let fd = self.listener.as_raw_fd();
        let result = if on {
            self.poller.add(fd, LISTENER_TOKEN, Interest::READABLE)
        } else {
            self.poller.delete(fd)
        };
        if result.is_ok() {
            self.listening = on;
        }
    }

    /// Takes every connection the backlog holds. A connection is served
    /// while fewer than `max_connections` served sockets are open;
    /// otherwise it hears a framed `Busy` and lingers. At most
    /// `max_connections` rejected sockets linger at once: at that bound
    /// the listener leaves the epoll set until one closes.
    fn accept(&mut self) {
        let max = self.shared.limits.max_connections;
        while self.listening {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // An empty backlog; any other error is retried on the next
                // wakeup, since the listener stays readable.
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.served < max {
                bump(&self.shared.counters.connections_served);
                self.register(stream, false);
                continue;
            }
            bump(&self.shared.counters.busy_rejections);
            lock(&self.shared.state).count_transport(CounterKind::BusyRejection);
            if let Some(token) = self.register(stream, true) {
                let busy = Response::Busy {
                    retry_after_ms: BUSY_RETRY_AFTER_MS,
                };
                self.close_with_message(token, &busy);
            }
            if self.rejected >= max {
                self.set_listening(false);
            }
        }
    }

    /// Adds an accepted socket to the slab and the epoll set, returning
    /// its token; the socket is dropped if epoll refuses it.
    fn register(&mut self, stream: TcpStream, rejected: bool) -> Option<usize> {
        let token = match self.free.pop() {
            Some(token) => token,
            None => {
                self.conns.push(None);
                self.slot_gen.push(0);
                self.conns.len() - 1
            }
        };
        let fd = stream.as_raw_fd();
        if self
            .poller
            .add(fd, token as u64, Interest::READABLE)
            .is_err()
        {
            self.free.push(token);
            return None;
        }
        self.conns[token] = Some(Conn {
            stream,
            rejected,
            state: ConnState::Idle,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            resume: true,
            registered: true,
            served: 0,
            strikes: 0,
            timer: StageTimer::start(),
            deadline: None,
            in_wheel: false,
            drained: 0,
        });
        if rejected {
            self.rejected += 1;
        } else {
            self.served += 1;
            self.shared
                .reactor_counters
                .registered_fds
                .fetch_add(1, Ordering::Relaxed);
            self.arm_deadline(token, Instant::now());
        }
        Some(token)
    }

    /// Arms (or re-arms) the connection's deadline one `io_timeout` out.
    /// A wheel entry is inserted only if none exists — resets are a
    /// field store, revalidated lazily when the stale entry fires.
    fn arm_deadline(&mut self, token: usize, now: Instant) {
        let Some(io_timeout) = self.shared.limits.io_timeout else {
            return;
        };
        let gen = self.slot_gen[token];
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let deadline = now + io_timeout;
        conn.deadline = Some(deadline);
        if !conn.in_wheel {
            conn.in_wheel = true;
            if let Some(wheel) = &mut self.wheel {
                wheel.insert(token, gen, deadline);
            }
        }
    }

    /// A wheel slot fired for `(token, gen)`: drop stale entries,
    /// re-insert not-yet-due deadlines, time out the rest.
    fn expire(&mut self, token: usize, gen: u64, now: Instant) {
        if self.slot_gen.get(token) != Some(&gen) {
            return;
        }
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        match conn.deadline {
            None => conn.in_wheel = false,
            Some(deadline) if deadline > now => {
                if let Some(wheel) = &mut self.wheel {
                    wheel.insert(token, gen, deadline);
                }
            }
            Some(_) => {
                conn.in_wheel = false;
                conn.deadline = None;
                self.fire_timeout(token, now);
            }
        }
    }

    /// The connection's deadline elapsed: a read-timeout strike (or a
    /// write that outlived its budget).
    fn fire_timeout(&mut self, token: usize, now: Instant) {
        let state = match self.conns[token].as_ref() {
            Some(conn) => conn.state,
            None => return,
        };
        match state {
            // Outcome application re-arms, and a linger ends on its own
            // clock; an expiry here is a stale entry.
            ConnState::Dispatching | ConnState::Lingering => {}
            // The client would not take its response within the budget.
            ConnState::Writing => self.close(token),
            ConnState::Idle | ConnState::Reading => {
                bump(&self.shared.counters.read_timeouts);
                lock(&self.shared.state).count_transport(CounterKind::ReadTimeout);
                if self.shared.shutdown.load(Ordering::Acquire) {
                    self.drain_close(token);
                    return;
                }
                let strikes = {
                    let conn = self.conns[token].as_mut().expect("checked above");
                    conn.strikes += 1;
                    conn.strikes
                };
                if strikes >= self.shared.limits.idle_strikes {
                    self.close_with_message(
                        token,
                        &Response::Error {
                            message: "idle timeout: no complete request before the deadline"
                                .to_owned(),
                        },
                    );
                    // Counted after the short last line flushed and the
                    // socket left the gauge, so a reader that sees the
                    // strike-out sees the gauge without it.
                    bump(&self.shared.counters.connections_timed_out);
                } else {
                    self.arm_deadline(token, now);
                }
            }
        }
    }

    fn handle_event(&mut self, token: usize, readable: bool, writable: bool) {
        let state = match self.conns.get(token).and_then(|c| c.as_ref()) {
            Some(conn) => conn.state,
            None => return, // freed earlier in this batch
        };
        match state {
            ConnState::Writing => {
                if writable || readable {
                    self.pump_out(token);
                }
            }
            ConnState::Idle | ConnState::Reading => {
                if readable {
                    self.handle_readable(token);
                }
            }
            ConnState::Lingering => {
                if readable {
                    self.drain_linger(token);
                }
            }
            // The fd is deleted while dispatching; an event here is from
            // the current batch racing a just-applied outcome.
            ConnState::Dispatching => {}
        }
    }

    /// One bounded read plus incremental frame decoding. Level-triggered
    /// readiness re-delivers whatever this pass leaves in the socket.
    fn handle_readable(&mut self, token: usize) {
        let cap = self.shared.limits.max_frame_bytes;
        let mut chunk = [0u8; READ_CHUNK];
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let n = loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => break 0,
            }
        };
        if n == 0 {
            // EOF (or a dead socket), between requests or mid-line:
            // closed without counters either way.
            self.close(token);
            return;
        }
        if conn.state == ConnState::Idle {
            conn.timer.stamp(RequestStage::IdleWait);
            conn.state = ConnState::Reading;
        }
        let frames = decode_frames(&mut conn.inbuf, &chunk[..n], cap);
        if frames.is_empty() {
            // Byte arrival resets the deadline; strikes reset only on a
            // complete frame.
            self.arm_deadline(token, Instant::now());
            return;
        }
        conn.timer.stamp(RequestStage::FrameRead);
        conn.strikes = 0;
        conn.deadline = None;
        conn.state = ConnState::Dispatching;
        conn.registered = false;
        // Delete, not empty-interest: a level-triggered EPOLLRDHUP from a
        // half-closed client would otherwise spin the loop.
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // Uncounted before the job is queued, so a `Stats` answer rendered
        // for this very request already excludes this connection.
        let (served, timer) = (conn.served, conn.timer);
        self.shared
            .reactor_counters
            .registered_fds
            .fetch_sub(1, Ordering::Relaxed);
        self.shared.jobs.push(Job {
            token,
            frames,
            served,
            timer,
        });
    }

    /// A finished job: credit the budget, queue the response bytes, and
    /// either resume reading, park on `EPOLLOUT`, or linger and close.
    fn apply_outcome(&mut self, token: usize, outcome: Outcome) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        conn.served += outcome.served_delta;
        conn.outbuf = outcome.bytes;
        conn.outpos = 0;
        conn.resume = !outcome.close;
        self.pump_out(token);
    }

    /// Serializes a last line and, once it flushes, lingers and closes
    /// (a write that fails or outlives its deadline closes at once).
    fn close_with_message(&mut self, token: usize, response: &Response) {
        let mut bytes = Vec::new();
        let _ = write_message(&mut bytes, response);
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        conn.outbuf = bytes;
        conn.outpos = 0;
        conn.resume = false;
        self.pump_out(token);
    }

    /// Flushes the outbuf as far as the socket allows, then finishes or
    /// parks the connection on writability.
    fn pump_out(&mut self, token: usize) {
        let flushed = {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            let before = conn.outpos;
            let result = loop {
                if conn.outpos >= conn.outbuf.len() {
                    break Ok(true);
                }
                match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => break Err(io::Error::from(io::ErrorKind::WriteZero)),
                    Ok(n) => conn.outpos += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(false),
                    Err(e) => break Err(e),
                }
            };
            result.map(|done| (done, conn.outpos > before))
        };
        match flushed {
            Err(_) => self.close(token),
            Ok((true, _)) => self.finish_flush(token),
            Ok((false, progressed)) => {
                let rearm = {
                    let conn = self.conns[token].as_mut().expect("checked above");
                    let was_writing = conn.state == ConnState::Writing;
                    conn.state = ConnState::Writing;
                    !was_writing || progressed
                };
                self.set_interest(token, Interest::WRITABLE);
                if rearm {
                    // Fresh write (or progress made): one io_timeout to
                    // take the rest, like the per-syscall write timeout.
                    self.arm_deadline(token, Instant::now());
                }
            }
        }
    }

    /// The outbuf is empty: linger if the outcome said to close, drain if
    /// the server is shutting down, otherwise go idle awaiting the next
    /// request (any partial frame already buffered resumes immediately).
    fn finish_flush(&mut self, token: usize) {
        let resume = {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            conn.outbuf.clear();
            conn.outpos = 0;
            conn.resume
        };
        if !resume {
            self.linger(token);
            return;
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.drain_close(token);
            return;
        }
        {
            let conn = self.conns[token].as_mut().expect("checked above");
            conn.state = ConnState::Idle;
            conn.deadline = None;
            conn.timer = StageTimer::start();
            if !conn.inbuf.is_empty() {
                // The tail of the last read is already buffered: the
                // idle wait is over before it began.
                conn.timer.stamp(RequestStage::IdleWait);
                conn.state = ConnState::Reading;
            }
        }
        self.set_interest(token, Interest::READABLE);
        self.arm_deadline(token, Instant::now());
    }

    /// The last line is flushed: shuts the write half and drains what the
    /// client still sends. Closing with unread client bytes queued would
    /// send an RST, which can discard that line from the client's buffer
    /// before it is read. The linger ends at EOF, [`LINGER_CAP`] bytes or
    /// [`LINGER`], whatever `io_timeout` is.
    fn linger(&mut self, token: usize) {
        let gen = self.slot_gen[token];
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Write);
        if conn.registered && conn.counted() {
            self.shared
                .reactor_counters
                .registered_fds
                .fetch_sub(1, Ordering::Relaxed);
        }
        conn.state = ConnState::Lingering;
        conn.deadline = None;
        self.lingers
            .push_back((Instant::now() + LINGER, token, gen));
        self.set_interest(token, Interest::READABLE);
    }

    /// Discards what a lingering client sent; closes at EOF, on an error,
    /// or once [`LINGER_CAP`] bytes were drained.
    fn drain_linger(&mut self, token: usize) {
        let mut sink = [0u8; READ_CHUNK];
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let n = match (&conn.stream).read(&mut sink) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
            Err(_) => 0,
        };
        conn.drained += n;
        if n > 0 && conn.drained < LINGER_CAP {
            return;
        }
        self.close(token);
    }

    /// Closes a between-requests connection because the server is
    /// draining.
    fn drain_close(&mut self, token: usize) {
        bump(&self.shared.counters.drained_connections);
        lock(&self.shared.state).count_transport(CounterKind::ConnectionDrained);
        self.close(token);
    }

    /// Sets the connection's epoll interest, re-adding its fd if dispatch
    /// deleted it. The `registered_fds` gauge moves with every add and
    /// delete of a [`Conn::counted`] connection and when one starts to
    /// linger, so it counts exactly the served, non-lingering connections
    /// with `registered` set.
    fn set_interest(&mut self, token: usize, interest: Interest) {
        let (fd, registered, counted) = {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            let was = conn.registered;
            conn.registered = true;
            (conn.stream.as_raw_fd(), was, conn.counted())
        };
        let result = if registered {
            self.poller.modify(fd, token as u64, interest)
        } else {
            if counted {
                self.shared
                    .reactor_counters
                    .registered_fds
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.poller.add(fd, token as u64, interest)
        };
        if result.is_err() {
            self.close(token);
        }
    }

    /// Tears a connection down: deregisters, closes the socket, and frees
    /// the slot (bumping its generation so stale wheel and linger entries
    /// die). A served socket's `max_connections` slot frees with it; a
    /// rejected one's close lets the listener back into the epoll set.
    fn close(&mut self, token: usize) {
        let Some(conn) = self.conns[token].take() else {
            return;
        };
        if conn.registered {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if conn.counted() {
                self.shared
                    .reactor_counters
                    .registered_fds
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.slot_gen[token] += 1;
        self.free.push(token);
        if conn.rejected {
            self.rejected -= 1;
            if self.drain_by.is_none() {
                self.set_listening(true);
            }
        } else {
            self.served -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn job_queue_delivers_across_threads_and_drains_after_close() {
        let queue = Arc::new(JobQueue::new());
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut tokens = Vec::new();
                while let Some(job) = queue.pop() {
                    tokens.push(job.token);
                }
                tokens
            })
        };
        for token in 0..3 {
            queue.push(Job {
                token,
                frames: Frames::default(),
                served: 0,
                timer: StageTimer::start(),
            });
        }
        queue.close();
        let mut tokens = consumer.join().expect("consumer thread");
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2]);
        // A closed, drained queue answers None immediately.
        assert!(queue.pop().is_none());
    }

    #[test]
    fn timer_wheel_fires_due_entries_and_honors_the_tick_floor() {
        let now = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(1), now);
        assert_eq!(wheel.tick, MIN_TICK, "tiny timeouts clamp to the floor");
        wheel.insert(3, 7, now + Duration::from_millis(1));
        assert_eq!(wheel.len, 1);
        let mut due = Vec::new();
        // Not yet: under one tick elapsed.
        wheel.advance(now + Duration::from_millis(1), &mut due);
        assert!(due.is_empty());
        // One full tick: the entry's slot drains.
        wheel.advance(now + wheel.tick + Duration::from_millis(1), &mut due);
        assert_eq!(due, vec![(3, 7)]);
        assert_eq!(wheel.len, 0);
    }

    #[test]
    fn timer_wheel_snaps_forward_when_idle() {
        let now = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_secs(30), now);
        let tick = wheel.tick;
        let mut due = Vec::new();
        // A long quiet period must not be stepped slot by slot.
        wheel.advance(now + tick * 1000, &mut due);
        assert!(due.is_empty());
        assert!(now + tick * 1000 - wheel.base < tick);
        // Entries inserted after the snap still land ahead of the cursor.
        wheel.insert(1, 0, wheel.base + tick);
        wheel.advance(wheel.base + tick * 2, &mut due);
        assert_eq!(due, vec![(1, 0)]);
    }

    #[test]
    fn reactor_shared_mailbox_accumulates_and_drains() {
        let rs = ReactorShared::new().expect("eventfd");
        let outcome = Outcome {
            bytes: b"x".to_vec(),
            served_delta: 1,
            ..Outcome::default()
        };
        rs.push_outcome(9, outcome);
        let mail = rs.take_inbox();
        assert_eq!(mail.len(), 1);
        let (token, outcome) = &mail[0];
        assert_eq!(*token, 9);
        assert_eq!(outcome.bytes, b"x");
        assert_eq!(outcome.served_delta, 1);
        assert!(!outcome.close);
        assert!(rs.take_inbox().is_empty());
    }
}
