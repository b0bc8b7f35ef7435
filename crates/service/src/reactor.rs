//! The epoll reactor: one nonblocking event loop multiplexing every
//! connection — the server's only connection plane.
//!
//! # Division of labour
//!
//! The **reactor thread** owns the sockets. It runs a level-triggered
//! `epoll_wait` loop (via the vendored [`reactor`] syscall wrapper — all
//! `unsafe` lives there, this crate keeps `#![forbid(unsafe_code)]`)
//! and does only O(bytes) work per wakeup:
//!
//! * **framing**: each read goes through the pipeline's frame decoder,
//!   which keeps an unterminated frame in a per-connection buffer
//!   bounded by `max_frame_bytes` and splits complete newline-terminated
//!   frames off as they arrive;
//! * a 64-slot **timer wheel** implementing the `--io-timeout-ms`
//!   deadlines and idle-strike drops without per-connection timers:
//!   entries are `(token, generation)` pairs revalidated lazily on
//!   expiry, so resetting a deadline on byte arrival is a field store,
//!   never a wheel operation;
//! * an **eventfd wakeup** path ([`ReactorShared`]): acceptors push
//!   accepted sockets and the dispatch pool pushes finished outcomes into
//!   a mailbox, then ring the waker so parked connections make progress
//!   without polling.
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
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ::reactor::{Events, Interest, Poller, Waker};
use fedsched_telemetry::CounterKind;

use crate::pipeline::{decode_frames, Frames, Outcome};
use crate::protocol::{write_message, Response};
use crate::server::{bump, lock, Permit, Shared, StageTimer};
use crate::stats::RequestStage;

/// The eventfd's registration token; connection tokens are slab indices
/// and can never reach it.
const WAKER_TOKEN: u64 = u64::MAX;
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

/// Mail for a reactor: a new connection from an acceptor, or a finished
/// job from the dispatch pool.
#[derive(Debug)]
enum Inbound {
    NewConn(TcpStream, Permit),
    Outcome(usize, Outcome),
}

/// The cross-thread half of the reactor: a mailbox plus the eventfd that
/// wakes the loop when mail arrives.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    inbox: Mutex<Vec<Inbound>>,
    waker: Waker,
    force: AtomicBool,
}

impl ReactorShared {
    /// Creates the mailbox and its eventfd waker.
    pub(crate) fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            force: AtomicBool::new(false),
        })
    }

    fn lock_inbox(&self) -> MutexGuard<'_, Vec<Inbound>> {
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, mail: Inbound) {
        self.lock_inbox().push(mail);
        let _ = self.waker.wake();
    }

    fn take_inbox(&self) -> Vec<Inbound> {
        std::mem::take(&mut *self.lock_inbox())
    }

    /// Wakes the loop so it re-checks the shutdown flag and its mailbox.
    pub(crate) fn wake(&self) {
        let _ = self.waker.wake();
    }

    /// Asks the loop to drop every remaining connection and exit — the
    /// drain-timeout backstop.
    pub(crate) fn force_exit(&self) {
        self.force.store(true, Ordering::Release);
        let _ = self.waker.wake();
    }

    /// Hands an accepted connection (and its gate permit) to the loop.
    pub(crate) fn push_conn(&self, stream: TcpStream, permit: Permit) {
        self.push(Inbound::NewConn(stream, permit));
    }

    /// Hands a finished job's outcome back to the loop.
    pub(crate) fn push_outcome(&self, token: usize, outcome: Outcome) {
        self.push(Inbound::Outcome(token, outcome));
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
}

/// One multiplexed connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Held for the connection's lifetime; dropping it releases the
    /// connection-gate slot.
    _permit: Permit,
    state: ConnState,
    /// The unterminated frame; `len() < max_frame_bytes` always.
    inbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    outpos: usize,
    /// After the outbuf flushes: `true` returns to [`ConnState::Idle`],
    /// `false` closes (the outcome or error message said so).
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

/// The event loop. Spawned by `serve` as `fedsched-reactor`.
pub(crate) fn reactor_loop(shared: &Shared) {
    match Reactor::new(shared) {
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
    poller: Poller,
    conns: Vec<Option<Conn>>,
    /// Bumped when a slot is freed, invalidating stale wheel entries.
    slot_gen: Vec<u64>,
    free: Vec<usize>,
    active: usize,
    wheel: Option<TimerWheel>,
}

impl<'a> Reactor<'a> {
    fn new(shared: &'a Shared) -> io::Result<Reactor<'a>> {
        let poller = Poller::new()?;
        poller.add(
            shared.reactor.waker.as_raw_fd(),
            WAKER_TOKEN,
            Interest::READABLE,
        )?;
        let wheel = shared
            .limits
            .io_timeout
            .map(|t| TimerWheel::new(t, Instant::now()));
        Ok(Reactor {
            shared,
            poller,
            conns: Vec::new(),
            slot_gen: Vec::new(),
            free: Vec::new(),
            active: 0,
            wheel,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            // Sleep one tick when any deadline is armed, else until mail
            // arrives (the waker covers shutdown, new sockets, outcomes).
            let timeout = match &self.wheel {
                Some(wheel) if wheel.len > 0 => Some(wheel.tick),
                _ => None,
            };
            let n = self.poller.wait(&mut events, timeout)?;
            if n > 0 {
                bump(&self.shared.reactor_counters.wakeups);
                self.shared
                    .reactor_counters
                    .ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            let mut wake_seen = false;
            for event in events.iter() {
                if event.token == WAKER_TOKEN {
                    wake_seen = true;
                    continue;
                }
                self.handle_event(event.token as usize, event.readable, event.writable);
            }
            if wake_seen {
                self.shared.reactor.waker.drain();
            }
            // Mail is processed after the event batch so a slot freed by
            // an event is never reused while the batch still references
            // its old occupant.
            for mail in self.shared.reactor.take_inbox() {
                match mail {
                    Inbound::NewConn(stream, permit) => self.register(stream, permit),
                    Inbound::Outcome(token, outcome) => self.apply_outcome(token, outcome),
                }
            }
            if self.wheel.is_some() {
                due.clear();
                let now = Instant::now();
                if let Some(wheel) = &mut self.wheel {
                    wheel.advance(now, &mut due);
                }
                for (token, gen) in due.drain(..) {
                    self.expire(token, gen, now);
                }
            }
            if self.shared.reactor.force.load(Ordering::Acquire) {
                let tokens: Vec<usize> = self.live_tokens();
                for token in tokens {
                    self.close(token);
                }
                return Ok(());
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                // Between-requests connections drain immediately;
                // dispatching and writing connections finish their
                // in-flight step first and drain when it completes.
                let tokens: Vec<usize> = self.live_tokens();
                for token in tokens {
                    let parked = matches!(
                        self.conns[token].as_ref().map(|c| c.state),
                        Some(ConnState::Idle | ConnState::Reading)
                    );
                    if parked {
                        self.drain_close(token);
                    }
                }
                if self.active == 0 {
                    return Ok(());
                }
            }
        }
    }

    fn live_tokens(&self) -> Vec<usize> {
        (0..self.conns.len())
            .filter(|&t| self.conns[t].is_some())
            .collect()
    }

    fn register(&mut self, stream: TcpStream, permit: Permit) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The acceptor raced shutdown: drain it before its first
            // read.
            bump(&self.shared.counters.drained_connections);
            lock(&self.shared.state).count_transport(CounterKind::ConnectionDrained);
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
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
            return;
        }
        self.conns[token] = Some(Conn {
            stream,
            _permit: permit,
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
        });
        self.active += 1;
        self.shared
            .reactor_counters
            .registered_fds
            .fetch_add(1, Ordering::Relaxed);
        self.arm_deadline(token, Instant::now());
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
            // Outcome application re-arms; a dispatching connection has
            // no IO in flight, so an expiry here is a stale entry.
            ConnState::Dispatching => {}
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
                    bump(&self.shared.counters.connections_timed_out);
                    self.close_with_message(
                        token,
                        &Response::Error {
                            message: "idle timeout: no complete request before the deadline"
                                .to_owned(),
                        },
                    );
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
    /// either resume reading, park on `EPOLLOUT`, or close.
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

    /// Serializes a final error line and closes once it flushes (or the
    /// write deadline gives up) — the reactor's `let _ = write_message`.
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

    /// The outbuf is empty: close if the outcome said so, drain if the
    /// server is shutting down, otherwise go idle awaiting the next
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
            self.close(token);
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

    /// Closes a between-requests connection because the server is
    /// draining.
    fn drain_close(&mut self, token: usize) {
        bump(&self.shared.counters.drained_connections);
        lock(&self.shared.state).count_transport(CounterKind::ConnectionDrained);
        self.close(token);
    }

    /// Sets the connection's epoll interest, re-adding its fd if dispatch
    /// deleted it. The `registered_fds` gauge moves with every add and
    /// delete, so it counts exactly the connections with `registered` set.
    fn set_interest(&mut self, token: usize, interest: Interest) {
        let (fd, registered) = {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            let was = conn.registered;
            conn.registered = true;
            (conn.stream.as_raw_fd(), was)
        };
        let result = if registered {
            self.poller.modify(fd, token as u64, interest)
        } else {
            self.shared
                .reactor_counters
                .registered_fds
                .fetch_add(1, Ordering::Relaxed);
            self.poller.add(fd, token as u64, interest)
        };
        if result.is_err() {
            self.close(token);
        }
    }

    /// Tears a connection down: deregisters, closes the socket, frees
    /// the slot (bumping its generation so stale wheel entries die), and
    /// releases the gate permit by dropping it.
    fn close(&mut self, token: usize) {
        let Some(conn) = self.conns[token].take() else {
            return;
        };
        if conn.registered {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared
                .reactor_counters
                .registered_fds
                .fetch_sub(1, Ordering::Relaxed);
        }
        drop(conn);
        self.slot_gen[token] += 1;
        self.free.push(token);
        self.active -= 1;
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
        match &mail[0] {
            Inbound::Outcome(token, outcome) => {
                assert_eq!(*token, 9);
                assert_eq!(outcome.bytes, b"x");
                assert_eq!(outcome.served_delta, 1);
                assert!(!outcome.close);
            }
            other => panic!("unexpected mail {other:?}"),
        }
        assert!(rs.take_inbox().is_empty());
        // force_exit latches the flag and is visible to the loop.
        assert!(!rs.force.load(Ordering::Acquire));
        rs.force_exit();
        assert!(rs.force.load(Ordering::Acquire));
    }
}
