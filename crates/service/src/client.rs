//! A synchronous client for the admission server: one persistent
//! connection, one request/response pair per call — hardened with
//! connect/IO deadlines, automatic reconnection, and a bounded
//! exponential-backoff retry for [`Response::Busy`] rejections.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

use fedsched_dag::task::DagTask;

use crate::protocol::{read_message, write_message, Request, Response};

/// Deadlines and retry policy of a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection (`None` blocks
    /// indefinitely, the pre-hardening behaviour).
    pub connect_timeout: Option<Duration>,
    /// Per-call read *and* write deadline (`None` blocks indefinitely). A
    /// call against a stalled server fails with
    /// [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`]
    /// instead of hanging forever.
    pub io_timeout: Option<Duration>,
    /// How many times a call is transparently retried (on a fresh
    /// connection, after a backoff) when the server answers
    /// [`Response::Busy`]. Zero returns `Busy` to the caller immediately.
    ///
    /// Only an explicit `Busy` triggers a resend: it guarantees the
    /// server never read the request, so retrying cannot double-apply a
    /// non-idempotent admission. IO errors are *not* retried for the same
    /// reason — the request may have been applied before the failure.
    pub busy_retries: u32,
    /// First retry backoff; doubles per attempt (full jitter applied).
    pub backoff_base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            io_timeout: Some(Duration::from_secs(30)),
            busy_retries: 4,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// One live connection to the server.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A connected client. Each method writes one request line and blocks for
/// the matching response line, within the configured deadlines.
///
/// After any error — IO failure, deadline expiry, a framed
/// [`Response::Error`], or a `Busy` rejection whose retries are exhausted
/// — the connection is discarded and the *next* call transparently dials
/// a fresh one, so one incident never wedges the client.
#[derive(Debug)]
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    rng: u64,
    busy_retry_attempts: u64,
}

impl Client {
    /// Connects to a running server with [`ClientConfig::default`]
    /// deadlines.
    ///
    /// # Errors
    ///
    /// Address-resolution or connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines and retry policy. The dial is
    /// eager, so a wrong address fails here rather than on the first
    /// call.
    ///
    /// # Errors
    ///
    /// Address-resolution or connection errors.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            ));
        }
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0x9e37_79b9_7f4a_7c15, |d| {
                d.subsec_nanos() as u64 ^ d.as_secs()
            });
        let mut client = Client {
            addrs,
            config,
            conn: None,
            rng: seed | 1, // xorshift64 must never be seeded with zero
            busy_retry_attempts: 0,
        };
        client.dial()?;
        Ok(client)
    }

    /// The deadlines and retry policy this client runs under.
    #[must_use]
    pub fn config(&self) -> ClientConfig {
        self.config
    }

    /// How many times this client has re-sent a request after a
    /// [`Response::Busy`] rejection, over its whole lifetime. The final
    /// `Busy` returned when retries are exhausted is not an attempt —
    /// this counts actual re-sends, so a load generator can tell retry
    /// pressure apart from give-ups.
    #[must_use]
    pub fn busy_retry_attempts(&self) -> u64 {
        self.busy_retry_attempts
    }

    fn dial(&mut self) -> io::Result<()> {
        let mut last_err = None;
        for addr in &self.addrs {
            let dialed = match self.config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match dialed {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(self.config.io_timeout)?;
                    stream.set_write_timeout(self.config.io_timeout)?;
                    self.conn = Some(Conn {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                    });
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// One write/read exchange on the live connection.
    fn exchange(&mut self, request: &Request) -> io::Result<Response> {
        if self.conn.is_none() {
            self.dial()?;
        }
        let conn = self.conn.as_mut().expect("dial succeeded");
        write_message(&mut conn.writer, request)?;
        read_message(&mut conn.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// The next full-jitter backoff for retry `attempt` (0-based), at
    /// least `floor_ms` (the server's `retry_after_ms` advisory).
    fn backoff(&mut self, attempt: u32, floor_ms: u64) -> Duration {
        let doubled = self
            .config
            .backoff_base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let raw = doubled
            .min(self.config.backoff_max)
            .max(Duration::from_millis(floor_ms));
        // xorshift64: cheap, dependency-free jitter so a herd of clients
        // rejected together does not retry in lockstep.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let nanos = raw.as_nanos().clamp(1, u128::from(u64::MAX)) as u64;
        // Uniform in [raw/2, raw].
        Duration::from_nanos(nanos / 2 + self.rng % (nanos / 2 + 1))
    }

    /// Sends one request and reads its response.
    ///
    /// A [`Response::Busy`] rejection is retried up to
    /// [`ClientConfig::busy_retries`] times on fresh connections with
    /// jittered exponential backoff; the final `Busy` is returned if the
    /// server stays saturated. Any error, a framed [`Response::Error`]
    /// included, discards the connection, so the next call starts on a
    /// fresh one.
    ///
    /// # Errors
    ///
    /// I/O errors, including `WouldBlock`/`TimedOut` when the configured
    /// [`ClientConfig::io_timeout`] expires and an unexpected end of
    /// stream if the server closed the connection.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            match self.exchange(request) {
                Ok(Response::Busy { retry_after_ms }) => {
                    // The server closed the connection after `Busy`.
                    self.conn = None;
                    if attempt >= self.config.busy_retries {
                        return Ok(Response::Busy { retry_after_ms });
                    }
                    let pause = self.backoff(attempt, retry_after_ms);
                    attempt += 1;
                    self.busy_retry_attempts += 1;
                    std::thread::sleep(pause);
                }
                // The server closes the connection after every framed
                // error but a durability failure, which costs one redial.
                Ok(response @ Response::Error { .. }) => {
                    self.conn = None;
                    return Ok(response);
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// Requests admission of `task`.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn admit(&mut self, task: &DagTask) -> io::Result<Response> {
        self.call(&Request::Admit {
            task: task.clone(),
            trace_id: None,
            echo_timing: false,
        })
    }

    /// Requests admission of `task` with a correlation token the server
    /// echoes back and stamps on the admission's telemetry spans.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn admit_traced(&mut self, task: &DagTask, trace_id: u64) -> io::Result<Response> {
        self.call(&Request::Admit {
            task: task.clone(),
            trace_id: Some(trace_id),
            echo_timing: false,
        })
    }

    /// Requests admission of `task` and asks the server to echo its
    /// per-stage timing breakdown (`timing` on `Admitted`/`Rejected`) —
    /// how a load generator splits server time from network and queueing
    /// time per request.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn admit_timed(&mut self, task: &DagTask, trace_id: Option<u64>) -> io::Result<Response> {
        self.call(&Request::Admit {
            task: task.clone(),
            trace_id,
            echo_timing: true,
        })
    }

    /// Requests removal of the task behind `token`.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn remove(&mut self, token: u64) -> io::Result<Response> {
        self.call(&Request::Remove { token })
    }

    /// Queries the current placement of the task behind `token`.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn query(&mut self, token: u64) -> io::Result<Response> {
        self.call(&Request::Query { token })
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn stats(&mut self) -> io::Result<Response> {
        self.call(&Request::Stats)
    }

    /// Fetches the server's counters in the Prometheus text exposition
    /// format.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn stats_prometheus(&mut self) -> io::Result<Response> {
        self.call(&Request::StatsPrometheus)
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_stays_bounded_and_respects_the_floor() {
        let mut client = Client {
            addrs: vec!["127.0.0.1:1".parse().unwrap()],
            config: ClientConfig {
                backoff_base: Duration::from_millis(50),
                backoff_max: Duration::from_millis(400),
                ..ClientConfig::default()
            },
            conn: None,
            rng: 0x1234_5678_9abc_def1,
            busy_retry_attempts: 0,
        };
        for attempt in 0..32 {
            let pause = client.backoff(attempt, 0);
            let raw = Duration::from_millis(50)
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(Duration::from_millis(400));
            assert!(pause <= raw, "jitter only shrinks the pause");
            assert!(pause >= raw / 2, "full jitter keeps at least half");
        }
        // The server's retry_after_ms advisory is a floor on the raw pause.
        let floored = client.backoff(0, 300);
        assert!(floored >= Duration::from_millis(150));
    }

    #[test]
    fn connecting_to_an_unresolvable_address_fails_eagerly() {
        let err = Client::connect_with(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Some(Duration::from_millis(200)),
                ..ClientConfig::default()
            },
        )
        .unwrap_err();
        // Either refused (nothing listens on port 1) or timed out — the
        // point is the dial fails at construction, not on the first call.
        assert!(matches!(
            err.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::TimedOut
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::PermissionDenied
        ));
    }
}
