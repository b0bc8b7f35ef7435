//! Open-loop load generation for the admission server.
//!
//! The generator schedules every intended send instant **up front** from
//! the arrival process (Poisson or fixed-rate) and measures each request
//! from its *intended* start, not from the moment the socket write
//! happened. A closed-loop harness that waits for each response before
//! issuing the next request silently stretches its own inter-arrival
//! gaps whenever the server stalls — the classic *coordinated omission*
//! blind spot, where a one-second server hiccup is recorded as one slow
//! request instead of a thousand queued ones. Here the timeline never
//! bends: if the server falls behind, every delayed request's latency
//! includes the backlog it actually sat in.
//!
//! A sweep walks a geometric ladder of offered rates and reports the
//! last rung the server *sustained* — answered at least
//! [`SweepConfig::sustain_ratio`] of the offered load with no IO errors
//! and no `Busy` give-ups — as the max sustainable RPS. Per-rung
//! reports carry exact (not bucketed) p50/p90/p99/p99.9 over the
//! measured window, with the warmup prefix discarded, and keep
//! transparent `Busy` re-sends separate from hard failures.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_service::{Client, ClientConfig, Response, ShardStatsSnapshot};
use serde::Serialize;

/// How inter-arrival gaps are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps (memoryless, bursty) — the
    /// default, because real admission traffic is not a metronome.
    Poisson,
    /// Constant inter-arrival gaps: `1/rate` between sends.
    Fixed,
}

impl ArrivalProcess {
    /// Parses `poisson` or `fixed`.
    ///
    /// # Errors
    ///
    /// A usage message for anything else.
    pub fn parse(s: &str) -> Result<ArrivalProcess, String> {
        match s {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "fixed" => Ok(ArrivalProcess::Fixed),
            other => Err(format!(
                "unknown arrival process {other:?} (expected poisson|fixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Fixed => "fixed",
        }
    }
}

/// One load step's shape: how many connections, how long, which arrival
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadConfig {
    /// Pre-dialed connections; one worker thread drives each.
    pub connections: usize,
    /// Leading slice of each step whose samples are discarded (cold
    /// template caches, first dials, page faults — none of it is the
    /// steady state being measured).
    pub warmup: Duration,
    /// Measured slice of each step, after the warmup.
    pub measure: Duration,
    /// Arrival process for the intended send instants.
    pub process: ArrivalProcess,
    /// Seed for the arrival-gap RNG: same seed, same intended timeline.
    pub seed: u64,
    /// Ask the server to echo its per-stage timing breakdown on every
    /// admission, so the report can split server time from queueing.
    pub echo_timing: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 4,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            process: ArrivalProcess::Poisson,
            seed: 0x10AD_6E4E,
            echo_timing: true,
        }
    }
}

/// A whole sweep: the ladder of offered rates walked until the server
/// stops keeping up.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Per-step shape.
    pub load: LoadConfig,
    /// First rung's offered rate (requests per second, all connections
    /// combined).
    pub start_rps: f64,
    /// Multiplier between rungs (geometric ladder).
    pub growth: f64,
    /// Rung count cap — the sweep also stops at the first unsustained
    /// rung.
    pub max_steps: usize,
    /// A rung is sustained when `completed >= sustain_ratio * intended`
    /// (and nothing errored or gave up busy).
    pub sustain_ratio: f64,
    /// Scrape `GET /metrics` in the middle of the first rung's measured
    /// window and validate the exposition while the server is under
    /// load.
    pub scrape_metrics: bool,
}

impl SweepConfig {
    /// CI shape: seconds of wall clock, small rates, still exercising
    /// the full pipeline (sweep, quantiles, busy/error split, mid-load
    /// scrape).
    #[must_use]
    pub fn quick() -> SweepConfig {
        SweepConfig {
            load: LoadConfig {
                connections: 2,
                warmup: Duration::from_millis(200),
                measure: Duration::from_millis(600),
                ..LoadConfig::default()
            },
            start_rps: 50.0,
            growth: 2.0,
            max_steps: 3,
            sustain_ratio: 0.95,
            scrape_metrics: true,
        }
    }

    /// Benchmark shape: long enough rungs for stable quantiles, enough
    /// rungs to find the knee.
    #[must_use]
    pub fn full() -> SweepConfig {
        SweepConfig {
            load: LoadConfig::default(),
            start_rps: 500.0,
            growth: 1.6,
            max_steps: 10,
            sustain_ratio: 0.95,
            scrape_metrics: true,
        }
    }
}

/// Fewest measured samples for which the tail quantiles are marked
/// reliable. Below this, a p99 is interpolating over a handful of
/// observations (and a p99.9 over fewer than one), so the report flags
/// the summary rather than letting a lucky rung read as a regression
/// budget. The quick CI shape always lands below this floor.
pub const MIN_RELIABLE_SAMPLES: u64 = 1000;

/// Exact latency quantiles over the measured window, in microseconds.
/// Computed from the raw sample vector — nothing here passes through
/// the server's power-of-two buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Measured samples the quantiles are over.
    pub samples: u64,
    /// Whether `samples` reaches [`MIN_RELIABLE_SAMPLES`]. Quantiles on
    /// an unreliable summary are still exact over what was measured —
    /// there just was not enough measured for the tail to mean much.
    pub reliable: bool,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
    pub max_us: u64,
    pub mean_us: u64,
}

impl LatencySummary {
    /// Exact quantiles by sorting the raw samples. The q-th quantile is
    /// the smallest sample with at least `ceil(q * n)` samples at or
    /// below it (nearest-rank), so `p50` of `[1, 2]` is `1`.
    fn from_micros(mut samples: Vec<u64>) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| -> u64 {
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            samples[k - 1]
        };
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        Some(LatencySummary {
            samples: n as u64,
            reliable: n as u64 >= MIN_RELIABLE_SAMPLES,
            p50_us: rank(0.50),
            p90_us: rank(0.90),
            p99_us: rank(0.99),
            p999_us: rank(0.999),
            max_us: samples[n - 1],
            mean_us: u64::try_from(sum / n as u128).unwrap_or(u64::MAX),
        })
    }
}

/// Mean per-stage server time, from the timing echoes the server stamps
/// on admissions when asked. Subtracting these from the end-to-end
/// latency separates "the server was slow" from "the request sat in a
/// queue".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct StageMeans {
    /// Echoed admissions the means are over.
    pub samples: u64,
    /// Waiting for the request's first byte — open-loop client think
    /// time, not server work. Kept out of `read_us` so socket time
    /// cannot be mistaken for a slow read path.
    pub idle_us: f64,
    pub read_us: f64,
    pub parse_us: f64,
    pub cache_us: f64,
    pub analysis_us: f64,
    pub wal_us: f64,
}

/// One rung of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepReport {
    /// The rate the arrival process was dialed to.
    pub offered_rps: f64,
    /// Intended sends in the measured window.
    pub intended: u64,
    /// Fully answered requests in the measured window (admit, reject,
    /// and remove responses — not `Busy` give-ups, not errors).
    pub completed: u64,
    /// `completed / measure` — what the server actually served.
    pub achieved_rps: f64,
    /// Whether this rung passed the sustain criterion.
    pub sustained: bool,
    pub admitted: u64,
    pub rejected: u64,
    pub removed: u64,
    /// Transparent `Busy` re-sends inside the client (retry pressure;
    /// the request still completed).
    pub busy_retries: u64,
    /// `Busy` answers that survived every retry (the request was shed).
    pub busy_giveups: u64,
    /// IO failures (timeouts, resets, refused redials).
    pub errors: u64,
    /// Intended-start latency quantiles — queueing included, by
    /// construction.
    pub latency: LatencySummary,
    /// Mean per-stage server time, when timing echoes were requested.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub server_stages: Option<StageMeans>,
}

/// The whole sweep, as written to `BENCH_service.json`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// True when the sweep ran the CI [`SweepConfig::quick`] shape.
    pub quick: bool,
    pub connections: usize,
    pub process: String,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub seed: u64,
    /// Every rung walked, in offered-rate order.
    pub steps: Vec<StepReport>,
    /// Achieved RPS of the highest sustained rung (`None` when even the
    /// first rung fell over).
    pub max_sustainable_rps: Option<f64>,
    /// Whether a mid-load `GET /metrics` scrape parsed as a valid
    /// Prometheus exposition (`None` when scraping was off).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub metrics_validated: Option<bool>,
    /// Post-sweep per-shard occupancy: how the server's connection plane
    /// spread this sweep's connections across its shards. Empty when the
    /// stats probe failed or the server predates sharding.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub shards: Vec<ShardOccupancy>,
    /// The connection-scaling ladder ridden after the rate sweep: fixed
    /// offered rate, growing connection counts, watching for the p99
    /// knee. `None` when the scaling sweep was not run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub connection_scaling: Option<ConnectionScalingReport>,
}

/// Shape of the connection-scaling sweep: the offered rate stays fixed
/// while the connection count climbs a ladder, so any latency movement
/// is attributable to connection-plane overhead (registration, timers,
/// readiness traffic), not to admission load.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingConfig {
    /// Per-rung shape; `connections` is overridden by each ladder rung.
    pub load: LoadConfig,
    /// The offered rate (all connections combined) held on every rung.
    pub fixed_rps: f64,
    /// Connection counts to walk, in order.
    pub ladder: Vec<usize>,
    /// A rung knees when its p99 exceeds this multiple of the first
    /// rung's p99 (or when it sheds or errors outright).
    pub knee_factor: f64,
}

impl ScalingConfig {
    /// CI shape: a short ladder with sub-second rungs.
    #[must_use]
    pub fn quick() -> ScalingConfig {
        ScalingConfig {
            load: LoadConfig {
                connections: 2,
                warmup: Duration::from_millis(200),
                measure: Duration::from_millis(600),
                ..LoadConfig::default()
            },
            fixed_rps: 50.0,
            ladder: vec![2, 8, 32],
            knee_factor: 8.0,
        }
    }

    /// Benchmark shape: climbs to a thousand held connections.
    #[must_use]
    pub fn full() -> ScalingConfig {
        ScalingConfig {
            load: LoadConfig::default(),
            fixed_rps: 200.0,
            ladder: vec![4, 16, 64, 256, 1000],
            knee_factor: 8.0,
        }
    }
}

/// One rung of the connection-scaling ladder.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScalingRung {
    /// Concurrent connections held on this rung.
    pub connections: usize,
    /// Fully answered requests in the measured window.
    pub completed: u64,
    /// `completed / measure`.
    pub achieved_rps: f64,
    /// IO failures on this rung.
    pub errors: u64,
    /// `Busy` answers that survived every retry.
    pub busy_giveups: u64,
    /// Intended-start latency over the rung.
    pub latency: LatencySummary,
    /// Whether this rung crossed the knee criterion.
    pub knee: bool,
}

/// The connection-scaling section of `BENCH_service.json`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConnectionScalingReport {
    /// The offered rate every rung was held at.
    pub fixed_rps: f64,
    /// Every rung walked, in ladder order.
    pub rungs: Vec<ScalingRung>,
    /// The largest connection count that stayed on the good side of the
    /// p99 knee (`None` when even the first rung kneed).
    pub max_connections_before_knee: Option<usize>,
    /// Per-shard occupancy probed right after the top rung: how the
    /// connection plane spread the widest rung across its shards.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub top_rung_shards: Vec<ShardOccupancy>,
}

/// Walks the whole connection ladder at a fixed offered rate and reports
/// where the p99 knee sits. Kneed rungs are marked, not skipped: the
/// rungs past a knee are exactly the ones that show whether the plane
/// degrades gracefully or collapses.
#[must_use]
pub fn run_connection_scaling(addr: &str, config: &ScalingConfig) -> ConnectionScalingReport {
    let mut rungs: Vec<ScalingRung> = Vec::new();
    let mut baseline_p99 = None;
    for &connections in &config.ladder {
        let load = LoadConfig {
            connections,
            ..config.load.clone()
        };
        let step = run_step(addr, config.fixed_rps, &load, 0.0, None);
        let p99 = step.latency.p99_us;
        let baseline = *baseline_p99.get_or_insert(p99.max(1));
        let knee = step.errors > 0
            || step.busy_giveups > 0
            || p99 as f64 > config.knee_factor * baseline as f64;
        rungs.push(ScalingRung {
            connections,
            completed: step.completed,
            achieved_rps: step.achieved_rps,
            errors: step.errors,
            busy_giveups: step.busy_giveups,
            latency: step.latency,
            knee,
        });
    }
    let max_connections_before_knee = rungs
        .iter()
        .take_while(|r| !r.knee)
        .map(|r| r.connections)
        .max();
    ConnectionScalingReport {
        fixed_rps: config.fixed_rps,
        rungs,
        max_connections_before_knee,
        top_rung_shards: probe_shard_occupancy(addr),
    }
}

/// One shard's share of the sweep, distilled from the server's
/// [`ShardStatsSnapshot`] after the last rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardOccupancy {
    /// The shard's index, `0..shards`.
    pub shard: u64,
    /// Connections homed on it over the server's lifetime.
    pub connections_served: u64,
}

impl From<&ShardStatsSnapshot> for ShardOccupancy {
    fn from(s: &ShardStatsSnapshot) -> ShardOccupancy {
        ShardOccupancy {
            shard: s.shard,
            connections_served: s.connections_served,
        }
    }
}

/// Fetches the server's per-shard occupancy via one `Stats` round trip.
/// Best-effort: any failure reports an empty list rather than failing
/// the sweep that already ran.
fn probe_shard_occupancy(addr: &str) -> Vec<ShardOccupancy> {
    let config = ClientConfig {
        io_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let Ok(mut client) = Client::connect_with(addr, config) else {
        return Vec::new();
    };
    match client.stats() {
        Ok(Response::Stats { snapshot }) => {
            snapshot.shards.iter().map(ShardOccupancy::from).collect()
        }
        _ => Vec::new(),
    }
}

/// Deterministic xorshift64 for arrival gaps: cheap, seedable, no
/// dependency — the same generator the service client uses for backoff
/// jitter.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is always finite.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The admission workload: a small low-density task, the same shape the
/// service tests admit. Repeat admissions hit the template cache — the
/// steady state an admission server actually runs in.
fn workload_task() -> DagTask {
    DagTask::sequential(Ticks::new(1), Ticks::new(4), Ticks::new(8))
        .expect("the loadgen workload task is valid")
}

/// All intended send offsets (from step start) for one step, sorted.
/// Generated past `warmup + measure` by one gap so the last intended
/// instant inside the window is never clipped short.
fn intended_offsets(rate: f64, config: &LoadConfig) -> Vec<Duration> {
    let horizon = config.warmup + config.measure;
    let mut rng = XorShift::new(config.seed ^ rate.to_bits());
    let mut offsets = Vec::with_capacity((rate * horizon.as_secs_f64()) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let gap = match config.process {
            ArrivalProcess::Poisson => -rng.unit().ln() / rate,
            ArrivalProcess::Fixed => 1.0 / rate,
        };
        t += gap;
        if t >= horizon.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
}

/// Sleeps until `start + offset`, coarse-sleeping most of the gap and
/// yielding across the last couple of milliseconds so intended instants
/// land tightly without burning a full spin-wait.
fn sleep_until(start: Instant, offset: Duration) {
    loop {
        let elapsed = start.elapsed();
        if elapsed >= offset {
            return;
        }
        let remaining = offset - elapsed;
        if remaining > Duration::from_millis(2) {
            std::thread::sleep(remaining - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one worker saw over its slice of the step.
#[derive(Default)]
struct WorkerOutcome {
    latencies_us: Vec<u64>,
    completed: u64,
    admitted: u64,
    rejected: u64,
    removed: u64,
    busy_retries: u64,
    busy_giveups: u64,
    errors: u64,
    stage_sums_us: [u64; 6],
    stage_samples: u64,
}

/// Runs one worker: walk the assigned offsets, alternate admit/remove
/// (so server occupancy stays flat across the whole sweep), measure
/// from the intended instant. The connection is held open until
/// `horizon` even after the worker's last send — a rung's connection
/// count means sockets *concurrently held*, not sockets ever dialed,
/// which is the whole point of the connection-scaling ladder.
fn run_worker(
    addr: &str,
    offsets: &[Duration],
    warmup: Duration,
    horizon: Duration,
    echo_timing: bool,
    start: Instant,
) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    let config = ClientConfig {
        io_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let Ok(mut client) = Client::connect_with(addr, config) else {
        out.errors = offsets.len() as u64;
        return out;
    };
    let task = workload_task();
    let mut tokens: Vec<u64> = Vec::new();
    let mut retries_before = client.busy_retry_attempts();
    for &offset in offsets {
        sleep_until(start, offset);
        let measured = offset >= warmup;
        let response = match tokens.pop() {
            Some(token) => client.remove(token),
            None if echo_timing => client.admit_timed(&task, None),
            None => client.admit(&task),
        };
        let latency = start.elapsed().saturating_sub(offset);
        let retries_now = client.busy_retry_attempts();
        if measured {
            out.busy_retries += retries_now - retries_before;
        }
        retries_before = retries_now;
        match response {
            Ok(Response::Admitted { token, timing, .. }) => {
                tokens.push(token);
                if measured {
                    out.admitted += 1;
                    if let Some(t) = timing {
                        out.stage_sums_us[0] += t.idle_us;
                        out.stage_sums_us[1] += t.read_us;
                        out.stage_sums_us[2] += t.parse_us;
                        out.stage_sums_us[3] += t.cache_us;
                        out.stage_sums_us[4] += t.analysis_us;
                        out.stage_sums_us[5] += t.wal_us;
                        out.stage_samples += 1;
                    }
                }
            }
            Ok(Response::Rejected { .. }) => {
                if measured {
                    out.rejected += 1;
                }
            }
            Ok(Response::Removed { .. } | Response::NotFound { .. }) => {
                if measured {
                    out.removed += 1;
                }
            }
            Ok(Response::Busy { .. }) => {
                if measured {
                    out.busy_giveups += 1;
                }
                continue;
            }
            Ok(_) => {}
            Err(_) => {
                if measured {
                    out.errors += 1;
                }
                continue;
            }
        }
        if measured {
            out.completed += 1;
            let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            out.latencies_us.push(us);
        }
    }
    // Hold the connection through the end of the window, then leave the
    // server as found by draining this worker's leftover tokens.
    sleep_until(start, horizon);
    for token in tokens {
        let _ = client.remove(token);
    }
    out
}

/// Scrapes `GET /metrics` over plain HTTP and returns the exposition
/// body.
///
/// # Errors
///
/// Connect/IO errors, or `InvalidData` when the response is not an
/// HTTP 200.
pub fn scrape_metrics(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    if !status.contains("200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metrics scrape answered {}", status.trim()),
        ));
    }
    let mut body = String::new();
    let mut in_body = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(body);
        }
        if in_body {
            body.push_str(&line);
        } else if line.trim_end().is_empty() {
            in_body = true;
        }
    }
}

/// Runs one rung: pre-dials the connections, schedules the full
/// intended timeline, drives it open-loop, and summarizes.
///
/// `scrape` additionally fetches `GET /metrics` in the middle of the
/// measured window — while the server is under this rung's load — and
/// records whether the exposition validated.
fn run_step(
    addr: &str,
    rate: f64,
    config: &LoadConfig,
    sustain_ratio: f64,
    scrape: Option<&mut Option<bool>>,
) -> StepReport {
    let offsets = intended_offsets(rate, config);
    let workers = config.connections.max(1);
    // Round-robin a sorted timeline: each worker's slice stays sorted.
    let mut per_worker: Vec<Vec<Duration>> = vec![Vec::new(); workers];
    for (i, &offset) in offsets.iter().enumerate() {
        per_worker[i % workers].push(offset);
    }
    let intended = offsets.iter().filter(|&&o| o >= config.warmup).count() as u64;

    let start = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .iter()
            .map(|slice| {
                scope.spawn(move || {
                    run_worker(
                        addr,
                        slice,
                        config.warmup,
                        config.warmup + config.measure,
                        config.echo_timing,
                        start,
                    )
                })
            })
            .collect();
        if let Some(validated) = scrape {
            sleep_until(start, config.warmup + config.measure / 2);
            *validated = Some(
                scrape_metrics(addr)
                    .is_ok_and(|body| fedsched_telemetry::validate_exposition(&body).is_ok()),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });

    let mut latencies = Vec::new();
    let mut total = WorkerOutcome::default();
    for mut o in outcomes {
        latencies.append(&mut o.latencies_us);
        total.completed += o.completed;
        total.admitted += o.admitted;
        total.rejected += o.rejected;
        total.removed += o.removed;
        total.busy_retries += o.busy_retries;
        total.busy_giveups += o.busy_giveups;
        total.errors += o.errors;
        for (sum, add) in total.stage_sums_us.iter_mut().zip(o.stage_sums_us) {
            *sum += add;
        }
        total.stage_samples += o.stage_samples;
    }
    let latency = LatencySummary::from_micros(latencies).unwrap_or(LatencySummary {
        samples: 0,
        reliable: false,
        p50_us: 0,
        p90_us: 0,
        p99_us: 0,
        p999_us: 0,
        max_us: 0,
        mean_us: 0,
    });
    let server_stages = (total.stage_samples > 0).then(|| {
        let mean = |i: usize| total.stage_sums_us[i] as f64 / total.stage_samples as f64;
        StageMeans {
            samples: total.stage_samples,
            idle_us: mean(0),
            read_us: mean(1),
            parse_us: mean(2),
            cache_us: mean(3),
            analysis_us: mean(4),
            wal_us: mean(5),
        }
    });
    let achieved_rps = total.completed as f64 / config.measure.as_secs_f64();
    let sustained = total.errors == 0
        && total.busy_giveups == 0
        && total.completed as f64 >= sustain_ratio * intended as f64;
    StepReport {
        offered_rps: rate,
        intended,
        completed: total.completed,
        achieved_rps,
        sustained,
        admitted: total.admitted,
        rejected: total.rejected,
        removed: total.removed,
        busy_retries: total.busy_retries,
        busy_giveups: total.busy_giveups,
        errors: total.errors,
        latency,
        server_stages,
    }
}

/// Walks the rate ladder against a running server at `addr` until a
/// rung fails or the ladder tops out, and reports every rung plus the
/// max sustained rate.
#[must_use]
pub fn run_sweep(addr: &str, config: &SweepConfig, quick: bool) -> SweepReport {
    let mut steps = Vec::new();
    let mut metrics_validated = None;
    let mut rate = config.start_rps;
    for step in 0..config.max_steps.max(1) {
        let scrape = (config.scrape_metrics && step == 0).then_some(&mut metrics_validated);
        let report = run_step(addr, rate, &config.load, config.sustain_ratio, scrape);
        let sustained = report.sustained;
        steps.push(report);
        if !sustained {
            break;
        }
        rate *= config.growth;
    }
    let max_sustainable_rps = steps
        .iter()
        .filter(|s| s.sustained)
        .map(|s| s.achieved_rps)
        .fold(None, |best: Option<f64>, rps| {
            Some(best.map_or(rps, |b| b.max(rps)))
        });
    SweepReport {
        quick,
        connections: config.load.connections,
        process: config.load.process.name().to_owned(),
        warmup_ms: u64::try_from(config.load.warmup.as_millis()).unwrap_or(u64::MAX),
        measure_ms: u64::try_from(config.load.measure.as_millis()).unwrap_or(u64::MAX),
        seed: config.load.seed,
        steps,
        max_sustainable_rps,
        metrics_validated,
        shards: probe_shard_occupancy(addr),
        connection_scaling: None,
    }
}

/// Renders the human-readable sweep summary (the JSON report is the
/// machine-readable artifact).
#[must_use]
pub fn render_report(report: &SweepReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "open-loop sweep: {} connection(s), {} arrivals, warmup {} ms, measure {} ms per rung",
        report.connections, report.process, report.warmup_ms, report.measure_ms
    );
    for step in &report.steps {
        let _ = writeln!(
            out,
            "  offered {:>8.1} rps: achieved {:>8.1} rps ({}/{} answered) \
             p50 {}µs p90 {}µs p99 {}µs p99.9 {}µs max {}µs{}{}",
            step.offered_rps,
            step.achieved_rps,
            step.completed,
            step.intended,
            step.latency.p50_us,
            step.latency.p90_us,
            step.latency.p99_us,
            step.latency.p999_us,
            step.latency.max_us,
            if step.busy_retries + step.busy_giveups + step.errors > 0 {
                format!(
                    " [busy-retries {}, busy-giveups {}, errors {}]",
                    step.busy_retries, step.busy_giveups, step.errors
                )
            } else {
                String::new()
            },
            if step.sustained {
                ""
            } else {
                "  (NOT sustained)"
            },
        );
        if !step.latency.reliable {
            let _ = writeln!(
                out,
                "    (quantiles unreliable: {} sample(s), below the {} floor)",
                step.latency.samples, MIN_RELIABLE_SAMPLES,
            );
        }
        if let Some(stages) = &step.server_stages {
            let _ = writeln!(
                out,
                "    server stages (mean over {} echoes): idle-wait {:.1}µs (client think \
                 time), read {:.1}µs, parse {:.1}µs, cache {:.1}µs, analysis {:.1}µs, wal {:.1}µs",
                stages.samples,
                stages.idle_us,
                stages.read_us,
                stages.parse_us,
                stages.cache_us,
                stages.analysis_us,
                stages.wal_us,
            );
        }
    }
    match report.max_sustainable_rps {
        Some(rps) => {
            let _ = writeln!(out, "max sustainable rate: {rps:.1} rps");
        }
        None => {
            let _ = writeln!(out, "max sustainable rate: none (first rung fell over)");
        }
    }
    if let Some(validated) = report.metrics_validated {
        let _ = writeln!(
            out,
            "mid-load /metrics exposition: {}",
            if validated { "valid" } else { "INVALID" }
        );
    }
    if !report.shards.is_empty() {
        let _ = writeln!(out, "shard occupancy ({} shard(s)):", report.shards.len());
        for s in &report.shards {
            let _ = writeln!(out, "  shard {}: {} conn(s)", s.shard, s.connections_served);
        }
    }
    if let Some(scaling) = &report.connection_scaling {
        let _ = writeln!(
            out,
            "connection scaling at {:.1} rps offered:",
            scaling.fixed_rps
        );
        for rung in &scaling.rungs {
            let _ = writeln!(
                out,
                "  {:>5} connection(s): achieved {:>8.1} rps, p99 {}µs{}{}{}",
                rung.connections,
                rung.achieved_rps,
                rung.latency.p99_us,
                if rung.errors + rung.busy_giveups > 0 {
                    format!(
                        " [busy-giveups {}, errors {}]",
                        rung.busy_giveups, rung.errors
                    )
                } else {
                    String::new()
                },
                if rung.latency.reliable {
                    String::new()
                } else {
                    format!(" (unreliable: {} sample(s))", rung.latency.samples)
                },
                if rung.knee { "  <- p99 knee" } else { "" },
            );
        }
        match scaling.max_connections_before_knee {
            Some(n) => {
                let _ = writeln!(out, "  max connections before the knee: {n}");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  max connections before the knee: none (first rung kneed)"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_sorted_and_inside_the_horizon() {
        let config = LoadConfig {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(400),
            ..LoadConfig::default()
        };
        let offsets = intended_offsets(200.0, &config);
        assert!(!offsets.is_empty());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "sorted timeline");
        let horizon = config.warmup + config.measure;
        assert!(offsets.iter().all(|&o| o < horizon));
        // ~200 rps over 0.5 s ≈ 100 arrivals; Poisson jitter stays well
        // inside [40, 250] with overwhelming probability for a fixed seed.
        assert!((40..=250).contains(&offsets.len()), "{}", offsets.len());
    }

    #[test]
    fn fixed_offsets_tick_at_the_exact_rate() {
        let config = LoadConfig {
            warmup: Duration::from_millis(0),
            measure: Duration::from_millis(1000),
            process: ArrivalProcess::Fixed,
            ..LoadConfig::default()
        };
        let offsets = intended_offsets(100.0, &config);
        assert_eq!(offsets.len(), 99, "10ms grid over 1s, first at 10ms");
        let grid = Duration::from_millis(10);
        for (i, &o) in offsets.iter().enumerate() {
            let expected = grid * (i as u32 + 1);
            assert!(
                o.abs_diff(expected) < Duration::from_micros(10),
                "tick {i} drifted"
            );
        }
    }

    #[test]
    fn identical_seeds_produce_identical_timelines() {
        let config = LoadConfig::default();
        assert_eq!(
            intended_offsets(333.0, &config),
            intended_offsets(333.0, &config)
        );
    }

    #[test]
    fn quantile_reliability_follows_the_sample_floor() {
        let scant = LatencySummary::from_micros(vec![10; 999]).unwrap();
        assert!(!scant.reliable, "999 samples sit below the floor");
        let enough = LatencySummary::from_micros(vec![10; 1000]).unwrap();
        assert!(enough.reliable, "the floor itself is reliable");
    }

    #[test]
    fn quantile_summary_is_exact_nearest_rank() {
        let summary = LatencySummary::from_micros((1..=1000).rev().collect()).unwrap();
        assert_eq!(summary.samples, 1000);
        assert!(summary.reliable);
        assert_eq!(summary.p50_us, 500);
        assert_eq!(summary.p90_us, 900);
        assert_eq!(summary.p99_us, 990);
        assert_eq!(summary.p999_us, 999);
        assert_eq!(summary.max_us, 1000);
        assert_eq!(summary.mean_us, 500);
        assert!(LatencySummary::from_micros(Vec::new()).is_none());
    }

    #[test]
    fn arrival_process_parses_and_rejects() {
        assert_eq!(
            ArrivalProcess::parse("poisson"),
            Ok(ArrivalProcess::Poisson)
        );
        assert_eq!(ArrivalProcess::parse("fixed"), Ok(ArrivalProcess::Fixed));
        assert!(ArrivalProcess::parse("lockstep").is_err());
    }
}
