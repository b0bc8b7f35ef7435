//! The three serve workloads: the admission server booted exactly as
//! `fedsched serve` wires it (`fedsched_cli::start_server`), driven by
//! closed-loop `fedsched_service::Client`s.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fedsched_cli::{start_server, ServeOptions};
use fedsched_core::fedcons::FedConsConfig;
use fedsched_dag::task::DagTask;
use fedsched_durable::{DurableStore, StoreConfig};
use fedsched_service::protocol::{Request, Response};
use fedsched_service::state::AdmissionConfig;
use fedsched_service::stats::StatsSnapshot;
use fedsched_service::{recover_state, Client, ServerHandle};
use rand::Rng;

use crate::check::{self, Op, Resident, Seen};
use crate::inputs;
use crate::measure::{self, Latencies};
use crate::report::{median, Options, Outcome, Workload};
use crate::trace::{self, Recorder, Span};

/// Sizes and server settings of one serve workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    workload: Workload,
    /// Platform size `-m`.
    processors: u32,
    /// `--template-cache-cap` (0 = the `serve` default, unbounded).
    cache_cap: usize,
    /// Client connections, one closed-loop thread each.
    connections: usize,
    /// Serve with `--data-dir` (and the default `--fsync every`).
    durable: bool,
    /// Distinct catalogue shapes (warm) or high-density shapes (churn).
    catalogue: usize,
    /// Tasks each warm client keeps resident; low-density residents the
    /// churn fill targets.
    resident: usize,
    /// Closed-loop operations per client after the catalogue pass.
    warmup_ops: u64,
    /// Setups per run; `setup_s` is their median.
    setups: usize,
    /// Traced-phase operations per client per measured second.
    trace_ops_per_s: u64,
    /// Latency samples reserved per client per measured second (about
    /// twice the rate seen on a 2-core host), so sample buffers never
    /// regrow mid-phase and show in the peak-RSS metric.
    samples_per_s: u64,
}

/// Churn shape skew: this many hot shapes draw [`HOT_SHARE`] of the
/// high-density admits; the rest draw uniformly over the catalogue.
const HOT_SHAPES: usize = 16;
const HOT_SHARE: f64 = 0.6;
/// Dedicated clusters the churn keeps before removing the oldest.
const CHURN_CLUSTERS: usize = 1;
/// Share of churn steps that work the low-density shared pool.
const LOW_SHARE: f64 = 0.75;
/// Low-density filler catalogue size for churn.
const CHURN_FILLERS: usize = 1500;

fn spec(workload: Workload, short: bool) -> Spec {
    let (catalogue, warmup_ops, setups) = if short { (40, 40, 1) } else { (300, 1500, 3) };
    let durable = workload == Workload::ServeDurable;
    match workload {
        Workload::ServeWarm | Workload::ServeDurable => Spec {
            workload,
            processors: 32,
            cache_cap: 0,
            // The durable server group-commits concurrent decisions, and
            // with two closed-loop connections on a 2-core host its batching
            // regime changed from run to run: throughput of one seed moved
            // 4.0k–5.5k ops/s with two connections, 3.4k–3.6k with one.
            connections: if durable { 1 } else { measure::nproc().min(2) },
            durable,
            catalogue,
            resident: 4,
            warmup_ops: if durable { warmup_ops / 5 } else { warmup_ops },
            setups,
            trace_ops_per_s: if durable { 2000 } else { 4000 },
            samples_per_s: if durable { 5000 } else { 15_000 },
        },
        Workload::ServeChurn => Spec {
            workload,
            processors: 16,
            cache_cap: if short { 8 } else { 32 },
            connections: 1,
            durable: false,
            catalogue: if short { 40 } else { 400 },
            resident: if short { 40 } else { 135 },
            warmup_ops: if short { 20 } else { 400 },
            setups,
            trace_ops_per_s: 200,
            samples_per_s: 2000,
        },
        Workload::BatchFedcons => unreachable!("batch is not a serve workload"),
    }
}

/// A durable data directory, removed when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn create(path: PathBuf) -> io::Result<DataDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir(path))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One client connection and what it holds.
struct Conn {
    client: Client,
    /// `(token, catalogue index)` of this client's resident tasks, oldest
    /// first.
    held: VecDeque<(u64, usize)>,
    /// This client's seeded catalogue order and position in it.
    order: Vec<usize>,
    cursor: usize,
}

/// A booted server with its clients.
struct Rig {
    handle: ServerHandle,
    opts: ServeOptions,
    conns: Vec<Conn>,
    data_dir: Option<DataDir>,
}

impl Rig {
    fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Closes every connection, then stops and joins the server (dropping
    /// the clients first lets the connection drain finish at once).
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        drop(self.data_dir);
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn boot(spec: &Spec, opts: &Options, k: usize) -> io::Result<Rig> {
    let data_dir = if spec.durable {
        Some(DataDir::create(
            opts.out_dir
                .join(format!("durable-{}-{k}", std::process::id())),
        )?)
    } else {
        None
    };
    let serve = ServeOptions {
        processors: spec.processors,
        addr: "127.0.0.1:0".to_owned(),
        template_cache_cap: spec.cache_cap,
        data_dir: data_dir.as_ref().map(|d| d.0.clone()),
        ..ServeOptions::default()
    };
    let handle = start_server(&serve).map_err(other)?;
    let mut conns = Vec::with_capacity(spec.connections);
    for _ in 0..spec.connections {
        conns.push(Conn {
            client: Client::connect(handle.local_addr())?,
            held: VecDeque::new(),
            order: Vec::new(),
            cursor: 0,
        });
    }
    Ok(Rig {
        handle,
        opts: serve,
        conns,
        data_dir,
    })
}

/// Per-client tallies of one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Tallies {
    attempted: u64,
    admitted: u64,
    rejected: u64,
    removed: u64,
    failed: u64,
}

impl Tallies {
    fn add(&mut self, o: &Tallies) {
        self.attempted += o.attempted;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.removed += o.removed;
        self.failed += o.failed;
    }
}

/// Per-admit attribution sums of a traced phase.
#[derive(Debug, Default, Clone, Copy)]
struct Attribution {
    admits: u64,
    client_ns: u64,
    read_us: u64,
    parse_us: u64,
    cache_us: u64,
    analysis_us: u64,
    wal_us: u64,
    serialize_ns: u64,
    codec_ns: u64,
}

impl Attribution {
    fn add(&mut self, o: &Attribution) {
        self.admits += o.admits;
        self.client_ns += o.client_ns;
        self.read_us += o.read_us;
        self.parse_us += o.parse_us;
        self.cache_us += o.cache_us;
        self.analysis_us += o.analysis_us;
        self.wal_us += o.wal_us;
        self.serialize_ns += o.serialize_ns;
        self.codec_ns += o.codec_ns;
    }
}

/// What one client thread measured.
struct ClientRun {
    lat: Latencies,
    admit_lat: Latencies,
    tallies: Tallies,
    attribution: Attribution,
    spans: Vec<Span>,
}

impl ClientRun {
    fn new(origin: Instant, capacity: usize) -> ClientRun {
        ClientRun {
            lat: Latencies::new(origin, capacity),
            admit_lat: Latencies::new(origin, capacity),
            tallies: Tallies::default(),
            attribution: Attribution::default(),
            spans: Vec::new(),
        }
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Duration),
    Ops(u64),
}

impl Stop {
    /// Samples to reserve per client for a phase of this length.
    fn capacity(self, spec: &Spec) -> usize {
        match self {
            Stop::After(d) => (spec.samples_per_s * d.as_secs().max(1)) as usize,
            Stop::Ops(n) => n as usize,
        }
    }
}

/// One admission round trip, traced or not; the traced form also times
/// the layer calls the benchmark can make itself on the same values.
fn admit(
    conn: &mut Conn,
    task: &DagTask,
    run: &mut ClientRun,
    rec: Option<(&mut Recorder, u64)>,
) -> io::Result<Response> {
    let t0 = Instant::now();
    let resp = match rec {
        Some((_, id)) => conn.client.admit_timed(task, Some(id)),
        None => conn.client.admit(task),
    };
    let t1 = Instant::now();
    run.lat.push(t0, t1);
    run.admit_lat.push(t0, t1);
    let Some((rec, id)) = rec else {
        return resp;
    };
    let parent = rec.record("client.admit", None, id, t0, t1);
    let resp = resp?;
    let a = &mut run.attribution;
    a.admits += 1;
    a.client_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
    if let Response::Admitted {
        timing, trace_id, ..
    }
    | Response::Rejected {
        timing, trace_id, ..
    } = &resp
    {
        let Some(t) = timing.filter(|_| *trace_id == Some(id)) else {
            return Err(other("admit echo lost its timing or trace id"));
        };
        a.read_us += t.read_us;
        a.parse_us += t.parse_us;
        a.cache_us += t.cache_us;
        a.analysis_us += t.analysis_us;
        a.wal_us += t.wal_us;
    }
    let (line, ser) = rec.time("protocol.serialize", Some(parent), id, || {
        serde_json::to_string(&resp).expect("responses serialize")
    });
    let (_, codec) = rec.time("client.codec", Some(parent), id, || {
        let request = Request::Admit {
            task: task.clone(),
            trace_id: Some(id),
            echo_timing: true,
        };
        let wire = serde_json::to_string(&request).expect("requests serialize");
        let back: Response = serde_json::from_str(&line).expect("responses parse");
        std::hint::black_box((wire, back));
    });
    a.serialize_ns += ser.nanos();
    a.codec_ns += codec.nanos();
    Ok(resp)
}

/// The closed loop of one warm/durable client: admit the next catalogue
/// shape, and once more than `resident` are held remove the oldest. The
/// next call waits for the previous answer.
fn client_loop(
    conn: &mut Conn,
    catalogue: &[DagTask],
    spec: &Spec,
    stop: Stop,
    origin: Instant,
    rec: Option<&mut Recorder>,
    lane: u64,
) -> ClientRun {
    let resident = spec.resident;
    let mut run = ClientRun::new(origin, stop.capacity(spec));
    let mut rec = rec;
    let deadline = match stop {
        Stop::After(d) => Some(Instant::now() + d),
        Stop::Ops(_) => None,
    };
    loop {
        let done = match (stop, deadline) {
            (Stop::Ops(n), _) => run.tallies.attempted >= n,
            (_, Some(d)) => Instant::now() >= d,
            _ => true,
        };
        if done {
            break;
        }
        run.tallies.attempted += 1;
        if conn.held.len() > resident {
            let (token, _) = conn.held.pop_front().expect("held is non-empty");
            let t0 = Instant::now();
            let resp = conn.client.remove(token);
            let t1 = Instant::now();
            run.lat.push(t0, t1);
            if let Some(r) = rec.as_deref_mut() {
                r.record("client.remove", None, token, t0, t1);
            }
            match resp {
                Ok(Response::Removed { token: t, .. }) if t == token => run.tallies.removed += 1,
                _ => run.tallies.failed += 1,
            }
            continue;
        }
        let idx = conn.order[conn.cursor % conn.order.len()];
        conn.cursor += 1;
        let id = (lane << 40) | run.tallies.attempted;
        match admit(
            conn,
            &catalogue[idx],
            &mut run,
            rec.as_deref_mut().map(|r| (r, id)),
        ) {
            Ok(Response::Admitted { token, .. }) => {
                conn.held.push_back((token, idx));
                run.tallies.admitted += 1;
            }
            Ok(Response::Rejected { .. }) => run.tallies.rejected += 1,
            _ => run.tallies.failed += 1,
        }
    }
    run
}

/// A measured phase of the warm/durable traffic: every client thread
/// starts together; the phase ends when the last one finishes.
struct Phase {
    runs: Vec<ClientRun>,
    elapsed: Duration,
    cpu: Duration,
    allocs: (u64, u64),
}

fn closed_loop(
    conns: &mut [Conn],
    catalogue: &[DagTask],
    spec: &Spec,
    stop: Stop,
    traced: Option<Instant>,
) -> Phase {
    let barrier = Barrier::new(conns.len() + 1);
    let origin = Instant::now();
    let (runs, elapsed, cpu, allocs) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = traced.map(|epoch| Recorder::new(epoch, c as u32 + 1));
                    let lane = c as u64 + 1;
                    barrier.wait();
                    let mut run =
                        client_loop(conn, catalogue, spec, stop, origin, rec.as_mut(), lane);
                    run.spans = rec.map(Recorder::into_spans).unwrap_or_default();
                    run
                })
            })
            .collect();
        let cpu0 = measure::process_cpu();
        let alloc0 = crate::alloc::counted();
        crate::alloc::set_counting(traced.is_some());
        barrier.wait();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let elapsed = origin.elapsed();
        crate::alloc::set_counting(false);
        let alloc1 = crate::alloc::counted();
        let cpu = measure::process_cpu().saturating_sub(cpu0);
        (
            runs,
            elapsed,
            cpu,
            (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
        )
    });
    Phase {
        runs,
        elapsed,
        cpu,
        allocs,
    }
}

/// The server's counters through the protocol's `Stats` request.
fn stats(client: &mut Client) -> io::Result<StatsSnapshot> {
    match client.stats()? {
        Response::Stats { snapshot } => Ok(snapshot),
        other => Err(io::Error::other(format!("stats answered {other:?}"))),
    }
}

/// `GET /metrics` on the protocol port, summed per family name (labels
/// dropped).
fn scrape(addr: SocketAddr) -> io::Result<BTreeMap<String, f64>> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or_else(|| io::Error::other("metrics response has no body"))?;
    let mut families = BTreeMap::new();
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            *families.entry(name.to_owned()).or_insert(0.0) += v;
        }
    }
    Ok(families)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Every token the clients hold, queried from the server, plus a check
/// that the server holds exactly those tokens.
fn residents(
    rig: &mut Rig,
    held: &[(u64, usize)],
    catalogue: &[DagTask],
    problems: &mut Vec<String>,
) -> io::Result<Vec<Resident>> {
    let mut out = Vec::with_capacity(held.len());
    for &(token, idx) in held {
        match rig.conns[0].client.query(token)? {
            Response::TaskInfo { placement, .. } => out.push(Resident {
                token,
                task: catalogue[idx].clone(),
                placement,
            }),
            other => problems.push(format!("query {token} answered {other:?}")),
        }
    }
    let mut server: Vec<u64> = {
        let state = rig.handle.state();
        let state = state.lock().expect("admission state lock");
        state.resident().iter().map(|&(t, _)| t).collect()
    };
    let mut clients: Vec<u64> = held.iter().map(|&(t, _)| t).collect();
    server.sort_unstable();
    clients.sort_unstable();
    if server != clients {
        problems.push(format!(
            "server holds {} tokens, clients {}",
            server.len(),
            clients.len()
        ));
    }
    Ok(out)
}

/// Server admission counters must move exactly as the clients counted.
fn tallies_match(before: &StatsSnapshot, after: &StatsSnapshot, t: &Tallies) -> Vec<String> {
    let admitted =
        (after.admitted_high + after.admitted_low) - (before.admitted_high + before.admitted_low);
    let rejected =
        (after.rejected_high + after.rejected_low) - (before.rejected_high + before.rejected_low);
    let removed = after.removed - before.removed;
    if (admitted, rejected, removed) == (t.admitted, t.rejected, t.removed) {
        Vec::new()
    } else {
        vec![format!(
            "server counted {admitted}/{rejected}/{removed} admitted/rejected/removed, clients {}/{}/{}",
            t.admitted, t.rejected, t.removed
        )]
    }
}

/// The admission configuration `serve` derives from these options.
fn admission_config(serve: &ServeOptions) -> AdmissionConfig {
    AdmissionConfig {
        processors: serve.processors,
        fedcons: FedConsConfig::default(),
        telemetry_events: serve.telemetry_events,
        template_cache_cap: serve.template_cache_cap,
    }
}

/// `recover_state` over the data directory of a stopped server must
/// reproduce the live resident set.
fn recovered_matches(
    serve: &ServeOptions,
    dir: &Path,
    live: &[Resident],
) -> io::Result<Vec<String>> {
    let mut config = StoreConfig::new(dir);
    config.fsync = serve.fsync;
    config.snapshot_every_records = serve.snapshot_records;
    config.snapshot_every_bytes = serve.snapshot_bytes;
    let (store, log) = DurableStore::open(config)?;
    let (state, _) = recover_state(admission_config(serve), &log).map_err(other)?;
    drop(store);
    let recovered: Vec<Resident> = state
        .resident()
        .into_iter()
        .map(|(token, task)| Resident {
            token,
            task: task.clone(),
            placement: state.query(token).expect("resident tokens have placements"),
        })
        .collect();
    Ok(check::same_resident(live, &recovered, "recovered"))
}

/// The state a measured phase starts from, for the untraced and traced
/// variants alike.
struct WarmRun {
    rig: Rig,
    catalogue: Vec<DagTask>,
}

/// Setup of serve_warm / serve_durable: inputs from the seed, boot,
/// one admit/remove pass over the whole catalogue (every shape warm in
/// the template cache), then closed-loop warm-up traffic.
fn setup_warm(spec: &Spec, opts: &Options, k: usize) -> io::Result<WarmRun> {
    let catalogue = inputs::warm_catalogue(opts.seed, spec.catalogue);
    let mut rig = boot(spec, opts, k)?;
    for (c, conn) in rig.conns.iter_mut().enumerate() {
        conn.order = inputs::permutation(
            &mut inputs::stream(opts.seed, 10 + c as u64),
            catalogue.len(),
        );
    }
    let client = &mut rig.conns[0].client;
    for task in &catalogue {
        match client.admit(task)? {
            Response::Admitted { token, .. } => match client.remove(token)? {
                Response::Removed { .. } => {}
                other => return Err(other_resp("warm remove", &other)),
            },
            Response::Rejected { .. } => {}
            other => return Err(other_resp("warm admit", &other)),
        }
    }
    let phase = closed_loop(
        &mut rig.conns,
        &catalogue,
        spec,
        Stop::Ops(spec.warmup_ops),
        None,
    );
    if phase.runs.iter().any(|r| r.tallies.failed > 0) {
        return Err(io::Error::other("warm-up traffic failed"));
    }
    Ok(WarmRun { rig, catalogue })
}

fn other_resp(what: &str, resp: &Response) -> io::Error {
    io::Error::other(format!("{what} answered {resp:?}"))
}

/// Runs `setups` setups, stopping all but the last, and returns the last
/// with the median time a setup took (stopping the previous one excluded).
fn repeated_setup<T>(
    setups: usize,
    mut once: impl FnMut(usize) -> io::Result<T>,
    stop: impl Fn(T),
) -> io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for k in 0..setups {
        if let Some(prev) = last.take() {
            stop(prev);
        }
        let start = Instant::now();
        last = Some(once(k)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup"), median(&times)))
}

/// What a measured phase observed, reduced for reporting.
struct Measured {
    /// Every client's samples, tallies and spans, merged.
    run: ClientRun,
    elapsed: Duration,
    cpu: Duration,
    allocs: (u64, u64),
    before: StatsSnapshot,
    after: StatsSnapshot,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
}

impl Measured {
    fn ops(&self) -> f64 {
        self.run.tallies.attempted.max(1) as f64
    }
}

fn warm_phase(
    run: &mut WarmRun,
    spec: &Spec,
    stop: Stop,
    traced: Option<Instant>,
) -> io::Result<Measured> {
    let before = stats(&mut run.rig.conns[0].client)?;
    let metrics_before = scrape(run.rig.addr())?;
    let phase = closed_loop(&mut run.rig.conns, &run.catalogue, spec, stop, traced);
    let metrics_after = scrape(run.rig.addr())?;
    let after = stats(&mut run.rig.conns[0].client)?;
    let mut runs = phase.runs.into_iter();
    let mut all = runs.next().expect("at least one client");
    for r in runs {
        all.lat.append(&r.lat);
        all.admit_lat.append(&r.admit_lat);
        all.tallies.add(&r.tallies);
        all.attribution.add(&r.attribution);
        all.spans.extend(r.spans);
    }
    Ok(Measured {
        run: all,
        elapsed: phase.elapsed,
        cpu: phase.cpu,
        allocs: phase.allocs,
        before,
        after,
        metrics_before,
        metrics_after,
    })
}

/// The output checks of serve_warm / serve_durable; consumes the rig.
fn check_warm(run: WarmRun, spec: &Spec, m: &Measured, out: &mut Outcome) -> io::Result<()> {
    let WarmRun { mut rig, catalogue } = run;
    out.refute(tallies_match(&m.before, &m.after, &m.run.tallies));
    let held: Vec<(u64, usize)> = rig
        .conns
        .iter()
        .flat_map(|c| c.held.iter().copied())
        .collect();
    let mut problems = Vec::new();
    let live = residents(&mut rig, &held, &catalogue, &mut problems)?;
    out.refute(problems);
    out.refute(check::consistency(&live, spec.processors));
    let serve = rig.opts.clone();
    let dir = rig.data_dir.take();
    rig.stop();
    if let Some(dir) = dir {
        out.refute(recovered_matches(&serve, &dir.0, &live)?);
    }
    Ok(())
}

/// The churn operation stream: one connection, so every answer — and
/// hence every later operation — is a function of the seed.
struct Churn {
    rng: rand::rngs::StdRng,
    /// High-density shapes first, then the low-density fillers.
    catalogue: Vec<DagTask>,
    high: usize,
    low_order: Vec<usize>,
    low_cursor: usize,
    low_held: Vec<(u64, usize)>,
    /// Low-density residents the churn holds the pool at.
    target: usize,
    clusters: VecDeque<(u64, usize)>,
    pending: VecDeque<Op>,
    log: Vec<(Op, Seen)>,
}

impl Churn {
    fn new(seed: u64, spec: &Spec) -> Churn {
        let (high, low) = inputs::churn_catalogues(seed, spec.catalogue, CHURN_FILLERS);
        let high_n = high.len();
        let mut rng = inputs::stream(seed, 20);
        let low_order = inputs::permutation(&mut rng, low.len())
            .into_iter()
            .map(|i| high_n + i)
            .collect();
        Churn {
            rng,
            catalogue: high.into_iter().chain(low).collect(),
            high: high_n,
            low_order,
            low_cursor: 0,
            low_held: Vec::new(),
            clusters: VecDeque::new(),
            pending: VecDeque::new(),
            log: Vec::new(),
            target: spec.resident,
        }
    }

    fn next_low(&mut self) -> Op {
        let i = self.low_order[self.low_cursor % self.low_order.len()];
        self.low_cursor += 1;
        Op::Admit(i)
    }

    /// [`LOW_SHARE`] of the steps work the shared pool: below the target
    /// resident count they admit a fresh filler, at it they swap a random
    /// resident for one (two suffix replays). The rest admit a skew-drawn
    /// high-density shape, first retiring the oldest cluster once
    /// [`CHURN_CLUSTERS`] are resident, so the pool keeps breathing.
    fn next(&mut self) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        if self.rng.gen_bool(LOW_SHARE) {
            if self.low_held.len() < self.target {
                return self.next_low();
            }
            let victim = self.rng.gen_range(0..self.low_held.len());
            let (token, _) = self.low_held.swap_remove(victim);
            let refill = self.next_low();
            self.pending.push_back(refill);
            return Op::Remove(token);
        }
        let shape = if self.rng.gen_bool(HOT_SHARE) {
            self.rng.gen_range(0..HOT_SHAPES.min(self.high))
        } else {
            self.rng.gen_range(0..self.high)
        };
        if self.clusters.len() >= CHURN_CLUSTERS {
            let (oldest, _) = self.clusters.pop_front().expect("non-empty");
            self.pending.push_back(Op::Admit(shape));
            return Op::Remove(oldest);
        }
        Op::Admit(shape)
    }

    fn observe(&mut self, op: Op, seen: Seen) {
        self.log.push((op, seen));
        if let (Op::Admit(i), Seen::Admitted { token, .. }) = (op, seen) {
            if i < self.high {
                self.clusters.push_back((token, i));
            } else {
                self.low_held.push((token, i));
            }
        }
    }

    fn held(&self) -> Vec<(u64, usize)> {
        self.low_held
            .iter()
            .chain(&self.clusters)
            .copied()
            .collect()
    }
}

fn seen_of(op: Op, resp: io::Result<Response>) -> Seen {
    match (op, resp) {
        (
            Op::Admit(_),
            Ok(Response::Admitted {
                token,
                placement,
                cache_hit,
                ..
            }),
        ) => Seen::Admitted {
            token,
            placement,
            cache_hit,
        },
        (Op::Admit(_), Ok(Response::Rejected { .. })) => Seen::Rejected,
        (Op::Remove(_), Ok(Response::Removed { token, migrated })) => {
            Seen::Removed { token, migrated }
        }
        _ => Seen::Failed,
    }
}

struct ChurnRun {
    rig: Rig,
    churn: Churn,
}

/// One churn operation; returns what was seen.
fn churn_op(run: &mut ChurnRun, m: &mut ClientRun, rec: Option<&mut Recorder>, step: u64) -> Seen {
    let op = run.churn.next();
    let conn = &mut run.rig.conns[0];
    let resp = match op {
        Op::Admit(i) => {
            let task = &run.churn.catalogue[i];
            admit(conn, task, m, rec.map(|r| (r, (1 << 40) | step)))
        }
        Op::Remove(token) => {
            let t0 = Instant::now();
            let resp = conn.client.remove(token);
            let t1 = Instant::now();
            m.lat.push(t0, t1);
            if let Some(r) = rec {
                r.record("client.remove", None, token, t0, t1);
            }
            resp
        }
    };
    let seen = seen_of(op, resp);
    run.churn.observe(op, seen);
    let t = &mut m.tallies;
    t.attempted += 1;
    match seen {
        Seen::Admitted { .. } => t.admitted += 1,
        Seen::Rejected => t.rejected += 1,
        Seen::Removed { .. } => t.removed += 1,
        Seen::Failed => t.failed += 1,
    }
    seen
}

/// Setup of serve_churn: inputs, boot, fill the shared pool with
/// low-density residents, then warm-up churn.
fn setup_churn(spec: &Spec, opts: &Options, k: usize) -> io::Result<ChurnRun> {
    let churn = Churn::new(opts.seed, spec);
    let rig = boot(spec, opts, k)?;
    let mut run = ChurnRun { rig, churn };
    let mut scratch = ClientRun::new(Instant::now(), 0);
    let mut misses = 0;
    while run.churn.low_held.len() < spec.resident && misses < 5 {
        let op = run.churn.next_low();
        run.churn.pending.push_back(op);
        match churn_op(&mut run, &mut scratch, None, 0) {
            Seen::Admitted { .. } => {}
            Seen::Rejected => misses += 1,
            _ => return Err(io::Error::other("churn fill failed")),
        }
    }
    for _ in 0..spec.warmup_ops {
        if churn_op(&mut run, &mut scratch, None, 0) == Seen::Failed {
            return Err(io::Error::other("churn warm-up failed"));
        }
    }
    Ok(run)
}

fn churn_phase(
    run: &mut ChurnRun,
    spec: &Spec,
    stop: Stop,
    traced: Option<Instant>,
) -> io::Result<Measured> {
    let before = stats(&mut run.rig.conns[0].client)?;
    let metrics_before = scrape(run.rig.addr())?;
    let mut rec = traced.map(|epoch| Recorder::new(epoch, 1));
    let cpu0 = measure::process_cpu();
    let alloc0 = crate::alloc::counted();
    crate::alloc::set_counting(traced.is_some());
    let start = Instant::now();
    let mut m = ClientRun::new(start, stop.capacity(spec));
    let deadline = match stop {
        Stop::After(d) => Some(start + d),
        Stop::Ops(_) => None,
    };
    let mut step = 0;
    loop {
        let done = match (stop, deadline) {
            (Stop::Ops(n), _) => step >= n,
            (_, Some(d)) => Instant::now() >= d,
            _ => true,
        };
        if done {
            break;
        }
        step += 1;
        churn_op(run, &mut m, rec.as_mut(), step);
    }
    let elapsed = start.elapsed();
    crate::alloc::set_counting(false);
    let alloc1 = crate::alloc::counted();
    let cpu = measure::process_cpu().saturating_sub(cpu0);
    let metrics_after = scrape(run.rig.addr())?;
    let after = stats(&mut run.rig.conns[0].client)?;
    m.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    Ok(Measured {
        run: m,
        elapsed,
        cpu,
        allocs: (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
        before,
        after,
        metrics_before,
        metrics_after,
    })
}

/// serve_churn's output checks: counters, the exact replay through an
/// in-process `AdmissionState`, and the consistency oracle.
fn check_churn(run: ChurnRun, spec: &Spec, m: &Measured, out: &mut Outcome) -> io::Result<()> {
    let ChurnRun { mut rig, churn } = run;
    out.refute(tallies_match(&m.before, &m.after, &m.run.tallies));
    let (replayed, problems) =
        check::replay(admission_config(&rig.opts), &churn.catalogue, &churn.log);
    out.refute(problems);
    let r = replayed.snapshot();
    let a = &m.after;
    if (
        r.cache_hits,
        r.cache_misses,
        r.cache_evictions,
        r.probe.deterministic(),
    ) != (
        a.cache_hits,
        a.cache_misses,
        a.cache_evictions,
        a.probe.deterministic(),
    ) {
        out.refute(vec![
            "replayed cache or probe counters differ from the server's".to_owned(),
        ]);
    }
    let mut problems = Vec::new();
    let live = residents(&mut rig, &churn.held(), &churn.catalogue, &mut problems)?;
    out.refute(problems);
    out.refute(check::consistency(&live, spec.processors));
    rig.stop();
    Ok(())
}

fn record_settings(out: &mut Outcome, spec: &Spec, opts: &Options, rig: &Rig) {
    let shards = rig.handle.shard_stats().len();
    out.record_num("connections", spec.connections);
    out.record_num("server_shards", shards);
    out.record_num("server_acceptors", rig.opts.workers);
    out.record_num("server_dispatch_threads", rig.opts.workers.max(shards));
    out.record_num("processors_m", spec.processors);
    out.record_num("template_cache_cap", spec.cache_cap);
    out.record_num("catalogue_shapes", spec.catalogue);
    if spec.workload == Workload::ServeChurn {
        out.record_num("churn_fillers", CHURN_FILLERS);
        out.record_num("resident_low_target", spec.resident);
        out.record_num("hot_shapes", HOT_SHAPES);
    } else {
        out.record_num("resident_per_connection", spec.resident);
    }
    out.record_num("warmup_ops_per_connection", spec.warmup_ops);
    out.record_num("setups", spec.setups);
    if spec.durable {
        out.record_str("fsync", &format!("{:?}", rig.opts.fsync));
        out.record_num("snapshot_records", rig.opts.snapshot_records);
        out.record_num("snapshot_bytes", rig.opts.snapshot_bytes);
        out.record_str("data_dir_fs", &measure::filesystem_type(&opts.out_dir));
    } else {
        out.record_str("fsync", "none (memory only)");
    }
    out.record_num("analysis_pool_width", fedsched_parallel::width());
}

fn tally_outcome(out: &mut Outcome, t: &Tallies) {
    out.attempted += t.attempted;
    out.succeeded += t.admitted + t.removed;
    out.rejected += t.rejected;
    out.failed += t.failed;
}

/// Per-layer metrics of a traced phase, with the attribution that must
/// add up to the client-observed mean admit latency.
fn per_layer(out: &mut Outcome, m: &Measured, untraced_mean_us: f64) {
    let a = &m.run.attribution;
    let n = a.admits.max(1) as f64;
    let ops = m.ops();
    let client = a.client_ns as f64 / n / 1e3;
    let parts = [
        ("server.frame_read_us", a.read_us as f64 / n),
        ("protocol.parse_us", a.parse_us as f64 / n),
        ("cache.lookup_us", a.cache_us as f64 / n),
        ("state.analysis_us", a.analysis_us as f64 / n),
        ("durable.wal_us", a.wal_us as f64 / n),
        ("protocol.serialize_us", a.serialize_ns as f64 / n / 1e3),
        ("client.codec_us", a.codec_ns as f64 / n / 1e3),
    ];
    let attributed: f64 = parts.iter().map(|&(_, v)| v).sum();
    let unattributed = client - attributed;
    let mut line = format!("attribution over {} admits (us):", a.admits);
    for &(name, v) in &parts {
        out.metric(name, "us", v);
        line.push_str(&format!(" {name}={v:.3}"));
    }
    out.metric("unattributed_us", "us", unattributed);
    line.push_str(&format!(
        " unattributed_us={unattributed:.3} sum={:.3} client_mean_us={client:.3}",
        attributed + unattributed
    ));
    out.lines.push(line);
    out.metric("e2e.mean_us", "us", client);
    out.metric("trace.overhead_us", "us", client - untraced_mean_us);
    out.lines.push(format!(
        "tracing overhead: traced mean admit {client:.3} us - untraced {untraced_mean_us:.3} us = {:.3} us",
        client - untraced_mean_us
    ));

    out.metric("process.allocs_per_op", "count/op", m.allocs.0 as f64 / ops);
    out.metric(
        "process.alloc_bytes_per_op",
        "B/op",
        m.allocs.1 as f64 / ops,
    );

    let d = |name: &str| delta(&m.metrics_before, &m.metrics_after, name);
    let wakeups = d("fedsched_reactor_wakeups_total");
    out.metric("reactor.wakeups_per_op", "count/op", wakeups / ops);
    out.metric(
        "reactor.events_per_wakeup",
        "count",
        ratio(d("fedsched_reactor_ready_events_total"), wakeups),
    );
    out.metric(
        "durable.fsyncs_per_op",
        "count/op",
        d("fedsched_wal_fsyncs_total") / ops,
    );
    out.metric(
        "durable.bytes_per_op",
        "B/op",
        d("fedsched_wal_bytes_written_total") / ops,
    );
    out.metric(
        "durable.snapshots",
        "count",
        d("fedsched_wal_snapshots_written_total"),
    );
    out.metric(
        "server.batched_share",
        "ratio",
        ratio(
            d("fedsched_shard_batched_requests_total"),
            d("fedsched_shard_admit_requests_total"),
        ),
    );
    out.metric(
        "server.permit_steals",
        "count",
        d("fedsched_shard_permit_steals_total"),
    );

    let (b, f) = (&m.before, &m.after);
    let hits = f.cache_hits - b.cache_hits;
    let misses = f.cache_misses - b.cache_misses;
    let evictions = f.cache_evictions - b.cache_evictions;
    out.metric("cache.hits", "count", hits as f64);
    out.metric("cache.misses", "count", misses as f64);
    out.metric("cache.evictions", "count", evictions as f64);
    out.metric(
        "cache.hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.metric("cache.evictions_per_op", "count/op", evictions as f64 / ops);
    let decided = (f.admitted_high + f.admitted_low + f.rejected_high + f.rejected_low)
        - (b.admitted_high + b.admitted_low + b.rejected_high + b.rejected_low);
    let rejected = (f.rejected_high + f.rejected_low) - (b.rejected_high + b.rejected_low);
    out.metric(
        "state.reject_ratio",
        "ratio",
        ratio(rejected as f64, decided as f64),
    );
    crate::batch::probe_metrics(out, &b.probe, &f.probe, ops);
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn write_trace(opts: &Options, spans: &[Span], out: &mut Outcome) {
    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    match trace::write_chrome(&path, spans) {
        Ok(()) => out.record_str("trace_file", &path.display().to_string()),
        Err(e) => out
            .lines
            .push(format!("could not write {}: {e}", path.display())),
    }
    out.record_num("trace_spans", spans.len());
}

/// A booted serve workload: the state a measured phase starts from.
trait Served: Sized {
    fn rig(&self) -> &Rig;
    fn into_rig(self) -> Rig;
    fn phase(&mut self, spec: &Spec, stop: Stop, traced: Option<Instant>) -> io::Result<Measured>;
    /// The output checks; consumes (and stops) the server.
    fn check(self, spec: &Spec, m: &Measured, out: &mut Outcome) -> io::Result<()>;
}

impl Served for WarmRun {
    fn rig(&self) -> &Rig {
        &self.rig
    }
    fn into_rig(self) -> Rig {
        self.rig
    }
    fn phase(&mut self, spec: &Spec, stop: Stop, traced: Option<Instant>) -> io::Result<Measured> {
        warm_phase(self, spec, stop, traced)
    }
    fn check(self, spec: &Spec, m: &Measured, out: &mut Outcome) -> io::Result<()> {
        check_warm(self, spec, m, out)
    }
}

impl Served for ChurnRun {
    fn rig(&self) -> &Rig {
        &self.rig
    }
    fn into_rig(self) -> Rig {
        self.rig
    }
    fn phase(&mut self, spec: &Spec, stop: Stop, traced: Option<Instant>) -> io::Result<Measured> {
        churn_phase(self, spec, stop, traced)
    }
    fn check(self, spec: &Spec, m: &Measured, out: &mut Outcome) -> io::Result<()> {
        check_churn(self, spec, m, out)
    }
}

/// Untraced: `spec.setups` setups, one measured phase of `--seconds`,
/// its checks and the end-to-end metrics. Traced: an untraced baseline
/// and a traced phase of the same fixed operation count, each from a
/// fresh setup and checked, then the per-layer metrics.
fn drive<R: Served>(
    spec: &Spec,
    opts: &Options,
    setup: impl Fn(usize) -> io::Result<R>,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let checked = |setups, stop, traced, out: &mut Outcome| -> io::Result<(Measured, f64)> {
        let (mut run, setup_s) = repeated_setup(setups, &setup, |r: R| r.into_rig().stop())?;
        let m = run.phase(spec, stop, traced)?;
        if traced.is_some() || !opts.trace {
            record_settings(out, spec, opts, run.rig());
        }
        tally_outcome(out, &m.run.tallies);
        run.check(spec, &m, out)?;
        Ok((m, setup_s))
    };
    if opts.trace {
        let ops = (spec.trace_ops_per_s * opts.seconds.as_secs().max(1) / 2).max(20);
        let (baseline, _) = checked(1, Stop::Ops(ops), None, &mut out)?;
        let (m, _) = checked(1, Stop::Ops(ops), Some(Instant::now()), &mut out)?;
        per_layer(&mut out, &m, baseline.run.admit_lat.summary().mean_us);
        write_trace(opts, &m.run.spans, &mut out);
        out.record_num("traced_ops_per_connection", ops);
    } else {
        let (m, setup_s) = checked(spec.setups, Stop::After(opts.seconds), None, &mut out)?;
        out.end_to_end(&m.run.lat, m.elapsed, m.cpu, setup_s);
    }
    Ok(out)
}

/// The `durable.*` metrics of serve_warm's traced run: the same traffic,
/// traced and checked, against a `--data-dir`/`--fsync every` server (the
/// serve_durable setup). serve_durable's own end-to-end figures swing too
/// far with this host's CPU steal to gate, so its layer is measured here.
fn durable_layer(out: &mut Outcome, opts: &Options) -> io::Result<()> {
    let spec = spec(Workload::ServeDurable, opts.short);
    let ops = (spec.trace_ops_per_s * opts.seconds.as_secs().max(1) / 2).max(20);
    let (mut run, _) = repeated_setup(
        1,
        |k| setup_warm(&spec, opts, k),
        |r: WarmRun| {
            r.rig.stop();
        },
    )?;
    let fs = measure::filesystem_type(&opts.out_dir);
    let m = run.phase(&spec, Stop::Ops(ops), Some(Instant::now()))?;
    tally_outcome(out, &m.run.tallies);
    run.check(&spec, &m, out)?;
    let a = &m.run.attribution;
    let wal_us = a.wal_us as f64 / a.admits.max(1) as f64;
    let d = |name: &str| delta(&m.metrics_before, &m.metrics_after, name);
    out.metrics
        .retain(|metric| !metric.name.starts_with("durable."));
    out.metric("durable.wal_us", "us", wal_us);
    out.metric(
        "durable.fsyncs_per_op",
        "count/op",
        d("fedsched_wal_fsyncs_total") / m.ops(),
    );
    out.metric(
        "durable.bytes_per_op",
        "B/op",
        d("fedsched_wal_bytes_written_total") / m.ops(),
    );
    out.metric(
        "durable.snapshots",
        "count",
        d("fedsched_wal_snapshots_written_total"),
    );
    out.lines.push(format!(
        "durable layer (serve_warm traffic, {} connection, --fsync every, {fs}): mean admit {:.3} us, durable.wal_us={wal_us:.3}",
        spec.connections,
        a.client_ns as f64 / a.admits.max(1) as f64 / 1e3,
    ));
    out.record_json(
        "durable_phase",
        format!(
            "{{\"ops_per_connection\":{ops},\"connections\":{},\"fsync\":\"Every\",\"data_dir_fs\":{}}}",
            spec.connections,
            crate::report::json_string(&fs)
        ),
    );
    Ok(())
}

/// Runs one serve workload.
///
/// # Errors
///
/// Setup failures (binding, connecting, a failed warm-up) and I/O errors
/// of the checks.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let spec = spec(opts.workload, opts.short);
    if spec.workload == Workload::ServeChurn {
        return drive(&spec, opts, |k| setup_churn(&spec, opts, k));
    }
    let mut out = drive(&spec, opts, |k| setup_warm(&spec, opts, k))?;
    if opts.trace && spec.workload == Workload::ServeWarm {
        durable_layer(&mut out, opts)?;
    }
    Ok(out)
}
