//! Command implementations for the `fedsched` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper: every subcommand is a
//! function here that takes parsed options and returns the text to print,
//! so integration tests drive the exact production code paths without
//! spawning processes.
//!
//! Task systems are interchanged as JSON (the serde form of
//! [`fedsched_dag::system::TaskSystem`]); `fedsched generate` emits them,
//! the other subcommands consume them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use core::fmt;
use std::path::PathBuf;

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::partition::PartitionConfig;
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_analysis::response_time::edf_response_times;
use fedsched_core::feasibility::{demand_load, necessary_feasible};
use fedsched_core::fedcons::{fedcons, FedConsConfig};
use fedsched_dag::system::TaskSystem;
use fedsched_dag::time::{Duration, Time};
use fedsched_durable::{
    DurableStore, FsyncPolicy, StoreConfig, DEFAULT_SNAPSHOT_BYTES, DEFAULT_SNAPSHOT_RECORDS,
};
use fedsched_gen::system::SystemConfig;
use fedsched_gen::{DeadlineTightness, Span, Topology};
use fedsched_graham::list::PriorityPolicy;
use fedsched_policy::{
    policy_by_name_with, policy_names, AdmissionFailure, ScheduleOutcome, SchedulingPolicy,
};
use fedsched_sim::federated::{simulate_federated_watched, ClusterDispatch};
use fedsched_sim::model::{ArrivalModel, ExecutionModel, SimConfig};
use fedsched_sim::watchdog::WatchdogReport;
use fedsched_telemetry::chrome::ChromeTraceBuilder;
use serde::Serialize;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the message explains what was expected.
    Usage(String),
    /// I/O failure reading or writing a file.
    Io(std::io::Error),
    /// Malformed task-system JSON.
    Json(serde_json::Error),
    /// The system was analysed and is not schedulable.
    NotSchedulable(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Json(e) => write!(f, "invalid task-system json: {e}"),
            CliError::NotSchedulable(msg) => write!(f, "not schedulable: {msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

/// Options for `fedsched generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateOptions {
    /// Number of tasks.
    pub tasks: usize,
    /// Total utilization target.
    pub utilization: f64,
    /// Per-task utilization cap.
    pub max_task_utilization: f64,
    /// RNG seed.
    pub seed: u64,
    /// Topology keyword (`layered`, `gnp`, `fork-join`, `series-parallel`).
    pub topology: String,
    /// Generate implicit deadlines (`D = T`) instead of constrained.
    pub implicit: bool,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        GenerateOptions {
            tasks: 8,
            utilization: 3.0,
            max_task_utilization: 1.5,
            seed: 1,
            topology: "layered".to_owned(),
            implicit: false,
        }
    }
}

fn parse_topology(name: &str) -> Result<Topology, CliError> {
    match name {
        "layered" => Ok(Topology::Layered {
            layers: Span::new(2, 5),
            width: Span::new(1, 5),
            edge_probability: 0.3,
        }),
        "gnp" => Ok(Topology::ErdosRenyi {
            vertices: Span::new(5, 20),
            edge_probability: 0.2,
        }),
        "fork-join" => Ok(Topology::NestedForkJoin {
            depth: Span::new(1, 3),
            branching: Span::new(2, 3),
        }),
        "series-parallel" => Ok(Topology::SeriesParallel {
            operations: Span::new(3, 12),
        }),
        other => Err(CliError::Usage(format!(
            "unknown topology {other:?} (expected layered|gnp|fork-join|series-parallel)"
        ))),
    }
}

/// `fedsched generate`: produces a random task system as JSON.
///
/// # Errors
///
/// Usage error for an unknown topology or an infeasible utilization target.
pub fn generate(opts: &GenerateOptions) -> Result<String, CliError> {
    let tightness = if opts.implicit {
        DeadlineTightness::implicit()
    } else {
        DeadlineTightness::new(0.2, 1.0)
    };
    let system = SystemConfig::new(opts.tasks, opts.utilization)
        .with_max_task_utilization(opts.max_task_utilization)
        .with_topology(parse_topology(&opts.topology)?)
        .with_tightness(tightness)
        .generate_seeded(opts.seed)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "utilization {} is infeasible for {} tasks with per-task cap {}",
                opts.utilization, opts.tasks, opts.max_task_utilization
            ))
        })?;
    Ok(serde_json::to_string_pretty(&system)?)
}

/// Parses a task system from JSON text.
///
/// # Errors
///
/// JSON error on malformed input.
pub fn parse_system(json: &str) -> Result<TaskSystem, CliError> {
    Ok(serde_json::from_str(json)?)
}

/// `fedsched info`: per-task metrics and system aggregates.
///
/// # Errors
///
/// JSON error on malformed input.
pub fn info(json: &str) -> Result<String, CliError> {
    use core::fmt::Write as _;
    let system = parse_system(json)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>6} {:>8} {:>8} {:>10} {:>10} {:>12} {:>6} {:>6}",
        "task", "|V|", "|E|", "vol", "len", "D", "T", "density", "par", "width"
    );
    for (id, t) in system.iter() {
        let stats = t.dag().stats();
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>6} {:>8} {:>8} {:>10} {:>10} {:>12} {:>6.2} {:>6} {}",
            id.to_string(),
            stats.vertices,
            stats.edges,
            t.volume().to_string(),
            t.longest_chain_length().to_string(),
            t.deadline().to_string(),
            t.period().to_string(),
            t.density().to_string(),
            stats.parallelism,
            stats.peak_width,
            if t.is_high_density() { "HIGH" } else { "" },
        );
    }
    let _ = writeln!(out, "n = {}", system.len());
    let _ = writeln!(
        out,
        "U_sum = {} ({:.3})",
        system.total_utilization(),
        system.total_utilization().to_f64()
    );
    let _ = writeln!(out, "class = {}", system.deadline_class());
    let _ = writeln!(
        out,
        "load  = {:.3}",
        demand_load(&system, 1_000_000).to_f64()
    );
    let _ = writeln!(out, "chains feasible = {}", system.all_chains_feasible());
    Ok(out)
}

/// Options for `fedsched analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Processor count.
    pub processors: u32,
    /// Registry name of the analysis to run (`fedcons`,
    /// `fedcons-constraining`, `li-federated`, `gedf-li`, `gedf-density`).
    pub policy: String,
    /// LS priority policy for templates (FEDCONS-family policies only).
    pub priority: PriorityPolicy,
    /// Use the exact-EDF partition admission instead of `DBF*`.
    pub exact_partition: bool,
    /// Emit a machine-readable JSON report (verdict + analysis cost)
    /// instead of text. The report covers rejections too, so this mode
    /// always exits 0 on a completed analysis.
    pub json: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            processors: 8,
            policy: "fedcons".to_owned(),
            priority: PriorityPolicy::ListOrder,
            exact_partition: false,
            json: false,
        }
    }
}

fn fedcons_config(opts: &AnalyzeOptions) -> FedConsConfig {
    FedConsConfig {
        policy: opts.priority,
        partition: if opts.exact_partition {
            PartitionConfig::exact(fedsched_analysis::edf::DEFAULT_BUDGET)
        } else {
            PartitionConfig::approx()
        },
    }
}

fn lookup_policy(opts: &AnalyzeOptions) -> Result<Box<dyn SchedulingPolicy>, CliError> {
    policy_by_name_with(&opts.policy, fedcons_config(opts)).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown policy {:?} (expected {})",
            opts.policy,
            policy_names().join("|")
        ))
    })
}

/// `fedsched analyze --save`: runs the selected policy and returns the
/// admission artifact as JSON, suitable for shipping to a runtime. For
/// `fedcons`-family policies this is the bare
/// [`fedsched_core::fedcons::FederatedSchedule`] with every frozen
/// template (unchanged from earlier releases); other policies save their
/// [`ScheduleOutcome`].
///
/// # Errors
///
/// Same as [`analyze`].
pub fn analyze_to_json(json: &str, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let system = parse_system(json)?;
    let policy = lookup_policy(opts)?;
    let mut probe = AnalysisProbe::default();
    match policy.analyze(&system, opts.processors, &mut probe) {
        Ok(outcome) => match outcome.as_federated() {
            Some(schedule) => Ok(serde_json::to_string_pretty(schedule)?),
            None => Ok(serde_json::to_string_pretty(&outcome)?),
        },
        Err(e) => Err(CliError::NotSchedulable(e.to_string())),
    }
}

/// Parses a `--priority` keyword (the LS priority policy for templates).
///
/// # Errors
///
/// Usage error for unknown keywords.
pub fn parse_priority(name: &str) -> Result<PriorityPolicy, CliError> {
    match name {
        "list" => Ok(PriorityPolicy::ListOrder),
        "cpf" => Ok(PriorityPolicy::CriticalPathFirst),
        "lwf" => Ok(PriorityPolicy::LongestWcetFirst),
        other => Err(CliError::Usage(format!(
            "unknown priority {other:?} (expected list|cpf|lwf)"
        ))),
    }
}

/// The `analyze --json` report: verdict, configuration, and analysis cost.
#[derive(Debug, Serialize)]
struct AnalyzeReport {
    policy: String,
    processors: u32,
    schedulable: bool,
    outcome: Option<ScheduleOutcome>,
    failure: Option<AdmissionFailure>,
    probe: AnalysisProbe,
}

fn render_outcome(
    system: &TaskSystem,
    policy: &dyn SchedulingPolicy,
    processors: u32,
    outcome: &ScheduleOutcome,
) -> String {
    use core::fmt::Write as _;
    match outcome {
        ScheduleOutcome::Federated(schedule) => {
            let mut out = schedule.to_string();
            // Per-task worst-case response times on each shared processor:
            // the actual slack behind the yes/no verdict.
            for (slot, ids) in schedule.partition().iter() {
                if ids.is_empty() {
                    continue;
                }
                let views: Vec<SequentialView> = ids
                    .iter()
                    .map(|&id| SequentialView::of(system.task(id)))
                    .collect();
                if let Ok(bounds) = edf_response_times(&views, 5_000_000) {
                    for (k, &id) in ids.iter().enumerate() {
                        let d = views[k].deadline;
                        let r = bounds.of(k);
                        let _ = writeln!(
                            out,
                            "  wcrt P{}: {id} ≤ {r} (D = {d}, slack {})",
                            schedule.shared_first() + slot as u32,
                            d.saturating_sub(r)
                        );
                    }
                }
            }
            out
        }
        ScheduleOutcome::LiFederated(schedule) => {
            let mut out = format!(
                "LiFederatedSchedule: {} dedicated clusters ({} processors), \
                 {} shared processors\n",
                schedule.clusters.len(),
                schedule.clusters.iter().map(|c| c.processors).sum::<u32>(),
                schedule.shared.len(),
            );
            let mut first = 0u32;
            for c in &schedule.clusters {
                let _ = writeln!(
                    out,
                    "  cluster P{first}..P{}: {}",
                    first + c.processors - 1,
                    c.task
                );
                first += c.processors;
            }
            for (k, ids) in schedule.shared.iter().enumerate() {
                let names: Vec<String> = ids.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "  shared P{}: {}", first + k as u32, names.join(" "));
            }
            out
        }
        ScheduleOutcome::Verdict => format!(
            "schedulable: {} accepts the system on {processors} processors \
             (verdict only, no static configuration)\n",
            policy.name()
        ),
    }
}

/// `fedsched analyze`: runs the selected policy and describes the outcome.
///
/// # Errors
///
/// JSON errors, plus [`CliError::NotSchedulable`] when the policy declines
/// (so shells can branch on the exit code) — except under
/// [`AnalyzeOptions::json`], where rejections are part of the report.
pub fn analyze(json: &str, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let system = parse_system(json)?;
    let policy = lookup_policy(opts)?;
    let mut probe = AnalysisProbe::default();
    let result = policy.analyze(&system, opts.processors, &mut probe);
    if opts.json {
        let report = AnalyzeReport {
            policy: policy.name().to_owned(),
            processors: opts.processors,
            schedulable: result.is_ok(),
            outcome: result.as_ref().ok().cloned(),
            failure: result.as_ref().err().cloned(),
            probe,
        };
        return Ok(serde_json::to_string_pretty(&report)?);
    }
    match result {
        Ok(outcome) => {
            use core::fmt::Write as _;
            let mut out = render_outcome(&system, policy.as_ref(), opts.processors, &outcome);
            if !necessary_feasible(&system, opts.processors) {
                out.push_str("warning: necessary conditions flag an inconsistency\n");
            }
            let _ = writeln!(out, "analysis cost: {probe}");
            Ok(out)
        }
        Err(e) => Err(CliError::NotSchedulable(e.to_string())),
    }
}

/// Options for `fedsched simulate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulateOptions {
    /// Processor count.
    pub processors: u32,
    /// LS priority policy for cluster templates (must match what
    /// `analyze` used for the layouts to coincide).
    pub policy: PriorityPolicy,
    /// Simulation horizon in ticks.
    pub horizon: u64,
    /// Extra sporadic inter-arrival slack as a fraction of the period
    /// (0 = strictly periodic).
    pub sporadic_slack: f64,
    /// Minimum execution-time fraction (1 = always WCET).
    pub exec_min_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// If nonzero, render the first `trace_window` ticks as a Gantt chart.
    pub trace_window: u64,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            processors: 8,
            policy: PriorityPolicy::ListOrder,
            horizon: 100_000,
            sporadic_slack: 0.0,
            exec_min_fraction: 1.0,
            seed: 1,
            trace_window: 0,
        }
    }
}

/// Shared single-run core of the `simulate` and `trace` subcommands:
/// admit, replay, and return the report, the full execution trace, and
/// the anomaly watchdog's counters.
fn run_federated_simulation(
    json: &str,
    opts: SimulateOptions,
) -> Result<
    (
        fedsched_core::fedcons::FederatedSchedule,
        fedsched_sim::model::SimReport,
        fedsched_sim::trace::ExecutionTrace,
        WatchdogReport,
    ),
    CliError,
> {
    if !(0.0..=10.0).contains(&opts.sporadic_slack) {
        return Err(CliError::Usage("sporadic slack must be in [0, 10]".into()));
    }
    if !(0.0 < opts.exec_min_fraction && opts.exec_min_fraction <= 1.0) {
        return Err(CliError::Usage(
            "execution fraction must be in (0, 1]".into(),
        ));
    }
    let system = parse_system(json)?;
    let fed_config = FedConsConfig {
        policy: opts.policy,
        ..FedConsConfig::default()
    };
    let schedule = fedcons(&system, opts.processors, fed_config)
        .map_err(|e| CliError::NotSchedulable(e.to_string()))?;
    let config = SimConfig {
        horizon: Duration::new(opts.horizon),
        arrivals: if opts.sporadic_slack > 0.0 {
            ArrivalModel::SporadicUniformSlack {
                max_extra_fraction: opts.sporadic_slack,
            }
        } else {
            ArrivalModel::Periodic
        },
        execution: if opts.exec_min_fraction < 1.0 {
            ExecutionModel::UniformFraction {
                min_fraction: opts.exec_min_fraction,
            }
        } else {
            ExecutionModel::Wcet
        },
        seed: opts.seed,
    };
    let (report, trace, watchdog) = simulate_federated_watched(
        &system,
        &schedule,
        config,
        ClusterDispatch::Template,
        opts.policy,
    );
    Ok((schedule, report, trace, watchdog))
}

fn render_simulation_text(
    schedule: &fedsched_core::fedcons::FederatedSchedule,
    report: &fedsched_sim::model::SimReport,
    trace: &fedsched_sim::trace::ExecutionTrace,
    trace_window: u64,
) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{schedule}");
    let _ = writeln!(out, "{report}");
    for miss in &report.misses {
        let _ = writeln!(out, "  MISS {miss}");
    }
    if trace_window > 0 {
        let _ = writeln!(
            out,
            "{}",
            trace.to_gantt(Time::ZERO, Time::new(trace_window))
        );
    }
    out
}

/// `fedsched simulate`: admits with FEDCONS and replays in the simulator.
///
/// # Errors
///
/// JSON errors, [`CliError::NotSchedulable`] if admission fails, and
/// usage errors for out-of-range fractions.
pub fn simulate(json: &str, opts: SimulateOptions) -> Result<String, CliError> {
    let (schedule, report, trace, _) = run_federated_simulation(json, opts)?;
    Ok(render_simulation_text(
        &schedule,
        &report,
        &trace,
        opts.trace_window,
    ))
}

/// `fedsched simulate --svg`: one simulation run returning both the text
/// report and an SVG Gantt chart of the first `window` ticks.
///
/// # Errors
///
/// Same as [`simulate`]; additionally a usage error if `window` is zero.
pub fn simulate_with_svg(
    json: &str,
    opts: SimulateOptions,
    window: u64,
) -> Result<(String, String), CliError> {
    if window == 0 {
        return Err(CliError::Usage("svg window must be positive".into()));
    }
    let (schedule, report, trace, _) = run_federated_simulation(json, opts)?;
    let text = render_simulation_text(&schedule, &report, &trace, opts.trace_window);
    let svg = trace.to_svg(Time::ZERO, Time::new(window));
    Ok((text, svg))
}

/// Output dialect of the `trace` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome / Perfetto `trace_events` JSON (load in `chrome://tracing`).
    Chrome,
    /// ASCII Gantt chart of the first `window` ticks.
    Gantt,
    /// One CSV row per execution slice.
    Csv,
}

/// Parses a `--format` keyword for the `trace` subcommand.
///
/// # Errors
///
/// Usage error for unknown keywords.
pub fn parse_trace_format(name: &str) -> Result<TraceFormat, CliError> {
    match name {
        "chrome" => Ok(TraceFormat::Chrome),
        "gantt" => Ok(TraceFormat::Gantt),
        "csv" => Ok(TraceFormat::Csv),
        other => Err(CliError::Usage(format!(
            "unknown trace format {other:?} (expected chrome|gantt|csv)"
        ))),
    }
}

/// `fedsched trace`: admits with FEDCONS, replays one watched simulation
/// run, and exports the execution trace in the requested dialect.
///
/// Chrome output also carries the anomaly watchdog's nonzero counters as
/// instant events at the end of the horizon; Gantt output appends one
/// `watchdog:` summary line; CSV is pure slice data.
///
/// # Errors
///
/// Same as [`simulate`], plus a usage error if `window` is zero for the
/// Gantt format.
pub fn trace_export(
    json: &str,
    opts: SimulateOptions,
    format: TraceFormat,
    window: u64,
) -> Result<String, CliError> {
    use core::fmt::Write as _;
    let (_, report, trace, watchdog) = run_federated_simulation(json, opts)?;
    match format {
        TraceFormat::Chrome => {
            let mut builder = ChromeTraceBuilder::new();
            builder.push_execution_trace(&trace);
            builder.push_watchdog(&watchdog, opts.horizon);
            let mut out = builder.to_json();
            out.push('\n');
            Ok(out)
        }
        TraceFormat::Gantt => {
            if window == 0 {
                return Err(CliError::Usage(
                    "gantt output needs --window <ticks>".into(),
                ));
            }
            let mut out = trace.to_gantt(Time::ZERO, Time::new(window));
            let _ = writeln!(out, "{report}");
            let _ = writeln!(out, "watchdog: {watchdog}");
            Ok(out)
        }
        TraceFormat::Csv => {
            let mut out = String::from("processor,task,vertex,start,end\n");
            for s in trace.segments() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    s.processor,
                    s.task.index(),
                    s.vertex.map(|v| v.to_string()).unwrap_or_default(),
                    s.start.ticks(),
                    s.end.ticks()
                );
            }
            Ok(out)
        }
    }
}

/// `fedsched import-stg`: converts a Standard Task Graph document into a
/// single-task system JSON with the given deadline and period.
///
/// # Errors
///
/// Usage error for malformed STG input or invalid task parameters.
pub fn import_stg(stg: &str, deadline: u64, period: u64) -> Result<String, CliError> {
    let dag = fedsched_dag::stg::parse_stg(stg)
        .map_err(|e| CliError::Usage(format!("invalid STG document: {e}")))?;
    let task =
        fedsched_dag::task::DagTask::new(dag, Duration::new(deadline), Duration::new(period))
            .map_err(|e| CliError::Usage(format!("invalid task parameters: {e}")))?;
    let system: TaskSystem = [task].into_iter().collect();
    Ok(serde_json::to_string_pretty(&system)?)
}

/// `fedsched dot`: Graphviz rendering of one task's DAG (or all of them).
///
/// # Errors
///
/// JSON errors, and a usage error for an out-of-range task index.
pub fn dot(json: &str, task: Option<usize>) -> Result<String, CliError> {
    let system = parse_system(json)?;
    match task {
        Some(i) => {
            let t = system.tasks().get(i).ok_or_else(|| {
                CliError::Usage(format!(
                    "task index {i} out of range (system has {} tasks)",
                    system.len()
                ))
            })?;
            Ok(t.dag().to_dot(&format!("task{i}")))
        }
        None => Ok(system
            .iter()
            .map(|(id, t)| t.dag().to_dot(&format!("task{}", id.index())))
            .collect::<Vec<_>>()
            .join("\n")),
    }
}

/// Options for `fedsched serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Platform size `m`.
    pub processors: u32,
    /// LS priority policy for cluster templates.
    pub policy: PriorityPolicy,
    /// Use the exact-EDF partition admission instead of `DBF*`.
    pub exact_partition: bool,
    /// Bind address (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    pub addr: String,
    /// Acceptor-thread count; the dispatch pool answering requests runs
    /// as many threads.
    pub workers: usize,
    /// Capacity bound of the `MINPROCS` template cache (`0` = unbounded).
    /// Part of the durable configuration identity: `recover`/`compact`
    /// must pass the same cap the serving process used.
    pub template_cache_cap: usize,
    /// Telemetry ring-buffer capacity in events (0 disables the event
    /// stream; metrics and latency quantiles are always collected).
    pub telemetry_events: usize,
    /// Per-connection hardening: IO deadlines, frame cap, connection cap,
    /// and request budget.
    pub limits: fedsched_service::ConnectionLimits,
    /// Durability directory: when set, every admission decision is
    /// journaled there and the server recovers its state from the
    /// directory on boot. `None` keeps the server purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// When to fsync the write-ahead log (`every`, `interval:<ms>`, or
    /// `never`); only meaningful with `data_dir`.
    pub fsync: FsyncPolicy,
    /// Install a snapshot after this many WAL records (with `data_dir`).
    pub snapshot_records: u64,
    /// Install a snapshot after this many WAL bytes (with `data_dir`).
    pub snapshot_bytes: u64,
    /// Blue/green warm start: import the template-cache section of the
    /// newest loadable snapshot in this (other server's) data directory.
    /// Placements, tokens, and counters are *not* taken over.
    pub handoff_from: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            processors: 8,
            policy: PriorityPolicy::ListOrder,
            exact_partition: false,
            addr: "127.0.0.1:7878".to_owned(),
            workers: 4,
            template_cache_cap: 0,
            telemetry_events: 4096,
            limits: fedsched_service::ConnectionLimits::default(),
            data_dir: None,
            fsync: FsyncPolicy::Every,
            snapshot_records: DEFAULT_SNAPSHOT_RECORDS,
            snapshot_bytes: DEFAULT_SNAPSHOT_BYTES,
            handoff_from: None,
        }
    }
}

/// `fedsched serve`: binds the admission server and returns its handle, so
/// the binary can print the bound address before blocking in `join` and
/// tests can drive the exact production wiring in-process.
///
/// # Errors
///
/// I/O errors binding the address.
pub fn start_server(opts: &ServeOptions) -> Result<fedsched_service::ServerHandle, CliError> {
    let config = fedsched_service::ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        admission: admission_config(opts),
        limits: opts.limits,
        durability: opts.data_dir.as_ref().map(|dir| store_config(opts, dir)),
        handoff_from: opts.handoff_from.clone(),
    };
    Ok(fedsched_service::serve(&config)?)
}

/// The [`fedsched_service::AdmissionConfig`] a `serve`, `compact`, or
/// `recover` invocation describes. `compact`/`recover` must pass the same
/// `-m`/`--policy`/`--exact-partition` the serving process used: recovery
/// refuses to reinterpret a log under a different configuration.
fn admission_config(opts: &ServeOptions) -> fedsched_service::AdmissionConfig {
    fedsched_service::AdmissionConfig {
        processors: opts.processors,
        fedcons: FedConsConfig {
            policy: opts.policy,
            partition: if opts.exact_partition {
                PartitionConfig::exact(fedsched_analysis::edf::DEFAULT_BUDGET)
            } else {
                PartitionConfig::approx()
            },
        },
        telemetry_events: opts.telemetry_events,
        template_cache_cap: opts.template_cache_cap,
    }
}

fn store_config(opts: &ServeOptions, dir: &std::path::Path) -> StoreConfig {
    let mut config = StoreConfig::new(dir);
    config.fsync = opts.fsync;
    config.snapshot_every_records = opts.snapshot_records;
    config.snapshot_every_bytes = opts.snapshot_bytes;
    config
}

/// The directory a `compact`/`recover` invocation operates on, or a usage
/// error naming the subcommand when `--data-dir` was omitted.
fn require_data_dir<'a>(opts: &'a ServeOptions, command: &str) -> Result<&'a PathBuf, CliError> {
    opts.data_dir
        .as_ref()
        .ok_or_else(|| CliError::Usage(format!("{command} requires --data-dir <dir>")))
}

fn open_recovered(
    opts: &ServeOptions,
    dir: &std::path::Path,
) -> Result<
    (
        DurableStore,
        fedsched_durable::RecoveredLog,
        fedsched_service::AdmissionState,
        fedsched_service::ReplayReport,
    ),
    CliError,
> {
    let (store, recovered) = DurableStore::open(store_config(opts, dir))?;
    let (state, report) = fedsched_service::recover_state(admission_config(opts), &recovered)
        .map_err(|e| {
            CliError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("cannot recover {}: {e}", dir.display()),
            ))
        })?;
    Ok((store, recovered, state, report))
}

/// `fedsched recover`: opens a durability directory, rebuilds the
/// admission state exactly as `serve --data-dir` would on boot, and
/// reports what was recovered — without binding a socket. Use it to
/// sanity-check a data directory after a crash or before a migration.
///
/// # Errors
///
/// Usage error without `--data-dir`; I/O errors opening the store; an
/// `InvalidData` I/O error when the log does not replay cleanly under the
/// given configuration.
pub fn recover_store(opts: &ServeOptions) -> Result<String, CliError> {
    let dir = require_data_dir(opts, "recover")?.clone();
    let (store, recovered, state, report) = open_recovered(opts, &dir)?;
    let snapshot = state.snapshot();
    let mut out = String::new();
    use fmt::Write as _;
    let _ = writeln!(out, "recovered {}", dir.display());
    let _ = writeln!(
        out,
        "  wal: {} records in {} bytes ({} truncated{})",
        recovered.wal_report.records_recovered,
        store.wal_len(),
        recovered.wal_report.truncated_bytes,
        if recovered.wal_report.tail_was_corrupt {
            ", corrupt tail"
        } else {
            ""
        },
    );
    match report.snapshot_seq {
        Some(seq) => {
            let _ = writeln!(
                out,
                "  snapshot: seq {seq} + {} replayed records ({} stale snapshot(s) skipped)",
                report.replayed_records, report.snapshots_skipped
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  snapshot: none, {} records replayed from genesis",
                report.replayed_records
            );
        }
    }
    let _ = writeln!(out, "  replay: {:.3} ms", report.replay_nanos as f64 / 1e6);
    let _ = writeln!(
        out,
        "  state: {} resident task(s), {} dedicated + {} shared processor(s) in use",
        state.resident_tasks(),
        state.dedicated_processors(),
        state.shared_processors(),
    );
    let _ = writeln!(
        out,
        "  stats: {} admitted, {} rejected, {} removed, cache {} hit(s) / {} miss(es)",
        snapshot.admitted_high + snapshot.admitted_low,
        snapshot.rejected_high + snapshot.rejected_low,
        snapshot.removed,
        snapshot.cache_hits,
        snapshot.cache_misses,
    );
    Ok(out)
}

/// `fedsched compact`: recovers the admission state from a durability
/// directory, writes one fresh snapshot of it, and truncates the
/// write-ahead log. Run it offline (the admission server must not be
/// serving from the same directory) to bound restart time after long
/// uptimes.
///
/// # Errors
///
/// As [`recover_store`], plus I/O errors writing the snapshot.
pub fn compact_store(opts: &ServeOptions) -> Result<String, CliError> {
    let dir = require_data_dir(opts, "compact")?.clone();
    let (mut store, _recovered, state, report) = open_recovered(opts, &dir)?;
    let compacted = store.compact(&state.export())?;
    let mut out = String::new();
    use fmt::Write as _;
    let _ = writeln!(
        out,
        "compacted {} ({} resident task(s), {} replayed record(s))",
        dir.display(),
        state.resident_tasks(),
        report.replayed_records
    );
    let _ = writeln!(
        out,
        "  snapshot: seq {} in {} bytes",
        compacted.snapshot_seq, compacted.snapshot_bytes
    );
    let _ = writeln!(
        out,
        "  wal: {} -> {} bytes, {} old file(s) removed",
        compacted.wal_bytes_before, compacted.wal_bytes_after, compacted.files_removed
    );
    Ok(out)
}

/// The multi-line effective-configuration banner `fedsched serve` logs at
/// startup: every knob after flag/default/environment resolution, so an
/// operator can read back exactly what the server is running with.
pub fn serve_banner(opts: &ServeOptions, handle: &fedsched_service::ServerHandle) -> String {
    let mut out = String::new();
    use fmt::Write as _;
    let _ = writeln!(
        out,
        "fedsched admission server on {} (m = {}, policy = {:?}, partition = {})",
        handle.local_addr(),
        opts.processors,
        opts.policy,
        if opts.exact_partition {
            "exact-edf"
        } else {
            "dbf-approx"
        },
    );
    let _ = writeln!(
        out,
        "  transport: {} worker(s), telemetry ring {} event(s), io-timeout {}, \
         idle-strikes {}, max-conns {}, max-frame-bytes {}, max-requests {}",
        opts.workers.max(1),
        opts.telemetry_events,
        match opts.limits.io_timeout {
            Some(t) => format!("{} ms", t.as_millis()),
            None => "off".to_owned(),
        },
        opts.limits.idle_strikes,
        opts.limits.max_connections,
        opts.limits.max_frame_bytes,
        opts.limits.max_requests_per_connection,
    );
    let _ = writeln!(
        out,
        "  admission plane: one reactor sharing {} connection permit(s), template-cache cap {}",
        opts.limits.max_connections.max(1),
        if opts.template_cache_cap == 0 {
            "unbounded".to_owned()
        } else {
            format!("{} entr(ies)", opts.template_cache_cap)
        },
    );
    let _ = writeln!(
        out,
        "  slow-request log: {}",
        match opts.limits.slow_request {
            Some(t) => format!("over {} ms of processing time", t.as_millis()),
            None => "off".to_owned(),
        },
    );
    match &opts.data_dir {
        None => {
            let _ = writeln!(out, "  durability: off (in-memory only)");
        }
        Some(dir) => {
            let _ = writeln!(
                out,
                "  durability: {} (fsync {}, snapshot every {} records / {} bytes)",
                dir.display(),
                opts.fsync,
                opts.snapshot_records,
                opts.snapshot_bytes,
            );
            if let Some(boot) = handle.boot_report() {
                let _ = writeln!(
                    out,
                    "  recovered: {} replayed record(s){} in {:.3} ms{}",
                    boot.replayed_records,
                    match boot.snapshot_seq {
                        Some(seq) => format!(" after snapshot seq {seq}"),
                        None => String::new(),
                    },
                    boot.replay_nanos as f64 / 1e6,
                    if boot.truncated_bytes > 0 {
                        format!(" ({} torn byte(s) truncated)", boot.truncated_bytes)
                    } else {
                        String::new()
                    },
                );
            }
        }
    }
    if let (Some(dir), Some(absorbed)) = (&opts.handoff_from, handle.handoff_absorbed()) {
        let _ = writeln!(
            out,
            "  handoff: {} template-cache entr{} imported from {}",
            absorbed,
            if absorbed == 1 { "y" } else { "ies" },
            dir.display(),
        );
    }
    out
}

/// Options for `fedsched loadgen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// Target server (`None` spawns a throwaway in-process server — the
    /// CI mode, no external orchestration needed).
    pub addr: Option<String>,
    /// Platform size for the spawned server (ignored with `addr`).
    pub processors: u32,
    /// CI shape (seconds of wall clock) instead of the benchmark shape.
    pub quick: bool,
    /// Where the machine-readable report is written.
    pub out: String,
    /// Override the preset's connection count.
    pub connections: Option<usize>,
    /// Override the preset's first offered rate (requests/second).
    pub rate: Option<f64>,
    /// Override the preset's between-rung growth factor.
    pub growth: Option<f64>,
    /// Override the preset's rung cap.
    pub steps: Option<usize>,
    /// Override the preset's per-rung warmup (milliseconds).
    pub warmup_ms: Option<u64>,
    /// Override the preset's per-rung measured window (milliseconds).
    pub measure_ms: Option<u64>,
    /// Arrival process (`poisson` or `fixed`).
    pub process: Option<String>,
    /// Arrival-timeline seed.
    pub seed: Option<u64>,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            addr: None,
            processors: 8,
            quick: false,
            out: "BENCH_service.json".to_owned(),
            connections: None,
            rate: None,
            growth: None,
            steps: None,
            warmup_ms: None,
            measure_ms: None,
            process: None,
            seed: None,
        }
    }
}

/// `fedsched loadgen`: open-loop latency sweep against an admission
/// server — a running one (`--addr`) or a spawned in-process one —
/// writing the `BENCH_service.json` report next to the human summary.
///
/// # Errors
///
/// Usage errors for bad overrides; I/O errors spawning the server or
/// writing the report.
pub fn loadgen(opts: &LoadgenOptions) -> Result<String, CliError> {
    let mut config = if opts.quick {
        fedsched_loadgen::SweepConfig::quick()
    } else {
        fedsched_loadgen::SweepConfig::full()
    };
    if let Some(n) = opts.connections {
        config.load.connections = n.max(1);
    }
    if let Some(r) = opts.rate {
        if r <= 0.0 {
            return Err(CliError::Usage("--rate must be positive".into()));
        }
        config.start_rps = r;
    }
    if let Some(g) = opts.growth {
        if g <= 1.0 {
            return Err(CliError::Usage("--growth must be above 1.0".into()));
        }
        config.growth = g;
    }
    if let Some(n) = opts.steps {
        config.max_steps = n.max(1);
    }
    if let Some(ms) = opts.warmup_ms {
        config.load.warmup = core::time::Duration::from_millis(ms);
    }
    if let Some(ms) = opts.measure_ms {
        if ms == 0 {
            return Err(CliError::Usage("--duration-ms must be positive".into()));
        }
        config.load.measure = core::time::Duration::from_millis(ms);
    }
    if let Some(p) = &opts.process {
        config.load.process =
            fedsched_loadgen::ArrivalProcess::parse(p).map_err(CliError::Usage)?;
    }
    if let Some(s) = opts.seed {
        config.load.seed = s;
    }

    let mut scaling = if opts.quick {
        fedsched_loadgen::ScalingConfig::quick()
    } else {
        fedsched_loadgen::ScalingConfig::full()
    };
    scaling.load.warmup = config.load.warmup;
    scaling.load.measure = config.load.measure;
    scaling.load.process = config.load.process;
    scaling.load.seed = config.load.seed;
    if let Some(n) = opts.connections {
        // An explicit --connections caps the ladder too: the operator is
        // sizing the plane, so the ladder tops out exactly there.
        scaling.ladder.retain(|&c| c < n.max(1));
        scaling.ladder.push(n.max(1));
    }

    // Spawn mode binds an ephemeral port; the sweep is the only client.
    // The spawned server's connection cap clears the widest rung asked
    // of it, so the scaling ladder measures the plane, not the gate.
    let spawned = match &opts.addr {
        Some(_) => None,
        None => {
            let mut serve_opts = ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                processors: opts.processors,
                ..ServeOptions::default()
            };
            let widest = scaling
                .ladder
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .max(config.load.connections);
            serve_opts.limits.max_connections = serve_opts.limits.max_connections.max(widest + 8);
            Some(start_server(&serve_opts)?)
        }
    };
    let addr = match (&opts.addr, &spawned) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.local_addr().to_string(),
        (None, None) => unreachable!("spawned when no addr was given"),
    };

    let mut report = fedsched_loadgen::run_sweep(&addr, &config, opts.quick);
    report.connection_scaling = Some(fedsched_loadgen::run_connection_scaling(&addr, &scaling));

    if let Some(handle) = spawned {
        let mut client = fedsched_service::Client::connect(handle.local_addr())?;
        client.shutdown()?;
        handle.join();
    }

    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| CliError::Usage(format!("report serialization failed: {e}")))?;
    std::fs::write(&opts.out, json)?;
    let mut out = fedsched_loadgen::render_report(&report);
    use fmt::Write as _;
    let _ = writeln!(out, "wrote {}", opts.out);
    Ok(out)
}

/// One `fedsched client` action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Admit every task of a system JSON (reporting one line per task).
    Admit {
        /// The system JSON text.
        json: String,
        /// Restrict to one task index of the system.
        task: Option<usize>,
        /// Correlation trace id stamped on each request (echoed in the
        /// response and on every analysis span server-side). Multi-task
        /// admissions get consecutive ids starting here.
        trace: Option<u64>,
    },
    /// Remove an admitted task by token.
    Remove {
        /// The token to remove.
        token: u64,
    },
    /// Query an admitted task's placement by token.
    Query {
        /// The token to query.
        token: u64,
    },
    /// Fetch server counters.
    Stats,
    /// Fetch server counters in Prometheus text exposition format.
    StatsPrometheus,
    /// Stop the server.
    Shutdown,
}

fn render_placement(placement: &fedsched_service::Placement) -> String {
    match placement {
        fedsched_service::Placement::Dedicated {
            first_processor,
            processors,
        } => format!(
            "dedicated cluster P{first_processor}..P{}",
            first_processor + processors - 1
        ),
        fedsched_service::Placement::Shared { processor } => {
            format!("shared processor P{processor}")
        }
    }
}

fn render_timing(timing: fedsched_service::RequestTiming) -> String {
    format!(
        " (server: read {}µs, parse {}µs, cache {}µs, analysis {}µs, wal {}µs)",
        timing.read_us, timing.parse_us, timing.cache_us, timing.analysis_us, timing.wal_us
    )
}

fn render_response(response: &fedsched_service::Response) -> String {
    use fedsched_service::Response;
    match response {
        Response::Admitted {
            token,
            placement,
            cache_hit,
            trace_id,
            timing,
        } => format!(
            "admitted token={token} on {}{}{}{}",
            render_placement(placement),
            if *cache_hit { " (cached sizing)" } else { "" },
            trace_id
                .map(|t| format!(" [trace:{t}]"))
                .unwrap_or_default(),
            timing.map(render_timing).unwrap_or_default()
        ),
        Response::Rejected {
            reason,
            trace_id,
            timing,
        } => format!(
            "rejected: {reason}{}{}",
            trace_id
                .map(|t| format!(" [trace:{t}]"))
                .unwrap_or_default(),
            timing.map(render_timing).unwrap_or_default()
        ),
        Response::Removed { token, migrated } => {
            format!("removed token={token} ({migrated} tasks migrated)")
        }
        Response::TaskInfo { token, placement } => {
            format!("token={token} on {}", render_placement(placement))
        }
        Response::NotFound { token } => format!("token={token} not found"),
        Response::Stats { snapshot } => {
            let quantile = |q: Option<u64>| match q {
                Some(v) => format!("≤{v}µs"),
                None => "n/a".to_owned(),
            };
            format!(
                "platform: {} processors ({} dedicated, {} shared), {} resident tasks\n\
                 admitted: {} high / {} low; rejected: {} high / {} low\n\
                 removed: {} ({} replay anomalies)\n\
                 template cache: {} hits / {} misses ({} shapes)\n\
                 admit decisions sampled: {} (p50 {}, p90 {}, p99 {})\n\
                 analysis cost: {}",
                snapshot.processors,
                snapshot.dedicated_processors,
                snapshot.shared_processors,
                snapshot.resident_tasks,
                snapshot.admitted_high,
                snapshot.admitted_low,
                snapshot.rejected_high,
                snapshot.rejected_low,
                snapshot.removed,
                snapshot.remove_anomalies,
                snapshot.cache_hits,
                snapshot.cache_misses,
                snapshot.cache_entries,
                snapshot.latency_buckets_us.iter().sum::<u64>(),
                quantile(snapshot.latency_p50_us),
                quantile(snapshot.latency_p90_us),
                quantile(snapshot.latency_p99_us),
                snapshot.probe,
            )
        }
        Response::Metrics { text } => text.clone(),
        Response::ShuttingDown => "server shutting down".to_owned(),
        Response::Busy { retry_after_ms } => {
            format!("server busy (retry after {retry_after_ms} ms)")
        }
        Response::Error { message } => format!("server error: {message}"),
    }
}

/// `fedsched client`: performs one action against a running server and
/// renders the response(s) as text, under the default client deadlines.
///
/// # Errors
///
/// Connection and protocol I/O errors, plus JSON errors for `Admit` input.
pub fn client_command(addr: &str, action: &ClientAction) -> Result<String, CliError> {
    client_command_with(addr, action, None)
}

/// [`client_command`] with an explicit call deadline: `timeout_ms` becomes
/// both the connect and per-call IO deadline (`Some(0)` disables deadlines
/// entirely; `None` keeps the [`fedsched_service::ClientConfig`] defaults).
///
/// # Errors
///
/// Connection and protocol I/O errors — including `WouldBlock`/`TimedOut`
/// when a stalled server outlasts the deadline — plus JSON errors for
/// `Admit` input.
pub fn client_command_with(
    addr: &str,
    action: &ClientAction,
    timeout_ms: Option<u64>,
) -> Result<String, CliError> {
    use core::fmt::Write as _;
    // Validate admit input before dialing the server.
    let admit_tasks: Option<Vec<fedsched_dag::task::DagTask>> = match action {
        ClientAction::Admit { json, task, .. } => {
            let system = parse_system(json)?;
            Some(match task {
                Some(i) => vec![system
                    .tasks()
                    .get(*i)
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "task index {i} out of range (system has {} tasks)",
                            system.len()
                        ))
                    })?
                    .clone()],
                None => system.tasks().to_vec(),
            })
        }
        _ => None,
    };
    let mut config = fedsched_service::ClientConfig::default();
    match timeout_ms {
        Some(0) => {
            config.connect_timeout = None;
            config.io_timeout = None;
        }
        Some(ms) => {
            let deadline = core::time::Duration::from_millis(ms);
            config.connect_timeout = Some(deadline);
            config.io_timeout = Some(deadline);
        }
        None => {}
    }
    let mut client = fedsched_service::Client::connect_with(addr, config)?;
    let mut out = String::new();
    match action {
        ClientAction::Admit { trace, .. } => {
            for (k, t) in admit_tasks.unwrap_or_default().iter().enumerate() {
                let response = match trace {
                    Some(base) => client.admit_traced(t, base + k as u64)?,
                    None => client.admit(t)?,
                };
                let _ = writeln!(out, "{}", render_response(&response));
            }
        }
        ClientAction::Remove { token } => {
            let _ = writeln!(out, "{}", render_response(&client.remove(*token)?));
        }
        ClientAction::Query { token } => {
            let _ = writeln!(out, "{}", render_response(&client.query(*token)?));
        }
        ClientAction::Stats => {
            let _ = writeln!(out, "{}", render_response(&client.stats()?));
        }
        ClientAction::StatsPrometheus => {
            // Exposition text already ends in a newline; print verbatim.
            out.push_str(&render_response(&client.stats_prometheus()?));
        }
        ClientAction::Shutdown => {
            let _ = writeln!(out, "{}", render_response(&client.shutdown()?));
        }
    }
    Ok(out)
}

/// The usage string shown by `fedsched --help` and on bad invocations.
pub const USAGE: &str = "\
fedsched — federated scheduling of constrained-deadline sporadic DAG tasks

USAGE:
  fedsched generate [--tasks N] [--utilization U] [--max-task-u U]
                    [--seed S] [--topology layered|gnp|fork-join|series-parallel]
                    [--implicit]                       # JSON system to stdout
  fedsched info     <system.json>                      # per-task metrics
  fedsched analyze  <system.json> -m M
                    [--policy fedcons|fedcons-constraining|li-federated|gedf-li|gedf-density]
                    [--priority list|cpf|lwf] [--exact-partition]
                    [--json] [--save schedule.json]
  fedsched simulate <system.json> -m M [--policy list|cpf|lwf] [--horizon H]
                    [--sporadic F] [--exec-min F] [--seed S] [--trace N]
                    [--svg out.svg]
  fedsched trace    <system.json> -m M --format chrome|gantt|csv
                    [--policy list|cpf|lwf] [--horizon H] [--sporadic F]
                    [--exec-min F] [--seed S] [--window N] [--out FILE]
                    # watched run: chrome://tracing JSON, ASCII Gantt, or CSV
  fedsched import-stg <graph.stg> --deadline D --period T   # STG -> system JSON
  fedsched dot      <system.json> [--task K]           # Graphviz to stdout
  fedsched serve    -m M [--policy list|cpf|lwf] [--exact-partition]
                    [--addr HOST:PORT] [--workers N]
                    [--template-cache-cap N] [--telemetry N]
                    [--io-timeout-ms MS] [--idle-strikes N] [--max-conns N]
                    [--max-frame-bytes N] [--max-requests N] [--slow-ms MS]
                    [--data-dir DIR] [--fsync every|interval:MS|never]
                    [--snapshot-records N] [--snapshot-bytes N]
                    [--handoff-from DIR]
                    # admission server; GET /metrics on the same port;
                    # one epoll loop multiplexes every connection;
                    # --workers N sets the acceptor and dispatch threads;
                    # --template-cache-cap bounds the MINPROCS cache
                    # (0 = unbounded) and is part of the durable config;
                    # --io-timeout-ms 0 disables connection deadlines;
                    # --slow-ms logs one line per request whose server-side
                    # processing exceeds MS (0 disables);
                    # --data-dir journals decisions and recovers on boot;
                    # --handoff-from warm-starts the template cache from
                    # another server's snapshot (blue/green restarts)
  fedsched loadgen  [--addr HOST:PORT | -m M] [--quick] [--out FILE]
                    [--connections N] [--rate RPS] [--growth F] [--steps N]
                    [--warmup-ms MS] [--duration-ms MS]
                    [--process poisson|fixed] [--seed S]
                    # open-loop latency sweep (coordinated-omission-safe):
                    # finds the max sustainable request rate and writes
                    # BENCH_service.json; without --addr it spawns an
                    # in-process server on an ephemeral port
  fedsched recover  -m M --data-dir DIR [--policy list|cpf|lwf]
                    [--exact-partition] [--template-cache-cap N]
                    # replay a journal, report state
  fedsched compact  -m M --data-dir DIR [--policy list|cpf|lwf]
                    [--exact-partition] [--template-cache-cap N]
                    # fold the journal into a snapshot
  fedsched client   admit <system.json> [--task K] [--trace-id T]
                    [--addr HOST:PORT] [--timeout-ms MS]
  fedsched client   remove|query --token T [--addr HOST:PORT] [--timeout-ms MS]
  fedsched client   stats [--format prometheus] [--addr HOST:PORT] [--timeout-ms MS]
  fedsched client   shutdown [--addr HOST:PORT] [--timeout-ms MS]

Exit codes: 0 ok, 1 usage/io error, 2 not schedulable
(`analyze --json` reports rejections in the JSON and exits 0).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        generate(&GenerateOptions::default()).expect("default generation succeeds")
    }

    #[test]
    fn generate_roundtrips_through_parse() {
        let json = sample_json();
        let system = parse_system(&json).unwrap();
        assert_eq!(system.len(), 8);
        assert!(system.all_chains_feasible());
    }

    #[test]
    fn generate_is_deterministic() {
        assert_eq!(sample_json(), sample_json());
    }

    #[test]
    fn generate_rejects_unknown_topology() {
        let opts = GenerateOptions {
            topology: "mesh".into(),
            ..GenerateOptions::default()
        };
        assert!(matches!(generate(&opts), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_rejects_infeasible_target() {
        let opts = GenerateOptions {
            tasks: 2,
            utilization: 10.0,
            max_task_utilization: 1.0,
            ..GenerateOptions::default()
        };
        assert!(matches!(generate(&opts), Err(CliError::Usage(_))));
    }

    #[test]
    fn info_reports_aggregates() {
        let out = info(&sample_json()).unwrap();
        assert!(out.contains("U_sum"));
        assert!(out.contains("n = 8"));
        assert!(out.contains("constrained-deadline"));
    }

    #[test]
    fn analyze_accepts_with_enough_processors() {
        let out = analyze(&sample_json(), &AnalyzeOptions::default()).unwrap();
        assert!(out.contains("FederatedSchedule"));
        assert!(out.contains("analysis cost:"));
    }

    #[test]
    fn analyze_rejects_with_too_few_processors() {
        let err = analyze(
            &sample_json(),
            &AnalyzeOptions {
                processors: 1,
                ..AnalyzeOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CliError::NotSchedulable(_)));
    }

    #[test]
    fn analyze_exact_partition_mode_works() {
        let out = analyze(
            &sample_json(),
            &AnalyzeOptions {
                priority: PriorityPolicy::CriticalPathFirst,
                exact_partition: true,
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("FederatedSchedule"));
    }

    #[test]
    fn analyze_runs_every_registry_policy_by_name() {
        // Constrained-deadline input: the FEDCONS family analyses it, the
        // implicit-deadline-only policies reject with a typed failure.
        let json = sample_json();
        for name in fedsched_policy::policy_names() {
            let result = analyze(
                &json,
                &AnalyzeOptions {
                    policy: name.to_owned(),
                    ..AnalyzeOptions::default()
                },
            );
            match name {
                "fedcons" | "fedcons-constraining" => {
                    assert!(result.unwrap().contains("FederatedSchedule"));
                }
                _ => assert!(
                    matches!(result, Ok(_) | Err(CliError::NotSchedulable(_))),
                    "{name} must complete, got a usage/io error"
                ),
            }
        }
        assert!(matches!(
            analyze(
                &json,
                &AnalyzeOptions {
                    policy: "no-such".into(),
                    ..AnalyzeOptions::default()
                }
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_json_reports_verdict_and_probe_both_ways() {
        let json = sample_json();
        let accepted = analyze(
            &json,
            &AnalyzeOptions {
                json: true,
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(accepted.contains("\"schedulable\": true"));
        assert!(accepted.contains("\"probe\""));
        assert!(accepted.contains("\"ls_runs\""));
        let rejected = analyze(
            &json,
            &AnalyzeOptions {
                processors: 1,
                json: true,
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(rejected.contains("\"schedulable\": false"));
        assert!(rejected.contains("\"failure\""));
    }

    #[test]
    fn analyze_li_federated_needs_implicit_deadlines() {
        let implicit = generate(&GenerateOptions {
            implicit: true,
            ..GenerateOptions::default()
        })
        .unwrap();
        let out = analyze(
            &implicit,
            &AnalyzeOptions {
                policy: "li-federated".into(),
                processors: 16,
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("LiFederatedSchedule"));
    }

    #[test]
    fn simulate_reports_clean_run_and_trace() {
        let out = simulate(
            &sample_json(),
            SimulateOptions {
                processors: 8,
                horizon: 20_000,
                sporadic_slack: 0.3,
                exec_min_fraction: 0.5,
                seed: 9,
                trace_window: 60,
                ..SimulateOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("0 misses"));
        assert!(out.contains("P0:"));
    }

    #[test]
    fn simulate_validates_fractions() {
        let opts = SimulateOptions {
            exec_min_fraction: 0.0,
            ..SimulateOptions::default()
        };
        assert!(matches!(
            simulate(&sample_json(), opts),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn dot_renders_single_and_all() {
        let json = sample_json();
        let one = dot(&json, Some(0)).unwrap();
        assert!(one.starts_with("digraph task0"));
        let all = dot(&json, None).unwrap();
        assert_eq!(all.matches("digraph").count(), 8);
        assert!(matches!(dot(&json, Some(99)), Err(CliError::Usage(_))));
    }

    #[test]
    fn priority_parsing() {
        assert_eq!(parse_priority("list").unwrap(), PriorityPolicy::ListOrder);
        assert_eq!(
            parse_priority("cpf").unwrap(),
            PriorityPolicy::CriticalPathFirst
        );
        assert_eq!(
            parse_priority("lwf").unwrap(),
            PriorityPolicy::LongestWcetFirst
        );
        assert!(parse_priority("edf").is_err());
    }

    #[test]
    fn simulate_with_svg_renders_both_outputs_from_one_run() {
        let (text, svg) = simulate_with_svg(
            &sample_json(),
            SimulateOptions {
                processors: 8,
                horizon: 5_000,
                ..SimulateOptions::default()
            },
            200,
        )
        .unwrap();
        assert!(text.contains("0 misses"));
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("execution trace"));
        assert!(matches!(
            simulate_with_svg(&sample_json(), SimulateOptions::default(), 0),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_export_emits_all_three_dialects() {
        let json = sample_json();
        let opts = SimulateOptions {
            processors: 8,
            horizon: 2_000,
            ..SimulateOptions::default()
        };
        let chrome = trace_export(&json, opts, TraceFormat::Chrome, 0).unwrap();
        let doc: fedsched_telemetry::chrome::ChromeTraceDocument =
            serde_json::from_str(&chrome).unwrap();
        assert!(!doc.traceEvents.is_empty());
        assert!(doc.traceEvents.iter().all(|e| e.cat != "analysis"));

        let gantt = trace_export(&json, opts, TraceFormat::Gantt, 80).unwrap();
        assert!(gantt.contains("P0:"));
        assert!(gantt.contains("watchdog: misses=0"));
        assert!(matches!(
            trace_export(&json, opts, TraceFormat::Gantt, 0),
            Err(CliError::Usage(_))
        ));

        let csv = trace_export(&json, opts, TraceFormat::Csv, 0).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("processor,task,vertex,start,end"));
        let row = lines.next().expect("at least one slice");
        assert_eq!(row.split(',').count(), 5);
    }

    #[test]
    fn trace_format_parsing() {
        assert_eq!(parse_trace_format("chrome").unwrap(), TraceFormat::Chrome);
        assert_eq!(parse_trace_format("gantt").unwrap(), TraceFormat::Gantt);
        assert_eq!(parse_trace_format("csv").unwrap(), TraceFormat::Csv);
        assert!(parse_trace_format("perfetto").is_err());
    }

    #[test]
    fn analyze_to_json_roundtrips() {
        use fedsched_core::fedcons::FederatedSchedule;
        let out = analyze_to_json(&sample_json(), &AnalyzeOptions::default()).unwrap();
        let schedule: FederatedSchedule = serde_json::from_str(&out).unwrap();
        assert_eq!(schedule.total_processors(), 8);
    }

    #[test]
    fn import_stg_roundtrips() {
        let stg = "2\n0 0 0\n1 4 1 0\n2 6 1 1\n3 0 1 2\n";
        let json = import_stg(stg, 15, 20).unwrap();
        let system = parse_system(&json).unwrap();
        assert_eq!(system.len(), 1);
        assert_eq!(system.tasks()[0].volume().ticks(), 10);
        assert_eq!(system.tasks()[0].longest_chain_length().ticks(), 10);
        // Chain longer than deadline: rejected at task construction? No —
        // len 10 ≤ D 15 here; an invalid deadline is a usage error:
        assert!(matches!(import_stg(stg, 0, 20), Err(CliError::Usage(_))));
        assert!(matches!(import_stg("nope", 5, 5), Err(CliError::Usage(_))));
    }

    #[test]
    fn malformed_json_is_reported() {
        assert!(matches!(info("{not json"), Err(CliError::Json(_))));
    }

    #[test]
    fn serve_and_client_roundtrip() {
        let handle = start_server(&ServeOptions {
            processors: 8,
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = handle.local_addr().to_string();
        let admit = client_command(
            &addr,
            &ClientAction::Admit {
                json: sample_json(),
                task: None,
                trace: Some(100),
            },
        )
        .unwrap();
        assert_eq!(admit.lines().count(), 8, "one line per admitted task");
        assert!(admit.contains("admitted token=0"));
        assert!(admit.contains("[trace:100]"), "trace id echoed: {admit}");
        assert!(admit.contains("[trace:107]"), "consecutive ids: {admit}");
        let query = client_command(&addr, &ClientAction::Query { token: 0 }).unwrap();
        assert!(query.contains("token=0 on "));
        let stats = client_command(&addr, &ClientAction::Stats).unwrap();
        assert!(stats.contains("platform: 8 processors"));
        assert!(stats.contains("analysis cost: ls_runs="));
        assert!(stats.contains("p50 ≤"), "quantiles rendered: {stats}");
        let prom = client_command(&addr, &ClientAction::StatsPrometheus).unwrap();
        fedsched_telemetry::prometheus::validate_exposition(&prom).expect("valid exposition");
        assert!(prom.contains("fedsched_admitted_total"));
        let removed = client_command(&addr, &ClientAction::Remove { token: 0 }).unwrap();
        assert!(removed.contains("removed token=0"));
        let missing = client_command(&addr, &ClientAction::Remove { token: 0 }).unwrap();
        assert!(missing.contains("not found"));
        let bye = client_command(&addr, &ClientAction::Shutdown).unwrap();
        assert!(bye.contains("shutting down"));
        handle.join();
    }

    #[test]
    fn serve_banner_reports_the_connection_and_cache_caps() {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            template_cache_cap: 10,
            ..ServeOptions::default()
        };
        let handle = start_server(&opts).unwrap();
        let banner = serve_banner(&opts, &handle);
        handle.shutdown();
        assert!(
            banner.contains("one reactor sharing 256 connection permit(s)"),
            "banner: {banner}"
        );
        assert!(
            banner.contains("template-cache cap 10 entr(ies)\n"),
            "banner: {banner}"
        );
        assert!(!banner.contains("connection plane:"), "banner: {banner}");
    }

    #[test]
    fn serve_recover_compact_roundtrip_with_data_dir() {
        let dir = std::env::temp_dir().join(format!(
            "fedsched-cli-durable-roundtrip-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            data_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };

        let handle = start_server(&opts).unwrap();
        let banner = serve_banner(&opts, &handle);
        assert!(banner.contains("durability: "), "banner: {banner}");
        assert!(banner.contains("fsync every"), "banner: {banner}");
        assert!(
            banner.contains("recovered: 0 replayed record(s)"),
            "fresh dir boots empty: {banner}"
        );
        let addr = handle.local_addr().to_string();
        client_command(
            &addr,
            &ClientAction::Admit {
                json: sample_json(),
                task: None,
                trace: None,
            },
        )
        .unwrap();
        client_command(&addr, &ClientAction::Remove { token: 3 }).unwrap();
        client_command(&addr, &ClientAction::Shutdown).unwrap();
        handle.join();

        // Offline recovery replays the journal into the surviving state.
        let report = recover_store(&opts).unwrap();
        assert!(report.contains("7 resident task(s)"), "{report}");
        assert!(report.contains("8 admitted"), "{report}");
        assert!(report.contains("1 removed"), "{report}");

        // Compaction folds the journal into one snapshot.
        let compacted = compact_store(&opts).unwrap();
        assert!(compacted.contains("7 resident task(s)"), "{compacted}");
        assert!(compacted.contains("snapshot: seq"), "{compacted}");
        assert!(
            compacted.contains("-> 44 bytes"),
            "wal truncated to magic + marker: {compacted}"
        );

        // A restarted server picks the state straight back up — from the
        // snapshot alone, with nothing left to replay.
        let handle = start_server(&ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..opts.clone()
        })
        .unwrap();
        let boot = handle.boot_report().expect("durability enabled");
        assert_eq!(boot.replayed_records, 0, "compacted: snapshot only");
        let addr = handle.local_addr().to_string();
        let query = client_command(&addr, &ClientAction::Query { token: 0 }).unwrap();
        assert!(query.contains("token=0 on "), "state survived: {query}");
        let gone = client_command(&addr, &ClientAction::Query { token: 3 }).unwrap();
        assert!(gone.contains("not found"), "removal survived: {gone}");
        client_command(&addr, &ClientAction::Shutdown).unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_and_compact_require_a_data_dir() {
        for f in [recover_store, compact_store] {
            let err = f(&ServeOptions::default()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "got {err:?}");
        }
    }

    #[test]
    fn recover_refuses_a_mismatched_configuration() {
        let dir = std::env::temp_dir().join(format!(
            "fedsched-cli-durable-mismatch-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            data_dir: Some(dir.clone()),
            // Snapshot immediately: the config check lives in snapshot
            // restore, so the directory must contain one.
            snapshot_records: 1,
            ..ServeOptions::default()
        };
        let handle = start_server(&opts).unwrap();
        let addr = handle.local_addr().to_string();
        client_command(
            &addr,
            &ClientAction::Admit {
                json: sample_json(),
                task: Some(0),
                trace: None,
            },
        )
        .unwrap();
        client_command(&addr, &ClientAction::Shutdown).unwrap();
        handle.join();

        // Same directory, different platform size: recovery must refuse
        // rather than reinterpret the journal.
        let err = recover_store(&ServeOptions {
            processors: 16,
            ..opts.clone()
        })
        .unwrap_err();
        let CliError::Io(io) = err else {
            panic!("expected InvalidData, got {err:?}");
        };
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "got {io:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_command_times_out_against_a_stalled_server() {
        // A listener that never accepts: the connection parks in the
        // backlog and no response ever arrives.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let started = std::time::Instant::now();
        let err = client_command_with(&addr, &ClientAction::Stats, Some(300)).unwrap_err();
        let CliError::Io(io) = err else {
            panic!("expected an I/O deadline error, got {err:?}");
        };
        assert!(
            matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "got {io:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "--timeout-ms must bound the call, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn client_admit_rejects_bad_task_index_before_connecting() {
        // Validation runs before dialing: no server listens on this addr,
        // yet the error is the usage error, not a connection failure.
        let err = client_command(
            "127.0.0.1:1",
            &ClientAction::Admit {
                json: sample_json(),
                task: Some(99),
                trace: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "got {err:?}");
    }

    #[test]
    fn error_display_and_sources() {
        let e = CliError::Usage("bad".into());
        assert!(e.to_string().contains("usage error"));
        let io = CliError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
