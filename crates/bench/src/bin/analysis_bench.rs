//! Reproducible analysis-engine benchmark: the bound-guided engine versus
//! a seed-equivalent naive baseline, on the workloads the optimization
//! targets. Writes a machine-readable `BENCH_analysis.json`.
//!
//! Usage:
//!
//! ```text
//! analysis_bench [--quick] [--out FILE] [--gate-admission-fits RATIO]
//! ```
//!
//! `--gate-admission-fits RATIO` turns the report into a regression gate:
//! after writing the JSON, the run fails if the `admission_fits` engine
//! speedup falls below `RATIO`. That suite is gated because the engine
//! does structurally less work there: its certificate path settles every
//! query with no LS run, where the baseline sweeps LS, so the ratio sits
//! hundreds of times above parity and a floor far below it fails only on
//! a lost fast path. (The other suites run LS on the same candidates on
//! both sides, so their ratios are scheduler noise around 1.) The gated
//! suite and the `partition_first_fit` rows are measured best-of-3
//! (minimum wall time of three identical passes per side); results are
//! asserted equal on every repeat.
//!
//! The **baseline** reproduces the pre-optimization engine faithfully: a
//! literal Fig. 3 sweep from the processor lower bound upward, one full
//! List-Scheduling run — including a fresh priority-rank computation —
//! per candidate, strictly sequentially, with no Graham-bound pruning.
//!
//! The **engine** column runs the current analysis on the calling thread,
//! reported as `threads: 1`: its gains are algorithmic (rank hoisting,
//! bound-guided candidate windows, certificate decisions). Every suite
//! asserts the engine's verdicts equal the baseline's before any timing is
//! reported — the speedup is never bought with a different answer — and
//! the sizing suites assert it runs LS on exactly the baseline's
//! candidates.
//!
//! The `partition_first_fit` suite times the Fig. 4 first-fit test itself,
//! in nanoseconds per `fits()` call against shared processors of 8, 64 and
//! 135 residents: the engine reads each processor's demand off its `DBF*`
//! demand line, the baseline sums `DBF*` resident by resident as the test
//! did before the line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fedsched_analysis::dbf::{dbf_approx, SequentialView};
use fedsched_analysis::incremental::SharedPool;
use fedsched_analysis::partition::PartitionConfig;
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::fedcons::{fedcons, fedcons_probed, FedConsConfig};
use fedsched_core::minprocs::{min_procs_fits_probed, min_procs_probed};
use fedsched_core::speedup::required_speed;
use fedsched_dag::rational::Rational;
use fedsched_dag::system::TaskSystem;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_gen::params::round_period_to_grid;
use fedsched_gen::system::SystemConfig;
use fedsched_gen::{DeadlineTightness, Span, Topology, WcetRange};
use fedsched_graham::list::{
    list_makespan_ranked, list_schedule_ranked, list_schedule_with, PriorityPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Repeats for the gated `admission_fits` suite and the
/// `partition_first_fit` rows (best-of-N wall time).
const GATED_REPEATS: usize = 3;

/// Fixed cluster sizes of the `ls_kernel` suite's wide rows, where a
/// processor heap cost `log μ` per operation: 64, inside the suite's
/// 40–120 vertex counts, and 256, past all of them.
const KERNEL_WIDE_MU: [u32; 2] = [64, 256];

/// Residents per shared processor in the `partition_first_fit` suite.
const FIT_RESIDENTS: [usize; 3] = [8, 64, 135];

/// Total utilization of each processor of the `partition_first_fit` pool,
/// so first-fit candidates land on every processor and on none.
const FIT_FILL: [f64; 4] = [0.75, 0.6, 0.45, 0.3];

/// Heap allocations performed by this process, counted by the global
/// allocator below — the `ls_kernel` suite reads it to report
/// allocations per kernel run.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[derive(Serialize)]
struct BaselineRun {
    wall_nanos: u64,
    ls_runs: u64,
}

#[derive(Serialize)]
struct EngineRun {
    /// Always 1: the engine runs on the calling thread. Kept so earlier
    /// reports read the same row.
    threads: usize,
    wall_nanos: u64,
    ls_runs: u64,
    ls_runs_pruned: u64,
    par_tasks_dispatched: u64,
    /// Baseline wall time divided by this run's wall time.
    speedup_vs_baseline: f64,
}

#[derive(Serialize)]
struct Suite {
    workload: &'static str,
    policy: &'static str,
    items: usize,
    baseline: BaselineRun,
    engine: Vec<EngineRun>,
}

/// One measured kernel entry point in the `ls_kernel` suite.
#[derive(Serialize)]
struct KernelPath {
    path: &'static str,
    /// The cluster size every task ran on, or `None` for each task's own
    /// `⌈δ⌉` lower bound (capped at 64).
    processors: Option<u32>,
    nanos_per_run: f64,
    allocs_per_run: f64,
}

/// Raw List-Scheduling kernel microbenchmark: wall time and heap
/// allocations per warm kernel run, for both the makespan-only and the
/// template-materialising entry points.
#[derive(Serialize)]
struct KernelSuite {
    items: usize,
    iters_per_item: u64,
    paths: Vec<KernelPath>,
}

/// First-fit test cost at one resident-set size: the same candidates
/// scanned over the same pool by the engine and by the literal baseline.
#[derive(Serialize)]
struct FitsRun {
    residents_per_processor: usize,
    candidates: usize,
    fits_calls: u64,
    dbf_terms: u64,
    baseline_ns_per_call: f64,
    engine_ns_per_call: f64,
    /// Baseline time per call divided by the engine's.
    speedup_vs_baseline: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    host_parallelism: usize,
    suites: Vec<Suite>,
    ls_kernel: KernelSuite,
    partition_first_fit: Vec<FitsRun>,
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn policy_name(policy: PriorityPolicy) -> &'static str {
    match policy {
        PriorityPolicy::ListOrder => "list",
        PriorityPolicy::CriticalPathFirst => "cpf",
        PriorityPolicy::LongestWcetFirst => "lwf",
    }
}

/// Runs `pass` [`GATED_REPEATS`] times and returns its minimum wall time
/// and its result, asserted equal on every repeat.
fn best_of<T: PartialEq + std::fmt::Debug>(mut pass: impl FnMut() -> T) -> (u64, T) {
    let mut best_wall = u64::MAX;
    let mut first: Option<T> = None;
    for _ in 0..GATED_REPEATS {
        let start = Instant::now();
        let result = pass();
        best_wall = best_wall.min(nanos_since(start));
        match &first {
            Some(first) => assert_eq!(&result, first, "every repeat must agree"),
            None => first = Some(result),
        }
    }
    (best_wall, first.expect("GATED_REPEATS is positive"))
}

/// The engine row of a suite: its wall time and probe counters against
/// the baseline's wall time.
fn engine_run(baseline: &BaselineRun, wall_nanos: u64, probe: &AnalysisProbe) -> EngineRun {
    EngineRun {
        threads: 1,
        wall_nanos,
        ls_runs: probe.ls_runs,
        ls_runs_pruned: probe.ls_runs_pruned,
        par_tasks_dispatched: probe.par_tasks_dispatched,
        speedup_vs_baseline: baseline.wall_nanos as f64 / wall_nanos.max(1) as f64,
    }
}

/// The pre-optimization `MINPROCS`: sweep every candidate from the lower
/// bound up, one `list_schedule_with` (ranks recomputed inside) per
/// candidate, no bounds. Returns the minimal fitting count.
fn naive_min_procs(
    task: &DagTask,
    available: u32,
    policy: PriorityPolicy,
    ls_runs: &mut u64,
) -> Option<u32> {
    if !task.is_chain_feasible() {
        return None;
    }
    let start = task.min_processors_lower_bound().max(1);
    for mu in start..=available {
        *ls_runs += 1;
        let template = list_schedule_with(task.dag(), mu, policy);
        if template.makespan() <= task.deadline() {
            return Some(mu);
        }
    }
    None
}

/// A system pre-split by density class, so the baseline is not charged
/// for clones inside the timed region (the pre-optimization engine never
/// cloned either).
struct SplitSystem {
    full: TaskSystem,
    lows: TaskSystem,
}

impl SplitSystem {
    fn new(full: TaskSystem) -> SplitSystem {
        let lows = full
            .tasks()
            .iter()
            .filter(|t| t.is_low_density())
            .cloned()
            .collect();
        SplitSystem { full, lows }
    }
}

/// The pre-optimization FEDCONS: naive phase-1 sizing of each high-density
/// task against the shrinking remainder, then the (unchanged) phase-2
/// first-fit partition of the low-density subset.
fn naive_fedcons(split: &SplitSystem, m: u32, policy: PriorityPolicy, ls_runs: &mut u64) -> bool {
    let mut remaining = m;
    for id in split.full.high_density_ids() {
        match naive_min_procs(split.full.task(id), remaining, policy, ls_runs) {
            Some(mu) => remaining -= mu,
            None => return false,
        }
    }
    if split.lows.is_empty() {
        return true;
    }
    let config = FedConsConfig {
        policy,
        ..FedConsConfig::default()
    };
    fedcons(&split.lows, remaining, config).is_ok()
}

/// High-density tasks with deadlines at a controlled tightness: `d = len +
/// frac · (vol − len)` for `frac` uniform in `frac_range`. Small fractions
/// squeeze the deadline toward the critical path, so List Scheduling needs
/// well more than the `⌈vol/D⌉` lower bound and a sizing sweep visits
/// several candidates — the regime the analysis actually struggles in.
fn high_density_tasks(count: usize, seed: u64, frac_range: (f64, f64)) -> Vec<DagTask> {
    let topology = Topology::ErdosRenyi {
        vertices: Span::new(40, 120),
        edge_probability: 0.08,
    };
    (0..count)
        .filter_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let dag = topology.generate(&mut rng, WcetRange::new(1, 20));
            let len = dag.longest_chain().length.ticks();
            let vol = dag.volume().ticks();
            if vol == len {
                return None;
            }
            let frac = rng.gen_range(frac_range.0..=frac_range.1);
            let slack = ((vol - len) as f64 * frac) as u64;
            let d = (len + slack.max(1)).min(vol);
            let t = d + rng.gen_range(0..=d);
            DagTask::new(dag, Duration::new(d), Duration::new(t)).ok()
        })
        .collect()
}

/// Batch-FEDCONS workload: mixed-density constrained-deadline systems at
/// moderate normalized utilization on an `m = 16` platform, with tight
/// deadlines so phase-1 sizing sweeps carry the analysis cost.
fn fedcons_systems(count: usize, seed: u64) -> Vec<TaskSystem> {
    let config = SystemConfig::new(10, 5.0)
        .with_max_task_utilization(2.0)
        .with_topology(Topology::ErdosRenyi {
            vertices: Span::new(20, 60),
            edge_probability: 0.1,
        })
        .with_tightness(DeadlineTightness::new(0.1, 0.6));
    (0..count)
        .filter_map(|i| config.generate_seeded(seed.wrapping_add(i as u64)))
        .collect()
}

/// Sizing suite: full `MINPROCS` (minimal count + template) per task. The
/// candidate sweep is where rank hoisting pays: the baseline recomputes
/// the priority ranks for every candidate it visits.
fn suite_minprocs_sizing(tasks: &[DagTask], policy: PriorityPolicy) -> Suite {
    let available = 64u32;
    let mut baseline_runs = 0u64;
    let start = Instant::now();
    let baseline_sizes: Vec<Option<u32>> = tasks
        .iter()
        .map(|t| naive_min_procs(t, available, policy, &mut baseline_runs))
        .collect();
    let baseline = BaselineRun {
        wall_nanos: nanos_since(start),
        ls_runs: baseline_runs,
    };

    let mut probe = AnalysisProbe::default();
    let start = Instant::now();
    let sizes: Vec<Option<u32>> = tasks
        .iter()
        .map(|t| min_procs_probed(t, available, policy, &mut probe).map(|r| r.processors))
        .collect();
    let wall_nanos = nanos_since(start);
    assert_eq!(sizes, baseline_sizes, "engine sizing must match baseline");
    assert_eq!(
        probe.ls_runs, baseline.ls_runs,
        "the engine runs LS on exactly the literal sweep's candidates"
    );
    let engine = vec![engine_run(&baseline, wall_nanos, &probe)];

    Suite {
        workload: "minprocs_sizing",
        policy: policy_name(policy),
        items: tasks.len(),
        baseline,
        engine,
    }
}

/// Admission-fits suite: "does τ fit in the processors this platform has
/// left?" — the decision the admission server and every speed search ask.
/// With headroom available, the Graham upper-bound certificate settles
/// most queries with zero LS runs, while the baseline must sweep from the
/// lower bound to the first fitting candidate. This suite feeds the
/// `--gate-admission-fits` regression gate, so both sides are measured
/// best-of-N.
fn suite_admission_fits(tasks: &[DagTask], available: u32, policy: PriorityPolicy) -> Suite {
    let (baseline_wall, (baseline_verdicts, baseline_runs)) = best_of(|| {
        let mut runs = 0u64;
        let verdicts: Vec<bool> = tasks
            .iter()
            .map(|t| naive_min_procs(t, available, policy, &mut runs).is_some())
            .collect();
        (verdicts, runs)
    });
    let baseline = BaselineRun {
        wall_nanos: baseline_wall,
        ls_runs: baseline_runs,
    };

    let mut probe = AnalysisProbe::default();
    let (wall_nanos, verdicts) = best_of(|| {
        probe = AnalysisProbe::default();
        tasks
            .iter()
            .map(|t| min_procs_fits_probed(t, available, policy, &mut probe))
            .collect::<Vec<bool>>()
    });
    assert_eq!(
        verdicts, baseline_verdicts,
        "engine verdicts must match baseline"
    );
    let engine = vec![engine_run(&baseline, wall_nanos, &probe)];

    Suite {
        workload: "admission_fits",
        policy: policy_name(policy),
        items: tasks.len(),
        baseline,
        engine,
    }
}

/// Experiments suite: the E5 speed search verbatim — `required_speed`
/// binary-searches the smallest acceptable processor speed at exactly the
/// `⌈vol/D⌉` lower bound, issuing one acceptance probe per grid point.
/// The baseline probes with a full naive sizing; the engine probes with
/// the decision-only `min_procs_fits`.
fn suite_speed_search(tasks: &[DagTask], grid: u32) -> Suite {
    let policy = PriorityPolicy::ListOrder;
    let systems: Vec<(TaskSystem, u32)> = tasks
        .iter()
        .map(|t| {
            let m_lb = t.min_processors_lower_bound().max(1);
            ([t.clone()].into_iter().collect(), m_lb)
        })
        .collect();

    let baseline_runs = Cell::new(0u64);
    let start = Instant::now();
    let baseline_speeds: Vec<Option<f64>> = systems
        .iter()
        .map(|(system, m_lb)| {
            let accepts = |s: &TaskSystem| {
                let mut runs = baseline_runs.get();
                let fits = naive_min_procs(&s.tasks()[0], *m_lb, policy, &mut runs).is_some();
                baseline_runs.set(runs);
                fits
            };
            required_speed(system, accepts, grid, 3).map(|s| s.to_f64())
        })
        .collect();
    let baseline = BaselineRun {
        wall_nanos: nanos_since(start),
        ls_runs: baseline_runs.get(),
    };

    let probe = RefCell::new(AnalysisProbe::default());
    let start = Instant::now();
    let speeds: Vec<Option<f64>> = systems
        .iter()
        .map(|(system, m_lb)| {
            let accepts = |s: &TaskSystem| {
                min_procs_fits_probed(&s.tasks()[0], *m_lb, policy, &mut probe.borrow_mut())
            };
            required_speed(system, accepts, grid, 3).map(|s| s.to_f64())
        })
        .collect();
    let wall_nanos = nanos_since(start);
    assert_eq!(speeds, baseline_speeds, "engine speeds must match baseline");
    let engine = vec![engine_run(&baseline, wall_nanos, &probe.into_inner())];

    Suite {
        workload: "experiments_speed_search_e5",
        policy: policy_name(policy),
        items: tasks.len(),
        baseline,
        engine,
    }
}

/// Batch-FEDCONS suite: whole-system admission over many generated
/// systems, the experiments-harness shape.
fn suite_batch_fedcons(systems: &[TaskSystem], m: u32, policy: PriorityPolicy) -> Suite {
    let splits: Vec<SplitSystem> = systems.iter().cloned().map(SplitSystem::new).collect();
    let mut baseline_runs = 0u64;
    let start = Instant::now();
    let baseline_verdicts: Vec<bool> = splits
        .iter()
        .map(|s| naive_fedcons(s, m, policy, &mut baseline_runs))
        .collect();
    let baseline = BaselineRun {
        wall_nanos: nanos_since(start),
        ls_runs: baseline_runs,
    };

    let config = FedConsConfig {
        policy,
        ..FedConsConfig::default()
    };
    let mut probe = AnalysisProbe::default();
    let start = Instant::now();
    let verdicts: Vec<bool> = systems
        .iter()
        .map(|s| fedcons_probed(s, m, config, &mut probe).is_ok())
        .collect();
    let wall_nanos = nanos_since(start);
    assert_eq!(
        verdicts, baseline_verdicts,
        "engine verdicts must match baseline"
    );
    assert_eq!(
        probe.ls_runs, baseline.ls_runs,
        "phase 1 runs LS on exactly the literal Fig. 2 loop's candidates"
    );
    let engine = vec![engine_run(&baseline, wall_nanos, &probe)];

    Suite {
        workload: "batch_fedcons",
        policy: policy_name(policy),
        items: systems.len(),
        baseline,
        engine,
    }
}

/// Raw kernel microbenchmark: `iters` warm passes over every task's DAG
/// at its processor lower bound, for the makespan-only and the
/// template-materialising entry points, then the makespan-only path at
/// each [`KERNEL_WIDE_MU`] cluster size. Ranks are precomputed (the kernel
/// is what is under test) and one untimed pass at the widest cluster
/// warms the thread workspace to its steady-state capacity, so the
/// reported allocation counts are the kernel's own: 0 per makespan run, 1
/// per template run.
fn suite_ls_kernel(tasks: &[DagTask], policy: PriorityPolicy, iters: u64) -> KernelSuite {
    let prepared: Vec<(&DagTask, Vec<u64>, u32)> = tasks
        .iter()
        .map(|t| {
            let ranks = policy.ranks(t.dag());
            let mu = t.min_processors_lower_bound().clamp(1, 64);
            (t, ranks, mu)
        })
        .collect();
    let widest = KERNEL_WIDE_MU.into_iter().max().unwrap_or(1);
    for (task, ranks, _) in &prepared {
        let dag = task.dag();
        black_box(list_schedule_ranked(dag, widest, ranks, dag.wcets()));
    }
    let mut paths = vec![
        time_kernel_path(&prepared, iters, "makespan", None),
        time_kernel_path(&prepared, iters, "template", None),
    ];
    for mu in KERNEL_WIDE_MU {
        paths.push(time_kernel_path(&prepared, iters, "makespan", Some(mu)));
    }
    KernelSuite {
        items: prepared.len(),
        iters_per_item: iters,
        paths,
    }
}

/// Times one `ls_kernel` row: `iters` passes over `prepared` through the
/// `"makespan"` or `"template"` entry point, on `processors` or else each
/// task's lower bound.
fn time_kernel_path(
    prepared: &[(&DagTask, Vec<u64>, u32)],
    iters: u64,
    path: &'static str,
    processors: Option<u32>,
) -> KernelPath {
    let template = path == "template";
    let runs = iters * prepared.len() as u64;
    let allocs_before = allocations();
    let start = Instant::now();
    for _ in 0..iters {
        for (task, ranks, lower_bound) in prepared {
            let dag = task.dag();
            let mu = processors.unwrap_or(*lower_bound);
            if template {
                black_box(list_schedule_ranked(dag, mu, ranks, dag.wcets()));
            } else {
                black_box(list_makespan_ranked(dag, mu, ranks, dag.wcets()));
            }
        }
    }
    KernelPath {
        path,
        processors,
        nanos_per_run: nanos_since(start) as f64 / runs as f64,
        allocs_per_run: (allocations() - allocs_before) as f64 / runs as f64,
    }
}

/// A constrained-deadline view of utilization about `u`, its deadline
/// drawn from `deadlines` and its period rounded up to the generator grid.
fn fit_view(rng: &mut StdRng, u: f64, deadlines: (u64, u64)) -> SequentialView {
    let d = rng.gen_range(deadlines.0..=deadlines.1);
    let t = round_period_to_grid(d + d * rng.gen_range(0..=30) / 100);
    let c = ((u * t as f64) as u64).clamp(1, d);
    SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
}

/// The Fig. 4 test as computed before the demand line: `DBF*` summed
/// resident by resident at the candidate's deadline, plus the utilization
/// condition against the processor's cached utilization.
fn literal_fits(resident: &[SequentialView], utilization: Rational, cand: &SequentialView) -> bool {
    let d = cand.deadline;
    let demand: Rational = resident.iter().map(|r| dbf_approx(r, d)).sum();
    Rational::from(d.ticks()) - demand >= Rational::from(cand.wcet.ticks())
        && utilization + cand.utilization() <= Rational::ONE
}

/// First-fit test suite: a pool of `FIT_FILL.len()` shared processors,
/// each holding `residents` views placed in deadline order, scanned
/// first-fit for candidates due no earlier than any resident (the order
/// Fig. 4 tests in). The engine is `SharedPool::first_fit_probed`; the
/// baseline is [`literal_fits`] over the same pool. Placements and call
/// counts are asserted equal before any timing, and both sides are timed
/// best-of-N, so one run's row does not read whatever the host load was
/// during a single pass.
fn suite_partition_first_fit(residents: usize, candidates: usize, passes: u32) -> FitsRun {
    let mut rng = StdRng::seed_from_u64(0xF164 + residents as u64);
    let mut pool = SharedPool::new(FIT_FILL.len(), PartitionConfig::default());
    let mut literal: Vec<(Vec<SequentialView>, Rational)> = Vec::new();
    for (k, fill) in FIT_FILL.iter().enumerate() {
        let mut views: Vec<SequentialView> = (0..residents)
            .map(|_| {
                let u = fill / residents as f64 * rng.gen_range(0.5..1.5);
                fit_view(&mut rng, u, (200, 2_000))
            })
            .collect();
        views.sort_by_key(|v| v.deadline);
        for &view in &views {
            pool.place(k, view);
        }
        let utilization = views.iter().map(SequentialView::utilization).sum();
        literal.push((views, utilization));
    }
    let cands: Vec<SequentialView> = (0..candidates)
        .map(|_| {
            let u = rng.gen_range(0.01..0.7);
            fit_view(&mut rng, u, (2_000, 4_000))
        })
        .collect();

    let mut probe = AnalysisProbe::default();
    let engine_placements: Vec<Option<usize>> = cands
        .iter()
        .map(|c| pool.first_fit_probed(c, &mut probe))
        .collect();
    let mut baseline_calls = 0u64;
    let baseline_placements: Vec<Option<usize>> = cands
        .iter()
        .map(|c| {
            literal.iter().position(|(views, u)| {
                baseline_calls += 1;
                literal_fits(views, *u, c)
            })
        })
        .collect();
    assert_eq!(
        engine_placements, baseline_placements,
        "engine placements must match the literal baseline"
    );
    assert_eq!(probe.fits_calls, baseline_calls, "same scans on both sides");
    assert!(
        engine_placements.iter().any(Option::is_none)
            && (0..FIT_FILL.len()).all(|k| engine_placements.contains(&Some(k))),
        "candidates must reach every processor and none: {engine_placements:?}"
    );

    let calls = probe.fits_calls * u64::from(passes);
    let (baseline_wall, ()) = best_of(|| {
        for _ in 0..passes {
            for c in &cands {
                black_box(
                    literal
                        .iter()
                        .position(|(views, u)| literal_fits(views, *u, c)),
                );
            }
        }
    });
    let baseline_ns = baseline_wall as f64 / calls as f64;
    let mut scratch = AnalysisProbe::default();
    let (engine_wall, ()) = best_of(|| {
        for _ in 0..passes {
            for c in &cands {
                black_box(pool.first_fit_probed(black_box(c), &mut scratch));
            }
        }
    });
    let engine_ns = engine_wall as f64 / calls as f64;

    FitsRun {
        residents_per_processor: residents,
        candidates,
        fits_calls: probe.fits_calls,
        dbf_terms: probe.dbf_approx_evals,
        baseline_ns_per_call: baseline_ns,
        engine_ns_per_call: engine_ns,
        speedup_vs_baseline: baseline_ns / engine_ns.max(f64::MIN_POSITIVE),
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_analysis.json");
    let mut gate_admission_fits: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--gate-admission-fits" => match args.next().map(|s| s.parse::<f64>()) {
                Some(Ok(ratio)) => gate_admission_fits = Some(ratio),
                _ => {
                    eprintln!("--gate-admission-fits needs a speedup ratio, e.g. 50");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (usage: analysis_bench [--quick] [--out FILE] [--gate-admission-fits RATIO])"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let (n_tasks, n_systems) = if quick { (60, 30) } else { (300, 120) };
    // Tight deadlines: sizing sweeps several candidates per task.
    let tight_tasks = high_density_tasks(n_tasks, 0xF17, (0.05, 0.4));
    // E5's own distribution: deadline uniform across the whole [len, vol]
    // feasibility window.
    let e5_tasks = high_density_tasks(n_tasks, 0xE5, (0.0, 1.0));
    let systems = fedcons_systems(n_systems, 0xE3);

    let report = Report {
        quick,
        host_parallelism: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        suites: vec![
            suite_minprocs_sizing(&tight_tasks, PriorityPolicy::CriticalPathFirst),
            suite_admission_fits(&tight_tasks, 64, PriorityPolicy::CriticalPathFirst),
            suite_speed_search(&e5_tasks, if quick { 16 } else { 64 }),
            suite_batch_fedcons(&systems, 16, PriorityPolicy::CriticalPathFirst),
        ],
        ls_kernel: suite_ls_kernel(
            &tight_tasks,
            PriorityPolicy::CriticalPathFirst,
            if quick { 50 } else { 200 },
        ),
        partition_first_fit: FIT_RESIDENTS
            .iter()
            .map(|&n| suite_partition_first_fit(n, 200, if quick { 5 } else { 50 }))
            .collect(),
    };

    for suite in &report.suites {
        println!(
            "{} [{}] ({} items): baseline {:.1} ms / {} LS runs",
            suite.workload,
            suite.policy,
            suite.items,
            suite.baseline.wall_nanos as f64 / 1e6,
            suite.baseline.ls_runs,
        );
        for run in &suite.engine {
            println!(
                "  engine @{} threads: {:.1} ms / {} LS runs ({} pruned, {} dispatched) — {:.2}x",
                run.threads,
                run.wall_nanos as f64 / 1e6,
                run.ls_runs,
                run.ls_runs_pruned,
                run.par_tasks_dispatched,
                run.speedup_vs_baseline,
            );
        }
    }

    for path in &report.ls_kernel.paths {
        let processors = path
            .processors
            .map_or_else(|| "lower bound".to_owned(), |mu| format!("mu={mu}"));
        println!(
            "ls_kernel [{} @ {processors}] ({} items x {} iters): {:.0} ns/run, {:.3} allocs/run",
            path.path,
            report.ls_kernel.items,
            report.ls_kernel.iters_per_item,
            path.nanos_per_run,
            path.allocs_per_run,
        );
    }

    for run in &report.partition_first_fit {
        println!(
            "partition_first_fit ({} residents/processor, {} candidates, {} fits calls): \
             baseline {:.0} ns/call, engine {:.0} ns/call — {:.2}x",
            run.residents_per_processor,
            run.candidates,
            run.fits_calls,
            run.baseline_ns_per_call,
            run.engine_ns_per_call,
            run.speedup_vs_baseline,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    // The gate runs after the report is written, so a failing run still
    // leaves the numbers on disk for inspection.
    if let Some(threshold) = gate_admission_fits {
        let measured = report
            .suites
            .iter()
            .find(|s| s.workload == "admission_fits")
            .and_then(|s| s.engine.first())
            .map(|run| run.speedup_vs_baseline)
            .expect("admission_fits has an engine run");
        if measured < threshold {
            eprintln!(
                "REGRESSION: admission_fits speedup {measured:.2}x \
                 is below the gate of {threshold:.2}x"
            );
            return ExitCode::FAILURE;
        }
        println!("gate ok: admission_fits speedup {measured:.2}x >= {threshold:.2}x");
    }
    ExitCode::SUCCESS
}
