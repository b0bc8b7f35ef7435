//! batch_fedcons: each system of a seeded corpus analysed alone by
//! `fedsched_core::fedcons::fedcons_probed` at the default pool width.

use std::io;
use std::time::{Duration, Instant};

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::partition::{partition_first_fit_probed, PartitionConfig};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::fedcons::{fedcons_probed, FedConsConfig, FedConsFailure, FederatedSchedule};
use fedsched_core::minprocs::min_procs_probed;
use fedsched_dag::system::TaskSystem;
use fedsched_graham::list::{list_makespan_ranked, PriorityPolicy};

use crate::check;
use crate::inputs;
use crate::measure::{self, Latencies};
use crate::report::{median, Options, Outcome};
use crate::trace::{self, Recorder};

/// Platform size of every corpus system.
pub const PROCESSORS: u32 = 16;
/// Corpus systems (cycled through by the measured phase).
const CORPUS: usize = 4000;
/// Corpus systems analysed once during setup.
const WARM_SYSTEMS: usize = 400;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traced-phase systems per measured second.
const TRACE_OPS_PER_S: u64 = 8000;
/// Latency samples reserved per measured second (about twice the rate
/// seen on a 2-core host), so the sample buffer never regrows mid-phase.
const SAMPLES_PER_S: u64 = 40_000;
/// LS kernel runs per timed `list_makespan_ranked` span.
const LS_REPEATS: u64 = 8;

type Answer = Result<FederatedSchedule, FedConsFailure>;

/// Adds the `AnalysisProbe` per-operation metrics between two readings.
pub fn probe_metrics(out: &mut Outcome, before: &AnalysisProbe, after: &AnalysisProbe, ops: f64) {
    let d = |f: fn(&AnalysisProbe) -> u64| (f(after) - f(before)) as f64 / ops;
    out.metric("analysis.fits_per_op", "count/op", d(|p| p.fits_calls));
    out.metric(
        "analysis.dbf_evals_per_op",
        "count/op",
        d(|p| p.dbf_approx_evals + p.dbf_exact_evals),
    );
    out.metric("core.ls_runs_per_op", "count/op", d(|p| p.ls_runs));
    out.metric(
        "core.ls_runs_pruned_per_op",
        "count/op",
        d(|p| p.ls_runs_pruned),
    );
    out.metric(
        "parallel.tasks_per_op",
        "count/op",
        d(|p| p.par_tasks_dispatched),
    );
    let exact = after.deterministic();
    out.record_json(
        "probe_counts",
        format!(
            "{{\"ls_runs\":{},\"ls_runs_pruned\":{},\"makespan_evaluations\":{},\"par_tasks_dispatched\":{},\"fits_calls\":{},\"dbf_approx_evals\":{},\"dbf_exact_evals\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
            exact.ls_runs - before.ls_runs,
            exact.ls_runs_pruned - before.ls_runs_pruned,
            exact.makespan_evaluations - before.makespan_evaluations,
            exact.par_tasks_dispatched - before.par_tasks_dispatched,
            exact.fits_calls - before.fits_calls,
            exact.dbf_approx_evals - before.dbf_approx_evals,
            exact.dbf_exact_evals - before.dbf_exact_evals,
            exact.cache_hits - before.cache_hits,
            exact.cache_misses - before.cache_misses,
        ),
    );
}

/// Setup: the corpus from the seed plus a warm pass over its head.
fn setup(opts: &Options) -> (Vec<TaskSystem>, Duration) {
    let start = Instant::now();
    let n = if opts.short { 20 } else { CORPUS };
    let corpus = inputs::batch_corpus(opts.seed, n);
    let mut probe = AnalysisProbe::default();
    for system in corpus
        .iter()
        .take(if opts.short { 5 } else { WARM_SYSTEMS })
    {
        let _ = std::hint::black_box(fedcons_probed(
            system,
            PROCESSORS,
            FedConsConfig::default(),
            &mut probe,
        ));
    }
    (corpus, start.elapsed())
}

/// A measured pass: `stop` bounds it by time or by operation count. Every
/// answer is compared with the first answer for the same system.
struct Phase {
    lat: Latencies,
    answers: Vec<Option<Answer>>,
    ops: u64,
    accepted: u64,
    rejected: u64,
    diverged: u64,
    elapsed: Duration,
    cpu: Duration,
    allocs: (u64, u64),
    probe: AnalysisProbe,
    /// Traced only: summed layer-call nanoseconds and LS runs timed.
    minprocs_ns: u64,
    partition_ns: u64,
    ls_ns: u64,
    ls_runs: u64,
    spans: Vec<trace::Span>,
}

fn phase(corpus: &[TaskSystem], deadline: Option<Duration>, ops: u64, traced: bool) -> Phase {
    let capacity = deadline.map_or(ops, |d| SAMPLES_PER_S * d.as_secs().max(1)) as usize;
    let epoch = Instant::now();
    let mut p = Phase {
        lat: Latencies::new(epoch, 0),
        answers: vec![None; corpus.len()],
        ops: 0,
        accepted: 0,
        rejected: 0,
        diverged: 0,
        elapsed: Duration::ZERO,
        cpu: Duration::ZERO,
        allocs: (0, 0),
        probe: AnalysisProbe::default(),
        minprocs_ns: 0,
        partition_ns: 0,
        ls_ns: 0,
        ls_runs: 0,
        spans: Vec::new(),
    };
    let mut rec = Recorder::new(epoch, 1);
    let cpu0 = measure::process_cpu();
    let alloc0 = crate::alloc::counted();
    crate::alloc::set_counting(traced);
    let start = Instant::now();
    p.lat = Latencies::new(start, capacity);
    let end = deadline.map(|d| start + d);
    loop {
        let done = match end {
            Some(end) => Instant::now() >= end,
            None => p.ops >= ops,
        };
        if done {
            break;
        }
        let idx = (p.ops % corpus.len() as u64) as usize;
        p.ops += 1;
        let system = &corpus[idx];
        let t0 = Instant::now();
        let answer = fedcons_probed(system, PROCESSORS, FedConsConfig::default(), &mut p.probe);
        let t1 = Instant::now();
        p.lat.push(t0, t1);
        if traced {
            let root = rec.record("core.fedcons_probed", None, idx as u64, t0, t1);
            layer_calls(&mut rec, &mut p, system, &answer, root, idx as u64);
        }
        if answer.is_ok() {
            p.accepted += 1;
        } else {
            p.rejected += 1;
        }
        match &p.answers[idx] {
            None => p.answers[idx] = Some(answer),
            Some(first) if *first == answer => {}
            Some(_) => p.diverged += 1,
        }
    }
    p.elapsed = start.elapsed();
    crate::alloc::set_counting(false);
    let alloc1 = crate::alloc::counted();
    p.allocs = (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1);
    p.cpu = measure::process_cpu().saturating_sub(cpu0);
    if traced {
        p.spans = rec.into_spans();
    }
    p
}

/// The traced run's timed calls into single layers on the same system:
/// phase 1's `min_procs_probed` per high-density task, phase 2's
/// `partition_first_fit_probed` when FEDCONS reached it, and the LS
/// kernel at every accepted cluster size.
fn layer_calls(
    rec: &mut Recorder,
    p: &mut Phase,
    system: &TaskSystem,
    answer: &Answer,
    root: u64,
    request: u64,
) {
    let mut scratch = AnalysisProbe::default();
    for id in system.high_density_ids() {
        let task = system.task(id);
        let cap = u32::try_from(task.dag().vertex_count())
            .unwrap_or(u32::MAX)
            .max(1);
        let (sizing, span) = rec.time("core.min_procs_probed", Some(root), request, || {
            min_procs_probed(task, cap, PriorityPolicy::ListOrder, &mut scratch)
        });
        std::hint::black_box(sizing);
        p.minprocs_ns += span.nanos();
    }
    let remaining = match answer {
        Ok(schedule) => Some(schedule.shared_processors() as usize),
        Err(FedConsFailure::Partition(f)) => Some(f.processors),
        Err(_) => None,
    };
    if let Some(remaining) = remaining {
        let views: Vec<_> = system
            .low_density_ids()
            .into_iter()
            .map(|id| (id, SequentialView::of(system.task(id))))
            .collect();
        let (partition, span) = rec.time(
            "analysis.partition_first_fit_probed",
            Some(root),
            request,
            || {
                partition_first_fit_probed(
                    &views,
                    remaining,
                    PartitionConfig::approx(),
                    &mut scratch,
                )
            },
        );
        std::hint::black_box(partition.is_ok());
        p.partition_ns += span.nanos();
    }
    if let Ok(schedule) = answer {
        for cluster in schedule.clusters() {
            let dag = system.task(cluster.task).dag();
            let ranks = PriorityPolicy::ListOrder.ranks(dag);
            let ((), span) = rec.time("graham.list_makespan_ranked", Some(root), request, || {
                for _ in 0..LS_REPEATS {
                    std::hint::black_box(list_makespan_ranked(
                        dag,
                        cluster.processors,
                        &ranks,
                        dag.wcets(),
                    ));
                }
            });
            p.ls_ns += span.nanos();
            p.ls_runs += LS_REPEATS;
        }
    }
}

/// Checks every distinct answer against the literal reference.
fn check(corpus: &[TaskSystem], p: &Phase, out: &mut Outcome) {
    out.attempted += p.ops;
    out.succeeded += p.accepted;
    out.rejected += p.rejected;
    if p.diverged > 0 {
        out.refute(vec![format!("{} repeated analyses diverged", p.diverged)]);
    }
    for (system, answer) in corpus.iter().zip(&p.answers) {
        if let Some(answer) = answer {
            out.refute(check::batch_answer(system, PROCESSORS, answer));
        }
    }
}

fn record_settings(out: &mut Outcome, corpus: &[TaskSystem]) {
    out.record_num("processors_m", PROCESSORS);
    out.record_num("corpus_systems", corpus.len());
    out.record_num(
        "corpus_tasks",
        corpus.iter().map(TaskSystem::len).sum::<usize>(),
    );
    out.record_num("warm_systems", WARM_SYSTEMS.min(corpus.len()));
    out.record_num("connections", 0);
    out.record_str("fsync", "none (no server)");
    out.record_num("analysis_pool_width", fedsched_parallel::width());
}

/// Runs batch_fedcons.
///
/// # Errors
///
/// None today; the signature matches the serve workloads.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let setups = if opts.short { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(setups);
    let mut corpus = Vec::new();
    for _ in 0..setups {
        let (c, took) = setup(opts);
        times.push(took.as_secs_f64());
        corpus = c;
    }
    record_settings(&mut out, &corpus);
    out.record_num("setups", setups);
    if opts.trace {
        let ops = (TRACE_OPS_PER_S * opts.seconds.as_secs().max(1) / 2).max(corpus.len() as u64);
        let baseline = phase(&corpus, None, ops, false);
        check(&corpus, &baseline, &mut out);
        let p = phase(&corpus, None, ops, true);
        check(&corpus, &p, &mut out);
        let n = p.ops.max(1) as f64;
        let mean = p.lat.summary().mean_us;
        let minprocs = p.minprocs_ns as f64 / n / 1e3;
        let partition = p.partition_ns as f64 / n / 1e3;
        let unattributed = mean - minprocs - partition;
        out.metric("core.minprocs_us", "us", minprocs);
        out.metric("analysis.partition_us", "us", partition);
        out.metric("unattributed_us", "us", unattributed);
        out.metric("e2e.mean_us", "us", mean);
        out.lines.push(format!(
            "attribution over {} systems (us): core.minprocs_us={minprocs:.3} analysis.partition_us={partition:.3} unattributed_us={unattributed:.3} sum={:.3} system_mean_us={mean:.3}",
            p.ops,
            minprocs + partition + unattributed
        ));
        let base_mean = baseline.lat.summary().mean_us;
        out.metric("trace.overhead_us", "us", mean - base_mean);
        out.lines.push(format!(
            "tracing overhead: traced mean system {mean:.3} us - untraced {base_mean:.3} us = {:.3} us",
            mean - base_mean
        ));
        out.metric(
            "graham.ls_ns_per_run",
            "ns",
            if p.ls_runs > 0 {
                p.ls_ns as f64 / p.ls_runs as f64
            } else {
                0.0
            },
        );
        out.metric("process.allocs_per_op", "count/op", p.allocs.0 as f64 / n);
        out.metric("process.alloc_bytes_per_op", "B/op", p.allocs.1 as f64 / n);
        probe_metrics(&mut out, &AnalysisProbe::default(), &p.probe, n);
        out.record_num("traced_ops", p.ops);
        let path = opts
            .out_dir
            .join(format!("trace-batch_fedcons-seed{}.json", opts.seed));
        match trace::write_chrome(&path, &p.spans) {
            Ok(()) => out.record_str("trace_file", &path.display().to_string()),
            Err(e) => out
                .lines
                .push(format!("could not write {}: {e}", path.display())),
        }
        out.record_num("trace_spans", p.spans.len());
    } else {
        let p = phase(&corpus, Some(opts.seconds), 0, false);
        check(&corpus, &p, &mut out);
        out.end_to_end(&p.lat, p.elapsed, p.cpu, median(&times));
    }
    Ok(out)
}
