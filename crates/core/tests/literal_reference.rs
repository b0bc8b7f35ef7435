//! Property tests pinning FEDCONS and MINPROCS to the paper's literal
//! algorithms:
//!
//! * **Fig. 2:** the high-density tasks in id order, each sized against
//!   the processors still unassigned, failing at the first that does not
//!   fit;
//! * **Fig. 3:** the unpruned sweep from `⌈δ⌉` upward, one fresh
//!   `list_schedule_with` per candidate, stopping at the first that meets
//!   the deadline;
//! * **Fig. 4:** the deadline-ordered first fit of the low-density tasks
//!   (`partition_first_fit`, itself pinned to a literal `DBF*` sum by the
//!   analysis crate's property tests).
//!
//! The engine must return the reference's schedule or failure, and its
//! probe must count exactly the LS runs the reference makes, under every
//! priority policy. The Graham bracket may skip only the candidates above
//! it, and those are what `ls_runs_pruned` counts.

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::partition::{partition_first_fit, Partition};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::fedcons::{
    fedcons_probed, DedicatedCluster, FedConsConfig, FedConsFailure, FederatedSchedule,
};
use fedsched_core::minprocs::{min_procs_fits_probed, min_procs_probed, MinProcsResult};
use fedsched_dag::system::{TaskId, TaskSystem};
use fedsched_dag::task::DagTask;
use fedsched_gen::{DeadlineTightness, Span, SystemConfig, Topology, WcetRange};
use fedsched_graham::list::{graham_bracket, list_schedule_with, PriorityPolicy};
use proptest::prelude::*;

const POLICIES: [PriorityPolicy; 3] = [
    PriorityPolicy::ListOrder,
    PriorityPolicy::CriticalPathFirst,
    PriorityPolicy::LongestWcetFirst,
];

/// A generated constrained-deadline system: mixed densities, some tasks
/// high-density (clusters), some low (partitioning), occasionally
/// unschedulable — failure paths must match the reference too.
fn arb_system() -> impl Strategy<Value = TaskSystem> {
    (any::<u64>(), 1usize..=6, 1.0f64..6.0).prop_map(|(seed, n_tasks, utilization)| {
        let config = SystemConfig::new(n_tasks, utilization)
            .with_topology(Topology::ErdosRenyi {
                vertices: Span::new(2, 12),
                edge_probability: 0.2,
            })
            .with_wcet(WcetRange::new(1, 12))
            .with_tightness(DeadlineTightness::new(0.6, 1.0));
        // The generator can decline a (seed, utilization) draw; walk the
        // seed deterministically until it accepts.
        (0u64..256)
            .find_map(|k| config.generate_seeded(seed.wrapping_add(k)))
            .expect("some nearby seed admits the configuration")
    })
}

/// The unpruned Fig. 3 sweep over `[⌈δ⌉, available]` and the number of LS
/// runs it makes. A task whose longest chain misses its deadline fails
/// before any run, as MINPROCS documents.
fn literal_sweep(
    task: &DagTask,
    available: u32,
    policy: PriorityPolicy,
) -> (Option<MinProcsResult>, u64) {
    if !task.is_chain_feasible() {
        return (None, 0);
    }
    let mut runs = 0;
    for mu in task.min_processors_lower_bound().max(1)..=available {
        runs += 1;
        let template = list_schedule_with(task.dag(), mu, policy);
        if template.makespan() <= task.deadline() {
            let sizing = MinProcsResult {
                processors: mu,
                template,
            };
            return (Some(sizing), runs);
        }
    }
    (None, runs)
}

/// The top of the bound-guided window: `min(graham_bracket, vertex count)`,
/// never below `⌈δ⌉`. LS is guaranteed to meet the deadline there.
fn certified_cap(task: &DagTask) -> u32 {
    let lo = task.min_processors_lower_bound().max(1);
    let vertices = task.dag().vertex_count() as u32;
    graham_bracket(task.dag(), task.deadline())
        .map_or(vertices, |bracket| bracket.min(vertices))
        .max(lo)
}

/// The candidates of `[⌈δ⌉, available]` above the certified cap: the ones
/// a sizing may skip without an LS run.
fn literal_pruned(task: &DagTask, available: u32) -> u64 {
    let lo = task.min_processors_lower_bound().max(1);
    if !task.is_chain_feasible() || lo > available {
        return 0;
    }
    u64::from(available.saturating_sub(certified_cap(task)))
}

/// The parts of a schedule the reference reproduces.
type Parts = (Vec<DedicatedCluster>, u32, Partition, Vec<TaskId>);

fn parts(schedule: &FederatedSchedule) -> Parts {
    (
        schedule.clusters().to_vec(),
        schedule.shared_first(),
        schedule.partition().clone(),
        schedule.low_tasks().to_vec(),
    )
}

/// What the literal Fig. 2 loop produces, and the LS runs and pruned
/// candidates its sizings account for.
struct Reference {
    outcome: Result<Parts, FedConsFailure>,
    ls_runs: u64,
    pruned: u64,
}

/// The literal Fig. 2 loop over [`literal_sweep`], then the Fig. 4 first
/// fit on the processors left.
fn literal_fedcons(system: &TaskSystem, m: u32, config: FedConsConfig) -> Reference {
    let (mut ls_runs, mut pruned) = (0, 0);
    let mut remaining = m;
    let mut clusters = Vec::new();
    for id in system.high_density_ids() {
        let task = system.task(id);
        let (sizing, runs) = literal_sweep(task, remaining, config.policy);
        ls_runs += runs;
        pruned += literal_pruned(task, remaining);
        let Some(sizing) = sizing else {
            let outcome = Err(FedConsFailure::HighDensityTask {
                task: id,
                remaining,
            });
            return Reference {
                outcome,
                ls_runs,
                pruned,
            };
        };
        clusters.push(DedicatedCluster {
            task: id,
            first_processor: m - remaining,
            processors: sizing.processors,
            template: sizing.template,
        });
        remaining -= sizing.processors;
    }
    let low_tasks = system.low_density_ids();
    let views: Vec<(TaskId, SequentialView)> = low_tasks
        .iter()
        .map(|&id| (id, SequentialView::of(system.task(id))))
        .collect();
    let outcome = partition_first_fit(&views, remaining as usize, config.partition)
        .map(|partition| (clusters, m - remaining, partition, low_tasks))
        .map_err(FedConsFailure::Partition);
    Reference {
        outcome,
        ls_runs,
        pruned,
    }
}

proptest! {
    /// FEDCONS: the reference's verdict, clusters, templates, partition or
    /// failure, its LS-run count and its pruned candidates, under every
    /// priority policy. Nothing fans out.
    #[test]
    fn fedcons_matches_the_literal_algorithm(system in arb_system(), m in 1u32..=24) {
        for policy in POLICIES {
            let config = FedConsConfig {
                policy,
                ..FedConsConfig::default()
            };
            let reference = literal_fedcons(&system, m, config);
            let mut probe = AnalysisProbe::default();
            let outcome = fedcons_probed(&system, m, config, &mut probe);
            prop_assert_eq!(
                outcome.as_ref().map(parts).map_err(Clone::clone),
                reference.outcome,
                "{:?}",
                policy
            );
            if let Ok(schedule) = &outcome {
                prop_assert_eq!(schedule.total_processors(), m);
            }
            prop_assert_eq!(probe.ls_runs, reference.ls_runs, "{:?}", policy);
            prop_assert_eq!(probe.makespan_evaluations, reference.ls_runs);
            prop_assert_eq!(probe.ls_runs_pruned, reference.pruned, "{:?}", policy);
            prop_assert_eq!(probe.par_tasks_dispatched, 0);
        }
    }

    /// MINPROCS: the reference's sizing and template, its LS-run count and
    /// the candidates above the bracket as pruned. The decision entry point
    /// agrees with the reference's verdict; it runs no LS when the bracket
    /// certifies a pass within `available`, and the reference's runs
    /// otherwise.
    #[test]
    fn minprocs_matches_the_literal_sweep(system in arb_system(), available in 0u32..=16) {
        for (_, task) in system.iter() {
            for policy in POLICIES {
                let (reference, runs) = literal_sweep(task, available, policy);
                let pruned = literal_pruned(task, available);

                let mut probe = AnalysisProbe::default();
                let sizing = min_procs_probed(task, available, policy, &mut probe);
                prop_assert_eq!(&sizing, &reference, "{:?}", policy);
                prop_assert_eq!(probe.ls_runs, runs, "{:?}", policy);
                prop_assert_eq!(probe.makespan_evaluations, runs);
                prop_assert_eq!(probe.ls_runs_pruned, pruned, "{:?}", policy);
                prop_assert_eq!(probe.par_tasks_dispatched, 0);

                let mut probe = AnalysisProbe::default();
                let fits = min_procs_fits_probed(task, available, policy, &mut probe);
                prop_assert_eq!(fits, reference.is_some(), "{:?}", policy);
                let lo = task.min_processors_lower_bound().max(1);
                let certified =
                    task.is_chain_feasible() && lo <= available && certified_cap(task) <= available;
                if certified {
                    prop_assert_eq!(probe.ls_runs, 0, "certificate accept");
                    prop_assert_eq!(probe.ls_runs_pruned, u64::from(available - lo) + 1);
                } else {
                    prop_assert_eq!(probe.ls_runs, runs, "{:?}", policy);
                    prop_assert_eq!(probe.ls_runs_pruned, 0);
                }
            }
        }
    }
}
