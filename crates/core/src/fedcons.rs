//! Algorithm `FEDCONS` — federated scheduling of constrained-deadline
//! sporadic DAG task systems (paper Fig. 2).
//!
//! Phase 1 dedicates processors to high-density tasks via
//! [`crate::minprocs::min_procs`]; phase 2 partitions the low-density tasks
//! onto the remaining processors via the Baruah–Fisher first-fit. On
//! success the admission produces a complete run-time configuration: one
//! frozen template per dedicated cluster, plus an EDF task partition for the
//! shared pool.
//!
//! Phase 1 is the literal Fig. 2 loop: each high-density task in id order
//! is sized by `MINPROCS(τ_i, m_r)` against the processors still
//! unassigned, and the first task that does not fit ends the analysis.
//! Every sizing bottoms out in the List-Scheduling kernel, which runs on
//! the calling thread's reusable
//! [`LsWorkspace`](fedsched_graham::workspace::LsWorkspace) — across the
//! whole batch of high-density tasks, steady-state analysis performs one
//! allocation per frozen template and none inside the kernel loop or for
//! a candidate that misses its deadline.

use core::fmt;
use std::time::Instant;

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::partition::{
    partition_first_fit_probed, Partition, PartitionConfig, PartitionFailure,
};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_dag::system::{TaskId, TaskSystem};
use fedsched_dag::task::{DeadlineClass, TaskClass};
use fedsched_graham::list::PriorityPolicy;
use fedsched_graham::schedule::TemplateSchedule;
use serde::{Deserialize, Serialize};

use crate::minprocs::min_procs_probed;

/// Options for [`fedcons`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FedConsConfig {
    /// Priority list handed to Graham's LS when building templates.
    pub policy: PriorityPolicy,
    /// Options for the low-density partitioning phase.
    pub partition: PartitionConfig,
}

/// One dedicated cluster: a high-density task with exclusive ownership of a
/// contiguous range of processors and its frozen template schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedicatedCluster {
    /// The high-density task served by this cluster.
    pub task: TaskId,
    /// First global processor index of the cluster.
    pub first_processor: u32,
    /// Number of processors in the cluster (`m_i` in Fig. 2).
    pub processors: u32,
    /// The lookup-table schedule `σ_i` replayed on every dag-job release.
    pub template: TemplateSchedule,
}

impl DedicatedCluster {
    /// Global indices of this cluster's processors.
    #[must_use]
    pub fn processor_range(&self) -> core::ops::Range<u32> {
        self.first_processor..self.first_processor + self.processors
    }
}

/// The run-time configuration produced by a successful FEDCONS admission.
///
/// Processors `0 .. shared_first` are owned by dedicated clusters (in
/// cluster order); processors `shared_first .. total` form the shared pool,
/// each running preemptive uniprocessor EDF over its partition slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederatedSchedule {
    total_processors: u32,
    clusters: Vec<DedicatedCluster>,
    shared_first: u32,
    partition: Partition,
    low_tasks: Vec<TaskId>,
}

impl FederatedSchedule {
    /// Total processors of the platform.
    #[must_use]
    pub fn total_processors(&self) -> u32 {
        self.total_processors
    }

    /// The dedicated clusters, one per high-density task, in assignment
    /// order.
    #[must_use]
    pub fn clusters(&self) -> &[DedicatedCluster] {
        &self.clusters
    }

    /// Index of the first shared processor; equals the number of dedicated
    /// processors.
    #[must_use]
    pub fn shared_first(&self) -> u32 {
        self.shared_first
    }

    /// Number of processors in the shared pool.
    #[must_use]
    pub fn shared_processors(&self) -> u32 {
        self.total_processors - self.shared_first
    }

    /// The partition of low-density tasks over the shared pool; slot `k`
    /// corresponds to global processor `shared_first + k`.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Ids of the low-density tasks, in the order they were offered to the
    /// partitioner.
    #[must_use]
    pub fn low_tasks(&self) -> &[TaskId] {
        &self.low_tasks
    }

    /// The cluster serving `task`, if it is a high-density task.
    #[must_use]
    pub fn cluster_of(&self, task: TaskId) -> Option<&DedicatedCluster> {
        self.clusters.iter().find(|c| c.task == task)
    }

    /// The global shared-processor index hosting `task`, if it is a
    /// low-density task.
    #[must_use]
    pub fn shared_processor_of(&self, task: TaskId) -> Option<u32> {
        self.partition
            .processor_of(task)
            .map(|k| self.shared_first + k as u32)
    }

    /// Processors that belong to no cluster and host no task.
    #[must_use]
    pub fn idle_processors(&self) -> u32 {
        let used_shared = self.partition.used_processors() as u32;
        self.shared_processors() - used_shared
    }
}

impl fmt::Display for FederatedSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FederatedSchedule on {} processors ({} dedicated, {} shared)",
            self.total_processors,
            self.shared_first,
            self.shared_processors()
        )?;
        for c in &self.clusters {
            writeln!(
                f,
                "  cluster {}..{} -> {} (makespan {})",
                c.first_processor,
                c.first_processor + c.processors,
                c.task,
                c.template.makespan()
            )?;
        }
        for (k, tasks) in self.partition.iter() {
            if !tasks.is_empty() {
                let ids: Vec<String> = tasks.iter().map(ToString::to_string).collect();
                writeln!(
                    f,
                    "  shared P{}: {}",
                    self.shared_first + k as u32,
                    ids.join(", ")
                )?;
            }
        }
        Ok(())
    }
}

/// Why FEDCONS declined a task system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedConsFailure {
    /// The system contains a task with `D > T`; the algorithm is defined for
    /// constrained-deadline systems only (the paper's Section V names the
    /// arbitrary-deadline case as open).
    ArbitraryDeadline {
        /// The offending task.
        task: TaskId,
    },
    /// `MINPROCS` found no cluster size within the remaining processors for
    /// a high-density task (Fig. 2 line 4).
    HighDensityTask {
        /// The task that could not be sized.
        task: TaskId,
        /// Processors that were still unassigned.
        remaining: u32,
    },
    /// The low-density partitioning phase failed (Fig. 4 line 6).
    Partition(PartitionFailure),
}

impl fmt::Display for FedConsFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedConsFailure::ArbitraryDeadline { task } => {
                write!(f, "task {task} has deadline greater than period")
            }
            FedConsFailure::HighDensityTask { task, remaining } => write!(
                f,
                "high-density task {task} fits on no cluster within {remaining} remaining processors"
            ),
            FedConsFailure::Partition(p) => write!(f, "partitioning failed: {p}"),
        }
    }
}

impl std::error::Error for FedConsFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedConsFailure::Partition(p) => Some(p),
            _ => None,
        }
    }
}

impl From<PartitionFailure> for FedConsFailure {
    fn from(p: PartitionFailure) -> Self {
        FedConsFailure::Partition(p)
    }
}

/// `FEDCONS(τ, m)` (paper Fig. 2): admits a constrained-deadline sporadic
/// DAG task system onto `m` unit-speed processors, or explains why not.
///
/// High-density tasks are processed in task-id order (the paper fixes no
/// order); each receives the minimal LS cluster within the processors still
/// unassigned via `MINPROCS` and its template `σ_i`, and the first task
/// with no such cluster fails the system. The low-density remainder is
/// partitioned with the deadline-ordered first-fit of Fig. 4 onto the
/// leftover processors.
///
/// # Errors
///
/// * [`FedConsFailure::ArbitraryDeadline`] if any task has `D > T`;
/// * [`FedConsFailure::HighDensityTask`] if phase 1 runs out of processors;
/// * [`FedConsFailure::Partition`] if phase 2 cannot place some task.
///
/// # Examples
///
/// ```
/// use fedsched_core::fedcons::{fedcons, FedConsConfig};
/// use fedsched_dag::examples::paper_figure1;
/// use fedsched_dag::system::TaskSystem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system: TaskSystem = [paper_figure1()].into_iter().collect();
/// let schedule = fedcons(&system, 2, FedConsConfig::default())?;
/// assert_eq!(schedule.shared_first(), 0); // τ₁ is low-density: no cluster
/// assert_eq!(schedule.partition().used_processors(), 1);
/// # Ok(())
/// # }
/// ```
pub fn fedcons(
    system: &TaskSystem,
    m: u32,
    config: FedConsConfig,
) -> Result<FederatedSchedule, FedConsFailure> {
    let mut scratch = AnalysisProbe::default();
    fedcons_probed(system, m, config, &mut scratch)
}

/// [`fedcons`] with cost accounting: records every `MINPROCS`
/// List-Scheduling simulation, every first-fit admission test, and the
/// wall time of each phase (`sizing_nanos` for phase 1, `partition_nanos`
/// for phase 2) in `probe`.
///
/// The uninstrumented [`fedcons`] is a wrapper over this function with a
/// discarded probe, so both produce identical schedules.
///
/// # Errors
///
/// Same as [`fedcons`].
pub fn fedcons_probed(
    system: &TaskSystem,
    m: u32,
    config: FedConsConfig,
    probe: &mut AnalysisProbe,
) -> Result<FederatedSchedule, FedConsFailure> {
    // The routing decision (reject arbitrary deadlines, dedicate clusters
    // to δ ≥ 1, partition the rest) is owned by `DagTask::classify`.
    if let Some((id, _)) = system
        .iter()
        .find(|(_, t)| t.classify() == TaskClass::ArbitraryDeadline)
    {
        return Err(FedConsFailure::ArbitraryDeadline { task: id });
    }

    let mut remaining = m; // m_r in Fig. 2
    let mut next_processor = 0u32;
    let mut clusters = Vec::new();

    // Phase 1 (Fig. 2): size each high-density task in id order on the
    // processors still unassigned, and fail at the first that does not fit.
    let phase1 = Instant::now();
    for (id, task) in system.iter().filter(|(_, t)| t.is_high_density()) {
        let Some(r) = min_procs_probed(task, remaining, config.policy, probe) else {
            probe.sizing_nanos = probe.sizing_nanos.saturating_add(elapsed_nanos(phase1));
            return Err(FedConsFailure::HighDensityTask {
                task: id,
                remaining,
            });
        };
        clusters.push(DedicatedCluster {
            task: id,
            first_processor: next_processor,
            processors: r.processors,
            template: r.template,
        });
        next_processor += r.processors;
        remaining -= r.processors;
    }
    probe.sizing_nanos = probe.sizing_nanos.saturating_add(elapsed_nanos(phase1));

    // Phase 2: partition the low-density tasks on the remaining processors.
    let phase2 = Instant::now();
    let low_tasks = system.low_density_ids();
    let views: Vec<(TaskId, SequentialView)> = low_tasks
        .iter()
        .map(|&id| (id, SequentialView::of(system.task(id))))
        .collect();
    let partition = partition_first_fit_probed(&views, remaining as usize, config.partition, probe);
    probe.partition_nanos = probe.partition_nanos.saturating_add(elapsed_nanos(phase2));
    let partition = partition?;

    Ok(FederatedSchedule {
        total_processors: m,
        clusters,
        shared_first: next_processor,
        partition,
        low_tasks,
    })
}

/// Nanoseconds since `start`, saturated into a `u64`.
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A *conservative* extension of FEDCONS to arbitrary-deadline systems: each
/// task with `D > T` is tightened to `D' = T` and the constrained-deadline
/// algorithm is run on the tightened system.
///
/// The paper names arbitrary deadlines as an open problem (Section V) — a
/// dag-job may then overlap later releases, so LS templates stop working.
/// Tightening restores `D ≤ T` and is **sound**: every guarantee is for an
/// *earlier* deadline, so the original deadlines are met a fortiori, and no
/// two dag-jobs of a cluster task ever overlap. It is of course pessimistic:
/// systems that genuinely need the `(T, D]` slack are rejected.
///
/// Systems that are already constrained pass through unchanged.
///
/// # Errors
///
/// Same as [`fedcons`], raised against the tightened system (an
/// [`FedConsFailure::ArbitraryDeadline`] can no longer occur).
pub fn fedcons_constraining(
    system: &TaskSystem,
    m: u32,
    config: FedConsConfig,
) -> Result<FederatedSchedule, FedConsFailure> {
    let mut scratch = AnalysisProbe::default();
    fedcons_constraining_probed(system, m, config, &mut scratch)
}

/// [`fedcons_constraining`] with cost accounting (see [`fedcons_probed`]).
///
/// # Errors
///
/// Same as [`fedcons_constraining`].
pub fn fedcons_constraining_probed(
    system: &TaskSystem,
    m: u32,
    config: FedConsConfig,
    probe: &mut AnalysisProbe,
) -> Result<FederatedSchedule, FedConsFailure> {
    if system.deadline_class() != DeadlineClass::Arbitrary {
        return fedcons_probed(system, m, config, probe);
    }
    let tightened: TaskSystem = system
        .iter()
        .map(|(_, t)| {
            fedsched_dag::task::DagTask::new(
                t.dag().clone(),
                t.deadline().min(t.period()),
                t.period(),
            )
            .expect("tightening preserves validity")
        })
        .collect();
    fedcons_probed(&tightened, m, config, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::examples::{paper_example2, paper_figure1};
    use fedsched_dag::graph::DagBuilder;
    use fedsched_dag::task::DagTask;
    use fedsched_dag::time::Duration;

    fn parallel_task(k: usize, w: u64, d: u64, t: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_vertices(std::iter::repeat_n(Duration::new(w), k));
        DagTask::new(b.build().unwrap(), Duration::new(d), Duration::new(t)).unwrap()
    }

    fn seq(c: u64, d: u64, t: u64) -> DagTask {
        DagTask::sequential(Duration::new(c), Duration::new(d), Duration::new(t)).unwrap()
    }

    #[test]
    fn probe_counts_match_hand_derivation_on_paper_examples() {
        // Figure 1: one low-density task on one processor. Phase 1 sizes
        // nothing (no LS runs); phase 2 performs exactly one fits() call,
        // against an empty processor (zero DBF* evaluations).
        let system: TaskSystem = [paper_figure1()].into_iter().collect();
        let mut probe = AnalysisProbe::default();
        let s = fedcons_probed(&system, 1, FedConsConfig::default(), &mut probe).unwrap();
        assert_eq!(s.partition().used_processors(), 1);
        assert_eq!(probe.ls_runs, 0);
        assert_eq!(probe.makespan_evaluations, 0);
        assert_eq!(probe.fits_calls, 1);
        assert_eq!(probe.dbf_approx_evals, 0);
        assert_eq!(probe.ls_runs_pruned, 0, "no MINPROCS search ran at all");
        assert_eq!(
            probe.par_tasks_dispatched, 0,
            "phase 1 had nothing to fan out"
        );

        // Example 2 with n = 6: every task has δ = 1, so each is sized by
        // MINPROCS at its lower bound μ = 1 on the first LS attempt — n LS
        // runs, n makespan evaluations, and no partitioning work at all.
        // Each task is a single vertex (vol = len = 1), so its window is
        // capped at one candidate by the vertex count. The k-th task (from
        // 0) is sized against m_r = n − k processors, so the bracket prunes
        // the n − k − 1 candidates of [1, n − k] above it: 5 + 4 + 3 + 2 +
        // 1 + 0 = 15 in all. Phase 1 runs on the calling thread.
        let n = 6u32;
        let system = paper_example2(n);
        let mut probe = AnalysisProbe::default();
        let s = fedcons_probed(&system, n, FedConsConfig::default(), &mut probe).unwrap();
        assert_eq!(s.clusters().len(), n as usize);
        assert_eq!(probe.ls_runs, u64::from(n));
        assert_eq!(probe.makespan_evaluations, u64::from(n));
        assert_eq!(probe.fits_calls, 0);
        assert_eq!(probe.dbf_approx_evals, 0);
        assert_eq!(probe.ls_runs_pruned, 15, "5 + 4 + 3 + 2 + 1 + 0");
        assert_eq!(probe.par_tasks_dispatched, 0, "phase 1 never fans out");
    }

    #[test]
    fn probed_and_unprobed_fedcons_agree_exactly() {
        let system: TaskSystem = [parallel_task(6, 1, 2, 10), seq(1, 4, 8), seq(2, 6, 12)]
            .into_iter()
            .collect();
        let direct = fedcons(&system, 5, FedConsConfig::default()).unwrap();
        let mut probe = AnalysisProbe::default();
        let probed = fedcons_probed(&system, 5, FedConsConfig::default(), &mut probe).unwrap();
        assert_eq!(direct, probed);
        // Wall time is recorded for both phases of a successful run.
        assert!(probe.sizing_nanos > 0 || probe.partition_nanos > 0);
    }

    #[test]
    fn mixed_system_gets_clusters_and_partition() {
        // One high-density parallel task (6 unit jobs, D=2 ⇒ 3 procs) and
        // two low-density sequential tasks.
        let system: TaskSystem = [parallel_task(6, 1, 2, 10), seq(1, 4, 8), seq(2, 6, 12)]
            .into_iter()
            .collect();
        let s = fedcons(&system, 5, FedConsConfig::default()).unwrap();
        assert_eq!(s.clusters().len(), 1);
        assert_eq!(s.clusters()[0].processors, 3);
        assert_eq!(s.shared_first(), 3);
        assert_eq!(s.shared_processors(), 2);
        assert_eq!(
            s.cluster_of(TaskId::from_index(0)).unwrap().task,
            TaskId::from_index(0)
        );
        assert!(s.shared_processor_of(TaskId::from_index(1)).is_some());
        assert!(s.shared_processor_of(TaskId::from_index(0)).is_none());
        // Both low tasks fit on one shared processor here.
        assert_eq!(s.idle_processors(), 1);
    }

    #[test]
    fn figure1_task_alone_needs_one_processor() {
        let system: TaskSystem = [paper_figure1()].into_iter().collect();
        let s = fedcons(&system, 1, FedConsConfig::default()).unwrap();
        assert!(s.clusters().is_empty());
        assert_eq!(s.partition().used_processors(), 1);
    }

    #[test]
    fn rejects_arbitrary_deadline() {
        let system: TaskSystem = [seq(1, 10, 5)].into_iter().collect();
        assert!(matches!(
            fedcons(&system, 4, FedConsConfig::default()),
            Err(FedConsFailure::ArbitraryDeadline { .. })
        ));
    }

    #[test]
    fn fails_when_high_density_exhausts_processors() {
        let system: TaskSystem = [parallel_task(6, 1, 2, 10)].into_iter().collect();
        let e = fedcons(&system, 2, FedConsConfig::default()).unwrap_err();
        assert!(matches!(
            e,
            FedConsFailure::HighDensityTask { remaining: 2, .. }
        ));
        assert!(e.to_string().contains("2 remaining"));
    }

    #[test]
    fn fails_when_partition_runs_out() {
        // Three nearly-full low-density tasks, one shared processor.
        let system: TaskSystem = [seq(7, 8, 16), seq(7, 8, 16), seq(7, 8, 16)]
            .into_iter()
            .collect();
        let e = fedcons(&system, 1, FedConsConfig::default()).unwrap_err();
        assert!(matches!(e, FedConsFailure::Partition(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn example2_needs_one_processor_per_task() {
        // Example 2 tasks are *high-density* (δ = 1 each): every task gets
        // its own cluster, so FEDCONS needs exactly n processors.
        let n = 6;
        let system = paper_example2(n);
        let s = fedcons(&system, n, FedConsConfig::default()).unwrap();
        assert_eq!(s.clusters().len(), n as usize);
        assert_eq!(s.shared_processors(), 0);
        assert!(fedcons(&system, n - 1, FedConsConfig::default()).is_err());
    }

    #[test]
    fn clusters_occupy_disjoint_prefix() {
        let system: TaskSystem = [
            parallel_task(4, 1, 2, 4),
            parallel_task(6, 1, 3, 6),
            seq(1, 5, 10),
        ]
        .into_iter()
        .collect();
        let s = fedcons(&system, 6, FedConsConfig::default()).unwrap();
        let mut covered = Vec::new();
        for c in s.clusters() {
            for p in c.processor_range() {
                assert!(!covered.contains(&p), "processor {p} double-assigned");
                covered.push(p);
            }
        }
        assert_eq!(covered.len() as u32, s.shared_first());
    }

    #[test]
    fn display_mentions_clusters_and_partition() {
        let system: TaskSystem = [parallel_task(4, 1, 2, 4), seq(1, 5, 10)]
            .into_iter()
            .collect();
        let s = fedcons(&system, 4, FedConsConfig::default()).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("dedicated"));
        assert!(txt.contains("cluster"));
        assert!(txt.contains("shared"));
    }

    #[test]
    fn empty_system_admits_on_zero_processors() {
        let s = fedcons(&TaskSystem::new(), 0, FedConsConfig::default()).unwrap();
        assert_eq!(s.total_processors(), 0);
        assert_eq!(s.idle_processors(), 0);
    }
}

#[cfg(test)]
mod constraining_tests {
    use super::*;
    use fedsched_dag::task::DagTask;
    use fedsched_dag::time::Duration;

    fn seq(c: u64, d: u64, t: u64) -> DagTask {
        DagTask::sequential(Duration::new(c), Duration::new(d), Duration::new(t)).unwrap()
    }

    #[test]
    fn passes_through_constrained_systems() {
        let system: TaskSystem = [seq(1, 4, 8), seq(2, 6, 6)].into_iter().collect();
        let a = fedcons(&system, 2, FedConsConfig::default()).unwrap();
        let b = fedcons_constraining(&system, 2, FedConsConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tightens_arbitrary_deadlines_soundly() {
        // D = 12 > T = 8: tightened to D' = 8, which still fits (C = 4).
        let system: TaskSystem = [seq(4, 12, 8)].into_iter().collect();
        let s = fedcons_constraining(&system, 1, FedConsConfig::default()).unwrap();
        assert_eq!(s.partition().used_processors(), 1);
        // Plain FEDCONS refuses the same system outright.
        assert!(matches!(
            fedcons(&system, 1, FedConsConfig::default()),
            Err(FedConsFailure::ArbitraryDeadline { .. })
        ));
    }

    #[test]
    fn tightening_is_pessimistic_by_design() {
        // C = 7, D = 14, T = 8: feasible on one processor with the real
        // deadlines (u = 7/8), but the tightened D' = 8 < ... C = 7 ≤ 8
        // still fits. Make it actually lose: C = 7, T = 8, D = 20 with a
        // second task C = 2, D = 3, T = 8: tightened demand at 8 is
        // 7 + 2 > 8 ⇒ rejected, even though with D = 20 slack exists.
        let system: TaskSystem = [seq(7, 20, 8), seq(2, 3, 8)].into_iter().collect();
        assert!(fedcons_constraining(&system, 1, FedConsConfig::default()).is_err());
        // The rejection is the documented price of soundness; two
        // processors recover it.
        assert!(fedcons_constraining(&system, 2, FedConsConfig::default()).is_ok());
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use fedsched_dag::graph::DagBuilder;
    use fedsched_dag::task::DagTask;
    use fedsched_dag::time::Duration;

    #[test]
    fn federated_schedule_roundtrips_through_json() {
        let mut b = DagBuilder::new();
        b.add_vertices([1, 1, 1, 1].map(Duration::new));
        let wide = DagTask::new(b.build().unwrap(), Duration::new(2), Duration::new(4)).unwrap();
        let light =
            DagTask::sequential(Duration::new(1), Duration::new(5), Duration::new(10)).unwrap();
        let system: TaskSystem = [wide, light].into_iter().collect();
        let schedule = fedcons(&system, 3, FedConsConfig::default()).unwrap();
        let json = serde_json::to_string(&schedule).unwrap();
        let back: FederatedSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(schedule, back);
        // The deserialized artifact is still usable for dispatch decisions.
        assert_eq!(back.clusters().len(), 1);
        assert_eq!(back.shared_processor_of(TaskId::from_index(1)), Some(2));
    }
}
