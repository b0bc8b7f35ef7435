//! The sporadic DAG task: `τ_i = (G_i, D_i, T_i)`.
//!
//! A [`DagTask`] couples a precedence graph with a relative deadline `D` and
//! a period (minimum inter-arrival separation) `T`. The derived quantities
//! the paper's analysis is built on — `len_i`, `vol_i`, utilization `u_i`,
//! density `δ_i` — are computed once at construction time and cached.

use core::fmt;

use serde::{DeError, Deserialize, Deserializer, Serialize};

use crate::error::TaskBuildError;
use crate::graph::{Chain, Dag};
use crate::rational::Rational;
use crate::time::Duration;

/// Deadline class of a task or task system (paper Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeadlineClass {
    /// `D = T`.
    Implicit,
    /// `D ≤ T` (strictly `D < T`, since `D = T` is reported as implicit).
    Constrained,
    /// `D > T`.
    Arbitrary,
}

impl fmt::Display for DeadlineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeadlineClass::Implicit => "implicit-deadline",
            DeadlineClass::Constrained => "constrained-deadline",
            DeadlineClass::Arbitrary => "arbitrary-deadline",
        };
        f.write_str(s)
    }
}

/// How a federated analysis routes a task (paper Section III): arbitrary
/// deadlines are rejected outright, high-density tasks (`δ ≥ 1`) get
/// dedicated clusters, and low-density tasks (`δ < 1`) are partitioned
/// onto the shared pool.
///
/// This is the single source of truth for the density/deadline routing
/// decision; both batch FEDCONS (`fedsched-core`) and the online admission
/// service (`fedsched-service`) dispatch on it rather than re-deriving the
/// thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskClass {
    /// `D > T` — outside the constrained-deadline model, rejected by every
    /// analysis in this workspace.
    ArbitraryDeadline,
    /// `D ≤ T` and `δ ≥ 1` — needs a dedicated cluster sized by `MINPROCS`.
    HighDensity,
    /// `D ≤ T` and `δ < 1` — a candidate for the shared partitioned-EDF pool.
    LowDensity,
}

impl fmt::Display for TaskClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskClass::ArbitraryDeadline => "arbitrary-deadline",
            TaskClass::HighDensity => "high-density",
            TaskClass::LowDensity => "low-density",
        };
        f.write_str(s)
    }
}

/// A sporadic DAG task `τ_i = (G_i, D_i, T_i)`.
///
/// Invariants enforced at construction:
///
/// * the DAG is non-empty and every vertex WCET is positive;
/// * `D > 0` and `T > 0`.
///
/// Note that `len_i > D_i` (an infeasible task on *any* number of unit-speed
/// processors) is deliberately representable: schedulability analyses must be
/// able to reject such tasks rather than being unable to express them.
///
/// # Examples
///
/// The task of the paper's Figure 1 ships as a constructor:
///
/// ```
/// use fedsched_dag::examples::paper_figure1;
/// use fedsched_dag::rational::Rational;
/// use fedsched_dag::time::Duration;
///
/// let tau1 = paper_figure1();
/// assert_eq!(tau1.longest_chain_length(), Duration::new(6));
/// assert_eq!(tau1.volume(), Duration::new(9));
/// assert_eq!(tau1.density(), Rational::new(9, 16));
/// assert_eq!(tau1.utilization(), Rational::new(9, 20));
/// assert!(tau1.is_low_density());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DagTask {
    dag: Dag,
    deadline: Duration,
    period: Duration,
    // Cached derived quantities.
    volume: Duration,
    longest_chain: Chain,
}

mod wire {
    use serde::Deserialize;

    use crate::graph::{Chain, Dag};
    use crate::time::Duration;

    /// [`super::DagTask`]'s fields as a peer sent them, before any check.
    /// It shares the task's name so decoding errors read the same.
    #[derive(Deserialize)]
    pub(super) struct DagTask {
        pub(super) dag: Dag,
        pub(super) deadline: Duration,
        pub(super) period: Duration,
        pub(super) volume: Duration,
        pub(super) longest_chain: Chain,
    }
}

/// Decoding enforces [`DagTask::new`]'s invariants and recomputes the
/// cached quantities, refusing a task whose `volume` or `longest_chain`
/// (length or witness path) differs from what its graph gives: the
/// analysis routes and packs tasks by them, so a peer must not be able to
/// claim its own. The graph itself is checked by [`Dag`]'s decoder.
impl Deserialize for DagTask {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let sent = wire::DagTask::deserialize(de)?;
        let invalid = |what: &dyn fmt::Display| DeError::custom(format!("invalid DagTask: {what}"));
        // `new` sums the WCETs unchecked; refuse a sum that wraps first.
        let volume = sent
            .dag
            .wcets()
            .iter()
            .try_fold(Duration::ZERO, |sum, &w| sum.checked_add(w))
            .ok_or_else(|| invalid(&"volume overflows"))?;
        if volume != sent.volume {
            return Err(invalid(&"volume disagrees with the WCETs"));
        }
        let task = DagTask::new(sent.dag, sent.deadline, sent.period).map_err(|e| invalid(&e))?;
        if task.longest_chain != sent.longest_chain {
            return Err(invalid(&"longest_chain disagrees with the graph"));
        }
        Ok(task)
    }
}

impl DagTask {
    /// Creates a sporadic DAG task from its graph, relative deadline `D` and
    /// period `T`.
    ///
    /// # Errors
    ///
    /// Returns an error if the deadline or period is zero, the DAG is empty,
    /// or any vertex has zero WCET.
    pub fn new(dag: Dag, deadline: Duration, period: Duration) -> Result<DagTask, TaskBuildError> {
        if deadline.is_zero() {
            return Err(TaskBuildError::ZeroDeadline);
        }
        if period.is_zero() {
            return Err(TaskBuildError::ZeroPeriod);
        }
        if dag.vertex_count() == 0 {
            return Err(TaskBuildError::EmptyDag);
        }
        if let Some(v) = dag.vertices().find(|&v| dag.wcet(v).is_zero()) {
            return Err(TaskBuildError::ZeroWcet { vertex: v });
        }
        let volume = dag.volume();
        let longest_chain = dag.longest_chain();
        Ok(DagTask {
            dag,
            deadline,
            period,
            volume,
            longest_chain,
        })
    }

    /// Convenience constructor for an implicit-deadline task (`D = T`).
    ///
    /// # Errors
    ///
    /// Same as [`DagTask::new`].
    pub fn implicit_deadline(dag: Dag, period: Duration) -> Result<DagTask, TaskBuildError> {
        DagTask::new(dag, period, period)
    }

    /// Convenience constructor for a classic sequential three-parameter
    /// sporadic task `(C, D, T)` — a single-vertex DAG.
    ///
    /// # Errors
    ///
    /// Same as [`DagTask::new`].
    pub fn sequential(
        wcet: Duration,
        deadline: Duration,
        period: Duration,
    ) -> Result<DagTask, TaskBuildError> {
        DagTask::new(Dag::single_vertex(wcet), deadline, period)
    }

    /// The precedence graph `G_i`.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The relative deadline `D_i`.
    #[must_use]
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The period (minimum inter-arrival separation) `T_i`.
    #[must_use]
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Total WCET per dag-job, `vol_i` (cached).
    #[must_use]
    pub fn volume(&self) -> Duration {
        self.volume
    }

    /// Length of the longest chain, `len_i` (cached).
    #[must_use]
    pub fn longest_chain_length(&self) -> Duration {
        self.longest_chain.length
    }

    /// The longest chain itself, with a witnessing vertex path (cached).
    #[must_use]
    pub fn longest_chain(&self) -> &Chain {
        &self.longest_chain
    }

    /// `min(D_i, T_i)` — the density denominator.
    #[must_use]
    pub fn deadline_period_min(&self) -> Duration {
        self.deadline.min(self.period)
    }

    /// Utilization `u_i = vol_i / T_i`.
    #[must_use]
    pub fn utilization(&self) -> Rational {
        Rational::ratio(self.volume, self.period)
    }

    /// Density `δ_i = vol_i / min(D_i, T_i)`.
    #[must_use]
    pub fn density(&self) -> Rational {
        Rational::ratio(self.volume, self.deadline_period_min())
    }

    /// `true` if `u_i ≥ 1` (*high-utilization*, terminology of Li et al.).
    #[must_use]
    pub fn is_high_utilization(&self) -> bool {
        self.utilization() >= Rational::ONE
    }

    /// `true` if `δ_i ≥ 1` (*high-density*, paper Section II).
    ///
    /// Compared in integers as `vol_i ≥ min(D_i, T_i)`, which is `δ_i ≥ 1`
    /// because the constructor rejects a zero deadline or period.
    #[must_use]
    pub fn is_high_density(&self) -> bool {
        self.volume >= self.deadline_period_min()
    }

    /// `true` if `δ_i < 1` (*low-density*).
    #[must_use]
    pub fn is_low_density(&self) -> bool {
        !self.is_high_density()
    }

    /// Deadline class of this task.
    #[must_use]
    pub fn deadline_class(&self) -> DeadlineClass {
        if self.deadline == self.period {
            DeadlineClass::Implicit
        } else if self.deadline < self.period {
            DeadlineClass::Constrained
        } else {
            DeadlineClass::Arbitrary
        }
    }

    /// The federated routing class of this task: the deadline-class check
    /// takes precedence (arbitrary deadlines are outside the model), then
    /// the density threshold `δ ≥ 1` splits dedicated-cluster tasks from
    /// shared-pool candidates.
    #[must_use]
    pub fn classify(&self) -> TaskClass {
        if self.deadline_class() == DeadlineClass::Arbitrary {
            TaskClass::ArbitraryDeadline
        } else if self.is_high_density() {
            TaskClass::HighDensity
        } else {
            TaskClass::LowDensity
        }
    }

    /// Whether the task can meet its deadline on *any* number of unit-speed
    /// processors: `len_i ≤ D_i` (standard necessary feasibility condition).
    #[must_use]
    pub fn is_chain_feasible(&self) -> bool {
        self.longest_chain.length <= self.deadline
    }

    /// The smallest conceivable processor count for the task viewed in
    /// isolation: `⌈vol_i / D_i⌉` for constrained deadlines — any valid
    /// schedule must provide at least this much capacity in a window of
    /// length `D_i`. Equals `⌈δ_i⌉` when `D_i ≤ T_i`.
    #[must_use]
    pub fn min_processors_lower_bound(&self) -> u32 {
        let d = self.deadline_period_min();
        u32::try_from(self.volume.div_ceil(d)).expect("processor bound fits in u32")
    }
}

impl fmt::Display for DagTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DagTask(|V|={}, |E|={}, vol={}, len={}, D={}, T={})",
            self.dag.vertex_count(),
            self.dag.edge_count(),
            self.volume,
            self.longest_chain.length,
            self.deadline,
            self.period
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn chain_task(wcets: &[u64], d: u64, t: u64) -> DagTask {
        let mut b = DagBuilder::new();
        let vs = b.add_vertices(wcets.iter().map(|&w| Duration::new(w)));
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        DagTask::new(b.build().unwrap(), Duration::new(d), Duration::new(t)).unwrap()
    }

    #[test]
    fn cached_quantities() {
        let t = chain_task(&[2, 3, 4], 10, 12);
        assert_eq!(t.volume(), Duration::new(9));
        assert_eq!(t.longest_chain_length(), Duration::new(9));
        assert_eq!(t.longest_chain().vertices.len(), 3);
        assert_eq!(t.deadline_period_min(), Duration::new(10));
    }

    #[test]
    fn utilization_and_density() {
        let t = chain_task(&[2, 3, 4], 10, 12);
        assert_eq!(t.utilization(), Rational::new(9, 12));
        assert_eq!(t.density(), Rational::new(9, 10));
        assert!(t.is_low_density());
        assert!(!t.is_high_utilization());
    }

    #[test]
    fn high_density_boundary_is_inclusive() {
        // δ = 9/9 = 1 is high-density per the paper ("density ≥ 1").
        let t = chain_task(&[9], 9, 20);
        assert_eq!(t.density(), Rational::ONE);
        assert!(t.is_high_density());
        assert!(!t.is_low_density());
    }

    #[test]
    fn deadline_classes() {
        assert_eq!(
            chain_task(&[1], 5, 5).deadline_class(),
            DeadlineClass::Implicit
        );
        assert_eq!(
            chain_task(&[1], 4, 5).deadline_class(),
            DeadlineClass::Constrained
        );
        assert_eq!(
            chain_task(&[1], 6, 5).deadline_class(),
            DeadlineClass::Arbitrary
        );
        assert_eq!(
            DeadlineClass::Constrained.to_string(),
            "constrained-deadline"
        );
    }

    #[test]
    fn classify_routes_by_deadline_class_then_density() {
        // Arbitrary deadline wins even at high density.
        assert_eq!(
            chain_task(&[9], 6, 5).classify(),
            TaskClass::ArbitraryDeadline
        );
        // δ = 9/9 = 1: the boundary is high-density.
        assert_eq!(chain_task(&[9], 9, 20).classify(), TaskClass::HighDensity);
        assert_eq!(chain_task(&[2], 10, 10).classify(), TaskClass::LowDensity);
        assert_eq!(TaskClass::HighDensity.to_string(), "high-density");
    }

    #[test]
    fn chain_feasibility() {
        assert!(chain_task(&[3, 3], 6, 10).is_chain_feasible());
        assert!(!chain_task(&[3, 4], 6, 10).is_chain_feasible());
    }

    #[test]
    fn min_processor_lower_bound() {
        // vol = 9, D = 4 ⇒ at least ⌈9/4⌉ = 3 processors.
        let mut b = DagBuilder::new();
        b.add_vertices([3, 3, 3].map(Duration::new));
        let t = DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        assert_eq!(t.min_processors_lower_bound(), 3);
        assert_eq!(t.density(), Rational::new(9, 4));
        assert_eq!(t.density().ceil(), 3);
    }

    #[test]
    fn constructor_validation() {
        let dag = Dag::single_vertex(Duration::new(1));
        assert_eq!(
            DagTask::new(dag.clone(), Duration::ZERO, Duration::new(5)),
            Err(TaskBuildError::ZeroDeadline)
        );
        assert_eq!(
            DagTask::new(dag.clone(), Duration::new(5), Duration::ZERO),
            Err(TaskBuildError::ZeroPeriod)
        );
        let empty = DagBuilder::new().build().unwrap();
        assert_eq!(
            DagTask::new(empty, Duration::new(5), Duration::new(5)),
            Err(TaskBuildError::EmptyDag)
        );
        let zero_wcet = Dag::single_vertex(Duration::ZERO);
        assert!(matches!(
            DagTask::new(zero_wcet, Duration::new(5), Duration::new(5)),
            Err(TaskBuildError::ZeroWcet { .. })
        ));
    }

    #[test]
    fn sequential_constructor_matches_three_parameter_model() {
        let t = DagTask::sequential(Duration::new(2), Duration::new(8), Duration::new(10)).unwrap();
        assert_eq!(t.volume(), Duration::new(2));
        assert_eq!(t.longest_chain_length(), Duration::new(2));
        assert_eq!(t.dag().vertex_count(), 1);
    }

    #[test]
    fn implicit_constructor() {
        let t = DagTask::implicit_deadline(Dag::single_vertex(Duration::new(2)), Duration::new(4))
            .unwrap();
        assert_eq!(t.deadline_class(), DeadlineClass::Implicit);
        assert_eq!(t.utilization(), t.density());
    }

    #[test]
    fn display_contains_parameters() {
        let t = chain_task(&[2, 3], 7, 9);
        let s = t.to_string();
        assert!(s.contains("vol=5"));
        assert!(s.contains("len=5"));
        assert!(s.contains("D=7"));
        assert!(s.contains("T=9"));
    }

    #[test]
    fn serde_roundtrip() {
        let t = chain_task(&[2, 3, 4], 10, 12);
        let json = serde_json::to_string(&t).unwrap();
        let back: DagTask = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
