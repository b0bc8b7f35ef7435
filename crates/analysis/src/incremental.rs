//! Incremental per-processor partition state for online admission.
//!
//! [`partition_first_fit`](crate::partition::partition_first_fit) answers
//! the *batch* question: given all low-density tasks up front, does the
//! deadline-ordered first-fit place every one of them? An online admission
//! server has to answer the same question one task at a time, against a
//! shared-processor bank whose resident sets evolve as tasks come and go.
//!
//! This module factors the per-processor bookkeeping out of the batch
//! partitioner into two reusable pieces:
//!
//! * [`ProcessorState`] — one shared processor's resident task views plus
//!   the exact `DBF*` demand line of them, with the same admission
//!   condition ([`fits`](crate::partition::fits)) the batch partitioner
//!   applies;
//! * [`SharedPool`] — an ordered bank of [`ProcessorState`]s with the
//!   first-fit placement rule over it.
//!
//! The batch partitioner is itself implemented on top of [`SharedPool`], so
//! an incremental caller that replays placements through this module is
//! guaranteed to apply bit-for-bit the same admission test as a batch
//! re-analysis — the property the `fedsched-service` consistency oracle
//! checks end to end.

use fedsched_dag::rational::Rational;
use fedsched_dag::time::Duration;

use crate::dbf::{DemandLine, SequentialView};
use crate::partition::{
    approx_dbf_fits_probed, fits_probed, Candidate, PartitionConfig, PartitionTest,
};
use crate::probe::AnalysisProbe;

/// One shared processor: the sequential views resident on it, the exact
/// `DBF*` demand line of all of them, and their latest deadline. Past
/// that deadline the line gives `t − Σ_j DBF*(τ_j, t) = t·(1 − Σ u_j) +
/// Σ u_j·(D_j − T_j)` from two running sums.
///
/// Fig. 4 places tasks in deadline order, so a candidate's deadline is
/// never earlier than a resident's and the `DBF*` demand at it is read off
/// the line in constant time. A candidate with an earlier deadline than
/// some resident (possible only through out-of-order [`Self::place`]) gets
/// the line folded over the residents due by its deadline instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorState {
    resident: Vec<SequentialView>,
    line: DemandLine,
    latest_deadline: Duration,
}

impl ProcessorState {
    /// An empty processor.
    #[must_use]
    pub fn new() -> ProcessorState {
        ProcessorState::default()
    }

    /// The views currently resident, in placement order.
    #[must_use]
    pub fn resident(&self) -> &[SequentialView] {
        &self.resident
    }

    /// Sum of the resident utilizations.
    #[must_use]
    pub fn utilization(&self) -> Rational {
        Rational::ONE - self.line.headroom()
    }

    /// Number of resident tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no task is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether `candidate` passes the configured admission test against the
    /// current resident set — exactly [`fits`](crate::partition::fits).
    #[must_use]
    pub fn can_accept(&self, candidate: &SequentialView, config: PartitionConfig) -> bool {
        let mut scratch = AnalysisProbe::default();
        self.can_accept_probed(candidate, config, &mut scratch)
    }

    /// [`Self::can_accept`] with cost accounting — exactly
    /// [`fits_probed`].
    #[must_use]
    pub fn can_accept_probed(
        &self,
        candidate: &SequentialView,
        config: PartitionConfig,
        probe: &mut AnalysisProbe,
    ) -> bool {
        self.accepts(&Candidate::new(*candidate), config, probe)
    }

    fn accepts(
        &self,
        candidate: &Candidate,
        config: PartitionConfig,
        probe: &mut AnalysisProbe,
    ) -> bool {
        match config.test {
            PartitionTest::ApproxDbf => {
                let in_order = candidate.view.deadline >= self.latest_deadline;
                approx_dbf_fits_probed(
                    &self.resident,
                    in_order.then_some(&self.line),
                    self.line.headroom(),
                    candidate,
                    config.utilization_check,
                    probe,
                )
            }
            PartitionTest::ExactEdf { .. } => fits_probed(
                &self.resident,
                self.utilization(),
                &candidate.view,
                config,
                probe,
            ),
        }
    }

    /// Places `view` unconditionally (callers check [`Self::can_accept`]
    /// first when re-validating; replay of known-good placements skips it).
    pub fn place(&mut self, view: SequentialView) {
        self.line.add(&view);
        self.latest_deadline = self.latest_deadline.max(view.deadline);
        self.resident.push(view);
    }

    /// Removes the first resident view equal to `view`; returns whether one
    /// was present. Removal never invalidates the remaining placements: each
    /// admission test is monotone in the resident set (both the `DBF*` sum
    /// and the utilization sum only shrink). The state afterwards equals
    /// one built by placing the remaining views afresh.
    pub fn remove(&mut self, view: &SequentialView) -> bool {
        match self.resident.iter().position(|r| r == view) {
            Some(i) => {
                self.resident.remove(i);
                self.line.remove(view);
                self.latest_deadline = self
                    .resident
                    .iter()
                    .map(|r| r.deadline)
                    .max()
                    .unwrap_or(Duration::ZERO);
                true
            }
            None => false,
        }
    }
}

/// An ordered bank of shared processors with first-fit placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPool {
    processors: Vec<ProcessorState>,
    config: PartitionConfig,
}

impl SharedPool {
    /// An empty pool of `processors` processors applying `config`.
    #[must_use]
    pub fn new(processors: usize, config: PartitionConfig) -> SharedPool {
        SharedPool {
            processors: vec![ProcessorState::new(); processors],
            config,
        }
    }

    /// Number of processors in the pool (occupied or not).
    #[must_use]
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }

    /// The state of processor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn processor(&self, k: usize) -> &ProcessorState {
        &self.processors[k]
    }

    /// The admission test configuration this pool applies.
    #[must_use]
    pub fn config(&self) -> PartitionConfig {
        self.config
    }

    /// The first processor (lowest index) that accepts `candidate`, without
    /// placing it.
    #[must_use]
    pub fn first_fit(&self, candidate: &SequentialView) -> Option<usize> {
        let mut scratch = AnalysisProbe::default();
        self.first_fit_probed(candidate, &mut scratch)
    }

    /// [`Self::first_fit`] with cost accounting: every admission test tried
    /// along the scan is recorded in `probe`.
    #[must_use]
    pub fn first_fit_probed(
        &self,
        candidate: &SequentialView,
        probe: &mut AnalysisProbe,
    ) -> Option<usize> {
        let candidate = Candidate::new(*candidate);
        self.processors
            .iter()
            .position(|p| p.accepts(&candidate, self.config, probe))
    }

    /// First-fit placement: finds the first accepting processor, places the
    /// view there, and returns its index — or `None` (and no change) if the
    /// view fits nowhere.
    pub fn try_place(&mut self, candidate: SequentialView) -> Option<usize> {
        let mut scratch = AnalysisProbe::default();
        self.try_place_probed(candidate, &mut scratch)
    }

    /// [`Self::try_place`] with cost accounting (see
    /// [`Self::first_fit_probed`]).
    pub fn try_place_probed(
        &mut self,
        candidate: SequentialView,
        probe: &mut AnalysisProbe,
    ) -> Option<usize> {
        let k = self.first_fit_probed(&candidate, probe)?;
        self.processors[k].place(candidate);
        Some(k)
    }

    /// Places `view` on processor `k` unconditionally (replaying a
    /// placement already known to be valid).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn place(&mut self, k: usize, view: SequentialView) {
        self.processors[k].place(view);
    }

    /// Removes one occurrence of `view` from processor `k`; returns whether
    /// it was present.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn remove(&mut self, k: usize, view: &SequentialView) -> bool {
        self.processors[k].remove(view)
    }

    /// Total number of resident tasks across the pool.
    #[must_use]
    pub fn resident_tasks(&self) -> usize {
        self.processors.iter().map(ProcessorState::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::time::Duration;

    fn view(c: u64, d: u64, t: u64) -> SequentialView {
        SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
    }

    #[test]
    fn processor_state_tracks_utilization() {
        let mut p = ProcessorState::new();
        assert!(p.is_empty());
        p.place(view(2, 4, 8));
        p.place(view(1, 3, 6));
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.utilization(),
            view(2, 4, 8).utilization() + view(1, 3, 6).utilization()
        );
        assert!(p.remove(&view(2, 4, 8)));
        assert!(!p.remove(&view(2, 4, 8)));
        assert_eq!(p.utilization(), view(1, 3, 6).utilization());
    }

    #[test]
    fn can_accept_matches_batch_fits() {
        let config = PartitionConfig::default();
        let mut p = ProcessorState::new();
        p.place(view(2, 5, 10));
        let cand = view(1, 7, 14);
        assert_eq!(
            p.can_accept(&cand, config),
            crate::partition::fits(p.resident(), p.utilization(), &cand, config)
        );
    }

    #[test]
    fn pool_first_fit_prefers_earlier_processors() {
        let mut pool = SharedPool::new(3, PartitionConfig::default());
        assert_eq!(pool.try_place(view(1, 8, 16)), Some(0));
        assert_eq!(pool.try_place(view(1, 9, 18)), Some(0));
        assert_eq!(pool.resident_tasks(), 2);
    }

    #[test]
    fn pool_spills_and_fails_like_the_batch_partitioner() {
        let mut pool = SharedPool::new(2, PartitionConfig::default());
        // Each view demands its whole deadline: one per processor.
        assert_eq!(pool.try_place(view(4, 4, 8)), Some(0));
        assert_eq!(pool.try_place(view(4, 4, 8)), Some(1));
        assert_eq!(pool.try_place(view(4, 4, 8)), None);
        assert_eq!(pool.resident_tasks(), 2, "failed placement must not mutate");
    }

    #[test]
    fn removal_frees_capacity() {
        let mut pool = SharedPool::new(1, PartitionConfig::default());
        let v = view(4, 4, 8);
        assert_eq!(pool.try_place(v), Some(0));
        assert_eq!(pool.try_place(v), None);
        assert!(pool.remove(0, &v));
        assert_eq!(pool.try_place(v), Some(0));
    }
}
