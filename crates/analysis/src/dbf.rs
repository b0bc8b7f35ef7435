//! Demand bound functions for sporadic tasks.
//!
//! For the partitioning phase of FEDCONS, a low-density sporadic DAG task
//! `τ_i = (G_i, D_i, T_i)` is viewed as the three-parameter sporadic task
//! `(vol_i, D_i, T_i)` (paper Section IV-B): on a single processor its
//! internal parallelism cannot be exploited, so only its total work matters.
//!
//! * [`dbf`] — the exact demand bound function of Baruah, Mok & Rosier \[2\]:
//!   the maximum cumulative work with both release and deadline inside any
//!   window of length `t`.
//! * [`dbf_approx`] — the `DBF*` approximation (paper Eq. 1), linear beyond
//!   the first deadline, which the Baruah–Fisher partitioning test uses.

use fedsched_dag::rational::Rational;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;

/// The *demand view* of a task used by uniprocessor analysis: worst-case
/// execution time `C` (= `vol` for a DAG task), relative deadline `D` and
/// period `T`.
///
/// # Examples
///
/// ```
/// use fedsched_analysis::dbf::SequentialView;
/// use fedsched_dag::examples::paper_figure1;
/// use fedsched_dag::time::Duration;
///
/// let view = SequentialView::of(&paper_figure1());
/// assert_eq!(view.wcet, Duration::new(9));
/// assert_eq!(view.deadline, Duration::new(16));
/// assert_eq!(view.period, Duration::new(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SequentialView {
    /// Worst-case execution time per job (the DAG volume).
    pub wcet: Duration,
    /// Relative deadline.
    pub deadline: Duration,
    /// Minimum inter-arrival separation.
    pub period: Duration,
}

impl SequentialView {
    /// The sequential (three-parameter) view of a sporadic DAG task.
    #[must_use]
    pub fn of(task: &DagTask) -> SequentialView {
        SequentialView {
            wcet: task.volume(),
            deadline: task.deadline(),
            period: task.period(),
        }
    }

    /// Creates a view from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero (utilization would be undefined).
    #[must_use]
    pub fn new(wcet: Duration, deadline: Duration, period: Duration) -> SequentialView {
        assert!(!period.is_zero(), "period must be positive");
        SequentialView {
            wcet,
            deadline,
            period,
        }
    }

    /// Utilization `C / T`.
    #[must_use]
    pub fn utilization(&self) -> Rational {
        Rational::ratio(self.wcet, self.period)
    }

    /// Density `C / min(D, T)`.
    #[must_use]
    pub fn density(&self) -> Rational {
        Rational::ratio(self.wcet, self.deadline.min(self.period))
    }
}

impl From<&DagTask> for SequentialView {
    fn from(task: &DagTask) -> SequentialView {
        SequentialView::of(task)
    }
}

/// The exact demand bound function \[2\]:
///
/// ```text
/// dbf(τ, t) = max(0, ⌊(t − D)/T⌋ + 1) · C
/// ```
///
/// — the largest total work of jobs of `τ` that have both their release and
/// their deadline inside a window of length `t`.
///
/// # Examples
///
/// ```
/// use fedsched_analysis::dbf::{dbf, SequentialView};
/// use fedsched_dag::time::Duration;
///
/// let tau = SequentialView::new(Duration::new(2), Duration::new(5), Duration::new(10));
/// assert_eq!(dbf(&tau, Duration::new(4)), Duration::ZERO);   // t < D
/// assert_eq!(dbf(&tau, Duration::new(5)), Duration::new(2)); // one job fits
/// assert_eq!(dbf(&tau, Duration::new(14)), Duration::new(2));
/// assert_eq!(dbf(&tau, Duration::new(15)), Duration::new(4)); // two jobs fit
/// ```
#[must_use]
pub fn dbf(task: &SequentialView, t: Duration) -> Duration {
    if t < task.deadline {
        return Duration::ZERO;
    }
    let jobs = (t - task.deadline) / task.period + 1;
    task.wcet * jobs
}

/// The `DBF*` approximation to the demand bound function (paper Eq. 1):
///
/// ```text
/// DBF*(τ, t) = 0                      if t < D
///            = C + u·(t − D)          otherwise
/// ```
///
/// `DBF*` upper-bounds [`dbf`] everywhere and equals it at `t = D`; using it
/// in the first-fit test is what buys the polynomial-time partitioning with
/// the `(3 − 1/m)` speedup of the paper's Lemma 2.
///
/// Returned as an exact [`Rational`] because the slope `u` is fractional.
///
/// # Examples
///
/// ```
/// use fedsched_analysis::dbf::{dbf_approx, SequentialView};
/// use fedsched_dag::rational::Rational;
/// use fedsched_dag::time::Duration;
///
/// let tau = SequentialView::new(Duration::new(2), Duration::new(5), Duration::new(10));
/// assert_eq!(dbf_approx(&tau, Duration::new(4)), Rational::ZERO);
/// assert_eq!(dbf_approx(&tau, Duration::new(5)), Rational::from_integer(2));
/// // At t = 15: 2 + (2/10)·10 = 4.
/// assert_eq!(dbf_approx(&tau, Duration::new(15)), Rational::from_integer(4));
/// ```
#[must_use]
pub fn dbf_approx(task: &SequentialView, t: Duration) -> Rational {
    if t < task.deadline {
        return Rational::ZERO;
    }
    let elapsed = Rational::from((t - task.deadline).ticks());
    Rational::from(task.wcet.ticks()) + task.utilization() * elapsed
}

/// Total exact demand of a set of tasks in a window of length `t`.
#[must_use]
pub fn total_dbf(tasks: &[SequentialView], t: Duration) -> Duration {
    tasks.iter().map(|task| dbf(task, t)).sum()
}

/// Total approximate demand `Σ DBF*(τ_j, t)` of a set of tasks.
#[must_use]
pub fn total_dbf_approx(tasks: &[SequentialView], t: Duration) -> Rational {
    tasks.iter().map(|task| dbf_approx(task, t)).sum()
}

/// The demand slack `t − Σ_j DBF*(τ_j, t)` of a set of views, kept as the
/// line it is for every `t` at or past the set's latest deadline.
///
/// Past its own deadline each `DBF*` term is linear (paper Eq. 1), so for
/// `t ≥ max_j D_j`
///
/// ```text
/// t − Σ_j DBF*(τ_j, t) = t·(1 − Σ_j u_j) + Σ_j u_j·(D_j − T_j)
/// ```
///
/// (`u_j·(D_j − T_j) = u_j·D_j − C_j`). The line keeps the two
/// coefficients as exact [`Rational`] running sums, so the slack costs one
/// multiply and one add however many views it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DemandLine {
    /// `1 − Σ u_j`: the slope of the slack, and the utilization a further
    /// view may still add.
    headroom: Rational,
    /// `Σ u_j·(D_j − T_j)`: the slack at `t = 0`.
    offset: Rational,
}

/// The line of no views: slack `t`, headroom 1.
impl Default for DemandLine {
    fn default() -> Self {
        DemandLine {
            headroom: Rational::ONE,
            offset: Rational::ZERO,
        }
    }
}

impl DemandLine {
    /// The line of `views`. Its slack is exact at every `t` no earlier than
    /// their latest deadline.
    #[must_use]
    pub(crate) fn of<'a>(views: impl IntoIterator<Item = &'a SequentialView>) -> DemandLine {
        let mut line = DemandLine::default();
        for view in views {
            line.add(view);
        }
        line
    }

    /// The line of the views due by `t` (`D_j ≤ t`). The others contribute
    /// `DBF*(τ_j, t) = 0`, so its [`slack_at`](Self::slack_at) `t` is
    /// `t − Σ_j DBF*(τ_j, t)` over all of `views`, whatever their deadline
    /// order.
    #[must_use]
    pub(crate) fn due_by(views: &[SequentialView], t: Duration) -> DemandLine {
        DemandLine::of(views.iter().filter(|view| view.deadline <= t))
    }

    /// Adds `view`'s terms.
    pub(crate) fn add(&mut self, view: &SequentialView) {
        let (utilization, offset) = terms(view);
        self.headroom = self.headroom - utilization;
        self.offset += offset;
    }

    /// Removes the terms [`Self::add`] added for `view`. The sums are exact,
    /// so the result equals the line of the remaining views.
    pub(crate) fn remove(&mut self, view: &SequentialView) {
        let (utilization, offset) = terms(view);
        self.headroom += utilization;
        self.offset = self.offset - offset;
    }

    /// `1 − Σ u_j`.
    #[must_use]
    pub(crate) fn headroom(&self) -> Rational {
        self.headroom
    }

    /// `t − Σ_j DBF*(τ_j, t)`, exact for every `t` no earlier than the
    /// latest deadline of the views on the line.
    #[must_use]
    pub(crate) fn slack_at(&self, t: Duration) -> Rational {
        self.headroom * Rational::from(t.ticks()) + self.offset
    }
}

/// A view's utilization and its share `u·(D − T)` of the line's offset.
fn terms(view: &SequentialView) -> (Rational, Rational) {
    let utilization = view.utilization();
    let lag = view.deadline.ticks() as i128 - view.period.ticks() as i128;
    (utilization, utilization * Rational::from_integer(lag))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(c: u64, d: u64, t: u64) -> SequentialView {
        SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
    }

    #[test]
    fn dbf_step_structure() {
        let tau = view(3, 7, 10);
        assert_eq!(dbf(&tau, Duration::new(0)), Duration::ZERO);
        assert_eq!(dbf(&tau, Duration::new(6)), Duration::ZERO);
        assert_eq!(dbf(&tau, Duration::new(7)), Duration::new(3));
        assert_eq!(dbf(&tau, Duration::new(16)), Duration::new(3));
        assert_eq!(dbf(&tau, Duration::new(17)), Duration::new(6));
        assert_eq!(dbf(&tau, Duration::new(27)), Duration::new(9));
    }

    #[test]
    fn dbf_approx_dominates_exact() {
        let tau = view(3, 7, 10);
        for t in 0..100 {
            let t = Duration::new(t);
            let exact = Rational::from(dbf(&tau, t).ticks());
            assert!(
                dbf_approx(&tau, t) >= exact,
                "DBF* must dominate dbf at t={t}"
            );
        }
    }

    #[test]
    fn dbf_approx_tight_at_deadline_steps() {
        let tau = view(3, 7, 10);
        // Exactly equal at t = D and t = D + k·T.
        for k in 0..5u64 {
            let t = Duration::new(7 + 10 * k);
            assert_eq!(
                dbf_approx(&tau, t),
                Rational::from(dbf(&tau, t).ticks()),
                "k = {k}"
            );
        }
    }

    #[test]
    fn views_from_dag_task() {
        let t = fedsched_dag::examples::paper_figure1();
        let v: SequentialView = (&t).into();
        assert_eq!(v.utilization(), Rational::new(9, 20));
        assert_eq!(v.density(), Rational::new(9, 16));
    }

    #[test]
    fn totals_sum_over_tasks() {
        let a = view(1, 4, 8);
        let b = view(2, 6, 6);
        let t = Duration::new(12);
        assert_eq!(total_dbf(&[a, b], t), dbf(&a, t) + dbf(&b, t));
        assert_eq!(
            total_dbf_approx(&[a, b], t),
            dbf_approx(&a, t) + dbf_approx(&b, t)
        );
    }

    #[test]
    fn demand_line_slack_is_the_summed_dbf_star_slack() {
        let views = [view(2, 5, 10), view(1, 8, 8), view(3, 7, 12)];
        let literal = |t: Duration| Rational::from(t.ticks()) - total_dbf_approx(&views, t);
        let line = DemandLine::of(&views);
        for t in (8..60).map(Duration::new) {
            assert_eq!(line.slack_at(t), literal(t), "t = {t}");
        }
        // Before the latest deadline only the views due by `t` count.
        for t in (0..8).map(Duration::new) {
            assert_eq!(
                DemandLine::due_by(&views, t).slack_at(t),
                literal(t),
                "t = {t}"
            );
        }
        let mut line = line;
        line.remove(&views[1]);
        assert_eq!(line, DemandLine::of([&views[0], &views[2]]));
        assert_eq!(line.headroom(), Rational::ONE - Rational::new(9, 20));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = view(1, 1, 0);
    }
}
