//! Graham's List Scheduling algorithm (LS).
//!
//! LS builds a *work-conserving* non-preemptive schedule of one DAG on `μ`
//! identical processors: whenever a processor is idle and some job is
//! *available* (all predecessors complete), the highest-priority available
//! job starts immediately. Graham \[12\] showed the resulting makespan is at
//! most `(2 − 1/μ)` times optimal, which is exactly the speedup factor
//! Lemma 1 of the paper inherits.
//!
//! The priority list only affects typical-case quality, never the bound;
//! [`PriorityPolicy`] offers the common choices.

use fedsched_dag::graph::Dag;
use fedsched_dag::time::Duration;
use serde::{Deserialize, Serialize};

use crate::schedule::TemplateSchedule;
use crate::workspace::with_thread_workspace;

/// How the priority list handed to LS is derived from the DAG.
///
/// All policies are deterministic; ties break toward the smaller vertex
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PriorityPolicy {
    /// Vertices in their insertion (index) order — the "plain list" of
    /// Graham's original formulation and the default.
    #[default]
    ListOrder,
    /// Critical-path-first: vertices with the longest WCET-weighted path to
    /// a sink come first (a.k.a. *upward rank* / HLF). Usually the best
    /// heuristic in practice.
    CriticalPathFirst,
    /// Longest-processing-time-first by vertex WCET.
    LongestWcetFirst,
}

impl PriorityPolicy {
    /// Computes the priority rank of every vertex under this policy:
    /// smaller rank = scheduled earlier among simultaneously available jobs.
    #[must_use]
    pub fn ranks(self, dag: &Dag) -> Vec<u64> {
        let n = dag.vertex_count();
        match self {
            PriorityPolicy::ListOrder => (0..n as u64).collect(),
            PriorityPolicy::LongestWcetFirst => {
                ranks_by_key(n, |i| core::cmp::Reverse(dag.wcets()[i]))
            }
            PriorityPolicy::CriticalPathFirst => {
                // Downward distance to a sink, inclusive of own WCET,
                // computed in reverse topological order.
                let mut tail = vec![Duration::ZERO; n];
                for &v in dag.topological_order().iter().rev() {
                    let best = dag
                        .successors(v)
                        .iter()
                        .map(|s| tail[s.index()])
                        .max()
                        .unwrap_or(Duration::ZERO);
                    tail[v.index()] = best + dag.wcet(v);
                }
                ranks_by_key(n, |i| core::cmp::Reverse(tail[i]))
            }
        }
    }
}

/// Dense ranks from a sort key: vertices are ordered by `(key, index)` and
/// each receives its position in that order as its rank. Shared by every
/// [`PriorityPolicy`] arm, so "smaller rank = earlier, ties toward the
/// smaller index" is encoded exactly once.
fn ranks_by_key<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (key(i), i));
    let mut ranks = vec![0u64; n];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank as u64;
    }
    ranks
}

/// Runs Graham's List Scheduling on `dag` with `processors` identical
/// processors using the default [`PriorityPolicy::ListOrder`] list.
///
/// See [`list_schedule_with`] for a custom policy.
///
/// # Panics
///
/// Panics if `processors` is zero.
#[must_use]
pub fn list_schedule(dag: &Dag, processors: u32) -> TemplateSchedule {
    list_schedule_with(dag, processors, PriorityPolicy::ListOrder)
}

/// Runs Graham's List Scheduling with an explicit priority policy.
///
/// The schedule is *work-conserving*: no processor idles while an available
/// job exists. Execution times are the vertex WCETs (this is the template
/// construction of the paper; run-time variation is handled by the lookup
/// dispatcher, never by re-running LS).
///
/// # Panics
///
/// Panics if `processors` is zero.
///
/// # Examples
///
/// ```
/// use fedsched_dag::examples::paper_figure1;
/// use fedsched_dag::time::Duration;
/// use fedsched_graham::list::list_schedule;
///
/// let tau1 = paper_figure1();
/// let sched = list_schedule(tau1.dag(), 2);
/// sched.validate(tau1.dag()).expect("LS always emits a valid schedule");
/// assert!(sched.makespan() <= tau1.deadline());
/// ```
#[must_use]
pub fn list_schedule_with(dag: &Dag, processors: u32, policy: PriorityPolicy) -> TemplateSchedule {
    assert!(
        processors > 0,
        "list scheduling needs at least one processor"
    );
    let ranks = policy.ranks(dag);
    list_schedule_ranked(dag, processors, &ranks, dag.wcets())
}

/// Core LS entry point, shared by template construction and the anomaly
/// demonstrations: schedules `dag` with per-vertex execution times `times`
/// (which may differ from the WCETs — that is precisely what the anomaly
/// experiments vary) and explicit priority `ranks`.
///
/// Runs on the calling thread's reusable
/// [`LsWorkspace`](crate::workspace::LsWorkspace), so steady-state calls
/// perform exactly one allocation: the returned template's entry vector.
///
/// # Panics
///
/// Panics if `processors` is zero or `times`/`ranks` are not
/// `dag.vertex_count()` long.
#[must_use]
pub fn list_schedule_ranked(
    dag: &Dag,
    processors: u32,
    ranks: &[u64],
    times: &[Duration],
) -> TemplateSchedule {
    assert_eq!(ranks.len(), dag.vertex_count(), "one rank per vertex");
    with_thread_workspace(|ws| {
        ws.prepare(ranks);
        ws.template(dag, processors, times)
    })
}

/// The `MINPROCS` candidate test: the [`list_schedule_ranked`] run, with
/// the template materialised only if its makespan is at most `deadline`.
/// A failing candidate returns `None` without allocating (in steady
/// state); a passing one allocates the returned entry vector.
///
/// # Panics
///
/// Panics if `processors` is zero or `times`/`ranks` are not
/// `dag.vertex_count()` long.
#[must_use]
pub fn list_schedule_within(
    dag: &Dag,
    processors: u32,
    ranks: &[u64],
    times: &[Duration],
    deadline: Duration,
) -> Option<TemplateSchedule> {
    assert_eq!(ranks.len(), dag.vertex_count(), "one rank per vertex");
    with_thread_workspace(|ws| {
        ws.prepare(ranks);
        ws.template_within(dag, processors, times, deadline)
    })
}

/// The decision-only variant of [`list_schedule_ranked`]: the same kernel
/// run, returning just the makespan without materialising a template.
/// Allocation-free in steady state — callers that only compare against a
/// deadline (the non-certified `MINPROCS` fit test) use this.
///
/// # Panics
///
/// Panics if `processors` is zero or `times`/`ranks` are not
/// `dag.vertex_count()` long.
#[must_use]
pub fn list_makespan_ranked(
    dag: &Dag,
    processors: u32,
    ranks: &[u64],
    times: &[Duration],
) -> Duration {
    assert_eq!(ranks.len(), dag.vertex_count(), "one rank per vertex");
    with_thread_workspace(|ws| {
        ws.prepare(ranks);
        ws.makespan(dag, processors, times)
    })
}

/// Lower bound on the optimal makespan of `dag` on `m` processors:
/// `max(len, ⌈vol / m⌉)`. Any schedule — clairvoyant or not — is at least
/// this long.
///
/// # Panics
///
/// Panics if `m` is zero.
#[must_use]
pub fn makespan_lower_bound(dag: &Dag, m: u32) -> Duration {
    assert!(m > 0, "at least one processor required");
    let len = dag.longest_chain().length;
    let fair = Duration::new(dag.volume().div_ceil(Duration::new(u64::from(m))));
    len.max(fair)
}

/// Graham's upper bound on the LS makespan: `vol/m + (1 − 1/m)·len`,
/// returned exactly as the ceiling of the rational expression.
///
/// Every LS schedule satisfies `makespan ≤ graham_upper_bound`, and combining
/// with [`makespan_lower_bound`] yields the `(2 − 1/m)` factor of Lemma 1.
///
/// # Panics
///
/// Panics if `m` is zero.
#[must_use]
pub fn graham_upper_bound(dag: &Dag, m: u32) -> Duration {
    assert!(m > 0, "at least one processor required");
    let m = u64::from(m);
    let vol = dag.volume().ticks();
    let len = dag.longest_chain().length.ticks();
    // vol/m + (m-1)/m * len, rounded up: ⌈(vol + (m-1)·len) / m⌉.
    Duration::new((vol + (m - 1) * len).div_ceil(m))
}

/// The smallest processor count `μ` whose Graham upper bound fits within
/// `deadline`, or `None` if no finite `μ` does.
///
/// Since [`graham_upper_bound`] is an upper bound on *every* LS makespan,
/// `graham_bracket(dag, d) = Some(μ)` is a certificate that List Scheduling
/// meets the deadline on `μ` processors under any priority policy — no LS
/// run is needed to know it. `MINPROCS` uses this to bracket the top of its
/// candidate window: no candidate above the bracket can be the minimal
/// answer, because the bracket itself is guaranteed to pass.
///
/// Derivation: with integer ticks, `⌈(vol + (μ−1)·len)/μ⌉ ≤ d` is
/// equivalent to `vol − len ≤ μ·(d − len)`, so the smallest such `μ` is
/// `⌈(vol − len)/(d − len)⌉` when `d > len` (clamped to ≥ 1). When
/// `d < len`, or `d = len` with `vol > len`, no finite `μ` satisfies the
/// bound and the result is `None`; a bracket larger than `u32::MAX` is also
/// reported as `None`.
#[must_use]
pub fn graham_bracket(dag: &Dag, deadline: Duration) -> Option<u32> {
    graham_bracket_from_lengths(dag.volume(), dag.longest_chain().length, deadline)
}

/// [`graham_bracket`] from precomputed `vol` and `len`.
///
/// The bracket depends on the DAG only through its volume and longest-chain
/// length; callers that cache those (such as
/// `DagTask`, which carries both) can bracket in constant
/// time without re-running the chain dynamic program.
#[must_use]
pub fn graham_bracket_from_lengths(
    volume: Duration,
    chain: Duration,
    deadline: Duration,
) -> Option<u32> {
    let vol = volume.ticks();
    let len = chain.ticks();
    let d = deadline.ticks();
    if d < len {
        return None;
    }
    if vol <= len {
        // A chain (or empty DAG): GUB(1) = vol ≤ len ≤ d.
        return Some(1);
    }
    if d == len {
        return None;
    }
    u32::try_from((vol - len).div_ceil(d - len))
        .ok()
        .map(|b| b.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::examples::paper_figure1;
    use fedsched_dag::graph::DagBuilder;

    fn chain(wcets: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        let vs = b.add_vertices(wcets.iter().map(|&w| Duration::new(w)));
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn independent(wcets: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        b.add_vertices(wcets.iter().map(|&w| Duration::new(w)));
        b.build().unwrap()
    }

    #[test]
    fn chain_is_sequential_regardless_of_processors() {
        let dag = chain(&[2, 3, 4]);
        for m in [1, 2, 5] {
            let s = list_schedule(&dag, m);
            s.validate(&dag).unwrap();
            assert_eq!(s.makespan(), Duration::new(9));
        }
    }

    #[test]
    fn independent_jobs_pack_across_processors() {
        let dag = independent(&[3, 3, 3, 3]);
        let s1 = list_schedule(&dag, 1);
        assert_eq!(s1.makespan(), Duration::new(12));
        let s2 = list_schedule(&dag, 2);
        assert_eq!(s2.makespan(), Duration::new(6));
        let s4 = list_schedule(&dag, 4);
        assert_eq!(s4.makespan(), Duration::new(3));
        for s in [s1, s2, s4] {
            s.validate(&dag).unwrap();
        }
    }

    #[test]
    fn figure1_on_two_processors_meets_deadline() {
        let t = paper_figure1();
        let s = list_schedule(t.dag(), 2);
        s.validate(t.dag()).unwrap();
        // vol = 9, len = 6: on 2 processors LS finishes within
        // vol/m + (1-1/m)len = 4.5 + 3 = 7.5, far under D = 16.
        assert!(s.makespan() <= Duration::new(8));
        assert!(s.makespan() >= Duration::new(6));
    }

    #[test]
    fn respects_graham_upper_bound_and_lower_bound() {
        let t = paper_figure1();
        for m in 1..=5 {
            let s = list_schedule(t.dag(), m);
            assert!(s.makespan() <= graham_upper_bound(t.dag(), m));
            assert!(s.makespan() >= makespan_lower_bound(t.dag(), m));
        }
    }

    #[test]
    fn work_conserving_single_processor_has_no_idle() {
        let t = paper_figure1();
        let s = list_schedule(t.dag(), 1);
        s.validate(t.dag()).unwrap();
        assert_eq!(s.makespan(), t.volume());
    }

    #[test]
    fn policies_yield_valid_schedules() {
        let t = paper_figure1();
        for policy in [
            PriorityPolicy::ListOrder,
            PriorityPolicy::CriticalPathFirst,
            PriorityPolicy::LongestWcetFirst,
        ] {
            let s = list_schedule_with(t.dag(), 3, policy);
            s.validate(t.dag()).unwrap();
            assert!(s.makespan() <= graham_upper_bound(t.dag(), 3));
        }
    }

    #[test]
    fn critical_path_ranks_prefer_long_tails() {
        // v0(1) → v1(5); v2(2) isolated. Tail lengths: v0=6, v1=5, v2=2.
        let mut b = DagBuilder::new();
        let v = b.add_vertices([1, 5, 2].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let dag = b.build().unwrap();
        let ranks = PriorityPolicy::CriticalPathFirst.ranks(&dag);
        assert!(ranks[0] < ranks[1]);
        assert!(ranks[1] < ranks[2]);
    }

    #[test]
    fn longest_wcet_ranks() {
        let dag = independent(&[1, 9, 5]);
        let ranks = PriorityPolicy::LongestWcetFirst.ranks(&dag);
        assert_eq!(ranks, vec![2, 0, 1]);
    }

    #[test]
    fn empty_dag_schedules_to_zero() {
        let dag = DagBuilder::new().build().unwrap();
        let s = list_schedule(&dag, 2);
        assert!(s.is_empty());
        assert_eq!(s.makespan(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = list_schedule(&independent(&[1]), 0);
    }

    #[test]
    fn bounds_formulas() {
        let t = paper_figure1(); // vol 9, len 6
        assert_eq!(makespan_lower_bound(t.dag(), 1), Duration::new(9));
        assert_eq!(makespan_lower_bound(t.dag(), 2), Duration::new(6));
        assert_eq!(makespan_lower_bound(t.dag(), 9), Duration::new(6));
        assert_eq!(graham_upper_bound(t.dag(), 1), Duration::new(9));
        // ⌈(9 + 6)/2⌉ = 8
        assert_eq!(graham_upper_bound(t.dag(), 2), Duration::new(8));
        // ⌈(9 + 2·6)/3⌉ = 7
        assert_eq!(graham_upper_bound(t.dag(), 3), Duration::new(7));
    }

    #[test]
    fn bracket_is_the_smallest_mu_with_gub_within_deadline() {
        let t = paper_figure1(); // vol 9, len 6
        for d in [7u64, 8, 9, 12, 100] {
            let deadline = Duration::new(d);
            let b =
                graham_bracket(t.dag(), deadline).expect("vol > len and d > len ⇒ finite bracket");
            assert!(
                graham_upper_bound(t.dag(), b) <= deadline,
                "d = {d}: bracket {b} must certify"
            );
            if b > 1 {
                assert!(
                    graham_upper_bound(t.dag(), b - 1) > deadline,
                    "d = {d}: bracket {b} must be minimal"
                );
            }
        }
        // ⌈(9−6)/(7−6)⌉ = 3 and ⌈(9−6)/(8−6)⌉ = 2, matching the GUB table.
        assert_eq!(graham_bracket(t.dag(), Duration::new(7)), Some(3));
        assert_eq!(graham_bracket(t.dag(), Duration::new(8)), Some(2));
        assert_eq!(graham_bracket(t.dag(), Duration::new(9)), Some(1));
    }

    #[test]
    fn bracket_edge_cases() {
        let t = paper_figure1(); // vol 9, len 6

        // Deadline below the chain: hopeless.
        assert_eq!(graham_bracket(t.dag(), Duration::new(5)), None);
        // Deadline exactly the chain with parallel slack: GUB never reaches
        // len for finite μ, so there is no certificate (LS may still fit).
        assert_eq!(graham_bracket(t.dag(), Duration::new(6)), None);
        // A pure chain certifies on one processor at its own length.
        let c = chain(&[2, 3, 4]);
        assert_eq!(graham_bracket(&c, Duration::new(9)), Some(1));
        assert_eq!(graham_bracket(&c, Duration::new(8)), None);
        // Empty DAG: any deadline is fine on one processor.
        let empty = DagBuilder::new().build().unwrap();
        assert_eq!(graham_bracket(&empty, Duration::ZERO), Some(1));
    }

    #[test]
    fn ranked_scheduling_with_reduced_times_still_valid_schedule() {
        let t = paper_figure1();
        let ranks = PriorityPolicy::ListOrder.ranks(t.dag());
        let reduced: Vec<Duration> = t
            .dag()
            .wcets()
            .iter()
            .map(|w| Duration::new(w.ticks().saturating_sub(1).max(1)))
            .collect();
        let s = list_schedule_ranked(t.dag(), 2, &ranks, &reduced);
        // Not valid against the *WCETs*, but internally consistent: starts
        // respect precedence under the reduced times.
        assert_eq!(s.len(), t.dag().vertex_count());
        assert!(s.makespan() > Duration::ZERO);
    }
}
