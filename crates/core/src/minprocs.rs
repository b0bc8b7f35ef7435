//! `MINPROCS` — the per-task processor sizing of paper Fig. 3.
//!
//! For a high-density constrained-deadline task, all jobs of one dag-job
//! must finish before the next is released (`D ≤ T`), so scheduling the task
//! on a dedicated cluster reduces to a makespan problem: find the smallest
//! `μ` for which Graham's List Scheduling finishes the DAG within `D`.
//!
//! # Bound-guided search
//!
//! The literal Fig. 3 sweep tries every `μ ∈ [⌈δ⌉, m_r]`. This module
//! narrows that window with Graham's two bounds before running a single LS
//! simulation:
//!
//! * **Bottom:** `makespan_lower_bound(G, μ) = max(len, ⌈vol/μ⌉) ≤ D` is
//!   necessary, and holds exactly for `μ ≥ ⌈vol/D⌉ = ⌈δ⌉` — the paper's own
//!   starting point, so the bottom of the window is already optimal.
//! * **Top:** `graham_upper_bound(G, μ) ≤ D` is *sufficient* for LS to fit,
//!   and [`graham_bracket`](fedsched_graham::list::graham_bracket) computes the smallest such `μ` in closed form.
//!   No candidate above `min(bracket, vertex_count)` can be the minimal
//!   answer, because that candidate itself is guaranteed to pass (with
//!   `μ = vertex_count` every vertex starts at its earliest start time and
//!   the makespan equals the longest chain). Everything above is recorded
//!   in [`AnalysisProbe::ls_runs_pruned`] without an LS run.
//!
//! Inside the surviving window the search must still return the *smallest*
//! passing `μ`: the LS makespan is **not** monotone in `μ` (Graham's
//! timing anomalies), so binary search is unsound. The sweep is the
//! literal Fig. 3 loop over the narrowed window: ascending from `⌈δ⌉`, it
//! stops at the first `μ` whose LS schedule meets `D`. Ranks are computed
//! once per task, and every LS run reuses the calling thread's kernel
//! workspace, so a sizing runs entirely on the caller's thread. Only the
//! passing candidate's schedule is copied into a template
//! ([`list_schedule_within`]): the candidates that miss `D` allocate
//! nothing.

use fedsched_analysis::probe::AnalysisProbe;
use fedsched_dag::task::DagTask;
use fedsched_graham::list::{
    graham_bracket_from_lengths, list_makespan_ranked, list_schedule_within, PriorityPolicy,
};
use fedsched_graham::schedule::TemplateSchedule;

/// A successful `MINPROCS` sizing: the processor count and the frozen
/// template schedule `σ_i` that witnesses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinProcsResult {
    /// The minimum processor count found (`μ` in Fig. 3).
    pub processors: u32,
    /// The LS schedule of the task's DAG on `processors` processors,
    /// used as the run-time lookup table.
    pub template: TemplateSchedule,
}

/// The surviving candidate window of one `MINPROCS` search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandidateWindow {
    /// Smallest candidate: `max(1, ⌈δ⌉)`, the first `μ` whose makespan
    /// lower bound fits within the deadline.
    lo: u32,
    /// Largest candidate worth an LS run.
    hi: u32,
    /// `true` when `hi` carries a pass certificate (`graham_upper_bound ≤ D`
    /// or `hi = vertex_count`), i.e. when the cap was not imposed by the
    /// caller's `available` budget.
    certified: bool,
    /// Candidates of `[lo, available]` above `hi`, excluded by the bounds
    /// without an LS run.
    pruned: u64,
}

/// Computes the bound-guided window for `task` on `available` processors,
/// or `None` when `[⌈δ⌉, available]` is already empty. The caller must have
/// checked chain feasibility.
fn candidate_window(task: &DagTask, available: u32) -> Option<CandidateWindow> {
    debug_assert!(task.is_chain_feasible());
    let lo = task.min_processors_lower_bound().max(1);
    if lo > available {
        return None;
    }
    let vertices = u32::try_from(task.dag().vertex_count())
        .unwrap_or(u32::MAX)
        .max(1);
    // The task caches its volume and chain length, so the bracket costs
    // constant time here — no chain dynamic program per sizing.
    let bracket =
        graham_bracket_from_lengths(task.volume(), task.longest_chain_length(), task.deadline());
    let cap = match bracket {
        Some(bracket) => bracket.min(vertices),
        None => vertices,
    }
    // `cap ≥ lo` always holds (a certified pass cannot sit below the lower
    // bound); the clamp guards degenerate arithmetic only.
    .max(lo);
    if cap <= available {
        Some(CandidateWindow {
            lo,
            hi: cap,
            certified: true,
            pruned: u64::from(available - cap),
        })
    } else {
        Some(CandidateWindow {
            lo,
            hi: available,
            certified: false,
            pruned: 0,
        })
    }
}

/// The literal Fig. 3 loop over `window`: ascending from `window.lo`, one
/// LS run per candidate, stopping at the first `μ` for which `run` returns
/// a passing witness. `run` receives the candidate and the task's priority
/// ranks, computed once per task rather than once per candidate.
fn sweep_window<R>(
    task: &DagTask,
    window: CandidateWindow,
    policy: PriorityPolicy,
    probe: &mut AnalysisProbe,
    run: impl Fn(u32, &[u64]) -> Option<R>,
) -> Option<(u32, R)> {
    let ranks = policy.ranks(task.dag());
    let found = (window.lo..=window.hi).find_map(|mu| {
        probe.ls_runs = probe.ls_runs.saturating_add(1);
        probe.makespan_evaluations = probe.makespan_evaluations.saturating_add(1);
        run(mu, &ranks).map(|witness| (mu, witness))
    });
    debug_assert!(
        found.is_some() || !window.certified,
        "a certified window always passes"
    );
    found
}

/// `MINPROCS(τ_i, m_r)` (paper Fig. 3): the minimum `μ ∈ [⌈δ_i⌉, m_r]` for
/// which List Scheduling produces a schedule of `G_i` with makespan `≤ D_i`,
/// together with that schedule. Returns `None` (the paper's `∞`) if no
/// `μ ≤ available` suffices.
///
/// Three deviations from the literal pseudocode, all answer-preserving:
///
/// * if `len_i > D_i`, no processor count can help (the chain alone misses
///   the deadline), so we fail fast without running LS;
/// * the search starts at `max(1, ⌈δ_i⌉)` — `⌈δ_i⌉` exactly as in Fig. 3,
///   clamped to one processor for degenerate inputs;
/// * the top of the window is bracketed by [`graham_bracket`](fedsched_graham::list::graham_bracket) and the
///   vertex count (see the module docs): candidates above the bracket are
///   counted in [`AnalysisProbe::ls_runs_pruned`] instead of being run.
///   Since the bracket candidate is *guaranteed* to pass, the minimal
///   passing `μ` is never above it and the returned sizing — and its
///   template — is identical to the full Fig. 3 sweep.
///
/// # Examples
///
/// ```
/// use fedsched_core::minprocs::min_procs;
/// use fedsched_dag::examples::paper_figure1;
/// use fedsched_graham::list::PriorityPolicy;
///
/// let tau1 = paper_figure1(); // low-density, but MINPROCS still sizes it
/// let r = min_procs(&tau1, 4, PriorityPolicy::ListOrder).expect("fits");
/// assert_eq!(r.processors, 1); // vol 9 ≤ D 16: one processor suffices
/// ```
#[must_use]
pub fn min_procs(task: &DagTask, available: u32, policy: PriorityPolicy) -> Option<MinProcsResult> {
    let mut scratch = AnalysisProbe::default();
    min_procs_probed(task, available, policy, &mut scratch)
}

/// [`min_procs`] with cost accounting: every candidate `μ` tried costs one
/// List-Scheduling simulation and one makespan-versus-deadline evaluation,
/// and every candidate excluded by the Graham bounds costs one
/// `ls_runs_pruned` tick. The sweep runs on the calling thread, so
/// `par_tasks_dispatched` is never touched.
#[must_use]
pub fn min_procs_probed(
    task: &DagTask,
    available: u32,
    policy: PriorityPolicy,
    probe: &mut AnalysisProbe,
) -> Option<MinProcsResult> {
    if !task.is_chain_feasible() {
        return None;
    }
    let window = candidate_window(task, available)?;
    probe.ls_runs_pruned = probe.ls_runs_pruned.saturating_add(window.pruned);
    let dag = task.dag();
    sweep_window(task, window, policy, probe, |mu, ranks| {
        list_schedule_within(dag, mu, ranks, dag.wcets(), task.deadline())
    })
    .map(|(processors, template)| MinProcsResult {
        processors,
        template,
    })
}

/// The feasibility verdict of [`min_procs`] without the sizing: `true` iff
/// `min_procs(task, available, policy)` would return `Some`.
///
/// The decision problem is strictly cheaper than the sizing problem: when
/// the bound-guided window is *certified* — its top candidate carries a
/// `graham_upper_bound ≤ D` (or `μ = vertex_count`) pass certificate within
/// the `available` budget — the verdict is `true` with **zero** LS runs,
/// and the whole window is recorded as pruned. Only windows truncated by
/// `available` (where acceptance is genuinely open) are swept. Speed-search
/// drivers (E5, `required_speed`) probe acceptance hundreds of times per
/// task and never look at the template, so they use this entry point.
#[must_use]
pub fn min_procs_fits(task: &DagTask, available: u32, policy: PriorityPolicy) -> bool {
    let mut scratch = AnalysisProbe::default();
    min_procs_fits_probed(task, available, policy, &mut scratch)
}

/// [`min_procs_fits`] with cost accounting (see [`min_procs_probed`]).
#[must_use]
pub fn min_procs_fits_probed(
    task: &DagTask,
    available: u32,
    policy: PriorityPolicy,
    probe: &mut AnalysisProbe,
) -> bool {
    if !task.is_chain_feasible() {
        return false;
    }
    let Some(window) = candidate_window(task, available) else {
        return false;
    };
    if window.certified {
        // Certificate accept: some μ ≤ available is guaranteed to pass, and
        // the verdict does not need to know which one is minimal.
        let span = u64::from(window.hi - window.lo) + 1;
        probe.ls_runs_pruned = probe
            .ls_runs_pruned
            .saturating_add(span.saturating_add(window.pruned));
        return true;
    }
    probe.ls_runs_pruned = probe.ls_runs_pruned.saturating_add(window.pruned);
    // The truncated window's verdict needs no template: each candidate runs
    // the allocation-free makespan-only kernel path.
    let dag = task.dag();
    sweep_window(task, window, policy, probe, |mu, ranks| {
        (list_makespan_ranked(dag, mu, ranks, dag.wcets()) <= task.deadline()).then_some(())
    })
    .is_some()
}

/// The *intrinsic* sizing `μ*_i` of a task: [`min_procs`] with the cap set
/// to the task's vertex count, which is always enough.
///
/// With at least as many processors as vertices, List Scheduling never makes
/// a ready vertex wait, so every vertex starts at its earliest start time
/// and the makespan equals the longest chain — which fits within `D_i`
/// whenever the task is chain-feasible, under *every* priority policy.
/// Hence the search is exhaustive: this returns `Some` iff the task is
/// chain-feasible, and the result is independent of any platform-size cap
/// `m_r ≥ μ*_i`. Online admission control relies on exactly that
/// independence to size clusters without knowing the residual platform.
///
/// The candidate window is additionally capped by the [`graham_bracket`](fedsched_graham::list::graham_bracket)
/// certificate, so wide DAGs no longer sweep toward the vertex count: the
/// search stops at the first `μ` Graham's bound already proves sufficient.
#[must_use]
pub fn intrinsic_min_procs(task: &DagTask, policy: PriorityPolicy) -> Option<MinProcsResult> {
    let mut scratch = AnalysisProbe::default();
    intrinsic_min_procs_probed(task, policy, &mut scratch)
}

/// [`intrinsic_min_procs`] with cost accounting (see [`min_procs_probed`]).
#[must_use]
pub fn intrinsic_min_procs_probed(
    task: &DagTask,
    policy: PriorityPolicy,
    probe: &mut AnalysisProbe,
) -> Option<MinProcsResult> {
    let cap = u32::try_from(task.dag().vertex_count()).unwrap_or(u32::MAX);
    min_procs_probed(task, cap.max(1), policy, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::examples::paper_figure1;
    use fedsched_dag::graph::DagBuilder;
    use fedsched_dag::time::Duration;
    use fedsched_graham::list::makespan_lower_bound;

    /// k independent vertices of WCET w, deadline d, period t.
    fn parallel_task(k: usize, w: u64, d: u64, t: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_vertices(std::iter::repeat_n(Duration::new(w), k));
        DagTask::new(b.build().unwrap(), Duration::new(d), Duration::new(t)).unwrap()
    }

    #[test]
    fn wide_task_needs_many_processors() {
        // 6 unit jobs, D = 2: needs 3 processors.
        let t = parallel_task(6, 1, 2, 10);
        let r = min_procs(&t, 8, PriorityPolicy::ListOrder).unwrap();
        assert_eq!(r.processors, 3);
        assert!(r.template.makespan() <= t.deadline());
        r.template.validate(t.dag()).unwrap();
    }

    #[test]
    fn search_starts_at_density_ceiling() {
        // δ = 6/2 = 3 ⇒ the result can never be below 3, and here equals it.
        let t = parallel_task(6, 1, 2, 10);
        assert_eq!(t.min_processors_lower_bound(), 3);
    }

    #[test]
    fn fails_when_available_too_small() {
        let t = parallel_task(6, 1, 2, 10);
        assert_eq!(min_procs(&t, 2, PriorityPolicy::ListOrder), None);
    }

    #[test]
    fn fails_fast_on_infeasible_chain() {
        // Chain of length 5 with D = 4: hopeless on any cluster size.
        let mut b = DagBuilder::new();
        let v = b.add_vertices([2, 3].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let t = DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        assert_eq!(min_procs(&t, 100, PriorityPolicy::ListOrder), None);
    }

    #[test]
    fn sequential_low_density_task_takes_one_processor() {
        let t = paper_figure1();
        let r = min_procs(&t, 4, PriorityPolicy::ListOrder).unwrap();
        assert_eq!(r.processors, 1);
        assert_eq!(r.template.makespan(), t.volume());
    }

    #[test]
    fn result_is_minimal() {
        // Check minimality by re-running LS on fewer processors.
        let t = parallel_task(7, 2, 6, 10); // vol 14, D 6 ⇒ ⌈14/6⌉ = 3
        let r = min_procs(&t, 10, PriorityPolicy::ListOrder).unwrap();
        for mu in 1..r.processors {
            let s = fedsched_graham::list::list_schedule(t.dag(), mu);
            assert!(s.makespan() > t.deadline(), "μ = {mu} should not fit");
        }
    }

    #[test]
    fn intrinsic_sizing_matches_uncapped_search() {
        let t = parallel_task(6, 1, 2, 10);
        let intrinsic = intrinsic_min_procs(&t, PriorityPolicy::ListOrder).unwrap();
        let capped = min_procs(&t, 1_000, PriorityPolicy::ListOrder).unwrap();
        assert_eq!(intrinsic.processors, capped.processors);
        assert!(intrinsic.processors <= t.dag().vertex_count() as u32);
    }

    #[test]
    fn intrinsic_sizing_fails_only_on_infeasible_chains() {
        let mut b = DagBuilder::new();
        let v = b.add_vertices([2, 3].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let t = DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        assert_eq!(intrinsic_min_procs(&t, PriorityPolicy::ListOrder), None);
        let ok = parallel_task(4, 1, 1, 4);
        assert!(intrinsic_min_procs(&ok, PriorityPolicy::CriticalPathFirst).is_some());
    }

    #[test]
    fn probe_counts_one_ls_run_per_candidate_mu() {
        // 6 unit jobs, D = 2: lower bound ⌈6/2⌉ = 3 fits on the first try.
        let t = parallel_task(6, 1, 2, 10);
        let mut probe = AnalysisProbe::default();
        let r = min_procs_probed(&t, 8, PriorityPolicy::ListOrder, &mut probe).unwrap();
        assert_eq!(r.processors, 3);
        assert_eq!(probe.ls_runs, 1);
        assert_eq!(probe.makespan_evaluations, 1);

        // A failing search tries every μ in [lower bound, available].
        let mut probe = AnalysisProbe::default();
        assert!(min_procs_probed(&t, 2, PriorityPolicy::ListOrder, &mut probe).is_none());
        assert_eq!(probe.ls_runs, 0, "search space [3, 2] is empty");
        assert_eq!(probe.ls_runs_pruned, 0, "an empty window prunes nothing");

        // An infeasible chain fails before any LS run.
        let mut b = DagBuilder::new();
        let v = b.add_vertices([2, 3].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let infeasible =
            DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        let mut probe = AnalysisProbe::default();
        assert!(
            min_procs_probed(&infeasible, 100, PriorityPolicy::ListOrder, &mut probe).is_none()
        );
        assert_eq!(probe.ls_runs, 0);
    }

    #[test]
    fn bound_pruning_skips_exactly_the_claimed_candidates() {
        // 6 unit jobs, D = 2: vol 6, len 1 ⇒ lo = ⌈6/2⌉ = 3 and the Graham
        // bracket is ⌈(6−1)/(2−1)⌉ = 5 (< vertex count 6). Against 8
        // available processors the literal Fig. 3 window is [3, 8]; the
        // bounds cut it to [3, 5], pruning exactly candidates {6, 7, 8}.
        // μ = 3 passes first, so exactly one LS runs.
        let t = parallel_task(6, 1, 2, 10);
        let mut probe = AnalysisProbe::default();
        let r = min_procs_probed(&t, 8, PriorityPolicy::ListOrder, &mut probe).unwrap();
        assert_eq!(r.processors, 3);
        assert_eq!(probe.ls_runs, 1);
        assert_eq!(probe.ls_runs_pruned, 3, "candidates 6, 7, 8 are pruned");
        assert_eq!(probe.par_tasks_dispatched, 0, "the sweep never fans out");

        // The same task with available exactly at the bracket: nothing to
        // prune above the top, identical answer.
        let mut probe = AnalysisProbe::default();
        let r = min_procs_probed(&t, 5, PriorityPolicy::ListOrder, &mut probe).unwrap();
        assert_eq!(r.processors, 3);
        assert_eq!(probe.ls_runs_pruned, 0);
    }

    #[test]
    fn sweep_stops_at_minimum_passing_candidate() {
        // Two unit-cost independent vertices a1(3), a2(3) plus a chain
        // c1(2) → c2(2) → c3(2): vol 12, len 6, D 7 ⇒ lo = ⌈12/7⌉ = 2,
        // bracket ⌈(12−6)/(7−6)⌉ = 6 capped by vertex count 5. Hand-run of
        // ListOrder LS: μ = 2 finishes at 9 (fail), μ = 3 at 6 (pass). The
        // sweep stops there: two LS runs, answer μ = 3, and μ = 4 and 5
        // never run.
        let mut b = DagBuilder::new();
        let v = b.add_vertices([3, 3, 2, 2, 2].map(Duration::new));
        b.add_edge(v[2], v[3]).unwrap();
        b.add_edge(v[3], v[4]).unwrap();
        let t = DagTask::new(b.build().unwrap(), Duration::new(7), Duration::new(10)).unwrap();
        let mut probe = AnalysisProbe::default();
        let r = min_procs_probed(&t, 10, PriorityPolicy::ListOrder, &mut probe).unwrap();
        assert_eq!(r.processors, 3, "smallest passing μ, not just any pass");
        assert_eq!(probe.ls_runs, 2, "μ = 2 fails, μ = 3 passes");
        assert_eq!(probe.makespan_evaluations, 2);
        assert_eq!(probe.ls_runs_pruned, 5, "candidates 6..=10 never run");
        assert_eq!(probe.par_tasks_dispatched, 0, "the sweep never fans out");
        // Cross-check minimality the expensive way.
        let s2 = fedsched_graham::list::list_schedule(t.dag(), 2);
        assert!(s2.makespan() > t.deadline());
    }

    #[test]
    fn fits_verdict_always_matches_full_sizing() {
        let tasks = [
            parallel_task(6, 1, 2, 10),
            parallel_task(7, 2, 6, 10),
            parallel_task(4, 1, 1, 4),
            paper_figure1(),
        ];
        for t in &tasks {
            for available in 0..=12u32 {
                for policy in [PriorityPolicy::ListOrder, PriorityPolicy::CriticalPathFirst] {
                    assert_eq!(
                        min_procs_fits(t, available, policy),
                        min_procs(t, available, policy).is_some(),
                        "available = {available}"
                    );
                }
            }
        }
    }

    #[test]
    fn fits_accepts_certified_windows_without_ls_runs() {
        // 6 unit jobs, D = 2, 8 available: the window [3, 5] is certified
        // (bracket 5 ≤ 8), so the verdict needs no LS at all and the whole
        // Fig. 3 window [3, 8] is pruned.
        let t = parallel_task(6, 1, 2, 10);
        let mut probe = AnalysisProbe::default();
        assert!(min_procs_fits_probed(
            &t,
            8,
            PriorityPolicy::ListOrder,
            &mut probe
        ));
        assert_eq!(probe.ls_runs, 0, "certificate accept");
        assert_eq!(probe.ls_runs_pruned, 6, "all of [3, 8] decided by bounds");

        // Truncated window: available = 4 < bracket 5 ⇒ acceptance is open
        // and the sweep must actually run ({3} passes immediately).
        let mut probe = AnalysisProbe::default();
        assert!(min_procs_fits_probed(
            &t,
            4,
            PriorityPolicy::ListOrder,
            &mut probe
        ));
        assert_eq!(probe.ls_runs, 1);

        // Certificate reject: empty window costs nothing.
        let mut probe = AnalysisProbe::default();
        assert!(!min_procs_fits_probed(
            &t,
            2,
            PriorityPolicy::ListOrder,
            &mut probe
        ));
        assert_eq!(probe.ls_runs, 0);
        assert_eq!(probe.ls_runs_pruned, 0);
    }

    #[test]
    fn template_never_beats_lower_bound() {
        let t = parallel_task(5, 3, 9, 12);
        let r = min_procs(&t, 6, PriorityPolicy::CriticalPathFirst).unwrap();
        assert!(r.template.makespan() >= makespan_lower_bound(t.dag(), r.processors));
    }

    #[test]
    fn bound_guided_search_agrees_with_literal_sweep() {
        // Oracle: the unpruned, unhoisted Fig. 3 loop, exactly as seeded.
        fn literal_sweep(
            task: &DagTask,
            available: u32,
            policy: PriorityPolicy,
        ) -> Option<MinProcsResult> {
            if !task.is_chain_feasible() {
                return None;
            }
            let start = task.min_processors_lower_bound().max(1);
            for mu in start..=available {
                let template = fedsched_graham::list::list_schedule_with(task.dag(), mu, policy);
                if template.makespan() <= task.deadline() {
                    return Some(MinProcsResult {
                        processors: mu,
                        template,
                    });
                }
            }
            None
        }

        let mut b = DagBuilder::new();
        let v = b.add_vertices([3, 3, 2, 2, 2].map(Duration::new));
        b.add_edge(v[2], v[3]).unwrap();
        b.add_edge(v[3], v[4]).unwrap();
        let fork = DagTask::new(b.build().unwrap(), Duration::new(7), Duration::new(10)).unwrap();
        let tasks = [
            parallel_task(6, 1, 2, 10),
            parallel_task(7, 2, 6, 10),
            parallel_task(9, 3, 5, 30),
            fork,
            paper_figure1(),
        ];
        for t in &tasks {
            for available in 0..=12u32 {
                for policy in [
                    PriorityPolicy::ListOrder,
                    PriorityPolicy::CriticalPathFirst,
                    PriorityPolicy::LongestWcetFirst,
                ] {
                    assert_eq!(
                        min_procs(t, available, policy),
                        literal_sweep(t, available, policy),
                        "available = {available}, policy = {policy:?}"
                    );
                }
            }
        }
    }
}
