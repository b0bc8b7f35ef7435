//! Property-based cross-validation of the analysis machinery.
//!
//! The central soundness property: any partition accepted by the approximate
//! `DBF*` first-fit test must be schedulable per-processor under the *exact*
//! EDF processor-demand criterion. Plus: QPA and the exhaustive walk always
//! agree, `DBF*` dominates `dbf` pointwise, and the first fit places and
//! counts exactly as a literal Fig. 4 that sums `DBF*` resident by
//! resident.

use fedsched_analysis::dbf::{dbf, dbf_approx, SequentialView};
use fedsched_analysis::edf::{demand_horizon, edf_exact, edf_qpa, DEFAULT_BUDGET};
use fedsched_analysis::incremental::ProcessorState;
use fedsched_analysis::partition::{
    fits, partition_first_fit, partition_first_fit_probed, PartitionConfig,
};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_dag::rational::Rational;
use fedsched_dag::system::TaskId;
use fedsched_dag::time::Duration;
use fedsched_gen::params::round_period_to_grid;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random constrained-deadline sequential task: T ∈ \[2, 60\], C ≤ T,
/// D ∈ [C, T].
fn arb_view() -> impl Strategy<Value = SequentialView> {
    (2u64..=60).prop_flat_map(|t| {
        (1u64..=t, Just(t)).prop_flat_map(|(c, t)| {
            (c..=t).prop_map(move |d| {
                SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
            })
        })
    })
}

fn arb_task_set(max: usize) -> impl Strategy<Value = Vec<SequentialView>> {
    prop::collection::vec(arb_view(), 1..=max)
}

proptest! {
    /// QPA and the exhaustive deadline walk always return the same verdict.
    #[test]
    fn qpa_agrees_with_exhaustive(tasks in arb_task_set(6)) {
        let a = edf_exact(&tasks, DEFAULT_BUDGET).unwrap();
        let b = edf_qpa(&tasks, DEFAULT_BUDGET).unwrap();
        prop_assert_eq!(a.is_schedulable(), b.is_schedulable());
    }

    /// DBF* dominates the exact dbf at every sampled point and is tight at
    /// t = D.
    #[test]
    fn dbf_star_dominates(v in arb_view(), t in 0u64..=500) {
        let t = Duration::new(t);
        prop_assert!(dbf_approx(&v, t) >= Rational::from(dbf(&v, t).ticks()));
        prop_assert_eq!(
            dbf_approx(&v, v.deadline),
            Rational::from(dbf(&v, v.deadline).ticks())
        );
    }

    /// DBF* never exceeds exact dbf by more than one extra job's WCET
    /// (the standard tightness bound: DBF*(t) < dbf(t) + C).
    #[test]
    fn dbf_star_within_one_job(v in arb_view(), t in 0u64..=500) {
        let t = Duration::new(t);
        let exact = Rational::from(dbf(&v, t).ticks());
        let extra = Rational::from(v.wcet.ticks());
        prop_assert!(dbf_approx(&v, t) < exact + extra);
    }

    /// Soundness of the partitioner: with the default config, every
    /// processor of an accepted partition passes the exact EDF test.
    #[test]
    fn accepted_partitions_are_exactly_schedulable(
        tasks in arb_task_set(8),
        m in 1usize..=4,
    ) {
        let ids: Vec<(TaskId, SequentialView)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &v)| (TaskId::from_index(i), v))
            .collect();
        if let Ok(p) = partition_first_fit(&ids, m, PartitionConfig::default()) {
            for (_, assigned) in p.iter() {
                let views: Vec<SequentialView> =
                    assigned.iter().map(|id| tasks[id.index()]).collect();
                let verdict = edf_qpa(&views, DEFAULT_BUDGET).unwrap();
                prop_assert!(
                    verdict.is_schedulable(),
                    "DBF* accepted an EDF-infeasible processor: {views:?}"
                );
            }
            // Every task is placed exactly once.
            let mut placed = vec![false; tasks.len()];
            for (_, assigned) in p.iter() {
                for id in assigned {
                    prop_assert!(!placed[id.index()], "task placed twice");
                    placed[id.index()] = true;
                }
            }
            prop_assert!(placed.iter().all(|&b| b));
        }
    }

    /// Monotonicity: if first-fit succeeds on m processors it succeeds on
    /// m + 1.
    #[test]
    fn partition_monotone_in_processors(tasks in arb_task_set(8), m in 1usize..=4) {
        let ids: Vec<(TaskId, SequentialView)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &v)| (TaskId::from_index(i), v))
            .collect();
        let small = partition_first_fit(&ids, m, PartitionConfig::default());
        if small.is_ok() {
            prop_assert!(
                partition_first_fit(&ids, m + 1, PartitionConfig::default()).is_ok()
            );
        }
    }

    /// A single task is accepted by the partitioner iff C ≤ D (its own
    /// demand condition), matching exact EDF for singletons.
    #[test]
    fn singleton_partition_matches_edf(v in arb_view()) {
        let ids = [(TaskId::from_index(0), v)];
        let accepted = partition_first_fit(&ids, 1, PartitionConfig::default()).is_ok();
        let exact = edf_qpa(&[v], DEFAULT_BUDGET).unwrap().is_schedulable();
        prop_assert_eq!(accepted, exact);
    }

    /// Verdicts are invariant under task order permutations (EDF tests are
    /// set-level properties).
    #[test]
    fn edf_verdict_order_invariant(mut tasks in arb_task_set(6)) {
        let forward = edf_qpa(&tasks, DEFAULT_BUDGET).unwrap().is_schedulable();
        tasks.reverse();
        let backward = edf_qpa(&tasks, DEFAULT_BUDGET).unwrap().is_schedulable();
        prop_assert_eq!(forward, backward);
    }

    /// No violation exists beyond the demand horizon when U < 1: spot-check
    /// a handful of deadlines above it for schedulable sets.
    #[test]
    fn horizon_really_bounds_violations(tasks in arb_task_set(5)) {
        let u: Rational = tasks.iter().map(SequentialView::utilization).sum();
        prop_assume!(u < Rational::ONE);
        if edf_exact(&tasks, DEFAULT_BUDGET).unwrap().is_schedulable() {
            let horizon = demand_horizon(&tasks);
            for extra in [1u64, 7, 64, 1001] {
                let t = horizon + Duration::new(extra);
                let demand: u128 = tasks
                    .iter()
                    .map(|v| u128::from(dbf(v, t).ticks()))
                    .sum();
                prop_assert!(demand <= u128::from(t.ticks()));
            }
        }
    }
}

proptest! {
    /// Per-processor containment: any placement the `DBF*` test admits is
    /// admitted by the exact-EDF test too (the approximation only ever
    /// rejects more).
    ///
    /// The Fig. 4 condition is only evaluated in deadline order — residents
    /// always carry deadlines at most the candidate's — so the property is
    /// stated under that precondition. (Without it the DBF* check at the
    /// candidate's deadline says nothing about later resident deadlines,
    /// and indeed fails: that asymmetry is *why* the algorithm sorts.)
    #[test]
    fn exact_admission_contains_approx_admission(
        resident in prop::collection::vec(arb_view(), 0..=4),
        candidate in arb_view(),
    ) {
        use fedsched_analysis::partition::fits;
        use fedsched_dag::rational::Rational;
        prop_assume!(resident.iter().all(|r| r.deadline <= candidate.deadline));
        let u: Rational = resident.iter().map(SequentialView::utilization).sum();
        // The residents themselves must be a plausible first-fit state:
        // schedulable together.
        prop_assume!(edf_qpa(&resident, DEFAULT_BUDGET).unwrap().is_schedulable());
        let approx = fits(&resident, u, &candidate, PartitionConfig::approx());
        if approx {
            prop_assert!(
                fits(&resident, u, &candidate, PartitionConfig::exact(DEFAULT_BUDGET)),
                "exact test rejected an approx-admitted placement"
            );
        }
    }

    /// Exact-EDF first-fit never partitions onto an EDF-infeasible
    /// processor (mirrors the DBF* soundness property).
    #[test]
    fn exact_partitions_are_exactly_schedulable(
        tasks in arb_task_set(8),
        m in 1usize..=4,
    ) {
        let ids: Vec<(TaskId, SequentialView)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &v)| (TaskId::from_index(i), v))
            .collect();
        if let Ok(p) = partition_first_fit(&ids, m, PartitionConfig::exact(DEFAULT_BUDGET)) {
            for (_, assigned) in p.iter() {
                let views: Vec<SequentialView> =
                    assigned.iter().map(|id| tasks[id.index()]).collect();
                prop_assert!(edf_qpa(&views, DEFAULT_BUDGET).unwrap().is_schedulable());
            }
        }
    }

    /// The Spuri RTA is never *tighter* than the exact EDF verdict: whenever
    /// every response-time upper bound meets its deadline, the exact
    /// processor-demand criterion must also accept the set. (The converse
    /// can fail — the RTA is sufficient, not necessary — so only this
    /// direction is a law.)
    #[test]
    fn rta_bounds_never_tighter_than_exact_verdict(tasks in arb_task_set(6)) {
        use fedsched_analysis::response_time::edf_response_times;
        if let Ok(bounds) = edf_response_times(&tasks, DEFAULT_BUDGET) {
            // Each bound is a genuine upper bound: at least the task's own
            // WCET.
            for (r, t) in bounds.as_slice().iter().zip(&tasks) {
                prop_assert!(*r >= t.wcet, "bound {r:?} below WCET {:?}", t.wcet);
            }
            if bounds.all_within_deadlines(&tasks) {
                prop_assert!(
                    edf_exact(&tasks, DEFAULT_BUDGET).unwrap().is_schedulable(),
                    "RTA accepted a set the exact test rejects: {tasks:?}"
                );
            }
        }
    }

    /// Same law on every processor of a random exact-EDF first-fit
    /// partition: per-processor RTA acceptance implies the per-processor
    /// exact verdict (the partitioner only relies on the latter).
    #[test]
    fn rta_never_tighter_than_exact_on_random_partitions(
        tasks in arb_task_set(8),
        m in 1usize..=4,
    ) {
        use fedsched_analysis::response_time::edf_response_times;
        let ids: Vec<(TaskId, SequentialView)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &v)| (TaskId::from_index(i), v))
            .collect();
        if let Ok(p) = partition_first_fit(&ids, m, PartitionConfig::exact(DEFAULT_BUDGET)) {
            for (_, assigned) in p.iter() {
                let views: Vec<SequentialView> =
                    assigned.iter().map(|id| tasks[id.index()]).collect();
                if views.is_empty() {
                    continue;
                }
                if let Ok(bounds) = edf_response_times(&views, DEFAULT_BUDGET) {
                    if bounds.all_within_deadlines(&views) {
                        prop_assert!(
                            edf_exact(&views, DEFAULT_BUDGET).unwrap().is_schedulable(),
                            "RTA tighter than exact on processor {views:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The literal Fig. 4 admission test, as the paper states it: the `DBF*`
/// demand at the candidate's deadline summed resident by resident, plus
/// the \[7\] utilization condition when `utilization_check` is on.
fn literal_fits(
    resident: &[SequentialView],
    candidate: &SequentialView,
    utilization_check: bool,
) -> bool {
    let d = candidate.deadline;
    let demand: Rational = resident.iter().map(|r| dbf_approx(r, d)).sum();
    let utilization: Rational = resident.iter().map(SequentialView::utilization).sum();
    Rational::from(d.ticks()) - demand >= Rational::from(candidate.wcet.ticks())
        && !(utilization_check && utilization + candidate.utilization() > Rational::ONE)
}

/// The literal Fig. 4 first fit over [`literal_fits`]: tasks in deadline
/// order (ties by id), each on the lowest-indexed processor that admits
/// it. Returns the placements, or the first task that fits nowhere, plus
/// the `fits()` calls and `DBF*` terms the scan tried.
fn literal_first_fit(
    tasks: &[(TaskId, SequentialView)],
    processors: usize,
    utilization_check: bool,
) -> (Result<Vec<Vec<TaskId>>, TaskId>, AnalysisProbe) {
    let mut order: Vec<&(TaskId, SequentialView)> = tasks.iter().collect();
    order.sort_by_key(|(id, view)| (view.deadline, *id));
    let mut resident: Vec<Vec<SequentialView>> = vec![Vec::new(); processors];
    let mut placed: Vec<Vec<TaskId>> = vec![Vec::new(); processors];
    let mut probe = AnalysisProbe::default();
    for &(id, view) in order {
        let home = (0..processors).find(|&k| {
            probe.fits_calls += 1;
            probe.dbf_approx_evals += resident[k].len() as u64;
            literal_fits(&resident[k], &view, utilization_check)
        });
        match home {
            Some(k) => {
                resident[k].push(view);
                placed[k].push(id);
            }
            None => return (Err(id), probe),
        }
    }
    (Ok(placed), probe)
}

/// Shared-pool-scale cross-check of the first fit against the literal
/// Fig. 4: 100–200 low-density views with grid-rounded periods (as the
/// generator and the admission server see them) on 1–16 processors, with
/// the total utilization drawn around the pool's capacity so runs both
/// complete and run out of room. Every placement, the failing task, and
/// the probe's `fits()`/`DBF*` counts must equal the literal run's.
#[test]
fn first_fit_matches_the_literal_fig4_at_shared_pool_scale() {
    let mut rng = StdRng::seed_from_u64(0xF164);
    let mut outcomes = [0usize; 2];
    for _ in 0..24 {
        let n = rng.gen_range(100..=200usize);
        let m = rng.gen_range(1..=16usize);
        let mean_u = rng.gen_range(0.5..1.2) * m as f64 / n as f64;
        let tasks: Vec<(TaskId, SequentialView)> = (0..n)
            .map(|i| {
                let c = rng.gen_range(1..=60u64);
                let u = (mean_u * rng.gen_range(0.5..1.5)).clamp(0.002, 0.5);
                let t = round_period_to_grid(((c as f64 / u) as u64).max(c + 1));
                let d = rng.gen_range(c + 1..=t).max(t * 3 / 10);
                let view =
                    SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t));
                (TaskId::from_index(i), view)
            })
            .collect();
        for utilization_check in [true, false] {
            let config = PartitionConfig {
                utilization_check,
                ..PartitionConfig::default()
            };
            let mut probe = AnalysisProbe::default();
            let engine = partition_first_fit_probed(&tasks, m, config, &mut probe)
                .map(|p| p.iter().map(|(_, ids)| ids.to_vec()).collect::<Vec<_>>())
                .map_err(|failure| failure.task);
            let (literal, literal_probe) = literal_first_fit(&tasks, m, utilization_check);
            outcomes[usize::from(literal.is_ok())] += 1;
            assert_eq!(
                engine, literal,
                "n = {n}, m = {m}, check = {utilization_check}"
            );
            assert_eq!(probe.fits_calls, literal_probe.fits_calls);
            assert_eq!(probe.dbf_approx_evals, literal_probe.dbf_approx_evals);
        }
    }
    assert!(
        outcomes.iter().all(|&count| count > 0),
        "both complete and failed partitions must occur: {outcomes:?}"
    );
}

proptest! {
    /// `ProcessorState` answers the literal Fig. 4 test for residents in
    /// any deadline order, including residents due after the candidate
    /// (possible only through out-of-order `place`), and counts one
    /// `fits()` call and one `DBF*` term per resident. After each removal
    /// the state equals one built afresh from the survivors, and still
    /// answers literally.
    #[test]
    fn processor_state_matches_the_literal_test_in_any_order(
        residents in prop::collection::vec(arb_view(), 0..=10),
        candidate in arb_view(),
        removals in prop::collection::vec(0usize..10, 0..=6),
        utilization_check in any::<bool>(),
    ) {
        let config = PartitionConfig {
            utilization_check,
            ..PartitionConfig::default()
        };
        let fresh = |views: &[SequentialView]| {
            let mut state = ProcessorState::new();
            for &view in views {
                state.place(view);
            }
            state
        };
        let mut survivors = residents.clone();
        let mut state = fresh(&survivors);
        let mut removals = removals.into_iter();
        loop {
            let literal = literal_fits(&survivors, &candidate, utilization_check);
            let mut probe = AnalysisProbe::default();
            prop_assert_eq!(state.can_accept_probed(&candidate, config, &mut probe), literal);
            prop_assert_eq!(probe.fits_calls, 1);
            prop_assert_eq!(probe.dbf_approx_evals, survivors.len() as u64);
            prop_assert_eq!(
                fits(state.resident(), state.utilization(), &candidate, config),
                literal
            );
            let Some(i) = removals.next().filter(|_| !survivors.is_empty()) else {
                break;
            };
            let gone = survivors[i % survivors.len()];
            let first = survivors.iter().position(|&v| v == gone).expect("present");
            survivors.remove(first);
            prop_assert!(state.remove(&gone));
            prop_assert_eq!(&state, &fresh(&survivors));
        }
    }
}
