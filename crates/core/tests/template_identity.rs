//! Byte-identity of the allocation-free List-Scheduling kernel.
//!
//! Two oracles pin the workspace kernel down:
//!
//! 1. A verbatim reimplementation of the retired `BinaryHeap` kernel —
//!    three heaps over `(rank, vertex)`, `(free_at, processor)` and
//!    `(finish, vertex)` — must produce the *same bytes*: every entry's
//!    processor, start and finish. All three key tuples have unique second
//!    components, so the pop sequences are total orders, and the
//!    workspace's bitset, idle-processor queue and running list must
//!    reproduce them; this test is the executable form of that argument.
//!    It covers processor counts from 1 to past the vertex count, and
//!    execution times other than the WCETs, zero included, as the
//!    simulator and the anomaly demonstration pass.
//! 2. The same generated schedules must come back byte-identical whether
//!    the kernel runs on the caller's thread or on `fedsched-parallel`
//!    pool workers at widths 1, 2 and 8 (one thread-local workspace each).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use fedsched_dag::graph::{Dag, VertexId};
use fedsched_dag::system::TaskSystem;
use fedsched_dag::time::Duration;
use fedsched_gen::{DeadlineTightness, Span, SystemConfig, Topology, WcetRange};
use fedsched_graham::list::{
    list_makespan_ranked, list_schedule_ranked, list_schedule_within, PriorityPolicy,
};
use fedsched_graham::schedule::{ScheduleEntry, TemplateSchedule};
use fedsched_parallel::Pool;
use proptest::prelude::*;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn pool(width: usize) -> &'static Pool {
    static POOLS: OnceLock<Vec<Pool>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| WIDTHS.iter().map(|&w| Pool::new(w)).collect());
    &pools[WIDTHS
        .iter()
        .position(|&w| w == width)
        .expect("known width")]
}

/// The retired heap-based kernel, reproduced as the equivalence oracle.
fn heap_kernel_reference(
    dag: &Dag,
    processors: u32,
    ranks: &[u64],
    times: &[Duration],
) -> TemplateSchedule {
    let n = dag.vertex_count();
    let mut remaining: Vec<u32> = dag.vertices().map(|v| dag.in_degree(v) as u32).collect();
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> = dag
        .vertices()
        .filter(|&v| remaining[v.index()] == 0)
        .map(|v| Reverse((ranks[v.index()], v.index() as u32)))
        .collect();
    let mut procs: BinaryHeap<Reverse<(u64, u32)>> =
        (0..processors).map(|p| Reverse((0u64, p))).collect();
    let mut running: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut entries = vec![
        ScheduleEntry {
            processor: 0,
            start: Duration::ZERO,
            finish: Duration::ZERO,
        };
        n
    ];
    let mut now = 0u64;
    let mut scheduled = 0usize;
    while scheduled < n {
        while let Some(&Reverse((finish, v))) = running.peek() {
            if finish > now {
                break;
            }
            running.pop();
            for &s in dag.successors(VertexId::from_index(v as usize)) {
                remaining[s.index()] -= 1;
                if remaining[s.index()] == 0 {
                    ready.push(Reverse((ranks[s.index()], s.index() as u32)));
                }
            }
        }
        while let Some(&Reverse((free_at, p))) = procs.peek() {
            if free_at > now || ready.is_empty() {
                break;
            }
            procs.pop();
            let Reverse((_, v)) = ready.pop().expect("checked non-empty");
            let finish = now + times[v as usize].ticks();
            entries[v as usize] = ScheduleEntry {
                processor: p,
                start: Duration::new(now),
                finish: Duration::new(finish),
            };
            scheduled += 1;
            running.push(Reverse((finish, v)));
            procs.push(Reverse((finish, p)));
        }
        if scheduled == n {
            break;
        }
        now = running
            .peek()
            .expect("jobs remain but nothing is running or available")
            .0
             .0;
    }
    TemplateSchedule::from_entries(processors, entries)
}

fn arb_system() -> impl Strategy<Value = TaskSystem> {
    (any::<u64>(), 1usize..=4, 1.0f64..5.0).prop_map(|(seed, n_tasks, utilization)| {
        let config = SystemConfig::new(n_tasks, utilization)
            .with_topology(Topology::ErdosRenyi {
                vertices: Span::new(2, 14),
                edge_probability: 0.25,
            })
            .with_wcet(WcetRange::new(1, 12))
            .with_tightness(DeadlineTightness::new(0.6, 1.0));
        (0u64..256)
            .find_map(|k| config.generate_seeded(seed.wrapping_add(k)))
            .expect("some nearby seed admits the configuration")
    })
}

/// Cluster sizes from the contended `1..=9` up to 80, past every
/// generated vertex count (at most 14) and past 64.
fn arb_processors() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=9, 10u32..=80]
}

fn arb_policy() -> impl Strategy<Value = PriorityPolicy> {
    prop_oneof![
        Just(PriorityPolicy::ListOrder),
        Just(PriorityPolicy::CriticalPathFirst),
        Just(PriorityPolicy::LongestWcetFirst),
    ]
}

proptest! {
    /// The workspace kernel and the retired heap kernel emit the same
    /// bytes, and the makespan-only entry point agrees with both.
    #[test]
    fn workspace_kernel_matches_retired_heap_kernel(
        system in arb_system(),
        policy in arb_policy(),
        processors in arb_processors(),
    ) {
        for (_, task) in system.iter() {
            let dag = task.dag();
            let ranks = policy.ranks(dag);
            let expected = heap_kernel_reference(dag, processors, &ranks, dag.wcets());
            let actual = list_schedule_ranked(dag, processors, &ranks, dag.wcets());
            prop_assert_eq!(&actual, &expected, "schedules must be byte-identical");
            prop_assert_eq!(
                list_makespan_ranked(dag, processors, &ranks, dag.wcets()),
                expected.makespan(),
                "decision-only path must agree"
            );
        }
    }

    /// The template-on-pass entry point `MINPROCS` sizes with returns no
    /// template when the oracle's makespan is above the deadline, and the
    /// oracle's bytes when it is at or below.
    #[test]
    fn template_on_pass_matches_retired_heap_kernel(
        system in arb_system(),
        policy in arb_policy(),
        processors in arb_processors(),
    ) {
        for (_, task) in system.iter() {
            let dag = task.dag();
            let ranks = policy.ranks(dag);
            let expected = heap_kernel_reference(dag, processors, &ranks, dag.wcets());
            let makespan = expected.makespan();
            let deadlines = [
                makespan.saturating_sub(Duration::new(1)),
                makespan,
                makespan + Duration::new(1),
                task.deadline(),
            ];
            for deadline in deadlines {
                let on_pass = list_schedule_within(dag, processors, &ranks, dag.wcets(), deadline);
                let oracle = (makespan <= deadline).then(|| expected.clone());
                prop_assert_eq!(on_pass, oracle, "deadline {}", deadline);
            }
        }
    }

    /// Execution times other than the WCETs, zero included: a zero-time
    /// job hands its processor back at its start, and its successors are
    /// released at the same instant, after that instant's dispatches.
    #[test]
    fn workspace_kernel_matches_retired_heap_kernel_on_any_times(
        system in arb_system(),
        policy in arb_policy(),
        processors in arb_processors(),
        salt in any::<u64>(),
    ) {
        for (_, task) in system.iter() {
            let dag = task.dag();
            let ranks = policy.ranks(dag);
            // Each time in `0..=wcet`; one in four is forced to zero.
            let times: Vec<Duration> = dag
                .wcets()
                .iter()
                .enumerate()
                .map(|(v, w)| {
                    let mix = salt.rotate_left(7 * v as u32) ^ (v as u64).wrapping_mul(0x9E37_79B9);
                    let ticks = if mix.is_multiple_of(4) { 0 } else { (mix >> 2) % (w.ticks() + 1) };
                    Duration::new(ticks)
                })
                .collect();
            let expected = heap_kernel_reference(dag, processors, &ranks, &times);
            let actual = list_schedule_ranked(dag, processors, &ranks, &times);
            prop_assert_eq!(&actual, &expected, "schedules must be byte-identical");
            prop_assert_eq!(
                list_makespan_ranked(dag, processors, &ranks, &times),
                expected.makespan(),
                "decision-only path must agree"
            );
        }
    }

    /// Templates computed on pool workers (one thread-local workspace per
    /// worker) are byte-identical at widths 1, 2 and 8.
    #[test]
    fn templates_are_byte_identical_across_pool_widths(
        system in arb_system(),
        policy in arb_policy(),
    ) {
        for (_, task) in system.iter() {
            let dag = task.dag();
            let ranks = policy.ranks(dag);
            let mus: Vec<u32> = (1..=8).collect();
            let runs: Vec<Vec<TemplateSchedule>> = WIDTHS
                .iter()
                .map(|&width| {
                    pool(width).install(|| {
                        pool(width).par_map(&mus, |&mu| {
                            list_schedule_ranked(dag, mu, &ranks, dag.wcets())
                        })
                    })
                })
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                prop_assert_eq!(run, &runs[0], "width {} diverged", WIDTHS[i]);
            }
        }
    }
}
