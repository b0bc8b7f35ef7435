//! Allocation gate for `MINPROCS`: a sweep copies a schedule into a
//! template only for the candidate that meets the deadline, so however
//! many candidates fail first, a warm sizing allocates its priority ranks
//! and one template.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::minprocs::{min_procs, min_procs_probed};
use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_graham::list::{list_schedule_with, PriorityPolicy};

thread_local! {
    /// Per-thread allocation count, so other tests' threads add no noise.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// `u64` has no destructor, so the thread-local slot is accessible for the
// whole thread lifetime — safe to touch from inside the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `jobs` independent unit jobs listed ahead of a unit-step chain as long
/// as the deadline. Under `ListOrder` the chain's head starts at time 0
/// only once every job has a processor, so each `μ ≤ jobs` misses the
/// deadline and `μ = jobs + 1` is the first to meet it, while the sweep
/// starts at `⌈vol / D⌉ = 1 + ⌈jobs / chain⌉`.
fn jobs_ahead_of_chain(jobs: usize, chain: usize) -> DagTask {
    let mut b = DagBuilder::new();
    b.add_vertices(std::iter::repeat_n(Duration::new(1), jobs));
    let links = b.add_vertices(std::iter::repeat_n(Duration::new(1), chain));
    for pair in links.windows(2) {
        b.add_edge(pair[0], pair[1]).unwrap();
    }
    let d = Duration::new(chain as u64);
    DagTask::new(b.build().unwrap(), d, d).unwrap()
}

#[test]
fn a_sweep_allocates_one_template_however_many_candidates_fail() {
    let policy = PriorityPolicy::ListOrder;
    for (jobs, chain) in [(8, 8), (12, 4), (30, 10)] {
        let task = jobs_ahead_of_chain(jobs, chain);
        let available = u32::try_from(jobs + chain).unwrap();
        // Warm the thread's kernel workspace.
        let warm = min_procs(&task, available, policy).expect("μ = jobs + 1 passes");

        let before = allocations();
        let ranks = policy.ranks(task.dag());
        let rank_allocations = allocations() - before;
        drop(ranks);

        let mut probe = AnalysisProbe::default();
        let before = allocations();
        let sizing = min_procs_probed(&task, available, policy, &mut probe);
        let sweep_allocations = allocations() - before;

        let sizing = sizing.expect("μ = jobs + 1 passes");
        let first = task.min_processors_lower_bound();
        assert_eq!(sizing.processors as usize, jobs + 1);
        assert_eq!(
            probe.ls_runs,
            u64::from(sizing.processors - first) + 1,
            "every candidate from ⌈δ⌉ = {first} up to the answer runs"
        );
        assert!(probe.ls_runs >= 3, "the first candidates fail");
        assert_eq!(
            sweep_allocations,
            rank_allocations + 1,
            "{} failing candidates, then one template",
            probe.ls_runs - 1
        );
        assert_eq!(sizing, warm);
        assert_eq!(
            sizing.template,
            list_schedule_with(task.dag(), sizing.processors, policy)
        );
    }
}
