//! Allocation gate for the List-Scheduling kernel.
//!
//! The CSR/workspace refactor's contract is behavioural, not just fast:
//! after warm-up, the kernel's makespan-only path performs **zero** heap
//! allocations and the template path exactly one (the returned entry
//! vector). A counting global allocator turns that contract into a test,
//! so a regression shows up as a failed assertion rather than a slow
//! benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedsched_dag::graph::{Dag, DagBuilder};
use fedsched_dag::time::Duration;
use fedsched_graham::list::{
    list_makespan_ranked, list_schedule_ranked, list_schedule_within, PriorityPolicy,
};
use fedsched_graham::workspace::LsWorkspace;

thread_local! {
    /// Per-thread allocation count: tests run on harness threads, so a
    /// process-global counter would pick up other tests' noise.
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

/// A layered DAG wide enough to exercise the bitset, the idle-processor
/// queue and the running list: 64 vertices in 8 layers, each vertex
/// depending on two vertices of the previous layer.
fn layered_dag() -> Dag {
    let mut b = DagBuilder::new();
    let vs = b.add_vertices((0..64).map(|i| Duration::new(1 + (i * 7) % 13)));
    for layer in 1..8 {
        for i in 0..8 {
            let v = vs[layer * 8 + i];
            b.add_edge(vs[(layer - 1) * 8 + i], v).unwrap();
            b.add_edge(vs[(layer - 1) * 8 + (i + 3) % 8], v).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn warm_workspace_kernel_runs_are_allocation_free() {
    let dag = layered_dag();
    let ranks = PriorityPolicy::CriticalPathFirst.ranks(&dag);
    let mut ws = LsWorkspace::new();
    ws.prepare(&ranks);
    // Warm-up at the largest processor count the loop will see, so every
    // buffer reaches its steady-state capacity.
    let warm = ws.template(&dag, 8, dag.wcets());
    assert!(warm.makespan() > Duration::ZERO);

    // Makespan-only path: zero allocations across processor counts.
    let before = allocations();
    let mut checksum = Duration::ZERO;
    for mu in 1..=8 {
        checksum += ws.makespan(&dag, mu, dag.wcets());
    }
    assert_eq!(
        allocations() - before,
        0,
        "the warm makespan-only kernel loop must not allocate"
    );
    assert!(checksum > Duration::ZERO);

    // Re-preparing with identical ranks is memoized: still no allocations.
    let before = allocations();
    ws.prepare(&ranks);
    let _ = ws.makespan(&dag, 4, dag.wcets());
    assert_eq!(allocations() - before, 0, "memoized prepare must be free");
}

#[test]
fn warm_template_path_allocates_exactly_one_entry_vector_per_run() {
    let dag = layered_dag();
    let ranks = PriorityPolicy::ListOrder.ranks(&dag);
    let mut ws = LsWorkspace::new();
    ws.prepare(&ranks);
    let warm = ws.template(&dag, 8, dag.wcets());

    let before = allocations();
    let runs = 8u64;
    let mut templates = Vec::with_capacity(runs as usize);
    let vec_alloc = allocations() - before;
    let before = allocations();
    for mu in 1..=runs {
        templates.push(ws.template(&dag, mu as u32, dag.wcets()));
    }
    assert_eq!(
        allocations() - before,
        runs,
        "each warm template run should allocate exactly its entry vector"
    );
    assert_eq!(vec_alloc, 1, "sanity: the counter counts Vec allocations");
    assert_eq!(templates[7], warm, "same inputs, same template");
}

#[test]
fn public_entry_points_stay_lean_through_the_thread_workspace() {
    let dag = layered_dag();
    let ranks = PriorityPolicy::CriticalPathFirst.ranks(&dag);
    // Warm this thread's shared workspace through the public API.
    let warm = list_schedule_ranked(&dag, 8, &ranks, dag.wcets());

    let before = allocations();
    for mu in 1..=8 {
        let _ = list_makespan_ranked(&dag, mu, &ranks, dag.wcets());
    }
    assert_eq!(
        allocations() - before,
        0,
        "list_makespan_ranked must be allocation-free when warm"
    );

    let before = allocations();
    let again = list_schedule_ranked(&dag, 8, &ranks, dag.wcets());
    let after = allocations();
    assert_eq!(
        after - before,
        1,
        "list_schedule_ranked allocates only the returned entries"
    );
    assert_eq!(again, warm);
}

#[test]
fn warm_makespan_path_is_allocation_free_at_wide_clusters() {
    let dag = layered_dag();
    let ranks = PriorityPolicy::CriticalPathFirst.ranks(&dag);
    let mut ws = LsWorkspace::new();
    ws.prepare(&ranks);
    let warm = ws.template(&dag, 256, dag.wcets());

    // Clusters as wide as the DAG and wider: every vertex starts at its
    // earliest start, so the makespan is the longest chain.
    let chain = dag.longest_chain().length;
    let before = allocations();
    let mut all_chain = true;
    for mu in [64u32, 65, 256, 1 << 20] {
        all_chain &= ws.makespan(&dag, mu, dag.wcets()) == chain;
    }
    assert_eq!(
        allocations() - before,
        0,
        "the warm makespan-only kernel must not allocate at wide clusters"
    );
    assert!(all_chain);
    assert_eq!(warm.makespan(), chain);
}

#[test]
fn failing_candidates_allocate_nothing_and_the_passing_one_its_entries() {
    let dag = layered_dag();
    let ranks = PriorityPolicy::ListOrder.ranks(&dag);
    let spans: Vec<Duration> = (1..=8)
        .map(|mu| list_makespan_ranked(&dag, mu, &ranks, dag.wcets()))
        .collect();
    // A deadline μ = 8 meets; every candidate before the first that meets
    // it fails.
    let deadline = spans[7];
    let first_pass = spans
        .iter()
        .position(|&s| s <= deadline)
        .expect("μ = 8 passes") as u32
        + 1;
    assert!(first_pass > 2, "the first candidates must fail: {spans:?}");
    let _ = list_schedule_within(&dag, 8, &ranks, dag.wcets(), deadline);

    let before = allocations();
    let sizing = (1..=8).find_map(|mu| {
        list_schedule_within(&dag, mu, &ranks, dag.wcets(), deadline).map(|t| (mu, t))
    });
    let after = allocations();
    let (mu, template) = sizing.expect("some candidate passes");
    assert_eq!(mu, first_pass);
    assert_eq!(
        after - before,
        1,
        "{} failing candidates, then one template",
        first_pass - 1
    );
    assert_eq!(
        template,
        list_schedule_ranked(&dag, mu, &ranks, dag.wcets())
    );
}
