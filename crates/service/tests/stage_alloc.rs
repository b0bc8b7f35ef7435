//! Allocation gate for the per-request stage timing path.
//!
//! The PR-8 ethos extends to observability: measuring the pipeline must
//! not perturb it. After the telemetry clock's one-time epoch
//! initialization, a full request's worth of stage stamping —
//! `StageTimer::start`, one stamp per boundary, the dispatch split, the
//! processing-time sum, and `StageCounters::record` into the shared
//! atomics — performs **zero** heap allocations. A counting global
//! allocator turns that contract into a test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedsched_service::stats::RequestStage;
use fedsched_service::{StageCounters, StageTimer};

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

/// One request's worth of stage stamping, exactly as the reactor, the
/// request loop, and `dispatch` drive it.
fn stamp_one_request(counters: &StageCounters) {
    let mut timer = StageTimer::start();
    timer.stamp(RequestStage::IdleWait);
    timer.stamp(RequestStage::FrameRead);
    timer.stamp(RequestStage::Parse);
    timer.stamp_dispatch(120, 340);
    timer.stamp(RequestStage::Serialize);
    let _ = timer.processing_nanos();
    let _ = timer.micros(RequestStage::Analysis);
    let _ = timer.last_interval(RequestStage::FrameRead);
    counters.record(&timer);
}

#[test]
fn warm_path_stage_timing_is_allocation_free() {
    // Warm-up: the first `monotonic_nanos` call initializes the process
    // epoch (a OnceLock), and `StageCounters::default` builds the atomic
    // bucket matrix. Neither is per-request work.
    let counters = StageCounters::default();
    stamp_one_request(&counters);

    let before = allocations();
    for _ in 0..1_000 {
        stamp_one_request(&counters);
    }
    assert_eq!(
        allocations() - before,
        0,
        "per-request stage timing must not touch the heap"
    );

    // The loop really recorded: every stage histogram counted every
    // request (the snapshot itself may allocate — taken after the gate).
    let stats = counters.snapshot();
    assert_eq!(stats.requests_total, 1_001);
    for stage in RequestStage::ALL {
        let total: u64 = stats.buckets(stage).iter().sum();
        assert_eq!(
            total,
            1_001,
            "stage {} must count every request",
            stage.name()
        );
    }
}
