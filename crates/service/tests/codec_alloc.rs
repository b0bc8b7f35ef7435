//! Allocation budget of the request codec.
//!
//! The JSON codec decodes straight from the frame's bytes into the typed
//! request — a `DagTask` lands in its CSR arrays with no intermediate tree
//! — and encodes straight into the caller's buffer. A counting global
//! allocator turns both into tests:
//!
//! * decoding an admit frame of a seeded catalogue shaped like
//!   `serve_warm`'s (Erdős–Rényi DAGs of 20–120 vertices) makes at most
//!   [`DECODE_BUDGET`] allocations, the task's own arrays and its checks
//!   included;
//! * encoding any `Response` into a buffer that already has room makes
//!   none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedsched_service::protocol::{Placement, Request, RequestTiming, Response};
use fedsched_service::{AdmissionConfig, AdmissionState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

mod common;
use common::warm_task;

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

/// Most allocations one admit frame's decode may make.
const DECODE_BUDGET: u64 = 64;

#[test]
fn decoding_a_warm_admit_frame_stays_within_budget() {
    let mut rng = StdRng::seed_from_u64(20_150_309);
    let frames: Vec<String> = (0..300)
        .map(|_| warm_task(&mut rng, (20, 120), 0.03))
        .enumerate()
        .map(|(i, task)| {
            serde_json::to_string(&Request::Admit {
                task,
                trace_id: (i % 2 == 0).then_some(i as u64),
                echo_timing: i % 3 == 0,
            })
            .expect("encode admit")
        })
        .collect();
    let mut total = 0;
    let mut worst = (0, 0);
    for (i, frame) in frames.iter().enumerate() {
        let before = allocations();
        let request: Request = serde_json::from_str(frame).expect("decode admit");
        let made = allocations() - before;
        drop(request);
        total += made;
        worst = worst.max((made, i));
    }
    let mean = total as f64 / frames.len() as f64;
    println!(
        "admit decode: {mean:.1} allocations on average, {} at most (frame {})",
        worst.0, worst.1
    );
    assert!(
        worst.0 <= DECODE_BUDGET,
        "frame {} ({} bytes) made {} allocations; the budget is {DECODE_BUDGET}",
        worst.1,
        frames[worst.1].len(),
        worst.0
    );
}

#[test]
fn encoding_a_response_into_a_roomy_buffer_allocates_nothing() {
    let snapshot = AdmissionState::new(AdmissionConfig::new(4)).snapshot();
    let timing = RequestTiming {
        idle_us: 5,
        read_us: 12,
        parse_us: 3,
        cache_us: 7,
        analysis_us: 450,
        wal_us: 88,
    };
    let responses = [
        Response::Admitted {
            token: 7,
            placement: Placement::Dedicated {
                first_processor: 2,
                processors: 3,
            },
            cache_hit: true,
            trace_id: Some(99),
            timing: Some(timing),
        },
        Response::Admitted {
            token: 8,
            placement: Placement::Shared { processor: 5 },
            cache_hit: false,
            trace_id: None,
            timing: None,
        },
        Response::Rejected {
            reason: "task \"τ\"\n fits on none of the 4 shared processors\u{1}".into(),
            trace_id: Some(1),
            timing: Some(timing),
        },
        Response::Removed {
            token: 7,
            migrated: 2,
        },
        Response::TaskInfo {
            token: 8,
            placement: Placement::Shared { processor: 5 },
        },
        Response::NotFound { token: 42 },
        Response::Stats { snapshot },
        Response::Metrics {
            text: "# HELP x y\nx 1\n".into(),
        },
        Response::ShuttingDown,
        Response::Busy {
            retry_after_ms: 100,
        },
        Response::Error {
            message: "expected `,` or `}` in object at byte 17".into(),
        },
    ];
    let mut buf = String::with_capacity(64 * 1024);
    for response in &responses {
        buf.clear();
        let before = allocations();
        response.serialize(&mut buf);
        let made = allocations() - before;
        assert_eq!(made, 0, "encoding {buf} allocated {made} times");
        assert_eq!(buf, serde_json::to_string(response).expect("encode"));
    }
}
