//! A reusable, allocation-free workspace for the List-Scheduling kernel.
//!
//! [`crate::list::list_schedule_ranked`] is the hot loop of every analysis
//! in this workspace: `MINPROCS` runs it once per candidate cluster size,
//! FEDCONS once per admitted task, the simulator once per watched dag-job
//! release. [`LsWorkspace`] keeps all of the kernel's state in one arena
//! that is created once (per analysis, or per thread via
//! [`with_thread_workspace`]) and reused, so a warmed-up kernel run
//! performs no heap allocation at all on the makespan-only path and
//! exactly one (the returned entry vector) when a [`TemplateSchedule`] is
//! materialised.
//!
//! # Equivalence with the heap-based kernel
//!
//! The produced schedules are bit-for-bit identical to the retired
//! `BinaryHeap` implementation, which kept three min-queues: ready jobs by
//! `(rank, vertex)`, every processor by `(free_at, processor)` and running
//! jobs by `(finish, vertex)`. Each key's second component is unique, so
//! each pop sequence is a total order; the workspace reproduces the three
//! sequences without a heap.
//!
//! * **Ready jobs.** `prepare` sorts the vertices once by `(rank, vertex)`
//!   into a priority permutation, after which "pop the minimum-rank
//!   available vertex" is "pop the lowest set bit" of a bitset indexed by
//!   priority position.
//! * **Idle processors.** The heap's minimum was an idle processor (one
//!   with `free_at ≤ now`) whenever one existed, so only idle processors
//!   need ordering: a FIFO queue sorted by `(free_at, processor)`. A
//!   processor rejoins the queue when its job completes at `now`. Every
//!   queued processor has `free_at ≤ now`, so the newcomer goes to the
//!   back, passing only those freed at the same instant with a larger
//!   index. A zero-time job hands its processor back when it starts, as
//!   the heap re-pushed `(now, processor)` at dispatch. The queue starts
//!   with processors `0..min(μ, n)` only: processors that have not run a
//!   job all wait with `free_at = 0`, so they leave in index order, and a
//!   run's `n` dispatches never reach index `n`.
//! * **Running jobs.** Jobs finishing at one instant are all retired
//!   before any dispatch, and retiring only decrements predecessor
//!   counters and sets ready bits, so the order among them does not
//!   matter. They are kept in an unordered list of at most `min(μ, n)`
//!   jobs, each job with the processor it holds. One scan per completion
//!   instant splits off the jobs finishing then and finds the next
//!   instant among the rest.
//!
//! The queue never wraps: it starts with `min(μ, n)` entries and gains at
//! most one per job, so it is a flat array read from a moving head.

use std::cell::RefCell;

use fedsched_dag::graph::{Dag, VertexId};
use fedsched_dag::time::Duration;

use crate::schedule::{ScheduleEntry, TemplateSchedule};

/// A job on a processor, in the kernel's unordered running list.
#[derive(Debug, Clone, Copy)]
struct Running {
    finish: u64,
    vertex: u32,
    /// The processor the job holds, or [`Running::RETURNED`] for a
    /// zero-time job, whose processor went back to the idle queue when it
    /// started.
    processor: u32,
}

impl Running {
    /// No processor index reaches `u32::MAX`: indices are below `μ`.
    const RETURNED: u32 = u32::MAX;
}

/// Reusable state for the List-Scheduling kernel; see the module docs.
///
/// A workspace is prepared for one priority assignment with
/// [`LsWorkspace::prepare`] and then runs any number of schedules under it
/// (different processor counts, different execution-time vectors) without
/// allocating.
#[derive(Debug, Default)]
pub struct LsWorkspace {
    /// Priority position → vertex: the vertices sorted by `(rank, index)`.
    order: Vec<u32>,
    /// Vertex → priority position; inverse of `order`.
    position: Vec<u32>,
    /// The ranks `prepare` was last called with, for memoized re-prepares.
    prepared_ranks: Vec<u64>,
    /// Unscheduled-predecessor counters, reset per run.
    remaining_preds: Vec<u32>,
    /// Bit-packed set of available jobs, indexed by priority position.
    ready: Vec<u64>,
    /// Number of bits set in `ready`.
    ready_count: usize,
    /// Lowest word of `ready` that may contain a set bit.
    ready_hint: usize,
    /// Idle processors as `(free_at, processor)`, sorted from `idle_head`
    /// on; entries before the head have been dispatched.
    idle: Vec<(u64, u32)>,
    /// First live entry of `idle`.
    idle_head: usize,
    /// Jobs started and not yet retired, in no particular order.
    running: Vec<Running>,
    /// Scratch for the jobs one completion instant retires.
    retired: Vec<Running>,
    /// Entry buffer reused across runs; cloned once per template.
    entries: Vec<ScheduleEntry>,
    /// Vertex count of the prepared priority assignment.
    n: usize,
}

impl LsWorkspace {
    /// An empty workspace; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> LsWorkspace {
        LsWorkspace::default()
    }

    /// Installs the priority assignment `ranks` (one rank per vertex;
    /// smaller = scheduled earlier, ties toward the smaller vertex index).
    ///
    /// Re-preparing with ranks equal to the previous call is free: the
    /// sorted priority permutation only depends on the rank values, so it
    /// is memoized.
    pub fn prepare(&mut self, ranks: &[u64]) {
        let n = ranks.len();
        if self.n == n && self.prepared_ranks == ranks {
            return;
        }
        self.n = n;
        self.prepared_ranks.clear();
        self.prepared_ranks.extend_from_slice(ranks);
        self.order.clear();
        self.order.extend(0..n as u32);
        let (order, prepared) = (&mut self.order, &self.prepared_ranks);
        order.sort_unstable_by_key(|&v| (prepared[v as usize], v));
        self.position.clear();
        self.position.resize(n, 0);
        for (pos, &v) in self.order.iter().enumerate() {
            self.position[v as usize] = pos as u32;
        }
    }

    /// Runs the kernel and materialises the schedule as a
    /// [`TemplateSchedule`] (one allocation: the returned entry vector).
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero or if `dag`/`times` do not match the
    /// prepared vertex count.
    #[must_use]
    pub fn template(&mut self, dag: &Dag, processors: u32, times: &[Duration]) -> TemplateSchedule {
        let _ = self.run(dag, processors, times);
        TemplateSchedule::from_entries(processors, self.entries.clone())
    }

    /// Runs the kernel and materialises the schedule only if its makespan
    /// is at most `deadline` — the `MINPROCS` candidate test. A candidate
    /// that misses the deadline allocates nothing once the workspace is
    /// warm; one that meets it allocates the returned entry vector.
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero or if `dag`/`times` do not match the
    /// prepared vertex count.
    #[must_use]
    pub fn template_within(
        &mut self,
        dag: &Dag,
        processors: u32,
        times: &[Duration],
        deadline: Duration,
    ) -> Option<TemplateSchedule> {
        (self.run(dag, processors, times) <= deadline)
            .then(|| TemplateSchedule::from_entries(processors, self.entries.clone()))
    }

    /// Runs the kernel and returns only the makespan — the decision-only
    /// path, allocation-free once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero or if `dag`/`times` do not match the
    /// prepared vertex count.
    pub fn makespan(&mut self, dag: &Dag, processors: u32, times: &[Duration]) -> Duration {
        self.run(dag, processors, times)
    }

    /// The core work-conserving loop. Fills `self.entries` and returns the
    /// makespan.
    fn run(&mut self, dag: &Dag, processors: u32, times: &[Duration]) -> Duration {
        assert!(
            processors > 0,
            "list scheduling needs at least one processor"
        );
        let n = self.n;
        assert_eq!(dag.vertex_count(), n, "one rank per vertex");
        assert_eq!(times.len(), n, "one execution time per vertex");

        self.remaining_preds.clear();
        self.remaining_preds
            .extend(dag.vertices().map(|v| dag.in_degree(v) as u32));
        self.ready.clear();
        self.ready.resize(n.div_ceil(64), 0);
        self.ready_count = 0;
        self.ready_hint = 0;
        for v in 0..n {
            self.ready_insert_if(self.remaining_preds[v] == 0, self.position[v] as usize);
        }
        // Processors `n` and above never run a job (module docs).
        let width = processors.min(u32::try_from(n).unwrap_or(u32::MAX));
        self.idle.clear();
        self.idle.extend((0..width).map(|p| (0u64, p)));
        self.idle_head = 0;
        self.running.clear();
        self.entries.clear();
        self.entries.resize(
            n,
            ScheduleEntry {
                processor: 0,
                start: Duration::ZERO,
                finish: Duration::ZERO,
            },
        );

        let mut now = 0u64;
        // Earliest finish among running jobs: the next completion instant.
        let mut next = u64::MAX;
        let mut scheduled = 0usize;
        let mut makespan = 0u64;
        loop {
            // Start available jobs on idle processors (work conservation).
            while self.ready_count > 0 && self.idle_head < self.idle.len() {
                let (_, p) = self.idle[self.idle_head];
                self.idle_head += 1;
                let pos = self.ready_pop_min();
                let vi = self.order[pos] as usize;
                let finish = now + times[vi].ticks();
                self.entries[vi] = ScheduleEntry {
                    processor: p,
                    start: Duration::new(now),
                    finish: Duration::new(finish),
                };
                scheduled += 1;
                makespan = makespan.max(finish);
                next = next.min(finish);
                let processor = if finish == now {
                    self.idle_push(now, p);
                    Running::RETURNED
                } else {
                    p
                };
                self.running.push(Running {
                    finish,
                    vertex: vi as u32,
                    processor,
                });
            }
            if scheduled == n {
                break;
            }
            // Advance to the next job completion (the only event that can
            // free a processor or release new available jobs). Split the
            // running list into the jobs finishing then and the rest, which
            // hold the completion after it; which job goes where is
            // data-dependent, so the split does not branch on it.
            assert!(
                !self.running.is_empty(),
                "jobs remain but nothing is running or available"
            );
            now = next;
            next = u64::MAX;
            let len = self.running.len();
            if self.retired.len() < len {
                self.retired.resize(len, self.running[0]);
            }
            let (mut kept, mut done) = (0, 0);
            for i in 0..len {
                let job = self.running[i];
                let keep = job.finish > now;
                self.running[kept] = job;
                self.retired[done] = job;
                kept += usize::from(keep);
                done += usize::from(!keep);
                next = next.min(if keep { job.finish } else { u64::MAX });
            }
            self.running.truncate(kept);
            for k in 0..done {
                let job = self.retired[k];
                for &s in dag.successors(VertexId::from_index(job.vertex as usize)) {
                    let si = s.index();
                    self.remaining_preds[si] -= 1;
                    let released = self.remaining_preds[si] == 0;
                    self.ready_insert_if(released, self.position[si] as usize);
                }
                if job.processor != Running::RETURNED {
                    self.idle_push(now, job.processor);
                }
            }
        }
        Duration::new(makespan)
    }

    /// Appends processor `p`, idle since `free_at`, to the idle queue at
    /// its `(free_at, p)` position. Every queued processor is idle since
    /// `free_at` or earlier, so only those freed at the same instant with a
    /// larger index move back.
    fn idle_push(&mut self, free_at: u64, p: u32) {
        let key = (free_at, p);
        self.idle.push(key);
        let mut i = self.idle.len() - 1;
        while i > self.idle_head && self.idle[i - 1] > key {
            self.idle[i] = self.idle[i - 1];
            i -= 1;
        }
        self.idle[i] = key;
    }

    /// Inserts priority position `pos` if `cond` holds, without a branch
    /// on `cond`: whether a job's last predecessor just finished is
    /// data-dependent.
    fn ready_insert_if(&mut self, cond: bool, pos: usize) {
        self.ready[pos / 64] |= u64::from(cond) << (pos % 64);
        self.ready_count += usize::from(cond);
        let word = if cond { pos / 64 } else { usize::MAX };
        self.ready_hint = self.ready_hint.min(word);
    }

    /// Pops the lowest set priority position; caller checks `ready_count`.
    fn ready_pop_min(&mut self) -> usize {
        let mut w = self.ready_hint;
        while self.ready[w] == 0 {
            w += 1;
        }
        self.ready_hint = w;
        let bit = self.ready[w].trailing_zeros() as usize;
        self.ready[w] &= self.ready[w] - 1;
        self.ready_count -= 1;
        w * 64 + bit
    }
}

thread_local! {
    static WORKSPACE: RefCell<LsWorkspace> = RefCell::new(LsWorkspace::new());
}

/// Runs `f` with this thread's shared [`LsWorkspace`].
///
/// Every thread — the caller of an analysis as much as each
/// `fedsched-parallel` pool worker — owns one lazily created workspace, so
/// the public `list_schedule*` entry points stay allocation-free in steady
/// state without any signature change.
///
/// # Panics
///
/// Panics if `f` itself re-enters `with_thread_workspace` (the workspace
/// is a single mutable resource per thread).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut LsWorkspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_orders_by_free_time_then_index() {
        let mut ws = LsWorkspace::new();
        // Processors 2 and 0 free at 3, then 4 and 1 at 5: each instant's
        // processors queue in index order, behind every earlier instant.
        for (free_at, p) in [(3u64, 2u32), (3, 0), (5, 4), (5, 1)] {
            ws.idle_push(free_at, p);
        }
        ws.idle_head = 1;
        ws.idle_push(5, 3);
        assert_eq!(ws.idle[ws.idle_head..], [(3, 2), (5, 1), (5, 3), (5, 4)]);
    }

    #[test]
    fn ready_set_pops_in_position_order() {
        let mut ws = LsWorkspace {
            ready: vec![0; 3],
            ..LsWorkspace::default()
        };
        for pos in [150, 3, 64, 0, 149] {
            ws.ready_insert_if(true, pos);
        }
        ws.ready_insert_if(false, 100);
        let mut popped = Vec::new();
        while ws.ready_count > 0 {
            popped.push(ws.ready_pop_min());
        }
        assert_eq!(popped, vec![0, 3, 64, 149, 150]);
    }

    #[test]
    fn prepare_is_memoized_and_permutation_is_rank_sorted() {
        let mut ws = LsWorkspace::new();
        ws.prepare(&[7, 7, 2, 9]);
        // Sorted by (rank, vertex): v2, v0, v1, v3.
        assert_eq!(ws.order, vec![2, 0, 1, 3]);
        assert_eq!(ws.position, vec![1, 2, 0, 3]);
        let before = ws.order.clone();
        ws.prepare(&[7, 7, 2, 9]);
        assert_eq!(ws.order, before);
        ws.prepare(&[0, 1, 2, 3]);
        assert_eq!(ws.order, vec![0, 1, 2, 3]);
    }
}
