//! Memoization of `MINPROCS` sizings and their frozen LS templates.
//!
//! `MINPROCS` is by far the most expensive step of an admission decision:
//! it runs List Scheduling once per candidate cluster size. Its result,
//! however, depends only on the DAG shape (vertex WCETs and edges), the
//! relative deadline, and the priority policy — not on the period, not on
//! the platform, and not on anything else resident in the server (see
//! [`intrinsic_min_procs_probed`]). Admission workloads repeat DAG shapes all the
//! time (the same binary released under different periods, re-admission
//! after removal, …), so the server memoizes sizings under a canonical
//! encoding of exactly those inputs.
//!
//! The cache is optionally **capacity-bounded** with deterministic
//! second-chance (clock) eviction: entries live on a ring in insertion
//! order, every hit sets a referenced bit, and an insert at capacity sweeps
//! the clock hand forward — clearing referenced bits — until it finds an
//! unreferenced victim to evict. The sweep is a pure function of the
//! lookup/insert sequence, so two servers driven by the same decision
//! sequence hold byte-identical caches regardless of wall time or thread
//! interleaving; that is what lets WAL replay, a TCP connection and an
//! in-process session reproduce cache contents exactly.

use std::collections::HashMap;
use std::sync::Arc;

use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::minprocs::intrinsic_min_procs_probed;
use fedsched_dag::task::DagTask;
use fedsched_graham::list::PriorityPolicy;
use fedsched_graham::schedule::TemplateSchedule;

/// A memoized `MINPROCS` result: the intrinsic cluster size `μ*` and the
/// frozen template that witnesses it (shared, since the same template can
/// be live in several clusters and the cache at once).
#[derive(Debug, Clone)]
pub struct CachedSizing {
    /// The intrinsic minimum processor count `μ*` of the shape.
    pub processors: u32,
    /// The witnessing LS template schedule.
    pub template: Arc<TemplateSchedule>,
}

#[derive(Debug)]
struct Slot {
    sizing: Option<CachedSizing>,
    referenced: bool,
}

/// The memoization table: canonical task encoding → sizing (`None` records
/// a chain-infeasible shape, so repeat rejections are also cache hits).
#[derive(Debug, Default)]
pub struct TemplateCache {
    map: HashMap<Box<[u64]>, Slot>,
    /// Entries in clock order; `hand` indexes the next eviction candidate.
    ring: Vec<Box<[u64]>>,
    hand: usize,
    /// Maximum resident entries; `0` = unbounded.
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TemplateCache {
    /// An empty, unbounded cache.
    #[must_use]
    pub fn new() -> TemplateCache {
        TemplateCache::default()
    }

    /// An empty cache holding at most `cap` entries (`0` = unbounded).
    #[must_use]
    pub fn with_capacity(cap: usize) -> TemplateCache {
        TemplateCache {
            cap,
            ..TemplateCache::default()
        }
    }

    /// The configured capacity bound (`0` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The sizing for `task` under `policy`, computing and memoizing it on
    /// first sight. Returns the sizing (`None` if the task is
    /// chain-infeasible) and whether this was a cache hit.
    pub fn sizing(
        &mut self,
        task: &DagTask,
        policy: PriorityPolicy,
    ) -> (Option<CachedSizing>, bool) {
        let mut scratch = AnalysisProbe::default();
        self.sizing_probed(task, policy, &mut scratch)
    }

    /// [`Self::sizing`] with cost accounting: the hit/miss and, on a miss,
    /// the `MINPROCS` List-Scheduling runs are recorded in `probe`.
    pub fn sizing_probed(
        &mut self,
        task: &DagTask,
        policy: PriorityPolicy,
        probe: &mut AnalysisProbe,
    ) -> (Option<CachedSizing>, bool) {
        let key = canonical_key(task, policy);
        if let Some(slot) = self.map.get_mut(&key) {
            slot.referenced = true;
            self.hits += 1;
            probe.cache_hits = probe.cache_hits.saturating_add(1);
            return (slot.sizing.clone(), true);
        }
        self.misses += 1;
        probe.cache_misses = probe.cache_misses.saturating_add(1);
        let computed = intrinsic_min_procs_probed(task, policy, probe).map(|r| CachedSizing {
            processors: r.processors,
            template: Arc::new(r.template),
        });
        self.insert_new(key, computed.clone());
        (computed, false)
    }

    /// Inserts a fresh key, evicting via the clock sweep when at capacity.
    fn insert_new(&mut self, key: Box<[u64]>, sizing: Option<CachedSizing>) {
        debug_assert!(!self.map.contains_key(&key));
        if self.cap != 0 && self.ring.len() >= self.cap {
            loop {
                let victim = self.ring[self.hand].clone();
                let slot = self.map.get_mut(&victim).expect("ring keys are resident");
                if slot.referenced {
                    // Second chance: clear and advance.
                    slot.referenced = false;
                    self.hand = (self.hand + 1) % self.ring.len();
                } else {
                    self.map.remove(&victim);
                    self.evictions += 1;
                    self.ring[self.hand] = key.clone();
                    self.hand = (self.hand + 1) % self.ring.len();
                    break;
                }
            }
        } else {
            self.ring.push(key.clone());
        }
        self.map.insert(
            key,
            Slot {
                sizing,
                referenced: false,
            },
        );
    }

    /// Lookups that found a memoized entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run `MINPROCS`.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by the capacity bound since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of distinct shapes memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The memoized entry for `task` under `policy` without touching the
    /// hit/miss counters or referenced bits — `None` if the shape is not
    /// resident, `Some(None)` for a memoized chain-infeasible shape.
    /// Recovery uses this to verify replayed `CacheInsert` records against
    /// the rebuilt cache without perturbing the statistics it is
    /// reconstructing.
    #[must_use]
    pub fn peek(&self, task: &DagTask, policy: PriorityPolicy) -> Option<&Option<CachedSizing>> {
        self.map
            .get(&canonical_key(task, policy))
            .map(|s| &s.sizing)
    }

    /// Every resident entry as `(canonical key, sizing, referenced)` in
    /// clock order, rotated so the clock hand comes first. The key is the
    /// cache's identity (policy tag, deadline, vertex count, WCETs, sorted
    /// edges) and the order plus referenced bits are the eviction state;
    /// persisting them verbatim makes a later [`TemplateCache::restore`]
    /// exact by construction — the restored clock evicts in the same order
    /// the live one would have.
    #[must_use]
    pub fn export_entries(&self) -> Vec<(Vec<u64>, Option<CachedSizing>, bool)> {
        let n = self.ring.len();
        (0..n)
            .map(|i| {
                let key = &self.ring[(self.hand + i) % n];
                let slot = &self.map[key];
                (key.to_vec(), slot.sizing.clone(), slot.referenced)
            })
            .collect()
    }

    /// Merges exported entries from another server's cache, keeping any
    /// entry this cache already holds and leaving the hit/miss counters
    /// untouched: imported warmth must not fabricate traffic statistics.
    /// Absorption stops at the capacity bound — imported entries never
    /// evict resident ones. Returns how many entries were absorbed.
    ///
    /// Safe across server configurations: a memoized sizing is intrinsic
    /// to `(policy, deadline, DAG shape)` — the canonical key — and never
    /// depends on the platform the donor ran on.
    pub fn absorb_entries(&mut self, entries: Vec<(Vec<u64>, Option<CachedSizing>)>) -> usize {
        let mut absorbed = 0;
        for (key, sizing) in entries {
            if self.cap != 0 && self.ring.len() >= self.cap {
                break;
            }
            let key = key.into_boxed_slice();
            if !self.map.contains_key(&key) {
                self.ring.push(key.clone());
                self.map.insert(
                    key,
                    Slot {
                        sizing,
                        referenced: false,
                    },
                );
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Rebuilds a cache structurally from exported entries (clock order,
    /// hand first) and the counter values the exporting cache carried.
    #[must_use]
    pub fn restore(
        entries: Vec<(Vec<u64>, Option<CachedSizing>, bool)>,
        cap: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    ) -> TemplateCache {
        let mut cache = TemplateCache {
            cap,
            hits,
            misses,
            evictions,
            ..TemplateCache::default()
        };
        for (key, sizing, referenced) in entries {
            let key = key.into_boxed_slice();
            cache.ring.push(key.clone());
            cache.map.insert(key, Slot { sizing, referenced });
        }
        cache
    }
}

/// The canonical encoding of everything `MINPROCS` reads: policy, relative
/// deadline, vertex count, per-vertex WCETs (vertex indices are already
/// canonical in a [`Dag`](fedsched_dag::graph::Dag)), and the sorted edge
/// list. The period is deliberately excluded — for the constrained-deadline
/// tasks the server admits, the sizing never depends on it.
fn canonical_key(task: &DagTask, policy: PriorityPolicy) -> Box<[u64]> {
    let dag = task.dag();
    let policy_tag = match policy {
        PriorityPolicy::ListOrder => 0u64,
        PriorityPolicy::CriticalPathFirst => 1,
        PriorityPolicy::LongestWcetFirst => 2,
    };
    let mut key = Vec::with_capacity(3 + dag.vertex_count() + dag.edge_count());
    key.push(policy_tag);
    key.push(task.deadline().ticks());
    key.push(dag.vertex_count() as u64);
    key.extend(dag.wcets().iter().map(|w| w.ticks()));
    let mut edges: Vec<u64> = dag
        .edges()
        .map(|(from, to)| ((from.index() as u64) << 32) | to.index() as u64)
        .collect();
    edges.sort_unstable();
    key.extend(edges);
    key.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::graph::DagBuilder;
    use fedsched_dag::time::Duration;

    fn wide_task(deadline: u64, period: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_vertices([1, 1, 1, 1, 1, 1].map(Duration::new));
        DagTask::new(
            b.build().unwrap(),
            Duration::new(deadline),
            Duration::new(period),
        )
        .unwrap()
    }

    /// A sequential task of `c` units due in `c + i`: each `i` is a
    /// distinct cache shape.
    fn shape(i: u64) -> DagTask {
        DagTask::sequential(Duration::new(2), Duration::new(2 + i), Duration::new(100)).unwrap()
    }

    #[test]
    fn second_lookup_hits() {
        let mut cache = TemplateCache::new();
        let t = wide_task(2, 10);
        let (first, hit1) = cache.sizing(&t, PriorityPolicy::ListOrder);
        let (second, hit2) = cache.sizing(&t, PriorityPolicy::ListOrder);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first.unwrap().processors, second.unwrap().processors);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn period_does_not_split_the_cache() {
        let mut cache = TemplateCache::new();
        let (_, h1) = cache.sizing(&wide_task(2, 10), PriorityPolicy::ListOrder);
        let (_, h2) = cache.sizing(&wide_task(2, 50), PriorityPolicy::ListOrder);
        assert!(!h1);
        assert!(h2, "same shape and deadline under another period must hit");
    }

    #[test]
    fn policy_and_deadline_split_the_cache() {
        let mut cache = TemplateCache::new();
        let t = wide_task(2, 10);
        cache.sizing(&t, PriorityPolicy::ListOrder);
        let (_, hit_policy) = cache.sizing(&t, PriorityPolicy::CriticalPathFirst);
        let (_, hit_deadline) = cache.sizing(&wide_task(3, 10), PriorityPolicy::ListOrder);
        assert!(!hit_policy);
        assert!(!hit_deadline);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn probed_lookups_record_hits_misses_and_sizing_cost() {
        let mut cache = TemplateCache::new();
        let t = wide_task(2, 10);
        let mut probe = AnalysisProbe::default();
        cache.sizing_probed(&t, PriorityPolicy::ListOrder, &mut probe);
        assert_eq!((probe.cache_hits, probe.cache_misses), (0, 1));
        assert!(probe.ls_runs > 0, "a miss must run MINPROCS");
        let before = probe.ls_runs;
        cache.sizing_probed(&t, PriorityPolicy::ListOrder, &mut probe);
        assert_eq!((probe.cache_hits, probe.cache_misses), (1, 1));
        assert_eq!(probe.ls_runs, before, "a hit must not re-run MINPROCS");
    }

    #[test]
    fn chain_infeasible_shapes_are_cached_too() {
        let mut b = DagBuilder::new();
        let v = b.add_vertices([3, 3].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let t = DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        let mut cache = TemplateCache::new();
        let (s1, h1) = cache.sizing(&t, PriorityPolicy::ListOrder);
        let (s2, h2) = cache.sizing(&t, PriorityPolicy::ListOrder);
        assert!(s1.is_none() && s2.is_none());
        assert!(!h1);
        assert!(h2);
    }

    #[test]
    fn capacity_bound_evicts_and_counts() {
        let mut cache = TemplateCache::with_capacity(4);
        for i in 0..10 {
            cache.sizing(&shape(i), PriorityPolicy::ListOrder);
        }
        assert_eq!(cache.len(), 4, "resident set pinned to the cap");
        assert_eq!(cache.evictions(), 6);
        assert_eq!(cache.misses(), 10);
    }

    #[test]
    fn referenced_entries_get_a_second_chance() {
        let mut cache = TemplateCache::with_capacity(2);
        cache.sizing(&shape(0), PriorityPolicy::ListOrder); // miss
        cache.sizing(&shape(1), PriorityPolicy::ListOrder); // miss
        cache.sizing(&shape(0), PriorityPolicy::ListOrder); // hit → referenced
                                                            // Insert at capacity: the sweep clears shape(0)'s bit and evicts
                                                            // shape(1), the first unreferenced entry.
        cache.sizing(&shape(2), PriorityPolicy::ListOrder);
        assert!(cache.peek(&shape(0), PriorityPolicy::ListOrder).is_some());
        assert!(cache.peek(&shape(1), PriorityPolicy::ListOrder).is_none());
        assert!(cache.peek(&shape(2), PriorityPolicy::ListOrder).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        let drive = |cache: &mut TemplateCache| {
            for i in [0, 1, 2, 0, 3, 4, 1, 5, 0, 6] {
                cache.sizing(&shape(i), PriorityPolicy::ListOrder);
            }
            cache
                .export_entries()
                .iter()
                .map(|(k, _, r)| (k.clone(), *r))
                .collect::<Vec<_>>()
        };
        let mut a = TemplateCache::with_capacity(3);
        let mut b = TemplateCache::with_capacity(3);
        assert_eq!(drive(&mut a), drive(&mut b));
        assert_eq!(a.evictions(), b.evictions());
    }

    #[test]
    fn export_restore_preserves_clock_state() {
        let mut cache = TemplateCache::with_capacity(3);
        for i in [0, 1, 2, 0, 3] {
            cache.sizing(&shape(i), PriorityPolicy::ListOrder);
        }
        let exported = cache.export_entries();
        let restored = TemplateCache::restore(
            exported.clone(),
            3,
            cache.hits(),
            cache.misses(),
            cache.evictions(),
        );
        // Rotated export: re-export equals the original export.
        let key = |e: &Vec<(Vec<u64>, Option<CachedSizing>, bool)>| {
            e.iter()
                .map(|(k, _, r)| (k.clone(), *r))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&restored.export_entries()), key(&exported));
        // The restored clock continues the same eviction sequence.
        let mut live = cache;
        let mut back = restored;
        for i in [4, 5, 1, 6] {
            live.sizing(&shape(i), PriorityPolicy::ListOrder);
            back.sizing(&shape(i), PriorityPolicy::ListOrder);
        }
        assert_eq!(key(&live.export_entries()), key(&back.export_entries()));
        assert_eq!(live.evictions(), back.evictions());
    }

    #[test]
    fn absorb_respects_the_cap() {
        let mut donor = TemplateCache::new();
        for i in 0..6 {
            donor.sizing(&shape(i), PriorityPolicy::ListOrder);
        }
        let entries: Vec<(Vec<u64>, Option<CachedSizing>)> = donor
            .export_entries()
            .into_iter()
            .map(|(k, s, _)| (k, s))
            .collect();
        let mut bounded = TemplateCache::with_capacity(4);
        bounded.sizing(&shape(100), PriorityPolicy::ListOrder);
        let absorbed = bounded.absorb_entries(entries);
        assert_eq!(absorbed, 3, "absorption stops at the cap");
        assert_eq!(bounded.len(), 4);
        assert_eq!(bounded.evictions(), 0, "absorption never evicts residents");
    }
}
