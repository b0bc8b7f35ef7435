//! The live admission state: incremental FEDCONS over a fixed platform.
//!
//! [`AdmissionState`] maintains exactly the configuration batch
//! [`fedcons`](fedsched_core::fedcons::fedcons) would produce for the
//! currently resident task set, but updates it per-operation instead of
//! re-analysing from scratch:
//!
//! * **High-density admit** — the cluster size `μ*` is *intrinsic* (it
//!   never depends on the residual platform, see
//!   [`intrinsic_min_procs`](fedsched_core::minprocs::intrinsic_min_procs)),
//!   so admission only has to check `Σ μ* + μ*_new ≤ m` and that shrinking
//!   the shared pool displaces no resident shared task. If a shared task
//!   sits on a processor the shrink would remove, a batch run over the
//!   union would fail at that same task (the first-fit prefix below the cut
//!   is identical), so rejecting is exact, not conservative.
//! * **Low-density admit** — the Baruah–Fisher first-fit processes tasks in
//!   non-decreasing deadline order, so inserting a task replays placements
//!   only from its sorted position onward; every placement before that
//!   position is provably what the batch run computes.
//! * **Remove** — freeing a cluster grows the shared pool on the high side
//!   of the processor range and invalidates nothing. Removing a shared task
//!   replays the suffix after its sorted position; in the (rare,
//!   first-fit-anomaly) case where the replay fails, the state keeps the
//!   previous placements minus the removed task — still sound, because
//!   every per-processor admission test is monotone in the resident set —
//!   and counts the event in
//!   [`Stats::remove_anomalies`](crate::stats::Stats).
//!
//! The `consistency_oracle` integration test drives randomized
//! admit/remove interleavings and asserts, operation by operation, that
//! decisions and placements coincide with a batch `fedcons` re-analysis.

use std::fmt;
use std::time::Instant;

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::incremental::SharedPool;
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::fedcons::FedConsConfig;
use fedsched_dag::task::{DagTask, TaskClass};
use fedsched_telemetry::{CounterKind, EventSink, SpanPhase, TelemetryEvent, TraceId};

use crate::cache::{CachedSizing, TemplateCache};
use crate::protocol::Placement;
use crate::stats::{
    DurabilityStats, ReactorStats, StageStats, Stats, StatsSnapshot, TransportStats,
};

/// Static configuration of an [`AdmissionState`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Platform size `m` (identical unit-speed processors).
    pub processors: u32,
    /// The FEDCONS knobs: LS priority policy and partition admission test.
    pub fedcons: FedConsConfig,
    /// Capacity of the telemetry ring buffer retaining the most recent
    /// spans and counters; `0` (the default) disables telemetry entirely —
    /// the no-op sink reduces every record call to a single branch.
    pub telemetry_events: usize,
    /// Capacity bound of the `MINPROCS` template cache; `0` (the default)
    /// leaves it unbounded. Part of the durable configuration identity:
    /// the deterministic eviction sequence depends on it.
    pub template_cache_cap: usize,
}

impl AdmissionConfig {
    /// Default FEDCONS configuration on `processors` processors, telemetry
    /// disabled.
    #[must_use]
    pub fn new(processors: u32) -> AdmissionConfig {
        AdmissionConfig {
            processors,
            fedcons: FedConsConfig::default(),
            telemetry_events: 0,
            template_cache_cap: 0,
        }
    }

    /// Enables event telemetry with a ring buffer of `capacity` events.
    #[must_use]
    pub fn with_telemetry(mut self, capacity: usize) -> AdmissionConfig {
        self.telemetry_events = capacity;
        self
    }

    /// Bounds the template cache to `cap` entries (`0` = unbounded).
    #[must_use]
    pub fn with_cache_cap(mut self, cap: usize) -> AdmissionConfig {
        self.template_cache_cap = cap;
        self
    }
}

/// Why a task was rejected. Every reason is *exact*: a batch FEDCONS run
/// over the resident set plus the candidate would reject too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The task has `D > T`; FEDCONS handles constrained deadlines only.
    ArbitraryDeadline,
    /// The longest chain exceeds the deadline; no cluster size helps.
    ChainInfeasible,
    /// The cluster would not fit: `dedicated + μ* > m`.
    InsufficientProcessors {
        /// The candidate's intrinsic cluster size `μ*`.
        required: u32,
        /// Processors already bound to clusters.
        dedicated: u32,
        /// Platform size `m`.
        total: u32,
    },
    /// Carving out the cluster would displace a resident shared task from
    /// a processor the shrunk pool no longer contains.
    DisplacesSharedTask {
        /// The shared-pool size the admission would have left.
        pool: u32,
    },
    /// The shared-pool first-fit found no processor for the task (and, per
    /// deadline order, possibly for a later-deadline resident it would
    /// push over).
    NoSharedFit {
        /// The shared-pool size at the time of the attempt.
        pool: u32,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::ArbitraryDeadline => {
                write!(f, "arbitrary deadline (D > T) is outside FEDCONS")
            }
            RejectReason::ChainInfeasible => {
                write!(f, "longest chain exceeds the deadline")
            }
            RejectReason::InsufficientProcessors {
                required,
                dedicated,
                total,
            } => write!(
                f,
                "cluster needs {required} processors but only {} of {total} are unbound",
                total - dedicated
            ),
            RejectReason::DisplacesSharedTask { pool } => write!(
                f,
                "shrinking the shared pool to {pool} processors would displace a resident task"
            ),
            RejectReason::NoSharedFit { pool } => {
                write!(f, "fits on none of the {pool} shared processors")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// A successful admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Handle for later removal and queries.
    pub token: u64,
    /// Where the task was placed (layout as of this operation).
    pub placement: Placement,
    /// Whether the sizing was served from the template cache (always
    /// `false` for low-density tasks, which need no sizing).
    pub cache_hit: bool,
}

/// A successful removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Removed {
    /// The removed task's token.
    pub token: u64,
    /// Number of shared tasks whose processor changed in the replay.
    pub migrated: u64,
}

/// Removal or query of a token that names no resident task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownToken(pub u64);

impl fmt::Display for UnknownToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token {} names no resident task", self.0)
    }
}

impl std::error::Error for UnknownToken {}

/// A live dedicated cluster.
#[derive(Debug, Clone)]
pub(crate) struct LiveCluster {
    pub(crate) token: u64,
    pub(crate) task: DagTask,
    pub(crate) sizing: CachedSizing,
}

/// A live shared-pool task. `processor` is the pool-local index (global
/// index = dedicated + local).
#[derive(Debug, Clone)]
pub(crate) struct LowEntry {
    pub(crate) token: u64,
    pub(crate) task: DagTask,
    pub(crate) view: SequentialView,
    pub(crate) processor: usize,
}

/// The incremental admission state; see the module docs for the invariants.
#[derive(Debug)]
pub struct AdmissionState {
    pub(crate) config: AdmissionConfig,
    pub(crate) next_token: u64,
    /// Clusters in admission (token) order; they pack the processor range
    /// `[0, dedicated)` in this order.
    pub(crate) clusters: Vec<LiveCluster>,
    pub(crate) dedicated: u32,
    /// Shared tasks sorted by `(deadline, token)` — the batch first-fit
    /// order. Tokens increase monotonically, so ties resolve exactly as the
    /// batch tie-break on ascending `TaskId` does.
    pub(crate) low: Vec<LowEntry>,
    pub(crate) cache: TemplateCache,
    pub(crate) stats: Stats,
    /// Cumulative analysis cost of every operation since start.
    pub(crate) probe: AnalysisProbe,
    /// Where per-operation telemetry spans and counters go.
    pub(crate) sink: EventSink,
}

impl AdmissionState {
    /// An empty state over the given platform.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> AdmissionState {
        AdmissionState {
            config,
            next_token: 0,
            clusters: Vec::new(),
            dedicated: 0,
            low: Vec::new(),
            cache: TemplateCache::with_capacity(config.template_cache_cap),
            stats: Stats::default(),
            probe: AnalysisProbe::default(),
            sink: EventSink::ring(config.telemetry_events),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Processors currently bound to dedicated clusters.
    #[must_use]
    pub fn dedicated_processors(&self) -> u32 {
        self.dedicated
    }

    /// Processors currently in the shared pool.
    #[must_use]
    pub fn shared_processors(&self) -> u32 {
        self.config.processors - self.dedicated
    }

    /// Number of resident tasks.
    #[must_use]
    pub fn resident_tasks(&self) -> usize {
        self.clusters.len() + self.low.len()
    }

    /// The resident tasks in admission (token) order — the order a batch
    /// re-analysis must use to reproduce this state's decisions.
    #[must_use]
    pub fn resident(&self) -> Vec<(u64, &DagTask)> {
        let mut all: Vec<(u64, &DagTask)> = self
            .clusters
            .iter()
            .map(|c| (c.token, &c.task))
            .chain(self.low.iter().map(|e| (e.token, &e.task)))
            .collect();
        all.sort_by_key(|&(token, _)| token);
        all
    }

    /// The operation counters.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The cumulative analysis cost of every operation since start.
    #[must_use]
    pub fn probe(&self) -> &AnalysisProbe {
        &self.probe
    }

    /// The retained telemetry events, oldest first (empty when the
    /// configured `telemetry_events` capacity is zero).
    #[must_use]
    pub fn telemetry_events(&self) -> Vec<TelemetryEvent> {
        self.sink.events()
    }

    /// Telemetry events lost to ring-buffer eviction.
    #[must_use]
    pub fn telemetry_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// A serializable snapshot of all counters plus platform occupancy.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            processors: self.config.processors,
            dedicated_processors: self.dedicated,
            shared_processors: self.shared_processors(),
            resident_tasks: self.resident_tasks() as u64,
            admitted_high: self.stats.admitted_high,
            admitted_low: self.stats.admitted_low,
            rejected_high: self.stats.rejected_high,
            rejected_low: self.stats.rejected_low,
            removed: self.stats.removed,
            remove_anomalies: self.stats.remove_anomalies,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.len() as u64,
            cache_evictions: self.cache.evictions(),
            latency_buckets_us: self.stats.latency.buckets().to_vec(),
            latency_p50_us: self.stats.latency.quantile(0.5),
            latency_p90_us: self.stats.latency.quantile(0.9),
            latency_p99_us: self.stats.latency.quantile(0.99),
            probe: self.probe,
            // The transport counters live with the server's connection
            // layer, not behind this lock; the server overwrites this
            // field when it assembles the snapshot it actually serves.
            transport: TransportStats::default(),
            // Likewise: the journal lives with the server, which fills
            // this in when durability is enabled.
            durability: DurabilityStats::default(),
            // And the per-stage pipeline histograms, kept lock-free by
            // the connection layer.
            stages: StageStats::default(),
            // And the reactor's counters, kept lock-free by its thread.
            reactor: ReactorStats::default(),
        }
    }

    /// The frozen LS σ template of a resident dedicated cluster, or
    /// `None` for unknown tokens and shared-pool residents. The journal
    /// uses this to persist the exact template a client was promised.
    #[must_use]
    pub fn template_of(
        &self,
        token: u64,
    ) -> Option<std::sync::Arc<fedsched_graham::schedule::TemplateSchedule>> {
        self.clusters
            .iter()
            .find(|c| c.token == token)
            .map(|c| std::sync::Arc::clone(&c.sizing.template))
    }

    /// Adds `delta` to a counter on the telemetry bus (a no-op when
    /// telemetry is disabled). The durability layer reports WAL appends,
    /// fsyncs, and snapshot writes through this.
    pub fn add_counter(&mut self, kind: CounterKind, delta: u64) {
        self.sink.add(None, kind, delta);
    }

    /// Records one transport-level hardening event (read timeout,
    /// oversized frame, busy rejection, drain) on the telemetry bus, so
    /// connection-layer incidents interleave with analysis spans on the
    /// same timeline. The aggregate counts are kept lock-free by the
    /// server; this is only the event-stream mirror.
    pub fn count_transport(&mut self, kind: CounterKind) {
        self.sink.count(None, kind);
    }

    /// Admits one task, or reports exactly why a batch run would reject the
    /// union too.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`]; the state is unchanged on rejection.
    pub fn admit(&mut self, task: DagTask) -> Result<Admitted, RejectReason> {
        self.admit_traced(task, None)
    }

    /// [`Self::admit`] with a client-supplied correlation token: every
    /// telemetry span and counter the admission produces is stamped with
    /// `trace_id`, so one protocol request can be followed through the
    /// analysis phases in an exported trace.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`]; the state is unchanged on rejection.
    pub fn admit_traced(
        &mut self,
        task: DagTask,
        trace_id: Option<u64>,
    ) -> Result<Admitted, RejectReason> {
        let trace = trace_id.map(TraceId);
        let start = Instant::now();
        let span = self.sink.start_span();
        let high = task.is_high_density();
        // The analysis layer accumulates these into the platform-lifetime
        // probe; diffing around the admission yields this request's share
        // for the event stream.
        let pruned_before = self.probe.ls_runs_pruned;
        let result = self.admit_inner(task, trace);
        match &result {
            Ok(_) if high => self.stats.admitted_high += 1,
            Ok(_) => self.stats.admitted_low += 1,
            Err(_) if high => self.stats.rejected_high += 1,
            Err(_) => self.stats.rejected_low += 1,
        }
        self.sink.end_span(span, trace, SpanPhase::Admission);
        let pruned = self.probe.ls_runs_pruned.saturating_sub(pruned_before);
        if pruned > 0 {
            self.sink.add(trace, CounterKind::LsRunsPruned, pruned);
        }
        self.sink.count(
            trace,
            if result.is_ok() {
                CounterKind::AdmissionAccepted
            } else {
                CounterKind::AdmissionRejected
            },
        );
        let elapsed = start.elapsed();
        self.stats.latency.record(elapsed);
        self.probe.wall_nanos = self
            .probe
            .wall_nanos
            .saturating_add(saturating_nanos(elapsed));
        result
    }

    pub(crate) fn admit_inner(
        &mut self,
        task: DagTask,
        trace: Option<TraceId>,
    ) -> Result<Admitted, RejectReason> {
        // Route by the task-layer classification (the same one FEDCONS
        // uses) instead of re-deriving density thresholds here.
        match task.classify() {
            TaskClass::ArbitraryDeadline => Err(RejectReason::ArbitraryDeadline),
            TaskClass::HighDensity => self.admit_high(task, trace),
            TaskClass::LowDensity => self.admit_low(task, trace),
        }
    }

    /// Phase-1 admission (MINPROCS, Fig. 3) of a high-density task.
    fn admit_high(
        &mut self,
        task: DagTask,
        trace: Option<TraceId>,
    ) -> Result<Admitted, RejectReason> {
        let phase = Instant::now();
        let span = self.sink.start_span();
        let (sizing, cache_hit) =
            self.cache
                .sizing_probed(&task, self.config.fedcons.policy, &mut self.probe);
        // A cache hit means the interval was pure lookup; a miss means it
        // ran the MINPROCS sizing — report the phase that actually happened.
        self.sink.end_span(
            span,
            trace,
            if cache_hit {
                SpanPhase::CacheLookup
            } else {
                SpanPhase::Sizing
            },
        );
        self.sink.count(
            trace,
            if cache_hit {
                CounterKind::CacheHit
            } else {
                CounterKind::CacheMiss
            },
        );
        self.probe.sizing_nanos = self
            .probe
            .sizing_nanos
            .saturating_add(saturating_nanos(phase.elapsed()));
        let Some(sizing) = sizing else {
            return Err(RejectReason::ChainInfeasible);
        };
        let mu = sizing.processors;
        if self.dedicated + mu > self.config.processors {
            return Err(RejectReason::InsufficientProcessors {
                required: mu,
                dedicated: self.dedicated,
                total: self.config.processors,
            });
        }
        let new_pool = (self.config.processors - self.dedicated - mu) as usize;
        if self.low.iter().any(|e| e.processor >= new_pool) {
            // A resident shared task sits on a processor the shrunk pool
            // would lose. Its first-fit run rejected every lower-indexed
            // processor against resident sets a batch run reproduces
            // verbatim, so the batch run fails at that same task: exact.
            return Err(RejectReason::DisplacesSharedTask {
                pool: new_pool as u32,
            });
        }
        let token = self.next_token;
        self.next_token += 1;
        let first_processor = self.dedicated;
        self.dedicated += mu;
        self.clusters.push(LiveCluster {
            token,
            task,
            sizing,
        });
        Ok(Admitted {
            token,
            placement: Placement::Dedicated {
                first_processor,
                processors: mu,
            },
            cache_hit,
        })
    }

    /// Phase-2 admission (Baruah–Fisher first-fit, Fig. 4) of a low-density
    /// task, replaying placements from its deadline position onward.
    fn admit_low(
        &mut self,
        task: DagTask,
        trace: Option<TraceId>,
    ) -> Result<Admitted, RejectReason> {
        let view = SequentialView::of(&task);
        // Sorted insertion point: ties by token, and the candidate's token
        // will be larger than every resident one.
        let position = self
            .low
            .partition_point(|e| e.view.deadline <= view.deadline);
        let pool = self.shared_processors() as usize;
        let phase = Instant::now();
        let span = self.sink.start_span();
        let (outcome, replay_probe) = self.replay_suffix(position, Some(view), pool);
        self.sink.end_span(span, trace, SpanPhase::Partition);
        self.probe.merge(&replay_probe);
        self.probe.partition_nanos = self
            .probe
            .partition_nanos
            .saturating_add(saturating_nanos(phase.elapsed()));
        match outcome {
            Some(placements) => {
                let token = self.next_token;
                self.next_token += 1;
                for (entry, &k) in self.low[position..].iter_mut().zip(&placements[1..]) {
                    entry.processor = k;
                }
                let local = placements[0];
                self.low.insert(
                    position,
                    LowEntry {
                        token,
                        task,
                        view,
                        processor: local,
                    },
                );
                Ok(Admitted {
                    token,
                    placement: Placement::Shared {
                        processor: self.dedicated + local as u32,
                    },
                    cache_hit: false,
                })
            }
            None => Err(RejectReason::NoSharedFit { pool: pool as u32 }),
        }
    }

    /// Re-runs the deadline-ordered first-fit from `from` onward: residents
    /// before `from` keep their recorded processors (the batch prefix is
    /// provably identical), then `candidate` (if any) and the residents
    /// from `from` on are first-fit in order against `pool` processors.
    /// Returns the new pool-local placements in that order (or `None` if
    /// any of them fits nowhere) together with the analysis cost of the
    /// replay, for the caller to merge into the cumulative probe (this
    /// method takes `&self`, so it cannot write the field itself).
    fn replay_suffix(
        &self,
        from: usize,
        candidate: Option<SequentialView>,
        pool: usize,
    ) -> (Option<Vec<usize>>, AnalysisProbe) {
        let mut probe = AnalysisProbe::default();
        let mut bank = SharedPool::new(pool, self.config.fedcons.partition);
        for entry in &self.low[..from] {
            bank.place(entry.processor, entry.view);
        }
        let placements = candidate
            .into_iter()
            .chain(self.low[from..].iter().map(|e| e.view))
            .map(|v| bank.try_place_probed(v, &mut probe))
            .collect();
        (placements, probe)
    }

    /// Removes a resident task by token.
    ///
    /// # Errors
    ///
    /// [`UnknownToken`] if no resident task carries `token`.
    pub fn remove(&mut self, token: u64) -> Result<Removed, UnknownToken> {
        let span = self.sink.start_span();
        let result = self.remove_inner(token);
        if result.is_ok() {
            self.sink.end_span(span, None, SpanPhase::Removal);
        }
        result
    }

    pub(crate) fn remove_inner(&mut self, token: u64) -> Result<Removed, UnknownToken> {
        if let Some(i) = self.clusters.iter().position(|c| c.token == token) {
            let cluster = self.clusters.remove(i);
            self.dedicated -= cluster.sizing.processors;
            self.stats.removed += 1;
            // The pool grows on the high end of the processor range; every
            // shared placement keeps its pool-local index, and a batch
            // first-fit over the larger pool reproduces those placements
            // (first-fit never reaches the new processors while the old
            // ones accept, and they accept exactly as before).
            return Ok(Removed { token, migrated: 0 });
        }
        if let Some(i) = self.low.iter().position(|e| e.token == token) {
            let _removed = self.low.remove(i);
            let pool = self.shared_processors() as usize;
            self.stats.removed += 1;
            let phase = Instant::now();
            let (outcome, replay_probe) = self.replay_suffix(i, None, pool);
            self.probe.merge(&replay_probe);
            self.probe.partition_nanos = self
                .probe
                .partition_nanos
                .saturating_add(saturating_nanos(phase.elapsed()));
            match outcome {
                Some(placements) => {
                    let mut migrated = 0;
                    for (entry, &k) in self.low[i..].iter_mut().zip(&placements) {
                        if entry.processor != k {
                            migrated += 1;
                        }
                        entry.processor = k;
                    }
                    return Ok(Removed { token, migrated });
                }
                None => {
                    // First-fit anomaly: with less demand, the replayed
                    // suffix found no home for some task. Keep the previous
                    // placements (sound: each processor's resident set is a
                    // subset of an admitted one, and every admission test
                    // is monotone) and record the event.
                    self.stats.remove_anomalies += 1;
                    return Ok(Removed { token, migrated: 0 });
                }
            }
        }
        Err(UnknownToken(token))
    }

    /// The current placement of a resident task, or `None` for unknown
    /// tokens. Cluster base processors are recomputed from the current
    /// cluster list, so earlier removals are reflected.
    #[must_use]
    pub fn query(&self, token: u64) -> Option<Placement> {
        let mut first = 0u32;
        for cluster in &self.clusters {
            if cluster.token == token {
                return Some(Placement::Dedicated {
                    first_processor: first,
                    processors: cluster.sizing.processors,
                });
            }
            first += cluster.sizing.processors;
        }
        self.low
            .iter()
            .find(|e| e.token == token)
            .map(|e| Placement::Shared {
                processor: self.dedicated + e.processor as u32,
            })
    }
}

/// Nanoseconds of a wall-clock interval, saturating at `u64::MAX`.
fn saturating_nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::graph::DagBuilder;
    use fedsched_dag::time::Duration;

    fn wide(units: usize, deadline: u64, period: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_vertices(std::iter::repeat_n(Duration::new(1), units));
        DagTask::new(
            b.build().unwrap(),
            Duration::new(deadline),
            Duration::new(period),
        )
        .unwrap()
    }

    fn light(c: u64, d: u64, t: u64) -> DagTask {
        DagTask::sequential(Duration::new(c), Duration::new(d), Duration::new(t)).unwrap()
    }

    fn state(m: u32) -> AdmissionState {
        AdmissionState::new(AdmissionConfig::new(m))
    }

    #[test]
    fn admits_high_and_low_like_the_paper_example() {
        let mut s = state(4);
        // 6 unit jobs due in 2 → μ* = 3 (as in the fedsched-core docs).
        let a = s.admit(wide(6, 2, 10)).unwrap();
        assert_eq!(
            a.placement,
            Placement::Dedicated {
                first_processor: 0,
                processors: 3
            }
        );
        let b = s.admit(light(1, 4, 8)).unwrap();
        assert_eq!(b.placement, Placement::Shared { processor: 3 });
        assert_eq!(s.dedicated_processors(), 3);
        assert_eq!(s.shared_processors(), 1);
        assert_eq!(s.resident_tasks(), 2);
    }

    #[test]
    fn rejects_arbitrary_deadline_and_infeasible_chain() {
        let mut s = state(8);
        let arbitrary =
            DagTask::sequential(Duration::new(1), Duration::new(9), Duration::new(4)).unwrap();
        assert_eq!(s.admit(arbitrary), Err(RejectReason::ArbitraryDeadline));
        let mut b = DagBuilder::new();
        let v = b.add_vertices([3, 3].map(Duration::new));
        b.add_edge(v[0], v[1]).unwrap();
        let chain = DagTask::new(b.build().unwrap(), Duration::new(4), Duration::new(10)).unwrap();
        assert_eq!(s.admit(chain), Err(RejectReason::ChainInfeasible));
        // Counters split by the candidate's density class: the arbitrary
        // task above has δ = 1/4, the chain-infeasible one δ = 6/4.
        assert_eq!(s.stats().rejected_high, 1);
        assert_eq!(s.stats().rejected_low, 1);
        assert_eq!(s.resident_tasks(), 0);
    }

    #[test]
    fn rejects_cluster_that_does_not_fit() {
        let mut s = state(4);
        s.admit(wide(6, 2, 10)).unwrap(); // μ* = 3
        let err = s.admit(wide(6, 2, 11)).unwrap_err();
        assert_eq!(
            err,
            RejectReason::InsufficientProcessors {
                required: 3,
                dedicated: 3,
                total: 4
            }
        );
    }

    #[test]
    fn rejects_cluster_that_would_displace_a_shared_task() {
        let mut s = state(4);
        // Fill the whole 4-processor shared pool with heavy (but still
        // low-density: δ = 3/4) sequential tasks; DBF* lets none share.
        for _ in 0..4 {
            s.admit(light(3, 4, 16)).unwrap();
        }
        // A cluster of μ* = 3 would shrink the pool to 1 ⇒ displacement.
        let err = s.admit(wide(6, 2, 10)).unwrap_err();
        assert_eq!(err, RejectReason::DisplacesSharedTask { pool: 1 });
        assert_eq!(s.resident_tasks(), 4);
    }

    #[test]
    fn remove_frees_cluster_processors_for_later_admissions() {
        let mut s = state(4);
        let a = s.admit(wide(6, 2, 10)).unwrap();
        let err = s.admit(wide(6, 2, 11)).unwrap_err();
        assert!(matches!(err, RejectReason::InsufficientProcessors { .. }));
        s.remove(a.token).unwrap();
        assert_eq!(s.dedicated_processors(), 0);
        let again = s.admit(wide(6, 2, 11)).unwrap();
        assert_eq!(
            again.placement,
            Placement::Dedicated {
                first_processor: 0,
                processors: 3
            }
        );
    }

    #[test]
    fn query_reflects_cluster_compaction_after_removal() {
        let mut s = state(8);
        let a = s.admit(wide(6, 2, 10)).unwrap(); // P0..2
        let b = s.admit(wide(4, 2, 12)).unwrap(); // μ* = 2 → P3..4
        assert_eq!(
            s.query(b.token),
            Some(Placement::Dedicated {
                first_processor: 3,
                processors: 2
            })
        );
        s.remove(a.token).unwrap();
        assert_eq!(
            s.query(b.token),
            Some(Placement::Dedicated {
                first_processor: 0,
                processors: 2
            })
        );
        assert_eq!(s.query(999), None);
    }

    #[test]
    fn low_removal_replays_the_suffix() {
        let mut s = state(2);
        // Two heavy tasks (δ = 3/4 each) fill both processors; the second
        // lands on P1 only because P0 rejects it.
        let a = s.admit(light(3, 4, 16)).unwrap();
        assert_eq!(a.placement, Placement::Shared { processor: 0 });
        let b = s.admit(light(3, 4, 16)).unwrap();
        assert_eq!(b.placement, Placement::Shared { processor: 1 });
        let c = s.admit(light(1, 8, 16)).unwrap();
        // After removing the first heavy task, the replay migrates the
        // later tasks down to first-fit positions.
        let removed = s.remove(a.token).unwrap();
        assert_eq!(removed.migrated, 1);
        assert_eq!(s.query(b.token), Some(Placement::Shared { processor: 0 }));
        let _ = c;
        assert_eq!(s.stats().remove_anomalies, 0);
    }

    #[test]
    fn unknown_token_is_an_error() {
        let mut s = state(2);
        assert_eq!(s.remove(0), Err(UnknownToken(0)));
    }

    #[test]
    fn snapshot_counts_everything() {
        let mut s = state(4);
        let t = wide(6, 2, 10);
        let a = s.admit(t.clone()).unwrap();
        assert!(!a.cache_hit);
        s.remove(a.token).unwrap();
        let b = s.admit(t).unwrap();
        assert!(b.cache_hit);
        s.admit(light(1, 4, 8)).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.admitted_high, 2);
        assert_eq!(snap.admitted_low, 1);
        assert_eq!(snap.removed, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.resident_tasks, 2);
        assert_eq!(snap.latency_buckets_us.iter().sum::<u64>(), 3);
        // The cumulative probe mirrors the cache counters, records the
        // MINPROCS runs of the single cache miss, the shared-pool fit of
        // the low task, and nonzero per-phase wall time.
        assert_eq!(snap.probe.cache_hits, 1);
        assert_eq!(snap.probe.cache_misses, 1);
        assert!(snap.probe.ls_runs > 0);
        assert_eq!(snap.probe.fits_calls, 1);
        assert!(snap.probe.sizing_nanos > 0);
        assert!(snap.probe.partition_nanos > 0);
        assert!(snap.probe.wall_nanos >= snap.probe.partition_nanos);
        // Quantiles cover the three recorded admissions.
        assert!(snap.latency_p50_us.is_some());
        assert!(snap.latency_p99_us >= snap.latency_p50_us);
    }

    #[test]
    fn telemetry_stamps_spans_and_counters_with_the_trace_id() {
        let mut s = AdmissionState::new(AdmissionConfig::new(4).with_telemetry(64));
        let a = s.admit_traced(wide(6, 2, 10), Some(42)).unwrap();
        s.admit_traced(light(1, 4, 8), Some(43)).unwrap();
        s.remove(a.token).unwrap();
        let events = s.telemetry_events();
        let phases_for = |id: u64| -> Vec<SpanPhase> {
            events
                .iter()
                .filter(|e| e.trace_id() == Some(TraceId(id)))
                .filter_map(|e| match e {
                    TelemetryEvent::Span { phase, .. } => Some(*phase),
                    TelemetryEvent::Counter { .. } => None,
                })
                .collect()
        };
        // High-density admission on a cold cache: the sizing actually ran.
        assert_eq!(
            phases_for(42),
            vec![SpanPhase::Sizing, SpanPhase::Admission]
        );
        // Low-density admission: partition replay inside the admission.
        assert_eq!(
            phases_for(43),
            vec![SpanPhase::Partition, SpanPhase::Admission]
        );
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::Counter {
                kind: CounterKind::CacheMiss,
                trace_id: Some(TraceId(42)),
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::Span {
                phase: SpanPhase::Removal,
                trace_id: None,
                ..
            }
        )));
        // Spans are well-formed on the shared monotonic clock.
        for e in &events {
            if let TelemetryEvent::Span {
                start_nanos,
                end_nanos,
                ..
            } = e
            {
                assert!(end_nanos >= start_nanos);
            }
        }
    }

    #[test]
    fn telemetry_disabled_by_default_records_nothing() {
        let mut s = state(4);
        s.admit_traced(wide(6, 2, 10), Some(1)).unwrap();
        assert!(s.telemetry_events().is_empty());
        assert_eq!(s.telemetry_dropped(), 0);
    }
}
