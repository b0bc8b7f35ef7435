//! [`AnalysisProbe`] — an instrumentation sink threaded through every
//! schedulability analysis in the workspace.
//!
//! Every probed entry point (`MINPROCS`, `FEDCONS`, first-fit
//! partitioning, the exact-EDF tests, the admission service's template
//! cache) takes a `&mut AnalysisProbe` and *adds* to its counters, so one
//! probe can accumulate the cost of an arbitrary sequence of analyses —
//! a whole experiment sweep, or the lifetime of an admission server. The
//! uninstrumented entry points are thin wrappers that discard a scratch
//! probe; they run the identical code path, so instrumentation can never
//! change an analysis verdict.
//!
//! Counters are deliberately plain public `u64` fields: the probe is a
//! record, not an abstraction, and its serde form is the stable surface
//! reported by the CLI (`analyze --json`), the admission server's `Stats`
//! response, and the experiment CSVs.

use core::fmt;
use core::ops::AddAssign;

use serde::{Deserialize, Serialize};

/// Cost counters for one or more schedulability analyses.
///
/// All counters are cumulative; [`AnalysisProbe::merge`] (or `+=`) folds
/// one probe into another, so per-operation probes can be aggregated into
/// a long-lived one.
///
/// # Examples
///
/// ```
/// use fedsched_analysis::probe::AnalysisProbe;
///
/// let mut total = AnalysisProbe::default();
/// let mut op = AnalysisProbe::default();
/// op.ls_runs = 3;
/// op.fits_calls = 1;
/// total.merge(&op);
/// total.merge(&op);
/// assert_eq!(total.ls_runs, 6);
/// assert_eq!(total.fits_calls, 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisProbe {
    /// Graham List-Scheduling simulations run (one per candidate processor
    /// count tried by `MINPROCS`, one per cluster sized by Li's algorithm).
    pub ls_runs: u64,
    /// Makespan-versus-deadline evaluations of an LS template.
    pub makespan_evaluations: u64,
    /// Candidate cluster sizes `μ` eliminated from a `MINPROCS` search by
    /// Graham's bounds (`makespan_lower_bound` / `graham_upper_bound`)
    /// without running List Scheduling on them.
    pub ls_runs_pruned: u64,
    /// Work items offered to a parallel fan-out. No analysis fans out:
    /// `MINPROCS` and FEDCONS run on the calling thread, so this reads 0.
    /// The field stays for wire and snapshot compatibility.
    pub par_tasks_dispatched: u64,
    /// `DBF*` demand terms covered by first-fit tests: one per resident
    /// task per approximate admission test. A test reads its processor's
    /// demand off one exact demand line in constant time, but still counts
    /// every resident the line covers, so the counter keeps its values.
    pub dbf_approx_evals: u64,
    /// Exact `dbf` evaluations performed by the exact-EDF tests (QPA and
    /// the exhaustive deadline walk).
    pub dbf_exact_evals: u64,
    /// First-fit admission tests (`fits()` calls): candidate-task versus
    /// resident-set checks, approximate or exact.
    pub fits_calls: u64,
    /// Template-cache hits (admission service only).
    pub cache_hits: u64,
    /// Template-cache misses (admission service only).
    pub cache_misses: u64,
    /// Wall time spent sizing dedicated clusters (FEDCONS phase 1 /
    /// `MINPROCS`), in nanoseconds.
    pub sizing_nanos: u64,
    /// Wall time spent partitioning low-density tasks (FEDCONS phase 2 /
    /// first-fit), in nanoseconds.
    pub partition_nanos: u64,
    /// Total wall time of the analysis as observed by the policy layer,
    /// in nanoseconds (covers verdict-only tests that have no phases).
    pub wall_nanos: u64,
}

impl AnalysisProbe {
    /// A zeroed probe.
    #[must_use]
    pub fn new() -> AnalysisProbe {
        AnalysisProbe::default()
    }

    /// Adds every counter of `other` into `self`, saturating at
    /// [`u64::MAX`]: a platform-lifetime probe accumulating per-operation
    /// probes for months must pin at the ceiling rather than silently wrap
    /// back toward zero (a wrapped counter reads as a healthy small value
    /// on a metrics dashboard — strictly worse than a saturated one).
    pub fn merge(&mut self, other: &AnalysisProbe) {
        self.ls_runs = self.ls_runs.saturating_add(other.ls_runs);
        self.makespan_evaluations = self
            .makespan_evaluations
            .saturating_add(other.makespan_evaluations);
        self.ls_runs_pruned = self.ls_runs_pruned.saturating_add(other.ls_runs_pruned);
        self.par_tasks_dispatched = self
            .par_tasks_dispatched
            .saturating_add(other.par_tasks_dispatched);
        self.dbf_approx_evals = self.dbf_approx_evals.saturating_add(other.dbf_approx_evals);
        self.dbf_exact_evals = self.dbf_exact_evals.saturating_add(other.dbf_exact_evals);
        self.fits_calls = self.fits_calls.saturating_add(other.fits_calls);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.sizing_nanos = self.sizing_nanos.saturating_add(other.sizing_nanos);
        self.partition_nanos = self.partition_nanos.saturating_add(other.partition_nanos);
        self.wall_nanos = self.wall_nanos.saturating_add(other.wall_nanos);
    }

    /// `true` if every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == AnalysisProbe::default()
    }

    /// A copy with the wall-clock fields (`sizing_nanos`, `partition_nanos`,
    /// `wall_nanos`) zeroed, leaving only the deterministic work counters.
    ///
    /// This is the comparison form of the determinism contract: two analyses
    /// of the same input must produce equal `deterministic()` probes at any
    /// pool width, while the nanosecond fields are measurements and may
    /// differ run to run.
    #[must_use]
    pub fn deterministic(&self) -> AnalysisProbe {
        AnalysisProbe {
            sizing_nanos: 0,
            partition_nanos: 0,
            wall_nanos: 0,
            ..*self
        }
    }
}

impl AddAssign<&AnalysisProbe> for AnalysisProbe {
    fn add_assign(&mut self, rhs: &AnalysisProbe) {
        self.merge(rhs);
    }
}

impl fmt::Display for AnalysisProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ls_runs={} makespans={} pruned={} dispatched={} dbf*={} dbf={} fits={} \
             cache={}H/{}M sizing={}ns partition={}ns wall={}ns",
            self.ls_runs,
            self.makespan_evaluations,
            self.ls_runs_pruned,
            self.par_tasks_dispatched,
            self.dbf_approx_evals,
            self.dbf_exact_evals,
            self.fits_calls,
            self.cache_hits,
            self.cache_misses,
            self.sizing_nanos,
            self.partition_nanos,
            self.wall_nanos
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_field_wise_addition() {
        let mut a = AnalysisProbe {
            ls_runs: 1,
            makespan_evaluations: 2,
            ls_runs_pruned: 11,
            par_tasks_dispatched: 12,
            dbf_approx_evals: 3,
            dbf_exact_evals: 4,
            fits_calls: 5,
            cache_hits: 6,
            cache_misses: 7,
            sizing_nanos: 8,
            partition_nanos: 9,
            wall_nanos: 10,
        };
        let b = a;
        a += &b;
        assert_eq!(a.ls_runs, 2);
        assert_eq!(a.ls_runs_pruned, 22);
        assert_eq!(a.par_tasks_dispatched, 24);
        assert_eq!(a.wall_nanos, 20);
        assert!(!a.is_empty());
        assert!(AnalysisProbe::new().is_empty());
    }

    #[test]
    fn merge_saturates_at_u64_max_instead_of_wrapping() {
        let mut probe = AnalysisProbe {
            ls_runs: u64::MAX,
            makespan_evaluations: u64::MAX - 1,
            wall_nanos: u64::MAX,
            ..AnalysisProbe::default()
        };
        let increment = AnalysisProbe {
            ls_runs: 1,
            makespan_evaluations: 5,
            wall_nanos: u64::MAX,
            fits_calls: 2,
            ..AnalysisProbe::default()
        };
        probe.merge(&increment);
        assert_eq!(probe.ls_runs, u64::MAX, "pins at the ceiling, no wrap");
        assert_eq!(probe.makespan_evaluations, u64::MAX);
        assert_eq!(probe.wall_nanos, u64::MAX);
        assert_eq!(probe.fits_calls, 2, "unsaturated fields still add");
    }

    #[test]
    fn serde_round_trip() {
        let probe = AnalysisProbe {
            ls_runs: 11,
            fits_calls: 3,
            ..AnalysisProbe::default()
        };
        let json = serde_json::to_string(&probe).unwrap();
        let back: AnalysisProbe = serde_json::from_str(&json).unwrap();
        assert_eq!(back, probe);
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = AnalysisProbe::default().to_string();
        for key in [
            "ls_runs",
            "pruned",
            "dispatched",
            "dbf*",
            "fits",
            "cache",
            "wall",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn deterministic_view_zeroes_only_wall_clock_fields() {
        let probe = AnalysisProbe {
            ls_runs: 3,
            ls_runs_pruned: 4,
            par_tasks_dispatched: 5,
            sizing_nanos: 100,
            partition_nanos: 200,
            wall_nanos: 300,
            ..AnalysisProbe::default()
        };
        let det = probe.deterministic();
        assert_eq!(det.ls_runs, 3);
        assert_eq!(det.ls_runs_pruned, 4);
        assert_eq!(det.par_tasks_dispatched, 5);
        assert_eq!(det.sizing_nanos, 0);
        assert_eq!(det.partition_nanos, 0);
        assert_eq!(det.wall_nanos, 0);
        // Idempotent: a deterministic view is its own deterministic view.
        assert_eq!(det.deterministic(), det);
    }
}
