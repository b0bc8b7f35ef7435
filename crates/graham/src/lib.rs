//! Graham's List Scheduling for sporadic DAG tasks.
//!
//! FEDCONS (Baruah, DATE 2015) schedules each high-density task's DAG with
//! Graham's List Scheduling algorithm \[12\] on a dedicated processor cluster
//! and freezes the result as a *template* replayed at run time. This crate
//! provides:
//!
//! * [`list`] — the LS algorithm (with selectable priority lists), plus the
//!   exact Graham makespan upper bound and the `max(len, ⌈vol/m⌉)` lower
//!   bound that together yield the `(2 − 1/m)` factor of the paper's
//!   Lemma 1;
//! * [`schedule`] — the [`schedule::TemplateSchedule`] lookup table `σ_i`,
//!   with full validity checking and Gantt rendering;
//! * [`anomaly`] — Graham's timing anomaly \[11\], the reason templates (not
//!   on-line re-runs) are used at run time (paper footnote 2);
//! * [`optimal`] — exact minimum makespan for small DAGs (branch-and-bound
//!   over semi-active schedules), the oracle experiment E12 measures LS
//!   against.
//!
//! # Examples
//!
//! ```
//! use fedsched_dag::examples::paper_figure1;
//! use fedsched_graham::list::{list_schedule, makespan_lower_bound, graham_upper_bound};
//!
//! let tau1 = paper_figure1();
//! let sigma = list_schedule(tau1.dag(), 2);
//! sigma.validate(tau1.dag()).expect("valid schedule");
//! assert!(sigma.makespan() >= makespan_lower_bound(tau1.dag(), 2));
//! assert!(sigma.makespan() <= graham_upper_bound(tau1.dag(), 2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod anomaly;
pub mod list;
pub mod optimal;
pub mod schedule;
pub mod workspace;

pub use anomaly::{classic_anomaly_dag, demonstrate_classic_anomaly, AnomalyDemo};
pub use list::{
    graham_upper_bound, list_makespan_ranked, list_schedule, list_schedule_ranked,
    list_schedule_with, list_schedule_within, makespan_lower_bound, PriorityPolicy,
};
pub use optimal::{optimal_makespan, OptimalMakespan};
pub use schedule::{ScheduleEntry, ScheduleError, TemplateSchedule};
pub use workspace::{with_thread_workspace, LsWorkspace};
