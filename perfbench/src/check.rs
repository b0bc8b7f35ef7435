//! Output checks, run after the timed phase and counted in no metric.
//! Each returns the mismatches it found; the caller counts every one as a
//! failed operation.

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::edf::{edf_exact, EdfVerdict, DEFAULT_BUDGET};
use fedsched_core::fedcons::{fedcons, FedConsConfig, FedConsFailure, FederatedSchedule};
use fedsched_dag::rational::Rational;
use fedsched_dag::system::{TaskId, TaskSystem};
use fedsched_dag::task::DagTask;
use fedsched_graham::list::{list_schedule_with, PriorityPolicy};
use fedsched_graham::schedule::TemplateSchedule;
use fedsched_service::protocol::Placement;
use fedsched_service::state::{AdmissionConfig, AdmissionState};

/// One resident task as the server reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Resident {
    /// Admission token.
    pub token: u64,
    /// The admitted task.
    pub task: DagTask,
    /// Where the server says it runs (`Query`).
    pub placement: Placement,
}

/// The consistency oracle: batch `fedcons` over the resident tasks in
/// token order must accept and reproduce every placement bit for bit.
#[must_use]
pub fn consistency(resident: &[Resident], m: u32) -> Vec<String> {
    let mut sorted: Vec<&Resident> = resident.iter().collect();
    sorted.sort_by_key(|r| r.token);
    let system: TaskSystem = sorted.iter().map(|r| r.task.clone()).collect();
    let schedule = match fedcons(&system, m, FedConsConfig::default()) {
        Ok(s) => s,
        Err(e) => return vec![format!("batch FEDCONS rejects the resident set: {e}")],
    };
    let mut problems = Vec::new();
    for ((id, _), r) in system.iter().zip(&sorted) {
        let expected = match (schedule.cluster_of(id), schedule.shared_processor_of(id)) {
            (Some(c), _) => Some(Placement::Dedicated {
                first_processor: c.first_processor,
                processors: c.processors,
            }),
            (None, Some(processor)) => Some(Placement::Shared { processor }),
            (None, None) => None,
        };
        if expected != Some(r.placement) {
            problems.push(format!(
                "token {}: server placed {:?}, batch FEDCONS {:?}",
                r.token, r.placement, expected
            ));
        }
    }
    problems
}

/// Two views of one resident set (live versus recovered) must agree on
/// every token, task and placement.
#[must_use]
pub fn same_resident(live: &[Resident], other: &[Resident], what: &str) -> Vec<String> {
    let mut a: Vec<&Resident> = live.iter().collect();
    let mut b: Vec<&Resident> = other.iter().collect();
    a.sort_by_key(|r| r.token);
    b.sort_by_key(|r| r.token);
    if a.len() != b.len() {
        return vec![format!(
            "{what}: {} resident tasks against {} live",
            b.len(),
            a.len()
        )];
    }
    a.iter()
        .zip(&b)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| {
            format!(
                "{what}: token {} diverges from live token {}",
                y.token, x.token
            )
        })
        .collect()
}

/// One operation of a single-connection sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Admit catalogue entry `i`.
    Admit(usize),
    /// Remove a token.
    Remove(u64),
}

/// What the server answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// `Admitted`.
    Admitted {
        /// Token.
        token: u64,
        /// Placement.
        placement: Placement,
        /// Template-cache hit flag.
        cache_hit: bool,
    },
    /// `Rejected`.
    Rejected,
    /// `Removed`.
    Removed {
        /// Token.
        token: u64,
        /// Shared tasks that moved.
        migrated: u64,
    },
    /// An IO error, `Busy`, or an unexpected response.
    Failed,
}

/// Replays a served operation sequence through an in-process
/// [`AdmissionState`] and compares every answer; returns the replayed
/// state (for counter comparisons) and the mismatches.
#[must_use]
pub fn replay(
    config: AdmissionConfig,
    catalogue: &[DagTask],
    log: &[(Op, Seen)],
) -> (AdmissionState, Vec<String>) {
    let mut state = AdmissionState::new(config);
    let mut problems = Vec::new();
    for (step, &(op, seen)) in log.iter().enumerate() {
        let expected = match op {
            Op::Admit(i) => match state.admit(catalogue[i].clone()) {
                Ok(a) => Seen::Admitted {
                    token: a.token,
                    placement: a.placement,
                    cache_hit: a.cache_hit,
                },
                Err(_) => Seen::Rejected,
            },
            Op::Remove(token) => match state.remove(token) {
                Ok(r) => Seen::Removed {
                    token: r.token,
                    migrated: r.migrated,
                },
                Err(_) => Seen::Failed,
            },
        };
        if expected != seen {
            problems.push(format!(
                "op {step} {op:?}: server answered {seen:?}, replay {expected:?}"
            ));
        }
    }
    (state, problems)
}

/// The literal paper algorithm: Fig. 3 sweeps every `μ` from `⌈δ⌉` to the
/// remaining processors, and Fig. 4 first-fits the low-density tasks in
/// deadline order with the `DBF*` and utilization conditions in exact
/// rational arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reference {
    /// Accepted: clusters `(task, first processor, μ, template)` and the
    /// pool slot of every low-density task.
    Accept {
        /// Dedicated clusters in task order.
        clusters: Vec<(TaskId, u32, u32, TemplateSchedule)>,
        /// `(task, pool-local processor)` of every low-density task.
        shared: Vec<(TaskId, usize)>,
    },
    /// Phase 1 found no cluster size for `task` within `remaining`.
    HighDensity {
        /// Task.
        task: TaskId,
        /// Unassigned processors.
        remaining: u32,
    },
    /// Phase 2 placed `task` nowhere.
    Partition {
        /// Task.
        task: TaskId,
    },
}

/// Runs [`Reference`] on `system` over `m` processors (ListOrder
/// priorities, the default FEDCONS configuration).
#[must_use]
pub fn literal_fedcons(system: &TaskSystem, m: u32) -> Reference {
    let mut remaining = m;
    let mut next = 0u32;
    let mut clusters = Vec::new();
    for (id, task) in system.iter().filter(|(_, t)| t.is_high_density()) {
        let vol = task.volume().ticks();
        let deadline = task.deadline().ticks();
        let lo = u32::try_from(vol.div_ceil(deadline))
            .unwrap_or(u32::MAX)
            .max(1);
        let fit = (lo..=remaining).find_map(|mu| {
            let s = list_schedule_with(task.dag(), mu, PriorityPolicy::ListOrder);
            (s.makespan() <= task.deadline()).then_some((mu, s))
        });
        let Some((mu, template)) = fit else {
            return Reference::HighDensity {
                task: id,
                remaining,
            };
        };
        clusters.push((id, next, mu, template));
        next += mu;
        remaining -= mu;
    }
    let mut low: Vec<(TaskId, SequentialView)> = system
        .iter()
        .filter(|(_, t)| !t.is_high_density())
        .map(|(id, t)| (id, SequentialView::of(t)))
        .collect();
    low.sort_by_key(|&(id, v)| (v.deadline, id));
    let mut processors: Vec<Vec<SequentialView>> = vec![Vec::new(); remaining as usize];
    let mut shared = Vec::new();
    for (id, view) in low {
        let Some(k) = processors.iter().position(|on| literal_fits(on, &view)) else {
            return Reference::Partition { task: id };
        };
        processors[k].push(view);
        shared.push((id, k));
    }
    shared.sort();
    Reference::Accept { clusters, shared }
}

/// Fig. 4's test with [7]'s utilization condition: `D_i − Σ DBF*(τ_j,
/// D_i) ≥ C_i` and `Σ u_j + u_i ≤ 1`, where `DBF*(τ_j, t) = C_j + u_j (t −
/// D_j)` for `t ≥ D_j` (residents never have a later deadline).
fn literal_fits(resident: &[SequentialView], candidate: &SequentialView) -> bool {
    let u = |v: &SequentialView| Rational::new(v.wcet.ticks().into(), v.period.ticks().into());
    let d = candidate.deadline.ticks();
    let demand: Rational = resident
        .iter()
        .map(|r| Rational::from(r.wcet.ticks()) + u(r) * Rational::from(d - r.deadline.ticks()))
        .sum();
    let utilization: Rational = resident.iter().map(u).sum();
    Rational::from(d) - demand >= Rational::from(candidate.wcet.ticks())
        && utilization + u(candidate) <= Rational::ONE
}

/// Checks one batch answer: the verdict, every cluster size and template
/// and every pool slot must equal [`literal_fedcons`]; every accepted
/// template must validate with makespan ≤ D, and every shared processor
/// must pass the exact EDF test.
#[must_use]
pub fn batch_answer(
    system: &TaskSystem,
    m: u32,
    answer: &Result<FederatedSchedule, FedConsFailure>,
) -> Vec<String> {
    let reference = literal_fedcons(system, m);
    let mut problems = Vec::new();
    match (answer, &reference) {
        (Ok(schedule), Reference::Accept { clusters, shared }) => {
            let got: Vec<(TaskId, u32, u32, TemplateSchedule)> = schedule
                .clusters()
                .iter()
                .map(|c| (c.task, c.first_processor, c.processors, c.template.clone()))
                .collect();
            if &got != clusters {
                problems.push("clusters differ from the Fig. 3 sweep".to_owned());
            }
            let mut got_shared: Vec<(TaskId, usize)> = schedule
                .low_tasks()
                .iter()
                .filter_map(|&id| schedule.partition().processor_of(id).map(|k| (id, k)))
                .collect();
            got_shared.sort();
            if &got_shared != shared {
                problems.push("pool slots differ from the Fig. 4 first-fit".to_owned());
            }
            for c in schedule.clusters() {
                let task = system.task(c.task);
                if c.template.validate(task.dag()).is_err()
                    || c.template.makespan() > task.deadline()
                {
                    problems.push(format!("template of {:?} is invalid or late", c.task));
                }
            }
            for (k, ids) in schedule.partition().iter() {
                let views: Vec<SequentialView> = ids
                    .iter()
                    .map(|&id| SequentialView::of(system.task(id)))
                    .collect();
                if edf_exact(&views, DEFAULT_BUDGET) != Ok(EdfVerdict::Schedulable) {
                    problems.push(format!("shared processor {k} fails exact EDF"));
                }
            }
        }
        (
            Err(FedConsFailure::HighDensityTask { task, remaining }),
            Reference::HighDensity {
                task: t,
                remaining: r,
            },
        ) if task == t && remaining == r => {}
        (Err(FedConsFailure::Partition(f)), Reference::Partition { task }) if f.task == *task => {}
        (answer, reference) => problems.push(format!(
            "verdict {:?} differs from the literal reference {:?}",
            answer.as_ref().map(|_| "accepted"),
            verdict_name(reference)
        )),
    }
    problems
}

fn verdict_name(reference: &Reference) -> String {
    match reference {
        Reference::Accept { .. } => "accepted".to_owned(),
        Reference::HighDensity { task, remaining } => {
            format!("high-density {task:?} unsizable in {remaining}")
        }
        Reference::Partition { task } => format!("no shared fit for {task:?}"),
    }
}
