//! The benchmark's own tests: the short mode of every workload reports
//! exactly the schema's metrics with every answer checked, counts repeat
//! exactly, and each output check rejects a corrupted answer.

use std::path::PathBuf;
use std::time::Duration;

use fedsched_core::fedcons::{fedcons, FedConsConfig, FedConsFailure};
use fedsched_dag::system::TaskId;
use fedsched_perfbench::check::{self, Op, Resident, Seen};
use fedsched_perfbench::{inputs, run, Options, Outcome, Workload, END_TO_END, PER_LAYER};
use fedsched_service::protocol::Placement;
use fedsched_service::state::{AdmissionConfig, AdmissionState};

fn short(workload: Workload, trace: bool, seed: u64) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{seed}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed,
        seconds: Duration::from_secs(1),
        trace,
        short: true,
        out_dir,
    };
    run(&opts).expect("short run completes")
}

fn assert_schema(out: &Outcome, names: &[(&str, &str)]) {
    assert!(out.correct(), "problems: {:?}", out.problems);
    assert_eq!(out.failed, 0);
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, names);
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    let doc: serde_json::Value = serde_json::from_str(&out.result_line()).expect("result is JSON");
    let metrics = doc
        .get("metrics")
        .and_then(serde_json::Value::as_map)
        .unwrap();
    assert_eq!(metrics.len(), names.len());
    let record: serde_json::Value =
        serde_json::from_str(&out.record_line()).expect("record is JSON");
    let record = record.get("record").unwrap();
    for key in [
        "seed",
        "nproc",
        "connections",
        "processors_m",
        "fsync",
        "analysis_pool_width",
        "ops_rejected",
    ] {
        assert!(record.get(key).is_some(), "record lacks {key}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(serde_json::Value::as_seq)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(serde_json::Value::as_str)
                        .unwrap()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |names: &[(&str, &str)]| -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(serde_json::Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(serde_json::Value::as_str).unwrap())
        .collect();
    // serve_durable stays runnable but ungated; serve_warm's traced run
    // measures its layer.
    let gated: Vec<&str> = Workload::ALL
        .into_iter()
        .filter(|&w| w != Workload::ServeDurable)
        .map(Workload::name)
        .collect();
    assert_eq!(workloads, gated);
}

#[test]
fn every_workload_reports_the_end_to_end_schema() {
    for workload in Workload::ALL {
        let out = short(workload, false, 3);
        assert_schema(&out, &END_TO_END);
        assert!(out.attempted > 0);
        assert!(out.record.iter().any(|(k, _)| k == "p99_us"));
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{workload:?}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_add_up() {
    for workload in Workload::ALL {
        let out = short(workload, true, 4);
        assert_schema(&out, &PER_LAYER);
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        let attributed: f64 = if workload == Workload::BatchFedcons {
            value("core.minprocs_us") + value("analysis.partition_us")
        } else {
            // serve_warm's durable.* come from its separate durable phase.
            let wal = if workload == Workload::ServeWarm {
                assert!(value("durable.wal_us") > 0.0);
                assert!(value("durable.fsyncs_per_op") > 0.0);
                0.0
            } else {
                value("durable.wal_us")
            };
            wal + [
                "server.frame_read_us",
                "protocol.parse_us",
                "cache.lookup_us",
                "state.analysis_us",
                "protocol.serialize_us",
                "client.codec_us",
            ]
            .iter()
            .map(|n| value(n))
            .sum::<f64>()
        };
        let total = attributed + value("unattributed_us");
        assert!(
            (total - value("e2e.mean_us")).abs() < 1e-6,
            "{workload:?} does not add up"
        );
        assert!(out.lines.iter().any(|l| l.starts_with("tracing overhead")));
    }
}

/// Per-layer metrics that are exact program-made counts.
const EXACT: [&str; 9] = [
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "state.reject_ratio",
    "analysis.fits_per_op",
    "analysis.dbf_evals_per_op",
    "core.ls_runs_per_op",
    "core.ls_runs_pruned_per_op",
    "parallel.tasks_per_op",
];

#[test]
fn program_counts_repeat_exactly_for_one_seed() {
    for workload in [Workload::ServeChurn, Workload::BatchFedcons] {
        let counts = |out: &Outcome| {
            out.metrics
                .iter()
                .filter(|m| EXACT.contains(&m.name))
                .map(|m| (m.name, m.value))
                .collect::<Vec<_>>()
        };
        let a = short(workload, true, 5);
        let b = short(workload, true, 5);
        assert_eq!(counts(&a), counts(&b), "{workload:?}");
        let probe = |o: &Outcome| o.record.iter().find(|(k, _)| k == "probe_counts").cloned();
        assert_eq!(probe(&a), probe(&b));
    }
}

/// A small admit/remove sequence through an in-process engine, with the
/// answers it gave.
fn served_log(
    m: u32,
) -> (
    Vec<fedsched_dag::task::DagTask>,
    Vec<(Op, Seen)>,
    AdmissionState,
) {
    let catalogue = inputs::warm_catalogue(11, 24);
    let mut state = AdmissionState::new(AdmissionConfig::new(m));
    let mut log = Vec::new();
    let mut held = std::collections::VecDeque::new();
    for (i, task) in catalogue.iter().enumerate() {
        let seen = match state.admit(task.clone()) {
            Ok(a) => {
                held.push_back(a.token);
                Seen::Admitted {
                    token: a.token,
                    placement: a.placement,
                    cache_hit: a.cache_hit,
                }
            }
            Err(_) => Seen::Rejected,
        };
        log.push((Op::Admit(i), seen));
        if i % 3 == 2 {
            let token = held.pop_front().expect("something is resident");
            let r = state.remove(token).expect("resident token");
            log.push((
                Op::Remove(token),
                Seen::Removed {
                    token,
                    migrated: r.migrated,
                },
            ));
        }
    }
    (catalogue, log, state)
}

#[test]
fn replay_check_rejects_a_corrupted_answer() {
    let (catalogue, mut log, _) = served_log(16);
    let (_, problems) = check::replay(AdmissionConfig::new(16), &catalogue, &log);
    assert!(problems.is_empty(), "{problems:?}");
    let victim = log
        .iter_mut()
        .find_map(|(_, s)| match s {
            Seen::Admitted { placement, .. } => Some(placement),
            _ => None,
        })
        .expect("something was admitted");
    *victim = match *victim {
        Placement::Shared { processor } => Placement::Shared {
            processor: processor + 1,
        },
        Placement::Dedicated {
            first_processor,
            processors,
        } => Placement::Dedicated {
            first_processor,
            processors: processors + 1,
        },
    };
    let (_, problems) = check::replay(AdmissionConfig::new(16), &catalogue, &log);
    assert_eq!(problems.len(), 1, "{problems:?}");
}

#[test]
fn consistency_and_recovery_checks_reject_a_corrupted_placement() {
    let (_, _, state) = served_log(16);
    let live: Vec<Resident> = state
        .resident()
        .into_iter()
        .map(|(token, task)| Resident {
            token,
            task: task.clone(),
            placement: state.query(token).unwrap(),
        })
        .collect();
    assert!(live.len() >= 3);
    assert!(check::consistency(&live, 16).is_empty());
    assert!(check::same_resident(&live, &live, "recovered").is_empty());
    let mut corrupted = live.clone();
    corrupted[1].placement = match corrupted[1].placement {
        Placement::Shared { processor } => Placement::Shared {
            processor: processor + 1,
        },
        Placement::Dedicated {
            first_processor,
            processors,
        } => Placement::Dedicated {
            first_processor: first_processor + 1,
            processors,
        },
    };
    assert_eq!(check::consistency(&corrupted, 16).len(), 1);
    assert_eq!(
        check::same_resident(&live, &corrupted, "recovered").len(),
        1
    );
    assert_eq!(
        check::same_resident(&live, &corrupted[1..], "recovered").len(),
        1
    );
}

#[test]
fn batch_check_matches_the_literal_reference_and_rejects_a_wrong_verdict() {
    let corpus = inputs::batch_corpus(13, 40);
    let (mut accepted, mut rejected) = (None, 0);
    for system in &corpus {
        let answer = fedcons(system, 16, FedConsConfig::default());
        assert!(check::batch_answer(system, 16, &answer).is_empty());
        match answer {
            Ok(_) => accepted = accepted.or(Some(system)),
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 0, "the corpus must exercise rejections");
    let system = accepted.expect("the corpus must exercise acceptances");
    let wrong = Err(FedConsFailure::HighDensityTask {
        task: TaskId::from_index(0),
        remaining: 16,
    });
    assert_eq!(check::batch_answer(system, 16, &wrong).len(), 1);
    let other = corpus.iter().find(|s| s.len() != system.len()).unwrap();
    let answer_for_other = fedcons(other, 16, FedConsConfig::default());
    assert!(!check::batch_answer(system, 16, &answer_for_other).is_empty());
}
