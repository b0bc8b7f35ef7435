//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! run_experiments [--quick] [--threads N] [--out DIR] [e2|e3|e4|e5|e6|e7|e8|all]...
//! ```
//!
//! Prints each table and writes its CSV next to it under `--out`
//! (default `results/`). `--quick` shrinks the sweeps for smoke runs.
//! `--threads N` sizes the thread pool the seeded trials fan out over
//! (results are byte-identical at every pool size).

use std::path::PathBuf;
use std::process::ExitCode;

use fedsched_experiments::{
    e10_partition_ablation, e11_policy_ablation, e12_exact_optimum, e13_global_sim, e14_tightness,
    e15_critical_speed, e2_capacity, e3_acceptance, e4_baselines, e5_minprocs, e6_partition,
    e7_runtime, e8_anomaly, Table,
};

struct Options {
    quick: bool,
    out: PathBuf,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--threads expects an integer >= 1, got {v:?}"))?;
                fedsched_parallel::configure_threads(n);
            }
            "-h" | "--help" => {
                return Err(
                    "usage: run_experiments [--quick] [--threads N] [--out DIR] \
                     [e2..e8|e10..e15|all]..."
                        .into(),
                )
            }
            e @ ("e2" | "e3" | "e4" | "e5" | "e6" | "e7" | "e8" | "e10" | "e11" | "e12" | "e13"
            | "e14" | "e15" | "all") => {
                experiments.push(e.to_owned());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12", "e13", "e14", "e15",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    Ok(Options {
        quick,
        out,
        experiments,
    })
}

fn emit(table: &Table, out: &std::path::Path, file: &str) {
    println!("{table}");
    let path = out.join(file);
    match table.write_csv(&path) {
        Ok(()) => println!("  -> wrote {}\n", path.display()),
        Err(e) => eprintln!("  !! failed to write {}: {e}\n", path.display()),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let q = opts.quick;

    for exp in &opts.experiments {
        match exp.as_str() {
            "e2" => {
                let rows = e2_capacity::run(if q { 5 } else { 10 });
                emit(&e2_capacity::to_table(&rows), &opts.out, "e2_capacity.csv");
            }
            "e3" => {
                let mut cfg = e3_acceptance::E3Config::default();
                if q {
                    cfg.m_values = vec![4, 8];
                    cfg.steps = 10;
                    cfg.systems_per_point = 40;
                }
                let rows = e3_acceptance::run(&cfg);
                emit(
                    &e3_acceptance::to_table(&rows),
                    &opts.out,
                    "e3_acceptance.csv",
                );
            }
            "e4" => {
                for implicit in [true, false] {
                    let mut cfg = e4_baselines::E4Config {
                        implicit,
                        ..e4_baselines::E4Config::default()
                    };
                    if q {
                        cfg.steps = 10;
                        cfg.systems_per_point = 40;
                    }
                    let rows = e4_baselines::run(&cfg);
                    let file = if implicit {
                        "e4_baselines_implicit.csv"
                    } else {
                        "e4_baselines_constrained.csv"
                    };
                    emit(&e4_baselines::to_table(&rows, &cfg), &opts.out, file);
                }
            }
            "e5" => {
                let mut cfg = e5_minprocs::E5Config::default();
                if q {
                    cfg.trials = 100;
                }
                let rows = e5_minprocs::run(&cfg);
                emit(&e5_minprocs::to_table(&rows), &opts.out, "e5_minprocs.csv");
            }
            "e6" => {
                let mut cfg = e6_partition::E6Config::default();
                if q {
                    cfg.trials = 60;
                }
                let rows = e6_partition::run(&cfg);
                emit(
                    &e6_partition::to_table(&rows),
                    &opts.out,
                    "e6_partition.csv",
                );
            }
            "e7" => {
                let mut cfg = e7_runtime::E7Config::default();
                if q {
                    cfg.steps = 5;
                    cfg.systems_per_point = 8;
                    cfg.horizon = 30_000;
                }
                let rows = e7_runtime::run(&cfg);
                emit(&e7_runtime::to_table(&rows), &opts.out, "e7_runtime.csv");
            }
            "e8" => {
                let classic = e8_anomaly::run_classic(if q { 2_000 } else { 20_000 });
                let mut cfg = e8_anomaly::E8Config::default();
                if q {
                    cfg.trials = 300;
                }
                let rows = e8_anomaly::run_search(&cfg);
                let (a, b) = e8_anomaly::to_tables(&classic, &rows);
                emit(&a, &opts.out, "e8_anomaly_classic.csv");
                emit(&b, &opts.out, "e8_anomaly_search.csv");
            }
            "e10" => {
                let mut cfg = e10_partition_ablation::E10Config::default();
                if q {
                    cfg.steps = 8;
                    cfg.systems_per_point = 40;
                }
                let rows = e10_partition_ablation::run(&cfg);
                emit(
                    &e10_partition_ablation::to_table(&rows, &cfg),
                    &opts.out,
                    "e10_partition_ablation.csv",
                );
            }
            "e11" => {
                let mut cfg = e11_policy_ablation::E11Config::default();
                if q {
                    cfg.trials = 100;
                }
                let rows = e11_policy_ablation::run(&cfg);
                emit(
                    &e11_policy_ablation::to_table(&rows),
                    &opts.out,
                    "e11_policy_ablation.csv",
                );
            }
            "e12" => {
                let mut cfg = e12_exact_optimum::E12Config::default();
                if q {
                    cfg.trials = 50;
                }
                let rows = e12_exact_optimum::run(&cfg);
                emit(
                    &e12_exact_optimum::to_table(&rows),
                    &opts.out,
                    "e12_exact_optimum.csv",
                );
            }
            "e13" => {
                let mut cfg = e13_global_sim::E13Config::default();
                if q {
                    cfg.steps = 8;
                    cfg.systems_per_point = 25;
                    cfg.horizon = 20_000;
                }
                let rows = e13_global_sim::run(&cfg);
                emit(
                    &e13_global_sim::to_table(&rows, &cfg),
                    &opts.out,
                    "e13_global_sim.csv",
                );
            }
            "e14" => {
                let mut cfg = e14_tightness::E14Config::default();
                if q {
                    cfg.steps = 5;
                    cfg.systems_per_point = 40;
                }
                let rows = e14_tightness::run(&cfg);
                emit(
                    &e14_tightness::to_table(&rows, &cfg),
                    &opts.out,
                    "e14_tightness.csv",
                );
            }
            "e15" => {
                let mut cfg = e15_critical_speed::E15Config::default();
                if q {
                    cfg.systems_per_topology = 25;
                    cfg.grid = 8;
                }
                let rows = e15_critical_speed::run(&cfg);
                emit(
                    &e15_critical_speed::to_table(&rows, &cfg),
                    &opts.out,
                    "e15_critical_speed.csv",
                );
            }
            _ => unreachable!("validated in parse_args"),
        }
    }
    ExitCode::SUCCESS
}
