//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--short] [--out-dir <dir>]`: runs one workload and prints its metrics,
//! its run record, and as the last line the JSON result.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fedsched_perfbench::{run, Options, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: fedsched_perfbench::alloc::Counting = fedsched_perfbench::alloc::Counting;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ServeWarm,
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        short: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--short" {
            opts.short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                opts.seconds = Duration::from_secs(s.max(1));
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.3} {}", m.name, m.value, m.unit);
    }
    for problem in out.problems.iter().take(20) {
        println!("check failed: {problem}");
    }
    let record = out.record_line();
    println!("{record}");
    let file = opts.out_dir.join(format!(
        "record-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&file, format!("{record}\n")) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
