//! The `fedsched` command-line tool: thin argument parsing over
//! [`fedsched_cli`]'s command implementations.

use std::fs;
use std::process::ExitCode;

use fedsched_cli::{
    analyze, analyze_to_json, client_command_with, compact_store, dot, generate, import_stg, info,
    loadgen, parse_priority, parse_trace_format, recover_store, serve_banner, simulate,
    simulate_with_svg, start_server, trace_export, AnalyzeOptions, CliError, ClientAction,
    GenerateOptions, LoadgenOptions, ServeOptions, SimulateOptions, USAGE,
};
use fedsched_durable::FsyncPolicy;

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let command = it
        .next()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;

    // Tiny flag cursor shared by all subcommands.
    let rest: Vec<&str> = it.collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let mut i = 0;
    let takes_value = |f: &str| {
        matches!(
            f,
            "--tasks"
                | "--utilization"
                | "--max-task-u"
                | "--seed"
                | "--topology"
                | "-m"
                | "--policy"
                | "--priority"
                | "--horizon"
                | "--sporadic"
                | "--exec-min"
                | "--trace"
                | "--task"
                | "--save"
                | "--svg"
                | "--deadline"
                | "--period"
                | "--addr"
                | "--workers"
                | "--template-cache-cap"
                | "--token"
                | "--telemetry"
                | "--trace-id"
                | "--format"
                | "--window"
                | "--out"
                | "--io-timeout-ms"
                | "--idle-strikes"
                | "--max-conns"
                | "--max-frame-bytes"
                | "--max-requests"
                | "--slow-ms"
                | "--timeout-ms"
                | "--connections"
                | "--rate"
                | "--growth"
                | "--steps"
                | "--warmup-ms"
                | "--duration-ms"
                | "--process"
                | "--data-dir"
                | "--fsync"
                | "--snapshot-records"
                | "--snapshot-bytes"
                | "--handoff-from"
        )
    };
    while i < rest.len() {
        let a = rest[i];
        if a.starts_with('-') {
            if takes_value(a) {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("{a} needs a value")))?;
                flags.push((a, Some(v)));
                i += 2;
            } else {
                flags.push((a, None));
                i += 1;
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    // Reject flags the subcommand does not understand: silent typo
    // swallowing (e.g. `--utilisation`) is worse than an error.
    let known: &[&str] = match command {
        "generate" => &[
            "--tasks",
            "--utilization",
            "--max-task-u",
            "--seed",
            "--topology",
            "--implicit",
        ],
        "info" => &[],
        "analyze" => &[
            "-m",
            "--policy",
            "--priority",
            "--exact-partition",
            "--json",
            "--save",
        ],
        "simulate" => &[
            "-m",
            "--policy",
            "--horizon",
            "--sporadic",
            "--exec-min",
            "--seed",
            "--trace",
            "--svg",
        ],
        "trace" => &[
            "-m",
            "--policy",
            "--horizon",
            "--sporadic",
            "--exec-min",
            "--seed",
            "--format",
            "--window",
            "--out",
        ],
        "dot" => &["--task"],
        "import-stg" => &["--deadline", "--period"],
        "serve" => &[
            "-m",
            "--policy",
            "--exact-partition",
            "--addr",
            "--workers",
            "--template-cache-cap",
            "--telemetry",
            "--io-timeout-ms",
            "--idle-strikes",
            "--max-conns",
            "--max-frame-bytes",
            "--max-requests",
            "--slow-ms",
            "--data-dir",
            "--fsync",
            "--snapshot-records",
            "--snapshot-bytes",
            "--handoff-from",
        ],
        "recover" | "compact" => &[
            "-m",
            "--policy",
            "--exact-partition",
            "--template-cache-cap",
            "--data-dir",
            "--fsync",
            "--snapshot-records",
            "--snapshot-bytes",
        ],
        "client" => &[
            "--addr",
            "--token",
            "--task",
            "--trace-id",
            "--format",
            "--timeout-ms",
        ],
        "loadgen" => &[
            "--addr",
            "-m",
            "--quick",
            "--out",
            "--connections",
            "--rate",
            "--growth",
            "--steps",
            "--warmup-ms",
            "--duration-ms",
            "--process",
            "--seed",
        ],
        _ => &[],
    };
    if let Some((bad, _)) = flags.iter().find(|(f, _)| !known.contains(f)) {
        return Err(CliError::Usage(format!(
            "unknown flag {bad:?} for `{command}`"
        )));
    }
    let flag = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
    let parse_num = |name: &str, v: &str| -> Result<f64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(format!("{name} expects a number, got {v:?}")))
    };
    let read_input = |positional: &[&str]| -> Result<String, CliError> {
        let path = positional
            .first()
            .ok_or_else(|| CliError::Usage("missing <system.json> argument".into()))?;
        Ok(fs::read_to_string(path)?)
    };

    match command {
        "generate" => {
            let mut opts = GenerateOptions::default();
            if let Some(Some(v)) = flag("--tasks") {
                opts.tasks = parse_num("--tasks", v)? as usize;
            }
            if let Some(Some(v)) = flag("--utilization") {
                opts.utilization = parse_num("--utilization", v)?;
            }
            if let Some(Some(v)) = flag("--max-task-u") {
                opts.max_task_utilization = parse_num("--max-task-u", v)?;
            }
            if let Some(Some(v)) = flag("--seed") {
                opts.seed = parse_num("--seed", v)? as u64;
            }
            if let Some(Some(v)) = flag("--topology") {
                opts.topology = v.to_owned();
            }
            if flag("--implicit").is_some() {
                opts.implicit = true;
            }
            generate(&opts)
        }
        "info" => info(&read_input(&positional)?),
        "analyze" => {
            let processors = match flag("-m") {
                Some(Some(v)) => parse_num("-m", v)? as u32,
                _ => return Err(CliError::Usage("analyze requires -m <processors>".into())),
            };
            let mut opts = AnalyzeOptions {
                processors,
                exact_partition: flag("--exact-partition").is_some(),
                json: flag("--json").is_some(),
                ..AnalyzeOptions::default()
            };
            if let Some(Some(v)) = flag("--policy") {
                opts.policy = v.to_owned();
            }
            if let Some(Some(v)) = flag("--priority") {
                opts.priority = parse_priority(v)?;
            }
            let input = read_input(&positional)?;
            if let Some(Some(path)) = flag("--save") {
                let artifact = analyze_to_json(&input, &opts)?;
                fs::write(path, artifact)?;
            }
            analyze(&input, &opts)
        }
        "simulate" => {
            let mut opts = SimulateOptions::default();
            match flag("-m") {
                Some(Some(v)) => opts.processors = parse_num("-m", v)? as u32,
                _ => return Err(CliError::Usage("simulate requires -m <processors>".into())),
            }
            if let Some(Some(v)) = flag("--policy") {
                opts.policy = parse_priority(v)?;
            }
            if let Some(Some(v)) = flag("--horizon") {
                opts.horizon = parse_num("--horizon", v)? as u64;
            }
            if let Some(Some(v)) = flag("--sporadic") {
                opts.sporadic_slack = parse_num("--sporadic", v)?;
            }
            if let Some(Some(v)) = flag("--exec-min") {
                opts.exec_min_fraction = parse_num("--exec-min", v)?;
            }
            if let Some(Some(v)) = flag("--seed") {
                opts.seed = parse_num("--seed", v)? as u64;
            }
            if let Some(Some(v)) = flag("--trace") {
                opts.trace_window = parse_num("--trace", v)? as u64;
            }
            let input = read_input(&positional)?;
            let svg_window = flag("--svg").flatten().map(|path| {
                let window = if opts.trace_window > 0 {
                    opts.trace_window
                } else {
                    200
                };
                (path, window)
            });
            match svg_window {
                Some((path, window)) => {
                    let (text, svg) = simulate_with_svg(&input, opts, window)?;
                    fs::write(path, svg)?;
                    Ok(text)
                }
                None => simulate(&input, opts),
            }
        }
        "trace" => {
            let mut opts = SimulateOptions::default();
            match flag("-m") {
                Some(Some(v)) => opts.processors = parse_num("-m", v)? as u32,
                _ => return Err(CliError::Usage("trace requires -m <processors>".into())),
            }
            if let Some(Some(v)) = flag("--policy") {
                opts.policy = parse_priority(v)?;
            }
            if let Some(Some(v)) = flag("--horizon") {
                opts.horizon = parse_num("--horizon", v)? as u64;
            }
            if let Some(Some(v)) = flag("--sporadic") {
                opts.sporadic_slack = parse_num("--sporadic", v)?;
            }
            if let Some(Some(v)) = flag("--exec-min") {
                opts.exec_min_fraction = parse_num("--exec-min", v)?;
            }
            if let Some(Some(v)) = flag("--seed") {
                opts.seed = parse_num("--seed", v)? as u64;
            }
            let format = match flag("--format") {
                Some(Some(v)) => parse_trace_format(v)?,
                _ => {
                    return Err(CliError::Usage(
                        "trace requires --format chrome|gantt|csv".into(),
                    ))
                }
            };
            let window = match flag("--window") {
                Some(Some(v)) => parse_num("--window", v)? as u64,
                _ => 200,
            };
            let out = trace_export(&read_input(&positional)?, opts, format, window)?;
            match flag("--out").flatten() {
                Some(path) => {
                    fs::write(path, &out)?;
                    Ok(format!("wrote {path}\n"))
                }
                None => Ok(out),
            }
        }
        "import-stg" => {
            let deadline = match flag("--deadline") {
                Some(Some(v)) => parse_num("--deadline", v)? as u64,
                _ => return Err(CliError::Usage("import-stg requires --deadline".into())),
            };
            let period = match flag("--period") {
                Some(Some(v)) => parse_num("--period", v)? as u64,
                _ => return Err(CliError::Usage("import-stg requires --period".into())),
            };
            import_stg(&read_input(&positional)?, deadline, period)
        }
        "dot" => {
            let task = match flag("--task") {
                Some(Some(v)) => Some(parse_num("--task", v)? as usize),
                _ => None,
            };
            dot(&read_input(&positional)?, task)
        }
        "serve" | "recover" | "compact" => {
            let mut opts = ServeOptions::default();
            match flag("-m") {
                Some(Some(v)) => opts.processors = parse_num("-m", v)? as u32,
                _ => {
                    return Err(CliError::Usage(format!(
                        "{command} requires -m <processors>"
                    )))
                }
            }
            if let Some(Some(v)) = flag("--policy") {
                opts.policy = parse_priority(v)?;
            }
            opts.exact_partition = flag("--exact-partition").is_some();
            if let Some(Some(v)) = flag("--addr") {
                opts.addr = v.to_owned();
            }
            if let Some(Some(v)) = flag("--workers") {
                opts.workers = parse_num("--workers", v)? as usize;
            }
            if let Some(Some(v)) = flag("--template-cache-cap") {
                opts.template_cache_cap = parse_num("--template-cache-cap", v)? as usize;
            }
            if let Some(Some(v)) = flag("--telemetry") {
                opts.telemetry_events = parse_num("--telemetry", v)? as usize;
            }
            if let Some(Some(v)) = flag("--io-timeout-ms") {
                let ms = parse_num("--io-timeout-ms", v)? as u64;
                // 0 disables per-connection deadlines (and with them the
                // bounded-shutdown guarantee).
                opts.limits.io_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            if let Some(Some(v)) = flag("--idle-strikes") {
                opts.limits.idle_strikes = parse_num("--idle-strikes", v)? as u32;
            }
            if let Some(Some(v)) = flag("--max-conns") {
                opts.limits.max_connections = parse_num("--max-conns", v)? as usize;
            }
            if let Some(Some(v)) = flag("--max-frame-bytes") {
                opts.limits.max_frame_bytes = parse_num("--max-frame-bytes", v)? as usize;
            }
            if let Some(Some(v)) = flag("--max-requests") {
                opts.limits.max_requests_per_connection = parse_num("--max-requests", v)? as u64;
            }
            if let Some(Some(v)) = flag("--slow-ms") {
                let ms = parse_num("--slow-ms", v)? as u64;
                // 0 disables the slow-request log.
                opts.limits.slow_request = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            if let Some(Some(v)) = flag("--data-dir") {
                opts.data_dir = Some(v.into());
            }
            if let Some(Some(v)) = flag("--fsync") {
                opts.fsync = FsyncPolicy::parse(v).map_err(CliError::Usage)?;
            }
            if let Some(Some(v)) = flag("--snapshot-records") {
                opts.snapshot_records = parse_num("--snapshot-records", v)? as u64;
            }
            if let Some(Some(v)) = flag("--snapshot-bytes") {
                opts.snapshot_bytes = parse_num("--snapshot-bytes", v)? as u64;
            }
            if let Some(Some(v)) = flag("--handoff-from") {
                opts.handoff_from = Some(v.into());
            }
            match command {
                "recover" => recover_store(&opts),
                "compact" => compact_store(&opts),
                _ => {
                    let handle = start_server(&opts)?;
                    eprint!("{}", serve_banner(&opts, &handle));
                    handle.join();
                    Ok("server stopped\n".to_owned())
                }
            }
        }
        "loadgen" => {
            let mut opts = LoadgenOptions {
                quick: flag("--quick").is_some(),
                ..LoadgenOptions::default()
            };
            if let Some(Some(v)) = flag("--addr") {
                opts.addr = Some(v.to_owned());
            }
            if let Some(Some(v)) = flag("-m") {
                opts.processors = parse_num("-m", v)? as u32;
            }
            if let Some(Some(v)) = flag("--out") {
                opts.out = v.to_owned();
            }
            if let Some(Some(v)) = flag("--connections") {
                opts.connections = Some(parse_num("--connections", v)? as usize);
            }
            if let Some(Some(v)) = flag("--rate") {
                opts.rate = Some(parse_num("--rate", v)?);
            }
            if let Some(Some(v)) = flag("--growth") {
                opts.growth = Some(parse_num("--growth", v)?);
            }
            if let Some(Some(v)) = flag("--steps") {
                opts.steps = Some(parse_num("--steps", v)? as usize);
            }
            if let Some(Some(v)) = flag("--warmup-ms") {
                opts.warmup_ms = Some(parse_num("--warmup-ms", v)? as u64);
            }
            if let Some(Some(v)) = flag("--duration-ms") {
                opts.measure_ms = Some(parse_num("--duration-ms", v)? as u64);
            }
            if let Some(Some(v)) = flag("--process") {
                opts.process = Some(v.to_owned());
            }
            if let Some(Some(v)) = flag("--seed") {
                opts.seed = Some(parse_num("--seed", v)? as u64);
            }
            loadgen(&opts)
        }
        "client" => {
            let addr = flag("--addr")
                .flatten()
                .unwrap_or("127.0.0.1:7878")
                .to_owned();
            let action = positional
                .first()
                .ok_or_else(|| CliError::Usage("client needs an action".into()))?;
            let token = || -> Result<u64, CliError> {
                match flag("--token") {
                    Some(Some(v)) => Ok(parse_num("--token", v)? as u64),
                    _ => Err(CliError::Usage(format!("client {action} requires --token"))),
                }
            };
            let action = match *action {
                "admit" => ClientAction::Admit {
                    json: read_input(&positional[1..])?,
                    task: match flag("--task") {
                        Some(Some(v)) => Some(parse_num("--task", v)? as usize),
                        _ => None,
                    },
                    trace: match flag("--trace-id") {
                        Some(Some(v)) => Some(parse_num("--trace-id", v)? as u64),
                        _ => None,
                    },
                },
                "remove" => ClientAction::Remove { token: token()? },
                "query" => ClientAction::Query { token: token()? },
                "stats" => match flag("--format").flatten() {
                    Some("prometheus") => ClientAction::StatsPrometheus,
                    Some(other) => {
                        return Err(CliError::Usage(format!(
                            "unknown stats format {other:?} (expected prometheus)"
                        )))
                    }
                    None => ClientAction::Stats,
                },
                "shutdown" => ClientAction::Shutdown,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown client action {other:?} \
                         (expected admit|remove|query|stats|shutdown)"
                    )))
                }
            };
            let timeout_ms = match flag("--timeout-ms") {
                Some(Some(v)) => Some(parse_num("--timeout-ms", v)? as u64),
                _ => None,
            };
            client_command_with(&addr, &action, timeout_ms)
        }
        "-h" | "--help" | "help" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(CliError::NotSchedulable(msg)) => {
            eprintln!("not schedulable: {msg}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
