//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <explore_denorm|explore_star|fleet_dashboard>
//!           --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! Prints the environment and every metric by name with its unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Writes the full result (and, traced, the spans) under
//! `.bench_out/` in the working directory. `--record` runs one untraced rep
//! and prints the line to add to `expected_hashes.txt`. Exits non-zero when
//! an output check fails.

use perfbench::{result_line, run, RunConfig, Workload};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let cfg = RunConfig::new(args.workload, args.seed, args.seconds, args.trace);

    if args.record {
        let rep = cfg.rep(&perfbench::trace::Trace::off());
        println!("{name} {} {} {:016x}", args.seed, cfg.sizes.tag(), rep.hash);
        return ExitCode::SUCCESS;
    }

    let result = run(&cfg);
    let cores = idebench_core::settings::available_parallelism();
    let workers = idebench_core::Settings::default().effective_workers();
    let env = serde_json::json!({
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": cfg.sizes.rows,
        "sizes": cfg.sizes.tag(),
        "available_cores": cores,
        "effective_workers": workers,
        "scan_pool_threads": idebench_query::global_pool().threads(),
        "scaling_evidentiary": cores > 1,
        "git_commit": perfbench::host::git_commit(Path::new(".")),
        "reference_kernel_ms": [result.reference_ms.0, result.reference_ms.1],
    });
    println!("environment {}", serde_json::to_string(&env).expect("json"));
    if cores <= 1 {
        println!("note: 1 core available; multi-worker readings are not evidence of scaling");
    }
    println!(
        "reps untraced={} traced={} interactions={} hash={:016x} recorded={}",
        result.untraced_reps,
        result.traced_reps,
        result.interactions,
        result.hash,
        cfg.recorded_hash()
            .map_or("none".to_string(), |h| format!("{h:016x}")),
    );
    for m in &result.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        println!("check failed: {p}");
    }

    let out = Path::new(".bench_out");
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let metrics: Vec<serde_json::Value> = result
        .metrics
        .iter()
        .map(|m| serde_json::json!({"name": m.name, "value": m.value, "unit": m.unit}))
        .collect();
    let full = serde_json::json!({
        "environment": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "hash": format!("{:016x}", result.hash),
        "untraced_reps": result.untraced_reps,
        "traced_reps": result.traced_reps,
        "interactions": result.interactions,
        "problems": result.problems,
        "metrics": metrics,
    });
    let written = std::fs::create_dir_all(out).and_then(|()| {
        std::fs::write(
            out.join(format!("{stem}.json")),
            serde_json::to_string_pretty(&full).expect("json"),
        )?;
        if args.trace {
            std::fs::write(
                out.join(format!("{stem}.trace.jsonl")),
                perfbench::trace::to_jsonl(&result.spans),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
    }

    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
