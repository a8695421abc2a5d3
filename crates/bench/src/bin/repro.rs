//! Regenerates the paper's tables and figures. Usage:
//!
//! ```text
//! cargo run --release -p uli-bench --bin repro -- all
//! cargo run --release -p uli-bench --bin repro -- e4 e5
//! cargo run --release -p uli-bench --bin repro -- --smoke e19 e20
//! ```
//!
//! `--smoke` runs the measured experiments (E16–E23) on the pinned smoke
//! day and seeds and writes their metrics to `target/<id>_smoke.metrics.json`
//! for CI's golden diff; smoke runs never overwrite the BENCH_*.json
//! artifacts, which full runs write in the current directory. `--scale
//! {smoke,default,1m}` sizes E20's synthetic day (default `1m`: one
//! million users, >10M events) and `--mem-budget <bytes>` overrides the
//! memory budget of E20's tight query arms (the other arm of each query
//! runs at the engine's default, 64 MiB); smoke E20 ignores both so the CI
//! golden stays fixed. Any experiment's failed gate makes the exit status
//! nonzero.

use std::process::ExitCode;

use uli_bench::{harness, Run, EXPERIMENTS};
use uli_workload::Scale;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut smoke, mut scale, mut mem_budget) = (false, Scale::OneM, None);
    let mut named: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        // `--flag value` and `--flag=value` both work.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        match flag {
            "--smoke" => smoke = true,
            "--scale" => match inline
                .or_else(|| args.next())
                .as_deref()
                .and_then(Scale::parse)
            {
                Some(s) => scale = s,
                None => {
                    eprintln!("--scale takes one of: smoke, default, 1m");
                    return ExitCode::FAILURE;
                }
            },
            "--mem-budget" => {
                let budget = inline.or_else(|| args.next());
                match budget
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|b| *b > 0)
                {
                    Some(b) => mem_budget = Some(b),
                    None => {
                        eprintln!("--mem-budget takes a positive byte count");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag if flag.starts_with("--") => {}
            _ => named.push(arg),
        }
    }
    let run = Run {
        smoke,
        scale: if smoke { Scale::Smoke } else { scale },
        mem_budget: mem_budget.filter(|_| !smoke),
    };
    let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let ids: Vec<&str> = if named.is_empty() || named.iter().any(|n| n == "all") {
        all.clone()
    } else {
        named.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for id in ids {
        let Some(outcome) = uli_bench::run_experiment(id, &run) else {
            eprintln!(
                "unknown experiment {id:?}; valid: {} or 'all'",
                all.join(", ")
            );
            failed = true;
            continue;
        };
        println!("{}", "=".repeat(74));
        println!("{}", outcome.report);
        for (message, passed) in &outcome.gates {
            if !passed {
                eprintln!("{id}: {message}");
                failed = true;
            }
        }
        let Some(metrics) = outcome.metrics else {
            continue;
        };
        let path = if smoke {
            format!("target/{id}_smoke.metrics.json")
        } else {
            metrics.bench_file.to_string()
        };
        match std::fs::write(&path, harness::envelope(&metrics, smoke)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
