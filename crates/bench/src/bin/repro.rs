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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut scale = Scale::OneM;
    let mut mem_budget: Option<u64> = None;
    let mut skip_value = false;
    let mut named: Vec<&str> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if skip_value {
            skip_value = false;
            continue;
        }
        // `--flag value` and `--flag=value` both work.
        let valued = |flag: &str, skip: &mut bool| -> Option<&str> {
            if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                Some(v)
            } else if a == flag {
                *skip = true;
                args.get(i + 1).map(String::as_str)
            } else {
                None
            }
        };
        if a == "--scale" || a.starts_with("--scale=") {
            scale = match valued("--scale", &mut skip_value).and_then(Scale::parse) {
                Some(s) => s,
                None => {
                    eprintln!("--scale takes one of: smoke, default, 1m");
                    return ExitCode::FAILURE;
                }
            };
            continue;
        }
        if a == "--mem-budget" || a.starts_with("--mem-budget=") {
            mem_budget = match valued("--mem-budget", &mut skip_value)
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|b| *b > 0)
            {
                Some(b) => Some(b),
                None => {
                    eprintln!("--mem-budget takes a positive byte count");
                    return ExitCode::FAILURE;
                }
            };
            continue;
        }
        if !a.starts_with("--") {
            named.push(a);
        }
    }
    let run = Run {
        smoke,
        scale: if smoke { Scale::Smoke } else { scale },
        mem_budget: mem_budget.filter(|_| !smoke),
    };
    let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let ids: Vec<&str> = if named.is_empty() || named.contains(&"all") {
        all.clone()
    } else {
        named
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
