//! `uli-benchmark`: the repository's benchmark of the `log()` → answer path.
//!
//! ```text
//! uli-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! uli-benchmark repeat [--sets 2] [--runs 5] [--seconds S] [--seed N]
//! uli-benchmark manifest
//! ```
//!
//! A run prints its report and, as the last line of stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. It exits 0 only when
//! every output it checked was correct. `README.md` beside this package has
//! the metric and workload tables.

mod host;
mod input;
mod metrics;
mod phases;
mod probes;
mod repeat;
mod run;
mod stats;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use run::{RunConfig, Workload, PROBE_USERS, RUN_SECONDS, USERS};

const USAGE: &str = "usage: uli-benchmark --workload <deliver-day|analyze-day|serve-lookups|\
hourly-cycle|all> [--seed N] [--seconds S] [--trace 0|1]\n       \
uli-benchmark repeat [--sets 2] [--runs 5] [--seconds S] [--seed N]\n       \
uli-benchmark manifest";

/// `--key value` pairs after an optional subcommand.
struct Args {
    command: Option<String>,
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut command = None;
        let mut pairs = Vec::new();
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    pairs.push((key.to_string(), value));
                }
                None if command.is_none() && pairs.is_empty() => command = Some(arg),
                None => return Err(format!("unexpected argument {arg}")),
            }
        }
        Ok(Args { command, pairs })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: bad value {v}")),
            None => Ok(default),
        }
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// The four workloads one after another, each in a child process so that
/// set-up time and peak memory are each workload's own. A workload that
/// fails does not stop the others; the set is correct only if all four are.
fn run_all(seed: u64, seconds: f64, trace: bool) -> bool {
    let mut lines = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let child = repeat::run_child(workload, seed, seconds, trace);
        print!("{}\n\n", child.stdout);
        let Some(result) = child.result else {
            all_correct = false;
            lines.push(format!("{:<14} no result line", workload.name()));
            continue;
        };
        all_correct &= child.exit_ok && result.correct && result.failed == 0;
        for (name, value) in repeat::printed_medians(&child.stdout) {
            lines.push(format!("{:<14} {name:<50} {value:>18.4}", workload.name()));
        }
        lines.push(format!(
            "{:<14} ops_attempted={} ops_failed={} correct: {}",
            workload.name(),
            result.attempted,
            result.failed,
            result.correct
        ));
    }
    println!("all workloads:\n{}", lines.join("\n"));
    println!("correct: {all_correct}");
    all_correct
}

fn dispatch() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.command.as_deref() {
        None => {
            args.known(&["workload", "seed", "seconds", "trace"])?;
            let name: String = args.get("workload", String::new())?;
            let seed = args.get("seed", 1u64)?;
            let seconds = args.get("seconds", f64::from(RUN_SECONDS))?;
            let trace = match args.get("trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace: {other} is neither 0 nor 1")),
            };
            if name == "all" {
                return Ok(run_all(seed, seconds, trace));
            }
            let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
            let cfg = RunConfig {
                workload,
                seed,
                seconds,
                trace,
                users: USERS,
                probe_users: PROBE_USERS,
            };
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let result = run::run(&cfg, &mut out).map_err(|e| format!("stdout: {e}"))?;
            if let Some(json) = &result.trace_json {
                // From the repository root, where the driver runs it; from
                // inside the package, beside its sources.
                let dir = if std::path::Path::new("benchmark").is_dir() {
                    std::path::Path::new("benchmark/out")
                } else {
                    std::path::Path::new("out")
                };
                let path = dir.join(format!("trace-{}.json", workload.name()));
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, json))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                writeln!(out, "spans written to {}", path.display())
                    .map_err(|e| format!("stdout: {e}"))?;
            }
            writeln!(out, "{}", result.to_json()).map_err(|e| format!("stdout: {e}"))?;
            Ok(result.correct)
        }
        Some("repeat") => {
            args.known(&["sets", "runs", "seconds", "seed"])?;
            Ok(repeat::repeat(
                args.get("sets", 2usize)?,
                args.get("runs", 5usize)?,
                args.get("seconds", f64::from(RUN_SECONDS))?,
                args.get("seed", 1u64)?,
            ))
        }
        Some("manifest") => {
            let workloads: Vec<(&str, &str)> =
                Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
            print!("{}", metrics::manifest(RUN_SECONDS, &workloads));
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("uli-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
