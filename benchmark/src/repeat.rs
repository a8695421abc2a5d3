//! The repeatability check: the same binary, run in sets, compared with
//! itself.
//!
//! `repeat --sets 2 --runs 5` runs every workload `runs` times per set, each
//! run of a set with another seed (the same seeds in every set), in child
//! processes of this executable; the sets alternate, so a drift of the host
//! falls on both. Per workload and metric it prints each set's median, how
//! much worse the second is than the first, each set's quartile spread and
//! the metric's bound.
//!
//! * A gated metric must repeat within **half** its bound, and its quartile
//!   spread must stay within the bound (over a third of it is flagged
//!   `wide`); `setup_s` is spared the spread rule, as the driver spares it.
//! * The runs of a set differ in seed, so the spread of a metric that is
//!   exact for a seed is how much the input varies, not noise: an exact
//!   metric must read the same, run for run, in both sets.
//! * The ungated timings are printed the same way, with a verdict on
//!   whether they would have earned a 10 % bound: medians within 5 %,
//!   spread within a third of 10 %. None gates the result.

use std::collections::BTreeMap;
use std::process::Command;

use uli_core::json::Json;

use crate::metrics::{Better, END_TO_END, EXACT, UNGATED};
use crate::run::Workload;
use crate::stats::{median, quartile_spread};

/// The parsed last line of a child run.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

/// Parses the result object a run prints as its last line.
pub fn parse_result(line: &str) -> Option<ChildResult> {
    let json = Json::parse(line).ok()?;
    let Json::Object(metrics) = json.get("metrics")? else {
        return None;
    };
    Some(ChildResult {
        correct: matches!(json.get("correct")?, Json::Bool(true)),
        attempted: json.get("attempted")?.as_f64()? as u64,
        failed: json.get("failed")?.as_f64()? as u64,
        values: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// What a child run left behind.
pub struct Child {
    pub stdout: String,
    pub exit_ok: bool,
    /// The parsed last line, if there was one.
    pub result: Option<ChildResult>,
}

/// Runs one workload in a child process of this executable and waits for it.
pub fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Child {
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
    });
    match output {
        Ok(output) => {
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            let result = stdout.lines().last().and_then(parse_result);
            Child {
                stdout,
                exit_ok: output.status.success(),
                result,
            }
        }
        Err(e) => Child {
            stdout: format!("could not run {}: {e}", workload.name()),
            exit_ok: false,
            result: None,
        },
    }
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it is better.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The medians a run's report prints, by metric name: the gated metrics and
/// the ungated timings of the workload's own phase.
pub fn printed_medians(stdout: &str) -> BTreeMap<&'static str, f64> {
    let mut medians = BTreeMap::new();
    for line in stdout.lines() {
        let mut fields = line.split_whitespace();
        let (Some(name), Some(_unit), Some(median)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let listed = END_TO_END.iter().chain(UNGATED).find(|m| m.name == name);
        if let (Some(m), Ok(v)) = (listed, median.parse()) {
            medians.insert(m.name, v);
        }
    }
    medians
}

/// Runs the sets and prints the comparison. True when every gated metric
/// repeats.
pub fn repeat(sets: usize, runs: usize, seconds: f64, base_seed: u64) -> bool {
    // samples[workload][metric][set] = the runs' values, in seed order
    let mut samples: Vec<BTreeMap<&str, Vec<Vec<f64>>>> =
        vec![BTreeMap::new(); Workload::ALL.len()];
    for run in 0..runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for set in 0..sets {
                let seed = base_seed + run as u64;
                eprintln!(
                    "run {}/{runs}  {}  set {}/{sets}  seed {seed}",
                    run + 1,
                    workload.name(),
                    set + 1
                );
                let child = run_child(workload, seed, seconds, false);
                let result = match child.result {
                    Some(r) if child.exit_ok && r.correct => r,
                    _ => {
                        println!(
                            "FAILED RUN: {} seed {seed}\n{}",
                            workload.name(),
                            child.stdout
                        );
                        return false;
                    }
                };
                // Gated metrics as the driver reads them, from the result
                // line; the ungated timings from the report above it.
                let printed = printed_medians(&child.stdout);
                let gated = END_TO_END
                    .iter()
                    .filter_map(|m| Some((m.name, *result.values.get(m.name)?)));
                let ungated = UNGATED
                    .iter()
                    .filter_map(|m| Some((m.name, *printed.get(m.name)?)));
                for (name, v) in gated.chain(ungated) {
                    samples[w]
                        .entry(name)
                        .or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(v);
                }
            }
        }
    }

    println!(
        "repeatability: {sets} sets of {runs} runs per workload, alternating, seeds {base_seed}.."
    );
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median set 1",
        "median set 2",
        "worse %",
        "iqr1 %",
        "iqr2 %",
        "bound"
    );
    let mut ok = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for m in END_TO_END.iter().chain(UNGATED) {
            let Some(per_set) = samples[w].get(m.name) else {
                if m.bound.is_some() {
                    println!("FAILED RUN: {} did not report {}", workload.name(), m.name);
                    ok = false;
                }
                continue;
            };
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            let spreads: Vec<f64> = per_set
                .iter()
                .map(|v| {
                    if v.len() >= 2 {
                        quartile_spread(v)
                    } else {
                        0.0
                    }
                })
                .collect();
            let worse = medians
                .get(1)
                .map_or(0.0, |&second| worsening(m.better, medians[0], second));
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            let verdict = match m.bound {
                None if worse.abs() <= 0.05 && widest <= 0.10 / 3.0 => {
                    "ungated; would hold a 10 % bound"
                }
                None => "ungated; too unsteady for a 10 % bound",
                Some(_) if EXACT.contains(&m.name) => {
                    if per_set.iter().any(|set| *set != per_set[0]) {
                        ok = false;
                        "FAIL exact metric differs between sets at the same seed"
                    } else {
                        "ok (exact: same in both sets, run for run)"
                    }
                }
                Some(bound) if worse.abs() > bound / 2.0 => {
                    ok = false;
                    "FAIL medians differ by more than half the bound"
                }
                // Its spread is reported but, as in the driver, not judged.
                Some(_) if m.name == "setup_s" => "ok",
                Some(bound) if widest > bound => {
                    ok = false;
                    "FAIL spread exceeds the bound"
                }
                Some(bound) if widest > bound / 3.0 => "wide (spread over a third of the bound)",
                Some(_) => "ok",
            };
            println!(
                "{:<14} {:<30} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>8.2} {:>6}  {verdict}",
                workload.name(),
                m.name,
                medians[0],
                medians.get(1).copied().unwrap_or(f64::NAN),
                worse * 100.0,
                spreads[0] * 100.0,
                spreads.get(1).copied().unwrap_or(0.0) * 100.0,
                m.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            );
        }
    }
    println!("repeatability: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 1200, \"failed\": 0, \"metrics\": \
                    {\"deliver_rps\": {\"value\": 65012.25, \"unit\": \"records/s\"}, \
                    \"setup_s\": {\"value\": 0.31, \"unit\": \"s\"}}}";
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1200, 0));
        assert_eq!(r.values["deliver_rps"], 65012.25);
        assert_eq!(r.values["setup_s"], 0.31);
        assert!(parse_result("ops_attempted=3").is_none());
    }

    #[test]
    fn printed_medians_reads_the_report_table() {
        let report = "# ran: deliver over the whole day\n\
                      metric    unit  median  min  max  n  from\n\
                      setup_s      s  5.25  5.25  5.25  1  day\n\
                      deliver_rps  records/s  64306.125  61272.7  65263.4  5  day\n\
                      scribe.log_ns_per_record  ns/record  100.0  90.0  110.0  3  day\n";
        let medians = printed_medians(report);
        assert_eq!(medians.len(), 2);
        assert_eq!(medians["setup_s"], 5.25);
        assert_eq!(medians["deliver_rps"], 64306.125);
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
