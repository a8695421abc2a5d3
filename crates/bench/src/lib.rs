//! The experiment harness: regenerates every table/figure-level claim of
//! the paper (see DESIGN.md's experiment index, E1–E23).
//!
//! E1–E13, the paper's own tables, are each a `run() -> String` that prints
//! a self-contained table. E16–E23 measure counts — records, bytes, blocks,
//! cost-model units named as such; E17–E23 persist them, and the file they
//! write is the report `repro` prints ([`Outcome::measured`]). An
//! experiment keeps only the figures its claim reports and the gates on
//! them no test holds; every other check it once made lives in the test
//! DESIGN.md's experiment index names beside it. The `repro` binary runs
//! every id through [`EXPERIMENTS`]. Wall-clock time is the `benchmark/`
//! package's job, with repeats and a recorded host; of E16–E23 only E20
//! still takes it, for the 1m day the benchmark does not run.

use uli_workload::Scale;

pub mod experiments;
pub mod harness;

use experiments::*;

/// How `repro` was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// `--smoke`: the pinned smoke day and seeds, metrics written to
    /// `target/<id>_smoke.metrics.json` for CI's golden diff. Otherwise full
    /// scale, metrics written to the experiment's `BENCH_*.json`.
    pub smoke: bool,
    /// E20's day (`--scale`; always [`Scale::Smoke`] under `--smoke`).
    pub scale: Scale,
    /// E20's tight query budget (`--mem-budget`; ignored under `--smoke`).
    pub mem_budget: Option<u64>,
}

/// A metrics file an experiment persists: [`harness::envelope`] writes its
/// head, the experiment its body.
pub struct Metrics {
    /// The head's `experiment`; `None` for E17's smoke file, which is the
    /// registry's own export and heads with its schema alone.
    pub experiment: Option<&'static str>,
    /// The head's `schema`.
    pub schema: &'static str,
    /// The members after the head, one per line, indented two spaces,
    /// without the enclosing braces or a trailing newline.
    pub body: String,
    /// The file a full run writes in the current directory.
    pub bench_file: &'static str,
}

/// One experiment's run, as the runner handles it.
pub struct Outcome {
    /// The report `repro` prints.
    pub report: String,
    /// Each gate it checked as (what failing it means, whether it held);
    /// `repro` exits nonzero if any is false. A bound some test already
    /// holds is not a gate: it is proven there, once.
    pub gates: Vec<(String, bool)>,
    /// What it persists, if anything.
    pub metrics: Option<Metrics>,
}

impl Outcome {
    /// A printed table with no gates and nothing persisted.
    fn table(report: String) -> Outcome {
        Outcome {
            report,
            gates: Vec::new(),
            metrics: None,
        }
    }

    /// A measured experiment's gates and metrics; its report is the file it
    /// persists.
    pub fn measured(gates: Vec<(String, bool)>, metrics: Metrics, smoke: bool) -> Outcome {
        Outcome {
            report: harness::envelope(&metrics, smoke),
            gates,
            metrics: Some(metrics),
        }
    }
}

/// How the runner runs one experiment.
pub type Experiment = fn(&Run) -> Outcome;

/// Every runnable experiment by id, in the order `repro all` runs them (E14
/// and E15 are recorded results in EXPERIMENTS.md, no longer runnable).
pub const EXPERIMENTS: [(&str, Experiment); 21] = [
    ("e1", |_| Outcome::table(e1_scribe::run())),
    ("e2", |_| Outcome::table(e2_rollups::run())),
    ("e3", |_| Outcome::table(e3_codec::run())),
    ("e4", |_| Outcome::table(e4_compression::run())),
    ("e5", |_| Outcome::table(e5_query_cost::run())),
    ("e6", |_| Outcome::table(e6_funnel::run())),
    ("e7", |_| Outcome::table(e7_ngram::run())),
    ("e8", |_| Outcome::table(e8_collocations::run())),
    ("e9", |_| Outcome::table(e9_legacy::run())),
    ("e10", |_| Outcome::table(e10_summary::run())),
    ("e11", |_| Outcome::table(e11_index::run())),
    ("e12", |_| Outcome::table(e12_catalog::run())),
    ("e13", |_| Outcome::table(e13_layouts::run())),
    ("e16", |r| Outcome::table(e16_chaos::measure(r.smoke))),
    ("e17", |r| e17_obs::measure(r.smoke)),
    ("e18", |r| e18_ingest::measure(r.smoke)),
    ("e19", |r| e19_columnar::measure(r.smoke)),
    ("e20", e20_scale::measure),
    ("e21", |r| e21_stream::measure(r.smoke)),
    ("e22", |r| e22_serve::measure(r.smoke)),
    ("e23", |r| e23_delivery::measure(r.smoke)),
];

/// Runs one experiment by id, or `None` for an unknown id.
pub fn run_experiment(id: &str, run: &Run) -> Option<Outcome> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, experiment)| experiment(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::json::Json;

    #[test]
    fn no_id_appears_twice_in_the_table() {
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|(other, _)| other != id),
                "{id} has two entries in the runner's table"
            );
        }
    }

    /// Checks a measured experiment's smoke run as `repro --smoke` does:
    /// every gate holds and the file it writes parses. Returns that file.
    pub(crate) fn assert_smoke_run(outcome: &Outcome) -> Json {
        for (message, passed) in &outcome.gates {
            assert!(passed, "{message}");
        }
        let metrics = outcome.metrics.as_ref().expect("a measured experiment");
        assert!(metrics.bench_file.starts_with("BENCH_"));
        let file = harness::envelope(metrics, true);
        Json::parse(&file).unwrap_or_else(|e| panic!("the smoke file does not parse: {e}"))
    }
}
