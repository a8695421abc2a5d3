//! The experiment harness: regenerates every table/figure-level claim of
//! the paper (see DESIGN.md's experiment index E1–E12).
//!
//! Each experiment lives in [`experiments`] as a `run() -> String` that
//! prints a self-contained table; the `repro` binary dispatches on ids.
//! Criterion benches under `benches/` cover the timing-sensitive pieces.

pub mod experiments;
pub mod harness;

/// Runs one experiment by id (`"e1"`…`"e23"`; E14 and E15 are recorded
/// results in EXPERIMENTS.md, no longer runnable), returning its report.
pub fn run_experiment(id: &str) -> Option<String> {
    let out = match id {
        "e1" => experiments::e1_scribe::run(),
        "e2" => experiments::e2_rollups::run(),
        "e3" => experiments::e3_codec::run(),
        "e4" => experiments::e4_compression::run(),
        "e5" => experiments::e5_query_cost::run(),
        "e6" => experiments::e6_funnel::run(),
        "e7" => experiments::e7_ngram::run(),
        "e8" => experiments::e8_collocations::run(),
        "e9" => experiments::e9_legacy::run(),
        "e10" => experiments::e10_summary::run(),
        "e11" => experiments::e11_index::run(),
        "e12" => experiments::e12_catalog::run(),
        "e13" => experiments::e13_layouts::run(),
        "e16" => experiments::e16_chaos::run(),
        "e17" => experiments::e17_obs::run(),
        "e18" => experiments::e18_ingest::run(),
        "e19" => experiments::e19_columnar::run(),
        "e20" => experiments::e20_scale::run(),
        "e21" => experiments::e21_stream::run(),
        "e22" => experiments::e22_serve::run(),
        "e23" => experiments::e23_delivery::run(),
        _ => return None,
    };
    Some(out)
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e16", "e17",
    "e18", "e19", "e20", "e21", "e22", "e23",
];
