//! E20 — million-user day: bounded-memory operators at scale.
//!
//! The paper's pipeline handles "hundreds of millions of users" per day;
//! the interesting systems property is not the absolute numbers but that
//! no stage needs the day in memory. This experiment drives the whole
//! pipeline at a configurable `--scale` — generate, land, materialize,
//! query — with every stage streaming:
//!
//! 1. **generate + land** — [`uli_workload::DayStream`] yields events one
//!    session at a time and [`uli_workload::land_day_stream`] lands them
//!    columnar, as the log mover does, from a bounded buffer per hour (the
//!    fixture encodes columns, so its records/sec is not a delivery number:
//!    E23 and the benchmark's `deliver-day` own that one);
//! 2. **materialize** — pass 2 sorts the day's events under a memory
//!    budget, spilling sorted runs to scratch files; it runs at the default
//!    budget and under a tight one;
//! 3. **query** — each query runs at the engine's default budget and, but
//!    for top-K, under one that binds; spill runs and high-water marks.
//!
//! The full run (`--scale 1m`: one million users, >10M events) persists
//! `BENCH_scale.json` and must finish under [`ONE_M_PEAK_RSS_CEILING_MB`]
//! of resident memory; the smoke run writes machine-independent counters
//! CI diffs against a golden file. That a budget binds, holds its mark and
//! moves no output byte is held by tests: `tests/landed_bytes.rs` for pass
//! 2, this module's for the smoke queries.

use std::fmt::Display;
use std::sync::Arc;

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, Materializer};
use uli_dataflow::prelude::*;
use uli_warehouse::{Warehouse, DEFAULT_MEM_BUDGET};
use uli_workload::{land_day_stream, DayStream, Scale};

use crate::harness::{object_of, peak_rss_mb, quoted, timed, Body};
use crate::{Outcome, Run};

/// Peak resident memory (`VmHWM`) the `--scale 1m` run may reach, MB: about
/// twice what it takes (mostly the in-memory warehouse's landed day, not
/// operator state) and an eighth of the 15 GB reference host.
pub const ONE_M_PEAK_RSS_CEILING_MB: f64 = 2048.0;

/// The query suite. All aggregates are algebraic, so the engine's
/// map-chain path accumulates per-block partial states instead of
/// materializing the day; grouping by user id makes the state itself
/// O(users), which is what forces the tight arm to spill.
fn queries() -> Vec<(&'static str, Plan)> {
    let load = || {
        Plan::load(
            day_dir(CLIENT_EVENTS_CATEGORY, 0),
            Arc::new(ClientEventLoader),
            CLIENT_EVENT_SCHEMA.to_vec(),
        )
    };
    vec![
        // One group per user: the O(users) reduce state.
        (
            "events-per-user",
            load().aggregate_by(vec![2], vec![Agg::count()]),
        ),
        // Sketch-backed DISTINCT and percentile: per-name audience and
        // p95 timestamp, in O(names × sketch) memory.
        (
            "sketch-by-name",
            load().aggregate_by(
                vec![1],
                vec![
                    Agg::approx_count_distinct(2),
                    Agg::approx_percentile(5, 0.95),
                ],
            ),
        ),
        // Top-K short-circuit: ORDER BY timestamp DESC LIMIT 20 keeps a
        // 20-row bound instead of sorting the day.
        (
            "top-20-latest",
            load()
                .order_by(vec![(5, SortOrder::Desc), (2, SortOrder::Asc)])
                .limit(20),
        ),
    ]
}

/// Runs the pipeline at the run's scale, each stage at the default budget
/// and a tight one (a query's is `--mem-budget` if given). The smoke
/// run (`Scale::Smoke`, no override) is what CI golden-diffs; the full run
/// is `Scale::OneM`: a million users, >10M events, budgets far below the
/// day's working set. A full run's file also holds its peak resident memory
/// and stage times, the only 1m-day timings there are until the benchmark
/// runs that day.
pub fn measure(run: &Run) -> Outcome {
    let scale = run.scale;
    let mat_budget = mat_budget(scale);
    let config = scale.config();
    let wh = Warehouse::new();
    let ((landed, truth), land_ms) = timed(|| {
        let mut stream = DayStream::new(&config, 0);
        let landed = land_day_stream(&wh, stream.by_ref()).expect("fresh warehouse");
        (landed, stream.into_truth())
    });
    let raw_dir = day_dir(CLIENT_EVENTS_CATEGORY, 0);
    let landed_files = wh.list_files_recursive(&raw_dir).expect("day landed").len();
    let raw = wh.dir_meta(&raw_dir).expect("day landed");

    let dict = Materializer::new(wh.clone())
        .build_dictionary(0)
        .expect("pass 1 runs");
    let pass_2 = |budget| {
        let materializer = Materializer::new(wh.clone()).with_mem_budget(budget);
        let (report, ms) = timed(|| materializer.materialize_sequences(0, &dict));
        (report.expect("pass 2 runs"), ms)
    };
    let (mat_default, mat_default_ms) = pass_2(DEFAULT_MEM_BUDGET);
    let (mat_tight, mat_ms) = pass_2(mat_budget);

    let mut samples = Vec::new();
    for (query, plan) in queries() {
        let run_arm = |budget| {
            let engine = Engine::new(wh.clone()).with_mem_budget(budget);
            timed(|| engine.run(&plan).expect("query runs"))
        };
        let default = run_arm(DEFAULT_MEM_BUDGET);
        // The tight arm runs a hundredth under what the default arm held,
        // the loosest budget that binds: `sketch-by-name` refills nearly
        // every name's sketch within a few dozen units, so a quarter of its
        // mark spilled gigabytes at 1m. A top-K holds at most its k rows and
        // cannot spill, so it runs no tight arm.
        let held = default.0.stats.mem_high_water_bytes;
        let budget = run.mem_budget.unwrap_or(held - held / 100);
        let tight = (query != "top-20-latest").then(|| ("tight", budget, run_arm(budget)));
        let arms = std::iter::once(("default", DEFAULT_MEM_BUDGET, default)).chain(tight);
        for (arm, budget, (result, query_ms)) in arms {
            let s = result.stats;
            let (query, arm) = (quoted(query), quoted(arm));
            let query_ms = format!("{query_ms:.3}");
            let cost = format!("{:.3}", result.estimated_cluster_ms);
            let members: [(&str, &dyn Display); 11] = [
                ("query", &query),
                ("arm", &arm),
                ("budget", &budget),
                ("query_ms", &query_ms),
                ("cost_model_ms", &cost),
                ("input_records", &s.input_records),
                ("input_bytes_uncompressed", &s.input_bytes_uncompressed),
                ("spill_runs", &s.spill_runs),
                ("spill_bytes", &s.spill_bytes),
                ("mem_high_water_bytes", &s.mem_high_water_bytes),
                ("output_rows", &s.output_records),
            ];
            // A smoke run leaves out the wall-clock, so its golden holds on
            // any host.
            let timed = |(key, _): &(&str, _)| !run.smoke || *key != "query_ms";
            samples.push(object_of(members.into_iter().filter(timed)));
        }
    }

    let peak_rss_mb = peak_rss_mb();
    let mut body = Body::default();
    if !run.smoke {
        let records_per_sec = landed as f64 / (land_ms / 1000.0).max(1e-9);
        body = body
            .put("peak_rss_mb", format!("{peak_rss_mb:.1}"))
            .put("land_ms", format!("{land_ms:.1}"))
            .put("ingest_records_per_sec", format!("{records_per_sec:.1}"))
            .put("mat_ms", format!("{mat_ms:.1}"))
            .put("mat_default_ms", format!("{mat_default_ms:.1}"))
            .put("mat_default_spill_runs", mat_default.spill_runs)
            .put("mat_default_spill_bytes", mat_default.spill_bytes)
            .put(
                "mat_default_high_water_bytes",
                mat_default.mem_high_water_bytes,
            );
    }
    let metrics = body
        .put("scale", quoted(scale.label()))
        .put("users", config.users)
        .put("events", truth.events)
        .put("sessions", truth.sessions)
        .put("landed_files", landed_files)
        .put("raw_uncompressed_bytes", raw.uncompressed_bytes)
        .put("raw_compressed_bytes", raw.compressed_bytes)
        .put("mat_budget", mat_budget)
        .put("mat_sessions", mat_tight.sessions)
        .put("mat_spill_runs", mat_tight.spill_runs)
        .put("mat_spill_bytes", mat_tight.spill_bytes)
        .put("mat_high_water_bytes", mat_tight.mem_high_water_bytes)
        .rows("samples", samples)
        .metrics("scale", "uli-scale-v1", "BENCH_scale.json");
    let ceiling = ONE_M_PEAK_RSS_CEILING_MB;
    let gate = (
        format!("peak resident memory {peak_rss_mb:.0} MB is over the {ceiling:.0} MB ceiling"),
        scale != Scale::OneM || peak_rss_mb <= ceiling,
    );
    Outcome::measured(vec![gate], metrics, run.smoke)
}

/// Pass 2's per-scale tight budget, sized well below the scale's day of
/// events so the external sort genuinely spills.
fn mat_budget(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 2048,
        Scale::Default => 4096,
        Scale::OneM => 16 << 20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::json::Json;
    use uli_dataflow::wire::encode_tuple;
    use uli_warehouse::{fnv1a64_fold, FNV1A64_OFFSET};

    /// Every output row in order, in the lossless spill wire encoding.
    fn rows_digest(rows: &[Tuple]) -> u64 {
        let fold_u64 = |h, v: u64| fnv1a64_fold(h, &v.to_le_bytes());
        let mut h = fold_u64(FNV1A64_OFFSET, rows.len() as u64);
        for row in rows {
            let bytes = encode_tuple(row);
            h = fold_u64(h, bytes.len() as u64);
            h = fnv1a64_fold(h, &bytes);
        }
        h
    }

    /// Rows of the three smoke queries from the unbudgeted in-memory
    /// operators, recorded before they were deleted.
    const RECORDED_ROWS: [(&str, u64); 3] = [
        ("events-per-user", 0x3aad_3a78_8a9f_ad45),
        ("sketch-by-name", 0xde3e_e72a_8897_62c4),
        ("top-20-latest", 0xa80c_023a_e193_be64),
    ];

    #[test]
    fn smoke_query_rows_match_the_recorded_digests() {
        let wh = Warehouse::new();
        land_day_stream(&wh, DayStream::new(&Scale::Smoke.config(), 0)).expect("fresh warehouse");
        assert_recorded_rows(&wh);
    }

    /// The same digests off the batch helper's landing (an hour's events
    /// dealt round-robin over four part files): how the day is cut into
    /// files moves bytes, not rows.
    #[test]
    fn smoke_query_rows_match_the_recorded_digests_on_the_batch_landing() {
        use uli_workload::{generate_day, write_client_events};
        let wh = Warehouse::new();
        let day = generate_day(&Scale::Smoke.config(), 0);
        write_client_events(&wh, &day.events, 4).expect("fresh warehouse");
        assert_recorded_rows(&wh);
    }

    /// Every query's rows at any worker count and budget are the recorded
    /// ones; each run stays under its budget's high-water mark, and the
    /// smoke day's tight budget, 32 KiB, makes at least one query spill.
    fn assert_recorded_rows(wh: &Warehouse) {
        for workers in [1usize, 4, 8] {
            for budget in [32 * 1024, DEFAULT_MEM_BUDGET, u64::MAX] {
                let engine = Engine::new(wh.clone())
                    .with_parallelism(Parallelism::fixed(workers))
                    .with_mem_budget(budget);
                let mut spill_runs = 0;
                for ((label, plan), (pinned, digest)) in queries().into_iter().zip(RECORDED_ROWS) {
                    assert_eq!(label, pinned);
                    let result = engine.run(&plan).expect("query runs");
                    assert_eq!(
                        rows_digest(&result.rows),
                        digest,
                        "{label} at {workers} workers, budget {budget}"
                    );
                    assert!(result.stats.mem_high_water_bytes <= budget, "{label}");
                    spill_runs += result.stats.spill_runs;
                }
                if budget == 32 * 1024 {
                    assert!(spill_runs >= 1, "no query spilled at {workers} workers");
                }
            }
        }
    }

    #[test]
    fn smoke_run_is_clean_and_a_full_run_persists_its_times() {
        let smoke = Run {
            smoke: true,
            scale: Scale::Smoke,
            mem_budget: None,
        };
        crate::tests::assert_smoke_run(&measure(&smoke));
        // A full run's file also carries the peak memory and the stage
        // times, and each query cell its own.
        let full = measure(&Run {
            smoke: false,
            ..smoke
        });
        let json = Json::parse(&full.report).expect("parses");
        for key in [
            "peak_rss_mb",
            "land_ms",
            "ingest_records_per_sec",
            "mat_ms",
            "mat_default_ms",
            "mat_default_spill_runs",
        ] {
            assert!(json.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        let spilled = json.get("mat_default_spill_runs").and_then(Json::as_f64);
        assert_eq!(spilled, Some(0.0), "the smoke day fits 64 MiB");
        let Some(Json::Array(samples)) = json.get("samples") else {
            panic!("no samples array");
        };
        assert_eq!(
            samples.len(),
            5,
            "a default arm a query, a tight arm but top-K's"
        );
        for sample in samples {
            assert!(sample.get("query_ms").and_then(Json::as_f64).is_some());
            let tight = sample.get("arm").and_then(Json::as_str) == Some("tight");
            let spilled = sample.get("spill_runs").and_then(Json::as_f64);
            assert!(
                !tight || spilled >= Some(1.0),
                "a tight arm that never spills"
            );
        }
    }
}
