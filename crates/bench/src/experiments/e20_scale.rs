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
//!    budget and under a tight one, the tight run must spill, and the two
//!    must leave byte-identical part files;
//! 3. **query** — each query runs twice, at the engine's default budget
//!    and under a tight one; the tight runs must spill, both must stay
//!    under their budget's high-water mark, and the rows must be
//!    byte-identical.
//!
//! The full run (`--scale 1m`: one million users, >10M events) persists
//! `BENCH_scale.json` and must finish under [`ONE_M_PEAK_RSS_CEILING_MB`]
//! of resident memory; the smoke run writes machine-independent counters
//! CI diffs against a golden file.

use std::sync::Arc;

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, sequences_dir, Materializer};
use uli_dataflow::prelude::*;
use uli_warehouse::{fnv1a64_fold, Warehouse, DEFAULT_MEM_BUDGET, FNV1A64_OFFSET};
use uli_workload::{land_day_stream, DayStream, Scale};

use crate::harness::{peak_rss_mb, timed, Table};
use crate::{cells, Measured, Metrics};

/// Peak resident memory (`VmHWM`) the `--scale 1m` run may reach, MB: about
/// twice what it takes (mostly the in-memory warehouse's landed day, not
/// operator state) and an eighth of the 15 GB reference host.
pub const ONE_M_PEAK_RSS_CEILING_MB: f64 = 2048.0;

/// One (query, arm) cell.
pub struct QuerySample {
    /// Query label.
    pub query: &'static str,
    /// `"default"` (the engine's default budget) or `"tight"`.
    pub arm: &'static str,
    /// Wall-clock, milliseconds (full runs only in the JSON).
    pub query_ms: f64,
    /// Deterministic cost-model estimate, milliseconds.
    pub cost_model_ms: f64,
    /// Records scanned.
    pub input_records: u64,
    /// Decoded bytes.
    pub input_bytes_uncompressed: u64,
    /// Sort/aggregate runs spilled to scratch files.
    pub spill_runs: u64,
    /// Bytes written to spill runs.
    pub spill_bytes: u64,
    /// Peak tracked operator memory, bytes.
    pub mem_high_water_bytes: u64,
    /// Rows produced.
    pub output_rows: u64,
}

/// One run of the materializer's pass 2.
pub struct MatArm {
    /// Memory budget of its event sort, bytes.
    pub budget: u64,
    /// Runs of sorted events spilled; the merge reads one more stream than
    /// this, the in-memory remainder.
    pub spill_runs: u64,
    /// Bytes written to those runs.
    pub spill_bytes: u64,
    /// Peak tracked memory, bytes.
    pub high_water_bytes: u64,
    /// Wall-clock, milliseconds.
    pub ms: f64,
}

/// The full pipeline measurement.
pub struct Measurements {
    /// Scale label (`smoke`, `default`, `1m`).
    pub scale: &'static str,
    /// Users in the generated day.
    pub users: u64,
    /// Events generated (= records landed).
    pub events: u64,
    /// Sessions per the generator's ground truth.
    pub sessions: u64,
    /// Part files landed.
    pub landed_files: u64,
    /// Raw day size, uncompressed bytes.
    pub raw_uncompressed_bytes: u64,
    /// Raw day size, on-disk bytes.
    pub raw_compressed_bytes: u64,
    /// Generate + land wall-clock, milliseconds.
    pub land_ms: f64,
    /// Ingest throughput, records/second (wall-clock-derived).
    pub ingest_records_per_sec: f64,
    /// Sessions materialized.
    pub mat_sessions: u64,
    /// Pass 2 at the default budget (it spills nothing below the `1m` day).
    pub mat_default: MatArm,
    /// Pass 2 at the tight budget.
    pub mat_tight: MatArm,
    /// Whether the two budgets left byte-identical part files.
    pub mat_identical: bool,
    /// Memory budget of the tight query arms, bytes.
    pub query_budget: u64,
    /// Query cells, query-major with the default arm first.
    pub samples: Vec<QuerySample>,
    /// True when every tight arm returned rows byte-identical to its
    /// default arm.
    pub queries_identical: bool,
    /// Peak resident memory (`VmHWM`) of the process when the run ended, MB.
    pub peak_rss_mb: f64,
}

impl Measurements {
    /// Spill runs of the tight query arms.
    pub fn tight_query_spill_runs(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.arm == "tight")
            .map(|s| s.spill_runs)
            .sum()
    }

    /// Spill runs across every tightly budgeted stage — the "bounded memory
    /// was actually exercised" gate.
    pub fn budgeted_spill_runs(&self) -> u64 {
        self.mat_tight.spill_runs + self.tight_query_spill_runs()
    }

    /// True when every stage stayed within its budget.
    pub fn peaks_within_budget(&self) -> bool {
        [&self.mat_default, &self.mat_tight]
            .iter()
            .all(|arm| arm.high_water_bytes <= arm.budget)
            && self.samples.iter().all(|s| match s.arm {
                "tight" => s.mem_high_water_bytes <= self.query_budget,
                _ => s.mem_high_water_bytes <= DEFAULT_MEM_BUDGET,
            })
    }
}

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

/// Sequence part files of day 0, in path order: each path and the digest of
/// its block streams — the byte-identity witness for the two pass-2 runs,
/// without holding either relation in memory.
fn sequences_digest(wh: &Warehouse) -> u64 {
    let files = wh
        .list_files_recursive(&sequences_dir(0))
        .expect("sequences exist");
    files.iter().fold(FNV1A64_OFFSET, |h, file| {
        let digest = wh.file_digest(file).expect("sequence file digests");
        fnv1a64_fold(
            fnv1a64_fold(h, file.as_str().as_bytes()),
            &digest.to_le_bytes(),
        )
    })
}

/// Runs the pipeline at `scale` under the scale's tight stage budgets, the
/// query one overridden by `query_budget` if given. The smoke run
/// (`Scale::Smoke`, no override) is what CI golden-diffs; the full run is
/// `Scale::OneM`: a million users, >10M events, budgets far below the day's
/// working set.
pub fn measure(scale: Scale, query_budget: Option<u64>) -> Measurements {
    let (mat_budget, default_query_budget) = tight_budgets(scale);
    let query_budget = query_budget.unwrap_or(default_query_budget);
    let config = scale.config();
    let wh = Warehouse::new();
    let ((landed, truth), land_ms) = timed(|| {
        let mut stream = DayStream::new(&config, 0);
        let landed = land_day_stream(&wh, stream.by_ref()).expect("fresh warehouse");
        (landed, stream.into_truth())
    });
    let raw_dir = day_dir(CLIENT_EVENTS_CATEGORY, 0);
    let landed_files = wh.list_files_recursive(&raw_dir).expect("day landed").len() as u64;
    let raw = wh.dir_meta(&raw_dir).expect("day landed");

    let dict = Materializer::new(wh.clone())
        .build_dictionary(0)
        .expect("pass 1 runs");
    let pass_2 = |budget| {
        let materializer = Materializer::new(wh.clone()).with_mem_budget(budget);
        let (report, ms) = timed(|| materializer.materialize_sequences(0, &dict));
        let report = report.expect("pass 2 runs");
        let arm = MatArm {
            budget,
            spill_runs: report.spill_runs,
            spill_bytes: report.spill_bytes,
            high_water_bytes: report.mem_high_water_bytes,
            ms,
        };
        (arm, report.sessions, sequences_digest(&wh))
    };
    let (mat_default, default_sessions, default_parts) = pass_2(DEFAULT_MEM_BUDGET);
    let (mat_tight, mat_sessions, tight_parts) = pass_2(mat_budget);
    let mat_identical = default_parts == tight_parts && default_sessions == mat_sessions;

    let mut samples = Vec::new();
    let mut queries_identical = true;
    for (label, plan) in queries() {
        let mut default_rows: Option<Vec<Tuple>> = None;
        for (arm, budget) in [("default", DEFAULT_MEM_BUDGET), ("tight", query_budget)] {
            let engine = Engine::new(wh.clone()).with_mem_budget(budget);
            let (result, query_ms) = timed(|| engine.run(&plan).expect("query runs"));
            let s = result.stats;
            match &default_rows {
                None => default_rows = Some(result.rows),
                Some(reference) => queries_identical &= *reference == result.rows,
            }
            samples.push(QuerySample {
                query: label,
                arm,
                query_ms,
                cost_model_ms: result.estimated_cluster_ms,
                input_records: s.input_records,
                input_bytes_uncompressed: s.input_bytes_uncompressed,
                spill_runs: s.spill_runs,
                spill_bytes: s.spill_bytes,
                mem_high_water_bytes: s.mem_high_water_bytes,
                output_rows: s.output_records,
            });
        }
    }

    Measurements {
        scale: scale.label(),
        users: config.users,
        events: truth.events,
        sessions: truth.sessions,
        landed_files,
        raw_uncompressed_bytes: raw.uncompressed_bytes,
        raw_compressed_bytes: raw.compressed_bytes,
        land_ms,
        ingest_records_per_sec: landed as f64 / (land_ms / 1000.0).max(1e-9),
        mat_sessions,
        mat_default,
        mat_tight,
        mat_identical,
        query_budget,
        samples,
        queries_identical,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Per-scale tight budgets for the two stages, each sized well below the
/// scale's working set so the stage genuinely spills (at `1m` the per-user
/// table peaks at ~35 MB, inside the default budget and far past 8 MB; on
/// the smoke day the sketch states are ~6 KB per group, so the query budget
/// sits above one entry but far below the group count × entry size).
fn tight_budgets(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Smoke => (2048, 32 * 1024),
        Scale::Default => (4096, 64 * 1024),
        Scale::OneM => (16 << 20, 8 << 20),
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
        let mut out = format!(
            "E20 — million-user day at --scale {}: {} users, {} events, \
             {} sessions; no stage holds the day in memory\n\n",
            m.scale, m.users, m.events, m.sessions
        );
        out.push_str(&format!(
            "generate+land (streaming): {} files, {} raw bytes ({} on disk), \
             {:.0} ms, {:.0} records/sec\n",
            m.landed_files,
            m.raw_uncompressed_bytes,
            m.raw_compressed_bytes,
            m.land_ms,
            m.ingest_records_per_sec
        ));
        out.push_str(&format!("materialize: {} sessions\n", m.mat_sessions));
        for (label, arm) in [("default", &m.mat_default), ("tight", &m.mat_tight)] {
            out.push_str(&format!(
                "  {label} ({} B budget): {} runs of sorted events spilled ({} B), \
                 merge fan-in {}, peak {} B, {:.0} ms\n",
                arm.budget,
                arm.spill_runs,
                arm.spill_bytes,
                arm.spill_runs + 1,
                arm.high_water_bytes,
                arm.ms
            ));
        }
        out.push_str(if m.mat_identical {
            "  part files byte-identical at both budgets\n\n"
        } else {
            "  PART FILES DIVERGED BETWEEN BUDGETS\n\n"
        });
        let mut t = Table::new(&[
            "query",
            "arm",
            "query ms",
            "cost-model ms",
            "records",
            "decoded bytes",
            "spill runs",
            "spill bytes",
            "peak bytes",
            "rows",
        ]);
        for s in &m.samples {
            t.row(cells![
                s.query,
                s.arm,
                format!("{:.1}", s.query_ms),
                format!("{:.1}", s.cost_model_ms),
                s.input_records,
                s.input_bytes_uncompressed,
                s.spill_runs,
                s.spill_bytes,
                s.mem_high_water_bytes,
                s.output_rows
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ntight arms byte-identical to default: {}\n\
             tight-budget spill runs across stages: {}\n\
             every stage within its budget: {}\n",
            m.queries_identical,
            m.budgeted_spill_runs(),
            m.peaks_within_budget()
        ));
        out.push_str(&format!("peak resident memory: {:.0} MB\n", m.peak_rss_mb));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        let ceiling = ONE_M_PEAK_RSS_CEILING_MB;
        vec![
            (
                "tight-budget query rows diverged from the default budget's".into(),
                self.queries_identical,
            ),
            (
                "pass 2's part files differ between the default and the tight budget".into(),
                self.mat_identical,
            ),
            (
                "a tightly budgeted stage never spilled — budgets too generous".into(),
                self.mat_tight.spill_runs > 0 && self.tight_query_spill_runs() > 0,
            ),
            (
                format!(
                    "peak resident memory {:.0} MB is over the {ceiling:.0} MB ceiling",
                    self.peak_rss_mb
                ),
                self.scale != "1m" || self.peak_rss_mb <= ceiling,
            ),
            (
                "a stage's memory high-water mark exceeded its budget".into(),
                self.peaks_within_budget(),
            ),
        ]
    }

    /// The run's counts; a full run also persists its peak resident memory
    /// and stage times, the only 1m-day timings there are until the
    /// benchmark runs that day.
    fn metrics(&self, smoke: bool) -> Metrics {
        let m = self;
        let full = !smoke;
        let rows: Vec<String> = m.samples.iter().map(|s| sample_json(s, full)).collect();
        let mut head = String::new();
        if full {
            head.push_str(&format!(
                "  \"peak_rss_mb\": {:.1},\n  \
                 \"land_ms\": {:.1},\n  \"ingest_records_per_sec\": {:.1},\n  \
                 \"mat_ms\": {:.1},\n  \"mat_default_ms\": {:.1},\n  \
                 \"mat_default_spill_runs\": {},\n  \"mat_default_spill_bytes\": {},\n  \
                 \"mat_default_high_water_bytes\": {},\n",
                m.peak_rss_mb,
                m.land_ms,
                m.ingest_records_per_sec,
                m.mat_tight.ms,
                m.mat_default.ms,
                m.mat_default.spill_runs,
                m.mat_default.spill_bytes,
                m.mat_default.high_water_bytes
            ));
        }
        let body = format!(
            "{head}  \"scale\": \"{}\",\n  \"users\": {},\n  \"events\": {},\n  \
             \"sessions\": {},\n  \"landed_files\": {},\n  \
             \"raw_uncompressed_bytes\": {},\n  \"raw_compressed_bytes\": {},\n  \
             \"mat_budget\": {},\n  \"mat_sessions\": {},\n  \"mat_spill_runs\": {},\n  \
             \"mat_spill_bytes\": {},\n  \"mat_high_water_bytes\": {},\n  \"mat_identical\": {},\n  \
             \"query_budget\": {},\n  \"queries_identical\": {},\n  \
             \"budgeted_spill_runs\": {},\n  \"peaks_within_budget\": {},\n  \
             \"samples\": [\n{}\n  ]",
            m.scale,
            m.users,
            m.events,
            m.sessions,
            m.landed_files,
            m.raw_uncompressed_bytes,
            m.raw_compressed_bytes,
            m.mat_tight.budget,
            m.mat_sessions,
            m.mat_tight.spill_runs,
            m.mat_tight.spill_bytes,
            m.mat_tight.high_water_bytes,
            m.mat_identical,
            m.query_budget,
            m.queries_identical,
            m.budgeted_spill_runs(),
            m.peaks_within_budget(),
            rows.join(",\n")
        );
        Metrics {
            experiment: Some("scale"),
            schema: "uli-scale-v1",
            body,
            bench_file: "BENCH_scale.json",
        }
    }
}

/// Serializes one query cell; a smoke run leaves out its wall-clock so the
/// CI golden is stable across hosts.
fn sample_json(s: &QuerySample, include_timing: bool) -> String {
    let timing = if include_timing {
        format!("\"query_ms\": {:.3}, ", s.query_ms)
    } else {
        String::new()
    };
    format!(
        "    {{\"query\": \"{}\", \"arm\": \"{}\", {}\"cost_model_ms\": {:.3}, \
         \"input_records\": {}, \"input_bytes_uncompressed\": {}, \
         \"spill_runs\": {}, \"spill_bytes\": {}, \"mem_high_water_bytes\": {}, \
         \"output_rows\": {}}}",
        s.query,
        s.arm,
        timing,
        s.cost_model_ms,
        s.input_records,
        s.input_bytes_uncompressed,
        s.spill_runs,
        s.spill_bytes,
        s.mem_high_water_bytes,
        s.output_rows
    )
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

    fn assert_recorded_rows(wh: &Warehouse) {
        for workers in [1usize, 4, 8] {
            for budget in [32 * 1024, DEFAULT_MEM_BUDGET, u64::MAX] {
                let engine = Engine::new(wh.clone())
                    .with_parallelism(Parallelism::fixed(workers))
                    .with_mem_budget(budget);
                for ((label, plan), (pinned, digest)) in queries().into_iter().zip(RECORDED_ROWS) {
                    assert_eq!(label, pinned);
                    let rows = engine.run(&plan).expect("query runs").rows;
                    assert_eq!(
                        rows_digest(&rows),
                        digest,
                        "{label} at {workers} workers, budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn smoke_pipeline_spills_stays_bounded_and_matches() {
        let m = measure(Scale::Smoke, None);
        assert_eq!(m.scale, "smoke");
        assert_eq!(m.users, 120);
        // The pinned generator goldens fix the smoke day exactly.
        assert_eq!(m.events, 2657);
        assert_eq!(m.sessions, 223);
        assert!(m.queries_identical, "tight-arm rows diverged");
        assert!(m.mat_identical, "pass 2 part files moved with the budget");
        assert!(m.mat_tight.spill_runs > 0, "materializer never spilled");
        assert_eq!(m.mat_default.spill_runs, 0, "the smoke day fits 64 MiB");
        assert!(m.tight_query_spill_runs() > 0, "no tight query spilled");
        assert!(m.peaks_within_budget());
        // The smoke day is far below the default budget: those arms track
        // their reduce state and never spill it.
        for s in m.samples.iter().filter(|s| s.arm == "default") {
            assert_eq!(s.spill_runs, 0, "{}: default arm spilled", s.query);
            assert!(
                (1..=DEFAULT_MEM_BUDGET).contains(&s.mem_high_water_bytes),
                "{}: peak {}",
                s.query,
                s.mem_high_water_bytes
            );
        }
        let top = m
            .samples
            .iter()
            .find(|s| s.query == "top-20-latest")
            .expect("query measured");
        assert_eq!(top.output_rows, 20);

        crate::tests::assert_smoke_run(&m);
        // A full run's file also carries the peak memory and the stage
        // times, and each query cell its own.
        let full = m.metrics(false);
        let json = Json::parse(&crate::harness::envelope(&full, false)).expect("parses");
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
        let Some(Json::Array(samples)) = json.get("samples") else {
            panic!("no samples array");
        };
        assert_eq!(samples.len(), m.samples.len());
        for sample in samples {
            assert!(sample.get("query_ms").and_then(Json::as_f64).is_some());
        }
    }
}
