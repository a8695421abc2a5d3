//! E19 — columnar-by-default: row vs columnar landing on a selective query.
//!
//! The paper (§4.2) weighs RCFile-style columnar storage and rejects it
//! only because it "would not reduce the number of mappers" — a Hadoop
//! scheduling constraint this reproduction does not have. E13 measured the
//! layout's per-task byte reduction in isolation; this experiment measures
//! the promoted, end-to-end path: the same selective query (timestamp
//! window AND one event name, project 3 of 7 columns) over four landings —
//!
//! 1. **row-eager** — row blocks, every field of every record decoded: the
//!    window predicate sits behind an identity UDF, the way a Pig job
//!    filtered after decoding, so the planner pushes nothing into the scan;
//! 2. **row-pushdown** — row blocks with predicate + zone-map pushdown:
//!    the blocks zone maps disprove are skipped, and every record read is
//!    decoded whole, as the paper's raw-log jobs decode it (E15, now a
//!    recorded result in EXPERIMENTS.md, measured a lazy row scan here);
//! 3. **columnar** — column chunks per row group, vectorized batch scan,
//!    no dictionary;
//! 4. **columnar+dict** — the default landing: the event-name column is
//!    dictionary-coded, so the name predicate compares integer codes.
//!
//! Two more cells run E20's `events-per-user` — an aggregate straight over
//! the LOAD, which declares the one column it reads — over the default
//! landing, as is and behind an identity FOREACH over all seven columns,
//! which masks none. CI gates on the ratio of their decoded bytes, so the
//! aggregate's projection cannot silently stop applying.
//!
//! The default landing's stored bytes are also broken down by column, read
//! off the row-group headers — where the day's bytes sit on disk, before
//! any query decodes one — with the layout each group's integer chunks took
//! (varints or bit-packed), and, for every other column but the name and for
//! each `details` key, by value run: the shape each group's run took (a
//! dictionary of a few values, hex digits, a dotted quad, a number, or `raw`:
//! the bytes as given), the run's bytes as laid out and what the block
//! compressor makes of it on its own.
//!
//! Rows must be byte-identical across every arm and worker count. The
//! headline number is *decoded bytes* (`input_bytes_uncompressed`): the
//! row path charges every decompressed block in full, the columnar path
//! charges only the column chunks it actually decodes. Cost is reported in
//! the deterministic cost model's units (`CostModel::estimate_ms`), labelled
//! as a model; the wall-clock of a selective query is the benchmark's
//! `q_selective_*` metrics.

use std::collections::BTreeMap;
use std::sync::Arc;

use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::columnar::{
    write_client_events_columnar, CLIENT_EVENT_KINDS, DEFAULT_ROWS_PER_GROUP, NAME_COLUMN,
};
use uli_core::session::day_dir;
use uli_dataflow::prelude::*;
use uli_warehouse::compress::compress;
use uli_warehouse::{ColumnKind, ColumnarFile, HourlyPartition, StoredAs, ValueShape, Warehouse};
use uli_workload::{generate_day, write_client_events, write_paper_raw_log, WorkloadConfig};

use crate::harness::Table;
use crate::{cells, Measured, Metrics};

/// Width of the client-event load schema.
const WIDTH: u64 = CLIENT_EVENT_SCHEMA.len() as u64;

/// The most `events-per-user` may decode of its full-width scan's bytes.
pub const PROJECTION_GATE: f64 = 0.20;

/// One landing arm of the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Row blocks under a plan that pushes nothing into the scan.
    RowEager,
    /// Row blocks, predicates and zone maps pushed into the scan.
    RowPushdown,
    /// Columnar row groups without a dictionary column.
    Columnar,
    /// Columnar row groups with the dictionary-coded name column.
    ColumnarDict,
}

/// The four arms in sweep order.
pub const ARMS: [(&str, Arm); 4] = [
    ("row-eager", Arm::RowEager),
    ("row-pushdown", Arm::RowPushdown),
    ("columnar", Arm::Columnar),
    ("columnar+dict", Arm::ColumnarDict),
];

/// One (arm, workers) cell of the sweep.
pub struct ArmSample {
    /// Arm label from [`ARMS`].
    pub config: &'static str,
    /// Scan/execute worker count.
    pub workers: usize,
    /// Deterministic cost-model estimate for the same job, milliseconds.
    pub cost_model_ms: f64,
    /// Row blocks / column row groups decompressed and scanned.
    pub input_blocks: u64,
    /// Blocks / row groups pruned before decompression.
    pub blocks_skipped: u64,
    /// Records scanned.
    pub input_records: u64,
    /// Records dropped by the pushed (or vectorized) predicate.
    pub records_skipped_by_predicate: u64,
    /// Fields never materialized (projection pushdown / unread columns).
    pub fields_skipped: u64,
    /// Decoded bytes: full blocks on the row path, only the decoded column
    /// chunks on the columnar path.
    pub input_bytes_uncompressed: u64,
    /// Fields actually decoded: `input_records × width − fields_skipped`.
    pub decoded_fields: u64,
    /// Rows the query produced (must agree across every cell).
    pub output_rows: u64,
}

/// The full ablation.
pub struct Measurements {
    /// Samples in arm-major, worker-minor order.
    pub samples: Vec<ArmSample>,
    /// True when every arm × worker cell produced identical rows.
    pub outputs_identical: bool,
    /// Decoded bytes, row-pushdown ÷ columnar+dict (single-worker cells).
    pub decoded_bytes_ratio: f64,
    /// Decoded fields, row-eager ÷ columnar+dict (single-worker cells).
    pub decode_work_ratio: f64,
    /// Decoded bytes of `events-per-user` over the default landing,
    /// projected ÷ full width; CI fails above [`PROJECTION_GATE`].
    pub projection_bytes_ratio: f64,
    /// Stored bytes of the default landing by column, in schema order, summed
    /// over the chunk lengths in its row-group headers.
    pub stored_bytes_by_column: Vec<(&'static str, u64)>,
    /// Chunks of a typed column that some cell kept from its kind's layout.
    pub fallback_chunks: u64,
    /// Per integer column, in schema order, its chunks by the layout they
    /// took, in [`I64_LAYOUTS`] order.
    pub i64_layouts: Vec<(&'static str, [u64; 2])>,
    /// The value runs of the default landing: the columns' in schema order,
    /// then the `details` column's by key.
    pub value_runs: Vec<RunStats>,
    /// Users in the generated day.
    pub users: u64,
    /// The event name the query selects.
    pub event_name: String,
}

/// Returns its one argument. A FILTER that calls it runs on decoded
/// tuples: the planner never pushes a UDF into the scan, nor a FILTER
/// above one.
struct Identity;

impl ScalarUdf for Identity {
    fn name(&self) -> &'static str {
        "IDENTITY"
    }

    fn eval(&self, args: &[Value]) -> uli_dataflow::DataflowResult<Value> {
        Ok(args[0].clone())
    }
}

/// The day's LOAD.
fn load() -> Plan {
    Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
}

/// The selective query: a timestamp window AND one event name, projecting
/// (user_id, name) before a per-user count — the query E15 ran, so the
/// row-pushdown arm here is directly comparable to E15's recorded table.
/// The row-eager arm's window sits behind [`Identity`], so no predicate
/// skips a record and no zone map prunes a block.
fn selective_plan(arm: Arm, name: &str, t0: i64, t1: i64) -> Plan {
    let window = Expr::col(5)
        .ge(Expr::lit(t0))
        .and(Expr::col(5).le(Expr::lit(t1)));
    let window = match arm {
        Arm::RowEager => Expr::udf(Arc::new(Identity), vec![window]),
        _ => window,
    };
    load()
        .filter(window)
        .filter(Expr::col(1).eq(Expr::lit(name)))
        .foreach(vec![("user_id", Expr::col(2)), ("name", Expr::col(1))])
        .aggregate_by(vec![0], vec![Agg::count()])
}

/// Lands the day under one arm's layout into a fresh warehouse.
fn land(arm: Arm, events: &[uli_core::ClientEvent]) -> Warehouse {
    let wh = Warehouse::new();
    match arm {
        Arm::RowEager | Arm::RowPushdown => {
            write_paper_raw_log(&wh, events, 4).expect("fresh warehouse");
        }
        Arm::Columnar => {
            // The no-dictionary arm exists only in this ablation: the
            // default landing's partitioning (hour directories, four part
            // files, round-robin by event index) with every name inline.
            let mut files: BTreeMap<(u64, usize), Vec<uli_core::ClientEvent>> = BTreeMap::new();
            for (i, ev) in events.iter().enumerate() {
                files
                    .entry((ev.timestamp.hour_index(), i % 4))
                    .or_default()
                    .push(ev.clone());
            }
            for ((hour, slot), bucket) in files {
                let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
                let path = dir.child(&format!("part-{slot:05}")).expect("valid name");
                write_client_events_columnar(&wh, &path, &bucket, false, DEFAULT_ROWS_PER_GROUP)
                    .expect("fresh warehouse");
            }
        }
        Arm::ColumnarDict => {
            write_client_events(&wh, events, 4).expect("fresh warehouse");
        }
    }
    wh
}

/// The value runs of one column, or of one key of the details column, over
/// a landed day: one run a row group that has the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// The column's name in the load schema.
    pub column: &'static str,
    /// The details key; empty for a column's own run.
    pub key: String,
    /// Runs by the shape they took, in [`SHAPES`] order.
    pub by_shape: [u64; 5],
    /// The runs' bytes as laid out, before the block compressor.
    pub bytes: u64,
    /// What the block compressor makes of each run on its own, summed.
    pub ulz_bytes: u64,
}

/// The shapes a value run can take, as [`RunStats::by_shape`] counts them.
pub const SHAPES: [(&str, ValueShape); 5] = [
    ("raw", ValueShape::Raw),
    ("hex", ValueShape::Hex),
    ("quad", ValueShape::Quad),
    ("decimal", ValueShape::Decimal),
    ("dict", ValueShape::Dict),
];

/// The layouts an integer chunk can take, as [`Measurements::i64_layouts`]
/// counts them.
pub const I64_LAYOUTS: [(&str, StoredAs); 2] =
    [("varints", StoredAs::I64), ("packed", StoredAs::PackedI64)];

/// Where the bytes of a columnar landing sit.
pub struct StoredBytes {
    /// Stored chunk bytes by column, in schema order.
    pub by_column: Vec<(&'static str, u64)>,
    /// Chunks of a typed column not stored as its kind.
    pub fallbacks: u64,
    /// Per integer column, its chunks by layout.
    pub i64_layouts: Vec<(&'static str, [u64; 2])>,
    /// The value runs of every column but the name and the integers, then
    /// of each `details` key.
    pub runs: Vec<RunStats>,
}

/// Where the bytes of a columnar landing sit: stored chunk bytes by column,
/// how many chunks of a typed column are not stored as its kind, the
/// layouts the integer chunks took, and the value runs of every other column
/// but the dictionary-coded name.
pub fn stored_by_column(wh: &Warehouse) -> StoredBytes {
    let mut by_column: Vec<(&'static str, u64)> =
        CLIENT_EVENT_SCHEMA.iter().map(|name| (*name, 0)).collect();
    let mut fallbacks = 0;
    let mut layouts = [[0u64; 2]; CLIENT_EVENT_SCHEMA.len()];
    let mut runs: BTreeMap<(usize, Vec<u8>), RunStats> = BTreeMap::new();
    let mut files = wh
        .list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
        .expect("landed day");
    files.sort();
    for path in files {
        let file = ColumnarFile::open(wh, &path).expect("columnar landing");
        for g in 0..file.group_count() {
            let chunks = file.stored_chunks(g).expect("clean group");
            for (c, (stored_as, bytes)) in chunks.into_iter().enumerate() {
                by_column[c].1 += bytes;
                let typed = CLIENT_EVENT_KINDS[c] != ColumnKind::Bytes;
                fallbacks += u64::from(typed && stored_as == StoredAs::Cells);
                if let Some(l) = I64_LAYOUTS.iter().position(|(_, s)| *s == stored_as) {
                    layouts[c][l] += 1;
                }
            }
            let run_columns = (0..CLIENT_EVENT_KINDS.len())
                .filter(|c| *c != NAME_COLUMN && CLIENT_EVENT_KINDS[*c] != ColumnKind::I64);
            for c in run_columns {
                for run in file.stored_runs(g, c).expect("clean chunk") {
                    let stats = runs.entry((c, run.key.clone())).or_insert(RunStats {
                        column: CLIENT_EVENT_SCHEMA[c],
                        key: String::from_utf8_lossy(&run.key).into_owned(),
                        by_shape: [0; 5],
                        bytes: 0,
                        ulz_bytes: 0,
                    });
                    let shape = SHAPES.iter().position(|(_, shape)| *shape == run.shape);
                    stats.by_shape[shape.expect("a shape of the five")] += 1;
                    stats.bytes += run.bytes.len() as u64;
                    stats.ulz_bytes += compress(&run.bytes).len() as u64;
                }
            }
        }
    }
    let i64_layouts = (0..CLIENT_EVENT_KINDS.len())
        .filter(|c| CLIENT_EVENT_KINDS[*c] == ColumnKind::I64)
        .map(|c| (CLIENT_EVENT_SCHEMA[c], layouts[c]))
        .collect();
    StoredBytes {
        by_column,
        fallbacks,
        i64_layouts,
        runs: runs.into_values().collect(),
    }
}

/// Runs the sweep at workers {1, 4} over a 600-user day, or for a smoke run
/// the 120-user day whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Measurements {
    let users = if smoke { 120 } else { 600 };
    let worker_counts = [1, 4];
    let config = WorkloadConfig {
        users,
        ..Default::default()
    };
    let day = generate_day(&config, 0);

    // Pick the most frequent event name (deterministic tie-break by name)
    // and the middle half of the day's timestamp range, so the query is
    // selective but never empty.
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut t_min = i64::MAX;
    let mut t_max = i64::MIN;
    for ev in &day.events {
        *counts.entry(ev.name.as_str()).or_default() += 1;
        t_min = t_min.min(ev.timestamp.millis());
        t_max = t_max.max(ev.timestamp.millis());
    }
    let event_name = counts
        .iter()
        .max_by_key(|(name, n)| (**n, **name))
        .map(|(name, _)| name.to_string())
        .expect("generated day is non-empty");
    let span = t_max - t_min;
    let (t0, t1) = (t_min + span / 4, t_min + 3 * span / 4);

    let mut samples = Vec::new();
    // One cell: a fresh landing, one query, its sample and its rows.
    let mut run_cell = |config, arm, workers, plan: &Plan| {
        let engine =
            Engine::new(land(arm, &day.events)).with_parallelism(Parallelism::fixed(workers));
        let result = engine.run(plan).expect("runs");
        let s = &result.stats;
        samples.push(ArmSample {
            config,
            workers,
            cost_model_ms: result.estimated_cluster_ms,
            input_blocks: s.input_blocks,
            blocks_skipped: s.blocks_skipped,
            input_records: s.input_records,
            records_skipped_by_predicate: s.records_skipped_by_predicate,
            fields_skipped: s.fields_skipped,
            input_bytes_uncompressed: s.input_bytes_uncompressed,
            decoded_fields: s.input_records * WIDTH - s.fields_skipped,
            output_rows: result.rows.len() as u64,
        });
        result.rows
    };
    let mut reference: Option<Vec<Tuple>> = None;
    let mut outputs_identical = true;
    for (label, arm) in ARMS {
        let plan = selective_plan(arm, &event_name, t0, t1);
        for workers in worker_counts {
            let rows = run_cell(label, arm, workers, &plan);
            match &reference {
                None => reference = Some(rows),
                Some(rows0) => outputs_identical &= *rows0 == rows,
            }
        }
    }
    // The full-width twin passes every column through an identity
    // FOREACH, so the aggregate's one column no longer bounds the mask.
    let every_column: Vec<(&str, Expr)> = CLIENT_EVENT_SCHEMA
        .iter()
        .enumerate()
        .map(|(c, name)| (*name, Expr::col(c)))
        .collect();
    let [projected, full_width] = [
        ("events-per-user", load()),
        ("events-per-user-full-width", load().foreach(every_column)),
    ]
    .map(|(label, source)| {
        let per_user = source.aggregate_by(vec![2], vec![Agg::count()]);
        run_cell(label, Arm::ColumnarDict, worker_counts[0], &per_user)
    });
    outputs_identical &= projected == full_width;
    // Ratios compare single-worker cells; the byte counters are
    // worker-invariant anyway (the chunk cache charges decoded bytes on
    // hits and misses alike), but this keeps the definition obvious.
    let cell = |label: &str| {
        samples
            .iter()
            .find(|s| s.config == label && s.workers == worker_counts[0])
            .expect("arm measured")
    };
    let row_eager = cell("row-eager");
    let row_pushdown = cell("row-pushdown");
    let columnar_dict = cell("columnar+dict");
    let stored = stored_by_column(&land(Arm::ColumnarDict, &day.events));
    Measurements {
        stored_bytes_by_column: stored.by_column,
        fallback_chunks: stored.fallbacks,
        i64_layouts: stored.i64_layouts,
        value_runs: stored.runs,
        projection_bytes_ratio: cell("events-per-user").input_bytes_uncompressed as f64
            / cell("events-per-user-full-width")
                .input_bytes_uncompressed
                .max(1) as f64,
        decoded_bytes_ratio: row_pushdown.input_bytes_uncompressed as f64
            / columnar_dict.input_bytes_uncompressed.max(1) as f64,
        decode_work_ratio: row_eager.decoded_fields as f64
            / columnar_dict.decoded_fields.max(1) as f64,
        samples,
        outputs_identical,
        users,
        event_name,
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
        let mut out = format!(
            "E19 — columnar-by-default: timestamp window AND name = {:?}, \
             project 3 of {WIDTH} columns ({} users)\n\n",
            m.event_name, m.users
        );
        let mut t = Table::new(&[
            "arm",
            "workers",
            "cost-model ms",
            "blocks read",
            "blocks skipped",
            "records",
            "pred-skipped",
            "decoded bytes",
            "decoded fields",
        ]);
        for s in &m.samples {
            t.row(cells![
                s.config,
                s.workers,
                format!("{:.1}", s.cost_model_ms),
                s.input_blocks,
                s.blocks_skipped,
                s.input_records,
                s.records_skipped_by_predicate,
                s.input_bytes_uncompressed,
                s.decoded_fields
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ndecoded bytes: row-pushdown / columnar+dict = {:.2}x\n\
             decoded fields: row-eager / columnar+dict = {:.2}x\n\
             decoded bytes: events-per-user / its full-width scan = {:.4}\n\
             outputs identical across all arms and worker counts: {}\n",
            m.decoded_bytes_ratio,
            m.decode_work_ratio,
            m.projection_bytes_ratio,
            m.outputs_identical
        ));
        let records = m.samples[0].input_records.max(1) as f64;
        out.push_str("\nstored bytes of the default landing, by column (bytes a record):\n");
        for (column, bytes) in &m.stored_bytes_by_column {
            out.push_str(&format!(
                "  {column:<16} {bytes:>10}  {:>7.2}\n",
                *bytes as f64 / records
            ));
        }
        out.push_str(&format!(
            "chunks of a typed column not stored as its kind: {}\n",
            m.fallback_chunks
        ));
        for (column, counts) in &m.i64_layouts {
            let layouts: Vec<String> = I64_LAYOUTS
                .iter()
                .zip(counts)
                .map(|((layout, _), n)| format!("{n} {layout}"))
                .collect();
            out.push_str(&format!("{column} chunks: {}\n", layouts.join(", ")));
        }
        out.push_str(&render_value_runs(&m.value_runs, records));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        vec![
            ("columnar arms diverged from the row reference".into(), self.outputs_identical),
            (
                format!("columnar+dict decoded-bytes drop below 4x ({:.2}x)", self.decoded_bytes_ratio),
                self.decoded_bytes_ratio >= 4.0,
            ),
            (
                format!(
                    "events-per-user decodes {:.4} of its full-width bytes (gate {PROJECTION_GATE})",
                    self.projection_bytes_ratio
                ),
                self.projection_bytes_ratio <= PROJECTION_GATE,
            ),
        ]
    }

    fn metrics(&self, _smoke: bool) -> Metrics {
        let m = self;
        let rows: Vec<String> = m.samples.iter().map(sample_json).collect();
        let stored: Vec<String> = m
            .stored_bytes_by_column
            .iter()
            .map(|(column, bytes)| format!("\"{column}\": {bytes}"))
            .collect();
        let layouts: Vec<String> = m
            .i64_layouts
            .iter()
            .map(|(column, counts)| {
                let counts: Vec<String> = I64_LAYOUTS
                    .iter()
                    .zip(counts)
                    .map(|((layout, _), n)| format!("\"{layout}\": {n}"))
                    .collect();
                format!("\"{column}\": {{{}}}", counts.join(", "))
            })
            .collect();
        let runs: Vec<String> = m
            .value_runs
            .iter()
            .map(|stats| {
                let shapes: Vec<String> = SHAPES
                    .iter()
                    .zip(stats.by_shape)
                    .map(|((name, _), n)| format!("\"{name}\": {n}"))
                    .collect();
                format!(
                "    {{\"column\": \"{}\", \"key\": \"{}\", {}, \"bytes\": {}, \"ulz_bytes\": {}}}",
                stats.column,
                stats.key,
                shapes.join(", "),
                stats.bytes,
                stats.ulz_bytes
            )
            })
            .collect();
        let body = format!(
            "  \"users\": {},\n  \"event_name\": \"{}\",\n  \
             \"outputs_identical\": {},\n  \"decoded_bytes_ratio\": {:.4},\n  \
             \"decode_work_ratio\": {:.4},\n  \"projection_bytes_ratio\": {:.4},\n  \
             \"stored_bytes_by_column\": {{{}}},\n  \"fallback_chunks\": {},\n  \
             \"i64_layouts\": {{{}}},\n  \
             \"value_runs\": [\n{}\n  ],\n  \"samples\": [\n{}\n  ]",
            m.users,
            m.event_name,
            m.outputs_identical,
            m.decoded_bytes_ratio,
            m.decode_work_ratio,
            m.projection_bytes_ratio,
            stored.join(", "),
            m.fallback_chunks,
            layouts.join(", "),
            runs.join(",\n"),
            rows.join(",\n")
        );
        Metrics {
            experiment: Some("columnar"),
            schema: "uli-columnar-v1",
            body,
            bench_file: "BENCH_columnar.json",
        }
    }
}

/// Serializes one sample row.
fn sample_json(s: &ArmSample) -> String {
    format!(
        "    {{\"arm\": \"{}\", \"workers\": {}, \"cost_model_ms\": {:.3}, \
         \"input_blocks\": {}, \"blocks_skipped\": {}, \"input_records\": {}, \
         \"records_skipped_by_predicate\": {}, \"fields_skipped\": {}, \
         \"input_bytes_uncompressed\": {}, \"decoded_fields\": {}, \"output_rows\": {}}}",
        s.config,
        s.workers,
        s.cost_model_ms,
        s.input_blocks,
        s.blocks_skipped,
        s.input_records,
        s.records_skipped_by_predicate,
        s.fields_skipped,
        s.input_bytes_uncompressed,
        s.decoded_fields,
        s.output_rows
    )
}

/// The value-run table: per `ip` column and `details` key, the shapes its
/// runs took with each one's share of them, and bytes a record as laid out
/// and as the block compressor leaves each run on its own.
fn render_value_runs(runs: &[RunStats], records: f64) -> String {
    let mut t = Table::new(&["value run", "runs", "shape", "laid out", "ulz alone"]);
    let mut raw = 0;
    for stats in runs {
        let total: u64 = stats.by_shape.iter().sum();
        let shapes: Vec<String> = SHAPES
            .iter()
            .zip(stats.by_shape)
            .filter(|(_, n)| *n > 0)
            .map(|((name, _), n)| format!("{name} {:.0}%", 100.0 * n as f64 / total as f64))
            .collect();
        raw += stats.by_shape[0];
        let name = match stats.key.as_str() {
            "" => stats.column.to_string(),
            key => format!("{}.{key}", stats.column),
        };
        t.row(cells![
            name,
            total,
            shapes.join(", "),
            format!("{:.2}", stats.bytes as f64 / records),
            format!("{:.2}", stats.ulz_bytes as f64 / records)
        ]);
    }
    format!(
        "\nvalue runs of the default landing (bytes a record):\n{}\
         value runs no shape fits (stored raw): {raw}\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnar_dict_cuts_decoded_bytes_4x_with_identical_rows() {
        let m = measure(true);
        crate::tests::assert_smoke_run(&m);
        assert!(m.outputs_identical, "columnar arms changed query results");
        assert_eq!(m.samples.len(), ARMS.len() * 2 + 2);
        let cell = |label: &str, workers: usize| {
            m.samples
                .iter()
                .find(|s| s.config == label && s.workers == workers)
                .expect("cell measured")
        };
        let eager = cell("row-eager", 1);
        assert_eq!(eager.fields_skipped, 0);
        assert_eq!(eager.blocks_skipped, 0);
        let pushdown = cell("row-pushdown", 1);
        assert!(
            pushdown.blocks_skipped > 0,
            "zone maps pruned no row blocks"
        );
        // A row record decodes whole under either setting: pushdown saves
        // only the records of the blocks its zone maps skip.
        assert_eq!(pushdown.fields_skipped, 0);
        assert!(
            pushdown.decoded_fields < eager.decoded_fields,
            "zone maps must cut the fields decoded off the row log ({} vs {})",
            pushdown.decoded_fields,
            eager.decoded_fields
        );
        let dict = cell("columnar+dict", 1);
        assert!(dict.blocks_skipped > 0, "zone maps pruned no row groups");
        assert!(dict.fields_skipped > 0, "projection read every column");
        assert!(
            dict.records_skipped_by_predicate > 0,
            "vectorized predicate dropped nothing"
        );
        assert!(
            m.decoded_bytes_ratio >= 4.0,
            "decoded bytes must drop ≥4x vs row-pushdown, got {:.2}x",
            m.decoded_bytes_ratio
        );
        // The dictionary column is smaller than the plain string column.
        let plain = cell("columnar", 1);
        assert!(
            dict.input_bytes_uncompressed < plain.input_bytes_uncompressed,
            "dictionary coding must shrink decoded bytes ({} vs {})",
            dict.input_bytes_uncompressed,
            plain.input_bytes_uncompressed
        );
        // Byte counters are worker-invariant (cache hits charge decoded
        // bytes too), so the persisted ratios do not depend on the host.
        for (label, _) in ARMS {
            assert_eq!(
                cell(label, 1).input_bytes_uncompressed,
                cell(label, 4).input_bytes_uncompressed,
                "{label}: decoded bytes varied with worker count"
            );
        }
        // An aggregate straight over the LOAD reads one column of seven.
        assert!(cell("events-per-user", 1).fields_skipped > 0);
        assert_eq!(cell("events-per-user-full-width", 1).fields_skipped, 0);
        assert!(m.projection_bytes_ratio <= PROJECTION_GATE);
        // Every chunk of the generated day fits its column's kind, and the
        // details column is where the bytes are.
        assert_eq!(m.fallback_chunks, 0);
        let stored = |column: &str| {
            let entry = m.stored_bytes_by_column.iter().find(|(c, _)| *c == column);
            entry.expect("a schema column").1
        };
        assert!(stored("details") > stored("timestamp"));
        assert!(stored("timestamp") > stored("name"));
        // Ids, timings and addresses are stored as what they are, never as
        // the bytes given; the few values of the initiator and of free-text
        // keys as a dictionary, in every group; timestamps mostly packed.
        let shapes = |column: &str, key: &str| {
            let run = m
                .value_runs
                .iter()
                .find(|r| r.column == column && r.key == key);
            run.expect("a run of every group").by_shape
        };
        assert_eq!(shapes("ip", "")[0], 0, "an ip run stayed raw");
        for key in [
            "request_id",
            "target_url",
            "page_load_ms",
            "rank",
            "target_id",
            "tweet_id",
        ] {
            assert_eq!(shapes("details", key)[0], 0, "a {key} run stayed raw");
        }
        for (column, key) in [
            ("initiator", ""),
            ("details", "client_version"),
            ("details", "lang"),
            ("details", "referrer"),
            ("details", "user_agent"),
        ] {
            let by_shape = shapes(column, key);
            assert!(by_shape[4] > 0, "{column}.{key}: {by_shape:?}");
            assert_eq!(by_shape[..4], [0; 4], "{column}.{key} is not a dictionary");
        }
        let layouts = |column: &str| {
            let entry = m.i64_layouts.iter().find(|(c, _)| *c == column);
            entry.expect("an integer column").1
        };
        let [varints, packed] = layouts("timestamp");
        assert!(
            packed > varints,
            "{packed} timestamp chunks packed, {varints} not"
        );
    }
}
