//! E19 — columnar-by-default: row vs columnar landing on a selective query.
//!
//! The paper (§4.2) weighs RCFile-style columnar storage and rejects it
//! only because it "would not reduce the number of mappers" — a Hadoop
//! scheduling constraint this reproduction does not have. E13 measured the
//! layout's per-task byte reduction in isolation; this experiment measures
//! the promoted, end-to-end path: the same selective query (timestamp
//! window AND one event name, project 3 of 7 columns) over the four
//! landings of [`ARMS`]. The row-eager arm's window sits behind an identity
//! UDF, the way a Pig job filtered after decoding; the row-pushdown arm
//! decodes every record it reads whole, as the paper's raw-log jobs do.
//!
//! Two more cells run E20's `events-per-user` — an aggregate straight over
//! the LOAD, which declares the one column it reads — over the default
//! landing, as is and behind an identity FOREACH over all seven columns,
//! which masks none. The ratio of their decoded bytes is gated, so the
//! aggregate's projection cannot silently stop applying.
//!
//! The default landing's stored bytes are also broken down by column, read
//! off the row-group headers — where the day's bytes sit on disk, before
//! any query decodes one — with the layout each group's integer chunks took
//! (varints or bit-packed), and, for every other column but the name and for
//! each `details` key, by value run: the shape each group's run took (a
//! dictionary of a few values, hex digits, a dotted quad, a number, or `raw`:
//! the bytes as given), the run's bytes as laid out and what the block
//! compressor makes of it on its own. The shapes the smoke day's runs must
//! take are gated too, so a writer that quietly falls back to raw fails on
//! any host.
//!
//! The headline number is *decoded bytes* (`input_bytes_uncompressed`): the
//! row path charges every decompressed block in full, the columnar path
//! charges only the column chunks it actually decodes. Cost is reported in
//! the deterministic cost model's units (`CostModel::estimate_ms`), labelled
//! as a model; the wall-clock of a selective query is the benchmark's
//! `q_selective_*` metrics. That every arm returns the row reference's rows
//! is `crates/core/tests/columnar_equivalence.rs`'s to hold.

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

use crate::harness::{object, object_of, quoted, Body};
use crate::Outcome;

/// Width of the client-event load schema.
const WIDTH: u64 = CLIENT_EVENT_SCHEMA.len() as u64;

/// The most `events-per-user` may decode of its full-width scan's bytes.
pub const PROJECTION_GATE: f64 = 0.20;

/// The four landing arms, in sweep order: row blocks under a plan that
/// pushes nothing into the scan; row blocks with predicates and zone maps
/// pushed into it; columnar row groups without a dictionary column; and the
/// default landing, whose name column is dictionary-coded, so the name
/// predicate compares integer codes.
const ARMS: [&str; 4] = ["row-eager", "row-pushdown", "columnar", "columnar+dict"];

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
fn selective_plan(arm: &str, name: &str, t0: i64, t1: i64) -> Plan {
    let window = Expr::col(5)
        .ge(Expr::lit(t0))
        .and(Expr::col(5).le(Expr::lit(t1)));
    let window = match arm {
        "row-eager" => Expr::udf(Arc::new(Identity), vec![window]),
        _ => window,
    };
    load()
        .filter(window)
        .filter(Expr::col(1).eq(Expr::lit(name)))
        .foreach(vec![("user_id", Expr::col(2)), ("name", Expr::col(1))])
        .aggregate_by(vec![0], vec![Agg::count()])
}

/// Lands the day under one arm's layout into a fresh warehouse.
fn land(arm: &str, events: &[uli_core::ClientEvent]) -> Warehouse {
    let wh = Warehouse::new();
    match arm {
        "row-eager" | "row-pushdown" => {
            write_paper_raw_log(&wh, events, 4).expect("fresh warehouse");
        }
        "columnar" => {
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
        _ => {
            write_client_events(&wh, events, 4).expect("fresh warehouse");
        }
    }
    wh
}

/// The shapes a value run can take, in the order the metrics count them.
pub const SHAPES: [(&str, ValueShape); 5] = [
    ("raw", ValueShape::Raw),
    ("hex", ValueShape::Hex),
    ("quad", ValueShape::Quad),
    ("decimal", ValueShape::Decimal),
    ("dict", ValueShape::Dict),
];

/// The layouts an integer chunk can take, in the order the metrics count
/// them.
pub const I64_LAYOUTS: [(&str, StoredAs); 2] =
    [("varints", StoredAs::I64), ("packed", StoredAs::PackedI64)];

/// Value runs that must never stay raw on the smoke day: ids, timings and
/// addresses are stored as what they are.
const NEVER_RAW: [(&str, &str); 7] = [
    ("ip", ""),
    ("details", "request_id"),
    ("details", "target_url"),
    ("details", "page_load_ms"),
    ("details", "target_id"),
    ("details", "tweet_id"),
    ("details", "rank"),
];

/// Value runs that must be a dictionary in every group: the initiator and
/// the free-text details keys have a few values each.
const ALWAYS_DICT: [(&str, &str); 5] = [
    ("initiator", ""),
    ("details", "user_agent"),
    ("details", "referrer"),
    ("details", "lang"),
    ("details", "client_version"),
];

/// A value run's totals over the day, keyed by column and `details` key: its
/// runs by shape, its bytes as laid out, and what the block compressor makes
/// of each run on its own, summed.
type RunTotals = ([u64; 5], u64, u64);

/// Where the bytes of a columnar landing sit, added to `body`: stored chunk
/// bytes by column, how many chunks of a typed column are not stored as its
/// kind, the layouts the integer chunks took, and the value runs of every
/// other column but the dictionary-coded name, then of each `details` key:
/// by shape, bytes as laid out and what the block compressor makes of each
/// run on its own. Gates the shapes the runs and timestamps take.
fn stored_bytes(wh: &Warehouse, body: Body, gates: &mut Vec<(String, bool)>) -> Body {
    let mut by_column = [0u64; CLIENT_EVENT_SCHEMA.len()];
    let mut fallbacks = 0;
    let mut layouts = [[0u64; 2]; CLIENT_EVENT_SCHEMA.len()];
    let mut runs: BTreeMap<(usize, Vec<u8>), RunTotals> = BTreeMap::new();
    let mut files = wh
        .list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
        .expect("landed day");
    files.sort();
    for path in files {
        let file = ColumnarFile::open(wh, &path).expect("columnar landing");
        for g in 0..file.group_count() {
            let chunks = file.stored_chunks(g).expect("clean group");
            for (c, (stored_as, bytes)) in chunks.into_iter().enumerate() {
                by_column[c] += bytes;
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
                    let stats = runs.entry((c, run.key)).or_default();
                    let shape = SHAPES.iter().position(|(_, shape)| *shape == run.shape);
                    stats.0[shape.expect("a shape of the five")] += 1;
                    stats.1 += run.bytes.len() as u64;
                    stats.2 += compress(&run.bytes).len() as u64;
                }
            }
        }
    }
    let shapes = |(column, key): (&str, &str)| {
        let run = runs.iter().find(|((c, k), _)| {
            CLIENT_EVENT_SCHEMA[*c] == column && k.as_slice() == key.as_bytes()
        });
        run.map(|(_, (by_shape, ..))| *by_shape)
    };
    for run in NEVER_RAW {
        gates.push((
            format!("a value run of {run:?} is missing or stayed raw"),
            shapes(run).is_some_and(|s| s[0] == 0),
        ));
    }
    for run in ALWAYS_DICT {
        gates.push((
            format!("a value run of {run:?} is missing or not a dictionary in every group"),
            shapes(run).is_some_and(|s| s[..4] == [0; 4] && s[4] > 0),
        ));
    }
    let timestamp = CLIENT_EVENT_SCHEMA.iter().position(|c| *c == "timestamp");
    let [varints, packed] = layouts[timestamp.expect("a schema column")];
    gates.push((
        format!("timestamp chunks (varints, packed) = ({varints}, {packed}): packing is not taken"),
        packed > varints,
    ));

    let layouts = (0..CLIENT_EVENT_KINDS.len())
        .filter(|c| CLIENT_EVENT_KINDS[*c] == ColumnKind::I64)
        .map(|c| {
            let counts = I64_LAYOUTS.iter().map(|(layout, _)| layout).zip(layouts[c]);
            (CLIENT_EVENT_SCHEMA[c], object_of(counts))
        });
    let runs = runs.iter().map(|((c, key), (by_shape, bytes, ulz_bytes))| {
        let shapes = object_of(SHAPES.iter().map(|(name, _)| name).zip(by_shape));
        format!(
            "{{\"column\": \"{}\", \"key\": \"{}\", {}, \"bytes\": {bytes}, \"ulz_bytes\": {ulz_bytes}}}",
            CLIENT_EVENT_SCHEMA[*c],
            String::from_utf8_lossy(key),
            &shapes[1..shapes.len() - 1],
        )
    });
    let by_column = CLIENT_EVENT_SCHEMA.iter().zip(by_column);
    body.put("stored_bytes_by_column", object_of(by_column))
        .put("fallback_chunks", fallbacks)
        .put("i64_layouts", object_of(layouts))
        .rows("value_runs", runs)
}

/// Runs the sweep over a 600-user day, or for a smoke run the 120-user
/// day whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    let users = if smoke { 120 } else { 600 };
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

    // One landing per layout, in [`ARMS`] order, shared by every cell over
    // it: the two row arms share the paper's raw log.
    let [row, col, dict] = ["row-eager", "columnar", "columnar+dict"].map(|a| land(a, &day.events));
    let landings = [row.clone(), row, col, dict];
    // One cell: one query at one worker over a landing read on a cold
    // cache, as if freshly landed; its decoded bytes and fields, and its
    // sample row.
    let cell = |label: &str, wh: &Warehouse, plan: &Plan| {
        wh.clear_cache();
        let engine = Engine::new(wh.clone()).with_parallelism(Parallelism::fixed(1));
        let result = engine.run(plan).expect("runs");
        let s = &result.stats;
        let decoded_fields = s.input_records * WIDTH - s.fields_skipped;
        let row = object(&[
            ("arm", &quoted(label)),
            (
                "cost_model_ms",
                &format!("{:.3}", result.estimated_cluster_ms),
            ),
            ("input_blocks", &s.input_blocks),
            ("blocks_skipped", &s.blocks_skipped),
            ("input_records", &s.input_records),
            (
                "records_skipped_by_predicate",
                &s.records_skipped_by_predicate,
            ),
            ("fields_skipped", &s.fields_skipped),
            ("input_bytes_uncompressed", &s.input_bytes_uncompressed),
            ("decoded_fields", &decoded_fields),
            ("output_rows", &result.rows.len()),
        ]);
        (
            s.input_bytes_uncompressed.max(1) as f64,
            decoded_fields.max(1) as f64,
            row,
        )
    };
    let mut cells: Vec<_> = ARMS
        .iter()
        .zip(&landings)
        .map(|(arm, wh)| cell(arm, wh, &selective_plan(arm, &event_name, t0, t1)))
        .collect();
    // The full-width twin passes every column through an identity
    // FOREACH, so the aggregate's one column no longer bounds the mask.
    let every_column: Vec<(&str, Expr)> = CLIENT_EVENT_SCHEMA
        .iter()
        .enumerate()
        .map(|(c, name)| (*name, Expr::col(c)))
        .collect();
    for (label, source) in [
        ("events-per-user", load()),
        ("events-per-user-full-width", load().foreach(every_column)),
    ] {
        let per_user = source.aggregate_by(vec![2], vec![Agg::count()]);
        cells.push(cell(label, &landings[3], &per_user));
    }
    // Decoded bytes, row-pushdown ÷ columnar+dict; decoded fields,
    // row-eager ÷ columnar+dict; and decoded bytes of events-per-user,
    // projected ÷ full width.
    let ratio = cells[1].0 / cells[3].0;
    let projection = cells[4].0 / cells[5].0;
    let mut gates = vec![
        (
            format!("columnar+dict decoded-bytes drop below 4x ({ratio:.2}x)"),
            ratio >= 4.0,
        ),
        (
            format!(
                "events-per-user decodes {projection:.4} of its full-width bytes \
                 (limit {PROJECTION_GATE})"
            ),
            projection <= PROJECTION_GATE,
        ),
    ];
    let body = Body::default()
        .put("users", users)
        .put("event_name", quoted(&event_name))
        .put("decoded_bytes_ratio", format!("{ratio:.4}"))
        .put(
            "decode_work_ratio",
            format!("{:.4}", cells[0].1 / cells[3].1),
        )
        .put("projection_bytes_ratio", format!("{projection:.4}"));
    let body = stored_bytes(&landings[3], body, &mut gates);
    let metrics = body.rows("samples", cells.into_iter().map(|c| c.2));
    let metrics = metrics.metrics("columnar", "uli-columnar-v1", "BENCH_columnar.json");
    Outcome::measured(gates, metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_columnar_run_is_clean() {
        crate::tests::assert_smoke_run(&measure(true));
    }
}
