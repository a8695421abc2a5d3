//! The four phases of the `log()` → answer path, each driven only through
//! public functions of the workspace crates.
//!
//! * deliver — the write path: `log` → `step` → `flush_hour` → `seal_hour`
//!   → `move_hour`, hour by hour, with the serve index and the stream fold
//!   riding the mover's delivery taps;
//! * cycle — the same delivery with each hour answered as soon as it lands;
//! * analyze — the nightly batch: materialize, a full scan, a selective
//!   count and the session-sequence suite, every query on a cold cache;
//! * serve — interactive lookups against the index, cache left warm.
//!
//! A round function times its regions with the wall clock, records its
//! metric samples, and only then — outside every timed region — checks the
//! program's outputs against the benchmark's own reference. Every region is
//! sized to last a second or more on the whole day (see `README.md`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use uli_analytics::counting::EventCharSet;
use uli_analytics::{load_sequences, ClientEventsFunnel};
use uli_core::client_event::{ClientEventLoader, CLIENT_EVENTS_CATEGORY, CLIENT_EVENT_SCHEMA};
use uli_core::session::{day_dir, dictionary_dir, sequences_dir, Materializer};
use uli_core::{ClientEventLanding, EventName, EventPattern, SessionRecord};
use uli_dataflow::{Agg, Engine, Expr, Plan, QueryResult, SortOrder, Tuple, Value};
use uli_scribe::message::LogEntry;
use uli_scribe::{DeliveryTap, MoveReport, PipelineConfig, ScribePipeline};
use uli_serve::{
    batch_count, batch_sessions, batch_top_names, batch_user_events, IndexMaintainer, LookupStats,
};
use uli_stream::{StreamAnalytics, StreamConfig};
use uli_warehouse::{HourlyPartition, Parallelism, ScanStats, Warehouse};
use uli_workload::signup_funnel;

use crate::input::{Day, Lookup, Rng, UserDraw, LOOKUP_ORDER_SEED};
use crate::metrics::Recorder;
use crate::stats::percentile;
use crate::trace::{SpanSet, Tracer};

pub const CATEGORY: &str = CLIENT_EVENTS_CATEGORY;

/// Passes of the session-sequence suite per analyze round: one timed region
/// of a good second on the whole day.
const SEQUENCE_PASSES: u64 = 70;
/// `user_events` lookups answering each hour of a cycle pass.
const CYCLE_USER_LOOKUPS: usize = 8;
/// One lookup in this many is compared with the batch engine's answer.
const SERVE_SAMPLE_EVERY: usize = 50;
/// A name no client ever logs: the selective count that matches nothing.
const ABSENT_NAME: &str = "never:logged:by:any:client:ever";
/// Frequency rank of the name the per-round selective count filters on.
const SELECTIVE_RANK: usize = 10;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts `n` failed operations unless `ok`.
    pub fn check(&mut self, ok: bool, n: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += n.max(1);
            if self.problems.len() < 20 {
                self.problems.push(why());
            }
        }
    }
}

/// Where a round's samples go and how its spans are recorded.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub rec: &'a mut Recorder,
    pub tally: &'a mut Tally,
    /// Warm-up rounds run the same code but record no timing and attempt no
    /// operations.
    pub measured: bool,
}

impl Ctx<'_> {
    pub fn push(&mut self, name: &'static str, value: f64) {
        if self.measured {
            self.rec.push(name, value);
        }
    }

    /// Per-layer samples exist only where spans were recorded.
    fn push_traced(&mut self, name: &'static str, value: f64) {
        if self.tracer.is_on() {
            self.push(name, value);
        }
    }

    fn attempt(&mut self, n: u64) {
        if self.measured {
            self.tally.attempted += n;
        }
    }
}

/// Runs `region` and returns what it returned and its wall time in seconds.
pub fn timed<T>(region: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = region();
    (out, start.elapsed().as_secs_f64())
}

/// A delivery tap that records the delegate call as a span, so the index
/// build and the stream fold show up as children of `scribe.move`.
struct TimedTap {
    inner: Box<dyn DeliveryTap>,
    layer: &'static str,
    name: &'static str,
    tracer: Tracer,
}

impl DeliveryTap for TimedTap {
    fn hour_delivered(&mut self, partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        let span = self.tracer.span(self.layer, self.name);
        self.inner.hour_delivered(partition, payloads);
        span.end(payloads.len() as u64, 0);
    }
}

/// A pipeline with whatever has been delivered through it.
pub struct Delivered {
    pub pipe: ScribePipeline,
    pub index: IndexMaintainer,
    pub stream: StreamAnalytics,
}

impl Delivered {
    /// The E22/E23 topology with the columnar landing and both taps.
    fn new(workers: usize, tracer: &Tracer) -> Delivered {
        let workers = Parallelism::fixed(workers);
        let mut pipe = ScribePipeline::new(PipelineConfig {
            datacenters: 2,
            hosts_per_dc: 4,
            aggregators_per_dc: 2,
            records_per_file: 10_000,
            workers,
            ..Default::default()
        });
        pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
        let index =
            IndexMaintainer::new(pipe.main_warehouse().clone(), CATEGORY).with_parallelism(workers);
        let stream = StreamAnalytics::new(StreamConfig::default()).with_parallelism(workers);
        pipe.add_delivery_tap(Box::new(TimedTap {
            inner: index.tap(),
            layer: "serve",
            name: "serve.index_build",
            tracer: tracer.clone(),
        }));
        pipe.add_delivery_tap(Box::new(TimedTap {
            inner: stream.tap(),
            layer: "stream",
            name: "stream.fold",
            tracer: tracer.clone(),
        }));
        Delivered {
            pipe,
            index,
            stream,
        }
    }

    pub fn warehouse(&self) -> &Warehouse {
        self.pipe.main_warehouse()
    }

    /// Every landed file's path and block-stream digest, in path order.
    fn landed_files(&self) -> Result<Landed, String> {
        let wh = self.warehouse();
        let mut files = wh
            .list_files_recursive(&day_dir(CATEGORY, 0))
            .map_err(|e| format!("listing the landed day: {e:?}"))?;
        files.sort();
        files
            .iter()
            .map(|f| match wh.file_digest(f) {
                Ok(digest) => Ok((f.as_str().to_string(), digest)),
                Err(e) => Err(format!("digest of {}: {e:?}", f.as_str())),
            })
            .collect()
    }
}

/// What a pass landed: `(path, digest)` of every file.
pub type Landed = Vec<(String, u64)>;

/// A generated day and what has been delivered from it.
pub struct Stage {
    pub day: Day,
    /// The pipeline the latest delivery or cycle pass left behind; the read
    /// phases run over it.
    pub delivered: Option<Delivered>,
    /// What the first pass landed. Later passes must land exactly this.
    first_landing: Option<Landed>,
}

impl Stage {
    pub fn new(day: Day) -> Stage {
        Stage {
            day,
            delivered: None,
            first_landing: None,
        }
    }
}

/// Sums of the per-hour move reports of one pass.
#[derive(Default)]
struct Moved {
    records: u64,
    duplicates: u64,
    input_files: u64,
    output_files: u64,
    decode_bytes: u64,
    encode_bytes: u64,
    failed_hours: u64,
}

impl Moved {
    fn add(&mut self, report: &Result<MoveReport, String>) {
        match report {
            Ok(r) => {
                self.records += r.records;
                self.duplicates += r.duplicates;
                self.input_files += r.input_files;
                self.output_files += r.output_files;
                self.decode_bytes += r.decode_bytes;
                self.encode_bytes += r.encode_bytes;
            }
            Err(_) => self.failed_hours += 1,
        }
    }
}

/// Copies of every hour's payloads: `LogEntry::new` takes ownership, and the
/// copies are made before the timed region starts.
fn payload_copies(day: &Day) -> Vec<Vec<Vec<u8>>> {
    day.hours
        .iter()
        .map(|h| h.iter().map(|l| l.payload.clone()).collect())
        .collect()
}

/// Pushes one hour through the whole write path. Returns the instant
/// `seal_hour` was called and the mover's report.
fn deliver_hour(
    d: &mut Delivered,
    hour: u64,
    day: &Day,
    payloads: Vec<Vec<u8>>,
    tracer: &Tracer,
) -> (Instant, Result<MoveReport, String>) {
    let logged = &day.hours[hour as usize];
    let span = tracer.span("scribe", "scribe.log");
    for (i, (l, payload)) in logged.iter().zip(payloads).enumerate() {
        d.pipe.log(
            (l.user as usize) % 2,
            i % 4,
            LogEntry::new(CATEGORY, payload),
        );
    }
    span.end(logged.len() as u64, 0);
    let span = tracer.span("scribe", "scribe.step");
    d.pipe.step();
    span.end(logged.len() as u64, 0);
    let span = tracer.span("scribe", "scribe.flush");
    d.pipe.flush_hour(hour);
    span.end(logged.len() as u64, 0);
    let sealed_at = Instant::now();
    let span = tracer.span("scribe", "scribe.seal");
    d.pipe.seal_hour(CATEGORY, hour);
    span.end(0, 0);
    let span = tracer.span("scribe", "scribe.move");
    let report = d
        .pipe
        .move_hour(CATEGORY, hour)
        .map_err(|e| format!("{e:?}"));
    span.end(logged.len() as u64, 0);
    (sealed_at, report)
}

/// Exactly-once accounting and landed bytes of one finished pass.
fn check_delivery(
    ctx: &mut Ctx<'_>,
    d: &Delivered,
    day: &Day,
    moved: &Moved,
    first_landing: &mut Option<Landed>,
) {
    let n = day.records;
    let r = d.pipe.report();
    ctx.tally.check(moved.failed_hours == 0, n, || {
        format!("{} hours failed to move", moved.failed_hours)
    });
    ctx.tally
        .check(r.logged == n && r.moved == n, n.abs_diff(r.moved), || {
            format!("logged {} moved {} of {n} records", r.logged, r.moved)
        });
    let lost = r.duplicates_merged + r.lost_in_crashes + r.dropped_disk_full;
    ctx.tally
        .check(lost == 0 && moved.duplicates == 0, lost, || {
            format!("{lost} records duplicated, lost or dropped")
        });
    match d.landed_files() {
        Ok(now) => {
            let first = first_landing.get_or_insert_with(|| now.clone());
            ctx.tally.check(*first == now && !now.is_empty(), n, || {
                "landed files differ from the first pass over the same day".into()
            });
        }
        Err(e) => ctx.tally.check(false, n, || e),
    }
}

/// Per-layer samples of the write path, from the spans of one pass.
fn record_delivery_layers(ctx: &mut Ctx<'_>, spans: &SpanSet, d: &Delivered, moved: &Moved) {
    let n = moved.records.max(1) as f64;
    let hours = spans.durations_of("scribe.seal").len().max(1) as f64;
    for (span, metric) in [
        ("scribe.log", "scribe.log_ns_per_record"),
        ("scribe.step", "scribe.step_ns_per_record"),
        ("scribe.flush", "scribe.flush_ns_per_record"),
        ("scribe.move", "scribe.move_self_ns_per_record"),
        ("serve.index_build", "serve.index_build_ns_per_record"),
        ("stream.fold", "stream.fold_ns_per_record"),
    ] {
        ctx.push_traced(metric, spans.self_ns_of(span) as f64 / n);
    }
    ctx.push_traced(
        "scribe.seal_ns_per_hour",
        spans.self_ns_of("scribe.seal") as f64 / hours,
    );
    let r = d.pipe.report();
    let meta = d.warehouse().dir_meta(&day_dir(CATEGORY, 0)).ok();
    for (metric, value) in [
        ("scribe.batches_sent", r.batches_sent as f64),
        ("scribe.network_messages", r.network_messages as f64),
        ("scribe.wire_bytes_per_record", r.wire_bytes_sent as f64 / n),
        (
            "scribe.staged_decode_bytes_per_record",
            moved.decode_bytes as f64 / n,
        ),
        (
            "scribe.land_encode_bytes_per_record",
            moved.encode_bytes as f64 / n,
        ),
        ("scribe.input_files", moved.input_files as f64),
        ("scribe.output_files", moved.output_files as f64),
        ("scribe.duplicates", moved.duplicates as f64),
        (
            "warehouse.stored_uncompressed_bytes_per_record",
            meta.map_or(0.0, |m| m.uncompressed_bytes as f64 / n),
        ),
        (
            "serve.build_decoded_bytes_per_record",
            d.index.build_decoded_bytes() as f64 / n,
        ),
    ] {
        ctx.push_traced(metric, value);
    }
}

/// The sizes of a landed day: exact for a seed, so they are recorded from
/// warm-up passes too.
fn record_sizes(ctx: &mut Ctx<'_>, d: &Delivered, day: &Day) {
    let n = day.records as f64;
    let stored = d.warehouse().dir_meta(&day_dir(CATEGORY, 0));
    ctx.tally
        .check(stored.is_ok(), 1, || "no landed day".into());
    ctx.rec.push(
        "stored_bytes_per_record",
        stored.map_or(0.0, |m| m.compressed_bytes as f64 / n),
    );
    ctx.rec.push(
        "index_bytes_per_record",
        d.index.postings_bytes() as f64 / n,
    );
}

/// One whole pass of the write path over the stage's day on a fresh
/// pipeline, which it leaves in the stage. Returns the pass's wall time in
/// seconds and its spans.
pub fn deliver_round(ctx: &mut Ctx<'_>, stage: &mut Stage, workers: usize) -> (f64, SpanSet) {
    let day = &stage.day;
    let copies = payload_copies(day);
    // The previous pipeline is dropped before the pass is timed, not during.
    stage.delivered = None;
    let mut d = Delivered::new(workers, ctx.tracer);
    let mut moved = Moved::default();
    let tracer = ctx.tracer;
    let mark = tracer.mark();
    let root = tracer.span("bench", "deliver.round");
    let ((), secs) = timed(|| {
        for (hour, payloads) in copies.into_iter().enumerate() {
            let (_, report) = deliver_hour(&mut d, hour as u64, day, payloads, tracer);
            moved.add(&report);
        }
    });
    root.end(day.records, day.payload_bytes);
    let spans = tracer.since(mark);

    ctx.attempt(day.records);
    check_delivery(ctx, &d, day, &moved, &mut stage.first_landing);
    ctx.push("deliver_rps", day.records as f64 / secs);
    record_sizes(ctx, &d, day);
    record_delivery_layers(ctx, &spans, &d, &moved);
    stage.delivered = Some(d);
    (secs, spans)
}

/// What answering one hour returned, kept for the checks after the pass.
struct HourAnswers {
    hour: u64,
    users: Vec<(i64, usize)>,
    top: Vec<Tuple>,
    top_count: Vec<Tuple>,
    view_records: Option<u64>,
    by_name: Option<Vec<Tuple>>,
}

fn int(v: Option<&Value>) -> Option<i64> {
    match v {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn load_plan(dir: uli_warehouse::WhPath) -> Plan {
    Plan::load(
        dir,
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
}

/// Answers a freshly landed hour from every read side at once: the serve
/// index, the stream view and one batch job over the hour's partition.
fn answer_hour(d: &Delivered, hour: u64, users: &[i64], tracer: &Tracer) -> HourAnswers {
    let handle = d.index.handle();
    let mut answered = Vec::with_capacity(users.len());
    for &user in users {
        let span = tracer.span("serve", "serve.user_events");
        let rows = handle.user_events(user, hour).map(|a| a.rows.len());
        span.end(1, 0);
        answered.push((user, rows.unwrap_or(usize::MAX)));
    }
    let span = tracer.span("serve", "serve.top_names");
    let top = handle.top_names(hour, 5).rows;
    span.end(1, 0);
    let top_name = text(top.first().and_then(|r| r.first())).unwrap_or(ABSENT_NAME);
    let span = tracer.span("serve", "serve.count");
    let top_count = handle.count(top_name, [hour]).rows;
    span.end(1, 0);
    let span = tracer.span("stream", "stream.hour_view");
    let view_records = d.stream.hour_view(hour).map(|v| v.records());
    span.end(1, 0);
    let span = tracer.span("dataflow", "dataflow.hourly_count");
    let plan = load_plan(HourlyPartition::from_hour_index(CATEGORY, hour).main_dir())
        .aggregate_by(vec![1], vec![Agg::count()]);
    let by_name = Engine::new(d.warehouse().clone())
        .with_parallelism(Parallelism::fixed(1))
        .run(&plan)
        .ok()
        .map(|r| r.rows);
    span.end(1, 0);
    HourAnswers {
        hour,
        users: answered,
        top,
        top_count,
        view_records,
        by_name,
    }
}

fn check_hour_answers(ctx: &mut Ctx<'_>, day: &Day, a: &HourAnswers) {
    let hour = a.hour;
    let input = day.hours[hour as usize].len() as u64;
    for &(user, rows) in &a.users {
        let want = day.user_events_in_hour(user, hour) as usize;
        ctx.tally.check(rows == want, 1, || {
            format!("user_events({user}, {hour}) gave {rows} rows, input has {want}")
        });
    }
    let top_name = text(a.top.first().and_then(|r| r.first())).unwrap_or(ABSENT_NAME);
    let want = day.count_in_hour(top_name, hour) as i64;
    let listed = int(a.top.first().and_then(|r| r.get(1)));
    let counted = int(a.top_count.first().and_then(|r| r.first()));
    ctx.tally.check(listed == Some(want), 1, || {
        format!("top_names({hour}) lists {top_name} at {listed:?}, input has {want}")
    });
    ctx.tally.check(counted == Some(want), 1, || {
        format!("count({top_name}, [{hour}]) gave {counted:?}, input has {want}")
    });
    ctx.tally.check(a.view_records == Some(input), 1, || {
        format!(
            "hour_view({hour}) holds {:?} records, input has {input}",
            a.view_records
        )
    });
    let scanned: Option<i64> = a
        .by_name
        .as_ref()
        .map(|rows| rows.iter().filter_map(|r| int(r.get(1))).sum());
    ctx.tally.check(scanned == Some(input as i64), 1, || {
        format!("count-by-name over hour {hour} saw {scanned:?} records, input has {input}")
    });
}

/// Operations one answered hour counts as.
const ANSWERS_PER_HOUR: u64 = CYCLE_USER_LOOKUPS as u64 + 4;

/// One whole pass with every traffic hour answered right after it lands.
pub fn cycle_round(ctx: &mut Ctx<'_>, stage: &mut Stage) {
    let day = &stage.day;
    let copies = payload_copies(day);
    let mut rng = Rng::new(LOOKUP_ORDER_SEED);
    let draw = UserDraw::new(day);
    let lookups: Vec<Vec<i64>> = (0..day.hours.len())
        .map(|_| {
            (0..CYCLE_USER_LOOKUPS)
                .map(|_| draw.draw(&mut rng))
                .collect()
        })
        .collect();
    stage.delivered = None;
    let mut d = Delivered::new(1, ctx.tracer);
    let mut moved = Moved::default();
    let mut answers = Vec::new();
    let mut hour_to_answer_s = Vec::new();
    let tracer = ctx.tracer;
    let mark = tracer.mark();
    let root = tracer.span("bench", "cycle.round");
    let ((), secs) = timed(|| {
        for (hour, payloads) in copies.into_iter().enumerate() {
            let span = tracer.span("bench", "cycle.deliver_hour");
            let (sealed_at, report) = deliver_hour(&mut d, hour as u64, day, payloads, tracer);
            span.end(day.hours[hour].len() as u64, 0);
            moved.add(&report);
            if day.hours[hour].is_empty() {
                continue;
            }
            let span = tracer.span("bench", "cycle.answer_hour");
            answers.push(answer_hour(&d, hour as u64, &lookups[hour], tracer));
            span.end(ANSWERS_PER_HOUR, 0);
            hour_to_answer_s.push(sealed_at.elapsed().as_secs_f64());
        }
    });
    root.end(day.records, day.payload_bytes);
    let spans = tracer.since(mark);

    ctx.attempt(day.records + ANSWERS_PER_HOUR * answers.len() as u64);
    check_delivery(ctx, &d, day, &moved, &mut stage.first_landing);
    for a in &answers {
        check_hour_answers(ctx, day, a);
    }
    ctx.push("cycle_rps", day.records as f64 / secs);
    ctx.push("hour_to_answer_p50_s", percentile(&hour_to_answer_s, 50.0));
    record_sizes(ctx, &d, day);
    record_delivery_layers(ctx, &spans, &d, &moved);
    if tracer.is_on() {
        let p50_s = |name: &str| percentile(&spans.durations_of(name), 50.0) / 1e9;
        ctx.push("cycle.deliver_s_per_hour_p50", p50_s("cycle.deliver_hour"));
        ctx.push("cycle.answer_s_per_hour_p50", p50_s("cycle.answer_hour"));
        ctx.push(
            "stream.hour_view_ns",
            spans.total_ns_of("stream.hour_view") as f64 / answers.len().max(1) as f64,
        );
        ctx.push(
            "dataflow.hourly_count_ns_per_record",
            spans.total_ns_of("dataflow.hourly_count") as f64 / day.records as f64,
        );
    }
    stage.delivered = Some(d);
}

/// One query of the analyze phase: the span that covers its engine call and
/// the per-layer metric that span feeds.
struct Query {
    span: &'static str,
    metric: &'static str,
    plan: Plan,
}

/// The full scan every analyze round times: E20's `events-per-user`. Its
/// rows against the input's own histogram are also the strongest check that
/// the whole day landed and scans.
fn events_per_user() -> Query {
    Query {
        span: "dataflow.q_events_per_user",
        metric: "dataflow.q_events_per_user_ns_per_record",
        plan: load_plan(day_dir(CATEGORY, 0)).aggregate_by(vec![2], vec![Agg::count()]),
    }
}

/// E20's other two full scans. With them a round would not fit the run; a
/// traced run times each once ([`analyze_once`]).
fn top20_latest() -> Query {
    Query {
        span: "dataflow.q_top20",
        metric: "dataflow.q_top20_ns_per_record",
        plan: load_plan(day_dir(CATEGORY, 0))
            .order_by(vec![(5, SortOrder::Desc), (2, SortOrder::Asc)])
            .limit(20),
    }
}

fn sketch_by_name() -> Query {
    Query {
        span: "dataflow.q_sketch_by_name",
        metric: "dataflow.q_sketch_by_name_ns_per_record",
        plan: load_plan(day_dir(CATEGORY, 0)).aggregate_by(
            vec![1],
            vec![
                Agg::approx_count_distinct(2),
                Agg::approx_percentile(5, 0.95),
            ],
        ),
    }
}

/// `count(*) where name = <name>` over the day.
fn selective(span: &'static str, metric: &'static str, name: &str) -> Query {
    Query {
        span,
        metric,
        plan: load_plan(day_dir(CATEGORY, 0))
            .filter(Expr::col(1).eq(Expr::lit(name)))
            .aggregate(vec![Agg::count()]),
    }
}

fn selective_hit(day: &Day) -> (Query, &str) {
    let name = day.name_at_rank(SELECTIVE_RANK).unwrap_or(ABSENT_NAME);
    let q = selective(
        "dataflow.q_selective_hit",
        "dataflow.q_selective_hit_ns_per_record",
        name,
    );
    (q, name)
}

/// Runs one query serially, on a cold cache unless `warm`; the span and the
/// returned seconds cover the engine call alone.
fn run_query(
    wh: &Warehouse,
    query: &Query,
    warm: bool,
    tracer: &Tracer,
) -> (Option<QueryResult>, f64) {
    let engine = Engine::new(wh.clone()).with_parallelism(Parallelism::fixed(1));
    if !warm {
        wh.clear_cache();
    }
    timed(|| {
        let span = tracer.span("dataflow", query.span);
        let result = engine.run(&query.plan).ok();
        span.end(
            result.as_ref().map_or(0, |r| r.stats.input_records),
            result
                .as_ref()
                .map_or(0, |r| r.stats.input_bytes_uncompressed),
        );
        result
    })
}

/// The single count a selective query returns.
fn counted(result: &Option<QueryResult>) -> Option<i64> {
    result
        .as_ref()
        .and_then(|r| int(r.rows.first().and_then(|row| row.first())))
}

fn check_count(ctx: &mut Ctx<'_>, day: &Day, name: &str, result: &Option<QueryResult>) {
    let got = counted(result);
    let want = day.count_of(name) as i64;
    ctx.tally.check(got == Some(want), 1, || {
        format!("count of {name} gave {got:?}, input has {want}")
    });
}

/// One night's batch work over the stage's delivered day: materialize, one
/// full scan, one selective count and the session-sequence suite, each a
/// timed region of its own, every query on a cold cache.
pub fn analyze_round(ctx: &mut Ctx<'_>, stage: &Stage) {
    let day = &stage.day;
    let d = stage
        .delivered
        .as_ref()
        .expect("the day is delivered before it is analyzed");
    let wh = d.warehouse().clone();
    let tracer = ctx.tracer;
    let materializer = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(1));
    let n = day.records as f64;
    let mark = tracer.mark();
    let root = tracer.span("bench", "analyze.round");

    // Materialize: both passes of the nightly job, from scratch.
    let _ = wh.delete_dir(&sequences_dir(0));
    let _ = wh.delete_dir(&dictionary_dir(0));
    wh.clear_cache();
    let (report, materialize_s) = timed(|| {
        if tracer.is_on() {
            // `run_day` is exactly these two calls; traced, each gets a span.
            let span = tracer.span("core", "core.build_dictionary");
            let dict = materializer.build_dictionary(0);
            span.end(day.records, 0);
            let span = tracer.span("core", "core.materialize_sequences");
            let report = dict.and_then(|dict| materializer.materialize_sequences(0, &dict));
            span.end(day.records, 0);
            report
        } else {
            materializer.run_day(0)
        }
    });

    let before = wh.stats();
    let scan = events_per_user();
    let (scan_result, scan_s) = run_query(&wh, &scan, false, tracer);
    let (hit, hit_name) = selective_hit(day);
    let (hit_result, hit_s) = run_query(&wh, &hit, false, tracer);
    let scanned: ScanStats = wh.stats().since(&before);
    let shuffle_records: u64 = [&scan_result, &hit_result]
        .into_iter()
        .flatten()
        .map(|r| r.stats.shuffle_records)
        .sum();

    // Session-sequence suite: what an analyst's funnel and count scripts do.
    let pattern = EventPattern::parse("*:profile_click").expect("static pattern");
    let pass = || {
        let span = tracer.span("analytics", "analytics.load_sequences");
        let dict = materializer.load_dictionary(0).ok()?;
        let sequences = load_sequences(&wh, 0).ok()?;
        span.end(sequences.len() as u64, 0);
        let span = tracer.span("analytics", "analytics.funnel");
        let funnel = ClientEventsFunnel::new(signup_funnel().stages, &dict);
        let reached = funnel
            .evaluate(sequences.iter().map(|s| s.sequence.as_str()))
            .reached;
        span.end(sequences.len() as u64, 0);
        let span = tracer.span("analytics", "analytics.count");
        let set = EventCharSet::expand(&pattern, &dict);
        let clicks: u64 = sequences.iter().map(|s| set.count_in(&s.sequence)).sum();
        span.end(sequences.len() as u64, 0);
        Some((sequences.len() as u64, reached, clicks))
    };
    let (loaded, sequence_s) = timed(|| {
        let mut last = None;
        for _ in 0..SEQUENCE_PASSES {
            last = pass().or(last);
        }
        last
    });
    let (sessions_loaded, reached, profile_clicks) = loaded.unwrap_or_default();
    root.end(day.records, day.payload_bytes);
    let spans = tracer.since(mark);

    // Samples.
    let sessions = report.as_ref().map_or(0, |r| r.sessions).max(1) as f64;
    ctx.attempt(1 + 2 + SEQUENCE_PASSES);
    ctx.push("materialize_ns_per_record", materialize_s * 1e9 / n);
    ctx.push("query_suite_ns_per_record", scan_s * 1e9 / n);
    ctx.push("selective_ns_per_record", hit_s * 1e9 / n);
    ctx.push(
        "sequence_suite_ns_per_session",
        sequence_s * 1e9 / (SEQUENCE_PASSES as f64 * sessions),
    );
    if tracer.is_on() {
        for (span, metric) in [
            (
                "core.build_dictionary",
                "core.build_dictionary_ns_per_record",
            ),
            (
                "core.materialize_sequences",
                "core.materialize_sequences_ns_per_record",
            ),
            (scan.span, scan.metric),
            (hit.span, hit.metric),
        ] {
            ctx.push(metric, spans.total_ns_of(span) as f64 / n);
        }
        ctx.push(
            "dataflow.scan_mb_per_s",
            day.payload_bytes as f64 / 1e6 / scan_s,
        );
        for (metric, value) in [
            ("warehouse.blocks_read", scanned.blocks_read),
            ("warehouse.blocks_skipped", scanned.blocks_skipped),
            (
                "warehouse.compressed_bytes_read",
                scanned.compressed_bytes_read,
            ),
            (
                "warehouse.uncompressed_bytes_read",
                scanned.uncompressed_bytes_read,
            ),
            ("warehouse.cache_hits", scanned.cache_hits),
            ("warehouse.cache_misses", scanned.cache_misses),
            (
                "warehouse.records_skipped_by_predicate",
                scanned.records_skipped_by_predicate,
            ),
            ("dataflow.shuffle_records", shuffle_records),
        ] {
            ctx.push(metric, value as f64);
        }
        let per_session = SEQUENCE_PASSES as f64 * sessions;
        for (span, metric) in [
            (
                "analytics.load_sequences",
                "analytics.load_sequences_ns_per_session",
            ),
            ("analytics.funnel", "analytics.funnel_ns_per_session"),
            ("analytics.count", "analytics.count_ns_per_session"),
        ] {
            ctx.push(metric, spans.total_ns_of(span) as f64 / per_session);
        }
    }

    // Checks against the benchmark's own reference.
    let truth = &day.truth;
    match &report {
        Ok(r) => {
            ctx.tally.check(r.events == day.records, 1, || {
                format!(
                    "materialized {} events, input has {}",
                    r.events, day.records
                )
            });
            ctx.tally.check(r.sessions == truth.sessions, 1, || {
                format!(
                    "materialized {} sessions, generator made {}",
                    r.sessions, truth.sessions
                )
            });
            ctx.tally.check(sessions_loaded == r.sessions, 1, || {
                format!(
                    "loaded {sessions_loaded} sequences of {} sessions",
                    r.sessions
                )
            });
        }
        Err(e) => ctx.tally.check(false, 1, || format!("materialize: {e:?}")),
    }
    let per_user: Option<BTreeMap<i64, u64>> = scan_result.as_ref().map(|r| {
        r.rows
            .iter()
            .filter_map(|row| Some((int(row.first())?, int(row.get(1))? as u64)))
            .collect()
    });
    ctx.tally
        .check(per_user.as_ref() == Some(&day.per_user), 1, || {
            "events-per-user rows differ from the input histogram".into()
        });
    check_count(ctx, day, hit_name, &hit_result);
    ctx.tally.check(
        reached == truth.funnel_stage_counts,
        SEQUENCE_PASSES,
        || {
            format!(
                "funnel reached {reached:?}, generator planted {:?}",
                truth.funnel_stage_counts
            )
        },
    );
    let want_clicks: u64 = day
        .per_name
        .iter()
        .filter(|(&id, _)| EventName::parse(day.name(id)).is_ok_and(|n| pattern.matches(&n)))
        .map(|(_, &count)| count)
        .sum();
    ctx.tally
        .check(profile_clicks == want_clicks, SEQUENCE_PASSES, || {
            format!("counted {profile_clicks} profile clicks, input has {want_clicks}")
        });
}

/// The analyze queries a traced run times once, after the rounds, because
/// they explain and do not fit into every round: `top-20-latest`,
/// `sketch-by-name`, the selective count of an absent name, and the rounds'
/// selective hit again over a warm cache.
pub fn analyze_once(ctx: &mut Ctx<'_>, stage: &Stage) {
    let day = &stage.day;
    let d = stage
        .delivered
        .as_ref()
        .expect("the day is delivered before it is analyzed");
    let wh = d.warehouse();
    let tracer = ctx.tracer;
    let n = day.records as f64;
    let per_record = |secs: f64| secs * 1e9 / n;

    let query = top20_latest();
    let (result, secs) = run_query(wh, &query, false, tracer);
    ctx.push(query.metric, per_record(secs));
    let latest = result.as_ref().map(|r| r.rows.len() as u64);
    ctx.tally.check(latest == Some(day.records.min(20)), 1, || {
        format!("top-20-latest gave {latest:?} rows")
    });

    let query = sketch_by_name();
    let (result, secs) = run_query(wh, &query, false, tracer);
    ctx.push(query.metric, per_record(secs));
    let name_rows = result.as_ref().map(|r| r.rows.len());
    ctx.tally
        .check(name_rows == Some(day.per_name.len()), 1, || {
            format!(
                "sketch-by-name gave {name_rows:?} rows, input has {} names",
                day.per_name.len()
            )
        });

    let query = selective(
        "dataflow.q_selective_miss",
        "dataflow.q_selective_miss_ns_per_record",
        ABSENT_NAME,
    );
    let (result, secs) = run_query(wh, &query, false, tracer);
    ctx.push(query.metric, per_record(secs));
    check_count(ctx, day, ABSENT_NAME, &result);

    // The rounds' selective hit again, now over the cache the miss just
    // filled with the same column.
    let (hit, hit_name) = selective_hit(day);
    let warm = Query {
        span: "dataflow.q_selective_warm",
        metric: "dataflow.q_selective_warm_ns_per_record",
        plan: hit.plan,
    };
    let (result, secs) = run_query(wh, &warm, true, tracer);
    ctx.push(warm.metric, per_record(secs));
    check_count(ctx, day, hit_name, &result);
    ctx.attempt(4);
}

/// Latencies and work counters of one lookup class within a round.
#[derive(Default)]
struct ClassSamples {
    latencies_ns: Vec<f64>,
    stats: LookupStats,
}

impl ClassSamples {
    fn add(&mut self, latency_ns: f64, stats: LookupStats) {
        self.latencies_ns.push(latency_ns);
        self.stats.decoded_bytes += stats.decoded_bytes;
        self.stats.groups_read += stats.groups_read;
        self.stats.groups_pruned += stats.groups_pruned;
        self.stats.files_visited += stats.files_visited;
    }

    fn percentile(&self, p: f64, per_unit_ns: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        percentile(&self.latencies_ns, p) / per_unit_ns
    }
}

/// A serve answer kept for the checks after the round.
enum Kept {
    Rows(Vec<Tuple>),
    Sessions(Vec<SessionRecord>),
    Failed,
}

/// One round of interactive lookups in plan order, cache never cleared: the
/// whole round is one timed region, and each lookup's latency is read inside
/// it. With `verify`, every answer's size is checked against the input and a
/// one-in-fifty sample is compared with the batch engine's answer.
pub fn serve_round(ctx: &mut Ctx<'_>, stage: &Stage, plan: &[Lookup], verify: bool) {
    let day = &stage.day;
    let d = stage
        .delivered
        .as_ref()
        .expect("the day is delivered before it is served");
    let handle = d.index.handle();
    let wh = d.warehouse();
    let tracer = ctx.tracer;
    let mut classes: [ClassSamples; 4] = Default::default();
    let mut kept: Vec<(usize, Kept)> = Vec::new();
    let before = wh.stats();
    let root = tracer.span("bench", "serve.round");
    let ((), round_s) = timed(|| {
        for (i, lookup) in plan.iter().enumerate() {
            let (class, span_name) = match lookup {
                Lookup::UserEvents { .. } => (0, "serve.user_events"),
                Lookup::Sessions { .. } => (1, "serve.sessions"),
                Lookup::Count { .. } => (2, "serve.count"),
                Lookup::TopNames { .. } => (3, "serve.top_names"),
            };
            let span = tracer.span("serve", span_name);
            let called = Instant::now();
            let (answer, stats) = match lookup {
                Lookup::UserEvents { user, hour } => match handle.user_events(*user, *hour) {
                    Ok(a) => (Kept::Rows(a.rows), a.stats),
                    Err(_) => (Kept::Failed, LookupStats::default()),
                },
                Lookup::Sessions { user } => match handle.sessions(*user, 0) {
                    Ok((sessions, stats)) => (Kept::Sessions(sessions), stats),
                    Err(_) => (Kept::Failed, LookupStats::default()),
                },
                Lookup::Count { name } => {
                    let a = handle.count(name, 0..24);
                    (Kept::Rows(a.rows), a.stats)
                }
                Lookup::TopNames { hour } => {
                    let a = handle.top_names(*hour, 5);
                    (Kept::Rows(a.rows), a.stats)
                }
            };
            let latency_ns = called.elapsed().as_nanos() as f64;
            span.end(1, stats.decoded_bytes);
            classes[class].add(latency_ns, stats);
            if verify || matches!(answer, Kept::Failed) {
                kept.push((i, answer));
            }
        }
    });
    root.end(plan.len() as u64, 0);
    let scanned = wh.stats().since(&before);

    ctx.attempt(plan.len() as u64);
    ctx.push("lookup_rps", plan.len() as f64 / round_s);
    ctx.push("user_events_p50_us", classes[0].percentile(50.0, 1e3));
    ctx.push("sessions_p50_ms", classes[1].percentile(50.0, 1e6));
    ctx.push_traced("serve.user_events_p99_us", classes[0].percentile(99.0, 1e3));
    ctx.push_traced("serve.sessions_p99_ms", classes[1].percentile(99.0, 1e6));
    ctx.push_traced("serve.count_p50_us", classes[2].percentile(50.0, 1e3));
    ctx.push_traced("serve.top_names_p50_us", classes[3].percentile(50.0, 1e3));
    for (class, metrics) in [
        (
            0,
            [
                "serve.user_events_decoded_bytes_per_lookup",
                "serve.user_events_groups_read_per_lookup",
                "serve.user_events_groups_pruned_per_lookup",
                "serve.user_events_files_visited_per_lookup",
            ],
        ),
        (
            1,
            [
                "serve.sessions_decoded_bytes_per_lookup",
                "serve.sessions_groups_read_per_lookup",
                "serve.sessions_groups_pruned_per_lookup",
                "serve.sessions_files_visited_per_lookup",
            ],
        ),
    ] {
        let c = &classes[class];
        let lookups = c.latencies_ns.len().max(1) as f64;
        let s = c.stats;
        for (metric, total) in metrics.into_iter().zip([
            s.decoded_bytes,
            s.groups_read,
            s.groups_pruned,
            s.files_visited,
        ]) {
            ctx.push_traced(metric, total as f64 / lookups);
        }
    }
    ctx.push_traced("warehouse.lookup_cache_hit_rate", scanned.cache_hit_rate());

    for (i, answer) in &kept {
        check_lookup(ctx, day, wh, &plan[*i], answer, i % SERVE_SAMPLE_EVERY == 0);
    }
}

/// Checks one kept answer against the input histograms and, when `batch`,
/// against the batch engine answering the same question.
fn check_lookup(
    ctx: &mut Ctx<'_>,
    day: &Day,
    wh: &Warehouse,
    lookup: &Lookup,
    answer: &Kept,
    batch: bool,
) {
    let rows = match answer {
        Kept::Rows(rows) => Some(rows),
        _ => None,
    };
    match lookup {
        Lookup::UserEvents { user, hour } => {
            let want = day.user_events_in_hour(*user, *hour) as usize;
            ctx.tally
                .check(rows.is_some_and(|r| r.len() == want), 1, || {
                    format!("user_events({user}, {hour}): input has {want} rows")
                });
            if batch {
                let reference = batch_user_events(wh, CATEGORY, *hour, *user, 1).ok();
                ctx.tally.check(reference.as_ref() == rows, 1, || {
                    format!("user_events({user}, {hour}) differs from batch")
                });
            }
        }
        Lookup::Sessions { user } => {
            let sessions = match answer {
                Kept::Sessions(s) => Some(s),
                _ => None,
            };
            let events: Option<u64> =
                sessions.map(|s| s.iter().map(|r| r.events.len() as u64).sum());
            let want = day.per_user.get(user).copied().unwrap_or(0);
            ctx.tally.check(events == Some(want), 1, || {
                format!("sessions({user}) hold {events:?} events, input has {want}")
            });
            if batch {
                let reference = batch_sessions(wh, CATEGORY, 0, *user, 1).ok();
                ctx.tally.check(reference.as_ref() == sessions, 1, || {
                    format!("sessions({user}) differs from batch")
                });
            }
        }
        Lookup::Count { name } => {
            let got = rows.and_then(|r| int(r.first().and_then(|row| row.first())));
            let want = day.count_of(name) as i64;
            ctx.tally.check(got == Some(want), 1, || {
                format!("count({name}) gave {got:?}, input has {want}")
            });
            if batch {
                let reference = batch_count(wh, CATEGORY, 0..24, name, 1).ok();
                ctx.tally.check(reference.as_ref() == rows, 1, || {
                    format!("count({name}) differs from batch")
                });
            }
        }
        Lookup::TopNames { hour } => {
            let first = rows.and_then(|r| r.first());
            let name = text(first.and_then(|r| r.first())).unwrap_or(ABSENT_NAME);
            let want = day.count_in_hour(name, *hour) as i64;
            let got = int(first.and_then(|r| r.get(1)));
            ctx.tally.check(got == Some(want), 1, || {
                format!("top_names({hour}) lists {name} at {got:?}, input has {want}")
            });
            if batch {
                let reference = batch_top_names(wh, CATEGORY, *hour, 5, 1).ok();
                ctx.tally.check(reference.as_ref() == rows, 1, || {
                    format!("top_names({hour}) differs from batch")
                });
            }
        }
    }
}
