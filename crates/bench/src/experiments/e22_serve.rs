//! E22 — the serving layer: point lookups off the incremental index vs
//! the batch engine.
//!
//! The paper's stack answers every question with a MapReduce-style scan;
//! §6 names the missing piece — a low-latency serving tier over the same
//! warehouse, kept fresh as hours land (Twitter's Elephant Twin lineage).
//! `uli-serve` supplies it; this experiment measures the reproduction:
//!
//! 1. **correctness** — one generated day is delivered through the Scribe
//!    pipeline with the columnar landing and an [`IndexMaintainer`] tap;
//!    a deterministic point-lookup suite (users present and absent, names
//!    hitting and missing the dictionary, busy/quiet/missing hours) must
//!    answer byte-identical to the batch dataflow engine at every worker
//!    count in [`WORKER_COUNTS`].
//! 2. **decoded-bytes reduction** — the serving answers must decode at
//!    most 1/50th of the bytes the batch answers decode over the same
//!    suite (the ≥50× gate), with the cost-model translation of both
//!    sides reported in milliseconds.
//! 3. **freshness + obs** — after the day lands the index lag is zero and
//!    every `serve/*` registry counter reconciles against the maintainer
//!    state, so the run is auditable from the registry alone.
//! 4. **chaos consistency** — seeded crash/duplicate/outage schedules
//!    (`run_chaos_prepared`) with crash-window injection between
//!    hour-land and index-commit: after [`IndexMaintainer::recover`] the
//!    indexed record totals must equal the audited delivered partition
//!    for every seed — never a lost hour, never a double-count.
//!
//! The smoke run's counters are machine-independent (generation,
//! delivery, landing, indexing, and the cost model are deterministic), so
//! CI diffs them against a checked-in golden; the full run persists
//! `BENCH_serve.json` with host cores and wall-clock lookup latency.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::{ClientEvent, ClientEventLanding, SessionRecord};
use uli_dataflow::CostModel;
use uli_obs::Registry;
use uli_scribe::message::LogEntry;
use uli_scribe::{run_chaos_prepared, ChaosConfig, PipelineConfig, ScribePipeline};
use uli_serve::{
    batch_count, batch_sessions, batch_top_names, batch_user_events, IndexMaintainer, LookupStats,
    ServeAnswer, ServeHandle,
};
use uli_thrift::ThriftRecord;
use uli_warehouse::Warehouse;
use uli_workload::{DayStream, Scale, WorkloadConfig};

use crate::cells;
use crate::harness::{detected_cores, timed, Table};

/// Worker counts the serve/batch equivalence is checked under.
pub const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Rows per sealed row group in the columnar landing. Small groups keep
/// postings fine-grained, which is what makes point-lookup pruning sharp.
pub const ROWS_PER_GROUP: usize = 8;

/// One class of point lookups (sessions / user-events / count /
/// top-names) with its decoded-byte bill on both sides.
pub struct LookupClass {
    /// Class label.
    pub label: &'static str,
    /// Lookups of this class in the suite.
    pub lookups: u64,
    /// Uncompressed bytes the serving layer decoded.
    pub serve_decoded_bytes: u64,
    /// Row groups the serving layer actually read.
    pub serve_groups_read: u64,
    /// Row groups the index proved irrelevant and skipped.
    pub serve_groups_pruned: u64,
    /// Uncompressed bytes the batch engine decoded for the same answers.
    pub batch_decoded_bytes: u64,
}

/// The full serving-layer measurement.
pub struct Measurements {
    /// Scale label of the generated day.
    pub scale: &'static str,
    /// Users in the day.
    pub users: u64,
    /// Records delivered through the pipeline.
    pub records: u64,
    /// Records that decoded as client events (== records here).
    pub events: u64,
    /// Hours with a committed index after the day landed.
    pub hours_indexed: u64,
    /// Index lag behind the newest delivered hour (must be 0).
    pub index_lag_hours: u64,
    /// Rows per row group in the columnar landing.
    pub rows_per_group: u64,
    /// Serialized bytes of all committed hour indexes.
    pub postings_bytes: u64,
    /// Decoded bytes spent building the indexes (maintenance overhead).
    pub index_build_decoded_bytes: u64,
    /// Every suite answer byte-identical to batch at every worker count.
    pub answers_match: bool,
    /// Per-class accounting.
    pub classes: Vec<LookupClass>,
    /// Point lookups in the suite.
    pub lookups: u64,
    /// Total bytes the serving layer decoded for the suite.
    pub serve_decoded_bytes: u64,
    /// Total bytes the batch engine decoded for the same suite.
    pub batch_decoded_bytes: u64,
    /// `batch_decoded_bytes / serve_decoded_bytes` — the ≥50× gate.
    pub decoded_bytes_ratio: f64,
    /// Suite cost in cost-model ms for the serving layer (pure scan of
    /// the decoded bytes at the model's per-slot rate).
    pub serve_cost_ms: f64,
    /// Suite cost in cost-model ms for batch (per-lookup job submit +
    /// task startup, plus the scan of its decoded bytes).
    pub batch_cost_ms: f64,
    /// Every `serve/*` registry metric equals the maintainer state.
    pub obs_reconciled: bool,
    /// Chaos seeds swept.
    pub chaos_seeds: u64,
    /// Records delivered across the sweep (deterministic per seed).
    pub chaos_delivered: u64,
    /// Records the rebuilt indexes account for across the sweep.
    pub chaos_indexed_records: u64,
    /// Crash-window hours `recover()` rebuilt across the sweep.
    pub chaos_rebuilt_hours: u64,
    /// Clean invariants and indexed == delivered for every seed.
    pub chaos_consistent: bool,
    /// Mean wall-clock per serve lookup, microseconds (full runs only).
    pub serve_lookup_wall_us: Option<f64>,
    /// Hardware threads on the measuring host; `None` for smoke runs so
    /// the CI golden stays machine-independent.
    pub cores: Option<usize>,
}

/// The delivered day the suite runs against.
struct Delivered {
    maintainer: IndexMaintainer,
    registry: Registry,
    warehouse: Warehouse,
    records: u64,
    events: Vec<ClientEvent>,
}

/// Deterministic suite parameters, derived from the generated day so the
/// same queries hit every scale.
struct Suite {
    /// The day's most active user (most events, smallest id on ties).
    heavy_user: i64,
    /// The user with median activity — the representative point lookup.
    /// (The heaviest user appears in nearly every tiny row group, so a
    /// day-wide lookup on them legitimately decodes most of the day.)
    median_user: i64,
    /// The day's least active user.
    light_user: i64,
    /// A user id the day never saw.
    absent_user: i64,
    /// The day's most frequent event name — guaranteed in the dictionary.
    top_name: String,
    /// A name no dictionary contains.
    absent_name: String,
    /// The hour with the most traffic.
    busy_hour: u64,
    /// The traffic hour with the least traffic.
    quiet_hour: u64,
    /// An hour past the day — never delivered, never indexed.
    missing_hour: u64,
}

/// Delivers one generated day through the Scribe pipeline, hour by hour,
/// with the columnar landing and the index-maintaining delivery tap.
fn deliver_day(config: &WorkloadConfig) -> Delivered {
    let mut pipe = ScribePipeline::new(PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    });
    pipe.set_columnar_landing(Arc::new(ClientEventLanding {
        dictionary: true,
        rows_per_group: ROWS_PER_GROUP,
    }));
    let registry = Registry::new();
    let maintainer = IndexMaintainer::with_obs(
        pipe.main_warehouse().clone(),
        CLIENT_EVENTS_CATEGORY,
        &registry,
    );
    pipe.add_delivery_tap(maintainer.tap());
    let mut by_hour: Vec<Vec<(i64, Vec<u8>)>> = vec![Vec::new(); 24];
    let mut events = Vec::new();
    for ev in DayStream::new(config, 0) {
        by_hour[ev.timestamp.hour_index() as usize].push((ev.user_id, ev.to_bytes()));
        events.push(ev);
    }
    for (hour, hour_events) in by_hour.iter().enumerate() {
        for (i, (user, bytes)) in hour_events.iter().enumerate() {
            pipe.log(
                (*user as usize) % 2,
                i % 4,
                LogEntry::new(CLIENT_EVENTS_CATEGORY, bytes.clone()),
            );
        }
        pipe.step();
        pipe.flush_hour(hour as u64);
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour as u64);
        pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour as u64)
            .expect("all DCs sealed");
    }
    Delivered {
        warehouse: pipe.main_warehouse().clone(),
        maintainer,
        registry,
        records: events.len() as u64,
        events,
    }
}

fn pick_suite(events: &[ClientEvent]) -> Suite {
    let mut by_user: BTreeMap<i64, u64> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_hour: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        *by_user.entry(ev.user_id).or_default() += 1;
        *by_name.entry(ev.name.as_str()).or_default() += 1;
        *by_hour.entry(ev.timestamp.hour_index()).or_default() += 1;
    }
    // BTreeMap iteration breaks count ties toward the smallest key, so
    // every pick is deterministic.
    let max_by_count = |m: &BTreeMap<i64, u64>, invert: bool| {
        m.iter()
            .map(|(&k, &v)| (if invert { u64::MAX - v } else { v }, k))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, k)| k)
            .unwrap_or(0)
    };
    let heavy_user = max_by_count(&by_user, false);
    let light_user = max_by_count(&by_user, true);
    let mut ranked: Vec<(u64, i64)> = by_user.iter().map(|(&u, &n)| (n, u)).collect();
    ranked.sort_unstable();
    let median_user = ranked.get(ranked.len() / 2).map(|&(_, u)| u).unwrap_or(0);
    let absent_user = by_user.keys().next_back().copied().unwrap_or(0) + 1_000;
    let top_name = by_name
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(name, _)| name.to_string())
        .unwrap_or_default();
    let busy_hour = by_hour
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&h, _)| h)
        .unwrap_or(0);
    let quiet_hour = by_hour
        .iter()
        .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)))
        .map(|(&h, _)| h)
        .unwrap_or(0);
    Suite {
        heavy_user,
        median_user,
        light_user,
        absent_user,
        top_name,
        absent_name: "never:logged:by:any:client:ever".to_string(),
        busy_hour,
        quiet_hour,
        missing_hour: 27,
    }
}

/// The serving-layer side of the suite: every answer plus its cost.
struct ServeAnswers {
    sessions: Vec<(Vec<SessionRecord>, LookupStats)>,
    user_events: Vec<ServeAnswer>,
    counts: Vec<ServeAnswer>,
    tops: Vec<ServeAnswer>,
}

fn run_serve_suite(h: &ServeHandle, s: &Suite) -> ServeAnswers {
    let sessions = vec![
        h.sessions(s.median_user, 0).expect("serve sessions"),
        h.sessions(s.absent_user, 0).expect("serve sessions"),
    ];
    let user_events = vec![
        h.user_events(s.heavy_user, s.busy_hour).expect("serve"),
        h.user_events(s.light_user, s.quiet_hour).expect("serve"),
        h.user_events(s.absent_user, s.busy_hour).expect("serve"),
        h.user_events(s.heavy_user, s.missing_hour).expect("serve"),
    ];
    let counts = vec![
        h.count(&s.top_name, 0..24),
        h.count(&s.absent_name, 0..24),
        h.count(&s.top_name, [s.busy_hour]),
        h.count(&s.top_name, 24..48),
    ];
    let tops = vec![
        h.top_names(s.busy_hour, 5),
        h.top_names(s.quiet_hour, 3),
        h.top_names(s.missing_hour, 5),
    ];
    ServeAnswers {
        sessions,
        user_events,
        counts,
        tops,
    }
}

/// Runs the batch suite at `workers`, checks every answer against the
/// serving layer's, and (when `charge` is set) bills each class's decoded
/// bytes into `classes` by measuring warehouse stats deltas.
fn run_batch_suite(
    wh: &Warehouse,
    s: &Suite,
    serve: &ServeAnswers,
    workers: usize,
    charge: bool,
    classes: &mut [LookupClass],
) -> bool {
    let cat = CLIENT_EVENTS_CATEGORY;
    let mut matches = true;
    let mut bill = |class: usize, bytes: u64| {
        if charge {
            classes[class].batch_decoded_bytes += bytes;
        }
    };
    for (i, &user) in [s.median_user, s.absent_user].iter().enumerate() {
        let before = wh.stats();
        let b = batch_sessions(wh, cat, 0, user, workers).expect("batch sessions");
        bill(0, wh.stats().since(&before).uncompressed_bytes_read);
        matches &= b == serve.sessions[i].0;
    }
    let ue = [
        (s.heavy_user, s.busy_hour),
        (s.light_user, s.quiet_hour),
        (s.absent_user, s.busy_hour),
        (s.heavy_user, s.missing_hour),
    ];
    for (i, &(user, hour)) in ue.iter().enumerate() {
        let before = wh.stats();
        let b = batch_user_events(wh, cat, hour, user, workers).expect("batch user-events");
        bill(1, wh.stats().since(&before).uncompressed_bytes_read);
        matches &= b == serve.user_events[i].rows;
    }
    let count_specs: [(&str, Vec<u64>); 4] = [
        (&s.top_name, (0..24).collect()),
        (&s.absent_name, (0..24).collect()),
        (&s.top_name, vec![s.busy_hour]),
        (&s.top_name, (24..48).collect()),
    ];
    for (i, (name, hours)) in count_specs.iter().enumerate() {
        let before = wh.stats();
        let b = batch_count(wh, cat, hours.iter().copied(), name, workers).expect("batch count");
        bill(2, wh.stats().since(&before).uncompressed_bytes_read);
        matches &= b == serve.counts[i].rows;
    }
    let top_specs = [(s.busy_hour, 5), (s.quiet_hour, 3), (s.missing_hour, 5)];
    for (i, &(hour, k)) in top_specs.iter().enumerate() {
        let before = wh.stats();
        let b = batch_top_names(wh, cat, hour, k, workers).expect("batch top-names");
        bill(3, wh.stats().since(&before).uncompressed_bytes_read);
        matches &= b == serve.tops[i].rows;
    }
    matches
}

fn class_stats(label: &'static str, stats: &[LookupStats]) -> LookupClass {
    LookupClass {
        label,
        lookups: stats.len() as u64,
        serve_decoded_bytes: stats.iter().map(|s| s.decoded_bytes).sum(),
        serve_groups_read: stats.iter().map(|s| s.groups_read).sum(),
        serve_groups_pruned: stats.iter().map(|s| s.groups_pruned).sum(),
        batch_decoded_bytes: 0,
    }
}

/// Runs the serving measurement at `scale` with `chaos_seeds` chaos runs.
pub fn measure_with(scale: Scale, chaos_seeds: u64) -> Measurements {
    let config = scale.config();
    let d = deliver_day(&config);
    let suite = pick_suite(&d.events);

    let hours = d.maintainer.indexed_hours();
    let (mut idx_records, mut idx_events) = (0u64, 0u64);
    for &h in &hours {
        let i = d.maintainer.hour_index(h).expect("indexed hour");
        idx_records += i.records;
        idx_events += i.events;
    }

    let handle = d.maintainer.handle();
    let serve = run_serve_suite(&handle, &suite);
    let mut classes = vec![
        class_stats(
            "sessions",
            &serve.sessions.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
        ),
        class_stats(
            "user-events",
            &serve
                .user_events
                .iter()
                .map(|a| a.stats)
                .collect::<Vec<_>>(),
        ),
        class_stats(
            "count",
            &serve.counts.iter().map(|a| a.stats).collect::<Vec<_>>(),
        ),
        class_stats(
            "top-names",
            &serve.tops.iter().map(|a| a.stats).collect::<Vec<_>>(),
        ),
    ];

    let mut answers_match = true;
    for (wi, &workers) in WORKER_COUNTS.iter().enumerate() {
        answers_match &=
            run_batch_suite(&d.warehouse, &suite, &serve, workers, wi == 0, &mut classes);
    }

    let lookups: u64 = classes.iter().map(|c| c.lookups).sum();
    let serve_bytes: u64 = classes.iter().map(|c| c.serve_decoded_bytes).sum();
    let batch_bytes: u64 = classes.iter().map(|c| c.batch_decoded_bytes).sum();
    let groups_pruned: u64 = classes.iter().map(|c| c.serve_groups_pruned).sum();
    let decoded_bytes_ratio = batch_bytes as f64 / (serve_bytes.max(1)) as f64;

    // Cost-model translation: the serving layer pays only the scan of
    // what it decoded; every batch lookup also pays job submission and a
    // task startup before its (much larger) scan.
    let cm = CostModel::default();
    let scan_ms = |bytes: u64| bytes as f64 / (cm.scan_mb_per_s * 1000.0);
    let serve_cost_ms = scan_ms(serve_bytes);
    let batch_cost_ms =
        lookups as f64 * (cm.job_submit_ms + cm.task_startup_ms) + scan_ms(batch_bytes);

    // Registry reconciliation: the run must be auditable from `serve/*`
    // metrics alone.
    let snap = d.registry.snapshot();
    let obs_reconciled = snap.counter_value("serve/hours_indexed") == Some(hours.len() as u64)
        && snap.counter_value("serve/postings_bytes") == Some(d.maintainer.postings_bytes())
        && snap.counter_value("serve/lookups_served") == Some(lookups)
        && snap.counter_value("serve/row_groups_pruned") == Some(groups_pruned)
        && snap.counter_value("serve/index_build_failures") == Some(0)
        && snap.gauge_value("serve/index_lag_hours") == Some(0)
        && d.registry.duplicate_registrations().is_empty();

    // Chaos consistency: crash-window injection between hour-land and
    // index-commit on two of every three seeds; recover() must make the
    // index account for exactly the audited delivered partition.
    let chaos_cfg = ChaosConfig::default();
    let mut chaos_delivered = 0u64;
    let mut chaos_indexed_records = 0u64;
    let mut chaos_rebuilt_hours = 0u64;
    let mut chaos_consistent = true;
    for seed in 0..chaos_seeds {
        let slot: RefCell<Option<IndexMaintainer>> = RefCell::new(None);
        let o = run_chaos_prepared(seed, &chaos_cfg, |pipe| {
            let m = IndexMaintainer::new(pipe.main_warehouse().clone(), CLIENT_EVENTS_CATEGORY);
            m.fail_next_commits(seed % 3);
            pipe.add_delivery_tap(m.tap());
            *slot.borrow_mut() = Some(m);
        });
        let m = slot.into_inner().expect("chaos prepare ran");
        chaos_consistent &= o.is_clean();
        chaos_rebuilt_hours += m.recover().expect("chaos recover");
        chaos_consistent &= m.lag_hours() == 0;
        let indexed: u64 = m
            .indexed_hours()
            .iter()
            .filter_map(|&h| m.hour_index(h))
            .map(|i| i.records)
            .sum();
        chaos_consistent &= indexed == o.accounting.delivered;
        chaos_delivered += o.accounting.delivered;
        chaos_indexed_records += indexed;
    }

    Measurements {
        scale: scale.label(),
        users: config.users,
        records: d.records,
        events: idx_events,
        hours_indexed: hours.len() as u64,
        index_lag_hours: d.maintainer.lag_hours(),
        rows_per_group: ROWS_PER_GROUP as u64,
        postings_bytes: d.maintainer.postings_bytes(),
        index_build_decoded_bytes: d.maintainer.build_decoded_bytes(),
        answers_match: answers_match && idx_records == d.records,
        classes,
        lookups,
        serve_decoded_bytes: serve_bytes,
        batch_decoded_bytes: batch_bytes,
        decoded_bytes_ratio,
        serve_cost_ms,
        batch_cost_ms,
        obs_reconciled,
        chaos_seeds,
        chaos_delivered,
        chaos_indexed_records,
        chaos_rebuilt_hours,
        chaos_consistent,
        serve_lookup_wall_us: None,
        cores: None,
    }
}

/// The full run: the default day, 16 chaos seeds, wall-clock lookup
/// latency, host cores.
pub fn measure() -> Measurements {
    let mut m = measure_with(Scale::Default, 16);
    // Wall-clock pass: re-deliver the day and time the whole suite.
    let config = Scale::Default.config();
    let d = deliver_day(&config);
    let suite = pick_suite(&d.events);
    let handle = d.maintainer.handle();
    let ((), ms) = timed(|| {
        run_serve_suite(&handle, &suite);
    });
    m.serve_lookup_wall_us = Some(ms * 1000.0 / m.lookups.max(1) as f64);
    m.cores = Some(detected_cores());
    m
}

/// The smoke run CI diffs against the checked-in golden: the pinned smoke
/// day, 4 chaos seeds, no wall-clock anywhere.
pub fn smoke_snapshot() -> Measurements {
    measure_with(Scale::Smoke, 4)
}

/// Renders the measurement as the experiment table.
pub fn render(m: &Measurements) -> String {
    let mut out = format!(
        "E22 — serving layer at --scale {}: {} users, {} records landed \
         columnar ({} rows/group), {} hours indexed, lag {}\n\n",
        m.scale, m.users, m.records, m.rows_per_group, m.hours_indexed, m.index_lag_hours
    );
    out.push_str(&format!(
        "index: {} B postings committed, {} B decoded building them\n\
         answers byte-identical to batch at workers {WORKER_COUNTS:?}: {}\n\n",
        m.postings_bytes, m.index_build_decoded_bytes, m.answers_match
    ));
    let mut t = Table::new(&[
        "lookup class",
        "lookups",
        "serve B decoded",
        "batch B decoded",
        "groups read",
        "groups pruned",
    ]);
    for c in &m.classes {
        t.row(cells![
            c.label,
            c.lookups,
            c.serve_decoded_bytes,
            c.batch_decoded_bytes,
            c.serve_groups_read,
            c.serve_groups_pruned
        ]);
    }
    t.row(cells![
        "total",
        m.lookups,
        m.serve_decoded_bytes,
        m.batch_decoded_bytes,
        "",
        ""
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ndecoded-bytes reduction: {:.1}x (gate: >= 50x)\n\
         cost model: serve {:.2} ms vs batch {:.0} ms for the suite\n",
        m.decoded_bytes_ratio, m.serve_cost_ms, m.batch_cost_ms
    ));
    out.push_str(&format!(
        "obs: serve/* registry reconciles against maintainer state: {}\n",
        m.obs_reconciled
    ));
    out.push_str(&format!(
        "chaos sweep: {} seeds, {} records delivered, {} indexed, {} \
         crash-window hours rebuilt, consistent: {}\n",
        m.chaos_seeds,
        m.chaos_delivered,
        m.chaos_indexed_records,
        m.chaos_rebuilt_hours,
        m.chaos_consistent
    ));
    if let Some(us) = m.serve_lookup_wall_us {
        out.push_str(&format!("serve lookup wall clock: {us:.1} us/lookup\n"));
    }
    if let Some(cores) = m.cores {
        out.push_str(&format!(
            "{cores} hardware thread(s) visible; wall clock is from this host.\n"
        ));
    }
    out
}

/// Serializes the run as the `BENCH_serve.json` payload (full runs) or
/// the machine-independent smoke metrics (when `cores` is unset).
pub fn to_json(m: &Measurements) -> String {
    let mut head = String::new();
    if let Some(c) = m.cores {
        head.push_str(&format!("  \"cores\": {c},\n"));
    }
    if let Some(us) = m.serve_lookup_wall_us {
        head.push_str(&format!("  \"serve_lookup_wall_us\": {us:.1},\n"));
    }
    let classes: Vec<String> = m
        .classes
        .iter()
        .map(|c| {
            format!(
                "    {{\"label\": \"{}\", \"lookups\": {}, \
                 \"serve_decoded_bytes\": {}, \"batch_decoded_bytes\": {}, \
                 \"groups_read\": {}, \"groups_pruned\": {}}}",
                c.label,
                c.lookups,
                c.serve_decoded_bytes,
                c.batch_decoded_bytes,
                c.serve_groups_read,
                c.serve_groups_pruned
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"serve\",\n  \"schema\": \"uli-serve-v1\",\n\
         {head}  \"scale\": \"{}\",\n  \"users\": {},\n  \"records\": {},\n  \
         \"events\": {},\n  \"hours_indexed\": {},\n  \
         \"index_lag_hours\": {},\n  \"rows_per_group\": {},\n  \
         \"postings_bytes\": {},\n  \"index_build_decoded_bytes\": {},\n  \
         \"worker_counts\": [1, 4, 8],\n  \"answers_match\": {},\n  \
         \"classes\": [\n{}\n  ],\n  \"lookups\": {},\n  \
         \"serve_decoded_bytes\": {},\n  \"batch_decoded_bytes\": {},\n  \
         \"decoded_bytes_ratio\": {:.1},\n  \"serve_cost_ms\": {:.3},\n  \
         \"batch_cost_ms\": {:.1},\n  \"obs_reconciled\": {},\n  \
         \"chaos_seeds\": {},\n  \"chaos_delivered\": {},\n  \
         \"chaos_indexed_records\": {},\n  \"chaos_rebuilt_hours\": {},\n  \
         \"chaos_consistent\": {}\n}}\n",
        m.scale,
        m.users,
        m.records,
        m.events,
        m.hours_indexed,
        m.index_lag_hours,
        m.rows_per_group,
        m.postings_bytes,
        m.index_build_decoded_bytes,
        m.answers_match,
        classes.join(",\n"),
        m.lookups,
        m.serve_decoded_bytes,
        m.batch_decoded_bytes,
        m.decoded_bytes_ratio,
        m.serve_cost_ms,
        m.batch_cost_ms,
        m.obs_reconciled,
        m.chaos_seeds,
        m.chaos_delivered,
        m.chaos_indexed_records,
        m.chaos_rebuilt_hours,
        m.chaos_consistent,
    )
}

/// Runs the experiment at full scale.
pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serving_layer_matches_batch_and_prunes_50x() {
        let m = smoke_snapshot();
        assert_eq!(m.scale, "smoke");
        assert_eq!(m.users, 120);
        assert_eq!(m.records, 2657);
        assert_eq!(m.records, m.events, "landed payloads all decode");
        assert_eq!(m.hours_indexed, 24);
        assert_eq!(m.index_lag_hours, 0);
        assert!(m.answers_match, "serve diverged from batch");
        assert!(
            m.decoded_bytes_ratio >= 50.0,
            "decoded-bytes reduction {}x under the 50x gate ({} vs {} B)",
            m.decoded_bytes_ratio,
            m.serve_decoded_bytes,
            m.batch_decoded_bytes
        );
        assert!(m.obs_reconciled, "serve/* registry drifted from state");
        assert!(m.chaos_consistent);
        assert!(m.chaos_rebuilt_hours > 0, "no crash-window was exercised");
        assert!(m.serve_cost_ms < m.batch_cost_ms);
        let json = to_json(&m);
        assert!(json.contains("\"answers_match\": true"));
        assert!(json.contains("\"chaos_consistent\": true"));
        assert!(!json.contains("cores"), "smoke json must omit host cores");
        assert!(
            !json.contains("wall_us"),
            "smoke json must omit wall-clock latency"
        );
    }

    #[test]
    fn full_json_records_cores_and_wall_clock() {
        let mut m = measure_with(Scale::Smoke, 2);
        m.cores = Some(2);
        m.serve_lookup_wall_us = Some(321.5);
        let json = to_json(&m);
        assert!(json.contains("\"cores\": 2"));
        assert!(json.contains("\"serve_lookup_wall_us\": 321.5"));
        assert!(json.contains("\"chaos_seeds\": 2"));
    }
}
