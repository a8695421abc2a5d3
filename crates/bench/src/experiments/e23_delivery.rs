//! E23 — parallel pipelined delivery: the multi-worker mover landing a
//! generated day end-to-end.
//!
//! The paper's Scribe aggregation tier is massively parallel; until this
//! experiment the reproduction's delivery path — staged-file decode, dedup,
//! columnar encode, block compression, tap dispatch — ran on one thread.
//! E23 drives a generated day through the real daemon→aggregator→mover
//! topology hour by hour (no per-day batching shortcut) at each entry of
//! [`WORKER_COUNTS`] and checks, in order of importance:
//!
//! 1. **identity** — the landed warehouse files (by digest), the committed
//!    seen-set snapshot, the tap dispatch stream (by digest), and the move
//!    report totals must be byte-identical across worker counts. A parallel
//!    mover that changes any delivered byte is wrong, not fast.
//! 2. **chaos** — the default seeded fault mix swept with the 8-worker
//!    mover must stay invariant-clean and byte-identical to the serial
//!    mover's same-seed outcome.
//! 3. **throughput** — delivery records/sec per worker count (full runs
//!    only), plus a machine-independent cost model derived from the move
//!    reports' byte counters. Per the repro honesty convention, a host
//!    with fewer hardware threads than the gated worker count gates on the
//!    cost model (`speedup_basis = "cost_model"`): the wall-clock speedup
//!    of 8 workers is unobservable there, and the wall-clock columns are
//!    that host's record, not a verdict.
//!
//! The cost model: decode and encode/compress shard perfectly across `w`
//! workers (pure per-file / per-chunk work), while the dedup merge stays
//! serial at ~16 units per examined record (hash + set probe per id).
//! `units(w) = (decode_bytes + encode_bytes)/w + 16·(records + duplicates)`
//! — Amdahl's law with the measured byte totals as the parallel fraction.
//!
//! The smoke run is fully deterministic (pinned day, pinned seeds, no
//! wall-clock, no cores), so CI diffs it against a checked-in golden; the
//! full run persists `BENCH_delivery.json`.

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::session::day_dir;
use uli_scribe::message::LogEntry;
use uli_scribe::{run_chaos, ChaosConfig, DeliveryTap, PipelineConfig, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_warehouse::{fnv1a64_fold, HourlyPartition, Parallelism, FNV1A64_OFFSET};
use uli_workload::{DayStream, Scale};

use crate::cells;
use crate::harness::{detected_cores, timed, Table};

/// Worker counts the delivery identity and speedup are checked under.
pub const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Serial merge cost per examined record in the model, in byte-equivalent
/// units: one id hash plus one seen-set probe.
const MERGE_UNITS_PER_RECORD: f64 = 16.0;

/// One worker count's delivery pass over the same generated day.
pub struct WorkerRun {
    /// Mover worker count.
    pub workers: usize,
    /// Records the mover merged into the main warehouse.
    pub records: u64,
    /// Duplicate copies squashed by the merge.
    pub duplicates: u64,
    /// Landed output files across the day.
    pub output_files: u64,
    /// FNV digest over every landed file's digest, in path order.
    pub landed_digest: u64,
    /// FNV digest over the tap dispatch stream (hour order × payload order).
    pub tap_digest: u64,
    /// Committed seen-set watermarks digest (hosts × next-seq + residual).
    pub seen_digest: u64,
    /// Cost-model units for the delivery day at this worker count.
    pub cost_units: f64,
    /// `units(1) / units(workers)` — the machine-independent speedup.
    pub speedup_cost_model: f64,
    /// Wall-clock milliseconds spent inside `move_hour` (full runs only).
    pub move_ms: Option<f64>,
    /// Delivery throughput over the move calls (full runs only).
    pub records_per_sec: Option<f64>,
    /// Wall-clock speedup over the serial pass (full runs only).
    pub speedup_wall_clock: Option<f64>,
}

/// The full delivery measurement.
pub struct Measurements {
    /// Scale label of the generated day.
    pub scale: &'static str,
    /// Users in the day.
    pub users: u64,
    /// Events generated (= records offered to the daemons).
    pub events: u64,
    /// Hours that saw traffic.
    pub hours_moved: u64,
    /// Uncompressed staged bytes the decode stage read (serial pass).
    pub decode_bytes: u64,
    /// Accepted payload bytes the land stage encoded (serial pass).
    pub encode_bytes: u64,
    /// Hosts with a non-zero seen watermark after the day.
    pub seen_watermark_hosts: u64,
    /// Residual ids the watermark compaction could not absorb.
    pub seen_residual_ids: u64,
    /// One pass per entry of [`WORKER_COUNTS`].
    pub runs: Vec<WorkerRun>,
    /// Landed files, seen-set, tap stream, and report totals identical
    /// across every worker count.
    pub identical_across_workers: bool,
    /// Chaos seeds swept with the 8-worker mover.
    pub chaos_seeds: u64,
    /// Records delivered across the sweep (deterministic per seed).
    pub chaos_delivered: u64,
    /// Every swept seed invariant-clean.
    pub chaos_clean: bool,
    /// Every swept seed byte-identical to the serial mover's outcome.
    pub chaos_matches_serial: bool,
    /// `"wall_clock"` or `"cost_model"`; `None` for smoke runs.
    pub speedup_basis: Option<&'static str>,
    /// The ≥3× gate value: speedup at 8 workers on the chosen basis
    /// (cost model for smoke runs, which have no wall-clock).
    pub gate_speedup_at_8: f64,
    /// Hardware threads on the measuring host; `None` for smoke runs so
    /// the CI golden stays machine-independent.
    pub cores: Option<usize>,
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv1a64_fold(h, &v.to_le_bytes())
}

/// Digests the tap dispatch stream without retaining it: payload order is
/// part of the delivery contract, so the digest folds lengths and bytes in
/// arrival order.
struct DigestTap(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl DeliveryTap for DigestTap {
    fn hour_delivered(&mut self, partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        let mut h = self.0.load(std::sync::atomic::Ordering::Relaxed);
        h = fnv_u64(h, partition.hour_index());
        for p in payloads {
            h = fnv_u64(h, p.len() as u64);
            h = fnv1a64_fold(h, p);
        }
        self.0.store(h, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Drives the pre-encoded day through the full topology at one worker
/// count. `timed_moves` controls whether `move_hour` wall-clock is
/// collected (full runs) or skipped (smoke, machine-independent).
fn deliver_day(
    by_hour: &[Vec<(i64, Vec<u8>)>],
    workers: usize,
    timed_moves: bool,
) -> (WorkerRun, u64, u64, (u64, u64)) {
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        workers: Parallelism::fixed(workers),
        ..Default::default()
    };
    let mut pipe = ScribePipeline::new(config);
    let tap_digest = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(FNV1A64_OFFSET));
    pipe.add_delivery_tap(Box::new(DigestTap(tap_digest.clone())));

    let mut records = 0u64;
    let mut duplicates = 0u64;
    let mut output_files = 0u64;
    let mut decode_bytes = 0u64;
    let mut encode_bytes = 0u64;
    let mut move_ms = 0f64;
    for (hour, events) in by_hour.iter().enumerate() {
        for (i, (user, bytes)) in events.iter().enumerate() {
            pipe.log(
                (*user as usize) % 2,
                i % 4,
                LogEntry::new(CLIENT_EVENTS_CATEGORY, bytes.clone()),
            );
        }
        pipe.step();
        pipe.flush_hour(hour as u64);
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour as u64);
        let (report, ms) = timed(|| {
            pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour as u64)
                .expect("fault-free day: every hour moves")
        });
        if timed_moves {
            move_ms += ms;
        }
        records += report.records;
        duplicates += report.duplicates;
        output_files += report.output_files;
        decode_bytes += report.decode_bytes;
        encode_bytes += report.encode_bytes;
    }

    // Landed-day digest: every file's block-stream digest, in path order.
    let wh = pipe.main_warehouse();
    let mut files = wh
        .list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
        .expect("day landed");
    files.sort();
    let mut landed = FNV1A64_OFFSET;
    for f in &files {
        landed = fnv1a64_fold(landed, f.as_str().as_bytes());
        landed = fnv_u64(landed, wh.file_digest(f).expect("landed file digests"));
    }

    // Seen-set digest plus the compaction shape.
    let (watermarks, residual) = pipe.seen_snapshot();
    let mut seen = FNV1A64_OFFSET;
    for (host, next) in &watermarks {
        seen = fnv_u64(seen, *host);
        seen = fnv_u64(seen, *next);
    }
    for id in &residual {
        seen = fnv_u64(seen, id.host);
        seen = fnv_u64(seen, id.seq);
    }

    let run = WorkerRun {
        workers,
        records,
        duplicates,
        output_files,
        landed_digest: landed,
        tap_digest: tap_digest.load(std::sync::atomic::Ordering::Relaxed),
        seen_digest: seen,
        cost_units: 0.0,
        speedup_cost_model: 0.0,
        move_ms: timed_moves.then_some(move_ms),
        records_per_sec: timed_moves.then(|| records as f64 / (move_ms / 1000.0).max(1e-9)),
        speedup_wall_clock: None,
    };
    (
        run,
        decode_bytes,
        encode_bytes,
        (watermarks.len() as u64, residual.len() as u64),
    )
}

/// `units(w)` per the module cost model.
fn cost_units(decode_bytes: u64, encode_bytes: u64, examined: u64, workers: usize) -> f64 {
    let parallel = (decode_bytes + encode_bytes) as f64 / workers as f64;
    parallel + MERGE_UNITS_PER_RECORD * examined as f64
}

/// Runs the delivery measurement at `scale` with `chaos_seeds` chaos runs.
pub fn measure_with(scale: Scale, chaos_seeds: u64, timed_moves: bool) -> Measurements {
    let config = scale.config();

    // Generate once, deliver once per worker count: the day's bytes are
    // identical across passes by construction, so any divergence below is
    // the mover's.
    let mut by_hour: Vec<Vec<(i64, Vec<u8>)>> = vec![Vec::new(); 24];
    let mut events = 0u64;
    for ev in DayStream::new(&config, 0) {
        by_hour[ev.timestamp.hour_index() as usize].push((ev.user_id, ev.to_bytes()));
        events += 1;
    }

    let mut runs = Vec::new();
    let mut decode_bytes = 0u64;
    let mut encode_bytes = 0u64;
    let mut seen_shape = (0u64, 0u64);
    for &workers in &WORKER_COUNTS {
        let (run, d, e, shape) = deliver_day(&by_hour, workers, timed_moves);
        decode_bytes = d;
        encode_bytes = e;
        seen_shape = shape;
        runs.push(run);
    }
    let hours_moved = by_hour.iter().filter(|h| !h.is_empty()).count() as u64;

    let identical_across_workers = runs.windows(2).all(|w| {
        w[0].records == w[1].records
            && w[0].duplicates == w[1].duplicates
            && w[0].output_files == w[1].output_files
            && w[0].landed_digest == w[1].landed_digest
            && w[0].tap_digest == w[1].tap_digest
            && w[0].seen_digest == w[1].seen_digest
    });

    // Cost model from the serial pass's byte counters.
    let examined = runs[0].records + runs[0].duplicates;
    let serial_units = cost_units(decode_bytes, encode_bytes, examined, 1);
    let serial_ms = runs[0].move_ms;
    for run in &mut runs {
        run.cost_units = cost_units(decode_bytes, encode_bytes, examined, run.workers);
        run.speedup_cost_model = serial_units / run.cost_units;
        run.speedup_wall_clock = match (serial_ms, run.move_ms) {
            (Some(s), Some(m)) => Some(s / m.max(1e-9)),
            _ => None,
        };
    }

    // Chaos: the 8-worker mover through the default fault mix, each seed
    // compared against the serial mover's same-seed outcome.
    let mut parallel_cfg = ChaosConfig::default();
    parallel_cfg.topology.workers = Parallelism::fixed(8);
    let serial_cfg = ChaosConfig::default();
    let mut chaos_delivered = 0u64;
    let mut chaos_clean = true;
    let mut chaos_matches_serial = true;
    for seed in 0..chaos_seeds {
        let p = run_chaos(seed, &parallel_cfg);
        let s = run_chaos(seed, &serial_cfg);
        chaos_clean &= p.is_clean();
        chaos_matches_serial &= p.report == s.report;
        chaos_matches_serial &= format!("{:?}", p.accounting) == format!("{:?}", s.accounting);
        chaos_delivered += p.accounting.delivered;
    }

    let gate_speedup_at_8 = runs
        .iter()
        .find(|r| r.workers == 8)
        .map(|r| r.speedup_cost_model)
        .unwrap_or(0.0);

    Measurements {
        scale: scale.label(),
        users: config.users,
        events,
        hours_moved,
        decode_bytes,
        encode_bytes,
        seen_watermark_hosts: seen_shape.0,
        seen_residual_ids: seen_shape.1,
        runs,
        identical_across_workers,
        chaos_seeds,
        chaos_delivered,
        chaos_clean,
        chaos_matches_serial,
        speedup_basis: None,
        gate_speedup_at_8,
        cores: None,
    }
}

/// The full run: the 1m-user day end-to-end, 16 chaos seeds, wall-clock
/// per pass. A host with fewer hardware threads than the gated worker count
/// gates on the cost model — what 8 workers gain in wall-clock is
/// unobservable there and reporting it as a win (or a regression) would be
/// dishonest either way.
pub fn measure() -> Measurements {
    let mut m = measure_with(Scale::OneM, 16, true);
    let cores = detected_cores();
    m.cores = Some(cores);
    let wall_clock = cores >= WORKER_COUNTS[WORKER_COUNTS.len() - 1];
    m.speedup_basis = Some(if wall_clock {
        "wall_clock"
    } else {
        "cost_model"
    });
    if wall_clock {
        m.gate_speedup_at_8 = m
            .runs
            .iter()
            .find(|r| r.workers == 8)
            .and_then(|r| r.speedup_wall_clock)
            .unwrap_or(0.0);
    }
    m
}

/// The smoke run CI diffs against the checked-in golden: the pinned smoke
/// day, 4 chaos seeds, no wall-clock anywhere.
pub fn smoke_snapshot() -> Measurements {
    measure_with(Scale::Smoke, 4, false)
}

/// Renders the measurement as the experiment table.
pub fn render(m: &Measurements) -> String {
    let mut out = format!(
        "E23 — parallel pipelined delivery at --scale {}: {} users, {} events \
         through daemon→aggregator→mover across {} traffic hours\n\n",
        m.scale, m.users, m.events, m.hours_moved
    );
    out.push_str(&format!(
        "landed files, seen-set, tap stream identical across workers \
         {WORKER_COUNTS:?}: {}\n\n",
        m.identical_across_workers
    ));
    let mut t = Table::new(&[
        "workers",
        "records",
        "duplicates",
        "files",
        "cost units",
        "speedup (model)",
        "records/sec",
        "speedup (wall)",
    ]);
    for r in &m.runs {
        t.row(cells![
            r.workers,
            r.records,
            r.duplicates,
            r.output_files,
            format!("{:.0}", r.cost_units),
            format!("{:.2}x", r.speedup_cost_model),
            r.records_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.speedup_wall_clock
                .map(|v| format!("{v:.2}x"))
                .unwrap_or_else(|| "-".into())
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ndecode {} B staged, encode {} B accepted; seen-set compacted to \
         {} host watermarks + {} residual ids\n",
        m.decode_bytes, m.encode_bytes, m.seen_watermark_hosts, m.seen_residual_ids
    ));
    out.push_str(&format!(
        "chaos sweep (8-worker mover): {} seeds, {} records delivered, \
         clean: {}, identical to serial: {}\n",
        m.chaos_seeds, m.chaos_delivered, m.chaos_clean, m.chaos_matches_serial
    ));
    out.push_str(&format!(
        "speedup at 8 workers ({}): {:.2}x (gate: >= 3x)\n",
        m.speedup_basis.unwrap_or("cost_model"),
        m.gate_speedup_at_8
    ));
    if let Some(cores) = m.cores {
        out.push_str(&format!(
            "{cores} hardware thread(s) visible; wall-clock columns are \
             this host's, the cost model is machine-independent.\n"
        ));
    }
    out
}

/// Serializes the run as the `BENCH_delivery.json` payload (full runs) or
/// the machine-independent smoke metrics (when `cores` is unset).
pub fn to_json(m: &Measurements) -> String {
    let mut head = String::new();
    if let Some(c) = m.cores {
        head.push_str(&format!("  \"cores\": {c},\n"));
    }
    if let Some(basis) = m.speedup_basis {
        head.push_str(&format!("  \"speedup_basis\": \"{basis}\",\n"));
    }
    let runs: Vec<String> = m
        .runs
        .iter()
        .map(|r| {
            let mut wall = String::new();
            if let (Some(ms), Some(rps)) = (r.move_ms, r.records_per_sec) {
                wall.push_str(&format!(
                    "\"move_ms\": {ms:.1}, \"records_per_sec\": {rps:.0}, "
                ));
            }
            if let Some(s) = r.speedup_wall_clock {
                wall.push_str(&format!("\"speedup_wall_clock\": {s:.3}, "));
            }
            format!(
                "    {{\"workers\": {}, \"records\": {}, \"duplicates\": {}, \
                 \"output_files\": {}, {}\"cost_units\": {:.0}, \
                 \"speedup_cost_model\": {:.3}}}",
                r.workers,
                r.records,
                r.duplicates,
                r.output_files,
                wall,
                r.cost_units,
                r.speedup_cost_model,
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"delivery\",\n  \"schema\": \"uli-delivery-v1\",\n\
         {head}  \"scale\": \"{}\",\n  \"users\": {},\n  \"events\": {},\n  \
         \"hours_moved\": {},\n  \"worker_counts\": [1, 4, 8],\n  \
         \"decode_bytes\": {},\n  \"encode_bytes\": {},\n  \
         \"seen_watermark_hosts\": {},\n  \"seen_residual_ids\": {},\n  \
         \"runs\": [\n{}\n  ],\n  \"identical_across_workers\": {},\n  \
         \"chaos_seeds\": {},\n  \"chaos_delivered\": {},\n  \
         \"chaos_clean\": {},\n  \"chaos_matches_serial\": {},\n  \
         \"gate_speedup_at_8\": {:.3}\n}}\n",
        m.scale,
        m.users,
        m.events,
        m.hours_moved,
        m.decode_bytes,
        m.encode_bytes,
        m.seen_watermark_hosts,
        m.seen_residual_ids,
        runs.join(",\n"),
        m.identical_across_workers,
        m.chaos_seeds,
        m.chaos_delivered,
        m.chaos_clean,
        m.chaos_matches_serial,
        m.gate_speedup_at_8,
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
    fn smoke_delivery_is_identical_and_json_is_machine_independent() {
        let m = smoke_snapshot();
        assert_eq!(m.scale, "smoke");
        assert_eq!(m.users, 120);
        assert!(m.events > 0);
        assert!(
            m.identical_across_workers,
            "parallel delivery diverged from serial"
        );
        assert!(m.runs[0].duplicates == m.runs[1].duplicates);
        assert!(m.chaos_clean, "a chaos seed violated an invariant");
        assert!(
            m.chaos_matches_serial,
            "parallel chaos diverged from serial"
        );
        assert!(
            m.gate_speedup_at_8 >= 3.0,
            "cost-model speedup at 8 workers {:.2}x under the 3x gate",
            m.gate_speedup_at_8
        );
        assert!(
            m.seen_watermark_hosts > 0,
            "the day should compact to host watermarks"
        );
        let json = to_json(&m);
        assert!(json.contains("\"identical_across_workers\": true"));
        assert!(json.contains("\"chaos_clean\": true"));
        assert!(!json.contains("cores"), "smoke json must omit host cores");
        assert!(
            !json.contains("records_per_sec"),
            "smoke json must omit wall-clock throughput"
        );
        assert!(
            !json.contains("speedup_basis"),
            "smoke json must omit the basis (it has no wall-clock)"
        );
    }

    #[test]
    fn full_json_records_cores_and_basis() {
        let mut m = measure_with(Scale::Smoke, 2, true);
        m.cores = Some(1);
        m.speedup_basis = Some("cost_model");
        let json = to_json(&m);
        assert!(json.contains("\"cores\": 1"));
        assert!(json.contains("\"speedup_basis\": \"cost_model\""));
        assert!(json.contains("\"records_per_sec\""));
        assert!(json.contains("\"chaos_seeds\": 2"));
    }

    #[test]
    fn cost_model_is_amdahl_shaped() {
        // Parallel fraction shrinks units monotonically but never below
        // the serial merge term.
        let (d, e, n) = (1_000_000, 900_000, 10_000);
        let serial = cost_units(d, e, n, 1);
        let at4 = cost_units(d, e, n, 4);
        let at8 = cost_units(d, e, n, 8);
        assert!(serial > at4 && at4 > at8);
        assert!(at8 > MERGE_UNITS_PER_RECORD * n as f64);
        assert!(serial / at8 < 8.0, "speedup must stay sub-linear");
    }
}
