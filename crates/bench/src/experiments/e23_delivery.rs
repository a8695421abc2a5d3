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
//! 3. **speedup, in a cost model** — a machine-independent model derived
//!    from the move reports' byte counters, labelled as a model on every
//!    host and gated at >= 3x at 8 workers. The delivery's wall-clock is
//!    the benchmark's: `deliver_rps` and `deliver.rps_w2`.
//!
//! The cost model: decode and encode/compress shard perfectly across `w`
//! workers (pure per-file / per-chunk work), while the dedup merge stays
//! serial at ~16 units per examined record (hash + set probe per id).
//! `units(w) = (decode_bytes + encode_bytes)/w + 16·(records + duplicates)`
//! — Amdahl's law with the measured byte totals as the parallel fraction.
//!
//! The smoke run is fully deterministic (pinned day, pinned seeds), so CI
//! diffs it against a checked-in golden; the full run persists
//! `BENCH_delivery.json`.

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::session::day_dir;
use uli_scribe::message::LogEntry;
use uli_scribe::{run_chaos, ChaosConfig, DeliveryTap, PipelineConfig, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_warehouse::{fnv1a64_fold, HourlyPartition, Parallelism, FNV1A64_OFFSET};
use uli_workload::{DayStream, Scale};

use crate::harness::Table;
use crate::{cells, Measured, Metrics};

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
    /// The ≥3× gate value: the cost model's speedup at 8 workers.
    pub gate_speedup_at_8: f64,
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
/// count.
fn deliver_day(
    by_hour: &[Vec<(i64, Vec<u8>)>],
    workers: usize,
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
        let report = pipe
            .move_hour(CLIENT_EVENTS_CATEGORY, hour as u64)
            .expect("fault-free day: every hour moves");
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
    let (watermarks, residual) = pipe.seen().snapshot();
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

/// Runs the delivery measurement over the 1m-user day with 16 chaos seeds,
/// or for a smoke run the pinned smoke day with 4, whose metrics CI
/// golden-diffs.
pub fn measure(smoke: bool) -> Measurements {
    let (scale, chaos_seeds) = if smoke {
        (Scale::Smoke, 4)
    } else {
        (Scale::OneM, 16)
    };
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
        let (run, d, e, shape) = deliver_day(&by_hour, workers);
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
    for run in &mut runs {
        run.cost_units = cost_units(decode_bytes, encode_bytes, examined, run.workers);
        run.speedup_cost_model = serial_units / run.cost_units;
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
        gate_speedup_at_8,
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
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
        ]);
        for r in &m.runs {
            t.row(cells![
                r.workers,
                r.records,
                r.duplicates,
                r.output_files,
                format!("{:.0}", r.cost_units),
                format!("{:.2}x", r.speedup_cost_model)
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
            "speedup at 8 workers (cost model): {:.2}x (gate: >= 3x)\n",
            m.gate_speedup_at_8
        ));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        vec![
            (
                "parallel delivery diverged from serial".into(),
                self.identical_across_workers,
            ),
            (
                "a chaos seed violated a delivery invariant".into(),
                self.chaos_clean,
            ),
            (
                "parallel chaos outcome diverged from serial".into(),
                self.chaos_matches_serial,
            ),
            (
                format!(
                    "cost-model speedup at 8 workers {:.2}x under the 3x gate",
                    self.gate_speedup_at_8
                ),
                self.gate_speedup_at_8 >= 3.0,
            ),
        ]
    }

    fn metrics(&self, _smoke: bool) -> Metrics {
        let m = self;
        let runs: Vec<String> = m
            .runs
            .iter()
            .map(|r| {
                format!(
                    "    {{\"workers\": {}, \"records\": {}, \"duplicates\": {}, \
                     \"output_files\": {}, \"cost_units\": {:.0}, \
                     \"speedup_cost_model\": {:.3}}}",
                    r.workers,
                    r.records,
                    r.duplicates,
                    r.output_files,
                    r.cost_units,
                    r.speedup_cost_model,
                )
            })
            .collect();
        let body = format!(
            "  \"scale\": \"{}\",\n  \"users\": {},\n  \"events\": {},\n  \
             \"hours_moved\": {},\n  \"worker_counts\": [1, 4, 8],\n  \
             \"decode_bytes\": {},\n  \"encode_bytes\": {},\n  \
             \"seen_watermark_hosts\": {},\n  \"seen_residual_ids\": {},\n  \
             \"runs\": [\n{}\n  ],\n  \"identical_across_workers\": {},\n  \
             \"chaos_seeds\": {},\n  \"chaos_delivered\": {},\n  \
             \"chaos_clean\": {},\n  \"chaos_matches_serial\": {},\n  \
             \"gate_speedup_at_8\": {:.3}",
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
        );
        Metrics {
            experiment: Some("delivery"),
            schema: "uli-delivery-v1",
            body,
            bench_file: "BENCH_delivery.json",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_delivery_is_identical() {
        let m = measure(true);
        crate::tests::assert_smoke_run(&m);
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
