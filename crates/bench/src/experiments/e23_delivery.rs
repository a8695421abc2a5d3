//! E23 — parallel pipelined delivery: the multi-worker mover landing a
//! generated day end-to-end.
//!
//! The paper's Scribe aggregation tier is massively parallel; the
//! reproduction's delivery path — staged-file decode, dedup, columnar
//! encode, block compression, tap dispatch — shards its byte work across
//! the mover's workers. E23 drives a generated day through the real
//! daemon→aggregator→mover topology hour by hour and reports the speedup in
//! a cost model of the move reports' byte counters, labelled as a model and
//! gated at >= 3x at 8 workers. The delivery's wall-clock is the
//! benchmark's (`deliver_rps`, `deliver.rps_w2`); that the parallel mover
//! lands the serial mover's bytes is `crates/scribe/tests/parallel_landing.rs`'s.
//!
//! The cost model: decode and encode/compress shard perfectly across `w`
//! workers (pure per-file / per-chunk work), while the dedup merge stays
//! serial at ~16 units per examined record (hash + set probe per id).
//! `units(w) = (decode_bytes + encode_bytes)/w + 16·(records + duplicates)`
//! — Amdahl's law with the measured byte totals as the parallel fraction.

use std::sync::Arc;

use uli_core::ClientEventLanding;
use uli_scribe::{MoveReport, ScribePipeline};
use uli_workload::Scale;

use crate::harness::{deliver_day, object, quoted, topology, Body};
use crate::Outcome;

/// Worker counts the cost model is evaluated at.
pub const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Serial merge cost per examined record in the model, in byte-equivalent
/// units: one id hash plus one seen-set probe.
const MERGE_UNITS_PER_RECORD: f64 = 16.0;

/// `units(w)` per the module cost model.
fn cost_units(decode_bytes: u64, encode_bytes: u64, examined: u64, workers: usize) -> f64 {
    let parallel = (decode_bytes + encode_bytes) as f64 / workers as f64;
    parallel + MERGE_UNITS_PER_RECORD * examined as f64
}

/// Runs the delivery measurement over the 1m-user day, or for a smoke run
/// the pinned smoke day, whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    let scale = if smoke { Scale::Smoke } else { Scale::OneM };
    let config = scale.config();
    let mut pipe = ScribePipeline::new(topology());
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let reports = deliver_day(&mut pipe, &config);
    let sum = |field: fn(&MoveReport) -> u64| reports.iter().map(field).sum::<u64>();
    let (records, duplicates) = (sum(|r| r.records), sum(|r| r.duplicates));
    let (decode, encode) = (sum(|r| r.decode_bytes), sum(|r| r.encode_bytes));
    let units = WORKER_COUNTS.map(|w| cost_units(decode, encode, records + duplicates, w));
    let runs = WORKER_COUNTS.iter().zip(units).map(|(w, u)| {
        let (u, speedup) = (format!("{u:.0}"), format!("{:.3}", units[0] / u));
        object(&[
            ("workers", w),
            ("cost_units", &u),
            ("speedup_cost_model", &speedup),
        ])
    });
    let at_8 = units[0] / units[2];
    let (watermarks, residual) = pipe.seen().snapshot();
    let metrics = Body::default()
        .put("scale", quoted(scale.label()))
        .put("users", config.users)
        .put("events", pipe.report().logged)
        .put(
            "hours_moved",
            reports.iter().filter(|r| r.records > 0).count(),
        )
        .put("worker_counts", "[1, 4, 8]")
        .put("records", records)
        .put("duplicates", duplicates)
        .put("output_files", sum(|r| r.output_files))
        .put("decode_bytes", decode)
        .put("encode_bytes", encode)
        .put("seen_watermark_hosts", watermarks.len())
        .put("seen_residual_ids", residual.len())
        .rows("runs", runs)
        .put("gate_speedup_at_8", format!("{at_8:.3}"))
        .metrics("delivery", "uli-delivery-v1", "BENCH_delivery.json");
    let gate = (
        format!("cost-model speedup at 8 workers {at_8:.2}x under the 3x gate"),
        at_8 >= 3.0,
    );
    Outcome::measured(vec![gate], metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_delivery_runs_clean() {
        crate::tests::assert_smoke_run(&measure(true));
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
