//! E18 — ingest fast path: Scribe message batching.
//!
//! The paper's ingest tier lives or dies on per-message overhead (§2): at
//! Twitter's volumes every RPC and every allocation on the daemon path is
//! paid hundreds of millions of times a day. This experiment ablates the
//! batched fast path on a fault-free day — one network message per entry
//! (the legacy path) versus batches capped at 8, 32 and 128 records — and
//! reports cost-model counters: network messages, wire bytes, and
//! encode-allocation bytes. That batching lands the same bytes is
//! `tests/landed_bytes.rs`'s to hold.

use std::sync::Arc;

use uli_core::ClientEventLanding;
use uli_scribe::{BatchPolicy, PipelineConfig, ScribePipeline};
use uli_stream::PayloadSizes;
use uli_workload::WorkloadConfig;

use crate::harness::{deliver_day, object, quoted, topology, Body};
use crate::Outcome;

/// The ablation grid: the unbatched baseline, then batches of 8, 32 and 128
/// records under the default 32 KiB byte cap.
fn grid() -> impl Iterator<Item = (String, BatchPolicy)> {
    let batched = [8, 32, 128].map(|max_records| {
        let policy = BatchPolicy {
            max_records,
            ..BatchPolicy::default()
        };
        (format!("batch-{max_records}"), policy)
    });
    std::iter::once(("unbatched".to_string(), BatchPolicy::unbatched())).chain(batched)
}

/// Drives one fault-free day end to end and returns its cost counters:
/// network messages and the encode-allocation bytes of the legacy and the
/// scratch path, beside the counters' sample row.
fn run_once(users: u64, label: &str, batch: BatchPolicy) -> (u64, u64, u64, String) {
    let mut pipe = ScribePipeline::new(PipelineConfig {
        batch,
        ..topology()
    });
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let sizes = PayloadSizes::default();
    pipe.add_delivery_tap(Box::new(sizes.clone()));
    let day = WorkloadConfig {
        users,
        ..Default::default()
    };
    deliver_day(&mut pipe, &day);
    let report = pipe.report();
    let (messages, wire_bytes) = pipe.network().message_cost();

    // Encode-allocation cost model, from the payload sizes the delivery
    // handed its taps: the legacy aggregator allocated one envelope Vec per
    // record; the scratch path reuses one buffer per hour's file, which
    // grows to the largest envelope.
    let (mut legacy, mut scratch) = (0u64, 0u64);
    for lens in (0..24).map(|hour| sizes.hour(hour)) {
        legacy += lens.iter().sum::<u64>();
        scratch += lens.iter().max().unwrap_or(&0);
    }
    let avg_batch = report.logged as f64 / report.batches_sent.max(1) as f64;
    let row = object(&[
        ("policy", &quoted(label)),
        ("max_records", &batch.max_records),
        ("logged", &report.logged),
        ("moved", &report.moved),
        ("network_messages", &messages),
        ("wire_bytes", &wire_bytes),
        ("batches_sent", &report.batches_sent),
        ("avg_batch", &format!("{avg_batch:.2}")),
        ("retried", &report.retried),
        ("enc_alloc_legacy", &legacy),
        ("enc_alloc_scratch", &scratch),
    ]);
    (messages, legacy, scratch, row)
}

/// Runs the ablation over a 300-user day, or for a smoke run the 120-user
/// day whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    let users = if smoke { 120 } else { 300 };
    let samples: Vec<_> = grid()
        .map(|(label, batch)| run_once(users, &label, batch))
        .collect();
    // The unbatched baseline against the largest batch cap.
    let ((messages, legacy, scratch, _), (batched, ..)) =
        (&samples[0], &samples[samples.len() - 1]);
    let metrics = Body::default()
        .put(
            "message_reduction",
            format!("{:.2}", *messages as f64 / (*batched).max(1) as f64),
        )
        .put(
            "alloc_reduction",
            format!("{:.2}", *legacy as f64 / (*scratch).max(1) as f64),
        )
        .rows("samples", samples.iter().map(|s| s.3.clone()))
        .metrics("ingest", "uli-ingest-v1", "BENCH_ingest.json");
    Outcome::measured(Vec::new(), metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ingest_run_is_clean() {
        crate::tests::assert_smoke_run(&measure(true));
    }
}
