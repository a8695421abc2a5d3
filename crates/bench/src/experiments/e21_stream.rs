//! E21 — the lambda invariant: streaming analytics vs batch.
//!
//! The paper's analytics are batch-only; Twitter's production stack
//! layered a Summingbird speed layer over the same Scribe stream, trusting
//! the Algebird monoid laws to make streaming answers converge to batch.
//! This experiment reports that reproduction (`uli-stream`) on one day
//! delivered columnar with a speed-layer tap: the streaming view's sketches
//! (HLL distinct users, Count-Min/TopK trending, percentile payload sizes)
//! beside the exact answers of a batch scan of the landed warehouse — the
//! payload sizes recorded by a second tap, since a columnar file keeps no
//! payload bytes — and the sketch
//! state's fixed bytes against the exact state a batch job holds. The
//! invariant itself — at any shard count, within every declared bound,
//! under chaos — is `tests/lambda.rs`'s. What the tap costs a record is the
//! benchmark's `stream.fold_ns_per_record`.

use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::ClientEventLanding;
use uli_scribe::ScribePipeline;
use uli_stream::{
    batch_reference, check_convergence, exact_quantile_bp, PayloadSizes, StreamAnalytics,
    StreamConfig, StreamState, CHECKED_QUANTILES,
};
use uli_workload::Scale;

use crate::harness::{deliver_day, object, quoted, topology, Body};
use crate::Outcome;

/// Runs the lambda measurement over the default day, or for a smoke run
/// the pinned smoke day, whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Outcome {
    let scale = if smoke { Scale::Smoke } else { Scale::Default };
    let config = scale.config();
    let mut pipe = ScribePipeline::new(topology());
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let analytics = StreamAnalytics::new(StreamConfig {
        shards: 1,
        trending_k: 5,
    });
    let sizes = PayloadSizes::default();
    pipe.add_delivery_tap(analytics.tap());
    pipe.add_delivery_tap(Box::new(sizes.clone()));
    deliver_day(&mut pipe, &config);
    let batch = batch_reference(pipe.main_warehouse(), CLIENT_EVENTS_CATEGORY, 0..24)
        .expect("batch scan of the landed day");
    let stream = analytics.running_view();
    let sizes = sizes.all();
    let c = check_convergence(&stream, &batch, &sizes);
    // Streaming's log-linear upper-bound estimate beside the exact value:
    // the sizes the delivery handed its taps.
    let quantiles = CHECKED_QUANTILES.iter().map(|&q_bp| {
        let estimate = stream.payload_bytes().quantile_bp(q_bp).unwrap_or(0);
        let exact = exact_quantile_bp(&sizes, q_bp).unwrap_or(0);
        object(&[("q_bp", &q_bp), ("estimate", &estimate), ("exact", &exact)])
    });
    let metrics = Body::default()
        .put("scale", quoted(scale.label()))
        .put("users", config.users)
        .put("records", stream.records())
        .put("events", stream.events())
        .put("hours_with_traffic", analytics.hours().len())
        .put("distinct_users_exact", batch.distinct_users.len())
        .put("distinct_users_est", stream.distinct_users_estimate())
        .put("hll_rel_error", format!("{:.4}", c.hll_rel_error))
        .put("topk_max_over", c.topk_max_over)
        .put("topk_error_bound", stream.trending().cms().error_bound())
        .rows("quantiles", quantiles)
        .put("sketch_bytes", StreamState::sketch_cost_bytes())
        .put("stream_exact_bytes", stream.exact_cost_bytes())
        .put("batch_exact_bytes", batch.exact_cost_bytes())
        .metrics("stream", "uli-stream-v1", "BENCH_stream.json");
    Outcome::measured(Vec::new(), metrics, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_lambda_run_is_clean() {
        crate::tests::assert_smoke_run(&measure(true));
    }
}
