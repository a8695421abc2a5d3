//! E21 — the lambda invariant: streaming analytics vs batch.
//!
//! The paper's analytics are batch-only; Twitter's production stack
//! layered a Summingbird speed layer over the same Scribe stream, trusting
//! the Algebird monoid laws to make streaming answers converge to batch.
//! This experiment measures that reproduction (`uli-stream`) end to end:
//!
//! 1. **lambda convergence** — a generated day is delivered through the
//!    Scribe pipeline with a speed-layer tap at each worker (shard) count;
//!    the streaming view must equal a batch scan of the landed warehouse
//!    exactly for exact aggregates and within declared bounds for sketches
//!    (HLL distinct users, Count-Min/TopK trending, percentile payload
//!    sizes), and views across shard counts must be byte-identical.
//! 2. **chaos reconciliation** — seeded crash/duplicate/outage schedules
//!    (`run_chaos_tapped`): streaming totals must equal the audited
//!    delivered partition for every seed.
//! 3. **memory** — the sketch state's fixed bytes against the exact state
//!    a batch job holds for the same answers.
//!
//! Every figure is a count (delivery, hashing, and chaos schedules are all
//! deterministic), so CI diffs the smoke run against a checked-in golden;
//! the full run persists `BENCH_stream.json`. What the tap costs a record
//! is the benchmark's `stream.fold_ns_per_record`.

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_scribe::message::LogEntry;
use uli_scribe::{run_chaos_tapped, ChaosConfig, PipelineConfig, ScribePipeline};
use uli_stream::{
    batch_reference, check_convergence, BatchSummary, StreamAnalytics, StreamConfig, StreamState,
    CHECKED_QUANTILES,
};
use uli_thrift::ThriftRecord;
use uli_workload::{DayStream, Scale, WorkloadConfig};

use crate::harness::Table;
use crate::{cells, Measured, Metrics};

/// Worker (shard) counts the lambda invariant is checked under.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// One checked quantile: streaming upper-bound estimate vs exact value.
pub struct QuantileDelta {
    /// Quantile in basis points (5000 = p50).
    pub q_bp: u32,
    /// Streaming log-linear sketch estimate.
    pub estimate: u64,
    /// Exact value from the batch payload sizes.
    pub exact: u64,
}

/// The full lambda measurement.
pub struct Measurements {
    /// Scale label of the generated day.
    pub scale: &'static str,
    /// Users in the day.
    pub users: u64,
    /// Records delivered to the speed layer (== batch records).
    pub records: u64,
    /// Decoded client events.
    pub events: u64,
    /// Hour windows that saw traffic.
    pub hours_with_traffic: u64,
    /// True when views at every entry of [`SHARD_COUNTS`] are identical.
    pub shard_invariant: bool,
    /// Exact aggregates matched batch byte-for-byte.
    pub exact_match: bool,
    /// Exact distinct logged-in users (batch).
    pub distinct_users_exact: u64,
    /// HLL estimate (streaming).
    pub distinct_users_est: u64,
    /// `|est − exact| / max(exact, 1)`.
    pub hll_rel_error: f64,
    /// HLL within its declared bound.
    pub hll_within_bound: bool,
    /// Largest trending-name over-count.
    pub topk_max_over: u64,
    /// The Count-Min additive bound `ε·total` for this stream.
    pub topk_error_bound: u64,
    /// Every trending estimate within `[true, true + bound]`.
    pub topk_within_bound: bool,
    /// Streaming vs exact at each checked quantile.
    pub quantiles: Vec<QuantileDelta>,
    /// Every checked quantile within the sketch contract.
    pub percentile_within_bound: bool,
    /// The lambda invariant, all shard counts.
    pub streaming_matches_batch: bool,
    /// Fixed sketch bytes per [`StreamState`].
    pub sketch_bytes: u64,
    /// Bytes of the streaming state's exact maps.
    pub stream_exact_bytes: u64,
    /// Bytes of the exact state a batch job holds for the same answers.
    pub batch_exact_bytes: u64,
    /// Chaos seeds swept.
    pub chaos_seeds: u64,
    /// Delivered records across the sweep (deterministic per seed).
    pub chaos_delivered: u64,
    /// Duplicates the mover squashed across the sweep.
    pub chaos_duplicates_merged: u64,
    /// Streaming totals equalled the delivered partition for every seed.
    pub chaos_reconciled: bool,
}

/// Delivers one generated day through the Scribe pipeline with a
/// speed-layer tap, hour by hour, and returns the analytics handle plus
/// the batch answer scanned back out of the landed main warehouse.
fn deliver_day(config: &WorkloadConfig, shards: usize) -> (StreamAnalytics, BatchSummary) {
    let mut pipe = ScribePipeline::new(PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        ..Default::default()
    });
    let analytics = StreamAnalytics::new(StreamConfig {
        shards,
        trending_k: 5,
    });
    pipe.add_delivery_tap(analytics.tap());
    let mut by_hour: Vec<Vec<(i64, Vec<u8>)>> = vec![Vec::new(); 24];
    for ev in DayStream::new(config, 0) {
        by_hour[ev.timestamp.hour_index() as usize].push((ev.user_id, ev.to_bytes()));
    }
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
        pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour as u64)
            .expect("all DCs sealed");
    }
    let batch = batch_reference(pipe.main_warehouse(), CLIENT_EVENTS_CATEGORY, 0..24)
        .expect("batch scan of the landed day");
    (analytics, batch)
}

/// Runs the lambda measurement over the default day with 16 chaos seeds,
/// or for a smoke run the pinned smoke day with 4, whose metrics CI
/// golden-diffs.
pub fn measure(smoke: bool) -> Measurements {
    let (scale, chaos_seeds) = if smoke {
        (Scale::Smoke, 4)
    } else {
        (Scale::Default, 16)
    };
    let config = scale.config();

    // Lambda convergence at each worker count; views must be identical.
    let mut views: Vec<StreamState> = Vec::new();
    let mut batch = BatchSummary::default();
    let mut hours_with_traffic = 0u64;
    for &shards in &SHARD_COUNTS {
        let (analytics, b) = deliver_day(&config, shards);
        hours_with_traffic = analytics.hours().len() as u64;
        views.push(analytics.running_view());
        batch = b;
    }
    let shard_invariant = views.windows(2).all(|w| w[0] == w[1]);
    let stream = views.pop().expect("at least one shard count");
    let c = check_convergence(&stream, &batch);

    let quantiles = CHECKED_QUANTILES
        .iter()
        .map(|&q_bp| QuantileDelta {
            q_bp,
            estimate: stream.payload_bytes().quantile_bp(q_bp).unwrap_or(0),
            exact: batch.payload_quantile_bp(q_bp).unwrap_or(0),
        })
        .collect();

    // Chaos reconciliation: deterministic per seed, so the totals are
    // golden-stable.
    let chaos_cfg = ChaosConfig::default();
    let mut chaos_delivered = 0u64;
    let mut chaos_duplicates_merged = 0u64;
    let mut chaos_reconciled = true;
    for seed in 0..chaos_seeds {
        let analytics = StreamAnalytics::new(StreamConfig::default());
        let o = run_chaos_tapped(seed, &chaos_cfg, analytics.tap());
        chaos_reconciled &= o.is_clean();
        chaos_reconciled &= analytics.running_view().records() == o.accounting.delivered;
        chaos_delivered += o.accounting.delivered;
        chaos_duplicates_merged += o.report.duplicates_merged;
    }

    Measurements {
        scale: scale.label(),
        users: config.users,
        records: stream.records(),
        events: stream.events(),
        hours_with_traffic,
        shard_invariant,
        exact_match: c.exact_match,
        distinct_users_exact: batch.distinct_users.len() as u64,
        distinct_users_est: stream.distinct_users_estimate(),
        hll_rel_error: c.hll_rel_error,
        hll_within_bound: c.hll_within_bound,
        topk_max_over: c.topk_max_over,
        topk_error_bound: stream.trending().cms().error_bound(),
        topk_within_bound: c.topk_within_bound,
        quantiles,
        percentile_within_bound: c.percentile_within_bound,
        streaming_matches_batch: c.streaming_matches_batch && shard_invariant,
        sketch_bytes: StreamState::sketch_cost_bytes(),
        stream_exact_bytes: stream.exact_cost_bytes(),
        batch_exact_bytes: batch.exact_cost_bytes(),
        chaos_seeds,
        chaos_delivered,
        chaos_duplicates_merged,
        chaos_reconciled,
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
        let mut out = format!(
            "E21 — lambda invariant at --scale {}: {} users, {} records through \
             the delivery tap across {} traffic hours\n\n",
            m.scale, m.users, m.records, m.hours_with_traffic
        );
        out.push_str(&format!(
            "views identical across workers {SHARD_COUNTS:?}: {}\n\
             exact aggregates match batch byte-for-byte: {}\n\n",
            m.shard_invariant, m.exact_match
        ));
        let mut t = Table::new(&["aggregate", "streaming", "batch (exact)", "within bound"]);
        t.row(cells![
            "distinct users (HLL)",
            format!(
                "{} (±{:.2}%)",
                m.distinct_users_est,
                m.hll_rel_error * 100.0
            ),
            m.distinct_users_exact,
            m.hll_within_bound
        ]);
        t.row(cells![
            "trending names (CM/TopK)",
            format!("max over-count {}", m.topk_max_over),
            format!("bound {}", m.topk_error_bound),
            m.topk_within_bound
        ]);
        for q in &m.quantiles {
            t.row(cells![
                format!("payload p{}", q.q_bp / 100),
                q.estimate,
                q.exact,
                m.percentile_within_bound
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nsketch state: {} B fixed vs {} B exact batch state \
             ({} B streaming exact maps)\n",
            m.sketch_bytes, m.batch_exact_bytes, m.stream_exact_bytes
        ));
        out.push_str(&format!(
            "chaos sweep: {} seeds, {} records delivered, {} duplicates \
             squashed, streaming == delivered partition: {}\n",
            m.chaos_seeds, m.chaos_delivered, m.chaos_duplicates_merged, m.chaos_reconciled
        ));
        out.push_str(&format!(
            "lambda invariant (streaming_matches_batch): {}\n",
            m.streaming_matches_batch
        ));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        vec![
            (
                "streaming views diverged across worker counts".into(),
                self.shard_invariant,
            ),
            (
                "streaming did not converge to batch".into(),
                self.streaming_matches_batch,
            ),
            (
                "a sketch left its declared error bound".into(),
                self.hll_within_bound && self.topk_within_bound && self.percentile_within_bound,
            ),
            (
                "chaos streaming totals diverged from the delivered partition".into(),
                self.chaos_reconciled,
            ),
        ]
    }

    fn metrics(&self, _smoke: bool) -> Metrics {
        let m = self;
        let quantiles: Vec<String> = m
            .quantiles
            .iter()
            .map(|q| {
                format!(
                    "    {{\"q_bp\": {}, \"estimate\": {}, \"exact\": {}}}",
                    q.q_bp, q.estimate, q.exact
                )
            })
            .collect();
        let body = format!(
            "  \"scale\": \"{}\",\n  \"users\": {},\n  \"records\": {},\n  \
             \"events\": {},\n  \"hours_with_traffic\": {},\n  \
             \"shard_counts\": [1, 4, 8],\n  \"shard_invariant\": {},\n  \
             \"exact_match\": {},\n  \"distinct_users_exact\": {},\n  \
             \"distinct_users_est\": {},\n  \"hll_rel_error\": {:.4},\n  \
             \"hll_within_bound\": {},\n  \"topk_max_over\": {},\n  \
             \"topk_error_bound\": {},\n  \"topk_within_bound\": {},\n  \
             \"quantiles\": [\n{}\n  ],\n  \"percentile_within_bound\": {},\n  \
             \"sketch_bytes\": {},\n  \"stream_exact_bytes\": {},\n  \
             \"batch_exact_bytes\": {},\n  \"chaos_seeds\": {},\n  \
             \"chaos_delivered\": {},\n  \"chaos_duplicates_merged\": {},\n  \
             \"chaos_reconciled\": {},\n  \"streaming_matches_batch\": {}",
            m.scale,
            m.users,
            m.records,
            m.events,
            m.hours_with_traffic,
            m.shard_invariant,
            m.exact_match,
            m.distinct_users_exact,
            m.distinct_users_est,
            m.hll_rel_error,
            m.hll_within_bound,
            m.topk_max_over,
            m.topk_error_bound,
            m.topk_within_bound,
            quantiles.join(",\n"),
            m.percentile_within_bound,
            m.sketch_bytes,
            m.stream_exact_bytes,
            m.batch_exact_bytes,
            m.chaos_seeds,
            m.chaos_delivered,
            m.chaos_duplicates_merged,
            m.chaos_reconciled,
            m.streaming_matches_batch,
        );
        Metrics {
            experiment: Some("stream"),
            schema: "uli-stream-v1",
            body,
            bench_file: "BENCH_stream.json",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_lambda_invariant_holds() {
        let m = measure(true);
        crate::tests::assert_smoke_run(&m);
        assert_eq!(m.scale, "smoke");
        assert_eq!(m.users, 120);
        // The pinned generator goldens fix the smoke day exactly.
        assert_eq!(m.records, 2657);
        assert_eq!(m.records, m.events, "generated payloads all decode");
        assert!(m.shard_invariant, "views diverged across shard counts");
        assert!(m.exact_match);
        assert!(m.hll_within_bound, "hll error {}", m.hll_rel_error);
        assert!(m.topk_within_bound);
        assert!(m.percentile_within_bound);
        assert!(m.streaming_matches_batch);
        assert!(m.chaos_reconciled);
        assert!(m.chaos_delivered > 0, "chaos sweep delivered nothing");
        assert!(
            m.sketch_bytes < m.batch_exact_bytes * 8,
            "sketch state should be the same order as (or smaller than) \
             exact state even on a tiny day: {} vs {}",
            m.sketch_bytes,
            m.batch_exact_bytes
        );
    }
}
