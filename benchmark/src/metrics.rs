//! The metric tables — the single source of `BENCHMARK.json` — and the
//! recorder that keeps round samples until the report takes their medians.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The gated end-to-end metrics: `end_to_end` in `BENCHMARK.json`, reported
/// by every untraced run of every workload. The contract holds each of them
/// to its bound on every workload, so only metrics every workload measures
/// at full size, and that repeat, can stand here (see `README.md`).
pub const END_TO_END: &[MetricDef] = &[
    // The contract asks for the set-up time to carry the largest bound.
    gated("setup_s", "s", Lower, 0.25),
    gated("stored_bytes_per_record", "bytes", Lower, 0.01),
    // Exact for a seed, but the driver varies the seed: 1 % apart by quartile.
    gated("index_bytes_per_record", "bytes", Lower, 0.03),
    gated("peak_rss_mb", "MB", Lower, 0.10),
];

/// The end-to-end timings of ISSUE 12, each measured by one workload over
/// the whole day and printed by its untraced run. Not gated: on the
/// reference host none repeats within half a 10 % bound, and a workload
/// whose phase does not produce one could only report it from a probe day.
/// In `BENCHMARK.json` they lead `per_layer`.
pub const UNGATED: &[MetricDef] = &[
    layer("deliver_rps", "records/s", Higher),
    layer("materialize_ns_per_record", "ns/record", Lower),
    layer("query_suite_ns_per_record", "ns/record", Lower),
    layer("selective_ns_per_record", "ns/record", Lower),
    layer("sequence_suite_ns_per_session", "ns/session", Lower),
    layer("lookup_rps", "lookups/s", Higher),
    layer("user_events_p50_us", "us", Lower),
    layer("sessions_p50_ms", "ms", Lower),
    layer("cycle_rps", "records/s", Higher),
    layer("hour_to_answer_p50_s", "s", Lower),
];

/// Single layers, from the traced run. No bounds: they explain a movement of
/// an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up: the generator and the client-side Thrift encode.
    layer("workload.generate_ns_per_record", "ns/record", Lower),
    layer("thrift.encode_ns_per_record", "ns/record", Lower),
    // Delivery: self time of each call into the Scribe tier, per record.
    layer("scribe.log_ns_per_record", "ns/record", Lower),
    layer("scribe.step_ns_per_record", "ns/record", Lower),
    layer("scribe.flush_ns_per_record", "ns/record", Lower),
    layer("scribe.seal_ns_per_hour", "ns/hour", Lower),
    layer("scribe.move_self_ns_per_record", "ns/record", Lower),
    layer("serve.index_build_ns_per_record", "ns/record", Lower),
    layer("stream.fold_ns_per_record", "ns/record", Lower),
    // Delivery: counts at the same boundaries, exact per seed.
    layer("scribe.batches_sent", "count", Lower),
    layer("scribe.network_messages", "count", Lower),
    layer("scribe.wire_bytes_per_record", "bytes", Lower),
    layer("scribe.staged_decode_bytes_per_record", "bytes", Lower),
    layer("scribe.land_encode_bytes_per_record", "bytes", Lower),
    layer("scribe.input_files", "count", Lower),
    layer("scribe.output_files", "count", Lower),
    layer("scribe.duplicates", "count", Lower),
    layer(
        "warehouse.stored_uncompressed_bytes_per_record",
        "bytes",
        Lower,
    ),
    layer("serve.build_decoded_bytes_per_record", "bytes", Lower),
    // Delivery kernels replayed on the same bytes outside the pipeline.
    layer("scribe.batch_codec_ns_per_record", "ns/record", Lower),
    layer("scribe.staged_codec_ns_per_record", "ns/record", Lower),
    layer("thrift.decode_ns_per_record", "ns/record", Lower),
    layer("core.columnar_encode_ns_per_record", "ns/record", Lower),
    layer("warehouse.compress_mb_per_s", "MB/s", Higher),
    layer("warehouse.decompress_mb_per_s", "MB/s", Higher),
    layer("warehouse.compress_ratio", "ratio", Higher),
    // One delivery pass with two mover workers; gates nothing.
    layer("scribe.move_w2_ns_per_record", "ns/record", Lower),
    layer("deliver.rps_w2", "records/s", Higher),
    // Nightly batch: the materializer's two passes and its sessionizer.
    layer("core.build_dictionary_ns_per_record", "ns/record", Lower),
    layer(
        "core.materialize_sequences_ns_per_record",
        "ns/record",
        Lower,
    ),
    layer("core.sessionize_ns_per_record", "ns/record", Lower),
    // Nightly batch: the query engine, cold cache unless named warm.
    layer(
        "dataflow.q_events_per_user_ns_per_record",
        "ns/record",
        Lower,
    ),
    layer(
        "dataflow.q_sketch_by_name_ns_per_record",
        "ns/record",
        Lower,
    ),
    layer("dataflow.q_top20_ns_per_record", "ns/record", Lower),
    layer("dataflow.scan_mb_per_s", "MB/s", Higher),
    layer("dataflow.q_selective_hit_ns_per_record", "ns/record", Lower),
    layer(
        "dataflow.q_selective_miss_ns_per_record",
        "ns/record",
        Lower,
    ),
    layer(
        "dataflow.q_selective_warm_ns_per_record",
        "ns/record",
        Lower,
    ),
    // Nightly batch: warehouse counters over a round's three timed queries.
    layer("warehouse.blocks_read", "count", Lower),
    layer("warehouse.blocks_skipped", "count", Higher),
    layer("warehouse.compressed_bytes_read", "bytes", Lower),
    layer("warehouse.uncompressed_bytes_read", "bytes", Lower),
    layer("warehouse.cache_hits", "count", Higher),
    layer("warehouse.cache_misses", "count", Lower),
    layer("warehouse.records_skipped_by_predicate", "count", Higher),
    layer("dataflow.shuffle_records", "count", Lower),
    // Decompress + column decode with no operator above it.
    layer("warehouse.read_group_ns_per_record", "ns/record", Lower),
    layer(
        "warehouse.read_group_name_only_ns_per_record",
        "ns/record",
        Lower,
    ),
    // Session-sequence suite.
    layer(
        "analytics.load_sequences_ns_per_session",
        "ns/session",
        Lower,
    ),
    layer("analytics.funnel_ns_per_session", "ns/session", Lower),
    layer("analytics.count_ns_per_session", "ns/session", Lower),
    // Interactive reads: tails, the index-only classes, work per lookup.
    layer("serve.user_events_p99_us", "us", Lower),
    layer("serve.sessions_p99_ms", "ms", Lower),
    layer("serve.count_p50_us", "us", Lower),
    layer("serve.top_names_p50_us", "us", Lower),
    layer("serve.user_events_decoded_bytes_per_lookup", "bytes", Lower),
    layer("serve.user_events_groups_read_per_lookup", "count", Lower),
    layer(
        "serve.user_events_groups_pruned_per_lookup",
        "count",
        Higher,
    ),
    layer("serve.user_events_files_visited_per_lookup", "count", Lower),
    layer("serve.sessions_decoded_bytes_per_lookup", "bytes", Lower),
    layer("serve.sessions_groups_read_per_lookup", "count", Lower),
    layer("serve.sessions_groups_pruned_per_lookup", "count", Higher),
    layer("serve.sessions_files_visited_per_lookup", "count", Lower),
    layer("warehouse.lookup_cache_hit_rate", "ratio", Higher),
    layer("serve.index_decode_ns_per_hour", "ns/hour", Lower),
    layer("serve.recover_s", "s", Lower),
    // Split of hour_to_answer_p50_s.
    layer("cycle.deliver_s_per_hour_p50", "s", Lower),
    layer("cycle.answer_s_per_hour_p50", "s", Lower),
    layer("stream.hour_view_ns", "ns", Lower),
    layer("dataflow.hourly_count_ns_per_record", "ns/record", Lower),
    // The trace itself: the workload's headline metric traced against
    // untraced in the same process, and the rounds' wall time that no layer
    // span covers.
    layer("trace_overhead_pct", "%", Lower),
    layer("trace.residual_pct", "%", Lower),
];

/// The end-to-end metrics that are exact for a seed: sizes, no clock. Two
/// runs at one seed must report them identically.
pub const EXACT: &[&str] = &["stored_bytes_per_record", "index_bytes_per_record"];

/// Round samples by metric name.
#[derive(Default)]
pub struct Recorder {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|v| Summary::of(v))
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above and the
/// workload list so the file cannot drift from the program.
pub fn manifest(run_seconds: u32, workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        workloads
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound.expect("end-to-end metrics are bounded")
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        UNGATED
            .iter()
            .chain(PER_LAYER)
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&(UNGATED.len() + PER_LAYER.len())));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(UNGATED).chain(PER_LAYER) {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        for name in EXACT {
            assert!(END_TO_END.iter().any(|m| m.name == *name), "{name}");
        }
        assert_eq!(END_TO_END.len() + UNGATED.len(), 14);
    }
}
