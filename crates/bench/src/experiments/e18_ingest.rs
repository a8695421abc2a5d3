//! E18 — ingest fast path: Scribe message batching + streaming block
//! compression.
//!
//! The paper's ingest tier lives or dies on per-message overhead: "Scribe
//! daemons ... aggregate service logs from each production host" (§2), and
//! at Twitter's volumes every RPC and every allocation on that path is paid
//! hundreds of millions of times a day. This experiment ablates the batched
//! fast path along two axes:
//!
//! 1. **Batching** — one network message per entry (the legacy path) versus
//!    size/count-bounded batches at 8, 32, and 128 records.
//! 2. **Compression** — the landed day's bytes replayed through both the
//!    one-shot [`compress`] function and the streaming [`Compressor`] the
//!    writer uses, asserting byte-identical output.
//!
//! The headline gate is *safety*: the landed warehouse files must be
//! byte-identical at every batch setting (batching may only change how
//! entries share network messages, never what lands), and the streaming
//! compressor must match one-shot compression bit for bit. The headline
//! *numbers* are the cost-model counters: network messages, wire bytes, and
//! encode-allocation bytes.

use uli_core::session::day_dir;
use uli_scribe::pipeline::PipelineConfig;
use uli_scribe::{BatchPolicy, LogEntry, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_warehouse::compress::{compress, Compressor};
use uli_workload::{generate_day, WorkloadConfig};

use crate::harness::Table;
use crate::{cells, Measured, Metrics};

/// Replay block size for the streaming-vs-one-shot comparison, roughly the
/// warehouse's block granularity.
const REPLAY_BLOCK_BYTES: usize = 16 * 1024;

/// One fault-free ingest day at a fixed batch policy.
pub struct IngestSample {
    /// Human-readable policy name (`unbatched`, `batch-8`, ...).
    pub label: String,
    /// The policy's record cap.
    pub max_records: usize,
    /// Entries logged on production hosts.
    pub logged: u64,
    /// Entries merged into the main warehouse.
    pub moved: u64,
    /// Network messages the topology paid (every `send_batch`, including
    /// host→aggregator and any retries).
    pub network_messages: u64,
    /// Encoded bytes those messages carried.
    pub wire_bytes: u64,
    /// Batches acked daemon-side.
    pub batches_sent: u64,
    /// Mean entries per acked batch.
    pub avg_batch: f64,
    /// Send attempts beyond the first (zero in this fault-free plan).
    pub retried: u64,
    /// Cost model: encode allocation bytes on the legacy path — one fresh
    /// `Vec` per record, so the sum of landed record-envelope lengths.
    pub enc_alloc_legacy: u64,
    /// Cost model: encode allocation bytes with the reused scratch buffer —
    /// the buffer grows to the largest envelope once per landed file.
    pub enc_alloc_scratch: u64,
    /// Uncompressed bytes replayed through both compressors.
    pub compress_bytes_in: u64,
    /// Blocks sealed during the replay.
    pub compress_blocks: u64,
    /// Compressed output of the streaming replay.
    pub compress_bytes_out: u64,
    /// True when every replayed block compressed identically both ways.
    pub streaming_matches_oneshot: bool,
    /// The landed day, as `(path, records)` pairs — the byte-identity gate.
    pub files: Vec<(String, Vec<Vec<u8>>)>,
}

/// The full ablation.
pub struct Measurements {
    /// Samples in grid order; the first is the unbatched baseline.
    pub samples: Vec<IngestSample>,
    /// True when every setting landed files byte-identical to the baseline.
    pub landed_identical: bool,
    /// True when the streaming compressor matched one-shot everywhere.
    pub streaming_matches_oneshot: bool,
}

/// The ablation grid: the unbatched baseline plus three batch sizes under
/// the default 32 KiB byte cap.
fn grid() -> Vec<(String, BatchPolicy)> {
    let mut settings = vec![("unbatched".to_string(), BatchPolicy::unbatched())];
    for records in [8usize, 32, 128] {
        settings.push((
            format!("batch-{records}"),
            BatchPolicy {
                max_records: records,
                ..BatchPolicy::default()
            },
        ));
    }
    settings
}

/// Drives one fault-free day end to end and collects the cost counters plus
/// the landed files.
fn run_once(users: u64, label: &str, batch: BatchPolicy) -> IngestSample {
    let config = PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        batch,
        ..Default::default()
    };
    let day = generate_day(
        &WorkloadConfig {
            users,
            ..Default::default()
        },
        0,
    );
    let mut pipe = ScribePipeline::new(config);
    for hour in 0..24u64 {
        for (i, ev) in day
            .events
            .iter()
            .filter(|e| e.timestamp.hour_index() == hour)
            .enumerate()
        {
            let dc = (ev.user_id as usize) % config.datacenters;
            pipe.log(
                dc,
                i % config.hosts_per_dc,
                LogEntry::new("client_events", ev.to_bytes()),
            );
        }
        pipe.step();
        pipe.flush_hour(hour);
        pipe.seal_hour("client_events", hour);
        pipe.move_hour("client_events", hour)
            .expect("fault-free day: every hour moves");
    }
    let report = pipe.report();
    let (network_messages, wire_bytes) = pipe.network().message_cost();

    let wh = pipe.main_warehouse();
    let mut files = Vec::new();
    for path in wh
        .list_files_recursive(&day_dir("client_events", 0))
        .expect("day landed")
    {
        let records = wh
            .open(&path)
            .expect("file")
            .read_all()
            .expect("clean read");
        files.push((path.as_str().to_string(), records));
    }

    // Encode-allocation cost model, from measured byte totals: the legacy
    // aggregator allocated one envelope Vec per record; the scratch path
    // reuses one buffer per file, which grows to the largest envelope.
    let mut enc_alloc_legacy = 0u64;
    let mut enc_alloc_scratch = 0u64;
    for (_, records) in &files {
        enc_alloc_legacy += records.iter().map(|r| r.len() as u64).sum::<u64>();
        enc_alloc_scratch += records.iter().map(|r| r.len() as u64).max().unwrap_or(0);
    }

    // Replay the landed bytes through both compressors at block granularity:
    // the streaming compressor is fed record by record (as the writer feeds
    // it) and must seal blocks byte-identical to one-shot compression of the
    // concatenated payload.
    let mut streaming = Compressor::new();
    let mut payload = Vec::new();
    let mut compress_bytes_in = 0u64;
    let mut compress_blocks = 0u64;
    let mut compress_bytes_out = 0u64;
    let mut streaming_matches_oneshot = true;
    let mut seal = |streaming: &mut Compressor, payload: &mut Vec<u8>| {
        let stream_block = streaming.finish_block();
        streaming_matches_oneshot &= stream_block == compress(payload);
        compress_bytes_in += payload.len() as u64;
        compress_bytes_out += stream_block.len() as u64;
        compress_blocks += 1;
        payload.clear();
    };
    for (_, records) in &files {
        for record in records {
            streaming.write(record);
            payload.extend_from_slice(record);
            if payload.len() >= REPLAY_BLOCK_BYTES {
                seal(&mut streaming, &mut payload);
            }
        }
    }
    if !payload.is_empty() {
        seal(&mut streaming, &mut payload);
    }

    IngestSample {
        label: label.to_string(),
        max_records: batch.max_records,
        logged: report.logged,
        moved: report.moved,
        network_messages,
        wire_bytes,
        batches_sent: report.batches_sent,
        avg_batch: report.logged as f64 / report.batches_sent.max(1) as f64,
        retried: report.retried,
        enc_alloc_legacy,
        enc_alloc_scratch,
        compress_bytes_in,
        compress_blocks,
        compress_bytes_out,
        streaming_matches_oneshot,
        files,
    }
}

/// Runs the ablation over a 300-user day, or for a smoke run the 120-user
/// day whose metrics CI golden-diffs.
pub fn measure(smoke: bool) -> Measurements {
    let users = if smoke { 120 } else { 300 };
    let samples: Vec<IngestSample> = grid()
        .into_iter()
        .map(|(label, batch)| run_once(users, &label, batch))
        .collect();
    let landed_identical = samples.iter().all(|s| s.files == samples[0].files);
    let streaming_matches_oneshot = samples.iter().all(|s| s.streaming_matches_oneshot);
    Measurements {
        samples,
        landed_identical,
        streaming_matches_oneshot,
    }
}

impl Measured for Measurements {
    fn render(&self) -> String {
        let m = self;
        let mut out = String::from(
            "E18 — ingest fast path: message batching x streaming compression;\n\
             fault-free day, landed files gated byte-identical across settings\n\n",
        );
        let mut t = Table::new(&[
            "policy",
            "logged",
            "messages",
            "wire-bytes",
            "avg-batch",
            "alloc-legacy",
            "alloc-scratch",
            "compress-in",
            "compress-out",
        ]);
        for s in &m.samples {
            t.row(cells![
                s.label,
                s.logged,
                s.network_messages,
                s.wire_bytes,
                format!("{:.1}", s.avg_batch),
                s.enc_alloc_legacy,
                s.enc_alloc_scratch,
                s.compress_bytes_in,
                s.compress_bytes_out
            ]);
        }
        out.push_str(&t.render());
        let base = &m.samples[0];
        let batched = &m.samples[m.samples.len() - 1];
        out.push_str(&format!(
            "\nlanded files byte-identical across all settings: {}\n\
             streaming compressor matches one-shot: {}\n\
             messages: {} -> {} ({:.1}x fewer at {})\n\
             encode allocation bytes (cost model): {} -> {} ({:.1}x fewer)\n",
            m.landed_identical,
            m.streaming_matches_oneshot,
            base.network_messages,
            batched.network_messages,
            base.network_messages as f64 / batched.network_messages.max(1) as f64,
            batched.label,
            base.enc_alloc_legacy,
            base.enc_alloc_scratch,
            base.enc_alloc_legacy as f64 / base.enc_alloc_scratch.max(1) as f64,
        ));
        out
    }

    fn gates(&self) -> Vec<(String, bool)> {
        vec![
            (
                "batching changed the landed warehouse bytes".into(),
                self.landed_identical,
            ),
            (
                "streaming compression diverged from one-shot".into(),
                self.streaming_matches_oneshot,
            ),
        ]
    }

    fn metrics(&self, _smoke: bool) -> Metrics {
        let m = self;
        let mut rows = Vec::new();
        for s in &m.samples {
            rows.push(format!(
                "    {{\"policy\": \"{}\", \"max_records\": {}, \"logged\": {}, \
                 \"moved\": {}, \"network_messages\": {}, \"wire_bytes\": {}, \
                 \"batches_sent\": {}, \"avg_batch\": {:.2}, \"retried\": {}, \
                 \"enc_alloc_legacy\": {}, \"enc_alloc_scratch\": {}, \
                 \"compress_bytes_in\": {}, \"compress_blocks\": {}, \
                 \"compress_bytes_out\": {}}}",
                s.label,
                s.max_records,
                s.logged,
                s.moved,
                s.network_messages,
                s.wire_bytes,
                s.batches_sent,
                s.avg_batch,
                s.retried,
                s.enc_alloc_legacy,
                s.enc_alloc_scratch,
                s.compress_bytes_in,
                s.compress_blocks,
                s.compress_bytes_out,
            ));
        }
        let base = &m.samples[0];
        let batched = &m.samples[m.samples.len() - 1];
        let body = format!(
            "  \"landed_identical\": {},\n  \"streaming_matches_oneshot\": {},\n  \
             \"message_reduction\": {:.2},\n  \"alloc_reduction\": {:.2},\n  \
             \"samples\": [\n{}\n  ]",
            m.landed_identical,
            m.streaming_matches_oneshot,
            base.network_messages as f64 / batched.network_messages.max(1) as f64,
            base.enc_alloc_legacy as f64 / base.enc_alloc_scratch.max(1) as f64,
            rows.join(",\n"),
        );
        Metrics {
            experiment: Some("ingest"),
            schema: "uli-ingest-v1",
            body,
            bench_file: "BENCH_ingest.json",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_reduces_cost_without_changing_landed_bytes() {
        let m = measure(true);
        crate::tests::assert_smoke_run(&m);
        assert!(
            m.landed_identical,
            "batching must not change what lands in the warehouse"
        );
        assert!(
            m.streaming_matches_oneshot,
            "streaming compression must be byte-identical to one-shot"
        );
        let base = &m.samples[0];
        assert_eq!(base.label, "unbatched");
        assert_eq!(
            base.network_messages, base.logged,
            "the unbatched baseline pays one message per entry"
        );
        for s in &m.samples[1..] {
            assert!(
                s.network_messages < base.network_messages / 2,
                "{}: {} messages vs baseline {}",
                s.label,
                s.network_messages,
                base.network_messages
            );
            assert!(s.wire_bytes < base.wire_bytes, "{}", s.label);
            assert_eq!(s.logged, base.logged);
            assert_eq!(s.moved, base.moved);
            assert!(s.avg_batch > 2.0, "{}: avg {}", s.label, s.avg_batch);
        }
        // Bigger caps mean fewer messages, monotonically.
        for pair in m.samples.windows(2) {
            assert!(pair[1].network_messages <= pair[0].network_messages);
        }
        assert!(
            base.enc_alloc_scratch * 8 < base.enc_alloc_legacy,
            "scratch reuse must cut encode allocations by >8x (got {} vs {})",
            base.enc_alloc_scratch,
            base.enc_alloc_legacy
        );
    }
}
