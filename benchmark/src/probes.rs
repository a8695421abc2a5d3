//! Kernel probes: single functions of one layer replayed on the run's own
//! bytes, outside the pipeline, each looped until it has run for
//! [`PROBE_SECONDS`]. Traced runs only. A probe explains a movement of an
//! end-to-end metric — it says whether the codec, the compressor or the
//! column decoder got faster — and gates nothing.

use std::hint::black_box;

use uli_core::columnar::DEFAULT_ROWS_PER_GROUP;
use uli_core::session::day_dir;
use uli_core::{write_client_events_columnar, ClientEvent, Sessionizer};
use uli_scribe::message::LogEntry;
use uli_scribe::{staged, EntryId, MessageBatch};
use uli_serve::hour::load_hour_index;
use uli_serve::IndexMaintainer;
use uli_thrift::ThriftRecord;
use uli_warehouse::compress::{decompress, Compressor};
use uli_warehouse::{ColumnarFile, Warehouse, WhPath};

use crate::input::Day;
use crate::phases::{timed, Ctx, Delivered, CATEGORY};

/// How long each probe loops, at least.
const PROBE_SECONDS: f64 = 1.0;
/// Records per batch, the daemons' default `BatchPolicy::max_records`.
const BATCH_RECORDS: usize = 32;
/// Block size the compressor probe cuts the payload stream into.
const COMPRESS_BLOCK: usize = 64 * 1024;
/// Records per columnar file, the pipeline's `records_per_file`.
const FILE_RECORDS: usize = 10_000;

/// Repeats `pass` until it has run for [`PROBE_SECONDS`]; returns seconds per
/// pass and what the last pass returned. `prepare` makes each pass's input,
/// untimed. The span covers the whole loop.
fn looped_with<I, O>(
    ctx: &mut Ctx<'_>,
    layer: &'static str,
    name: &'static str,
    mut prepare: impl FnMut() -> I,
    mut pass: impl FnMut(I) -> O,
) -> (f64, O) {
    let span = ctx.tracer.span(layer, name);
    let mut spent = 0.0;
    let mut passes = 0u32;
    let last = loop {
        let input = prepare();
        let (out, secs) = timed(|| pass(input));
        spent += secs;
        passes += 1;
        if spent >= PROBE_SECONDS {
            break out;
        }
    };
    span.end(u64::from(passes), 0);
    (spent / f64::from(passes), last)
}

fn looped(ctx: &mut Ctx<'_>, layer: &'static str, name: &'static str, pass: impl FnMut()) -> f64 {
    let mut pass = pass;
    looped_with(ctx, layer, name, || (), |()| pass()).0
}

/// Probes over the day's payload bytes: wire and staged codecs, Thrift
/// decode, columnar encode, block compression, the sessionizer.
pub fn kernel_probes(ctx: &mut Ctx<'_>, day: &Day) {
    let payloads: Vec<&[u8]> = day
        .hours
        .iter()
        .flatten()
        .map(|l| l.payload.as_slice())
        .collect();
    let n = payloads.len() as f64;
    let per_record = |secs: f64| secs * 1e9 / n;

    let batches: Vec<MessageBatch> = payloads
        .chunks(BATCH_RECORDS)
        .map(|chunk| {
            let mut batch = MessageBatch::new();
            for p in chunk {
                batch.push(LogEntry::new(CATEGORY, p.to_vec()));
            }
            batch
        })
        .collect();
    let secs = looped(ctx, "scribe", "scribe.batch_codec", || {
        for batch in &batches {
            black_box(MessageBatch::decode(black_box(&batch.encode())));
        }
    });
    ctx.push("scribe.batch_codec_ns_per_record", per_record(secs));
    drop(batches);

    let mut framed = Vec::new();
    let secs = looped(ctx, "scribe", "scribe.staged_codec", || {
        for (seq, p) in payloads.iter().enumerate() {
            framed.clear();
            let id = EntryId {
                host: 1,
                seq: seq as u64,
            };
            staged::encode_into(Some(id), p, &mut framed);
            black_box(staged::decode(black_box(&framed)));
        }
    });
    ctx.push("scribe.staged_codec_ns_per_record", per_record(secs));

    let secs = looped(ctx, "thrift", "thrift.decode", || {
        for p in &payloads {
            black_box(ClientEvent::from_bytes(black_box(p)).is_ok());
        }
    });
    ctx.push("thrift.decode_ns_per_record", per_record(secs));

    let events: Vec<ClientEvent> = payloads
        .iter()
        .filter_map(|p| ClientEvent::from_bytes(p).ok())
        .collect();
    let path = |i: usize| WhPath::parse(&format!("/probe/part-{i:05}")).expect("static path");
    let secs = looped(ctx, "core", "core.columnar_encode", || {
        let scratch = Warehouse::new();
        for (i, chunk) in events.chunks(FILE_RECORDS).enumerate() {
            let written = write_client_events_columnar(
                &scratch,
                &path(i),
                chunk,
                true,
                DEFAULT_ROWS_PER_GROUP,
            );
            black_box(written.is_ok());
        }
    });
    ctx.push("core.columnar_encode_ns_per_record", per_record(secs));

    let stream: Vec<u8> = payloads.concat();
    let mb = stream.len() as f64 / 1e6;
    let mut compressor = Compressor::new();
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let secs = looped(ctx, "warehouse", "warehouse.compress", || {
        blocks.clear();
        for block in stream.chunks(COMPRESS_BLOCK) {
            compressor.write(black_box(block));
            blocks.push(compressor.finish_block());
        }
    });
    ctx.push("warehouse.compress_mb_per_s", mb / secs);
    let compressed: usize = blocks.iter().map(Vec::len).sum();
    ctx.push(
        "warehouse.compress_ratio",
        stream.len() as f64 / compressed.max(1) as f64,
    );
    let secs = looped(ctx, "warehouse", "warehouse.decompress", || {
        for block in &blocks {
            black_box(decompress(black_box(block)).is_some());
        }
    });
    ctx.push("warehouse.decompress_mb_per_s", mb / secs);

    // The sessionizer consumes its input: each pass gets a copy made before
    // the pass is timed.
    let (secs, _) = looped_with(
        ctx,
        "core",
        "core.sessionize",
        || events.clone(),
        |events| black_box(Sessionizer::new().sessionize(events).len()),
    );
    ctx.push("core.sessionize_ns_per_record", per_record(secs));
}

/// Probes over a delivered warehouse: raw row-group reads, index decode,
/// and the serving layer's restart path.
pub fn storage_probes(ctx: &mut Ctx<'_>, day: &Day, d: &Delivered) {
    let wh = d.warehouse();
    let n = day.records as f64;
    let mut files = wh
        .list_files_recursive(&day_dir(CATEGORY, 0))
        .unwrap_or_default();
    files.sort();
    for (name, metric, name_only) in [
        (
            "warehouse.read_group",
            "warehouse.read_group_ns_per_record",
            false,
        ),
        (
            "warehouse.read_group_name_only",
            "warehouse.read_group_name_only_ns_per_record",
            true,
        ),
    ] {
        // Cold on purpose: a warm pass would be served decoded chunks from
        // the cache and measure neither decompress nor decode.
        let (secs, rows) = looped_with(
            ctx,
            "warehouse",
            name,
            || wh.clear_cache(),
            |()| {
                let mut rows = 0u64;
                for f in &files {
                    let Ok(file) = ColumnarFile::open(wh, f) else {
                        continue;
                    };
                    let projection: Vec<bool> = (0..file.columns())
                        .map(|c| !name_only || c == uli_core::columnar::NAME_COLUMN)
                        .collect();
                    for g in 0..file.group_count() {
                        if let Ok(group) = file.read_group(g, &projection) {
                            rows += group.rows() as u64;
                        }
                    }
                }
                rows
            },
        );
        ctx.tally.check(rows == day.records, 1, || {
            format!("{name} read {rows} rows of {}", day.records)
        });
        ctx.push(metric, secs * 1e9 / n);
    }

    let hours = day.traffic_hours.len().max(1) as f64;
    let secs = looped(ctx, "serve", "serve.index_decode", || {
        for &hour in &day.traffic_hours {
            black_box(load_hour_index(wh, CATEGORY, hour).is_ok_and(|i| i.is_some()));
        }
    });
    ctx.push("serve.index_decode_ns_per_hour", secs * 1e9 / hours);

    let secs = looped(ctx, "serve", "serve.recover", || {
        let restarted = IndexMaintainer::new(wh.clone(), CATEGORY);
        black_box(restarted.recover().is_ok());
    });
    ctx.push("serve.recover_s", secs);
}
