//! Pinned bytes of a delivered day.
//!
//! The 120-user smoke day goes through the E22/E23 pipeline shape — two
//! datacenters, the client-event columnar landing, the serve index and the
//! stream fold riding the mover's delivery tap — and everything the
//! delivery leaves behind is digested against constants recorded from the
//! writer as it stood when this test was added: every landed file (block
//! streams and zone maps), every `hour.idx`, the mover's seen-set snapshot
//! and the merged stream views. A write-path change that moves a single
//! landed byte, at any worker count, fails here.
//!
//! The second shape cuts the same day into 40-record files of 16-row
//! groups and slips an undecodable payload into every traffic hour, so
//! multi-file hours, multi-group files, the `-rows` sibling and the
//! stream's malformed count are pinned too.
//!
//! Beside the bytes, what the bytes *decode to* is pinned: every landed
//! row at full width through the one row view, in scan order, with the
//! visit's `(events, skipped)`, and the dictionary and samples the nightly
//! materializer derives from them. A format change re-pins the byte
//! digests; these must not move.

use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::columnar::{for_each_event_row, ALL_COLUMNS};
use uli_core::session::{dictionary_dir, Materializer};
use uli_core::ClientEventLanding;
use uli_scribe::message::LogEntry;
use uli_scribe::{PipelineConfig, ScribePipeline};
use uli_serve::hour::index_dir;
use uli_serve::IndexMaintainer;
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{
    fnv1a64_fold, HourlyPartition, Parallelism, ScanFile, Warehouse, WhPath, FNV1A64_OFFSET,
};
use uli_workload::{DayStream, Scale};

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a64_fold(h, &v.to_le_bytes())
}

/// Every file under `dir`, in path order: its path, its block streams and
/// each block's zone map.
fn dir_digest(wh: &Warehouse, dir: &WhPath) -> u64 {
    let mut files = wh.list_files_recursive(dir).expect("directory exists");
    files.sort();
    let mut h = fold_u64(FNV1A64_OFFSET, files.len() as u64);
    for file in &files {
        h = fnv1a64_fold(h, file.as_str().as_bytes());
        h = fold_u64(h, wh.file_digest(file).expect("file digests"));
        let blocks = wh.open_blocks(file).expect("file opens");
        for b in 0..blocks.block_count() {
            match blocks.zone_map(b) {
                Some(z) => {
                    for v in [z.min_key as u64, z.max_key as u64, z.tag_bits, z.records] {
                        h = fold_u64(h, v);
                    }
                }
                None => h = fold_u64(h, u64::MAX),
            }
        }
    }
    h
}

/// Every row of every file under `dir`, in scan order, at full width: the
/// seven columns as the event they make encodes, then what the visit of
/// each file counted.
fn rows_digest(wh: &Warehouse, dir: &WhPath) -> u64 {
    let mut files = wh.list_files_recursive(dir).expect("directory exists");
    files.sort();
    let mut h = FNV1A64_OFFSET;
    for path in &files {
        let file = ScanFile::open(wh, path).expect("landed file opens");
        let (events, skipped) =
            for_each_event_row(&file, 0..file.units(), ALL_COLUMNS, |_, row| {
                h = fnv1a64_fold(h, &row.to_event()?.to_bytes());
                Ok(())
            })
            .expect("landed file scans");
        h = fold_u64(fold_u64(h, events), skipped);
    }
    h
}

/// The order-invariant content of a merged stream view.
fn view_digest(view: &StreamState) -> u64 {
    let mut h = FNV1A64_OFFSET;
    for v in [view.records(), view.events(), view.malformed()] {
        h = fold_u64(h, v);
    }
    for map in [view.by_name(), view.by_client()] {
        for (key, count) in map {
            h = fnv1a64_fold(h, key.as_bytes());
            h = fold_u64(h, *count);
        }
    }
    h = fnv1a64_fold(h, &view.users().to_bytes());
    h = fnv1a64_fold(h, &view.trending().to_bytes());
    fnv1a64_fold(h, &view.payload_bytes().to_bytes())
}

/// What one delivery of the smoke day left behind.
#[derive(Debug, PartialEq, Eq)]
struct Delivered {
    records: u64,
    output_files: u64,
    landed: u64,
    indexes: u64,
    seen: u64,
    views: u64,
    /// What the landed files decode to ([`rows_digest`], hour by hour).
    rows: u64,
    /// The day's `dictionary` and `samples` files as the materializer's
    /// first pass writes them.
    dictionary: u64,
    samples: u64,
}

fn deliver(
    workers: usize,
    landing: ClientEventLanding,
    records_per_file: u64,
    garbage: bool,
) -> Delivered {
    let workers = Parallelism::fixed(workers);
    let mut pipe = ScribePipeline::new(PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file,
        workers,
        ..Default::default()
    });
    pipe.set_columnar_landing(Arc::new(landing));
    let index = IndexMaintainer::new(pipe.main_warehouse().clone(), CLIENT_EVENTS_CATEGORY)
        .with_parallelism(workers);
    let stream = StreamAnalytics::new(StreamConfig::default()).with_parallelism(workers);
    pipe.add_delivery_tap(index.tap());
    pipe.add_delivery_tap(stream.tap());

    let mut by_hour: Vec<Vec<(i64, Vec<u8>)>> = vec![Vec::new(); 24];
    for ev in DayStream::new(&Scale::Smoke.config(), 0) {
        by_hour[ev.timestamp.hour_index() as usize].push((ev.user_id, ev.to_bytes()));
    }
    let mut out = Delivered {
        records: 0,
        output_files: 0,
        landed: FNV1A64_OFFSET,
        indexes: FNV1A64_OFFSET,
        seen: FNV1A64_OFFSET,
        views: FNV1A64_OFFSET,
        rows: FNV1A64_OFFSET,
        dictionary: 0,
        samples: 0,
    };
    for (hour, events) in by_hour.iter().enumerate() {
        for (i, (user, bytes)) in events.iter().enumerate() {
            let entry = LogEntry::new(CLIENT_EVENTS_CATEGORY, bytes.clone());
            pipe.log((*user as usize) % 2, i % 4, entry);
        }
        if garbage && !events.is_empty() {
            let entry = LogEntry::new(CLIENT_EVENTS_CATEGORY, format!("not thrift {hour}"));
            pipe.log(hour % 2, hour % 4, entry);
        }
        pipe.step();
        pipe.flush_hour(hour as u64);
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour as u64);
        let report = pipe
            .move_hour(CLIENT_EVENTS_CATEGORY, hour as u64)
            .expect("fault-free day: every hour moves");
        out.records += report.records;
        out.output_files += report.output_files;
    }

    let wh = pipe.main_warehouse();
    for hour in 0..24u64 {
        let partition = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour);
        out.landed = fold_u64(out.landed, dir_digest(wh, &partition.main_dir()));
        out.indexes = fold_u64(out.indexes, dir_digest(wh, &index_dir(&partition)));
        if wh.exists(&partition.main_dir()) {
            out.rows = fold_u64(out.rows, rows_digest(wh, &partition.main_dir()));
        }
        if let Some(view) = stream.hour_view(hour) {
            out.views = fold_u64(out.views, view_digest(&view));
        }
    }
    out.views = fold_u64(out.views, view_digest(&stream.running_view()));
    Materializer::new(wh.clone())
        .with_parallelism(workers)
        .build_dictionary(0)
        .expect("pass 1 over a landed day");
    let artifact = |name| {
        let file = dictionary_dir(0).child(name).expect("valid name");
        wh.file_digest(&file).expect("pass 1 wrote it")
    };
    out.dictionary = artifact("dictionary");
    out.samples = artifact("samples");
    let (watermarks, residual) = pipe.seen_snapshot();
    for (host, next) in watermarks {
        out.seen = fold_u64(fold_u64(out.seen, host), next);
    }
    for id in residual {
        out.seen = fold_u64(fold_u64(out.seen, id.host), id.seq);
    }
    out
}

#[test]
fn delivered_day_matches_the_recorded_digests() {
    let pipeline_shape = Delivered {
        records: 2657,
        output_files: 22,
        landed: 5246164676030603047,
        indexes: 3046250732861548078,
        seen: 6951604800847287054,
        views: 6885118719456885022,
        rows: 16754135527137346865,
        dictionary: 9461612444177250603,
        samples: 8120602851900117742,
    };
    let stress_shape = Delivered {
        records: 2679,
        output_files: 102,
        landed: 18294854447467800347,
        indexes: 1467962946771897450,
        seen: 4063383774541676972,
        views: 17971858508380815314,
        rows: 17396466383406638498,
        dictionary: 9461612444177250603,
        samples: 8120602851900117742,
    };
    for workers in [1, 4] {
        assert_eq!(
            deliver(workers, ClientEventLanding::default(), 10_000, false),
            pipeline_shape,
            "E22/E23 shape at {workers} workers"
        );
        let small = ClientEventLanding {
            dictionary: true,
            rows_per_group: 16,
        };
        assert_eq!(
            deliver(workers, small, 40, true),
            stress_shape,
            "40-record files of 16-row groups at {workers} workers"
        );
    }
}
