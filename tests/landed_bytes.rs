//! Pinned bytes of a delivered day.
//!
//! The 120-user smoke day goes through the E22/E23 pipeline shape — two
//! datacenters, the client-event columnar landing, the serve index and the
//! stream fold riding the mover's delivery tap — and everything the
//! delivery leaves behind is digested against recorded constants: every
//! landed file (block streams and zone maps), every `hour.idx`, the mover's
//! seen-set snapshot and the merged stream views. A write-path change that
//! moves a single landed byte, at any worker count, fails here. The seen
//! set and the views stand as first recorded; the landed files and the
//! indexes were recorded again when their formats changed (columnar v3 and
//! v4, the varint `hour.idx` and its v2), against the decoded-row digests
//! and the decoded-index digest below.
//!
//! The second shape cuts the same day into 40-record files of 16-row
//! groups and slips an undecodable payload into every traffic hour, so
//! multi-file hours, multi-group files, the `-rows` sibling and the
//! stream's malformed count are pinned too.
//!
//! Beside the bytes, what the bytes *decode to* is pinned: every landed
//! row at full width through the one row view, in scan order, with the
//! visit's `(events, skipped)`, and the dictionary, samples and
//! session-sequence part files the nightly materializer derives from them.
//! A format change re-pins the byte digests; these must not move. Nor must
//! what a file of values that nearly have a shape — hex digits, a number, a
//! dotted quad — decodes to, now that the format stores a value by its shape.

use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENTS_CATEGORY;
use uli_core::columnar::{
    event_columns, for_each_event_row, write_client_events_columnar, ALL_COLUMNS, NAME_COLUMN,
};
use uli_core::session::{day_dir, dictionary_dir, sequences_dir, Materializer};
use uli_core::{ClientEvent, ClientEventLanding, EventInitiator, EventName, Timestamp};
use uli_scribe::message::LogEntry;
use uli_scribe::{PipelineConfig, ScribePipeline};
use uli_serve::hour::{index_dir, load_hour_index, Postings};
use uli_serve::IndexMaintainer;
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{
    fnv1a64_fold, ColumnarFile, HourlyPartition, Parallelism, ScanFile, ScanStats, Warehouse,
    WhPath, DEFAULT_MEM_BUDGET, FNV1A64_OFFSET,
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

/// What one posting list says: each posted file, then its groups.
fn fold_postings(mut h: u64, postings: &Postings) -> u64 {
    h = fold_u64(h, postings.len() as u64);
    for (file, groups) in postings {
        h = fold_u64(fold_u64(h, u64::from(*file)), groups.len() as u64);
        for group in groups {
            h = fold_u64(h, u64::from(*group));
        }
    }
    h
}

/// What the committed `hour.idx` of `hour` decodes to, less anything no
/// lookup reads: the hour, its record and event counts, its files, every
/// name with its count and postings and every user with its postings, in
/// key order. Whatever the file's layout, this must not move.
fn index_contents_digest(wh: &Warehouse, hour: u64) -> u64 {
    let Some(index) = load_hour_index(wh, CLIENT_EVENTS_CATEGORY, hour).expect("index loads")
    else {
        return fold_u64(FNV1A64_OFFSET, u64::MAX);
    };
    let mut h = FNV1A64_OFFSET;
    for v in [
        index.hour_index,
        index.records,
        index.events,
        index.files.len() as u64,
    ] {
        h = fold_u64(h, v);
    }
    for file in &index.files {
        h = fnv1a64_fold(h, file.name.as_bytes());
        h = fold_u64(
            fold_u64(h, u64::from(file.groups)),
            u64::from(file.columnar),
        );
    }
    h = fold_u64(h, index.names.len() as u64);
    for (name, (count, postings)) in &index.names {
        h = fold_u64(fnv1a64_fold(h, name.as_bytes()), *count);
        h = fold_postings(h, postings);
    }
    h = fold_u64(h, index.users.len() as u64);
    for (user, postings) in &index.users {
        h = fold_postings(fold_u64(h, *user as u64), postings);
    }
    h
}

/// Every `/session_sequences` part file of day 0, in path order: its path and
/// its block streams.
fn sequences_digest(wh: &Warehouse) -> u64 {
    let mut files = wh
        .list_files_recursive(&sequences_dir(0))
        .expect("pass 2 left its directory");
    files.sort();
    let mut h = fold_u64(FNV1A64_OFFSET, files.len() as u64);
    for file in &files {
        h = fnv1a64_fold(h, file.as_str().as_bytes());
        h = fold_u64(h, wh.file_digest(file).expect("file digests"));
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
    /// What the indexes decode to ([`index_contents_digest`], hour by hour).
    index_contents: u64,
    seen: u64,
    views: u64,
    /// What the landed files decode to ([`rows_digest`], hour by hour).
    rows: u64,
    /// The day's `dictionary` and `samples` files as the materializer's
    /// first pass writes them.
    dictionary: u64,
    samples: u64,
    /// The day's session-sequence part files as its second pass writes them
    /// ([`sequences_digest`]).
    sequences: u64,
}

fn deliver(
    workers: usize,
    landing: ClientEventLanding,
    records_per_file: u64,
    garbage: bool,
) -> (Delivered, Warehouse) {
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
        index_contents: FNV1A64_OFFSET,
        seen: FNV1A64_OFFSET,
        views: FNV1A64_OFFSET,
        rows: FNV1A64_OFFSET,
        dictionary: 0,
        samples: 0,
        sequences: 0,
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
        out.index_contents = fold_u64(out.index_contents, index_contents_digest(wh, hour));
        if wh.exists(&partition.main_dir()) {
            out.rows = fold_u64(out.rows, rows_digest(wh, &partition.main_dir()));
        }
        if let Some(view) = stream.hour_view(hour) {
            out.views = fold_u64(out.views, view_digest(&view));
        }
    }
    out.views = fold_u64(out.views, view_digest(&stream.running_view()));
    let materializer = Materializer::new(wh.clone()).with_parallelism(workers);
    let dict = materializer
        .build_dictionary(0)
        .expect("pass 1 over a landed day");
    materializer
        .materialize_sequences(0, &dict)
        .expect("pass 2 over a landed day");
    out.sequences = sequences_digest(wh);
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
    (out, wh.clone())
}

/// Pass 2 over a delivered day writes the recorded part files whatever its
/// worker count and whatever its event sort may buffer; 2 KB makes it spill
/// some hundred runs of this day.
fn assert_sequences_at_any_worker_count_and_budget(wh: &Warehouse, recorded: u64) {
    for workers in [1, 4, 8] {
        for budget in [2048, DEFAULT_MEM_BUDGET, u64::MAX] {
            let materializer = Materializer::new(wh.clone())
                .with_parallelism(Parallelism::fixed(workers))
                .with_mem_budget(budget);
            let dict = materializer.load_dictionary(0).expect("pass 1 ran");
            let report = materializer
                .materialize_sequences(0, &dict)
                .expect("pass 2 over a landed day");
            assert_eq!(
                sequences_digest(wh),
                recorded,
                "{workers} workers, budget {budget}"
            );
            assert_eq!(report.spill_runs > 0, budget == 2048, "budget {budget}");
            assert!(report.mem_high_water_bytes <= budget);
        }
    }
}

#[test]
fn delivered_day_matches_the_recorded_digests() {
    let pipeline_shape = Delivered {
        records: 2657,
        output_files: 22,
        landed: 13316955843368080210,
        indexes: 8316473390055727835,
        index_contents: 10663438817937297951,
        seen: 6951604800847287054,
        views: 6885118719456885022,
        rows: 16754135527137346865,
        dictionary: 9461612444177250603,
        samples: 8120602851900117742,
        sequences: 9860939400279613154,
    };
    let stress_shape = Delivered {
        records: 2679,
        output_files: 102,
        landed: 6107842078597485247,
        indexes: 11914333546098133576,
        index_contents: 17429011816230578343,
        seen: 4063383774541676972,
        views: 17971858508380815314,
        rows: 17396466383406638498,
        dictionary: 9461612444177250603,
        samples: 8120602851900117742,
        sequences: 9860939400279613154,
    };
    for workers in [1, 4] {
        let (delivered, wh) = deliver(workers, ClientEventLanding::default(), 10_000, false);
        assert_eq!(
            delivered, pipeline_shape,
            "E22/E23 shape at {workers} workers"
        );
        let small = ClientEventLanding {
            dictionary: true,
            rows_per_group: 16,
        };
        let (delivered_small, wh_small) = deliver(workers, small, 40, true);
        assert_eq!(
            delivered_small, stress_shape,
            "40-record files of 16-row groups at {workers} workers"
        );
        if workers == 1 {
            assert_sequences_at_any_worker_count_and_budget(&wh, pipeline_shape.sequences);
            assert_sequences_at_any_worker_count_and_budget(&wh_small, stress_shape.sequences);
        }
    }
}

/// Counts, not timings, so they gate on any host: what the day costs to
/// keep, and how little of it a one-column question takes off disk.
#[test]
fn the_landed_day_stays_small_and_a_name_only_pass_reads_a_sliver_of_it() {
    let (delivered, wh) = deliver(1, ClientEventLanding::default(), 10_000, false);
    let day = day_dir(CLIENT_EVENTS_CATEGORY, 0);
    let stored = wh.dir_meta(&day).expect("a landed day").compressed_bytes;
    // 47.3 bytes a record when this was recorded (columnar v3 landed 78.3,
    // v2 90.1): an hour of the smoke day is one group of some 120 rows, so
    // it pays the fixed cost of a group far more often than a real day does.
    let ceiling = 48 * delivered.records;
    assert!(
        stored <= ceiling,
        "{stored} bytes landed for {} records: over {ceiling}",
        delivered.records
    );

    let mut files = wh.list_files_recursive(&day).expect("a landed day");
    files.sort();
    let pass = |columns: [bool; 7]| {
        wh.clear_cache();
        let mut read = ScanStats::default();
        for path in &files {
            let file = ColumnarFile::open(&wh, path).expect("a columnar landing");
            for g in 0..file.group_count() {
                file.read_group(g, &columns).expect("a clean group");
            }
            read = read.plus(&file.local_stats());
        }
        read
    };
    let (full, named) = (pass(ALL_COLUMNS), pass(event_columns([NAME_COLUMN])));
    assert_eq!(named.records_read, delivered.records);
    assert_eq!(named.blocks_read, full.blocks_read);
    assert!(
        named.compressed_bytes_read * 20 <= full.compressed_bytes_read,
        "a name-only pass read {} of the {} stored bytes a full-width pass reads",
        named.compressed_bytes_read,
        full.compressed_bytes_read
    );
}

/// Four-row groups of one string each: it is the row's `ip` cell and the
/// value of its `details` key `v`. Every group but the last few is a near
/// miss of a shape a value could be stored in — hex digits, a decimal
/// number, a dotted quad — and the rest are the shapes themselves, so that a
/// format which stores what a value *is* has every way to get one wrong.
/// `None` is a row with an empty details map and an empty `ip`.
const NEAR_MISSES: &[[Option<&str>; 4]] = &[
    // Hex digits, but not lower-case ones of one even width.
    [
        Some("DEADBEEF"),
        Some("CAFEBABE"),
        Some("0BADF00D"),
        Some("FEEDFACE"),
    ],
    [
        Some("deadBEEF"),
        Some("cafebabe"),
        Some("0badf00d"),
        Some("feedface"),
    ],
    [Some("abc"), Some("def"), Some("012"), Some("fff")],
    [Some("abcd"), Some("abcdef"), Some("0123"), Some("ffff")],
    [
        Some("https://t.co/00ab12cd34"),
        Some("https://t.co/00ef56ab7"),
        None,
        Some("https://t.co/00"),
    ],
    // Digits, but not the one way a `u64` prints.
    [Some("+1"), Some("2"), Some("3"), Some("4")],
    [Some("-1"), Some("2"), Some("3"), Some("4")],
    [Some("007"), Some("8"), Some("9"), Some("10")],
    [Some(""), Some("5"), Some("6"), Some("7")],
    [
        Some("100000000000000000000"),
        Some("1"),
        Some("0"),
        Some("99999999999999999999"),
    ],
    [
        Some("18446744073709551616"),
        Some("18446744073709551615"),
        Some("0"),
        Some("1"),
    ],
    [Some("1000"), Some("1001"), Some("1010"), Some("1100")],
    [Some("12 "), Some("13 "), Some("14 "), Some("15 ")],
    // Dots and digits, but not four octets as they print.
    [
        Some("1.2.3.04"),
        Some("1.2.3.4"),
        Some("10.0.0.1"),
        Some("255.255.255.255"),
    ],
    [
        Some("256.1.1.1"),
        Some("1.2.3.4"),
        Some("10.0.0.1"),
        Some("0.0.0.0"),
    ],
    [
        Some("1.2.3"),
        Some("1.2.3.4"),
        Some("10.0.0.1"),
        Some("0.0.0.0"),
    ],
    [
        Some("1.2.3.4.5"),
        Some("1.2.3.4"),
        Some("1..3.4"),
        Some(".1.2.3"),
    ],
    // A key on one row of its group; one value on every row (the whole
    // value is what the rows have in common); no map at all.
    [None, Some("4.1.2"), None, None],
    [Some("4.1.2"), Some("4.1.2"), Some("4.1.2"), Some("4.1.2")],
    [Some("en"), Some("en"), Some("en"), Some("en")],
    [None, None, None, None],
    // The shapes themselves, dense and sparse, bare and behind a prefix.
    [Some("00ff"), Some("a1b2"), Some("dead"), Some("beef")],
    [
        Some("0123456789abcdef0123456789abcdef"),
        None,
        Some("ffffffffffffffffffffffffffffffff"),
        Some("00000000000000000000000000000000"),
    ],
    [
        Some("https://t.co/00ab12cd34"),
        Some("https://t.co/00ef56ab78"),
        None,
        Some("https://t.co/0000000000"),
    ],
    [
        Some("0"),
        Some("1"),
        Some("18446744073709551615"),
        Some("9223372036854775808"),
    ],
    [Some("40"), Some("2499"), None, Some("1337")],
    [Some("id=77"), Some("id=78"), Some("id=1079"), Some("id=0")],
    [
        Some("1.2.3.4"),
        Some("10.0.0.1"),
        Some("255.255.255.255"),
        Some("0.0.0.0"),
    ],
    [
        Some("12.34.56.78"),
        None,
        Some("12.34.5.1"),
        Some("12.34.56.79"),
    ],
];

/// [`rows_digest`] of the fixture file of [`NEAR_MISSES`].
const NEAR_MISSES_ROWS: u64 = 11624075471038768402;

/// The fixture file of [`NEAR_MISSES`], decoded: whatever a format makes of
/// those values on disk, it hands back the rows that were written. Recorded
/// from columnar v3, which stored every value as the bytes it was given.
#[test]
fn near_misses_of_every_value_shape_decode_to_the_recorded_digest() {
    let name = EventName::parse("web:home:home:stream:tweet:click").expect("a six-level name");
    let mut events = Vec::new();
    for (g, group) in NEAR_MISSES.iter().enumerate() {
        for (r, value) in group.iter().enumerate() {
            let i = (g * 4 + r) as i64;
            let mut ev = ClientEvent::new(
                EventInitiator::CLIENT_USER,
                name.clone(),
                i,
                format!("s-{g}"),
                value.unwrap_or("").to_string(),
                Timestamp(1_344_000_000_000 + i),
            );
            if let Some(value) = value {
                ev = ev.with_detail("v", *value).with_detail("lang", "en");
                if r == 2 {
                    ev = ev.with_detail("once", *value);
                }
            }
            events.push(ev);
        }
    }
    // What `rows_digest` makes of a file that hands back exactly `events`.
    let written = events
        .iter()
        .fold(FNV1A64_OFFSET, |h, ev| fnv1a64_fold(h, &ev.to_bytes()));
    let written = fold_u64(fold_u64(written, events.len() as u64), 0);
    assert_eq!(written, NEAR_MISSES_ROWS);
    let dir = WhPath::parse("/near-misses").expect("valid path");
    // Each group of the table a row group of its own, then all in one.
    for rows_per_group in [4, 512] {
        let wh = Warehouse::new();
        let path = dir.child("part-00000").expect("valid name");
        write_client_events_columnar(&wh, &path, &events, true, rows_per_group)
            .expect("fresh warehouse");
        assert_eq!(
            rows_digest(&wh, &dir),
            NEAR_MISSES_ROWS,
            "groups of {rows_per_group} rows"
        );
    }
}
