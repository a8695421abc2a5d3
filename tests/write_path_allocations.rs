//! The machine-independent gate for "no per-record allocation" on the write
//! path: a counting global allocator (which is why this is a test binary of
//! its own) around the two per-record loops of a delivery — landing one
//! 10 K-payload chunk columnar, and folding one delivered hour into the
//! stream state. What either allocates is bounded by the distinct names, the
//! row groups and the growth of a few vectors, never by the records: a
//! `String`, `Vec` or map node per record reads as ≥ 1 here, against a
//! ceiling of 0.05.
//!
//! A stream window owns its maps, so the first fold into one allocates per
//! distinct name and shard — once an hour, however many records the hour
//! has. The fold is therefore measured twice: into a state that already
//! holds the names, and through the delivery tap as the difference between
//! an hour and the same hour with every record delivered twice.
//!
//! Where a record *is* decoded, it costs four buffers — name, session id, ip
//! and one details buffer — when a row view builds it, and three when the
//! generator draws it, whose events share their name's one text; encoding
//! it allocates its payload and nothing else.
//!
//! On the read side, loading a day's session sequences allocates per part
//! file and row group — its arena, its columns and each group's reads —
//! never per session, with a cold cache or a warm one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use uli_analytics::load_sequences;
use uli_core::session::{day_dir, sequences_dir, Materializer};
use uli_core::{ClientEvent, ClientEventLanding, EventRow};
use uli_scribe::message::LogEntry;
use uli_scribe::{PipelineConfig, ScribePipeline};
use uli_serve::IndexMaintainer;
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{
    ColumnarFile, ColumnarLanding, HourlyPartition, Parallelism, ScanFile, Warehouse, WhPath,
};
use uli_workload::{generate_day, write_client_events, DayStream, Scale, WorkloadConfig};

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`, and a
    /// `Cell` of an integer: reading it from inside the allocator neither
    /// allocates nor registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less bytes freed on it. A test that
    /// reads it keeps its work on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Counts an allocation that grows the live bytes by `grown` (negative
/// when a reallocation shrinks).
fn count(grown: i64) {
    // Ignored while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    free(-grown);
}

fn free(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread holds: allocated on it and not yet freed.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocations this thread makes while `f` runs.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const CHUNK: usize = 10_000;
const CEILING_PER_RECORD: f64 = 0.05;

#[test]
fn landing_and_folding_allocate_nothing_per_record() {
    let config = WorkloadConfig {
        users: 2_000,
        ..Default::default()
    };
    let payloads: Vec<Vec<u8>> = DayStream::new(&config, 0)
        .map(|ev| ev.to_bytes())
        .take(2 * CHUNK)
        .collect();
    assert_eq!(payloads.len(), 2 * CHUNK, "the day is large enough");
    let (first, second) = payloads.split_at(CHUNK);
    // One worker, so all of the work runs on this thread.
    let wh = Warehouse::new();
    let landing = ClientEventLanding::default();
    let path = |name: &str| WhPath::parse(&format!("/logs/probe/{name}")).unwrap();
    // The first file warms the warehouse's pooled compressor.
    landing.write_file(&wh, &path("part-00000"), first).unwrap();
    let landed = allocations_of(|| {
        let rejected = landing
            .write_file(&wh, &path("part-00001"), second)
            .unwrap();
        assert!(rejected.is_empty());
    });

    let mut state = StreamState::new(5);
    state.fold(first);
    state.fold(second);
    let folded = allocations_of(|| state.fold(second));
    assert_eq!(state.events(), 3 * CHUNK as u64);

    let stream = StreamAnalytics::new(StreamConfig::default());
    let mut tap = stream.tap();
    let mut hour = 0;
    let mut deliver = |payloads: &[Vec<u8>]| {
        hour += 1;
        let partition = HourlyPartition::from_hour_index("probe", hour);
        allocations_of(|| tap.hour_delivered(&partition, payloads))
    };
    let once = deliver(second);
    // Each record next to its copy, so every shard meets the names it met.
    let doubled: Vec<Vec<u8>> = second.iter().flat_map(|p| [p.clone(), p.clone()]).collect();
    let twice = deliver(&doubled);
    assert_eq!(stream.running_view().events(), 3 * CHUNK as u64);

    for (what, allocations) in [
        ("landing a chunk", landed),
        ("folding an hour into a warm state", folded),
        (
            "delivering an hour's records a second time",
            twice.saturating_sub(once),
        ),
    ] {
        let per_record = allocations as f64 / CHUNK as f64;
        println!("{what}: {allocations} allocations, {per_record:.4} a record");
        assert!(
            per_record <= CEILING_PER_RECORD,
            "{what} ({CHUNK} records) made {allocations} allocations, {per_record:.4} a record"
        );
    }
}

/// Opening a landed file parses where its dictionary's entries lie and
/// copies none of them: a file of hundreds of names opens in as many
/// allocations as a file of one.
#[test]
fn opening_a_file_allocates_the_same_whatever_its_dictionary_holds() {
    let config = WorkloadConfig {
        users: 2_000,
        ..Default::default()
    };
    let payloads: Vec<Vec<u8>> = DayStream::new(&config, 0)
        .map(|ev| ev.to_bytes())
        .take(CHUNK)
        .collect();
    let wh = Warehouse::new();
    let landing = ClientEventLanding::default();
    let (many, one) = (
        WhPath::parse("/logs/probe/many").unwrap(),
        WhPath::parse("/logs/probe/one").unwrap(),
    );
    landing.write_file(&wh, &many, &payloads).unwrap();
    landing.write_file(&wh, &one, &payloads[..1]).unwrap();
    let names = |path: &WhPath| {
        let ScanFile::Columnar(file) = ScanFile::open(&wh, path).unwrap() else {
            panic!("the landing is columnar");
        };
        (0..)
            .take_while(|c| file.dictionary_value(*c).is_some())
            .count()
    };
    assert_eq!(names(&one), 1);
    assert!(names(&many) >= 300, "{} names", names(&many));
    let open = |path: &WhPath| allocations_of(|| drop(ScanFile::open(&wh, path).unwrap()));
    let (of_many, of_one) = (open(&many), open(&one));
    println!(
        "opening a file: {of_many} allocations under {} names, {of_one} under one",
        names(&many)
    );
    assert_eq!(of_many, of_one);

    const OPENS: u32 = 2_000;
    let started = std::time::Instant::now();
    for _ in 0..OPENS {
        std::hint::black_box(ScanFile::open(&wh, &many).unwrap());
    }
    let micros = started.elapsed().as_secs_f64() * 1e6 / f64::from(OPENS);
    println!(
        "a warm open of a {}-name file: {micros:.1} us",
        names(&many)
    );
}

#[test]
fn a_decoded_event_is_four_buffers_and_its_payload_one() {
    let config = WorkloadConfig {
        users: 2_000,
        ..Default::default()
    };
    let mut stream = DayStream::new(&config, 0);
    // The stream's reused text and session buffer reach their size, every
    // client has drawn a session, and the encoder's scratch has grown.
    let warm: Vec<Vec<u8>> = stream
        .by_ref()
        .take(CHUNK)
        .map(|ev| ev.to_bytes())
        .collect();
    assert_eq!(warm.len(), CHUNK);
    let mut events: Vec<ClientEvent> = Vec::with_capacity(CHUNK);
    let generated = allocations_of(|| events.extend(stream.by_ref().take(CHUNK)));
    assert_eq!(events.len(), CHUNK, "the day is large enough");
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    let encoded = allocations_of(|| payloads.extend(events.iter().map(|ev| ev.to_bytes())));
    let mut decoded: Vec<ClientEvent> = Vec::with_capacity(CHUNK);
    let rebuilt = allocations_of(|| {
        decoded.extend(payloads.iter().map(|p| {
            let row = EventRow::from_bytes(p).expect("a generated payload decodes");
            row.to_event().expect("every column was read")
        }))
    });
    assert_eq!(decoded, events);
    // Every generated event of a name holds one of its name's texts: the
    // universe's, or the funnel's for a name that is a funnel stage too.
    let texts: std::collections::BTreeSet<*const u8> =
        events.iter().map(|ev| ev.name.as_str().as_ptr()).collect();
    let names: std::collections::BTreeSet<&str> =
        events.iter().map(|ev| ev.name.as_str()).collect();
    let stages = config.funnel.as_ref().map_or(0, |funnel| funnel.len());
    assert!(
        texts.len() <= names.len() + stages,
        "{} texts for {} names",
        texts.len(),
        names.len()
    );
    for (what, allocations, ceiling) in [
        ("generating an event", generated, 3),
        ("building an event from its payload", rebuilt, 4),
        ("encoding an event", encoded, 1),
    ] {
        let per_record = allocations as f64 / CHUNK as f64;
        println!("{what}: {allocations} allocations, {per_record:.4} a record");
        assert!(
            allocations <= ceiling * CHUNK as u64,
            "{what} made {per_record:.4} allocations a record, over {ceiling}"
        );
    }
}

/// What loading a day's sequences may allocate: this many a part file and
/// a row group, cold or warm, and a fixed few besides. A `String` or `Vec`
/// a session reads as thousands on the larger day.
const LOAD_PER_FILE_AND_GROUP: u64 = 24;
const LOAD_FIXED: u64 = 24;

#[test]
fn loading_a_day_of_sequences_allocates_per_group_not_per_session() {
    for config in [
        Scale::Smoke.config(),
        WorkloadConfig {
            users: 2_000,
            ..Default::default()
        },
    ] {
        let wh = Warehouse::new();
        write_client_events(&wh, &generate_day(&config, 0).events, 4).unwrap();
        Materializer::new(wh.clone())
            .with_parallelism(Parallelism::fixed(1))
            .run_day(0)
            .unwrap();
        let files = wh.list_files_recursive(&sequences_dir(0)).unwrap();
        let groups: usize = files
            .iter()
            .map(|path| ColumnarFile::open(&wh, path).unwrap().group_count())
            .sum();
        let bound = LOAD_PER_FILE_AND_GROUP * (files.len() + groups) as u64 + LOAD_FIXED;
        let sessions = load_sequences(&wh, 0).unwrap().len();
        wh.clear_cache();
        let cold = allocations_of(|| drop(load_sequences(&wh, 0).unwrap()));
        let warm = allocations_of(|| drop(load_sequences(&wh, 0).unwrap()));
        println!(
            "loading {sessions} sessions from {} files of {groups} groups: \
             {cold} allocations cold, {warm} warm (bound {bound})",
            files.len()
        );
        assert!(sessions > 200, "{sessions} sessions");
        assert!(
            cold <= bound && warm <= bound,
            "{cold} cold, {warm} warm, bound {bound}"
        );
    }
}

/// Live bytes a delivered day may leave resident, per landed byte.
const HELD_PER_LANDED_BYTE: i64 = 20;

/// What a delivered day leaves resident: the smoke day through the E22/E23
/// pipeline shape — two datacenters, the columnar landing, the serve index
/// and the stream fold on the delivery tap — on one worker, so that every
/// byte it allocates is this thread's. Once the day has moved, the
/// pipeline, the index and the stream hold the landed files, the committed
/// indexes and what serves from them, each fact once: 15.0 bytes for every
/// byte landed when this was recorded. A second copy of a per-record fact
/// reads as many more — with a list of the delivered ids beside the seen
/// set, tree nodes for every posting and a stream state per shard and hour,
/// the same day held 34.8.
#[test]
fn a_delivered_day_holds_a_bounded_multiple_of_its_landed_bytes() {
    const CATEGORY: &str = "client_events";
    let mut by_hour: Vec<Vec<ClientEvent>> = vec![Vec::new(); 24];
    for ev in DayStream::new(&Scale::Smoke.config(), 0) {
        by_hour[ev.timestamp.hour_index() as usize].push(ev);
    }
    let before = live_bytes();
    let workers = Parallelism::fixed(1);
    let mut pipe = ScribePipeline::new(PipelineConfig {
        datacenters: 2,
        hosts_per_dc: 4,
        aggregators_per_dc: 2,
        records_per_file: 10_000,
        workers,
        ..Default::default()
    });
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    let index =
        IndexMaintainer::new(pipe.main_warehouse().clone(), CATEGORY).with_parallelism(workers);
    let stream = StreamAnalytics::new(StreamConfig::default()).with_parallelism(workers);
    pipe.add_delivery_tap(index.tap());
    pipe.add_delivery_tap(stream.tap());
    for (hour, events) in by_hour.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            let entry = LogEntry::new(CATEGORY, ev.to_bytes());
            pipe.log((ev.user_id as usize) % 2, i % 4, entry);
        }
        pipe.step();
        pipe.flush_hour(hour as u64);
        pipe.seal_hour(CATEGORY, hour as u64);
        pipe.move_hour(CATEGORY, hour as u64)
            .expect("every hour moves");
    }
    let held = live_bytes() - before;
    let landed = pipe
        .main_warehouse()
        .dir_meta(&day_dir(CATEGORY, 0))
        .expect("a landed day")
        .compressed_bytes as i64;
    assert_eq!(
        pipe.report().moved,
        by_hour.iter().map(|h| h.len() as u64).sum::<u64>()
    );
    drop((pipe, index, stream));
    let left = live_bytes() - before;
    println!(
        "a delivered smoke day holds {held} bytes, {:.1} a landed byte ({landed} landed); \
         {left} left once it is dropped",
        held as f64 / landed as f64
    );
    assert!(
        held <= HELD_PER_LANDED_BYTE * landed,
        "{held} bytes held for {landed} landed: over {HELD_PER_LANDED_BYTE} a landed byte"
    );
}
