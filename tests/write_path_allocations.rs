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
//! and one details buffer — whether the generator draws it or a row view
//! builds it, and encoding it allocates its payload and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uli_core::{ClientEvent, ClientEventLanding, EventRow};
use uli_stream::{StreamAnalytics, StreamConfig, StreamState};
use uli_thrift::ThriftRecord;
use uli_warehouse::{ColumnarLanding, HourlyPartition, ScanFile, Warehouse, WhPath};
use uli_workload::{DayStream, WorkloadConfig};

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`, and a
    /// `Cell` of an integer: reading it from inside the allocator neither
    /// allocates nor registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // Ignored while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    for (what, allocations, ceiling) in [
        ("generating an event", generated, 4),
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
