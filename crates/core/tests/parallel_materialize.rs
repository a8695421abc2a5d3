//! Worker-count and budget independence of the materializer: for seeded
//! random days, every worker count must produce the same report, the same
//! dictionary (codes and rank order), the same samples, and byte-identical
//! part files — the recorded ones, at any budget of pass 2's event sort —
//! and the recorded sessions when those files are decoded.

use rand::{Rng, SeedableRng};
use uli_core::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use uli_core::event::{EventInitiator, EventName};
use uli_core::session::{sequences_dir, EventDictionary, MaterializeReport, Materializer};
use uli_core::time::Timestamp;
use uli_thrift::ThriftRecord;
use uli_warehouse::{
    fnv1a64_fold, ColumnarFile, HourlyPartition, Parallelism, Warehouse, WhPath,
    DEFAULT_MEM_BUDGET, FNV1A64_OFFSET,
};

/// Writes a seeded random day of client events: several hours, several
/// files per hour, event names with skewed frequencies, sessions that
/// straddle hour boundaries.
fn seeded_day(seed: u64) -> Warehouse {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let wh = Warehouse::with_block_capacity(1024);
    let pages = ["home", "profile", "search", "connect", "discover"];
    let actions = ["impression", "click", "follow", "hover"];
    for hour in 0..4u64 {
        let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
        for part in 0..2 {
            let mut w = wh
                .create(&dir.child(&format!("part-{part:05}")).unwrap())
                .unwrap();
            let n = 120 + rng.gen_range(0..80);
            for _ in 0..n {
                let user = rng.gen_range(0..15i64);
                let page = pages[rng.gen_range(0..pages.len())];
                let action = actions[rng.gen_range(0..actions.len())];
                let name =
                    EventName::parse(&format!("web:{page}:{page}:stream:tweet:{action}")).unwrap();
                let ev = ClientEvent::new(
                    EventInitiator::CLIENT_USER,
                    name,
                    user,
                    format!("s-{user}"),
                    "10.0.0.1",
                    Timestamp::from_hour_index(hour).plus(rng.gen_range(0..3_600_000i64)),
                );
                w.append_record(&ev.to_bytes());
            }
            w.finish().unwrap();
        }
    }
    wh
}

fn run_day(seed: u64, workers: usize) -> (Warehouse, MaterializeReport) {
    run_day_within(seed, workers, DEFAULT_MEM_BUDGET)
}

fn run_day_within(seed: u64, workers: usize, budget: u64) -> (Warehouse, MaterializeReport) {
    let wh = seeded_day(seed);
    let m = Materializer::new(wh.clone())
        .with_parallelism(Parallelism::fixed(workers))
        .with_mem_budget(budget);
    let report = m.run_day(0).unwrap();
    (wh, report)
}

/// Every record of every file under `dir`, tagged with its path.
fn dump_dir(wh: &Warehouse, dir: &WhPath) -> Vec<(String, Vec<Vec<u8>>)> {
    wh.list_files_recursive(dir)
        .unwrap()
        .into_iter()
        .map(|f| {
            let records = wh.open(&f).unwrap().read_all().unwrap();
            (f.as_str().to_string(), records)
        })
        .collect()
}

/// The sequence part files of day 0, in path order: each path and its block
/// streams.
fn sequences_digest(wh: &Warehouse) -> u64 {
    let mut h = FNV1A64_OFFSET;
    for file in wh.list_files_recursive(&sequences_dir(0)).unwrap() {
        h = fnv1a64_fold(h, file.as_str().as_bytes());
        h = fnv1a64_fold(h, &wh.file_digest(&file).unwrap().to_le_bytes());
    }
    h
}

/// What the sequence part files of day 0 decode to, in path order: each
/// path, then each session's user, session id, ip, sequence and duration in
/// part order, every text field behind its length.
fn sequence_rows_digest(wh: &Warehouse) -> u64 {
    let fold_u64 = |h, v: u64| fnv1a64_fold(h, &v.to_le_bytes());
    let mut h = FNV1A64_OFFSET;
    for path in wh.list_files_recursive(&sequences_dir(0)).unwrap() {
        h = fnv1a64_fold(h, path.as_str().as_bytes());
        let file = ColumnarFile::open(wh, &path).unwrap();
        for g in 0..file.group_count() {
            let group = file.read_group(g, &[true; 5]).unwrap();
            for row in 0..group.rows() {
                let column = |col| group.column(col).unwrap();
                let int = |col| column(col).int(row).unwrap() as u64;
                let text = |col| file.resolve(column(col), row).unwrap();
                h = fold_u64(h, int(0));
                for text in [text(1), text(2), text(3)] {
                    assert!(std::str::from_utf8(text).is_ok());
                    h = fnv1a64_fold(fold_u64(h, text.len() as u64), text);
                }
                h = fold_u64(h, int(4));
            }
        }
    }
    h
}

/// [`sequences_digest`] of each seeded day, recorded again when the part
/// files became columnar, and its [`sequence_rows_digest`], recorded from
/// the row-format part files before that and unmoved since.
const RECORDED_SEQUENCES: [(u64, u64, u64); 3] = [
    (11, 676725217240754245, 15382723732125573666),
    (23, 17351529119410256140, 9221895867505228001),
    (59, 11987316763444178676, 15740313872856570466),
];

#[test]
fn parallel_day_is_byte_identical_to_serial() {
    for (seed, recorded, recorded_rows) in RECORDED_SEQUENCES {
        let (serial_wh, serial_report) = run_day(seed, 1);
        assert_eq!(
            sequences_digest(&serial_wh),
            recorded,
            "sequence files moved: seed {seed}"
        );
        assert_eq!(
            sequence_rows_digest(&serial_wh),
            recorded_rows,
            "decoded sessions moved: seed {seed}"
        );
        let serial_dict = dump_dir(&serial_wh, &uli_core::session::dictionary_dir(0));
        assert!(serial_report.sessions > 0);
        for workers in [2usize, 4, 8] {
            let (par_wh, par_report) = run_day(seed, workers);
            assert_eq!(
                serial_report, par_report,
                "report diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                serial_report.compression_factor(),
                par_report.compression_factor()
            );
            assert_eq!(
                (sequences_digest(&par_wh), sequence_rows_digest(&par_wh)),
                (recorded, recorded_rows),
                "sequence files diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                serial_dict,
                dump_dir(&par_wh, &uli_core::session::dictionary_dir(0)),
                "dictionary/samples diverged: seed {seed}, {workers} workers"
            );
        }
        // The budget moves what spills, never what is written.
        for workers in [1usize, 4, 8] {
            for budget in [1024, u64::MAX] {
                let (wh, report) = run_day_within(seed, workers, budget);
                assert_eq!(
                    (sequences_digest(&wh), sequence_rows_digest(&wh)),
                    (recorded, recorded_rows),
                    "seed {seed}, {workers} workers, budget {budget}"
                );
                assert_eq!(report.spill_runs > 0, budget == 1024);
                assert!(report.mem_high_water_bytes <= budget);
                assert_eq!(
                    MaterializeReport {
                        spill_runs: 0,
                        spill_bytes: 0,
                        mem_high_water_bytes: serial_report.mem_high_water_bytes,
                        ..report
                    },
                    serial_report
                );
            }
        }
    }
}

#[test]
fn dictionary_rank_order_is_worker_independent() {
    // Force count ties: two event names with identical frequencies must
    // rank by name ascending no matter how the histogram was sharded.
    let wh = Warehouse::with_block_capacity(256);
    let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, 0).main_dir();
    let mut w = wh.create(&dir.child("part-00000").unwrap()).unwrap();
    for i in 0..60 {
        for action in ["click", "impression"] {
            let name = EventName::parse(&format!("web:home:home:stream:tweet:{action}")).unwrap();
            let ev = ClientEvent::new(
                EventInitiator::CLIENT_USER,
                name,
                i % 5,
                format!("s-{}", i % 5),
                "10.0.0.1",
                Timestamp::from_hour_index(0).plus(i * 500),
            );
            w.append_record(&ev.to_bytes());
        }
    }
    w.finish().unwrap();

    // The reference is the plain histogram of what was written, ranked by
    // the public primitive — not a one-worker run of the same shards.
    let histogram = ["click", "impression"]
        .map(|action| {
            let name = EventName::parse(&format!("web:home:home:stream:tweet:{action}")).unwrap();
            (name, 60)
        })
        .to_vec();
    let reference = EventDictionary::from_counts(histogram);
    assert_eq!(reference.len(), 2);
    // Tie broken by name: "click" sorts before "impression".
    assert!(reference.name_of(0).unwrap().as_str().contains("click"));
    for workers in [1usize, 2, 8] {
        let m = Materializer::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
        let dict = m.build_dictionary(0).unwrap();
        assert_eq!(
            dict.to_records(),
            reference.to_records(),
            "dictionary diverged from the histogram at {workers} workers"
        );
    }
}
