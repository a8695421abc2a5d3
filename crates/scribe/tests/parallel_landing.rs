//! Property test: the parallel mover is byte-identical to the serial one.
//!
//! For arbitrary staged-hour shapes — datacenter counts, files per DC,
//! record counts, payload sizes, unstamped records, and duplicate ids
//! injected both within and across files — landing the hour at any worker
//! count must produce exactly the serial mover's outcome: the same landed
//! file bytes (compared by warehouse digest), the same move report, the
//! same committed seen-set, and the same tap payload sequence.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use uli_scribe::mover::seal_hour;
use uli_scribe::{staged, DeliveryTap, EntryId, LogMover, MoveReport};
use uli_warehouse::{HourlyPartition, Parallelism, Warehouse};

/// One staged record: an optional stamp plus a payload length. Payload
/// bytes derive deterministically from the record's position so equal
/// shapes always stage equal bytes.
type RecordShape = (Option<(u64, u64)>, usize);

/// Files per DC; each file is a list of record shapes.
type DcShape = Vec<Vec<RecordShape>>;

fn record_shape() -> impl Strategy<Value = RecordShape> {
    // Small host/seq domains make cross-file duplicates likely; `None`
    // models unstamped best-effort records the mover never dedups. The
    // vendored prop_oneof is unweighted, so the stamped arm repeats to
    // keep unstamped records a minority.
    let stamped = (0u64..4, 0u64..12).prop_map(Some);
    let stamp = prop_oneof![stamped.clone(), stamped.clone(), stamped, Just(None)];
    (stamp, 0usize..40)
}

fn staged_day() -> impl Strategy<Value = Vec<DcShape>> {
    let file = prop::collection::vec(record_shape(), 0..25);
    let dc = prop::collection::vec(file, 1..4);
    prop::collection::vec(dc, 1..4)
}

fn stage(partition: &HourlyPartition, shape: &[DcShape]) -> Vec<Warehouse> {
    let mut dcs = Vec::new();
    for (d, files) in shape.iter().enumerate() {
        let wh = Warehouse::new();
        for (f, records) in files.iter().enumerate() {
            let path = partition.main_dir().child(&format!("agg-{f:03}")).unwrap();
            let mut w = wh.create(&path).unwrap();
            w.append_record(staged::MAGIC);
            for (r, (stamp, len)) in records.iter().enumerate() {
                let id = stamp.map(|(host, seq)| EntryId { host, seq });
                let payload: Vec<u8> = (0..*len)
                    .map(|i| (d * 31 + f * 7 + r * 3 + i) as u8)
                    .collect();
                w.append_record(&staged::encode(id, &payload));
            }
            w.finish().unwrap();
        }
        seal_hour(&wh, partition).unwrap();
        dcs.push(wh);
    }
    dcs
}

struct RecordingTap(Arc<Mutex<Vec<Vec<u8>>>>);

impl DeliveryTap for RecordingTap {
    fn hour_delivered(&mut self, _partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        self.0.lock().unwrap().extend(payloads.iter().cloned());
    }
}

/// Lands the staged shape with `workers` and returns everything observable:
/// the report, each landed file's digest, the committed seen snapshot, and
/// the payloads the tap saw.
#[allow(clippy::type_complexity)]
fn land(
    shape: &[DcShape],
    workers: usize,
    records_per_file: u64,
) -> (
    MoveReport,
    Vec<(String, u64)>,
    (Vec<(u64, u64)>, Vec<EntryId>),
    Vec<Vec<u8>>,
) {
    let partition = HourlyPartition::new("client_events", 2012, 8, 21, 14).unwrap();
    let dcs = stage(&partition, shape);
    let names: Vec<String> = (0..dcs.len()).map(|i| format!("dc{i}")).collect();
    let staging: Vec<(&str, &Warehouse)> =
        names.iter().map(String::as_str).zip(dcs.iter()).collect();
    let mut mover = LogMover::new(Warehouse::new(), records_per_file)
        .with_parallelism(Parallelism::fixed(workers));
    let tapped = Arc::new(Mutex::new(Vec::new()));
    mover.add_tap(Box::new(RecordingTap(tapped.clone())));
    let report = mover.move_hour(&partition, &staging).unwrap();
    let mut files = mover
        .main()
        .list_files_recursive(&partition.main_dir())
        .unwrap();
    files.sort();
    let digests = files
        .into_iter()
        .map(|f| {
            let d = mover.main().file_digest(&f).unwrap();
            (f.as_str().to_string(), d)
        })
        .collect();
    let seen = mover.seen().snapshot();
    let payloads = tapped.lock().unwrap().clone();
    (report, digests, seen, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_landing_is_byte_identical_to_serial(
        shape in staged_day(),
        workers in prop::sample::select(vec![2usize, 3, 4, 8]),
        records_per_file in prop::sample::select(vec![1u64, 7, 23, 1000]),
    ) {
        let serial = land(&shape, 1, records_per_file);
        let parallel = land(&shape, workers, records_per_file);
        prop_assert_eq!(&parallel.0, &serial.0, "move report diverged");
        prop_assert_eq!(&parallel.1, &serial.1, "landed file bytes diverged");
        prop_assert_eq!(&parallel.2, &serial.2, "seen snapshot diverged");
        prop_assert_eq!(&parallel.3, &serial.3, "tap payloads diverged");
    }
}
