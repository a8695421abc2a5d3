//! The serving layer's hour index as scan-time evidence (§6, Elephant Twin).
//!
//! A plan with the serve pruner attached must return exactly the rows of
//! the plan without it, on every layout the mover can land — the index only
//! changes *which units get read*. The pruner is keyed by the constraint the
//! planner derives from the FILTER, so the only way these tests can state a
//! query is the predicate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use unified_logging::core::write_client_events_columnar;
use unified_logging::dataflow::{DataflowResult, ScalarUdf};
use unified_logging::prelude::*;
use unified_logging::serve::batch_user_events;
use unified_logging::thrift::ThriftRecord;
use unified_logging::warehouse::{tag_hash, HourlyPartition, ScanFile, ZoneMapPruner};

const CATEGORY: &str = "client_events";
const RARE: &str = "web:profile:header:user:button:follow";
/// Three common names, three rare ones, two that no file ever holds.
const NAMES: [&str; 8] = [
    "web:home:timeline:stream:tweet:impression",
    "iphone:home:timeline:stream:tweet:impression",
    "web:home:timeline:stream:tweet:click",
    RARE,
    "web:signup:form:step1:button:submit",
    "iphone:search:results:query:box:submit",
    "web:never:logged:by:any:client",
    "android:nor:this:one:either:ever",
];

fn event(user: i64, name: &str, millis: i64) -> ClientEvent {
    ClientEvent::new(
        EventInitiator::CLIENT_USER,
        EventName::parse(name).unwrap(),
        user,
        format!("s-{user}"),
        "10.0.0.1",
        Timestamp(millis),
    )
    .with_detail("pad", "x".repeat(40))
}

fn hour_dir(hour: u64) -> WhPath {
    HourlyPartition::from_hour_index(CATEGORY, hour).main_dir()
}

fn land_columnar(wh: &Warehouse, hour: u64, part: &str, events: &[ClientEvent], rpg: usize) {
    write_client_events_columnar(wh, &hour_dir(hour).child(part).unwrap(), events, true, rpg)
        .unwrap();
}

fn deliver(m: &IndexMaintainer, hour: u64) {
    m.tap()
        .hour_delivered(&HourlyPartition::from_hour_index(CATEGORY, hour), &[]);
}

/// Three delivered hours, each mixing everything the mover can land: a
/// columnar part, its row-format `-rows` sibling (unannotated, half its
/// payloads undecodable) and a row-layout part with zone-mapped blocks.
/// Common names are everywhere; rare ones come in one short burst per hour.
fn mixed_landing(seed: u64, rows_per_group: usize) -> (Warehouse, IndexMaintainer) {
    let wh = Warehouse::with_block_capacity(1024); // row files span several blocks
    let m = IndexMaintainer::new(wh.clone(), CATEGORY);
    for hour in 0..3u64 {
        let burst = (seed + hour * 7) % 60;
        let events: Vec<ClientEvent> = (0..60u64)
            .map(|i| {
                let rare = (burst..burst + 3).contains(&i);
                let name = NAMES[((seed + i * (hour + 1)) % 3 + if rare { 3 } else { 0 }) as usize];
                let millis = (hour * 3_600_000 + i * 100) as i64;
                event(((seed >> 3) + i) as i64 % 9, name, millis)
            })
            .collect();
        land_columnar(&wh, hour, "part-00000", &events[..36], rows_per_group);
        let mut w = wh
            .create(&hour_dir(hour).child("part-00000-rows").unwrap())
            .unwrap();
        for ev in &events[36..44] {
            w.append_record(&ev.to_bytes());
            w.append_record(b"not a thrift payload");
        }
        w.finish().unwrap();
        let mut w = wh
            .create(&hour_dir(hour).child("part-00001").unwrap())
            .unwrap();
        for ev in &events[44..] {
            let tag = tag_hash(ev.name.as_str().as_bytes());
            w.append_record_annotated(&ev.to_bytes(), ev.timestamp.millis(), tag);
        }
        w.finish().unwrap();
        deliver(&m, hour);
    }
    (wh, m)
}

fn name_is_any_of(names: &[&str]) -> Expr {
    names.iter().fold(Expr::lit(false), |acc, name| {
        acc.or(Expr::col(1).eq(Expr::lit(*name)))
    })
}

/// `LOAD /logs/client_events`, all columns out.
fn load() -> Plan {
    Plan::load(
        WhPath::parse("/logs/client_events").unwrap(),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
}

/// `LOAD /logs/client_events [pruned] → FILTER predicate`, all columns out.
fn scan(predicate: Expr, pruner: Option<Arc<dyn BlockPruner>>) -> Plan {
    match pruner {
        Some(pruner) => load().with_pruner(pruner),
        None => load(),
    }
    .filter(predicate)
}

/// The rows `scan(predicate, _)` must return: the FILTER over the rows of
/// the bare LOAD, which reads every unit — the pruner is attached, but a
/// bare LOAD pushes nothing, so no constraint asks it anything.
fn reference(engine: &Engine, predicate: &Expr, pruner: Arc<dyn BlockPruner>) -> Vec<Tuple> {
    let bare = engine.run(&load().with_pruner(pruner)).unwrap();
    assert_eq!(bare.stats.blocks_skipped, 0, "the full-scan reference");
    let values = Plan::values(CLIENT_EVENT_SCHEMA.to_vec(), bare.rows);
    engine.run(&values.filter(predicate.clone())).unwrap().rows
}

/// Runs the scan with and without `pruner`, checks the rows agree with each
/// other and with the [`reference`] and every unit is either read or
/// skipped, and returns (unpruned, pruned) stats.
fn both(engine: &Engine, predicate: &Expr, pruner: Arc<dyn BlockPruner>) -> (JobStats, JobStats) {
    let plain = engine.run(&scan(predicate.clone(), None)).unwrap();
    let pruned = engine
        .run(&scan(predicate.clone(), Some(pruner.clone())))
        .unwrap();
    assert_eq!(pruned.rows, plain.rows, "pruning must not change results");
    assert_eq!(plain.rows, reference(engine, predicate, pruner));
    assert_eq!(
        pruned.stats.input_blocks + pruned.stats.blocks_skipped,
        plain.stats.input_blocks + plain.stats.blocks_skipped
    );
    (plain.stats, pruned.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random name subsets (logged and absent), random row-group size,
    /// workers {1, 4}, each against the bare LOAD's rows.
    #[test]
    fn pruned_scan_returns_the_unpruned_rows(
        seed in 0u64..10_000,
        rows_per_group in 1usize..24,
        picks in 0usize..256,
    ) {
        let (wh, m) = mixed_landing(seed, rows_per_group);
        let names: Vec<&str> = (0..8).filter(|i| picks & (1 << i) != 0).map(|i| NAMES[i]).collect();
        for workers in [1, 4] {
            let engine = Engine::new(wh.clone()).with_parallelism(Parallelism::fixed(workers));
            let (plain, pruned) = both(&engine, &name_is_any_of(&names), m.handle().pruner());
            prop_assert!(pruned.blocks_skipped >= plain.blocks_skipped);
        }
    }
}

/// One columnar part of 40 events: `RARE` in the last four rows only, and
/// everywhere else a name whose zone-map bit collides with `RARE`'s — the
/// 64-bit tag bitmap cannot tell them apart, exact postings can.
fn twin_hour(wh: &Warehouse, hour: u64, rows_per_group: usize) {
    let twin = (0..)
        .map(|i| format!("web:twin:of:the:rare:v{i}"))
        .find(|n| tag_hash(n.as_bytes()) % 64 == tag_hash(RARE.as_bytes()) % 64)
        .unwrap();
    let events: Vec<ClientEvent> = (0..40)
        .map(|i| event(i % 5, if i >= 36 { RARE } else { &twin }, i * 100))
        .collect();
    land_columnar(wh, hour, "part-00000", &events, rows_per_group);
}

#[test]
fn index_prunes_the_files_it_describes_and_fails_open_on_the_rest() {
    let wh = Warehouse::new();
    let m = IndexMaintainer::new(wh.clone(), CATEGORY);
    // Hour 0: indexed in groups of 8, then re-landed behind the mover's
    // back in groups of 5 — the postings name groups that no longer exist.
    twin_hour(&wh, 0, 8);
    deliver(&m, 0);
    wh.delete_file(&hour_dir(0).child("part-00000").unwrap())
        .unwrap();
    twin_hour(&wh, 0, 5);
    // Hour 1: landed, but its index commit "crashed".
    twin_hour(&wh, 1, 8);
    m.fail_next_commits(1);
    deliver(&m, 1);
    // Hour 2: indexed, then a file the index never saw appears.
    twin_hour(&wh, 2, 8);
    deliver(&m, 2);
    let late: Vec<ClientEvent> = (0..8).map(|i| event(i, RARE, 9_000_000 + i)).collect();
    land_columnar(&wh, 2, "part-00001", &late, 4);

    let engine = Engine::new(wh.clone());
    let (plain, pruned) = both(&engine, &name_is_any_of(&[RARE]), m.handle().pruner());
    assert_eq!(plain.output_records, 4 + 4 + 4 + 8);
    assert_eq!(plain.blocks_skipped, 0, "the twin defeats the zone maps");
    // Fewer units, same answer — but only hour 2's untouched part-00000
    // (4 of its 5 groups); every stale, unindexed or unseen file is read.
    assert_eq!(pruned.blocks_skipped, 4);
    // Lookups share the rule: the re-landed hour still answers exactly.
    let rows = m.handle().user_events(1, 0).unwrap().rows;
    assert_eq!(rows, batch_user_events(&wh, CATEGORY, 0, 1, 1).unwrap());
    assert_eq!(rows.len(), 8);
}

/// Returns its one argument.
struct Identity;

impl ScalarUdf for Identity {
    fn name(&self) -> &'static str {
        "IDENTITY"
    }
    fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
        Ok(args[0].clone())
    }
}

/// Counts consultations and answers each with a mask one unit too long.
#[derive(Default)]
struct Probe(AtomicUsize);

impl BlockPruner for Probe {
    fn prune(&self, _: &WhPath, file: &ScanFile, _: &ZoneMapPruner) -> Option<Vec<bool>> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Some(vec![false; file.units() + 1])
    }
}

#[test]
fn pruner_is_consulted_only_under_a_planner_derived_constraint() {
    let (wh, _) = mixed_landing(7, 6);
    let total = name_is_any_of(&[RARE]);
    // Arithmetic can error, so the planner derives no constraint from it.
    let non_total = total
        .clone()
        .and(Expr::col(2).add(Expr::lit(1i64)).gt(Expr::lit(0i64)));
    // Behind a UDF nothing is pushed: the FILTER runs after the decode.
    let behind_udf = Expr::udf(Arc::new(Identity), vec![total.clone()]);
    let engine = Engine::new(wh.clone());
    for (predicate, consulted) in [(&total, 9), (&non_total, 0), (&behind_udf, 0)] {
        let probe = Arc::new(Probe::default());
        let (plain, pruned) = both(&engine, predicate, probe.clone());
        assert_eq!(
            probe.0.load(Ordering::Relaxed),
            consulted,
            "once per file or never"
        );
        // A mask that does not fit the file is ignored, not a panic.
        assert_eq!(pruned.blocks_skipped, plain.blocks_skipped);
    }
}
