//! Queries over raw client event logs and over session sequences must give
//! identical answers — the sequences are an *optimization*, not a different
//! dataset (§4.2, §5.2). Also checks index pushdown never changes results,
//! and that an aggregate reading only the columns it declares returns the
//! rows of the full-width scan.

use std::sync::Arc;

use proptest::prelude::*;

use unified_logging::core::session::{day_dir, sequences_dir};
use unified_logging::core::write_client_events_columnar;
use unified_logging::dataflow::{DataflowResult, ScalarUdf};
use unified_logging::prelude::*;
use unified_logging::thrift::ThriftRecord;
use unified_logging::warehouse::tag_hash;
use unified_logging::workload::write_paper_raw_log;

struct Fixture {
    wh: Warehouse,
    dict: EventDictionary,
    truth: unified_logging::workload::GroundTruth,
    events: Vec<ClientEvent>,
}

fn fixture() -> Fixture {
    let day = generate_day(
        &WorkloadConfig {
            users: 150,
            ..Default::default()
        },
        0,
    );
    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).unwrap();
    let m = Materializer::new(wh.clone());
    m.run_day(0).unwrap();
    let dict = m.load_dictionary(0).unwrap();
    Fixture {
        wh,
        dict,
        truth: day.truth,
        events: day.events,
    }
}

/// The raw-log count over the day as `wh` holds it, stated once as a FILTER;
/// `pruner` only adds evidence.
fn count_raw(
    wh: &Warehouse,
    f: &Fixture,
    pattern: &EventPattern,
    pruner: Option<Arc<dyn BlockPruner>>,
) -> (i64, JobStats) {
    let matching: Vec<String> = f
        .dict
        .iter()
        .filter(|(_, n, _)| pattern.matches(n))
        .map(|(_, n, _)| n.as_str().to_string())
        .collect();
    let mut predicate = Expr::lit(false);
    for name in &matching {
        predicate = predicate.or(Expr::col(1).eq(Expr::lit(name.as_str())));
    }
    let mut plan = Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    );
    if let Some(pruner) = pruner {
        plan = plan.with_pruner(pruner);
    }
    let plan = plan.filter(predicate).aggregate(vec![Agg::count()]);
    let r = Engine::new(wh.clone()).run(&plan).unwrap();
    (r.rows[0][0].as_int().unwrap(), r.stats)
}

fn count_sequences(f: &Fixture, pattern: &EventPattern) -> (i64, JobStats) {
    let udf = CountClientEvents::new(pattern, &f.dict);
    let plan = Plan::load(
        sequences_dir(0),
        Arc::new(SessionSequenceLoader),
        SESSION_SEQUENCE_SCHEMA.to_vec(),
    )
    .foreach(vec![("n", Expr::udf(udf, vec![Expr::col(3)]))])
    .aggregate(vec![Agg::sum(0).named("total")]);
    let r = Engine::new(f.wh.clone()).run(&plan).unwrap();
    (r.rows[0][0].as_int().unwrap(), r.stats)
}

#[test]
fn raw_and_sequence_counts_agree_across_patterns() {
    let f = fixture();
    // The paper's raw log — one Thrift record per event — beside the
    // columnar landing the fixture (and everything else) reads.
    let row_log = Warehouse::new();
    write_paper_raw_log(&row_log, &f.events, 4).unwrap();
    for pattern in [
        "*:profile_click",
        "*:impression",
        "web:home:mentions:*",
        "iphone:*:*:*:*:click",
        "*:follow",
        "web:search:*",
    ] {
        let p = EventPattern::parse(pattern).unwrap();
        let (raw, raw_stats) = count_raw(&f.wh, &f, &p, None);
        let (seq, seq_stats) = count_sequences(&f, &p);
        assert_eq!(raw, seq, "pattern {pattern}");
        // Ground truth cross-check against the generator's event list.
        let truth = f.events.iter().filter(|e| p.matches(&e.name)).count() as i64;
        assert_eq!(raw, truth, "pattern {pattern} vs truth");
        // The paper's claim — sequences scan dramatically less — is about
        // its row-format raw log, where a count decodes every record whole.
        // The columnar landing's count reads the name column alone, which
        // is most of that gap closed from the other side.
        let (row, row_stats) = count_raw(&row_log, &f, &p, None);
        assert_eq!(row, raw, "pattern {pattern}: row log vs columnar landing");
        assert!(
            seq_stats.input_bytes_uncompressed * 5 < row_stats.input_bytes_uncompressed,
            "pattern {pattern}: sequences decode {} bytes, the row-format raw log {} \
             (the columnar landing {})",
            seq_stats.input_bytes_uncompressed,
            row_stats.input_bytes_uncompressed,
            raw_stats.input_bytes_uncompressed
        );
        assert!(raw_stats.input_bytes_uncompressed < row_stats.input_bytes_uncompressed);
        assert!(seq_stats.map_tasks <= row_stats.map_tasks);
    }
}

#[test]
fn sessions_containing_variant_agrees() {
    let f = fixture();
    let p = EventPattern::parse("*:profile_click").unwrap();
    let charset = EventCharSet::expand(&p, &f.dict);
    let seqs = load_sequences(&f.wh, 0).unwrap();
    let via_sequences = seqs
        .iter()
        .filter(|s| charset.occurs_in(&s.sequence))
        .count() as u64;

    // Truth: distinct (user, session) pairs containing a matching event.
    let mut keys: Vec<(i64, &str)> = f
        .events
        .iter()
        .filter(|e| p.matches(&e.name))
        .map(|e| (e.user_id, e.session_id.as_str()))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(via_sequences as usize, keys.len());
    assert!(via_sequences <= f.truth.sessions);
}

#[test]
fn index_pushdown_preserves_results_and_skips_blocks() {
    let f = fixture();
    // The serving layer's hour indexes, rebuilt from the landed log, are
    // the alongside-the-data index.
    let maintainer = IndexMaintainer::new(f.wh.clone(), "client_events");
    assert!(maintainer.recover().unwrap() > 0);

    // A selective pattern: funnel submits only occur in a few sessions.
    let p = EventPattern::parse("web:signup:*").unwrap();
    let (unindexed, unindexed_stats) = count_raw(&f.wh, &f, &p, None);
    let (indexed, stats) = count_raw(&f.wh, &f, &p, Some(maintainer.handle().pruner()));

    assert_eq!(indexed, unindexed, "index must not change the answer");
    assert!(indexed > 0, "the workload plants funnel events");
    assert!(stats.blocks_skipped > 0, "selective query must skip blocks");
    assert!(stats.input_blocks < unindexed_stats.input_blocks);
}

#[test]
fn dictionary_decode_recovers_exact_sessions() {
    let f = fixture();
    let seqs = load_sequences(&f.wh, 0).unwrap();
    // Reconstruct ground-truth per-session event name lists.
    use std::collections::BTreeMap;
    let mut truth: BTreeMap<(i64, String), Vec<&ClientEvent>> = BTreeMap::new();
    for ev in &f.events {
        truth
            .entry((ev.user_id, ev.session_id.clone()))
            .or_default()
            .push(ev);
    }
    for seq in seqs.iter().take(50) {
        let decoded = f
            .dict
            .decode_sequence(&seq.sequence)
            .expect("dictionary covers the day");
        let mut expected = truth
            .remove(&(seq.user_id, seq.session_id.clone()))
            .expect("session exists in truth");
        expected.sort_by_key(|e| e.timestamp);
        assert_eq!(decoded.len(), expected.len());
        for (d, e) in decoded.iter().zip(&expected) {
            assert_eq!(**d, e.name);
        }
    }
}

const NAMES: [&str; 4] = [
    "web:home:timeline:stream:tweet:impression",
    "iphone:home:timeline:stream:tweet:impression",
    "web:home:timeline:stream:tweet:click",
    "web:profile:header:user:button:follow",
];

/// One directory mixing everything the mover can land: a columnar part, its
/// row-format `-rows` sibling (every other payload undecodable) and a
/// row-layout part with zone-mapped blocks.
fn mixed_landing(seed: u64, rows_per_group: usize) -> (Warehouse, WhPath) {
    let wh = Warehouse::with_block_capacity(1024); // row files span several blocks
    let dir = WhPath::parse("/logs/client_events/mixed").unwrap();
    let events: Vec<ClientEvent> = (0..90u64)
        .map(|i| {
            let mix = seed.wrapping_mul(31).wrapping_add(i * i);
            ClientEvent::new(
                EventInitiator::from_code((mix % 4) as i8).unwrap(),
                EventName::parse(NAMES[(mix % 7 % 4) as usize]).unwrap(),
                (mix % 6) as i64,
                format!("s-{}", mix % 11),
                format!("10.0.0.{}", mix % 5),
                Timestamp(1_000 + (i * 100) as i64),
            )
            .with_detail("rank", (mix % 3).to_string())
        })
        .collect();
    let part = |name: &str| dir.child(name).unwrap();
    write_client_events_columnar(
        &wh,
        &part("part-00000"),
        &events[..50],
        true,
        rows_per_group,
    )
    .unwrap();
    let mut w = wh.create(&part("part-00000-rows")).unwrap();
    for ev in &events[50..60] {
        w.append_record(&ev.to_bytes());
        w.append_record(b"not a thrift payload");
    }
    w.finish().unwrap();
    let mut w = wh.create(&part("part-00001")).unwrap();
    for ev in &events[60..] {
        let tag = tag_hash(ev.name.as_str().as_bytes());
        w.append_record_annotated(&ev.to_bytes(), ev.timestamp.millis(), tag);
    }
    w.finish().unwrap();
    (wh, dir)
}

/// A predicate the planner cannot push below the tuple: it calls a UDF.
struct IsEven;

impl ScalarUdf for IsEven {
    fn name(&self) -> &'static str {
        "IS_EVEN"
    }
    fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
        Ok(Value::Bool(args[0].as_int().is_some_and(|n| n % 2 == 0)))
    }
}

/// Aggregate `func` (an index into the algebraic functions) over `col`;
/// the arithmetic ones are pointed at one of the two integer columns.
fn agg_of(func: usize, col: usize) -> Agg {
    let int_col = [2, 5][col % 2];
    match func {
        0 => Agg::count(),
        1 => Agg::sum(int_col),
        2 => Agg::min(col),
        3 => Agg::max(col),
        4 => Agg::avg(int_col),
        5 => Agg::approx_count_distinct(col),
        _ => Agg::approx_percentile(int_col, 0.9),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random algebraic aggregate straight over the LOAD (optionally under
    /// a pushable filter, a non-pushable one, or both) reads only the
    /// columns it declares under `Pushdown::On`, every column under
    /// `Pushdown::Eager` — and returns the same rows either way, at
    /// workers {1, 4}, at the default memory budget, a tiny one and one
    /// nothing can reach.
    #[test]
    fn aggregates_read_only_their_columns_and_return_the_full_width_rows(
        seed in 0u64..10_000,
        rows_per_group in 1usize..24,
        key_mask in 0usize..128,
        aggs in proptest::collection::vec((0usize..7, 0usize..7), 1..4),
        filters in 0usize..4,
    ) {
        let (wh, dir) = mixed_landing(seed, rows_per_group);
        let keys: Vec<usize> = (0..7).filter(|c| key_mask & (1 << c) != 0).collect();
        let aggs: Vec<Agg> = aggs.into_iter().map(|(func, col)| agg_of(func, col)).collect();
        let mut reads: Vec<usize> = keys.clone();
        reads.extend(aggs.iter().filter(|a| a.func != AggFunc::Count).map(|a| a.col));
        let mut plan = Plan::load(dir, Arc::new(ClientEventLoader), CLIENT_EVENT_SCHEMA.to_vec());
        if filters & 1 != 0 {
            plan = plan.filter(Expr::col(5).ge(Expr::lit(3_000i64)));
            reads.push(5);
        }
        if filters & 2 != 0 {
            plan = plan.filter(Expr::udf(Arc::new(IsEven), vec![Expr::col(2)]));
            reads.push(2);
        }
        let plan = plan.aggregate_by(keys, aggs);
        reads.sort_unstable();
        reads.dedup();

        let run = |pushdown: Pushdown, workers: usize, budget: Option<u64>| {
            let mut engine = Engine::new(wh.clone())
                .with_pushdown(pushdown)
                .with_parallelism(Parallelism::fixed(workers));
            if let Some(bytes) = budget {
                engine = engine.with_mem_budget(bytes);
            }
            engine.run(&plan).unwrap()
        };
        let full = run(Pushdown::Eager, 1, None);
        prop_assert_eq!(full.stats.fields_skipped, 0, "the full-width reference");
        prop_assert_eq!(full.stats.blocks_skipped, 0);
        for workers in [1, 4] {
            for budget in [None, Some(2048), Some(u64::MAX)] {
                let narrow = run(Pushdown::On, workers, budget);
                prop_assert_eq!(&narrow.rows, &full.rows, "workers {} budget {:?}", workers, budget);
                let wide = run(Pushdown::Eager, workers, budget);
                prop_assert_eq!(&wide.rows, &full.rows, "workers {} budget {:?}", workers, budget);
                prop_assert_eq!(wide.stats.fields_skipped, 0);
                // Zone maps may skip whole units under the pushed filter;
                // what is read, is read in full — records and all.
                prop_assert_eq!(
                    narrow.stats.input_blocks + narrow.stats.blocks_skipped,
                    full.stats.input_blocks
                );
                if narrow.stats.blocks_skipped == 0 {
                    prop_assert_eq!(narrow.stats.input_records, full.stats.input_records);
                }
                prop_assert_eq!(
                    narrow.stats.fields_skipped > 0,
                    reads.len() < 7,
                    "columns read: {:?}", reads
                );
            }
        }
    }
}
