//! Property tests for the columnar read path: a query over a columnar
//! landing must return byte-identical rows to the same query over a
//! row-format landing of the same events — regardless of the thrift field
//! order the row writer happened to use, of which event names made the
//! embedded dictionary (misses fall back to the inline-encoded cell), and
//! of the worker count {1, 4, 8} — and the rows of the same operators over
//! what a bare LOAD of the row landing returns. Beside it, a
//! random details map round-trips through a decoded event's details buffer
//! into the columnar cell the map itself would make.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use uli_core::client_event::{ClientEvent, ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::columnar::{
    write_client_events_columnar, ClientEventColumnar, CLIENT_EVENT_KINDS, NAME_COLUMN,
};
use uli_core::event::{EventInitiator, EventName};
use uli_core::session::day_dir;
use uli_core::time::Timestamp;
use uli_dataflow::{Agg, ColumnarCodec, Engine, Expr, Parallelism, Plan, Value};
use uli_thrift::{varint, CompactWriter};
use uli_warehouse::chunk::{write_string_map_count, write_string_map_pair};
use uli_warehouse::{tag_hash, Cell, ColumnarFile, ColumnarFileWriter, Warehouse};

/// The name pool: queries select the first entry; the dictionary subset is
/// chosen per case, so any of these can be an unknown (inline) name.
const NAMES: [&str; 3] = [
    "web:home:feed:stream:tweet:click",
    "web:home:feed:stream:tweet:impression",
    "iphone:profile:::tweet:follow",
];

/// Deterministic Fisher–Yates driven by a generated seed (the vendored
/// proptest has no `prop_shuffle`).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        // xorshift64*
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed as usize) % (i + 1));
    }
}

/// Encodes one event with its seven thrift fields in a shuffled order — the
/// row loader must not care, and the columnar landing never sees wire order
/// at all.
type FieldWriter<'a> = Box<dyn Fn(&mut CompactWriter) + 'a>;

fn encode_shuffled(ev: &ClientEvent, seed: u64) -> Vec<u8> {
    let mut fields: Vec<FieldWriter> = vec![
        Box::new(|w| w.field_i8(1, ev.initiator.code())),
        Box::new(|w| w.field_string(2, ev.name.as_str())),
        Box::new(|w| w.field_i64(3, ev.user_id)),
        Box::new(|w| w.field_string(4, &ev.session_id)),
        Box::new(|w| w.field_string(5, &ev.ip)),
        Box::new(|w| w.field_i64(6, ev.timestamp.millis())),
        Box::new(|w| w.field_string_map(7, &ev.details)),
    ];
    shuffle(&mut fields, seed);
    let mut w = CompactWriter::new();
    w.struct_begin();
    for f in &fields {
        f(&mut w);
    }
    w.struct_end();
    w.into_bytes()
}

/// Lands the events as annotated row blocks, one record per event, with a
/// per-record shuffled field order.
fn land_rows(events: &[ClientEvent], seed: u64) -> Warehouse {
    let wh = Warehouse::with_block_capacity(1024);
    let dir = day_dir("client_events", 0);
    let mut w = wh.create(&dir.child("part-00000").unwrap()).unwrap();
    for (i, ev) in events.iter().enumerate() {
        w.append_record_annotated(
            &encode_shuffled(ev, seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ev.timestamp.millis(),
            tag_hash(ev.name.as_str().as_bytes()),
        );
    }
    w.finish().unwrap();
    wh
}

/// Lands the same events columnar, with only the dictionary subset of the
/// name pool dictionary-coded — every other name is an inline miss cell.
fn land_columnar(events: &[ClientEvent], dict_names: &[&str], rows_per_group: usize) -> Warehouse {
    let wh = Warehouse::new();
    let dir = day_dir("client_events", 0);
    let entries: Vec<&[u8]> = dict_names.iter().map(|n| n.as_bytes()).collect();
    let dictionary = (!entries.is_empty()).then_some((NAME_COLUMN, entries.as_slice()));
    let mut w = ColumnarFileWriter::create(
        &wh,
        &dir.child("part-00000").unwrap(),
        &CLIENT_EVENT_KINDS,
        rows_per_group,
        dictionary,
    )
    .unwrap();
    for ev in events {
        let name = match dict_names.iter().position(|n| *n == ev.name.as_str()) {
            Some(code) => Cell::Code(code as u32),
            None => Cell::Bytes(ev.name.as_str().as_bytes()),
        };
        let mut details = Vec::new();
        write_string_map_count(&mut details, ev.details.len());
        for (key, value) in ev.details.iter() {
            write_string_map_pair(&mut details, key.as_bytes(), value.as_bytes());
        }
        let cells = [
            Cell::Bytes(&[ev.initiator.code() as u8]),
            name,
            Cell::Int(ev.user_id),
            Cell::Bytes(ev.session_id.as_bytes()),
            Cell::Bytes(ev.ip.as_bytes()),
            Cell::Int(ev.timestamp.millis()),
            Cell::Bytes(&details),
        ];
        let zone = (ev.timestamp.millis(), tag_hash(ev.name.as_str().as_bytes()));
        w.append_row(&cells, Some(zone));
    }
    w.finish().unwrap();
    wh
}

/// Details maps: empty now and then, keys that may be empty, values that
/// now and then need a two-byte length.
fn arb_details() -> impl Strategy<Value = BTreeMap<String, String>> {
    let value = prop_oneof![
        "[a-z0-9 .:/]{0,12}".boxed(),
        "[a-z0-9 .:/]{0,12}".boxed(),
        "[a-z]{120,140}".boxed(),
    ];
    prop::collection::btree_map("[a-z_]{0,6}", value, 0..6)
}

fn arb_event() -> impl Strategy<Value = ClientEvent> {
    (
        0i8..4,
        0usize..NAMES.len(),
        0i64..40,
        0i64..10_000,
        arb_details(),
    )
        .prop_map(|(init, name, uid, ts, details)| {
            let mut ev = ClientEvent::new(
                EventInitiator::from_code(init).expect("0..4 are valid"),
                EventName::parse(NAMES[name]).expect("pool names are valid"),
                uid,
                format!("s-{uid}"),
                "10.0.0.1",
                Timestamp(ts),
            );
            ev.details = details.iter().collect();
            ev
        })
}

/// The day's LOAD.
fn load() -> Plan {
    Plan::load(
        day_dir("client_events", 0),
        Arc::new(ClientEventLoader),
        CLIENT_EVENT_SCHEMA.to_vec(),
    )
}

/// The selective query shape every experiment uses over `source`: a
/// timestamp window AND one event name, projected to (user_id, name),
/// counted per user.
fn selective_plan(source: Plan, name: &str, t0: i64, t1: i64) -> Plan {
    source
        .filter(
            Expr::col(5)
                .ge(Expr::lit(t0))
                .and(Expr::col(5).le(Expr::lit(t1))),
        )
        .filter(Expr::col(1).eq(Expr::lit(name)))
        .foreach(vec![("user_id", Expr::col(2)), ("name", Expr::col(1))])
        .aggregate_by(vec![0], vec![Agg::count()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row and columnar-vectorized runs of the same selective query return
    /// byte-identical rows at workers {1, 4, 8} — the rows of the same
    /// operators over a bare LOAD of the row landing — whatever the row
    /// field order, the dictionary subset (the queried name itself may be a
    /// dictionary miss), or the row-group size.
    #[test]
    fn columnar_scan_equals_row_scan(
        events in prop::collection::vec(arb_event(), 1..120),
        order_seed in any::<u64>(),
        (dict_mask, queried) in (0u8..8, 0usize..NAMES.len()),
        rows_per_group in 1usize..40,
        t0 in 0i64..10_000,
        window in 1i64..10_000,
    ) {
        let dict_names: Vec<&str> = NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| dict_mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let t1 = t0.saturating_add(window);

        let row_wh = land_rows(&events, order_seed);
        let col_wh = land_columnar(&events, &dict_names, rows_per_group);

        let engine = Engine::new(row_wh.clone());
        let bare = engine.run(&load()).expect("bare LOAD runs").rows;
        let values = Plan::values(CLIENT_EVENT_SCHEMA.to_vec(), bare);
        let reference = engine
            .run(&selective_plan(values, NAMES[queried], t0, t1))
            .expect("reference runs")
            .rows;
        for (wh, label) in [(&row_wh, "row"), (&col_wh, "columnar")] {
            for workers in [1usize, 4, 8] {
                let engine = Engine::new(wh.clone())
                    .with_parallelism(Parallelism::fixed(workers));
                let result = engine
                    .run(&selective_plan(load(), NAMES[queried], t0, t1))
                    .expect("query runs");
                prop_assert_eq!(
                    &reference,
                    &result.rows,
                    "diverged at {} workers={}",
                    label,
                    workers
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A details map round-trips through an event's details buffer: the
    /// details cell the event lands as is the cell the map makes — its
    /// count, then its pairs in key order — the event prints its
    /// details as the map prints, and the columnar codec decodes the cell
    /// to the loader's map of the same pairs.
    #[test]
    fn a_details_map_round_trips_into_its_columnar_cell(details in arb_details()) {
        let mut ev = ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(NAMES[0]).expect("pool names are valid"),
            7,
            "s-7",
            "10.0.0.1",
            Timestamp(0),
        );
        ev.details = details.iter().collect();
        let mut cell = Vec::new();
        varint::write_u64(&mut cell, details.len() as u64);
        for text in details.iter().flat_map(|(k, v)| [k, v]) {
            varint::write_u64(&mut cell, text.len() as u64);
            cell.extend_from_slice(text.as_bytes());
        }
        let wh = Warehouse::new();
        let path = day_dir("client_events", 0).child("part-00000").unwrap();
        write_client_events_columnar(&wh, &path, &[ev.clone()], false, 1).unwrap();
        let mut columns = [false; 7];
        columns[6] = true;
        let group = ColumnarFile::open(&wh, &path).unwrap().read_group(0, &columns).unwrap();
        prop_assert_eq!(group.column(6).unwrap().bytes(0), Some(&cell[..]));
        prop_assert_eq!(format!("{:?}", ev.details), format!("{details:?}"));
        let loaded = details.iter().map(|(k, v)| (k.clone(), Value::str(v))).collect();
        prop_assert_eq!(ClientEventColumnar.decode(6, &cell), Some(Value::Map(loaded)));
    }
}
