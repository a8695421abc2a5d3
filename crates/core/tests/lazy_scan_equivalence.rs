//! Property tests for the one walk of a client-event struct
//! (`EventRow::read`) and everything built on it. The walk must agree with
//! the eager, allocating decoder this repo started from — kept here as
//! `reference_read` — on every input: well-formed records, records with
//! missing/duplicate/unknown fields (v1 readers meeting v2 writers and vice
//! versa), type drift, truncation, raw byte soup, and what only a hostile
//! writer sends: repeated ids, details with unsorted or duplicate keys or
//! over-long varints, bytes that are not UTF-8 in any string, bad initiator
//! codes, five- and seven-level names. The columnar landing must reject
//! exactly the payloads the reference rejects and land, for the rest, the
//! cells the reference's event encodes to; the pushdown scan in
//! `ClientEventLoader::scan` must agree with the eager parse, and a whole
//! query under projection + predicate pushdown must return byte-identical
//! rows to the eager plan at every worker count.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use uli_core::client_event::{ClientEvent, ClientEventLoader, CLIENT_EVENT_SCHEMA};
use uli_core::columnar::{ClientEventLanding, EventRow};
use uli_core::event::{EventInitiator, EventName};
use uli_core::session::day_dir;
use uli_core::time::Timestamp;
use uli_dataflow::{Agg, Engine, Expr, Loader, Parallelism, Plan, Pushdown, ScanSpec, Value};
use uli_thrift::{
    varint, CompactReader, CompactWriter, TType, ThriftError, ThriftRecord, ThriftResult,
};
use uli_warehouse::{tag_hash, ColumnarFile, ColumnarLanding, Warehouse, WhPath};

/// One wire field of a synthetic record. Known ids may carry the declared
/// type or a drifted one; unknown ids model a newer (v2) writer.
#[derive(Debug, Clone)]
enum Field {
    Initiator(i8),
    Name(String),
    UserId(i64),
    SessionId(String),
    Ip(String),
    Ts(i64),
    Details(BTreeMap<String, String>),
    /// A field id this reader does not know (8..), string payload.
    UnknownString(i16, String),
    /// A field id this reader does not know (8..), i64 payload.
    UnknownI64(i16, i64),
    /// Type drift: a string where field 3/6 expect an i64.
    DriftString(i16, String),
    /// Type drift: an i64 where field 2/4/5 expect a string.
    DriftI64(i16, i64),
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut w = CompactWriter::new();
    w.struct_begin();
    for f in fields {
        match f {
            Field::Initiator(c) => w.field_i8(1, *c),
            Field::Name(s) => w.field_string(2, s),
            Field::UserId(v) => w.field_i64(3, *v),
            Field::SessionId(s) => w.field_string(4, s),
            Field::Ip(s) => w.field_string(5, s),
            Field::Ts(v) => w.field_i64(6, *v),
            Field::Details(m) => w.field_string_map(7, m),
            Field::UnknownString(id, s) => w.field_string(*id, s),
            Field::UnknownI64(id, v) => w.field_i64(*id, *v),
            Field::DriftString(id, s) => w.field_string(*id, s),
            Field::DriftI64(id, v) => w.field_i64(*id, *v),
        }
    }
    w.struct_end();
    w.into_bytes()
}

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

/// Event names that are valid about half the time.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        // Valid: six lowercase components, non-empty action.
        ("[a-z0-9_]{1,5}", "[a-z0-9_]{0,4}", "[a-z0-9_]{1,6}")
            .prop_map(|(c, mid, action)| format!("{c}:{mid}:{mid}::tweet:{action}")),
        // Wrong arity, bad characters, empty action.
        "[a-zA-Z:_ ]{0,24}",
    ]
}

fn arb_field() -> BoxedStrategy<Field> {
    prop_oneof![
        (-1i8..6).prop_map(Field::Initiator).boxed(),
        arb_name().prop_map(Field::Name).boxed(),
        any::<i64>().prop_map(Field::UserId).boxed(),
        "[a-z0-9-]{0,12}".prop_map(Field::SessionId).boxed(),
        "[0-9.]{0,15}".prop_map(Field::Ip).boxed(),
        any::<i64>().prop_map(Field::Ts).boxed(),
        prop::collection::btree_map("[a-z]{1,6}", "[a-z0-9 ]{0,8}", 0..4)
            .prop_map(Field::Details)
            .boxed(),
        (8i16..40, "[a-z]{0,8}")
            .prop_map(|(id, s)| Field::UnknownString(id, s))
            .boxed(),
        (8i16..40, any::<i64>())
            .prop_map(|(id, v)| Field::UnknownI64(id, v))
            .boxed(),
        (prop_oneof![Just(3i16), Just(6i16)], "[a-z]{0,6}")
            .prop_map(|(id, s)| Field::DriftString(id, s))
            .boxed(),
        (
            prop_oneof![Just(2i16), Just(4i16), Just(5i16)],
            any::<i64>()
        )
            .prop_map(|(id, v)| Field::DriftI64(id, v))
            .boxed(),
    ]
    .boxed()
}

/// A complete, decodable record: all six required fields valid, details and
/// unknown (v2) fields optional, field order shuffled.
fn arb_complete_record() -> impl Strategy<Value = Vec<u8>> {
    (
        (
            0i8..4,
            ("[a-z]{1,5}", "[a-z]{1,6}").prop_map(|(p, a)| format!("web:{p}:{p}:stream:tweet:{a}")),
            any::<i64>(),
            "[a-z0-9-]{1,12}",
            "[0-9.]{1,15}",
            any::<i64>(),
        ),
        prop_oneof![
            prop::collection::btree_map("[a-z]{1,6}", "[a-z0-9]{0,8}", 0..4)
                .prop_map(Some)
                .boxed(),
            Just(None).boxed(),
        ],
        prop::collection::vec((8i16..40, "[a-z]{0,8}"), 0..3),
        any::<u64>(),
    )
        .prop_map(
            |((init, name, uid, sid, ip, ts), details, unknowns, seed)| {
                let mut fields = vec![
                    Field::Initiator(init),
                    Field::Name(name),
                    Field::UserId(uid),
                    Field::SessionId(sid),
                    Field::Ip(ip),
                    Field::Ts(ts),
                ];
                if let Some(m) = details {
                    fields.push(Field::Details(m));
                }
                for (id, s) in unknowns {
                    fields.push(Field::UnknownString(id, s));
                }
                shuffle(&mut fields, seed);
                encode(&fields)
            },
        )
}

/// One field as a hostile writer may send it: always the long header form
/// (type byte, then the id as a varint), so any id may follow any other.
#[derive(Debug, Clone)]
enum RawField {
    Initiator(i8),
    /// Field 2, 4 or 5 as arbitrary bytes.
    Text(i16, Vec<u8>),
    Int(i16, i64),
    /// Field 7: pairs in the order given, keys repeating freely; with
    /// `overlong`, every length is a two-byte varint where one would do.
    Details {
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
        overlong: bool,
    },
}

fn encode_raw(fields: &[RawField]) -> Vec<u8> {
    fn header(out: &mut Vec<u8>, id: i16, ttype: TType) {
        out.push(ttype as u8);
        varint::write_i64(out, i64::from(id));
    }
    fn text(out: &mut Vec<u8>, bytes: &[u8], overlong: bool) {
        if overlong {
            assert!(bytes.len() < 128);
            out.extend_from_slice(&[bytes.len() as u8 | 0x80, 0]);
        } else {
            varint::write_u64(out, bytes.len() as u64);
        }
        out.extend_from_slice(bytes);
    }
    let mut out = Vec::new();
    for f in fields {
        match f {
            RawField::Initiator(code) => {
                header(&mut out, 1, TType::I8);
                out.push(*code as u8);
            }
            RawField::Text(id, bytes) => {
                header(&mut out, *id, TType::Binary);
                text(&mut out, bytes, false);
            }
            RawField::Int(id, v) => {
                header(&mut out, *id, TType::I64);
                varint::write_i64(&mut out, *v);
            }
            RawField::Details { pairs, overlong } => {
                header(&mut out, 7, TType::Map);
                varint::write_u64(&mut out, pairs.len() as u64);
                if !pairs.is_empty() {
                    out.push((TType::Binary as u8) << 4 | TType::Binary as u8);
                }
                for (k, v) in pairs {
                    text(&mut out, k, *overlong);
                    text(&mut out, v, *overlong);
                }
            }
        }
    }
    out.push(0); // stop
    out
}

/// Mostly text, now and then bytes that are not UTF-8.
fn arb_text(pattern: &'static str) -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        pattern.prop_map(String::into_bytes).boxed(),
        pattern.prop_map(String::into_bytes).boxed(),
        pattern.prop_map(String::into_bytes).boxed(),
        prop::collection::vec(any::<u8>(), 0..6).boxed(),
    ]
    .boxed()
}

fn arb_raw_field() -> BoxedStrategy<RawField> {
    let name = prop_oneof![
        // Six levels, then five and seven.
        "[a-z]{1,4}".prop_map(|a| format!("web:home::stream:tweet:{a}")),
        "[a-z]{1,4}".prop_map(|a| format!("web:home:stream:tweet:{a}")),
        "[a-z]{1,4}".prop_map(|a| format!("web:home:x::stream:tweet:{a}")),
    ];
    prop_oneof![
        (-1i8..6).prop_map(RawField::Initiator).boxed(),
        name.prop_map(|n| RawField::Text(2, n.into_bytes())).boxed(),
        arb_text("[a-z:]{0,8}")
            .prop_map(|b| RawField::Text(2, b))
            .boxed(),
        (3i16..7, any::<i64>())
            .prop_map(|(id, v)| RawField::Int(if id < 5 { 3 } else { 6 }, v))
            .boxed(),
        (4i16..6, arb_text("[a-z0-9.-]{0,10}"))
            .prop_map(|(id, b)| RawField::Text(id, b))
            .boxed(),
        (
            prop::collection::vec((arb_text("[a-c]{0,2}"), arb_text("[a-z0-9 ]{0,6}")), 0..5),
            any::<bool>()
        )
            .prop_map(|(pairs, overlong)| RawField::Details { pairs, overlong })
            .boxed(),
    ]
    .boxed()
}

/// A record from a hostile writer: one of each required field, valid, in
/// any order (so that many of these decode), then whatever else — repeats
/// of any id that override or break what came before.
fn arb_hostile_record() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(arb_raw_field(), 0..6),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(extra, seed, extra_last)| {
            let mut fields = vec![
                RawField::Initiator(2),
                RawField::Text(2, b"web:home:home:stream:tweet:click".to_vec()),
                RawField::Int(3, 7),
                RawField::Text(4, b"s-1".to_vec()),
                RawField::Text(5, b"10.0.0.1".to_vec()),
                RawField::Int(6, 1_000),
            ];
            if extra_last {
                shuffle(&mut fields, seed);
                fields.extend(extra);
            } else {
                fields.extend(extra);
                shuffle(&mut fields, seed);
            }
            encode_raw(&fields)
        })
}

/// Any record: complete, arbitrary field soup (missing/duplicate/drifting
/// fields in any order), a truncated encoding, or raw bytes.
fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_complete_record().boxed(),
        (prop::collection::vec(arb_field(), 0..10), any::<u64>())
            .prop_map(|(mut fields, seed)| {
                shuffle(&mut fields, seed);
                encode(&fields)
            })
            .boxed(),
        (arb_complete_record(), 0usize..101)
            .prop_map(|(bytes, pct)| {
                let cut = bytes.len() * pct / 100;
                bytes[..cut].to_vec()
            })
            .boxed(),
        prop::collection::vec(any::<u8>(), 0..64).boxed(),
        arb_hostile_record().boxed(),
        arb_hostile_record().boxed(),
    ]
}

/// The eager decoder the repo started from: a `String` per string, a map
/// per details field, field by field. What the one borrowed walk is held to.
fn reference_read(bytes: &[u8]) -> ThriftResult<ClientEvent> {
    let mut r = CompactReader::new(bytes);
    r.struct_begin()?;
    let mut initiator = None;
    let mut name = None;
    let mut user_id = None;
    let mut session_id = None;
    let mut ip = None;
    let mut timestamp = None;
    let mut details = BTreeMap::new();
    while let Some(h) = r.field_begin()? {
        match h.id {
            1 => initiator = EventInitiator::from_code(r.read_i8()?),
            2 => name = EventName::parse(r.read_string()?).ok(),
            3 => user_id = Some(r.read_i64()?),
            4 => session_id = Some(r.read_string()?.to_owned()),
            5 => ip = Some(r.read_string()?.to_owned()),
            6 => timestamp = Some(Timestamp(r.read_i64()?)),
            7 => details = r.read_string_map()?,
            _ => r.skip(h.ttype)?,
        }
    }
    r.struct_end();
    let missing = |field_id| ThriftError::MissingField {
        strukt: "ClientEvent",
        field_id,
    };
    Ok(ClientEvent {
        initiator: initiator.ok_or_else(|| missing(1))?,
        name: name.ok_or_else(|| missing(2))?,
        user_id: user_id.ok_or_else(|| missing(3))?,
        session_id: session_id.ok_or_else(|| missing(4))?,
        ip: ip.ok_or_else(|| missing(5))?,
        timestamp: timestamp.ok_or_else(|| missing(6))?,
        details,
    })
}

/// The seven cells of an event, as first written.
fn reference_cells(ev: &ClientEvent) -> [Vec<u8>; 7] {
    let mut details = Vec::new();
    varint::write_u64(&mut details, ev.details.len() as u64);
    for (k, v) in &ev.details {
        varint::write_u64(&mut details, k.len() as u64);
        details.extend_from_slice(k.as_bytes());
        varint::write_u64(&mut details, v.len() as u64);
        details.extend_from_slice(v.as_bytes());
    }
    [
        vec![ev.initiator.code() as u8],
        ev.name.as_str().as_bytes().to_vec(),
        ev.user_id.to_le_bytes().to_vec(),
        ev.session_id.as_bytes().to_vec(),
        ev.ip.as_bytes().to_vec(),
        ev.timestamp.millis().to_le_bytes().to_vec(),
        details,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The borrowed walk is the reference decoder: the same payloads are
    /// accepted, with the same error otherwise, and every field it hands
    /// out — and the event built from them — equals the reference's.
    #[test]
    fn borrowed_walk_equals_the_reference_decoder(bytes in arb_record()) {
        let reference = reference_read(&bytes);
        prop_assert_eq!(&ClientEvent::from_bytes(&bytes), &reference);
        match (EventRow::from_bytes(&bytes), reference) {
            (Ok(row), Ok(ev)) => {
                prop_assert_eq!(row.initiator().unwrap(), ev.initiator);
                prop_assert_eq!(row.name().unwrap(), ev.name.as_str());
                prop_assert_eq!(row.user_id().unwrap(), ev.user_id);
                prop_assert_eq!(row.session_id().unwrap(), ev.session_id.as_str());
                prop_assert_eq!(row.ip().unwrap(), ev.ip.as_str());
                prop_assert_eq!(row.timestamp().unwrap(), ev.timestamp);
                prop_assert_eq!(row.to_event().unwrap(), ev);
            }
            (Err(walk), Err(reference)) => prop_assert_eq!(walk, reference),
            (walk, reference) => prop_assert!(
                false,
                "accept diverged: walk {:?}, reference {:?}",
                walk.map(|row| row.to_event()),
                reference
            ),
        }
    }

    /// The landing rejects exactly the payloads the reference decoder
    /// rejects (what the mover keeps in the `-rows` sibling), and every
    /// other payload lands as the cells its decoded event encodes to —
    /// whether its details were copied off the wire or went through a map.
    #[test]
    fn landing_rejects_and_encodes_as_the_reference(
        payloads in prop::collection::vec(arb_record(), 1..40),
        dictionary in any::<bool>(),
    ) {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-00000").unwrap();
        let landing = ClientEventLanding { dictionary, rows_per_group: 8 };
        let rejected = landing.write_file(&wh, &path, &payloads).unwrap();
        let decoded: Vec<_> = payloads.iter().map(|p| reference_read(p)).collect();
        let expected_rejects: Vec<usize> =
            (0..payloads.len()).filter(|i| decoded[*i].is_err()).collect();
        prop_assert_eq!(&rejected, &expected_rejects);

        let file = ColumnarFile::open(&wh, &path).unwrap();
        let mut landed = Vec::new();
        for g in 0..file.group_count() {
            let group = file.read_group(g, &[true; 7]).unwrap();
            for row in 0..group.rows() {
                let cells: Vec<Vec<u8>> = (0..7)
                    .map(|c| file.cell_bytes(&group, c, row).unwrap().to_vec())
                    .collect();
                landed.push(cells);
            }
        }
        let expected: Vec<Vec<Vec<u8>>> = decoded
            .iter()
            .flatten()
            .map(|ev| reference_cells(ev).to_vec())
            .collect();
        prop_assert_eq!(landed, expected);
    }

    /// Full-projection lazy scan is the eager parse, bit for bit: the same
    /// records decode, the same records are dropped, the same tuples come
    /// out, and nothing is counted as skipped.
    #[test]
    fn lazy_full_scan_equals_eager(bytes in arb_record()) {
        let eager = ClientEventLoader.parse(&bytes).unwrap();
        let lazy = ClientEventLoader.scan(&bytes, &ScanSpec::eager(7)).unwrap();
        prop_assert_eq!(&lazy.tuple, &eager);
        prop_assert_eq!(lazy.fields_skipped, 0);
        prop_assert!(!lazy.skipped_by_predicate);
    }

    /// Under a random keep-mask the lazy scan admits exactly the records the
    /// eager parse admits, matches it on every kept column, and nulls the
    /// rest.
    #[test]
    fn projected_scan_agrees_on_kept_columns(
        bytes in arb_record(),
        mask_bits in any::<u8>(),
    ) {
        let mask: Vec<bool> = (0..7).map(|i| mask_bits & (1 << i) != 0).collect();
        let eager = ClientEventLoader.parse(&bytes).unwrap();
        let spec = ScanSpec {
            projection: Some(mask.clone()),
            predicate: vec![],
            width: 7,
        };
        let lazy = ClientEventLoader.scan(&bytes, &spec).unwrap();
        match (&eager, &lazy.tuple) {
            (None, None) => {
                prop_assert_eq!(lazy.fields_skipped, 0, "dropped records count nothing");
            }
            (Some(e), Some(l)) => {
                for (i, keep) in mask.iter().enumerate() {
                    if *keep {
                        prop_assert_eq!(&l[i], &e[i], "column {} diverged", i);
                    } else {
                        prop_assert_eq!(&l[i], &Value::Null, "column {} not nulled", i);
                    }
                }
                if mask.iter().all(|k| *k) {
                    prop_assert_eq!(lazy.fields_skipped, 0);
                }
            }
            (e, l) => prop_assert!(false, "admit diverged: eager {:?}, lazy {:?}", e, l),
        }
    }

    /// A pushed predicate drops exactly the records a post-parse FILTER
    /// would, and flags them as predicate-skipped rather than undecodable.
    #[test]
    fn pushed_predicate_agrees_with_post_filter(
        bytes in arb_record(),
        threshold in any::<i64>(),
    ) {
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(2).ge(Expr::lit(threshold))],
            width: 7,
        };
        let eager = ClientEventLoader.parse(&bytes).unwrap();
        let lazy = ClientEventLoader.scan(&bytes, &spec).unwrap();
        match eager {
            None => {
                prop_assert!(lazy.tuple.is_none());
                prop_assert!(!lazy.skipped_by_predicate);
            }
            Some(t) => {
                let passes = matches!(t[2], Value::Int(v) if v >= threshold);
                prop_assert_eq!(lazy.tuple.is_some(), passes);
                prop_assert_eq!(lazy.skipped_by_predicate, !passes);
            }
        }
    }
}

/// Lands a batch of valid events as annotated row blocks, one file's worth
/// of what `uli_workload::write_paper_raw_log` writes.
fn land(events: &[ClientEvent]) -> Warehouse {
    let wh = Warehouse::with_block_capacity(1024);
    let dir = day_dir("client_events", 0);
    let mut w = wh.create(&dir.child("part-00000").unwrap()).unwrap();
    for ev in events {
        w.append_record_annotated(
            &ev.to_bytes(),
            ev.timestamp.millis(),
            tag_hash(ev.name.as_str().as_bytes()),
        );
    }
    w.finish().unwrap();
    wh
}

fn arb_event() -> impl Strategy<Value = ClientEvent> {
    (
        0i8..4,
        prop_oneof![
            Just("web:home:feed:stream:tweet:click"),
            Just("web:home:feed:stream:tweet:impression"),
            Just("iphone:profile:::tweet:follow"),
        ],
        0i64..40,
        0i64..10_000,
        prop_oneof![
            ("[a-z]{1,5}", "[a-z0-9]{0,6}").prop_map(Some).boxed(),
            Just(None).boxed(),
        ],
    )
        .prop_map(|(init, name, uid, ts, detail)| {
            let mut ev = ClientEvent::new(
                EventInitiator::from_code(init).expect("0..4 are valid"),
                EventName::parse(name).expect("pool names are valid"),
                uid,
                format!("s-{uid}"),
                "10.0.0.1",
                Timestamp(ts),
            );
            if let Some((k, v)) = detail {
                ev = ev.with_detail(k, v);
            }
            ev
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End to end: a selective 2-column query returns byte-identical rows
    /// under every pushdown layer and worker count, with the pushed run
    /// doing provably less decode work.
    #[test]
    fn query_rows_identical_eager_vs_pushdown(
        events in prop::collection::vec(arb_event(), 1..120),
        t0 in 0i64..10_000,
        window in 1i64..10_000,
    ) {
        let plan = Plan::load(
            day_dir("client_events", 0),
            Arc::new(ClientEventLoader),
            CLIENT_EVENT_SCHEMA.to_vec(),
        )
        .filter(
            Expr::col(5)
                .ge(Expr::lit(t0))
                .and(Expr::col(5).le(Expr::lit(t0.saturating_add(window)))),
        )
        .filter(Expr::col(1).eq(Expr::lit("web:home:feed:stream:tweet:click")))
        .foreach(vec![("user_id", Expr::col(2)), ("name", Expr::col(1))])
        .aggregate_by(vec![0], vec![Agg::count()]);

        let mut reference: Option<Vec<Vec<Value>>> = None;
        for pushdown in [Pushdown::Eager, Pushdown::On] {
            for workers in [1usize, 4] {
                let engine = Engine::new(land(&events))
                    .with_parallelism(Parallelism::fixed(workers))
                    .with_pushdown(pushdown);
                let result = engine.run(&plan).expect("query runs");
                if pushdown == Pushdown::On {
                    // Unprojected: initiator, session_id, ip always on the
                    // wire, details only when non-empty — 3 or 4 skips per
                    // scanned record.
                    prop_assert!(
                        result.stats.fields_skipped >= result.stats.input_records * 3
                            && result.stats.fields_skipped <= result.stats.input_records * 4,
                        "expected 3..=4 skips per record, got {} over {} records",
                        result.stats.fields_skipped,
                        result.stats.input_records
                    );
                }
                match &reference {
                    None => reference = Some(result.rows),
                    Some(rows) => prop_assert_eq!(
                        rows,
                        &result.rows,
                        "diverged at pushdown={:?} workers={}",
                        pushdown,
                        workers
                    ),
                }
            }
        }
    }
}
