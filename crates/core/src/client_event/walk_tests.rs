//! The walk of a client-event struct ([`EventRow::read`]) held to the walk
//! it replaced, kept here as [`reference_read`]: a `read_string` per string,
//! details included, and a name split on `:`. On generated events, and on
//! what a hostile or broken writer makes of them — flipped bytes, cuts,
//! values of 128 bytes and more, non-minimal lengths, bytes that are not
//! UTF-8 on either side of a key/value boundary, unsorted and duplicate
//! keys, repeated, unknown and long-form field ids, type drift on ids 1–7,
//! a structural error after an invalid string — both walks hand out the
//! same row, or fail with the same error, under every column set a reader
//! of the delivery path declares.
#![cfg(test)]

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use super::*;
use crate::columnar::event_columns;
use uli_thrift::TType;

/// [`EventName::is_valid`] as it was: one pass to split, one per level.
fn reference_is_valid(s: &str) -> bool {
    let mut levels = 0usize;
    let mut last = "";
    for part in s.split(':') {
        let ok = part
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
        if levels == crate::event::COMPONENTS || !ok {
            return false;
        }
        levels += 1;
        last = part;
    }
    levels == crate::event::COMPONENTS && !last.is_empty()
}

/// [`Details::read`] as it was: `read_string` twice a pair, as
/// [`CompactReader::read_string_map`] reads.
fn reference_details<'a>(r: &mut CompactReader<'a>) -> ThriftResult<Details<'a>> {
    let (_, _, count) = r.map_begin()?;
    let start = r.position();
    let mut order = MapOrder::default();
    for _ in 0..count {
        let at = r.position();
        let key = r.read_string()?;
        let value = r.read_string()?;
        order.pair(key.as_bytes(), value.as_bytes(), r.position() - at);
    }
    Ok(Details {
        count,
        pairs: r.consumed_since(start),
        in_map_order: !order.broken,
    })
}

/// [`EventRow::read`] as it was, field by field.
fn reference_read<'a>(
    r: &mut CompactReader<'a>,
    columns: &EventColumns,
) -> ThriftResult<EventRow<'a>> {
    r.struct_begin()?;
    let mut initiator = None;
    let mut name = None;
    let mut user_id = None;
    let mut session_id = None;
    let mut ip = None;
    let mut timestamp = None;
    let mut details = Details::EMPTY;
    while let Some(h) = r.field_begin()? {
        match h.id {
            1 => initiator = EventInitiator::from_code(r.read_i8()?),
            2 => {
                let s = r.read_string()?;
                name = reference_is_valid(s).then_some(s);
            }
            3 => user_id = Some(r.read_i64()?),
            4 => session_id = Some(r.read_string()?),
            5 => ip = Some(r.read_string()?),
            6 => timestamp = Some(Timestamp(r.read_i64()?)),
            7 => details = reference_details(r)?,
            _ => r.skip(h.ttype)?,
        }
    }
    r.struct_end();
    let required = |present: bool, field_id| {
        present.then_some(()).ok_or(ThriftError::MissingField {
            strukt: "ClientEvent",
            field_id,
        })
    };
    required(initiator.is_some(), 1)?;
    required(name.is_some(), 2)?;
    required(user_id.is_some(), 3)?;
    required(session_id.is_some(), 4)?;
    required(ip.is_some(), 5)?;
    required(timestamp.is_some(), 6)?;
    Ok(EventRow {
        initiator: initiator.filter(|_| columns[0]),
        name: name.filter(|_| columns[NAME_COLUMN]),
        user_id: user_id.filter(|_| columns[USER_COLUMN]),
        session_id: session_id.filter(|_| columns[SESSION_COLUMN]),
        ip: ip.filter(|_| columns[IP_COLUMN]),
        timestamp: timestamp.filter(|_| columns[TIMESTAMP_COLUMN]),
        details: columns[6].then_some(details),
    })
}

/// What a walk of `payload` under `columns` — [`EventRow::read`], or the
/// `reference` — hands out, printed: every field of the row (an undeclared
/// one is `None`), the details' count, bytes and map order, and where the
/// reader stopped — or the error.
fn outcome(reference: bool, payload: &[u8], columns: &EventColumns) -> String {
    let mut r = CompactReader::new(payload);
    let walked = match reference {
        false => EventRow::read(&mut r, columns),
        true => reference_read(&mut r, columns),
    };
    match walked {
        Ok(row) => format!(
            "{:?}",
            (
                row.initiator,
                row.name,
                row.user_id,
                row.session_id,
                row.ip,
                row.timestamp,
                row.details.map(|d| (d.count, d.pairs, d.in_map_order)),
                r.position(),
            )
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// The column sets of the delivery path: the landing's and
/// `ClientEvent::from_bytes`'s, and the stream fold's.
const COLUMN_SETS: [EventColumns; 2] = [ALL_COLUMNS, event_columns([NAME_COLUMN, USER_COLUMN])];

fn assert_walks_agree(payload: &[u8]) {
    for columns in &COLUMN_SETS {
        assert_eq!(
            outcome(false, payload, columns),
            outcome(true, payload, columns),
            "on {payload:02x?} under {columns:?}"
        );
    }
}

/// A length prefix: the minimal varint, or one padded with `extra` zero
/// continuation bytes (a hostile writer's; capped where a varint would
/// overflow).
fn write_len(out: &mut Vec<u8>, len: usize, extra: u8) {
    let start = out.len();
    varint::write_u64(out, len as u64);
    for _ in 0..extra {
        if out.len() - start == varint::MAX_VARINT_LEN {
            break;
        }
        *out.last_mut().expect("a varint is a byte at least") |= 0x80;
        out.push(0);
    }
}

/// A string as written: its bytes and the padding of its length prefix.
type Text = (Vec<u8>, u8);

/// The value of one wire field.
#[derive(Debug, Clone)]
enum Body {
    Bool(bool),
    I8(u8),
    Varint(i64),
    Double,
    Text(Vec<u8>, u8),
    /// Pairs as given, each string with its own length padding, and how
    /// many more pairs the header announces than are written.
    Map(Vec<(Text, Text)>, usize),
    List(Vec<i64>),
    Struct(i64),
}

impl Body {
    fn ttype(&self) -> TType {
        match self {
            Body::Bool(true) => TType::BoolTrue,
            Body::Bool(false) => TType::BoolFalse,
            Body::I8(_) => TType::I8,
            Body::Varint(_) => TType::I64,
            Body::Double => TType::Double,
            Body::Text(..) => TType::Binary,
            Body::Map(..) => TType::Map,
            Body::List(_) => TType::List,
            Body::Struct(_) => TType::Struct,
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Body::Bool(_) => {}
            Body::I8(v) => out.push(*v),
            Body::Varint(v) => {
                varint::write_i64(out, *v);
            }
            Body::Double => out.extend_from_slice(&1.5f64.to_le_bytes()),
            Body::Text(bytes, extra) => {
                write_len(out, bytes.len(), *extra);
                out.extend_from_slice(bytes);
            }
            Body::Map(pairs, missing) => {
                varint::write_u64(out, (pairs.len() + missing) as u64);
                if pairs.len() + missing > 0 {
                    out.push((TType::Binary as u8) << 4 | TType::Binary as u8);
                }
                for ((key, key_extra), (value, value_extra)) in pairs {
                    write_len(out, key.len(), *key_extra);
                    out.extend_from_slice(key);
                    write_len(out, value.len(), *value_extra);
                    out.extend_from_slice(value);
                }
            }
            Body::List(items) => {
                out.push((items.len() as u8) << 4 | TType::I64 as u8);
                for item in items {
                    varint::write_i64(out, *item);
                }
            }
            Body::Struct(v) => {
                out.push(1 << 4 | TType::I64 as u8);
                varint::write_i64(out, *v);
                out.push(0);
            }
        }
    }
}

/// One field: its id, value, and whether its header takes the long form
/// even where a delta would fit.
#[derive(Debug, Clone)]
struct Field {
    id: i16,
    body: Body,
    long: bool,
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut last = 0i16;
    for field in fields {
        let ttype = field.body.ttype() as u8;
        let delta = i32::from(field.id) - i32::from(last);
        if !field.long && (1..=15).contains(&delta) {
            out.push((delta as u8) << 4 | ttype);
        } else {
            out.push(ttype);
            varint::write_i64(&mut out, i64::from(field.id));
        }
        field.body.write(&mut out);
        last = field.id;
    }
    out.push(0);
    out
}

/// Text that is UTF-8: mostly plain, now and then multi-byte, or 128 bytes
/// and longer, so that its length takes two bytes.
fn arb_valid_text() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        "[a-z0-9_]{0,10}".prop_map(String::into_bytes),
        "[a-z0-9_]{0,10}".prop_map(String::into_bytes),
        "[a-z0-9_]{0,10}".prop_map(String::into_bytes),
        "[a-z0-9_]{0,10}".prop_map(String::into_bytes),
        "\\PC{0,8}".prop_map(String::into_bytes),
        (128usize..300, 0u8..26).prop_map(|(n, c)| vec![b'a' + c; n]),
    ]
    .boxed()
}

/// Bytes that are not UTF-8 at their start or end — a lead byte last, or
/// continuation bytes first, so that they would be UTF-8 joined to their
/// neighbour without the length prefix between — or any bytes at all.
fn arb_bad_text() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        ("[a-z]{0,4}", 0usize..4).prop_map(|(s, at)| {
            let s = s.as_bytes();
            match at {
                0 => [s, b"\xe4"].concat(),
                1 => [s, b"\xe4\xb8"].concat(),
                2 => [b"\xb8\xad", s].concat(),
                _ => [b"\xad", s].concat(),
            }
        }),
        prop::collection::vec(any::<u8>(), 1..6),
    ]
    .boxed()
}

/// Text of a field nobody declared valid: UTF-8 three times in four.
fn arb_text() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        arb_valid_text(),
        arb_valid_text(),
        arb_valid_text(),
        arb_bad_text()
    ]
    .boxed()
}

/// Padding of a length prefix: none, mostly.
fn arb_extra() -> BoxedStrategy<u8> {
    prop_oneof![Just(0u8), Just(0), Just(0), Just(0), 1u8..4].boxed()
}

/// A name: six levels mostly, or five, seven, an empty action, letters no
/// name holds.
fn arb_name() -> BoxedStrategy<Vec<u8>> {
    let valid = || {
        ("[a-z]{1,5}", "[a-z_]{0,4}", "[a-z0-9_]{1,6}")
            .prop_map(|(c, mid, action)| format!("{c}:{mid}:{mid}::tweet:{action}").into_bytes())
    };
    prop_oneof![
        valid(),
        valid(),
        valid(),
        valid(),
        "[a-z]{1,4}".prop_map(|a| format!("web:home:stream:tweet:{a}").into_bytes()),
        "[a-z]{1,4}".prop_map(|a| format!("web:home:x::stream:tweet:{a}").into_bytes()),
        "[a-z]{1,4}".prop_map(|a| format!("web:home:x:stream:tweet:{a}:").into_bytes()),
        "[a-zA-Z:_ ]{0,24}".prop_map(String::into_bytes),
    ]
    .boxed()
}

/// Detail pairs of valid text: keys from a small alphabet, so that they
/// repeat and come out of order now and then.
fn arb_pairs() -> BoxedStrategy<Vec<(Text, Text)>> {
    let key = prop_oneof![
        "[a-e]{1,3}".prop_map(String::into_bytes),
        "[a-e]{1,3}".prop_map(String::into_bytes),
        arb_valid_text(),
    ];
    prop::collection::vec(((key, arb_extra()), (arb_valid_text(), arb_extra())), 0..10).boxed()
}

/// A value for any field: the declared type of a known id, or any other.
fn arb_body() -> BoxedStrategy<Body> {
    prop_oneof![
        any::<bool>().prop_map(Body::Bool),
        any::<u8>().prop_map(Body::I8),
        any::<i64>().prop_map(Body::Varint),
        Just(Body::Double),
        (arb_text(), arb_extra()).prop_map(|(t, e)| Body::Text(t, e)),
        (arb_pairs(), prop_oneof![Just(0usize), Just(0), 1usize..3])
            .prop_map(|(pairs, missing)| Body::Map(pairs, missing)),
        prop::collection::vec(any::<i64>(), 0..4).prop_map(Body::List),
        any::<i64>().prop_map(Body::Struct),
    ]
    .boxed()
}

/// A field id past the seven: small, near the top of `i16`, or negative.
fn arb_unknown_id() -> BoxedStrategy<i16> {
    prop_oneof![8i16..40, 32_750i16..=i16::MAX, -40i16..0].boxed()
}

/// What happens to the encoded event.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// XOR into the byte at this share of the payload.
    Flip(u16, u8),
    /// Cut at this share of the payload.
    Cut(u16),
    /// A header of type 15 before the stop byte: a structural error after
    /// everything else.
    BadHeader,
}

fn arb_damage() -> BoxedStrategy<Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        (any::<u16>(), 1u8..=255).prop_map(|(at, x)| Damage::Flip(at, x)),
        any::<u16>().prop_map(Damage::Cut),
        Just(Damage::BadHeader),
    ]
    .boxed()
}

/// One string of the event — a key or value of its details, or one of
/// fields 2, 4, 5, counted in that order — made `bad`, now and then.
fn arb_taint() -> BoxedStrategy<Option<(usize, Vec<u8>)>> {
    prop_oneof![
        Just(None),
        Just(None),
        (any::<usize>(), arb_bad_text()).prop_map(Some),
    ]
    .boxed()
}

/// A generated event: the seven fields with their declared types and
/// contents mostly valid, one string now and then not UTF-8, in any order,
/// headers short or long; then repeats of known ids with any body (type
/// drift, overrides), unknown ids, and damage.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        (
            (0u8..5, arb_name(), any::<i64>()),
            (
                (arb_valid_text(), arb_extra()),
                (arb_valid_text(), arb_extra()),
            ),
            (any::<i64>(), arb_pairs()),
            arb_taint(),
        ),
        prop::collection::vec((1i16..8, arb_body()), 0..2),
        prop::collection::vec((arb_unknown_id(), arb_body()), 0..3),
        (any::<u64>(), any::<u8>()),
        arb_damage(),
    )
        .prop_map(
            |(
                ((initiator, name, user), (session, ip), (ts, mut pairs), taint),
                repeats,
                unknown,
                (seed, long),
                damage,
            )| {
                let (mut name, mut session, mut ip) = (name, session, ip);
                if let Some((at, bad)) = taint {
                    let mut strings: Vec<&mut Vec<u8>> = pairs
                        .iter_mut()
                        .flat_map(|((k, _), (v, _))| [k, v])
                        .collect();
                    strings.extend([&mut name, &mut session.0, &mut ip.0]);
                    let n = strings.len();
                    *strings[at % n] = bad;
                }
                let mut fields = vec![
                    (1, Body::I8(initiator)),
                    (2, Body::Text(name, 0)),
                    (3, Body::Varint(user)),
                    (4, Body::Text(session.0, session.1)),
                    (5, Body::Text(ip.0, ip.1)),
                    (6, Body::Varint(ts)),
                    (7, Body::Map(pairs, 0)),
                ];
                fields.extend(repeats);
                fields.extend(unknown);
                shuffle(&mut fields, seed);
                let fields: Vec<Field> = fields
                    .into_iter()
                    .enumerate()
                    .map(|(i, (id, body))| Field {
                        id,
                        body,
                        long: long >> (i % 8) & 1 == 1 && i % 3 == 0,
                    })
                    .collect();
                let mut bytes = encode(&fields);
                let share = |at: u16, len: usize| usize::from(at) * len / 65_536;
                match damage {
                    Damage::None => {}
                    Damage::Flip(at, x) => {
                        let at = share(at, bytes.len());
                        bytes[at] ^= x;
                    }
                    Damage::Cut(at) => bytes.truncate(share(at, bytes.len())),
                    Damage::BadHeader => {
                        bytes.pop();
                        bytes.extend_from_slice(&[0x1f, 0]);
                    }
                }
                bytes
            },
        )
}

/// Deterministic Fisher–Yates (the vendored proptest has no shuffle).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed as usize) % (i + 1));
    }
}

/// Draws 16,384 generated payloads, holds the walks to each other on every
/// one, and checks the draw is not vacuous: events decode, and every way of
/// failing a hostile payload can reach occurs.
#[test]
fn the_walk_reads_as_the_walk_it_replaced() {
    let payloads = arb_payload();
    let mut rng = TestRng::deterministic("the_walk_reads_as_the_walk_it_replaced");
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    for _ in 0..16_384 {
        let payload = payloads.gen_value(&mut rng);
        assert_walks_agree(&payload);
        let kind = match EventRow::from_bytes(&payload) {
            Ok(_) => "row",
            Err(ThriftError::UnexpectedEof { .. }) => "eof",
            Err(ThriftError::InvalidType(_)) => "type",
            Err(ThriftError::VarintOverflow) => "varint",
            Err(ThriftError::InvalidLength(_)) => "length",
            Err(ThriftError::InvalidUtf8) => "utf8",
            Err(ThriftError::MissingField { .. }) => "missing",
            Err(ThriftError::DepthLimitExceeded) => "depth",
            Err(e) => panic!("the walk failed as it cannot: {e:?}"),
        };
        *seen.entry(kind).or_default() += 1;
    }
    for kind in ["row", "eof", "type", "length", "utf8", "missing"] {
        assert!(seen.get(kind).is_some_and(|n| *n >= 400), "{seen:?}");
    }
}

/// Payloads a generator may miss, each pinned: the walks agree on them, and
/// the first error in the stream is the one reported.
#[test]
fn the_walks_agree_on_the_edges() {
    let event = |details: &[u8]| {
        let mut bytes = vec![0x13, 0x00, 0x18, 0x11];
        bytes.extend_from_slice(b"web:a:b:c:d:click");
        bytes.extend_from_slice(&[0x16, 0x0e, 0x18, 0x01, b's', 0x18, 0x01, b'i', 0x16, 0x02]);
        bytes.push(0x1b);
        bytes.extend_from_slice(details);
        bytes.push(0x00);
        bytes
    };
    // A key that ends in a lead byte, then a value whose padded length
    // begins with two bytes that would complete it: UTF-8 only if the
    // prefix were checked as text.
    let across = event(&[0x01, 0x88, 0x02, b'k', 0xe4, 0x81, 0x80, 0x00, b'v']);
    // An invalid value, then a length that runs past the end: the invalid
    // string comes first.
    let then_cut = event(&[0x02, 0x88, 0x01, b'k', 0x01, 0xff, 0x01, b'k', 0x7f]);
    // An invalid key, then a header whose type is no type.
    let mut then_bad_type = event(&[0x01, 0x88, 0x01, 0xc3, 0x00]);
    then_bad_type.pop();
    then_bad_type.extend_from_slice(&[0x1f, 0x00]);
    // Field 32767 in long form, then a short-form header one past it.
    let overflow = [0x06, 0xfe, 0xff, 0x03, 0x02, 0x16, 0x02, 0x00];
    for (payload, error) in [
        (&across[..], "InvalidUtf8"),
        (&then_cut[..], "InvalidUtf8"),
        (&then_bad_type[..], "InvalidUtf8"),
        (&overflow[..], "InvalidLength(32768)"),
    ] {
        assert_walks_agree(payload);
        assert_eq!(
            outcome(false, payload, &ALL_COLUMNS),
            error,
            "{payload:02x?}"
        );
    }
    // Unpadded, the same event decodes.
    assert_walks_agree(&event(&[0x01, 0x88, 0x01, b'k', 0x01, b'v']));
    assert!(EventRow::from_bytes(&event(&[0x01, 0x88, 0x01, b'k', 0x01, b'v'])).is_ok());
}
