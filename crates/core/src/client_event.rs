//! The `ClientEvent` message (§3.2, Table 2).
//!
//! Every client event carries the same seven fields with exactly the same
//! semantics, so "a simple group-by suffices to accurately reconstruct user
//! sessions", and standardized field locations enable "consistent policies
//! for log anonymization". The `event_details` field holds free-form
//! key-value pairs that teams extend "without any central coordination".

use std::collections::BTreeMap;

use uli_dataflow::{
    ColumnarCodec, DataflowError, DataflowResult, Loader, ScanOutcome, ScanSpec, Tuple, Value,
    ZoneColumn,
};
use uli_thrift::{
    varint, CompactReader, CompactWriter, Requiredness, StructDescriptor, TType, ThriftError,
    ThriftRecord, ThriftResult,
};
use uli_warehouse::chunk::{read_string, write_string_map_count, write_string_map_pair};
use uli_warehouse::{WarehouseError, WarehouseResult};

use crate::columnar::{
    EventColumns, ALL_COLUMNS, IP_COLUMN, NAME_COLUMN, SESSION_COLUMN, TIMESTAMP_COLUMN,
    USER_COLUMN,
};
use crate::event::{EventInitiator, EventName};
use crate::time::Timestamp;

/// Scribe category all client events are logged under — the "single place"
/// unification (§3.2).
pub const CLIENT_EVENTS_CATEGORY: &str = "client_events";

/// The declared Thrift schema of [`ClientEvent`] (Table 2), for registries
/// and drift detection: tooling can validate any decoded message against it
/// without the compiled type.
pub fn client_event_descriptor() -> StructDescriptor {
    StructDescriptor::new(
        "ClientEvent",
        [
            (1, "event_initiator", TType::I8, Requiredness::Required),
            (2, "event_name", TType::Binary, Requiredness::Required),
            (3, "user_id", TType::I64, Requiredness::Required),
            (4, "session_id", TType::Binary, Requiredness::Required),
            (5, "ip", TType::Binary, Requiredness::Required),
            (6, "timestamp", TType::I64, Requiredness::Required),
            (7, "event_details", TType::Map, Requiredness::Optional),
        ],
    )
}

/// A unified log message. Field ids are stable Thrift ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientEvent {
    /// Field 1: who/where triggered the event.
    pub initiator: EventInitiator,
    /// Field 2: the six-level event name.
    pub name: EventName,
    /// Field 3: user id (0 = logged out).
    pub user_id: i64,
    /// Field 4: session id "based on browser cookie or other similar
    /// identifier".
    pub session_id: String,
    /// Field 5: the user's IP address.
    pub ip: String,
    /// Field 6: event timestamp.
    pub timestamp: Timestamp,
    /// Field 7: event-specific details as key-value pairs.
    pub details: BTreeMap<String, String>,
}

impl ClientEvent {
    /// A minimal event with empty details.
    pub fn new(
        initiator: EventInitiator,
        name: EventName,
        user_id: i64,
        session_id: impl Into<String>,
        ip: impl Into<String>,
        timestamp: Timestamp,
    ) -> ClientEvent {
        ClientEvent {
            initiator,
            name,
            user_id,
            session_id: session_id.into(),
            ip: ip.into(),
            timestamp,
            details: BTreeMap::new(),
        }
    }

    /// Adds one detail pair (builder style).
    pub fn with_detail(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.details.insert(key.into(), value.into());
        self
    }

    /// True if the event belongs to a logged-in user.
    pub fn logged_in(&self) -> bool {
        self.user_id != 0
    }
}

impl ThriftRecord for ClientEvent {
    fn write(&self, w: &mut CompactWriter) {
        w.struct_begin();
        w.field_i8(1, self.initiator.code());
        w.field_string(2, self.name.as_str());
        w.field_i64(3, self.user_id);
        w.field_string(4, &self.session_id);
        w.field_string(5, &self.ip);
        w.field_i64(6, self.timestamp.millis());
        if !self.details.is_empty() {
            w.field_string_map(7, &self.details);
        }
        w.struct_end();
    }

    fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self> {
        let (row, _) = EventRow::read(r, &ALL_COLUMNS)?;
        Ok(row.to_event().expect("every column was declared"))
    }
}

/// The `event_details` of a row, wherever they live until someone asks for
/// the whole event.
#[derive(Clone, Copy)]
pub(crate) enum Details<'a> {
    /// `count` length-prefixed key/value strings back to back, already
    /// walked once and known to parse: the body of a Thrift map on the
    /// wire, and of a columnar cell. `in_map_order`: the keys ascend
    /// strictly and every length is a minimal varint, so these bytes are
    /// exactly what the map they decode to encodes back to.
    Pairs {
        count: usize,
        pairs: &'a [u8],
        in_map_order: bool,
    },
    /// The map of a decoded event.
    Map(&'a BTreeMap<String, String>),
}

/// Whether the pairs walked so far stand as their map would encode them.
#[derive(Default)]
struct MapOrder<'a> {
    broken: bool,
    last_key: Option<&'a str>,
}

impl<'a> MapOrder<'a> {
    /// Folds in the next pair, which took `encoded` bytes.
    fn pair(&mut self, key: &'a str, value: &str, encoded: usize) {
        let minimal = |text: &str| varint::encoded_len_u64(text.len() as u64) + text.len();
        self.broken |= encoded != minimal(key) + minimal(value)
            || self.last_key.is_some_and(|last| last >= key);
        self.last_key = Some(key);
    }
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    std::str::from_utf8(read_string(bytes, pos)?).ok()
}

impl<'a> Details<'a> {
    const EMPTY: Details<'static> = Details::Pairs {
        count: 0,
        pairs: &[],
        in_map_order: true,
    };

    /// Walks `count` pairs spanning exactly `pairs`; `None` when they do
    /// not parse. Allocates nothing.
    pub(crate) fn parse(count: usize, pairs: &'a [u8]) -> Option<Details<'a>> {
        let mut pos = 0;
        let mut order = MapOrder::default();
        for _ in 0..count {
            let start = pos;
            let key = read_str(pairs, &mut pos)?;
            order.pair(key, read_str(pairs, &mut pos)?, pos - start);
        }
        (pos == pairs.len()).then_some(Details::Pairs {
            count,
            pairs,
            in_map_order: !order.broken,
        })
    }

    /// Reads the value of a Thrift string map with exactly the reads (and
    /// so the errors) of [`CompactReader::read_string_map`], keeping the
    /// bytes where they are.
    fn read(r: &mut CompactReader<'a>) -> ThriftResult<Details<'a>> {
        let (_, _, count) = r.map_begin()?;
        let start = r.position();
        let mut order = MapOrder::default();
        for _ in 0..count {
            let at = r.position();
            let key = r.read_string()?;
            order.pair(key, r.read_string()?, r.position() - at);
        }
        Ok(Details::Pairs {
            count,
            pairs: r.consumed_since(start),
            in_map_order: !order.broken,
        })
    }

    /// Hands each pair to `pair`, in stored order.
    fn for_each(&self, mut pair: impl FnMut(&'a str, &'a str)) {
        match *self {
            Details::Pairs { count, pairs, .. } => {
                let mut pos = 0;
                for _ in 0..count {
                    let key = read_str(pairs, &mut pos).expect("pairs were walked");
                    pair(key, read_str(pairs, &mut pos).expect("pairs were walked"));
                }
            }
            Details::Map(map) => map.iter().for_each(|(k, v)| pair(k, v)),
        }
    }

    pub(crate) fn to_map(self) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        self.for_each(|k, v| {
            map.insert(k.to_string(), v.to_string());
        });
        map
    }

    /// Appends the columnar details cell, a canonical string-map cell
    /// ([`uli_warehouse::chunk`]): the pair count, then the pairs in map
    /// order. Pairs already in that order are copied as they stand;
    /// duplicate or unsorted keys (no writer of ours sends them, a hostile
    /// one may) go through a map, last occurrence winning, like the decoded
    /// event's.
    pub(crate) fn write_cell(&self, out: &mut Vec<u8>) {
        if let Details::Pairs {
            count,
            pairs,
            in_map_order: true,
        } = *self
        {
            write_string_map_count(out, count);
            out.extend_from_slice(pairs);
            return;
        }
        let mut map = BTreeMap::new();
        self.for_each(|k, v| {
            map.insert(k, v);
        });
        write_string_map_count(out, map.len());
        for (k, v) in map {
            write_string_map_pair(out, k.as_bytes(), v.as_bytes());
        }
    }
}

/// One client event, as far as the reader declared it: accessors borrow
/// from where the event lies — a Thrift payload, the cells of a row group,
/// a [`ClientEvent`] — and allocate nothing. A row is only handed out once
/// every field of it decoded, so accessors never fail on the data; asking
/// for a column *outside* the declared set is a bug in the caller — it
/// panics in debug builds and is [`WarehouseError::UnreadColumn`] in
/// release, never a made-up value.
pub struct EventRow<'a> {
    pub(crate) initiator: Option<EventInitiator>,
    pub(crate) name: Option<&'a str>,
    pub(crate) user_id: Option<i64>,
    pub(crate) session_id: Option<&'a str>,
    pub(crate) ip: Option<&'a str>,
    pub(crate) timestamp: Option<Timestamp>,
    pub(crate) details: Option<Details<'a>>,
}

fn declared<T>(field: Option<T>, col: usize) -> WarehouseResult<T> {
    debug_assert!(field.is_some(), "column {col} was not declared");
    field.ok_or(WarehouseError::UnreadColumn(col))
}

impl<'a> EventRow<'a> {
    /// Walks one client-event struct — the only function that knows its
    /// field ids — returning the view over `columns` and how many known
    /// fields outside them it passed over. Every field is read with its
    /// declared type whether or not it is declared, so a record is accepted
    /// or rejected (and the stream stays in step on type drift) the same
    /// under every column set: the last occurrence of an id wins, an
    /// invalid initiator code or event name makes the field count as
    /// missing, every string and details entry must be UTF-8, unknown ids
    /// are skipped, and a missing required field 1–6 is an error.
    pub fn read(
        r: &mut CompactReader<'a>,
        columns: &EventColumns,
    ) -> ThriftResult<(EventRow<'a>, u64)> {
        r.struct_begin()?;
        let mut initiator = None;
        let mut name = None;
        let mut user_id = None;
        let mut session_id = None;
        let mut ip = None;
        let mut timestamp = None;
        let mut details = Details::EMPTY;
        let mut undeclared = 0;
        while let Some(h) = r.field_begin()? {
            let column = match h.id {
                1 => {
                    initiator = EventInitiator::from_code(r.read_i8()?);
                    0
                }
                2 => {
                    let s = r.read_string()?;
                    name = EventName::is_valid(s).then_some(s);
                    NAME_COLUMN
                }
                3 => {
                    user_id = Some(r.read_i64()?);
                    USER_COLUMN
                }
                4 => {
                    session_id = Some(r.read_string()?);
                    SESSION_COLUMN
                }
                5 => {
                    ip = Some(r.read_string()?);
                    IP_COLUMN
                }
                6 => {
                    timestamp = Some(Timestamp(r.read_i64()?));
                    TIMESTAMP_COLUMN
                }
                7 => {
                    details = Details::read(r)?;
                    6
                }
                _ => {
                    r.skip(h.ttype)?;
                    continue;
                }
            };
            undeclared += u64::from(!columns[column]);
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
        let row = EventRow {
            initiator: initiator.filter(|_| columns[0]),
            name: name.filter(|_| columns[NAME_COLUMN]),
            user_id: user_id.filter(|_| columns[USER_COLUMN]),
            session_id: session_id.filter(|_| columns[SESSION_COLUMN]),
            ip: ip.filter(|_| columns[IP_COLUMN]),
            timestamp: timestamp.filter(|_| columns[TIMESTAMP_COLUMN]),
            details: columns[6].then_some(details),
        };
        Ok((row, undeclared))
    }

    /// The whole event of one Thrift payload, borrowed.
    pub fn from_bytes(payload: &'a [u8]) -> ThriftResult<EventRow<'a>> {
        EventRow::read(&mut CompactReader::new(payload), &ALL_COLUMNS).map(|(row, _)| row)
    }

    /// A view over every column of a decoded event.
    pub fn of(ev: &'a ClientEvent) -> EventRow<'a> {
        EventRow {
            initiator: Some(ev.initiator),
            name: Some(ev.name.as_str()),
            user_id: Some(ev.user_id),
            session_id: Some(&ev.session_id),
            ip: Some(&ev.ip),
            timestamp: Some(ev.timestamp),
            details: Some(Details::Map(&ev.details)),
        }
    }

    /// The initiator.
    pub fn initiator(&self) -> WarehouseResult<EventInitiator> {
        declared(self.initiator, 0)
    }

    /// The event name: a valid six-level name.
    pub fn name(&self) -> WarehouseResult<&'a str> {
        declared(self.name, NAME_COLUMN)
    }

    /// The user id.
    pub fn user_id(&self) -> WarehouseResult<i64> {
        declared(self.user_id, USER_COLUMN)
    }

    /// The session id.
    pub fn session_id(&self) -> WarehouseResult<&'a str> {
        declared(self.session_id, SESSION_COLUMN)
    }

    /// The IP address.
    pub fn ip(&self) -> WarehouseResult<&'a str> {
        declared(self.ip, IP_COLUMN)
    }

    /// The event timestamp.
    pub fn timestamp(&self) -> WarehouseResult<Timestamp> {
        declared(self.timestamp, TIMESTAMP_COLUMN)
    }

    pub(crate) fn details(&self) -> WarehouseResult<Details<'a>> {
        declared(self.details, 6)
    }

    /// Builds the whole struct — the only place a row allocates. Needs
    /// [`ALL_COLUMNS`] declared.
    pub fn to_event(&self) -> WarehouseResult<ClientEvent> {
        Ok(ClientEvent {
            initiator: self.initiator()?,
            name: EventName::from_valid(self.name()?),
            user_id: self.user_id()?,
            session_id: self.session_id()?.to_string(),
            ip: self.ip()?.to_string(),
            timestamp: self.timestamp()?,
            details: self.details()?.to_map(),
        })
    }
}

/// Dataflow loader for Thrift-encoded client events.
///
/// Output schema: `initiator, name, user_id, session_id, ip, timestamp,
/// details`. Undecodable records are skipped, mirroring Elephant Bird's
/// tolerant record readers.
#[derive(Debug, Clone, Default)]
pub struct ClientEventLoader;

/// The schema produced by [`ClientEventLoader`].
pub const CLIENT_EVENT_SCHEMA: [&str; 7] = [
    "initiator",
    "name",
    "user_id",
    "session_id",
    "ip",
    "timestamp",
    "details",
];

impl Loader for ClientEventLoader {
    fn name(&self) -> &'static str {
        "ClientEventLoader"
    }

    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>> {
        let Ok(ev) = ClientEvent::from_bytes(record) else {
            return Ok(None);
        };
        let details = ev
            .details
            .into_iter()
            .map(|(k, v)| (k, Value::Str(v)))
            .collect();
        Ok(Some(vec![
            Value::Str(ev.initiator.to_string()),
            Value::Str(ev.name.as_str().to_string()),
            Value::Int(ev.user_id),
            Value::Str(ev.session_id),
            Value::Str(ev.ip),
            Value::Int(ev.timestamp.millis()),
            Value::Map(details),
        ]))
    }

    fn supports_projection(&self) -> bool {
        true
    }

    fn zone_column(&self, col: usize) -> Option<ZoneColumn> {
        match col {
            1 => Some(ZoneColumn::Tag), // event name
            5 => Some(ZoneColumn::Key), // timestamp millis
            _ => None,
        }
    }

    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        Some(&crate::columnar::CLIENT_EVENT_COLUMNAR)
    }

    /// Lazy scan: the one walk of the record ([`EventRow::read`]) under the
    /// projected columns, so malformed records fail exactly as the eager
    /// decoder's do, but only projected columns are materialized. Unprojected
    /// slots come back as [`Value::Null`]; the planner guarantees nothing
    /// downstream reads them.
    fn scan(&self, record: &[u8], spec: &ScanSpec) -> DataflowResult<ScanOutcome> {
        let mut keep = ALL_COLUMNS;
        if let Some(mask) = &spec.projection {
            for (k, m) in keep.iter_mut().zip(mask) {
                *k = *m;
            }
        }
        // Any Thrift error skips the record, exactly as the eager parse does.
        let Ok((row, fields_skipped)) = EventRow::read(&mut CompactReader::new(record), &keep)
        else {
            return Ok(ScanOutcome::skipped());
        };
        let text = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Str(s.to_string()));
        let tuple = vec![
            row.initiator
                .map_or(Value::Null, |i| Value::Str(i.to_string())),
            text(row.name),
            row.user_id.map_or(Value::Null, Value::Int),
            text(row.session_id),
            text(row.ip),
            row.timestamp
                .map_or(Value::Null, |t| Value::Int(t.millis())),
            row.details.map_or(Value::Null, |d| {
                Value::Map(
                    d.to_map()
                        .into_iter()
                        .map(|(k, v)| (k, Value::Str(v)))
                        .collect(),
                )
            }),
        ];
        if tuple.len() != spec.width {
            return Err(DataflowError::MalformedRecord {
                loader: self.name(),
            });
        }
        if !spec.admit(&tuple)? {
            return Ok(ScanOutcome {
                tuple: None,
                fields_skipped,
                skipped_by_predicate: true,
            });
        }
        Ok(ScanOutcome {
            tuple: Some(tuple),
            fields_skipped,
            skipped_by_predicate: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse("web:home:mentions:stream:avatar:profile_click").unwrap(),
            12345,
            "s-deadbeef",
            "10.0.0.1",
            Timestamp(1_345_500_000_000),
        )
        .with_detail("profile_id", "67890")
    }

    #[test]
    fn thrift_round_trip() {
        let ev = sample();
        let bytes = ev.to_bytes();
        let back = ClientEvent::from_bytes(&bytes).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn empty_details_omitted_from_wire() {
        let mut ev = sample();
        ev.details.clear();
        let without = ev.to_bytes().len();
        let with = sample().to_bytes().len();
        assert!(without < with);
        assert_eq!(ClientEvent::from_bytes(&ev.to_bytes()).unwrap(), ev);
    }

    #[test]
    fn future_fields_are_skipped() {
        // Simulate a newer writer appending field 8.
        let mut w = CompactWriter::new();
        let ev = sample();
        // Re-encode with an extra trailing field inside the struct.
        w.struct_begin();
        w.field_i8(1, ev.initiator.code());
        w.field_string(2, ev.name.as_str());
        w.field_i64(3, ev.user_id);
        w.field_string(4, &ev.session_id);
        w.field_string(5, &ev.ip);
        w.field_i64(6, ev.timestamp.millis());
        w.field_string_map(7, &ev.details);
        w.field_string(8, "experiment_bucket_b"); // unknown to this reader
        w.struct_end();
        let back = ClientEvent::from_bytes(&w.into_bytes()).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn missing_required_field_errors() {
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_i8(1, 0);
        w.struct_end();
        assert!(matches!(
            ClientEvent::from_bytes(&w.into_bytes()),
            Err(ThriftError::MissingField { field_id: 2, .. })
        ));
    }

    #[test]
    fn loader_produces_seven_columns() {
        let ev = sample();
        let t = ClientEventLoader.parse(&ev.to_bytes()).unwrap().unwrap();
        assert_eq!(t.len(), CLIENT_EVENT_SCHEMA.len());
        assert_eq!(
            t[1],
            Value::str("web:home:mentions:stream:avatar:profile_click")
        );
        assert_eq!(t[2], Value::Int(12345));
        assert_eq!(t[3], Value::str("s-deadbeef"));
        match &t[6] {
            Value::Map(m) => assert_eq!(m.get("profile_id"), Some(&Value::str("67890"))),
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn loader_skips_garbage() {
        assert_eq!(ClientEventLoader.parse(b"not thrift").unwrap(), None);
        assert_eq!(ClientEventLoader.parse(b"").unwrap(), None);
    }

    #[test]
    fn encoded_events_validate_against_the_declared_schema() {
        use uli_thrift::{CompactReader, SchemaRegistry};
        let mut registry = SchemaRegistry::new();
        registry.register(CLIENT_EVENTS_CATEGORY, client_event_descriptor());
        let schema = registry.get(CLIENT_EVENTS_CATEGORY).unwrap();

        let bytes = sample().to_bytes();
        let mut r = CompactReader::new(&bytes);
        let dynamic = r.read_struct_value().unwrap();
        assert!(
            schema.validate(&dynamic).is_empty(),
            "clean message validates"
        );

        // A message with a wrong-typed user_id is flagged.
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_i8(1, 0);
        w.field_string(2, "web:a:b:c:d:click");
        w.field_string(3, "not-an-integer"); // user_id must be i64
        w.field_string(4, "s");
        w.field_string(5, "ip");
        w.field_i64(6, 0);
        w.struct_end();
        let bytes = w.into_bytes();
        let mut r = CompactReader::new(&bytes);
        let bad = r.read_struct_value().unwrap();
        let violations = schema.validate(&bad);
        assert!(!violations.is_empty(), "type drift is reported");
    }

    #[test]
    fn lazy_scan_full_projection_matches_eager_parse() {
        let bytes = sample().to_bytes();
        let spec = ScanSpec::eager(7);
        let eager = ClientEventLoader.parse(&bytes).unwrap().unwrap();
        let lazy = ClientEventLoader.scan(&bytes, &spec).unwrap();
        assert_eq!(lazy.tuple.as_ref(), Some(&eager));
        assert_eq!(lazy.fields_skipped, 0);
        assert!(!lazy.skipped_by_predicate);
    }

    #[test]
    fn lazy_scan_projects_and_counts_skips() {
        let bytes = sample().to_bytes();
        // Keep name and user_id only.
        let spec = ScanSpec {
            projection: Some(vec![false, true, true, false, false, false, false]),
            predicate: vec![],
            width: 7,
        };
        let out = ClientEventLoader.scan(&bytes, &spec).unwrap();
        let t = out.tuple.unwrap();
        assert_eq!(
            t,
            vec![
                Value::Null,
                Value::str("web:home:mentions:stream:avatar:profile_click"),
                Value::Int(12345),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]
        );
        assert_eq!(out.fields_skipped, 5, "initiator, session, ip, ts, details");
    }

    #[test]
    fn lazy_scan_pushed_predicate_drops_and_counts() {
        use uli_dataflow::Expr;
        let bytes = sample().to_bytes();
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(2).eq(Expr::lit(999i64))],
            width: 7,
        };
        let out = ClientEventLoader.scan(&bytes, &spec).unwrap();
        assert!(out.tuple.is_none());
        assert!(out.skipped_by_predicate);
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(2).eq(Expr::lit(12345i64))],
            width: 7,
        };
        let out = ClientEventLoader.scan(&bytes, &spec).unwrap();
        assert!(out.tuple.is_some());
        assert!(!out.skipped_by_predicate);
    }

    #[test]
    fn lazy_scan_agrees_with_eager_on_malformed_records() {
        // Garbage, truncation, missing required fields, invalid name, bad
        // initiator code, and unknown future fields must all land the same
        // way in both paths.
        let mut cases: Vec<Vec<u8>> = vec![b"not thrift".to_vec(), Vec::new()];
        let good = sample().to_bytes();
        for cut in [1, good.len() / 2, good.len() - 1] {
            cases.push(good[..cut].to_vec());
        }
        let mut w = CompactWriter::new(); // missing fields 2..6
        w.struct_begin();
        w.field_i8(1, 0);
        w.struct_end();
        cases.push(w.into_bytes());
        let mut w = CompactWriter::new(); // invalid event name
        w.struct_begin();
        w.field_i8(1, 0);
        w.field_string(2, "not-six-components");
        w.field_i64(3, 1);
        w.field_string(4, "s");
        w.field_string(5, "ip");
        w.field_i64(6, 0);
        w.struct_end();
        cases.push(w.into_bytes());
        let mut w = CompactWriter::new(); // invalid initiator code
        w.struct_begin();
        w.field_i8(1, 99);
        w.field_string(2, "web:a:b:c:d:click");
        w.field_i64(3, 1);
        w.field_string(4, "s");
        w.field_string(5, "ip");
        w.field_i64(6, 0);
        w.struct_end();
        cases.push(w.into_bytes());
        let mut w = CompactWriter::new(); // unknown field + duplicate field 3
        w.struct_begin();
        w.field_i8(1, 0);
        w.field_string(2, "web:a:b:c:d:click");
        w.field_i64(3, 1);
        w.field_string(4, "s");
        w.field_string(5, "ip");
        w.field_i64(6, 0);
        w.field_string(8, "future");
        w.struct_end();
        cases.push(w.into_bytes());
        cases.push(good);
        for (i, bytes) in cases.iter().enumerate() {
            let eager = ClientEventLoader.parse(bytes).unwrap();
            let lazy = ClientEventLoader.scan(bytes, &ScanSpec::eager(7)).unwrap();
            assert_eq!(lazy.tuple, eager, "case {i} diverged");
        }
    }

    #[test]
    fn zone_columns_declared() {
        assert!(ClientEventLoader.supports_projection());
        assert_eq!(ClientEventLoader.zone_column(1), Some(ZoneColumn::Tag));
        assert_eq!(ClientEventLoader.zone_column(5), Some(ZoneColumn::Key));
        assert_eq!(ClientEventLoader.zone_column(0), None);
        assert_eq!(ClientEventLoader.zone_column(6), None);
    }

    #[test]
    fn logged_in_flag() {
        assert!(sample().logged_in());
        let mut anon = sample();
        anon.user_id = 0;
        assert!(!anon.logged_in());
    }
}
