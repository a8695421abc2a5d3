//! The `ClientEvent` message (§3.2, Table 2).
//!
//! Every client event carries the same seven fields with exactly the same
//! semantics, so "a simple group-by suffices to accurately reconstruct user
//! sessions", and standardized field locations enable "consistent policies
//! for log anonymization". The `event_details` field holds free-form
//! key-value pairs that teams extend "without any central coordination".

use std::fmt;

use uli_dataflow::{ColumnarCodec, DataflowResult, Loader, Tuple, Value, ZoneColumn};
use uli_thrift::{varint, CompactReader, CompactWriter, ThriftError, ThriftRecord, ThriftResult};
use uli_warehouse::chunk::{
    read_string, string_map_cell, write_string_map_count, write_string_map_pair,
};
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
    pub details: EventDetails,
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
            details: EventDetails::default(),
        }
    }

    /// Adds one detail pair (builder style).
    pub fn with_detail(mut self, key: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.details.insert(key.as_ref(), value.as_ref());
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
            let Details { count, pairs, .. } = self.details.view();
            w.field_string_map_encoded(7, count, pairs);
        }
        w.struct_end();
    }

    fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self> {
        let row = EventRow::read(r, &ALL_COLUMNS)?;
        Ok(row.to_event().expect("every column was declared"))
    }
}

/// The `event_details` of a decoded event: one buffer of canonical pairs —
/// the pair count, then each key and its value as length-prefixed strings,
/// keys strictly ascending, every length a minimal varint. Those are the
/// bytes of the event's Thrift map after its header, and exactly its columnar
/// details cell ([`uli_warehouse::chunk`]), so encoding the event copies them
/// and landing it borrows them. An empty map holds no buffer at all.
///
/// It answers as a `BTreeMap<String, String>` of the same pairs would —
/// lookups, iteration in key order, last-write-wins `insert` — and prints as
/// one. Equal maps are equal buffers.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EventDetails {
    cell: Box<[u8]>,
}

impl EventDetails {
    /// The map of `pairs`, the last pair of a repeated key winning. Sorts
    /// `pairs` by key in place and allocates once.
    pub fn from_pairs(pairs: &mut [(&str, &str)]) -> EventDetails {
        if pairs.is_empty() {
            return EventDetails::default();
        }
        let mut cell = Vec::new();
        write_canonical(pairs, &mut cell);
        EventDetails {
            cell: cell.into_boxed_slice(),
        }
    }

    /// The pairs as a row view holds them.
    fn view(&self) -> Details<'_> {
        match string_map_cell(&self.cell) {
            Some((count, pairs)) => Details {
                count,
                pairs,
                in_map_order: true,
            },
            None => Details::EMPTY,
        }
    }

    /// The number of pairs.
    pub fn len(&self) -> usize {
        self.view().count
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.cell.is_empty()
    }

    /// The pairs in ascending key order.
    pub fn iter(&self) -> DetailsIter<'_> {
        self.view().iter()
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (k, v) = self.iter().find(|(k, _)| *k >= key)?;
        (k == key).then_some(v)
    }

    /// True when `key` has a value.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Sets `key` to `value`, returning what it held.
    pub fn insert(&mut self, key: &str, value: &str) -> Option<String> {
        let old = self.get(key).map(str::to_string);
        let mut pairs: Vec<(&str, &str)> = self.iter().collect();
        pairs.push((key, value));
        let details = EventDetails::from_pairs(&mut pairs);
        *self = details;
        old
    }

    /// Removes `key`, returning what it held.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        let old = self.get(key)?.to_string();
        let mut pairs: Vec<(&str, &str)> = self.iter().filter(|(k, _)| *k != key).collect();
        let details = EventDetails::from_pairs(&mut pairs);
        *self = details;
        Some(old)
    }
}

impl fmt::Debug for EventDetails {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: AsRef<str>, V: AsRef<str>> FromIterator<(K, V)> for EventDetails {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> EventDetails {
        let owned: Vec<(K, V)> = iter.into_iter().collect();
        let mut pairs: Vec<(&str, &str)> = owned
            .iter()
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
            .collect();
        EventDetails::from_pairs(&mut pairs)
    }
}

impl<'a> IntoIterator for &'a EventDetails {
    type Item = (&'a str, &'a str);
    type IntoIter = DetailsIter<'a>;

    fn into_iter(self) -> DetailsIter<'a> {
        self.iter()
    }
}

/// The pairs of a details map, in stored order.
pub struct DetailsIter<'a> {
    pairs: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for DetailsIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.left = self.left.checked_sub(1)?;
        let key = read_str(self.pairs, &mut self.pos).expect("pairs were walked");
        let value = read_str(self.pairs, &mut self.pos).expect("pairs were walked");
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DetailsIter<'_> {}

/// Sorts `pairs` by key, equal keys staying in order, and appends the
/// canonical string-map cell of the map they make — the last pair of each
/// key winning — reserving exactly its size.
fn write_canonical(pairs: &mut [(&str, &str)], out: &mut Vec<u8>) {
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let pairs = &*pairs;
    let kept = || {
        let last_of_key = |i: &usize| pairs.get(i + 1).is_none_or(|next| next.0 != pairs[*i].0);
        (0..pairs.len()).filter(last_of_key).map(|i| pairs[i])
    };
    let len = |text: &str| varint::encoded_len_u64(text.len() as u64) + text.len();
    let count = kept().count();
    let bytes: usize = kept().map(|(k, v)| len(k) + len(v)).sum();
    out.reserve_exact(varint::encoded_len_u64(count as u64) + bytes);
    write_string_map_count(out, count);
    for (k, v) in kept() {
        write_string_map_pair(out, k.as_bytes(), v.as_bytes());
    }
}

/// The `event_details` of a row, where they lie — a Thrift payload, a
/// columnar cell, a decoded event's [`EventDetails`] — until someone asks
/// for the whole event: `count` length-prefixed key/value strings back to
/// back, already walked once and known to parse. `in_map_order`: the keys
/// ascend strictly and every length is a minimal varint, so these bytes are
/// exactly what the map they decode to encodes back to.
#[derive(Clone, Copy)]
pub(crate) struct Details<'a> {
    count: usize,
    pairs: &'a [u8],
    in_map_order: bool,
}

/// Whether the pairs walked so far stand as their map would encode them.
#[derive(Default)]
struct MapOrder<'a> {
    broken: bool,
    last_key: Option<&'a [u8]>,
}

impl<'a> MapOrder<'a> {
    /// Folds in the next pair, which took `encoded` bytes. Keys compare as
    /// bytes, which is how UTF-8 strings order.
    fn pair(&mut self, key: &'a [u8], value: &[u8], encoded: usize) {
        let minimal = |text: &[u8]| varint::encoded_len_u64(text.len() as u64) + text.len();
        self.broken |= encoded != minimal(key) + minimal(value)
            || self.last_key.is_some_and(|last| last >= key);
        self.last_key = Some(key);
    }
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    std::str::from_utf8(read_string(bytes, pos)?).ok()
}

impl<'a> Details<'a> {
    const EMPTY: Details<'static> = Details {
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
            let value = read_str(pairs, &mut pos)?;
            order.pair(key.as_bytes(), value.as_bytes(), pos - start);
        }
        (pos == pairs.len()).then_some(Details {
            count,
            pairs,
            in_map_order: !order.broken,
        })
    }

    /// Reads the value of a Thrift string map, accepting and rejecting as
    /// [`CompactReader::read_string_map`] does, with its first error,
    /// keeping the bytes where they are: the pairs are read by
    /// [`CompactReader::read_string_pairs`], which checks UTF-8 once a run
    /// of pairs, not once a string.
    fn read(r: &mut CompactReader<'a>) -> ThriftResult<Details<'a>> {
        let (_, _, count) = r.map_begin()?;
        let mut order = MapOrder::default();
        let pairs =
            r.read_string_pairs(count, |key, value, encoded| order.pair(key, value, encoded))?;
        Ok(Details {
            count,
            pairs,
            in_map_order: !order.broken,
        })
    }

    /// The pairs, in stored order.
    fn iter(&self) -> DetailsIter<'a> {
        DetailsIter {
            pairs: self.pairs,
            pos: 0,
            left: self.count,
        }
    }

    /// The map the pairs make, as the loaders hand it out: the last pair
    /// of a repeated key wins.
    pub(crate) fn value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), Value::str(v)))
                .collect(),
        )
    }

    /// The owned map, its cell written once ([`Details::write_cell`]).
    fn to_owned_details(self) -> EventDetails {
        if self.count == 0 {
            return EventDetails::default();
        }
        let mut cell = Vec::new();
        self.write_cell(&mut cell);
        EventDetails {
            cell: cell.into_boxed_slice(),
        }
    }

    /// Appends the columnar details cell, a canonical string-map cell
    /// ([`uli_warehouse::chunk`]): the pair count, then the pairs in map
    /// order, reserving exactly its size. Pairs already in that order are
    /// copied as they stand; duplicate or unsorted keys (no writer of ours
    /// sends them, a hostile one may) are sorted, last occurrence winning,
    /// like the decoded event's.
    pub(crate) fn write_cell(&self, out: &mut Vec<u8>) {
        if self.in_map_order {
            out.reserve_exact(varint::encoded_len_u64(self.count as u64) + self.pairs.len());
            write_string_map_count(out, self.count);
            out.extend_from_slice(self.pairs);
        } else {
            let mut pairs: Vec<(&str, &str)> = self.iter().collect();
            write_canonical(&mut pairs, out);
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
    /// field ids — returning the view over `columns`. Every field is read
    /// with its declared type whether or not it is declared, so a record is
    /// accepted or rejected (and the stream stays in step on type drift) the
    /// same under every column set: the last occurrence of an id wins, an
    /// invalid initiator code or event name makes the field count as
    /// missing, every string and details entry must be UTF-8, unknown ids
    /// are skipped, and a missing required field 1–6 is an error. The
    /// first error in the stream is the one returned.
    ///
    /// One pass: the name is checked in one pass over a byte-class table
    /// and the details' UTF-8 once a run of pairs
    /// ([`CompactReader::read_string_pairs`]).
    pub fn read(r: &mut CompactReader<'a>, columns: &EventColumns) -> ThriftResult<EventRow<'a>> {
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
                    name = EventName::is_valid(s).then_some(s);
                }
                3 => user_id = Some(r.read_i64()?),
                4 => session_id = Some(r.read_string()?),
                5 => ip = Some(r.read_string()?),
                6 => timestamp = Some(Timestamp(r.read_i64()?)),
                7 => details = Details::read(r)?,
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

    /// The whole event of one Thrift payload, borrowed.
    pub fn from_bytes(payload: &'a [u8]) -> ThriftResult<EventRow<'a>> {
        EventRow::read(&mut CompactReader::new(payload), &ALL_COLUMNS)
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
            details: Some(ev.details.view()),
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
            details: self.details()?.to_owned_details(),
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

    /// Decodes the whole record ([`EventRow::from_bytes`]), as the paper's
    /// raw-log jobs do; the executor nulls the columns a query does not read.
    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>> {
        // Any Thrift error skips the record.
        let Ok(row) = EventRow::from_bytes(record) else {
            return Ok(None);
        };
        let read = "every column was declared";
        Ok(Some(vec![
            Value::Str(row.initiator().expect(read).to_string()),
            Value::str(row.name().expect(read)),
            Value::Int(row.user_id().expect(read)),
            Value::str(row.session_id().expect(read)),
            Value::str(row.ip().expect(read)),
            Value::Int(row.timestamp().expect(read).millis()),
            row.details().expect(read).value(),
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
}

#[cfg(test)]
mod walk_tests;

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
        ev.details = EventDetails::default();
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
    fn loader_skips_exactly_what_the_decoder_rejects() {
        // Garbage, truncation, missing required fields, invalid name, bad
        // initiator code, and unknown future fields: the loader skips a
        // record exactly when the event does not decode.
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
            let parsed = ClientEventLoader.parse(bytes).unwrap();
            let decoded = ClientEvent::from_bytes(bytes);
            assert_eq!(parsed.is_some(), decoded.is_ok(), "case {i} diverged");
            if let (Some(tuple), Ok(ev)) = (parsed, decoded) {
                assert_eq!(tuple[2], Value::Int(ev.user_id), "case {i}");
                assert_eq!(tuple[6], ev.details.view().value(), "case {i}");
            }
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
