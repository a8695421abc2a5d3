//! The materialized session-sequence relation.
//!
//! "The following relation is materialized on HDFS (slightly simplified):
//! `user_id: long, session_id: string, ip: string, session_sequence:
//! string, duration: int`" (§4.2). Other than overall duration, sequences
//! preserve no temporal information — an explicit design choice for compact
//! encoding.
//!
//! The relation is stored columnar, one column a field
//! ([`SESSION_SEQUENCE_KINDS`]). A reader holds a day of it as borrowed
//! [`SessionRef`]s; [`SessionSequence`] is the owned form, for fixtures and
//! for sizing a session as the paper's row-format record.

use std::ops::Deref;

use uli_dataflow::{ColumnarCodec, DataflowResult, Loader, Tuple, Value};
use uli_thrift::{CompactReader, CompactWriter, ThriftError, ThriftRecord, ThriftResult};
use uli_warehouse::ColumnKind;

use super::dictionary::EventDictionary;
use super::sessionize::SessionRecord;

/// A session's event code points, borrowed: a `str` whose
/// [`len`](Sequence::len) counts events, not bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sequence<'a>(&'a str);

impl<'a> Sequence<'a> {
    /// Wraps a sequence's code points.
    #[inline]
    pub fn new(codes: &'a str) -> Sequence<'a> {
        Sequence(codes)
    }

    /// The code points, borrowed for as long as what they were borrowed from.
    #[inline]
    pub fn as_str(&self) -> &'a str {
        self.0
    }

    /// Number of events in the session.
    pub fn len(&self) -> usize {
        self.0.chars().count()
    }

    /// True if the session has no events.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Sequence<'_> {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.0
    }
}

/// One materialized session, borrowed from wherever it was loaded: the
/// fields of [`SessionSequence`] without an allocation of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRef<'a> {
    /// The user.
    pub user_id: i64,
    /// The cookie-derived session id.
    pub session_id: &'a str,
    /// IP address associated with the session.
    pub ip: &'a str,
    /// The event names as dictionary code points.
    pub sequence: Sequence<'a>,
    /// Seconds between first and last event.
    pub duration_secs: i64,
}

impl SessionRef<'_> {
    /// Number of events in the session.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True if the session has no events (never materialized in practice).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

impl From<SessionRef<'_>> for SessionSequence {
    fn from(s: SessionRef<'_>) -> SessionSequence {
        SessionSequence {
            user_id: s.user_id,
            session_id: s.session_id.to_owned(),
            ip: s.ip.to_owned(),
            sequence: s.sequence.as_str().to_owned(),
            duration_secs: s.duration_secs,
        }
    }
}

/// One materialized session, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSequence {
    /// The user.
    pub user_id: i64,
    /// The cookie-derived session id.
    pub session_id: String,
    /// IP address associated with the session.
    pub ip: String,
    /// The event names as dictionary code points — a valid Unicode string.
    pub sequence: String,
    /// Seconds between first and last event.
    pub duration_secs: i64,
}

impl SessionSequence {
    /// Encodes a reconstructed session with a dictionary. `None` if any
    /// event is missing from the dictionary (cannot happen when the
    /// dictionary was built from the same day's histogram).
    pub fn encode(record: &SessionRecord, dict: &EventDictionary) -> Option<SessionSequence> {
        Some(SessionSequence {
            user_id: record.user_id,
            session_id: record.session_id.clone(),
            ip: record.ip.clone(),
            sequence: dict.encode_sequence(record.events.iter())?,
            duration_secs: record.duration_secs,
        })
    }

    /// Number of events in the session.
    pub fn len(&self) -> usize {
        self.sequence.chars().count()
    }

    /// True if the session has no events (never materialized in practice).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// The session, borrowed.
    pub fn view(&self) -> SessionRef<'_> {
        SessionRef {
            user_id: self.user_id,
            session_id: &self.session_id,
            ip: &self.ip,
            sequence: Sequence(&self.sequence),
            duration_secs: self.duration_secs,
        }
    }
}

impl ThriftRecord for SessionSequence {
    fn write(&self, w: &mut CompactWriter) {
        w.struct_begin();
        w.field_i64(1, self.user_id);
        w.field_string(2, &self.session_id);
        w.field_string(3, &self.ip);
        w.field_string(4, &self.sequence);
        w.field_i64(5, self.duration_secs);
        w.struct_end();
    }

    fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self> {
        r.struct_begin()?;
        let mut user_id = None;
        let mut session_id = None;
        let mut ip = None;
        let mut sequence = None;
        let mut duration = None;
        while let Some(h) = r.field_begin()? {
            match h.id {
                1 => user_id = Some(r.read_i64()?),
                2 => session_id = Some(r.read_string()?.to_owned()),
                3 => ip = Some(r.read_string()?.to_owned()),
                4 => sequence = Some(r.read_string()?.to_owned()),
                5 => duration = Some(r.read_i64()?),
                _ => r.skip(h.ttype)?,
            }
        }
        r.struct_end();
        let missing = |id: i16| ThriftError::MissingField {
            strukt: "SessionSequence",
            field_id: id,
        };
        Ok(SessionSequence {
            user_id: user_id.ok_or_else(|| missing(1))?,
            session_id: session_id.ok_or_else(|| missing(2))?,
            ip: ip.ok_or_else(|| missing(3))?,
            sequence: sequence.ok_or_else(|| missing(4))?,
            duration_secs: duration.ok_or_else(|| missing(5))?,
        })
    }
}

/// The schema produced by [`SessionSequenceLoader`].
pub const SESSION_SEQUENCE_SCHEMA: [&str; 5] =
    ["user_id", "session_id", "ip", "sequence", "duration"];

/// What each column of a part file holds, index-aligned with
/// [`SESSION_SEQUENCE_SCHEMA`]: the user id and the duration in seconds as
/// integers, the three strings as their UTF-8.
pub const SESSION_SEQUENCE_KINDS: [ColumnKind; 5] = [
    ColumnKind::I64,
    ColumnKind::Bytes,
    ColumnKind::Bytes,
    ColumnKind::Bytes,
    ColumnKind::I64,
];

/// Columnar codec of the part files: decodes a text column's bytes into the
/// value [`SessionSequenceLoader::parse`] gives the same field of a
/// row-format record; the integer columns are read as `Int`s and never
/// reach it. Bytes that are not UTF-8 drop the row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionSequenceColumnar;

impl ColumnarCodec for SessionSequenceColumnar {
    fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value> {
        let text = *SESSION_SEQUENCE_KINDS.get(col)? == ColumnKind::Bytes;
        text.then(|| std::str::from_utf8(bytes).ok().map(Value::str))?
    }

    fn integer(&self, col: usize) -> bool {
        SESSION_SEQUENCE_KINDS.get(col) == Some(&ColumnKind::I64)
    }
}

/// Dataflow loader — the paper's `SessionSequencesLoader()`, which
/// "abstracts over details of the physical layout … transparently parsing
/// each field in the tuple and handling decompression" (§5.2). The part
/// files are columnar, so a plan over them decodes only the columns it
/// reads.
#[derive(Debug, Clone, Default)]
pub struct SessionSequenceLoader;

impl Loader for SessionSequenceLoader {
    fn name(&self) -> &'static str {
        "SessionSequencesLoader"
    }

    fn supports_projection(&self) -> bool {
        true
    }

    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        Some(&SessionSequenceColumnar)
    }

    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>> {
        let Ok(s) = SessionSequence::from_bytes(record) else {
            return Ok(None);
        };
        Ok(Some(vec![
            Value::Int(s.user_id),
            Value::Str(s.session_id),
            Value::Str(s.ip),
            Value::Str(s.sequence),
            Value::Int(s.duration_secs),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventName;
    use crate::time::Timestamp;

    fn n(s: &str) -> EventName {
        EventName::parse(s).unwrap()
    }

    fn dict() -> EventDictionary {
        EventDictionary::from_counts(vec![
            (n("web:home:home:stream:tweet:impression"), 100),
            (n("web:home:home:stream:tweet:click"), 10),
        ])
    }

    fn record() -> SessionRecord {
        SessionRecord {
            user_id: 7,
            session_id: "s-1".into(),
            ip: "10.1.2.3".into(),
            start: Timestamp(1000),
            duration_secs: 95,
            events: vec![
                n("web:home:home:stream:tweet:impression"),
                n("web:home:home:stream:tweet:impression"),
                n("web:home:home:stream:tweet:click"),
            ],
        }
    }

    #[test]
    fn encode_produces_compact_unicode() {
        let s = SessionSequence::encode(&record(), &dict()).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.sequence.chars().next(), Some('\u{1}'));
        assert_eq!(s.duration_secs, 95);
        // Decoding recovers the event names in order.
        let d = dict();
        let decoded = d.decode_sequence(&s.sequence).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[2].action(), "click");
    }

    #[test]
    fn encode_fails_on_unknown_event() {
        let mut rec = record();
        rec.events.push(n("x:y:z:q:w:unknown"));
        assert_eq!(SessionSequence::encode(&rec, &dict()), None);
    }

    #[test]
    fn thrift_round_trip() {
        let s = SessionSequence::encode(&record(), &dict()).unwrap();
        let back = SessionSequence::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sequence_is_much_smaller_than_the_session_events() {
        let rec = record();
        let s = SessionSequence::encode(&rec, &dict()).unwrap();
        let names_bytes: usize = rec.events.iter().map(|e| e.as_str().len()).sum();
        assert!(s.sequence.len() * 10 < names_bytes);
    }

    #[test]
    fn loader_produces_five_columns() {
        let s = SessionSequence::encode(&record(), &dict()).unwrap();
        let t = SessionSequenceLoader.parse(&s.to_bytes()).unwrap().unwrap();
        assert_eq!(t.len(), SESSION_SEQUENCE_SCHEMA.len());
        assert_eq!(t[0], Value::Int(7));
        assert_eq!(t[4], Value::Int(95));
    }

    #[test]
    fn the_columnar_codec_decodes_what_parse_gives_and_drops_misfit_cells() {
        let s = SessionSequence::encode(&record(), &dict()).unwrap();
        let parsed = SessionSequenceLoader.parse(&s.to_bytes()).unwrap().unwrap();
        let codec = SessionSequenceLoader.columnar().unwrap();
        let cells: [&[u8]; 5] = [
            &s.user_id.to_le_bytes(),
            s.session_id.as_bytes(),
            s.ip.as_bytes(),
            s.sequence.as_bytes(),
            &s.duration_secs.to_le_bytes(),
        ];
        for (col, cell) in cells.into_iter().enumerate() {
            // An integer column's cells are read as integers, never by the
            // codec.
            let value = match codec.integer(col) {
                true => Some(Value::Int(i64::from_le_bytes(cell[..].try_into().unwrap()))),
                false => codec.decode(col, cell),
            };
            assert_eq!(value.as_ref(), Some(&parsed[col]));
        }
        assert_eq!(codec.decode(0, &[1, 2, 3]), None, "not eight bytes");
        assert_eq!(codec.decode(3, &[0xff]), None, "not UTF-8");
        assert_eq!(codec.decode(5, b"x"), None, "no such column");
    }

    #[test]
    fn loader_skips_garbage() {
        assert_eq!(SessionSequenceLoader.parse(b"junk").unwrap(), None);
    }
}
