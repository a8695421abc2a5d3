//! Columnar warehouse layout for client events.
//!
//! The row-format warehouse stores one Thrift-encoded [`ClientEvent`] per
//! record, so even a query touching one field decompresses and walks every
//! byte of every record. This module defines the columnar-by-default
//! alternative: each of the seven Table 2 fields becomes its own column
//! chunk, the event-name column is dictionary-encoded with the same
//! frequency-ranked code assignment the session sequences use (§4.1 — small
//! codes for frequent events), and name predicates compare integer codes
//! instead of strings.
//!
//! Cell encodings are deliberately trivial — fixed-width integers and raw
//! UTF-8 — because the interesting compression already happens at two other
//! layers: the dictionary replaces repeated name strings with varint codes,
//! and the warehouse block compressor squeezes each column chunk (now full
//! of same-shaped values) far better than it does interleaved rows.

use std::collections::BTreeMap;

use uli_dataflow::{ColumnarCodec, Value};
use uli_thrift::{varint, ThriftRecord};
use uli_warehouse::{
    tag_hash, ColumnCell, ColumnGroup, ColumnarFile, ColumnarFileWriter, ColumnarLanding, ScanFile,
    Warehouse, WarehouseResult, WhPath,
};

use crate::client_event::ClientEvent;
use crate::event::{EventInitiator, EventName};
use crate::session::EventDictionary;
use crate::time::Timestamp;

/// Column index of the dictionary-encoded event name.
pub const NAME_COLUMN: usize = 1;

/// Rows per sealed row group. Matches the spirit of the row writer's block
/// target: large enough to amortize per-group footers, small enough that
/// zone maps prune at sub-file granularity.
pub const DEFAULT_ROWS_PER_GROUP: usize = 512;

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let (v, n) = varint::read_u64(bytes.get(*pos..)?).ok()?;
    *pos += n;
    Some(v)
}

/// Encodes one event as its seven column cells, index-aligned with
/// [`CLIENT_EVENT_SCHEMA`](crate::client_event::CLIENT_EVENT_SCHEMA):
/// initiator as its one-byte wire code, name as raw UTF-8 (the writer's
/// dictionary substitutes codes for known names), the two integers as
/// fixed 8-byte little-endian, the two strings raw, and details as a
/// varint-counted sequence of length-prefixed key/value pairs in map order.
pub fn client_event_cells(ev: &ClientEvent) -> [Vec<u8>; 7] {
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

/// Columnar codec for client events: decodes the cells written by
/// [`client_event_cells`] into exactly the tuple
/// [`ClientEventLoader::parse`](crate::client_event::ClientEventLoader)
/// produces from a Thrift record, so row and columnar scans of the same
/// events are byte-identical. Any malformed cell returns `None`, dropping
/// the whole row — the columnar analogue of the tolerant row loader
/// skipping an undecodable record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientEventColumnar;

/// Shared codec instance for [`Loader::columnar`](uli_dataflow::Loader)
/// implementations, which hand out `&'static dyn ColumnarCodec`.
pub static CLIENT_EVENT_COLUMNAR: ClientEventColumnar = ClientEventColumnar;

impl ColumnarCodec for ClientEventColumnar {
    fn columns(&self) -> usize {
        7
    }

    fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value> {
        match col {
            0 => {
                let [code] = bytes else { return None };
                let initiator = EventInitiator::from_code(*code as i8)?;
                Some(Value::Str(initiator.to_string()))
            }
            1 => {
                let s = std::str::from_utf8(bytes).ok()?;
                // Same validation as the Thrift readers: a string that is
                // not a six-level name drops the record.
                EventName::is_valid(s).then(|| Value::Str(s.to_string()))
            }
            2 | 5 => {
                let fixed: [u8; 8] = bytes.try_into().ok()?;
                Some(Value::Int(i64::from_le_bytes(fixed)))
            }
            3 | 4 => {
                let s = std::str::from_utf8(bytes).ok()?;
                Some(Value::Str(s.to_string()))
            }
            6 => {
                let details = parse_details(bytes)?;
                Some(Value::Map(
                    details
                        .into_iter()
                        .map(|(k, v)| (k, Value::Str(v)))
                        .collect(),
                ))
            }
            _ => None,
        }
    }
}

fn parse_details(bytes: &[u8]) -> Option<BTreeMap<String, String>> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)?;
    // A count can't exceed the remaining bytes (each pair costs at least
    // two length bytes) — reject before reserving.
    if count > bytes.len() as u64 {
        return None;
    }
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let k = read_slice(bytes, &mut pos)?;
        let v = read_slice(bytes, &mut pos)?;
        map.insert(k.to_string(), v.to_string());
    }
    (pos == bytes.len()).then_some(map)
}

fn cell_bytes<'a>(
    file: &'a ColumnarFile,
    group: &'a ColumnGroup,
    col: usize,
    row: usize,
) -> Option<&'a [u8]> {
    match group.cell(col, row)? {
        ColumnCell::Bytes(b) => Some(b),
        ColumnCell::Code(c) => file.dictionary_value(c),
    }
}

/// Decodes one row of a fully projected group back into a [`ClientEvent`]
/// struct — the form the materializer and log mover work in, as opposed to
/// the dataflow tuple the codec produces. `None` drops the row, exactly as
/// `ClientEvent::from_bytes` failing drops a row-format record.
pub fn client_event_from_group(
    file: &ColumnarFile,
    group: &ColumnGroup,
    row: usize,
) -> Option<ClientEvent> {
    let [code] = cell_bytes(file, group, 0, row)? else {
        return None;
    };
    let initiator = EventInitiator::from_code(*code as i8)?;
    let name =
        EventName::parse(std::str::from_utf8(cell_bytes(file, group, 1, row)?).ok()?).ok()?;
    let user_id = i64::from_le_bytes(cell_bytes(file, group, 2, row)?.try_into().ok()?);
    let session_id = std::str::from_utf8(cell_bytes(file, group, 3, row)?).ok()?;
    let ip = std::str::from_utf8(cell_bytes(file, group, 4, row)?).ok()?;
    let millis = i64::from_le_bytes(cell_bytes(file, group, 5, row)?.try_into().ok()?);
    let details = parse_details(cell_bytes(file, group, 6, row)?)?;
    Some(ClientEvent {
        initiator,
        name,
        user_id,
        session_id: session_id.to_string(),
        ip: ip.to_string(),
        timestamp: Timestamp(millis),
        details,
    })
}

/// Decodes scan unit `unit` of a landed client-events file — a block of a
/// row file, a row group of a columnar one — handing each event to `f` in
/// stored order. Returns `(events, skipped)`: how many records decoded and
/// how many did not (every reader tolerates those; none treats them as
/// fatal). This is the one place that knows how a client event comes out of
/// either layout. Events are handed over one at a time so a caller that
/// only inspects them never holds a unit's worth of decoded strings.
pub fn for_each_client_event(
    file: &ScanFile,
    unit: usize,
    mut f: impl FnMut(ClientEvent),
) -> WarehouseResult<(u64, u64)> {
    let mut events = 0u64;
    let mut skipped = 0u64;
    match file {
        // Borrowing visit: each record decodes in place, so a row scan
        // charges no `alloc_bytes`.
        ScanFile::Row(blocks) => {
            blocks.for_each_record(unit, |record| match ClientEvent::from_bytes(record) {
                Ok(ev) => {
                    events += 1;
                    f(ev);
                }
                Err(_) => skipped += 1,
            })?;
        }
        ScanFile::Columnar(col) => {
            let group = col.read_group(unit, &vec![true; col.columns()])?;
            for row in 0..group.rows() {
                match client_event_from_group(col, &group, row) {
                    Some(ev) => {
                        events += 1;
                        f(ev);
                    }
                    None => skipped += 1,
                }
            }
        }
    }
    Ok((events, skipped))
}

fn read_slice<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = read_varint(bytes, pos)?;
    let end = pos.checked_add(usize::try_from(len).ok()?)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    std::str::from_utf8(slice).ok()
}

/// Builds the per-file name dictionary: frequency-ranked over this file's
/// events via [`EventDictionary::from_counts`], entries in rank order so
/// entry index = code. Frequent names get small codes, exactly the
/// variable-length-coding argument the session dictionary makes.
pub fn name_dictionary(events: &[ClientEvent]) -> Vec<Vec<u8>> {
    let mut counts: BTreeMap<&EventName, u64> = BTreeMap::new();
    for ev in events {
        *counts.entry(&ev.name).or_insert(0) += 1;
    }
    let dict =
        EventDictionary::from_counts(counts.into_iter().map(|(n, c)| (n.clone(), c)).collect());
    dict.iter()
        .map(|(_, name, _)| name.as_str().as_bytes().to_vec())
        .collect()
}

/// Writes events to one columnar file. With `dictionary` set, the name
/// column is dictionary-encoded from this file's own frequency histogram;
/// without, every name is stored inline (the E19 ablation arm). Every row
/// carries the same zone annotations as the row-format writer — timestamp
/// as the key dimension, event name as the tag dimension — so zone-map
/// pruning works identically across layouts.
pub fn write_client_events_columnar(
    warehouse: &Warehouse,
    path: &WhPath,
    events: &[ClientEvent],
    dictionary: bool,
    rows_per_group: usize,
) -> WarehouseResult<u64> {
    let entries = dictionary.then(|| name_dictionary(events));
    let mut w = ColumnarFileWriter::create(
        warehouse,
        path,
        7,
        rows_per_group,
        entries.as_deref().map(|e| (NAME_COLUMN, e)),
    )?;
    for ev in events {
        let cells = client_event_cells(ev);
        let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        w.append_row_annotated(
            &refs,
            ev.timestamp.millis(),
            tag_hash(ev.name.as_str().as_bytes()),
        );
    }
    w.finish()?;
    Ok(events.len() as u64)
}

/// The log mover's columnar landing for the client-events category:
/// Thrift payloads decode to [`ClientEvent`]s and land through
/// [`write_client_events_columnar`]; payloads that fail to decode are
/// reported back so the mover keeps them in a row-format sibling file.
#[derive(Debug, Clone)]
pub struct ClientEventLanding {
    /// Dictionary-encode the name column from each file's own histogram.
    pub dictionary: bool,
    /// Rows per sealed row group.
    pub rows_per_group: usize,
}

impl Default for ClientEventLanding {
    fn default() -> Self {
        ClientEventLanding {
            dictionary: true,
            rows_per_group: DEFAULT_ROWS_PER_GROUP,
        }
    }
}

impl ColumnarLanding for ClientEventLanding {
    fn write_file(
        &self,
        warehouse: &Warehouse,
        path: &WhPath,
        payloads: &[Vec<u8>],
    ) -> WarehouseResult<Vec<usize>> {
        let mut events = Vec::with_capacity(payloads.len());
        let mut rejected = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            match ClientEvent::from_bytes(p) {
                Ok(ev) => events.push(ev),
                Err(_) => rejected.push(i),
            }
        }
        write_client_events_columnar(
            warehouse,
            path,
            &events,
            self.dictionary,
            self.rows_per_group,
        )?;
        Ok(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_event::ClientEventLoader;
    use crate::time::Timestamp;
    use uli_dataflow::{scan_group, Loader, ScanSpec};

    fn sample(i: i64) -> ClientEvent {
        let name = if i % 3 == 0 {
            "web:home:home:stream:tweet:click"
        } else {
            "web:home:home:stream:tweet:impression"
        };
        ClientEvent::new(
            EventInitiator::from_code((i % 4) as i8).unwrap(),
            EventName::parse(name).unwrap(),
            i,
            format!("s-{i}"),
            format!("10.0.0.{}", i % 256),
            Timestamp(1_000_000 + i),
        )
        .with_detail("rank", format!("{}", i % 7))
        .with_detail("lang", "en")
    }

    #[test]
    fn cells_decode_to_the_row_loader_tuple() {
        for i in 0..20 {
            let ev = sample(i);
            let expected = ClientEventLoader.parse(&ev.to_bytes()).unwrap().unwrap();
            let cells = client_event_cells(&ev);
            for (col, cell) in cells.iter().enumerate() {
                assert_eq!(
                    CLIENT_EVENT_COLUMNAR.decode(col, cell).as_ref(),
                    Some(&expected[col]),
                    "column {col} of event {i}"
                );
            }
        }
    }

    #[test]
    fn empty_details_decode_to_an_empty_map() {
        let mut ev = sample(1);
        ev.details.clear();
        let cells = client_event_cells(&ev);
        assert_eq!(
            CLIENT_EVENT_COLUMNAR.decode(6, &cells[6]),
            Some(Value::Map(BTreeMap::new()))
        );
    }

    #[test]
    fn malformed_cells_decode_to_none() {
        let c = &CLIENT_EVENT_COLUMNAR;
        assert_eq!(c.decode(0, &[9]), None, "invalid initiator code");
        assert_eq!(c.decode(0, &[0, 0]), None, "overlong initiator");
        assert_eq!(c.decode(0, b""), None, "empty initiator");
        assert_eq!(c.decode(1, b"not-six-components"), None, "invalid name");
        assert_eq!(c.decode(1, &[0xff, 0xfe]), None, "non-UTF-8 name");
        assert_eq!(c.decode(2, &[1, 2, 3]), None, "short integer");
        assert_eq!(c.decode(3, &[0xff, 0xfe]), None, "non-UTF-8 string");
        assert_eq!(c.decode(6, &[5]), None, "truncated details");
        assert_eq!(c.decode(6, &[0, 0]), None, "trailing bytes after details");
        // A hostile count larger than the buffer is rejected outright.
        let mut hostile = Vec::new();
        varint::write_u64(&mut hostile, u64::MAX);
        assert_eq!(c.decode(6, &hostile), None, "absurd pair count");
        assert_eq!(c.decode(7, b""), None, "column out of range");
    }

    #[test]
    fn dictionary_ranks_by_frequency() {
        let events: Vec<ClientEvent> = (0..9).map(sample).collect();
        // impression appears 6 times, click 3 — impression gets code 0.
        let entries = name_dictionary(&events);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], b"web:home:home:stream:tweet:impression");
        assert_eq!(entries[1], b"web:home:home:stream:tweet:click");
    }

    #[test]
    fn columnar_file_round_trips_through_the_vectorized_scan() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        let events: Vec<ClientEvent> = (0..100).map(sample).collect();
        write_client_events_columnar(&wh, &path, &events, true, 32).unwrap();

        let file = ColumnarFile::open(&wh, &path).unwrap();
        assert_eq!(file.columns(), 7);
        assert_eq!(file.dict_column(), Some(NAME_COLUMN));
        let mut rows = Vec::new();
        for g in 0..file.group_count() {
            let (tuples, skipped) =
                scan_group(&file, g, &CLIENT_EVENT_COLUMNAR, &ScanSpec::eager(7)).unwrap();
            assert_eq!(skipped, 0);
            rows.extend(tuples);
        }
        assert_eq!(rows.len(), events.len());
        for (row, ev) in rows.iter().zip(&events) {
            let expected = ClientEventLoader.parse(&ev.to_bytes()).unwrap().unwrap();
            assert_eq!(row, &expected);
        }
    }

    #[test]
    fn no_dictionary_layout_round_trips_too() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        let events: Vec<ClientEvent> = (0..40).map(sample).collect();
        write_client_events_columnar(&wh, &path, &events, false, 16).unwrap();
        let file = ColumnarFile::open(&wh, &path).unwrap();
        assert_eq!(file.dict_column(), None);
        let (tuples, _) =
            scan_group(&file, 0, &CLIENT_EVENT_COLUMNAR, &ScanSpec::eager(7)).unwrap();
        let expected = ClientEventLoader.parse(&events[0].to_bytes()).unwrap();
        assert_eq!(tuples.first(), expected.as_ref());
    }

    #[test]
    fn landing_rejects_undecodable_payloads_and_lands_the_rest() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        let events: Vec<ClientEvent> = (0..5).map(sample).collect();
        let mut payloads: Vec<Vec<u8>> = events.iter().map(|e| e.to_bytes()).collect();
        payloads.insert(2, b"not thrift".to_vec());
        let rejected = ClientEventLanding::default()
            .write_file(&wh, &path, &payloads)
            .unwrap();
        assert_eq!(rejected, vec![2]);
        let file = ColumnarFile::open(&wh, &path).unwrap();
        let all = vec![true; file.columns()];
        let group = file.read_group(0, &all).unwrap();
        assert_eq!(group.rows(), 5);
        assert_eq!(
            client_event_from_group(&file, &group, 0).as_ref(),
            Some(&events[0])
        );
    }

    #[test]
    fn events_reconstruct_from_groups() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        let events: Vec<ClientEvent> = (0..50).map(sample).collect();
        write_client_events_columnar(&wh, &path, &events, true, 16).unwrap();
        let file = ColumnarFile::open(&wh, &path).unwrap();
        let all = vec![true; file.columns()];
        let mut back = Vec::new();
        for g in 0..file.group_count() {
            let group = file.read_group(g, &all).unwrap();
            for row in 0..group.rows() {
                back.push(client_event_from_group(&file, &group, row).unwrap());
            }
        }
        assert_eq!(back, events);
    }

    #[test]
    fn zone_maps_carry_timestamp_and_name() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        let events: Vec<ClientEvent> = (0..64).map(sample).collect();
        write_client_events_columnar(&wh, &path, &events, true, 32).unwrap();
        let file = ColumnarFile::open(&wh, &path).unwrap();
        assert_eq!(file.group_count(), 2);
        let z = file.zone_map(0).expect("annotated group has a zone map");
        assert_eq!(z.min_key, 1_000_000);
        assert_eq!(z.max_key, 1_000_031);
        assert!(z.may_contain_tag(tag_hash(b"web:home:home:stream:tweet:click")));
    }
}
