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
//! Cell encodings are deliberately trivial — fixed-width integers, raw
//! UTF-8, the details map as counted pairs — because the compression
//! happens at three other layers: the dictionary replaces repeated name
//! strings with varint codes; the warehouse writer, told each column's kind
//! ([`CLIENT_EVENT_KINDS`]), stores a row group's integers as distances
//! from their minimum, its details one key at a time, and a run of values
//! that are all hex digits, numbers or dotted quads — a key's, or the `ip`
//! column's — as those bytes, numbers and octets, not as their print, and a
//! run of a few values (a user agent, the initiator) as each value once and
//! a code a row; and
//! the block compressor squeezes each column chunk (now full of same-shaped
//! values) far better than it does interleaved rows.
//!
//! A read hands each declared column back decoded once, as a typed
//! [`Column`](uli_warehouse::Column) — the user id and the timestamp as
//! `i64`s, the name as a code a row, the rest as their cells' bytes — and
//! [`for_each_event_row`] and [`ClientEventColumnar`] read those.

use std::collections::HashMap;

use uli_dataflow::{ColumnarCodec, Value};
use uli_thrift::CompactReader;
use uli_warehouse::chunk::string_map_cell;
use uli_warehouse::{
    tag_hash, ColumnGroup, ColumnKind, ColumnarFile, ColumnarFileWriter, ColumnarLanding, ScanFile,
    Warehouse, WarehouseError, WarehouseResult, WhPath,
};

use crate::client_event::{ClientEvent, Details};
use crate::event::{EventInitiator, EventName};
use crate::session::dictionary::by_frequency;
use crate::time::Timestamp;

pub use crate::client_event::EventRow;

/// Column index of the dictionary-encoded event name.
pub const NAME_COLUMN: usize = 1;
/// Column index of the user id.
pub const USER_COLUMN: usize = 2;
/// Column index of the session id.
pub const SESSION_COLUMN: usize = 3;
/// Column index of the IP address.
pub const IP_COLUMN: usize = 4;
/// Column index of the event timestamp.
pub const TIMESTAMP_COLUMN: usize = 5;

/// What the cells of each column are ([`CellScratch::cells`]), index-aligned
/// with [`CLIENT_EVENT_SCHEMA`](crate::client_event::CLIENT_EVENT_SCHEMA):
/// what every writer of client events tells the columnar file.
pub const CLIENT_EVENT_KINDS: [ColumnKind; 7] = [
    ColumnKind::Bytes,
    ColumnKind::Bytes,
    ColumnKind::I64,
    ColumnKind::Bytes,
    ColumnKind::Bytes,
    ColumnKind::I64,
    ColumnKind::StringMap,
];

/// The columns of a client event a reader declares it reads, index-aligned
/// with [`CLIENT_EVENT_SCHEMA`](crate::client_event::CLIENT_EVENT_SCHEMA).
pub type EventColumns = [bool; 7];

/// Every column: what a reader that wants whole [`ClientEvent`]s declares.
pub const ALL_COLUMNS: EventColumns = [true; 7];

/// The column set holding exactly `columns`.
pub const fn event_columns<const N: usize>(columns: [usize; N]) -> EventColumns {
    let mut set = [false; 7];
    let mut i = 0;
    while i < N {
        set[columns[i]] = true;
        i += 1;
    }
    set
}

/// Rows per sealed row group. Matches the spirit of the row writer's block
/// target: large enough to amortize per-group footers, small enough that
/// zone maps prune at sub-file granularity.
pub const DEFAULT_ROWS_PER_GROUP: usize = 512;

/// Where the cells of a row that are not already bytes somewhere get
/// encoded; one per file written, reused row after row.
#[derive(Default)]
struct CellScratch {
    initiator: [u8; 1],
    user_id: [u8; 8],
    timestamp: [u8; 8],
    details: Vec<u8>,
}

impl CellScratch {
    /// The seven column cells of `row` (every column declared), index-aligned
    /// with [`CLIENT_EVENT_SCHEMA`](crate::client_event::CLIENT_EVENT_SCHEMA):
    /// initiator as its one-byte wire code, name as raw UTF-8 (the writer's
    /// dictionary substitutes codes for known names), the two integers as
    /// fixed 8-byte little-endian, the two strings raw, and details as a
    /// string-map cell ([`uli_warehouse::chunk`]) in map order. The one cell
    /// encoder: every writer of client events goes through it.
    fn cells<'s>(&'s mut self, row: &EventRow<'s>) -> WarehouseResult<[&'s [u8]; 7]> {
        self.initiator = [row.initiator()?.code() as u8];
        self.user_id = row.user_id()?.to_le_bytes();
        self.timestamp = row.timestamp()?.millis().to_le_bytes();
        self.details.clear();
        row.details()?.write_cell(&mut self.details);
        Ok([
            &self.initiator,
            row.name()?.as_bytes(),
            &self.user_id,
            row.session_id()?.as_bytes(),
            row.ip()?.as_bytes(),
            &self.timestamp,
            &self.details,
        ])
    }
}

/// One event's seven column cells, owned (see [`CellScratch::cells`]).
pub fn client_event_cells(ev: &ClientEvent) -> [Vec<u8>; 7] {
    CellScratch::default()
        .cells(&EventRow::of(ev))
        .expect("a view of an event declares every column")
        .map(<[u8]>::to_vec)
}

/// Columnar codec for client events: decodes the bytes of the cells written
/// by [`client_event_cells`] into exactly the tuple
/// [`ClientEventLoader::parse`](crate::client_event::ClientEventLoader)
/// produces from a Thrift record, so row and columnar scans of the same
/// events are byte-identical; the two integer columns reach the batch as
/// `Int`s, never this codec. Any malformed value returns `None`, dropping
/// the whole row — the columnar analogue of the tolerant row loader
/// skipping an undecodable record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientEventColumnar;

/// Shared codec instance for [`Loader::columnar`](uli_dataflow::Loader)
/// implementations, which hand out `&'static dyn ColumnarCodec`.
pub static CLIENT_EVENT_COLUMNAR: ClientEventColumnar = ClientEventColumnar;

impl ColumnarCodec for ClientEventColumnar {
    fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value> {
        match col {
            0 => Some(Value::Str(decode_initiator(bytes)?.to_string())),
            1 => {
                let s = std::str::from_utf8(bytes).ok()?;
                // Same validation as the Thrift readers: a string that is
                // not a six-level name drops the record.
                EventName::is_valid(s).then(|| Value::Str(s.to_string()))
            }
            3 | 4 => {
                let s = std::str::from_utf8(bytes).ok()?;
                Some(Value::Str(s.to_string()))
            }
            6 => Some(details_cell(bytes)?.value()),
            _ => None,
        }
    }

    fn integer(&self, col: usize) -> bool {
        CLIENT_EVENT_KINDS.get(col) == Some(&ColumnKind::I64)
    }
}

fn decode_initiator(bytes: &[u8]) -> Option<EventInitiator> {
    let [code] = bytes else { return None };
    EventInitiator::from_code(*code as i8)
}

/// A details cell, walked once; `None` when it is malformed. Allocates
/// nothing.
fn details_cell(bytes: &[u8]) -> Option<Details<'_>> {
    let (count, pairs) = string_map_cell(bytes)?;
    Details::parse(count, pairs)
}

/// Where a visited row is stored: its scan unit, and its position among the
/// rows of that unit — every stored row has one, whether or not it decodes,
/// so a position means the same row under any projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAt {
    /// Block of a row file, row group of a columnar one.
    pub unit: usize,
    /// Position in the unit, from zero.
    pub row: usize,
}

/// Visits the client events of `units` of a landed file — blocks of a row
/// file, row groups of a columnar one — in stored order, handing `f` where
/// the row is stored and a borrowed [`EventRow`] over the `columns` the
/// caller declares it reads. Nothing else is decompressed, decoded or
/// allocated: a columnar group is read under exactly that projection, and a
/// dictionary-coded name is validated once per dictionary entry of the
/// file, not once per row.
///
/// Returns `(events, skipped)`: rows handed to `f`, and rows dropped because
/// a *declared* column of theirs did not decode (every reader tolerates
/// those; none treats them as fatal). A cell that would not decode in a
/// column nobody reads drops nothing. A row-format record is one Thrift
/// struct, so it decodes, or is skipped, as a whole. This is the one place
/// that knows how a client event comes out of either layout.
pub fn for_each_event_row(
    file: &ScanFile,
    units: impl IntoIterator<Item = usize>,
    columns: EventColumns,
    f: impl FnMut(RowAt, &EventRow<'_>) -> WarehouseResult<()>,
) -> WarehouseResult<(u64, u64)> {
    type NoTest = fn(&EventRow<'_>) -> WarehouseResult<bool>;
    visit_event_rows(file, units, columns, None::<(usize, NoTest)>, f)
}

/// [`for_each_event_row`] for a reader that keeps few of the rows it
/// visits: `test` is asked of a view over `column` alone (one of `columns`),
/// and only a row it keeps has its other cells decoded — its name resolved,
/// its details walked — and is handed to `f`. The units are read under
/// `columns` all the same, so what the visit is charged does not depend on
/// the test; what it saves is the building of rows nobody wants. A row-format
/// record is one Thrift walk, so there the test is asked after it. A kept row
/// with a declared cell that does not decode is skipped, as it always was.
pub fn for_each_event_row_where(
    file: &ScanFile,
    units: impl IntoIterator<Item = usize>,
    columns: EventColumns,
    (column, test): (usize, impl FnMut(&EventRow<'_>) -> WarehouseResult<bool>),
    f: impl FnMut(RowAt, &EventRow<'_>) -> WarehouseResult<()>,
) -> WarehouseResult<()> {
    debug_assert!(columns[column], "column {column} was not declared");
    if !columns[column] {
        return Err(WarehouseError::UnreadColumn(column));
    }
    visit_event_rows(file, units, columns, Some((column, test)), f).map(|_| ())
}

/// Validated names of one columnar file's dictionary by code, resolved on
/// first sight; `None`: not a six-level name, so its rows are skipped.
type ResolvedNames<'f> = Vec<Option<Option<&'f str>>>;

/// The view of row `row` of `group` over `columns`; `None` when a value of
/// theirs does not decode (an integer cell not eight bytes is one).
fn group_row<'g, 'f: 'g>(
    col: &'f ColumnarFile,
    group: &'g ColumnGroup,
    row: usize,
    columns: &EventColumns,
    names: &mut ResolvedNames<'f>,
) -> WarehouseResult<Option<EventRow<'g>>> {
    fn parse(bytes: &[u8]) -> Option<&str> {
        let name = std::str::from_utf8(bytes).ok()?;
        EventName::is_valid(name).then_some(name)
    }
    let mut view = EventRow::default();
    for c in (0..7).filter(|c| columns[*c]) {
        let column = group.column(c)?;
        let bytes = || col.resolve(column, row);
        // `None`: the value does not decode, which drops the row.
        let mut decode = || {
            match c {
                0 => view.initiator = Some(decode_initiator(bytes()?)?),
                NAME_COLUMN => match column.code(row) {
                    Some(code) => {
                        let at = code as usize;
                        names.resize(names.len().max(at + 1), None);
                        let name = || col.dictionary_value(code).and_then(parse);
                        view.name = Some((*names[at].get_or_insert_with(name))?);
                    }
                    None => view.name = Some(parse(column.bytes(row)?)?),
                },
                USER_COLUMN => view.user_id = Some(column.int(row)?),
                SESSION_COLUMN => view.session_id = Some(std::str::from_utf8(bytes()?).ok()?),
                IP_COLUMN => view.ip = Some(std::str::from_utf8(bytes()?).ok()?),
                TIMESTAMP_COLUMN => view.timestamp = Some(Timestamp(column.int(row)?)),
                _ => view.details = Some(details_cell(bytes()?)?),
            }
            Some(())
        };
        if decode().is_none() {
            return Ok(None);
        }
    }
    Ok(Some(view))
}

/// The one visit behind [`for_each_event_row`] and
/// [`for_each_event_row_where`].
fn visit_event_rows(
    file: &ScanFile,
    units: impl IntoIterator<Item = usize>,
    columns: EventColumns,
    mut test: Option<(usize, impl FnMut(&EventRow<'_>) -> WarehouseResult<bool>)>,
    mut f: impl FnMut(RowAt, &EventRow<'_>) -> WarehouseResult<()>,
) -> WarehouseResult<(u64, u64)> {
    let mut events = 0u64;
    let mut skipped = 0u64;
    match file {
        // Borrowing visit: each record decodes in place, so a row scan
        // charges no `alloc_bytes`.
        ScanFile::Row(blocks) => {
            for unit in units {
                let mut result = Ok(());
                let mut at = RowAt { unit, row: 0 };
                blocks.for_each_record(unit, |record| {
                    let here = at;
                    at.row += 1;
                    if result.is_err() {
                        return;
                    }
                    let Ok(view) = EventRow::read(&mut CompactReader::new(record), &columns) else {
                        skipped += 1;
                        return;
                    };
                    result = match &mut test {
                        Some((_, test)) => test(&view),
                        None => Ok(true),
                    }
                    .and_then(|keep| match keep {
                        true => {
                            events += 1;
                            f(here, &view)
                        }
                        false => Ok(()),
                    });
                })?;
                result?;
            }
        }
        ScanFile::Columnar(col) => {
            if col.columns() != columns.len() {
                return Err(WarehouseError::Corrupt("client-event file width"));
            }
            let mut names = ResolvedNames::new();
            for unit in units {
                let group = col.read_group(unit, &columns)?;
                for row in 0..group.rows() {
                    if let Some((column, test)) = &mut test {
                        let tested = event_columns([*column]);
                        match group_row(col, &group, row, &tested, &mut names)? {
                            Some(view) if test(&view)? => {}
                            Some(_) => continue,
                            None => {
                                skipped += 1;
                                continue;
                            }
                        }
                    }
                    match group_row(col, &group, row, &columns, &mut names)? {
                        Some(view) => {
                            events += 1;
                            f(RowAt { unit, row }, &view)?;
                        }
                        None => skipped += 1,
                    }
                }
            }
        }
    }
    Ok((events, skipped))
}

/// The per-file name dictionary of `rows` and the code it gives each row's
/// name: ranked by frequency in these rows under the rule of
/// [`EventDictionary::from_counts`](crate::session::EventDictionary::from_counts)
/// (more frequent first, ties by name), entries in rank order so entry
/// index = code. Frequent names get small codes, exactly the
/// variable-length-coding argument the session dictionary makes. One hash
/// of the borrowed name per row; nothing is allocated per row.
fn name_codes<'a>(rows: &[EventRow<'a>]) -> WarehouseResult<(Vec<&'a [u8]>, Vec<u32>)> {
    let mut slots: HashMap<&str, u32> = HashMap::new();
    let mut counts: Vec<(&str, u64)> = Vec::new();
    let mut codes = Vec::with_capacity(rows.len());
    for row in rows {
        let name = row.name()?;
        let slot = *slots.entry(name).or_insert_with(|| {
            counts.push((name, 0));
            counts.len() as u32 - 1
        });
        counts[slot as usize].1 += 1;
        codes.push(slot);
    }
    let mut ranked: Vec<u32> = (0..counts.len() as u32).collect();
    ranked.sort_by(|a, b| by_frequency(counts[*a as usize], counts[*b as usize]));
    let mut code_of_slot = vec![0; counts.len()];
    for (code, slot) in ranked.iter().enumerate() {
        code_of_slot[*slot as usize] = code as u32;
    }
    for code in &mut codes {
        *code = code_of_slot[*code as usize];
    }
    let entries = ranked
        .iter()
        .map(|slot| counts[*slot as usize].0.as_bytes())
        .collect();
    Ok((entries, codes))
}

/// Writes `rows` (every column declared) to one columnar file. With
/// `dictionary` set, the name column is dictionary-encoded from this file's
/// own frequency histogram; without, every name is stored inline (the E19
/// ablation arm). Every row carries the same zone annotations as the
/// row-format writer — timestamp as the key dimension, event name as the
/// tag dimension — so zone-map pruning works identically across layouts.
fn write_event_rows(
    warehouse: &Warehouse,
    path: &WhPath,
    rows: &[EventRow<'_>],
    dictionary: bool,
    rows_per_group: usize,
) -> WarehouseResult<()> {
    let coded = dictionary.then(|| name_codes(rows)).transpose()?;
    // A coded name's zone-map tag, hashed once an entry, not once a row.
    let entry_tags: Vec<u64> = coded
        .iter()
        .flat_map(|(entries, _)| entries.iter().map(|name| tag_hash(name)))
        .collect();
    let mut w = ColumnarFileWriter::create(
        warehouse,
        path,
        &CLIENT_EVENT_KINDS,
        rows_per_group,
        coded
            .as_ref()
            .map(|(entries, _)| (NAME_COLUMN, entries.as_slice())),
    )?;
    let mut scratch = CellScratch::default();
    for (i, row) in rows.iter().enumerate() {
        let cells = scratch.cells(row)?;
        let code = coded.as_ref().map(|(_, codes)| codes[i]);
        let tag = code.map_or_else(
            || tag_hash(cells[NAME_COLUMN]),
            |code| entry_tags[code as usize],
        );
        w.append_row_coded(&cells, code, row.timestamp()?.millis(), tag);
    }
    w.finish()
}

/// Writes events to one columnar file (see [`write_event_rows`]).
pub fn write_client_events_columnar(
    warehouse: &Warehouse,
    path: &WhPath,
    events: &[ClientEvent],
    dictionary: bool,
    rows_per_group: usize,
) -> WarehouseResult<u64> {
    let rows: Vec<EventRow<'_>> = events.iter().map(EventRow::of).collect();
    write_event_rows(warehouse, path, &rows, dictionary, rows_per_group)?;
    Ok(events.len() as u64)
}

/// The log mover's columnar landing for the client-events category: each
/// Thrift payload is walked once, borrowed ([`EventRow::from_bytes`]), and
/// its cells land through [`write_event_rows`] with no [`ClientEvent`] in
/// between; payloads that fail to decode are reported back so the mover
/// keeps them in a row-format sibling file.
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
        let mut rows = Vec::with_capacity(payloads.len());
        let mut rejected = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            match EventRow::from_bytes(p) {
                Ok(row) => rows.push(row),
                Err(_) => rejected.push(i),
            }
        }
        write_event_rows(warehouse, path, &rows, self.dictionary, self.rows_per_group)?;
        Ok(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_event::ClientEventLoader;
    use crate::time::Timestamp;
    use std::collections::BTreeMap;
    use uli_dataflow::{scan_unit, Loader, ScanSpec};
    use uli_thrift::ThriftRecord;
    use uli_warehouse::{ColumnarFile, ScanFile, StoredAs};

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
                // An integer column's cells are read as integers, never by
                // the codec.
                let value = match CLIENT_EVENT_COLUMNAR.integer(col) {
                    true => Some(Value::Int(i64::from_le_bytes(cell[..].try_into().unwrap()))),
                    false => CLIENT_EVENT_COLUMNAR.decode(col, cell),
                };
                assert_eq!(
                    value.as_ref(),
                    Some(&expected[col]),
                    "column {col} of event {i}"
                );
            }
        }
    }

    #[test]
    fn empty_details_decode_to_an_empty_map() {
        let mut ev = sample(1);
        ev.details = crate::client_event::EventDetails::default();
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
        uli_thrift::varint::write_u64(&mut hostile, u64::MAX);
        assert_eq!(c.decode(6, &hostile), None, "absurd pair count");
        assert_eq!(c.decode(7, b""), None, "column out of range");
    }

    #[test]
    fn dictionary_ranks_by_frequency() {
        let events: Vec<ClientEvent> = (0..9).map(sample).collect();
        // impression appears 6 times, click 3 — impression gets code 0.
        let rows: Vec<EventRow<'_>> = events.iter().map(EventRow::of).collect();
        let (entries, codes) = name_codes(&rows).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(codes, [1, 0, 0, 1, 0, 0, 1, 0, 0]);
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
        let file = ScanFile::Columnar(file);
        let mut rows = Vec::new();
        for g in 0..file.units() {
            rows.extend(scan_unit(&file, g, &ClientEventLoader, &ScanSpec::full(7)).unwrap());
        }
        assert_eq!(file.local_stats().records_skipped_by_predicate, 0);
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
        let file = ScanFile::Columnar(file);
        let tuples = scan_unit(&file, 0, &ClientEventLoader, &ScanSpec::full(7)).unwrap();
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
        assert_eq!(read_back(&wh, &path), (events, 0));
    }

    /// Every event of the file at `path` through the row view, plus the
    /// visit's skipped count.
    fn read_back(wh: &Warehouse, path: &WhPath) -> (Vec<ClientEvent>, u64) {
        let file = ScanFile::open(wh, path).unwrap();
        let mut back = Vec::new();
        let (events, skipped) =
            for_each_event_row(&file, 0..file.units(), ALL_COLUMNS, |_, row| {
                back.push(row.to_event()?);
                Ok(())
            })
            .unwrap();
        assert_eq!(events, back.len() as u64);
        (back, skipped)
    }

    #[test]
    fn events_reconstruct_from_either_layout() {
        let wh = Warehouse::new();
        let events: Vec<ClientEvent> = (0..50).map(sample).collect();
        let columnar = WhPath::parse("/logs/ce/part-0").unwrap();
        write_client_events_columnar(&wh, &columnar, &events, true, 16).unwrap();
        assert_eq!(read_back(&wh, &columnar), (events.clone(), 0));
        // No dictionary: every name is an inline cell, parsed per row.
        let inline = WhPath::parse("/logs/ce/part-1").unwrap();
        write_client_events_columnar(&wh, &inline, &events, false, 16).unwrap();
        assert_eq!(read_back(&wh, &inline), (events.clone(), 0));
        let rows = WhPath::parse("/logs/ce/part-2").unwrap();
        let mut w = wh.create(&rows).unwrap();
        w.append_record(b"not a client event");
        for ev in &events {
            w.append_record(&ev.to_bytes());
        }
        w.finish().unwrap();
        assert_eq!(read_back(&wh, &rows), (events, 1));
    }

    /// A 3-row columnar file whose middle row carries `bad` in column `col`.
    fn file_with_bad_cell(wh: &Warehouse, col: usize, bad: &[u8]) -> ScanFile {
        let path = WhPath::parse("/logs/ce/bad").unwrap();
        let mut w = ColumnarFileWriter::create(wh, &path, &CLIENT_EVENT_KINDS, 8, None).unwrap();
        for i in 0..3 {
            let cells = client_event_cells(&sample(i));
            let mut refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
            if i == 1 {
                refs[col] = bad;
            }
            w.append_row(&refs);
        }
        w.finish().unwrap();
        ScanFile::open(wh, &path).unwrap()
    }

    /// A scan reads an integer column whose group fell back to cells as the
    /// row view does: a row whose cell is eight bytes keeps its integer,
    /// the row whose cell is not is dropped.
    #[test]
    fn a_batch_keeps_the_eight_byte_rows_of_a_fallen_back_integer_column() {
        for col in [USER_COLUMN, TIMESTAMP_COLUMN] {
            let file = file_with_bad_cell(&Warehouse::new(), col, &[1, 2, 3]);
            let ScanFile::Columnar(columnar) = &file else {
                panic!("a columnar file")
            };
            assert_eq!(columnar.stored_chunks(0).unwrap()[col].0, StoredAs::Cells);
            let rows = scan_unit(&file, 0, &ClientEventLoader, &ScanSpec::full(7)).unwrap();
            let expected: Vec<_> = [0, 2]
                .into_iter()
                .map(|i| {
                    ClientEventLoader
                        .parse(&sample(i).to_bytes())
                        .unwrap()
                        .unwrap()
                })
                .collect();
            assert_eq!(rows, expected, "column {col}");
        }
    }

    #[test]
    fn only_a_declared_column_can_drop_a_row() {
        let narrow = event_columns([NAME_COLUMN, USER_COLUMN]);
        let users = |file: &ScanFile, columns| {
            let mut users = Vec::new();
            let counts = for_each_event_row(file, 0..file.units(), columns, |_, row| {
                users.push(row.user_id()?);
                Ok(())
            })
            .unwrap();
            (users, counts)
        };
        // Truncated details: nobody who does not read details notices.
        let file = file_with_bad_cell(&Warehouse::new(), 6, &[5]);
        assert_eq!(users(&file, narrow), (vec![0, 1, 2], (3, 0)));
        assert_eq!(users(&file, ALL_COLUMNS), (vec![0, 2], (2, 1)));
        // A short user id is in the declared set of both.
        let file = file_with_bad_cell(&Warehouse::new(), USER_COLUMN, &[1, 2, 3]);
        assert_eq!(users(&file, narrow), (vec![0, 2], (2, 1)));
        assert_eq!(users(&file, ALL_COLUMNS), (vec![0, 2], (2, 1)));
        // So is a name that is not a six-level name.
        let file = file_with_bad_cell(&Warehouse::new(), NAME_COLUMN, b"not-a-name");
        assert_eq!(users(&file, narrow), (vec![0, 2], (2, 1)));
    }

    /// The users of the rows `for_each_event_row_where` hands out of `file`
    /// when it keeps those whose `column` passes `test`.
    fn users_where(
        file: &ScanFile,
        column: usize,
        test: impl Fn(&EventRow<'_>) -> WarehouseResult<bool>,
    ) -> Vec<i64> {
        let mut users = Vec::new();
        for_each_event_row_where(
            file,
            0..file.units(),
            ALL_COLUMNS,
            (column, test),
            |_, row| {
                row.to_event()?;
                users.push(row.user_id()?);
                Ok(())
            },
        )
        .unwrap();
        users
    }

    #[test]
    fn a_tested_visit_builds_only_the_rows_its_test_keeps() {
        let odd = |row: &EventRow<'_>| Ok(row.user_id()? % 2 == 1);
        // Garbage details on an even user's row: the test drops the row
        // before anything looks at them. On an odd user's: the row is kept,
        // does not decode, and is skipped like any other.
        let file = file_with_bad_cell(&Warehouse::new(), 6, &[5]);
        assert_eq!(users_where(&file, USER_COLUMN, odd), Vec::<i64>::new());
        assert_eq!(
            users_where(&file, USER_COLUMN, |row| Ok(row.user_id()? != 1)),
            [0, 2]
        );
        // A tested cell that does not decode drops its row, whatever the
        // test would have said.
        let file = file_with_bad_cell(&Warehouse::new(), USER_COLUMN, &[1, 2, 3]);
        assert_eq!(users_where(&file, USER_COLUMN, |_| Ok(true)), [0, 2]);
        // Any declared column can carry the test: the name resolves through
        // the dictionary, once for the test and once for the row.
        let wh = Warehouse::new();
        let events: Vec<ClientEvent> = (0..50).map(sample).collect();
        let columnar = WhPath::parse("/logs/ce/part-0").unwrap();
        write_client_events_columnar(&wh, &columnar, &events, true, 16).unwrap();
        let rows = WhPath::parse("/logs/ce/part-1").unwrap();
        let mut w = wh.create(&rows).unwrap();
        w.append_record(b"not a client event");
        for ev in &events {
            w.append_record(&ev.to_bytes());
        }
        w.finish().unwrap();
        for path in [&columnar, &rows] {
            let file = ScanFile::open(&wh, path).unwrap();
            let clicks = |row: &EventRow<'_>| Ok(row.name()?.ends_with(":click"));
            let expect: Vec<i64> = (0..50).filter(|i| i % 3 == 0).collect();
            assert_eq!(users_where(&file, NAME_COLUMN, clicks), expect);
            let expect: Vec<i64> = (0..50).filter(|i| i % 2 == 1).collect();
            assert_eq!(users_where(&file, USER_COLUMN, odd), expect);
        }
    }

    // The test sees its own column and nothing else; on a row record, which
    // is walked whole, it sees what the walk declared.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "was not declared"))]
    fn a_test_reads_the_column_it_named() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        write_client_events_columnar(&wh, &path, &[sample(0)], true, 16).unwrap();
        let file = ScanFile::open(&wh, &path).unwrap();
        let test = |row: &EventRow<'_>| Ok(row.timestamp()?.millis() > 0);
        let visit =
            for_each_event_row_where(&file, 0..1, ALL_COLUMNS, (USER_COLUMN, test), |_, _| Ok(()));
        assert_eq!(visit, Err(WarehouseError::UnreadColumn(TIMESTAMP_COLUMN)));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "was not declared"))]
    fn the_tested_column_is_one_of_the_declared() {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        write_client_events_columnar(&wh, &path, &[sample(0)], true, 16).unwrap();
        let file = ScanFile::open(&wh, &path).unwrap();
        let visit = for_each_event_row_where(
            &file,
            0..1,
            event_columns([NAME_COLUMN]),
            (USER_COLUMN, |_: &EventRow<'_>| Ok(true)),
            |_, _| Ok(()),
        );
        assert_eq!(visit, Err(WarehouseError::UnreadColumn(USER_COLUMN)));
    }

    /// What `file` decodes to under `columns`: every declared column of
    /// every row handed out, in stored order, then the visit's counts.
    fn decoded_digest(file: &ScanFile, columns: EventColumns) -> u64 {
        use uli_warehouse::{fnv1a64_fold, FNV1A64_OFFSET};
        let mut h = FNV1A64_OFFSET;
        let mut cell = Vec::new();
        let (events, skipped) = for_each_event_row(file, 0..file.units(), columns, |_, row| {
            cell.clear();
            for c in (0..7).filter(|c| columns[*c]) {
                match c {
                    0 => cell.push(row.initiator()?.code() as u8),
                    NAME_COLUMN => cell.extend_from_slice(row.name()?.as_bytes()),
                    USER_COLUMN => cell.extend_from_slice(&row.user_id()?.to_le_bytes()),
                    SESSION_COLUMN => cell.extend_from_slice(row.session_id()?.as_bytes()),
                    IP_COLUMN => cell.extend_from_slice(row.ip()?.as_bytes()),
                    TIMESTAMP_COLUMN => {
                        cell.extend_from_slice(&row.timestamp()?.millis().to_le_bytes())
                    }
                    _ => row.details()?.write_cell(&mut cell),
                }
                cell.push(0xff);
            }
            h = fnv1a64_fold(h, &cell);
            Ok(())
        })
        .unwrap();
        fnv1a64_fold(
            fnv1a64_fold(h, &events.to_le_bytes()),
            &skipped.to_le_bytes(),
        )
    }

    /// Recorded from the format as it stood before typed chunks: a cell
    /// that does not fit its column's kind must still come back as the
    /// bytes that were written, and drop (or not drop) the same rows.
    #[test]
    fn bad_cell_fixtures_decode_to_the_recorded_digests() {
        let narrow = event_columns([NAME_COLUMN, USER_COLUMN]);
        // Pairs out of key order, and one key twice: cells no writer of ours
        // produces, which decode through a map (last occurrence wins).
        let unsorted = [2, 1, b'b', 1, b'x', 1, b'a', 1, b'y'];
        let duplicate = [2, 1, b'a', 1, b'x', 1, b'a', 1, b'y'];
        // The middle row dropped, and all three rows kept.
        const TWO_ROWS: (u64, u64) = (9776231977043857231, 12040047780805572083);
        const ALL_NARROW: u64 = 8312493058707573376;
        let fixtures: [(usize, &[u8], u64, u64); 7] = [
            (6, &[5], TWO_ROWS.0, ALL_NARROW),
            (6, &unsorted, 2431056907248152995, ALL_NARROW),
            (6, &duplicate, 5252390381555452002, ALL_NARROW),
            (USER_COLUMN, &[1, 2, 3], TWO_ROWS.0, TWO_ROWS.1),
            (TIMESTAMP_COLUMN, &[0; 9], TWO_ROWS.0, ALL_NARROW),
            (TIMESTAMP_COLUMN, &[], TWO_ROWS.0, ALL_NARROW),
            (NAME_COLUMN, b"not-a-name", TWO_ROWS.0, TWO_ROWS.1),
        ];
        for (col, bad, full, name_and_user) in fixtures {
            let file = file_with_bad_cell(&Warehouse::new(), col, bad);
            assert_eq!(
                (
                    decoded_digest(&file, ALL_COLUMNS),
                    decoded_digest(&file, narrow)
                ),
                (full, name_and_user),
                "column {col} holding {bad:?}"
            );
        }
    }

    /// Reads `user_id` through a view that declared only the name.
    fn read_an_undeclared_column(columnar: bool) {
        let wh = Warehouse::new();
        let path = WhPath::parse("/logs/ce/part-0").unwrap();
        if columnar {
            write_client_events_columnar(&wh, &path, &[sample(0)], true, 16).unwrap();
        } else {
            let mut w = wh.create(&path).unwrap();
            w.append_record(&sample(0).to_bytes());
            w.finish().unwrap();
        }
        let file = ScanFile::open(&wh, &path).unwrap();
        let visit = for_each_event_row(&file, 0..1, event_columns([NAME_COLUMN]), |_, row| {
            row.name()?;
            row.user_id().map(|_| ())
        });
        assert_eq!(visit, Err(WarehouseError::UnreadColumn(USER_COLUMN)));
    }

    // A column outside the declared set is a caller bug on either layout: a
    // panic under `debug_assertions`, a typed error without — never a value.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "was not declared"))]
    fn an_undeclared_column_of_a_columnar_row_is_never_fabricated() {
        read_an_undeclared_column(true);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "was not declared"))]
    fn an_undeclared_column_of_a_row_record_is_never_fabricated() {
        read_an_undeclared_column(false);
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
