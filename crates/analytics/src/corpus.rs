//! Loading materialized session sequences.
//!
//! A day's part files are columnar ([`SESSION_SEQUENCE_KINDS`]), and a day
//! loads into one [`SequenceCorpus`] column by column: a vector of user ids,
//! one of durations, and a single UTF-8 arena holding every session id, then
//! every ip, then every sequence. The arena is checked once per load, and a
//! session is handed out as a borrowed [`SessionRef`], so the load allocates
//! per part file and row group, never per session.

use std::ops::Range;

use uli_core::session::{sequences_dir, Sequence, SessionRef, SESSION_SEQUENCE_KINDS};
use uli_warehouse::{
    ColumnGroup, ColumnarFile, Warehouse, WarehouseError, WarehouseResult, WhPath,
};

/// Every column of a part file: a load builds whole sessions.
const ALL_COLUMNS: [bool; SESSION_SEQUENCE_KINDS.len()] = [true; SESSION_SEQUENCE_KINDS.len()];

/// The part-file columns held in the arena, in arena order: session id, ip,
/// sequence.
const TEXT_COLUMNS: [usize; 3] = [1, 2, 3];

/// One part file, opened, and its row groups read at full width.
type Part = (ColumnarFile, Vec<ColumnGroup>);

/// One day of materialized sessions, held column by column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequenceCorpus {
    user_ids: Vec<i64>,
    durations: Vec<i64>,
    /// Every session id, then every ip, then every sequence, each column in
    /// session order.
    text: String,
    /// Where each field of `text` starts, the next field's start being its
    /// end: field `c * len + i` is text column `c` of session `i`.
    bounds: Vec<usize>,
}

impl SequenceCorpus {
    /// Number of sessions.
    #[inline]
    pub fn len(&self) -> usize {
        self.user_ids.len()
    }

    /// True if the day has no sessions.
    pub fn is_empty(&self) -> bool {
        self.user_ids.is_empty()
    }

    /// Session `i`, in part-file order.
    #[inline]
    pub fn get(&self, i: usize) -> Option<SessionRef<'_>> {
        let n = self.len();
        if i >= n {
            return None;
        }
        let field = |c: usize| &self.text[self.bounds[c * n + i]..self.bounds[c * n + i + 1]];
        Some(SessionRef {
            user_id: self.user_ids[i],
            session_id: field(0),
            ip: field(1),
            sequence: Sequence::new(field(2)),
            duration_secs: self.durations[i],
        })
    }

    /// Every session, in part-file order.
    pub fn iter(&self) -> Sessions<'_> {
        Sessions {
            corpus: self,
            next: 0..self.len(),
        }
    }

    /// Builds the corpus of a day's parts, one column at a time.
    fn from_parts(parts: &[Part]) -> WarehouseResult<SequenceCorpus> {
        let groups = || {
            parts
                .iter()
                .flat_map(|(f, groups)| groups.iter().map(move |g| (f, g)))
        };
        let n = groups().map(|(_, group)| group.rows()).sum();
        // Room for every inline text value; a dictionary value is stored
        // once, so a file that has any may make the arena grow.
        let mut text_len = 0;
        for (_, group) in groups() {
            for col in TEXT_COLUMNS {
                text_len += group.column(col)?.byte_len();
            }
        }
        let mut corpus = SequenceCorpus {
            user_ids: Vec::with_capacity(n),
            durations: Vec::with_capacity(n),
            text: String::new(),
            bounds: Vec::with_capacity(TEXT_COLUMNS.len() * n + 1),
        };
        for (col, ints) in [(0, &mut corpus.user_ids), (4, &mut corpus.durations)] {
            for (_, group) in groups() {
                let column = group.column(col)?;
                for row in 0..group.rows() {
                    ints.push(column.int(row).ok_or(NOT_INTEGER)?);
                }
            }
        }
        let mut text = Vec::with_capacity(text_len);
        corpus.bounds.push(0);
        for col in TEXT_COLUMNS {
            for (file, group) in groups() {
                let column = group.column(col)?;
                for row in 0..group.rows() {
                    text.extend_from_slice(file.resolve(column, row).ok_or(NOT_TEXT)?);
                    corpus.bounds.push(text.len());
                }
            }
        }
        // Whole and cut on characters, every field is UTF-8.
        corpus.text = String::from_utf8(text).map_err(|_| NOT_UTF8)?;
        if !corpus
            .bounds
            .iter()
            .all(|b| corpus.text.is_char_boundary(*b))
        {
            return Err(NOT_UTF8);
        }
        Ok(corpus)
    }
}

impl<'a> IntoIterator for &'a SequenceCorpus {
    type Item = SessionRef<'a>;
    type IntoIter = Sessions<'a>;

    fn into_iter(self) -> Sessions<'a> {
        self.iter()
    }
}

/// The sessions of a [`SequenceCorpus`], borrowed, in part-file order.
#[derive(Debug, Clone)]
pub struct Sessions<'a> {
    corpus: &'a SequenceCorpus,
    next: Range<usize>,
}

impl<'a> Iterator for Sessions<'a> {
    type Item = SessionRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<SessionRef<'a>> {
        self.corpus.get(self.next.next()?)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for Sessions<'_> {}

const NOT_UTF8: WarehouseError = WarehouseError::Corrupt("session-sequence text is not UTF-8");

const NOT_INTEGER: WarehouseError = WarehouseError::Corrupt("session-sequence integer cell");

const NOT_TEXT: WarehouseError = WarehouseError::Corrupt("session-sequence text column");

/// Opens one part file, which must be a columnar file of the relation's
/// five columns, and reads its row groups.
fn read_part(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<Part> {
    let file = ColumnarFile::open(warehouse, path)?;
    if file.columns() != SESSION_SEQUENCE_KINDS.len() {
        return Err(WarehouseError::Corrupt("session-sequence part file width"));
    }
    let groups = (0..file.group_count())
        .map(|g| file.read_group(g, &ALL_COLUMNS))
        .collect::<WarehouseResult<_>>()?;
    Ok((file, groups))
}

/// Reads every session sequence materialized for `day_index`. A part file
/// that is not a columnar file of the relation's five columns, or a value
/// that is not what its column holds, is an error: nothing is dropped.
pub fn load_sequences(warehouse: &Warehouse, day_index: u64) -> WarehouseResult<SequenceCorpus> {
    let parts = warehouse
        .list_files_recursive(&sequences_dir(day_index))?
        .iter()
        .map(|path| read_part(warehouse, path))
        .collect::<WarehouseResult<Vec<_>>>()?;
    SequenceCorpus::from_parts(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use uli_core::session::{Materializer, SessionSequence};
    use uli_thrift::ThriftRecord;
    use uli_warehouse::{Cell, ColumnKind, ColumnarFileWriter};

    #[test]
    fn loads_what_the_materializer_wrote() {
        let wh = Warehouse::new();
        // Build a tiny day directly via the materializer fixtures.
        let events = test_support::write_tiny_day(&wh, 0);
        let report = Materializer::new(wh.clone()).run_day(0).unwrap();
        assert!(events > 0);
        let seqs = load_sequences(&wh, 0).unwrap();
        assert_eq!(seqs.len() as u64, report.sessions);
        assert!(seqs.iter().all(|s| !s.sequence.is_empty()));
        assert_eq!(seqs.iter().len(), seqs.len());
        assert_eq!(seqs.get(seqs.len()), None);
        let first = seqs.get(0).unwrap();
        assert_eq!(
            (first.user_id, first.session_id, first.ip),
            (1, "s-0", "10.0.0.1")
        );
        assert_eq!(first.len(), 10, "ten events an hour, an hour's gap apart");
        assert_eq!(first.duration_secs, 9);
    }

    #[test]
    fn missing_day_errors() {
        let wh = Warehouse::new();
        assert!(load_sequences(&wh, 7).is_err());
    }

    type Row = [Vec<u8>; 5];

    fn part(name: &str) -> WhPath {
        sequences_dir(0).child(name).unwrap()
    }

    /// Writes `rows` as a columnar part file of `kinds`, four rows a group:
    /// an integer column's cells, eight little-endian bytes, as integers.
    fn write_part(wh: &Warehouse, path: &WhPath, kinds: &[ColumnKind], rows: &[Vec<Vec<u8>>]) {
        let mut w = ColumnarFileWriter::create(wh, path, kinds, 4, None).unwrap();
        for row in rows {
            let cells: Vec<Cell<'_>> = (kinds.iter().zip(row))
                .map(|(kind, cell)| match kind {
                    ColumnKind::I64 => Cell::Int(i64::from_le_bytes(cell[..].try_into().unwrap())),
                    _ => Cell::Bytes(cell),
                })
                .collect();
            w.append_row(&cells, None);
        }
        w.finish().unwrap();
    }

    fn row_of(s: &SessionSequence) -> Row {
        [
            s.user_id.to_le_bytes().to_vec(),
            s.session_id.clone().into_bytes(),
            s.ip.clone().into_bytes(),
            s.sequence.clone().into_bytes(),
            s.duration_secs.to_le_bytes().to_vec(),
        ]
    }

    fn session() -> impl Strategy<Value = SessionSequence> {
        (
            any::<i64>(),
            "[a-z0-9-]{0,12}",
            "[0-9.]{0,15}",
            "\\PC{0,20}",
            any::<i64>(),
        )
            .prop_map(|(user_id, session_id, ip, sequence, duration_secs)| {
                SessionSequence {
                    user_id,
                    session_id,
                    ip,
                    sequence,
                    duration_secs,
                }
            })
    }

    /// Two session ids that are each half of one character: the arena
    /// holds them side by side as a valid string, cut where no character
    /// ends.
    #[test]
    fn a_character_cut_between_two_cells_is_an_error() {
        let wh = Warehouse::new();
        let mut rows: Vec<Vec<Vec<u8>>> = Vec::new();
        for id in [&b"a\xc3"[..], &b"\xa9b"[..]] {
            let mut row = row_of(&SessionSequence {
                user_id: 1,
                session_id: String::new(),
                ip: "10.0.0.1".into(),
                sequence: "\u{1}".into(),
                duration_secs: 0,
            })
            .to_vec();
            row[1] = id.to_vec();
            rows.push(row);
        }
        write_part(&wh, &part("part-00000"), &SESSION_SEQUENCE_KINDS, &rows);
        assert_eq!(load_sequences(&wh, 0), Err(NOT_UTF8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A day of well-formed part files loads as written; beside it, a
        /// part file forged one of six ways makes the whole load an error —
        /// never fewer sessions, never a panic.
        #[test]
        fn a_forged_part_file_is_an_error_never_a_shorter_day(
            good in vec(session(), 0..12),
            forged in vec(session(), 2..12),
            forgery in 0usize..6,
            pick in any::<usize>(),
            bad_len in (0usize..15).prop_map(|n| if n < 8 { n } else { n + 1 }),
            width in (1usize..8).prop_map(|w| if w < 5 { w } else { w + 1 }),
        ) {
            let wh = Warehouse::new();
            let rows = |sessions: &[SessionSequence]| -> Vec<Vec<Vec<u8>>> {
                sessions.iter().map(|s| row_of(s).to_vec()).collect()
            };
            write_part(&wh, &part("part-00000"), &SESSION_SEQUENCE_KINDS, &rows(&good));
            let loaded = load_sequences(&wh, 0).unwrap();
            let back: Vec<SessionSequence> = loaded.iter().map(SessionSequence::from).collect();
            prop_assert_eq!(&back, &good);

            let mut cells = rows(&forged);
            let at = pick % cells.len();
            let text_col = 1 + pick % 3;
            let int_col = if pick % 2 == 0 { 0 } else { 4 };
            let path = part("part-00001");
            match forgery {
                // A byte that starts no character.
                0 => cells[at][text_col].push(0xff),
                // A character cut in two between one session's cell and the
                // next one's: the arena holds them side by side, whole.
                1 => {
                    let next = (at + 1) % cells.len();
                    cells[at][text_col].push(0xc3);
                    cells[next][text_col].insert(0, 0xa9);
                }
                2 => cells[at][int_col] = vec![7; bad_len],
                _ => {}
            }
            match forgery {
                // The misfit's column is one of bytes, which holds anything
                // and which a reader, who never sees a column's kind, reads
                // as any other.
                2 => {
                    let mut kinds = SESSION_SEQUENCE_KINDS;
                    kinds[int_col] = ColumnKind::Bytes;
                    write_part(&wh, &path, &kinds, &cells);
                }
                3 => {
                    let narrow: Vec<Vec<Vec<u8>>> = cells
                        .iter()
                        .map(|row| (0..width).map(|c| row[c % 5].clone()).collect())
                        .collect();
                    write_part(&wh, &path, &vec![ColumnKind::Bytes; width], &narrow);
                }
                4 => {
                    write_part(&wh, &path, &SESSION_SEQUENCE_KINDS, &cells);
                    let blocks = wh.open_blocks(&path).unwrap().block_count();
                    wh.truncate_block(&path, pick % blocks).unwrap();
                }
                5 => {
                    let mut w = wh.create(&path).unwrap();
                    for s in &forged {
                        w.append_record(&s.to_bytes());
                    }
                    w.finish().unwrap();
                }
                _ => write_part(&wh, &path, &SESSION_SEQUENCE_KINDS, &cells),
            }
            prop_assert!(load_sequences(&wh, 0).is_err(), "forgery {} loaded", forgery);
        }
    }
}

/// Shared fixtures for this crate's tests.
#[cfg(test)]
pub(crate) mod test_support {
    use uli_core::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
    use uli_core::event::{EventInitiator, EventName};
    use uli_core::time::Timestamp;
    use uli_thrift::ThriftRecord;
    use uli_warehouse::{HourlyPartition, Warehouse};

    /// Writes two hours of a simple repetitive day; returns event count.
    pub fn write_tiny_day(wh: &Warehouse, day: u64) -> u64 {
        let mut total = 0;
        for hour in day * 24..day * 24 + 2 {
            let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
            let mut w = wh.create(&dir.child("part-00000").unwrap()).unwrap();
            for u in 0..8i64 {
                for i in 0..10usize {
                    let action = match i % 4 {
                        0 | 1 => "impression",
                        2 => "click",
                        _ => "profile_click",
                    };
                    let ev = ClientEvent::new(
                        EventInitiator::CLIENT_USER,
                        EventName::parse(&format!("web:home:home:stream:tweet:{action}")).unwrap(),
                        u + 1,
                        format!("s-{u}"),
                        "10.0.0.1",
                        Timestamp::from_hour_index(hour).plus(i as i64 * 1000),
                    );
                    w.append_record(&ev.to_bytes());
                    total += 1;
                }
            }
            w.finish().unwrap();
        }
        total
    }
}
