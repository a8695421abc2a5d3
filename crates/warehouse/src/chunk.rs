//! Typed column chunks: what a column's declared kind lets a sealed row
//! group do to its cells before the block compressor sees them.
//!
//! The columnar writer buffers every column of a group the same way — each
//! cell behind a varint length — and that buffer is also what a reader gets
//! back. In between, a chunk of a typed column is *transposed*:
//!
//! * [`ColumnKind::I64`] — every cell is eight little-endian bytes. Stored
//!   as the group's minimum (zigzag varint) followed by one varint per row,
//!   the value's distance from it: a timestamp column spends three bytes a
//!   row where it spent nine.
//! * [`ColumnKind::StringMap`] — every cell is a [string-map
//!   cell](string_map_cell). Stored as the sorted list of the keys the
//!   group uses, each with one *sub-chunk*: per row, `0` where the row
//!   lacks the key, else the value's length plus one and the value. The
//!   key strings, repeated on every row of the cell layout, are stored
//!   once, and each key's values sit together, where values of one shape
//!   (a constant, a short number, a fixed-width id) compress as a run.
//!
//! Whether a chunk is transposed is decided by its data, never by an
//! option: a group holding any cell that does not fit the kind — not eight
//! bytes, pairs that do not parse, keys not strictly ascending, a length
//! that is not a minimal varint — stores that chunk as plain cells
//! ([`ColumnKind::Bytes`]), so the file never refuses a row and
//! [`rebuild`] always returns exactly the bytes that were buffered.

use crate::varint::{read_varint, varint_len, write_varint};

/// The declared type of a column's cells, and the tag of a stored chunk's
/// encoding (a chunk of a typed column is tagged `Bytes` when it fell back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Opaque bytes; the only kind a dictionary-coded column can have.
    Bytes,
    /// Eight little-endian bytes: a signed 64-bit integer.
    I64,
    /// A [string-map cell](string_map_cell).
    StringMap,
}

impl ColumnKind {
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_tag(tag: u8) -> Option<ColumnKind> {
        [ColumnKind::Bytes, ColumnKind::I64, ColumnKind::StringMap]
            .into_iter()
            .find(|kind| kind.tag() == tag)
    }
}

/// No chunk rebuilds to more than this (the bound `ulz` puts on a block).
const MAX_REBUILT: usize = 1 << 30;

/// Output reserved up front when rebuilding; the rest is grown only as real
/// output accumulates, so a hostile length cannot force an allocation.
const REBUILD_PREALLOC: usize = 64 * 1024;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------- string map

/// Starts a string-map cell: the varint pair count. A string-map cell is
/// that count followed by `count` pairs, each a length-prefixed key then a
/// length-prefixed value ([`write_string_map_pair`]); a *canonical* cell —
/// the only kind a chunk transposes — has strictly ascending keys and
/// minimal varints throughout, so it is the one encoding of its map.
pub fn write_string_map_count(out: &mut Vec<u8>, count: usize) {
    write_varint(out, count as u64);
}

/// Appends one pair of a string-map cell.
pub fn write_string_map_pair(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    for text in [key, value] {
        write_varint(out, text.len() as u64);
        out.extend_from_slice(text);
    }
}

/// Splits a string-map cell into its declared pair count and the bytes of
/// its pairs. `None` when the count is unreadable or larger than the pairs
/// could hold (each costs two length bytes at least), so a caller may walk
/// `count` pairs without fearing a hostile count.
pub fn string_map_cell(cell: &[u8]) -> Option<(usize, &[u8])> {
    let mut pos = 0;
    let count = read_varint(cell, &mut pos)?;
    let pairs = &cell[pos..];
    (count <= pairs.len() as u64 / 2).then_some((count as usize, pairs))
}

/// Reads one length-prefixed string of a string-map cell at `*pos`,
/// advancing it.
pub fn read_string<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(read_varint(bytes, pos)?).ok()?;
    let text = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(text)
}

// ------------------------------------------------------------------ transpose

/// One key of a group's string-map chunk while it is being transposed.
#[derive(Default)]
struct SubChunk {
    /// Where the key's bytes sit in the cells being transposed.
    key: std::ops::Range<usize>,
    /// Per row so far: `0`, or the value's length plus one and the value.
    values: Vec<u8>,
    /// Rows `values` covers.
    rows: usize,
}

impl SubChunk {
    /// Marks the key absent on every row up to `row`.
    fn pad_to(&mut self, row: usize) {
        self.values.resize(self.values.len() + (row - self.rows), 0);
        self.rows = row;
    }
}

/// Where chunks are transposed: one per file written, its buffers reused
/// group after group, so sealing a group allocates nothing once the first
/// few have sized them.
#[derive(Default)]
pub(crate) struct Transposer {
    out: Vec<u8>,
    /// The first `keys` are the open chunk's; the rest keep their buffers
    /// for a later chunk.
    subs: Vec<SubChunk>,
    keys: usize,
    /// Indexes of the open chunk's sub-chunks, to be sorted by key.
    order: Vec<usize>,
}

impl Transposer {
    /// Transposes `cells` — the `rows` length-prefixed cells of one column
    /// of one group, as the writer buffered them — into `kind`'s layout.
    /// `None` when a cell does not fit the kind: the chunk is then stored
    /// as it stands.
    pub(crate) fn transpose(
        &mut self,
        kind: ColumnKind,
        cells: &[u8],
        rows: usize,
    ) -> Option<&[u8]> {
        self.out.clear();
        match kind {
            ColumnKind::Bytes => return None,
            ColumnKind::I64 => transpose_i64(cells, rows, &mut self.out)?,
            ColumnKind::StringMap => self.transpose_string_map(cells, rows)?,
        }
        Some(&self.out)
    }

    /// The sub-chunk of `key` (a range of `cells`), opened if the chunk has
    /// not met the key yet.
    fn sub_chunk(&mut self, cells: &[u8], key: std::ops::Range<usize>, hint: usize) -> usize {
        let open = &self.subs[..self.keys];
        let is_key = |sub: &SubChunk| cells[sub.key.clone()] == cells[key.clone()];
        if open.get(hint).is_some_and(is_key) {
            return hint;
        }
        if let Some(found) = open.iter().position(is_key) {
            return found;
        }
        if self.keys == self.subs.len() {
            self.subs.push(SubChunk::default());
        }
        let sub = &mut self.subs[self.keys];
        sub.key = key;
        sub.values.clear();
        sub.rows = 0;
        self.keys += 1;
        self.keys - 1
    }

    fn transpose_string_map(&mut self, cells: &[u8], rows: usize) -> Option<()> {
        self.keys = 0;
        let mut pos = 0;
        for row in 0..rows {
            let cell = read_string(cells, &mut pos)?;
            let cell_at = pos - cell.len();
            let (count, pairs) = string_map_cell(cell)?;
            let pairs_at = cell_at + (cell.len() - pairs.len());
            let mut canonical = varint_len(count as u64);
            let mut at = 0;
            let mut last_key: Option<&[u8]> = None;
            // Rows mostly carry the same keys in the same order: look first
            // where the previous pair's neighbour sits.
            let mut next = 0;
            for _ in 0..count {
                let key = read_string(pairs, &mut at)?;
                let key_at = pairs_at + at - key.len();
                let value = read_string(pairs, &mut at)?;
                if last_key.is_some_and(|last| last >= key) {
                    return None;
                }
                last_key = Some(key);
                canonical += varint_len(key.len() as u64)
                    + key.len()
                    + varint_len(value.len() as u64)
                    + value.len();
                let i = self.sub_chunk(cells, key_at..key_at + key.len(), next);
                next = i + 1;
                let sub = &mut self.subs[i];
                sub.pad_to(row);
                write_varint(&mut sub.values, value.len() as u64 + 1);
                sub.values.extend_from_slice(value);
                sub.rows = row + 1;
            }
            // Every varint minimal and nothing after the last pair: the cell
            // is the one encoding of its map, which is what `rebuild` writes.
            if at != pairs.len() || canonical != cell.len() {
                return None;
            }
        }
        if pos != cells.len() {
            return None;
        }
        let subs = &mut self.subs[..self.keys];
        self.order.clear();
        self.order.extend(0..subs.len());
        self.order
            .sort_unstable_by_key(|i| &cells[subs[*i].key.clone()]);
        let out = &mut self.out;
        write_varint(out, cells.len() as u64);
        write_varint(out, subs.len() as u64);
        for &i in &self.order {
            subs[i].pad_to(rows);
            let key = &cells[subs[i].key.clone()];
            write_varint(out, key.len() as u64);
            out.extend_from_slice(key);
            write_varint(out, subs[i].values.len() as u64);
        }
        for &i in &self.order {
            out.extend_from_slice(&subs[i].values);
        }
        Some(())
    }
}

fn transpose_i64(cells: &[u8], rows: usize, out: &mut Vec<u8>) -> Option<()> {
    let value = |cell: &[u8]| i64::from_le_bytes(cell[1..].try_into().expect("9-byte cell"));
    if cells.len() != rows * 9 || cells.chunks_exact(9).any(|cell| cell[0] != 8) {
        return None;
    }
    let min = cells.chunks_exact(9).map(value).min()?;
    write_varint(out, zigzag(min));
    for cell in cells.chunks_exact(9) {
        write_varint(out, value(cell).wrapping_sub(min) as u64);
    }
    Some(())
}

// -------------------------------------------------------------------- rebuild

/// The inverse of [`Transposer::transpose`]: the `rows` length-prefixed
/// cells the decompressed `payload` of a chunk stored as `kind` stands for,
/// byte for byte what the writer buffered (of a `Bytes` chunk, the payload
/// itself). `None` on any structural error; hostile input never panics and
/// never allocates past what it really decodes to.
pub(crate) fn rebuild(kind: ColumnKind, payload: Vec<u8>, rows: usize) -> Option<Vec<u8>> {
    match kind {
        ColumnKind::Bytes => Some(payload),
        ColumnKind::I64 => rebuild_i64(&payload, rows),
        ColumnKind::StringMap => rebuild_string_map(&payload, rows),
    }
}

fn rebuild_i64(payload: &[u8], rows: usize) -> Option<Vec<u8>> {
    let mut pos = 0;
    let min = unzigzag(read_varint(payload, &mut pos)?);
    // Every row costs a byte at least: reject a hostile count before
    // allocating for it.
    if rows > payload.len() - pos {
        return None;
    }
    let mut out = Vec::with_capacity(rows * 9);
    for _ in 0..rows {
        let delta = read_varint(payload, &mut pos)?;
        out.push(8);
        out.extend_from_slice(&min.wrapping_add(delta as i64).to_le_bytes());
    }
    (pos == payload.len()).then_some(out)
}

fn rebuild_string_map(payload: &[u8], rows: usize) -> Option<Vec<u8>> {
    let mut pos = 0;
    let declared = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    let keys = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    // A key costs two bytes of this list at least.
    if declared > MAX_REBUILT || keys > (payload.len() - pos) / 2 {
        return None;
    }
    // Per key: its name, and the unread rest of its sub-chunk.
    let mut subs: Vec<(&[u8], &[u8])> = Vec::with_capacity(keys);
    let mut lengths = Vec::with_capacity(keys);
    for _ in 0..keys {
        let key = read_string(payload, &mut pos)?;
        lengths.push(usize::try_from(read_varint(payload, &mut pos)?).ok()?);
        subs.push((key, &[]));
    }
    for ((_, values), len) in subs.iter_mut().zip(lengths) {
        *values = payload.get(pos..pos.checked_add(len)?)?;
        pos += len;
    }
    if pos != payload.len() {
        return None;
    }
    let mut out = Vec::with_capacity(declared.min(REBUILD_PREALLOC));
    let mut pairs = Vec::new();
    for _ in 0..rows {
        pairs.clear();
        let mut count = 0u64;
        for (key, values) in &mut subs {
            let mut at = 0;
            let marker = read_varint(values, &mut at)?;
            if marker != 0 {
                let len = usize::try_from(marker - 1).ok()?;
                let value = values.get(at..at.checked_add(len)?)?;
                at += len;
                count += 1;
                write_string_map_pair(&mut pairs, key, value);
            }
            *values = &values[at..];
        }
        let cell_len = varint_len(count) + pairs.len();
        if declared - out.len() < varint_len(cell_len as u64) + cell_len {
            return None;
        }
        write_varint(&mut out, cell_len as u64);
        write_varint(&mut out, count);
        out.extend_from_slice(&pairs);
    }
    let spent = subs.iter().all(|(_, values)| values.is_empty());
    (spent && out.len() == declared).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers `cells` the way the writer does.
    fn buffered(cells: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for cell in cells {
            write_varint(&mut out, cell.len() as u64);
            out.extend_from_slice(cell);
        }
        out
    }

    fn map_cell(pairs: &[(&str, &str)]) -> Vec<u8> {
        let mut cell = Vec::new();
        write_string_map_count(&mut cell, pairs.len());
        for (k, v) in pairs {
            write_string_map_pair(&mut cell, k.as_bytes(), v.as_bytes());
        }
        cell
    }

    fn round_trip(kind: ColumnKind, cells: &[&[u8]]) -> Option<usize> {
        let buf = buffered(cells);
        let mut transposer = Transposer::default();
        // Twice: the second chunk meets the buffers the first one left.
        transposer.transpose(kind, &buf, cells.len())?;
        let out = transposer.transpose(kind, &buf, cells.len())?;
        assert_eq!(
            rebuild(kind, out.to_vec(), cells.len()).as_deref(),
            Some(&buf[..])
        );
        Some(out.len())
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "{v}");
        }
        for v in [0, 1, -1, i64::MIN, i64::MAX, 1_344_000_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn integers_store_their_distance_from_the_group_minimum() {
        let values = [1_344_000_123_456i64, 1_344_000_000_000, 1_344_003_599_999];
        let cells: Vec<[u8; 8]> = values.iter().map(|v| v.to_le_bytes()).collect();
        let cells: Vec<&[u8]> = cells.iter().map(|c| &c[..]).collect();
        // Six bytes of minimum, then 3 + 1 + 4.
        assert_eq!(round_trip(ColumnKind::I64, &cells), Some(6 + 8));
        let extremes = [i64::MIN, i64::MAX, 0, -1];
        let cells: Vec<[u8; 8]> = extremes.iter().map(|v| v.to_le_bytes()).collect();
        let cells: Vec<&[u8]> = cells.iter().map(|c| &c[..]).collect();
        assert!(round_trip(ColumnKind::I64, &cells).is_some());
    }

    #[test]
    fn a_cell_that_is_not_eight_bytes_does_not_fit_an_integer_column() {
        let eight = 7i64.to_le_bytes();
        for bad in [&[1u8, 2, 3][..], &[], &[0; 9]] {
            assert_eq!(round_trip(ColumnKind::I64, &[&eight, bad, &eight]), None);
        }
        // Seven bytes and nine: the buffer is as long as two cells of eight.
        assert_eq!(round_trip(ColumnKind::I64, &[&[0; 7], &[0; 9]]), None);
    }

    #[test]
    fn maps_store_each_key_once_and_each_keys_values_together() {
        let rows = [
            map_cell(&[("lang", "en"), ("rank", "3")]),
            map_cell(&[]),
            map_cell(&[("lang", "en"), ("tweet_id", "12345")]),
            map_cell(&[("a", ""), ("lang", "fr")]),
        ];
        let cells: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let buf = buffered(&cells);
        let mut transposer = Transposer::default();
        let out = transposer
            .transpose(ColumnKind::StringMap, &buf, 4)
            .expect("canonical cells");
        assert_eq!(
            rebuild(ColumnKind::StringMap, out.to_vec(), 4).as_deref(),
            Some(&buf[..])
        );
        // Each key string appears once in the transposed chunk.
        let count = |needle: &[u8]| out.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count(b"lang"), 1);
        assert_eq!(count(b"tweet_id"), 1);
        // A group of empty maps is a key list of none.
        assert_eq!(round_trip(ColumnKind::StringMap, &[&[0], &[0]]), Some(2));
    }

    #[test]
    fn a_cell_that_is_not_a_canonical_map_does_not_fit_a_map_column() {
        let good = map_cell(&[("a", "x"), ("b", "y")]);
        let bad: [(&str, Vec<u8>); 7] = [
            ("truncated", vec![5]),
            ("trailing bytes", [good.clone(), vec![0]].concat()),
            ("unsorted", map_cell(&[("b", "y"), ("a", "x")])),
            ("duplicate key", map_cell(&[("a", "x"), ("a", "y")])),
            ("overlong count", vec![0x80, 0x00]),
            ("overlong length", vec![1, 0x81, 0x00, b'a', 1, b'x']),
            ("empty cell", vec![]),
        ];
        for (what, cell) in &bad {
            assert_eq!(
                round_trip(ColumnKind::StringMap, &[&good, cell, &good]),
                None,
                "{what}"
            );
        }
        assert!(round_trip(ColumnKind::StringMap, &[&good, &good]).is_some());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_map() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::btree_map("[a-e]{0,3}", "[a-z0-9]{0,12}", 0..6).prop_map(|map| {
                let pairs: Vec<(&str, &str)> =
                    map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                map_cell(&pairs)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn any_integers_round_trip(values in proptest::collection::vec(any::<i64>(), 1..80)) {
                let cells: Vec<[u8; 8]> = values.iter().map(|v| v.to_le_bytes()).collect();
                let cells: Vec<&[u8]> = cells.iter().map(|c| &c[..]).collect();
                prop_assert!(round_trip(ColumnKind::I64, &cells).is_some());
            }

            #[test]
            fn any_canonical_maps_round_trip(
                rows in proptest::collection::vec(arbitrary_map(), 1..40),
            ) {
                let cells: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
                prop_assert!(round_trip(ColumnKind::StringMap, &cells).is_some());
            }

            /// Whatever a cell holds, a chunk either round-trips or says it
            /// does not fit; it never rebuilds to other bytes.
            #[test]
            fn arbitrary_cells_fit_or_fall_back(
                cells in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..12), 1..12),
                typed in any::<bool>(),
            ) {
                let kind = if typed { ColumnKind::I64 } else { ColumnKind::StringMap };
                let cells: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                round_trip(kind, &cells);
            }

            /// Arbitrary bytes in place of a transposed payload, under any
            /// row count, are an error or a well-formed chunk, never a
            /// panic or an over-allocation.
            #[test]
            fn garbage_payloads_never_panic(
                payload in proptest::collection::vec(any::<u8>(), 0..120),
                rows in prop_oneof![0usize..40, Just(usize::MAX), Just(1usize << 40)],
                typed in any::<bool>(),
            ) {
                let kind = if typed { ColumnKind::I64 } else { ColumnKind::StringMap };
                if let Some(cells) = rebuild(kind, payload, rows) {
                    let mut pos = 0;
                    for _ in 0..rows {
                        prop_assert!(read_string(&cells, &mut pos).is_some());
                    }
                    prop_assert_eq!(pos, cells.len());
                }
            }
        }
    }
}
