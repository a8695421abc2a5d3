//! Typed column chunks: what a column's declared kind, and the values its
//! cells hold, let a sealed row group do to them before the block
//! compressor sees them.
//!
//! The columnar writer buffers every column of a group the same way — each
//! cell behind a varint length — and that buffer is also what a reader gets
//! back. In between, a chunk is *transposed*:
//!
//! * [`ColumnKind::I64`] — every cell is eight little-endian bytes. Stored
//!   as the group's minimum (zigzag varint) followed by one varint per row,
//!   the value's distance from it: a timestamp column spends three bytes a
//!   row where it spent nine.
//! * [`ColumnKind::StringMap`] — every cell is a [string-map
//!   cell](string_map_cell). Stored as the sorted list of the keys the
//!   group uses, each with one *value run* over the group's rows. The key
//!   strings, repeated on every row of the cell layout, are stored once,
//!   and each key's values sit together.
//! * [`ColumnKind::Bytes`] — the cells are one value run, when a shape fits
//!   them ([`StoredAs::ValueRun`]).
//!
//! A **value run** stores `rows` optional byte strings as what they are
//! rather than how they were printed. It opens with a shape byte — the
//! [`ValueShape`], plus `0x10` when some row lacks the value — and then,
//! unless the shape is `Raw`: the *prefix* every present value starts with
//! (varint length, bytes; stored once), a presence bitmap of `⌈rows / 8⌉`
//! bytes (sparse runs only), and the *tails* of the present values, what is
//! left of each behind the prefix:
//!
//! * `Hex` — every tail is the same even number of lower-case hex digits,
//!   a letter somewhere among them (digits alone are a number). That
//!   number as a varint, then the digits two to a byte.
//! * `Quad` — every tail is a dotted quad as it prints (four octets, none
//!   with a leading zero). Four bytes each.
//! * `Decimal` — every tail is the one way a `u64` prints (no sign, no
//!   leading zero but `"0"` itself). The run's minimum as a varint, a byte
//!   `w` in 1..=8, then each value's distance from the minimum in `w`
//!   little-endian bytes, `w` the fewest that hold the largest.
//! * `Raw` — per row, `0` where the row lacks the value, else the value's
//!   length plus one and the value: the bytes as they were given.
//!
//! The prefix is the longest the present values share, cut back past any
//! trailing character of the shape's own alphabet, so that `1000` and `1001`
//! are two numbers rather than `100` and two digits. The shapes are tried
//! in the order above and the first whose grammar every tail matches is
//! taken;
//! each grammar admits exactly the strings its decoder prints, so
//! [`rebuild`] returns the bytes that were buffered. A run no shape fits is
//! `Raw`.
//!
//! Whether a chunk is transposed, and into which shapes, is decided by its
//! data, never by an option: a group holding any cell that does not fit the
//! kind — not eight bytes, pairs that do not parse, keys not strictly
//! ascending, a length that is not a minimal varint — stores that chunk as
//! plain cells ([`StoredAs::Cells`]), as does a `Bytes` chunk no shape
//! fits, so the file never refuses a row.

use crate::varint::{read_varint, varint_len, write_varint};

/// The declared type of a column's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Opaque bytes; the only kind a dictionary-coded column can have.
    Bytes,
    /// Eight little-endian bytes: a signed 64-bit integer.
    I64,
    /// A [string-map cell](string_map_cell).
    StringMap,
}

/// How a stored chunk is laid out — the tag of its entry in the group
/// header. Chosen by the writer at seal from the column's kind and the
/// group's cells; nobody declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredAs {
    /// The cells as buffered: a `Bytes` column no shape fits, the
    /// dictionary-coded column, a typed column holding a misfit cell.
    Cells,
    /// An [`ColumnKind::I64`] column, transposed.
    I64,
    /// A [`ColumnKind::StringMap`] column, transposed.
    StringMap,
    /// A [`ColumnKind::Bytes`] column as one value run.
    ValueRun,
}

impl StoredAs {
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_tag(tag: u8) -> Option<StoredAs> {
        use StoredAs::*;
        [Cells, I64, StringMap, ValueRun]
            .into_iter()
            .find(|stored| stored.tag() == tag)
    }
}

/// What the values of a value run are, and so how their tails are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueShape {
    /// Nothing in particular: the bytes as given.
    Raw,
    /// Lower-case hex digits, the same even number in every value.
    Hex,
    /// A dotted quad as it prints.
    Quad,
    /// A `u64` as it prints.
    Decimal,
}

impl ValueShape {
    /// The shapes a run is tried in, in order.
    const FITTED: [ValueShape; 3] = [ValueShape::Hex, ValueShape::Quad, ValueShape::Decimal];

    fn from_tag(tag: u8) -> Option<ValueShape> {
        use ValueShape::*;
        [Raw, Hex, Quad, Decimal]
            .into_iter()
            .find(|shape| *shape as u8 == tag)
    }

    /// Whether `byte` can occur in a tail of this shape.
    fn admits(self, byte: u8) -> bool {
        match self {
            ValueShape::Raw => false,
            ValueShape::Decimal => byte.is_ascii_digit(),
            ValueShape::Hex => NIBBLE[byte as usize] < 16,
            ValueShape::Quad => byte.is_ascii_digit() || byte == b'.',
        }
    }
}

/// Set in a run's shape byte when a presence bitmap follows the prefix.
const SPARSE: u8 = 0x10;

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

// ----------------------------------------------------------------- value runs

/// The value of a hex digit, lower case only; 0xff for any other byte.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The two hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [b"0123456789abcdef"[i >> 4], b"0123456789abcdef"[i & 15]];
        i += 1;
    }
    table
};

/// Where one row's value sits in the cells being transposed.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    /// `u32::MAX` ([`Span::ABSENT`]): the row has no value.
    len: u32,
}

impl Span {
    const ABSENT: Span = Span {
        start: 0,
        len: u32::MAX,
    };

    /// The `len` bytes that end at `end`.
    fn ending(end: usize, len: usize) -> Span {
        Span {
            start: (end - len) as u32,
            len: len as u32,
        }
    }

    fn is_present(self) -> bool {
        self.len != Span::ABSENT.len
    }

    fn value(self, cells: &[u8]) -> Option<&[u8]> {
        self.is_present()
            .then(|| &cells[self.start as usize..][..self.len as usize])
    }
}

/// The `u64` that `tail` is the canonical print of.
fn parse_decimal(tail: &[u8]) -> Option<u64> {
    let canonical = match tail {
        [] => false,
        [b'0', rest @ ..] => rest.is_empty(),
        _ => tail.len() <= 20,
    };
    if !canonical {
        return None;
    }
    tail.iter().try_fold(0u64, |n, digit| {
        let digit = digit.is_ascii_digit().then(|| u64::from(digit - b'0'))?;
        n.checked_mul(10)?.checked_add(digit)
    })
}

/// Appends `n` as it prints.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The four octets that `tail` is the canonical print of.
fn parse_quad(tail: &[u8]) -> Option<[u8; 4]> {
    let mut octets = [0u8; 4];
    let mut parts = tail.split(|b| *b == b'.');
    for octet in &mut octets {
        *octet = u8::try_from(parse_decimal(parts.next()?)?).ok()?;
    }
    parts.next().is_none().then_some(octets)
}

/// Appends the tails of `values`, what each holds behind its first `prefix`
/// bytes, in `shape`'s layout. `None` when one of them is not of the shape;
/// `out` is then left holding part of a run.
fn push_tails<'a>(
    out: &mut Vec<u8>,
    shape: ValueShape,
    prefix: usize,
    mut values: impl Iterator<Item = &'a [u8]>,
    numbers: &mut Vec<u64>,
) -> Option<()> {
    match shape {
        ValueShape::Raw => return None,
        ValueShape::Decimal => {
            numbers.clear();
            for value in values {
                numbers.push(parse_decimal(&value[prefix..])?);
            }
            let min = *numbers.iter().min()?;
            let widest = *numbers.iter().max()? - min;
            let width = (8 - widest.leading_zeros() as usize / 8).max(1);
            write_varint(out, min);
            out.push(width as u8);
            for n in &*numbers {
                out.extend_from_slice(&(n - min).to_le_bytes()[..width]);
            }
        }
        ValueShape::Hex => {
            let first = values.next()?;
            let digits = first.len() - prefix;
            if digits == 0 || digits % 2 == 1 {
                return None;
            }
            write_varint(out, digits as u64);
            let mut letters = false;
            for value in std::iter::once(first).chain(values) {
                if value.len() != first.len() {
                    return None;
                }
                for pair in value[prefix..].chunks_exact(2) {
                    let (high, low) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
                    if high | low > 15 {
                        return None;
                    }
                    letters |= high.max(low) > 9;
                    out.push(high << 4 | low);
                }
            }
            // Digits alone are a number.
            if !letters {
                return None;
            }
        }
        ValueShape::Quad => {
            for value in values {
                out.extend_from_slice(&parse_quad(&value[prefix..])?);
            }
        }
    }
    Some(())
}

/// Appends `spans` — one per row, into `cells` — to `out` as a value run in
/// the first shape that fits, and says which; `None`, and nothing appended,
/// when none does.
fn push_fitted_run(
    out: &mut Vec<u8>,
    cells: &[u8],
    spans: &[Span],
    numbers: &mut Vec<u64>,
) -> Option<ValueShape> {
    let start = out.len();
    let present = || spans.iter().filter_map(|span| span.value(cells));
    let first = present().next()?;
    let sparse = spans.iter().any(|span| !span.is_present());
    // How much of the first value every other starts with.
    let shared = present().fold(first.len(), |shared, value| {
        let same = first[..shared].iter().zip(value);
        same.take_while(|(a, b)| a == b).count()
    });
    for shape in ValueShape::FITTED {
        let own = first[..shared].iter().rev();
        let prefix = shared - own.take_while(|b| shape.admits(**b)).count();
        out.push(shape as u8 | if sparse { SPARSE } else { 0 });
        write_varint(out, prefix as u64);
        out.extend_from_slice(&first[..prefix]);
        if sparse {
            out.extend(spans.chunks(8).map(|rows| {
                let bits = rows.iter().rev();
                bits.fold(0, |bits, span| bits << 1 | u8::from(span.is_present()))
            }));
        }
        if push_tails(out, shape, prefix, present(), numbers).is_some() {
            return Some(shape);
        }
        out.truncate(start);
    }
    None
}

/// Appends `spans` to `out` as a value run: fitted, or `Raw`.
fn push_run(out: &mut Vec<u8>, cells: &[u8], spans: &[Span], numbers: &mut Vec<u64>) -> ValueShape {
    if let Some(shape) = push_fitted_run(out, cells, spans, numbers) {
        return shape;
    }
    out.push(ValueShape::Raw as u8);
    for span in spans {
        match span.value(cells) {
            Some(value) => {
                write_varint(out, value.len() as u64 + 1);
                out.extend_from_slice(value);
            }
            None => out.push(0),
        }
    }
    ValueShape::Raw
}

/// A value run being read: one [`next`](Run::next) per row.
struct Run<'a> {
    shape: ValueShape,
    /// The bytes of one tail: of a distance from `min`, of a value's hex
    /// digits two to a byte, of a quad.
    width: usize,
    /// What a `Decimal` run's distances are from.
    min: u64,
    /// The presence bitmap of a sparse run.
    presence: Option<&'a [u8]>,
    /// The tails (of a `Raw` run: the rows) not read yet.
    unread: &'a [u8],
    row: usize,
    /// The prefix, then the tail of the last value handed out, as printed.
    value: Vec<u8>,
    prefix: usize,
}

impl<'a> Run<'a> {
    /// Opens `bytes` as a run of `rows` rows. `None` unless the run is laid
    /// out whole: every length a fitted run declares, `rows` among them, is
    /// checked against the bytes there are before anything is allocated.
    fn parse(bytes: &'a [u8], rows: usize) -> Option<Run<'a>> {
        let (&tag, mut unread) = bytes.split_first()?;
        let shape = ValueShape::from_tag(tag & !SPARSE)?;
        let mut run = Run {
            shape,
            width: 0,
            min: 0,
            presence: None,
            unread,
            row: 0,
            value: Vec::new(),
            prefix: 0,
        };
        if shape == ValueShape::Raw {
            // A raw run marks a missing value row by row.
            return (tag & SPARSE == 0).then_some(run);
        }
        let mut pos = 0;
        run.value = read_string(unread, &mut pos)?.to_vec();
        run.prefix = run.value.len();
        unread = &unread[pos..];
        let mut present = rows;
        if tag & SPARSE != 0 {
            let bitmap = unread.get(..rows.div_ceil(8))?;
            unread = &unread[bitmap.len()..];
            // No bit beyond the last row.
            if !rows.is_multiple_of(8) && bitmap.last()? >> (rows % 8) != 0 {
                return None;
            }
            present = bitmap.iter().map(|bits| bits.count_ones() as usize).sum();
            run.presence = Some(bitmap);
        }
        let mut pos = 0;
        run.width = match shape {
            ValueShape::Raw => return None,
            ValueShape::Quad => 4,
            ValueShape::Hex => {
                let digits = usize::try_from(read_varint(unread, &mut pos)?).ok()?;
                (digits % 2 == 0 && digits > 0).then_some(digits / 2)?
            }
            ValueShape::Decimal => {
                run.min = read_varint(unread, &mut pos)?;
                let width = usize::from(*unread.get(pos)?);
                pos += 1;
                (1..=8).contains(&width).then_some(width)?
            }
        };
        run.unread = &unread[pos..];
        (present.checked_mul(run.width)? == run.unread.len()).then_some(run)
    }

    /// The next `len` unread bytes.
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let (taken, unread) = self.unread.split_at_checked(len)?;
        self.unread = unread;
        Some(taken)
    }

    /// The next row's value, `Some(None)` where the row has none. `None`
    /// when the run is damaged or has no such row.
    fn next(&mut self) -> Option<Option<&[u8]>> {
        let row = self.row;
        self.row += 1;
        if let Some(bitmap) = self.presence {
            if bitmap.get(row / 8)? >> (row % 8) & 1 == 0 {
                return Some(None);
            }
        }
        if self.shape == ValueShape::Raw {
            let mut pos = 0;
            let marker = read_varint(self.unread, &mut pos)?;
            self.unread = &self.unread[pos..];
            let Some(len) = marker.checked_sub(1) else {
                return Some(None);
            };
            return Some(Some(self.take(usize::try_from(len).ok()?)?));
        }
        let tail = self.take(self.width)?;
        self.value.truncate(self.prefix);
        match self.shape {
            ValueShape::Raw => return None,
            ValueShape::Hex => {
                self.value.resize(self.prefix + 2 * tail.len(), 0);
                let digits = self.value[self.prefix..].chunks_exact_mut(2);
                for (pair, byte) in digits.zip(tail) {
                    pair.copy_from_slice(&HEX_PAIRS[*byte as usize]);
                }
            }
            ValueShape::Quad => {
                for (i, octet) in tail.iter().enumerate() {
                    if i > 0 {
                        self.value.push(b'.');
                    }
                    push_decimal(&mut self.value, u64::from(*octet));
                }
            }
            ValueShape::Decimal => {
                let mut distance = [0; 8];
                distance[..tail.len()].copy_from_slice(tail);
                let n = self.min.checked_add(u64::from_le_bytes(distance))?;
                push_decimal(&mut self.value, n);
            }
        }
        Some(Some(&self.value))
    }
}

// ------------------------------------------------------------------ transpose

/// One key of a group's string-map chunk while it is being transposed.
#[derive(Default)]
struct SubChunk {
    /// Where the key's bytes sit in the cells being transposed.
    key: std::ops::Range<usize>,
    /// Per row so far, where the key's value sits.
    spans: Vec<Span>,
    /// The bytes of the key's run, once it is written.
    run_len: usize,
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
    /// The open chunk's runs, back to back in key order.
    runs: Vec<u8>,
    /// The rows of a `Bytes` chunk.
    spans: Vec<Span>,
    /// The values of a run being tried as numbers.
    numbers: Vec<u64>,
}

impl Transposer {
    /// Transposes `cells` — the `rows` length-prefixed cells of one column
    /// of one group, as the writer buffered them — into a layout of
    /// `kind`'s. `None` when a cell does not fit the kind, or no shape the
    /// values of a `Bytes` column: the chunk is then stored as it stands.
    pub(crate) fn transpose(
        &mut self,
        kind: ColumnKind,
        cells: &[u8],
        rows: usize,
    ) -> Option<(StoredAs, &[u8])> {
        self.out.clear();
        // A span is two 32-bit numbers.
        if cells.len() >= u32::MAX as usize {
            return None;
        }
        let stored = match kind {
            ColumnKind::Bytes => {
                self.transpose_values(cells, rows)?;
                StoredAs::ValueRun
            }
            ColumnKind::I64 => {
                transpose_i64(cells, rows, &mut self.out)?;
                StoredAs::I64
            }
            ColumnKind::StringMap => {
                self.transpose_string_map(cells, rows)?;
                StoredAs::StringMap
            }
        };
        Some((stored, &self.out))
    }

    fn transpose_values(&mut self, cells: &[u8], rows: usize) -> Option<()> {
        self.spans.clear();
        let mut pos = 0;
        for _ in 0..rows {
            let value = read_string(cells, &mut pos)?;
            self.spans.push(Span::ending(pos, value.len()));
        }
        if pos != cells.len() {
            return None;
        }
        write_varint(&mut self.out, cells.len() as u64);
        push_fitted_run(&mut self.out, cells, &self.spans, &mut self.numbers)?;
        Some(())
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
        sub.spans.clear();
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
                let spans = &mut self.subs[i].spans;
                spans.resize(row, Span::ABSENT);
                spans.push(Span::ending(pairs_at + at, value.len()));
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
        self.runs.clear();
        for &i in &self.order {
            let sub = &mut subs[i];
            sub.spans.resize(rows, Span::ABSENT);
            let start = self.runs.len();
            push_run(&mut self.runs, cells, &sub.spans, &mut self.numbers);
            sub.run_len = self.runs.len() - start;
        }
        let out = &mut self.out;
        write_varint(out, cells.len() as u64);
        write_varint(out, subs.len() as u64);
        for &i in &self.order {
            let key = &cells[subs[i].key.clone()];
            write_varint(out, key.len() as u64);
            out.extend_from_slice(key);
            write_varint(out, subs[i].run_len as u64);
        }
        out.extend_from_slice(&self.runs);
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
/// cells the decompressed `payload` of a chunk stored as `stored` stands
/// for, byte for byte what the writer buffered (of a chunk stored as cells,
/// the payload itself). `None` on any structural error; hostile input never
/// panics and never allocates past what it really decodes to.
pub(crate) fn rebuild(stored: StoredAs, payload: Vec<u8>, rows: usize) -> Option<Vec<u8>> {
    match stored {
        StoredAs::Cells => Some(payload),
        StoredAs::I64 => rebuild_i64(&payload, rows),
        StoredAs::StringMap => rebuild_string_map(&payload, rows),
        StoredAs::ValueRun => rebuild_values(&payload, rows),
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

/// The length a transposed payload says it rebuilds to, and the rest of it.
fn declared_len(payload: &[u8]) -> Option<(usize, &[u8])> {
    let mut pos = 0;
    let declared = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    (declared <= MAX_REBUILT).then_some((declared, &payload[pos..]))
}

fn rebuild_values(payload: &[u8], rows: usize) -> Option<Vec<u8>> {
    let (declared, run) = declared_len(payload)?;
    let mut run = Run::parse(run, rows)?;
    // A column's run has every row, in a shape: one that no shape fits is
    // stored as cells.
    if run.presence.is_some() || run.shape == ValueShape::Raw {
        return None;
    }
    let mut out = Vec::with_capacity(declared.min(REBUILD_PREALLOC));
    for _ in 0..rows {
        let value = run.next()??;
        if declared - out.len() < varint_len(value.len() as u64) + value.len() {
            return None;
        }
        write_varint(&mut out, value.len() as u64);
        out.extend_from_slice(value);
    }
    (out.len() == declared).then_some(out)
}

/// The keys of a transposed string-map payload, each with the bytes of its
/// run.
type KeyedRuns<'a> = Vec<(&'a [u8], &'a [u8])>;

/// The key list of a transposed string-map payload: the length it rebuilds
/// to, and each key with the bytes of its run.
fn string_map_runs(payload: &[u8]) -> Option<(usize, KeyedRuns<'_>)> {
    let (declared, list) = declared_len(payload)?;
    let mut pos = 0;
    let keys = usize::try_from(read_varint(list, &mut pos)?).ok()?;
    // A key costs two bytes of this list at least.
    if keys > (list.len() - pos) / 2 {
        return None;
    }
    let mut runs: KeyedRuns = Vec::with_capacity(keys);
    let mut lengths = Vec::with_capacity(keys);
    for _ in 0..keys {
        runs.push((read_string(list, &mut pos)?, &[]));
        lengths.push(usize::try_from(read_varint(list, &mut pos)?).ok()?);
    }
    for ((_, run), len) in runs.iter_mut().zip(lengths) {
        *run = list.get(pos..pos.checked_add(len)?)?;
        pos += len;
    }
    (pos == list.len()).then_some((declared, runs))
}

fn rebuild_string_map(payload: &[u8], rows: usize) -> Option<Vec<u8>> {
    let (declared, runs) = string_map_runs(payload)?;
    let mut subs = Vec::with_capacity(runs.len());
    for (key, run) in runs {
        subs.push((key, Run::parse(run, rows)?));
    }
    let mut out = Vec::with_capacity(declared.min(REBUILD_PREALLOC));
    let mut pairs = Vec::new();
    for _ in 0..rows {
        pairs.clear();
        let mut count = 0u64;
        for (key, run) in &mut subs {
            if let Some(value) = run.next()? {
                count += 1;
                write_string_map_pair(&mut pairs, key, value);
            }
        }
        let cell_len = varint_len(count) + pairs.len();
        if declared - out.len() < varint_len(cell_len as u64) + cell_len {
            return None;
        }
        write_varint(&mut out, cell_len as u64);
        write_varint(&mut out, count);
        out.extend_from_slice(&pairs);
    }
    let spent = subs.iter().all(|(_, run)| run.unread.is_empty());
    (spent && out.len() == declared).then_some(out)
}

/// One value run of a stored chunk, for whoever asks where a file's bytes
/// went and in what shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRun {
    /// The string-map key whose values these are; empty for a column's run.
    pub key: Vec<u8>,
    /// The shape the run's values took.
    pub shape: ValueShape,
    /// The run as laid out, before the block compressor.
    pub bytes: Vec<u8>,
}

/// The value runs in the decompressed `payload` of a `rows`-row chunk stored
/// as `stored`: one per key of a string map, one for a column stored as a
/// run or — `Raw`, the cells themselves — as cells, none for integers.
pub(crate) fn stored_runs(stored: StoredAs, payload: &[u8], rows: usize) -> Option<Vec<StoredRun>> {
    let run = |key: &[u8], shape, bytes: &[u8]| StoredRun {
        key: key.to_vec(),
        shape,
        bytes: bytes.to_vec(),
    };
    Some(match stored {
        StoredAs::I64 => Vec::new(),
        StoredAs::Cells => vec![run(&[], ValueShape::Raw, payload)],
        StoredAs::ValueRun => {
            let (_, bytes) = declared_len(payload)?;
            vec![run(&[], Run::parse(bytes, rows)?.shape, bytes)]
        }
        StoredAs::StringMap => {
            let mut runs = Vec::new();
            for (key, bytes) in string_map_runs(payload)?.1 {
                runs.push(run(key, Run::parse(bytes, rows)?.shape, bytes));
            }
            runs
        }
    })
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
        let (stored, out) = transposer.transpose(kind, &buf, cells.len())?;
        assert_eq!(
            rebuild(stored, out.to_vec(), cells.len()).as_deref(),
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
        let (_, out) = transposer
            .transpose(ColumnKind::StringMap, &buf, 4)
            .expect("canonical cells");
        assert_eq!(
            rebuild(StoredAs::StringMap, out.to_vec(), 4).as_deref(),
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

    /// The run [`push_run`] makes of `values`, which must read back as them.
    fn run_of(values: &[Option<&[u8]>]) -> (ValueShape, Vec<u8>) {
        let mut cells = Vec::new();
        let mut spans = Vec::new();
        for value in values {
            spans.push(match value {
                Some(value) => {
                    cells.extend_from_slice(value);
                    Span::ending(cells.len(), value.len())
                }
                None => Span::ABSENT,
            });
        }
        let mut out = Vec::new();
        let shape = push_run(&mut out, &cells, &spans, &mut Vec::new());
        let mut run = Run::parse(&out, values.len()).expect("a written run");
        assert_eq!(run.shape, shape);
        for value in values {
            assert_eq!(run.next(), Some(*value));
        }
        assert!(run.unread.is_empty());
        (shape, out)
    }

    fn present<'a>(values: &[&'a str]) -> Vec<Option<&'a [u8]>> {
        values.iter().map(|value| Some(value.as_bytes())).collect()
    }

    #[test]
    fn values_are_stored_as_what_they_are() {
        use ValueShape::*;
        type Values<'a> = [Option<&'a [u8]>];
        let cases: [(&Values, ValueShape, &[u8]); 10] = [
            // Numbers: no prefix, the minimum, two bytes of distance each.
            (
                &present(&["40", "2499", "41"]),
                Decimal,
                &[3, 0, 40, 2, 0, 0, 0x9b, 0x09, 1, 0],
            ),
            // Digits in common are part of the numbers, not a prefix.
            (
                &present(&["1000", "1001"]),
                Decimal,
                &[3, 0, 0xe8, 0x07, 1, 0, 1],
            ),
            (
                &present(&["0", "1", "18446744073709551615"]),
                Decimal,
                &[
                    &[3, 0, 0, 8][..],
                    &[0; 8],
                    &[1, 0, 0, 0, 0, 0, 0, 0],
                    &[0xff; 8],
                ]
                .concat(),
            ),
            // One value on every row: what changes is the last number in it.
            (
                &present(&["4.1.2", "4.1.2"]),
                Decimal,
                b"\x03\x044.1.\x02\x01\x00\x00",
            ),
            (
                &present(&["00ff", "a1b2"]),
                Hex,
                &[1, 0, 4, 0x00, 0xff, 0xa1, 0xb2],
            ),
            // A prefix once, a bit a row, and the rows that have the value.
            (
                &[Some(b"https://t.co/00ab"), None, Some(b"https://t.co/00cd")],
                Hex,
                b"\x11\x0dhttps://t.co/\x05\x04\x00\xab\x00\xcd",
            ),
            (
                &present(&["1.2.3.4", "10.0.0.255"]),
                Quad,
                &[2, 0, 1, 2, 3, 4, 10, 0, 0, 255],
            ),
            (
                &[Some(b"en"), None, Some(b"fr")],
                Raw,
                b"\x00\x03en\x00\x03fr",
            ),
            (&[None, None], Raw, &[0, 0, 0]),
            (&[], Raw, &[0]),
        ];
        for (values, shape, bytes) in cases {
            assert_eq!(run_of(values), (shape, bytes.to_vec()), "{values:?}");
        }
    }

    #[test]
    fn a_value_that_is_not_how_its_shape_prints_keeps_its_run_raw() {
        let near_misses: [&[&str]; 17] = [
            &["DEADBEEF", "CAFEBABE"],
            &["deadBEEF", "cafebabe"],
            &["abc", "def"],
            &["abcd", "abcdef"],
            &["+1", "2"],
            &["-1", "2"],
            &["007", "8"],
            &["", "5"],
            &["12 ", "13 "],
            &["100000000000000000000", "1"],
            &["18446744073709551616", "1"],
            &["1.2.3.04", "1.2.3.4"],
            &["256.1.1.1", "1.2.3.4"],
            &["1.2.3", "1.2.3.4"],
            &["1.2.3.4.5", "1.2.3.4"],
            &["1..3.4", "1.2.3.4"],
            &["en", "en"],
        ];
        for values in near_misses {
            assert_eq!(run_of(&present(values)).0, ValueShape::Raw, "{values:?}");
            // On one row of a group, whatever it then is, it reads back.
            run_of(&[None, Some(values[0].as_bytes()), None]);
        }
    }

    /// Tails of each shape — hex of every even width up to 64, numbers that
    /// need every width of distance, quads — behind three prefixes, on every
    /// row, every other row and one row: each run takes the shape its values
    /// were drawn from and is as long as that shape's layout says.
    #[test]
    fn values_drawn_from_a_shape_take_it_behind_any_prefix_at_any_presence() {
        let mut rng = proptest::test_runner::TestRng::deterministic("value runs");
        let mut drawn: Vec<(ValueShape, Vec<String>)> = Vec::new();
        for digits in (2..=64).step_by(2) {
            // A letter first, or a narrow one would pass for a number.
            let tail = |rng: &mut proptest::test_runner::TestRng| {
                let digit = |i| b"abcdef0123456789"[rng.below(if i == 0 { 6 } else { 16 })];
                String::from_utf8((0..digits).map(digit).collect()).expect("ascii")
            };
            drawn.push((ValueShape::Hex, (0..9).map(|_| tail(&mut rng)).collect()));
        }
        for width in 1..=8u32 {
            let widest = u64::MAX >> (64 - 8 * width);
            let min = rng.next_u64() % (u64::MAX - widest).max(1);
            let mut numbers = vec![min, min + widest, min + (widest >> 8) + 1];
            numbers.extend((0..6).map(|_| min + rng.next_u64() % widest));
            let tails = numbers.iter().map(u64::to_string).collect();
            drawn.push((ValueShape::Decimal, tails));
        }
        let edges = [0, 1, u64::MAX, u64::MAX - 1, 0, 9, 10, 1 << 32, 255];
        let tails = edges.iter().map(u64::to_string).collect();
        drawn.push((ValueShape::Decimal, tails));
        let mut quads = vec!["0.0.0.0".to_string(), "255.255.255.255".to_string()];
        quads.extend((0..7).map(|_| {
            let [a, b, c, d, ..] = rng.next_u64().to_le_bytes();
            format!("{a}.{b}.{c}.{d}")
        }));
        drawn.push((ValueShape::Quad, quads));

        for (shape, tails) in &drawn {
            for prefix in ["", "id=", "https://t.co/"] {
                let values: Vec<String> = tails.iter().map(|t| format!("{prefix}{t}")).collect();
                for keeps in [|_| true, |row| row % 2 == 0, |row| row == 3] {
                    let rows: Vec<Option<&[u8]>> = (0..values.len())
                        .map(|row| keeps(row).then(|| values[row].as_bytes()))
                        .collect();
                    let kept: Vec<&str> = (0..values.len())
                        .filter(|row| keeps(*row))
                        .map(|row| tails[row].as_str())
                        .collect();
                    let (took, run) = run_of(&rows);
                    assert_eq!(took, *shape, "{prefix:?} {kept:?}");
                    let bitmap = if kept.len() < rows.len() { 2 } else { 0 };
                    let layout = match shape {
                        ValueShape::Hex => 1 + kept.len() * kept[0].len() / 2,
                        ValueShape::Quad => kept.len() * 4,
                        _ => {
                            let numbers = kept.iter().map(|t| t.parse::<u64>().expect("drawn"));
                            let min = numbers.clone().min().expect("a row kept");
                            let widest = numbers.max().expect("a row kept") - min;
                            let width = (1..8).find(|w| widest >> (8 * w) == 0).unwrap_or(8);
                            varint_len(min) + 1 + kept.len() * width
                        }
                    };
                    assert_eq!(
                        run.len(),
                        2 + prefix.len() + bitmap + layout,
                        "{took:?} {prefix:?} {kept:?}"
                    );
                }
            }
        }
    }

    /// `bytes` as the run of a `rows`-row column, and as the one run of a
    /// string-map chunk of as many rows: what each rebuilds to.
    fn rebuild_run(bytes: &[u8], rows: usize) -> [Option<Vec<u8>>; 2] {
        let column = [&[40][..], bytes].concat();
        let map = [&[40, 1, 1, b'k', bytes.len() as u8][..], bytes].concat();
        [
            rebuild(StoredAs::ValueRun, column, rows),
            rebuild(StoredAs::StringMap, map, rows),
        ]
    }

    #[test]
    fn a_forged_run_is_rejected_before_anything_is_allocated_for_it() {
        const DECIMAL: u8 = ValueShape::Decimal as u8;
        const HEX: u8 = ValueShape::Hex as u8;
        const QUAD: u8 = ValueShape::Quad as u8;
        let forged: [(&str, &[u8], usize); 16] = [
            ("no shape byte", &[], 0),
            ("a shape nobody wrote", &[4, 0], 0),
            ("a raw run with a bitmap", &[SPARSE, 1], 1),
            ("hex digits: none", &[HEX, 0, 0], 0),
            ("hex digits: an odd number", &[HEX, 0, 3, 0xab, 0xcd], 1),
            (
                "hex digits: more than there are bytes",
                &[HEX, 0, 64, 0xab],
                1,
            ),
            (
                "hex digits: more than a usize",
                &[
                    HEX, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
                ],
                1,
            ),
            (
                "a prefix longer than the run",
                &[HEX, 200, b'x', 2, 0xab],
                1,
            ),
            (
                "a bitmap shorter than the rows",
                &[HEX | SPARSE, 0, 0xff, 2],
                100,
            ),
            (
                "a bit beyond the last row",
                &[QUAD | SPARSE, 0, 0b1000_0001, 1, 2, 3, 4, 5, 6, 7, 8],
                3,
            ),
            ("a distance of no bytes", &[DECIMAL, 0, 7, 0], 1),
            (
                "a distance of nine bytes",
                &[DECIMAL, 0, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                1,
            ),
            ("fewer tails than rows", &[QUAD, 0, 1, 2, 3, 4], 2),
            (
                "more tails than rows",
                &[QUAD, 0, 1, 2, 3, 4, 5, 6, 7, 8],
                1,
            ),
            (
                "more rows than could be",
                &[QUAD, 0, 1, 2, 3, 4],
                usize::MAX,
            ),
            (
                "more rows than could be, sparsely",
                &[QUAD | SPARSE, 0, 1, 1, 2, 3, 4],
                usize::MAX,
            ),
        ];
        for (what, bytes, rows) in forged {
            assert!(Run::parse(bytes, rows).is_none(), "{what}");
            assert_eq!(rebuild_run(bytes, rows), [None, None], "{what}");
        }
        // A number past u64::MAX is found out when its row is read.
        let past = [&[DECIMAL, 0][..], &[0xff; 9], &[0x01, 1, 1]].concat();
        assert!(Run::parse(&past, 1).is_some_and(|mut run| run.next().is_none()));
        assert_eq!(rebuild_run(&past, 1), [None, None]);
        // The forger can be honest; a column's run cannot be sparse or raw,
        // nor rebuild to another length than its chunk declares.
        let column = |declared: u8, run: &[u8], rows| {
            rebuild(StoredAs::ValueRun, [&[declared][..], run].concat(), rows)
        };
        let quads = |n: usize| b"\x071.2.3.4".repeat(n);
        assert_eq!(column(8, &[QUAD, 0, 1, 2, 3, 4], 1), Some(quads(1)));
        assert_eq!(column(8, &[QUAD | SPARSE, 0, 1, 1, 2, 3, 4], 1), None);
        assert_eq!(column(8, b"\x00\x081.2.3.4", 1), None);
        let five = [&[QUAD, 0][..], &[1, 2, 3, 4].repeat(5)].concat();
        assert_eq!(column(40, &five, 5), Some(quads(5)));
        assert_eq!(column(39, &five, 5), None);
        assert_eq!(column(41, &five, 5), None);
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

        /// A value of each shape, one that is nearly of some shape, and one
        /// of none.
        fn drawn_values() -> impl Strategy<Value = [String; 5]> {
            let near_miss = prop_oneof![
                "[0-9A-Fa-f]{2,9}",
                "[+-]{0,1}[0-9]{1,21}",
                "1844674407370955161[0-9]",
                "[0-9]{1,3}\\.[0-9]{0,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
                "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
            ];
            (
                "[0-9a-f]{8}",
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
                prop_oneof![any::<u64>(), 0u64..3000, Just(u64::MAX)],
                near_miss,
                "[a-z0-9 ]{0,6}",
            )
                .prop_map(|(hex, (a, b, c, d), number, near_miss, other)| {
                    let quad = format!("{a}.{b}.{c}.{d}");
                    [hex, quad, number.to_string(), near_miss, other]
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any run of optional byte strings reads back as it was given,
            /// in whatever shape it took.
            #[test]
            fn any_values_round_trip(
                values in proptest::collection::vec(
                    prop_oneof![
                        Just(None),
                        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Some),
                    ],
                    0..40,
                ),
            ) {
                let values: Vec<Option<&[u8]>> = values.iter().map(Option::as_deref).collect();
                run_of(&values);
            }

            /// Runs of one kind of value — mostly: a row here and there
            /// holds another kind — behind a common prefix or none, on some
            /// rows or all, read back as given: as a run, as the cells of a
            /// `Bytes` column and as the values of a map column.
            #[test]
            fn runs_of_shaped_and_nearly_shaped_values_round_trip(
                rows in proptest::collection::vec(
                    (drawn_values(), 0usize..150, 0usize..60, any::<bool>()),
                    1..24,
                ),
                kind in 0usize..5,
                prefix in "[a-z0-9:/=.]{0,6}",
                sparse in any::<bool>(),
            ) {
                // One row in thirty is of a kind drawn for it alone, one in
                // sixty lacks the prefix.
                let values: Vec<String> = rows
                    .iter()
                    .map(|(drawn, other, bare, _)| {
                        let value = &drawn[if *other < 5 { *other } else { kind }];
                        format!("{}{value}", if *bare == 0 { "" } else { prefix.as_str() })
                    })
                    .collect();
                let run: Vec<Option<&[u8]>> = rows
                    .iter()
                    .zip(&values)
                    .map(|((.., keep), value)| (*keep || !sparse).then_some(value.as_bytes()))
                    .collect();
                run_of(&run);
                run_of(&run);
                let cells: Vec<&[u8]> = values.iter().map(String::as_bytes).collect();
                round_trip(ColumnKind::Bytes, &cells);
                let maps: Vec<Vec<u8>> = run
                    .iter()
                    .map(|value| match value {
                        Some(value) => map_cell(&[("k", std::str::from_utf8(value).expect("ascii"))]),
                        None => map_cell(&[]),
                    })
                    .collect();
                let cells: Vec<&[u8]> = maps.iter().map(Vec::as_slice).collect();
                prop_assert!(round_trip(ColumnKind::StringMap, &cells).is_some());
            }

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
                kind in 0usize..3,
            ) {
                let kind = [ColumnKind::Bytes, ColumnKind::I64, ColumnKind::StringMap][kind];
                let cells: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                round_trip(kind, &cells);
            }

            /// Arbitrary bytes in place of a transposed payload — or of a
            /// value run, under every shape byte, in a payload otherwise
            /// well formed — under any row count, are an error or a
            /// well-formed chunk, never a panic or an over-allocation.
            #[test]
            fn garbage_payloads_never_panic(
                payload in proptest::collection::vec(any::<u8>(), 0..120),
                rows in prop_oneof![0usize..40, Just(usize::MAX), Just(1usize << 40)],
                stored in 0usize..3,
                framed in any::<bool>(),
            ) {
                let stored = [StoredAs::I64, StoredAs::StringMap, StoredAs::ValueRun][stored];
                let payload = match (framed, stored) {
                    (true, StoredAs::StringMap) => {
                        [&[90, 1, 1, b'k', payload.len() as u8][..], &payload].concat()
                    }
                    (true, StoredAs::ValueRun) => [&[90][..], &payload].concat(),
                    _ => payload,
                };
                if let Some(cells) = rebuild(stored, payload, rows) {
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
