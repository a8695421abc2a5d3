//! Typed column chunks: the one [`Column`] a column of a row group is held
//! as, by the writer and by a read, and what a sealed group does to it
//! before the block compressor sees it.
//!
//! The writer buffers each column of a group as the [`Column`] a read
//! decodes, a [`Cell`] a row; at seal it is *encoded*, the inverse of `decode`:
//!
//! * [`ColumnKind::I64`] — stored as the group's minimum (zigzag varint)
//!   followed by each row's distance from it: one varint a row
//!   ([`StoredAs::I64`]), or a byte `w` in 0..=64 and the distances packed
//!   at `w` bits, the fewest that hold the largest ([`StoredAs::PackedI64`]).
//!   The writer keeps whichever layout the block compressor makes the
//!   shorter stream of, the varints on a tie: a timestamp column spends
//!   under three bytes a row where its cells would spend nine.
//! * [`ColumnKind::StringMap`] — every row a [string-map
//!   cell](string_map_cell). Stored as the sorted list of the keys the
//!   group uses, each with one *value run* over the group's rows. The key
//!   strings, repeated on every row of the cell layout, are stored once,
//!   and each key's values sit together.
//! * [`ColumnKind::Bytes`] — the values as one value run, when a shape fits
//!   them ([`StoredAs::ValueRun`]).
//!
//! A **packed** stream of `n` values of `w` bits is `⌈n·w / 8⌉` bytes: the
//! values back to back, least significant bit first from the low bit of the
//! first byte, and the bits past the last value zero.
//!
//! A **value run** stores `rows` optional byte strings as what they are
//! rather than how they were printed. It opens with a shape byte — the
//! [`ValueShape`], plus `0x10` when some row lacks the value — and then,
//! unless the shape is `Raw`: the *prefix* every present value starts with
//! (varint length, bytes; stored once), a presence bitmap of `⌈rows / 8⌉`
//! bytes (sparse runs only), and the *tails* of the present values, what is
//! left of each behind the prefix:
//!
//! * `Dict` — at most sixteen distinct tails. Their number `k` as a varint,
//!   each of them once in the order they first occur (varint length,
//!   bytes), then every present value's code — where its tail sits in that
//!   list — packed at `⌈log₂ k⌉` bits: none at all when the run holds one
//!   value.
//! * `Hex` — every tail is the same even number of lower-case hex digits,
//!   a letter somewhere among them (digits alone are a number). That
//!   number as a varint, then the digits two to a byte.
//! * `Quad` — every tail is a dotted quad as it prints (four octets, none
//!   with a leading zero). Four bytes each.
//! * `Decimal` — every tail is the one way a `u64` prints (no sign, no
//!   leading zero but `"0"` itself). The run's minimum as a varint, a byte
//!   `w` in 0..=64, then each value's distance from the minimum packed at
//!   `w` bits, the fewest that hold the largest.
//! * `Raw` — per row, `0` where the row lacks the value, else the value's
//!   length plus one and the value: the bytes as they were given.
//!
//! The prefix is the longest the present values share, cut back past any
//! trailing character of the shape's own alphabet, so that `1000` and `1001`
//! are two numbers rather than `100` and two digits (a dictionary's tails
//! have no alphabet: its prefix is all they share). The shapes are tried in
//! the order above. A dictionary fits any run of sixteen values or fewer,
//! and a run of one value keeps it; otherwise the first of the other shapes
//! whose grammar every tail matches is laid out too, and the shorter of the
//! two is kept, the dictionary on a tie — a few long numbers recurring are a
//! dictionary, fifteen dotted quads seen once each are quads. Each grammar
//! admits exactly the strings its decoder prints, so a read gets back the
//! values that were buffered. A run no shape fits is `Raw`.
//!
//! Whether a chunk is transposed, and into which shapes, is decided by its
//! data, never by an option: a string-map column holding a cell that is not
//! canonical — pairs that do not parse, keys not strictly ascending, a
//! length that is not a minimal varint — is stored as plain cells
//! ([`StoredAs::Cells`]), as is a `Bytes` column no shape fits and the
//! dictionary column, so the file never refuses a row.
//!
//! A read decodes a chunk once, into a [`Column`], and is charged the
//! length of the cells it stands for without building them: nine bytes an
//! integer, what a transposed payload declares, a chunk of cells' own.

use crate::varint::{read_varint, varint_len, write_varint};

/// The declared type of a column's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Opaque bytes; the only kind a dictionary-coded column can have.
    Bytes,
    /// A signed 64-bit integer, appended as a [`Cell::Int`].
    I64,
    /// A [string-map cell](string_map_cell).
    StringMap,
}

/// One cell of a row handed to the columnar writer: an `I64` column's
/// `Int`; the dictionary column's `Code` — where its value sits in the
/// file's dictionary — or the `Bytes` of a value it lacks; else `Bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'a> {
    Int(i64),
    Bytes(&'a [u8]),
    Code(u32),
}

/// How a stored chunk is laid out — the tag of its entry in the group
/// header. Chosen by the writer at seal from the column's kind and the
/// group's values; nobody declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredAs {
    /// Each row's cell behind its varint length (a dictionary row: its code
    /// plus one, or 0 and a miss's cell): the dictionary column, a `Bytes`
    /// column no shape fits, a string map holding a non-canonical cell.
    Cells,
    /// An [`ColumnKind::I64`] column, transposed: a varint a row.
    I64,
    /// A [`ColumnKind::StringMap`] column, transposed.
    StringMap,
    /// A [`ColumnKind::Bytes`] column as one value run.
    ValueRun,
    /// An [`ColumnKind::I64`] column, transposed: bit-packed.
    PackedI64,
}

impl StoredAs {
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_tag(tag: u8) -> Option<StoredAs> {
        use StoredAs::*;
        [Cells, I64, StringMap, ValueRun, PackedI64]
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
    /// One of a few values, each stored once.
    Dict,
}

impl ValueShape {
    /// The shapes a run is tried in, in order.
    const FITTED: [ValueShape; 4] = [
        ValueShape::Dict,
        ValueShape::Hex,
        ValueShape::Quad,
        ValueShape::Decimal,
    ];

    fn from_tag(tag: u8) -> Option<ValueShape> {
        use ValueShape::*;
        [Raw, Hex, Quad, Decimal, Dict]
            .into_iter()
            .find(|shape| *shape as u8 == tag)
    }

    /// Whether `byte` can occur in a tail of this shape.
    fn admits(self, byte: u8) -> bool {
        match self {
            ValueShape::Raw | ValueShape::Dict => false,
            ValueShape::Decimal => byte.is_ascii_digit(),
            ValueShape::Hex => NIBBLE[byte as usize] < 16,
            ValueShape::Quad => byte.is_ascii_digit() || byte == b'.',
        }
    }
}

/// Set in a run's shape byte when a presence bitmap follows the prefix.
const SPARSE: u8 = 0x10;

/// The most distinct values a `Dict` run holds.
const MAX_ENTRIES: usize = 16;

/// No chunk decodes to more than this (the bound `ulz` puts on a block).
const MAX_DECODED: usize = 1 << 30;

/// Values reserved up front when decoding; the rest is grown only as real
/// values arrive, so a hostile length cannot force an allocation.
const DECODE_PREALLOC: usize = 64 * 1024;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ------------------------------------------------------------------ bit packing

/// The fewest bits that hold `n`.
fn bit_width(n: u64) -> u32 {
    u64::BITS - n.leading_zeros()
}

/// Appends `values` as a packed stream of `width`-bit values; each must be
/// under `2^width`. The one bit packer of every packed layout.
fn pack_bits(out: &mut Vec<u8>, width: u32, values: impl IntoIterator<Item = u64>) {
    // Under 64 bits wait between values, so a value always fits beside them.
    let (mut pending, mut bits) = (0u128, 0u32);
    for value in values {
        // A wider value would spill into its neighbour's bits.
        assert!(u128::from(value) >> width == 0, "{value} in {width} bits");
        pending |= u128::from(value) << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&(pending as u64).to_le_bytes());
            pending >>= 64;
            bits -= 64;
        }
    }
    out.extend_from_slice(&pending.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// A packed stream being read, a value at a time. The one bit reader of
/// every packed layout.
#[derive(Clone, Copy, Default)]
struct Bits<'a> {
    width: u32,
    /// The stream's bytes not loaded yet.
    unread: &'a [u8],
    /// Loaded bits not handed out yet, the next value's lowest.
    loaded: u128,
    have: u32,
}

impl<'a> Bits<'a> {
    /// Opens `bytes` as a packed stream of exactly `count` values of `width`
    /// bits: `None` when `width` is over 64, or the stream is not exactly
    /// as long as that, or its bits past the last value are not zero.
    fn parse(bytes: &'a [u8], count: usize, width: u32) -> Option<Bits<'a>> {
        let bits = count.checked_mul(width as usize).filter(|_| width <= 64)?;
        let padded = bytes.len() == bits.div_ceil(8);
        let clean = bits.is_multiple_of(8) || bytes.last()? >> (bits % 8) == 0;
        (padded && clean).then_some(Bits {
            width,
            unread: bytes,
            ..Bits::default()
        })
    }

    /// The next value; `None` past the end of the stream.
    fn next(&mut self) -> Option<u64> {
        while self.have < self.width {
            // `have` is under 64 here, so a whole word fits beside it.
            if let Some((word, rest)) = self.unread.split_first_chunk::<8>() {
                self.loaded |= u128::from(u64::from_le_bytes(*word)) << self.have;
                self.have += 64;
                self.unread = rest;
            } else {
                let (byte, rest) = self.unread.split_first()?;
                self.loaded |= u128::from(*byte) << self.have;
                self.have += 8;
                self.unread = rest;
            }
        }
        let value = (self.loaded & ((1 << self.width) - 1)) as u64;
        self.loaded >>= self.width;
        self.have -= self.width;
        Some(value)
    }
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

/// Where one row's value sits in the arena of the values being transposed.
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

    fn value(self, arena: &[u8]) -> Option<&[u8]> {
        self.is_present()
            .then(|| &arena[self.start as usize..][..self.len as usize])
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
        ValueShape::Dict => {
            let mut entries = [&[][..]; MAX_ENTRIES];
            let mut count = 0;
            numbers.clear();
            for value in values {
                let tail = &value[prefix..];
                let code = match entries[..count].iter().position(|entry| *entry == tail) {
                    Some(code) => code,
                    None => {
                        *entries.get_mut(count)? = tail;
                        count += 1;
                        count - 1
                    }
                };
                numbers.push(code as u64);
            }
            write_varint(out, count as u64);
            for entry in &entries[..count] {
                write_varint(out, entry.len() as u64);
                out.extend_from_slice(entry);
            }
            pack_bits(out, bit_width(count as u64 - 1), numbers.iter().copied());
        }
        ValueShape::Decimal => {
            numbers.clear();
            for value in values {
                numbers.push(parse_decimal(&value[prefix..])?);
            }
            let min = *numbers.iter().min()?;
            let width = bit_width(*numbers.iter().max()? - min);
            write_varint(out, min);
            out.push(width as u8);
            pack_bits(out, width, numbers.iter().map(|n| n - min));
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

/// Appends `spans` — one per row, into `arena` — to `out` as a value run in
/// a shape that fits (see the module docs for which), and says which;
/// `None`, and nothing appended, when none does.
fn push_fitted_run(
    out: &mut Vec<u8>,
    arena: &[u8],
    spans: &[Span],
    numbers: &mut Vec<u64>,
) -> Option<ValueShape> {
    let start = out.len();
    let present = || spans.iter().filter_map(|span| span.value(arena));
    let first = present().next()?;
    let sparse = spans.iter().any(|span| !span.is_present());
    // How much of the first value every other starts with.
    let shared = present().fold(first.len(), |shared, value| {
        let same = first[..shared].iter().zip(value);
        same.take_while(|(a, b)| a == b).count()
    });
    // A run of one value is a dictionary of it: no bits a row, and no
    // number to print on every row either.
    let one_value = present().all(|value| value.len() == shared);
    // Where a dictionary of the run ends, once one is laid out.
    let mut dict_end = None;
    for shape in ValueShape::FITTED {
        let at = out.len();
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
        if push_tails(out, shape, prefix, present(), numbers).is_none() {
            out.truncate(at);
            continue;
        }
        match dict_end {
            None if shape == ValueShape::Dict && !one_value => dict_end = Some(out.len()),
            None => return Some(shape),
            // Of a dictionary and a value shape, the shorter; on a tie, the
            // dictionary.
            Some(dict_end) if out.len() - dict_end < dict_end - start => {
                out.copy_within(dict_end.., start);
                out.truncate(out.len() - (dict_end - start));
                return Some(shape);
            }
            Some(dict_end) => {
                out.truncate(dict_end);
                return Some(ValueShape::Dict);
            }
        }
    }
    dict_end.map(|_| ValueShape::Dict)
}

/// Appends `spans` to `out` as a value run: fitted, or `Raw`.
fn push_run(out: &mut Vec<u8>, arena: &[u8], spans: &[Span], numbers: &mut Vec<u64>) -> ValueShape {
    if let Some(shape) = push_fitted_run(out, arena, spans, numbers) {
        return shape;
    }
    out.push(ValueShape::Raw as u8);
    for span in spans {
        match span.value(arena) {
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
    /// The bytes of one tail of a `Hex` or `Quad` run: its hex digits two to
    /// a byte, a quad.
    width: usize,
    /// What a `Decimal` run's distances are from.
    min: u64,
    /// A `Dict` run's values behind the prefix: the first `entry_count`.
    entries: [&'a [u8]; MAX_ENTRIES],
    entry_count: usize,
    /// The packed codes of a `Dict` run, distances of a `Decimal` run.
    packed: Bits<'a>,
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
            entries: [&[]; MAX_ENTRIES],
            entry_count: 0,
            packed: Bits::default(),
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
        // The width in bits of a packed layout's values; `None` for bytes.
        let packed_width = match shape {
            ValueShape::Raw => return None,
            ValueShape::Quad => {
                run.width = 4;
                None
            }
            ValueShape::Hex => {
                let digits = usize::try_from(read_varint(unread, &mut pos)?).ok()?;
                run.width = (digits % 2 == 0 && digits > 0).then_some(digits / 2)?;
                None
            }
            ValueShape::Decimal => {
                run.min = read_varint(unread, &mut pos)?;
                let width = *unread.get(pos)?;
                pos += 1;
                Some(u32::from(width))
            }
            ValueShape::Dict => {
                let count = usize::try_from(read_varint(unread, &mut pos)?).ok()?;
                for entry in run.entries.get_mut(..count).filter(|_| count > 0)? {
                    *entry = read_string(unread, &mut pos)?;
                }
                run.entry_count = count;
                Some(bit_width(count as u64 - 1))
            }
        };
        unread = &unread[pos..];
        match packed_width {
            Some(width) => {
                run.packed = Bits::parse(unread, present, width)?;
                run.unread = &[];
                Some(run)
            }
            None => {
                run.unread = unread;
                (present.checked_mul(run.width)? == unread.len()).then_some(run)
            }
        }
    }

    /// Whether every tail has been read.
    fn is_spent(&self) -> bool {
        self.unread.is_empty() && self.packed.unread.is_empty()
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
            ValueShape::Dict => {
                let entries = &self.entries[..self.entry_count];
                self.value
                    .extend_from_slice(entries.get(self.packed.next()? as usize)?);
            }
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
                let n = self.min.checked_add(self.packed.next()?)?;
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
    /// Where the key's bytes sit in the arena of the cells being transposed.
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
    /// Encodes `column` of one group, of `kind`, as [`decode`]'s inverse, and
    /// hands back its tag and what `compress` makes of the layout: of an
    /// integer column's two, the shorter, the varints on a tie (see the
    /// module docs for what is stored as cells).
    pub(crate) fn encode(
        &mut self,
        kind: ColumnKind,
        column: &Column,
        compress: &mut impl FnMut(&[u8]) -> Vec<u8>,
    ) -> (StoredAs, Vec<u8>) {
        self.out.clear();
        let transposed = match (kind, column) {
            (_, Column::I64(values)) => return self.transpose_i64(values, compress),
            (ColumnKind::Bytes, Column::Bytes(texts)) => self.transpose_values(texts),
            (ColumnKind::StringMap, Column::Bytes(texts)) => self.transpose_string_map(texts),
            _ => None,
        };
        let stored = transposed.unwrap_or_else(|| {
            self.out.clear();
            write_cells(&mut self.out, column);
            StoredAs::Cells
        });
        (stored, compress(&self.out))
    }

    fn transpose_i64(
        &mut self,
        values: &[i64],
        compress: &mut impl FnMut(&[u8]) -> Vec<u8>,
    ) -> (StoredAs, Vec<u8>) {
        let min = values.iter().copied().min().unwrap_or(0);
        let distances = &mut self.numbers;
        distances.clear();
        distances.extend(values.iter().map(|value| value.wrapping_sub(min) as u64));
        let out = &mut self.out;
        write_varint(out, zigzag(min));
        let head = out.len();
        for distance in &*distances {
            write_varint(out, *distance);
        }
        let varints = compress(out);
        out.truncate(head);
        let width = bit_width(distances.iter().copied().max().unwrap_or(0));
        out.push(width as u8);
        pack_bits(out, width, distances.iter().copied());
        let packed = compress(out);
        match packed.len() < varints.len() {
            true => (StoredAs::PackedI64, packed),
            false => (StoredAs::I64, varints),
        }
    }

    fn transpose_values(&mut self, texts: &Texts) -> Option<StoredAs> {
        self.spans.clear();
        self.spans.extend(texts.spans());
        write_varint(&mut self.out, texts.cells_len() as u64);
        push_fitted_run(&mut self.out, &texts.arena, &self.spans, &mut self.numbers)
            .map(|_| StoredAs::ValueRun)
    }

    /// The sub-chunk of `key` (a range of `arena`), opened if the chunk has
    /// not met the key yet.
    fn sub_chunk(&mut self, arena: &[u8], key: std::ops::Range<usize>, hint: usize) -> usize {
        let open = &self.subs[..self.keys];
        let is_key = |sub: &SubChunk| arena[sub.key.clone()] == arena[key.clone()];
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

    fn transpose_string_map(&mut self, texts: &Texts) -> Option<StoredAs> {
        self.keys = 0;
        let arena = &texts.arena[..];
        let rows = texts.ends.len();
        for (row, span) in texts.spans().enumerate() {
            let (cell_at, cell) = (span.start as usize, span.value(arena)?);
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
                let i = self.sub_chunk(arena, key_at..key_at + key.len(), next);
                next = i + 1;
                let spans = &mut self.subs[i].spans;
                spans.resize(row, Span::ABSENT);
                spans.push(Span::ending(pairs_at + at, value.len()));
            }
            // Every varint minimal and nothing after the last pair: the cell
            // is the one encoding of its map, so the map `decode_string_map`
            // rebuilds from the key runs prints back as this very cell.
            if at != pairs.len() || canonical != cell.len() {
                return None;
            }
        }
        let subs = &mut self.subs[..self.keys];
        self.order.clear();
        self.order.extend(0..subs.len());
        self.order
            .sort_unstable_by_key(|i| &arena[subs[*i].key.clone()]);
        self.runs.clear();
        for &i in &self.order {
            let sub = &mut subs[i];
            sub.spans.resize(rows, Span::ABSENT);
            let start = self.runs.len();
            push_run(&mut self.runs, arena, &sub.spans, &mut self.numbers);
            sub.run_len = self.runs.len() - start;
        }
        let out = &mut self.out;
        write_varint(out, texts.cells_len() as u64);
        write_varint(out, subs.len() as u64);
        for &i in &self.order {
            let key = &arena[subs[i].key.clone()];
            write_varint(out, key.len() as u64);
            out.extend_from_slice(key);
            write_varint(out, subs[i].run_len as u64);
        }
        out.extend_from_slice(&self.runs);
        Some(StoredAs::StringMap)
    }
}

/// Appends every row of a column of bytes as a cell behind its varint
/// length; a dictionary row as its code plus one, or 0 and a miss's cell.
fn write_cells(out: &mut Vec<u8>, column: &Column) {
    let (codes, texts) = match column {
        Column::Bytes(texts) => (None, texts),
        Column::Coded { codes, inline } => (Some(codes), inline),
        Column::I64(_) => unreachable!("an integer column is always transposed"),
    };
    for row in 0..codes.map_or(texts.ends.len(), Vec::len) {
        if let Some(code) = codes.map(|codes| codes[row]) {
            write_varint(out, u64::from(code));
            if code > 0 {
                continue;
            }
        }
        let value = texts.get(row).expect("a value on the row");
        write_varint(out, value.len() as u64);
        out.extend_from_slice(value);
    }
}

// --------------------------------------------------------------------- decode

/// One column of a row group: what the writer buffers, and what a read
/// decodes its chunk to once, hands out and the chunk cache holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    I64(Vec<i64>),
    /// A value run's values, a string map's rows as canonical
    /// [cells](string_map_cell), or plain cells as stored.
    Bytes(Texts),
    /// The file-dictionary column as its cells hold it: a row's code plus
    /// one, or 0 where the value missed the dictionary and is in `inline`.
    Coded {
        codes: Vec<u32>,
        inline: Texts,
    },
}

/// Byte strings, one a row, back to back in one arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Texts {
    /// Where each row's value ends in `arena`, and the next one's starts.
    ends: Vec<u32>,
    arena: Vec<u8>,
}

impl Texts {
    /// Room for `rows` values whose cells take `cells` bytes in all — each
    /// a byte of length at least — up to [`DECODE_PREALLOC`] of each.
    fn with_capacity(rows: usize, cells: usize) -> Texts {
        Texts {
            ends: Vec::with_capacity(rows.min(DECODE_PREALLOC)),
            arena: Vec::with_capacity(cells.saturating_sub(rows).min(DECODE_PREALLOC)),
        }
    }

    /// Ends a row with `value`. The arena stays under `u32::MAX` bytes (a
    /// read's, under [`MAX_DECODED`]), so no end, and no span, wraps.
    fn push(&mut self, value: &[u8]) {
        self.arena.extend_from_slice(value);
        assert!(self.arena.len() < u32::MAX as usize, "a 4 GiB column");
        self.ends.push(self.arena.len() as u32);
    }

    /// [`push`](Self::push) at `row`, rows before it ending where the last did.
    fn push_at(&mut self, row: usize, value: &[u8]) {
        self.ends.resize(row, self.arena.len() as u32);
        self.push(value);
    }

    fn get(&self, row: usize) -> Option<&[u8]> {
        let end = *self.ends.get(row)? as usize;
        let start = row.checked_sub(1).map_or(0, |last| self.ends[last]) as usize;
        Some(&self.arena[start..end])
    }

    /// Where each row's value sits in the arena, row by row.
    fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (starts.zip(&self.ends))
            .map(|(start, end)| Span::ending(*end as usize, (end - start) as usize))
    }

    /// The length of the values as cells, each behind its varint length.
    fn cells_len(&self) -> usize {
        let lengths = self.spans().map(|span| varint_len(u64::from(span.len)));
        self.arena.len() + lengths.sum::<usize>()
    }
}

impl Column {
    /// An empty column to buffer `rows` rows of `kind` in, coded if `coded`.
    pub(crate) fn buffer(kind: ColumnKind, coded: bool, rows: usize) -> Column {
        let rows = rows.min(DECODE_PREALLOC);
        match (kind, coded) {
            (_, true) => Column::Coded {
                codes: Vec::with_capacity(rows),
                inline: Texts::default(),
            },
            (ColumnKind::I64, false) => Column::I64(Vec::with_capacity(rows)),
            _ => Column::Bytes(Texts::with_capacity(rows, 0)),
        }
    }

    /// Appends `cell` to a buffered column — a dictionary column's, coded
    /// under `entries` entries; a cell the column cannot hold panics.
    pub(crate) fn push(&mut self, cell: Cell<'_>, entries: usize) {
        match (self, cell) {
            (Column::I64(values), Cell::Int(value)) => values.push(value),
            (Column::Bytes(texts), Cell::Bytes(value)) => texts.push(value),
            (Column::Coded { codes, .. }, Cell::Code(code)) => {
                assert!((code as usize) < entries, "a code past the dictionary");
                codes.push(code + 1);
            }
            (Column::Coded { codes, inline }, Cell::Bytes(value)) => {
                inline.push_at(codes.len(), value);
                codes.push(0);
            }
            (_, Cell::Int(_)) => panic!("an integer cell in a column that is not I64"),
            (_, Cell::Code(_)) => panic!("a code outside the dictionary column"),
            (Column::I64(_), Cell::Bytes(_)) => panic!("bytes in an I64 column"),
        }
    }

    /// Empties a buffered column, keeping its room for the next group.
    pub(crate) fn clear(&mut self) {
        let texts = match self {
            Column::I64(values) => return values.clear(),
            Column::Bytes(texts) => texts,
            Column::Coded { codes, inline } => {
                codes.clear();
                inline
            }
        };
        texts.ends.clear();
        texts.arena.clear();
    }

    /// Row `row` as an integer: an integer column's value, or a byte
    /// column's eight little-endian bytes — a file read as integers may
    /// hold bytes where its reader expects them. `None` for any other
    /// value, past the last row and for a code.
    pub fn int(&self, row: usize) -> Option<i64> {
        match self {
            Column::I64(values) => values.get(row).copied(),
            Column::Bytes(texts) => texts.get(row)?.try_into().ok().map(i64::from_le_bytes),
            Column::Coded { .. } => None,
        }
    }

    /// Row `row`'s dictionary code; `None` past the last row, for an inline
    /// row and for a column not coded.
    pub fn code(&self, row: usize) -> Option<u32> {
        match self {
            Column::Coded { codes, .. } => codes.get(row)?.checked_sub(1),
            _ => None,
        }
    }

    /// The heap this column holds, which is what it takes of a cache.
    pub(crate) fn heap_len(&self) -> usize {
        let texts = |t: &Texts| t.ends.capacity() * 4 + t.arena.capacity();
        match self {
            Column::I64(values) => values.capacity() * 8,
            Column::Bytes(bytes) => texts(bytes),
            Column::Coded { codes, inline } => codes.capacity() * 4 + texts(inline),
        }
    }

    /// The bytes [`bytes`](Self::bytes) hands out over every row.
    pub fn byte_len(&self) -> usize {
        match self {
            Column::I64(_) => 0,
            Column::Bytes(texts) | Column::Coded { inline: texts, .. } => texts.arena.len(),
        }
    }

    /// Row `row`'s bytes as stored; `None` past the last row, for an
    /// integer and for a code.
    pub fn bytes(&self, row: usize) -> Option<&[u8]> {
        match self {
            Column::I64(_) => None,
            Column::Bytes(texts) => texts.get(row),
            Column::Coded { codes, inline } => (*codes.get(row)? == 0).then(|| inline.get(row))?,
        }
    }
}

/// Decodes the `payload` of a `rows`-row chunk stored as `stored` — if it
/// is the file-dictionary column, as codes of a `dictionary` of that many
/// entries — with the length of the cells it stands for. `None` on any
/// structural error; hostile input never panics and never allocates past
/// what it really decodes to.
pub(crate) fn decode(
    stored: StoredAs,
    payload: &[u8],
    rows: usize,
    dictionary: Option<u32>,
) -> Option<(Column, usize)> {
    let (mut column, cells) = match (stored, dictionary) {
        // Every cell costs a byte at least: reject a hostile count before
        // allocating for it.
        (StoredAs::Cells, _) if rows > payload.len() => None,
        (StoredAs::Cells, None) => Some((decode_cells(payload, rows)?, payload.len())),
        (StoredAs::Cells, Some(entries)) => {
            Some((decode_coded(payload, rows, entries)?, payload.len()))
        }
        // The writer stores the dictionary's codes as cells.
        (_, Some(_)) => None,
        (StoredAs::I64 | StoredAs::PackedI64, None) => decode_integers(stored, payload, rows),
        (StoredAs::StringMap, None) => decode_string_map(payload, rows),
        (StoredAs::ValueRun, None) => decode_values(payload, rows),
    }?;
    // Held as it is: what growing left unused is given back.
    if let Column::Bytes(texts) | Column::Coded { inline: texts, .. } = &mut column {
        texts.ends.shrink_to_fit();
        texts.arena.shrink_to_fit();
    }
    Some((column, cells))
}

/// `rows` cells, each behind its varint length, and nothing after them.
fn decode_cells(payload: &[u8], rows: usize) -> Option<Column> {
    let mut texts = Texts::with_capacity(rows, payload.len());
    let mut pos = 0;
    for _ in 0..rows {
        texts.push(read_string(payload, &mut pos)?);
    }
    (pos == payload.len()).then_some(Column::Bytes(texts))
}

/// `rows` dictionary cells, each a `varint(code + 1)` of a code under
/// `entries` or a 0 before the cell of a miss, and nothing after them.
fn decode_coded(payload: &[u8], rows: usize, entries: u32) -> Option<Column> {
    let (mut codes, mut inline) = (Vec::with_capacity(rows), Texts::default());
    let mut pos = 0;
    for row in 0..rows {
        let code = u32::try_from(read_varint(payload, &mut pos)?).ok()?;
        if code == 0 {
            inline.push_at(row, read_string(payload, &mut pos)?);
        }
        codes.push(code);
    }
    // Folded, not searched: a pass over every code vectorises.
    let past = codes.iter().fold(false, |p, c| p | (*c > entries));
    (pos == payload.len() && !past).then_some(Column::Coded { codes, inline })
}

fn decode_integers(stored: StoredAs, payload: &[u8], rows: usize) -> Option<(Column, usize)> {
    let mut pos = 0;
    let min = unzigzag(read_varint(payload, &mut pos)?);
    let mut varints = &payload[pos..];
    let mut packed = None;
    if stored == StoredAs::PackedI64 {
        let (width, bits) = varints.split_first()?;
        packed = Some(Bits::parse(bits, rows, u32::from(*width))?);
    } else if rows > varints.len() {
        // Every varint costs a byte at least: reject a hostile count before
        // allocating for it.
        return None;
    }
    // Nine bytes a cell; a packed row may cost no bits at all, so its count
    // is held to what its cells may come to.
    let cells = rows.checked_mul(9).filter(|len| *len <= MAX_DECODED)?;
    let mut values = Vec::with_capacity(rows.min(DECODE_PREALLOC));
    for _ in 0..rows {
        let distance = match &mut packed {
            Some(bits) => bits.next()?,
            None => {
                let mut at = 0;
                let distance = read_varint(varints, &mut at)?;
                varints = &varints[at..];
                distance
            }
        };
        values.push(min.wrapping_add(distance as i64));
    }
    (packed.is_some() || varints.is_empty()).then_some((Column::I64(values), cells))
}

/// The length of the cells a transposed payload stands for, and the rest
/// of it.
fn declared_len(payload: &[u8]) -> Option<(usize, &[u8])> {
    let mut pos = 0;
    let declared = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    (declared <= MAX_DECODED).then_some((declared, &payload[pos..]))
}

fn decode_values(payload: &[u8], rows: usize) -> Option<(Column, usize)> {
    let (declared, run) = declared_len(payload)?;
    let mut run = Run::parse(run, rows)?;
    // A column's run has every row, in a shape: one that no shape fits is
    // stored as cells.
    if run.presence.is_some() || run.shape == ValueShape::Raw {
        return None;
    }
    let mut texts = Texts::with_capacity(rows, declared);
    // What the cells to come may take of the declared length.
    let mut left = declared;
    for _ in 0..rows {
        let value = run.next()??;
        left = left.checked_sub(varint_len(value.len() as u64) + value.len())?;
        texts.push(value);
    }
    (left == 0).then_some((Column::Bytes(texts), declared))
}

/// The keys of a transposed string-map payload, each with the bytes of its
/// run.
type KeyedRuns<'a> = Vec<(&'a [u8], &'a [u8])>;

/// The key list of a transposed string-map payload: the length of the
/// cells it stands for, and each key with the bytes of its run.
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

fn decode_string_map(payload: &[u8], rows: usize) -> Option<(Column, usize)> {
    let (declared, runs) = string_map_runs(payload)?;
    let mut subs = Vec::with_capacity(runs.len());
    for (key, run) in runs {
        subs.push((key, Run::parse(run, rows)?));
    }
    let mut texts = Texts::with_capacity(rows, declared);
    let mut left = declared;
    let mut pairs = Vec::new();
    for _ in 0..rows {
        pairs.clear();
        let mut count = 0;
        for (key, run) in &mut subs {
            if let Some(value) = run.next()? {
                count += 1;
                write_string_map_pair(&mut pairs, key, value);
            }
        }
        let cell = varint_len(count as u64) + pairs.len();
        left = left.checked_sub(varint_len(cell as u64) + cell)?;
        write_string_map_count(&mut texts.arena, count);
        texts.push(&pairs);
    }
    let spent = subs.iter().all(|(_, run)| run.is_spent());
    (spent && left == 0).then_some((Column::Bytes(texts), declared))
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
        StoredAs::I64 | StoredAs::PackedI64 => Vec::new(),
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

    fn map_cell(pairs: &[(&str, &str)]) -> Vec<u8> {
        let mut cell = Vec::new();
        write_string_map_count(&mut cell, pairs.len());
        for (k, v) in pairs {
            write_string_map_pair(&mut cell, k.as_bytes(), v.as_bytes());
        }
        cell
    }

    /// A column of `values`, one a row, as the writer buffers it.
    fn bytes_column<V: AsRef<[u8]>>(values: &[V]) -> Column {
        let mut column = Column::buffer(ColumnKind::Bytes, false, 0);
        for value in values {
            column.push(Cell::Bytes(value.as_ref()), 0);
        }
        column
    }

    fn rows_of(column: &Column) -> usize {
        match column {
            Column::I64(values) => values.len(),
            Column::Bytes(texts) => texts.ends.len(),
            Column::Coded { codes, .. } => codes.len(),
        }
    }

    /// What a read of `column` is charged: the length of its cells, each
    /// behind its varint length — an integer as its eight bytes, a
    /// dictionary row as its code plus one and, for a miss, the cell.
    fn cells_len(column: &Column) -> usize {
        let cell = |len: usize| varint_len(len as u64) + len;
        match column {
            Column::I64(values) => values.len() * cell(8),
            Column::Bytes(texts) => (0..rows_of(column))
                .map(|row| cell(texts.get(row).expect("a row").len()))
                .sum(),
            Column::Coded { codes, inline } => (codes.iter().enumerate())
                .map(|(row, code)| match code {
                    0 => 1 + cell(inline.get(row).expect("a miss").len()),
                    _ => varint_len(u64::from(*code)),
                })
                .sum(),
        }
    }

    /// The column the `payload` of a `rows`-row chunk stored as `stored`
    /// decodes into, checked to be charged its cells and held without the
    /// room its growing left.
    fn decoded(
        stored: StoredAs,
        payload: &[u8],
        rows: usize,
        dictionary: Option<u32>,
    ) -> Option<Column> {
        let (column, charged) = decode(stored, payload, rows, dictionary)?;
        assert_eq!(rows_of(&column), rows);
        assert!(column.int(rows).is_none() && column.bytes(rows).is_none());
        assert_eq!(
            charged,
            cells_len(&column),
            "charged the cells it stands for"
        );
        if let Column::Bytes(texts) = &column {
            let held = texts.ends.len() * 4 + texts.arena.len();
            assert_eq!(
                column.heap_len(),
                held,
                "held without the room growing left"
            );
        }
        Some(column)
    }

    /// The layout `column` of `kind` is encoded into, which must decode to
    /// it, and its length, under a compressor that leaves the bytes as they
    /// are.
    fn round_trip(kind: ColumnKind, column: &Column) -> (StoredAs, usize) {
        round_trip_through(kind, column, &mut |bytes| bytes.to_vec(), &mut |stored| {
            Some(stored.to_vec())
        })
    }

    /// [`round_trip`] through `compress` and its inverse, `decompress`.
    fn round_trip_through(
        kind: ColumnKind,
        column: &Column,
        compress: &mut impl FnMut(&[u8]) -> Vec<u8>,
        decompress: &mut impl FnMut(&[u8]) -> Option<Vec<u8>>,
    ) -> (StoredAs, usize) {
        let mut transposer = Transposer::default();
        // Twice: the second chunk meets the buffers the first one left.
        transposer.encode(kind, column, compress);
        let (stored, out) = transposer.encode(kind, column, compress);
        let payload = decompress(&out).expect("a stream the compressor made");
        // The smallest dictionary that holds every code.
        let dictionary = match column {
            Column::Coded { codes, .. } => codes.iter().max().copied(),
            _ => None,
        };
        let rows = rows_of(column);
        assert_eq!(
            decoded(stored, &payload, rows, dictionary).as_ref(),
            Some(column)
        );
        (stored, out.len())
    }

    /// A column decoded past what is reserved up front is held, and taken
    /// of a cache, without the room its growing left.
    #[test]
    fn a_column_grown_past_the_reservation_is_held_without_slack() {
        let values: Vec<String> = (0..1000).map(|i| format!("v{i:099}")).collect();
        assert!(values.concat().len() > DECODE_PREALLOC);
        let column = bytes_column(&values);
        assert_eq!(round_trip(ColumnKind::Bytes, &column).0, StoredAs::Cells);
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
    fn integers_store_their_distance_from_the_group_minimum_in_the_shorter_layout() {
        const T0: i64 = 1_344_000_000_000;
        let hour: Vec<i64> = (0..64).map(|i| T0 + i * 56_249).collect();
        let cases: [(&str, &[i64], StoredAs, usize); 4] = [
            // Six bytes of minimum, then varints of 3 + 1 + 4 bytes, where
            // three 22-bit distances would take a byte of width and nine.
            (
                "three timestamps",
                &[T0 + 123_456, T0, T0 + 3_599_999],
                StoredAs::I64,
                6 + 8,
            ),
            // An hour of them: 22 bits apiece packed, where a varint takes
            // three bytes or four.
            ("an hour", &hour, StoredAs::PackedI64, 6 + 1 + 64 * 22 / 8),
            // One value on every row: a distance of no bits.
            ("all equal", &[7; 5], StoredAs::PackedI64, 1 + 1),
            // Eight 7-bit distances are eight bytes either way, and a tie
            // keeps the varints.
            ("a tie", &[0, 127, 1, 2, 3, 4, 5, 6], StoredAs::I64, 1 + 8),
        ];
        for (what, values, stored, len) in cases {
            let column = Column::I64(values.to_vec());
            assert_eq!(
                round_trip(ColumnKind::I64, &column),
                (stored, len),
                "{what}"
            );
        }
        let extremes = Column::I64(vec![i64::MIN, i64::MAX, 0, -1]);
        round_trip(ColumnKind::I64, &extremes);
    }

    /// What decides is the stream the block compressor makes, not the
    /// layout: five ids up to 15 bits apart are shorter packed than as
    /// varints of three bytes, but recurring in no order, their varints are
    /// byte strings `ulz` matches and their packed bits are not.
    #[test]
    fn an_integer_column_keeps_the_layout_the_compressor_makes_shorter() {
        let mut state = 1u64;
        let ids: Vec<i64> = (0..200)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (1 << 40) + [0, 20_000, 21_000, 22_000, 23_000][(state >> 60) as usize % 5]
            })
            .collect();
        let column = Column::I64(ids);
        assert_eq!(round_trip(ColumnKind::I64, &column).0, StoredAs::PackedI64);
        let ulz = round_trip_through(
            ColumnKind::I64,
            &column,
            &mut |bytes| crate::compress::compress(bytes),
            &mut |stored| crate::compress::decompress(stored),
        );
        assert_eq!(ulz.0, StoredAs::I64);
    }

    #[test]
    fn maps_store_each_key_once_and_each_keys_values_together() {
        let rows = [
            map_cell(&[("lang", "en"), ("rank", "3")]),
            map_cell(&[]),
            map_cell(&[("lang", "en"), ("tweet_id", "12345")]),
            map_cell(&[("a", ""), ("lang", "fr")]),
        ];
        let column = bytes_column(&rows);
        let mut transposer = Transposer::default();
        let (stored, out) =
            transposer.encode(ColumnKind::StringMap, &column, &mut |bytes| bytes.to_vec());
        assert_eq!(stored, StoredAs::StringMap, "canonical cells");
        assert_eq!(decoded(stored, &out, 4, None), Some(column));
        // Each key string appears once in the transposed chunk.
        let count = |needle: &[u8]| out.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count(b"lang"), 1);
        assert_eq!(count(b"tweet_id"), 1);
        // A group of empty maps is a key list of none.
        assert_eq!(
            round_trip(ColumnKind::StringMap, &bytes_column(&[[0], [0]])),
            (StoredAs::StringMap, 2)
        );
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
            let column = bytes_column(&[&good, cell, &good]);
            assert_eq!(
                round_trip(ColumnKind::StringMap, &column).0,
                StoredAs::Cells,
                "{what}"
            );
        }
        let column = bytes_column(&[&good, &good]);
        assert_eq!(
            round_trip(ColumnKind::StringMap, &column).0,
            StoredAs::StringMap
        );
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
        assert!(run.is_spent());
        (shape, out)
    }

    fn present<'a>(values: &[&'a str]) -> Vec<Option<&'a [u8]>> {
        values.iter().map(|value| Some(value.as_bytes())).collect()
    }

    fn owned(values: &[Option<String>]) -> Vec<Option<&[u8]>> {
        values
            .iter()
            .map(|v| v.as_deref().map(str::as_bytes))
            .collect()
    }

    #[test]
    fn the_packer_and_the_reader_agree_at_every_width() {
        let mut rng = proptest::test_runner::TestRng::deterministic("bits");
        for width in 0..=64u32 {
            for count in [0, 1, 7, 8, 9, 64, 65] {
                let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                let values: Vec<u64> = (0..count).map(|_| rng.next_u64() & mask).collect();
                let mut packed = Vec::new();
                pack_bits(&mut packed, width, values.iter().copied());
                assert_eq!(packed.len(), (count * width as usize).div_ceil(8));
                let mut bits = Bits::parse(&packed, count, width).expect("a packed stream");
                for value in &values {
                    assert_eq!(bits.next(), Some(*value), "{width} bits");
                }
                assert!(bits.unread.is_empty());
            }
        }
        // Low bits first: 1, 2, 3 at three bits are 0b011_010_001.
        let mut packed = Vec::new();
        pack_bits(&mut packed, 3, [1, 2, 3]);
        assert_eq!(packed, [0b1101_0001, 0b0]);
    }

    #[test]
    fn a_few_values_are_stored_once_each_and_coded() {
        use ValueShape::*;
        type Values<'a> = [Option<&'a [u8]>];
        const MAX: &str = "18446744073709551615";
        let cases: [(&Values, ValueShape, &[u8]); 7] = [
            // No prefix; two values, each once; codes of one bit.
            (
                &present(&["en", "fr", "en"]),
                Dict,
                b"\x04\x00\x02\x02en\x02fr\x02",
            ),
            // One value on every row: the value once, as the prefix, and
            // no code at all — though it is also a number behind a prefix.
            (
                &present(&["4.1.2", "4.1.2"]),
                Dict,
                b"\x04\x054.1.2\x01\x00",
            ),
            // A bit a row, then codes for the rows that have the value.
            (
                &[Some(b"en"), None, Some(b"fr")],
                Dict,
                b"\x14\x00\x05\x02\x02en\x02fr\x02",
            ),
            // Long numbers recurring: shorter as a dictionary than as four
            // 64-bit distances.
            (
                &present(&[MAX, "0", MAX, "0"]),
                Dict,
                &[b"\x04\x00\x02\x14", MAX.as_bytes(), b"\x010\x0a"].concat(),
            ),
            // Numbers seen once each: shorter as 12-bit distances.
            (
                &present(&["40", "2499", "41"]),
                Decimal,
                &[3, 0, 40, 12, 0x00, 0xb0, 0x99, 0x01, 0x00],
            ),
            (&[None, None], Raw, &[0, 0, 0]),
            (&[], Raw, &[0]),
        ];
        for (values, shape, bytes) in cases {
            assert_eq!(run_of(values), (shape, bytes.to_vec()), "{values:?}");
        }
    }

    /// Seventeen values and more are past what a dictionary holds; those of
    /// a shape are stored as what they are.
    #[test]
    fn past_sixteen_values_are_stored_as_what_they_are() {
        use ValueShape::*;
        let some = |values: Vec<String>| values.into_iter().map(Some).collect::<Vec<_>>();
        let numbers = |ns: &mut dyn Iterator<Item = u64>| some(ns.map(|n| n.to_string()).collect());
        let mut hex_behind_a_prefix =
            some((0..17).map(|i| format!("https://t.co/ab{i:02x}")).collect());
        for row in [3, 7, 11] {
            hex_behind_a_prefix.insert(row, None);
        }
        // The values, the shape they take, how their run starts, its length.
        type Case<'a> = (Vec<Option<String>>, ValueShape, &'a [u8], usize);
        let cases: [Case; 6] = [
            // The minimum, a byte of width, then 12-bit distances.
            (
                numbers(&mut [40, 2499].into_iter().chain(41..56)),
                Decimal,
                &[3, 0, 40, 12, 0x00, 0xb0, 0x99, 0x01],
                4 + (17 * 12usize).div_ceil(8),
            ),
            // Digits in common are part of the numbers, not a prefix.
            (
                numbers(&mut (1000..1017)),
                Decimal,
                &[3, 0, 0xe8, 0x07, 5, 0x20],
                5 + (17 * 5usize).div_ceil(8),
            ),
            (
                some((0..17).map(|i| format!("0a{i:02x}")).collect()),
                Hex,
                &[1, 0, 4, 0x0a, 0x00, 0x0a, 0x01],
                3 + 17 * 2,
            ),
            // A prefix once, a bit a row, and the rows that have the value.
            (
                hex_behind_a_prefix,
                Hex,
                b"\x11\x0dhttps://t.co/\x77\xf7\x0f\x04\xab\x00\xab\x01",
                2 + 13 + 3 + 1 + 17 * 2,
            ),
            (
                some((0..17).map(|i| format!("10.0.{i}.255")).collect()),
                Quad,
                &[2, 0, 10, 0, 0, 255, 10, 0, 1, 255],
                2 + 17 * 4,
            ),
            (
                some((0..17).map(|i| format!("{i}-en")).collect()),
                Raw,
                b"\x00\x050-en\x051-en",
                1 + 10 * 5 + 7 * 6,
            ),
        ];
        for (values, shape, head, len) in cases {
            let (took, run) = run_of(&owned(&values));
            assert_eq!((took, &run[..head.len()], run.len()), (shape, head, len));
        }
        // The width of the widest distance, in bits: `2^k - 1` takes k.
        for (widest, width) in [(31, 5), (32, 6), (255, 8), (256, 9)].into_iter().chain([
            (u64::MAX >> 1, 63),
            (1 << 63, 64),
            (u64::MAX, 64),
        ]) {
            let (took, run) = run_of(&owned(&numbers(&mut (0..16).chain([widest]))));
            assert_eq!((took, run[3]), (Decimal, width), "{widest}");
            assert_eq!(run.len(), 4 + (17 * width as usize).div_ceil(8));
        }
    }

    /// Families of values that nearly have a shape — hex digits, a number, a
    /// dotted quad — twenty each, so no dictionary holds them: each run is
    /// stored raw.
    #[test]
    fn a_value_that_is_not_how_its_shape_prints_keeps_its_run_raw() {
        let alternate = |i: u32, odd: String| {
            if i.is_multiple_of(2) {
                i.to_string()
            } else {
                odd
            }
        };
        let near_misses: [(&str, &dyn Fn(u32) -> String); 18] = [
            ("upper-case hex", &|i| format!("{:08X}", 0xDEAD_BEE0 + i)),
            ("mixed-case hex", &|i| format!("dead{:04X}", 0xBEE0 + i)),
            ("an odd number of digits", &|i| format!("a{i:02x}")),
            ("two widths of digits", &|i| match i % 2 {
                0 => format!("ab{i:02x}"),
                _ => format!("ab{i:04x}"),
            }),
            ("digits alone, zero-padded", &|i| format!("{i:04}")),
            ("a plus sign", &|i| alternate(i, format!("+{i}"))),
            ("a minus sign", &|i| alternate(i, format!("-{i}"))),
            ("leading zeros", &|i| format!("00{i}")),
            ("an empty value", &|i| match i {
                1 => String::new(),
                _ => i.to_string(),
            }),
            ("a trailing space", &|i| format!("{i} ")),
            ("twenty-one digits", &|i| format!("1{i:020}")),
            ("past u64::MAX", &|i| {
                format!("1844674407370955161{}", 6 + i)
            }),
            ("an octet with a leading zero", &|i| format!("1.2.{i}.04")),
            ("an octet past 255", &|i| format!("{}.1.1.1", 256 + i)),
            ("three octets", &|i| format!("1.{i}.3")),
            ("five octets", &|i| format!("{i}.1.2.3.4")),
            ("an empty octet", &|i| format!("{i}..3.4")),
            ("words", &|i| format!("en-{}", (b'a' + i as u8) as char)),
        ];
        for (what, family) in near_misses {
            let values: Vec<Option<String>> = (0..20).map(|i| Some(family(i))).collect();
            assert_eq!(run_of(&owned(&values)).0, ValueShape::Raw, "{what}");
            // Two of a family, and one on one row of a group, whatever they
            // then are, read back.
            run_of(&owned(&values[..2]));
            run_of(&[None, values[0].as_deref().map(str::as_bytes), None]);
        }
    }

    /// Tails of each shape — hex of every even width up to 64, numbers that
    /// need every width of distance from six bits up, quads — forty distinct
    /// ones, behind three prefixes, on every row, every other row and one
    /// row: twenty values and more take the shape they were drawn from, one
    /// is a dictionary of itself, and each run is as long as its layout says.
    #[test]
    fn values_drawn_from_a_shape_take_it_behind_any_prefix_at_any_presence() {
        type Rng = proptest::test_runner::TestRng;
        let mut rng = Rng::deterministic("value runs");
        // `first` and then draws, until `n` are distinct.
        let distinct = |rng: &mut Rng, first: Vec<String>, draw: &dyn Fn(&mut Rng) -> String| {
            let mut tails = first;
            while tails.len() < 40 {
                let tail = draw(rng);
                if !tails.contains(&tail) {
                    tails.push(tail);
                }
            }
            tails
        };
        let mut drawn: Vec<(ValueShape, Vec<String>)> = Vec::new();
        for digits in (2..=64).step_by(2) {
            // A letter first, or a narrow one would pass for a number.
            let tail = |rng: &mut Rng| {
                let digit = |i| b"abcdef0123456789"[rng.below(if i == 0 { 6 } else { 16 })];
                String::from_utf8((0..digits).map(digit).collect()).expect("ascii")
            };
            drawn.push((ValueShape::Hex, distinct(&mut rng, Vec::new(), &tail)));
        }
        for width in 6..=64u32 {
            let widest = u64::MAX >> (64 - width);
            let min = rng.next_u64() % (u64::MAX - widest).max(1);
            let ends = vec![min.to_string(), (min + widest).to_string()];
            let tail = |rng: &mut Rng| (min + rng.next_u64() % widest).to_string();
            drawn.push((ValueShape::Decimal, distinct(&mut rng, ends, &tail)));
        }
        let edges = (1..64).flat_map(|k| [1u64 << k, (1 << k) - 1]);
        let edges = [0, u64::MAX].into_iter().chain(edges);
        drawn.push((ValueShape::Decimal, edges.map(|n| n.to_string()).collect()));
        let quads = vec!["0.0.0.0".to_string(), "255.255.255.255".to_string()];
        let quad = |rng: &mut Rng| {
            let [a, b, c, d, ..] = rng.next_u64().to_le_bytes();
            format!("{a}.{b}.{c}.{d}")
        };
        drawn.push((ValueShape::Quad, distinct(&mut rng, quads, &quad)));

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
                    let bitmap = match kept.len() < rows.len() {
                        true => rows.len().div_ceil(8),
                        false => 0,
                    };
                    if kept.len() == 1 {
                        // The value is the prefix, and the dictionary's one
                        // entry is empty.
                        let value = values[3].len();
                        assert_eq!(took, ValueShape::Dict);
                        assert_eq!(run.len(), 1 + varint_len(value as u64) + value + bitmap + 2);
                        continue;
                    }
                    assert_eq!(took, *shape, "{prefix:?} {kept:?}");
                    let layout = match shape {
                        ValueShape::Hex => 1 + kept.len() * kept[0].len() / 2,
                        ValueShape::Quad => kept.len() * 4,
                        _ => {
                            let numbers = kept.iter().map(|t| t.parse::<u64>().expect("drawn"));
                            let min = numbers.clone().min().expect("a row kept");
                            let width = bit_width(numbers.max().expect("a row kept") - min);
                            varint_len(min) + 1 + (kept.len() * width as usize).div_ceil(8)
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
    /// string-map chunk of as many rows: what each decodes to.
    fn decoded_run(bytes: &[u8], rows: usize) -> [Option<Column>; 2] {
        let column = [&[40][..], bytes].concat();
        let map = [&[40, 1, 1, b'k', bytes.len() as u8][..], bytes].concat();
        [
            decoded(StoredAs::ValueRun, &column, rows, None),
            decoded(StoredAs::StringMap, &map, rows, None),
        ]
    }

    #[test]
    fn a_forged_run_is_rejected_before_anything_is_allocated_for_it() {
        const DECIMAL: u8 = ValueShape::Decimal as u8;
        const HEX: u8 = ValueShape::Hex as u8;
        const QUAD: u8 = ValueShape::Quad as u8;
        const DICT: u8 = ValueShape::Dict as u8;
        let seventeen = [&[DICT, 0, 17][..], &[0; 17], &[0]].concat();
        let forged: [(&str, &[u8], usize); 26] = [
            ("no shape byte", &[], 0),
            ("a shape nobody wrote", &[5, 0], 0),
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
            (
                "a distance wider than 64 bits",
                &[DECIMAL, 0, 7, 65, 1, 2, 3, 4, 5, 6, 7, 8, 0],
                1,
            ),
            ("distances a byte short", &[DECIMAL, 0, 7, 12, 0xff], 1),
            (
                "distances a byte long",
                &[DECIMAL, 0, 7, 12, 0xff, 0x0f, 0],
                1,
            ),
            (
                "distances padded with bits that are not zero",
                &[DECIMAL, 0, 7, 12, 0xff, 0x1f],
                1,
            ),
            ("a dictionary of no values", &[DICT, 0, 0], 1),
            ("a dictionary of seventeen values", &seventeen, 1),
            (
                "a dictionary of more values than there are bytes",
                &[DICT, 0, 3, 1, b'a'],
                1,
            ),
            (
                "a dictionary value longer than the bytes",
                &[DICT, 0, 1, 5, b'a'],
                1,
            ),
            (
                "codes a byte short",
                &[DICT, 0, 3, 1, b'a', 1, b'b', 1, b'c'],
                4,
            ),
            (
                "codes a byte long",
                &[DICT, 0, 2, 1, b'a', 1, b'b', 0, 0],
                1,
            ),
            (
                "codes padded with bits that are not zero",
                &[DICT, 0, 2, 1, b'a', 1, b'b', 0b10],
                1,
            ),
            (
                "more codes than could be",
                &[DICT, 0, 2, 1, b'a', 1, b'b', 0],
                usize::MAX,
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
            assert_eq!(decoded_run(bytes, rows), [None, None], "{what}");
        }
        // A number past u64::MAX, and a code past the dictionary's values,
        // are found out when their row is read.
        let past = [&[DECIMAL, 0][..], &[0xff; 9], &[0x01, 1, 1]].concat();
        let code = [DICT, 0, 3, 1, b'a', 1, b'b', 1, b'c', 0b11];
        for bytes in [&past[..], &code] {
            assert!(Run::parse(bytes, 1).is_some_and(|mut run| run.next().is_none()));
            assert_eq!(decoded_run(bytes, 1), [None, None]);
        }
        // The forger can be honest; a column's run cannot be sparse or raw,
        // nor decode to another length than its chunk declares.
        let column = |declared: u8, run: &[u8], rows| {
            decoded(
                StoredAs::ValueRun,
                &[&[declared][..], run].concat(),
                rows,
                None,
            )
        };
        let quads = |n: usize| Some(bytes_column(&vec!["1.2.3.4"; n]));
        assert_eq!(column(8, &[QUAD, 0, 1, 2, 3, 4], 1), quads(1));
        assert_eq!(column(8, &[QUAD | SPARSE, 0, 1, 1, 2, 3, 4], 1), None);
        assert_eq!(column(8, b"\x00\x081.2.3.4", 1), None);
        let five = [&[QUAD, 0][..], &[1, 2, 3, 4].repeat(5)].concat();
        assert_eq!(column(40, &five, 5), quads(5));
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
                    1..40,
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
                round_trip(ColumnKind::Bytes, &bytes_column(&values));
                let maps: Vec<Vec<u8>> = run
                    .iter()
                    .map(|value| match value {
                        Some(value) => map_cell(&[("k", std::str::from_utf8(value).expect("ascii"))]),
                        None => map_cell(&[]),
                    })
                    .collect();
                let maps = bytes_column(&maps);
                prop_assert_eq!(round_trip(ColumnKind::StringMap, &maps).0, StoredAs::StringMap);
            }

            /// Any integers round-trip, and both layouts of them decode
            /// them, whichever the writer keeps.
            #[test]
            fn any_integers_round_trip(
                values in prop_oneof![
                    proptest::collection::vec(any::<i64>(), 1..80),
                    proptest::collection::vec(-3000i64..3000, 1..80),
                    (any::<i64>(), 1usize..80).prop_map(|(v, n)| vec![v; n]),
                ],
            ) {
                let column = Column::I64(values.clone());
                round_trip(ColumnKind::I64, &column);
                let min = *values.iter().min().expect("a row");
                let distances: Vec<u64> =
                    values.iter().map(|v| v.wrapping_sub(min) as u64).collect();
                let mut varints = Vec::new();
                write_varint(&mut varints, zigzag(min));
                let mut packed = varints.clone();
                for distance in &distances {
                    write_varint(&mut varints, *distance);
                }
                let width = bit_width(*distances.iter().max().expect("a row"));
                packed.push(width as u8);
                pack_bits(&mut packed, width, distances.iter().copied());
                for (stored, payload) in [(StoredAs::I64, varints), (StoredAs::PackedI64, packed)] {
                    let decoded = decoded(stored, &payload, values.len(), None);
                    prop_assert_eq!(decoded.as_ref(), Some(&column));
                }
            }

            #[test]
            fn any_canonical_maps_round_trip(
                rows in proptest::collection::vec(arbitrary_map(), 1..40),
            ) {
                let column = bytes_column(&rows);
                prop_assert_eq!(round_trip(ColumnKind::StringMap, &column).0, StoredAs::StringMap);
            }

            /// A dictionary or a run of numbers, spoiled each way a forger
            /// could — a code past the values, a value count or length past
            /// the bytes, a width over 64 bits, packed bits a byte short or
            /// long or padded with a bit set — is an error as a column's run
            /// and as a map key's, never a panic; so is every tag past the
            /// chunk layouts there are.
            #[test]
            fn spoiled_packed_runs_are_rejected(
                picks in proptest::collection::vec(0usize..40, 1..40),
                pool in 1usize..17,
                base in any::<u64>(),
                step in 1u64..5000,
                dict in any::<bool>(),
                tag in 0u8..251,
            ) {
                prop_assert!(StoredAs::from_tag(StoredAs::PackedI64.tag() + 1 + tag).is_none());
                // Seventeen rows or more of distinct numbers; a dictionary
                // of as many values as the pool has.
                let rows = if dict { picks.len() } else { picks.len() + 17 };
                let values: Vec<Option<String>> = (0..rows)
                    .map(|i| Some(match dict {
                        true => format!("w{}", (b'a' + (picks[i] % pool) as u8) as char),
                        false => (base / 2 + i as u64 * step).to_string(),
                    }))
                    .collect();
                let (shape, run) = run_of(&owned(&values));
                prop_assert_eq!(shape, if dict { ValueShape::Dict } else { ValueShape::Decimal });
                // Walk to the packed bits: past the prefix, then a count of
                // values (one byte) and the values, or a minimum and a width.
                let mut pos = 1;
                read_string(&run, &mut pos).expect("a prefix");
                let count = run[pos];
                let width = if dict {
                    read_varint(&run, &mut pos).expect("a count");
                    for _ in 0..count {
                        read_string(&run, &mut pos).expect("a value");
                    }
                    bit_width(u64::from(count) - 1)
                } else {
                    read_varint(&run, &mut pos).expect("a minimum");
                    pos += 1;
                    u32::from(run[pos - 1])
                };
                let bits = rows * width as usize;
                let entries_at = 1 + run[1] as usize + 2;
                for spoil in 0..7 {
                    let mut spoiled = run.clone();
                    match spoil {
                        // The first code names the value past the last.
                        0 if dict && u64::from(count) < 1 << width => {
                            spoiled[pos] = spoiled[pos] >> width << width | count;
                        }
                        // The values end before the count of them does.
                        1 if dict => spoiled.truncate(pos - 1),
                        // The first value is longer than the bytes left.
                        2 if dict => spoiled[entries_at] = 0x7f,
                        3 if !dict => spoiled[pos - 1] = 65 + tag % 191,
                        4 if bits > 0 => drop(spoiled.pop()),
                        5 => spoiled.push(0),
                        6 if !bits.is_multiple_of(8) => *spoiled.last_mut().expect("a byte") |= 0x80,
                        _ => continue,
                    }
                    prop_assert_eq!(decoded_run(&spoiled, rows), [None, None], "spoil {}", spoil);
                }
            }

            /// Arbitrary bytes in place of a transposed payload — or of a
            /// value run, under every shape byte, in a payload otherwise
            /// well formed — under any row count, are an error or a
            /// well-formed chunk, never a panic or an over-allocation.
            #[test]
            fn garbage_payloads_never_panic(
                payload in proptest::collection::vec(any::<u8>(), 0..120),
                rows in prop_oneof![0usize..40, Just(usize::MAX), Just(1usize << 40)],
                stored in 0usize..4,
                framed in any::<bool>(),
            ) {
                let stored = [
                    StoredAs::I64,
                    StoredAs::PackedI64,
                    StoredAs::StringMap,
                    StoredAs::ValueRun,
                ][stored];
                let payload = match (framed, stored) {
                    (true, StoredAs::StringMap) => {
                        [&[90, 1, 1, b'k', payload.len() as u8][..], &payload].concat()
                    }
                    (true, StoredAs::ValueRun) => [&[90][..], &payload].concat(),
                    _ => payload,
                };
                // A chunk that decodes holds `rows` rows and is charged
                // their cells (see `decoded`).
                decoded(stored, &payload, rows, None);
            }
        }

        /// A column of 1..=600 rows as a writer buffers it, and its kind:
        /// integers; values of a shape, nearly of one or of none, from a
        /// pool of a few or of many; maps, now and then one that is not
        /// canonical; a dictionary column's codes and misses.
        fn buffered_column() -> impl Strategy<Value = (ColumnKind, Column)> {
            const ROWS: std::ops::Range<usize> = 1..601;
            let integers = prop_oneof![
                proptest::collection::vec(any::<i64>(), ROWS),
                proptest::collection::vec(-3000i64..3000, ROWS),
                (any::<i64>(), ROWS).prop_map(|(v, n)| vec![v; n]),
                // Mostly near the minimum, now and then far: one byte a row
                // as varints, forty bits packed.
                proptest::collection::vec(
                    prop_oneof![0i64..128, 0i64..128, 0i64..128, 0i64..1 << 40],
                    ROWS
                ),
            ]
            .prop_map(|values| (ColumnKind::I64, Column::I64(values)));
            let values = (
                prop_oneof![
                    proptest::collection::vec(drawn_values(), 1..6),
                    proptest::collection::vec(drawn_values(), 17..60),
                ],
                proptest::collection::vec(any::<prop::sample::Index>(), ROWS),
                0usize..5,
            )
                .prop_map(|(pool, picks, kind)| {
                    let values: Vec<&str> = picks
                        .iter()
                        .map(|pick| pick.get(&pool)[kind].as_str())
                        .collect();
                    (ColumnKind::Bytes, bytes_column(&values))
                });
            let bytes =
                proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), ROWS)
                    .prop_map(|values| (ColumnKind::Bytes, bytes_column(&values)));
            let maps = (
                proptest::collection::vec(arbitrary_map(), ROWS),
                any::<prop::sample::Index>(),
                prop_oneof![
                    Just(None),
                    proptest::collection::vec(any::<u8>(), 0..7).prop_map(Some)
                ],
            )
                .prop_map(|(mut maps, at, spoiler)| {
                    if let Some(bad) = spoiler {
                        let at = at.index(maps.len());
                        maps[at] = bad;
                    }
                    (ColumnKind::StringMap, bytes_column(&maps))
                });
            let coded = proptest::collection::vec(
                prop_oneof![
                    (0u32..40).prop_map(Ok),
                    proptest::collection::vec(any::<u8>(), 0..8).prop_map(Err),
                ],
                ROWS,
            )
            .prop_map(|cells| {
                let mut column = Column::buffer(ColumnKind::Bytes, true, 0);
                for cell in &cells {
                    let cell = match cell {
                        Ok(code) => Cell::Code(*code),
                        Err(miss) => Cell::Bytes(miss),
                    };
                    column.push(cell, 40);
                }
                (ColumnKind::Bytes, column)
            });
            prop_oneof![integers, values, bytes, maps, coded]
        }

        /// Whatever column a writer buffers, `decode(encode(column))` is the
        /// column, charged its cells; and the columns drawn meet every
        /// layout a chunk can take.
        #[test]
        fn any_buffered_column_decodes_to_itself_under_every_tag() {
            let strategy = buffered_column();
            let mut rng = proptest::test_runner::TestRng::deterministic("buffered columns");
            let mut tags = Vec::new();
            for _ in 0..160 {
                let (kind, column) = strategy.gen_value(&mut rng);
                let (stored, _) = round_trip(kind, &column);
                if !tags.contains(&stored) {
                    tags.push(stored);
                }
            }
            tags.sort_by_key(|stored| stored.tag());
            use StoredAs::*;
            assert_eq!(tags, [Cells, I64, StringMap, ValueRun, PackedI64]);
        }
    }
}
