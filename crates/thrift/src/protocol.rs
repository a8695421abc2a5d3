//! The compact binary protocol: writer and reader.
//!
//! Modeled on the Apache Thrift compact protocol: field headers encode the
//! delta from the previous field id in the high nibble when it fits, integers
//! travel as zigzag varints, booleans fold their value into the type nibble,
//! and structs terminate with a stop byte. Unknown fields can always be
//! skipped structurally ([`CompactReader::skip`]), which is what makes schema
//! evolution "completely transparent" (§3 of the paper).

use std::collections::BTreeMap;

use crate::error::{ThriftError, ThriftResult};
use crate::value::TType;
use crate::varint;

/// Stop byte terminating a struct's field list.
const STOP: u8 = 0x00;
/// Maximum nesting depth accepted when decoding (guards hostile input).
const MAX_DEPTH: usize = 64;

/// `Ok` when `bytes` are UTF-8; ASCII, the common case, is checked first.
#[inline]
fn utf8(bytes: &[u8]) -> ThriftResult<()> {
    match is_ascii(bytes) || std::str::from_utf8(bytes).is_ok() {
        true => Ok(()),
        false => Err(ThriftError::InvalidUtf8),
    }
}

/// True when no byte of `bytes` has its high bit set: the bytes OR-ed
/// together eight at a time, the last word overlapping the one before, so
/// that no byte is looked at alone past the first seven.
#[inline]
fn is_ascii(bytes: &[u8]) -> bool {
    let word = |eight: &[u8]| u64::from_le_bytes(eight.try_into().expect("8 bytes"));
    let Some(last) = bytes.len().checked_sub(8) else {
        return bytes.iter().all(u8::is_ascii);
    };
    let any = bytes
        .chunks_exact(8)
        .fold(word(&bytes[last..]), |any, eight| any | word(eight));
    any & 0x8080_8080_8080_8080 == 0
}

/// A decoded field header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldHeader {
    /// Field identifier from the schema.
    pub id: i16,
    /// Wire type of the field's value.
    pub ttype: TType,
}

/// Streaming encoder for the compact protocol.
///
/// The writer is infallible: it only appends to an in-memory buffer. Like
/// the reader, it keeps the field id of each open struct inline, so writing
/// a record allocates nothing beyond the buffer's growth; structs nest at
/// most [`MAX_DEPTH`] deep, as deep as the reader accepts.
#[derive(Debug)]
pub struct CompactWriter {
    buf: Vec<u8>,
    /// Last field id of every open struct scope, innermost at `depth - 1`.
    last_field_id: [i16; MAX_DEPTH],
    depth: usize,
}

impl Default for CompactWriter {
    fn default() -> Self {
        CompactWriter::over_buffer(Vec::new())
    }
}

impl CompactWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with a pre-sized buffer, for hot encode loops.
    pub fn with_capacity(cap: usize) -> Self {
        CompactWriter::over_buffer(Vec::with_capacity(cap))
    }

    /// Creates a writer that appends to an existing buffer, so a caller
    /// encoding a stream of records can reuse one allocation throughout.
    /// Existing contents are preserved; [`CompactWriter::into_bytes`] hands
    /// the buffer back.
    pub fn over_buffer(buf: Vec<u8>) -> Self {
        CompactWriter {
            buf,
            last_field_id: [0; MAX_DEPTH],
            depth: 0,
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.depth == 0, "unbalanced struct_begin/struct_end");
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Begins a struct scope. Field-id deltas reset inside.
    pub fn struct_begin(&mut self) {
        assert!(self.depth < MAX_DEPTH, "structs nest over {MAX_DEPTH} deep");
        self.last_field_id[self.depth] = 0;
        self.depth += 1;
    }

    /// Ends the current struct scope, emitting the stop byte.
    pub fn struct_end(&mut self) {
        self.buf.push(STOP);
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("struct_end without struct_begin");
    }

    fn field_header(&mut self, id: i16, ttype: TType) {
        let scope = self.depth.checked_sub(1).expect("field outside a struct");
        let last = &mut self.last_field_id[scope];
        let delta = i32::from(id) - i32::from(*last);
        if (1..=15).contains(&delta) {
            self.buf.push(((delta as u8) << 4) | ttype as u8);
        } else {
            self.buf.push(ttype as u8);
            varint::write_i64(&mut self.buf, i64::from(id));
        }
        *last = id;
    }

    /// Writes a boolean field; the value lives in the type nibble.
    pub fn field_bool(&mut self, id: i16, value: bool) {
        let t = if value {
            TType::BoolTrue
        } else {
            TType::BoolFalse
        };
        self.field_header(id, t);
    }

    /// Writes an `i8` field.
    pub fn field_i8(&mut self, id: i16, value: i8) {
        self.field_header(id, TType::I8);
        self.buf.push(value as u8);
    }

    /// Writes an `i16` field.
    pub fn field_i16(&mut self, id: i16, value: i16) {
        self.field_header(id, TType::I16);
        varint::write_i64(&mut self.buf, i64::from(value));
    }

    /// Writes an `i32` field.
    pub fn field_i32(&mut self, id: i16, value: i32) {
        self.field_header(id, TType::I32);
        varint::write_i64(&mut self.buf, i64::from(value));
    }

    /// Writes an `i64` field.
    pub fn field_i64(&mut self, id: i16, value: i64) {
        self.field_header(id, TType::I64);
        varint::write_i64(&mut self.buf, value);
    }

    /// Writes a double field (8 bytes, little-endian).
    pub fn field_double(&mut self, id: i16, value: f64) {
        self.field_header(id, TType::Double);
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a UTF-8 string field.
    pub fn field_string(&mut self, id: i16, value: &str) {
        self.field_header(id, TType::Binary);
        self.write_len_prefixed(value.as_bytes());
    }

    /// Writes a binary field.
    pub fn field_binary(&mut self, id: i16, value: &[u8]) {
        self.field_header(id, TType::Binary);
        self.write_len_prefixed(value);
    }

    /// Writes a string→string map field (the shape of `event_details`):
    /// the entries in the order given, each a length-prefixed key then a
    /// length-prefixed value.
    pub fn field_string_map<K: AsRef<str>, V: AsRef<str>>(
        &mut self,
        id: i16,
        entries: impl IntoIterator<Item = (K, V), IntoIter: ExactSizeIterator>,
    ) {
        let entries = entries.into_iter();
        self.field_header(id, TType::Map);
        self.map_begin(entries.len(), TType::Binary, TType::Binary);
        for (k, v) in entries {
            self.write_len_prefixed(k.as_ref().as_bytes());
            self.write_len_prefixed(v.as_ref().as_bytes());
        }
    }

    /// Writes a string→string map field whose `count` entries are already
    /// encoded back to back in `entries`, as [`field_string_map`] encodes
    /// them: a copy, not a walk.
    ///
    /// [`field_string_map`]: CompactWriter::field_string_map
    pub fn field_string_map_encoded(&mut self, id: i16, count: usize, entries: &[u8]) {
        self.field_header(id, TType::Map);
        self.map_begin(count, TType::Binary, TType::Binary);
        self.buf.extend_from_slice(entries);
    }

    /// Opens a nested struct field; caller must pair with `struct_end`.
    pub fn field_struct_begin(&mut self, id: i16) {
        self.field_header(id, TType::Struct);
        self.struct_begin();
    }

    /// Opens a list field. Caller then writes `count` raw elements.
    pub fn field_list_begin(&mut self, id: i16, count: usize, elem: TType) {
        self.field_header(id, TType::List);
        self.list_begin(count, elem);
    }

    /// Writes a list header outside any field (for nested collections).
    pub fn list_begin(&mut self, count: usize, elem: TType) {
        if count < 15 {
            self.buf.push(((count as u8) << 4) | elem as u8);
        } else {
            self.buf.push(0xf0 | elem as u8);
            varint::write_u64(&mut self.buf, count as u64);
        }
    }

    /// Writes a map header: varint size, then (if non-empty) a key/value type byte.
    pub fn map_begin(&mut self, count: usize, key: TType, value: TType) {
        varint::write_u64(&mut self.buf, count as u64);
        if count > 0 {
            self.buf.push(((key as u8) << 4) | value as u8);
        }
    }

    /// Writes a bare (element-position) value of each scalar kind.
    pub fn write_raw_i64(&mut self, value: i64) {
        varint::write_i64(&mut self.buf, value);
    }

    /// Writes a bare length-prefixed string.
    pub fn write_raw_string(&mut self, value: &str) {
        self.write_len_prefixed(value.as_bytes());
    }

    fn write_len_prefixed(&mut self, bytes: &[u8]) {
        varint::write_u64(&mut self.buf, bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// Streaming decoder for the compact protocol.
#[derive(Debug)]
pub struct CompactReader<'a> {
    input: &'a [u8],
    pos: usize,
    /// Last field id of every open struct scope, innermost at `depth - 1`.
    /// Inline, so that reading a record allocates nothing.
    last_field_id: [i16; MAX_DEPTH],
    depth: usize,
}

impl<'a> CompactReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        CompactReader {
            input,
            pos: 0,
            last_field_id: [0; MAX_DEPTH],
            depth: 0,
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed since the reader stood at `start` (an earlier
    /// [`position`](Self::position)), borrowed from the input.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.input[start..self.pos]
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize, reading: &'static str) -> ThriftResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ThriftError::UnexpectedEof { reading });
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn take_byte(&mut self, reading: &'static str) -> ThriftResult<u8> {
        let byte = *self
            .input
            .get(self.pos)
            .ok_or(ThriftError::UnexpectedEof { reading })?;
        self.pos += 1;
        Ok(byte)
    }

    #[inline]
    fn read_varint_u64(&mut self) -> ThriftResult<u64> {
        let (v, n) = varint::read_u64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    #[inline]
    fn read_varint_i64(&mut self) -> ThriftResult<i64> {
        let (v, n) = varint::read_i64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Enters a struct scope.
    #[inline]
    pub fn struct_begin(&mut self) -> ThriftResult<()> {
        if self.depth >= MAX_DEPTH {
            return Err(ThriftError::DepthLimitExceeded);
        }
        self.last_field_id[self.depth] = 0;
        self.depth += 1;
        Ok(())
    }

    /// Leaves a struct scope. Must be called after `field_begin` returned `None`.
    #[inline]
    pub fn struct_end(&mut self) {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("struct_end without struct_begin");
    }

    /// Reads the next field header, or `None` at the stop byte. A short-form
    /// header whose delta would carry the id past `i16::MAX` (a long-form id
    /// near the top, then any delta) is [`ThriftError::InvalidLength`] of
    /// that id, as a long-form id outside `i16` is.
    #[inline]
    pub fn field_begin(&mut self) -> ThriftResult<Option<FieldHeader>> {
        let byte = self.take_byte("field header")?;
        if byte == STOP {
            return Ok(None);
        }
        let ttype = TType::from_wire(byte & 0x0f)?;
        let delta = (byte >> 4) as i16;
        let scope = self
            .depth
            .checked_sub(1)
            .expect("field_begin outside a struct");
        let last = &mut self.last_field_id[scope];
        let id = if delta != 0 {
            last.checked_add(delta).ok_or(ThriftError::InvalidLength(
                i64::from(*last) + i64::from(delta),
            ))?
        } else {
            let (v, n) = varint::read_i64(&self.input[self.pos..])?;
            self.pos += n;
            i16::try_from(v).map_err(|_| ThriftError::InvalidLength(v))?
        };
        *last = id;
        Ok(Some(FieldHeader { id, ttype }))
    }

    /// Reads an `i8` value.
    #[inline]
    pub fn read_i8(&mut self) -> ThriftResult<i8> {
        Ok(self.take_byte("i8")? as i8)
    }

    /// Reads an `i16` value.
    pub fn read_i16(&mut self) -> ThriftResult<i16> {
        let v = self.read_varint_i64()?;
        i16::try_from(v).map_err(|_| ThriftError::InvalidLength(v))
    }

    /// Reads an `i32` value.
    pub fn read_i32(&mut self) -> ThriftResult<i32> {
        let v = self.read_varint_i64()?;
        i32::try_from(v).map_err(|_| ThriftError::InvalidLength(v))
    }

    /// Reads an `i64` value.
    #[inline]
    pub fn read_i64(&mut self) -> ThriftResult<i64> {
        self.read_varint_i64()
    }

    /// Reads a double value.
    pub fn read_double(&mut self) -> ThriftResult<f64> {
        let bytes = self.take(8, "double")?;
        Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte slice.
    #[inline]
    pub fn read_bytes(&mut self) -> ThriftResult<&'a [u8]> {
        let len = self.read_varint_u64()?;
        if len > self.remaining() as u64 {
            return Err(ThriftError::InvalidLength(len as i64));
        }
        self.take(len as usize, "binary body")
    }

    /// Reads a UTF-8 string.
    #[inline]
    pub fn read_string(&mut self) -> ThriftResult<&'a str> {
        let bytes = self.read_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| ThriftError::InvalidUtf8)
    }

    /// Reads `count` key/value string pairs, the body of a string→string
    /// map after [`map_begin`](Self::map_begin), accepting and rejecting
    /// exactly as `count` × two [`read_string`](Self::read_string) calls
    /// do, with the same first error. Hands `pair` each key and value, and
    /// the bytes the pair took, before their UTF-8 is known; a caller keeps
    /// what `pair` learned only if the read succeeds. Returns the bytes of
    /// all the pairs, borrowed.
    ///
    /// UTF-8 is checked once per run of strings whose length prefixes are
    /// single bytes, over the run's bytes, prefixes included. A byte below
    /// 0x80 is a whole character: it neither continues a multi-byte sequence
    /// nor starts one, so the run is UTF-8 exactly when each string in it
    /// is. A string behind a longer prefix is checked alone. When a string
    /// fails to read, the run before it is checked first: an invalid string
    /// comes earlier in the stream than the failure after it.
    pub fn read_string_pairs(
        &mut self,
        count: usize,
        mut pair: impl FnMut(&'a [u8], &'a [u8], usize),
    ) -> ThriftResult<&'a [u8]> {
        let start = self.pos;
        let mut run = self.pos;
        for _ in 0..count {
            let at = self.pos;
            let key = self.read_run_string(&mut run)?;
            let value = self.read_run_string(&mut run)?;
            pair(key, value, self.pos - at);
        }
        utf8(&self.input[run..self.pos])?;
        Ok(&self.input[start..self.pos])
    }

    /// One string of [`read_string_pairs`](Self::read_string_pairs): behind
    /// a one-byte prefix it joins the unchecked run that starts at `run`.
    #[inline]
    fn read_run_string(&mut self, run: &mut usize) -> ThriftResult<&'a [u8]> {
        match self.input.get(self.pos) {
            Some(&len) if len < 0x80 && usize::from(len) < self.remaining() => {
                let body = self.pos + 1;
                self.pos = body + usize::from(len);
                Ok(&self.input[body..self.pos])
            }
            _ => self.read_string_after_run(run),
        }
    }

    /// A string of [`read_string_pairs`](Self::read_string_pairs) that ends
    /// the run before it: the run is checked, then the string is read and
    /// checked alone, and a new run starts after it.
    fn read_string_after_run(&mut self, run: &mut usize) -> ThriftResult<&'a [u8]> {
        utf8(&self.input[*run..self.pos])?;
        let bytes = self.read_bytes()?;
        utf8(bytes)?;
        *run = self.pos;
        Ok(bytes)
    }

    /// Reads a list header: (element type, count).
    pub fn list_begin(&mut self) -> ThriftResult<(TType, usize)> {
        let byte = self.take_byte("list header")?;
        let elem = TType::from_wire(byte & 0x0f)?;
        let short = (byte >> 4) as usize;
        let count = if short == 15 {
            let n = self.read_varint_u64()?;
            if n > self.remaining() as u64 {
                return Err(ThriftError::InvalidLength(n as i64));
            }
            n as usize
        } else {
            short
        };
        Ok((elem, count))
    }

    /// Reads a map header: (key type, value type, count). Types are `Binary`
    /// for an empty map (they are absent on the wire).
    #[inline]
    pub fn map_begin(&mut self) -> ThriftResult<(TType, TType, usize)> {
        let count = self.read_varint_u64()?;
        if count == 0 {
            return Ok((TType::Binary, TType::Binary, 0));
        }
        if count > self.remaining() as u64 {
            return Err(ThriftError::InvalidLength(count as i64));
        }
        let byte = self.take_byte("map types")?;
        let key = TType::from_wire(byte >> 4)?;
        let value = TType::from_wire(byte & 0x0f)?;
        Ok((key, value, count as usize))
    }

    /// Reads a string→string map (the `event_details` shape).
    pub fn read_string_map(&mut self) -> ThriftResult<BTreeMap<String, String>> {
        let (_, _, count) = self.map_begin()?;
        let mut out = BTreeMap::new();
        for _ in 0..count {
            let k = self.read_string()?.to_owned();
            let v = self.read_string()?.to_owned();
            out.insert(k, v);
        }
        Ok(out)
    }

    /// Skips a value of the given wire type in *field position*.
    ///
    /// This is the mechanism that lets old readers process messages from new
    /// writers: any unrecognized field is structurally skipped.
    pub fn skip(&mut self, ttype: TType) -> ThriftResult<()> {
        self.skip_depth(ttype, 0, true)
    }

    fn skip_depth(&mut self, ttype: TType, depth: usize, field_position: bool) -> ThriftResult<()> {
        if depth > MAX_DEPTH {
            return Err(ThriftError::DepthLimitExceeded);
        }
        match ttype {
            TType::BoolTrue | TType::BoolFalse => {
                // In field position the value is in the header; in element
                // position it is one byte.
                if !field_position {
                    self.take_byte("bool element")?;
                }
            }
            TType::I8 => {
                self.take_byte("i8")?;
            }
            TType::I16 | TType::I32 | TType::I64 => {
                self.read_varint_i64()?;
            }
            TType::Double => {
                self.take(8, "double")?;
            }
            TType::Binary => {
                self.read_bytes()?;
            }
            TType::List | TType::Set => {
                let (elem, count) = self.list_begin()?;
                for _ in 0..count {
                    self.skip_depth(elem, depth + 1, false)?;
                }
            }
            TType::Map => {
                let (k, v, count) = self.map_begin()?;
                for _ in 0..count {
                    self.skip_depth(k, depth + 1, false)?;
                    self.skip_depth(v, depth + 1, false)?;
                }
            }
            TType::Struct => {
                self.struct_begin()?;
                while let Some(h) = self.field_begin()? {
                    self.skip_depth(h.ttype, depth + 1, true)?;
                }
                self.struct_end();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Skips one whole struct from the front of `bytes`; the bytes left.
    fn skip_struct(bytes: &[u8]) -> ThriftResult<usize> {
        let mut r = CompactReader::new(bytes);
        r.skip(TType::Struct)?;
        Ok(r.remaining())
    }

    /// One field of every wire kind, each followed by an `i64` sentinel
    /// field: a list long enough for the extended header, a map, a nested
    /// struct holding a list of structs, and field ids past the delta form.
    fn every_kind() -> Vec<u8> {
        let mut w = CompactWriter::new();
        w.struct_begin();
        let mut id = 0;
        let mut field = |w: &mut CompactWriter, write: &dyn Fn(&mut CompactWriter, i16)| {
            id += 1;
            write(w, id);
            id += 20;
            w.field_i64(id, i64::from(id));
        };
        field(&mut w, &|w, id| w.field_bool(id, true));
        field(&mut w, &|w, id| w.field_bool(id, false));
        field(&mut w, &|w, id| w.field_i8(id, -3));
        field(&mut w, &|w, id| w.field_i16(id, 1234));
        field(&mut w, &|w, id| w.field_i32(id, -99_999));
        field(&mut w, &|w, id| w.field_i64(id, 1 << 50));
        field(&mut w, &|w, id| w.field_double(id, 3.25));
        field(&mut w, &|w, id| w.field_string(id, "héllo"));
        field(&mut w, &|w, id| w.field_binary(id, &[0xff, 0x00]));
        field(&mut w, &|w, id| {
            w.field_list_begin(id, 100, TType::I64);
            (0..100).for_each(|v| w.write_raw_i64(v));
        });
        field(&mut w, &|w, id| {
            w.field_string_map(id, [("rank", "3"), ("url", "x")])
        });
        field(&mut w, &|w, id| {
            w.field_struct_begin(id);
            w.field_string(1, "nested");
            w.field_list_begin(2, 2, TType::Struct);
            for v in [5, 6] {
                w.struct_begin();
                w.field_i64(1, v);
                w.struct_end();
            }
            w.struct_end();
        });
        w.struct_end();
        w.into_bytes()
    }

    #[test]
    fn every_field_kind_is_skipped_exactly() {
        let bytes = every_kind();
        assert_eq!(skip_struct(&bytes), Ok(0));
        // Field by field: after each skip the stream is at the sentinel.
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        let mut fields = 0;
        while let Some(h) = r.field_begin().unwrap() {
            r.skip(h.ttype).unwrap();
            let sentinel = r.field_begin().unwrap().expect("a sentinel follows");
            assert_eq!((sentinel.id, sentinel.ttype), (h.id + 20, TType::I64));
            assert_eq!(r.read_i64().unwrap(), i64::from(sentinel.id));
            fields += 1;
        }
        r.struct_end();
        assert_eq!((fields, r.remaining()), (12, 0));
    }

    #[test]
    fn scalar_fields_read_back() {
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_i8(1, -3);
        w.field_i16(2, 1234);
        w.field_i32(3, -99_999);
        w.field_double(4, 3.25);
        w.field_string(5, "héllo");
        w.struct_end();
        let bytes = w.into_bytes();
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        assert_eq!(r.field_begin().unwrap().unwrap().ttype, TType::I8);
        assert_eq!(r.read_i8().unwrap(), -3);
        assert_eq!(r.field_begin().unwrap().unwrap().ttype, TType::I16);
        assert_eq!(r.read_i16().unwrap(), 1234);
        assert_eq!(r.field_begin().unwrap().unwrap().ttype, TType::I32);
        assert_eq!(r.read_i32().unwrap(), -99_999);
        assert_eq!(r.field_begin().unwrap().unwrap().ttype, TType::Double);
        assert_eq!(r.read_double().unwrap(), 3.25);
        assert_eq!(r.field_begin().unwrap().unwrap().ttype, TType::Binary);
        assert_eq!(r.read_string().unwrap(), "héllo");
        assert_eq!(r.field_begin().unwrap(), None);
        r.struct_end();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn field_id_delta_and_long_form() {
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_i64(1, 10);
        w.field_i64(2, 20); // delta 1
        w.field_i64(100, 30); // delta 98: long form
        w.field_i64(101, 40); // delta 1 again
        w.struct_end();
        let bytes = w.into_bytes();
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        let mut seen = Vec::new();
        while let Some(h) = r.field_begin().unwrap() {
            seen.push((h.id, r.read_i64().unwrap()));
        }
        r.struct_end();
        assert_eq!(seen, vec![(1, 10), (2, 20), (100, 30), (101, 40)]);
    }

    #[test]
    fn unknown_fields_are_skippable() {
        // "New writer" emits fields 1, 2 (a nested struct), 3.
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_i64(1, 7);
        w.field_struct_begin(2);
        w.field_string(1, "nested");
        w.field_list_begin(2, 2, TType::I64);
        w.write_raw_i64(5);
        w.write_raw_i64(6);
        w.struct_end();
        w.field_string(3, "tail");
        w.struct_end();
        let bytes = w.into_bytes();

        // "Old reader" only understands fields 1 and 3.
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        let mut got_one = None;
        let mut got_three = None;
        while let Some(h) = r.field_begin().unwrap() {
            match h.id {
                1 => got_one = Some(r.read_i64().unwrap()),
                3 => got_three = Some(r.read_string().unwrap().to_owned()),
                _ => r.skip(h.ttype).unwrap(),
            }
        }
        r.struct_end();
        assert_eq!(got_one, Some(7));
        assert_eq!(got_three.as_deref(), Some("tail"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = every_kind();
        for cut in 0..bytes.len() {
            assert!(
                skip_struct(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn hostile_length_is_rejected() {
        // Field header for Binary, then a varint length far beyond the buffer.
        let mut buf = vec![0x18]; // delta 1, type Binary
        varint::write_u64(&mut buf, 1 << 40);
        buf.push(0x00);
        let mut r = CompactReader::new(&buf);
        r.struct_begin().unwrap();
        let h = r.field_begin().unwrap().unwrap();
        assert_eq!(h.ttype, TType::Binary);
        assert!(matches!(r.read_bytes(), Err(ThriftError::InvalidLength(_))));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        // 100 nested structs exceeds MAX_DEPTH = 64.
        let mut buf = vec![0x1c; 100]; // delta 1, type Struct, 100 deep
        buf.extend(std::iter::repeat_n(STOP, 101));
        assert_eq!(skip_struct(&buf), Err(ThriftError::DepthLimitExceeded));
    }

    #[test]
    fn string_map_helper_round_trips() {
        let mut details = BTreeMap::new();
        details.insert("profile_id".to_string(), "12345".to_string());
        details.insert("rank".to_string(), "2".to_string());
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_string_map(7, &details);
        w.struct_end();
        let bytes = w.into_bytes();
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        let h = r.field_begin().unwrap().unwrap();
        assert_eq!(h.id, 7);
        assert_eq!(r.read_string_map().unwrap(), details);
    }

    #[test]
    fn a_delta_past_the_largest_field_id_is_an_error() {
        // Field 32767 in long form (an i64, 1), then a short-form header one
        // past it: an id no i16 holds.
        let payload = [0x06, 0xfe, 0xff, 0x03, 0x02, 0x16, 0x02, 0x00];
        let mut r = CompactReader::new(&payload);
        r.struct_begin().unwrap();
        let h = r.field_begin().unwrap().unwrap();
        assert_eq!((h.id, h.ttype), (i16::MAX, TType::I64));
        r.skip(h.ttype).unwrap();
        assert_eq!(r.field_begin(), Err(ThriftError::InvalidLength(32768)));
        assert_eq!(
            skip_struct(&payload),
            Err(ThriftError::InvalidLength(32768))
        );
    }

    /// `count` pairs read string by string, as `read_string_map` reads
    /// them: each pair, the bytes it took, and where the reader stopped.
    #[allow(clippy::type_complexity)]
    fn pairs_one_by_one(
        bytes: &[u8],
        count: usize,
    ) -> ThriftResult<(Vec<(&[u8], &[u8], usize)>, usize)> {
        let mut r = CompactReader::new(bytes);
        let mut pairs = Vec::new();
        for _ in 0..count {
            let at = r.position();
            let key = r.read_string()?.as_bytes();
            let value = r.read_string()?.as_bytes();
            pairs.push((key, value, r.position() - at));
        }
        Ok((pairs, r.position()))
    }

    #[allow(clippy::type_complexity)]
    fn pairs_in_runs(
        bytes: &[u8],
        count: usize,
    ) -> ThriftResult<(Vec<(&[u8], &[u8], usize)>, usize)> {
        let mut r = CompactReader::new(bytes);
        let mut pairs = Vec::new();
        let all = r.read_string_pairs(count, |k, v, n| pairs.push((k, v, n)))?;
        assert_eq!(all, &bytes[..r.position()]);
        Ok((pairs, r.position()))
    }

    /// A string of a pair: text, multi-byte text, bytes that may not be
    /// UTF-8 (lone continuations, cut sequences), or text of 128 bytes and
    /// more, whose length takes two bytes.
    fn arb_string() -> BoxedStrategy<Vec<u8>> {
        prop_oneof![
            "[a-z0-9_]{0,8}".prop_map(String::into_bytes).boxed(),
            "\\PC{0,6}".prop_map(String::into_bytes).boxed(),
            prop::collection::vec(
                prop_oneof![
                    Just(0x80u8),
                    Just(0xbf),
                    Just(0xc3),
                    Just(0xe4),
                    Just(0xff),
                    0u8..0x80
                ],
                0..6
            )
            .boxed(),
            (128usize..300).prop_map(|n| vec![b'x'; n]).boxed(),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_wise_ascii_is_ascii(
            bytes in prop::collection::vec(prop_oneof![0u8..0x80, 0u8..0x80, 0u8..0x80, any::<u8>()], 0..40),
        ) {
            prop_assert_eq!(is_ascii(&bytes), bytes.is_ascii());
        }

        /// Reading pairs in runs is reading them one string at a time: the
        /// same pairs and end, or the same first error — on pairs whose
        /// lengths may be non-minimal, cut anywhere, or short of `count`.
        #[test]
        fn string_pairs_read_as_one_string_at_a_time(
            strings in prop::collection::vec((arb_string(), any::<bool>()), 0..12),
            extra_count in 0usize..2,
            cut in any::<u16>(),
            flip in (any::<u16>(), any::<u8>()),
        ) {
            let mut bytes = Vec::new();
            for (s, overlong) in &strings {
                if *overlong && s.len() < 128 {
                    bytes.extend_from_slice(&[s.len() as u8 | 0x80, 0]);
                } else {
                    varint::write_u64(&mut bytes, s.len() as u64);
                }
                bytes.extend_from_slice(s);
            }
            let count = strings.len() / 2 + extra_count;
            let whole = bytes.clone();
            if !bytes.is_empty() {
                let at = usize::from(flip.0) % bytes.len();
                bytes[at] ^= flip.1;
            }
            for input in [&whole[..], &bytes[..], &whole[..usize::from(cut) % (whole.len() + 1)]] {
                prop_assert_eq!(pairs_in_runs(input, count), pairs_one_by_one(input, count));
            }
        }
    }

    #[test]
    fn empty_map_is_one_byte() {
        let empty: BTreeMap<String, String> = BTreeMap::new();
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_string_map(1, &empty);
        w.struct_end();
        // header + 0x00 size + stop
        assert_eq!(w.into_bytes().len(), 3);
    }
}
