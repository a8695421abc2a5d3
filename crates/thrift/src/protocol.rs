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
use crate::value::{TType, TValue};
use crate::varint;

/// Stop byte terminating a struct's field list.
const STOP: u8 = 0x00;
/// Maximum nesting depth accepted when decoding (guards hostile input).
const MAX_DEPTH: usize = 64;

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
/// The writer is infallible: it only appends to an in-memory buffer.
#[derive(Debug, Default)]
pub struct CompactWriter {
    buf: Vec<u8>,
    last_field_id: Vec<i16>,
}

impl CompactWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with a pre-sized buffer, for hot encode loops.
    pub fn with_capacity(cap: usize) -> Self {
        CompactWriter {
            buf: Vec::with_capacity(cap),
            last_field_id: Vec::new(),
        }
    }

    /// Creates a writer that appends to an existing buffer, so a caller
    /// encoding a stream of records can reuse one allocation throughout.
    /// Existing contents are preserved; [`CompactWriter::into_bytes`] hands
    /// the buffer back.
    pub fn over_buffer(buf: Vec<u8>) -> Self {
        CompactWriter {
            buf,
            last_field_id: Vec::new(),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(
            self.last_field_id.is_empty(),
            "unbalanced struct_begin/struct_end"
        );
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
        self.last_field_id.push(0);
    }

    /// Ends the current struct scope, emitting the stop byte.
    pub fn struct_end(&mut self) {
        self.buf.push(STOP);
        self.last_field_id
            .pop()
            .expect("struct_end without struct_begin");
    }

    fn field_header(&mut self, id: i16, ttype: TType) {
        let last = self
            .last_field_id
            .last_mut()
            .expect("field outside a struct");
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

    /// Writes a string→string map field (the shape of `event_details`).
    pub fn field_string_map(&mut self, id: i16, entries: &BTreeMap<String, String>) {
        self.field_header(id, TType::Map);
        self.map_begin(entries.len(), TType::Binary, TType::Binary);
        for (k, v) in entries {
            self.write_len_prefixed(k.as_bytes());
            self.write_len_prefixed(v.as_bytes());
        }
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

    /// Writes a dynamic [`TValue`] as field `id`.
    pub fn field_value(&mut self, id: i16, value: &TValue) {
        self.field_header(id, value.ttype());
        self.write_value_body(value);
    }

    fn write_value_body(&mut self, value: &TValue) {
        match value {
            // Booleans in field position carry no body; in element position
            // they are a full byte.
            TValue::Bool(_) => {}
            TValue::I8(v) => self.buf.push(*v as u8),
            TValue::I16(v) => {
                varint::write_i64(&mut self.buf, i64::from(*v));
            }
            TValue::I32(v) => {
                varint::write_i64(&mut self.buf, i64::from(*v));
            }
            TValue::I64(v) => {
                varint::write_i64(&mut self.buf, *v);
            }
            TValue::Double(v) => self.buf.extend_from_slice(&v.to_le_bytes()),
            TValue::String(s) => self.write_len_prefixed(s.as_bytes()),
            TValue::Binary(b) => self.write_len_prefixed(b),
            TValue::List(items) => {
                let elem = items.first().map_or(TType::Binary, TValue::ttype);
                self.list_begin(items.len(), elem);
                for item in items {
                    self.write_element(item);
                }
            }
            TValue::Map(entries) => {
                let vt = entries.values().next().map_or(TType::Binary, TValue::ttype);
                self.map_begin(entries.len(), TType::Binary, vt);
                for (k, v) in entries {
                    self.write_len_prefixed(k.as_bytes());
                    self.write_element(v);
                }
            }
            TValue::Struct(fields) => {
                self.struct_begin();
                for (id, v) in fields {
                    self.field_value(*id, v);
                }
                self.struct_end();
            }
        }
    }

    /// Writes a value in element position (lists/map values), where booleans
    /// occupy a full byte.
    fn write_element(&mut self, value: &TValue) {
        if let TValue::Bool(b) = value {
            self.buf.push(if *b { 1 } else { 0 });
        } else {
            self.write_value_body(value);
        }
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
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed since the reader stood at `start` (an earlier
    /// [`position`](Self::position)), borrowed from the input.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.input[start..self.pos]
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    fn take(&mut self, n: usize, reading: &'static str) -> ThriftResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ThriftError::UnexpectedEof { reading });
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_byte(&mut self, reading: &'static str) -> ThriftResult<u8> {
        Ok(self.take(1, reading)?[0])
    }

    fn read_varint_u64(&mut self) -> ThriftResult<u64> {
        let (v, n) = varint::read_u64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    fn read_varint_i64(&mut self) -> ThriftResult<i64> {
        let (v, n) = varint::read_i64(&self.input[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Enters a struct scope.
    pub fn struct_begin(&mut self) -> ThriftResult<()> {
        if self.depth >= MAX_DEPTH {
            return Err(ThriftError::DepthLimitExceeded);
        }
        self.last_field_id[self.depth] = 0;
        self.depth += 1;
        Ok(())
    }

    /// Leaves a struct scope. Must be called after `field_begin` returned `None`.
    pub fn struct_end(&mut self) {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("struct_end without struct_begin");
    }

    /// Reads the next field header, or `None` at the stop byte.
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
            *last + delta
        } else {
            let (v, n) = varint::read_i64(&self.input[self.pos..])?;
            self.pos += n;
            i16::try_from(v).map_err(|_| ThriftError::InvalidLength(v))?
        };
        *last = id;
        Ok(Some(FieldHeader { id, ttype }))
    }

    /// Reads an `i8` value.
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
    pub fn read_i64(&mut self) -> ThriftResult<i64> {
        self.read_varint_i64()
    }

    /// Reads a double value.
    pub fn read_double(&mut self) -> ThriftResult<f64> {
        let bytes = self.take(8, "double")?;
        Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> ThriftResult<&'a [u8]> {
        let len = self.read_varint_u64()?;
        if len > self.remaining() as u64 {
            return Err(ThriftError::InvalidLength(len as i64));
        }
        self.take(len as usize, "binary body")
    }

    /// Reads a UTF-8 string.
    pub fn read_string(&mut self) -> ThriftResult<&'a str> {
        let bytes = self.read_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| ThriftError::InvalidUtf8)
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

    /// Decodes a whole struct into a dynamic [`TValue::Struct`].
    pub fn read_struct_value(&mut self) -> ThriftResult<TValue> {
        self.read_value_depth(TType::Struct, 0, true, false)
    }

    fn read_value_depth(
        &mut self,
        ttype: TType,
        depth: usize,
        field_position: bool,
        field_bool_value: bool,
    ) -> ThriftResult<TValue> {
        if depth > MAX_DEPTH {
            return Err(ThriftError::DepthLimitExceeded);
        }
        Ok(match ttype {
            TType::BoolTrue | TType::BoolFalse => {
                if field_position {
                    TValue::Bool(field_bool_value)
                } else {
                    TValue::Bool(self.take_byte("bool element")? != 0)
                }
            }
            TType::I8 => TValue::I8(self.read_i8()?),
            TType::I16 => TValue::I16(self.read_i16()?),
            TType::I32 => TValue::I32(self.read_i32()?),
            TType::I64 => TValue::I64(self.read_i64()?),
            TType::Double => TValue::Double(self.read_double()?),
            TType::Binary => {
                let bytes = self.read_bytes()?;
                match std::str::from_utf8(bytes) {
                    Ok(s) => TValue::String(s.to_owned()),
                    Err(_) => TValue::Binary(bytes.to_vec()),
                }
            }
            TType::List | TType::Set => {
                let (elem, count) = self.list_begin()?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.read_value_depth(elem, depth + 1, false, false)?);
                }
                TValue::List(items)
            }
            TType::Map => {
                let (kt, vt, count) = self.map_begin()?;
                let mut entries = BTreeMap::new();
                for _ in 0..count {
                    let key = match self.read_value_depth(kt, depth + 1, false, false)? {
                        TValue::String(s) => s,
                        other => other.to_string(),
                    };
                    entries.insert(key, self.read_value_depth(vt, depth + 1, false, false)?);
                }
                TValue::Map(entries)
            }
            TType::Struct => {
                self.struct_begin()?;
                let mut fields = Vec::new();
                while let Some(h) = self.field_begin()? {
                    let v = self.read_value_depth(
                        h.ttype,
                        depth + 1,
                        true,
                        h.ttype == TType::BoolTrue,
                    )?;
                    fields.push((h.id, v));
                }
                self.struct_end();
                TValue::Struct(fields)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &TValue) -> TValue {
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_value(1, value);
        w.struct_end();
        let bytes = w.into_bytes();
        let mut r = CompactReader::new(&bytes);
        let decoded = r.read_struct_value().unwrap();
        assert_eq!(r.remaining(), 0, "all bytes consumed");
        decoded.field(1).unwrap().clone()
    }

    #[test]
    fn scalar_fields_round_trip() {
        assert_eq!(round_trip(&TValue::Bool(true)), TValue::Bool(true));
        assert_eq!(round_trip(&TValue::Bool(false)), TValue::Bool(false));
        assert_eq!(round_trip(&TValue::I8(-3)), TValue::I8(-3));
        assert_eq!(round_trip(&TValue::I16(1234)), TValue::I16(1234));
        assert_eq!(round_trip(&TValue::I32(-99999)), TValue::I32(-99999));
        assert_eq!(round_trip(&TValue::I64(1 << 50)), TValue::I64(1 << 50));
        assert_eq!(round_trip(&TValue::Double(3.25)), TValue::Double(3.25));
        assert_eq!(
            round_trip(&TValue::String("héllo".into())),
            TValue::String("héllo".into())
        );
    }

    #[test]
    fn nested_struct_round_trips() {
        let inner = TValue::Struct(vec![(1, TValue::I64(9)), (2, TValue::Bool(true))]);
        let outer = TValue::Struct(vec![(5, inner.clone()), (6, TValue::String("x".into()))]);
        assert_eq!(round_trip(&outer), outer);
    }

    #[test]
    fn list_and_map_round_trip() {
        let list = TValue::List(vec![TValue::I64(1), TValue::I64(2), TValue::I64(3)]);
        assert_eq!(round_trip(&list), list);

        let mut m = BTreeMap::new();
        m.insert("url".to_string(), TValue::String("https://t.co/x".into()));
        m.insert("rank".to_string(), TValue::String("3".into()));
        let map = TValue::Map(m);
        assert_eq!(round_trip(&map), map);
    }

    #[test]
    fn long_list_uses_extended_header() {
        let items: Vec<TValue> = (0..100).map(TValue::I64).collect();
        let list = TValue::List(items);
        assert_eq!(round_trip(&list), list);
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
    fn truncated_struct_errors() {
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_string(1, "hello world");
        w.struct_end();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = CompactReader::new(&bytes[..cut]);
            assert!(r.read_struct_value().is_err(), "cut at {cut} must fail");
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
        let mut r = CompactReader::new(&buf);
        assert!(matches!(
            r.read_struct_value(),
            Err(ThriftError::DepthLimitExceeded)
        ));
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
    fn empty_map_is_one_byte() {
        let empty = BTreeMap::new();
        let mut w = CompactWriter::new();
        w.struct_begin();
        w.field_string_map(1, &empty);
        w.struct_end();
        // header + 0x00 size + stop
        assert_eq!(w.into_bytes().len(), 3);
    }
}
