//! Tuple serialization for spill run files.
//!
//! Spilled operator state round-trips through warehouse record files, so
//! rows need a self-describing byte codec. The format is deliberately
//! simple — one tag byte per value, big-endian fixed-width scalars,
//! length-prefixed strings and containers — and, crucially, **lossless**:
//! `decode(encode(t)) == t` for every tuple (doubles round-trip by bit
//! pattern, so NaN and signed zero survive). The spill byte-identity
//! guarantees rest on this.

use std::collections::BTreeMap;

use crate::error::{DataflowError, DataflowResult};
use crate::value::{Tuple, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_TUPLE: u8 = 6;
const TAG_BAG: u8 = 7;
const TAG_MAP: u8 = 8;

fn corrupt() -> DataflowError {
    DataflowError::TypeError {
        context: "wire decode",
    }
}

/// The encoding of `Value::Int(i)`.
pub(crate) fn encode_int(i: i64) -> [u8; 9] {
    let mut out = [TAG_INT; 9];
    out[1..].copy_from_slice(&i.to_be_bytes());
    out
}

/// Appends one value to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => out.extend_from_slice(&encode_int(*i)),
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Tuple(t) => {
            out.push(TAG_TUPLE);
            out.extend_from_slice(&(t.len() as u32).to_be_bytes());
            for v in t {
                encode_value(v, out);
            }
        }
        Value::Bag(b) => {
            out.push(TAG_BAG);
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            for t in b {
                out.extend_from_slice(&(t.len() as u32).to_be_bytes());
                for v in t {
                    encode_value(v, out);
                }
            }
        }
        Value::Map(m) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(m.len() as u32).to_be_bytes());
            for (k, v) in m {
                out.extend_from_slice(&(k.len() as u32).to_be_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_value(v, out);
            }
        }
    }
}

/// Encodes a whole row: a value count then each value.
pub fn encode_tuple(t: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 8 * t.len());
    out.extend_from_slice(&(t.len() as u32).to_be_bytes());
    for v in t {
        encode_value(v, out.as_mut());
    }
    out
}

/// A bounds-checked read position in wire bytes.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> DataflowResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(corrupt)?;
        if end > self.buf.len() {
            return Err(corrupt());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> DataflowResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DataflowResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> DataflowResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt())
    }

    fn value(&mut self) -> DataflowResult<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(i64::from_be_bytes(self.take(8)?.try_into().unwrap())),
            TAG_DOUBLE => Value::Double(f64::from_bits(u64::from_be_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            TAG_STR => Value::Str(self.str()?),
            TAG_TUPLE => {
                let n = self.u32()? as usize;
                let mut t = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    t.push(self.value()?);
                }
                Value::Tuple(t)
            }
            TAG_BAG => {
                let n = self.u32()? as usize;
                let mut b = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let w = self.u32()? as usize;
                    let mut t = Vec::with_capacity(w.min(1024));
                    for _ in 0..w {
                        t.push(self.value()?);
                    }
                    b.push(t);
                }
                Value::Bag(b)
            }
            TAG_MAP => {
                let n = self.u32()? as usize;
                let mut m = BTreeMap::new();
                for _ in 0..n {
                    let k = self.str()?;
                    let v = self.value()?;
                    m.insert(k, v);
                }
                Value::Map(m)
            }
            _ => return Err(corrupt()),
        })
    }
}

/// Decodes one value from the front of `buf`, returning it and the number
/// of bytes consumed. Used by the spill codec to embed values in larger
/// records.
pub(crate) fn decode_value_prefix(buf: &[u8]) -> DataflowResult<(Value, usize)> {
    let mut c = Cursor { buf, pos: 0 };
    let v = c.value()?;
    Ok((v, c.pos))
}

/// Decodes a row produced by [`encode_tuple`].
pub fn decode_tuple(buf: &[u8]) -> DataflowResult<Tuple> {
    let mut c = Cursor { buf, pos: 0 };
    let n = c.u32()? as usize;
    let mut t = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        t.push(c.value()?);
    }
    if c.pos != buf.len() {
        return Err(corrupt());
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_tuple() -> Tuple {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(7));
        m.insert("s".to_string(), Value::str("v"));
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(1.5),
            Value::str("héllo"),
            Value::Tuple(vec![Value::Int(1), Value::str("x")]),
            Value::Bag(vec![
                vec![Value::Int(1)],
                vec![Value::Null, Value::Bool(false)],
            ]),
            Value::Map(m),
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        let t = sample_tuple();
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn doubles_roundtrip_by_bits() {
        for d in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let t = vec![Value::Double(d)];
            let back = decode_tuple(&encode_tuple(&t)).unwrap();
            match &back[0] {
                Value::Double(b) => assert_eq!(b.to_bits(), d.to_bits()),
                other => panic!("expected double, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let enc = encode_tuple(&sample_tuple());
        assert!(decode_tuple(&enc[..enc.len() - 1]).is_err());
        assert!(decode_tuple(&[0xff, 0, 0, 0]).is_err());
        // Trailing junk is rejected, not silently ignored.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_tuple(&padded).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // The vendored proptest has no f64 Arbitrary; drawing raw bits
            // covers strictly more doubles (every NaN payload) anyway.
            any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
            "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Tuple),
                prop::collection::vec(prop::collection::vec(inner.clone(), 0..3), 0..3)
                    .prop_map(Value::Bag),
                prop::collection::btree_map("[a-z]{1,4}", inner, 0..3).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        /// Any tuple of any nesting round-trips exactly.
        #[test]
        fn roundtrip_is_lossless(t in prop::collection::vec(arb_value(), 0..6)) {
            let back = decode_tuple(&encode_tuple(&t)).unwrap();
            prop_assert_eq!(back.len(), t.len());
            for (a, b) in t.iter().zip(&back) {
                // Compare via encoding: Value::eq treats NaN==NaN already
                // (total_cmp), but bit-compare is the stronger claim.
                let mut ea = Vec::new();
                let mut eb = Vec::new();
                encode_value(a, &mut ea);
                encode_value(b, &mut eb);
                prop_assert_eq!(ea, eb);
            }
        }
    }
}
