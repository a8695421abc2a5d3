//! Wire types and the dynamic value model.
//!
//! [`TValue`] lets tooling that has no compiled schema — the client event
//! catalog's sampler, ad hoc log scrapers — decode, inspect, and re-encode
//! arbitrary messages. This mirrors how the paper's analytics engineers
//! "induced the message format manually by writing Pig jobs that scraped
//! large numbers of messages" before unified logging made it unnecessary.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{ThriftError, ThriftResult};

/// Thrift wire types carried in field headers (compact-protocol numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TType {
    /// Boolean `true` (compact protocol folds the value into the type nibble).
    BoolTrue = 0x01,
    /// Boolean `false`.
    BoolFalse = 0x02,
    /// 8-bit signed integer.
    I8 = 0x03,
    /// 16-bit signed integer (zigzag varint on the wire).
    I16 = 0x04,
    /// 32-bit signed integer (zigzag varint on the wire).
    I32 = 0x05,
    /// 64-bit signed integer (zigzag varint on the wire).
    I64 = 0x06,
    /// IEEE-754 double, fixed 8 bytes little-endian.
    Double = 0x07,
    /// Length-prefixed UTF-8 string or binary blob.
    Binary = 0x08,
    /// Homogeneous list.
    List = 0x09,
    /// Set (encoded identically to a list).
    Set = 0x0a,
    /// Map with homogeneous key and value types.
    Map = 0x0b,
    /// Nested struct.
    Struct = 0x0c,
}

impl TType {
    /// Decodes a type nibble from the wire.
    #[inline]
    pub fn from_wire(b: u8) -> ThriftResult<TType> {
        Ok(match b {
            0x01 => TType::BoolTrue,
            0x02 => TType::BoolFalse,
            0x03 => TType::I8,
            0x04 => TType::I16,
            0x05 => TType::I32,
            0x06 => TType::I64,
            0x07 => TType::Double,
            0x08 => TType::Binary,
            0x09 => TType::List,
            0x0a => TType::Set,
            0x0b => TType::Map,
            0x0c => TType::Struct,
            other => return Err(ThriftError::InvalidType(other)),
        })
    }

    /// True for the two boolean wire types.
    pub fn is_bool(self) -> bool {
        matches!(self, TType::BoolTrue | TType::BoolFalse)
    }
}

impl fmt::Display for TType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TType::BoolTrue | TType::BoolFalse => "bool",
            TType::I8 => "i8",
            TType::I16 => "i16",
            TType::I32 => "i32",
            TType::I64 => "i64",
            TType::Double => "double",
            TType::Binary => "string",
            TType::List => "list",
            TType::Set => "set",
            TType::Map => "map",
            TType::Struct => "struct",
        };
        f.write_str(name)
    }
}

/// A dynamically-typed Thrift value.
///
/// Field identifiers key the `Struct` variant; map keys are restricted to
/// values with a total order (enforced by construction: `TValue` itself is
/// `Ord` via its derived implementation on the `BTreeMap` contents).
#[derive(Debug, Clone, PartialEq)]
pub enum TValue {
    /// Boolean.
    Bool(bool),
    /// 8-bit integer.
    I8(i8),
    /// 16-bit integer.
    I16(i16),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Double-precision float.
    Double(f64),
    /// UTF-8 string.
    String(String),
    /// Raw bytes.
    Binary(Vec<u8>),
    /// Homogeneous list.
    List(Vec<TValue>),
    /// Map from string keys to values. The paper's `event_details` field is
    /// exactly this shape, so string keys cover every use in this repo.
    Map(BTreeMap<String, TValue>),
    /// Nested struct: (field id, value) pairs sorted by field id.
    Struct(Vec<(i16, TValue)>),
}

impl TValue {
    /// The wire type this value encodes as.
    pub fn ttype(&self) -> TType {
        match self {
            TValue::Bool(true) => TType::BoolTrue,
            TValue::Bool(false) => TType::BoolFalse,
            TValue::I8(_) => TType::I8,
            TValue::I16(_) => TType::I16,
            TValue::I32(_) => TType::I32,
            TValue::I64(_) => TType::I64,
            TValue::Double(_) => TType::Double,
            TValue::String(_) | TValue::Binary(_) => TType::Binary,
            TValue::List(_) => TType::List,
            TValue::Map(_) => TType::Map,
            TValue::Struct(_) => TType::Struct,
        }
    }

    /// Returns the string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload widened to `i64`, if numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            TValue::I8(v) => Some(i64::from(*v)),
            TValue::I16(v) => Some(i64::from(*v)),
            TValue::I32(v) => Some(i64::from(*v)),
            TValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a struct field by id.
    pub fn field(&self, id: i16) -> Option<&TValue> {
        match self {
            TValue::Struct(fields) => fields.iter().find(|(fid, _)| *fid == id).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for TValue {
    /// Human-oriented rendering used by the client event catalog's sample
    /// viewer. Not a serialization format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TValue::Bool(v) => write!(f, "{v}"),
            TValue::I8(v) => write!(f, "{v}"),
            TValue::I16(v) => write!(f, "{v}"),
            TValue::I32(v) => write!(f, "{v}"),
            TValue::I64(v) => write!(f, "{v}"),
            TValue::Double(v) => write!(f, "{v}"),
            TValue::String(s) => write!(f, "{s:?}"),
            TValue::Binary(b) => write!(f, "<{} bytes>", b.len()),
            TValue::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            TValue::Map(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                f.write_str("}")
            }
            TValue::Struct(fields) => {
                f.write_str("struct {")?;
                for (i, (id, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{id}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttype_wire_round_trip() {
        for b in 0x01..=0x0cu8 {
            let t = TType::from_wire(b).unwrap();
            assert_eq!(t as u8, b);
        }
        assert!(TType::from_wire(0x00).is_err());
        assert!(TType::from_wire(0x0d).is_err());
        assert!(TType::from_wire(0xff).is_err());
    }

    #[test]
    fn bool_folds_into_type() {
        assert_eq!(TValue::Bool(true).ttype(), TType::BoolTrue);
        assert_eq!(TValue::Bool(false).ttype(), TType::BoolFalse);
        assert!(TType::BoolTrue.is_bool());
        assert!(!TType::I64.is_bool());
    }

    #[test]
    fn field_lookup() {
        let s = TValue::Struct(vec![(1, TValue::I64(7)), (3, TValue::String("x".into()))]);
        assert_eq!(s.field(1).and_then(TValue::as_i64), Some(7));
        assert_eq!(s.field(3).and_then(TValue::as_str), Some("x"));
        assert!(s.field(2).is_none());
        assert!(TValue::I64(0).field(1).is_none());
    }

    #[test]
    fn widening_integer_accessor() {
        assert_eq!(TValue::I8(-5).as_i64(), Some(-5));
        assert_eq!(TValue::I16(300).as_i64(), Some(300));
        assert_eq!(TValue::I32(-70000).as_i64(), Some(-70000));
        assert_eq!(TValue::String("7".into()).as_i64(), None);
    }

    #[test]
    fn display_renders_nested() {
        let mut m = BTreeMap::new();
        m.insert("rank".to_string(), TValue::I32(3));
        let v = TValue::Struct(vec![(7, TValue::Map(m))]);
        assert_eq!(v.to_string(), "struct {7: {\"rank\": 3}}");
    }
}
