//! Thrift wire types: the type nibble every field header and collection
//! header carries, which is all a reader needs to skip a value it does not
//! know ([`CompactReader::skip`](crate::protocol::CompactReader::skip)).

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
}
