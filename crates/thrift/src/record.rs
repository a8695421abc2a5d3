//! Typed record trait: the contract generated code would fulfill.
//!
//! In the paper, Elephant Bird generates Hadoop readers/writers from Thrift
//! IDL. Here, types implement [`ThriftRecord`] by hand (the codebase is small
//! enough that a codegen step would be ceremony), but the contract is the
//! same: encode to the compact protocol, decode tolerating unknown fields.

use crate::error::ThriftResult;
use crate::protocol::{CompactReader, CompactWriter};

/// A message that can be serialized with the compact protocol.
pub trait ThriftRecord: Sized {
    /// Writes `self` as a struct (including begin/end markers) into `w`.
    fn write(&self, w: &mut CompactWriter);

    /// Reads a struct from `r`, skipping unrecognized fields.
    fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self>;

    /// Appends the encoding of `self` to `buf` without a fresh allocation —
    /// the hot-loop form: callers encoding a stream of records keep one
    /// buffer (clearing or draining it between uses) instead of paying one
    /// `Vec` per record. The appended bytes are identical to
    /// [`ThriftRecord::to_bytes`].
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = CompactWriter::over_buffer(std::mem::take(buf));
        self.write(&mut w);
        *buf = w.into_bytes();
    }

    /// Serializes to a fresh byte vector holding exactly the encoding:
    /// `capacity() == len()`. A payload is kept — in a `LogEntry`, in every
    /// staged copy of it — far longer than it takes to encode, so the slack
    /// a growing buffer ends with (512 bytes of capacity under a 308-byte
    /// client event) would be carried by every one of them. The record is
    /// encoded into a per-thread scratch buffer ([`encode_into`], so the
    /// same bytes) and copied out once.
    ///
    /// [`encode_into`]: ThriftRecord::encode_into
    fn to_bytes(&self) -> Vec<u8> {
        thread_local! {
            static SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
        }
        // Taken, not borrowed: a record whose `write` serializes another
        // through `to_bytes` finds an empty scratch, not a locked one.
        let mut scratch = SCRATCH.take();
        scratch.clear();
        self.encode_into(&mut scratch);
        let bytes = scratch.as_slice().to_vec();
        SCRATCH.set(scratch);
        bytes
    }

    /// Deserializes from `bytes`, requiring full consumption is *not*
    /// enforced so records can be streamed back to back.
    fn from_bytes(bytes: &[u8]) -> ThriftResult<Self> {
        let mut r = CompactReader::new(bytes);
        Self::read(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ThriftError;

    /// Version 1 of a message: two fields.
    #[derive(Debug, PartialEq)]
    struct PointV1 {
        x: i64,
        y: i64,
    }

    impl ThriftRecord for PointV1 {
        fn write(&self, w: &mut CompactWriter) {
            w.struct_begin();
            w.field_i64(1, self.x);
            w.field_i64(2, self.y);
            w.struct_end();
        }

        fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self> {
            r.struct_begin()?;
            let (mut x, mut y) = (None, None);
            while let Some(h) = r.field_begin()? {
                match h.id {
                    1 => x = Some(r.read_i64()?),
                    2 => y = Some(r.read_i64()?),
                    _ => r.skip(h.ttype)?,
                }
            }
            r.struct_end();
            Ok(PointV1 {
                x: x.ok_or(ThriftError::MissingField {
                    strukt: "PointV1",
                    field_id: 1,
                })?,
                y: y.ok_or(ThriftError::MissingField {
                    strukt: "PointV1",
                    field_id: 2,
                })?,
            })
        }
    }

    /// Version 2 adds an optional label — old readers must still work.
    #[derive(Debug, PartialEq)]
    struct PointV2 {
        x: i64,
        y: i64,
        label: Option<String>,
    }

    impl ThriftRecord for PointV2 {
        fn write(&self, w: &mut CompactWriter) {
            w.struct_begin();
            w.field_i64(1, self.x);
            w.field_i64(2, self.y);
            if let Some(label) = &self.label {
                w.field_string(3, label);
            }
            w.struct_end();
        }

        fn read(r: &mut CompactReader<'_>) -> ThriftResult<Self> {
            r.struct_begin()?;
            let (mut x, mut y, mut label) = (None, None, None);
            while let Some(h) = r.field_begin()? {
                match h.id {
                    1 => x = Some(r.read_i64()?),
                    2 => y = Some(r.read_i64()?),
                    3 => label = Some(r.read_string()?.to_owned()),
                    _ => r.skip(h.ttype)?,
                }
            }
            r.struct_end();
            Ok(PointV2 {
                x: x.unwrap_or(0),
                y: y.unwrap_or(0),
                label,
            })
        }
    }

    #[test]
    fn round_trip_typed_record() {
        let p = PointV1 { x: -4, y: 900 };
        assert_eq!(PointV1::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn new_writer_old_reader() {
        let p2 = PointV2 {
            x: 1,
            y: 2,
            label: Some("home".into()),
        };
        let p1 = PointV1::from_bytes(&p2.to_bytes()).unwrap();
        assert_eq!(p1, PointV1 { x: 1, y: 2 });
    }

    #[test]
    fn old_writer_new_reader() {
        let p1 = PointV1 { x: 1, y: 2 };
        let p2 = PointV2::from_bytes(&p1.to_bytes()).unwrap();
        assert_eq!(
            p2,
            PointV2 {
                x: 1,
                y: 2,
                label: None
            }
        );
    }

    #[test]
    fn missing_required_field_is_an_error() {
        // An empty struct (just the stop byte).
        let bytes = vec![0x00];
        assert!(matches!(
            PointV1::from_bytes(&bytes),
            Err(ThriftError::MissingField { field_id: 1, .. })
        ));
    }

    #[test]
    fn records_stream_back_to_back() {
        let mut buf = Vec::new();
        for i in 0..5 {
            buf.extend_from_slice(&PointV1 { x: i, y: -i }.to_bytes());
        }
        let mut r = CompactReader::new(&buf);
        for i in 0..5 {
            let p = PointV1::read(&mut r).unwrap();
            assert_eq!(p, PointV1 { x: i, y: -i });
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn encode_into_appends_and_reuses_one_buffer() {
        let mut buf = vec![0xAA, 0xBB];
        let p = PointV1 { x: 7, y: -9 };
        p.encode_into(&mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB], "existing bytes preserved");
        assert_eq!(&buf[2..], p.to_bytes().as_slice());
        // Reuse across a stream: clear between records, capacity persists.
        buf.clear();
        let cap = buf.capacity();
        p.encode_into(&mut buf);
        assert!(buf.capacity() >= cap);
        assert_eq!(PointV1::from_bytes(&buf).unwrap(), p);
    }

    #[test]
    fn to_bytes_hands_out_a_buffer_with_no_slack() {
        // Long enough that a buffer grown by doubling ends half empty.
        let p = PointV2 {
            x: 1,
            y: 2,
            label: Some("x".repeat(300)),
        };
        for _ in 0..2 {
            let bytes = p.to_bytes();
            assert_eq!(bytes.capacity(), bytes.len());
            let mut appended = Vec::new();
            p.encode_into(&mut appended);
            assert_eq!(bytes, appended);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn point_v2() -> impl Strategy<Value = PointV2> {
            // An empty generated label stands in for `None`, so both arms of
            // the optional field are exercised.
            (any::<i64>(), any::<i64>(), "[a-z:_]{0,24}").prop_map(|(x, y, label)| PointV2 {
                x,
                y,
                label: (!label.is_empty()).then_some(label),
            })
        }

        proptest! {
            /// `to_bytes` and `encode_into` must produce identical bytes for
            /// any record, including when the buffer is reused mid-stream.
            #[test]
            fn encode_into_matches_to_bytes(points in proptest::collection::vec(point_v2(), 0..16)) {
                let mut streamed = Vec::new();
                let mut scratch = Vec::new();
                let mut concatenated = Vec::new();
                for p in &points {
                    scratch.clear();
                    p.encode_into(&mut scratch);
                    prop_assert_eq!(&scratch, &p.to_bytes());
                    streamed.extend_from_slice(&scratch);
                    // Appending without clearing also matches concatenation.
                    p.encode_into(&mut concatenated);
                }
                prop_assert_eq!(&streamed, &concatenated);
                let mut r = CompactReader::new(&streamed);
                for p in &points {
                    prop_assert_eq!(&PointV2::read(&mut r).unwrap(), p);
                }
                prop_assert_eq!(r.remaining(), 0);
            }
        }
    }
}
