//! A Thrift-style serialization substrate.
//!
//! The paper serializes all client events as Thrift messages (§3): a compact,
//! tagged, language-neutral encoding that supports *schema evolution* —
//! messages "can be augmented with additional fields in a completely
//! transparent way". This crate reproduces the properties the logging
//! infrastructure depends on:
//!
//! * a **compact binary protocol** ([`protocol`]) with field-tag deltas,
//!   LEB128 varints and zigzag integers, modeled after the Apache Thrift
//!   compact protocol;
//! * **forward/backward compatibility**: readers skip unknown fields, writers
//!   omit unset optional fields ([`record::ThriftRecord`]);
//! * **zero-copy decoding**: [`protocol::CompactReader`] hands out strings
//!   and binaries borrowed from the record and allocates nothing itself, so
//!   a reader can walk a struct field by field and copy only what it keeps;
//! * a **dynamic value model** ([`value::TValue`]) so tooling (the client
//!   event catalog, log scrapers) can inspect messages without compiled
//!   schemas; and
//! * a **schema registry** ([`schema`]) mapping category names to message
//!   descriptors, standing in for Elephant Bird's generated readers/writers.
//!
//! # Example
//!
//! ```
//! use uli_thrift::protocol::{CompactWriter, CompactReader};
//! use uli_thrift::value::TType;
//!
//! let mut w = CompactWriter::new();
//! w.struct_begin();
//! w.field_i64(1, 42);             // user_id
//! w.field_string(2, "s-abc");     // session_id
//! w.struct_end();
//! let bytes = w.into_bytes();
//!
//! let mut r = CompactReader::new(&bytes);
//! r.struct_begin().unwrap();
//! let f = r.field_begin().unwrap().unwrap();
//! assert_eq!((f.id, f.ttype), (1, TType::I64));
//! assert_eq!(r.read_i64().unwrap(), 42);
//! ```

pub mod error;
pub mod protocol;
pub mod record;
pub mod schema;
pub mod value;
pub mod varint;

pub use error::{ThriftError, ThriftResult};
pub use protocol::{CompactReader, CompactWriter, FieldHeader};
pub use record::ThriftRecord;
pub use schema::{FieldDescriptor, Requiredness, SchemaRegistry, StructDescriptor};
pub use value::{TType, TValue};
