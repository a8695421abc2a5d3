//! Session sequences (§4): the pre-materialized digests of user sessions.

pub mod dictionary;
pub mod materialize;
pub mod sequence;
pub mod sessionize;

pub use dictionary::EventDictionary;
pub use materialize::{day_dir, dictionary_dir, sequences_dir, MaterializeReport, Materializer};
pub use sequence::{
    Sequence, SessionRef, SessionSequence, SessionSequenceLoader, SESSION_SEQUENCE_KINDS,
    SESSION_SEQUENCE_SCHEMA,
};
pub use sessionize::{SessionEvent, SessionRecord, Sessionizer};
