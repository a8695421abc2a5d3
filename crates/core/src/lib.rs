//! Unified client events and session sequences — the paper's contribution.
//!
//! This crate implements §3 and §4 of *The Unified Logging Infrastructure
//! for Data Analytics at Twitter* (VLDB 2012):
//!
//! * [`event`]: the six-level hierarchical event namespace
//!   (`client:page:section:component:element:action`, Table 1), wildcard
//!   patterns for slicing it (`web:home:mentions:*`, `*:profile_click`),
//!   and the event-initiator taxonomy;
//! * [`client_event`]: the `ClientEvent` Thrift message (Table 2) with
//!   consistent `user_id` / `session_id` / `ip` / `timestamp` semantics and
//!   free-form key-value `event_details`, its one typed walk
//!   ([`EventRow::read`], which skips the fields it does not know), and the
//!   dataflow loader, which decodes each row-format record whole;
//! * [`session`]: session sequences — the frequency-ranked event dictionary
//!   mapping names to Unicode code points (variable-length coding), the
//!   30-minute-inactivity sessionizer, the materialized relation
//!   `(user_id, session_id, ip, sequence, duration)`, and the two-pass
//!   daily materialization pipeline;
//! * [`catalog`]: the automatically generated, daily-rebuilt client event
//!   catalog (§4.3);
//! * [`legacy`]: the *before* picture — application-specific log formats
//!   with inconsistent field names, delimiters, and timestamp conventions,
//!   used as the baseline in the E9 experiment;
//! * [`json`]: a small JSON parser for the legacy frontend logs ("JSON
//!   structures … often nested several layers deep", §3.1).
//!
//! # Example
//!
//! ```
//! use uli_core::event::EventName;
//! use uli_core::session::{EventDictionary, Sessionizer};
//! use uli_core::client_event::ClientEvent;
//!
//! let name = EventName::parse("web:home:mentions:stream:avatar:profile_click").unwrap();
//! assert_eq!(name.action(), "profile_click");
//!
//! // A dictionary built from a frequency histogram assigns small code
//! // points to frequent events.
//! let dict = EventDictionary::from_counts(vec![
//!     (EventName::parse("web:home:home:stream:tweet:impression").unwrap(), 1000),
//!     (name.clone(), 10),
//! ]);
//! assert_eq!(dict.rank_of(&name), Some(1));
//! ```

pub mod anonymize;
pub mod catalog;
pub mod client_event;
pub mod columnar;
pub mod event;
pub mod json;
pub mod legacy;
pub mod scrape;
pub mod session;
pub mod time;

pub use anonymize::Anonymizer;
pub use catalog::ClientEventCatalog;
pub use client_event::{ClientEvent, ClientEventLoader, EventDetails};
pub use columnar::{
    for_each_event_row, write_client_events_columnar, ClientEventColumnar, ClientEventLanding,
    EventRow, CLIENT_EVENT_COLUMNAR,
};
pub use event::{EventInitiator, EventName, EventPattern};
pub use scrape::FormatScrape;
pub use session::{
    EventDictionary, MaterializeReport, SessionRecord, SessionRef, SessionSequence,
    SessionSequenceLoader, Sessionizer,
};
pub use time::Timestamp;
