//! A ZooKeeper-lite coordination service.
//!
//! The paper's Scribe daemons "discover the hostnames of the aggregators
//! through ZooKeeper … Aggregators register themselves at a fixed location
//! using what is known as an 'ephemeral' znode, which exists only for the
//! duration of a client session" (§2). This crate implements exactly the
//! subset that infrastructure depends on:
//!
//! * a hierarchical namespace of data nodes ([`znode`]),
//! * **ephemeral** znodes that vanish when the creating session ends,
//! * **sequential** znodes for unique member names,
//! * reads of a znode's children and data, and
//! * session lifecycle (drop, simulated expiry).
//!
//! Daemons list the live members whenever they need an aggregator, so
//! nothing is pushed to them: there are no watches.
//!
//! Everything is in-process and deterministic; "network partitions" are
//! modeled by expiring sessions.
//!
//! # Example
//!
//! ```
//! use uli_coord::{CoordService, CreateMode};
//!
//! let svc = CoordService::new();
//! let admin = svc.connect();
//! admin.create("/aggregators", b"".to_vec(), CreateMode::Persistent).unwrap();
//!
//! let agg = svc.connect();
//! let path = agg
//!     .create("/aggregators/agg-", b"host-1:1463".to_vec(),
//!             CreateMode::EphemeralSequential)
//!     .unwrap();
//! assert_eq!(path, "/aggregators/agg-0000000000");
//!
//! // The daemon finds a live aggregator:
//! let members = admin.get_children("/aggregators").unwrap();
//! assert_eq!(members.len(), 1);
//!
//! // The aggregator crashes: its session ends, the ephemeral node vanishes.
//! drop(agg);
//! assert!(admin.get_children("/aggregators").unwrap().is_empty());
//! ```

pub mod error;
pub mod service;
pub mod znode;

pub use error::{CoordError, CoordResult};
pub use service::{CoordService, CreateMode, Session, SessionId};
pub use znode::ZnodePath;
