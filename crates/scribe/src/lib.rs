//! A Scribe-like log delivery pipeline.
//!
//! Reproduces the architecture of Figure 1 of the paper: "Scribe daemons on
//! production hosts send log messages to Scribe aggregators, which deposit
//! aggregated log data onto per-datacenter staging Hadoop clusters. Periodic
//! processes then copy data from these staging clusters into our main Hadoop
//! data warehouse."
//!
//! The pieces, one module each:
//!
//! * [`message`]: a log entry is "two strings, a category and a message";
//! * [`network`]: the in-process stand-in for the datacenter network —
//!   aggregators expose channels, crashes close them;
//! * [`daemon`]: per-host daemons that discover aggregators through the
//!   coordination service, fail over when one dies, and buffer locally
//!   while none is reachable;
//! * [`aggregator`]: merges per-category streams and writes compressed
//!   files to the staging warehouse, buffering to "local disk" during
//!   staging-cluster outages;
//! * [`mover`]: the log mover — waits until every datacenter has sealed an
//!   hour, merges many small files into a few large ones, applies sanity
//!   checks, and **atomically slides** the hour into the main warehouse;
//! * [`pipeline`]: wires everything together and exposes fault injection
//!   (aggregator crashes, staging outages) plus end-to-end accounting.
//!
//! Delivery semantics mirror real Scribe: the system is robust to transient
//! failures (daemons fail over via the coordination service; aggregators
//! buffer during warehouse outages), but a hard aggregator crash loses the
//! entries it had accepted and not yet flushed. The E1 experiment measures
//! exactly this envelope.

pub mod aggregator;
pub mod config;
pub mod daemon;
pub mod faults;
pub mod message;
pub mod mover;
pub mod network;
pub mod pipeline;
pub mod seen;
pub mod staged;
pub mod tap;

pub use aggregator::Aggregator;
pub use config::{CategoryConfig, CategoryRegistry, Disposition};
pub use daemon::{BatchPolicy, ScribeDaemon};
pub use faults::{
    check_invariants, run_chaos, run_chaos_prepared, run_chaos_tapped, run_chaos_with, ChaosConfig,
    ChaosOutcome, FaultConfig, FaultPlan, InvariantReport, Sabotage,
};
pub use message::{EntryId, LogEntry, MessageBatch};
pub use mover::{LogMover, MoveReport};
pub use network::{LinkFaults, Network};
pub use pipeline::{PipelineConfig, PipelineReport, ScribePipeline};
pub use seen::SeenSet;
pub use tap::DeliveryTap;
