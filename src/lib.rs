//! Unified logging infrastructure — a Rust reproduction of
//! *The Unified Logging Infrastructure for Data Analytics at Twitter*
//! (Lee, Lin, Liu, Lorek, Ryaboy — PVLDB 5(12), 2012).
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Paper § |
//! |---|---|---|
//! | [`thrift`] | `uli-thrift` | Thrift-style serialization (§3) |
//! | [`coord`] | `uli-coord` | ZooKeeper-lite coordination (§2) |
//! | [`scribe`] | `uli-scribe` | Scribe delivery pipeline (§2, Fig. 1) |
//! | [`warehouse`] | `uli-warehouse` | HDFS-lite data warehouse (§2) |
//! | [`dataflow`] | `uli-dataflow` | Pig-like engine + MapReduce cost model (§3) |
//! | [`oink`] | `uli-oink` | Workflow manager + roll-ups (§3, §3.2) |
//! | [`core`] | `uli-core` | Client events + session sequences (§3.2, §4) |
//! | [`analytics`] | `uli-analytics` | Counting, funnels, user modeling (§5) |
//! | [`serve`] | `uli-serve` | Interactive serving layer; its hour indexes also prune batch scans, Elephant Twin-style (§6) |
//! | [`obs`] | `uli-obs` | Deterministic metrics + span tracing across all layers |
//! | [`workload`] | `uli-workload` | Synthetic traffic with ground truth |
//!
//! # Quickstart
//!
//! ```
//! use unified_logging::prelude::*;
//!
//! // 1. Generate a small synthetic day and land it in the warehouse.
//! let wh = Warehouse::new();
//! let config = WorkloadConfig { users: 40, ..Default::default() };
//! let day = generate_day(&config, 0);
//! write_client_events(&wh, &day.events, 4).unwrap();
//!
//! // 2. Materialize session sequences (the §4 pipeline).
//! let report = Materializer::new(wh.clone()).run_day(0).unwrap();
//! assert_eq!(report.sessions, day.truth.sessions);
//!
//! // 3. Ask a question the paper's way: how many profile clicks today?
//! //    The day loads into one corpus, and each session is a borrowed view
//! //    whose sequence's `len` counts events.
//! let dict = Materializer::new(wh.clone()).load_dictionary(0).unwrap();
//! let clicks = EventCharSet::expand(
//!     &EventPattern::parse("*:profile_click").unwrap(), &dict);
//! let seqs = load_sequences(&wh, 0).unwrap();
//! assert_eq!(seqs.len() as u64, report.sessions);
//! let events: usize = seqs.iter().map(|s| s.sequence.len()).sum();
//! assert_eq!(events, day.events.len());
//! let total: u64 = seqs.iter().map(|s| clicks.count_in(&s.sequence)).sum();
//! let truth = day.events.iter()
//!     .filter(|e| e.name.action() == "profile_click").count() as u64;
//! assert_eq!(total, truth);
//! ```

pub use uli_analytics as analytics;
pub use uli_coord as coord;
pub use uli_core as core;
pub use uli_dataflow as dataflow;
pub use uli_obs as obs;
pub use uli_oink as oink;
pub use uli_scribe as scribe;
pub use uli_serve as serve;
pub use uli_thrift as thrift;
pub use uli_warehouse as warehouse;
pub use uli_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use uli_analytics::{
        load_sequences, ClientEventsFunnel, CollocationMiner, CountClientEvents, DailySummary,
        EventCharSet, NgramModel, SequenceCorpus,
    };
    pub use uli_core::catalog::ClientEventCatalog;
    pub use uli_core::client_event::{ClientEvent, ClientEventLoader, CLIENT_EVENT_SCHEMA};
    pub use uli_core::event::{EventInitiator, EventName, EventPattern};
    pub use uli_core::session::{
        EventDictionary, Materializer, SessionRef, SessionSequence, SessionSequenceLoader,
        Sessionizer, SESSION_SEQUENCE_SCHEMA,
    };
    pub use uli_core::time::Timestamp;
    pub use uli_dataflow::prelude::*;
    pub use uli_obs::{Registry, Snapshot};
    pub use uli_oink::{compute_rollups, Oink, RollupTable};
    pub use uli_scribe::pipeline::PipelineConfig;
    pub use uli_scribe::{BatchPolicy, LogEntry, PipelineReport, ScribePipeline};
    pub use uli_serve::{IndexMaintainer, ServeHandle};
    pub use uli_warehouse::{Warehouse, WhPath};
    pub use uli_workload::{
        generate_day, signup_funnel, write_client_events, write_legacy_events, WorkloadConfig,
    };
}
