//! `uli-serve`: the interactive serving layer over the unified log.
//!
//! The paper's §6 ongoing work names exactly this gap: the batch warehouse
//! answers every question with a MapReduce-style scan, and low-latency
//! point access ("show user X's sessions today") wants an indexing/serving
//! tier beside it — Twitter's Elephant Twin lineage. This crate supplies
//! that tier for the reproduced stack:
//!
//! - [`hour`] — the per-hour secondary index ([`HourIndex`]): user-id →
//!   row-group postings, event-name → row-group postings and exact
//!   per-name counts, persisted beside the landed hour with the mover's
//!   assemble-then-rename commit discipline.
//! - [`maintain`] — [`IndexMaintainer`], a [`uli_scribe::DeliveryTap`]
//!   that builds and commits an hour's index at the mover's exactly-once
//!   delivery point, recovers crash-window victims by wholesale rebuild
//!   (never double-counting), and shows its counters in `uli-obs`.
//! - [`handle`] — [`ServeHandle`], the programmatic query front-end:
//!   point lookups that consult the index, prune to posted row groups,
//!   and decode only those — never a full-day scan.
//! - `pruner` — the same name postings as scan-time evidence: the
//!   [`uli_dataflow::BlockPruner`] that [`ServeHandle::pruner`] hands the
//!   batch engine, so selective scans skip row groups "for free" (§6's
//!   InputFormat-level Elephant Twin integration).
//! - [`batch`] — the batch-engine reference answers the serving layer is
//!   held byte-identical to.
//! - [`repl`] — the `uli serve` command surface.

pub mod batch;
pub mod handle;
pub mod hour;
pub mod maintain;
mod pruner;
pub mod repl;

pub use batch::{
    batch_count, batch_sessions, batch_top_names, batch_user_events, tuple_event, user_events_plan,
};
pub use handle::{event_tuple, LookupStats, ServeAnswer, ServeHandle};
pub use hour::{
    build_hour_index, by_file, commit_hour_index, index_dir, load_hour_index, FileEntry, HourIndex,
    Postings,
};
pub use maintain::IndexMaintainer;
pub use repl::run_repl;
