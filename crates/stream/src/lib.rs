//! `uli-stream`: a Summingbird-lite speed layer over the Scribe pipeline.
//!
//! The paper's infrastructure is batch-only: client events land in hourly
//! warehouse partitions, and analytics (BirdBrain, funnels) run as
//! Pig/MapReduce jobs hours later. Twitter's production stack layered a
//! *speed layer* on the same Scribe stream — Summingbird programs whose
//! aggregations are Algebird monoids, so the same logical computation runs
//! both online (approximate, seconds-fresh) and in batch (exact,
//! hours-late), and the two answers provably converge. This crate
//! reproduces that lambda shape in miniature:
//!
//! * [`StreamState`] — the monoid: exact counters (records, events,
//!   per-name, per-client) plus bounded-memory sketches (HyperLogLog
//!   distinct users, Count-Min/TopK trending names, log-linear payload
//!   percentiles), all merging commutatively and associatively.
//! * [`StreamAnalytics`] — the speed layer: implements
//!   [`uli_scribe::DeliveryTap`], cuts each delivery into one run of
//!   records per shard, and serves windowed (per-hour) and running
//!   (day-so-far) views; its `uli-obs` metrics are read off the windows.
//! * [`BatchSummary`] / [`check_convergence`] — the batch layer and the
//!   lambda invariant: streaming views over the delivered partition must
//!   equal batch answers exactly for exact aggregates and fall within
//!   declared error bounds for sketches. The landed hours are read in
//!   whichever layout they landed; the exact payload sizes, which a
//!   columnar file does not keep, come from a [`PayloadSizes`] tap.
//!
//! The tap rides the mover's exactly-once delivery point (after duplicate
//! squashing, committed only on a successful atomic slide), so the
//! invariant holds under crash/retry chaos schedules too — the streaming
//! totals reconcile against the delivered ⊎ lost ⊎ dropped partition from
//! `uli_scribe::check_invariants`.

pub mod analytics;
pub mod batch;
pub mod state;

pub use analytics::{StreamAnalytics, StreamConfig};
pub use batch::{
    batch_reference, check_convergence, exact_quantile_bp, scan_hour, BatchSummary, Convergence,
    PayloadSizes, CHECKED_QUANTILES, HLL_REL_BOUND,
};
pub use state::{StreamState, DEFAULT_TRENDING_K};
