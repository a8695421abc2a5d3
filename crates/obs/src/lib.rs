//! `uli-obs` — the unified observability subsystem.
//!
//! The paper's operational thesis is that Twitter could only run its logging
//! stack because every stage was measurable: Scribe category volumes (§2,
//! Table 1), Oink's execution traces ("when a job began, how long it lasted,
//! whether it completed successfully", §3), and per-query cost accounting
//! (§5). Before this crate the reproduction's telemetry was fragmented into
//! ad-hoc structs (`ScanStats` in `uli-warehouse`, `JobStats` in
//! `uli-dataflow`, `ExecutionTrace` in `uli-oink`) that could not be
//! correlated across one run. `uli-obs` is the single substrate they now
//! share, in the style of the Dapper/X-Trace lineage the paper cites:
//!
//! * a [`Registry`] of **counters, gauges, and log-linear-bucket
//!   histograms**, keyed by `(component, name, labels)`. Handles are plain
//!   atomics after registration, so the hot path is lock-free; snapshots
//!   iterate in **registration order**, which is fixed by the (serial)
//!   attach code, so for a given seed the snapshot is **byte-identical at
//!   any `--workers` count**;
//! * a **span tracer** ([`span`]) whose parent/child structure comes from a
//!   deterministic logical clock — two ticks per span, no wall time — with
//!   a per-run trace tree and a critical-path report;
//! * **exporters** ([`export`]): Prometheus text format and a JSON snapshot
//!   suitable for writing next to the `BENCH_*.json` artifacts.
//!
//! # Determinism rules
//!
//! 1. Register every metric from serial code (component constructors), never
//!    from worker threads: registration order is snapshot order.
//! 2. Increment counters from anywhere — totals are order-invariant — but
//!    open spans and record histogram samples only from coordinator code,
//!    so tick stamps and sample order cannot race.
//! 3. Snapshots contain no wall-clock time and no floats, so asserted
//!    output (golden files, cross-worker byte-equality) stays stable across
//!    machines.
//!
//! # Example
//!
//! ```
//! use uli_obs::Registry;
//!
//! let registry = Registry::new();
//! let sent = registry.counter("scribe", "sent");
//! {
//!     let _hour = registry.span("scribe", "hour");
//!     sent.add(42);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_value("scribe/sent"), Some(42));
//! assert!(snap.to_json().contains("\"scribe/sent\""));
//! assert!(snap.to_prometheus().contains("uli_scribe_sent 42"));
//! ```

pub mod export;
pub mod metric;
pub mod registry;
pub mod span;

pub use metric::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{MetricKey, MetricValue, Registry, Snapshot};
pub use span::{CriticalPathStep, SpanGuard, SpanNode, SpanRecord};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, taking the data as it stands if a thread panicked while
/// holding it: every lock in the workspace guards state that is consistent
/// between statements, so a poisoned lock is recovered, never propagated.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
