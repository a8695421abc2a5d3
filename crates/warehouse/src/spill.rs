//! Bounded-memory operator support: deterministic memory accounting,
//! temporary run files, and an external merge sort over byte keys.
//!
//! The paper's jobs run on clusters where no operator may assume a day of
//! logs fits in RAM. This module is the single-process analogue: operators
//! account every buffered byte against a [`MemoryTracker`] (the same
//! deterministic cost-counter currency as `ScanStats::alloc_bytes` — wire
//! sizes, not allocator telemetry, so the numbers are identical at any
//! worker count), and when a configurable budget would be exceeded they
//! *spill*: the buffer is sorted and written to a temporary **run file** in
//! ordinary warehouse record-file format, then the runs are k-way merged
//! back into one ordered stream. Spill scratch space lives under
//! [`spill_root`] and is removed by an RAII [`SpillDirGuard`] on success
//! and error paths alike (including panics mid-query).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::WarehouseResult;
use crate::path::WhPath;
use crate::store::Warehouse;

/// Root directory for spill scratch space inside a warehouse: `$TMPDIR`
/// (default `/tmp`) plus a per-process `spill-<pid>` component, so
/// parallel test runs sharing a warehouse namespace — or a host `TMPDIR`
/// convention — never collide on scratch paths. A `TMPDIR` that is not a
/// clean absolute path falls back to `/tmp`.
pub fn spill_root() -> WhPath {
    let base = std::env::var("TMPDIR")
        .ok()
        .map(|t| t.trim_end_matches('/').to_string())
        .filter(|t| !t.is_empty())
        .and_then(|t| WhPath::parse(&t).ok())
        .unwrap_or_else(|| WhPath::parse("/tmp").expect("static path"));
    base.child(&format!("spill-{}", std::process::id()))
        .expect("pid segment is a valid path component")
}

/// Per-entry accounting overhead (pointers, lengths) charged on top of the
/// payload bytes. A fixed constant keeps the accounting deterministic.
pub const ENTRY_OVERHEAD: u64 = 32;

/// The operator memory budget of a job whose caller names none: what the
/// million-user day's queries run in (E20), and far above the reduce state
/// of any test or benchmark fixture, so none of those spill under it.
pub const DEFAULT_MEM_BUDGET: u64 = 64 << 20;

#[derive(Debug, Default)]
struct TrackerInner {
    budget: u64,
    current: AtomicU64,
    high_water: AtomicU64,
    spill_runs: AtomicU64,
    spill_bytes: AtomicU64,
    gauge: Option<uli_obs::Gauge>,
}

/// Deterministic operator-memory accounting shared by every spilling
/// operator of one job.
///
/// `current` is the bytes presently buffered across operators; `high_water`
/// is its peak. Both are *cost-model* quantities — computed from wire sizes
/// at deterministic points in the (serial) reduce phase — so they are
/// byte-identical across worker counts and hosts. There is always a budget:
/// operators consult [`MemoryTracker::would_exceed`] *before* buffering and
/// spill first, so `high_water` never exceeds the budget as long as a
/// single entry fits in it.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    inner: Arc<TrackerInner>,
}

impl MemoryTracker {
    /// A tracker that asks operators to spill before `budget` bytes of
    /// buffered state are exceeded.
    pub fn with_budget(budget: u64) -> MemoryTracker {
        MemoryTracker {
            inner: Arc::new(TrackerInner {
                budget,
                ..Default::default()
            }),
        }
    }

    /// Attaches an observability gauge that mirrors the high-water mark
    /// (raise-only, so concurrent jobs sharing a registry keep the max).
    pub fn with_gauge(self, gauge: uli_obs::Gauge) -> MemoryTracker {
        let inner = TrackerInner {
            budget: self.inner.budget,
            gauge: Some(gauge),
            ..Default::default()
        };
        MemoryTracker {
            inner: Arc::new(inner),
        }
    }

    /// True when buffering `incoming` more bytes would exceed the budget.
    pub fn would_exceed(&self, incoming: u64) -> bool {
        self.current().saturating_add(incoming) > self.inner.budget
    }

    /// Accounts `bytes` of newly buffered state and updates the peak.
    pub fn grow(&self, bytes: u64) {
        let now = self.inner.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.high_water.fetch_max(now, Ordering::Relaxed);
        if let Some(g) = &self.inner.gauge {
            g.raise(now.min(i64::MAX as u64) as i64);
        }
    }

    /// Releases `bytes` of buffered state (spilled or consumed).
    pub fn shrink(&self, bytes: u64) {
        let cur = self.inner.current.load(Ordering::Relaxed);
        self.inner
            .current
            .store(cur.saturating_sub(bytes), Ordering::Relaxed);
    }

    /// Records one spilled run of `run_bytes`.
    pub fn note_spill(&self, run_bytes: u64) {
        self.inner.spill_runs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .spill_bytes
            .fetch_add(run_bytes, Ordering::Relaxed);
    }

    /// Bytes currently buffered.
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// Peak buffered bytes seen so far.
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Run files spilled so far.
    pub fn spill_runs(&self) -> u64 {
        self.inner.spill_runs.load(Ordering::Relaxed)
    }

    /// Total bytes written to run files so far.
    pub fn spill_bytes(&self) -> u64 {
        self.inner.spill_bytes.load(Ordering::Relaxed)
    }
}

/// Process-wide scratch-dir counter: spill directories only need to be
/// unique, not deterministic — they are removed before a job finishes.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory path under [`spill_root`] (`label` is a short
/// human hint, e.g. the operator name).
pub fn scratch_dir(label: &str) -> WhPath {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    spill_root()
        .child(&format!("{label}-{n}"))
        .expect("scratch path is valid")
}

/// RAII guard for a spill scratch directory: dropping it deletes the
/// directory (and every run file in it) from the warehouse, whether the
/// query finished, errored, or panicked.
pub struct SpillDirGuard {
    warehouse: Warehouse,
    dir: WhPath,
}

impl SpillDirGuard {
    /// Guards `dir` in `warehouse`. The directory need not exist yet; run
    /// files are created lazily beneath it.
    pub fn new(warehouse: Warehouse, dir: WhPath) -> SpillDirGuard {
        SpillDirGuard { warehouse, dir }
    }

    /// The guarded directory.
    pub fn dir(&self) -> &WhPath {
        &self.dir
    }
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        // Never propagate cleanup errors (we may be unwinding already); a
        // missing directory just means nothing was ever spilled.
        let _ = self.warehouse.delete_dir(&self.dir);
    }
}

/// An external merge sort over `(key, payload)` byte pairs.
///
/// Keys order lexicographically (callers needing composite keys encode
/// them order-preservingly); equal keys preserve **insertion order** — the
/// in-memory sort is stable, runs spill in insertion order, and the merge
/// breaks ties by run index — so the output is byte-identical to what a
/// stable in-memory sort of the whole input would produce, at any budget.
pub struct ExternalByteSorter {
    warehouse: Warehouse,
    guard: SpillDirGuard,
    tracker: MemoryTracker,
    buf: Vec<(Vec<u8>, Vec<u8>)>,
    buf_bytes: u64,
    runs: Vec<WhPath>,
    entries: u64,
}

impl ExternalByteSorter {
    /// A sorter spilling into a fresh scratch directory of `warehouse`,
    /// budgeted by `tracker`.
    pub fn new(warehouse: Warehouse, tracker: MemoryTracker, label: &str) -> ExternalByteSorter {
        let dir = scratch_dir(label);
        let guard = SpillDirGuard::new(warehouse.clone(), dir);
        ExternalByteSorter {
            warehouse,
            guard,
            tracker,
            buf: Vec::new(),
            buf_bytes: 0,
            runs: Vec::new(),
            entries: 0,
        }
    }

    /// The deterministic cost charged for one entry.
    fn entry_cost(key: &[u8], payload: &[u8]) -> u64 {
        key.len() as u64 + payload.len() as u64 + ENTRY_OVERHEAD
    }

    /// Adds one entry, spilling the buffer first if the budget would be
    /// exceeded.
    pub fn push(&mut self, key: Vec<u8>, payload: Vec<u8>) -> WarehouseResult<()> {
        let cost = Self::entry_cost(&key, &payload);
        if self.tracker.would_exceed(cost) && !self.buf.is_empty() {
            self.spill()?;
        }
        self.tracker.grow(cost);
        self.buf_bytes += cost;
        self.buf.push((key, payload));
        self.entries += 1;
        Ok(())
    }

    /// Entries pushed so far.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Run files spilled by this sorter so far.
    pub fn runs_spilled(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Sorts the buffer and writes it out as one run file.
    fn spill(&mut self) -> WarehouseResult<()> {
        self.buf.sort_by(|a, b| a.0.cmp(&b.0)); // stable: ties keep order
        let path = self
            .guard
            .dir()
            .child(&format!("run-{:05}", self.runs.len()))
            .expect("valid run name");
        let mut w = self.warehouse.create(&path)?;
        let mut record = Vec::new();
        for (key, payload) in &self.buf {
            record.clear();
            record.extend_from_slice(&(key.len() as u32).to_be_bytes());
            record.extend_from_slice(key);
            record.extend_from_slice(payload);
            w.append_record(&record);
        }
        let meta = w.finish()?;
        self.tracker.note_spill(meta.compressed_bytes);
        self.tracker.shrink(self.buf_bytes);
        self.buf_bytes = 0;
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Finishes the sort, returning the merged ordered stream. The scratch
    /// directory lives as long as the returned iterator and is deleted when
    /// it drops.
    pub fn finish(mut self) -> WarehouseResult<SortedRuns> {
        self.buf.sort_by(|a, b| a.0.cmp(&b.0));
        let mut readers = Vec::with_capacity(self.runs.len());
        for path in &self.runs {
            let mut reader = RunReader::open(&self.warehouse, path)?;
            reader.advance()?;
            readers.push(reader);
        }
        Ok(SortedRuns {
            readers,
            tail: self.buf.into_iter(),
            tail_next: None,
            tail_bytes: self.buf_bytes,
            tracker: self.tracker.clone(),
            _guard: self.guard,
        })
    }
}

/// A streaming reader over one run file.
struct RunReader {
    reader: crate::file::RecordFileReader,
    next: Option<(Vec<u8>, Vec<u8>)>,
}

impl RunReader {
    fn open(warehouse: &Warehouse, path: &WhPath) -> WarehouseResult<RunReader> {
        Ok(RunReader {
            reader: warehouse.open(path)?,
            next: None,
        })
    }

    fn advance(&mut self) -> WarehouseResult<()> {
        self.next = match self.reader.next_record()? {
            Some(record) => {
                let key_len = u32::from_be_bytes(record[..4].try_into().expect("run header"));
                let key_end = 4 + key_len as usize;
                Some((record[4..key_end].to_vec(), record[key_end..].to_vec()))
            }
            None => None,
        };
        Ok(())
    }
}

/// The merged output of an [`ExternalByteSorter`]: an ordered stream of
/// `(key, payload)` pairs. Holds the scratch-dir guard, so the run files
/// disappear when the stream is dropped.
pub struct SortedRuns {
    readers: Vec<RunReader>,
    tail: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    tail_next: Option<(Vec<u8>, Vec<u8>)>,
    tail_bytes: u64,
    tracker: MemoryTracker,
    _guard: SpillDirGuard,
}

impl SortedRuns {
    /// The next entry in key order (ties resolve to the earliest-spilled
    /// run, then the in-memory tail — i.e. insertion order).
    pub fn next_entry(&mut self) -> WarehouseResult<Option<(Vec<u8>, Vec<u8>)>> {
        if self.tail_next.is_none() {
            self.tail_next = self.tail.next();
        }
        // Pick the smallest key; scan order makes ties stable.
        let mut best: Option<usize> = None; // index into readers, or tail
        for (i, r) in self.readers.iter().enumerate() {
            if let Some((key, _)) = &r.next {
                let better = match best {
                    None => true,
                    Some(b) => key < &self.readers[b].next.as_ref().expect("peeked").0,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let tail_wins = match (&self.tail_next, best) {
            (Some((tk, _)), Some(b)) => tk < &self.readers[b].next.as_ref().expect("peeked").0,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if tail_wins {
            return Ok(self.tail_next.take());
        }
        match best {
            Some(i) => {
                let entry = self.readers[i].next.take();
                self.readers[i].advance()?;
                Ok(entry)
            }
            None => Ok(None),
        }
    }
}

impl Drop for SortedRuns {
    fn drop(&mut self) {
        self.tracker.shrink(self.tail_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64, tag: &str) -> (Vec<u8>, Vec<u8>) {
        (
            i.to_be_bytes().to_vec(),
            format!("p-{tag}-{i}").into_bytes(),
        )
    }

    fn drain(mut runs: SortedRuns) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(e) = runs.next_entry().unwrap() {
            out.push(e);
        }
        out
    }

    #[test]
    fn tracker_accounts_and_peaks() {
        let t = MemoryTracker::with_budget(100);
        assert!(!t.would_exceed(100));
        assert!(t.would_exceed(101));
        t.grow(80);
        assert!(t.would_exceed(30));
        t.shrink(50);
        assert_eq!(t.current(), 30);
        assert_eq!(t.high_water(), 80, "peak survives shrink");
        t.note_spill(1234);
        assert_eq!(t.spill_runs(), 1);
        assert_eq!(t.spill_bytes(), 1234);
    }

    #[test]
    fn tracker_mirrors_gauge() {
        let registry = uli_obs::Registry::new();
        let gauge = registry.gauge("dataflow", "memory_high_water_bytes");
        let t = MemoryTracker::with_budget(1 << 20).with_gauge(gauge.clone());
        t.grow(4096);
        t.shrink(4096);
        t.grow(100);
        assert_eq!(gauge.get(), 4096, "gauge keeps the peak");
    }

    #[test]
    fn sorter_under_a_budget_it_never_reaches_never_spills() {
        let wh = Warehouse::new();
        let mut s = ExternalByteSorter::new(wh.clone(), MemoryTracker::with_budget(u64::MAX), "t");
        for i in (0..100u64).rev() {
            s.push(i.to_be_bytes().to_vec(), vec![i as u8]).unwrap();
        }
        assert_eq!(s.runs_spilled(), 0);
        let out = drain(s.finish().unwrap());
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
        let spill_root = spill_root();
        assert!(
            !wh.exists(&spill_root) || wh.list_files_recursive(&spill_root).unwrap().is_empty(),
            "no run files under a budget never reached"
        );
    }

    #[test]
    fn spilled_merge_matches_in_memory_sort_and_cleans_up() {
        // Pseudo-random but deterministic insertion order.
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e3779b9) % 97)
            .collect();
        let reference = {
            let mut entries: Vec<_> = keys.iter().map(|&k| entry(k, "a")).collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0)); // stable
            entries
        };
        let wh = Warehouse::new();
        let tracker = MemoryTracker::with_budget(2048);
        let mut s = ExternalByteSorter::new(wh.clone(), tracker.clone(), "t");
        for &k in &keys {
            let (key, payload) = entry(k, "a");
            s.push(key, payload).unwrap();
        }
        assert!(s.runs_spilled() > 1, "budget must force several runs");
        assert!(
            tracker.high_water() <= 2048,
            "peak {} exceeded budget",
            tracker.high_water()
        );
        let runs = s.finish().unwrap();
        assert!(tracker.spill_runs() > 1);
        assert!(tracker.spill_bytes() > 0);
        let out = drain(runs);
        assert_eq!(out, reference, "spilled output must match stable sort");
        // Guard dropped with the stream: scratch space is gone.
        let spill_root = spill_root();
        assert!(
            !wh.exists(&spill_root) || wh.list_files_recursive(&spill_root).unwrap().is_empty(),
            "run files must be deleted when the stream drops"
        );
        assert_eq!(tracker.current(), 0, "all tracked bytes released");
    }

    #[test]
    fn equal_keys_keep_insertion_order_across_spills() {
        let wh = Warehouse::new();
        let mut s = ExternalByteSorter::new(wh, MemoryTracker::with_budget(256), "t");
        for i in 0..64u64 {
            // Two keys only: every run holds both; the merge must still
            // replay payloads in insertion order within each key.
            s.push(vec![(i % 2) as u8], format!("{i}").into_bytes())
                .unwrap();
        }
        let out = drain(s.finish().unwrap());
        let ordered = |key: u8| -> Vec<u64> {
            out.iter()
                .filter(|(k, _)| k == &vec![key])
                .map(|(_, p)| String::from_utf8_lossy(p).parse::<u64>().unwrap())
                .collect()
        };
        assert_eq!(
            ordered(0),
            (0..64).filter(|i| i % 2 == 0).collect::<Vec<_>>()
        );
        assert_eq!(
            ordered(1),
            (0..64).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spill_root_is_per_process_and_respects_tmpdir() {
        let root = spill_root();
        let pid = std::process::id();
        assert!(
            root.as_str().ends_with(&format!("/spill-{pid}")),
            "root {} must carry the pid",
            root.as_str()
        );
        // A clean TMPDIR is honored; a malformed one falls back to /tmp.
        // (Set/restore around the calls: the var is only read inside
        // spill_root, and scratch dirs are unique regardless of root.)
        let saved = std::env::var("TMPDIR").ok();
        std::env::set_var("TMPDIR", "/custom-scratch/");
        assert_eq!(
            spill_root().as_str(),
            format!("/custom-scratch/spill-{pid}")
        );
        std::env::set_var("TMPDIR", "not-absolute");
        assert_eq!(spill_root().as_str(), format!("/tmp/spill-{pid}"));
        match saved {
            Some(v) => std::env::set_var("TMPDIR", v),
            None => std::env::remove_var("TMPDIR"),
        }
    }

    #[test]
    fn concurrent_sorters_never_share_scratch() {
        // Two sorters spilling at once in one warehouse: distinct scratch
        // dirs, both outputs correct, and the shared root is empty after
        // both streams drop.
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b, "scratch dirs must be unique within a process");
        let wh = Warehouse::new();
        let handles: Vec<_> = (0..2)
            .map(|lane: u64| {
                let wh = wh.clone();
                std::thread::spawn(move || {
                    let tracker = MemoryTracker::with_budget(512);
                    let mut s = ExternalByteSorter::new(wh, tracker, "conc");
                    for i in (0..200u64).rev() {
                        let (key, payload) = entry(i, &format!("lane{lane}"));
                        s.push(key, payload).unwrap();
                    }
                    assert!(s.runs_spilled() > 1, "budget must force spills");
                    drain(s.finish().unwrap())
                })
            })
            .collect();
        for (lane, h) in handles.into_iter().enumerate() {
            let out = h.join().unwrap();
            assert_eq!(out.len(), 200);
            assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
            // Payloads stayed in-lane: no cross-talk through shared scratch.
            assert!(out
                .iter()
                .all(|(_, p)| String::from_utf8_lossy(p).contains(&format!("lane{lane}"))));
        }
        let spill_root = spill_root();
        assert!(
            !wh.exists(&spill_root) || wh.list_files_recursive(&spill_root).unwrap().is_empty(),
            "scratch must be empty once both sorters finish"
        );
    }

    #[test]
    fn mid_query_panic_leaves_no_debris() {
        let wh = Warehouse::new();
        let wh2 = wh.clone();
        let result = std::panic::catch_unwind(move || {
            let mut s = ExternalByteSorter::new(wh2, MemoryTracker::with_budget(128), "t");
            for i in 0..64u64 {
                s.push(i.to_be_bytes().to_vec(), vec![0u8; 16]).unwrap();
            }
            assert!(s.runs_spilled() > 0, "panic test must spill first");
            panic!("simulated mid-query failure");
        });
        assert!(result.is_err());
        let spill_root = spill_root();
        assert!(
            !wh.exists(&spill_root) || wh.list_files_recursive(&spill_root).unwrap().is_empty(),
            "panic unwound without deleting spill files"
        );
    }
}
