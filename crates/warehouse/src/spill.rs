//! Bounded-memory operator support: deterministic memory accounting, and
//! the one writer and merger of temporary run files ([`RunSet`]), which an
//! operator parameterises by what its entries are ([`RunFormat`]).
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
//! [`spill_root`] and is removed by an RAII guard on success and error
//! paths alike (including panics mid-query).

use std::cmp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{WarehouseError, WarehouseResult};
use crate::file::RecordFileReader;
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
fn scratch_dir(label: &str) -> WhPath {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    spill_root()
        .child(&format!("{label}-{n}"))
        .expect("scratch path is valid")
}

/// RAII guard for a spill scratch directory: dropping it deletes the
/// directory (and every run file in it) from the warehouse, whether the
/// query finished, errored, or panicked. The directory need not exist yet;
/// run files are created lazily beneath it.
struct SpillDirGuard {
    warehouse: Warehouse,
    dir: WhPath,
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        // Never propagate cleanup errors (we may be unwinding already); a
        // missing directory just means nothing was ever spilled.
        let _ = self.warehouse.delete_dir(&self.dir);
    }
}

/// What one spilling operator keeps in its run files: how an entry becomes
/// a run record, how it comes back, and how entries order.
pub trait RunFormat {
    /// One buffered entry.
    type Entry;

    /// Appends `entry`'s run record to `record`, which arrives empty.
    fn encode(&self, entry: &Self::Entry, record: &mut Vec<u8>);

    /// Inverse of [`Self::encode`]. A record `encode` cannot have written is
    /// [`WarehouseError::Corrupt`], never a panic.
    fn decode(&self, record: &[u8]) -> WarehouseResult<Self::Entry>;

    /// The order runs are written in and merged by.
    fn cmp(&self, a: &Self::Entry, b: &Self::Entry) -> cmp::Ordering;
}

/// The sorted run files of one operator: the only writer of a run and the
/// only merge over runs. Runs are ordinary warehouse record files under a
/// scratch directory that lives exactly as long as this value (or the
/// [`MergedRuns`] it becomes).
pub struct RunSet<F: RunFormat> {
    warehouse: Warehouse,
    guard: SpillDirGuard,
    tracker: MemoryTracker,
    format: F,
    runs: Vec<WhPath>,
}

impl<F: RunFormat> RunSet<F> {
    /// An empty run set in a fresh scratch directory of `warehouse`, billing
    /// `tracker`.
    pub fn new(warehouse: Warehouse, tracker: MemoryTracker, format: F, label: &str) -> RunSet<F> {
        let guard = SpillDirGuard {
            warehouse: warehouse.clone(),
            dir: scratch_dir(label),
        };
        RunSet {
            warehouse,
            guard,
            tracker,
            format,
            runs: Vec::new(),
        }
    }

    /// The tracker this set bills.
    pub fn tracker(&self) -> &MemoryTracker {
        &self.tracker
    }

    /// Writes `sorted` — ascending under the format's order — as the next
    /// run, and releases the `bytes` its entries were billed.
    pub fn spill(
        &mut self,
        sorted: impl IntoIterator<Item = F::Entry>,
        bytes: u64,
    ) -> WarehouseResult<()> {
        let path = self
            .guard
            .dir
            .child(&format!("run-{:05}", self.runs.len()))
            .expect("valid run name");
        let mut w = self.warehouse.create(&path)?;
        let mut record = Vec::new();
        for entry in sorted {
            record.clear();
            self.format.encode(&entry, &mut record);
            w.append_record(&record);
        }
        let meta = w.finish()?;
        self.tracker.note_spill(meta.compressed_bytes);
        self.tracker.shrink(bytes);
        self.runs.push(path);
        Ok(())
    }

    /// Merges the runs with `tail` — the sorted in-memory remainder, still
    /// billed `tail_bytes` — into one ordered stream.
    pub fn merge(self, tail: Vec<F::Entry>, tail_bytes: u64) -> WarehouseResult<MergedRuns<F>> {
        let mut readers = Vec::with_capacity(self.runs.len());
        for path in &self.runs {
            let mut reader = self.warehouse.open(path)?;
            let head = read_head(&mut reader, &self.format)?;
            readers.push((reader, head));
        }
        Ok(MergedRuns {
            readers,
            tail: tail.into_iter().peekable(),
            tail_bytes,
            set: self,
        })
    }
}

/// The next entry of one run, decoded; `None` at its end.
fn read_head<F: RunFormat>(
    reader: &mut RecordFileReader,
    format: &F,
) -> WarehouseResult<Option<F::Entry>> {
    reader
        .next_record()?
        .map(|record| format.decode(record))
        .transpose()
}

/// The merged output of a [`RunSet`]: one stream in the format's order.
/// Entries that compare equal come back earliest run first and the tail
/// last — the order they were buffered in, so a stable sort of each buffer
/// makes the whole stream a stable sort of the input, at any budget. Owns
/// the scratch directory: the run files go when the stream drops.
pub struct MergedRuns<F: RunFormat> {
    /// Each run with its next entry.
    readers: Vec<(RecordFileReader, Option<F::Entry>)>,
    tail: std::iter::Peekable<std::vec::IntoIter<F::Entry>>,
    tail_bytes: u64,
    set: RunSet<F>,
}

impl<F: RunFormat> MergedRuns<F> {
    /// The next entry in order.
    pub fn next_entry(&mut self) -> WarehouseResult<Option<F::Entry>> {
        let format = &self.set.format;
        let mut best: Option<(usize, &F::Entry)> = None;
        for (i, (_, head)) in self.readers.iter().enumerate() {
            if let Some(head) = head {
                if best.is_none_or(|(_, b)| format.cmp(head, b) == cmp::Ordering::Less) {
                    best = Some((i, head));
                }
            }
        }
        let run = match (best, self.tail.peek()) {
            (Some((_, head)), Some(tail)) if format.cmp(tail, head) == cmp::Ordering::Less => None,
            (Some((i, _)), _) => Some(i),
            (None, _) => None,
        };
        let Some(run) = run else {
            return Ok(self.tail.next());
        };
        let (reader, head) = &mut self.readers[run];
        let next = read_head(reader, format)?;
        Ok(std::mem::replace(head, next))
    }
}

impl<F: RunFormat> Drop for MergedRuns<F> {
    fn drop(&mut self) {
        self.set.tracker.shrink(self.tail_bytes);
    }
}

/// An external merge sort: entries buffer in memory, billed what the caller
/// says each costs, and the buffer is sorted (stably) and spilled as a run
/// whenever the next entry would exceed the budget.
pub struct SpillSorter<F: RunFormat> {
    runs: RunSet<F>,
    buf: Vec<F::Entry>,
    buf_bytes: u64,
}

impl<F: RunFormat> SpillSorter<F> {
    /// A sorter spilling into a fresh scratch directory of `warehouse`,
    /// budgeted by `tracker`.
    pub fn new(
        warehouse: Warehouse,
        tracker: MemoryTracker,
        format: F,
        label: &str,
    ) -> SpillSorter<F> {
        SpillSorter {
            runs: RunSet::new(warehouse, tracker, format, label),
            buf: Vec::new(),
            buf_bytes: 0,
        }
    }

    /// Adds one entry billed `cost`, spilling the buffer first if the budget
    /// would be exceeded.
    pub fn push(&mut self, entry: F::Entry, cost: u64) -> WarehouseResult<()> {
        if self.runs.tracker.would_exceed(cost) && !self.buf.is_empty() {
            self.sort();
            let bytes = std::mem::take(&mut self.buf_bytes);
            self.runs.spill(self.buf.drain(..), bytes)?;
        }
        self.runs.tracker.grow(cost);
        self.buf_bytes += cost;
        self.buf.push(entry);
        Ok(())
    }

    fn sort(&mut self) {
        let format = &self.runs.format;
        self.buf.sort_by(|a, b| format.cmp(a, b)); // stable: ties keep order
    }

    /// Finishes the sort, returning the merged ordered stream.
    pub fn finish(mut self) -> WarehouseResult<MergedRuns<F>> {
        self.sort();
        self.runs.merge(self.buf, self.buf_bytes)
    }
}

/// `(key, payload)` byte pairs ordered by key, bytewise (callers needing
/// composite keys encode them order-preservingly). A run record is the key
/// length (`u32`, big-endian), the key, the payload.
pub struct ByteRuns;

impl RunFormat for ByteRuns {
    type Entry = (Vec<u8>, Vec<u8>);

    fn encode(&self, (key, payload): &Self::Entry, record: &mut Vec<u8>) {
        record.extend_from_slice(&(key.len() as u32).to_be_bytes());
        record.extend_from_slice(key);
        record.extend_from_slice(payload);
    }

    fn decode(&self, record: &[u8]) -> WarehouseResult<Self::Entry> {
        const CORRUPT: WarehouseError = WarehouseError::Corrupt("byte run record");
        let (len, rest) = record.split_first_chunk::<4>().ok_or(CORRUPT)?;
        let (key, payload) = rest
            .split_at_checked(u32::from_be_bytes(*len) as usize)
            .ok_or(CORRUPT)?;
        Ok((key.to_vec(), payload.to_vec()))
    }

    fn cmp(&self, a: &Self::Entry, b: &Self::Entry) -> cmp::Ordering {
        a.0.cmp(&b.0)
    }
}

/// An external merge sort over `(key, payload)` byte pairs ([`ByteRuns`]).
pub struct ExternalByteSorter(SpillSorter<ByteRuns>);

/// The merged output of an [`ExternalByteSorter`].
pub type SortedRuns = MergedRuns<ByteRuns>;

impl ExternalByteSorter {
    /// A sorter spilling into a fresh scratch directory of `warehouse`,
    /// budgeted by `tracker`.
    pub fn new(warehouse: Warehouse, tracker: MemoryTracker, label: &str) -> ExternalByteSorter {
        ExternalByteSorter(SpillSorter::new(warehouse, tracker, ByteRuns, label))
    }

    /// Adds one entry at its deterministic cost: its bytes plus
    /// [`ENTRY_OVERHEAD`].
    pub fn push(&mut self, key: Vec<u8>, payload: Vec<u8>) -> WarehouseResult<()> {
        let cost = key.len() as u64 + payload.len() as u64 + ENTRY_OVERHEAD;
        self.0.push((key, payload), cost)
    }

    /// Finishes the sort, returning the merged ordered stream.
    pub fn finish(self) -> WarehouseResult<SortedRuns> {
        self.0.finish()
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

    fn runs_spilled(s: &ExternalByteSorter) -> usize {
        s.0.runs.runs.len()
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
        assert_eq!(runs_spilled(&s), 0);
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
        assert!(runs_spilled(&s) > 1, "budget must force several runs");
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
    fn a_run_record_is_key_length_key_payload() {
        let wh = Warehouse::new();
        let mut s = ExternalByteSorter::new(wh.clone(), MemoryTracker::with_budget(100), "t");
        s.push(b"kb".to_vec(), b"second".to_vec()).unwrap();
        s.push(b"ka".to_vec(), b"first".to_vec()).unwrap();
        s.push(b"kc".to_vec(), b"spills the two before it".to_vec())
            .unwrap();
        assert_eq!(runs_spilled(&s), 1);
        let runs = wh.list_files_recursive(&spill_root()).unwrap();
        let records = wh.open(&runs[0]).unwrap().read_all().unwrap();
        assert_eq!(records, [&b"\0\0\0\x02kafirst"[..], b"\0\0\0\x02kbsecond"]);
    }

    /// A run whose records are `records`, merged with an empty tail.
    fn merge_forged_run(records: &[&[u8]]) -> WarehouseResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let wh = Warehouse::new();
        let mut set = RunSet::new(
            wh.clone(),
            MemoryTracker::with_budget(1 << 20),
            ByteRuns,
            "t",
        );
        let path = set.guard.dir.child("run-00000").unwrap();
        let mut w = wh.create(&path).unwrap();
        for record in records {
            w.append_record(record);
        }
        w.finish().unwrap();
        set.runs.push(path);
        let mut merged = set.merge(Vec::new(), 0)?;
        let mut out = Vec::new();
        while let Some(entry) = merged.next_entry()? {
            out.push(entry);
        }
        Ok(out)
    }

    #[test]
    fn a_short_or_overlong_run_record_is_corrupt_not_a_panic() {
        let corrupt = Err(WarehouseError::Corrupt("byte run record"));
        let good: &[u8] = b"\0\0\0\x01kp";
        assert_eq!(
            merge_forged_run(&[good]),
            Ok(vec![(b"k".to_vec(), b"p".to_vec())])
        );
        // Truncated inside the length, as a run's first record and as a
        // later one.
        assert_eq!(merge_forged_run(&[b"\0\0"]), corrupt);
        assert_eq!(merge_forged_run(&[good, b""]), corrupt);
        // A key length past the end of the record.
        assert_eq!(merge_forged_run(&[b"\0\0\0\x09short"]), corrupt);
        assert_eq!(merge_forged_run(&[good, b"\xff\xff\xff\xffk"]), corrupt);
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
                    assert!(runs_spilled(&s) > 1, "budget must force spills");
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
            assert!(runs_spilled(&s) > 0, "panic test must spill first");
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
