//! Worker-pool parallelism for scans.
//!
//! The paper's query layer owes its throughput to fan-out: "tens of
//! thousands of mappers" chew through blocks in parallel (§4.1). This module
//! is the single-process analogue — a [`ScanPool`] that maps a function over
//! a work list on `N` OS threads while keeping results in **deterministic
//! input order**, so parallel scans produce byte-identical output to serial
//! ones.
//!
//! [`Parallelism`] is the knob threaded through every layer that scans
//! (dataflow engine, sessionizer, benches). It only sets how many threads
//! the pool may use: one worker runs the same shards inline on the calling
//! thread, so there is no separate serial code path anywhere above this
//! module. The default follows the host's available parallelism.

use std::sync::Mutex;

use uli_obs::lock;

/// How many worker threads a scan may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// One worker: every [`ScanPool::map`] runs inline on the calling
    /// thread.
    pub fn serial() -> Self {
        Parallelism(1)
    }

    /// Exactly `workers` threads (clamped up to 1).
    pub fn fixed(workers: usize) -> Self {
        Parallelism(workers.max(1))
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Parallelism(n)
    }

    /// The worker count.
    pub fn workers(self) -> usize {
        self.0
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl From<usize> for Parallelism {
    fn from(workers: usize) -> Self {
        Parallelism::fixed(workers)
    }
}

/// A scoped worker pool that maps a function over a work list.
///
/// Work items are handed out dynamically (a shared queue, not static
/// striping) so a straggler block cannot idle the other workers, but results
/// are returned **in input order** regardless of completion order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanPool {
    parallelism: Parallelism,
}

impl ScanPool {
    /// A pool that uses `parallelism` workers per [`ScanPool::map`] call.
    /// Threads are scoped to each call; nothing lingers between calls.
    pub fn new(parallelism: Parallelism) -> Self {
        ScanPool { parallelism }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.parallelism.workers()
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// `f` receives `(input_index, item)`. With one worker (or one item) the
    /// map runs inline on the calling thread — no threads are spawned, no
    /// ordering differences are possible. A panic in any worker propagates
    /// to the caller.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n_workers = self.workers().min(items.len());
        if n_workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let len = items.len();
        let queue = Mutex::new(items.into_iter().enumerate());
        let collected = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, T)> = Vec::new();
                        loop {
                            // Take one item per lock so big items don't
                            // serialize behind the queue.
                            let next = lock(&queue).next();
                            match next {
                                Some((idx, item)) => done.push((idx, f(idx, item))),
                                None => return done,
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("scan worker panicked"))
                .collect::<Vec<_>>()
        });
        // Re-sequence by input index: completion order is nondeterministic,
        // output order must not be.
        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        for (idx, value) in collected {
            debug_assert!(slots[idx].is_none(), "duplicate work item {idx}");
            slots[idx] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker dropped an item"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_clamps_and_defaults() {
        assert_eq!(Parallelism::serial().workers(), 1);
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert_eq!(Parallelism::fixed(6).workers(), 6);
        assert!(Parallelism::auto().workers() >= 1);
        assert_eq!(Parallelism::from(4), Parallelism::fixed(4));
    }

    #[test]
    fn map_preserves_input_order() {
        let pool = ScanPool::new(Parallelism::fixed(4));
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(items, |idx, x| {
            assert_eq!(idx as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let serial = ScanPool::new(Parallelism::serial()).map(items.clone(), |i, s| (i, s));
        let parallel = ScanPool::new(Parallelism::fixed(8)).map(items, |i, s| (i, s));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn work_is_shared_across_threads() {
        let pool = ScanPool::new(Parallelism::fixed(4));
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        pool.map(items, |_, _| {
            lock(&seen).insert(std::thread::current().id());
            // Give other workers a chance to grab queue items.
            std::thread::yield_now();
        });
        // With 4 workers and 64 items at least two threads should have
        // participated; exact count is scheduler-dependent.
        assert!(lock(&seen).len() >= 2, "work never left one thread");
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ScanPool::new(Parallelism::fixed(8));
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(empty, |_, x| x).is_empty());
        assert_eq!(pool.map(vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let pool = ScanPool::new(Parallelism::fixed(3));
        let calls = AtomicUsize::new(0);
        let out = pool.map((0..500usize).collect(), |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }
}
