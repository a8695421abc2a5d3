//! What a reducing operator holds while it reads a LOAD chain: one map
//! window of unit rows beside its budgeted state, never the chain's whole
//! output. A counting global allocator (which is why this is a test binary
//! of its own) tracks the bytes live on the heap; ORDER BY, GROUP BY and
//! DISTINCT each run over a day of many scan units under a small budget, and
//! the peak during `run` — past the warehouse's own bytes and past the rows
//! the query returns — must stay under what the operator may hold: its
//! buffer, the run files it spilled into the (in-memory) warehouse with one
//! decoded block of each open at the merge, and the rows of the one unit a
//! serial map window keeps.
//!
//! ORDER BY and GROUP BY return every row they read, so their peak falls
//! while the answer is built beside the open runs, and what they hold past
//! it is the same whether or not their input arrived whole. DISTINCT
//! returns a few hundred rows of a hundred thousand: held input shows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use uli_dataflow::prelude::*;
use uli_dataflow::{CsvLoader, Engine, Parallelism};
use uli_warehouse::{Warehouse, WhPath};

/// Bytes allocated less bytes freed, on every thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The largest `LIVE` seen since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn grow(bytes: i64) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The old and the new block are both live while the bytes move.
        grow(new_size as i64);
        grow(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

const ROWS: i64 = 100_000;
const BUDGET: u64 = 64 * 1024;
const BLOCK: usize = 16 * 1024;
/// Heap bytes a buffered row may take per byte it is billed: the tracker
/// bills wire sizes plus a fixed entry overhead, while a buffered tuple is a
/// vector of enum cells and their strings, in a buffer grown by doubling.
const HEAP_PER_BILLED_BYTE: i64 = 4;

/// 100 K CSV rows (user, action, amount) in 16 KiB blocks, with the block
/// cache off, so reading the day adds nothing to the warehouse.
fn day() -> (Warehouse, WhPath) {
    let wh = Warehouse::with_config(BLOCK, 0);
    let dir = WhPath::parse("/logs/day").unwrap();
    let actions = ["click", "impression", "follow", "search"];
    for file in 0..4 {
        let mut w = wh
            .create(&dir.child(&format!("part-{file}")).unwrap())
            .unwrap();
        for i in (file..ROWS).step_by(4) {
            let action = actions[(i * 7 % 4) as usize];
            w.append_record(format!("{},{action},{}", i % 500, (i * 7919) % 100_003).as_bytes());
        }
        w.finish().unwrap();
    }
    (wh, dir)
}

#[test]
fn a_reducing_operator_holds_a_unit_of_its_input_not_the_whole_of_it() {
    let (wh, dir) = day();
    let load = || {
        Plan::load(
            dir.clone(),
            Arc::new(CsvLoader::new(3)),
            vec!["user", "action", "amount"],
        )
    };
    let engine = Engine::new(wh)
        .with_parallelism(Parallelism::fixed(1))
        .with_mem_budget(BUDGET);

    // What one unit of the day weighs as tuples: the bare LOAD's rows over
    // its units.
    let before = live();
    let all = engine.run(&load()).unwrap();
    let units = all.stats.input_blocks;
    assert!(units >= 64, "{units} units is too few to tell");
    assert_eq!(all.rows.len() as i64, ROWS);
    let unit_bytes = (live() - before) / units as i64;
    drop(all);

    for (name, plan) in [
        ("order", load().order_by(vec![(2, SortOrder::Desc)])),
        ("group", load().group_by(vec![0])),
        (
            "distinct",
            load()
                .foreach(vec![("user", Expr::col(0)), ("action", Expr::col(1))])
                .distinct(),
        ),
    ] {
        let before = live();
        reset_peak();
        let result = engine.run(&plan).unwrap();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        // The answer itself is the caller's, not the operator's state.
        let answer = live() - before;
        let held = peak - answer;
        let stats = result.stats;
        assert!(stats.spill_runs > 0, "{name}: the budget must bind");
        assert!(stats.mem_high_water_bytes <= BUDGET, "{name}");
        let runs = stats.spill_bytes as i64 + stats.spill_runs as i64 * BLOCK as i64;
        let bound = HEAP_PER_BILLED_BYTE * BUDGET as i64 + runs + unit_bytes;
        eprintln!("{name}: peak {peak}, answer {answer}, held {held}, bound {bound}");
        assert!(
            held <= bound,
            "{name}: {held} bytes held beyond the answer, bound {bound} \
             (budget {BUDGET}, runs {runs}, one unit {unit_bytes})"
        );
    }
}
