//! Seeded chaos sweep over the Scribe delivery path.
//!
//! Each test drives [`uli_scribe::run_chaos`] across a range of seeds; the
//! harness injects aggregator crashes, session expiries, staging outages,
//! disk-full windows, and link faults (drop / lost ack / duplicate /
//! delay), then settles the pipeline, moves every hour, and audits the
//! delivery invariants. Every assertion message carries the seed, so any
//! failure reproduces with `run_chaos(<seed>, &cfg)` — no flake hunting.
//! The three sweeps also fold every run's report and partition of the
//! logged ids into a digest checked against a recorded constant, so a
//! delivery-path change that moves one outcome of one seed fails here.

use uli_scribe::network::LinkFaults;
use uli_scribe::{
    run_chaos, run_chaos_with, BatchPolicy, ChaosConfig, ChaosOutcome, FaultConfig, Sabotage,
};
use uli_warehouse::{fnv1a64_fold, FNV1A64_OFFSET};

/// Folds a run's report and its partition of the logged ids into `h`, so a
/// sweep's outcomes are pinned seed for seed.
fn fold_outcome(h: u64, o: &ChaosOutcome) -> u64 {
    fnv1a64_fold(h, format!("{:?} {:?}", o.report, o.accounting).as_bytes())
}

fn assert_clean(seed: u64, cfg: &ChaosConfig) -> ChaosOutcome {
    let o = run_chaos(seed, cfg);
    assert!(
        o.is_clean(),
        "seed {seed}: invariant violations: {:?}\nreport: {:?}\naccounting: {:?}",
        o.accounting.violations,
        o.report,
        o.accounting
    );
    let a = &o.accounting;
    assert_eq!(
        a.logged,
        a.delivered + a.buffered + a.lost + a.dropped,
        "seed {seed}: unique-id accounting must reconcile exactly: {a:?}"
    );
    assert_eq!(
        o.report.moved, a.delivered,
        "seed {seed}: mover output must match delivered-id accounting"
    );
    o
}

/// The main sweep: 104 seeds through the default fault mix, zero
/// violations allowed. Also proves the harness is not vacuous — across the
/// sweep every fault family must actually have produced observable damage
/// (crash losses, duplicate squashes, disk-full drops, delayed packets).
#[test]
fn sweep_default_faults_104_seeds() {
    let cfg = ChaosConfig::default();
    let (mut crash_loss, mut dup_merges, mut disk_drops, mut retries) = (0u64, 0u64, 0u64, 0u64);
    let mut outcomes = FNV1A64_OFFSET;
    for seed in 0..104 {
        let o = assert_clean(seed, &cfg);
        outcomes = fold_outcome(outcomes, &o);
        crash_loss += o.report.lost_in_crashes;
        dup_merges += o.report.duplicates_merged;
        disk_drops += o.report.dropped_disk_full;
        retries += o.report.retried;
        assert!(
            o.hours >= 6,
            "seed {seed}: default config should span 6 hours, got {}",
            o.hours
        );
    }
    assert_eq!(outcomes, 1641296343274048013, "the sweep's outcomes moved");
    assert!(
        crash_loss > 0,
        "no run lost entries to a crash: harness too tame"
    );
    assert!(
        dup_merges > 0,
        "no run squashed a duplicate: harness too tame"
    );
    assert!(
        disk_drops > 0,
        "no run hit a disk-full window: harness too tame"
    );
    assert!(
        retries > 0,
        "no run exercised the retry path: harness too tame"
    );
}

/// A hostile network: high drop / lost-ack / duplicate / delay rates plus a
/// higher crash rate. Duplicates flood the mover; none may survive.
#[test]
fn sweep_aggressive_link_faults_16_seeds() {
    let cfg = ChaosConfig {
        faults: FaultConfig {
            crash_rate: 0.03,
            link: LinkFaults {
                drop_rate: 0.08,
                ack_loss_rate: 0.08,
                duplicate_rate: 0.06,
                delay_rate: 0.15,
                max_delay_steps: 4,
            },
            ..FaultConfig::default()
        },
        ..ChaosConfig::default()
    };
    let mut dup_merges = 0u64;
    let mut outcomes = FNV1A64_OFFSET;
    for seed in 9000..9016 {
        let o = assert_clean(seed, &cfg);
        outcomes = fold_outcome(outcomes, &o);
        dup_merges += o.report.duplicates_merged;
    }
    assert_eq!(outcomes, 7093056537164995005, "the sweep's outcomes moved");
    assert!(
        dup_merges > 0,
        "an aggressive ack-loss/duplicate mix must force the mover to squash duplicates"
    );
}

/// Determinism: the same seed must yield byte-identical reports and
/// accounting, twice in a row — the property that makes every sweep
/// failure reproducible from its seed alone.
#[test]
fn same_seed_twice_is_byte_identical() {
    let cfg = ChaosConfig::default();
    for seed in [0u64, 17, 42, 9001] {
        let a = run_chaos(seed, &cfg);
        let b = run_chaos(seed, &cfg);
        assert_eq!(
            a.report, b.report,
            "seed {seed}: reports diverged across replays"
        );
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "seed {seed}: report debug rendering diverged"
        );
        assert_eq!(
            format!("{:?}", a.accounting),
            format!("{:?}", b.accounting),
            "seed {seed}: accounting diverged across replays"
        );
    }
}

/// The parallel mover under chaos: 20 seeds each at 4 and 8 delivery
/// workers, every invariant intact, and the outcome byte-identical to the
/// serial mover's same-seed run — parallelism must be invisible to both
/// the accounting and the delivered stream.
#[test]
fn sweep_parallel_mover_matches_serial_40_seeds() {
    for workers in [4usize, 8] {
        let mut cfg = ChaosConfig::default();
        cfg.topology.workers = uli_warehouse::Parallelism::fixed(workers);
        let serial_cfg = ChaosConfig::default();
        for seed in 300..320 {
            let o = assert_clean(seed, &cfg);
            let s = run_chaos(seed, &serial_cfg);
            assert_eq!(
                o.report, s.report,
                "seed {seed}: {workers}-worker mover diverged from serial report"
            );
            assert_eq!(
                format!("{:?}", o.accounting),
                format!("{:?}", s.accounting),
                "seed {seed}: {workers}-worker mover diverged from serial accounting"
            );
        }
    }
}

/// Negative control: a fault the harness does NOT account for (silent
/// deletion of a staged file) must trip the checker. If this test fails,
/// the sweep above is meaningless.
#[test]
fn checker_catches_unaccounted_loss() {
    // Quiet fault mix: with no duplicates in flight, deleting any staged
    // file is guaranteed to lose data rather than a redundant copy.
    let cfg = ChaosConfig {
        faults: FaultConfig::quiet(),
        ..ChaosConfig::default()
    };
    for seed in [1u64, 2, 3] {
        let o = run_chaos_with(seed, &cfg, Sabotage::DeleteStagedFile);
        assert!(
            !o.is_clean(),
            "seed {seed}: silent staged-file deletion went undetected"
        );
        assert!(
            o.accounting
                .violations
                .iter()
                .any(|v| v.contains("unaccounted")),
            "seed {seed}: expected an unaccounted-loss violation, got {:?}",
            o.accounting.violations
        );
    }
}

/// Batched delivery under the default fault mix: link faults now land at
/// batch granularity (a dropped message loses the whole batch, a duplicated
/// one replays every entry in it), and the delivery invariants must hold
/// just the same. Two explicit policies — a plain record cap and a
/// byte-capped lingering one — across 20 seeds each.
#[test]
fn sweep_batched_delivery_40_seeds() {
    let policies = [
        BatchPolicy {
            max_records: 16,
            ..BatchPolicy::default()
        },
        BatchPolicy {
            max_records: 64,
            max_bytes: 4 * 1024,
            linger_steps: 2,
        },
    ];
    let mut outcomes = FNV1A64_OFFSET;
    for (pi, policy) in policies.iter().enumerate() {
        let mut cfg = ChaosConfig::default();
        cfg.topology.batch = *policy;
        let (mut multi_entry_batches, mut retries) = (false, 0u64);
        for seed in 5000..5020 {
            let o = assert_clean(seed, &cfg);
            outcomes = fold_outcome(outcomes, &o);
            multi_entry_batches |= o.report.batches_sent < o.report.logged;
            retries += o.report.retried;
        }
        assert!(
            multi_entry_batches,
            "policy {pi}: no run ever packed more than one entry per batch"
        );
        assert!(
            retries > 0,
            "policy {pi}: no run retried a failed batch: harness too tame"
        );
    }
    assert_eq!(outcomes, 10655167588549775626, "the sweep's outcomes moved");
}

/// Negative control for batching: a batch stored only halfway but acked
/// whole must trip the checker as unaccounted loss. If this passes cleanly,
/// the batched sweep above proves nothing.
#[test]
fn checker_catches_half_applied_batch() {
    let mut cfg = ChaosConfig {
        faults: FaultConfig::quiet(),
        ..ChaosConfig::default()
    };
    // Multi-entry batches are what half-apply needs; keep the default cap.
    cfg.topology.batch = BatchPolicy::default();
    for seed in [1u64, 2, 3] {
        let o = run_chaos_with(seed, &cfg, Sabotage::HalfApplyBatch);
        assert!(
            !o.is_clean(),
            "seed {seed}: a half-applied, fully acked batch went undetected"
        );
        assert!(
            o.accounting
                .violations
                .iter()
                .any(|v| v.contains("unaccounted")),
            "seed {seed}: expected an unaccounted-loss violation, got {:?}",
            o.accounting.violations
        );
    }
}

/// Mover faults: every hour's first move attempt happens during a main
/// warehouse outage. The failed attempt must leave no debris, and the
/// retry must deliver everything exactly once.
#[test]
fn main_outage_at_every_move_stays_all_or_nothing() {
    let cfg = ChaosConfig {
        main_outage_at_move: true,
        ..ChaosConfig::default()
    };
    for seed in 100..108 {
        let o = assert_clean(seed, &cfg);
        assert!(o.report.moved > 0, "seed {seed}: nothing delivered");
    }
}

/// Serving-layer consistency under chaos: an [`uli_serve::IndexMaintainer`]
/// rides the delivery tap through the full fault mix, with a crash injected
/// in the window between hour-land and index-commit on two of every three
/// seeds. The landed hours stay visible while their index is missing;
/// after `recover()` the index must account for exactly the audited
/// delivered partition — never a lost hour, never a double count — and a
/// second recovery must change nothing.
#[test]
fn serving_index_reconciles_with_delivered_partition_under_chaos() {
    use std::cell::RefCell;
    use uli_serve::IndexMaintainer;

    let cfg = ChaosConfig::default();
    let mut rebuilt_total = 0u64;
    for seed in 700..716 {
        let injected = seed % 3; // 0, 1, or 2 crash windows per seed
        let slot: RefCell<Option<IndexMaintainer>> = RefCell::new(None);
        let o = uli_scribe::run_chaos_prepared(seed, &cfg, |pipe| {
            let m = IndexMaintainer::new(pipe.main_warehouse().clone(), "client_events");
            m.fail_next_commits(injected);
            pipe.add_delivery_tap(m.tap());
            *slot.borrow_mut() = Some(m);
        });
        assert!(
            o.is_clean(),
            "seed {seed}: delivery invariants broke under the tap: {:?}",
            o.accounting.violations
        );
        let m = slot.into_inner().expect("chaos prepare ran");
        let rebuilt = m
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed}: recover: {e}"));
        let hours = m.indexed_hours();
        assert_eq!(
            rebuilt,
            injected.min(hours.len() as u64),
            "seed {seed}: recover() must rebuild exactly the crash-window hours"
        );
        rebuilt_total += rebuilt;
        assert_eq!(m.lag_hours(), 0, "seed {seed}: index lags after recovery");
        let indexed: u64 = hours
            .iter()
            .filter_map(|&h| m.hour_index(h))
            .map(|i| i.records)
            .sum();
        assert_eq!(
            indexed,
            o.accounting.delivered,
            "seed {seed}: serve index must account for exactly the audited \
             delivered partition ({} hours indexed)",
            hours.len()
        );
        // Recovery is idempotent: running it again rebuilds nothing and
        // the accounting stands.
        assert_eq!(
            m.recover().unwrap(),
            0,
            "seed {seed}: recover not idempotent"
        );
        let again: u64 = m
            .indexed_hours()
            .iter()
            .filter_map(|&h| m.hour_index(h))
            .map(|i| i.records)
            .sum();
        assert_eq!(again, indexed, "seed {seed}: re-recovery changed counts");
    }
    assert!(
        rebuilt_total > 0,
        "no seed exercised the land/commit crash window: sweep too tame"
    );
}

/// An `hour.idx` of the layout before this one is one more victim: a
/// restarted maintainer over a chaos-delivered warehouse in which one
/// committed index was swapped for old-layout bytes rebuilds that hour and
/// no other, and accounts for the same delivered partition.
#[test]
fn an_old_layout_index_is_rebuilt_like_a_crash_window_victim() {
    use std::cell::RefCell;
    use uli_serve::hour::index_dir;
    use uli_serve::IndexMaintainer;
    use uli_warehouse::{HourlyPartition, Warehouse};

    let cfg = ChaosConfig::default();
    let slot: RefCell<Option<Warehouse>> = RefCell::new(None);
    let o = uli_scribe::run_chaos_prepared(700, &cfg, |pipe| {
        let wh = pipe.main_warehouse().clone();
        pipe.add_delivery_tap(IndexMaintainer::new(wh.clone(), "client_events").tap());
        *slot.borrow_mut() = Some(wh);
    });
    assert!(o.is_clean());
    let wh = slot.into_inner().expect("chaos prepare ran");
    let first = IndexMaintainer::new(wh.clone(), "client_events");
    assert_eq!(first.recover().unwrap(), 0, "seed 700 injects no crash");
    let hours = first.indexed_hours();
    let victim = hours[hours.len() / 2];
    let partition = HourlyPartition::from_hour_index("client_events", victim);
    let idx = index_dir(&partition).child("hour.idx").unwrap();
    wh.delete_file(&idx).unwrap();
    let mut w = wh.create(&idx).unwrap();
    w.append_record(b"UHI\x01\x00\x00\x00\x00\x00\x00");
    w.finish().unwrap();

    let restarted = IndexMaintainer::new(wh.clone(), "client_events");
    assert_eq!(restarted.recover().unwrap(), 1);
    assert_eq!(restarted.indexed_hours(), hours);
    for &hour in &hours {
        assert_eq!(restarted.hour_index(hour), first.hour_index(hour));
    }
    let indexed: u64 = hours
        .iter()
        .filter_map(|&h| restarted.hour_index(h))
        .map(|i| i.records)
        .sum();
    assert_eq!(indexed, o.accounting.delivered);
}
