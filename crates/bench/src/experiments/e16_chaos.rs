//! E16 — §2: delivery invariants of the Scribe path under seeded chaos.
//!
//! Paper claim: "The entire pipeline is robust with respect to transient
//! failures" — aggregator crashes, coordination hiccups, and staging
//! outages must never silently lose or duplicate acked data. E16 sweeps
//! seeded fault schedules through the chaos harness and reconciles every
//! entry id exactly: delivered + buffered + crash-lost + dropped == logged,
//! with zero duplicates surviving the log-mover merge. A final negative run
//! injects a fault the accounting does *not* cover (silent deletion of a
//! staged file) and shows the checker tripping — evidence the green sweep
//! is meaningful.

use uli_scribe::{run_chaos, run_chaos_with, ChaosConfig, FaultConfig, Sabotage};

use crate::cells;
use crate::harness::Table;

/// Sweeps 32 chaos schedules (8 for a smoke run, which keeps CI fast while
/// still exercising the checker and the negative control); panics (failing
/// `repro`) on any invariant violation. Returns the rendered report.
pub fn measure(smoke: bool) -> String {
    let seeds: u64 = if smoke { 8 } else { 32 };
    let cfg = ChaosConfig::default();
    let mut out = format!(
        "E16 — chaos sweep over the Scribe delivery path (§2)\n\
         {} DCs x {} hosts, {} aggregators/DC; {} chaotic steps/seed;\n\
         faults: crashes, session expiries, staging outages, disk-full\n\
         windows, link drop/ack-loss/duplicate/delay; {seeds} seeds.\n\n",
        cfg.topology.datacenters,
        cfg.topology.hosts_per_dc,
        cfg.topology.aggregators_per_dc,
        cfg.steps,
    );
    let mut table = Table::new(&[
        "seed",
        "logged",
        "delivered",
        "buffered",
        "crash-lost",
        "dropped",
        "dups-squashed",
        "retries",
    ]);
    let (mut logged, mut delivered, mut lost, mut dropped, mut dups) = (0u64, 0, 0, 0, 0);
    for seed in 0..seeds {
        let o = run_chaos(seed, &cfg);
        assert!(
            o.is_clean(),
            "seed {seed}: invariant violations: {:?}",
            o.accounting.violations
        );
        let a = &o.accounting;
        assert_eq!(
            a.logged,
            a.delivered + a.buffered + a.lost + a.dropped,
            "seed {seed}: id accounting must reconcile exactly"
        );
        table.row(cells![
            seed,
            a.logged,
            a.delivered,
            a.buffered,
            a.lost,
            a.dropped,
            o.report.duplicates_merged,
            o.report.retried
        ]);
        logged += a.logged;
        delivered += a.delivered;
        lost += a.lost;
        dropped += a.dropped;
        dups += o.report.duplicates_merged;
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\ntotals: logged {logged}, delivered {delivered}, crash-lost {lost}, \
         dropped {dropped}; {dups} duplicate copies squashed by the merge.\n\
         invariant checked per seed: delivered + buffered + crash-lost +\n\
         dropped == logged over unique entry ids, zero duplicates visible,\n\
         every hour moved all-or-nothing.\n",
    ));

    // Negative control: a fault outside the accounted model must trip the
    // checker, or the sweep above proves nothing.
    let quiet = ChaosConfig {
        faults: FaultConfig::quiet(),
        ..ChaosConfig::default()
    };
    let sabotaged = run_chaos_with(1, &quiet, Sabotage::DeleteStagedFile);
    assert!(
        !sabotaged.is_clean(),
        "negative control failed: silent staged-file deletion went undetected"
    );
    out.push_str(&format!(
        "\nnegative control: silently deleted one staged file pre-move;\n\
         checker tripped with {} violation(s), e.g. \"{}\".\n",
        sabotaged.accounting.violations.len(),
        sabotaged
            .accounting
            .violations
            .first()
            .map(String::as_str)
            .unwrap_or("<none>")
    ));
    out
}
