//! Deterministic chaos harness for the Scribe delivery path.
//!
//! A [`FaultPlan`] is a seeded RNG schedule over every fault surface the
//! pipeline exposes: aggregator crashes and delayed respawns, coordination
//! session expiry for daemons and aggregators, staging-warehouse outage
//! windows, disk-full windows on host-local buffers, and per-send link
//! faults (drop / lost ack / duplicate / delay). [`run_chaos`] drives a
//! whole run from a single `u64` seed — chaotic phase, recovery, settle,
//! seal-and-move — and then [`check_invariants`] audits the end state:
//!
//! 1. **No silent loss**: every id ever logged is delivered, still
//!    buffered, accounted lost in an explicit crash window, or visibly
//!    dropped (disk-full or category policy). Anything else is a violation.
//! 2. **No duplicates**: no id survives the log-mover merge twice.
//! 3. **All-or-nothing hours**: no assembly debris under `/staging` in the
//!    main warehouse; an hour is either fully visible or absent.
//! 4. **Exact counter reconciliation**: `logged = moved + buffered + lost +
//!    dropped`, in unique-id terms, with `moved` matching the mover's
//!    byte-level output.
//!
//! Everything is deterministic in the seed, so any failing schedule is
//! reproducible with one number.

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng, StdRng};

use crate::message::{EntryId, LogEntry};
use crate::mover::DONE_MARKER;
use crate::network::LinkFaults;
use crate::pipeline::{PipelineConfig, PipelineReport, ScribePipeline};

/// Per-step fault probabilities and window shapes for a chaos run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Per aggregator-slot per step: probability of a hard crash.
    pub crash_rate: f64,
    /// Steps until a crashed slot respawns (uniform, inclusive).
    pub respawn_delay: (u64, u64),
    /// Per daemon per step: probability its coordination session expires.
    pub daemon_expiry_rate: f64,
    /// Per aggregator per step: probability its session expires (the
    /// process survives and re-registers on its next heartbeat).
    pub aggregator_expiry_rate: f64,
    /// Per datacenter per step: probability a staging outage window opens.
    pub staging_outage_rate: f64,
    /// Staging outage window length in steps (uniform, inclusive).
    pub staging_outage_len: (u64, u64),
    /// Per datacenter per step: probability a disk-full window opens on
    /// its hosts' local buffers.
    pub disk_full_rate: f64,
    /// Disk-full window length in steps (uniform, inclusive).
    pub disk_full_len: (u64, u64),
    /// Queue capacity imposed during a disk-full window.
    pub disk_full_capacity: usize,
    /// Per-send network faults, armed for the whole chaotic phase.
    pub link: LinkFaults,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            crash_rate: 0.02,
            respawn_delay: (2, 6),
            daemon_expiry_rate: 0.005,
            aggregator_expiry_rate: 0.01,
            staging_outage_rate: 0.04,
            staging_outage_len: (2, 6),
            disk_full_rate: 0.04,
            disk_full_len: (2, 5),
            // Tight enough that a burst of traffic during the window
            // actually overflows a host queue and drops entries.
            disk_full_capacity: 1,
            link: LinkFaults {
                drop_rate: 0.02,
                ack_loss_rate: 0.02,
                duplicate_rate: 0.02,
                delay_rate: 0.06,
                max_delay_steps: 3,
            },
        }
    }
}

impl FaultConfig {
    /// A configuration with every fault disabled (for negative tests that
    /// need a perfectly quiet delivery path).
    pub fn quiet() -> Self {
        FaultConfig {
            crash_rate: 0.0,
            respawn_delay: (1, 1),
            daemon_expiry_rate: 0.0,
            aggregator_expiry_rate: 0.0,
            staging_outage_rate: 0.0,
            staging_outage_len: (1, 1),
            disk_full_rate: 0.0,
            disk_full_len: (1, 1),
            disk_full_capacity: usize::MAX,
            link: LinkFaults::default(),
        }
    }
}

/// A seeded, replayable schedule of faults, applied one step at a time via
/// [`ScribePipeline::step_with_faults`].
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
    step: u64,
    dcs: usize,
    hosts: usize,
    slots: usize,
    /// Crashed slots and the step at which they respawn.
    respawn_at: Vec<(u64, usize, usize)>,
    staging_down_until: Vec<u64>,
    disk_full_until: Vec<u64>,
    /// Crashes injected so far.
    pub crashes: u64,
    /// Session expiries injected so far.
    pub expiries: u64,
    /// Staging outage windows opened so far.
    pub outages: u64,
    /// Disk-full windows opened so far.
    pub disk_full_windows: u64,
}

impl FaultPlan {
    /// Builds a plan for the given topology. The same `(seed, cfg,
    /// topology)` triple always yields the same schedule.
    pub fn new(seed: u64, cfg: FaultConfig, topology: &PipelineConfig) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            dcs: topology.datacenters,
            hosts: topology.hosts_per_dc,
            slots: topology.aggregators_per_dc,
            respawn_at: Vec::new(),
            staging_down_until: vec![0; topology.datacenters],
            disk_full_until: vec![0; topology.datacenters],
            crashes: 0,
            expiries: 0,
            outages: 0,
            disk_full_windows: 0,
            cfg,
        }
    }

    /// Injects this step's faults. RNG draws happen in a fixed order
    /// regardless of pipeline state, so replays are exact.
    pub fn apply(&mut self, pipe: &mut ScribePipeline) {
        self.step += 1;
        let now = self.step;
        // Respawn crashed slots that have served their delay.
        let due: Vec<(u64, usize, usize)> = {
            let (due, later): (Vec<_>, Vec<_>) =
                self.respawn_at.drain(..).partition(|(at, _, _)| *at <= now);
            self.respawn_at = later;
            due
        };
        for (_, dc, slot) in due {
            if !pipe.aggregator_is_up(dc, slot) {
                pipe.spawn_aggregator(dc, slot);
            }
        }
        for dc in 0..self.dcs {
            // Staging outage windows.
            if self.staging_down_until[dc] <= now {
                pipe.set_staging_available(dc, true);
                if self.rng.gen_bool(self.cfg.staging_outage_rate) {
                    let (lo, hi) = self.cfg.staging_outage_len;
                    self.staging_down_until[dc] = now + self.rng.gen_range(lo..=hi);
                    pipe.set_staging_available(dc, false);
                    self.outages += 1;
                }
            }
            // Disk-full windows on host-local buffers.
            if self.disk_full_until[dc] <= now {
                pipe.set_host_queue_capacity(dc, None);
                if self.rng.gen_bool(self.cfg.disk_full_rate) {
                    let (lo, hi) = self.cfg.disk_full_len;
                    self.disk_full_until[dc] = now + self.rng.gen_range(lo..=hi);
                    pipe.set_host_queue_capacity(dc, Some(self.cfg.disk_full_capacity));
                    self.disk_full_windows += 1;
                }
            }
            // Aggregator crashes (with scheduled respawn) and expiries.
            for slot in 0..self.slots {
                if self.rng.gen_bool(self.cfg.crash_rate) && pipe.aggregator_is_up(dc, slot) {
                    pipe.crash_aggregator(dc, slot);
                    let (lo, hi) = self.cfg.respawn_delay;
                    self.respawn_at
                        .push((now + self.rng.gen_range(lo..=hi), dc, slot));
                    self.crashes += 1;
                }
                if self.rng.gen_bool(self.cfg.aggregator_expiry_rate) {
                    pipe.expire_aggregator_session(dc, slot);
                    self.expiries += 1;
                }
            }
            // Daemon session expiries.
            for host in 0..self.hosts {
                if self.rng.gen_bool(self.cfg.daemon_expiry_rate) {
                    pipe.expire_daemon_session(dc, host);
                    self.expiries += 1;
                }
            }
        }
    }

    /// Ends the chaotic phase: restores every availability window, respawns
    /// dead slots, disarms link faults. The pipeline can then drain.
    pub fn recover(&mut self, pipe: &mut ScribePipeline) {
        for dc in 0..self.dcs {
            pipe.set_staging_available(dc, true);
            pipe.set_host_queue_capacity(dc, None);
            self.staging_down_until[dc] = 0;
            self.disk_full_until[dc] = 0;
            for slot in 0..self.slots {
                if !pipe.aggregator_is_up(dc, slot) {
                    pipe.spawn_aggregator(dc, slot);
                }
            }
        }
        self.respawn_at.clear();
        pipe.clear_link_faults();
        pipe.set_main_available(true);
    }
}

/// Shape of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Pipeline topology.
    pub topology: PipelineConfig,
    /// Chaotic steps to drive.
    pub steps: u64,
    /// Steps per hour boundary (aggregators flush at each boundary).
    pub steps_per_hour: u64,
    /// Traffic: up to this many entries logged per step (uniform).
    pub max_entries_per_step: u64,
    /// Fault schedule parameters.
    pub faults: FaultConfig,
    /// Cap on post-recovery settle steps (must exceed the daemons' max
    /// backoff cooldown or a healthy run can fail to drain).
    pub settle_steps: u64,
    /// If set, the first move attempt of every hour happens during a main
    /// warehouse outage — it must fail, and the retry must succeed with no
    /// duplicates (exercises all-or-nothing under mover faults).
    pub main_outage_at_move: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            topology: PipelineConfig {
                datacenters: 2,
                hosts_per_dc: 4,
                aggregators_per_dc: 2,
                records_per_file: 64,
                batch: crate::daemon::BatchPolicy::default(),
                workers: uli_warehouse::Parallelism::serial(),
            },
            steps: 48,
            steps_per_hour: 8,
            max_entries_per_step: 12,
            faults: FaultConfig::default(),
            settle_steps: 64,
            main_outage_at_move: false,
        }
    }
}

/// An extra, deliberately *unaccounted* fault injected to prove the
/// checker can fail (negative testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// No sabotage: a clean run must produce zero violations.
    None,
    /// After the final flush, silently delete one staged file before the
    /// mover runs. Acked, durably-staged data vanishing outside any crash
    /// window must trip the checker.
    DeleteStagedFile,
    /// Arm the network's one-shot half-apply trap: the first multi-entry
    /// batch is stored only partially but acked whole. The silently
    /// dropped half must surface as unaccounted entries.
    HalfApplyBatch,
}

/// Everything a chaos run produces, reproducible from its seed.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Seed that generated this run (replay with `run_chaos(seed, cfg)`).
    pub seed: u64,
    /// Hours the run spanned.
    pub hours: u64,
    /// Final pipeline counters.
    pub report: PipelineReport,
    /// Invariant audit: unique-id accounting and any violations.
    pub accounting: InvariantReport,
}

impl ChaosOutcome {
    /// True if the run satisfied every delivery invariant.
    pub fn is_clean(&self) -> bool {
        self.accounting.violations.is_empty()
    }
}

/// Runs one seeded chaos schedule end to end and audits the result.
pub fn run_chaos(seed: u64, cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_impl(seed, cfg, Sabotage::None, |_| {})
}

/// [`run_chaos`], optionally with an unaccounted sabotage injected.
pub fn run_chaos_with(seed: u64, cfg: &ChaosConfig, sabotage: Sabotage) -> ChaosOutcome {
    run_chaos_impl(seed, cfg, sabotage, |_| {})
}

/// [`run_chaos`] with arbitrary pipeline preparation before any traffic
/// flows. The streaming layer installs its delivery tap here, so the tap
/// observes exactly the records the audited run delivers; the serving
/// layer binds an index maintainer to the run's own main warehouse
/// (`pipe.main_warehouse()`) and switches the mover to a columnar landing
/// before installing its tap.
pub fn run_chaos_prepared(
    seed: u64,
    cfg: &ChaosConfig,
    prepare: impl FnOnce(&mut ScribePipeline),
) -> ChaosOutcome {
    run_chaos_impl(seed, cfg, Sabotage::None, prepare)
}

fn run_chaos_impl(
    seed: u64,
    cfg: &ChaosConfig,
    sabotage: Sabotage,
    prepare: impl FnOnce(&mut ScribePipeline),
) -> ChaosOutcome {
    let mut pipe = ScribePipeline::new(cfg.topology);
    prepare(&mut pipe);
    // Decorrelate the three RNG streams with distinct salts.
    let mut plan = FaultPlan::new(
        seed ^ 0x000F_A017_5C4E_D01E,
        cfg.faults.clone(),
        &cfg.topology,
    );
    pipe.set_link_faults(seed ^ 0x114B_FA17, cfg.faults.link);
    let mut traffic = StdRng::seed_from_u64(seed ^ 0x07EA_FF1C);
    if sabotage == Sabotage::HalfApplyBatch {
        pipe.network().arm_half_apply();
    }

    // Phase 1 — chaos: log traffic and advance under the fault schedule.
    // Hours are flushed at each boundary but never sealed or moved while
    // faults are live: re-deliveries of a moved hour land in later hours,
    // which is exactly what the mover's dedup must absorb.
    for step in 0..cfg.steps {
        let n = traffic.gen_range(0..=cfg.max_entries_per_step);
        for i in 0..n {
            let dc = traffic.gen_range(0..cfg.topology.datacenters);
            let host = traffic.gen_range(0..cfg.topology.hosts_per_dc);
            pipe.log(
                dc,
                host,
                LogEntry::new("client_events", format!("s{step}e{i}").into_bytes()),
            );
        }
        pipe.step_with_faults(&mut plan);
        if (step + 1) % cfg.steps_per_hour == 0 {
            pipe.flush_hour(step / cfg.steps_per_hour);
        }
    }
    let hours = cfg.steps.div_ceil(cfg.steps_per_hour).max(1);
    let last_hour = hours - 1;

    // Phase 2 — recovery and settle: clear faults, then pump until the
    // pipeline is quiescent (or the bounded settle budget runs out, which
    // the checker will then surface as buffered-vs-lost discrepancies).
    plan.recover(&mut pipe);
    for _ in 0..cfg.settle_steps {
        pipe.step();
        pipe.flush_hour(last_hour);
        let r = pipe.report();
        if r.host_buffered == 0 && r.in_flight == 0 && r.aggregator_buffered == 0 {
            break;
        }
    }

    let mut extra_violations = Vec::new();
    if sabotage == Sabotage::DeleteStagedFile && !delete_one_staged_file(&pipe) {
        extra_violations.push("sabotage requested but no staged file to delete".to_string());
    }

    // Phase 3 — seal and move every hour.
    for hour in 0..hours {
        pipe.seal_hour("client_events", hour);
        if cfg.main_outage_at_move {
            pipe.set_main_available(false);
            if pipe.move_hour("client_events", hour).is_ok() {
                extra_violations.push(format!("hour {hour}: move succeeded during main outage"));
            }
            pipe.set_main_available(true);
        }
        if let Err(e) = pipe.move_hour("client_events", hour) {
            extra_violations.push(format!("hour {hour}: move failed after recovery: {e}"));
        }
    }

    let mut accounting = check_invariants(&pipe);
    accounting.violations.extend(extra_violations);
    ChaosOutcome {
        seed,
        hours,
        report: pipe.report(),
        accounting,
    }
}

/// Silently deletes one staged (non-marker) file — the sabotage primitive.
fn delete_one_staged_file(pipe: &ScribePipeline) -> bool {
    let root = uli_warehouse::WhPath::parse("/logs").expect("valid path");
    for dc in 0..pipe.datacenter_count() {
        let wh = pipe.staging_warehouse(dc);
        let Ok(files) = wh.list_files_recursive(&root) else {
            continue;
        };
        for f in files {
            if f.name() == DONE_MARKER {
                continue;
            }
            if wh.delete_file(&f).is_ok() {
                return true;
            }
        }
    }
    false
}

/// Unique-id delivery accounting produced by [`check_invariants`].
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Human-readable invariant violations; empty for a healthy run.
    pub violations: Vec<String>,
    /// Distinct ids ever logged.
    pub logged: u64,
    /// Ids visible in the main warehouse.
    pub delivered: u64,
    /// Ids still buffered (host queue, aggregator, or in flight).
    pub buffered: u64,
    /// Ids lost in explicit crash windows (and in no other bucket).
    pub lost: u64,
    /// Ids visibly dropped (disk-full or category policy).
    pub dropped: u64,
}

/// Audits a settled pipeline against the delivery invariants. Expects
/// aggregator channels to be drained (run it after a settle phase);
/// undrained channels are themselves reported as a violation because their
/// ids are invisible to the audit.
pub fn check_invariants(pipe: &ScribePipeline) -> InvariantReport {
    let mut violations = Vec::new();

    // The ground truth: every id each daemon ever stamped.
    let mut logged: BTreeSet<EntryId> = BTreeSet::new();
    for d in pipe.daemons() {
        for seq in 0..d.logged {
            logged.insert(EntryId {
                host: d.host_id(),
                seq,
            });
        }
    }

    // The mover's committed seen set is the record of what was delivered.
    // Invariant: nothing is delivered that was never logged — no watermark
    // runs past its host's stamps, and no residual id is unknown.
    let delivered = pipe.seen();
    let (watermarks, residual) = delivered.snapshot();
    for (host, next) in watermarks {
        let stamped = pipe
            .daemons()
            .find(|d| d.host_id() == host)
            .map_or(0, |d| d.logged);
        if next > stamped {
            violations.push(format!(
                "delivered ids {host}:{stamped}..{next} were never logged"
            ));
        }
    }
    for id in residual {
        if !logged.contains(&id) {
            violations.push(format!("delivered id was never logged: {id}"));
        }
    }
    // Invariant: no duplicates survive the merge. The moved counter counts
    // every copy that landed and the seen set every distinct id (all
    // pipeline traffic is stamped), so a surviving copy tips them apart.
    let report = pipe.report();
    if report.moved != delivered.len() {
        violations.push(format!(
            "moved counter ({}) disagrees with the delivered ids ({}): a duplicate survived the merge",
            report.moved,
            delivered.len()
        ));
    }

    let mut buffered: BTreeSet<EntryId> = BTreeSet::new();
    for d in pipe.daemons() {
        buffered.extend(d.queued_ids());
    }
    for a in pipe.aggregators() {
        buffered.extend(a.unflushed_ids());
    }
    buffered.extend(pipe.network().delayed_ids());
    let channel_backlog: u64 = pipe.aggregators().map(|a| a.in_channel()).sum();
    if channel_backlog > 0 {
        violations.push(format!(
            "{channel_backlog} entries undrained in aggregator channels: audit needs a settled pipeline"
        ));
    }

    let lost: BTreeSet<EntryId> = pipe.lost_ids().iter().copied().collect();
    let mut dropped: BTreeSet<EntryId> = BTreeSet::new();
    for d in pipe.daemons() {
        dropped.extend(d.dropped_ids().iter().copied());
    }
    dropped.extend(pipe.policy_dropped_ids());
    // Invariant: an entry dropped at its host never reached the network, so
    // a delivered copy would mean identity corruption.
    for id in &dropped {
        if delivered.contains(id) {
            violations.push(format!("host-dropped id was also delivered: {id}"));
        }
    }

    // Invariant: all-or-nothing hours — a successful run leaves no
    // assembly debris under /staging in the main warehouse.
    let staging_root = uli_warehouse::WhPath::parse("/staging").expect("valid path");
    if let Ok(debris) = pipe.main_warehouse().list_files_recursive(&staging_root) {
        if !debris.is_empty() {
            violations.push(format!(
                "{} assembly file(s) left under /staging: a move was not all-or-nothing",
                debris.len()
            ));
        }
    }

    // Invariant: exact reconciliation. Partition the logged set — an id may
    // appear in several buckets (a duplicated copy can be crash-lost while
    // another copy is delivered), so buckets are claimed in priority order;
    // an id claimed by no bucket is silent loss.
    let (mut n_delivered, mut n_buffered, mut n_lost, mut n_dropped) = (0u64, 0u64, 0u64, 0u64);
    for id in &logged {
        if delivered.contains(id) {
            n_delivered += 1;
        } else if buffered.contains(id) {
            n_buffered += 1;
        } else if lost.contains(id) {
            n_lost += 1;
        } else if dropped.contains(id) {
            n_dropped += 1;
        } else {
            violations.push(format!(
                "entry {id} unaccounted: acked data lost outside any crash window"
            ));
        }
    }

    InvariantReport {
        violations,
        logged: logged.len() as u64,
        delivered: n_delivered,
        buffered: n_buffered,
        lost: n_lost,
        dropped: n_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_delivers_everything_and_is_clean() {
        let cfg = ChaosConfig {
            faults: FaultConfig::quiet(),
            ..Default::default()
        };
        let o = run_chaos(1, &cfg);
        assert!(o.is_clean(), "violations: {:?}", o.accounting.violations);
        assert_eq!(o.accounting.delivered, o.accounting.logged);
        assert_eq!(o.report.lost_in_crashes, 0);
        assert_eq!(o.report.duplicates_merged, 0);
    }

    #[test]
    fn default_chaos_run_is_clean() {
        let o = run_chaos(7, &ChaosConfig::default());
        assert!(o.is_clean(), "violations: {:?}", o.accounting.violations);
        // Exact reconciliation, in unique-id terms.
        let a = &o.accounting;
        assert_eq!(a.logged, a.delivered + a.buffered + a.lost + a.dropped);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = ChaosConfig::default();
        let a = run_chaos(1234, &cfg);
        let b = run_chaos(1234, &cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(a.accounting.violations, b.accounting.violations);
    }

    #[test]
    fn sabotage_trips_the_checker() {
        let cfg = ChaosConfig {
            faults: FaultConfig::quiet(),
            ..Default::default()
        };
        let o = run_chaos_with(1, &cfg, Sabotage::DeleteStagedFile);
        assert!(
            !o.is_clean(),
            "silently deleting staged data must violate the no-loss invariant"
        );
        assert!(o
            .accounting
            .violations
            .iter()
            .any(|v| v.contains("unaccounted")));
    }

    #[test]
    fn half_applied_batch_trips_the_checker() {
        let cfg = ChaosConfig {
            faults: FaultConfig::quiet(),
            ..Default::default()
        };
        let o = run_chaos_with(1, &cfg, Sabotage::HalfApplyBatch);
        assert!(
            !o.is_clean(),
            "a partially stored but fully acked batch must violate no-loss"
        );
        assert!(o
            .accounting
            .violations
            .iter()
            .any(|v| v.contains("unaccounted")));
    }

    #[test]
    fn main_outage_at_move_is_all_or_nothing() {
        let cfg = ChaosConfig {
            faults: FaultConfig::quiet(),
            main_outage_at_move: true,
            ..Default::default()
        };
        let o = run_chaos(3, &cfg);
        assert!(o.is_clean(), "violations: {:?}", o.accounting.violations);
        assert_eq!(
            o.report.duplicates_merged, 0,
            "move retries must not duplicate"
        );
        assert_eq!(o.accounting.delivered, o.accounting.logged);
    }
}
