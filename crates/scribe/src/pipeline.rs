//! End-to-end pipeline driver with fault injection.
//!
//! Wires daemons, aggregators, staging clusters, and the mover into the
//! multi-datacenter topology of Figure 1, advanced by explicit steps so
//! tests and benchmarks stay deterministic. Fault hooks cover every layer:
//! aggregator crashes and respawns, coordination-session expiry for daemons
//! and aggregators, staging and main-warehouse outages, seeded per-send
//! link faults, and host-local disk-full windows. [`step_with_faults`]
//! (Self::step_with_faults) drives a [`FaultPlan`] schedule into all of
//! them deterministically.

use uli_coord::CoordService;
use uli_obs::{Mirror, Reading, Registry};
use uli_warehouse::store::DEFAULT_BLOCK_CAPACITY;
use uli_warehouse::{HourlyPartition, Warehouse};

use crate::aggregator::Aggregator;
use crate::daemon::{BatchPolicy, ScribeDaemon};
use crate::faults::FaultPlan;
use crate::message::{EntryId, LogEntry};
use crate::mover::{seal_hour, LogMover, MoveError, MoveReport};
use crate::network::{LinkFaults, Network};

/// Topology and sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of datacenters.
    pub datacenters: usize,
    /// Production hosts per datacenter.
    pub hosts_per_dc: usize,
    /// Aggregators per datacenter.
    pub aggregators_per_dc: usize,
    /// Merged-output file size used by the log mover, in records.
    pub records_per_file: u64,
    /// Batching policy applied to every host daemon's send path.
    pub batch: BatchPolicy,
    /// Worker count for the mover's parallel decode and land stages.
    /// Serial by default; every setting lands byte-identical hours.
    pub workers: uli_warehouse::Parallelism,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            datacenters: 3,
            hosts_per_dc: 16,
            aggregators_per_dc: 4,
            records_per_file: 100_000,
            batch: BatchPolicy::default(),
            workers: uli_warehouse::Parallelism::serial(),
        }
    }
}

struct Datacenter {
    name: String,
    staging: Warehouse,
    daemons: Vec<ScribeDaemon>,
    /// `None` marks a crashed slot.
    aggregators: Vec<Option<Aggregator>>,
}

/// Cumulative end-to-end accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineReport {
    /// Entries logged on production hosts.
    pub logged: u64,
    /// Entries still buffered on hosts (no aggregator reachable yet).
    pub host_buffered: u64,
    /// Entries dropped at hosts because the local buffer was full.
    pub dropped_disk_full: u64,
    /// Delayed packets still in flight on the network.
    pub in_flight: u64,
    /// Entries accepted by aggregators.
    pub accepted: u64,
    /// Entries written durably to staging clusters.
    pub flushed: u64,
    /// Entries sitting in aggregator local-disk buffers (staging outage).
    pub aggregator_buffered: u64,
    /// Entries lost to hard aggregator crashes (including acked packets
    /// that were in flight to a crashed endpoint).
    pub lost_in_crashes: u64,
    /// Entries moved into the main warehouse.
    pub moved: u64,
    /// Duplicate copies the log-mover merge squashed.
    pub duplicates_merged: u64,
    /// Failed send attempts across all daemons (each triggered rediscovery
    /// and, past the per-pump budget, exponential backoff).
    pub retried: u64,
    /// Batches daemons handed to aggregators (acked network messages).
    pub batches_sent: u64,
    /// Encoded bytes of those acked batches.
    pub wire_bytes_sent: u64,
    /// Cost model: messages ever offered to the network, including failed
    /// and retried sends. Batching's headline saving.
    pub network_messages: u64,
}

impl PipelineReport {
    /// The `scribe/*` metrics, in snapshot order.
    fn metrics(&self) -> [(&'static str, Reading); 14] {
        [
            ("logged", Reading::Total(self.logged)),
            ("accepted", Reading::Total(self.accepted)),
            ("flushed", Reading::Total(self.flushed)),
            ("moved", Reading::Total(self.moved)),
            ("duplicates_merged", Reading::Total(self.duplicates_merged)),
            ("lost_in_crashes", Reading::Total(self.lost_in_crashes)),
            ("dropped_disk_full", Reading::Total(self.dropped_disk_full)),
            ("retried", Reading::Total(self.retried)),
            ("batches_sent", Reading::Total(self.batches_sent)),
            ("wire_bytes_sent", Reading::Total(self.wire_bytes_sent)),
            ("network_messages", Reading::Total(self.network_messages)),
            ("host_buffered", Reading::level(self.host_buffered)),
            (
                "aggregator_buffered",
                Reading::level(self.aggregator_buffered),
            ),
            ("in_flight", Reading::level(self.in_flight)),
        ]
    }
}

/// The full simulated pipeline.
pub struct ScribePipeline {
    coord: CoordService,
    network: Network,
    datacenters: Vec<Datacenter>,
    mover: LogMover,
    flushed: u64,
    lost_in_crashes: u64,
    /// Accepted counts of aggregators that have since crashed, so the
    /// report's `accepted` stays a true cumulative total.
    accepted_by_crashed: u64,
    moved: u64,
    duplicates_merged: u64,
    /// Ids of stamped entries lost in crashes (aggregator state and dead
    /// in-flight packets).
    lost_ids: Vec<EntryId>,
    /// Policy-dropped ids carried over from crashed aggregators.
    policy_dropped_by_crashed: Vec<EntryId>,
    /// The registry view of [`ScribePipeline::report`], when attached.
    obs: Option<Mirror>,
}

impl ScribePipeline {
    /// Builds the topology: every datacenter gets a staging warehouse, its
    /// aggregators register, and every host gets a daemon.
    pub fn new(config: PipelineConfig) -> Self {
        Self::build(config, None)
    }

    /// [`ScribePipeline::new`] plus registry-backed telemetry: the report's
    /// delivery totals mirror into `scribe/*` counters and gauges, delivery
    /// phases trace as spans, and the main warehouse's scan counters
    /// register under `warehouse` (staging clusters stay private — their
    /// reads are mover internals, not query traffic).
    pub fn new_with_obs(config: PipelineConfig, registry: &Registry) -> Self {
        let list = PipelineReport::default().metrics();
        Self::build(config, Some(Mirror::attach(registry, "scribe", &list)))
    }

    fn build(config: PipelineConfig, obs: Option<Mirror>) -> Self {
        let coord = CoordService::new();
        let network = Network::new();
        let mut datacenters = Vec::with_capacity(config.datacenters);
        for dc_idx in 0..config.datacenters {
            let name = format!("dc{dc_idx}");
            // The mover reads each staged file once and then deletes its
            // hour, so a block cache would only hold what nobody rereads.
            let staging = Warehouse::with_config(DEFAULT_BLOCK_CAPACITY, 0);
            let aggregators = (0..config.aggregators_per_dc)
                .map(|_| Some(Aggregator::spawn(&coord, &network, &name, staging.clone())))
                .collect();
            let daemons = (0..config.hosts_per_dc)
                .map(|h| {
                    ScribeDaemon::new(
                        (dc_idx * config.hosts_per_dc + h) as u64,
                        &name,
                        &coord,
                        network.clone(),
                    )
                    .with_batch_policy(config.batch)
                })
                .collect();
            datacenters.push(Datacenter {
                name,
                staging,
                daemons,
                aggregators,
            });
        }
        let main = match &obs {
            Some(o) => Warehouse::new_with_obs(o.registry()),
            None => Warehouse::new(),
        };
        let mut mover =
            LogMover::new(main, config.records_per_file).with_parallelism(config.workers);
        if let Some(o) = &obs {
            mover.attach_obs(o.registry());
        }
        ScribePipeline {
            coord,
            network,
            datacenters,
            mover,
            flushed: 0,
            lost_in_crashes: 0,
            accepted_by_crashed: 0,
            moved: 0,
            duplicates_merged: 0,
            lost_ids: Vec::new(),
            policy_dropped_by_crashed: Vec::new(),
            obs,
        }
    }

    /// Number of datacenters.
    pub fn datacenter_count(&self) -> usize {
        self.datacenters.len()
    }

    /// The mover's committed seen set — see [`crate::mover::LogMover::seen`].
    /// It is the pipeline's one record of which ids were delivered.
    pub fn seen(&self) -> &crate::seen::SeenSet {
        self.mover.seen()
    }

    /// Logs an entry on a specific host.
    pub fn log(&mut self, dc: usize, host: usize, entry: LogEntry) {
        self.datacenters[dc].daemons[host].log(entry);
    }

    /// Attaches a delivery tap to the mover: the streaming analytics
    /// layer's hook into the exactly-once delivered record stream. See
    /// [`crate::tap::DeliveryTap`].
    pub fn add_delivery_tap(&mut self, tap: Box<dyn crate::tap::DeliveryTap>) {
        self.mover.add_tap(tap);
    }

    /// Lands merged hours columnar through `landing` instead of row-format.
    /// See [`crate::mover::LogMover::set_landing`]: payloads the codec
    /// rejects still move, via a row-format sibling file.
    pub fn set_columnar_landing(
        &mut self,
        landing: std::sync::Arc<dyn uli_warehouse::ColumnarLanding>,
    ) {
        self.mover.set_landing(landing);
    }

    /// One delivery step: the network ticks (delivering delayed packets),
    /// every daemon pumps, every aggregator heartbeats and drains.
    pub fn step(&mut self) {
        let _span = self
            .obs
            .as_ref()
            .map(|o| o.registry().span("scribe", "step"));
        let coord = self.coord.clone();
        for entry in self.network.advance_step() {
            // Acked to the sender, endpoint gone before delivery: the crash
            // took this packet with it.
            self.lost_in_crashes += 1;
            if let Some(id) = entry.id {
                self.lost_ids.push(id);
            }
        }
        for dc in &mut self.datacenters {
            for d in &mut dc.daemons {
                d.pump();
            }
            for a in dc.aggregators.iter_mut().flatten() {
                a.heartbeat(&coord);
                a.process();
            }
        }
        self.sync_obs();
    }

    /// Writes the current report into the registry view, if attached.
    fn sync_obs(&self) {
        if self.obs.is_some() {
            let _ = self.report(); // report() syncs as a side effect
        }
    }

    /// One delivery step under a chaos schedule: the plan injects this
    /// step's faults, then the pipeline advances normally.
    pub fn step_with_faults(&mut self, plan: &mut FaultPlan) {
        plan.apply(self);
        self.step();
    }

    /// Flushes all aggregators for the given hour index.
    pub fn flush_hour(&mut self, hour_index: u64) {
        let _span = self.obs.as_ref().map(|o| {
            o.registry()
                .span_labeled("scribe", "flush_hour", &[("hour", hour_index.to_string())])
        });
        for dc in &mut self.datacenters {
            for a in dc.aggregators.iter_mut().flatten() {
                let r = a.flush(hour_index);
                self.flushed += r.flushed_records;
            }
        }
        self.sync_obs();
    }

    /// Seals the hour for `category` on every staging cluster.
    pub fn seal_hour(&self, category: &str, hour_index: u64) {
        let partition = HourlyPartition::from_hour_index(category, hour_index);
        for dc in &self.datacenters {
            // Outage means the seal itself fails; the mover then reports
            // the datacenter as not ready, which is the correct behaviour.
            let _ = seal_hour(&dc.staging, &partition);
        }
    }

    /// Moves a sealed category-hour into the main warehouse.
    pub fn move_hour(&mut self, category: &str, hour_index: u64) -> Result<MoveReport, MoveError> {
        let _span = self.obs.as_ref().map(|o| {
            o.registry()
                .span_labeled("scribe", "move_hour", &[("hour", hour_index.to_string())])
        });
        let partition = HourlyPartition::from_hour_index(category, hour_index);
        let staging: Vec<(&str, &Warehouse)> = self
            .datacenters
            .iter()
            .map(|dc| (dc.name.as_str(), &dc.staging))
            .collect();
        let report = self.mover.move_hour(&partition, &staging)?;
        self.moved += report.records;
        self.duplicates_merged += report.duplicates;
        self.sync_obs();
        Ok(report)
    }

    /// Hard-crashes one aggregator; returns entries lost with it.
    pub fn crash_aggregator(&mut self, dc: usize, slot: usize) -> u64 {
        let coord = self.coord.clone();
        match self.datacenters[dc].aggregators[slot].take() {
            Some(agg) => {
                self.accepted_by_crashed += agg.accepted;
                let crash = agg.crash(&coord);
                self.lost_in_crashes += crash.records;
                self.lost_ids.extend_from_slice(&crash.ids);
                self.policy_dropped_by_crashed
                    .extend_from_slice(&crash.policy_dropped_ids);
                self.sync_obs();
                crash.records
            }
            None => 0,
        }
    }

    /// Starts a replacement aggregator in an empty slot.
    pub fn spawn_aggregator(&mut self, dc: usize, slot: usize) {
        let name = self.datacenters[dc].name.clone();
        let staging = self.datacenters[dc].staging.clone();
        let agg = Aggregator::spawn(&self.coord, &self.network, &name, staging);
        self.datacenters[dc].aggregators[slot] = Some(agg);
    }

    /// True if the aggregator slot currently holds a live process.
    pub fn aggregator_is_up(&self, dc: usize, slot: usize) -> bool {
        self.datacenters[dc].aggregators[slot].is_some()
    }

    /// Expires the coordination session of one host daemon. The daemon
    /// reconnects on its next discovery.
    pub fn expire_daemon_session(&self, dc: usize, host: usize) {
        let sid = self.datacenters[dc].daemons[host].session_id();
        self.coord.expire_session(sid);
    }

    /// Expires the coordination session of one aggregator (missed
    /// heartbeats). Its znode vanishes; the process itself stays up and
    /// re-registers on its next heartbeat.
    pub fn expire_aggregator_session(&self, dc: usize, slot: usize) {
        if let Some(agg) = &self.datacenters[dc].aggregators[slot] {
            self.coord.expire_session(agg.session_id());
        }
    }

    /// Injects or clears a staging-cluster outage in one datacenter.
    pub fn set_staging_available(&self, dc: usize, available: bool) {
        self.datacenters[dc].staging.set_available(available);
    }

    /// Injects or clears an outage of the main warehouse (mover writes
    /// fail; already-moved hours stay readable).
    pub fn set_main_available(&self, available: bool) {
        self.mover.main().set_available(available);
    }

    /// Arms seeded link faults on the shared network.
    pub fn set_link_faults(&self, seed: u64, faults: LinkFaults) {
        self.network.set_faults(seed, faults);
    }

    /// Disarms link faults (delayed packets keep their schedule).
    pub fn clear_link_faults(&self) {
        self.network.clear_faults();
    }

    /// Caps (or uncaps) the local buffer of every host in one datacenter —
    /// the disk-full fault.
    pub fn set_host_queue_capacity(&mut self, dc: usize, capacity: Option<usize>) {
        for d in &mut self.datacenters[dc].daemons {
            d.set_queue_capacity(capacity);
        }
    }

    /// The shared network (for in-flight introspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// One datacenter's staging warehouse.
    pub fn staging_warehouse(&self, dc: usize) -> &Warehouse {
        &self.datacenters[dc].staging
    }

    /// All host daemons, across datacenters.
    pub fn daemons(&self) -> impl Iterator<Item = &ScribeDaemon> {
        self.datacenters.iter().flat_map(|dc| dc.daemons.iter())
    }

    /// All live aggregators, across datacenters.
    pub fn aggregators(&self) -> impl Iterator<Item = &Aggregator> {
        self.datacenters
            .iter()
            .flat_map(|dc| dc.aggregators.iter().flatten())
    }

    /// Ids of stamped entries lost in crashes so far.
    pub fn lost_ids(&self) -> &[EntryId] {
        &self.lost_ids
    }

    /// Ids dropped by category policy, including by since-crashed
    /// aggregators.
    pub fn policy_dropped_ids(&self) -> Vec<EntryId> {
        let mut ids = self.policy_dropped_by_crashed.clone();
        for a in self.aggregators() {
            ids.extend_from_slice(a.policy_dropped_ids());
        }
        ids
    }

    /// The main data warehouse the mover fills.
    pub fn main_warehouse(&self) -> &Warehouse {
        self.mover.main()
    }

    /// Current end-to-end accounting.
    pub fn report(&self) -> PipelineReport {
        let mut r = PipelineReport {
            flushed: self.flushed,
            lost_in_crashes: self.lost_in_crashes,
            accepted: self.accepted_by_crashed,
            moved: self.moved,
            duplicates_merged: self.duplicates_merged,
            in_flight: self.network.delayed_count(),
            network_messages: self.network.message_cost().0,
            ..Default::default()
        };
        for dc in &self.datacenters {
            for d in &dc.daemons {
                r.logged += d.logged;
                r.host_buffered += d.buffered();
                r.dropped_disk_full += d.dropped_disk_full;
                r.retried += d.send_failures;
                r.batches_sent += d.batches_sent;
                r.wire_bytes_sent += d.wire_bytes_sent;
            }
            for a in dc.aggregators.iter().flatten() {
                r.accepted += a.accepted;
                r.aggregator_buffered += a.unflushed() + a.in_channel();
            }
        }
        if let Some(obs) = &self.obs {
            obs.update(&r.metrics());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            datacenters: 2,
            hosts_per_dc: 4,
            aggregators_per_dc: 2,
            records_per_file: 50,
            batch: BatchPolicy::default(),
            workers: uli_warehouse::Parallelism::serial(),
        }
    }

    fn log_round(pipe: &mut ScribePipeline, per_host: usize, tag: &str) -> u64 {
        let mut n = 0;
        for dc in 0..2 {
            for host in 0..4 {
                for i in 0..per_host {
                    pipe.log(
                        dc,
                        host,
                        LogEntry::new(
                            "client_events",
                            format!("{tag}-{dc}-{host}-{i}").into_bytes(),
                        ),
                    );
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn happy_path_delivers_everything() {
        let mut pipe = ScribePipeline::new(small_config());
        let logged = log_round(&mut pipe, 25, "a");
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let report = pipe.move_hour("client_events", 0).unwrap();
        assert_eq!(report.records, logged);

        let totals = pipe.report();
        assert_eq!(totals.logged, logged);
        assert_eq!(totals.accepted, logged);
        assert_eq!(totals.flushed, logged);
        assert_eq!(totals.moved, logged);
        assert_eq!(totals.lost_in_crashes, 0);
        assert_eq!(totals.host_buffered, 0);
        // Every logged entry's id is accounted as delivered.
        assert_eq!(pipe.seen().len(), logged);
    }

    #[test]
    fn mover_merges_small_files() {
        let mut pipe = ScribePipeline::new(small_config());
        log_round(&mut pipe, 25, "a");
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let report = pipe.move_hour("client_events", 0).unwrap();
        // Up to 4 aggregators flushed files; outputs are 50-record merges.
        assert!(report.input_files >= 2);
        assert_eq!(report.output_files, 4, "200 records at 50/file");
    }

    #[test]
    fn aggregator_crash_fails_over_with_bounded_loss() {
        let mut pipe = ScribePipeline::new(small_config());
        log_round(&mut pipe, 10, "a");
        pipe.step(); // everything accepted, nothing flushed
        let lost = pipe.crash_aggregator(0, 0) + pipe.crash_aggregator(0, 1);
        // New traffic still gets through via rediscovery (dc0 has no
        // aggregators now, so its daemons buffer; dc1 still delivers).
        log_round(&mut pipe, 10, "b");
        pipe.step();
        pipe.spawn_aggregator(0, 0);
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let moved = pipe.move_hour("client_events", 0).unwrap().records;
        let totals = pipe.report();
        assert_eq!(totals.lost_in_crashes, lost);
        assert_eq!(
            moved + lost,
            totals.logged,
            "every entry is moved or accounted lost"
        );
        assert_eq!(totals.host_buffered, 0);
        // Lost ids and delivered ids partition the logged set.
        assert_eq!(pipe.lost_ids().len() as u64, lost);
        assert_eq!(pipe.seen().len(), moved);
    }

    #[test]
    fn staging_outage_buffers_and_recovers_without_loss() {
        let mut pipe = ScribePipeline::new(small_config());
        let logged = log_round(&mut pipe, 10, "a");
        pipe.step();
        pipe.set_staging_available(0, false);
        pipe.flush_hour(0);
        let mid = pipe.report();
        assert!(mid.aggregator_buffered > 0, "dc0 aggregators must buffer");
        assert!(mid.flushed < logged);

        pipe.set_staging_available(0, true);
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let moved = pipe.move_hour("client_events", 0).unwrap().records;
        assert_eq!(moved, logged);
        assert_eq!(pipe.report().aggregator_buffered, 0);
    }

    #[test]
    fn move_waits_for_lagging_datacenter() {
        let mut pipe = ScribePipeline::new(small_config());
        log_round(&mut pipe, 5, "a");
        pipe.step();
        pipe.set_staging_available(1, false); // dc1 cannot flush or seal
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let err = pipe.move_hour("client_events", 0).unwrap_err();
        assert!(matches!(err, MoveError::NotReady { .. }));

        pipe.set_staging_available(1, true);
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let report = pipe.move_hour("client_events", 0).unwrap();
        assert_eq!(report.records, pipe.report().logged);
    }

    #[test]
    fn hours_land_in_hourly_directories() {
        let mut pipe = ScribePipeline::new(small_config());
        log_round(&mut pipe, 5, "h0");
        pipe.step();
        pipe.flush_hour(0);
        log_round(&mut pipe, 5, "h1");
        pipe.step();
        pipe.flush_hour(1);
        for h in [0, 1] {
            pipe.seal_hour("client_events", h);
            pipe.move_hour("client_events", h).unwrap();
        }
        let main = pipe.main_warehouse();
        for h in [0, 1] {
            let dir = HourlyPartition::from_hour_index("client_events", h).main_dir();
            assert!(main.exists(&dir), "hour {h} directory must exist");
        }
    }

    #[test]
    fn expired_sessions_recover_transparently() {
        let mut pipe = ScribePipeline::new(small_config());
        for host in 0..4 {
            pipe.expire_daemon_session(0, host);
        }
        pipe.expire_aggregator_session(0, 0);
        pipe.expire_aggregator_session(0, 1);
        let logged = log_round(&mut pipe, 5, "a");
        pipe.step(); // heartbeats re-register, daemons reconnect
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        let moved = pipe.move_hour("client_events", 0).unwrap().records;
        assert_eq!(moved, logged, "expiry alone must not lose data");
        assert_eq!(pipe.report().lost_in_crashes, 0);
    }

    #[test]
    fn obs_mirrors_report_and_traces_delivery() {
        let registry = Registry::new();
        let mut pipe = ScribePipeline::new_with_obs(small_config(), &registry);
        let logged = log_round(&mut pipe, 25, "a");
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        pipe.move_hour("client_events", 0).unwrap();

        let totals = pipe.report();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("scribe/logged"), Some(logged));
        assert_eq!(snap.counter_value("scribe/accepted"), Some(totals.accepted));
        assert_eq!(snap.counter_value("scribe/flushed"), Some(totals.flushed));
        assert_eq!(snap.counter_value("scribe/moved"), Some(totals.moved));
        assert_eq!(snap.gauge_value("scribe/host_buffered"), Some(0));
        assert!(registry.duplicate_registrations().is_empty());

        // The main warehouse registered under `warehouse`: the mover's merge
        // read staged files, so some records flowed through its counters? No
        // — the mover reads *staging* (detached); main only receives writes,
        // so its scan counters exist but stay zero until a query runs.
        assert_eq!(snap.counter_value("warehouse/records_read"), Some(0));

        // Delivery phases traced in open order: step, flush, then the move
        // with its three pipeline stages nested inside it.
        let keys: Vec<String> = registry.finished_spans().iter().map(|s| s.key()).collect();
        assert_eq!(
            keys,
            [
                "scribe/step",
                "scribe/flush_hour",
                "scribe/move_hour",
                "delivery/decode",
                "delivery/merge",
                "delivery/land"
            ]
        );
        let stages = &registry.finished_spans()[3..];
        assert!(
            stages.iter().all(|s| s.parent == Some(2)),
            "delivery stages must nest under scribe/move_hour"
        );

        // The mover's delivery counters track the move it just did.
        assert_eq!(snap.counter_value("delivery/hours_moved"), Some(1));
        assert_eq!(
            snap.counter_value("delivery/records_moved"),
            Some(totals.moved)
        );
    }

    #[test]
    fn obs_accounts_crash_loss() {
        let registry = Registry::new();
        let mut pipe = ScribePipeline::new_with_obs(small_config(), &registry);
        log_round(&mut pipe, 10, "a");
        pipe.step();
        let lost = pipe.crash_aggregator(0, 0) + pipe.crash_aggregator(0, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("scribe/lost_in_crashes"), Some(lost));
    }

    #[test]
    fn batching_cuts_messages_and_lands_identical_files() {
        let run = |batch: BatchPolicy| {
            let mut pipe = ScribePipeline::new(PipelineConfig {
                batch,
                ..small_config()
            });
            let logged = log_round(&mut pipe, 25, "a");
            pipe.step();
            pipe.flush_hour(0);
            pipe.seal_hour("client_events", 0);
            assert_eq!(pipe.move_hour("client_events", 0).unwrap().records, logged);
            let main = pipe.main_warehouse();
            let root = uli_warehouse::WhPath::parse("/logs").unwrap();
            let mut files = Vec::new();
            for f in main.list_files_recursive(&root).unwrap() {
                files.push((f.to_string(), main.open(&f).unwrap().read_all().unwrap()));
            }
            (pipe.report(), files)
        };
        let (batched, batched_files) = run(BatchPolicy::default());
        let (unbatched, unbatched_files) = run(BatchPolicy::unbatched());
        assert_eq!(batched.moved, unbatched.moved);
        assert_eq!(
            batched_files, unbatched_files,
            "landed warehouse files must be byte-identical"
        );
        assert_eq!(unbatched.network_messages, unbatched.logged);
        assert!(
            batched.network_messages < unbatched.network_messages / 4,
            "batching must collapse messages: {} vs {}",
            batched.network_messages,
            unbatched.network_messages
        );
        assert!(batched.wire_bytes_sent < unbatched.wire_bytes_sent);
    }

    #[test]
    fn main_outage_fails_move_then_recovers() {
        let mut pipe = ScribePipeline::new(small_config());
        let logged = log_round(&mut pipe, 5, "a");
        pipe.step();
        pipe.flush_hour(0);
        pipe.seal_hour("client_events", 0);
        pipe.set_main_available(false);
        assert!(matches!(
            pipe.move_hour("client_events", 0),
            Err(MoveError::Warehouse(_))
        ));
        pipe.set_main_available(true);
        let report = pipe.move_hour("client_events", 0).unwrap();
        assert_eq!(report.records, logged, "failed move retries cleanly");
        assert_eq!(report.duplicates, 0, "retry is not a duplicate");
    }
}
