//! The Scribe aggregator.
//!
//! Aggregators "merge per-category streams from all the server daemons and
//! write the merged results to HDFS (of the staging Hadoop cluster),
//! compressing data on the fly" (§2), advertise themselves with an ephemeral
//! znode, and "buffer data on local disk in case of HDFS outages".
//!
//! The ephemeral znode stores the aggregator's network endpoint as its
//! data. When the coordination session expires (missed heartbeats rather
//! than a real crash), [`Aggregator::heartbeat`] re-registers under a fresh
//! member name with the *same* endpoint, so daemons rediscover the same
//! channel and in-flight packets stay deliverable.

use std::collections::BTreeMap;

use uli_coord::{CoordService, CreateMode, Session, SessionId};
use uli_warehouse::{HourlyPartition, Warehouse, WarehouseError};

use crate::config::{CategoryRegistry, Disposition};
use crate::message::EntryId;
use crate::network::{Inbox, Network};
use crate::staged;

/// Base path in the coordination service under which aggregators of a
/// datacenter register.
pub fn registry_path(dc: &str) -> String {
    format!("/scribe/aggregators/{dc}")
}

/// Outcome of one flush cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Records written to the staging warehouse.
    pub flushed_records: u64,
    /// Records diverted to the local-disk buffer because staging was down.
    pub buffered_records: u64,
    /// Files created in the staging warehouse.
    pub files_written: u64,
}

/// What a hard crash destroyed.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Entries lost: accepted or in-channel but never durably flushed.
    pub records: u64,
    /// Delivery ids of the stamped entries among them.
    pub ids: Vec<EntryId>,
    /// Ids the aggregator had dropped by category policy before the crash
    /// (needed to keep end-to-end id accounting complete).
    pub policy_dropped_ids: Vec<EntryId>,
}

/// Builds the network endpoint key for a datacenter member. Sequence
/// numbers restart per registry node, so member names alone collide across
/// datacenters; the endpoint key namespaces them.
pub fn endpoint_key(dc: &str, member: &str) -> String {
    format!("{dc}:{member}")
}

/// One record awaiting flush: the payload plus its delivery id, if any.
#[derive(Debug, Clone)]
struct PendingRecord {
    id: Option<EntryId>,
    payload: Vec<u8>,
}

/// A single aggregator process.
pub struct Aggregator {
    name: String,
    endpoint: String,
    dc: String,
    session: Session,
    rx: Inbox,
    network: Network,
    staging: Warehouse,
    /// Per-category entries drained from the network, awaiting flush.
    pending: BTreeMap<String, Vec<PendingRecord>>,
    /// "Local disk" buffer: entries that could not be flushed because the
    /// staging cluster was unavailable. Retried on the next flush.
    local_disk: BTreeMap<String, Vec<PendingRecord>>,
    flush_seq: u64,
    /// Total entries accepted off the network.
    pub accepted: u64,
    /// Entries dropped by category policy (disabled/sampled/oversize).
    pub dropped_by_policy: u64,
    policy_dropped_ids: Vec<EntryId>,
    /// Times [`heartbeat`](Self::heartbeat) re-registered after an expiry.
    pub reregistrations: u64,
    registry: CategoryRegistry,
}

impl Aggregator {
    /// Starts an aggregator in `dc`: registers an ephemeral sequential znode
    /// (whose data is the network endpoint) and the endpoint itself.
    pub fn spawn(
        coord: &CoordService,
        network: &Network,
        dc: &str,
        staging: Warehouse,
    ) -> Aggregator {
        let session = coord.connect();
        ensure_registry_path(&session, dc);
        let (name, endpoint) = register_member(&session, dc, None);
        let rx = network.register(&endpoint);
        Aggregator {
            name,
            endpoint,
            dc: dc.to_string(),
            session,
            rx,
            network: network.clone(),
            staging,
            pending: BTreeMap::new(),
            local_disk: BTreeMap::new(),
            flush_seq: 0,
            accepted: 0,
            dropped_by_policy: 0,
            policy_dropped_ids: Vec::new(),
            reregistrations: 0,
            registry: CategoryRegistry::new(),
        }
    }

    /// Installs category configuration metadata (§2): routing, sampling,
    /// size limits, kill switches. Applied as entries are accepted.
    pub fn with_registry(mut self, registry: CategoryRegistry) -> Aggregator {
        self.registry = registry;
        self
    }

    /// The member name under which this aggregator appears in the
    /// coordination service.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The network endpoint key daemons send to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The datacenter this aggregator serves.
    pub fn dc(&self) -> &str {
        &self.dc
    }

    /// This aggregator's coordination session id (for expiry injection).
    pub fn session_id(&self) -> SessionId {
        self.session.id()
    }

    /// Liveness maintenance: if the coordination session expired (the
    /// ephemeral znode is gone but the process is alive), reconnect and
    /// re-register under a new member name with the same endpoint. Returns
    /// true if a re-registration happened.
    pub fn heartbeat(&mut self, coord: &CoordService) -> bool {
        if self.session.is_live() {
            return false;
        }
        self.session = coord.connect();
        ensure_registry_path(&self.session, &self.dc);
        let (name, _) = register_member(&self.session, &self.dc, Some(&self.endpoint));
        self.name = name;
        self.reregistrations += 1;
        true
    }

    /// Drains all entries currently queued on the network into the pending
    /// per-category buffers. Returns how many were accepted.
    pub fn process(&mut self) -> u64 {
        let mut n = 0;
        for entry in self.rx.try_iter() {
            match self.registry.disposition(&entry.category, &entry.message) {
                Disposition::Store(category) => {
                    let record = PendingRecord {
                        id: entry.id,
                        payload: entry.message,
                    };
                    // A category owns its key once, when first pending.
                    match self.pending.get_mut(category) {
                        Some(records) => records.push(record),
                        None => {
                            self.pending.insert(category.to_string(), vec![record]);
                        }
                    }
                    n += 1;
                }
                Disposition::DropDisabled
                | Disposition::DropSampled
                | Disposition::DropOversize => {
                    self.dropped_by_policy += 1;
                    if let Some(id) = entry.id {
                        self.policy_dropped_ids.push(id);
                    }
                }
            }
        }
        self.accepted += n;
        n
    }

    /// Entries currently at risk: accepted but not yet durably flushed
    /// (pending + local-disk buffer). A hard crash loses these.
    pub fn unflushed(&self) -> u64 {
        let pend: usize = self.pending.values().map(Vec::len).sum();
        let disk: usize = self.local_disk.values().map(Vec::len).sum();
        (pend + disk) as u64
    }

    /// Ids of stamped entries currently at risk (pending or local-disk).
    pub fn unflushed_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.pending
            .values()
            .chain(self.local_disk.values())
            .flatten()
            .filter_map(|r| r.id)
    }

    /// Ids of stamped entries dropped by category policy so far.
    pub fn policy_dropped_ids(&self) -> &[EntryId] {
        &self.policy_dropped_ids
    }

    /// Entries accepted by the network but not yet drained by
    /// [`process`](Self::process).
    pub fn in_channel(&self) -> u64 {
        self.rx.len() as u64
    }

    /// Flushes pending (and previously buffered) entries for `hour_index`
    /// into the staging warehouse, one file per category per flush.
    ///
    /// If the staging warehouse is unavailable, entries move to the local
    /// disk buffer and are retried on the next flush — the behaviour the
    /// paper describes for HDFS outages.
    pub fn flush(&mut self, hour_index: u64) -> FlushReport {
        let mut report = FlushReport::default();
        // Fold local-disk retries in front of fresh pending data.
        let mut work: BTreeMap<String, Vec<PendingRecord>> = std::mem::take(&mut self.local_disk);
        for (cat, mut msgs) in std::mem::take(&mut self.pending) {
            work.entry(cat).or_default().append(&mut msgs);
        }
        for (category, records) in work {
            if records.is_empty() {
                continue;
            }
            let partition = HourlyPartition::from_hour_index(&category, hour_index);
            let dir = partition.main_dir();
            let file = dir
                .child(&format!("{}-{:05}", self.name, self.flush_seq))
                .expect("valid file name");
            self.flush_seq += 1;
            let count = records.len() as u64;
            match self.write_file(&file, &records) {
                Ok(()) => {
                    report.flushed_records += count;
                    report.files_written += 1;
                }
                Err(WarehouseError::Unavailable) => {
                    report.buffered_records += count;
                    self.local_disk.insert(category, records);
                }
                Err(other) => {
                    // Unexpected structural failure: keep data buffered
                    // rather than losing it, but surface loudly in debug.
                    debug_assert!(false, "staging write failed: {other}");
                    report.buffered_records += count;
                    self.local_disk.insert(category, records);
                }
            }
        }
        report
    }

    fn write_file(
        &self,
        path: &uli_warehouse::WhPath,
        records: &[PendingRecord],
    ) -> Result<(), WarehouseError> {
        let mut w = self.staging.create(path)?;
        // Framing magic first, so the mover knows records are enveloped.
        w.append_record(staged::MAGIC);
        // One envelope scratch for the whole file instead of a fresh Vec
        // per record: flushing is the ingest hot loop.
        let mut scratch = Vec::with_capacity(256);
        for r in records {
            scratch.clear();
            staged::encode_into(r.id, &r.payload, &mut scratch);
            w.append_record(&scratch);
        }
        w.finish()?;
        Ok(())
    }

    /// Hard crash: the network endpoint closes, the coordination session
    /// expires (removing the ephemeral znode), and everything unflushed —
    /// including the local-disk buffer, since the host is gone — is lost.
    pub fn crash(self, coord: &CoordService) -> CrashReport {
        self.network.unregister(&self.endpoint);
        // Entries still sitting in the channel were accepted by the network
        // but never processed; they are lost too.
        let mut ids: Vec<EntryId> = self.unflushed_ids().collect();
        let mut records = self.unflushed();
        for entry in self.rx.try_iter() {
            records += 1;
            if let Some(id) = entry.id {
                ids.push(id);
            }
        }
        coord.expire_session(self.session.id());
        CrashReport {
            records,
            ids,
            policy_dropped_ids: self.policy_dropped_ids,
        }
    }

    /// Graceful shutdown: drain, flush, deregister. Returns the final flush
    /// report. Data is only lost if staging is down at shutdown time.
    pub fn shutdown(mut self, hour_index: u64) -> FlushReport {
        self.process();
        let report = self.flush(hour_index);
        self.network.unregister(&self.endpoint);
        report
    }
}

fn ensure_registry_path(session: &Session, dc: &str) {
    let base = registry_path(dc);
    let mut ensured = String::new();
    for seg in base[1..].split('/') {
        ensured.push('/');
        ensured.push_str(seg);
        let _ = session.create(&ensured, vec![], CreateMode::Persistent);
    }
}

/// Creates the ephemeral sequential member znode, storing the endpoint as
/// its data. `endpoint` is `None` on first registration (derived from the
/// new member name) and `Some` when re-registering an existing endpoint.
fn register_member(session: &Session, dc: &str, endpoint: Option<&str>) -> (String, String) {
    let base = registry_path(dc);
    let member_path = session
        .create(
            &format!("{base}/agg-"),
            vec![],
            CreateMode::EphemeralSequential,
        )
        .expect("registry path ensured above");
    let name = member_path
        .rsplit('/')
        .next()
        .expect("member path has a name")
        .to_string();
    let endpoint = match endpoint {
        Some(e) => e.to_string(),
        None => endpoint_key(dc, &name),
    };
    session
        .set_data(&member_path, endpoint.clone().into_bytes())
        .expect("member znode just created");
    (name, endpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::LogEntry;
    use uli_coord::CoordService;
    use uli_warehouse::WhPath;

    fn setup() -> (CoordService, Network, Warehouse) {
        (CoordService::new(), Network::new(), Warehouse::new())
    }

    /// Reads a staged file back as bare payloads, checking the framing.
    fn staged_payloads(wh: &Warehouse, path: &WhPath) -> Vec<Vec<u8>> {
        let records = wh.open(path).unwrap().read_all().unwrap();
        assert_eq!(records[0], staged::MAGIC, "aggregator files are framed");
        records[1..]
            .iter()
            .map(|r| staged::decode(r).expect("valid envelope").1.to_vec())
            .collect()
    }

    #[test]
    fn spawn_registers_ephemeral_and_endpoint() {
        let (coord, net, staging) = setup();
        let agg = Aggregator::spawn(&coord, &net, "dc1", staging);
        assert!(net.is_up(agg.endpoint()));
        let admin = coord.connect();
        let members = admin.get_children(&registry_path("dc1")).unwrap();
        assert_eq!(members, vec![agg.name().to_string()]);
        // The member znode advertises the endpoint as its data.
        let data = admin
            .get_data(&format!("{}/{}", registry_path("dc1"), agg.name()))
            .unwrap();
        assert_eq!(data, agg.endpoint().as_bytes());
    }

    #[test]
    fn process_and_flush_write_hourly_files() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging.clone());
        for i in 0..10 {
            net.send(
                agg.endpoint(),
                LogEntry::new("client_events", format!("m{i}").into_bytes()),
            )
            .unwrap();
        }
        assert_eq!(agg.process(), 10);
        let report = agg.flush(14);
        assert_eq!(report.flushed_records, 10);
        assert_eq!(report.files_written, 1);
        let dir = HourlyPartition::from_hour_index("client_events", 14).main_dir();
        let files = staging.list_files_recursive(&dir).unwrap();
        assert_eq!(files.len(), 1);
        let payloads = staged_payloads(&staging, &files[0]);
        assert_eq!(payloads.len(), 10);
        assert_eq!(payloads[0], b"m0");
    }

    #[test]
    fn outage_buffers_then_retries() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging.clone());
        net.send(agg.endpoint(), LogEntry::new("ce", b"x".to_vec()))
            .unwrap();
        agg.process();

        staging.set_available(false);
        let r1 = agg.flush(0);
        assert_eq!(r1.flushed_records, 0);
        assert_eq!(r1.buffered_records, 1);
        assert_eq!(agg.unflushed(), 1);

        staging.set_available(true);
        let r2 = agg.flush(0);
        assert_eq!(r2.flushed_records, 1);
        assert_eq!(agg.unflushed(), 0);
        let dir = HourlyPartition::from_hour_index("ce", 0).main_dir();
        assert_eq!(staging.list_files_recursive(&dir).unwrap().len(), 1);
    }

    #[test]
    fn crash_removes_registration_and_counts_losses() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging);
        let name = agg.endpoint().to_string();
        net.send(&name, LogEntry::new("ce", b"a".to_vec())).unwrap();
        agg.process(); // 1 pending
        net.send(&name, LogEntry::new("ce", b"b".to_vec())).unwrap(); // 1 in channel
        let lost = agg.crash(&coord);
        assert_eq!(lost.records, 2);
        assert!(!net.is_up(&name));
        let admin = coord.connect();
        assert!(admin
            .get_children(&registry_path("dc1"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn crash_reports_lost_ids_of_stamped_entries() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging);
        let mut stamped = LogEntry::new("ce", b"a".to_vec());
        stamped.id = Some(EntryId { host: 3, seq: 0 });
        net.send(agg.endpoint(), stamped).unwrap();
        agg.process();
        let mut in_channel = LogEntry::new("ce", b"b".to_vec());
        in_channel.id = Some(EntryId { host: 3, seq: 1 });
        net.send(agg.endpoint(), in_channel).unwrap();
        let lost = agg.crash(&coord);
        assert_eq!(lost.records, 2);
        assert_eq!(
            lost.ids,
            vec![EntryId { host: 3, seq: 0 }, EntryId { host: 3, seq: 1 }]
        );
    }

    #[test]
    fn heartbeat_reregisters_after_session_expiry_keeping_endpoint() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging);
        let old_name = agg.name().to_string();
        let endpoint = agg.endpoint().to_string();
        assert!(!agg.heartbeat(&coord), "live session: no re-registration");

        coord.expire_session(agg.session_id());
        let admin = coord.connect();
        assert!(
            admin
                .get_children(&registry_path("dc1"))
                .unwrap()
                .is_empty(),
            "expiry removes the ephemeral znode"
        );
        // The endpoint itself is still up — the process did not die.
        assert!(net.is_up(&endpoint));

        assert!(agg.heartbeat(&coord));
        assert_eq!(agg.reregistrations, 1);
        assert_ne!(agg.name(), old_name, "fresh member name");
        assert_eq!(agg.endpoint(), endpoint, "same network channel");
        let members = admin.get_children(&registry_path("dc1")).unwrap();
        assert_eq!(members, vec![agg.name().to_string()]);
        let data = admin
            .get_data(&format!("{}/{}", registry_path("dc1"), agg.name()))
            .unwrap();
        assert_eq!(
            data,
            endpoint.as_bytes(),
            "znode data points at the old endpoint"
        );
    }

    #[test]
    fn graceful_shutdown_loses_nothing() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging.clone());
        net.send(agg.endpoint(), LogEntry::new("ce", b"a".to_vec()))
            .unwrap();
        agg.process();
        net.send(agg.endpoint(), LogEntry::new("ce", b"b".to_vec()))
            .unwrap();
        let report = agg.shutdown(3);
        assert_eq!(report.flushed_records, 2);
        let dir = HourlyPartition::from_hour_index("ce", 3).main_dir();
        let files = staging.list_files_recursive(&dir).unwrap();
        let total: usize = files
            .iter()
            .map(|f| staged_payloads(&staging, f).len())
            .sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn category_policy_drops_and_aliases() {
        use crate::config::{CategoryConfig, CategoryRegistry};
        let (coord, net, staging) = setup();
        let mut registry = CategoryRegistry::new();
        registry.set(
            "noisy",
            CategoryConfig {
                enabled: false,
                ..Default::default()
            },
        );
        registry.set(
            "rainbird",
            CategoryConfig {
                store_as: Some("web_frontend".into()),
                ..Default::default()
            },
        );
        registry.set(
            "bounded",
            CategoryConfig {
                max_message_bytes: 4,
                ..Default::default()
            },
        );
        let mut agg =
            Aggregator::spawn(&coord, &net, "dc1", staging.clone()).with_registry(registry);
        net.send(agg.endpoint(), LogEntry::new("noisy", b"dropped".to_vec()))
            .unwrap();
        net.send(agg.endpoint(), LogEntry::new("rainbird", b"kept".to_vec()))
            .unwrap();
        net.send(
            agg.endpoint(),
            LogEntry::new("bounded", b"too large".to_vec()),
        )
        .unwrap();
        net.send(agg.endpoint(), LogEntry::new("bounded", b"ok".to_vec()))
            .unwrap();
        assert_eq!(agg.process(), 2);
        assert_eq!(agg.dropped_by_policy, 2);
        let r = agg.flush(0);
        assert_eq!(r.flushed_records, 2);
        // The alias landed under the configured directory.
        let aliased = HourlyPartition::from_hour_index("web_frontend", 0).main_dir();
        assert_eq!(staging.list_files_recursive(&aliased).unwrap().len(), 1);
        assert!(!staging.exists(&HourlyPartition::from_hour_index("rainbird", 0).main_dir()));
    }

    #[test]
    fn multiple_categories_get_separate_files() {
        let (coord, net, staging) = setup();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", staging.clone());
        net.send(agg.endpoint(), LogEntry::new("cat_a", b"1".to_vec()))
            .unwrap();
        net.send(agg.endpoint(), LogEntry::new("cat_b", b"2".to_vec()))
            .unwrap();
        agg.process();
        let r = agg.flush(0);
        assert_eq!(r.files_written, 2);
        assert!(
            staging
                .list_files_recursive(&WhPath::parse("/logs/cat_a").unwrap())
                .unwrap()
                .len()
                == 1
        );
        assert!(
            staging
                .list_files_recursive(&WhPath::parse("/logs/cat_b").unwrap())
                .unwrap()
                .len()
                == 1
        );
    }
}
