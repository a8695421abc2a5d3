//! The per-host Scribe daemon.
//!
//! "A Scribe daemon runs on every production host and is responsible for
//! sending local log data across the network to a cluster of dedicated
//! aggregators in the same datacenter. … the Scribe daemons consult
//! \[ZooKeeper\] to find a live aggregator they can connect to. If an
//! aggregator crashes … Scribe daemons simply check ZooKeeper again to find
//! another live aggregator. The same mechanism is used for balancing load
//! across aggregators." (§2)
//!
//! Delivery failures are retried with bounded exponential backoff: each
//! pump spends at most four send/discovery attempts, rediscovering through
//! the coordination service between attempts; when the budget is exhausted
//! the queue stays on local disk and the daemon cools down for an
//! exponentially growing (capped) number of pumps before trying again.

use std::collections::VecDeque;

use uli_coord::{CoordError, CoordService, Session, SessionId};

use crate::aggregator::{endpoint_key, registry_path};
use crate::message::{EntryId, LogEntry, MessageBatch};
use crate::network::Network;

/// Batching knobs for the daemon's send path. Entries coalesce into one
/// network message until a bound trips; a partial batch can linger a few
/// pumps waiting to fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum entries per batch.
    pub max_records: usize,
    /// Soft cap on the encoded batch size in bytes: the entry that would
    /// cross it starts the next batch (a batch always holds at least one
    /// entry, so an oversized single entry still ships).
    pub max_bytes: usize,
    /// Pumps a partial batch may be held back waiting for more entries.
    /// Zero (the default) sends partial batches immediately, which keeps
    /// delivery latency at one pump.
    pub linger_steps: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_records: 32,
            max_bytes: 32 * 1024,
            linger_steps: 0,
        }
    }
}

impl BatchPolicy {
    /// One entry per message — the pre-batching wire behaviour, kept as the
    /// baseline arm of ingest experiments.
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_records: 1,
            max_bytes: usize::MAX,
            linger_steps: 0,
        }
    }
}

/// Send or discovery attempts spent per pump before giving up and leaving
/// the queue on local disk.
const ATTEMPTS_PER_PUMP: u32 = 4;
/// Cooldown (in pumps) after the second consecutive failed pump. The first
/// failure retries on the very next pump.
const BASE_COOLDOWN: u64 = 1;
/// Cooldown cap; backoff doubles up to this.
const MAX_COOLDOWN: u64 = 16;

/// Cooldown after `failures` consecutive failed pumps: 0, then
/// `BASE_COOLDOWN`, twice that, four times, … capped at `MAX_COOLDOWN`.
fn cooldown_after(failures: u32) -> u64 {
    if failures <= 1 {
        return 0;
    }
    let doublings = (failures - 2).min(63);
    BASE_COOLDOWN
        .saturating_mul(1u64 << doublings)
        .min(MAX_COOLDOWN)
}

/// Outcome of one [`ScribeDaemon::pump`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpReport {
    /// Entries handed to an aggregator.
    pub sent: u64,
    /// Entries still buffered locally (no live aggregator reachable).
    pub still_buffered: u64,
    /// Times the daemon went back to the coordination service to discover.
    pub discoveries: u64,
    /// True if this pump was skipped entirely by backoff cooldown.
    pub cooling_down: bool,
}

/// A production-host daemon: queues entries locally and pushes them to a
/// discovered aggregator, failing over on errors.
pub struct ScribeDaemon {
    host_id: u64,
    dc: String,
    coord: CoordService,
    session: Session,
    network: Network,
    /// Entries not yet accepted by any aggregator ("buffered on local disk").
    queue: VecDeque<LogEntry>,
    /// Cached aggregator endpoint from the last discovery.
    current: Option<String>,
    batch: BatchPolicy,
    /// Consecutive pumps the current partial batch has lingered.
    lingered: u64,
    /// Batches handed to an aggregator over the daemon's lifetime.
    pub batches_sent: u64,
    /// Encoded bytes of those batches (the cost-model wire traffic that
    /// was actually acked).
    pub wire_bytes_sent: u64,
    /// Consecutive pumps that ended with undelivered entries.
    failed_pumps: u32,
    /// Pumps left to skip before retrying.
    cooldown: u64,
    /// Local-disk capacity in entries; beyond it new entries are dropped
    /// (the disk-full fault). `usize::MAX` means unbounded.
    queue_capacity: usize,
    /// Entries dropped because the local buffer was full.
    pub dropped_disk_full: u64,
    dropped_ids: Vec<EntryId>,
    /// Times the daemon reconnected after a coordination session expiry.
    pub reconnects: u64,
    /// Total failed send attempts over the daemon's lifetime (each one
    /// triggers rediscovery and, when the budget runs out, backoff).
    pub send_failures: u64,
    /// Total entries ever logged on this host.
    pub logged: u64,
}

impl ScribeDaemon {
    /// Creates a daemon for `host_id` in datacenter `dc`. The daemon keeps a
    /// handle to the coordination service so it can reconnect when its
    /// session expires.
    pub fn new(host_id: u64, dc: &str, coord: &CoordService, network: Network) -> Self {
        ScribeDaemon {
            host_id,
            dc: dc.to_string(),
            coord: coord.clone(),
            session: coord.connect(),
            network,
            queue: VecDeque::new(),
            current: None,
            batch: BatchPolicy::default(),
            lingered: 0,
            batches_sent: 0,
            wire_bytes_sent: 0,
            failed_pumps: 0,
            cooldown: 0,
            queue_capacity: usize::MAX,
            dropped_disk_full: 0,
            dropped_ids: Vec::new(),
            reconnects: 0,
            send_failures: 0,
            logged: 0,
        }
    }

    /// Replaces the batching policy (builder style).
    pub fn with_batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// The host identifier (used for load-balanced aggregator choice).
    pub fn host_id(&self) -> u64 {
        self.host_id
    }

    /// This daemon's coordination session id (for expiry injection).
    pub fn session_id(&self) -> SessionId {
        self.session.id()
    }

    /// Caps (or uncaps, with `None`) the local buffer — the disk-full fault.
    pub fn set_queue_capacity(&mut self, capacity: Option<usize>) {
        self.queue_capacity = capacity.unwrap_or(usize::MAX);
    }

    /// Ids of entries dropped on the floor because local disk was full.
    pub fn dropped_ids(&self) -> &[EntryId] {
        &self.dropped_ids
    }

    /// Ids of entries currently buffered locally.
    pub fn queued_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.queue.iter().filter_map(|e| e.id)
    }

    /// Queues a log entry locally, stamping its delivery id; nothing crosses
    /// the network until [`pump`](Self::pump). If the local buffer is at
    /// capacity the entry is dropped and counted — a full local disk loses
    /// data at the host, visibly.
    pub fn log(&mut self, mut entry: LogEntry) {
        let id = EntryId {
            host: self.host_id,
            seq: self.logged,
        };
        entry.id = Some(id);
        self.logged += 1;
        if self.queue.len() >= self.queue_capacity {
            self.dropped_disk_full += 1;
            self.dropped_ids.push(id);
            return;
        }
        self.queue.push_back(entry);
    }

    /// Entries currently buffered on this host.
    pub fn buffered(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Picks an aggregator from the live set, spreading hosts across members
    /// by hashing the host id (the paper's "balancing load across
    /// aggregators" via the same discovery mechanism). Reconnects first if
    /// the coordination session has expired.
    pub(crate) fn discover(&mut self) -> Option<String> {
        let path = registry_path(&self.dc);
        let members = match self.session.get_children(&path) {
            Ok(m) => m,
            Err(CoordError::SessionExpired) => {
                self.session = self.coord.connect();
                self.reconnects += 1;
                self.session.get_children(&path).unwrap_or_default()
            }
            Err(_) => Vec::new(),
        };
        if members.is_empty() {
            return None;
        }
        // Stable multiplicative hash of the host id.
        let idx = (self.host_id.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize % members.len();
        let member = &members[idx];
        // The endpoint lives in the znode's data, so an aggregator that
        // re-registers after a session expiry keeps its network channel.
        match self.session.get_data(&format!("{path}/{member}")) {
            Ok(data) if !data.is_empty() => String::from_utf8(data).ok(),
            _ => Some(endpoint_key(&self.dc, member)),
        }
    }

    /// True if the queue can fill a whole batch right now: either the
    /// record bound or the byte bound would trip.
    fn batch_ready(&self) -> bool {
        if self.queue.len() >= self.batch.max_records {
            return true;
        }
        let mut bytes = 0usize;
        for e in &self.queue {
            bytes = bytes.saturating_add(crate::message::framed_entry_size(e));
            if bytes >= self.batch.max_bytes {
                return true;
            }
        }
        false
    }

    /// Pops the next batch off the queue front: up to `max_records`
    /// entries, stopping before the entry that would cross `max_bytes`
    /// (but always taking at least one).
    fn take_batch(&mut self) -> MessageBatch {
        let mut batch = MessageBatch::new();
        while batch.len() < self.batch.max_records {
            let Some(e) = self.queue.front() else { break };
            if !batch.is_empty()
                && batch.wire_size() + crate::message::framed_entry_size(e) > self.batch.max_bytes
            {
                break;
            }
            batch.push(self.queue.pop_front().expect("front checked"));
        }
        batch
    }

    /// Attempts to drain the local queue to a live aggregator, in batches.
    ///
    /// Entries coalesce per [`BatchPolicy`]; each batch costs one network
    /// message and one fault roll. Spends at most `ATTEMPTS_PER_PUMP`
    /// send/discovery attempts, rediscovering through the coordination
    /// service after every failure; a failed batch is re-queued whole at
    /// the front, preserving order. If the budget runs out the remaining
    /// entries stay buffered and the daemon backs off exponentially
    /// (capped) before the next real try.
    pub fn pump(&mut self) -> PumpReport {
        let mut report = PumpReport::default();
        if self.queue.is_empty() {
            self.failed_pumps = 0;
            self.cooldown = 0;
            return report;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            report.cooling_down = true;
            report.still_buffered = self.queue.len() as u64;
            return report;
        }
        // Linger: hold a partial batch back, hoping it fills, for at most
        // `linger_steps` pumps. Not a delivery failure — no backoff.
        if self.batch.linger_steps > 0
            && !self.batch_ready()
            && self.lingered < self.batch.linger_steps
        {
            self.lingered += 1;
            report.still_buffered = self.queue.len() as u64;
            return report;
        }
        self.lingered = 0;
        let mut attempts = 0u32;
        'drain: while !self.queue.is_empty() {
            let mut batch = self.take_batch();
            loop {
                if attempts >= ATTEMPTS_PER_PUMP {
                    // Re-queue the whole batch at the front, in order.
                    for entry in batch.into_entries().into_iter().rev() {
                        self.queue.push_front(entry);
                    }
                    break 'drain;
                }
                let target = match &self.current {
                    Some(t) => t.clone(),
                    None => {
                        attempts += 1;
                        report.discoveries += 1;
                        match self.discover() {
                            Some(t) => {
                                self.current = Some(t.clone());
                                t
                            }
                            None => continue,
                        }
                    }
                };
                let (len, wire_size) = (batch.len() as u64, batch.wire_size() as u64);
                match self.network.send_batch(&target, batch) {
                    Ok(()) => {
                        report.sent += len;
                        self.batches_sent += 1;
                        self.wire_bytes_sent += wire_size;
                        break;
                    }
                    // The network hands a batch it did not take back whole.
                    Err(back) => {
                        batch = back;
                        attempts += 1;
                        self.send_failures += 1;
                        self.current = None;
                    }
                }
            }
        }
        report.still_buffered = self.queue.len() as u64;
        if report.still_buffered == 0 || report.sent > 0 {
            self.failed_pumps = 0;
            self.cooldown = 0;
        } else {
            self.failed_pumps += 1;
            self.cooldown = cooldown_after(self.failed_pumps);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;
    use uli_coord::CoordService;
    use uli_warehouse::Warehouse;

    fn daemon(coord: &CoordService, net: &Network, host: u64) -> ScribeDaemon {
        ScribeDaemon::new(host, "dc1", coord, net.clone())
    }

    #[test]
    fn logs_buffer_until_pumped() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 1);
        d.log(LogEntry::new("ce", b"m".to_vec()));
        assert_eq!(d.buffered(), 1);
        // No aggregators at all: entry stays buffered.
        let r = d.pump();
        assert_eq!(r.sent, 0);
        assert_eq!(r.still_buffered, 1);
    }

    #[test]
    fn logging_stamps_sequential_ids() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 9);
        d.log(LogEntry::new("ce", b"a".to_vec()));
        d.log(LogEntry::new("ce", b"b".to_vec()));
        let ids: Vec<EntryId> = d.queued_ids().collect();
        assert_eq!(
            ids,
            vec![EntryId { host: 9, seq: 0 }, EntryId { host: 9, seq: 1 }]
        );
    }

    #[test]
    fn pump_delivers_to_live_aggregator() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 7);
        for _ in 0..5 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        let r = d.pump();
        assert_eq!(r.sent, 5);
        assert_eq!(r.still_buffered, 0);
        assert_eq!(agg.process(), 5);
    }

    #[test]
    fn failover_to_surviving_aggregator() {
        let coord = CoordService::new();
        let net = Network::new();
        let agg1 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut agg2 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());

        // Find a host id that hashes to agg1 so the crash actually matters.
        let mut d = (0..64)
            .map(|h| daemon(&coord, &net, h))
            .find(|d| {
                let mut probe = ScribeDaemon::new(d.host_id(), "dc1", &coord, net.clone());
                probe.discover() == Some(agg1.endpoint().to_string())
            })
            .expect("some host maps to agg1");

        d.log(LogEntry::new("ce", b"before".to_vec()));
        assert_eq!(d.pump().sent, 1);

        let name1 = agg1.endpoint().to_string();
        agg1.crash(&coord);
        assert!(!net.is_up(&name1));

        d.log(LogEntry::new("ce", b"after".to_vec()));
        let r = d.pump();
        assert_eq!(r.sent, 1, "entry must fail over to agg2");
        assert!(r.discoveries >= 1);
        assert_eq!(agg2.process(), 1);
    }

    #[test]
    fn no_aggregator_then_recovery() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 3);
        d.log(LogEntry::new("ce", b"1".to_vec()));
        assert_eq!(d.pump().sent, 0);
        // An aggregator appears; the buffered entry drains on the next pump
        // (first failure has no cooldown).
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let r = d.pump();
        assert_eq!(r.sent, 1);
        assert_eq!(agg.process(), 1);
    }

    #[test]
    fn hosts_spread_across_aggregators() {
        let coord = CoordService::new();
        let net = Network::new();
        let _a1 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let _a2 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut counts = std::collections::HashMap::new();
        for host in 0..200 {
            let mut d = daemon(&coord, &net, host);
            let target = d.discover().unwrap();
            *counts.entry(target).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 2, "both aggregators should receive hosts");
        for (_, c) in counts {
            assert!(c > 40, "load balance should be roughly even, got {c}");
        }
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let schedule: Vec<u64> = (1..=8).map(cooldown_after).collect();
        assert_eq!(schedule, vec![0, 1, 2, 4, 8, 16, 16, 16]);
        // No overflow at absurd failure counts.
        assert_eq!(cooldown_after(u32::MAX), 16);
    }

    #[test]
    fn give_up_leaves_queue_on_local_buffer_and_cools_down() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 5);
        for _ in 0..3 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        // Pump 1: no aggregator; budget spent on discoveries, queue intact.
        let r1 = d.pump();
        assert_eq!((r1.sent, r1.still_buffered), (0, 3));
        assert_eq!(
            r1.discoveries,
            u64::from(ATTEMPTS_PER_PUMP),
            "attempt budget caps discovery retries"
        );
        assert!(!r1.cooling_down);
        // Pump 2: first failure retries immediately (cooldown 0).
        let r2 = d.pump();
        assert!(!r2.cooling_down);
        // Pump 3: second consecutive failure → cooldown 1 → skipped.
        let r3 = d.pump();
        assert!(r3.cooling_down, "backoff must skip this pump");
        assert_eq!(r3.discoveries, 0);
        // Every entry is still on the local buffer; nothing was lost.
        assert_eq!(d.buffered(), 3);
        // Recovery: an aggregator appears; the next non-skipped pump drains.
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let r4 = d.pump();
        assert_eq!(r4.sent, 3);
        assert_eq!(agg.process(), 3);
        // Success resets the backoff state.
        d.log(LogEntry::new("ce", b"m".to_vec()));
        assert!(!d.pump().cooling_down);
    }

    #[test]
    fn retries_within_one_pump_rediscover_between_attempts() {
        let coord = CoordService::new();
        let net = Network::new();
        // One aggregator that dies; another that survives. Force the
        // daemon's cached endpoint to the dead one.
        let agg1 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = (0..64)
            .map(|h| daemon(&coord, &net, h))
            .find(|d| {
                let mut probe = ScribeDaemon::new(d.host_id(), "dc1", &coord, net.clone());
                probe.discover() == Some(agg1.endpoint().to_string())
            })
            .expect("some host maps to agg1");
        d.log(LogEntry::new("ce", b"a".to_vec()));
        assert_eq!(d.pump().sent, 1);
        agg1.crash(&coord);
        let mut agg2 = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        d.log(LogEntry::new("ce", b"b".to_vec()));
        // Cached endpoint fails → rediscover within the same pump → agg2.
        let r = d.pump();
        assert_eq!(r.sent, 1);
        assert!(r.discoveries >= 1);
        assert_eq!(agg2.process(), 1);
    }

    #[test]
    fn session_expiry_triggers_reconnect_on_next_discovery() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 11);
        coord.expire_session(d.session_id());
        d.log(LogEntry::new("ce", b"x".to_vec()));
        let r = d.pump();
        assert_eq!(r.sent, 1, "daemon must reconnect and still deliver");
        assert_eq!(d.reconnects, 1);
        assert_eq!(agg.process(), 1);
    }

    #[test]
    fn pump_batches_entries_into_few_messages() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 7).with_batch_policy(BatchPolicy {
            max_records: 10,
            max_bytes: usize::MAX,
            linger_steps: 0,
        });
        for _ in 0..25 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        let r = d.pump();
        assert_eq!(r.sent, 25, "sent counts entries, not batches");
        assert_eq!(d.batches_sent, 3, "25 entries at 10/batch");
        assert!(d.wire_bytes_sent > 0);
        let (messages, _) = net.message_cost();
        assert_eq!(messages, 3);
        assert_eq!(agg.process(), 25);
    }

    #[test]
    fn unbatched_policy_sends_one_message_per_entry() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 7).with_batch_policy(BatchPolicy::unbatched());
        for _ in 0..5 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        assert_eq!(d.pump().sent, 5);
        assert_eq!(d.batches_sent, 5);
        assert_eq!(net.message_cost().0, 5);
        assert_eq!(agg.process(), 5);
    }

    #[test]
    fn byte_bound_splits_batches_but_oversized_entries_still_ship() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 7).with_batch_policy(BatchPolicy {
            max_records: 100,
            max_bytes: 100,
            linger_steps: 0,
        });
        // One entry far over the byte bound, then small ones.
        d.log(LogEntry::new("ce", vec![0u8; 500]));
        for _ in 0..4 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        let r = d.pump();
        assert_eq!(r.sent, 5);
        assert_eq!(
            d.batches_sent, 2,
            "oversized entry alone, then the small ones together"
        );
        assert_eq!(agg.process(), 5);
    }

    #[test]
    fn linger_holds_partial_batches_then_flushes() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut agg = Aggregator::spawn(&coord, &net, "dc1", Warehouse::new());
        let mut d = daemon(&coord, &net, 7).with_batch_policy(BatchPolicy {
            max_records: 4,
            max_bytes: usize::MAX,
            linger_steps: 2,
        });
        d.log(LogEntry::new("ce", b"m".to_vec()));
        // Partial batch lingers, untouched, for two pumps …
        let r1 = d.pump();
        assert_eq!((r1.sent, r1.still_buffered), (0, 1));
        assert!(!r1.cooling_down, "linger is not backoff");
        assert_eq!((d.pump().sent, d.buffered()), (0, 1));
        // … then ships on the third even though still partial.
        assert_eq!(d.pump().sent, 1);
        assert_eq!(agg.process(), 1);
        // A full batch never lingers.
        for _ in 0..4 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        assert_eq!(d.pump().sent, 4);
        assert_eq!(agg.process(), 4);
    }

    #[test]
    fn failed_batch_requeues_whole_preserving_order() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 5);
        for i in 0..3u64 {
            d.log(LogEntry::new("ce", vec![i as u8]));
        }
        // No aggregator: the popped batch must land back intact, in order.
        assert_eq!(d.pump().sent, 0);
        let seqs: Vec<u64> = d.queued_ids().map(|id| id.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn full_local_disk_drops_new_entries_and_records_ids() {
        let coord = CoordService::new();
        let net = Network::new();
        let mut d = daemon(&coord, &net, 2);
        d.set_queue_capacity(Some(2));
        for _ in 0..5 {
            d.log(LogEntry::new("ce", b"m".to_vec()));
        }
        assert_eq!(d.buffered(), 2);
        assert_eq!(d.dropped_disk_full, 3);
        assert_eq!(d.logged, 5, "dropped entries still count as logged");
        let dropped: Vec<u64> = d.dropped_ids().iter().map(|id| id.seq).collect();
        assert_eq!(dropped, vec![2, 3, 4]);
        // Capacity lifted: new entries flow again.
        d.set_queue_capacity(None);
        d.log(LogEntry::new("ce", b"m".to_vec()));
        assert_eq!(d.buffered(), 3);
    }
}
