//! The simulated datacenter network.
//!
//! Aggregators expose an unbounded queue endpoint ([`Inbox`]) under a name;
//! daemons look the name up (after discovering it in the coordination
//! service) and send entries. Crashing an aggregator closes its receiving
//! end, so subsequent sends fail exactly like writes to a dead TCP peer —
//! which is the signal daemons use to go back to ZooKeeper for a live
//! aggregator.
//!
//! The unit of transfer is a [`MessageBatch`]: daemons coalesce queued
//! entries into one message, so a wire fault lands at batch granularity — a
//! dropped packet loses (and re-buffers) a whole batch, a lost ack retries
//! and therefore duplicates every entry in it, a delayed packet holds the
//! batch intact until it is due. Receivers still see individual entries:
//! delivery unpacks the batch into the endpoint's queue, which keeps
//! per-entry accounting (aggregator backlog, crash loss) exact.
//!
//! For chaos testing the network can additionally sample per-send link
//! faults from a seeded RNG ([`LinkFaults`]): dropped packets, lost acks
//! (delivered but reported failed, so the sender retries and the entry is
//! duplicated), duplicated deliveries, and delayed packets that arrive a few
//! [`advance_step`](Network::advance_step) calls later. Everything is
//! deterministic in the seed, which is what makes chaos schedules
//! replayable.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rand::{Rng, SeedableRng, StdRng};
use uli_obs::lock;

use crate::message::{EntryId, LogEntry, MessageBatch};

/// Error returned when sending to a crashed or unknown aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerDown;

/// Per-send fault probabilities. Rates are sampled from one roll per send,
/// so they must sum to at most 1; the remainder is a clean delivery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Packet silently dropped; the sender sees a failure.
    pub drop_rate: f64,
    /// Packet delivered but the ack is lost: the sender sees a failure and
    /// will retry, duplicating the entry downstream.
    pub ack_loss_rate: f64,
    /// Packet delivered twice; the sender sees success.
    pub duplicate_rate: f64,
    /// Packet held back and delivered on a later step; sender sees success.
    pub delay_rate: f64,
    /// Maximum steps a delayed packet is held (uniform in `1..=max`).
    pub max_delay_steps: u64,
}

impl LinkFaults {
    fn total_rate(&self) -> f64 {
        self.drop_rate + self.ack_loss_rate + self.duplicate_rate + self.delay_rate
    }
}

struct FaultState {
    rng: StdRng,
    faults: LinkFaults,
}

/// The entries delivered to an endpoint and not yet taken off it, and
/// whether anyone is still there to take them.
#[derive(Default)]
struct Queue {
    entries: VecDeque<LogEntry>,
    closed: bool,
}

/// The network's end of an endpoint's queue.
#[derive(Clone)]
struct Peer(Arc<Mutex<Queue>>);

impl Peer {
    /// Queues `entry`, or hands it back when the endpoint's [`Inbox`] is
    /// gone.
    fn send(&self, entry: LogEntry) -> Result<(), LogEntry> {
        let mut queue = lock(&self.0);
        if queue.closed {
            return Err(entry);
        }
        queue.entries.push_back(entry);
        Ok(())
    }

    /// Queues every entry of `batch`, in order, or hands the batch back
    /// whole when the endpoint's [`Inbox`] is gone.
    fn send_all(&self, batch: MessageBatch) -> Result<(), MessageBatch> {
        let mut queue = lock(&self.0);
        if queue.closed {
            return Err(batch);
        }
        queue.entries.extend(batch.into_entries());
        Ok(())
    }
}

/// The receiving end of an endpoint: what [`Network::register`] hands the
/// aggregator. Dropping it closes the endpoint to further sends.
pub struct Inbox(Arc<Mutex<Queue>>);

impl Inbox {
    /// Takes every entry delivered so far, in delivery order.
    pub fn try_iter(&self) -> impl Iterator<Item = LogEntry> {
        std::mem::take(&mut lock(&self.0).entries).into_iter()
    }

    /// Entries delivered and not yet taken.
    pub fn len(&self) -> usize {
        lock(&self.0).entries.len()
    }

    /// Whether nothing is waiting to be taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        lock(&self.0).closed = true;
    }
}

#[derive(Default)]
struct Shared {
    peers: HashMap<String, Peer>,
    faults: Option<FaultState>,
    /// Delayed packets: (due step, endpoint, batch), in send order. A
    /// delayed batch is held whole — it was acked as one message.
    delayed: VecDeque<(u64, String, MessageBatch)>,
    /// Current simulation step, advanced by [`Network::advance_step`].
    now: u64,
    /// Cost model: messages ever offered to the network (every
    /// [`Network::send_batch`] call, successful or not).
    messages: u64,
    /// Cost model: encoded bytes of those messages.
    message_bytes: u64,
    /// One-shot sabotage: the next multi-entry batch is half-applied —
    /// delivered partially but acked whole (negative testing only).
    half_apply_armed: bool,
}

/// Registry of live endpoints, keyed by aggregator endpoint name.
#[derive(Clone, Default)]
pub struct Network {
    inner: Arc<Mutex<Shared>>,
}

enum Decision {
    Deliver,
    Drop,
    AckLoss,
    Duplicate,
    Delay(u64),
}

impl Network {
    /// Creates an empty, fault-free network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an endpoint and returns its receiving half.
    pub fn register(&self, name: &str) -> Inbox {
        let queue = Arc::new(Mutex::new(Queue::default()));
        let peer = Peer(Arc::clone(&queue));
        lock(&self.inner).peers.insert(name.to_string(), peer);
        Inbox(queue)
    }

    /// Removes an endpoint (crash or clean shutdown). Sends to it fail from
    /// now on; entries already queued stay readable by the holder of the
    /// inbox (in-flight packets drain).
    pub fn unregister(&self, name: &str) {
        lock(&self.inner).peers.remove(name);
    }

    /// Arms seeded link-fault injection. Replaces any previous fault state,
    /// so the same seed always produces the same per-send decisions.
    pub fn set_faults(&self, seed: u64, faults: LinkFaults) {
        assert!(
            faults.total_rate() <= 1.0,
            "link fault rates must sum to at most 1"
        );
        lock(&self.inner).faults = Some(FaultState {
            rng: StdRng::seed_from_u64(seed),
            faults,
        });
    }

    /// Disarms link-fault injection. Delayed packets already in flight keep
    /// their schedule.
    pub fn clear_faults(&self) {
        lock(&self.inner).faults = None;
    }

    /// Sends a single entry to the named endpoint — a batch of one.
    pub fn send(&self, name: &str, entry: LogEntry) -> Result<(), PeerDown> {
        self.send_batch(name, MessageBatch::of(entry))
            .map_err(|_| PeerDown)
    }

    /// Sends a batch of entries to the named endpoint as one message: one
    /// fault roll, one ack. Fault outcomes apply to the batch as a unit —
    /// drop loses it whole (the sender re-buffers it), ack loss delivers
    /// all entries but reports failure, duplicate re-delivers every entry,
    /// delay holds the batch intact until due. Delivery unpacks entries
    /// into the endpoint's queue in batch order.
    ///
    /// A send that fails hands the batch back, for the sender to keep and
    /// retry, so nothing is copied on the way out. Only the outcomes that
    /// deliver entries the sender still holds or sent once — a lost ack,
    /// and a duplicate — deliver a copy.
    pub fn send_batch(&self, name: &str, batch: MessageBatch) -> Result<(), MessageBatch> {
        let mut s = lock(&self.inner);
        s.messages += 1;
        s.message_bytes += batch.wire_size() as u64;
        // One roll per send, partitioning [0,1) into the fault kinds. The
        // roll happens before the liveness check so RNG consumption — and
        // therefore every later decision — does not depend on peer state.
        let decision = match &mut s.faults {
            None => Decision::Deliver,
            Some(f) => {
                let roll: f64 = f.rng.gen();
                let lf = f.faults;
                let drop_edge = lf.drop_rate;
                let ack_edge = drop_edge + lf.ack_loss_rate;
                let dup_edge = ack_edge + lf.duplicate_rate;
                let delay_edge = dup_edge + lf.delay_rate;
                if roll < drop_edge {
                    Decision::Drop
                } else if roll < ack_edge {
                    Decision::AckLoss
                } else if roll < dup_edge {
                    Decision::Duplicate
                } else if roll < delay_edge {
                    Decision::Delay(f.rng.gen_range(1..=lf.max_delay_steps.max(1)))
                } else {
                    Decision::Deliver
                }
            }
        };
        if let Decision::Drop = decision {
            // Simulated timeout: nothing reaches the peer, sender retries.
            return Err(batch);
        }
        let Some(tx) = s.peers.get(name).cloned() else {
            return Err(batch);
        };
        if s.half_apply_armed && batch.len() >= 2 {
            // Sabotage: store only the first half, ack the whole batch.
            // The lost half is accounted nowhere — the invariant checker
            // must catch exactly this.
            s.half_apply_armed = false;
            let half = batch.len() / 2;
            for entry in batch.into_entries().into_iter().take(half) {
                let _ = tx.send(entry);
            }
            return Ok(());
        }
        match decision {
            Decision::Drop => unreachable!("handled above"),
            Decision::Delay(steps) => {
                let due = s.now + steps;
                s.delayed.push_back((due, name.to_string(), batch));
                Ok(())
            }
            Decision::Deliver => tx.send_all(batch),
            Decision::AckLoss => {
                // Delivered, but the sender is told it failed.
                let _ = tx.send_all(batch.clone());
                Err(batch)
            }
            Decision::Duplicate => {
                let _ = tx.send_all(batch.clone());
                tx.send_all(batch)
            }
        }
    }

    /// Arms the one-shot half-apply sabotage: the next batch of two or more
    /// entries is partially delivered but fully acked. For negative tests
    /// proving the delivery-invariant checker catches half-applied batches.
    pub fn arm_half_apply(&self) {
        lock(&self.inner).half_apply_armed = true;
    }

    /// Cost model: `(messages, bytes)` ever offered to the network — one
    /// message per [`send_batch`](Self::send_batch) call (including failed
    /// sends, which consumed the wire), bytes as encoded frame sizes.
    pub fn message_cost(&self) -> (u64, u64) {
        let s = lock(&self.inner);
        (s.messages, s.message_bytes)
    }

    /// Advances simulated time one step, delivering due delayed packets.
    /// Entries of batches whose endpoint has since crashed are returned as
    /// dead letters: they were acked to the sender, so the caller must
    /// account them as crash losses.
    pub fn advance_step(&self) -> Vec<LogEntry> {
        let mut s = lock(&self.inner);
        s.now += 1;
        let now = s.now;
        let mut dead = Vec::new();
        let mut keep = VecDeque::new();
        while let Some((due, name, batch)) = s.delayed.pop_front() {
            if due > now {
                keep.push_back((due, name, batch));
                continue;
            }
            match s.peers.get(&name).cloned() {
                Some(tx) => {
                    if let Err(batch) = tx.send_all(batch) {
                        dead.extend(batch.into_entries());
                    }
                }
                None => dead.extend(batch.into_entries()),
            }
        }
        s.delayed = keep;
        dead
    }

    /// Number of delayed packets currently in flight.
    pub fn delayed_count(&self) -> u64 {
        lock(&self.inner).delayed.len() as u64
    }

    /// Ids of delayed entries currently in flight (stamped entries only),
    /// flattened across delayed batches.
    pub fn delayed_ids(&self) -> Vec<EntryId> {
        lock(&self.inner)
            .delayed
            .iter()
            .flat_map(|(_, _, b)| b.entries())
            .filter_map(|e| e.id)
            .collect()
    }

    /// True if the endpoint is registered.
    pub fn is_up(&self, name: &str) -> bool {
        lock(&self.inner).peers.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let net = Network::new();
        let rx = net.register("agg-1");
        net.send("agg-1", LogEntry::new("c", b"m".to_vec()))
            .unwrap();
        assert_eq!(rx.try_iter().next().unwrap().category, "c");
    }

    #[test]
    fn send_to_unknown_fails() {
        let net = Network::new();
        assert_eq!(net.send("nope", LogEntry::new("c", vec![])), Err(PeerDown));
    }

    #[test]
    fn unregister_breaks_sends_but_drains_in_flight() {
        let net = Network::new();
        let rx = net.register("agg-1");
        net.send("agg-1", LogEntry::new("c", b"1".to_vec()))
            .unwrap();
        net.unregister("agg-1");
        assert!(!net.is_up("agg-1"));
        assert_eq!(net.send("agg-1", LogEntry::new("c", vec![])), Err(PeerDown));
        // The in-flight entry is still deliverable to the receiver.
        assert_eq!(rx.try_iter().next().unwrap().message, b"1");
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let net = Network::new();
        let rx = net.register("agg-1");
        drop(rx);
        assert_eq!(net.send("agg-1", LogEntry::new("c", vec![])), Err(PeerDown));
    }

    #[test]
    fn drop_fault_loses_packet_and_reports_failure() {
        let net = Network::new();
        let rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                drop_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(
            net.send("a", LogEntry::new("c", b"x".to_vec())),
            Err(PeerDown)
        );
        assert!(rx.try_iter().next().is_none());
    }

    #[test]
    fn ack_loss_delivers_but_reports_failure() {
        let net = Network::new();
        let rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                ack_loss_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(
            net.send("a", LogEntry::new("c", b"x".to_vec())),
            Err(PeerDown)
        );
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let net = Network::new();
        let rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                duplicate_rate: 1.0,
                ..Default::default()
            },
        );
        net.send("a", LogEntry::new("c", b"x".to_vec())).unwrap();
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn delayed_packet_arrives_after_steps() {
        let net = Network::new();
        let rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                delay_rate: 1.0,
                max_delay_steps: 3,
                ..Default::default()
            },
        );
        net.send("a", LogEntry::new("c", b"x".to_vec())).unwrap();
        assert_eq!(rx.try_iter().count(), 0);
        assert_eq!(net.delayed_count(), 1);
        let mut steps = 0;
        while net.delayed_count() > 0 {
            assert!(net.advance_step().is_empty());
            steps += 1;
            assert!(steps <= 3, "delay is bounded by max_delay_steps");
        }
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn delayed_packet_to_crashed_peer_is_a_dead_letter() {
        let net = Network::new();
        let _rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                delay_rate: 1.0,
                max_delay_steps: 1,
                ..Default::default()
            },
        );
        net.send("a", LogEntry::new("c", b"x".to_vec())).unwrap();
        net.unregister("a");
        let dead = net.advance_step();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].message, b"x");
    }

    fn batch_of(n: u8) -> MessageBatch {
        let mut b = MessageBatch::new();
        for i in 0..n {
            b.push(LogEntry::new("c", vec![i]));
        }
        b
    }

    #[test]
    fn batch_delivers_entries_in_order() {
        let net = Network::new();
        let rx = net.register("a");
        net.send_batch("a", batch_of(3)).unwrap();
        let got: Vec<Vec<u8>> = rx.try_iter().map(|e| e.message).collect();
        assert_eq!(got, vec![vec![0], vec![1], vec![2]]);
        let (messages, bytes) = net.message_cost();
        assert_eq!(messages, 1, "one batch is one network message");
        assert!(bytes > 0);
    }

    #[test]
    fn faults_land_at_batch_granularity() {
        // Drop: the whole batch is lost and the sender told so.
        let net = Network::new();
        let rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                drop_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(net.send_batch("a", batch_of(4)), Err(batch_of(4)));
        assert_eq!(rx.try_iter().count(), 0);

        // Ack loss: every entry arrives once, and the batch comes back
        // whole for the sender to retry.
        net.set_faults(
            1,
            LinkFaults {
                ack_loss_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(net.send_batch("a", batch_of(4)), Err(batch_of(4)));
        assert_eq!(rx.try_iter().count(), 4);

        // Duplicate: every entry in the batch arrives twice.
        net.set_faults(
            1,
            LinkFaults {
                duplicate_rate: 1.0,
                ..Default::default()
            },
        );
        net.send_batch("a", batch_of(4)).unwrap();
        assert_eq!(rx.try_iter().count(), 8);

        // Delay: the batch is held whole, its ids visible in flight.
        net.set_faults(
            1,
            LinkFaults {
                delay_rate: 1.0,
                max_delay_steps: 1,
                ..Default::default()
            },
        );
        let mut b = batch_of(2);
        b.push({
            let mut e = LogEntry::new("c", vec![9]);
            e.id = Some(EntryId { host: 5, seq: 0 });
            e
        });
        net.send_batch("a", b).unwrap();
        assert_eq!(net.delayed_count(), 1, "one delayed packet, three entries");
        assert_eq!(net.delayed_ids(), vec![EntryId { host: 5, seq: 0 }]);
        net.clear_faults();
        net.advance_step();
        assert_eq!(rx.try_iter().count(), 3);
    }

    #[test]
    fn delayed_batch_to_crashed_peer_flattens_to_dead_letters() {
        let net = Network::new();
        let _rx = net.register("a");
        net.set_faults(
            1,
            LinkFaults {
                delay_rate: 1.0,
                max_delay_steps: 1,
                ..Default::default()
            },
        );
        net.send_batch("a", batch_of(3)).unwrap();
        net.unregister("a");
        assert_eq!(net.advance_step().len(), 3);
    }

    #[test]
    fn half_apply_sabotage_delivers_half_but_acks_whole() {
        let net = Network::new();
        let rx = net.register("a");
        net.arm_half_apply();
        // Single-entry batches are not half-appliable; the trap stays armed.
        net.send_batch("a", batch_of(1)).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        assert!(net.send_batch("a", batch_of(5)).is_ok(), "acked whole");
        assert_eq!(rx.try_iter().count(), 2, "only half stored");
        // One-shot: later batches are intact again.
        net.send_batch("a", batch_of(5)).unwrap();
        assert_eq!(rx.try_iter().count(), 5);
    }

    #[test]
    fn same_seed_same_decisions() {
        let outcomes = |seed: u64| {
            let net = Network::new();
            let _rx = net.register("a");
            net.set_faults(
                seed,
                LinkFaults {
                    drop_rate: 0.3,
                    ack_loss_rate: 0.2,
                    ..Default::default()
                },
            );
            (0..64)
                .map(|i| net.send("a", LogEntry::new("c", vec![i])).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(42), outcomes(42));
        assert_ne!(outcomes(42), outcomes(43), "different seeds should differ");
    }
}
