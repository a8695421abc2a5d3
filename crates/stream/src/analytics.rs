//! The speed layer: sharded monoid state fed by the Scribe delivery tap,
//! with windowed (per-hour) and running (day-so-far) views exported
//! through `uli-obs`.
//!
//! [`StreamAnalytics`] implements [`uli_scribe::DeliveryTap`], so it can
//! be attached to a [`uli_scribe::ScribePipeline`] and observe exactly the
//! records each successful atomic slide makes visible. A delivered hour is
//! cut into one contiguous run of records per shard — the routing is pure
//! partitioning and reads no payload, so because every [`StreamState`]
//! operation commutes, the merged view is identical at *any* shard count
//! and any merge order. The lambda invariant suite pins that: views at 1,
//! 4, and 8 shards are asserted byte-equal.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex};

use uli_obs::{lock, Counter, Gauge, Registry};
use uli_scribe::DeliveryTap;
use uli_warehouse::HourlyPartition;

use crate::state::{StreamState, DEFAULT_TRENDING_K};

/// Speed-layer sizing.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Shard states per hour window. Purely a parallelism knob: views are
    /// shard-count-invariant by the monoid laws.
    pub shards: usize,
    /// How many trending event names to report.
    pub trending_k: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            trending_k: DEFAULT_TRENDING_K,
        }
    }
}

/// Registry mirrors for the running view. Counters use `set_total` —
/// the streaming state stays authoritative, the registry can only show a
/// value the monoid computed.
struct StreamObs {
    /// Every delivery so far, merged: advanced by each hour's own states,
    /// so mirroring never re-merges the hours before it.
    running: StreamState,
    records: Counter,
    events: Counter,
    malformed: Counter,
    hours_moved: Counter,
    distinct_users_est: Gauge,
    hours_open: Gauge,
    /// Per-hour windowed record counters, labeled by hour index.
    hour_records: BTreeMap<u64, Counter>,
    registry: Registry,
}

impl StreamObs {
    fn new(registry: &Registry, trending_k: usize) -> StreamObs {
        StreamObs {
            running: StreamState::new(trending_k),
            records: registry.counter("stream", "records"),
            events: registry.counter("stream", "events"),
            malformed: registry.counter("stream", "malformed"),
            hours_moved: registry.counter("stream", "hours_moved"),
            distinct_users_est: registry.gauge("stream", "distinct_users_est"),
            hours_open: registry.gauge("stream", "hours_open"),
            hour_records: BTreeMap::new(),
            registry: registry.clone(),
        }
    }
}

struct Inner {
    config: StreamConfig,
    /// Worker count for the per-hour shard fold. Serial by default; every
    /// setting produces identical shard states because routing fixes each
    /// shard's observe sequence before any worker runs.
    workers: uli_warehouse::Parallelism,
    /// Hour window → one [`StreamState`] per shard.
    hours: BTreeMap<u64, Vec<StreamState>>,
    /// Successful slides observed.
    hours_moved: u64,
    obs: Option<StreamObs>,
}

impl Inner {
    /// Deterministic fold: shards in index order, hours ascending.
    fn view(states: &[StreamState], trending_k: usize) -> StreamState {
        let mut out = StreamState::new(trending_k);
        for s in states {
            out.merge(s);
        }
        out
    }

    fn running(&self) -> StreamState {
        let mut out = StreamState::new(self.config.trending_k);
        for states in self.hours.values() {
            for s in states {
                out.merge(s);
            }
        }
        out
    }

    /// Mirrors the running view, and the window of `hour`, into the registry.
    fn sync_obs(&mut self, hour: u64) {
        let Some(obs) = &mut self.obs else { return };
        obs.records.set_total(obs.running.records());
        obs.events.set_total(obs.running.events());
        obs.malformed.set_total(obs.running.malformed());
        obs.hours_moved.set_total(self.hours_moved);
        obs.distinct_users_est
            .set(obs.running.distinct_users_estimate().min(i64::MAX as u64) as i64);
        obs.hours_open.set(self.hours.len() as i64);
        if let Some(states) = self.hours.get(&hour) {
            let counter = obs.hour_records.entry(hour).or_insert_with(|| {
                obs.registry.counter_labeled(
                    "stream",
                    "hour_records",
                    &[("hour", &hour.to_string())],
                )
            });
            counter.set_total(states.iter().map(|s| s.records()).sum());
        }
    }
}

/// The speed layer handle. Cloneable; all clones share state, so one
/// clone can be boxed as the pipeline tap while another serves views.
#[derive(Clone)]
pub struct StreamAnalytics {
    inner: Arc<Mutex<Inner>>,
}

impl StreamAnalytics {
    /// A speed layer with no registry attached.
    pub fn new(config: StreamConfig) -> StreamAnalytics {
        Self::build(config, None)
    }

    /// A speed layer whose running and windowed views mirror into
    /// `stream/*` registry metrics on every delivered hour.
    pub fn with_obs(config: StreamConfig, registry: &Registry) -> StreamAnalytics {
        Self::build(config, Some(StreamObs::new(registry, config.trending_k)))
    }

    fn build(config: StreamConfig, obs: Option<StreamObs>) -> StreamAnalytics {
        assert!(config.shards > 0, "at least one shard");
        StreamAnalytics {
            inner: Arc::new(Mutex::new(Inner {
                config,
                workers: uli_warehouse::Parallelism::serial(),
                hours: BTreeMap::new(),
                hours_moved: 0,
                obs,
            })),
        }
    }

    /// Folds each delivered hour's shards across `workers`. Which records a
    /// shard folds, and in what order, is fixed by their position in the
    /// delivery, so the states — and therefore every view — are identical
    /// at any worker count.
    pub fn with_parallelism(self, workers: uli_warehouse::Parallelism) -> Self {
        lock(&self.inner).workers = workers;
        self
    }

    /// A boxed tap sharing this handle's state, ready for
    /// [`uli_scribe::ScribePipeline::add_delivery_tap`].
    pub fn tap(&self) -> Box<dyn DeliveryTap> {
        Box::new(self.clone())
    }

    /// The windowed view for one hour, merged across shards; `None` if no
    /// slide has delivered that hour yet.
    pub fn hour_view(&self, hour_index: u64) -> Option<StreamState> {
        let inner = lock(&self.inner);
        let k = inner.config.trending_k;
        inner.hours.get(&hour_index).map(|s| Inner::view(s, k))
    }

    /// The running (day-so-far) view: every delivered hour merged.
    pub fn running_view(&self) -> StreamState {
        lock(&self.inner).running()
    }

    /// Hour windows with delivered data, ascending.
    pub fn hours(&self) -> Vec<u64> {
        lock(&self.inner).hours.keys().copied().collect()
    }

    /// Raw per-shard partials for one hour (for merge-order tests).
    pub fn shard_states(&self, hour_index: u64) -> Vec<StreamState> {
        lock(&self.inner)
            .hours
            .get(&hour_index)
            .cloned()
            .unwrap_or_default()
    }

    /// Successful slides observed.
    pub fn hours_moved(&self) -> u64 {
        lock(&self.inner).hours_moved
    }
}

impl DeliveryTap for StreamAnalytics {
    fn hour_delivered(&mut self, partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        let mut inner = lock(&self.inner);
        let (shards, k) = (inner.config.shards, inner.config.trending_k);
        let workers = inner.workers;
        inner.hours_moved += 1;
        // An hour can slide with zero records (all its data was lost,
        // dropped, or never logged); no window opens for it.
        if !payloads.is_empty() {
            // Shard `s` folds the `s`-th contiguous run of the delivery.
            // Shards share nothing, so the pool only changes wall-clock,
            // never a state.
            let run = payloads.len().div_ceil(shards);
            let mut runs: Vec<&[Vec<u8>]> = payloads.chunks(run).collect();
            runs.resize(shards, &[]);
            let delivered = uli_warehouse::ScanPool::new(workers).map(runs, |_i, run| {
                let mut state = StreamState::new(k);
                state.fold(run);
                state
            });
            if let Some(obs) = &mut inner.obs {
                delivered.iter().for_each(|state| obs.running.merge(state));
            }
            match inner.hours.entry(partition.hour_index()) {
                Entry::Vacant(window) => {
                    window.insert(delivered);
                }
                Entry::Occupied(mut window) => {
                    for (state, more) in window.get_mut().iter_mut().zip(&delivered) {
                        state.merge(more);
                    }
                }
            }
        }
        inner.sync_obs(partition.hour_index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::{ClientEvent, EventInitiator, EventName, Timestamp};
    use uli_thrift::record::ThriftRecord;

    fn payload(i: i64) -> Vec<u8> {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse("web:home:timeline:tweet:avatar:click").unwrap(),
            i % 13,
            format!("s{i}"),
            "10.0.0.1",
            Timestamp(i * 500),
        )
        .to_bytes()
    }

    fn deliver(analytics: &StreamAnalytics, hour: u64, payloads: &[Vec<u8>]) {
        let partition = HourlyPartition::from_hour_index("client_events", hour);
        let mut tap = analytics.tap();
        tap.hour_delivered(&partition, payloads);
    }

    #[test]
    fn views_are_shard_count_invariant() {
        let payloads: Vec<Vec<u8>> = (0..300).map(payload).collect();
        let views: Vec<StreamState> = [1usize, 4, 8]
            .iter()
            .map(|&shards| {
                let a = StreamAnalytics::new(StreamConfig {
                    shards,
                    trending_k: 3,
                });
                deliver(&a, 2, &payloads[..150]);
                deliver(&a, 3, &payloads[150..]);
                a.running_view()
            })
            .collect();
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
        assert_eq!(views[0].records(), 300);
    }

    #[test]
    fn parallel_shard_fold_matches_serial_exactly() {
        let payloads: Vec<Vec<u8>> = (0..400).map(payload).collect();
        let fold = |workers: usize| {
            let a = StreamAnalytics::new(StreamConfig {
                shards: 8,
                trending_k: 3,
            })
            .with_parallelism(uli_warehouse::Parallelism::fixed(workers));
            deliver(&a, 2, &payloads[..250]);
            deliver(&a, 3, &payloads[250..]);
            (a.shard_states(2), a.shard_states(3), a.running_view())
        };
        let serial = fold(1);
        for workers in [4, 8] {
            assert_eq!(
                serial,
                fold(workers),
                "per-shard states must be identical at {workers} workers"
            );
        }
    }

    #[test]
    fn windowed_and_running_views_agree() {
        let a = StreamAnalytics::new(StreamConfig::default());
        let p: Vec<Vec<u8>> = (0..100).map(payload).collect();
        deliver(&a, 5, &p[..40]);
        deliver(&a, 6, &p[40..]);
        assert_eq!(a.hours(), vec![5, 6]);
        let h5 = a.hour_view(5).unwrap();
        let h6 = a.hour_view(6).unwrap();
        assert_eq!(h5.records(), 40);
        assert_eq!(h6.records(), 60);
        let mut merged = h5.clone();
        merged.merge(&h6);
        assert_eq!(merged, a.running_view(), "running = fold of windows");
        assert!(a.hour_view(7).is_none());
    }

    #[test]
    fn obs_mirrors_running_and_windowed_views() {
        let registry = Registry::new();
        let a = StreamAnalytics::with_obs(StreamConfig::default(), &registry);
        let p: Vec<Vec<u8>> = (0..50).map(payload).collect();
        deliver(&a, 0, &p[..20]);
        deliver(&a, 1, &p[20..]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("stream/records"), Some(50));
        assert_eq!(snap.counter_value("stream/events"), Some(50));
        assert_eq!(snap.counter_value("stream/malformed"), Some(0));
        assert_eq!(snap.counter_value("stream/hours_moved"), Some(2));
        assert_eq!(snap.gauge_value("stream/hours_open"), Some(2));
        assert_eq!(
            snap.gauge_value("stream/distinct_users_est"),
            Some(a.running_view().distinct_users_estimate() as i64)
        );
        assert!(registry.duplicate_registrations().is_empty());
    }

    #[test]
    fn obs_running_state_equals_the_full_re_merge_after_every_hour() {
        let registry = Registry::new();
        let a = StreamAnalytics::with_obs(StreamConfig::default(), &registry);
        let mut p: Vec<Vec<u8>> = (0..90).map(payload).collect();
        p.push(b"not thrift".to_vec());
        // Out of order, one hour delivered twice, one delivery empty.
        let deliveries = [
            (3, 0..20),
            (1, 20..50),
            (3, 50..70),
            (2, 70..70),
            (0, 70..91),
        ];
        for (hour, range) in deliveries {
            deliver(&a, hour, &p[range]);
            // `running_view` merges every shard of every window afresh.
            let merged = a.running_view();
            let snap = registry.snapshot();
            assert_eq!(snap.counter_value("stream/records"), Some(merged.records()));
            assert_eq!(snap.counter_value("stream/events"), Some(merged.events()));
            assert_eq!(
                snap.counter_value("stream/malformed"),
                Some(merged.malformed())
            );
            assert_eq!(
                snap.gauge_value("stream/distinct_users_est"),
                Some(merged.distinct_users_estimate() as i64)
            );
            assert_eq!(
                snap.gauge_value("stream/hours_open"),
                Some(a.hours().len() as i64)
            );
            assert_eq!(lock(&a.inner).obs.as_ref().unwrap().running, merged);
        }
        assert_eq!(
            registry.snapshot().counter_value("stream/hours_moved"),
            Some(5)
        );
        assert_eq!(a.hour_view(3).unwrap().records(), 40);
    }
}
