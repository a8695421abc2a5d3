//! The speed layer: sharded monoid state fed by the Scribe delivery tap,
//! with windowed (per-hour) and running (day-so-far) views exported
//! through `uli-obs`.
//!
//! [`StreamAnalytics`] implements [`uli_scribe::DeliveryTap`], so it can
//! be attached to a [`uli_scribe::ScribePipeline`] and observe exactly the
//! records each successful atomic slide makes visible. A delivered hour is
//! cut into one contiguous run of records per shard — the routing is pure
//! partitioning and reads no payload — and the shard states are merged, in
//! shard order, into the hour's one window state before the tap returns.
//! Because every [`StreamState`] operation commutes, the window is
//! identical at *any* shard count and any merge order while its names fit
//! the trending tracker. The lambda invariant suite pins that: views at 1,
//! 4, and 8 shards are asserted byte-equal.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex};

use uli_dataflow::sketch::Hll;
use uli_obs::{lock, Mirror, Reading, Registry};
use uli_scribe::DeliveryTap;
use uli_warehouse::HourlyPartition;

use crate::state::{StreamState, DEFAULT_TRENDING_K};

/// Speed-layer sizing.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Shard states each delivered hour is folded into before they merge
    /// into its window. Purely a parallelism knob: views are
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

struct Inner {
    config: StreamConfig,
    /// Worker count for the per-hour shard fold. Serial by default; every
    /// setting produces identical shard states because routing fixes each
    /// shard's observe sequence before any worker runs.
    workers: uli_warehouse::Parallelism,
    /// Hour window → its one [`StreamState`].
    hours: BTreeMap<u64, StreamState>,
    /// Successful slides observed.
    hours_moved: u64,
    /// The registry view of [`Inner::metrics`] and of each window's
    /// records, when attached.
    obs: Option<Mirror>,
}

impl Inner {
    /// Deterministic fold: windows, hours ascending.
    fn running(&self) -> StreamState {
        let mut out = StreamState::new(self.config.trending_k);
        for window in self.hours.values() {
            out.merge(window);
        }
        out
    }

    /// The `stream/*` metrics of the running view, in snapshot order, read
    /// off the windows: their counts add, and an HLL union is order-free.
    fn metrics(&self) -> [(&'static str, Reading); 6] {
        let windows = self.hours.values();
        let sum = |count: fn(&StreamState) -> u64| windows.clone().map(count).sum();
        let mut users = Hll::new();
        for window in windows.clone() {
            users.merge(window.users());
        }
        [
            ("records", Reading::Total(sum(StreamState::records))),
            ("events", Reading::Total(sum(StreamState::events))),
            ("malformed", Reading::Total(sum(StreamState::malformed))),
            ("hours_moved", Reading::Total(self.hours_moved)),
            ("distinct_users_est", Reading::level(users.estimate())),
            ("hours_open", Reading::level(self.hours.len())),
        ]
    }

    /// Writes the running view, and each window's records, into the
    /// registry.
    fn sync_obs(&mut self) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        obs.update(&self.metrics());
        for (hour, window) in &self.hours {
            let hour = hour.to_string();
            obs.update_labeled(
                "hour_records",
                ("hour", &hour),
                Reading::Total(window.records()),
            );
        }
        self.obs = Some(obs);
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
        Self::build(config, Some(registry))
    }

    fn build(config: StreamConfig, registry: Option<&Registry>) -> StreamAnalytics {
        assert!(config.shards > 0, "at least one shard");
        let mut inner = Inner {
            config,
            workers: uli_warehouse::Parallelism::serial(),
            hours: BTreeMap::new(),
            hours_moved: 0,
            obs: None,
        };
        inner.obs = registry.map(|r| Mirror::attach(r, "stream", &inner.metrics()));
        StreamAnalytics {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Folds each delivered hour's shards across `workers`. Which records a
    /// shard folds, and in what order, is fixed by their position in the
    /// delivery, and the shards merge in index order, so every view is
    /// identical at any worker count.
    pub fn with_parallelism(self, workers: uli_warehouse::Parallelism) -> Self {
        lock(&self.inner).workers = workers;
        self
    }

    /// A boxed tap sharing this handle's state, ready for
    /// [`uli_scribe::ScribePipeline::add_delivery_tap`].
    pub fn tap(&self) -> Box<dyn DeliveryTap> {
        Box::new(self.clone())
    }

    /// The windowed view for one hour; `None` if no slide has delivered
    /// that hour yet.
    pub fn hour_view(&self, hour_index: u64) -> Option<StreamState> {
        lock(&self.inner).hours.get(&hour_index).cloned()
    }

    /// The running (day-so-far) view: every delivered hour merged.
    pub fn running_view(&self) -> StreamState {
        lock(&self.inner).running()
    }

    /// Hour windows with delivered data, ascending.
    pub fn hours(&self) -> Vec<u64> {
        lock(&self.inner).hours.keys().copied().collect()
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
            let states = uli_warehouse::ScanPool::new(workers).map(runs, |_i, run| {
                let mut state = StreamState::new(k);
                state.fold(run);
                state
            });
            // The shards merge into one state, in shard order, from empty;
            // only that state outlives the delivery.
            let mut delivered = StreamState::new(k);
            states.iter().for_each(|state| delivered.merge(state));
            drop(states);
            match inner.hours.entry(partition.hour_index()) {
                Entry::Vacant(window) => {
                    window.insert(delivered);
                }
                Entry::Occupied(mut window) => window.get_mut().merge(&delivered),
            }
        }
        inner.sync_obs();
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
            (a.hour_view(2), a.hour_view(3), a.running_view())
        };
        let serial = fold(1);
        for workers in [4, 8] {
            assert_eq!(
                serial,
                fold(workers),
                "windows must be identical at {workers} workers"
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
            // `running_view` merges every window afresh.
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
        }
        assert_eq!(
            registry.snapshot().counter_value("stream/hours_moved"),
            Some(5)
        );
        assert_eq!(a.hour_view(3).unwrap().records(), 40);
    }
}
