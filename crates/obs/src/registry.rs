//! The metrics registry: `(component, name, labels)` → handle.
//!
//! Registration happens once, from serial component-constructor code; the
//! registry records metrics in **registration order** and snapshots iterate
//! that order, which is what makes snapshots byte-identical across worker
//! counts. Registering a key that already exists returns the existing
//! handle *and* records the key in [`Registry::duplicate_registrations`] —
//! the CI obs gate fails a run whose snapshot shows any duplicates, because
//! two components sharing one counter by accident is exactly the aliasing
//! bug the unified registry exists to prevent.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::{
    build_forest, critical_path, render_critical_path, CriticalPathStep, SpanGuard, SpanNode,
    SpanRecord,
};

/// Identity of one metric.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Subsystem that owns the metric (`"warehouse"`, `"scribe"`, …).
    pub component: String,
    /// Metric name within the component (`"blocks_read"`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// `component/name{k=v,…}` — the canonical display form.
    pub fn display(&self) -> String {
        let mut s = format!("{}/{}", self.component, self.name);
        if !self.labels.is_empty() {
            s.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(k);
                s.push('=');
                s.push_str(v);
            }
            s.push('}');
        }
        s
    }
}

/// A registered handle, by kind.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(Counter),
    /// Point-in-time level.
    Gauge(Gauge),
    /// Log-linear histogram.
    Histogram(Histogram),
}

pub(crate) struct State {
    /// Metrics in registration order — the snapshot order.
    metrics: Vec<(MetricKey, MetricValue)>,
    /// Key → index into `metrics`.
    index: BTreeMap<MetricKey, usize>,
    /// Display keys that were registered more than once.
    duplicates: Vec<String>,
    /// All spans, in open order.
    spans: Vec<SpanRecord>,
    /// Indexes of currently open spans (innermost last).
    stack: Vec<usize>,
    /// The logical clock: +1 per span open and close.
    clock: u64,
}

/// Shared state behind a [`Registry`] and its span guards.
pub struct Inner {
    pub(crate) state: Mutex<State>,
}

impl Inner {
    pub(crate) fn close_span(&self, index: usize) {
        let mut s = lock(&self.state);
        s.clock += 1;
        let tick = s.clock;
        if let Some(span) = s.spans.get_mut(index) {
            span.end_tick = tick;
        }
        // Guards drop LIFO under RAII; tolerate stray orders anyway.
        if let Some(pos) = s.stack.iter().rposition(|&i| i == index) {
            s.stack.remove(pos);
        }
    }
}

/// The unified registry. Clone-shareable; all clones see the same state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    metrics: Vec::new(),
                    index: BTreeMap::new(),
                    duplicates: Vec::new(),
                    spans: Vec::new(),
                    stack: Vec::new(),
                    clock: 0,
                }),
            }),
        }
    }

    fn register(&self, key: MetricKey, make: impl FnOnce() -> MetricValue) -> MetricValue {
        let mut s = lock(&self.inner.state);
        if let Some(&i) = s.index.get(&key) {
            let display = key.display();
            s.duplicates.push(display);
            return s.metrics[i].1.clone();
        }
        let value = make();
        let i = s.metrics.len();
        s.metrics.push((key.clone(), value.clone()));
        s.index.insert(key, i);
        value
    }

    /// Registers (or fetches) a counter. Re-registration is recorded as a
    /// duplicate — see the module docs.
    pub fn counter(&self, component: &str, name: &str) -> Counter {
        self.counter_labeled(component, name, &[])
    }

    /// Registers a counter with labels.
    pub fn counter_labeled(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(key_of(component, name, labels), || {
            MetricValue::Counter(Counter::detached())
        }) {
            MetricValue::Counter(c) => c,
            _ => panic!("{component}/{name} already registered with a different kind"),
        }
    }

    /// Registers a gauge.
    pub fn gauge(&self, component: &str, name: &str) -> Gauge {
        self.gauge_labeled(component, name, &[])
    }

    /// Registers a gauge with labels.
    pub fn gauge_labeled(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(key_of(component, name, labels), || {
            MetricValue::Gauge(Gauge::detached())
        }) {
            MetricValue::Gauge(g) => g,
            _ => panic!("{component}/{name} already registered with a different kind"),
        }
    }

    /// Registers a histogram.
    pub fn histogram(&self, component: &str, name: &str) -> Histogram {
        self.histogram_labeled(component, name, &[])
    }

    /// Registers a histogram with labels.
    pub fn histogram_labeled(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(key_of(component, name, labels), || {
            MetricValue::Histogram(Histogram::detached())
        }) {
            MetricValue::Histogram(h) => h,
            _ => panic!("{component}/{name} already registered with a different kind"),
        }
    }

    /// Display keys registered more than once (empty in a healthy run).
    pub fn duplicate_registrations(&self) -> Vec<String> {
        lock(&self.inner.state).duplicates.clone()
    }

    /// Opens a span; the returned guard closes it on drop. Coordinator
    /// (serial) code only — see the crate docs' determinism rules.
    pub fn span(&self, component: &str, name: &str) -> SpanGuard {
        self.span_labeled::<&str>(component, name, &[])
    }

    /// Opens a labeled span.
    pub fn span_labeled<V: AsRef<str>>(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, V)],
    ) -> SpanGuard {
        let mut s = lock(&self.inner.state);
        s.clock += 1;
        let start_tick = s.clock;
        let parent = s.stack.last().copied();
        let index = s.spans.len();
        s.spans.push(SpanRecord {
            component: component.to_string(),
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.as_ref().to_string()))
                .collect(),
            parent,
            start_tick,
            end_tick: 0,
        });
        s.stack.push(index);
        drop(s);
        SpanGuard {
            inner: Arc::clone(&self.inner),
            index,
        }
    }

    /// All spans recorded so far (open spans have `end_tick == 0`).
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        lock(&self.inner.state).spans.clone()
    }

    /// A deterministic point-in-time snapshot of everything: metrics in
    /// registration order, the span forest, and the critical path.
    pub fn snapshot(&self) -> Snapshot {
        let s = lock(&self.inner.state);
        let metrics = s
            .metrics
            .iter()
            .map(|(key, value)| {
                let v = match value {
                    MetricValue::Counter(c) => SnapshotValue::Counter(c.get()),
                    MetricValue::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    MetricValue::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                };
                (key.clone(), v)
            })
            .collect();
        let spans = s.spans.clone();
        let duplicates = s.duplicates.clone();
        drop(s);
        let forest = build_forest(&spans);
        let critical = critical_path(&forest);
        Snapshot {
            metrics,
            duplicates,
            forest,
            critical,
        }
    }
}

fn key_of(component: &str, name: &str, labels: &[(&str, &str)]) -> MetricKey {
    MetricKey {
        component: component.to_string(),
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// A metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Everything the registry knew at one instant, in deterministic order.
pub struct Snapshot {
    /// Metrics in registration order.
    pub metrics: Vec<(MetricKey, SnapshotValue)>,
    /// Keys registered more than once.
    pub duplicates: Vec<String>,
    /// The span forest, roots in open order.
    pub forest: Vec<SpanNode>,
    /// The critical path, root first.
    pub critical: Vec<CriticalPathStep>,
}

impl Snapshot {
    /// Looks up a counter's total by display key (no labels).
    pub fn counter_value(&self, display: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(k, v)| match v {
            SnapshotValue::Counter(c) if k.display() == display => Some(*c),
            _ => None,
        })
    }

    /// Looks up a gauge's level by display key.
    pub fn gauge_value(&self, display: &str) -> Option<i64> {
        self.metrics.iter().find_map(|(k, v)| match v {
            SnapshotValue::Gauge(g) if k.display() == display => Some(*g),
            _ => None,
        })
    }

    /// The critical-path report (one line per step, root first).
    pub fn critical_path_report(&self) -> String {
        render_critical_path(&self.critical)
    }

    /// The JSON export — see [`crate::export::to_json`].
    pub fn to_json(&self) -> String {
        crate::export::to_json(self)
    }

    /// The Prometheus text export — see [`crate::export::to_prometheus`].
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_is_snapshot_order() {
        let r = Registry::new();
        r.counter("b", "second");
        r.counter("a", "first_registered");
        r.gauge("z", "depth");
        let snap = r.snapshot();
        let keys: Vec<String> = snap.metrics.iter().map(|(k, _)| k.display()).collect();
        assert_eq!(keys, ["b/second", "a/first_registered", "z/depth"]);
    }

    #[test]
    fn duplicate_registration_shares_handle_and_is_recorded() {
        let r = Registry::new();
        let c1 = r.counter("w", "reads");
        c1.add(3);
        let c2 = r.counter("w", "reads");
        c2.add(4);
        assert_eq!(c1.get(), 7, "same underlying cell");
        assert_eq!(r.duplicate_registrations(), vec!["w/reads".to_string()]);
        let snap = r.snapshot();
        assert_eq!(snap.duplicates, vec!["w/reads".to_string()]);
        assert_eq!(snap.counter_value("w/reads"), Some(7));
    }

    #[test]
    fn memory_high_water_gauge_exports_and_keeps_snapshot_order() {
        // The bounded-memory work (spillable operators) reports its peak
        // tracked bytes through a raise-only gauge; this test pins both the
        // snapshot position (registration order) and the two export paths.
        let r = Registry::new();
        r.counter("dataflow", "spill_runs").add(3);
        let hw = r.gauge("dataflow", "memory_high_water_bytes");
        hw.raise(65_536);
        hw.raise(4_096); // lower watermark reports never regress the peak
        let snap = r.snapshot();
        let keys: Vec<String> = snap.metrics.iter().map(|(k, _)| k.display()).collect();
        assert_eq!(
            keys,
            ["dataflow/spill_runs", "dataflow/memory_high_water_bytes"]
        );
        assert_eq!(
            snap.gauge_value("dataflow/memory_high_water_bytes"),
            Some(65_536)
        );
        assert!(snap.to_json().contains("memory_high_water_bytes"));
        assert!(snap
            .to_prometheus()
            .contains("dataflow_memory_high_water_bytes 65536"));
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = Registry::new();
        let a = r.counter_labeled("d", "rows", &[("stage", "load")]);
        let b = r.counter_labeled("d", "rows", &[("stage", "filter")]);
        a.add(10);
        b.add(1);
        assert!(r.duplicate_registrations().is_empty());
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("d/rows{stage=load}"), Some(10));
        assert_eq!(snap.counter_value("d/rows{stage=filter}"), Some(1));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "y");
        r.gauge("x", "y");
    }

    #[test]
    fn snapshot_includes_critical_path() {
        let r = Registry::new();
        {
            let _root = r.span("root", "run");
            let _child = r.span("root", "inner");
        }
        let snap = r.snapshot();
        assert_eq!(snap.forest.len(), 1);
        assert_eq!(snap.critical.len(), 2);
        let report = snap.critical_path_report();
        assert!(report.starts_with("root/run"));
    }
}
