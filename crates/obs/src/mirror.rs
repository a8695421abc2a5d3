//! Registry views of counts a component keeps in its own fields.
//!
//! A pipeline report, a running sum of query stats or a maintainer's
//! counters are computed where they live; the registry only has to show
//! them. Such a component declares its metrics once, as an ordered list of
//! `(name, Reading)` built from those fields. [`Mirror::attach`] registers
//! the list under the component, so the snapshot order is the list order,
//! and [`Mirror::update`] writes the current readings into the handles it
//! holds. The fields stay the one store: the registry can only ever show a
//! value the component computed, and no component writes a handle itself.

use crate::registry::{MetricValue, Registry};

/// What a declared metric reads now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// A counter's running total.
    Total(u64),
    /// A gauge's level.
    Level(i64),
}

impl Reading {
    /// The level of a count, saturating at `i64::MAX`.
    pub fn level(v: impl TryInto<i64>) -> Reading {
        Reading::Level(v.try_into().unwrap_or(i64::MAX))
    }
}

/// One component's declared metrics, registered and kept up to date.
pub struct Mirror {
    registry: Registry,
    component: String,
    /// Handles in registration order: the declared list's, then each
    /// labeled one as its label first appeared, under its display key.
    handles: Vec<(String, MetricValue)>,
    declared: usize,
}

impl Mirror {
    /// Registers `list` under `component`, in list order, with its readings.
    pub fn attach(registry: &Registry, component: &str, list: &[(&str, Reading)]) -> Mirror {
        let mut mirror = Mirror {
            registry: registry.clone(),
            component: component.to_string(),
            handles: Vec::with_capacity(list.len()),
            declared: list.len(),
        };
        for &(name, reading) in list {
            mirror.register(name.to_string(), name, &[], reading);
        }
        mirror
    }

    /// The registry the list is registered in, for the component's spans.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Writes the current readings of the list [`Mirror::attach`] was given:
    /// the same names, in the same order, of the same kinds.
    pub fn update(&self, list: &[(&str, Reading)]) {
        assert_eq!(list.len(), self.declared, "a declared list changed length");
        for ((key, handle), &(name, reading)) in self.handles.iter().zip(list) {
            debug_assert_eq!(key, name, "a declared list changed order");
            write(handle, reading);
        }
    }

    /// Writes the reading of `name{key=value}`, registering it the first
    /// time that label appears — after everything registered before it.
    pub fn update_labeled(&mut self, name: &str, (key, value): (&str, &str), reading: Reading) {
        let display = format!("{name}{{{key}={value}}}");
        let labeled = &self.handles[self.declared..];
        match labeled.iter().find(|(known, _)| *known == display) {
            Some((_, handle)) => write(handle, reading),
            None => self.register(display, name, &[(key, value)], reading),
        }
    }

    /// Registers `name` with `labels` as `reading`'s kind, holding the
    /// handle under `key`, and writes `reading`.
    fn register(&mut self, key: String, name: &str, labels: &[(&str, &str)], reading: Reading) {
        let (r, c) = (&self.registry, self.component.as_str());
        let handle = match reading {
            Reading::Total(_) => MetricValue::Counter(r.counter_labeled(c, name, labels)),
            Reading::Level(_) => MetricValue::Gauge(r.gauge_labeled(c, name, labels)),
        };
        write(&handle, reading);
        self.handles.push((key, handle));
    }
}

fn write(handle: &MetricValue, reading: Reading) {
    match (handle, reading) {
        (MetricValue::Counter(c), Reading::Total(v)) => c.set_total(v),
        (MetricValue::Gauge(g), Reading::Level(v)) => g.set(v),
        _ => panic!("a declared metric changed kind"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SnapshotValue;

    #[test]
    fn a_declared_list_registers_once_in_order_and_keeps_kinds() {
        let registry = Registry::new();
        let list = |sent: u64, depth: u64, lost: u64| {
            [
                ("sent", Reading::Total(sent)),
                ("depth", Reading::level(depth)),
                ("lost", Reading::Total(lost)),
            ]
        };
        let mut mirror = Mirror::attach(&registry, "c", &list(0, 0, 0));
        for i in 1..=3 {
            mirror.update(&list(10 * i, 7 - i, i));
            mirror.update_labeled("hour", ("h", "1"), Reading::Total(i));
        }
        mirror.update_labeled("hour", ("h", "0"), Reading::Total(5));
        let snap = registry.snapshot();
        let metrics: Vec<(String, SnapshotValue)> = snap
            .metrics
            .iter()
            .map(|(key, value)| (key.display(), value.clone()))
            .collect();
        assert_eq!(
            metrics,
            [
                ("c/sent".to_string(), SnapshotValue::Counter(30)),
                ("c/depth".to_string(), SnapshotValue::Gauge(4)),
                ("c/lost".to_string(), SnapshotValue::Counter(3)),
                ("c/hour{h=1}".to_string(), SnapshotValue::Counter(3)),
                ("c/hour{h=0}".to_string(), SnapshotValue::Counter(5)),
            ]
        );
        assert!(registry.duplicate_registrations().is_empty());
        assert_eq!(Reading::level(u64::MAX), Reading::Level(i64::MAX));
    }
}
