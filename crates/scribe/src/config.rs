//! Per-category configuration metadata (§2).
//!
//! "Each log entry consists of two strings, a category and a message. The
//! category is associated with configuration metadata that determine, among
//! other things, where the data is written." This module is that metadata:
//! routing (which directory tree a category lands in), sampling, size
//! limits, and an enable switch — the levers a logging operations team
//! actually turns.

use std::collections::BTreeMap;

/// Configuration for one Scribe category.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryConfig {
    /// Disabled categories are dropped at the aggregator (a kill switch for
    /// runaway producers).
    pub enabled: bool,
    /// Keep this fraction of messages (deterministic by message hash, so
    /// replays sample identically). 1.0 = keep everything.
    pub sample_rate: f64,
    /// Messages larger than this are dropped as malformed/abusive.
    pub max_message_bytes: usize,
    /// Store under this category name instead (directory aliasing — how a
    /// misnamed legacy category can be routed somewhere sane without
    /// changing producers).
    pub store_as: Option<String>,
}

impl Default for CategoryConfig {
    fn default() -> Self {
        CategoryConfig {
            enabled: true,
            sample_rate: 1.0,
            max_message_bytes: 1 << 20,
            store_as: None,
        }
    }
}

/// What the aggregator should do with one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Write it under the given category name.
    Store(String),
    /// Drop: category disabled.
    DropDisabled,
    /// Drop: sampled out.
    DropSampled,
    /// Drop: over the size limit.
    DropOversize,
}

/// The registry aggregators consult per message.
#[derive(Debug, Clone, Default)]
pub struct CategoryRegistry {
    configs: BTreeMap<String, CategoryConfig>,
}

impl CategoryRegistry {
    /// An empty registry: every category gets [`CategoryConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the configuration for a category.
    pub fn set(&mut self, category: impl Into<String>, config: CategoryConfig) {
        self.configs.insert(category.into(), config);
    }

    /// The configuration for a category (default if unset).
    pub fn get(&self, category: &str) -> CategoryConfig {
        self.configs.get(category).cloned().unwrap_or_default()
    }

    /// Decides a message's fate.
    pub fn disposition(&self, category: &str, message: &[u8]) -> Disposition {
        let config = self.get(category);
        if !config.enabled {
            return Disposition::DropDisabled;
        }
        if message.len() > config.max_message_bytes {
            return Disposition::DropOversize;
        }
        if config.sample_rate < 1.0 {
            // Deterministic per-message sampling: the same message is kept
            // or dropped identically on every replay and every aggregator.
            let u = (uli_warehouse::fnv1a64(message) >> 11) as f64 / (1u64 << 53) as f64;
            if u >= config.sample_rate {
                return Disposition::DropSampled;
            }
        }
        Disposition::Store(config.store_as.unwrap_or_else(|| category.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stores_under_own_name() {
        let reg = CategoryRegistry::new();
        assert_eq!(
            reg.disposition("client_events", b"m"),
            Disposition::Store("client_events".into())
        );
    }

    #[test]
    fn disabled_categories_drop() {
        let mut reg = CategoryRegistry::new();
        reg.set(
            "runaway",
            CategoryConfig {
                enabled: false,
                ..Default::default()
            },
        );
        assert_eq!(reg.disposition("runaway", b"m"), Disposition::DropDisabled);
        // Other categories unaffected.
        assert!(matches!(
            reg.disposition("fine", b"m"),
            Disposition::Store(_)
        ));
    }

    #[test]
    fn oversize_messages_drop() {
        let mut reg = CategoryRegistry::new();
        reg.set(
            "small",
            CategoryConfig {
                max_message_bytes: 8,
                ..Default::default()
            },
        );
        assert_eq!(
            reg.disposition("small", b"tiny"),
            Disposition::Store("small".into())
        );
        assert_eq!(
            reg.disposition("small", b"way too large"),
            Disposition::DropOversize
        );
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let mut reg = CategoryRegistry::new();
        reg.set(
            "sampled",
            CategoryConfig {
                sample_rate: 0.25,
                ..Default::default()
            },
        );
        let mut kept = 0;
        for i in 0..10_000 {
            let msg = format!("message-{i}");
            let d1 = reg.disposition("sampled", msg.as_bytes());
            let d2 = reg.disposition("sampled", msg.as_bytes());
            assert_eq!(d1, d2, "deterministic");
            if matches!(d1, Disposition::Store(_)) {
                kept += 1;
            }
        }
        let rate = kept as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&rate), "kept {rate}");
    }

    #[test]
    fn store_as_aliases_the_directory() {
        let mut reg = CategoryRegistry::new();
        reg.set(
            "rainbird",
            CategoryConfig {
                store_as: Some("web_frontend_legacy".into()),
                ..Default::default()
            },
        );
        assert_eq!(
            reg.disposition("rainbird", b"m"),
            Disposition::Store("web_frontend_legacy".into())
        );
    }
}
