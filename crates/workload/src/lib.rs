//! Seeded synthetic workload generation.
//!
//! The paper's data is Twitter's production traffic — "on the order of one
//! hundred terabytes uncompressed in aggregate each day" — which obviously
//! cannot ship with a reproduction. What the experiments actually depend on
//! is the traffic's *statistical shape*: a Zipfian event-frequency
//! distribution (that is what makes frequency-ranked dictionary coding pay
//! off), sessions with geometric-ish lengths, strong local sequential
//! structure (impressions beget clicks — the "temporal signal" of §5.4),
//! multiple clients with a shared design language, and funnel flows with
//! per-stage abandonment. This crate generates exactly that, deterministic
//! under a seed:
//!
//! * [`universe`]: a realistic six-level event universe per client;
//! * [`zipf`]: Zipf-distributed base frequencies;
//! * [`behavior`]: a first-order Markov session model with boosted
//!   successor pairs (planted collocations, known to E7/E8);
//! * [`funnels`]: the signup flow with configured abandonment (ground
//!   truth for E6);
//! * [`generator`]: assembles whole days of [`uli_core::ClientEvent`]s and
//!   writes them into warehouse hour partitions as the log mover's
//!   columnar landing does, plus the paper's row-format raw log and
//!   legacy-format copies of the same ground truth for the baselines.

pub mod behavior;
pub mod funnels;
pub mod generator;
pub mod universe;
pub mod zipf;

pub use behavior::BehaviorModel;
pub use funnels::{signup_funnel, FunnelSpec};
pub use generator::{
    generate_day, land_day_stream, legacy_category_for, write_client_events, write_legacy_events,
    write_paper_raw_log, DayStream, DayWorkload, GroundTruth, Scale, WorkloadConfig,
};
pub use universe::{build_universe, UniverseConfig};
pub use zipf::Zipf;
