//! Applications over session sequences (§5).
//!
//! "The client event logs and session sequences form the basis of a variety
//! of applications":
//!
//! * [`corpus`]: loading a day's materialized sequences;
//! * [`counting`]: `CountClientEvents` — pattern-expanded event counting as
//!   string operations over the sequences (§5.2), with the SUM (total
//!   events) and COUNT (sessions containing) variants, both as plain
//!   functions and as dataflow UDFs so the paper's Pig script shape runs
//!   end to end;
//! * [`funnel`]: `ClientEventsFunnel` — multi-step flow analysis with
//!   per-stage session counts and abandonment (§5.3);
//! * [`summary`]: BirdBrain-style summary statistics — daily sessions,
//!   drill-down by client and bucketed duration (§5.1);
//! * [`ngram`]: n-gram language models over session symbols with cross
//!   entropy and perplexity, quantifying "temporal signal" (§5.4);
//! * [`collocation`]: activity collocates via pointwise mutual information
//!   and Dunning's log-likelihood ratio (§5.4);
//! * [`alignment`]: §6 "ongoing work" — Needleman–Wunsch alignment over
//!   session strings and query-by-example user similarity;
//! * [`lifeflow`]: §6 — a LifeFlow-style aggregated overview of where
//!   sessions diverge, rendered as a prefix tree;
//! * [`abtest`]: §5.3 — deterministic experiment bucketing and
//!   two-proportion significance testing over per-session metrics.

pub mod abtest;
pub mod alignment;
pub mod collocation;
pub mod corpus;
pub mod counting;
pub mod funnel;
pub mod grammar;
pub mod lifeflow;
pub mod ngram;
pub mod pig;
pub mod summary;

pub use abtest::{analyze as ab_analyze, bucket_of, AbResult, ArmOutcome};
pub use alignment::{align, query_by_example, AlignScoring, Alignment};
pub use collocation::{CollocationMiner, CollocationScore};
pub use corpus::{load_sequences, SequenceCorpus, Sessions};
pub use counting::{CountClientEvents, EventCharSet};
pub use funnel::{ClientEventsFunnel, FunnelReport};
pub use grammar::{induce_from_strings, Grammar};
pub use lifeflow::LifeFlow;
pub use ngram::{InterpolatedModel, NgramModel};
pub use pig::register_analytics;
pub use summary::{DailySummary, DurationBucket};
