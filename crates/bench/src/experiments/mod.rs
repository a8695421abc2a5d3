//! One module per experiment in DESIGN.md's index.

pub mod e10_summary;
pub mod e11_index;
pub mod e12_catalog;
pub mod e13_layouts;
pub mod e16_chaos;
pub mod e17_obs;
pub mod e18_ingest;
pub mod e19_columnar;
pub mod e1_scribe;
pub mod e20_scale;
pub mod e21_stream;
pub mod e22_serve;
pub mod e23_delivery;
pub mod e2_rollups;
pub mod e3_codec;
pub mod e4_compression;
pub mod e5_query_cost;
pub mod e6_funnel;
pub mod e7_ngram;
pub mod e8_collocations;
pub mod e9_legacy;
