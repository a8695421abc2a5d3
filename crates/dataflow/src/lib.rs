//! A Pig-like dataflow engine over the warehouse, executed as simulated
//! MapReduce jobs with an explicit cost model.
//!
//! The paper's analytics platform runs Pig scripts that compile to Hadoop
//! jobs (§3). Its performance arguments are phrased in that execution
//! model's currency: "these jobs routinely spawned tens of thousands of
//! mappers", "Hadoop tasks have relatively high startup costs", "the early
//! projection and filtering keeps the amount of data shuffling … to a
//! reasonable amount" (§4). This crate reproduces the model:
//!
//! * [`value`]: dynamically-typed tuples (atoms, tuples, bags, maps) in the
//!   spirit of Pig Latin's data model;
//! * [`expr`]: projection/selection expressions and scalar UDFs;
//! * [`udf`]: the UDF traits plus built-in algebraic aggregates;
//! * [`plan`]: the logical operators — LOAD, FILTER, FOREACH…GENERATE,
//!   GROUP, JOIN, ORDER, DISTINCT, UNION, LIMIT — with a fluent builder;
//! * [`loader`]: Pig-style `LoadFunc`s that parse warehouse records into
//!   tuples, with an optional block-pruning hook for index pushdown;
//! * [`exec`]: the engine: every shuffle boundary becomes one simulated
//!   MapReduce job; map-task counts derive from input blocks, shuffle
//!   volumes from serialized tuple sizes, and a [`exec::CostModel`] converts
//!   the counts into estimated cluster time.
//!
//! # Example: the paper's event-counting script shape
//!
//! ```
//! use uli_dataflow::prelude::*;
//! use uli_warehouse::{Warehouse, WhPath};
//! use std::sync::Arc;
//!
//! let wh = Warehouse::new();
//! let dir = WhPath::parse("/logs/demo").unwrap();
//! let mut w = wh.create(&dir.child("part-0").unwrap()).unwrap();
//! for i in 0..100i64 {
//!     w.append_record(format!("{},click", i).as_bytes());
//! }
//! w.finish().unwrap();
//!
//! let plan = Plan::load(dir, Arc::new(CsvLoader::new(2)), vec!["id", "action"])
//!     .filter(Expr::col(1).eq(Expr::lit("click")))
//!     .aggregate(vec![Agg::count()]); // Pig's `group … all` + COUNT
//! let engine = Engine::new(wh);
//! let result = engine.run(&plan).unwrap();
//! assert_eq!(result.rows[0][0], Value::Int(100));
//! assert!(result.stats.map_tasks >= 1);
//! ```

pub mod batch;
pub mod error;
pub mod exec;
pub mod expr;
pub mod loader;
pub mod plan;
pub mod pushdown;
pub mod script;
pub mod sketch;
pub(crate) mod spill;
pub mod udf;
pub mod value;
pub mod wire;

pub use batch::{scan_unit, ColumnarCodec, TextCodec};
pub use error::{DataflowError, DataflowResult};
pub use exec::{CostModel, Engine, JobStats, QueryResult};
pub use expr::Expr;
pub use loader::{BlockPruner, CsvLoader, Loader};
pub use plan::{Agg, Plan, SortOrder};
pub use pushdown::{ScanSpec, ZoneColumn};
pub use script::{ScriptError, ScriptOutput, ScriptRunner};
pub use udf::{AggFunc, ScalarUdf};
pub use uli_warehouse::{Parallelism, ScanPool};
pub use value::{Tuple, Value};

/// Convenient glob import for query-building code.
pub mod prelude {
    pub use crate::exec::{CostModel, Engine, JobStats, QueryResult};
    pub use crate::expr::Expr;
    pub use crate::loader::{BlockPruner, CsvLoader, Loader};
    pub use crate::plan::{Agg, Plan, SortOrder};
    pub use crate::pushdown::{ScanSpec, ZoneColumn};
    pub use crate::script::{ScriptError, ScriptOutput, ScriptRunner};
    pub use crate::udf::{AggFunc, ScalarUdf};
    pub use crate::value::{Tuple, Value};
    pub use uli_warehouse::{Parallelism, ScanPool};
}
