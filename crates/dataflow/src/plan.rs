//! Logical plans and the fluent builder.
//!
//! The operator set matches the Pig Latin primitives the paper's scripts
//! use: "projection, selection, group, join, etc." (§3). Plans are trees;
//! shuffle-inducing operators (GROUP, JOIN, ORDER, DISTINCT, holistic
//! aggregates) become simulated MapReduce jobs in [`crate::exec`].

use std::sync::Arc;

use uli_warehouse::WhPath;

use crate::expr::Expr;
use crate::loader::{BlockPruner, Loader};
use crate::udf::AggFunc;
use crate::value::Tuple;

/// Sort direction for ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One aggregate in an [`Plan::aggregate`] call.
#[derive(Debug, Clone)]
pub struct Agg {
    /// The function.
    pub func: AggFunc,
    /// Input column (ignored by COUNT).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl Agg {
    /// `COUNT(*)`
    pub fn count() -> Agg {
        Agg {
            func: AggFunc::Count,
            col: 0,
            name: "count".into(),
        }
    }

    /// `SUM($col)`
    pub fn sum(col: usize) -> Agg {
        Agg {
            func: AggFunc::Sum,
            col,
            name: "sum".into(),
        }
    }

    /// `MIN($col)`
    pub fn min(col: usize) -> Agg {
        Agg {
            func: AggFunc::Min,
            col,
            name: "min".into(),
        }
    }

    /// `MAX($col)`
    pub fn max(col: usize) -> Agg {
        Agg {
            func: AggFunc::Max,
            col,
            name: "max".into(),
        }
    }

    /// `AVG($col)`
    pub fn avg(col: usize) -> Agg {
        Agg {
            func: AggFunc::Avg,
            col,
            name: "avg".into(),
        }
    }

    /// `COUNT(DISTINCT $col)` — holistic, defeats the combiner.
    pub fn count_distinct(col: usize) -> Agg {
        Agg {
            func: AggFunc::CountDistinct,
            col,
            name: "count_distinct".into(),
        }
    }

    /// `APPROX_COUNT_DISTINCT($col)` — HyperLogLog sketch: fixed 4 KiB of
    /// state per group, algebraic (combiner-friendly), ~1.6% standard error.
    /// The opt-in bounded-memory alternative to [`Agg::count_distinct`].
    pub fn approx_count_distinct(col: usize) -> Agg {
        Agg {
            func: AggFunc::ApproxCountDistinct,
            col,
            name: "approx_count_distinct".into(),
        }
    }

    /// `APPROX_PERCENTILE($col, q)` — log-linear histogram sketch; `q` in
    /// `[0, 1]` (0.5 = median). Never under-reports; over-reports by at
    /// most the ~25% bucket width.
    pub fn approx_percentile(col: usize, q: f64) -> Agg {
        let q_bp = (q.clamp(0.0, 1.0) * 10_000.0).round() as u32;
        Agg {
            func: AggFunc::ApproxPercentile(q_bp),
            col,
            name: format!("approx_p{q_bp}"),
        }
    }

    /// Renames the output column.
    pub fn named(mut self, name: impl Into<String>) -> Agg {
        self.name = name.into();
        self
    }
}

/// Plan node. Public so the executor and external optimizers can walk it.
pub enum PlanNode {
    /// Scan every record file under `dir`.
    Load {
        /// Directory to scan recursively.
        dir: WhPath,
        /// Record parser.
        loader: Arc<dyn Loader>,
        /// Output column names.
        schema: Vec<String>,
        /// Optional index-pushdown hook.
        pruner: Option<Arc<dyn BlockPruner>>,
    },
    /// Inline rows (small dimension tables, tests).
    Values {
        /// Column names.
        schema: Vec<String>,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// Row predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Keep rows where this evaluates to `Bool(true)`.
        predicate: Expr,
    },
    /// FOREACH … GENERATE: projection with expressions.
    Foreach {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns as (name, expression).
        exprs: Vec<(String, Expr)>,
    },
    /// GROUP BY returning (keys…, bag-of-input-tuples).
    GroupBy {
        /// Input plan.
        input: Box<Plan>,
        /// Key columns; empty = GROUP ALL.
        keys: Vec<usize>,
    },
    /// GROUP BY + aggregates (with a map-side combiner when algebraic).
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Key columns; empty = GROUP ALL.
        keys: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<Agg>,
    },
    /// Equi-join (reduce-side).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join keys on the left.
        left_keys: Vec<usize>,
        /// Join keys on the right.
        right_keys: Vec<usize>,
    },
    /// Total sort.
    OrderBy {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys with direction.
        keys: Vec<(usize, SortOrder)>,
    },
    /// Duplicate elimination over whole tuples.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Bag union (schemas must have equal width).
    Union {
        /// Input plans.
        inputs: Vec<Plan>,
    },
    /// First `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
}

/// A logical plan with its output schema.
pub struct Plan {
    /// Root node.
    pub node: PlanNode,
    schema: Vec<String>,
}

impl Plan {
    /// LOAD: scan `dir` with `loader`, producing the named columns.
    pub fn load(dir: WhPath, loader: Arc<dyn Loader>, schema: Vec<impl Into<String>>) -> Plan {
        let schema: Vec<String> = schema.into_iter().map(Into::into).collect();
        assert!(
            !schema.is_empty(),
            "load schema must name at least one column"
        );
        Plan {
            node: PlanNode::Load {
                dir,
                loader,
                schema: schema.clone(),
                pruner: None,
            },
            schema,
        }
    }

    /// Inline rows with the given column names.
    pub fn values(schema: Vec<impl Into<String>>, rows: Vec<Tuple>) -> Plan {
        let schema: Vec<String> = schema.into_iter().map(Into::into).collect();
        for row in &rows {
            assert_eq!(row.len(), schema.len(), "row width must match schema");
        }
        Plan {
            node: PlanNode::Values {
                schema: schema.clone(),
                rows,
            },
            schema,
        }
    }

    /// Attaches an index-pushdown pruner to a LOAD plan. The executor asks
    /// it which units to skip only under a constraint it derived itself from
    /// the FILTERs above the LOAD, on either file layout; with no such
    /// constraint (a UDF or non-total predicate, pushdown disabled) the
    /// pruner is never consulted.
    ///
    /// # Panics
    /// If the plan root is not a LOAD.
    pub fn with_pruner(mut self, pruner: Arc<dyn BlockPruner>) -> Plan {
        match &mut self.node {
            PlanNode::Load { pruner: slot, .. } => *slot = Some(pruner),
            _ => panic!("with_pruner applies only to LOAD plans"),
        }
        self
    }

    /// Output column names.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Resolves a column name to its index.
    ///
    /// # Panics
    /// If the name is absent — a plan-authoring bug, akin to a Pig script
    /// referencing a missing alias.
    pub fn col(&self, name: &str) -> usize {
        self.schema
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in schema {:?}", self.schema))
    }

    fn assert_col(&self, idx: usize) {
        assert!(
            idx < self.schema.len(),
            "column ${idx} out of range for schema {:?}",
            self.schema
        );
    }

    /// FILTER BY `predicate`.
    pub fn filter(self, predicate: Expr) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Filter {
                input: Box::new(self),
                predicate,
            },
            schema,
        }
    }

    /// FOREACH … GENERATE the named expressions.
    pub fn foreach(self, exprs: Vec<(impl Into<String>, Expr)>) -> Plan {
        let exprs: Vec<(String, Expr)> = exprs.into_iter().map(|(n, e)| (n.into(), e)).collect();
        assert!(
            !exprs.is_empty(),
            "foreach must generate at least one column"
        );
        let schema = exprs.iter().map(|(n, _)| n.clone()).collect();
        Plan {
            node: PlanNode::Foreach {
                input: Box::new(self),
                exprs,
            },
            schema,
        }
    }

    /// GROUP BY `keys`: output is the key columns plus a `bag` column
    /// holding the full input tuples of the group.
    pub fn group_by(self, keys: Vec<usize>) -> Plan {
        for k in &keys {
            self.assert_col(*k);
        }
        let mut schema: Vec<String> = keys.iter().map(|k| self.schema[*k].clone()).collect();
        schema.push("bag".to_string());
        Plan {
            node: PlanNode::GroupBy {
                input: Box::new(self),
                keys,
            },
            schema,
        }
    }

    /// GROUP ALL: a single group containing every row.
    pub fn group_all(self) -> Plan {
        self.group_by(Vec::new())
    }

    /// GROUP BY `keys` and compute aggregates. With `keys` empty this is the
    /// paper's `group … all` + `SUM`/`COUNT` pattern. GROUP ALL on a
    /// [`Plan::group_all`] result is unnecessary — call this directly.
    pub fn aggregate(self, aggs: Vec<Agg>) -> Plan {
        self.aggregate_by(Vec::new(), aggs)
    }

    /// GROUP BY `keys` with aggregates.
    pub fn aggregate_by(self, keys: Vec<usize>, aggs: Vec<Agg>) -> Plan {
        for k in &keys {
            self.assert_col(*k);
        }
        for a in &aggs {
            if a.func != AggFunc::Count {
                self.assert_col(a.col);
            }
        }
        assert!(!aggs.is_empty(), "aggregate needs at least one function");
        let mut schema: Vec<String> = keys.iter().map(|k| self.schema[*k].clone()).collect();
        schema.extend(aggs.iter().map(|a| a.name.clone()));
        Plan {
            node: PlanNode::Aggregate {
                input: Box::new(self),
                keys,
                aggs,
            },
            schema,
        }
    }

    /// Equi-JOIN with `right` on the given key columns.
    pub fn join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        assert_eq!(left_keys.len(), right_keys.len(), "key arity must match");
        assert!(!left_keys.is_empty(), "join needs at least one key");
        for k in &left_keys {
            self.assert_col(*k);
        }
        for k in &right_keys {
            right.assert_col(*k);
        }
        let mut schema = self.schema.clone();
        schema.extend(right.schema.iter().cloned());
        Plan {
            node: PlanNode::Join {
                left: Box::new(self),
                right: Box::new(right),
                left_keys,
                right_keys,
            },
            schema,
        }
    }

    /// ORDER BY the given keys.
    pub fn order_by(self, keys: Vec<(usize, SortOrder)>) -> Plan {
        for (k, _) in &keys {
            self.assert_col(*k);
        }
        assert!(!keys.is_empty(), "order_by needs at least one key");
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::OrderBy {
                input: Box::new(self),
                keys,
            },
            schema,
        }
    }

    /// DISTINCT over whole tuples.
    pub fn distinct(self) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Distinct {
                input: Box::new(self),
            },
            schema,
        }
    }

    /// UNION of this plan with others (equal widths required).
    pub fn union(self, others: Vec<Plan>) -> Plan {
        let schema = self.schema.clone();
        for o in &others {
            assert_eq!(
                o.schema.len(),
                schema.len(),
                "union inputs must have equal width"
            );
        }
        let mut inputs = vec![self];
        inputs.extend(others);
        Plan {
            node: PlanNode::Union { inputs },
            schema,
        }
    }

    /// LIMIT to the first `n` rows.
    pub fn limit(self, n: usize) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Limit {
                input: Box::new(self),
                n,
            },
            schema,
        }
    }

    /// Renders the plan tree — Pig's EXPLAIN, with shuffle boundaries
    /// marked (each is one simulated MapReduce job).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let schema = self.schema.join(", ");
        match &self.node {
            PlanNode::Load {
                dir,
                loader,
                pruner,
                ..
            } => {
                let pruned = if pruner.is_some() {
                    " [index-pruned]"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{indent}LOAD {dir} USING {}{pruned} -> ({schema})",
                    loader.name()
                );
            }
            PlanNode::Values { rows, .. } => {
                let _ = writeln!(out, "{indent}VALUES [{} rows] -> ({schema})", rows.len());
            }
            PlanNode::Filter { input, predicate } => {
                let _ = writeln!(out, "{indent}FILTER BY {predicate:?}");
                input.explain_into(depth + 1, out);
            }
            PlanNode::Foreach { input, exprs } => {
                let gens: Vec<String> =
                    exprs.iter().map(|(n, e)| format!("{e:?} AS {n}")).collect();
                let _ = writeln!(out, "{indent}FOREACH GENERATE {}", gens.join(", "));
                input.explain_into(depth + 1, out);
            }
            PlanNode::GroupBy { input, keys } => {
                let _ = writeln!(out, "{indent}GROUP BY {keys:?} [SHUFFLE] -> ({schema})");
                input.explain_into(depth + 1, out);
            }
            PlanNode::Aggregate { input, keys, aggs } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                let _ = writeln!(
                    out,
                    "{indent}AGGREGATE BY {keys:?} {{{}}} [SHUFFLE+COMBINER] -> ({schema})",
                    names.join(", ")
                );
                input.explain_into(depth + 1, out);
            }
            PlanNode::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let _ = writeln!(
                    out,
                    "{indent}JOIN BY {left_keys:?} = {right_keys:?} [SHUFFLE] -> ({schema})"
                );
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PlanNode::OrderBy { input, keys } => {
                let _ = writeln!(out, "{indent}ORDER BY {keys:?} [SHUFFLE]");
                input.explain_into(depth + 1, out);
            }
            PlanNode::Distinct { input } => {
                let _ = writeln!(out, "{indent}DISTINCT [SHUFFLE+COMBINER]");
                input.explain_into(depth + 1, out);
            }
            PlanNode::Union { inputs } => {
                let _ = writeln!(out, "{indent}UNION [{} inputs]", inputs.len());
                for i in inputs {
                    i.explain_into(depth + 1, out);
                }
            }
            PlanNode::Limit { input, n } => {
                let _ = writeln!(out, "{indent}LIMIT {n}");
                input.explain_into(depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::CsvLoader;
    use crate::value::Value;

    fn base() -> Plan {
        Plan::load(
            WhPath::parse("/x").unwrap(),
            Arc::new(CsvLoader::new(3)),
            vec!["a", "b", "c"],
        )
    }

    #[test]
    fn schemas_propagate() {
        let p = base();
        assert_eq!(p.schema(), ["a", "b", "c"]);
        assert_eq!(p.col("b"), 1);

        let p = base().filter(Expr::col(0).gt(Expr::lit(1i64)));
        assert_eq!(p.schema(), ["a", "b", "c"]);

        let p = base().foreach(vec![("x", Expr::col(2))]);
        assert_eq!(p.schema(), ["x"]);

        let p = base().group_by(vec![0, 2]);
        assert_eq!(p.schema(), ["a", "c", "bag"]);

        let p = base().aggregate_by(vec![1], vec![Agg::count(), Agg::sum(0).named("total")]);
        assert_eq!(p.schema(), ["b", "count", "total"]);

        let q = base().join(base(), vec![0], vec![0]);
        assert_eq!(q.schema(), ["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn explain_renders_the_tree_with_shuffle_markers() {
        let p = base()
            .filter(Expr::col(0).gt(Expr::lit(1i64)))
            .aggregate_by(vec![1], vec![Agg::count()]);
        let text = p.explain();
        assert!(text.contains("AGGREGATE BY [1]"));
        assert!(text.contains("[SHUFFLE+COMBINER]"));
        assert!(text.contains("FILTER BY"));
        assert!(text.contains("LOAD /x USING CsvLoader"));
        // Indentation reflects depth: LOAD is deepest.
        let load_line = text.lines().find(|l| l.contains("LOAD")).unwrap();
        assert!(load_line.starts_with("    "));
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        base().col("zz");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_group_key_panics() {
        base().group_by(vec![7]);
    }

    #[test]
    #[should_panic(expected = "equal width")]
    fn union_width_mismatch_panics() {
        let narrow = Plan::values(vec!["x"], vec![vec![Value::Int(1)]]);
        base().union(vec![narrow]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn values_width_checked() {
        Plan::values(vec!["x", "y"], vec![vec![Value::Int(1)]]);
    }
}
