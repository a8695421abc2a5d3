//! Scan pushdown: projections, predicates, and zone-map constraints.
//!
//! The paper's queries "performing large amounts of brute force scans"
//! (§4.1) decode every column of every record before the first FILTER runs.
//! This module carries the planner's pushdown decisions to the loader: a
//! [`ScanSpec`] names the columns a query actually touches and the cheap
//! predicates it can evaluate before a tuple reaches the plan, and
//! [`zone_constraints`] derives the block-level [`ZoneMapPruner`] that skips
//! whole blocks before decompression. Every query runs under them; a plan
//! that wants nothing pushed states so in its shape (a bare LOAD, a FILTER
//! behind a UDF, a FOREACH over every column). A columnar file decodes only
//! the projected columns; a row-format record is decoded whole, as the
//! paper's raw-log jobs decode it, and its unprojected slots are nulled.
//!
//! Everything fails open. A loader that declares no projection support gets
//! no mask; a predicate the analyzer cannot prove total stays out of the
//! zone pruner; a block without a zone map is always read.

use uli_warehouse::ZoneMapPruner;

use crate::expr::{BinOp, Expr};
use crate::value::Value;

/// What one scan asks of its loader: the columns to materialize and the
/// predicates to evaluate before a tuple is surfaced.
#[derive(Debug, Clone, Default)]
pub struct ScanSpec {
    /// Keep-mask over the load schema, or `None` for all columns. Columns
    /// masked out come back as [`Value::Null`]; the planner only masks
    /// columns no downstream operator reads.
    pub projection: Option<Vec<bool>>,
    /// Pushed FILTER predicates, outermost-last — evaluated in order with
    /// FILTER semantics, exactly as the peeled Filter nodes would have.
    pub predicate: Vec<Expr>,
    /// Width of the load schema, for the malformed-record check a parse
    /// performs before any predicate runs.
    pub width: usize,
}

impl ScanSpec {
    /// A spec that pushes nothing down for `width` columns: every column,
    /// no predicate.
    pub fn full(width: usize) -> ScanSpec {
        ScanSpec {
            projection: None,
            predicate: Vec::new(),
            width,
        }
    }
}

/// The zone-map dimension a loader column maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneColumn {
    /// The block's min/max key range (the event timestamp).
    Key,
    /// The block's tag bitmap (the event name).
    Tag,
}

/// True when `expr` contains a UDF call anywhere — such predicates never
/// push down (a UDF may panic, keep state, or inspect columns dynamically).
pub fn expr_has_udf(expr: &Expr) -> bool {
    match expr {
        Expr::Col(_) | Expr::Lit(_) => false,
        Expr::Bin(_, a, b) => expr_has_udf(a) || expr_has_udf(b),
        Expr::Not(e) => expr_has_udf(e),
        Expr::Udf(..) => true,
    }
}

/// Collects every column index `expr` reads into `out`.
pub fn collect_columns(expr: &Expr, out: &mut Vec<usize>) {
    match expr {
        Expr::Col(i) => out.push(*i),
        Expr::Lit(_) => {}
        Expr::Bin(_, a, b) => {
            collect_columns(a, out);
            collect_columns(b, out);
        }
        Expr::Not(e) => collect_columns(e, out),
        Expr::Udf(_, args) => {
            for a in args {
                collect_columns(a, out);
            }
        }
    }
}

/// True when `expr` evaluates to a boolean without ever erroring, for any
/// tuple of width `width`: comparisons over columns/literals (total over
/// [`Value`]'s ordering) composed with AND/OR/NOT over other total booleans.
///
/// Only such predicates feed the zone analyzer — a pruned block can then
/// never hide an evaluation error the FILTER would have surfaced.
pub fn total_boolean(expr: &Expr, width: usize) -> bool {
    fn total_operand(e: &Expr, width: usize) -> bool {
        match e {
            Expr::Col(i) => *i < width,
            Expr::Lit(_) => true,
            _ => false,
        }
    }
    match expr {
        Expr::Lit(Value::Bool(_)) => true,
        Expr::Not(e) => total_boolean(e, width),
        Expr::Bin(BinOp::And | BinOp::Or, a, b) => {
            total_boolean(a, width) && total_boolean(b, width)
        }
        Expr::Bin(BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, a, b) => {
            total_operand(a, width) && total_operand(b, width)
        }
        _ => false,
    }
}

/// Key-range and tag-set constraints extracted from one conjunct.
#[derive(Debug, Default, Clone)]
struct Constraint {
    min_key: Option<i64>,
    max_key: Option<i64>,
    tags: Option<Vec<u64>>,
}

/// Derives block-skipping constraints from the pushed predicates.
///
/// `key_col` is the column that zone maps track as the key (min/max range);
/// `tag_col` the column behind the tag bitmap. Analysis is conservative:
/// each predicate is flattened into conjuncts, and a conjunct contributes
/// only when it provably restricts a zone dimension — `key_col <cmp> int`
/// tightens the key range, and an OR-chain of `tag_col == "literal"` tests
/// (the shape query builders emit for dictionary matches) yields a tag set.
/// Anything else contributes nothing, which keeps every block. Returns
/// `None` when no constraint at all was derived.
///
/// Callers must pre-filter with [`total_boolean`]: pruning assumes the
/// predicates cannot error, otherwise a skipped block could hide a type
/// error the FILTER would have raised.
pub fn zone_constraints(
    predicates: &[Expr],
    key_col: Option<usize>,
    tag_col: Option<usize>,
) -> Option<ZoneMapPruner> {
    let mut c = Constraint::default();
    for pred in predicates {
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        for conjunct in conjuncts {
            if let Some(col) = key_col {
                apply_key_bound(conjunct, col, &mut c);
            }
            if let Some(col) = tag_col {
                if let Some(tags) = tag_set(conjunct, col) {
                    intersect_tags(&mut c.tags, tags);
                }
            }
        }
    }
    if c.min_key.is_none() && c.max_key.is_none() && c.tags.is_none() {
        return None;
    }
    Some(ZoneMapPruner {
        min_key: c.min_key,
        max_key: c.max_key,
        tags: c.tags,
    })
}

/// Splits nested ANDs into their conjuncts.
fn flatten_and<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Bin(BinOp::And, a, b) = expr {
        flatten_and(a, out);
        flatten_and(b, out);
    } else {
        out.push(expr);
    }
}

/// Tightens the key range if `conjunct` is `key_col <cmp> int-literal` (or
/// the mirrored literal-first form). Bounds that would overflow i64 fail
/// open (contribute nothing) rather than wrap.
fn apply_key_bound(conjunct: &Expr, key_col: usize, c: &mut Constraint) {
    let Expr::Bin(op, a, b) = conjunct else {
        return;
    };
    // Normalize to (col <op> lit).
    let (op, lit) = match (&**a, &**b) {
        (Expr::Col(i), Expr::Lit(Value::Int(v))) if *i == key_col => (*op, *v),
        (Expr::Lit(Value::Int(v)), Expr::Col(i)) if *i == key_col => {
            let mirrored = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                BinOp::Eq => BinOp::Eq,
                _ => return,
            };
            (mirrored, *v)
        }
        _ => return,
    };
    let (lo, hi) = match op {
        BinOp::Eq => (Some(lit), Some(lit)),
        BinOp::Ge => (Some(lit), None),
        BinOp::Le => (None, Some(lit)),
        BinOp::Gt => match lit.checked_add(1) {
            Some(v) => (Some(v), None),
            None => return, // col > i64::MAX is unsatisfiable; fail open
        },
        BinOp::Lt => match lit.checked_sub(1) {
            Some(v) => (None, Some(v)),
            None => return,
        },
        _ => return,
    };
    if let Some(lo) = lo {
        c.min_key = Some(c.min_key.map_or(lo, |cur| cur.max(lo)));
    }
    if let Some(hi) = hi {
        c.max_key = Some(c.max_key.map_or(hi, |cur| cur.min(hi)));
    }
}

/// Extracts the tag set if `conjunct` is an OR-chain of `tag_col == "str"`
/// equalities, tolerating `Lit(false)` identity terms (query builders seed
/// OR-chains with `false`). Returns `None` when the conjunct has any other
/// shape.
fn tag_set(conjunct: &Expr, tag_col: usize) -> Option<Vec<u64>> {
    let mut tags = Vec::new();
    collect_tag_terms(conjunct, tag_col, &mut tags).then_some(tags)
}

fn collect_tag_terms(expr: &Expr, tag_col: usize, out: &mut Vec<u64>) -> bool {
    match expr {
        Expr::Lit(Value::Bool(false)) => true, // OR identity
        Expr::Bin(BinOp::Or, a, b) => {
            collect_tag_terms(a, tag_col, out) && collect_tag_terms(b, tag_col, out)
        }
        Expr::Bin(BinOp::Eq, a, b) => {
            let tag = match (&**a, &**b) {
                (Expr::Col(i), Expr::Lit(Value::Str(s))) if *i == tag_col => s,
                (Expr::Lit(Value::Str(s)), Expr::Col(i)) if *i == tag_col => s,
                _ => return false,
            };
            out.push(uli_warehouse::tag_hash(tag.as_bytes()));
            true
        }
        _ => false,
    }
}

/// Narrows `acc` to the intersection of tag sets seen so far.
fn intersect_tags(acc: &mut Option<Vec<u64>>, new: Vec<u64>) {
    match acc {
        None => *acc = Some(new),
        Some(cur) => cur.retain(|t| new.contains(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DataflowResult;
    use uli_warehouse::{tag_hash, ZoneMap};

    #[test]
    fn udf_detection_and_column_collection() {
        use crate::udf::ScalarUdf;
        use std::sync::Arc;
        struct Nop;
        impl ScalarUdf for Nop {
            fn name(&self) -> &'static str {
                "NOP"
            }
            fn eval(&self, _: &[Value]) -> DataflowResult<Value> {
                Ok(Value::Null)
            }
        }
        let plain = Expr::col(1).eq(Expr::lit("x")).and(Expr::col(3).not());
        assert!(!expr_has_udf(&plain));
        let mut cols = Vec::new();
        collect_columns(&plain, &mut cols);
        assert_eq!(cols, vec![1, 3]);
        let with_udf = Expr::udf(Arc::new(Nop), vec![Expr::col(2)]).eq(Expr::lit(1i64));
        assert!(expr_has_udf(&with_udf));
    }

    #[test]
    fn total_boolean_accepts_comparisons_rejects_arithmetic() {
        assert!(total_boolean(&Expr::col(0).eq(Expr::lit("x")), 2));
        assert!(total_boolean(
            &Expr::col(0)
                .lt(Expr::lit(3i64))
                .and(Expr::col(1).ne(Expr::lit(4i64)).not()),
            2
        ));
        assert!(total_boolean(
            &Expr::lit(false).or(Expr::col(1).eq(Expr::lit("y"))),
            2
        ));
        // Arithmetic can type-error; AND over non-booleans can type-error.
        assert!(!total_boolean(&Expr::col(0).add(Expr::lit(1i64)), 2));
        assert!(!total_boolean(&Expr::col(0).and(Expr::col(1)), 2));
        // Out-of-range columns error at eval; not total.
        assert!(!total_boolean(&Expr::col(5).eq(Expr::lit(1i64)), 2));
        // Comparison over a computed operand is total-boolean only for
        // col/lit operands under this conservative analysis.
        assert!(!total_boolean(
            &Expr::col(0).add(Expr::lit(1i64)).gt(Expr::lit(2i64)),
            2
        ));
    }

    #[test]
    fn zone_constraints_extract_key_bounds() {
        let preds = vec![
            Expr::col(5).ge(Expr::lit(100i64)),
            Expr::col(5).le(Expr::lit(200i64)),
        ];
        let p = zone_constraints(&preds, Some(5), None).unwrap();
        assert_eq!((p.min_key, p.max_key), (Some(100), Some(200)));
        // Strict bounds tighten by one.
        let strict = vec![Expr::col(5)
            .gt(Expr::lit(100i64))
            .and(Expr::col(5).lt(Expr::lit(200i64)))];
        let p = zone_constraints(&strict, Some(5), None).unwrap();
        assert_eq!((p.min_key, p.max_key), (Some(101), Some(199)));
        // Mirrored literal-first form.
        let mirrored = vec![Expr::lit(100i64).le(Expr::col(5))];
        let p = zone_constraints(&mirrored, Some(5), None).unwrap();
        assert_eq!(p.min_key, Some(100));
        // Eq pins both bounds.
        let eq = vec![Expr::col(5).eq(Expr::lit(150i64))];
        let p = zone_constraints(&eq, Some(5), None).unwrap();
        assert_eq!((p.min_key, p.max_key), (Some(150), Some(150)));
    }

    #[test]
    fn zone_constraints_extract_tag_or_chains() {
        let pred = Expr::lit(false)
            .or(Expr::col(1).eq(Expr::lit("web:home:x:y:z:click")))
            .or(Expr::col(1).eq(Expr::lit("web:home:x:y:z:view")));
        let p = zone_constraints(&[pred], None, Some(1)).unwrap();
        let tags = p.tags.unwrap();
        assert_eq!(tags.len(), 2);
        assert!(tags.contains(&tag_hash(b"web:home:x:y:z:click")));
        // A conjunct mixing tag tests with anything else yields no tag set.
        let mixed = Expr::col(1)
            .eq(Expr::lit("a"))
            .or(Expr::col(2).eq(Expr::lit("b")));
        assert!(zone_constraints(&[mixed], None, Some(1)).is_none());
    }

    #[test]
    fn zone_constraints_intersect_tag_conjuncts() {
        let a = Expr::col(1)
            .eq(Expr::lit("x"))
            .or(Expr::col(1).eq(Expr::lit("y")));
        let b = Expr::col(1)
            .eq(Expr::lit("y"))
            .or(Expr::col(1).eq(Expr::lit("z")));
        let p = zone_constraints(&[a.and(b)], None, Some(1)).unwrap();
        assert_eq!(p.tags.unwrap(), vec![tag_hash(b"y")]);
    }

    #[test]
    fn zone_constraints_overflow_fails_open() {
        let preds = vec![Expr::col(5).gt(Expr::lit(i64::MAX))];
        assert!(zone_constraints(&preds, Some(5), None).is_none());
        let preds = vec![Expr::col(5).lt(Expr::lit(i64::MIN))];
        assert!(zone_constraints(&preds, Some(5), None).is_none());
    }

    #[test]
    fn derived_pruner_skips_disjoint_zone() {
        let preds = vec![
            Expr::col(5).ge(Expr::lit(1000i64)),
            Expr::lit(false).or(Expr::col(1).eq(Expr::lit("click"))),
        ];
        let p = zone_constraints(&preds, Some(5), Some(1)).unwrap();
        let mut z = ZoneMap::empty();
        z.fold(500, tag_hash(b"click"));
        assert!(!p.keep(Some(&z)), "key range disjoint");
        let mut z2 = ZoneMap::empty();
        z2.fold(1500, tag_hash(b"view"));
        assert_eq!(
            p.keep(Some(&z2)),
            tag_hash(b"view") % 64 == tag_hash(b"click") % 64,
            "kept only on bitmap collision"
        );
        let mut z3 = ZoneMap::empty();
        z3.fold(1500, tag_hash(b"click"));
        assert!(p.keep(Some(&z3)));
    }
}
