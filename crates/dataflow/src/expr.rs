//! Row expressions: projections, predicates, scalar UDF calls.

use std::sync::Arc;

use crate::error::{DataflowError, DataflowResult};
use crate::udf::ScalarUdf;
use crate::value::{Tuple, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Addition (int or double).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always double).
    Div,
    /// Logical and (short-circuiting).
    And,
    /// Logical or (short-circuiting).
    Or,
}

/// An expression evaluated against one input tuple.
#[derive(Clone)]
pub enum Expr {
    /// Positional column reference `$i`.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Scalar UDF call.
    Udf(Arc<dyn ScalarUdf>, Vec<Expr>),
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v:?}"),
            Expr::Bin(op, a, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::Not(e) => write!(f, "NOT {e:?}"),
            Expr::Udf(u, args) => write!(f, "{}({args:?})", u.name()),
        }
    }
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Scalar UDF call.
    pub fn udf(udf: Arc<dyn ScalarUdf>, args: Vec<Expr>) -> Expr {
        Expr::Udf(udf, args)
    }

    /// `self == other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self != other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self + other`
    #[allow(clippy::should_implement_trait)] // fluent builder, not arithmetic on Expr values
    pub fn add(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`
    #[allow(clippy::should_implement_trait)] // fluent builder, not arithmetic on Expr values
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`
    #[allow(clippy::should_implement_trait)] // fluent builder, not arithmetic on Expr values
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`
    #[allow(clippy::should_implement_trait)] // fluent builder, not arithmetic on Expr values
    pub fn div(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(other))
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Evaluates a FILTER predicate against a tuple: `true` keeps the row,
    /// `false` or `Null` drops it, and any other value is a type error.
    pub(crate) fn keeps(&self, row: &Tuple) -> DataflowResult<bool> {
        match self.eval(row)? {
            Value::Bool(keep) => Ok(keep),
            Value::Null => Ok(false),
            _ => Err(DataflowError::TypeError { context: "FILTER" }),
        }
    }

    /// Evaluates against a tuple.
    pub fn eval(&self, row: &Tuple) -> DataflowResult<Value> {
        match self {
            Expr::Col(i) => row.get(*i).cloned().ok_or(DataflowError::ColumnOutOfRange {
                index: *i,
                width: row.len(),
            }),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Not(e) => {
                let v = e.eval(row)?;
                v.as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or(DataflowError::TypeError { context: "NOT" })
            }
            Expr::Udf(udf, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row)?);
                }
                udf.eval(&vals)
            }
            Expr::Bin(op, a, b) => {
                // Short-circuit logic ops first.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let left = a
                        .eval(row)?
                        .as_bool()
                        .ok_or(DataflowError::TypeError { context: "AND/OR" })?;
                    return match (op, left) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let right = b
                                .eval(row)?
                                .as_bool()
                                .ok_or(DataflowError::TypeError { context: "AND/OR" })?;
                            Ok(Value::Bool(right))
                        }
                    };
                }
                let left = a.eval(row)?;
                let right = b.eval(row)?;
                match op {
                    BinOp::Eq => Ok(Value::Bool(left == right)),
                    BinOp::Ne => Ok(Value::Bool(left != right)),
                    BinOp::Lt => Ok(Value::Bool(left < right)),
                    BinOp::Le => Ok(Value::Bool(left <= right)),
                    BinOp::Gt => Ok(Value::Bool(left > right)),
                    BinOp::Ge => Ok(Value::Bool(left >= right)),
                    BinOp::Add | BinOp::Sub | BinOp::Mul => arith(*op, &left, &right),
                    BinOp::Div => {
                        let (l, r) = both_doubles(&left, &right)?;
                        if r == 0.0 {
                            return Err(DataflowError::DivisionByZero);
                        }
                        Ok(Value::Double(l / r))
                    }
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }
}

fn both_doubles(a: &Value, b: &Value) -> DataflowResult<(f64, f64)> {
    match (a.as_double(), b.as_double()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(DataflowError::TypeError {
            context: "arithmetic",
        }),
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> DataflowResult<Value> {
    // Integer arithmetic stays integral; anything else widens to double.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        let v = match op {
            BinOp::Add => x.wrapping_add(*y),
            BinOp::Sub => x.wrapping_sub(*y),
            BinOp::Mul => x.wrapping_mul(*y),
            _ => unreachable!(),
        };
        return Ok(Value::Int(v));
    }
    let (x, y) = both_doubles(a, b)?;
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        _ => unreachable!(),
    };
    Ok(Value::Double(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Tuple {
        vec![Value::Int(10), Value::str("click"), Value::Double(0.5)]
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(7i64).eval(&row()).unwrap(), Value::Int(7));
        assert!(matches!(
            Expr::col(9).eval(&row()),
            Err(DataflowError::ColumnOutOfRange { index: 9, width: 3 })
        ));
    }

    #[test]
    fn filter_keeps_true_drops_false_and_null_and_rejects_the_rest() {
        assert!(Expr::col(0).gt(Expr::lit(5i64)).keeps(&row()).unwrap());
        assert!(!Expr::col(0).gt(Expr::lit(50i64)).keeps(&row()).unwrap());
        assert!(!Expr::lit(Value::Null).keeps(&row()).unwrap());
        assert_eq!(
            Expr::lit(7i64).keeps(&row()),
            Err(DataflowError::TypeError { context: "FILTER" })
        );
    }

    #[test]
    fn comparisons() {
        let e = Expr::col(1).eq(Expr::lit("click"));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::col(0).gt(Expr::lit(5i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::col(0).le(Expr::lit(9i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn arithmetic_int_and_double() {
        let e = Expr::col(0).add(Expr::lit(5i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e = Expr::col(0).mul(Expr::col(2));
        assert_eq!(e.eval(&row()).unwrap(), Value::Double(5.0));
        let e = Expr::col(0).div(Expr::lit(4i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Double(2.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::col(0).div(Expr::lit(0i64));
        assert_eq!(e.eval(&row()), Err(DataflowError::DivisionByZero));
    }

    #[test]
    fn logic_short_circuits() {
        // Right side would be a type error, but left decides.
        let e = Expr::lit(false).and(Expr::col(0));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::col(0));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::lit(true).and(Expr::lit(false)).not();
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn type_errors_are_reported() {
        let e = Expr::col(1).add(Expr::lit(1i64));
        assert!(matches!(
            e.eval(&row()),
            Err(DataflowError::TypeError { .. })
        ));
        let e = Expr::col(1).not();
        assert!(matches!(
            e.eval(&row()),
            Err(DataflowError::TypeError { .. })
        ));
    }

    #[test]
    fn udf_call() {
        struct Double;
        impl ScalarUdf for Double {
            fn name(&self) -> &'static str {
                "DOUBLE"
            }
            fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
                Ok(Value::Int(args[0].as_int().unwrap_or(0) * 2))
            }
        }
        let e = Expr::udf(Arc::new(Double), vec![Expr::col(0)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(20));
    }
}
