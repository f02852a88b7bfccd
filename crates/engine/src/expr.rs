//! Scalar expressions, comparison/arithmetic operators, aggregates.

use sommelier_storage::Value;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Apply to an ordering result.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
        )
    }

    /// The operator with flipped operand order (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// Floor a timestamp to its hour — the `H` window bucketing.
    HourBucket,
    /// Floor a timestamp to its day.
    DayBucket,
    /// Floor a timestamp to an arbitrary bucket width:
    /// `TIME_BUCKET(ts, width_ms)`. Generalizes the fixed hour/day
    /// buckets so source adapters can declare any derived-metadata
    /// window granularity.
    TimeBucket,
    /// Absolute value.
    Abs,
}

impl Func {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            Func::HourBucket => "HOUR_BUCKET",
            Func::DayBucket => "DAY_BUCKET",
            Func::TimeBucket => "TIME_BUCKET",
            Func::Abs => "ABS",
        }
    }

    /// Look up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<Func> {
        match name.to_ascii_uppercase().as_str() {
            "HOUR_BUCKET" => Some(Func::HourBucket),
            "DAY_BUCKET" => Some(Func::DayBucket),
            "TIME_BUCKET" => Some(Func::TimeBucket),
            "ABS" => Some(Func::Abs),
            _ => None,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Population standard deviation (what the paper's `window_std_dev`
    /// summary metadata stores).
    StdDev,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::StdDev => "STDDEV",
        }
    }

    /// Look up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "STDDEV" | "STDDEV_POP" => Some(AggFunc::StdDev),
            _ => None,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (possibly qualified).
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Scalar function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self op other`.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Conjoin many predicates (None for empty input).
    pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    /// All column names referenced by this expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.visit_columns(f);
                b.visit_columns(f);
            }
            Expr::Not(a) => a.visit_columns(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// Rewrite every column reference through `f` (e.g. re-qualifying).
    pub fn map_columns(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::And(a, b) => {
                Expr::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::Not(a) => Expr::Not(Box::new(a.map_columns(f))),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::Call(func, args) => {
                Expr::Call(*func, args.iter().map(|a| a.map_columns(f)).collect())
            }
        }
    }

    /// The factors of a conjunction, borrowed.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// A comparison between a column and a literal (on either side),
    /// normalized to `column op literal`: the shape a sorted column
    /// answers with a binary search. `<>` does not qualify.
    pub fn as_range(&self) -> Option<(&str, CmpOp, &Value)> {
        let Expr::Cmp(op, a, b) = self else { return None };
        match (&**a, &**b) {
            _ if *op == CmpOp::Ne => None,
            (Expr::Col(c), Expr::Lit(v)) => Some((c, *op, v)),
            (Expr::Lit(v), Expr::Col(c)) => Some((c, op.flip(), v)),
            _ => None,
        }
    }

    /// Split a conjunction into its factors, owned (see
    /// [`Expr::conjuncts`] to borrow them).
    pub fn split_conjunction(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.split_conjunction();
                out.extend(b.split_conjunction());
                out
            }
            other => vec![other],
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Eq.test(Ordering::Equal));
        assert!(!CmpOp::Eq.test(Ordering::Less));
        assert!(CmpOp::Ne.test(Ordering::Less));
        assert!(CmpOp::Le.test(Ordering::Equal));
        assert!(CmpOp::Gt.test(Ordering::Greater));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn columns_collects_all_refs() {
        let e = Expr::col("F.station").eq(Expr::lit("ISK")).and(
            Expr::Call(Func::HourBucket, vec![Expr::col("D.sample_time")])
                .eq(Expr::col("H.ts")),
        );
        let mut cols = e.columns();
        cols.sort();
        assert_eq!(cols, vec!["D.sample_time", "F.station", "H.ts"]);
    }

    #[test]
    fn split_and_conjoin_roundtrip() {
        let parts = vec![
            Expr::col("a").eq(Expr::lit(1i64)),
            Expr::col("b").eq(Expr::lit(2i64)),
            Expr::col("c").eq(Expr::lit(3i64)),
        ];
        let joined = Expr::conjoin(parts.clone()).unwrap();
        assert_eq!(joined.split_conjunction(), parts);
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn map_columns_requalifies() {
        let e = Expr::col("station").eq(Expr::lit("ISK"));
        let q = e.map_columns(&|c| format!("F.{c}"));
        assert_eq!(q.columns(), vec!["F.station"]);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::col("x")
            .cmp(CmpOp::Ge, Expr::lit(3i64))
            .or(Expr::Not(Box::new(Expr::col("y").eq(Expr::lit("a")))));
        assert_eq!(e.to_string(), "((x >= 3) OR (NOT (y = 'a')))");
    }

    #[test]
    fn agg_and_func_lookup() {
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("STDDEV_POP"), Some(AggFunc::StdDev));
        assert_eq!(AggFunc::from_name("median"), None);
        assert_eq!(Func::from_name("hour_bucket"), Some(Func::HourBucket));
        assert_eq!(Func::from_name("nope"), None);
    }
}
