//! Vectorized expression evaluation over relations.
//!
//! Two entry points: [`eval_scalar`] produces a column, [`eval_mask`]
//! a boolean selection vector. Comparisons against literals on
//! `i64`/`f64`/timestamp columns take tight vectorized loops;
//! text-vs-literal equality short-circuits through the dictionary
//! (a literal absent from the dictionary matches nothing without
//! touching the rows).

use crate::error::{EngineError, Result};
use crate::expr::{ArithOp, CmpOp, Expr, Func};
use crate::relation::Relation;
use sommelier_storage::column::TextColumn;
use sommelier_storage::time::{day_bucket, hour_bucket};
use sommelier_storage::{ColumnData, Value};
use std::borrow::Cow;

/// Evaluate `expr` to a column over `rel`.
pub fn eval_scalar(expr: &Expr, rel: &Relation) -> Result<ColumnData> {
    match expr {
        Expr::Col(name) => Ok(rel.column(name)?.clone()),
        Expr::Lit(v) => broadcast(v, rel.rows()),
        Expr::Arith(op, a, b) => {
            let ca = eval_column(a, rel)?;
            let cb = eval_column(b, rel)?;
            arith(*op, &ca, &cb)
        }
        Expr::Call(f, args) => call(*f, args, rel),
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
            // Boolean in scalar position: materialize as 0/1 ints.
            let mask = eval_mask(expr, rel)?;
            Ok(ColumnData::Int64(mask.iter().map(|&b| b as i64).collect()))
        }
    }
}

/// Evaluate `expr` to a column over `rel`, borrowing `rel`'s payload
/// when `expr` is a plain column reference (only computed expressions
/// materialize a new column).
pub(crate) fn eval_column<'r>(expr: &Expr, rel: &'r Relation) -> Result<Cow<'r, ColumnData>> {
    match expr {
        Expr::Col(name) => Ok(Cow::Borrowed(rel.column(name)?)),
        _ => eval_scalar(expr, rel).map(Cow::Owned),
    }
}

/// Evaluate `expr` as a row mask over `rel`.
pub fn eval_mask(expr: &Expr, rel: &Relation) -> Result<Vec<bool>> {
    match expr {
        Expr::And(a, b) => {
            let mut m = eval_mask(a, rel)?;
            // Short-circuit: only evaluate b where a holds? Bulk engines
            // evaluate both; we AND the masks (b's evaluation is cheap
            // and side-effect free).
            let mb = eval_mask(b, rel)?;
            for (x, y) in m.iter_mut().zip(mb) {
                *x = *x && y;
            }
            Ok(m)
        }
        Expr::Or(a, b) => {
            let mut m = eval_mask(a, rel)?;
            let mb = eval_mask(b, rel)?;
            for (x, y) in m.iter_mut().zip(mb) {
                *x = *x || y;
            }
            Ok(m)
        }
        Expr::Not(a) => {
            let mut m = eval_mask(a, rel)?;
            for x in m.iter_mut() {
                *x = !*x;
            }
            Ok(m)
        }
        Expr::Cmp(op, a, b) => cmp_mask(*op, a, b, rel),
        Expr::Lit(Value::Int(v)) => Ok(vec![*v != 0; rel.rows()]),
        other => Err(EngineError::Exec(format!("{other} is not a predicate"))),
    }
}

fn broadcast(v: &Value, n: usize) -> Result<ColumnData> {
    Ok(match v {
        Value::Int(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float(x) => ColumnData::Float64(vec![*x; n]),
        Value::Time(x) => ColumnData::Timestamp(vec![*x; n]),
        Value::Text(s) => {
            let mut t = TextColumn::new();
            for _ in 0..n {
                t.push(s);
            }
            ColumnData::Text(t)
        }
        Value::Null => return Err(EngineError::Exec("cannot broadcast NULL".into())),
    })
}

fn arith(op: ArithOp, a: &ColumnData, b: &ColumnData) -> Result<ColumnData> {
    use ColumnData::*;
    let fail = || {
        EngineError::Exec(format!(
            "cannot apply {} to {} and {}",
            op.symbol(),
            a.data_type(),
            b.data_type()
        ))
    };
    let fi = |x: i64, y: i64| -> i64 {
        match op {
            ArithOp::Add => x.wrapping_add(y),
            ArithOp::Sub => x.wrapping_sub(y),
            ArithOp::Mul => x.wrapping_mul(y),
            ArithOp::Div => {
                if y == 0 {
                    0
                } else {
                    x / y
                }
            }
        }
    };
    let ff = |x: f64, y: f64| -> f64 {
        match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => x / y,
        }
    };
    Ok(match (a, b) {
        (Int64(x) | Timestamp(x), Int64(y) | Timestamp(y)) => {
            Int64(x.iter().zip(y).map(|(&x, &y)| fi(x, y)).collect())
        }
        (Float64(x), Float64(y)) => {
            Float64(x.iter().zip(y).map(|(&x, &y)| ff(x, y)).collect())
        }
        (Float64(x), Int64(y) | Timestamp(y)) => {
            Float64(x.iter().zip(y).map(|(&x, &y)| ff(x, y as f64)).collect())
        }
        (Int64(x) | Timestamp(x), Float64(y)) => {
            Float64(x.iter().zip(y).map(|(&x, &y)| ff(x as f64, y)).collect())
        }
        _ => return Err(fail()),
    })
}

fn call(f: Func, args: &[Expr], rel: &Relation) -> Result<ColumnData> {
    // Arguments that name a column borrow it; only computed ones
    // materialize.
    let arg = |i: usize| -> Result<Cow<'_, ColumnData>> {
        args.get(i)
            .ok_or_else(|| EngineError::Exec(format!("{} missing argument {i}", f.name())))
            .and_then(|e| eval_column(e, rel))
    };
    match f {
        Func::HourBucket | Func::DayBucket => {
            let c = arg(0)?;
            let v = c.as_i64().map_err(EngineError::Storage)?;
            let bucket = if f == Func::HourBucket { hour_bucket } else { day_bucket };
            Ok(ColumnData::Timestamp(v.iter().map(|&t| bucket(t)).collect()))
        }
        Func::TimeBucket => {
            let c = arg(0)?;
            let v = c.as_i64().map_err(EngineError::Storage)?;
            if v.is_empty() {
                return Ok(ColumnData::Timestamp(Vec::new()));
            }
            let w = arg(1)?;
            let w = w.as_i64().map_err(EngineError::Storage)?;
            let width = *w.first().ok_or_else(|| {
                EngineError::Exec("TIME_BUCKET width must be a constant".into())
            })?;
            if width <= 0 {
                return Err(EngineError::Exec(format!(
                    "TIME_BUCKET width must be positive, got {width}"
                )));
            }
            Ok(ColumnData::Timestamp(
                v.iter().map(|&t| t.div_euclid(width) * width).collect(),
            ))
        }
        Func::Abs => {
            let c = arg(0)?;
            Ok(match c.as_ref() {
                ColumnData::Int64(v) => {
                    ColumnData::Int64(v.iter().map(|&x| x.abs()).collect())
                }
                ColumnData::Float64(v) => {
                    ColumnData::Float64(v.iter().map(|&x| x.abs()).collect())
                }
                other => {
                    return Err(EngineError::Exec(format!(
                        "ABS over {} column",
                        other.data_type()
                    )))
                }
            })
        }
    }
}

/// Comparison mask with fast paths for column-vs-literal.
fn cmp_mask(op: CmpOp, a: &Expr, b: &Expr, rel: &Relation) -> Result<Vec<bool>> {
    // Normalize literal to the right side.
    if matches!(a, Expr::Lit(_)) && !matches!(b, Expr::Lit(_)) {
        return cmp_mask(op.flip(), b, a, rel);
    }
    if let (Expr::Col(name), Expr::Lit(lit)) = (a, b) {
        let col = rel.column(name)?;
        return cmp_col_lit(op, col, lit);
    }
    // General path: evaluate both sides, compare element-wise.
    let ca = eval_scalar(a, rel)?;
    let cb = eval_scalar(b, rel)?;
    cmp_cols(op, &ca, &cb)
}

fn cmp_col_lit(op: CmpOp, col: &ColumnData, lit: &Value) -> Result<Vec<bool>> {
    match col {
        ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
            let x = lit
                .coerce_to(col.data_type())
                .map_err(EngineError::Storage)?
                .as_i64()
                .map_err(EngineError::Storage)?;
            Ok(v.iter().map(|&e| op.test(e.cmp(&x))).collect())
        }
        ColumnData::Float64(v) => {
            let x = lit.as_f64().map_err(EngineError::Storage)?;
            Ok(v.iter().map(|&e| e.partial_cmp(&x).is_some_and(|o| op.test(o))).collect())
        }
        ColumnData::Text(t) => {
            let s = lit.as_str().map_err(EngineError::Storage)?;
            match op {
                // Dictionary fast path for (in)equality.
                CmpOp::Eq | CmpOp::Ne => {
                    let want_eq = op == CmpOp::Eq;
                    match t.dict.code_of(s) {
                        Some(code) => {
                            Ok(t.codes.iter().map(|&c| (c == code) == want_eq).collect())
                        }
                        None => Ok(vec![!want_eq; t.len()]),
                    }
                }
                _ => Ok((0..t.len()).map(|i| op.test(t.get(i).cmp(s))).collect()),
            }
        }
    }
}

fn cmp_cols(op: CmpOp, a: &ColumnData, b: &ColumnData) -> Result<Vec<bool>> {
    use ColumnData::*;
    if a.len() != b.len() {
        return Err(EngineError::Exec(format!(
            "comparison arity mismatch: {} vs {} rows",
            a.len(),
            b.len()
        )));
    }
    Ok(match (a, b) {
        (Int64(x) | Timestamp(x), Int64(y) | Timestamp(y)) => {
            x.iter().zip(y).map(|(&x, &y)| op.test(x.cmp(&y))).collect()
        }
        (Float64(x), Float64(y)) => x
            .iter()
            .zip(y)
            .map(|(x, y)| x.partial_cmp(y).is_some_and(|o| op.test(o)))
            .collect(),
        (Int64(x) | Timestamp(x), Float64(y)) => x
            .iter()
            .zip(y)
            .map(|(&x, y)| (x as f64).partial_cmp(y).is_some_and(|o| op.test(o)))
            .collect(),
        (Float64(x), Int64(y) | Timestamp(y)) => x
            .iter()
            .zip(y)
            .map(|(x, &y)| x.partial_cmp(&(y as f64)).is_some_and(|o| op.test(o)))
            .collect(),
        (Text(x), Text(y)) => (0..x.len()).map(|i| op.test(x.get(i).cmp(y.get(i)))).collect(),
        _ => {
            return Err(EngineError::Exec(format!(
                "cannot compare {} with {}",
                a.data_type(),
                b.data_type()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::time::MS_PER_HOUR;

    fn rel() -> Relation {
        Relation::new(vec![
            ("D.sample_time".into(), ColumnData::Timestamp(vec![0, 1_000, MS_PER_HOUR + 5])),
            ("D.sample_value".into(), ColumnData::Float64(vec![1.5, -2.0, 10.0])),
            (
                "F.station".into(),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"])),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn literal_comparisons() {
        let r = rel();
        let m =
            eval_mask(&Expr::col("sample_value").cmp(CmpOp::Gt, Expr::lit(0.0)), &r).unwrap();
        assert_eq!(m, vec![true, false, true]);
        // Int literal against float column coerces.
        let m = eval_mask(&Expr::col("sample_value").cmp(CmpOp::Ge, Expr::lit(10i64)), &r)
            .unwrap();
        assert_eq!(m, vec![false, false, true]);
        // Literal on the left flips.
        let m =
            eval_mask(&Expr::lit(0.0).cmp(CmpOp::Lt, Expr::col("sample_value")), &r).unwrap();
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn timestamp_literal_text_coerces() {
        let r = rel();
        let m = eval_mask(
            &Expr::col("sample_time").cmp(CmpOp::Ge, Expr::lit("1970-01-01T00:00:01.000")),
            &r,
        )
        .unwrap();
        assert_eq!(m, vec![false, true, true]);
    }

    #[test]
    fn text_dictionary_fast_path() {
        let r = rel();
        let m = eval_mask(&Expr::col("station").eq(Expr::lit("ISK")), &r).unwrap();
        assert_eq!(m, vec![true, false, true]);
        // Absent literal: all false without row scans.
        let m = eval_mask(&Expr::col("station").eq(Expr::lit("NOPE")), &r).unwrap();
        assert_eq!(m, vec![false, false, false]);
        let m =
            eval_mask(&Expr::col("station").cmp(CmpOp::Ne, Expr::lit("NOPE")), &r).unwrap();
        assert_eq!(m, vec![true, true, true]);
        // Ordered text compare.
        let m =
            eval_mask(&Expr::col("station").cmp(CmpOp::Lt, Expr::lit("ISJ")), &r).unwrap();
        assert_eq!(m, vec![false, true, false]);
    }

    #[test]
    fn boolean_combinators() {
        let r = rel();
        let e = Expr::col("station")
            .eq(Expr::lit("ISK"))
            .and(Expr::col("sample_value").cmp(CmpOp::Gt, Expr::lit(5.0)));
        assert_eq!(eval_mask(&e, &r).unwrap(), vec![false, false, true]);
        let e = Expr::col("station")
            .eq(Expr::lit("FIAM"))
            .or(Expr::col("sample_value").cmp(CmpOp::Gt, Expr::lit(5.0)));
        assert_eq!(eval_mask(&e, &r).unwrap(), vec![false, true, true]);
        let e = Expr::Not(Box::new(Expr::col("station").eq(Expr::lit("ISK"))));
        assert_eq!(eval_mask(&e, &r).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn hour_bucket_call() {
        let r = rel();
        let c =
            eval_scalar(&Expr::Call(Func::HourBucket, vec![Expr::col("sample_time")]), &r)
                .unwrap();
        assert_eq!(c.as_i64().unwrap(), &[0, 0, MS_PER_HOUR]);
    }

    #[test]
    fn arithmetic() {
        let r = rel();
        let c = eval_scalar(
            &Expr::Arith(
                ArithOp::Mul,
                Box::new(Expr::col("sample_value")),
                Box::new(Expr::lit(2.0)),
            ),
            &r,
        )
        .unwrap();
        assert_eq!(c.as_f64().unwrap(), &[3.0, -4.0, 20.0]);
        // Abs.
        let c =
            eval_scalar(&Expr::Call(Func::Abs, vec![Expr::col("sample_value")]), &r).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[1.5, 2.0, 10.0]);
    }

    #[test]
    fn col_vs_col_comparison() {
        let r = Relation::new(vec![
            ("a".into(), ColumnData::Int64(vec![1, 5, 3])),
            ("b".into(), ColumnData::Int64(vec![2, 4, 3])),
        ])
        .unwrap();
        let m = eval_mask(&Expr::col("a").cmp(CmpOp::Lt, Expr::col("b")), &r).unwrap();
        assert_eq!(m, vec![true, false, false]);
        let m = eval_mask(&Expr::col("a").eq(Expr::col("b")), &r).unwrap();
        assert_eq!(m, vec![false, false, true]);
    }

    #[test]
    fn non_predicate_rejected() {
        let r = rel();
        assert!(eval_mask(&Expr::col("sample_value"), &r).is_err());
        assert!(eval_scalar(&Expr::Lit(Value::Null), &r).is_err());
    }
}
