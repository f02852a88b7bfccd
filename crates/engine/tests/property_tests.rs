//! Property-based tests on the engine's core invariants: join
//! correctness against a nested-loop oracle, aggregate consistency,
//! sort/limit laws, and relation algebra round trips.

use sommelier_engine::agg::{aggregate, distinct};
use sommelier_engine::expr::{AggFunc, CmpOp, Expr};
use sommelier_engine::join::{cross_join, hash_join};
use sommelier_engine::relation::Relation;
use sommelier_engine::sort::{limit, sort_relation};
use sommelier_storage::rng::{check, Rng};
use sommelier_storage::ColumnData;

fn int_relation(name_a: &str, name_b: &str, rows: &[(i64, i64)]) -> Relation {
    Relation::new(vec![
        (name_a.to_string(), ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
        (name_b.to_string(), ColumnData::Int64(rows.iter().map(|r| r.1).collect())),
    ])
    .unwrap()
}

/// A row count drawn from `lens`, each row `(key(rng), value(rng))`.
fn rows(
    rng: &mut Rng,
    lens: std::ops::Range<i64>,
    mut key: impl FnMut(&mut Rng) -> i64,
    mut value: impl FnMut(&mut Rng) -> i64,
) -> Vec<(i64, i64)> {
    (0..rng.range(lens)).map(|_| (key(rng), value(rng))).collect()
}

/// Any `i64`.
fn any(rng: &mut Rng) -> i64 {
    rng.next_u64() as i64
}

/// Hash join must agree with the O(n·m) nested-loop definition.
#[test]
fn hash_join_matches_nested_loop() {
    check("hash_join_matches_nested_loop", |rng| {
        let left = rows(rng, 0..40, |rng| rng.range(0..8), any);
        let right = rows(rng, 0..40, |rng| rng.range(0..8), any);
        let l = int_relation("L.k", "L.v", &left);
        let r = int_relation("R.k", "R.v", &right);
        let joined = hash_join(&l, &r, &[Expr::col("L.k")], &[Expr::col("R.k")]).unwrap();
        // Oracle: multiset of (lk, lv, rk, rv) quadruples.
        let mut expected: Vec<(i64, i64, i64, i64)> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    expected.push((lk, lv, rk, rv));
                }
            }
        }
        let mut got: Vec<(i64, i64, i64, i64)> = (0..joined.rows())
            .map(|i| {
                (
                    joined.value(i, "L.k").unwrap().as_i64().unwrap(),
                    joined.value(i, "L.v").unwrap().as_i64().unwrap(),
                    joined.value(i, "R.k").unwrap().as_i64().unwrap(),
                    joined.value(i, "R.v").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// |A × B| = |A|·|B|.
#[test]
fn cross_join_cardinality() {
    check("cross_join_cardinality", |rng| {
        let left = rows(rng, 0..20, any, any);
        let right = rows(rng, 0..20, any, any);
        let l = int_relation("L.a", "L.b", &left);
        let r = int_relation("R.a", "R.b", &right);
        let c = cross_join(&l, &r).unwrap();
        assert_eq!(c.rows(), left.len() * right.len());
    });
}

/// SUM/COUNT/MIN/MAX from the engine equal a direct fold; grouped
/// counts sum to the total count.
#[test]
fn aggregates_match_direct_fold() {
    check("aggregates_match_direct_fold", |rng| {
        let rows = rows(rng, 1..60, |rng| rng.range(0..5), |rng| rng.range(-1000..1000));
        let rel = int_relation("g", "v", &rows);
        let out = aggregate(
            &rel,
            &[],
            &[
                ("n".into(), AggFunc::Count, Expr::col("v")),
                ("s".into(), AggFunc::Sum, Expr::col("v")),
                ("mn".into(), AggFunc::Min, Expr::col("v")),
                ("mx".into(), AggFunc::Max, Expr::col("v")),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "n").unwrap().as_i64().unwrap(), rows.len() as i64);
        let sum: i64 = rows.iter().map(|r| r.1).sum();
        assert!((out.value(0, "s").unwrap().as_f64().unwrap() - sum as f64).abs() < 1e-6);
        assert_eq!(
            out.value(0, "mn").unwrap().as_i64().unwrap(),
            rows.iter().map(|r| r.1).min().unwrap()
        );
        assert_eq!(
            out.value(0, "mx").unwrap().as_i64().unwrap(),
            rows.iter().map(|r| r.1).max().unwrap()
        );

        // Grouped: per-group counts sum to the total.
        let grouped = aggregate(
            &rel,
            &[("g".into(), Expr::col("g"))],
            &[("n".into(), AggFunc::Count, Expr::col("v"))],
        )
        .unwrap();
        let total: i64 = (0..grouped.rows())
            .map(|i| grouped.value(i, "n").unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(total, rows.len() as i64);
        // Number of groups equals the number of distinct keys.
        let mut keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(grouped.rows(), keys.len());
    });
}

/// Sorting yields a non-decreasing key sequence and preserves the
/// row multiset; limit caps the row count.
#[test]
fn sort_and_limit_laws() {
    check("sort_and_limit_laws", |rng| {
        let rows = rows(rng, 0..60, any, any);
        let n = rng.below(70);
        let rel = int_relation("k", "v", &rows);
        let sorted = sort_relation(&rel, &[("k".into(), true)]).unwrap();
        assert_eq!(sorted.rows(), rows.len());
        let keys: Vec<i64> = (0..sorted.rows())
            .map(|i| sorted.value(i, "k").unwrap().as_i64().unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // Multiset preserved.
        let mut original: Vec<(i64, i64)> = rows.clone();
        let mut back: Vec<(i64, i64)> = (0..sorted.rows())
            .map(|i| {
                (
                    sorted.value(i, "k").unwrap().as_i64().unwrap(),
                    sorted.value(i, "v").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        original.sort_unstable();
        back.sort_unstable();
        assert_eq!(original, back);
        // Limit law.
        assert_eq!(limit(&rel, n).rows(), rows.len().min(n));
    });
}

/// DISTINCT is idempotent and bounded by the input size.
#[test]
fn distinct_laws() {
    check("distinct_laws", |rng| {
        let rows = rows(rng, 0..50, |rng| rng.range(0..6), |rng| rng.range(0..6));
        let rel = int_relation("a", "b", &rows);
        let d1 = distinct(&rel).unwrap();
        assert!(d1.rows() <= rel.rows());
        let d2 = distinct(&d1).unwrap();
        assert_eq!(d1.rows(), d2.rows());
        let mut unique: Vec<(i64, i64)> = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(d1.rows(), unique.len());
    });
}

/// Filter + union are inverses of a partition: splitting a relation
/// by a predicate and unioning the parts preserves the multiset.
#[test]
fn partition_union_roundtrip() {
    check("partition_union_roundtrip", |rng| {
        let rows = rows(rng, 0..50, any, any);
        let threshold = any(rng);
        let rel = int_relation("k", "v", &rows);
        let pred = Expr::col("k").cmp(CmpOp::Lt, Expr::lit(threshold));
        let mask = sommelier_engine::eval::eval_mask(&pred, &rel).unwrap();
        let inverse: Vec<bool> = mask.iter().map(|b| !b).collect();
        let mut low = rel.filter(&mask);
        let high = rel.filter(&inverse);
        assert_eq!(low.rows() + high.rows(), rel.rows());
        low.union_in_place(&high).unwrap();
        let mut original: Vec<(i64, i64)> = rows.clone();
        let mut back: Vec<(i64, i64)> = (0..low.rows())
            .map(|i| {
                (
                    low.value(i, "k").unwrap().as_i64().unwrap(),
                    low.value(i, "v").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        original.sort_unstable();
        back.sort_unstable();
        assert_eq!(original, back);
    });
}
