//! Candidate lists: the row selection a per-chunk pipeline carries.
//!
//! A [`Candidates`] is a relation plus ascending, disjoint row ranges
//! over it, the way MonetDB threads candidate lists through its
//! operators. The per-chunk pipeline ([`crate::exec::ChunkPipeline`])
//! starts from every row of the chunk's shared `Arc` columns and
//! narrows the ranges step by step instead of copying the surviving
//! rows at each one:
//!
//! - a comparison between a literal and a column flagged sorted
//!   ([`Relation::is_sorted`]) becomes a `partition_point` bound;
//! - any other conjunct is evaluated on the candidate rows only;
//! - a probe on sorted keys
//!   ([`crate::join::JoinBuild::probe_candidates`]) keeps the matched
//!   key runs as ranges, found by galloping ([`gallop`]);
//! - partial aggregation ([`crate::agg::partial_aggregate_over`]) folds
//!   the ranges in row order.
//!
//! Other steps (a probe on unsorted keys, a fan-out probe, kept build
//! columns, a computed projection, a raw chunk union) gather the
//! candidate rows once ([`Candidates::materialize`]) and continue over
//! the copy.
//!
//! Values evaluated "over the candidates" live in *candidate space*:
//! element `i` belongs to the `i`-th candidate row in ascending order.

use crate::error::Result;
use crate::eval::{eval_column, eval_mask, eval_scalar};
use crate::expr::{CmpOp, Expr};
use crate::relation::Relation;
use sommelier_storage::order::{self, SortKey};
use sommelier_storage::{ColumnData, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// A relation and the rows of it still selected.
#[derive(Debug)]
pub(crate) struct Candidates {
    rel: Relation,
    /// Ascending, disjoint and non-empty.
    ranges: Vec<Range<usize>>,
    /// Columns the rows are sorted by, lexicographically (positions in
    /// `rel`): within a run where the leading columns are fixed, the
    /// next one is sorted. Empty when nothing is known.
    order: Vec<usize>,
}

/// What [`Candidates::narrow`] answered by binary search, and what it
/// left for row-wise evaluation.
#[derive(Debug, Default)]
pub(crate) struct Narrowed<'e> {
    /// Conjuncts no order answers.
    pub residual: Vec<&'e Expr>,
    /// Leading columns of the lexicographic order that bounded the rows.
    pub prefix: usize,
    /// Bit `i`: a bound on sorted column `i` (outside the prefix).
    pub sorted: u64,
}

impl Candidates {
    /// Every row of `rel`.
    pub(crate) fn all(rel: Relation) -> Candidates {
        Candidates::ordered(rel, Vec::new())
    }

    /// Every row of `rel`, whose rows are sorted lexicographically by
    /// the columns at positions `order`.
    pub(crate) fn ordered(rel: Relation, order: Vec<usize>) -> Candidates {
        let n = rel.rows();
        Candidates { rel, ranges: (n > 0).then_some(0..n).into_iter().collect(), order }
    }

    /// The relation the ranges index.
    pub(crate) fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The columns the rows are sorted by, lexicographically.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The selected row ranges, ascending and disjoint.
    pub(crate) fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of selected rows.
    pub(crate) fn rows(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).sum()
    }

    /// Is every row of the relation selected?
    fn is_whole(&self) -> bool {
        self.rows() == self.rel.rows()
    }

    /// Replace the ranges (ascending, disjoint rows of the relation).
    pub(crate) fn set_ranges(&mut self, ranges: Vec<Range<usize>>) {
        self.ranges = ranges;
    }

    /// The selected rows as a relation of their own: shared columns when
    /// every row is selected, one slice copy per range otherwise.
    pub(crate) fn materialize(&self) -> Relation {
        if self.is_whole() {
            return self.rel.clone();
        }
        self.rel.take_ranges(&self.ranges)
    }

    /// `expr` over the candidate rows, in candidate space. A plain
    /// column borrows the relation's payload when every row is
    /// selected; otherwise only the columns `expr` reads are gathered.
    pub(crate) fn column(&self, expr: &Expr) -> Result<Cow<'_, ColumnData>> {
        if self.is_whole() {
            return eval_column(expr, &self.rel);
        }
        match expr {
            Expr::Col(name) => {
                Ok(Cow::Owned(self.rel.column(name)?.take_ranges(&self.ranges)))
            }
            _ => Ok(Cow::Owned(eval_scalar(expr, &self.gather_for(&[expr])?)?)),
        }
    }

    /// The columns `exprs` read (at least one column, so that literals
    /// broadcast to the right length), gathered over the candidate rows.
    fn gather_for(&self, exprs: &[&Expr]) -> Result<Relation> {
        let mut names: Vec<&str> = Vec::new();
        for c in exprs.iter().flat_map(|e| e.columns()) {
            if !names.contains(&c) {
                names.push(c);
            }
        }
        if names.is_empty() {
            names.extend(self.rel.columns().first().map(|(n, _)| n.as_str()));
        }
        Ok(self.rel.project_named(names.iter().map(|&n| (n, n)))?.take_ranges(&self.ranges))
    }

    /// Keep the candidates that satisfy `pred`: [`Candidates::narrow`]
    /// by binary search, then [`Candidates::keep`] the rest.
    pub(crate) fn filter(&mut self, pred: &Expr) -> Result<()> {
        let narrowed = self.narrow(pred);
        self.keep(&narrowed.residual)
    }

    /// Narrow the candidates with the conjuncts of `pred` that compare
    /// an ordered column with a literal coercing to its type (what the
    /// row-wise comparison uses), each by binary search:
    ///
    /// - on the lexicographic order, literal equalities on its leading
    ///   columns and the comparisons on the column after them, within
    ///   every candidate range;
    /// - on a column flagged sorted, any comparison, over the relation.
    ///
    /// Returns the other conjuncts, left for [`Candidates::keep`].
    pub(crate) fn narrow<'e>(&mut self, pred: &'e Expr) -> Narrowed<'e> {
        let mut out = Narrowed { residual: pred.conjuncts(), ..Narrowed::default() };
        // Prefix bounds, in key order: a column's own bounds apply
        // where the columns before it are fixed.
        let mut steps: Vec<(usize, CmpOp, SortKey<'e>)> = Vec::new();
        for &col in &self.order {
            let before = steps.len();
            out.residual.retain(|c| match self.bound_of(c) {
                Some((i, op, key)) if i == col => {
                    steps.push((i, op, key));
                    false
                }
                _ => true,
            });
            if steps.len() == before {
                break;
            }
            out.prefix += 1;
            if !steps[before..].iter().any(|s| s.1 == CmpOp::Eq) {
                break;
            }
        }
        if !steps.is_empty() {
            let rel = &self.rel;
            self.ranges.retain_mut(|r| {
                for &(i, op, key) in &steps {
                    *r = bounds_within(rel.column_at(i), r.clone(), op, key);
                }
                r.start < r.end
            });
        }
        // Bounds on columns sorted over the whole relation.
        let n = self.rel.rows();
        let mut residual = std::mem::take(&mut out.residual);
        residual.retain(|c| match self.bound_of(c) {
            Some((i, op, key)) if self.rel.is_sorted(i) => {
                let b = bounds_within(self.rel.column_at(i), 0..n, op, key);
                self.intersect(b);
                out.sorted |= 1 << i;
                false
            }
            _ => true,
        });
        out.residual = residual;
        out
    }

    /// Keep the candidates that satisfy every conjunct, evaluated on the
    /// candidate rows only (also when none are left, so type errors
    /// still surface): comparisons between a column and a literal
    /// first, then the other conjuncts on the rows those keep.
    pub(crate) fn keep(&mut self, residual: &[&Expr]) -> Result<()> {
        let (plain, computed): (Vec<&Expr>, Vec<&Expr>) =
            residual.iter().partition(|c| c.as_range().is_some());
        self.keep_all(&plain)?;
        self.keep_all(&computed)
    }

    /// Keep the candidates that satisfy every conjunct of `residual`,
    /// evaluated together over the candidate rows.
    fn keep_all(&mut self, residual: &[&Expr]) -> Result<()> {
        if residual.is_empty() {
            return Ok(());
        }
        let gathered;
        let rows = if self.is_whole() {
            &self.rel
        } else {
            gathered = self.gather_for(residual)?;
            &gathered
        };
        let mut mask = eval_mask(residual[0], rows)?;
        for conjunct in &residual[1..] {
            for (m, k) in mask.iter_mut().zip(eval_mask(conjunct, rows)?) {
                *m &= k;
            }
        }
        self.select(true_runs(&mask));
        Ok(())
    }

    /// `conjunct` as `(column position, op, key)` when it compares a
    /// column of the relation with a literal that coerces to the
    /// column's type. Float columns have no total order and never
    /// qualify.
    fn bound_of<'e>(&self, conjunct: &'e Expr) -> Option<(usize, CmpOp, SortKey<'e>)> {
        let (name, op, lit) = conjunct.as_range()?;
        let i = self.rel.resolve(name).ok()?;
        Some((i, op, literal_key(self.rel.column_at(i), lit)?))
    }

    /// Intersect every range with `b`.
    fn intersect(&mut self, b: Range<usize>) {
        self.ranges.retain_mut(|r| {
            *r = r.start.max(b.start)..r.end.min(b.end);
            r.start < r.end
        });
    }

    /// Keep the candidates at the candidate-space positions `kept`
    /// (ascending, disjoint intervals).
    pub(crate) fn select(&mut self, kept: impl IntoIterator<Item = Range<usize>>) {
        let mut out: Vec<Range<usize>> = Vec::new();
        // `ranges[ri]` holds candidates `base..base + ranges[ri].len()`.
        let (mut ri, mut base) = (0, 0);
        for k in kept {
            let mut s = k.start;
            while s < k.end {
                while base + self.ranges[ri].len() <= s {
                    base += self.ranges[ri].len();
                    ri += 1;
                }
                let r = &self.ranges[ri];
                let e = k.end.min(base + r.len());
                push_range(&mut out, r.start + (s - base)..r.start + (e - base));
                s = e;
            }
        }
        self.ranges = out;
    }

    /// Apply a projection. Renaming plain columns keeps the ranges (and
    /// the sortedness flags, but not the lexicographic order); a
    /// computed column gathers the candidates first and evaluates over
    /// the copy.
    pub(crate) fn project(self, exprs: &[(String, Expr)]) -> Result<Candidates> {
        let plain: Option<Vec<(&str, &str)>> = exprs
            .iter()
            .map(|(name, e)| match e {
                Expr::Col(src) => Some((name.as_str(), src.as_str())),
                _ => None,
            })
            .collect();
        if let Some(plain) = plain {
            let rel = self.rel.project_named(plain)?;
            return Ok(Candidates { rel, ranges: self.ranges, order: Vec::new() });
        }
        let part = self.materialize();
        // Plain column references still share the gathered payload;
        // only computed expressions materialize a new column.
        let cols = exprs
            .iter()
            .map(|(name, e)| {
                let col = match e {
                    Expr::Col(src) => Arc::clone(&part.columns()[part.resolve(src)?].1),
                    _ => Arc::new(eval_scalar(e, &part)?),
                };
                Ok((name.clone(), col))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Candidates::all(Relation::from_shared(cols)?))
    }
}

/// `lit` as a bound on `col`, coerced as the row-wise comparison
/// coerces it: an integer or timestamp value, or text. `None` for float
/// columns (no total order) and literals the comparison would reject.
fn literal_key<'v>(col: &ColumnData, lit: &'v Value) -> Option<SortKey<'v>> {
    match col {
        ColumnData::Int64(_) | ColumnData::Timestamp(_) => {
            Some(SortKey::Int(lit.coerce_to(col.data_type()).ok()?.as_i64().ok()?))
        }
        ColumnData::Text(_) => Some(SortKey::Text(lit.as_str().ok()?)),
        ColumnData::Float64(_) => None,
    }
}

/// How row `i` of `col` compares with `key`, in the row order storage
/// keeps ([`order::cmp_key`]); `key` is an integer or text of the
/// column's type family.
pub(crate) fn cmp_key(col: &ColumnData, i: usize, key: SortKey) -> Ordering {
    order::cmp_key(col, i, key).expect("an integer or text key of the column's family")
}

/// The first row in `r` where `pred` fails, given that it holds on a
/// prefix of `r`.
pub(crate) fn partition(r: Range<usize>, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (r.start, r.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition`], galloping from `r.start`: the probes double in
/// distance until `pred` fails, then bisect. Costs `O(log k)` for an
/// answer `k` rows in, so a walk over ascending keys stays local.
pub(crate) fn gallop(r: Range<usize>, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (r.start, r.end, 1);
    while lo < hi {
        let probe = (lo + step - 1).min(hi - 1);
        if !pred(probe) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    partition(lo..hi, pred)
}

/// The rows of `r` where `col op key` holds, given that `col` is
/// non-decreasing over `r`.
pub(crate) fn bounds_within(
    col: &ColumnData,
    r: Range<usize>,
    op: CmpOp,
    key: SortKey,
) -> Range<usize> {
    let lt = partition(r.clone(), |i| cmp_key(col, i, key).is_lt());
    let le = gallop(lt..r.end, |i| cmp_key(col, i, key).is_le());
    match op {
        CmpOp::Eq => lt..le,
        CmpOp::Lt => r.start..lt,
        CmpOp::Le => r.start..le,
        CmpOp::Gt => le..r.end,
        CmpOp::Ge => lt..r.end,
        CmpOp::Ne => unreachable!("as_range excludes <>"),
    }
}

/// Append `r` to ascending ranges, merging it into the last one when
/// they touch.
pub(crate) fn push_range(out: &mut Vec<Range<usize>>, r: Range<usize>) {
    match out.last_mut() {
        Some(last) if last.end == r.start => last.end = r.end,
        _ if r.is_empty() => {}
        _ => out.push(r),
    }
}

/// The maximal runs of `true` in `mask`.
fn true_runs(mask: &[bool]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = i + mask[i..].iter().position(|&k| k)?;
        i = start + mask[start..].iter().position(|&k| !k).unwrap_or(mask.len() - start);
        Some(start..i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{merge_partials, partial_aggregate, partial_aggregate_over};
    use crate::exec::ChunkPipeline;
    use crate::expr::{AggFunc, ArithOp, Func};
    use crate::join::JoinBuild;
    use crate::physical::ChunkOp;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::rng::Rng;
    use sommelier_storage::Value;

    const HOUR: i64 = 3_600_000;

    /// One generated chunk: `D.file_id` (constant), `D.seg_id`
    /// (ascending), `D.sample_time` and `D.sample_value`, with the
    /// sortedness flags a decoder could prove. Segments hold 0-40
    /// samples 0-20 minutes apart (0: duplicate timestamps) and start
    /// near hour boundaries, so hour runs straddle segment boundaries.
    /// With `sorted`, each segment starts at or after the previous
    /// one's last sample; otherwise segments may overlap and
    /// `D.sample_time` is not flagged.
    fn chunk(rng: &mut Rng, sorted: bool) -> Relation {
        let (mut seg, mut time, mut value) = (Vec::new(), Vec::new(), Vec::new());
        let mut t = rng.below(4) as i64 * HOUR - 600_000;
        for s in 0..rng.below(6) as i64 {
            if !sorted && rng.one_in(2) {
                t -= rng.below(3) as i64 * HOUR;
            }
            let step = rng.below(3) as i64 * 600_000;
            for _ in 0..rng.below(41) {
                seg.push(10 + s);
                time.push(t);
                value.push(rng.below(2000) as f64 * 0.37 - 300.0);
                t += step;
            }
            t += rng.below(2) as i64 * HOUR;
        }
        let n = seg.len();
        let sorted = time.windows(2).all(|w| w[0] <= w[1]);
        let rel = Relation::new(vec![
            ("D.file_id".into(), ColumnData::Int64(vec![7; n])),
            ("D.seg_id".into(), ColumnData::Int64(seg)),
            ("D.sample_time".into(), ColumnData::Timestamp(time)),
            ("D.sample_value".into(), ColumnData::Float64(value)),
        ])
        .unwrap()
        .with_sorted("D.file_id")
        .unwrap()
        .with_sorted("D.seg_id")
        .unwrap();
        if sorted {
            rel.with_sorted("D.sample_time").unwrap()
        } else {
            rel
        }
    }

    /// A literal for a comparison against `times`: an existing value
    /// (boundary-equal), one just outside either end, or a value in
    /// between; as a timestamp or a plain integer.
    fn time_literal(rng: &mut Rng, times: &[i64]) -> Expr {
        let x = match (rng.below(4), times) {
            (_, []) => rng.below(5) as i64 * HOUR,
            (0, _) => times[0] - 1,
            (1, _) => times[times.len() - 1] + 1,
            (2, _) => times[rng.below(times.len())],
            _ => times[0] + rng.below(5) as i64 * HOUR / 2,
        };
        Expr::lit(if rng.one_in(3) { Value::Int(x) } else { Value::Time(x) })
    }

    /// A random comparison between `D.sample_time` and a literal, the
    /// literal on either side.
    fn window_conjunct(rng: &mut Rng, times: &[i64]) -> Expr {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let op = ops[rng.below(ops.len())];
        let lit = time_literal(rng, times);
        let col = Expr::col("D.sample_time");
        if rng.one_in(2) {
            col.cmp(op, lit)
        } else {
            lit.cmp(op.flip(), col)
        }
    }

    /// A conjunct no range answers: on the values, or `<>`.
    fn residual_conjunct(rng: &mut Rng, times: &[i64]) -> Expr {
        match rng.below(3) {
            0 => Expr::col("D.sample_value").cmp(CmpOp::Gt, Expr::lit(0.0)),
            1 => Expr::col("D.sample_time").cmp(CmpOp::Ne, time_literal(rng, times)),
            _ => Expr::col("sample_value").cmp(CmpOp::Le, Expr::lit(200.0)),
        }
    }

    /// A build side: probe keys, build relation, build keys and whether
    /// it keeps `F.station`. Unique or fan-out; keyed on ids, on
    /// hour/day/time buckets (alone, their runs straddle segments) or
    /// on a computed key no binary search can follow.
    fn build_side(rng: &mut Rng) -> (Vec<Expr>, Relation, Vec<Expr>, bool) {
        let t = || Expr::col("D.sample_time");
        let bucket = |f: Func| Expr::Call(f, vec![t()]);
        let segs: Vec<i64> = (10..16).filter(|_| !rng.one_in(3)).collect();
        let hours: Vec<i64> = (-1..8).filter(|_| !rng.one_in(3)).map(|h| h * HOUR).collect();
        let (probe, rows): (Vec<Expr>, Vec<Vec<i64>>) = match rng.below(6) {
            0 => (
                vec![Expr::col("D.seg_id"), Expr::col("D.file_id")],
                segs.iter().map(|&s| vec![s, 7]).collect(),
            ),
            1 => (
                vec![Expr::col("D.seg_id"), bucket(Func::HourBucket)],
                segs.iter().flat_map(|&s| hours.iter().map(move |&h| vec![s, h])).collect(),
            ),
            2 => (vec![bucket(Func::HourBucket)], hours.iter().map(|&h| vec![h]).collect()),
            3 => (vec![Expr::col("D.file_id"), bucket(Func::DayBucket)], vec![vec![7, 0]]),
            4 => (
                vec![Expr::Call(Func::TimeBucket, vec![t(), Expr::lit(HOUR / 2)])],
                hours.iter().flat_map(|&h| [vec![h], vec![h + HOUR / 2]]).collect(),
            ),
            _ => (
                vec![Expr::Arith(
                    ArithOp::Add,
                    Box::new(Expr::col("D.seg_id")),
                    Box::new(Expr::lit(1i64)),
                )],
                segs.iter().map(|&s| vec![s + 1]).collect(),
            ),
        };
        let mut rows = rows;
        if rng.one_in(4) && !rows.is_empty() {
            let dup = rows[rng.below(rows.len())].clone();
            rows.push(dup);
        }
        let mut right: Vec<(String, ColumnData)> = (0..probe.len())
            .map(|k| {
                let col: Vec<i64> = rows.iter().map(|r| r[k]).collect();
                let col = match &probe[k] {
                    Expr::Call(..) => ColumnData::Timestamp(col),
                    _ => ColumnData::Int64(col),
                };
                (format!("B.k{k}"), col)
            })
            .collect();
        right.push((
            "F.station".into(),
            ColumnData::Text(TextColumn::from_strs(
                (0..rows.len()).map(|i| ["ISK", "FIAM"][i % 2]),
            )),
        ));
        let keys = (0..probe.len()).map(|k| Expr::col(format!("B.k{k}"))).collect();
        (probe, Relation::new(right).unwrap(), keys, rng.one_in(4))
    }

    /// Names, types and values (floats by bits) agree.
    fn assert_same(got: &Relation, want: &Relation, what: &str) {
        assert_eq!(got.names(), want.names(), "{what}");
        assert_eq!(got.types(), want.types(), "{what}");
        assert_eq!(got.rows(), want.rows(), "{what}");
        for (i, (name, col)) in want.columns().iter().enumerate() {
            for r in 0..want.rows() {
                let (a, b) = (got.column_at(i).get(r), col.get(r));
                let same = match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => a == b,
                };
                assert!(same, "{what}: {name}[{r}] = {a:?}, want {b:?}");
            }
        }
    }

    /// The candidate pipeline bit-equals the mask-then-copy pipeline
    /// on generated chunks, windows, residuals, builds and aggregates.
    #[test]
    fn candidate_pipeline_matches_the_mask_oracle() {
        let columns: Vec<String> =
            ["D.file_id", "D.seg_id", "D.sample_time", "D.sample_value"]
                .map(String::from)
                .into();
        // Empty and one-row chunks seen.
        let (mut empty, mut one_row) = (0, 0);
        for seed in 1..=1500u64 {
            let mut rng = Rng::new(seed);
            let sorted = !rng.one_in(3);
            let chunk = chunk(&mut rng, sorted);
            empty += usize::from(chunk.rows() == 0);
            one_row += usize::from(chunk.rows() == 1);
            let times = chunk.column("D.sample_time").unwrap().as_i64().unwrap().to_vec();
            // The selection: 0-2 window conjuncts, maybe a residual;
            // sometimes one covering the whole chunk.
            let mut conjuncts: Vec<Expr> =
                (0..rng.below(3)).map(|_| window_conjunct(&mut rng, &times)).collect();
            if rng.one_in(6) {
                conjuncts
                    .push(Expr::col("D.sample_time").cmp(CmpOp::Ge, Expr::lit(i64::MIN)));
            }
            if rng.one_in(3) {
                conjuncts.push(residual_conjunct(&mut rng, &times));
            }
            let predicate = Expr::conjoin(conjuncts);
            let join = (!rng.one_in(3)).then(|| build_side(&mut rng));
            let build = join.as_ref().map(|(_, right, keys, keep_station)| {
                let keep = *keep_station;
                JoinBuild::new(right.clone(), keys, move |n| keep && n == "F.station")
                    .unwrap()
            });
            let keeps_station = join.as_ref().is_some_and(|j| j.3);
            // Ops after the probe: a residual window, a plain rename or
            // a computed projection.
            let mut ops = Vec::new();
            if rng.one_in(3) {
                ops.push(ChunkOp::Filter(window_conjunct(&mut rng, &times)));
            }
            let (v, t, s) = match rng.below(4) {
                0 => {
                    ops.push(ChunkOp::Project(vec![
                        ("v".into(), Expr::col("D.sample_value")),
                        ("t".into(), Expr::col("D.sample_time")),
                        ("s".into(), Expr::col("D.seg_id")),
                    ]));
                    if rng.one_in(2) {
                        ops.push(ChunkOp::Filter(
                            Expr::lit(times.first().copied().unwrap_or(0))
                                .cmp(CmpOp::Lt, Expr::col("t")),
                        ));
                    }
                    ("v", "t", "s")
                }
                1 => {
                    let doubled = Expr::Arith(
                        ArithOp::Mul,
                        Box::new(Expr::col("D.sample_value")),
                        Box::new(Expr::lit(2.0)),
                    );
                    ops.push(ChunkOp::Project(vec![
                        ("v".into(), doubled),
                        ("t".into(), Expr::col("D.sample_time")),
                        ("s".into(), Expr::col("D.seg_id")),
                    ]));
                    ("v", "t", "s")
                }
                _ => ("D.sample_value", "D.sample_time", "D.seg_id"),
            };
            let group_by: Vec<(String, Expr)> = match rng.below(4) {
                0 => vec![("s".into(), Expr::col(s))],
                1 => vec![("h".into(), Expr::Call(Func::HourBucket, vec![Expr::col(t)]))],
                2 if keeps_station && s == "D.seg_id" => {
                    vec![("st".into(), Expr::col("F.station"))]
                }
                _ => vec![],
            };
            let aggs: Vec<(String, AggFunc, Expr)> = vec![
                ("n".into(), AggFunc::Count, Expr::lit(1i64)),
                ("nv".into(), AggFunc::Count, Expr::col(v)),
                ("sum".into(), AggFunc::Sum, Expr::col(v)),
                ("avg".into(), AggFunc::Avg, Expr::col(v)),
                ("min".into(), AggFunc::Min, Expr::col(v)),
                ("max".into(), AggFunc::Max, Expr::col(t)),
                ("sd".into(), AggFunc::StdDev, Expr::col(v)),
                ("st".into(), AggFunc::Sum, Expr::Call(Func::Abs, vec![Expr::col(v)])),
            ];
            let pipeline = ChunkPipeline {
                columns: &columns,
                predicate: predicate.as_ref(),
                build: build.as_ref().zip(join.as_ref()).map(|(b, j)| (b, j.0.as_slice())),
                ops: &ops,
            };
            let what = format!("seed {seed}: where {predicate:?}, ops {ops:?}");
            let want = pipeline.run_masked(&chunk).unwrap();
            assert_same(&pipeline.run(&chunk).unwrap(), &want, &what);
            let got = partial_aggregate_over(
                &pipeline.candidates(&chunk).unwrap(),
                &group_by,
                &aggs,
            )
            .unwrap();
            let want = partial_aggregate(&want, &group_by, &aggs).unwrap();
            assert_same(
                &merge_partials(vec![got], &group_by, &aggs).unwrap(),
                &merge_partials(vec![want], &group_by, &aggs).unwrap(),
                &format!("{what}, group {group_by:?}"),
            );
        }
        assert!(empty > 0 && one_row > 0, "{empty} empty, {one_row} one-row chunks");
    }

    #[test]
    fn true_runs_and_select_map_back_to_rows() {
        let runs: Vec<_> =
            true_runs(&[true, true, false, true, false, false, true]).collect();
        assert_eq!(runs, vec![0..2, 3..4, 6..7]);
        assert_eq!(true_runs(&[]).count(), 0);
        assert_eq!(true_runs(&[false, false]).count(), 0);

        let rel =
            Relation::new(vec![("x".into(), ColumnData::Int64((0..20).collect()))]).unwrap();
        let mut c = Candidates::all(rel);
        c.set_ranges(vec![2..5, 8..10, 12..20]);
        // Candidates 2..6 are rows 4, 8, 9 and 12 (they span all three
        // ranges); candidates 7 and 8 are rows 14 and 15.
        c.select([2..6, 7..9]);
        assert_eq!(c.ranges(), &[4..5, 8..10, 12..13, 14..16]);
    }

    #[test]
    fn run_end_gallops_to_the_first_differing_row() {
        let v = [1, 1, 1, 1, 1, 2, 2, 3];
        for start in 0..v.len() {
            let want = (start..v.len()).find(|&i| v[i] != v[start]).unwrap_or(v.len());
            let end = gallop(start + 1..v.len(), |i| v[i] == v[start]);
            assert_eq!(end, want, "start {start}");
        }
        assert_eq!(gallop(2..3, |i| v[i] == 1), 3, "bounded by the range");
        assert_eq!(gallop(3..3, |_| unreachable!()), 3, "empty range");
    }
}
