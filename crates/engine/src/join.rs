//! Join implementations: multi-key hash join, cross join, and the
//! index join over a materialized FK join index.

use crate::candidates::{gallop, push_range, Candidates};
use crate::error::{EngineError, Result};
use crate::eval::{eval_column, eval_mask, eval_scalar};
use crate::expr::{Expr, Func};
use crate::relation::Relation;
use sommelier_storage::index::{key_run_end, HashIndex};
use sommelier_storage::time::{MS_PER_DAY, MS_PER_HOUR};
use sommelier_storage::{ColumnData, Value};
use std::ops::Range;
use std::sync::Arc;

/// Concatenate the columns of two row-aligned gathers into one relation,
/// carrying the left side's provenance through `left_idx`.
fn zip_sides(
    left: &Relation,
    right: &Relation,
    left_idx: &[u32],
    right_idx: &[u32],
) -> Relation {
    left.take(left_idx).hconcat(&right.take(right_idx)).expect("aligned gathers")
}

/// A hash-join build side constructed once and probed by many probe
/// relations — the per-chunk pipelines of a morsel-parallel aggregate
/// all share one [`JoinBuild`] instead of re-hashing the build relation
/// per chunk. Probing is read-only, so one build serves concurrent
/// workers.
///
/// The probe is late-materialised: it matches positions once per run
/// of equal probe keys and gathers only the build columns the build
/// was told to keep, so a probe whose consumers read no build column
/// and whose every row matches once hands the probe relation back
/// without copying a row.
pub struct JoinBuild {
    /// The build columns the join outputs.
    right: Relation,
    /// Build keys, evaluated on the full build relation.
    keys: Vec<Arc<ColumnData>>,
    index: HashIndex,
}

impl JoinBuild {
    /// Evaluate the build keys on the full build side and hash them;
    /// the join outputs only the build columns `keep` accepts.
    pub fn new(
        right: Relation,
        right_keys: &[Expr],
        keep: impl Fn(&str) -> bool,
    ) -> Result<JoinBuild> {
        if right_keys.is_empty() {
            return Err(EngineError::Exec("hash join needs at least one key".into()));
        }
        let keys: Vec<Arc<ColumnData>> = right_keys
            .iter()
            .map(|k| match k {
                Expr::Col(name) => Ok(Arc::clone(&right.columns()[right.resolve(name)?].1)),
                _ => eval_scalar(k, &right).map(Arc::new),
            })
            .collect::<Result<_>>()?;
        let refs: Vec<&ColumnData> = keys.iter().map(|k| &**k).collect();
        let index = HashIndex::build(&refs);
        let kept = right.columns().iter().filter(|(n, _)| keep(n)).cloned().collect();
        Ok(JoinBuild { right: Relation::from_shared(kept)?, keys, index })
    }

    /// Inner equi-join of `left` against the built side (probe order =
    /// `left` row order, so results are deterministic). One lookup
    /// serves each maximal run of equal probe keys.
    pub fn probe(&self, left: &Relation, left_keys: &[Expr]) -> Result<Relation> {
        if left_keys.len() != self.keys.len() {
            return Err(EngineError::Exec("hash join key arity mismatch".into()));
        }
        let lk =
            left_keys.iter().map(|k| eval_column(k, left)).collect::<Result<Vec<_>>>()?;
        let lk_refs: Vec<&ColumnData> = lk.iter().map(|c| c.as_ref()).collect();
        let rk_refs: Vec<&ColumnData> = self.keys.iter().map(|k| &**k).collect();
        let rows = left.rows();
        let gather_right = self.right.width() > 0;
        // `left_idx` stays `None` while every probe row so far matched
        // exactly one build row: the left side is then the probe
        // relation itself.
        let mut left_idx: Option<Vec<u32>> = None;
        let mut right_idx: Vec<u32> = Vec::with_capacity(if gather_right { rows } else { 0 });
        let mut hits: Vec<u32> = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = key_run_end(&lk_refs, start, rows);
            hits.clear();
            self.index.probe_into(&rk_refs, &lk_refs, start, &mut hits);
            if left_idx.is_none() && hits.len() != 1 {
                left_idx = Some((0..start as u32).collect());
            }
            if let Some(idx) = &mut left_idx {
                for l in start as u32..end as u32 {
                    idx.extend(std::iter::repeat_n(l, hits.len()));
                }
            }
            if gather_right {
                for _ in start..end {
                    right_idx.extend_from_slice(&hits);
                }
            }
            start = end;
        }
        let out = match &left_idx {
            Some(idx) => left.take(idx),
            None => left.clone(),
        };
        out.hconcat(&self.right.take(&right_idx))
    }

    /// Probe the candidate rows of a chunk. When the build keeps no
    /// column and every probe key is a sorted column (or an
    /// hour/day/time bucket of one), run ends are found by binary
    /// search and each key is evaluated at its run's start only: a run
    /// that hits exactly one build row stays a candidate range and a
    /// run that hits none is dropped, so no row is copied. Otherwise
    /// (unsorted keys, kept build columns, a run hitting several build
    /// rows) the candidates are gathered and probed by
    /// [`JoinBuild::probe`].
    pub(crate) fn probe_candidates(
        &self,
        mut cands: Candidates,
        left_keys: &[Expr],
    ) -> Result<Candidates> {
        if left_keys.len() != self.keys.len() {
            return Err(EngineError::Exec("hash join key arity mismatch".into()));
        }
        if self.right.width() == 0 {
            if let Some(keys) = sorted_keys(cands.relation(), left_keys) {
                if let Some(ranges) = self.sorted_runs(cands.ranges(), &keys) {
                    cands.set_ranges(ranges);
                    return Ok(cands);
                }
            }
        }
        Ok(Candidates::all(self.probe(&cands.materialize(), left_keys)?))
    }

    /// The unique-match runs of sorted probe keys inside `ranges`, or
    /// `None` at the first run hitting several build rows.
    fn sorted_runs(
        &self,
        ranges: &[Range<usize>],
        keys: &[SortedKey],
    ) -> Option<Vec<Range<usize>>> {
        let rk_refs: Vec<&ColumnData> = self.keys.iter().map(|k| &**k).collect();
        // One-row key columns, rewritten at each run's start (integer
        // and timestamp keys hash and compare alike).
        let mut at: Vec<ColumnData> =
            keys.iter().map(|_| ColumnData::Int64(vec![0])).collect();
        let mut out = Vec::new();
        let mut hits = Vec::new();
        for r in ranges {
            let mut start = r.start;
            while start < r.end {
                let mut end = r.end;
                for (k, col) in keys.iter().zip(&mut at) {
                    let (key, run_end) = k.run(start, end);
                    end = run_end;
                    if let ColumnData::Int64(v) = col {
                        v[0] = key;
                    }
                }
                hits.clear();
                let at_refs: Vec<&ColumnData> = at.iter().collect();
                self.index.probe_into(&rk_refs, &at_refs, 0, &mut hits);
                match hits.len() {
                    0 => {}
                    1 => push_range(&mut out, start..end),
                    _ => return None,
                }
                start = end;
            }
        }
        Some(out)
    }
}

/// A probe key whose value never decreases along a sorted column: the
/// column itself, or a fixed-width bucket of it.
struct SortedKey<'a> {
    values: &'a [i64],
    /// Bucket width (`None`: the column's own value).
    width: Option<i64>,
}

impl SortedKey<'_> {
    /// The key at row `start`, as the row-wise evaluation computes it,
    /// and the end of its run within `start..end`. The column being
    /// sorted, the run is the rows below the next key's first value:
    /// one probe at `end - 1` finds a run filling the range (a key
    /// constant over a chunk or a segment), a gallop any other.
    fn run(&self, start: usize, end: usize) -> (i64, usize) {
        let t = self.values[start];
        let (key, next) = match self.width {
            Some(w) => {
                let key = t.div_euclid(w) * w;
                (key, key.checked_add(w))
            }
            None => (t, t.checked_add(1)),
        };
        // No next key above `i64::MAX`: the run fills the range.
        let in_run = |i: usize| next.is_none_or(|n| self.values[i] < n);
        if in_run(end - 1) {
            return (key, end);
        }
        (key, gallop(start + 1..end - 1, in_run))
    }
}

/// Every probe key as a [`SortedKey`] over `rel`, or `None` if one is
/// not a sorted column or a bucket of one.
fn sorted_keys<'r>(rel: &'r Relation, keys: &[Expr]) -> Option<Vec<SortedKey<'r>>> {
    keys.iter()
        .map(|k| {
            let (name, width) = match k {
                Expr::Col(name) => (name, None),
                Expr::Call(f, args) => {
                    let width = match (f, args.as_slice()) {
                        (Func::HourBucket, [_]) => MS_PER_HOUR,
                        (Func::DayBucket, [_]) => MS_PER_DAY,
                        (
                            Func::TimeBucket,
                            [_, Expr::Lit(Value::Int(w) | Value::Time(w))],
                        ) if *w > 0 => *w,
                        _ => return None,
                    };
                    let Expr::Col(name) = &args[0] else { return None };
                    (name, Some(width))
                }
                _ => return None,
            };
            let i = rel.resolve(name).ok()?;
            if !rel.is_sorted(i) {
                return None;
            }
            Some(SortedKey { values: rel.column_at(i).as_i64().ok()?, width })
        })
        .collect()
}

/// Inner equi-join: hash-build on `right`, probe with `left`.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[Expr],
    right_keys: &[Expr],
) -> Result<Relation> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::Exec("hash join key arity mismatch".into()));
    }
    // `Relation` clones are shallow (shared columns), so building from
    // a reference costs nothing.
    JoinBuild::new(right.clone(), right_keys, |_| true)?.probe(left, left_keys)
}

/// Cross product (used by rule R2; inputs are metadata-sized).
pub fn cross_join(left: &Relation, right: &Relation) -> Result<Relation> {
    let ln = left.rows();
    let rn = right.rows();
    let mut left_idx = Vec::with_capacity(ln * rn);
    let mut right_idx = Vec::with_capacity(ln * rn);
    for l in 0..ln {
        for r in 0..rn {
            left_idx.push(l as u32);
            right_idx.push(r as u32);
        }
    }
    Ok(zip_sides(left, right, &left_idx, &right_idx))
}

/// Index join: `child` rows (which carry base-table provenance) are
/// mapped to their parents through the FK join index's position array —
/// "constructing the join index is actually computing the join itself"
/// (§VI-C). The parent's residual predicate is applied afterwards.
pub fn index_join(
    child: &Relation,
    parent: &Relation,
    positions: &[u32],
    parent_predicate: Option<&Expr>,
) -> Result<Relation> {
    let prov = child
        .provenance()
        .ok_or_else(|| EngineError::Exec("index join requires child provenance".into()))?;
    let child_idx: Vec<u32> = (0..child.rows() as u32).collect();
    let parent_idx: Vec<u32> = prov
        .rows
        .iter()
        .map(|&base_row| {
            positions.get(base_row as usize).copied().ok_or_else(|| {
                EngineError::Exec(format!("join index has no entry for base row {base_row}"))
            })
        })
        .collect::<Result<_>>()?;
    let joined = zip_sides(child, parent, &child_idx, &parent_idx);
    match parent_predicate {
        Some(pred) => {
            let mask = eval_mask(pred, &joined)?;
            Ok(joined.filter(&mask))
        }
        None => Ok(joined),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Func;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::rng::Rng;
    use sommelier_storage::Value;

    fn d() -> Relation {
        Relation::new(vec![
            ("D.file_id".into(), ColumnData::Int64(vec![1, 1, 2, 3])),
            ("D.sample_value".into(), ColumnData::Float64(vec![10.0, 11.0, 20.0, 30.0])),
            ("D.sample_time".into(), ColumnData::Timestamp(vec![0, 3_600_000, 7_200_000, 0])),
        ])
        .unwrap()
    }

    fn f() -> Relation {
        Relation::new(vec![
            ("F.file_id".into(), ColumnData::Int64(vec![1, 2])),
            ("F.station".into(), ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"]))),
        ])
        .unwrap()
    }

    #[test]
    fn hash_join_basic() {
        let out = hash_join(&d(), &f(), &[Expr::col("D.file_id")], &[Expr::col("F.file_id")])
            .unwrap();
        // file 3 has no parent; files 1,1,2 match.
        assert_eq!(out.rows(), 3);
        assert_eq!(out.value(0, "F.station").unwrap(), Value::Text("ISK".into()));
        assert_eq!(out.value(2, "F.station").unwrap(), Value::Text("FIAM".into()));
        assert_eq!(out.width(), 5);
    }

    #[test]
    fn hash_join_multi_key_with_computed_expr() {
        let h = Relation::new(vec![
            ("H.window_start_ts".into(), ColumnData::Timestamp(vec![0, 7_200_000])),
            ("H.window_max_val".into(), ColumnData::Float64(vec![100.0, 200.0])),
        ])
        .unwrap();
        let out = hash_join(
            &d(),
            &h,
            &[Expr::Call(Func::HourBucket, vec![Expr::col("D.sample_time")])],
            &[Expr::col("H.window_start_ts")],
        )
        .unwrap();
        // Rows at hours 0, 1, 2, 0 → hours 0 and 2 match (3 rows).
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn hash_join_empty_sides() {
        let empty_f = f().filter(&[false, false]);
        let out =
            hash_join(&d(), &empty_f, &[Expr::col("D.file_id")], &[Expr::col("F.file_id")])
                .unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(out.width(), 5, "schema survives empty joins");
    }

    #[test]
    fn hash_join_preserves_left_provenance() {
        let child = d().with_provenance("D", vec![100, 101, 102, 103]);
        let out =
            hash_join(&child, &f(), &[Expr::col("D.file_id")], &[Expr::col("F.file_id")])
                .unwrap();
        let p = out.provenance().unwrap();
        assert_eq!(p.rows, vec![100, 101, 102]);
    }

    /// The per-row probe loop that [`JoinBuild::probe`] replaced, kept
    /// as its oracle: one lookup per probe row, then the probe columns
    /// and the kept build columns gathered in probe order.
    fn per_row_join(
        left: &Relation,
        right: &Relation,
        left_keys: &[Expr],
        right_keys: &[Expr],
        keep: &dyn Fn(&str) -> bool,
    ) -> Relation {
        let lk: Vec<ColumnData> =
            left_keys.iter().map(|k| eval_scalar(k, left).unwrap()).collect();
        let rk: Vec<ColumnData> =
            right_keys.iter().map(|k| eval_scalar(k, right).unwrap()).collect();
        let lk_refs: Vec<&ColumnData> = lk.iter().collect();
        let rk_refs: Vec<&ColumnData> = rk.iter().collect();
        let index = HashIndex::build(&rk_refs);
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        let mut hits = Vec::new();
        for l in 0..left.rows() {
            hits.clear();
            index.probe_into(&rk_refs, &lk_refs, l, &mut hits);
            for &r in &hits {
                left_idx.push(l as u32);
                right_idx.push(r);
            }
        }
        let kept: Vec<_> = right.columns().iter().filter(|(n, _)| keep(n)).cloned().collect();
        let kept = Relation::from_shared(kept).unwrap();
        left.take(&left_idx).hconcat(&kept.take(&right_idx)).unwrap()
    }

    /// Names, types, values (floats by bits) and provenance agree.
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
        assert_eq!(
            got.provenance().map(|p| (&p.table, &p.rows)),
            want.provenance().map(|p| (&p.table, &p.rows)),
            "{what}: provenance"
        );
    }

    /// Probe `left` against `right` through [`JoinBuild`] and check it
    /// against the per-row oracle.
    fn check(
        left: &Relation,
        right: &Relation,
        left_keys: &[Expr],
        right_keys: &[Expr],
        keep: &dyn Fn(&str) -> bool,
        what: &str,
    ) -> Relation {
        let got = JoinBuild::new(right.clone(), right_keys, keep)
            .unwrap()
            .probe(left, left_keys)
            .unwrap();
        assert_same(&got, &per_row_join(left, right, left_keys, right_keys, keep), what);
        got
    }

    /// Probe the candidate `ranges` of `left` through
    /// [`JoinBuild::probe_candidates`] (key runs found by galloping
    /// when every probe key is flagged sorted and no build column is
    /// kept) and check the gathered rows against the per-row oracle
    /// over the same rows.
    fn check_candidates(
        left: &Relation,
        right: &Relation,
        left_keys: &[Expr],
        right_keys: &[Expr],
        keep: &dyn Fn(&str) -> bool,
        ranges: &[Range<usize>],
        what: &str,
    ) {
        let mut cands = Candidates::all(left.clone());
        cands.set_ranges(ranges.to_vec());
        let got = JoinBuild::new(right.clone(), right_keys, keep)
            .unwrap()
            .probe_candidates(cands, left_keys)
            .unwrap()
            .materialize();
        let want =
            per_row_join(&left.take_ranges(ranges), right, left_keys, right_keys, keep);
        assert_same(&got, &want, &format!("{what}, candidates {ranges:?}"));
    }

    const HOUR: i64 = 3_600_000;

    /// One key column of each shape, drawn from `domain` indices: the
    /// build side names it `F.<name>`, the probe side `D.<name>`.
    #[derive(Clone, Copy, Debug)]
    enum KeyKind {
        Int,
        Float,
        Text,
        /// Probe `HOUR_BUCKET(D.t)` against build hour starts.
        Hour,
        /// An integer key with one value on the whole probe side, as
        /// `D.file_id` has over a chunk.
        Const,
    }

    fn key_column(kind: KeyKind, picks: &[usize], probe: bool, rng: &mut Rng) -> ColumnData {
        const FLOATS: [f64; 5] = [0.0, -0.0, 1.5, f64::NAN, 2.5];
        const TEXTS: [&str; 5] = ["ISK", "FIAM", "BHE", "HHZ", "IV"];
        match kind {
            KeyKind::Int | KeyKind::Const => {
                ColumnData::Int64(picks.iter().map(|&p| p as i64).collect())
            }
            KeyKind::Float => ColumnData::Float64(picks.iter().map(|&p| FLOATS[p]).collect()),
            // Each side interns its own dictionary, in its own order.
            KeyKind::Text => {
                ColumnData::Text(TextColumn::from_strs(picks.iter().map(|&p| {
                    if probe {
                        TEXTS[p]
                    } else {
                        TEXTS[4 - p]
                    }
                })))
            }
            KeyKind::Hour => ColumnData::Timestamp(
                picks
                    .iter()
                    .map(|&p| {
                        p as i64 * HOUR + if probe { rng.below(3) as i64 * 1_000 } else { 0 }
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn run_probe_matches_the_per_row_oracle() {
        let shapes: [&[KeyKind]; 10] = [
            &[KeyKind::Int],
            &[KeyKind::Int, KeyKind::Int],
            &[KeyKind::Int, KeyKind::Int, KeyKind::Int],
            &[KeyKind::Float],
            &[KeyKind::Text],
            &[KeyKind::Text, KeyKind::Int],
            &[KeyKind::Int, KeyKind::Hour],
            &[KeyKind::Const],
            &[KeyKind::Const, KeyKind::Int],
            &[KeyKind::Int, KeyKind::Const],
        ];
        type Keep<'a> = (&'a str, &'a dyn Fn(&str) -> bool);
        let keeps: [Keep; 3] = [
            ("none", &|_: &str| false),
            ("all", &|_: &str| true),
            ("payload", &|n: &str| n == "F.name" || n == "F.x"),
        ];
        for seed in 1..=300u64 {
            let mut rng = Rng::new(seed);
            let shape = shapes[rng.below(shapes.len())];
            // Build side: few rows over a 4-value domain, so keys repeat
            // (one run matching several build rows) and the probe's
            // fifth value is missing. Zero rows happen too.
            let nb = rng.below(8);
            let mut right = vec![
                ("F.a".to_string(), ColumnData::Int64((0..nb as i64).collect())),
                (
                    "F.name".to_string(),
                    ColumnData::Text(TextColumn::from_strs(
                        (0..nb).map(|i| ["x", "y", "z"][i % 3]),
                    )),
                ),
                (
                    "F.x".to_string(),
                    ColumnData::Float64((0..nb).map(|i| i as f64 / 3.0).collect()),
                ),
            ];
            // Probe side: runs of equal keys (lengths 1-5), values drawn
            // independently per run, so runs interleave (A A B A). With
            // a constant key the probe side is longer and its runs are
            // sorted, so every integer key is a sorted column whose runs
            // merge into long ones.
            let constant = shape.iter().any(|k| matches!(k, KeyKind::Const));
            let c = rng.below(5);
            let mut runs: Vec<(Vec<usize>, usize)> = Vec::new();
            let mut np = 0;
            while np < rng.below(if constant { 200 } else { 40 }) {
                let key: Vec<usize> = shape
                    .iter()
                    .map(|k| if matches!(k, KeyKind::Const) { c } else { rng.below(5) })
                    .collect();
                let len = 1 + rng.below(5);
                np += len;
                runs.push((key, len));
            }
            if constant {
                runs.sort();
            }
            let mut left = vec![(
                "D.v".to_string(),
                ColumnData::Float64((0..np).map(|i| i as f64 * 0.25).collect()),
            )];
            let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
            for (k, &kind) in shape.iter().enumerate() {
                let build_picks: Vec<usize> = (0..nb).map(|_| rng.below(4)).collect();
                right.push((
                    format!("F.k{k}"),
                    key_column(kind, &build_picks, false, &mut rng),
                ));
                let probe_picks: Vec<usize> = runs
                    .iter()
                    .flat_map(|(key, len)| std::iter::repeat_n(key[k], *len))
                    .collect();
                left.push((
                    format!("D.k{k}"),
                    key_column(kind, &probe_picks, true, &mut rng),
                ));
                right_keys.push(Expr::col(format!("F.k{k}")));
                left_keys.push(match kind {
                    KeyKind::Hour => {
                        Expr::Call(Func::HourBucket, vec![Expr::col(format!("D.k{k}"))])
                    }
                    _ => Expr::col(format!("D.k{k}")),
                });
            }
            let provenance: Vec<u32> = (0..np as u32).map(|i| 10 + 2 * i).collect();
            let mut left = Relation::new(left).unwrap().with_provenance("D", provenance);
            // Flag every non-decreasing integer probe key sorted, as a
            // decoder would, so the candidate probe may gallop.
            for k in 0..shape.len() {
                let name = format!("D.k{k}");
                let sorted = left
                    .column(&name)
                    .unwrap()
                    .as_i64()
                    .is_ok_and(|v| v.windows(2).all(|w| w[0] <= w[1]));
                if sorted {
                    left = left.with_sorted(&name).unwrap();
                }
            }
            let right = Relation::new(right).unwrap();
            // Candidate ranges: every row, none, or stretches of 1-8
            // rows with gaps of 1-4.
            let ranges: Vec<Range<usize>> = match rng.below(4) {
                0 => (np > 0).then_some(0..np).into_iter().collect(),
                1 => Vec::new(),
                _ => {
                    let (mut out, mut at) = (Vec::new(), rng.below(3));
                    while at < np {
                        let end = (at + 1 + rng.below(8)).min(np);
                        out.push(at..end);
                        at = end + 1 + rng.below(4);
                    }
                    out
                }
            };
            for (name, keep) in keeps {
                let what = format!("seed {seed}, keys {shape:?}, keep {name}");
                check(&left, &right, &left_keys, &right_keys, keep, &what);
                check_candidates(
                    &left,
                    &right,
                    &left_keys,
                    &right_keys,
                    keep,
                    &ranges,
                    &what,
                );
            }
        }
    }

    #[test]
    fn run_probe_edge_cases() {
        let keep_all = |_: &str| true;
        let keep_none = |_: &str| false;
        let key = |name: &str| vec![Expr::col(name)];
        let probe = |ids: Vec<i64>| {
            let n = ids.len();
            Relation::new(vec![
                ("D.file_id".into(), ColumnData::Int64(ids)),
                (
                    "D.sample_value".into(),
                    ColumnData::Float64((0..n).map(|i| i as f64).collect()),
                ),
            ])
            .unwrap()
            .with_provenance("D", (100..100 + n as u32).collect())
        };
        let build = |ids: Vec<i64>| {
            let stations: Vec<&str> =
                ids.iter().map(|&i| if i % 2 == 0 { "EVEN" } else { "ODD" }).collect();
            Relation::new(vec![
                ("F.file_id".into(), ColumnData::Int64(ids.clone())),
                ("F.station".into(), ColumnData::Text(TextColumn::from_strs(stations))),
            ])
            .unwrap()
        };
        let (fk, dk) = (key("F.file_id"), key("D.file_id"));

        // Interleaved runs A A B A with a duplicated build key (B) and a
        // missing one (C).
        let left = probe(vec![1, 1, 2, 1, 3, 3]);
        let right = build(vec![1, 2, 2]);
        let out = check(&left, &right, &dk, &fk, &keep_all, "A A B A");
        assert_eq!(out.rows(), 5);
        assert_eq!(out.provenance().unwrap().rows, vec![100, 101, 102, 102, 103]);
        let out = check(&left, &right, &dk, &fk, &keep_none, "A A B A, keep none");
        assert_eq!(out.names(), vec!["D.file_id", "D.sample_value"]);

        // Keeping no build column and matching every row once returns
        // the probe relation itself.
        let left = probe(vec![1, 1, 1, 2, 2]);
        let right = build(vec![2, 1]);
        let out = check(&left, &right, &dk, &fk, &keep_none, "one-to-one, keep none");
        for (a, b) in out.columns().iter().zip(left.columns()) {
            assert!(Arc::ptr_eq(&a.1, &b.1), "{} was copied", a.0);
        }
        assert_eq!(out.provenance().unwrap().rows, vec![100, 101, 102, 103, 104]);
        // Keeping a build column gathers only that one; the probe side
        // is still shared.
        let out = check(&left, &right, &dk, &fk, &|n: &str| n == "F.station", "keep station");
        assert_eq!(out.names(), vec!["D.file_id", "D.sample_value", "F.station"]);
        assert!(Arc::ptr_eq(&out.columns()[0].1, &left.columns()[0].1));
        assert_eq!(out.value(3, "F.station").unwrap(), Value::Text("EVEN".into()));

        // Empty probe side, empty build side, both empty: the schema
        // survives.
        for (l, r, what) in [
            (probe(vec![]), build(vec![1, 2]), "empty probe"),
            (probe(vec![1, 2]), build(vec![]), "empty build"),
            (probe(vec![]), build(vec![]), "both empty"),
        ] {
            let out = check(&l, &r, &dk, &fk, &keep_all, what);
            assert_eq!((out.rows(), out.width()), (0, 4), "{what}");
            let out = check(&l, &r, &dk, &fk, &keep_none, what);
            assert_eq!((out.rows(), out.width()), (0, 2), "{what}");
        }

        // NaN float keys never match, not even a NaN build key; ±0.0
        // behave as the per-row probe rules (hashed by bits).
        let floats = |name: &str, v: Vec<f64>| {
            Relation::new(vec![(name.to_string(), ColumnData::Float64(v))]).unwrap()
        };
        let left = floats("D.x", vec![f64::NAN, f64::NAN, 0.0, -0.0, 1.0, 1.0]);
        let right = floats("F.x", vec![f64::NAN, 0.0, 1.0, 1.0]);
        let out = check(&left, &right, &key("D.x"), &key("F.x"), &keep_all, "NaN keys");
        assert!(out.column("D.x").unwrap().as_f64().unwrap().iter().all(|x| !x.is_nan()));

        // Text keys across two dictionaries match by content.
        let left = Relation::new(vec![(
            "D.st".into(),
            ColumnData::Text(TextColumn::from_strs(["B", "B", "A", "C", "A"])),
        )])
        .unwrap();
        let right = Relation::new(vec![
            ("F.st".into(), ColumnData::Text(TextColumn::from_strs(["C", "A", "X"]))),
            ("F.n".into(), ColumnData::Int64(vec![3, 1, 9])),
        ])
        .unwrap();
        let out = check(&left, &right, &key("D.st"), &key("F.st"), &keep_all, "text keys");
        assert_eq!(out.column("F.n").unwrap().as_i64().unwrap(), &[1, 3, 1]);

        // A computed key: one run per hour although every timestamp
        // differs.
        let left = Relation::new(vec![(
            "D.t".into(),
            ColumnData::Timestamp(vec![0, 1, 2, HOUR, HOUR + 5, 0, 3 * HOUR]),
        )])
        .unwrap();
        let right = Relation::new(vec![
            ("H.ts".into(), ColumnData::Timestamp(vec![0, HOUR])),
            ("H.max".into(), ColumnData::Float64(vec![1.0, 2.0])),
        ])
        .unwrap();
        let hour = vec![Expr::Call(Func::HourBucket, vec![Expr::col("D.t")])];
        let out = check(&left, &right, &hour, &key("H.ts"), &keep_all, "hour bucket");
        assert_eq!(
            out.column("H.max").unwrap().as_f64().unwrap(),
            &[1.0, 1.0, 1.0, 2.0, 2.0, 1.0]
        );
    }

    #[test]
    fn cross_join_cardinality() {
        let out = cross_join(&f(), &f()).unwrap();
        assert_eq!(out.rows(), 4);
        assert_eq!(out.width(), 4);
    }

    #[test]
    fn index_join_maps_rows() {
        // positions: base D row -> F row (from a JoinIndex).
        let positions = vec![0u32, 0, 1, 1];
        // Child: filtered D (rows 1 and 2 of base).
        let child =
            d().with_provenance("D", vec![0, 1, 2, 3]).filter(&[false, true, true, false]);
        let out = index_join(&child, &f(), &positions, None).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value(0, "F.station").unwrap(), Value::Text("ISK".into()));
        assert_eq!(out.value(1, "F.station").unwrap(), Value::Text("FIAM".into()));
    }

    #[test]
    fn index_join_applies_parent_predicate() {
        let positions = vec![0u32, 0, 1, 1];
        let child = d().with_provenance("D", vec![0, 1, 2, 3]);
        let pred = Expr::col("F.station").eq(Expr::lit("FIAM"));
        let out = index_join(&child, &f(), &positions, Some(&pred)).unwrap();
        assert_eq!(out.rows(), 2); // base rows 2,3 -> F row 1 (FIAM)
                                   // Provenance survives filtered index joins, enabling chaining.
        assert_eq!(out.provenance().unwrap().rows, vec![2, 3]);
    }

    #[test]
    fn index_join_without_provenance_fails() {
        let positions = vec![0u32; 4];
        assert!(index_join(&d(), &f(), &positions, None).is_err());
    }
}
