//! Hash aggregation with group-by, decomposed into **partial
//! aggregation** and **merge**.
//!
//! Supports the paper's aggregate set: COUNT, SUM, AVG, MIN, MAX and
//! STDDEV (population — what the `H.window_std_dev` summary metadata
//! stores). Every one of them is *mergeable*: a partition's rows
//! collapse into a running state, and states from different partitions
//! combine without revisiting rows. That is what lets the
//! chunk-parallel executor
//! ([`crate::physical::PhysicalPlan::PartialAggUnion`]) aggregate each
//! chunk independently and never materialize the union.
//!
//! Each function keeps only the state its answer reads, and folds it
//! with a kernel of its own, chosen once per aggregate: COUNT adds
//! range lengths, SUM and AVG keep count + sum, STDDEV count + sum +
//! sum-of-squares, MIN and MAX their one extreme. A kernel adds the
//! same values in the same order into one accumulator as a per-row
//! update of every field would, so answers are bit-identical to it.
//!
//! Determinism: [`merge_partials`] combines partitions in the order
//! given, and groups keep first-appearance order across that sequence —
//! so a merge over per-chunk partials in chunk order produces the same
//! relation no matter how many workers computed them. [`aggregate`]
//! (the serial path) is partial-aggregation over a single partition
//! followed by the same merge, so serial and parallel plans share one
//! code path and one rounding behavior.
//!
//! A global aggregate (no GROUP BY) over an empty input yields an
//! empty relation (this engine's columns carry no NULLs; the paper's
//! workload never aggregates empty inputs).

use crate::candidates::Candidates;
use crate::error::{EngineError, Result};
use crate::expr::{AggFunc, Expr};
use crate::relation::Relation;
use sommelier_storage::index::{hash_row, key_run_end, rows_equal};
use sommelier_storage::{ColumnData, DataType};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Running state for one aggregate over one group. Its kernel (see
/// [`fold`]) writes only the fields its function's
/// [`AggState::finish`] reads; the others keep their initial values.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    min_i: i64,
    max_i: i64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            min_i: i64::MAX,
            max_i: i64::MIN,
        }
    }

    /// Fold another partition's state into this one.
    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.min_i = self.min_i.min(other.min_i);
        self.max_i = self.max_i.max(other.max_i);
    }

    fn finish(&self, func: AggFunc, input_type: DataType) -> Result<FinishedAgg> {
        Ok(match func {
            AggFunc::Count => FinishedAgg::Int(self.count as i64),
            AggFunc::Sum => FinishedAgg::Float(self.sum),
            AggFunc::Avg => FinishedAgg::Float(self.sum / self.count as f64),
            AggFunc::StdDev => {
                let n = self.count as f64;
                let var = (self.sum_sq / n) - (self.sum / n) * (self.sum / n);
                FinishedAgg::Float(var.max(0.0).sqrt())
            }
            AggFunc::Min => match input_type {
                DataType::Float64 => FinishedAgg::Float(self.min),
                DataType::Int64 => FinishedAgg::Int(self.min_i),
                DataType::Timestamp => FinishedAgg::Time(self.min_i),
                DataType::Text => {
                    return Err(EngineError::Exec("MIN over text not supported".into()))
                }
            },
            AggFunc::Max => match input_type {
                DataType::Float64 => FinishedAgg::Float(self.max),
                DataType::Int64 => FinishedAgg::Int(self.max_i),
                DataType::Timestamp => FinishedAgg::Time(self.max_i),
                DataType::Text => {
                    return Err(EngineError::Exec("MAX over text not supported".into()))
                }
            },
        })
    }
}

enum FinishedAgg {
    Int(i64),
    Float(f64),
    Time(i64),
}

/// An aggregate argument's element, folded as `f64` the way SUM, AVG
/// and STDDEV read it.
trait Num: Copy {
    fn f64(self) -> f64;
}

impl Num for f64 {
    fn f64(self) -> f64 {
        self
    }
}

impl Num for i64 {
    fn f64(self) -> f64 {
        self as f64
    }
}

// The kernels: each folds a slice of values that all belong to one
// group, in row order.

/// SUM and AVG: `count` once per slice, `sum` in a register.
fn sum<T: Num>(st: &mut AggState, v: &[T]) {
    st.count += v.len() as u64;
    st.sum = v.iter().fold(st.sum, |s, &x| s + x.f64());
}

/// STDDEV: `count`, `sum` and `sum_sq`.
fn stddev<T: Num>(st: &mut AggState, v: &[T]) {
    st.count += v.len() as u64;
    let (mut s, mut sq) = (st.sum, st.sum_sq);
    for &x in v {
        let x = x.f64();
        s += x;
        sq += x * x;
    }
    (st.sum, st.sum_sq) = (s, sq);
}

fn min_f(st: &mut AggState, v: &[f64]) {
    st.min = v.iter().fold(st.min, |m, &x| m.min(x));
}

fn max_f(st: &mut AggState, v: &[f64]) {
    st.max = v.iter().fold(st.max, |m, &x| m.max(x));
}

fn min_i(st: &mut AggState, v: &[i64]) {
    st.min_i = v.iter().fold(st.min_i, |m, &x| m.min(x));
}

fn max_i(st: &mut AggState, v: &[i64]) {
    st.max_i = v.iter().fold(st.max_i, |m, &x| m.max(x));
}

/// Result column type of `func` over an input of `input_type`.
pub fn output_type(func: AggFunc, input_type: DataType) -> DataType {
    match func {
        AggFunc::Count => DataType::Int64,
        AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev => DataType::Float64,
        AggFunc::Min | AggFunc::Max => input_type,
    }
}

/// The collapsed aggregation state of one input partition (e.g. one
/// chunk of a chunk union): per-group running states plus one
/// representative key row per group, in first-seen order.
#[derive(Debug)]
pub struct PartialAgg {
    /// Group-key columns, one row per group.
    keys: Vec<ColumnData>,
    /// `states[group][agg]`.
    states: Vec<Vec<AggState>>,
    /// Input types of the aggregate arguments (recorded even for empty
    /// partitions, so the merge can type its output).
    arg_types: Vec<DataType>,
}

impl PartialAgg {
    /// Number of groups discovered in this partition.
    pub fn groups(&self) -> usize {
        self.states.len()
    }
}

/// Collapse one partition into per-group aggregate states.
///
/// Plain column references are read in place (only computed group keys
/// and arguments materialize a column), and each argument accumulates
/// column-major, one type dispatch per column. Every state still folds
/// its rows in row order, so sums are bit-identical to a row-at-a-time
/// fold.
pub fn partial_aggregate(
    input: &Relation,
    group_by: &[(String, Expr)],
    aggs: &[(String, AggFunc, Expr)],
) -> Result<PartialAgg> {
    // Share the columns, not the provenance: aggregation never reads
    // it, and cloning it would copy a row list.
    let rel = Relation::from_shared(input.columns().to_vec())?;
    partial_aggregate_over(&Candidates::all(rel), group_by, aggs)
}

/// [`partial_aggregate`] over the candidate rows of a relation: plain
/// column arguments fold slice by slice straight from the relation's
/// payload, and group keys and computed arguments are evaluated over
/// the candidates. Each aggregate folds with its function's kernel,
/// one call per piece of a slice that lies in one run of equal group
/// keys (the whole slice without `GROUP BY`); `COUNT` adds the runs'
/// lengths. Rows fold in ascending order, so the states are
/// bit-identical to aggregating the gathered rows.
pub(crate) fn partial_aggregate_over(
    input: &Candidates,
    group_by: &[(String, Expr)],
    aggs: &[(String, AggFunc, Expr)],
) -> Result<PartialAgg> {
    let rows = input.rows();
    let key_cols =
        group_by.iter().map(|(_, e)| input.column(e)).collect::<Result<Vec<_>>>()?;
    let key_refs: Vec<&ColumnData> = key_cols.iter().map(|c| c.as_ref()).collect();

    // Group discovery (representative row per group); a global
    // aggregate has one group, if any rows exist.
    let mut reps: Vec<u32> = Vec::new();
    let (grouped, whole);
    let runs: &[GroupRun] = if !group_by.is_empty() {
        grouped = discover_groups(&key_refs, rows, &mut reps);
        &grouped
    } else if rows > 0 {
        reps.push(0);
        whole = [(0, rows as u32)];
        &whole
    } else {
        &[]
    };

    let mut states: Vec<Vec<AggState>> = vec![vec![AggState::new(); aggs.len()]; reps.len()];
    let mut arg_types = Vec::with_capacity(aggs.len());
    let dense = 0..rows;
    for (ai, (_, func, e)) in aggs.iter().enumerate() {
        // A plain column is read in place, range by range; anything
        // else is evaluated over the candidates first.
        let (col, ranges) = match e {
            Expr::Col(name) => {
                (Cow::Borrowed(input.relation().column(name)?), input.ranges())
            }
            // COUNT reads no values, only its argument's type; a
            // literal argument (`COUNT(*)`) is never broadcast.
            Expr::Lit(v) if *func == AggFunc::Count && v.data_type().is_some() => {
                arg_types.push(v.data_type().expect("checked"));
                count_rows(&mut states, ai, runs);
                continue;
            }
            _ => (input.column(e)?, std::slice::from_ref(&dense)),
        };
        arg_types.push(col.data_type());
        let st = &mut states;
        match (func, col.as_ref()) {
            (AggFunc::Count, _) => count_rows(st, ai, runs),
            (_, ColumnData::Float64(v)) => {
                let v = slices(v, ranges);
                match func {
                    AggFunc::Min => fold(st, ai, runs, v, min_f),
                    AggFunc::Max => fold(st, ai, runs, v, max_f),
                    AggFunc::StdDev => fold(st, ai, runs, v, stddev),
                    AggFunc::Sum | AggFunc::Avg => fold(st, ai, runs, v, sum),
                    AggFunc::Count => unreachable!("counted above"),
                }
            }
            (_, ColumnData::Int64(v) | ColumnData::Timestamp(v)) => {
                let v = slices(v, ranges);
                match func {
                    AggFunc::Min => fold(st, ai, runs, v, min_i),
                    AggFunc::Max => fold(st, ai, runs, v, max_i),
                    AggFunc::StdDev => fold(st, ai, runs, v, stddev),
                    AggFunc::Sum | AggFunc::Avg => fold(st, ai, runs, v, sum),
                    AggFunc::Count => unreachable!("counted above"),
                }
            }
            (_, ColumnData::Text(_)) if rows > 0 => {
                return Err(EngineError::Exec(format!("{} over text column", func.name())));
            }
            (_, ColumnData::Text(_)) => {}
        }
    }

    Ok(PartialAgg {
        keys: key_refs.iter().map(|c| c.take(&reps)).collect(),
        states,
        arg_types,
    })
}

/// The slices of `v` that `ranges` select, in order.
fn slices<'v, T>(v: &'v [T], ranges: &'v [Range<usize>]) -> impl Iterator<Item = &'v [T]> {
    ranges.iter().map(move |r| &v[r.clone()])
}

/// A run of rows (in candidate space) that share one group id: the id
/// and the run's end; it starts where the previous run ends.
type GroupRun = (u32, u32);

/// Split the rows into runs of equal keys and give each its group id,
/// creating groups (and their representative rows) in first-seen
/// order. One hash lookup serves each run ([`key_run_end`]). This pays
/// when keys form long runs, as the window derivation's dimension and
/// time-bucket keys do over sorted chunks; keys that change every row
/// cost one lookup and 8 bytes per row.
fn discover_groups(keys: &[&ColumnData], rows: usize, reps: &mut Vec<u32>) -> Vec<GroupRun> {
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new(); // hash -> group ids
    let mut runs = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = key_run_end(keys, start, rows);
        let bucket = groups.entry(hash_row(keys, start)).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&g| rows_equal(keys, reps[g as usize] as usize, keys, start));
        let gid = found.unwrap_or_else(|| {
            let g = reps.len() as u32;
            reps.push(start as u32);
            bucket.push(g);
            g
        });
        runs.push((gid, end as u32));
        start = end;
    }
    runs
}

/// Fold `values` (slices in row order, together covering the rows
/// `runs` cover) into aggregate `ai`'s states: one `kernel` call per
/// piece of a slice that lies in one run. Each kernel is its own
/// instance of this loop, so a short piece costs an inlined call.
fn fold<'v, T: 'v>(
    states: &mut [Vec<AggState>],
    ai: usize,
    runs: &[GroupRun],
    values: impl Iterator<Item = &'v [T]>,
    kernel: impl Fn(&mut AggState, &[T]),
) {
    let mut runs = runs.iter();
    let (mut g, mut end, mut at) = (0, 0, 0);
    for mut slice in values {
        while !slice.is_empty() {
            if at == end {
                let &(next, run_end) = runs.next().expect("the runs cover every row");
                (g, end) = (next as usize, run_end as usize);
            }
            let (piece, rest) = slice.split_at(slice.len().min(end - at));
            kernel(&mut states[g][ai], piece);
            at += piece.len();
            slice = rest;
        }
    }
}

/// Count rows into aggregate `ai`'s states, one addition per run.
fn count_rows(states: &mut [Vec<AggState>], ai: usize, runs: &[GroupRun]) {
    let mut start = 0;
    for &(g, end) in runs {
        states[g as usize][ai].count += u64::from(end - start);
        start = end;
    }
}

/// Merge partition states into the final aggregate relation.
///
/// Partitions combine in the order given; groups keep first-appearance
/// order across that sequence, which makes the result identical to a
/// serial aggregation over the partitions' concatenated rows (up to
/// floating-point summation order, which is likewise fixed by the
/// partition order — *not* by the number of workers that produced the
/// partials).
pub fn merge_partials(
    mut parts: Vec<PartialAgg>,
    group_by: &[(String, Expr)],
    aggs: &[(String, AggFunc, Expr)],
) -> Result<Relation> {
    if parts.is_empty() {
        return Err(EngineError::Exec("merge_partials needs at least one partition".into()));
    }
    // Single partition (the serial `aggregate` path): its groups are
    // already distinct and in first-seen order — no re-discovery.
    let (merged_keys, merged_states, arg_types) = if parts.len() == 1 {
        let p = parts.pop().expect("checked non-empty");
        (p.keys, p.states, p.arg_types)
    } else {
        merge_many(&parts, group_by)?
    };

    // Assemble output: group-key columns then finished aggregates.
    let mut out_cols: Vec<(String, ColumnData)> = Vec::new();
    for ((name, _), col) in group_by.iter().zip(merged_keys) {
        out_cols.push((name.clone(), col));
    }
    for (ai, (name, func, _)) in aggs.iter().enumerate() {
        let in_type = arg_types[ai];
        let mut ints = Vec::new();
        let mut floats = Vec::new();
        let out_type = output_type(*func, in_type);
        for row in &merged_states {
            match row[ai].finish(*func, in_type)? {
                FinishedAgg::Int(v) | FinishedAgg::Time(v) => ints.push(v),
                FinishedAgg::Float(v) => floats.push(v),
            }
        }
        let col = match out_type {
            DataType::Int64 => ColumnData::Int64(ints),
            DataType::Timestamp => ColumnData::Timestamp(ints),
            DataType::Float64 => ColumnData::Float64(floats),
            DataType::Text => unreachable!("rejected above"),
        };
        out_cols.push((name.clone(), col));
    }
    Relation::new(out_cols)
}

/// Cross-partition group merge (two or more partitions): discover the
/// global group set over the partitions' representative key rows and
/// fold states, both in partition order.
#[allow(clippy::type_complexity)]
fn merge_many(
    parts: &[PartialAgg],
    group_by: &[(String, Expr)],
) -> Result<(Vec<ColumnData>, Vec<Vec<AggState>>, Vec<DataType>)> {
    let first = &parts[0];
    let arg_types = first.arg_types.clone();
    let mut merged_keys: Vec<ColumnData> =
        first.keys.iter().map(|c| ColumnData::empty(c.data_type())).collect();
    let mut merged_states: Vec<Vec<AggState>> = Vec::new();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();

    for part in parts {
        let part_refs: Vec<&ColumnData> = part.keys.iter().collect();
        for g in 0..part.states.len() {
            let gid = if group_by.is_empty() {
                if merged_states.is_empty() {
                    None
                } else {
                    Some(0)
                }
            } else {
                let h = hash_row(&part_refs, g);
                let merged_refs: Vec<&ColumnData> = merged_keys.iter().collect();
                buckets
                    .entry(h)
                    .or_default()
                    .iter()
                    .copied()
                    .find(|&cand| rows_equal(&merged_refs, cand as usize, &part_refs, g))
            };
            match gid {
                Some(gid) => {
                    for (acc, st) in
                        merged_states[gid as usize].iter_mut().zip(&part.states[g])
                    {
                        acc.merge(st);
                    }
                }
                None => {
                    let gid = merged_states.len() as u32;
                    if !group_by.is_empty() {
                        let h = hash_row(&part_refs, g);
                        buckets.entry(h).or_default().push(gid);
                        for (mk, pk) in merged_keys.iter_mut().zip(&part.keys) {
                            mk.push(&pk.get(g)).map_err(EngineError::Storage)?;
                        }
                    }
                    // Adopt the first partition's state verbatim so the
                    // merge is bit-identical to continuing it.
                    merged_states.push(part.states[g].clone());
                }
            }
        }
    }
    Ok((merged_keys, merged_states, arg_types))
}

/// Execute a hash aggregation (single partition: partial + merge).
pub fn aggregate(
    input: &Relation,
    group_by: &[(String, Expr)],
    aggs: &[(String, AggFunc, Expr)],
) -> Result<Relation> {
    let part = partial_aggregate(input, group_by, aggs)?;
    merge_partials(vec![part], group_by, aggs)
}

/// Duplicate elimination = group by all columns, no aggregates.
pub fn distinct(input: &Relation) -> Result<Relation> {
    let group_by: Vec<(String, Expr)> =
        input.names().iter().map(|n| (n.to_string(), Expr::col(*n))).collect();
    aggregate(input, &group_by, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::Value;

    fn rel() -> Relation {
        Relation::new(vec![
            (
                "station".into(),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK", "ISK"])),
            ),
            ("v".into(), ColumnData::Float64(vec![1.0, 10.0, 3.0, 2.0])),
            ("t".into(), ColumnData::Timestamp(vec![100, 200, 50, 75])),
        ])
        .unwrap()
    }

    fn agg(name: &str, f: AggFunc, col: &str) -> (String, AggFunc, Expr) {
        (name.into(), f, Expr::col(col))
    }

    #[test]
    fn global_aggregates() {
        let out = aggregate(
            &rel(),
            &[],
            &[
                agg("n", AggFunc::Count, "v"),
                agg("s", AggFunc::Sum, "v"),
                agg("a", AggFunc::Avg, "v"),
                agg("mn", AggFunc::Min, "v"),
                agg("mx", AggFunc::Max, "v"),
            ],
        )
        .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(4));
        assert_eq!(out.value(0, "s").unwrap(), Value::Float(16.0));
        assert_eq!(out.value(0, "a").unwrap(), Value::Float(4.0));
        assert_eq!(out.value(0, "mn").unwrap(), Value::Float(1.0));
        assert_eq!(out.value(0, "mx").unwrap(), Value::Float(10.0));
    }

    #[test]
    fn stddev_population() {
        let r = Relation::new(vec![(
            "v".into(),
            ColumnData::Float64(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
        )])
        .unwrap();
        let out = aggregate(&r, &[], &[agg("sd", AggFunc::StdDev, "v")]).unwrap();
        // Classic example: population stddev = 2.
        assert_eq!(out.value(0, "sd").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn grouped_aggregates() {
        let out = aggregate(
            &rel(),
            &[("station".into(), Expr::col("station"))],
            &[agg("n", AggFunc::Count, "v"), agg("mx", AggFunc::Max, "v")],
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        // Groups appear in first-seen order: ISK then FIAM.
        assert_eq!(out.value(0, "station").unwrap(), Value::Text("ISK".into()));
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(3));
        assert_eq!(out.value(0, "mx").unwrap(), Value::Float(3.0));
        assert_eq!(out.value(1, "station").unwrap(), Value::Text("FIAM".into()));
        assert_eq!(out.value(1, "n").unwrap(), Value::Int(1));
    }

    #[test]
    fn min_max_on_timestamps() {
        let out = aggregate(
            &rel(),
            &[],
            &[agg("first", AggFunc::Min, "t"), agg("last", AggFunc::Max, "t")],
        )
        .unwrap();
        assert_eq!(out.value(0, "first").unwrap(), Value::Time(50));
        assert_eq!(out.value(0, "last").unwrap(), Value::Time(200));
    }

    #[test]
    fn empty_input_global_yields_no_rows() {
        let empty = rel().filter(&[false, false, false, false]);
        let out = aggregate(&empty, &[], &[agg("n", AggFunc::Count, "v")]).unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(out.width(), 1, "schema preserved");
    }

    #[test]
    fn count_works_on_text() {
        let out = aggregate(&rel(), &[], &[agg("n", AggFunc::Count, "station")]).unwrap();
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(4));
        assert!(aggregate(&rel(), &[], &[agg("s", AggFunc::Sum, "station")]).is_err());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = Relation::new(vec![
            ("a".into(), ColumnData::Int64(vec![1, 1, 2, 1])),
            ("b".into(), ColumnData::Text(TextColumn::from_strs(["x", "x", "y", "z"]))),
        ])
        .unwrap();
        let out = distinct(&r).unwrap();
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn grouped_by_computed_expr() {
        use crate::expr::Func;
        let r = Relation::new(vec![(
            "t".into(),
            ColumnData::Timestamp(vec![0, 1_800_000, 3_600_000, 3_700_000]),
        )])
        .unwrap();
        let out = aggregate(
            &r,
            &[("hour".into(), Expr::Call(Func::HourBucket, vec![Expr::col("t")]))],
            &[agg("n", AggFunc::Count, "t")],
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "n").unwrap(), Value::Int(2));
    }

    /// The per-row update of every field that the kernels replaced,
    /// kept as their oracle: whatever the function, each row updates
    /// `count`, `sum`, `sum_sq`, `min` and `max` (and an integer's
    /// `min_i` and `max_i`).
    impl AggState {
        fn update_every_field_f(&mut self, v: f64) {
            self.count += 1;
            self.sum += v;
            self.sum_sq += v * v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn update_every_field_i(&mut self, v: i64) {
            self.update_every_field_f(v as f64);
            self.min_i = self.min_i.min(v);
            self.max_i = self.max_i.max(v);
        }
    }

    /// The row-at-a-time fold that [`partial_aggregate`] replaced, kept
    /// as its oracle: one hash lookup and one type dispatch per row.
    fn per_row_partial(
        input: &Relation,
        group_by: &[(String, Expr)],
        aggs: &[(String, AggFunc, Expr)],
    ) -> PartialAgg {
        use crate::eval::eval_scalar;
        let key_cols: Vec<ColumnData> =
            group_by.iter().map(|(_, e)| eval_scalar(e, input).unwrap()).collect();
        let arg_cols: Vec<ColumnData> =
            aggs.iter().map(|(_, _, e)| eval_scalar(e, input).unwrap()).collect();
        let key_refs: Vec<&ColumnData> = key_cols.iter().collect();
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        let (mut group_of, mut reps) = (Vec::new(), Vec::<u32>::new());
        for r in 0..input.rows() {
            if group_by.is_empty() {
                if reps.is_empty() {
                    reps.push(0);
                }
                group_of.push(0);
                continue;
            }
            let bucket = groups.entry(hash_row(&key_refs, r)).or_default();
            let found = bucket
                .iter()
                .copied()
                .find(|&g| rows_equal(&key_refs, reps[g as usize] as usize, &key_refs, r));
            let g = found.unwrap_or_else(|| {
                reps.push(r as u32);
                bucket.push(reps.len() as u32 - 1);
                reps.len() as u32 - 1
            });
            group_of.push(g as usize);
        }
        let mut states = vec![vec![AggState::new(); aggs.len()]; reps.len()];
        for (r, &g) in group_of.iter().enumerate() {
            for (ai, col) in arg_cols.iter().enumerate() {
                match col {
                    ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
                        states[g][ai].update_every_field_i(v[r])
                    }
                    ColumnData::Float64(v) => states[g][ai].update_every_field_f(v[r]),
                    ColumnData::Text(_) => states[g][ai].count += 1,
                }
            }
        }
        PartialAgg {
            keys: key_cols.iter().map(|c| c.take(&reps)).collect(),
            states,
            arg_types: arg_cols.iter().map(|c| c.data_type()).collect(),
        }
    }

    /// Finished aggregates agree: same groups in the same order, same
    /// values, floats to the bit. The first `keys` columns are group
    /// keys, copied from a row, so even their NaNs match by bits. In an
    /// aggregate column a NaN equals any NaN: Rust leaves the sign and
    /// payload of a NaN that arithmetic produces unspecified (the
    /// compiler may commute `a + b`), so no fold fixes them.
    fn assert_bit_identical(got: &Relation, want: &Relation, keys: usize, what: &str) {
        assert_eq!(got.names(), want.names(), "{what}");
        assert_eq!(got.rows(), want.rows(), "{what}");
        for (c, (a, b)) in got.columns().iter().zip(want.columns()).enumerate() {
            for row in 0..want.rows() {
                let (x, y) = (a.1.get(row), b.1.get(row));
                let same = match (&x, &y) {
                    (Value::Float(x), Value::Float(y)) => {
                        x.to_bits() == y.to_bits() || (c >= keys && x.is_nan() && y.is_nan())
                    }
                    _ => x == y,
                };
                assert!(same, "{what}: {}[{row}] = {x:?}, want {y:?}", a.0);
            }
        }
    }

    /// Every function's kernel, over whole relations and over
    /// fragmented candidate ranges, with and without GROUP BY, is
    /// bit-identical to the per-row update of every field: same groups
    /// in the same order, same sums to the bit. The values mix
    /// magnitudes (so a reordered sum changes bits), carry NaN, ±0.0
    /// and ±∞, and the integers reach both ends of `i64`.
    #[test]
    fn column_major_fold_matches_the_per_row_oracle() {
        const KEYS: [f64; 5] = [0.0, -0.0, 1.5, f64::NAN, 0.1];
        const SPECIALS: [f64; 8] =
            [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308, 5e-324];
        const INTS: [i64; 8] = [i64::MIN, i64::MIN + 1, -7, 0, 1, 3, i64::MAX - 1, i64::MAX];
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut below = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        const FUNCS: [AggFunc; 6] = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StdDev,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let mut all_aggs = vec![
            ("star".into(), AggFunc::Count, Expr::lit(1i64)),
            agg("ns", AggFunc::Count, "s"),
            (
                "twice".into(),
                AggFunc::Sum,
                Expr::Arith(ArithOp::Mul, Box::new(Expr::col("v")), Box::new(Expr::lit(2.0))),
            ),
        ];
        for col in ["v", "x", "n", "t"] {
            for f in FUNCS {
                all_aggs.push(agg(&format!("{}_{col}", f.name()), f, col));
            }
        }
        let (mut fragmented, mut empty) = (0, 0);
        for seed in 0..400 {
            // Runs of repeated keys (lengths 1-4), so key runs, NaN
            // keys and ±0.0 all occur.
            let (mut f, mut i, mut st) = (Vec::new(), Vec::new(), Vec::new());
            while f.len() < below(30) {
                let (kf, ki, ks) = (KEYS[below(5)], below(3) as i64, ["a", "b"][below(2)]);
                for _ in 0..1 + below(4) {
                    f.push(kf);
                    i.push(ki);
                    st.push(ks);
                }
            }
            let n = f.len();
            // `v`: finite, from 1e-12 to 1e16 in either sign; `x`: one
            // row in three a special value; `n` and `t`: near both ends
            // of i64 or small.
            let v: Vec<f64> = (0..n)
                .map(|_| (below(2001) as f64 - 1000.0) * 10f64.powi(below(8) as i32 * 4 - 12))
                .collect();
            let xs: Vec<f64> = (0..n)
                .map(|k| if below(3) == 0 { SPECIALS[below(8)] } else { v[k] / 3.0 })
                .collect();
            let mut ints = || (0..n).map(|_| INTS[below(8)]).collect::<Vec<i64>>();
            let (ns, ts) = (ints(), ints());
            let r = Relation::new(vec![
                ("f".into(), ColumnData::Float64(f)),
                ("i".into(), ColumnData::Int64(i)),
                ("s".into(), ColumnData::Text(TextColumn::from_strs(st))),
                ("v".into(), ColumnData::Float64(v)),
                ("x".into(), ColumnData::Float64(xs)),
                ("n".into(), ColumnData::Int64(ns)),
                ("t".into(), ColumnData::Timestamp(ts)),
            ])
            .unwrap();
            let key = |c: &str| (c.to_string(), Expr::col(c));
            let group_bys =
                [vec![], vec![key("f")], vec![key("s"), key("i")], vec![key("i")]];
            let group_by = &group_bys[seed % group_bys.len()];
            let finish = |part| merge_partials(vec![part], group_by, &all_aggs).unwrap();
            let oracle = |rel: &Relation| finish(per_row_partial(rel, group_by, &all_aggs));
            let got = finish(partial_aggregate(&r, group_by, &all_aggs).unwrap());
            let keys = group_by.len();
            assert_bit_identical(&got, &oracle(&r), keys, &format!("seed {seed}, all rows"));

            // Fragmented candidates: alternate skipped and kept stretches
            // of 0-4 rows; sometimes none is kept at all.
            let mut ranges: Vec<Range<usize>> = Vec::new();
            let mut at = below(3);
            while at < n {
                let end = (at + 1 + below(4)).min(n);
                ranges.push(at..end);
                at = end + 1 + below(4);
            }
            if below(8) == 0 {
                ranges.clear();
            }
            fragmented += usize::from(ranges.len() > 1);
            empty += usize::from(ranges.is_empty());
            let mut cands = Candidates::all(r.clone());
            cands.set_ranges(ranges.clone());
            let got = finish(partial_aggregate_over(&cands, group_by, &all_aggs).unwrap());
            let what = format!("seed {seed}, ranges {ranges:?}");
            assert_bit_identical(&got, &oracle(&r.take_ranges(&ranges)), keys, &what);
        }
        assert!(fragmented > 100 && empty > 10, "{fragmented} fragmented, {empty} empty");
    }

    /// Partition a relation by row ranges and check the merged partials
    /// equal the one-shot aggregation, bit for bit.
    #[test]
    fn partial_merge_matches_serial() {
        let r = Relation::new(vec![
            (
                "k".into(),
                ColumnData::Text(TextColumn::from_strs(["a", "b", "a", "c", "b", "a"])),
            ),
            ("v".into(), ColumnData::Float64(vec![0.1, 2.5, -3.0, 4.25, 5.5, 6.125])),
        ])
        .unwrap();
        let group_by = vec![("k".to_string(), Expr::col("k"))];
        let aggs = vec![
            agg("n", AggFunc::Count, "v"),
            agg("s", AggFunc::Sum, "v"),
            agg("a", AggFunc::Avg, "v"),
            agg("sd", AggFunc::StdDev, "v"),
            agg("mn", AggFunc::Min, "v"),
            agg("mx", AggFunc::Max, "v"),
        ];
        let serial = aggregate(&r, &group_by, &aggs).unwrap();
        // Split as [0,1], [2,3,4], [5] — chunk-order merge.
        let parts = vec![
            partial_aggregate(&r.take(&[0, 1]), &group_by, &aggs).unwrap(),
            partial_aggregate(&r.take(&[2, 3, 4]), &group_by, &aggs).unwrap(),
            partial_aggregate(&r.take(&[5]), &group_by, &aggs).unwrap(),
        ];
        let merged = merge_partials(parts, &group_by, &aggs).unwrap();
        assert_eq!(serial.rows(), merged.rows());
        assert_eq!(serial.names(), merged.names());
        for row in 0..serial.rows() {
            for name in serial.names() {
                let a = serial.value(row, name).unwrap();
                let b = merged.value(row, name).unwrap();
                match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => {
                        // Same partition boundaries → same summation
                        // order → identical bits for COUNT/MIN/MAX and
                        // ulp-close sums.
                        assert!((x - y).abs() < 1e-12, "{name}: {x} vs {y}")
                    }
                    _ => assert_eq!(a, b, "{name}"),
                }
            }
        }
    }

    /// Merging the same partials in the same order must be invariant to
    /// how they were produced (the worker-count independence the
    /// chunk-parallel executor relies on).
    #[test]
    fn merge_is_deterministic_in_partition_order() {
        let r = Relation::new(vec![
            ("k".into(), ColumnData::Int64(vec![1, 2, 1, 3])),
            ("v".into(), ColumnData::Float64(vec![0.3, 0.7, 0.11, 0.19])),
        ])
        .unwrap();
        let group_by = vec![("k".to_string(), Expr::col("k"))];
        let aggs = vec![agg("s", AggFunc::Sum, "v"), agg("a", AggFunc::Avg, "v")];
        let mk = |idx: &[u32]| partial_aggregate(&r.take(idx), &group_by, &aggs).unwrap();
        let once = merge_partials(vec![mk(&[0, 1]), mk(&[2, 3])], &group_by, &aggs).unwrap();
        let twice = merge_partials(vec![mk(&[0, 1]), mk(&[2, 3])], &group_by, &aggs).unwrap();
        for row in 0..once.rows() {
            for name in once.names() {
                let (a, b) =
                    (once.value(row, name).unwrap(), twice.value(row, name).unwrap());
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits())
                    }
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
        // Zero-group and empty partitions merge away.
        let empty = mk(&[]);
        assert_eq!(empty.groups(), 0);
        let merged = merge_partials(vec![empty, mk(&[0])], &group_by, &aggs).unwrap();
        assert_eq!(merged.rows(), 1);
    }
}
