//! Base-table access paths: a scan reaches only the rows its predicate
//! can keep.
//!
//! A metadata table keeps two order facts
//! ([`sommelier_storage::RowOrder`]): whether its rows are in
//! primary-key order, and which integer and timestamp columns never
//! decrease. A scan opens the table's columns shared with storage as
//! [`Candidates`] whose lexicographic order is the key prefix the scan
//! reads and whose non-decreasing columns are flagged sorted. Then:
//!
//! - [`scan`] narrows the candidates by binary search with the literal
//!   conjuncts an order answers, evaluates the other conjuncts on the
//!   remaining rows only, and copies only the rows it keeps, whose
//!   provenance is their row ids;
//! - [`join_scan`] answers a hash join whose build side is such a
//!   scan. When the scan's order follows every join key, it
//!   binary-searches one run of build rows per distinct probe key
//!   instead of hashing the table, and evaluates the scan's predicate
//!   on those runs only; otherwise it hash-joins the scan's rows.
//!
//! A table without facts is one range over every row, through the same
//! code.

use crate::candidates::{bounds_within, cmp_key, gallop, push_range, Candidates};
use crate::error::{EngineError, Result};
use crate::eval::eval_column;
use crate::expr::{CmpOp, Expr};
use crate::join::hash_join;
use crate::relation::Relation;
use sommelier_storage::index::key_run_end;
use sommelier_storage::order::SortKey;
use sommelier_storage::{ColumnData, Database};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// How one scan reached its rows, as EXPLAIN ANALYZE names it:
/// `H: range on PK prefix (3 of 3 cols), 48 of 3840 rows`. It borrows
/// the plan's names and renders only when a trace asks for it.
#[derive(Debug, Clone)]
pub(crate) struct Access<'a> {
    table: &'a str,
    /// The scan's columns: bit `i` of `sorted` names `columns[i]`.
    columns: &'a [String],
    /// A key-run join's probe keys; bit `k` of `runs` marks one the
    /// runs followed (none: a plain scan).
    keys: &'a [Expr],
    runs: u64,
    /// Leading key columns bounded, of `pk_len`.
    prefix: usize,
    pk_len: usize,
    /// Non-decreasing columns bounded, as bits.
    sorted: u64,
    /// Rows the scan evaluated or copied: those left after the binary
    /// searches.
    touched: usize,
    /// Rows in the table.
    rows: usize,
}

impl fmt::Display for Access<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = |mask: u64, n: usize| (0..n.min(64)).filter(move |i| mask & (1 << i) != 0);
        let mut parts = Vec::new();
        if self.runs != 0 {
            let keys: Vec<String> =
                bits(self.runs, self.keys.len()).map(|k| self.keys[k].to_string()).collect();
            parts.push(format!("key runs of {}", keys.join(", ")));
        }
        let mut bounds = Vec::new();
        if self.prefix > 0 {
            bounds.push(format!("PK prefix ({} of {} cols)", self.prefix, self.pk_len));
        }
        bounds.extend(
            bits(self.sorted, self.columns.len())
                .map(|i| format!("non-decreasing {}", self.columns[i])),
        );
        if !bounds.is_empty() {
            parts.push(format!("range on {}", bounds.join(" + ")));
        }
        if parts.is_empty() {
            parts.push("full scan".into());
        }
        write!(
            f,
            "{}: {}, {} of {} rows",
            self.table,
            parts.join(" + "),
            self.touched,
            self.rows
        )
    }
}

/// `table`'s scan columns (qualified `table.column`), shared with
/// storage, as candidates carrying the table's order facts; and the
/// access they start, over every row.
fn open<'a>(
    db: &Database,
    table: &'a str,
    columns: &'a [String],
) -> Result<(Candidates, Access<'a>)> {
    let prefix = format!("{table}.");
    let raw: Vec<&str> = columns
        .iter()
        .map(|c| {
            c.strip_prefix(&prefix).ok_or_else(|| {
                EngineError::Plan(format!("scan column {c:?} not qualified by {table}"))
            })
        })
        .collect::<Result<_>>()?;
    let scan = db.scan_shared(table, &raw)?;
    let mut rel = Relation::from_shared(columns.iter().cloned().zip(scan.columns).collect())?;
    for (i, _) in scan.non_decreasing.iter().enumerate().filter(|(_, &nd)| nd) {
        rel.mark_sorted(i)?;
    }
    let rows = rel.rows();
    let access = Access {
        table,
        columns,
        keys: &[],
        runs: 0,
        prefix: 0,
        pk_len: scan.pk_len,
        sorted: 0,
        touched: rows,
        rows,
    };
    Ok((Candidates::ordered(rel, scan.pk_prefix), access))
}

/// Keep the candidates `predicate` holds on: binary searches for the
/// conjuncts the table's order answers, row-wise evaluation of the
/// rest on the rows left. Records both in `access`.
fn filter(
    cands: &mut Candidates,
    predicate: Option<&Expr>,
    access: &mut Access,
) -> Result<()> {
    let narrowed = predicate.map(|p| cands.narrow(p)).unwrap_or_default();
    (access.prefix, access.sorted) = (narrowed.prefix, narrowed.sorted);
    access.touched = cands.rows();
    cands.keep(&narrowed.residual)
}

/// The selected rows, copied, with their row ids as provenance.
fn gather(cands: &Candidates, table: &str) -> Relation {
    let ids = cands.ranges().iter().flat_map(|r| r.start as u32..r.end as u32).collect();
    cands.materialize().with_provenance(table, ids)
}

/// Scan `table` (qualified `columns`) with `predicate`: binary searches
/// for the conjuncts the table's order answers, row-wise evaluation of
/// the rest on what is left, and a copy of the surviving rows with
/// their row ids as provenance.
pub(crate) fn scan<'a>(
    db: &Database,
    table: &'a str,
    columns: &'a [String],
    predicate: Option<&Expr>,
) -> Result<(Relation, Access<'a>)> {
    let (mut cands, mut access) = open(db, table, columns)?;
    filter(&mut cands, predicate, &mut access)?;
    Ok((gather(&cands, table), access))
}

/// The equi-join `left ⋈ scan(table)` on `left_keys = right_keys`,
/// opening the table once. When its order follows every right key
/// ([`run_columns`]), each run of equal left keys binary-searches its
/// run of right rows and the scan's predicate is evaluated on those
/// runs only; otherwise the [`scan`]'s rows are hash-joined.
///
/// Either way the output equals [`hash_join`] of `left` with the
/// [`scan`], row order included: left rows in order, each followed by
/// its matching right rows ascending.
pub(crate) fn join_scan<'a>(
    db: &Database,
    left: &Relation,
    table: &'a str,
    columns: &'a [String],
    predicate: Option<&Expr>,
    left_keys: &'a [Expr],
    right_keys: &[Expr],
) -> Result<(Relation, Access<'a>)> {
    let (mut cands, mut access) = open(db, table, columns)?;
    let Some(run_keys) = run_columns(&cands, left, left_keys, right_keys)? else {
        filter(&mut cands, predicate, &mut access)?;
        let right = gather(&cands, table);
        return Ok((hash_join(left, &right, left_keys, right_keys)?, access));
    };
    let rel = cands.relation();
    let key_cols: Vec<&ColumnData> = run_keys.iter().map(|(_, k)| k.left.as_ref()).collect();
    // One run of right rows per run of equal left keys. Ascending left
    // keys (the usual case: both sides in key order) gallop on from the
    // previous run, so the walk stays local.
    let (rows, n) = (rel.rows(), left.rows());
    let lead = rel.column_at(run_keys[0].0);
    let mut runs: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    let (mut start, mut from, mut prev) = (0, 0, None);
    while start < n {
        let end = key_run_end(&key_cols, start, n);
        let key = SortKey::at(key_cols[0], start);
        if prev.is_none_or(|p| key < p) {
            from = 0;
        }
        let lt = gallop(from..rows, |i| cmp_key(lead, i, key).is_lt());
        let mut r = lt..gallop(lt..rows, |i| cmp_key(lead, i, key).is_le());
        (from, prev) = (lt, Some(key));
        for ((o, _), col) in run_keys.iter().zip(&key_cols).skip(1) {
            r = bounds_within(rel.column_at(*o), r, CmpOp::Eq, SortKey::at(col, start));
        }
        runs.push((start..end, r));
        start = end;
    }
    // The scan's predicate, evaluated on the union of the runs only.
    let mut union: Vec<Range<usize>> =
        runs.iter().map(|(_, r)| r.clone()).filter(|r| r.start < r.end).collect();
    union.sort_unstable_by_key(|r| r.start);
    union.dedup();
    let mut merged = Vec::with_capacity(union.len());
    for r in union {
        push_range(&mut merged, r);
    }
    cands.set_ranges(merged);
    access.keys = left_keys;
    access.runs = run_keys.iter().fold(0, |bits, (_, k)| bits | 1 << k.key.min(63));
    filter(&mut cands, predicate, &mut access)?;
    // Pair each left run with the kept rows of its right run, as the
    // hash join's probe does: `left_idx` stays `None` while every left
    // row so far matched exactly one right row.
    let kept = cands.ranges();
    let mut left_idx: Option<Vec<u32>> = None;
    let mut right_idx: Vec<u32> = Vec::new();
    let mut hits = Vec::new();
    for (l, r) in &runs {
        hits.clear();
        let first = kept.partition_point(|k| k.end <= r.start);
        for k in kept[first..].iter().take_while(|k| k.start < r.end) {
            hits.extend(k.start.max(r.start) as u32..k.end.min(r.end) as u32);
        }
        if left_idx.is_none() && hits.len() != 1 {
            left_idx = Some((0..l.start as u32).collect());
        }
        if let Some(idx) = &mut left_idx {
            for i in l.start as u32..l.end as u32 {
                idx.extend(std::iter::repeat_n(i, hits.len()));
            }
        }
        for _ in l.clone() {
            right_idx.extend_from_slice(&hits);
        }
    }
    // The build side as the hash join holds it: no provenance, no flags.
    let right = Relation::from_shared(cands.relation().columns().to_vec())?;
    let out = match &left_idx {
        Some(idx) => left.take(idx),
        None => left.clone(),
    };
    Ok((out.hconcat(&right.take(&right_idx))?, access))
}

/// One key pair the runs follow: the right column's position in the
/// scan, and the left key's values.
struct RunKey<'l> {
    key: usize,
    left: Cow<'l, ColumnData>,
}

/// The key pairs when the table's order follows every right key, in
/// the order the runs take them — the key prefix the scan reads, or
/// one right key column that never decreases — each with the left
/// key's values. `None` when some right key is computed or outside
/// that order, or a left key is of another type family than its
/// column (integers and timestamps, or text): the caller hash-joins.
fn run_columns<'l>(
    cands: &Candidates,
    left: &'l Relation,
    left_keys: &[Expr],
    right_keys: &[Expr],
) -> Result<Option<Vec<(usize, RunKey<'l>)>>> {
    if left_keys.len() != right_keys.len() || right_keys.is_empty() {
        return Ok(None);
    }
    let rel = cands.relation();
    let plain: Vec<Option<usize>> = right_keys
        .iter()
        .map(|k| match k {
            Expr::Col(c) => rel.resolve(c).ok(),
            _ => None,
        })
        .collect();
    let pair = |col: usize| -> Result<Option<(usize, RunKey<'l>)>> {
        let Some(key) = plain.iter().position(|&p| p == Some(col)) else { return Ok(None) };
        let values = eval_column(&left_keys[key], left)?;
        let same_family = matches!(
            (values.as_ref(), rel.column_at(col)),
            (
                ColumnData::Int64(_) | ColumnData::Timestamp(_),
                ColumnData::Int64(_) | ColumnData::Timestamp(_)
            ) | (ColumnData::Text(_), ColumnData::Text(_))
        );
        Ok(same_family.then_some((col, RunKey { key, left: values })))
    };
    let mut runs = Vec::new();
    for &col in cands.order() {
        match pair(col)? {
            Some(p) => runs.push(p),
            None => break,
        }
    }
    if runs.is_empty() {
        for col in plain.iter().flatten().filter(|&&c| rel.is_sorted(c)) {
            if let Some(p) = pair(*col)? {
                runs.push(p);
                break;
            }
        }
    }
    Ok((runs.len() == right_keys.len()).then_some(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scan_masked;
    use crate::join::hash_join;
    use sommelier_storage::buffer::BufferPoolConfig;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::rng::Rng;
    use sommelier_storage::{ConstraintPolicy, DataType, TableClass, TableSchema, Value};
    use std::cmp::Ordering;

    /// Text keys: `AAA` and `ZZZ` sort outside every stored value and
    /// `J` between two of them; none of the three is ever stored.
    const STATIONS: [&str; 4] = ["FIAM", "AQU", "TRI", "ISK"];
    const CHANNELS: [&str; 3] = ["HHZ", "BHE", "HHE"];
    const ABSENT: [&str; 3] = ["AAA", "ZZZ", "J"];
    const HOUR: i64 = 3_600_000;

    /// One generated metadata table. `W` is keyed on `(station,
    /// channel, ts)` like the derived windows; `S` on `seg` with a
    /// non-decreasing `file` column like the segments. Rows are in key
    /// order unless `shuffled`, with duplicate keys (nothing verifies
    /// the key), appended in one or more batches.
    fn table(rng: &mut Rng, db: &Database, windows: bool, shuffled: bool) -> String {
        let n = match rng.below(6) {
            0 => 0,
            1 => 1,
            _ => rng.below(60),
        };
        let class = if rng.one_in(2) {
            TableClass::MetadataGiven
        } else {
            TableClass::MetadataDerived
        };
        let (name, schema) = if windows {
            let schema = TableSchema::new("W", class)
                .column("station", DataType::Text)
                .column("channel", DataType::Text)
                .column("ts", DataType::Timestamp)
                .column("v", DataType::Float64)
                .column("n", DataType::Int64)
                .primary_key(["station", "channel", "ts"]);
            ("W", schema)
        } else {
            let schema = TableSchema::new("S", class)
                .column("seg", DataType::Int64)
                .column("file", DataType::Int64)
                .column("ts", DataType::Timestamp)
                .column("v", DataType::Float64)
                .column("station", DataType::Text)
                .primary_key(["seg"]);
            ("S", schema)
        };
        let v = |rng: &mut Rng| Value::Float(rng.below(100) as f64 - 50.0);
        let mut rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                if windows {
                    let known = 1 + rng.below(4);
                    vec![
                        Value::Text(rng.pick(&STATIONS[..known]).into()),
                        Value::Text(rng.pick(&CHANNELS).into()),
                        Value::Time(rng.below(6) as i64 * HOUR),
                        v(rng),
                        Value::Int(0),
                    ]
                } else {
                    // `seg` ascends (with repeats), `file` never
                    // decreases.
                    vec![
                        Value::Int(i as i64 / 3),
                        Value::Int(i as i64 - rng.below(2) as i64),
                        Value::Time(rng.below(48) as i64 * HOUR / 2),
                        v(rng),
                        Value::Text(rng.pick(&STATIONS).into()),
                    ]
                }
            })
            .collect();
        let key = if windows { 3 } else { 1 };
        rows.sort_by(|a, b| {
            let pairs = a[..key].iter().zip(&b[..key]);
            pairs
                .map(|(x, y)| x.compare(y).unwrap())
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        if shuffled {
            for i in (1..n).rev() {
                rows.swap(i, rng.below(i + 1));
            }
        }
        let types: Vec<DataType> = schema.columns.iter().map(|c| c.dtype).collect();
        db.create_table(schema, Disposition::Resident).unwrap();
        // One batch, a few, or many of one or two rows (each then
        // ordered alone: only the boundary compare can tell).
        let batch = match rng.below(3) {
            0 => n.max(1),
            1 => 1 + rng.below(n.max(1)),
            _ => 2,
        };
        let mut at = 0;
        loop {
            let end = (at + 1 + rng.below(batch)).min(n);
            let cols: Vec<ColumnData> = (0..types.len())
                .map(|c| {
                    let values: Vec<Value> =
                        rows[at..end].iter().map(|r| r[c].clone()).collect();
                    ColumnData::from_values(types[c], &values).unwrap()
                })
                .collect();
            db.append(name, &cols, ConstraintPolicy::none()).unwrap();
            at = end;
            if at >= n {
                return name.to_string();
            }
        }
    }

    /// A literal for `column` of `table`: a stored value (a bound equal
    /// to a row's), one absent from the table, or one between.
    fn literal(rng: &mut Rng, db: &Database, table: &str, column: &str) -> Value {
        let stored = db.scan_columns(table, &[column]).unwrap().remove(0);
        if !stored.is_empty() && rng.one_in(2) {
            return stored.get(rng.below(stored.len()));
        }
        match stored.data_type() {
            DataType::Text => Value::Text(rng.pick(&ABSENT).to_string()),
            DataType::Timestamp if rng.one_in(3) => {
                Value::Int(rng.below(7) as i64 * HOUR - 1)
            }
            DataType::Timestamp => Value::Time(rng.below(50) as i64 * HOUR / 4),
            DataType::Float64 => Value::Float(rng.below(60) as f64 - 30.0),
            DataType::Int64 => Value::Int(rng.below(70) as i64 / 2 - 2),
        }
    }

    /// A conjunction of 0-4 comparisons between a column and a literal
    /// (either side; `<>` and float comparisons included), sometimes an
    /// inverted range.
    fn predicate(
        rng: &mut Rng,
        db: &Database,
        table: &str,
        columns: &[&str],
    ) -> Option<Expr> {
        let ops =
            [CmpOp::Eq, CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
        let mut conjuncts: Vec<Expr> = (0..rng.below(5))
            .map(|_| {
                let column = rng.pick(columns);
                let lit = Expr::Lit(literal(rng, db, table, column));
                let col = Expr::col(format!("{table}.{column}"));
                let op = rng.pick(&ops);
                if rng.one_in(3) {
                    lit.cmp(op.flip(), col)
                } else {
                    col.cmp(op, lit)
                }
            })
            .collect();
        if columns.contains(&"ts") && rng.one_in(6) {
            let ts = || Expr::col(format!("{table}.ts"));
            conjuncts.push(ts().cmp(CmpOp::Ge, Expr::lit(Value::Time(4 * HOUR))));
            conjuncts.push(ts().cmp(CmpOp::Lt, Expr::lit(Value::Time(2 * HOUR))));
        }
        Expr::conjoin(conjuncts)
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

    /// A probe side for a join against `table`: 0-30 rows in runs of
    /// equal keys, or 300 in runs of one (keys repeating, interleaving,
    /// absent from the table), and the key pairs. The keys are the key
    /// prefix in any order, the non-decreasing column, or shapes no run
    /// can follow (a float key, a computed key, a column outside the
    /// order), sometimes with one more pair.
    fn probe(rng: &mut Rng, db: &Database, table: &str) -> (Relation, Vec<Expr>, Vec<Expr>) {
        let shapes: &[&[&str]] = if table == "W" {
            &[
                &["station"],
                &["station", "channel"],
                &["channel", "station"],
                &["station", "channel", "ts"],
                &["ts", "channel", "station"],
                &["channel"],
                &["v"],
            ]
        } else {
            &[&["seg"], &["file"], &["ts"], &["station"], &["file", "seg"]]
        };
        let shape = rng.pick(shapes);
        // Sometimes many short runs, each its own binary search.
        let (n, run) = match rng.below(8) {
            0 => (0, 1),
            1 => (300, 1),
            _ => (rng.below(30), 4),
        };
        let mut cols: Vec<(String, ColumnData)> = Vec::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let stored: Vec<ColumnData> = db.scan_columns(table, shape).unwrap();
        let rows = stored[0].len();
        while keys.len() < n {
            // Mostly a stored row's key; else a mix of stored and absent
            // values.
            let key: Vec<Value> = if rows > 0 && !rng.one_in(4) {
                let r = rng.below(rows);
                stored.iter().map(|c| c.get(r)).collect()
            } else {
                shape.iter().map(|c| literal(rng, db, table, c)).collect()
            };
            for _ in 0..1 + rng.below(run) {
                keys.push(key.clone());
            }
        }
        keys.truncate(n);
        let types = db.table_schema(table).unwrap();
        for (k, c) in shape.iter().enumerate() {
            let dtype = types.col_type(c).unwrap();
            // Timestamps probe integer columns and the reverse: one
            // type family.
            let dtype = match dtype {
                DataType::Int64 if rng.one_in(3) => DataType::Timestamp,
                DataType::Timestamp if rng.one_in(3) => DataType::Int64,
                d => d,
            };
            let values: Vec<Value> =
                keys.iter().map(|key| key[k].coerce_to(dtype).unwrap()).collect();
            cols.push((format!("L.k{k}"), ColumnData::from_values(dtype, &values).unwrap()));
        }
        cols.push(("L.x".into(), ColumnData::Int64((0..n as i64).collect())));
        let mut left = Relation::new(cols).unwrap();
        if rng.one_in(2) {
            left = left.with_provenance("L", (0..n as u32).map(|i| 3 * i + 1).collect());
        }
        let mut left_keys: Vec<Expr> =
            (0..shape.len()).map(|k| Expr::col(format!("L.k{k}"))).collect();
        // A computed probe key (over integers only).
        if left.column_at(0).data_type() == DataType::Int64 && rng.one_in(4) {
            left_keys[0] = Expr::Call(crate::expr::Func::Abs, vec![left_keys[0].clone()]);
        }
        let mut right_keys: Vec<Expr> =
            shape.iter().map(|c| Expr::col(format!("{table}.{c}"))).collect();
        // Sometimes one more pair, which the runs follow (the next key
        // column) or which sends the join to the hash join: a day
        // bucket, a float (±0, NaN), a key column outside the order,
        // integers against floats (which never match).
        let day = |e: Expr| Expr::Call(crate::expr::Func::DayBucket, vec![e]);
        let (right, dtype, column) = match rng.below(7) {
            0 => (day(Expr::col(format!("{table}.ts"))), DataType::Timestamp, "ts"),
            1 => (Expr::col(format!("{table}.v")), DataType::Float64, "v"),
            2 => (Expr::col(format!("{table}.ts")), DataType::Int64, "ts"),
            3 => (Expr::col(format!("{table}.v")), DataType::Int64, "v"),
            _ => return (left, left_keys, right_keys),
        };
        let values: Vec<Value> = (0..n)
            .map(|_| match literal(rng, db, table, column) {
                Value::Float(x) if dtype == DataType::Int64 => Value::Int(x as i64),
                Value::Float(_) if rng.one_in(6) => Value::Float(rng.pick(&[-0.0, f64::NAN])),
                v => v.coerce_to(dtype).unwrap(),
            })
            .collect();
        let extra = Relation::new(vec![(
            "L.e".into(),
            ColumnData::from_values(dtype, &values).unwrap(),
        )])
        .unwrap();
        let left = left.hconcat(&extra).unwrap();
        let probe = Expr::col("L.e");
        left_keys.push(if matches!(right, Expr::Call(..)) { day(probe) } else { probe });
        right_keys.push(right);
        if rng.one_in(2) {
            let k = left_keys.len() - 1;
            left_keys.swap(0, k);
            right_keys.swap(0, k);
        }
        (left, left_keys, right_keys)
    }

    /// The range scan equals the mask-then-copy scan, and the join with
    /// a scan (by key runs or hashed) equals the hash join over it, in
    /// rows, row order and provenance, on generated metadata tables and
    /// predicates.
    #[test]
    fn access_paths_match_the_mask_oracle() {
        let (mut ranged, mut by_runs, mut hashed, mut empty, mut one_row) = (0, 0, 0, 0, 0);
        for seed in 1..=1500u64 {
            let mut rng = Rng::new(seed);
            let db = Database::in_memory(BufferPoolConfig::default());
            let windows = rng.one_in(2);
            let shuffled = rng.one_in(4);
            let table = table(&mut rng, &db, windows, shuffled);
            let rows = db.table_rows(&table).unwrap();
            empty += usize::from(rows == 0);
            one_row += usize::from(rows == 1);
            let names: Vec<String> = db
                .table_schema(&table)
                .unwrap()
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let all: Vec<&str> = names.iter().map(String::as_str).collect();
            // Scan columns in any order, sometimes without some key
            // column; the predicate reads only scanned ones.
            let mut scanned = all.clone();
            for i in (1..scanned.len()).rev() {
                scanned.swap(i, rng.below(i + 1));
            }
            scanned.truncate(2 + rng.below(scanned.len() - 1));
            let columns: Vec<String> =
                scanned.iter().map(|c| format!("{table}.{c}")).collect();
            let pred = predicate(&mut rng, &db, &table, &scanned);
            let what = format!("seed {seed}: {table} ({rows} rows) where {pred:?}");
            let want = scan_masked(&db, &table, &columns, pred.as_ref()).unwrap();
            let (got, access) = scan(&db, &table, &columns, pred.as_ref()).unwrap();
            assert_same(&got, &want, &what);
            ranged += usize::from(access.touched < rows as usize);

            // A probe side keyed on the table's own columns.
            let (left, left_keys, right_keys) = probe(&mut rng, &db, &table);
            let all_columns: Vec<String> =
                all.iter().map(|c| format!("{table}.{c}")).collect();
            let what = format!("{what}, join {left_keys:?} = {right_keys:?}");
            // The scan's own predicate on a third of the joins (it
            // keeps few rows).
            let pred = pred.filter(|_| rng.one_in(3));
            let (got, access) = join_scan(
                &db,
                &left,
                &table,
                &all_columns,
                pred.as_ref(),
                &left_keys,
                &right_keys,
            )
            .unwrap();
            let right = scan_masked(&db, &table, &all_columns, pred.as_ref()).unwrap();
            let want = hash_join(&left, &right, &left_keys, &right_keys).unwrap();
            assert_same(&got, &want, &what);
            if access.runs != 0 {
                by_runs += 1;
            } else {
                hashed += 1;
            }
        }
        assert!(empty > 0 && one_row > 0, "{empty} empty, {one_row} one-row tables");
        assert!(ranged > 300, "only {ranged} scans narrowed by binary search");
        assert!(by_runs > 300, "only {by_runs} joins by key runs");
        assert!(hashed > 300, "only {hashed} joins hashed");
    }

    #[test]
    fn explain_names_the_access_path() {
        let db = Database::in_memory(BufferPoolConfig::default());
        let mut rng = Rng::new(7);
        let table = table(&mut rng, &db, true, false);
        let rows = db.table_rows(&table).unwrap();
        let columns: Vec<String> =
            ["W.station", "W.channel", "W.ts", "W.v"].map(String::from).into();
        let eq = |c: &str, v: &str| Expr::col(c).eq(Expr::lit(v));
        let pred = eq("W.station", "AQU")
            .and(eq("W.channel", "BHE"))
            .and(Expr::col("W.ts").cmp(CmpOp::Lt, Expr::lit(Value::Time(3 * HOUR))))
            .and(Expr::col("W.v").cmp(CmpOp::Gt, Expr::lit(0.0)));
        let (_, access) = scan(&db, &table, &columns, Some(&pred)).unwrap();
        let text = access.to_string();
        assert!(text.starts_with("W: range on PK prefix (3 of 3 cols), "), "{text}");
        assert!(text.ends_with(&format!(" of {rows} rows")), "{text}");
        let (_, access) = scan(&db, &table, &columns, Some(&eq("W.channel", "BHE"))).unwrap();
        assert_eq!(access.to_string(), format!("W: full scan, {rows} of {rows} rows"));
    }
}
