//! Incremental metadata derivation — the paper's Algorithm 1 (§IV).
//!
//! Derived metadata is an incrementally materialized view whose shape
//! is declared by the source's [`DmdSpec`] (hourly seismogram windows
//! for the mSEED adapter, daily log summaries for the event-log
//! adapter, …). When a query refers to the derived table:
//!
//! 1. classify the query (done by the caller);
//! 2. find the predicates on the derived table's primary-key attributes;
//! 3. enumerate the referenced primary-key space `PSq`;
//! 4. check it against the already-materialized space `PSm`;
//! 5. compute the uncovered part `PSu = PSq − PSm`;
//! 6. derive what `PSu` points to with an internally generated
//!    aggregation query (which itself runs two-stage and loads lazily),
//!    and insert it into the derived table;
//! 7. proceed with the original query.
//!
//! Per the paper, *all* statistics are derived together for a window
//! ("if we derive some metadata for a specific window, then we derive
//! all possible metadata for that window").

use crate::error::{Result, SommelierError};
use crate::source::{DmdSpec, SourceDescriptor};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sommelier_engine::eval::eval_scalar;
use sommelier_engine::spec::OutputExpr;
use sommelier_engine::twostage::QueryOutcome;
use sommelier_engine::{CmpOp, Expr, Func, QuerySpec, Relation, TableRef};
use sommelier_storage::{ColumnData, ConstraintPolicy, Database, Value};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One derived-metadata primary key: the text dimension values (in
/// [`DmdSpec::dims`] order) plus the bucket start.
pub type DmdKey = (Vec<String>, i64);

/// Tracks the materialized primary-key space `PSm` of one source.
///
/// A key being in `PSm` means its window has been *computed* — whether
/// or not any rows resulted (a sensor with no data in that window
/// derives to nothing, and must not be recomputed every query).
///
/// Concurrency: `derivation` serializes Algorithm 1 runs so two
/// queries over the same uncovered window never derive (and insert)
/// twice; `readers` is a query-vs-invalidation lock — every
/// DMd-referring query holds it shared for its whole execution, and
/// cellar eviction only invalidates coverage when it can take it
/// exclusively (invalidation is bookkeeping, never required for
/// correctness, so it is safely skipped under contention).
#[derive(Debug, Default)]
pub struct DmdManager {
    covered: Mutex<HashSet<DmdKey>>,
    derivation: Mutex<()>,
    readers: RwLock<()>,
}

impl DmdManager {
    /// Empty manager (fresh database).
    pub fn new() -> Self {
        DmdManager::default()
    }

    /// Enter a DMd-referring query: shared with other queries, mutually
    /// exclusive with coverage invalidation. Hold the guard until the
    /// query's plan has finished reading the derived table.
    pub fn begin_query(&self) -> RwLockReadGuard<'_, ()> {
        self.readers.read()
    }

    /// Try to enter coverage invalidation (exclusive with queries).
    /// `None` while any DMd query is in flight — the caller must then
    /// leave the (still-correct) derived rows in place.
    pub fn try_invalidate(&self) -> Option<RwLockWriteGuard<'_, ()>> {
        self.readers.try_write()
    }

    /// Number of covered keys.
    pub fn covered_count(&self) -> usize {
        self.covered.lock().len()
    }

    /// Mark keys as materialized.
    pub fn mark_covered(&self, keys: impl IntoIterator<Item = DmdKey>) {
        self.covered.lock().extend(keys);
    }

    /// Is a single key covered?
    pub fn is_covered(&self, key: &DmdKey) -> bool {
        self.covered.lock().contains(key)
    }

    /// Remove keys from the materialized space `PSm`, returning the
    /// ones that actually were covered. The cellar calls this when a
    /// chunk is evicted: windows derived from it leave `PSm` (and their
    /// derived rows are deleted), so a later query re-runs Algorithm 1
    /// for them instead of trusting stale residency bookkeeping.
    pub fn uncover(&self, keys: impl IntoIterator<Item = DmdKey>) -> Vec<DmdKey> {
        let mut covered = self.covered.lock();
        keys.into_iter().filter(|k| covered.remove(k)).collect()
    }

    /// Forget everything (tests; dropping a DMd table).
    pub fn clear(&self) {
        self.covered.lock().clear();
    }
}

/// The primary-key space referenced by a query (step 3's input).
#[derive(Debug, Clone)]
pub struct KeySpace {
    /// Candidate values per dimension, in [`DmdSpec::dims`] order.
    pub dims: Vec<Vec<String>>,
    /// Bucket-aligned half-open range `[lo, hi)`.
    pub buckets: (i64, i64),
    /// Bucket width (ms).
    pub bucket_ms: i64,
}

impl KeySpace {
    /// Number of keys in the space.
    pub fn size(&self) -> usize {
        let buckets = ((self.buckets.1 - self.buckets.0).max(0) / self.bucket_ms) as usize;
        self.dims.iter().map(|d| d.len()).product::<usize>() * buckets
    }

    /// Enumerate `PSq` (cartesian product of the dimensions × buckets).
    pub fn enumerate(&self) -> Vec<DmdKey> {
        let mut combos: Vec<Vec<String>> = vec![Vec::new()];
        for dim in &self.dims {
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    dim.iter().map(move |v| {
                        let mut next = prefix.clone();
                        next.push(v.clone());
                        next
                    })
                })
                .collect();
        }
        let mut out = Vec::with_capacity(self.size());
        for combo in combos {
            let mut b = self.buckets.0;
            while b < self.buckets.1 {
                out.push((combo.clone(), b));
                b += self.bucket_ms;
            }
        }
        out
    }
}

/// Largest bucket-aligned timestamp ≤ `t`.
pub(crate) fn bucket_floor(t: i64, width: i64) -> i64 {
    t.div_euclid(width) * width
}

/// Smallest bucket-aligned timestamp ≥ `t`.
pub(crate) fn bucket_ceil(t: i64, width: i64) -> i64 {
    let b = bucket_floor(t, width);
    if b == t {
        t
    } else {
        b + width
    }
}

/// Distinct text values of `table.column`.
fn distinct_text(db: &Database, table: &str, column: &str) -> Result<Vec<String>> {
    let cols = db.scan_columns(table, &[column])?;
    let text = cols[0].as_text()?;
    let mut seen = vec![false; text.dict.len()];
    let mut out = Vec::new();
    for &c in &text.codes {
        if !seen[c as usize] {
            seen[c as usize] = true;
            out.push(text.dict.get(c).to_string());
        }
    }
    Ok(out)
}

/// Scan a table into a relation with qualified column names, so the
/// spec's range expressions can be evaluated against it.
pub(crate) fn scan_relation(db: &Database, table: &str) -> Result<Relation> {
    let schema = db.table_schema(table)?;
    let cols = db.scan_table(table)?;
    Ok(Relation::new(
        schema
            .columns
            .iter()
            .zip(cols)
            .map(|(c, data)| (format!("{table}.{}", c.name), data))
            .collect(),
    )?)
}

/// Millisecond view of an evaluated time expression (timestamps stay
/// exact; float arithmetic results are truncated).
pub(crate) fn column_as_ms(col: &ColumnData) -> Result<Vec<i64>> {
    Ok(match col {
        ColumnData::Float64(v) => v.iter().map(|&x| x as i64).collect(),
        other => other.as_i64()?.to_vec(),
    })
}

/// The whole data time range, from the spec's range expressions over
/// the given metadata: `[floor(min), ceil(max))`, bucket-aligned.
pub fn data_range(db: &Database, dmd: &DmdSpec) -> Result<(i64, i64)> {
    let rel = scan_relation(db, &dmd.range_table)?;
    if rel.rows() == 0 {
        return Ok((0, 0));
    }
    let mins = column_as_ms(&eval_scalar(&dmd.range_min, &rel)?)?;
    let maxs = column_as_ms(&eval_scalar(&dmd.range_max, &rel)?)?;
    let lo = mins.iter().copied().min().expect("non-empty");
    let hi = maxs.iter().copied().max().expect("non-empty");
    Ok((bucket_floor(lo, dmd.bucket_ms), bucket_ceil(hi, dmd.bucket_ms)))
}

/// Step 2 + 3: extract the PK-attribute predicates of `spec` on the
/// derived table and build the key space. Unconstrained dimensions
/// widen to the values present in the given metadata; an unconstrained
/// bucket range widens to the data range.
pub fn extract_key_space(db: &Database, spec: &QuerySpec, dmd: &DmdSpec) -> Result<KeySpace> {
    let mut dim_eqs: Vec<Vec<String>> = vec![Vec::new(); dmd.dims.len()];
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    let bucket_qualified = format!("{}.{}", dmd.table, dmd.bucket_column);
    for (table, pred) in &spec.predicates {
        if table != &dmd.table {
            continue;
        }
        for conjunct in pred.clone().split_conjunction() {
            let Expr::Cmp(op, lhs, rhs) = &conjunct else { continue };
            let (op, col, lit) = match (&**lhs, &**rhs) {
                (Expr::Col(c), Expr::Lit(v)) => (*op, c.as_str(), v.clone()),
                (Expr::Lit(v), Expr::Col(c)) => (op.flip(), c.as_str(), v.clone()),
                _ => continue,
            };
            if col == bucket_qualified {
                let Value::Time(t) = lit
                    .coerce_to(sommelier_storage::DataType::Timestamp)
                    .map_err(SommelierError::Storage)?
                else {
                    continue;
                };
                match op {
                    CmpOp::Ge => lo = lo.max(t),
                    CmpOp::Gt => lo = lo.max(t + 1),
                    CmpOp::Lt => hi = hi.min(t),
                    CmpOp::Le => hi = hi.min(t + 1),
                    CmpOp::Eq => {
                        lo = lo.max(t);
                        hi = hi.min(t + 1);
                    }
                    CmpOp::Ne => {}
                }
                continue;
            }
            if op != CmpOp::Eq {
                continue;
            }
            for (i, dim) in dmd.dims.iter().enumerate() {
                if col == format!("{}.{}", dmd.table, dim.derived_column) {
                    dim_eqs[i]
                        .push(lit.as_str().map_err(SommelierError::Storage)?.to_string());
                }
            }
        }
    }
    // Dedup multiple equality predicates: conjunction of two different
    // constants is unsatisfiable → empty dimension.
    let collapse = |mut eqs: Vec<String>| -> Option<Vec<String>> {
        eqs.dedup();
        match eqs.len() {
            0 => None,
            1 => Some(eqs),
            _ => {
                if eqs.iter().all(|e| e == &eqs[0]) {
                    Some(vec![eqs[0].clone()])
                } else {
                    Some(vec![]) // contradictory
                }
            }
        }
    };
    let mut dims = Vec::with_capacity(dmd.dims.len());
    for (eqs, dim) in dim_eqs.into_iter().zip(&dmd.dims) {
        match collapse(eqs) {
            Some(vals) => dims.push(vals),
            None => {
                let (table, column) = SourceDescriptor::split_qualified(&dim.source_column)?;
                dims.push(distinct_text(db, table, column)?);
            }
        }
    }
    let w = dmd.bucket_ms;
    let (data_lo, data_hi) = data_range(db, dmd)?;
    let lo = if lo == i64::MIN { data_lo } else { bucket_ceil(lo, w).max(data_lo) };
    let hi = if hi == i64::MAX {
        data_hi
    } else {
        // Largest aligned bucket b with b < hi is floor(hi - 1); the
        // half-open end is one bucket past it.
        (bucket_floor(hi - 1, w) + w).min(data_hi)
    };
    Ok(KeySpace { dims, buckets: (lo, hi.max(lo)), bucket_ms: w })
}

/// Build the internal derivation query (the T2-computing aggregation
/// over the source's data view): all declared statistics over one
/// contiguous bucket range, optionally restricted to fixed dimension
/// values.
pub fn derivation_spec(
    descriptor: &SourceDescriptor,
    dmd: &DmdSpec,
    dim_values: &[Option<&str>],
    bucket_lo: i64,
    bucket_hi: i64,
) -> QuerySpec {
    debug_assert_eq!(dim_values.len(), dmd.dims.len());
    let bucket_expr = Expr::Call(
        Func::TimeBucket,
        vec![Expr::col(&dmd.bucket_ad_column), Expr::lit(dmd.bucket_ms)],
    );
    let mut predicates: Vec<(String, Expr)> = Vec::new();
    for (dim, value) in dmd.dims.iter().zip(dim_values) {
        if let Some(v) = value {
            let (table, _) = SourceDescriptor::split_qualified(&dim.source_column)
                .expect("validated descriptor");
            predicates
                .push((table.to_string(), Expr::col(&dim.source_column).eq(Expr::lit(*v))));
        }
    }
    let (ad_table, _) = dmd.bucket_ad_column.split_once('.').expect("qualified ad column");
    predicates.push((
        ad_table.to_string(),
        Expr::col(&dmd.bucket_ad_column)
            .cmp(CmpOp::Ge, Expr::Lit(Value::Time(bucket_lo)))
            .and(
                Expr::col(&dmd.bucket_ad_column)
                    .cmp(CmpOp::Lt, Expr::Lit(Value::Time(bucket_hi))),
            ),
    ));
    let mut output: Vec<OutputExpr> = Vec::new();
    let mut group_by: Vec<(String, Expr)> = Vec::new();
    for dim in &dmd.dims {
        output.push(OutputExpr::Column {
            name: dim.derived_column.clone(),
            expr: Expr::col(&dim.source_column),
        });
        group_by.push((dim.derived_column.clone(), Expr::col(&dim.source_column)));
    }
    output.push(OutputExpr::Column {
        name: dmd.bucket_column.clone(),
        expr: bucket_expr.clone(),
    });
    group_by.push((dmd.bucket_column.clone(), bucket_expr));
    for agg in &dmd.aggregates {
        output.push(OutputExpr::Aggregate {
            name: agg.derived_column.clone(),
            func: agg.func,
            expr: Expr::col(&agg.ad_column),
        });
    }
    QuerySpec {
        tables: dmd
            .derive_tables
            .iter()
            .map(|t| TableRef {
                name: t.clone(),
                class: descriptor.schema(t).expect("validated descriptor").class,
            })
            .collect(),
        joins: dmd.derive_joins.clone(),
        predicates,
        residual: vec![],
        output,
        group_by,
        order_by: vec![],
        limit: None,
        distinct: false,
    }
}

/// Outcome of running Algorithm 1 for one query.
#[derive(Debug, Clone, Default)]
pub struct DmdOutcome {
    /// |PSq| — keys the query refers to.
    pub requested: usize,
    /// |PSu| — keys that had to be derived now.
    pub missing: usize,
    /// Rows inserted into the derived table.
    pub rows_inserted: u64,
    /// Chunks loaded by the derivation queries (lazy mode).
    pub files_loaded: usize,
    /// Time spent deriving.
    pub derive_time: Duration,
}

/// Merge a sorted bucket list into contiguous `[lo, hi)` ranges.
fn bucket_ranges(mut buckets: Vec<i64>, width: i64) -> Vec<(i64, i64)> {
    buckets.sort_unstable();
    buckets.dedup();
    let mut out: Vec<(i64, i64)> = Vec::new();
    for b in buckets {
        match out.last_mut() {
            Some((_, hi)) if *hi == b => *hi = b + width,
            _ => out.push((b, b + width)),
        }
    }
    out
}

/// Algorithm 1, steps 2–6: make sure every derived key `spec` refers
/// to is materialized, deriving the missing part through `run` (the
/// caller's query-execution path, so derivation itself is two-stage
/// and lazy when the system is lazy).
pub fn ensure_dmd(
    db: &Database,
    manager: &DmdManager,
    descriptor: &SourceDescriptor,
    spec: &QuerySpec,
    run: &dyn Fn(QuerySpec) -> Result<QueryOutcome>,
) -> Result<DmdOutcome> {
    let dmd = descriptor.dmd.as_ref().ok_or_else(|| {
        SommelierError::Usage(format!(
            "source {:?} has no derived metadata to ensure",
            descriptor.name
        ))
    })?;
    let t0 = Instant::now();
    let mut outcome = DmdOutcome::default();
    // Serialize Algorithm 1: two concurrent queries over the same
    // uncovered window must not both derive it (the second insert
    // would trip the derived table's primary key). The derivation
    // queries themselves never re-enter (they are T4-shaped), so
    // holding the lock across `run` cannot deadlock.
    let _derivation = manager.derivation.lock();
    // Steps 2–3: the referenced key space.
    let space = extract_key_space(db, spec, dmd)?;
    let psq = space.enumerate();
    outcome.requested = psq.len();
    // Steps 4–5: PSu = PSq − PSm.
    let psu: Vec<DmdKey> = {
        let covered = manager.covered.lock();
        psq.into_iter().filter(|k| !covered.contains(k)).collect()
    };
    outcome.missing = psu.len();
    if psu.is_empty() {
        outcome.derive_time = t0.elapsed();
        return Ok(outcome);
    }
    // Step 6: derive per dimension combination, merging buckets into
    // contiguous ranges.
    let mut by_dims: std::collections::BTreeMap<Vec<String>, Vec<i64>> =
        std::collections::BTreeMap::new();
    for (dims, b) in &psu {
        by_dims.entry(dims.clone()).or_default().push(*b);
    }
    let psu_set: HashSet<DmdKey> = psu.iter().cloned().collect();
    for (dims, buckets) in by_dims {
        for (lo, hi) in bucket_ranges(buckets, dmd.bucket_ms) {
            let fixed: Vec<Option<&str>> = dims.iter().map(|d| Some(d.as_str())).collect();
            let dspec = derivation_spec(descriptor, dmd, &fixed, lo, hi);
            let result = run(dspec)?;
            outcome.files_loaded += result.stats.files_loaded;
            insert_derived(db, dmd, &result.relation, &psu_set, &mut outcome)?;
        }
    }
    manager.mark_covered(psu);
    outcome.derive_time = t0.elapsed();
    Ok(outcome)
}

/// Insert the derivation-result rows whose key is in `PSu` into the
/// derived table (a merged range may brush already-covered buckets).
fn insert_derived(
    db: &Database,
    dmd: &DmdSpec,
    rel: &Relation,
    psu_set: &HashSet<DmdKey>,
    outcome: &mut DmdOutcome,
) -> Result<()> {
    if rel.rows() == 0 {
        return Ok(());
    }
    let dim_cols: Vec<ColumnData> = dmd
        .dims
        .iter()
        .map(|d| rel.column(&d.derived_column).cloned())
        .collect::<sommelier_engine::Result<_>>()?;
    let buckets = rel.column(&dmd.bucket_column)?.as_i64()?.to_vec();
    let keep: Vec<bool> = (0..rel.rows())
        .map(|r| {
            let mut dims = Vec::with_capacity(dim_cols.len());
            for col in &dim_cols {
                match col.get(r) {
                    Value::Text(s) => dims.push(s),
                    _ => return false,
                }
            }
            psu_set.contains(&(dims, buckets[r]))
        })
        .collect();
    let filtered = rel.filter(&keep);
    if filtered.rows() > 0 {
        // The derivation output is dims, bucket, aggregates — exactly
        // the derived table's column order (validated at build time).
        let batch: Vec<ColumnData> =
            filtered.columns().iter().map(|(_, c)| ColumnData::clone(c)).collect();
        outcome.rows_inserted += filtered.rows() as u64;
        db.append(&dmd.table, &batch, ConstraintPolicy::pk_only())?;
    }
    Ok(())
}

/// Eagerly materialize the *entire* DMd space (the `eager_dmd` loading
/// variant): a single unconstrained derivation over the whole data
/// range (one pass over the actual data, grouped by the dims and
/// bucket).
pub fn derive_all(
    db: &Database,
    manager: &DmdManager,
    descriptor: &SourceDescriptor,
    run: &dyn Fn(QuerySpec) -> Result<QueryOutcome>,
) -> Result<DmdOutcome> {
    let dmd = descriptor.dmd.as_ref().ok_or_else(|| {
        SommelierError::Usage(format!(
            "source {:?} has no derived metadata to materialize",
            descriptor.name
        ))
    })?;
    let t0 = Instant::now();
    let mut outcome = DmdOutcome::default();
    let _derivation = manager.derivation.lock();
    let mut dims = Vec::with_capacity(dmd.dims.len());
    for dim in &dmd.dims {
        let (table, column) = SourceDescriptor::split_qualified(&dim.source_column)?;
        dims.push(distinct_text(db, table, column)?);
    }
    let buckets = data_range(db, dmd)?;
    let space = KeySpace { dims, buckets, bucket_ms: dmd.bucket_ms };
    let psq = space.enumerate();
    outcome.requested = psq.len();
    let psu: Vec<DmdKey> = {
        let covered = manager.covered.lock();
        psq.into_iter().filter(|k| !covered.contains(k)).collect()
    };
    outcome.missing = psu.len();
    if psu.is_empty() {
        outcome.derive_time = t0.elapsed();
        return Ok(outcome);
    }
    let unconstrained: Vec<Option<&str>> = vec![None; dmd.dims.len()];
    let dspec = derivation_spec(descriptor, dmd, &unconstrained, buckets.0, buckets.1);
    let result = run(dspec)?;
    outcome.files_loaded += result.stats.files_loaded;
    let psu_set: HashSet<DmdKey> = psu.iter().cloned().collect();
    insert_derived(db, dmd, &result.relation, &psu_set, &mut outcome)?;
    manager.mark_covered(psu);
    outcome.derive_time = t0.elapsed();
    Ok(outcome)
}

/// Restore `PSm` from the persisted derived table (re-opening a
/// disk-backed system): rows already materialized are usable again, so
/// Algorithm 1 must not re-derive them.
pub fn restore_coverage(db: &Database, manager: &DmdManager, dmd: &DmdSpec) -> Result<()> {
    if db.table_rows(&dmd.table)? == 0 {
        return Ok(());
    }
    let mut names: Vec<&str> = dmd.dims.iter().map(|d| d.derived_column.as_str()).collect();
    names.push(&dmd.bucket_column);
    let cols = db.scan_columns(&dmd.table, &names)?;
    let buckets = cols.last().expect("bucket column scanned").as_i64()?;
    let mut keys = Vec::with_capacity(buckets.len());
    for (r, &bucket) in buckets.iter().enumerate() {
        let mut dims = Vec::with_capacity(dmd.dims.len());
        for col in &cols[..dmd.dims.len()] {
            dims.push(col.as_text()?.get(r).to_string());
        }
        keys.push((dims, bucket));
    }
    manager.mark_covered(keys);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::eventlog::EventLogAdapter;
    use crate::source::assemble_catalog;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::time::{parse_ts, MS_PER_DAY, MS_PER_HOUR};

    fn descriptor() -> SourceDescriptor {
        EventLogAdapter::descriptor_for_tests()
    }

    fn key(host: &str, service: &str, bucket: i64) -> DmdKey {
        (vec![host.to_string(), service.to_string()], bucket)
    }

    #[test]
    fn bucket_ranges_merge_contiguous() {
        let d = MS_PER_DAY;
        assert_eq!(
            bucket_ranges(vec![0, d, 2 * d, 5 * d], d),
            vec![(0, 3 * d), (5 * d, 6 * d)]
        );
        assert_eq!(bucket_ranges(vec![], d), vec![]);
        assert_eq!(bucket_ranges(vec![3 * d, 0, 3 * d], d), vec![(0, d), (3 * d, 4 * d)]);
    }

    #[test]
    fn key_space_enumeration() {
        let ks = KeySpace {
            dims: vec![vec!["web-1".into(), "web-2".into()], vec!["api".into()]],
            buckets: (0, 3 * MS_PER_DAY),
            bucket_ms: MS_PER_DAY,
        };
        let keys = ks.enumerate();
        assert_eq!(keys.len(), 6);
        assert_eq!(ks.size(), 6);
        assert_eq!(keys[0], key("web-1", "api", 0));
        assert_eq!(keys[2].1, 2 * MS_PER_DAY);
        assert_eq!(keys[5], key("web-2", "api", 2 * MS_PER_DAY));
    }

    #[test]
    fn manager_tracks_coverage() {
        let m = DmdManager::new();
        let k = key("web-1", "api", 0);
        assert!(!m.is_covered(&k));
        m.mark_covered([k.clone()]);
        assert!(m.is_covered(&k));
        assert_eq!(m.covered_count(), 1);
        m.clear();
        assert_eq!(m.covered_count(), 0);
    }

    #[test]
    fn uncover_reports_only_previously_covered_keys() {
        let m = DmdManager::new();
        let a = key("web-1", "api", 0);
        let b = key("web-1", "api", MS_PER_DAY);
        m.mark_covered([a.clone()]);
        let gone = m.uncover([a.clone(), b.clone()]);
        assert_eq!(gone, vec![a.clone()]);
        assert!(!m.is_covered(&a));
        assert_eq!(m.covered_count(), 0);
        // Idempotent.
        assert!(m.uncover([a]).is_empty());
    }

    #[test]
    fn bucket_alignment() {
        assert_eq!(bucket_floor(1, MS_PER_HOUR), 0);
        assert_eq!(bucket_ceil(0, MS_PER_HOUR), 0);
        assert_eq!(bucket_ceil(1, MS_PER_HOUR), MS_PER_HOUR);
        assert_eq!(bucket_ceil(MS_PER_HOUR, MS_PER_HOUR), MS_PER_HOUR);
        // Pre-epoch timestamps stay aligned (euclidean division).
        assert_eq!(bucket_floor(-1, MS_PER_HOUR), -MS_PER_HOUR);
    }

    #[test]
    fn derivation_spec_is_valid_and_t4_shaped() {
        let d = descriptor();
        let dmd = d.dmd.as_ref().unwrap();
        let spec = derivation_spec(&d, dmd, &[Some("web-1"), Some("api")], 0, 2 * MS_PER_DAY);
        spec.validate().unwrap();
        assert_eq!(crate::query::classify(&spec), crate::query::QueryType::T4);
        assert_eq!(spec.group_by.len(), 3, "two dims + bucket");
        assert_eq!(spec.output.len(), 6, "dims, bucket, three statistics");
    }

    /// The PSq/PSm/PSu walkthrough of §IV, transposed onto the
    /// event-log source: a query refers to 3 days of web-1/api; one is
    /// already materialized; PSu must be the other two.
    #[test]
    fn paper_example_psu() {
        let d = descriptor();
        let dmd_spec = d.dmd.clone().unwrap();
        let db = Database::in_memory(Default::default());
        for s in d.schemas.clone() {
            db.create_table(s, Disposition::Resident).unwrap();
        }
        // Given metadata: three daily chunks of web-1/api.
        let day0 = parse_ts("2011-03-01").unwrap();
        db.append(
            "G",
            &[
                ColumnData::Int64(vec![0, 1, 2]),
                ColumnData::Text(TextColumn::from_strs(["u0", "u1", "u2"])),
                ColumnData::Text(TextColumn::from_strs(["web-1", "web-1", "web-1"])),
                ColumnData::Text(TextColumn::from_strs(["api", "api", "api"])),
                ColumnData::Timestamp(vec![day0, day0 + MS_PER_DAY, day0 + 2 * MS_PER_DAY]),
            ],
            ConstraintPolicy::none(),
        )
        .unwrap();

        let manager = DmdManager::new();
        // "One of the previous queries already required DMd" of day 1.
        manager.mark_covered([key("web-1", "api", day0 + MS_PER_DAY)]);

        let catalog = assemble_catalog(&[&d]).unwrap();
        let spec = sommelier_sql::compile(
            "SELECT E.ts, E.val FROM daylogview \
             WHERE G.host = 'web-1' AND G.service = 'api' \
             AND Y.day_start_ts >= '2011-03-01T00:00:00.000' \
             AND Y.day_start_ts < '2011-03-04T00:00:00.000' \
             AND Y.day_max_val > 100",
            &catalog,
        )
        .unwrap();
        let space = extract_key_space(&db, &spec, &dmd_spec).unwrap();
        assert_eq!(space.dims, vec![vec!["web-1".to_string()], vec!["api".to_string()]]);
        let psq = space.enumerate();
        assert_eq!(psq.len(), 3, "three days referenced");

        // Run Algorithm 1 with a stub runner that returns empty results
        // (we only check the PSu bookkeeping here; end-to-end
        // derivation is covered by integration tests).
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let run = |dspec: QuerySpec| -> Result<QueryOutcome> {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let plan = sommelier_engine::joinorder::plan_query(
                &dspec,
                &sommelier_engine::joinorder::PlanOptions::eager(),
            )?;
            Ok(sommelier_engine::twostage::execute_plan(
                &db,
                &plan,
                None,
                &Default::default(),
            )?)
        };
        let outcome = ensure_dmd(&db, &manager, &d, &spec, &run).unwrap();
        assert_eq!(outcome.requested, 3);
        assert_eq!(outcome.missing, 2, "PSu excludes the covered middle day");
        assert_eq!(
            runs.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "days 0 and 2 are not contiguous: two ranges"
        );
        assert_eq!(manager.covered_count(), 3);

        // Re-running: PSq fully covered, nothing to derive (step 4).
        let outcome = ensure_dmd(&db, &manager, &d, &spec, &run).unwrap();
        assert_eq!(outcome.missing, 0);
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn restore_coverage_reads_persisted_rows() {
        let d = descriptor();
        let dmd_spec = d.dmd.clone().unwrap();
        let db = Database::in_memory(Default::default());
        for s in d.schemas.clone() {
            db.create_table(s, Disposition::Resident).unwrap();
        }
        db.append(
            "Y",
            &[
                ColumnData::Text(TextColumn::from_strs(["web-1", "web-2"])),
                ColumnData::Text(TextColumn::from_strs(["api", "api"])),
                ColumnData::Timestamp(vec![0, MS_PER_DAY]),
                ColumnData::Float64(vec![1.0, 2.0]),
                ColumnData::Float64(vec![0.5, 0.25]),
                ColumnData::Float64(vec![0.75, 1.0]),
            ],
            ConstraintPolicy::none(),
        )
        .unwrap();
        let manager = DmdManager::new();
        restore_coverage(&db, &manager, &dmd_spec).unwrap();
        assert_eq!(manager.covered_count(), 2);
        assert!(manager.is_covered(&key("web-1", "api", 0)));
        assert!(manager.is_covered(&key("web-2", "api", MS_PER_DAY)));
    }
}
