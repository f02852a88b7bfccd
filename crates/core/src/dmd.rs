//! Incremental metadata derivation — the paper's Algorithm 1 (§IV).
//!
//! Derived metadata is an incrementally materialized view whose shape
//! is declared by the source's [`DmdSpec`] (hourly seismogram windows
//! for the mSEED adapter, daily log summaries for the event-log
//! adapter, …). When a query refers to the derived table:
//!
//! 1. classify the query (done by the caller);
//! 2. find the predicates on the derived table's primary-key attributes;
//! 3. bound the referenced primary-key space `PSq`: a value set per
//!    dimension and one bucket range;
//! 4. intersect it with the already-materialized space `PSm`;
//! 5. compute the uncovered part `PSu = PSq − PSm`;
//! 6. derive what `PSu` points to with an internally generated
//!    aggregation query (which itself runs two-stage and loads lazily),
//!    and insert it into the derived table;
//! 7. proceed with the original query.
//!
//! Per the paper, *all* statistics are derived together for a window
//! ("if we derive some metadata for a specific window, then we derive
//! all possible metadata for that window").
//!
//! No key is ever enumerated. `PSm` is kept as coalesced bucket ranges
//! per dimension combination, and the key-space domain (each
//! dimension's distinct values and the data's bucket range) is read
//! from the given metadata once per registration and cached in the
//! [`DmdManager`]. So steps 3–5 cost a few range comparisons per
//! combination, and a query whose windows are all materialized
//! allocates nothing per key. Derived metadata lives as long as the
//! registration: it is computed from immutable chunk files, so chunk
//! eviction never invalidates it.

use crate::error::{Result, SommelierError};
use crate::source::{DmdSpec, SourceDescriptor};
use crate::QueryResult;
use sommelier_engine::eval::eval_scalar;
use sommelier_engine::spec::OutputExpr;
use sommelier_engine::{CmpOp, Expr, Func, QuerySpec, Relation, TableRef};
use sommelier_storage::sync::unpoison;
use sommelier_storage::{ColumnData, ConstraintPolicy, Database, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One derived-metadata primary key: the text dimension values (in
/// [`DmdSpec::dims`] order) plus the bucket start.
pub type DmdKey = (Vec<String>, i64);

/// Sorted, disjoint and non-adjacent half-open `[lo, hi)` ranges of
/// bucket-aligned timestamps.
type Ranges = Vec<(i64, i64)>;

/// Width of `[lo, hi) ∩ ranges`.
fn overlap(ranges: &[(i64, i64)], lo: i64, hi: i64) -> i64 {
    let first = ranges.partition_point(|r| r.1 <= lo);
    ranges[first..].iter().take_while(|r| r.0 < hi).map(|r| r.1.min(hi) - r.0.max(lo)).sum()
}

/// `[lo, hi) − ranges`, as sorted disjoint ranges.
fn gaps(ranges: &[(i64, i64)], lo: i64, hi: i64) -> Ranges {
    let mut out = Vec::new();
    let mut cursor = lo;
    let first = ranges.partition_point(|r| r.1 <= lo);
    for &(a, b) in ranges[first..].iter().take_while(|r| r.0 < hi) {
        if a > cursor {
            out.push((cursor, a));
        }
        cursor = cursor.max(b);
    }
    if cursor < hi {
        out.push((cursor, hi));
    }
    out
}

/// Add a non-empty `[lo, hi)` to `ranges`, merging every range it
/// overlaps or touches.
fn coalesce(ranges: &mut Ranges, lo: i64, hi: i64) {
    let start = ranges.partition_point(|r| r.1 < lo);
    let end = ranges.partition_point(|r| r.0 <= hi);
    let merged = if start < end {
        (lo.min(ranges[start].0), hi.max(ranges[end - 1].1))
    } else {
        (lo, hi)
    };
    ranges.splice(start..end, [merged]);
}

/// The materialized primary-key space `PSm`: per dimension combination,
/// the coalesced bucket ranges already derived, plus their key count.
#[derive(Debug)]
struct Coverage {
    bucket_ms: i64,
    ranges: HashMap<Vec<String>, Ranges>,
    keys: usize,
}

impl Coverage {
    fn new(bucket_ms: i64) -> Self {
        Coverage { bucket_ms, ranges: HashMap::new(), keys: 0 }
    }

    /// Mark the bucket-aligned `[lo, hi)` of `dims` as materialized.
    fn cover(&mut self, dims: &[String], (lo, hi): (i64, i64)) {
        if lo >= hi {
            return;
        }
        if !self.ranges.contains_key(dims) {
            self.ranges.insert(dims.to_vec(), Vec::new());
        }
        let ranges = self.ranges.get_mut(dims).expect("inserted above");
        self.keys += ((hi - lo - overlap(ranges, lo, hi)) / self.bucket_ms) as usize;
        coalesce(ranges, lo, hi);
    }

    /// `|PSu|` without enumerating anything: `PSq`'s size minus the
    /// covered keys of every materialized combination inside `PSq`
    /// (the combinations of a key space are distinct, so none counts
    /// twice).
    fn missing(&self, space: &KeySpace<'_>) -> usize {
        let (lo, hi) = space.buckets;
        let covered: i64 = self
            .ranges
            .iter()
            .filter(|(dims, _)| {
                dims.iter().zip(&space.dims).all(|(v, vals)| vals.contains(v))
            })
            .map(|(_, ranges)| overlap(ranges, lo, hi))
            .sum();
        space.size() - (covered / space.bucket_ms) as usize
    }

    /// `PSu` itself: every combination of `space` with its uncovered
    /// bucket ranges (combinations with none are left out).
    fn missing_ranges(&self, space: &KeySpace<'_>) -> Vec<(Vec<String>, Ranges)> {
        let (lo, hi) = space.buckets;
        space
            .combinations()
            .into_iter()
            .filter_map(|dims| {
                let covered = self.ranges.get(&dims).map_or(&[][..], Vec::as_slice);
                let todo = gaps(covered, lo, hi);
                (!todo.is_empty()).then_some((dims, todo))
            })
            .collect()
    }

    /// Is the key `(dims, bucket)` materialized?
    fn contains(&self, dims: &[&str], bucket: i64) -> bool {
        self.ranges.iter().any(|(d, ranges)| {
            d.iter().zip(dims).all(|(a, b)| a == b) && overlap(ranges, bucket, bucket + 1) > 0
        })
    }
}

/// Tracks the materialized primary-key space `PSm` of one source, and
/// caches the domain its key spaces are drawn from.
///
/// A key being in `PSm` means its window has been *computed* — whether
/// or not any rows resulted (a sensor with no data in that window
/// derives to nothing, and must not be recomputed every query). Keys
/// leave `PSm` only through [`DmdManager::clear`].
///
/// Concurrency: the coverage check of every DMd-referring query runs
/// under the `covered` lock alone, held for a few range comparisons.
/// Only a query that finds keys missing takes `derivation`, which
/// serializes Algorithm 1 runs so two queries over the same uncovered
/// window never derive (and insert) twice. A window's rows are inserted
/// before it is marked covered, so a query that finds it covered also
/// finds its rows.
#[derive(Debug)]
pub struct DmdManager {
    covered: Mutex<Coverage>,
    derivation: Mutex<()>,
    domain: Mutex<Option<Arc<KeyDomain>>>,
}

impl DmdManager {
    /// Empty manager (fresh database) over buckets `bucket_ms` wide.
    pub fn new(bucket_ms: i64) -> Self {
        DmdManager {
            covered: Mutex::new(Coverage::new(bucket_ms)),
            derivation: Mutex::new(()),
            domain: Mutex::new(None),
        }
    }

    /// Number of covered keys.
    pub fn covered_count(&self) -> usize {
        unpoison(self.covered.lock()).keys
    }

    /// Mark keys as materialized.
    pub fn mark_covered(&self, keys: impl IntoIterator<Item = DmdKey>) {
        let mut covered = unpoison(self.covered.lock());
        let w = covered.bucket_ms;
        for (dims, bucket) in keys {
            covered.cover(&dims, (bucket, bucket + w));
        }
    }

    /// Forget every covered key (tests; dropping a DMd table).
    pub fn clear(&self) {
        let mut covered = unpoison(self.covered.lock());
        *covered = Coverage::new(covered.bucket_ms);
    }

    /// Drop the cached key-space domain: the given metadata it was read
    /// from has just been (re-)registered.
    pub fn reset_domain(&self) {
        *unpoison(self.domain.lock()) = None;
    }

    /// The key-space domain, read from the given metadata on first use
    /// after a [`DmdManager::reset_domain`].
    fn domain(&self, db: &Database, dmd: &DmdSpec) -> Result<Arc<KeyDomain>> {
        let mut slot = unpoison(self.domain.lock());
        if let Some(domain) = &*slot {
            return Ok(Arc::clone(domain));
        }
        let domain = Arc::new(KeyDomain::scan(db, dmd)?);
        *slot = Some(Arc::clone(&domain));
        Ok(domain)
    }
}

/// Where every key space of a source is drawn from: each dimension's
/// distinct values and the data's bucket range, in the given metadata.
/// Only registration changes them.
#[derive(Debug, Clone)]
pub(crate) struct KeyDomain {
    /// Distinct values per dimension, in [`DmdSpec::dims`] order.
    pub dims: Vec<Vec<String>>,
    /// The whole data time range, bucket-aligned `[lo, hi)`.
    pub range: (i64, i64),
}

impl KeyDomain {
    /// Read the domain from the given metadata.
    pub(crate) fn scan(db: &Database, dmd: &DmdSpec) -> Result<Self> {
        let mut dims = Vec::with_capacity(dmd.dims.len());
        for dim in &dmd.dims {
            let (table, column) = SourceDescriptor::split_qualified(&dim.source_column)?;
            dims.push(distinct_text(db, table, column)?);
        }
        Ok(KeyDomain { dims, range: data_range(db, dmd)? })
    }

    /// The key space of every key in the domain.
    fn whole(&self, bucket_ms: i64) -> KeySpace<'_> {
        KeySpace {
            dims: self.dims.iter().map(|d| Cow::Borrowed(d.as_slice())).collect(),
            buckets: self.range,
            bucket_ms,
        }
    }
}

/// The primary-key space referenced by a query (step 3's output).
#[derive(Debug, Clone)]
pub struct KeySpace<'a> {
    /// Candidate values per dimension, in [`DmdSpec::dims`] order:
    /// the domain's own list for an unconstrained dimension.
    pub dims: Vec<Cow<'a, [String]>>,
    /// Bucket-aligned half-open range `[lo, hi)`.
    pub buckets: (i64, i64),
    /// Bucket width (ms).
    pub bucket_ms: i64,
}

impl KeySpace<'_> {
    /// Number of keys in the space.
    pub fn size(&self) -> usize {
        let buckets = ((self.buckets.1 - self.buckets.0).max(0) / self.bucket_ms) as usize;
        self.dims.iter().map(|d| d.len()).product::<usize>() * buckets
    }

    /// Every dimension combination (cartesian product of the dims).
    fn combinations(&self) -> Vec<Vec<String>> {
        let mut combos: Vec<Vec<String>> = vec![Vec::with_capacity(self.dims.len())];
        for values in &self.dims {
            combos = combos
                .iter()
                .flat_map(|prefix| {
                    values.iter().map(move |v| {
                        let mut next = prefix.clone();
                        next.push(v.clone());
                        next
                    })
                })
                .collect();
        }
        combos
    }
}

/// Largest bucket-aligned timestamp ≤ `t`.
fn bucket_floor(t: i64, width: i64) -> i64 {
    t.div_euclid(width) * width
}

/// Smallest bucket-aligned timestamp ≥ `t`.
fn bucket_ceil(t: i64, width: i64) -> i64 {
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
fn scan_relation(db: &Database, table: &str) -> Result<Relation> {
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
fn column_as_ms(col: &ColumnData) -> Result<Vec<i64>> {
    Ok(match col {
        ColumnData::Float64(v) => v.iter().map(|&x| x as i64).collect(),
        other => other.as_i64()?.to_vec(),
    })
}

/// The whole data time range, from the spec's range expressions over
/// the given metadata: `[floor(min), ceil(max))`, bucket-aligned.
fn data_range(db: &Database, dmd: &DmdSpec) -> Result<(i64, i64)> {
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
/// derived table and bound the key space. Unconstrained dimensions
/// widen to the domain's values; the bucket range is clipped to the
/// domain's data range.
pub(crate) fn extract_key_space<'a>(
    spec: &QuerySpec,
    dmd: &DmdSpec,
    domain: &'a KeyDomain,
) -> Result<KeySpace<'a>> {
    let mut dim_eqs: Vec<Vec<String>> = vec![Vec::new(); dmd.dims.len()];
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    let bucket_qualified = format!("{}.{}", dmd.table, dmd.bucket_column);
    for (table, pred) in &spec.predicates {
        if table != &dmd.table {
            continue;
        }
        for conjunct in pred.conjuncts() {
            let Expr::Cmp(op, lhs, rhs) = conjunct else { continue };
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
    let dims = dim_eqs
        .into_iter()
        .zip(&domain.dims)
        .map(|(mut eqs, all)| {
            eqs.dedup();
            match eqs.len() {
                0 => Cow::Borrowed(all.as_slice()),
                1 => Cow::Owned(eqs),
                _ if eqs.iter().all(|e| e == &eqs[0]) => Cow::Owned(vec![eqs.swap_remove(0)]),
                _ => Cow::Owned(vec![]), // contradictory
            }
        })
        .collect();
    let w = dmd.bucket_ms;
    let (data_lo, data_hi) = domain.range;
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

/// Algorithm 1, steps 2–6: make sure every derived key `spec` refers
/// to is materialized, deriving the missing part through `run` (the
/// caller's query-execution path, so derivation itself is two-stage
/// and lazy when the system is lazy).
pub fn ensure_dmd(
    db: &Database,
    manager: &DmdManager,
    descriptor: &SourceDescriptor,
    spec: &QuerySpec,
    run: &dyn Fn(QuerySpec) -> Result<QueryResult>,
) -> Result<DmdOutcome> {
    let dmd = descriptor.dmd.as_ref().ok_or_else(|| {
        SommelierError::Usage(format!(
            "source {:?} has no derived metadata to ensure",
            descriptor.name
        ))
    })?;
    let t0 = Instant::now();
    // Steps 2–3: the referenced key space.
    let domain = manager.domain(db, dmd)?;
    let space = extract_key_space(spec, dmd, &domain)?;
    let mut outcome = DmdOutcome { requested: space.size(), ..DmdOutcome::default() };
    // Steps 4–5 under the coverage lock alone: a query whose windows
    // are all materialized never waits behind a derivation.
    if unpoison(manager.covered.lock()).missing(&space) > 0 {
        // Serialize Algorithm 1: two concurrent queries over the same
        // uncovered window must not both derive it (the second insert
        // would trip the derived table's primary key), so PSu is
        // recomputed under the lock. The derivation queries themselves
        // never re-enter (they are T4-shaped), so holding the lock
        // across `run` cannot deadlock.
        let _derivation = unpoison(manager.derivation.lock());
        let psu = unpoison(manager.covered.lock()).missing_ranges(&space);
        // Step 6: one derivation per uncovered range of a combination.
        for (dims, ranges) in psu {
            let fixed: Vec<Option<&str>> = dims.iter().map(|d| Some(d.as_str())).collect();
            for (lo, hi) in ranges {
                outcome.missing += ((hi - lo) / dmd.bucket_ms) as usize;
                let result = run(derivation_spec(descriptor, dmd, &fixed, lo, hi))?;
                outcome.files_loaded += result.stats.files_loaded;
                // The derivation's predicates fix the dims and its
                // bucket range is exactly the gap, so every row is new.
                insert_derived(db, dmd, &result.relation, &mut outcome)?;
                unpoison(manager.covered.lock()).cover(&dims, (lo, hi));
            }
        }
    }
    outcome.derive_time = t0.elapsed();
    Ok(outcome)
}

/// Append derivation-result rows to the derived table, which keeps
/// itself in primary-key order whatever order its windows are derived
/// in ([`Database::append`]). The derivation output is dims, bucket,
/// aggregates — exactly the derived table's column order (validated at
/// build time).
fn insert_derived(
    db: &Database,
    dmd: &DmdSpec,
    rel: &Relation,
    outcome: &mut DmdOutcome,
) -> Result<()> {
    if rel.rows() == 0 {
        return Ok(());
    }
    let batch: Vec<ColumnData> =
        rel.columns().iter().map(|(_, c)| ColumnData::clone(c)).collect();
    outcome.rows_inserted += rel.rows() as u64;
    db.append(&dmd.table, &batch, ConstraintPolicy::pk_only())?;
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
    run: &dyn Fn(QuerySpec) -> Result<QueryResult>,
) -> Result<DmdOutcome> {
    let dmd = descriptor.dmd.as_ref().ok_or_else(|| {
        SommelierError::Usage(format!(
            "source {:?} has no derived metadata to materialize",
            descriptor.name
        ))
    })?;
    let t0 = Instant::now();
    let _derivation = unpoison(manager.derivation.lock());
    let domain = manager.domain(db, dmd)?;
    let space = domain.whole(dmd.bucket_ms);
    let mut outcome = DmdOutcome {
        requested: space.size(),
        missing: unpoison(manager.covered.lock()).missing(&space),
        ..DmdOutcome::default()
    };
    if outcome.missing > 0 {
        let unconstrained: Vec<Option<&str>> = vec![None; dmd.dims.len()];
        let (lo, hi) = space.buckets;
        let result = run(derivation_spec(descriptor, dmd, &unconstrained, lo, hi))?;
        outcome.files_loaded += result.stats.files_loaded;
        // The one pass recomputes windows already materialized too:
        // keep only the rows PSm lacks.
        let rel = &result.relation;
        let fresh = {
            let covered = unpoison(manager.covered.lock());
            let dim_cols = dmd
                .dims
                .iter()
                .map(|d| Ok(rel.column(&d.derived_column)?.as_text()?))
                .collect::<Result<Vec<_>>>()?;
            let buckets = rel.column(&dmd.bucket_column)?.as_i64()?;
            let keep: Vec<bool> = (0..rel.rows())
                .map(|r| {
                    let dims: Vec<&str> = dim_cols.iter().map(|c| c.get(r)).collect();
                    !covered.contains(&dims, buckets[r])
                })
                .collect();
            rel.filter(&keep)
        };
        insert_derived(db, dmd, &fresh, &mut outcome)?;
        let mut covered = unpoison(manager.covered.lock());
        for dims in space.combinations() {
            covered.cover(&dims, space.buckets);
        }
    }
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
    use sommelier_storage::rng::Rng;
    use sommelier_storage::time::{parse_ts, MS_PER_DAY, MS_PER_HOUR};
    use std::collections::HashSet;

    fn descriptor() -> SourceDescriptor {
        EventLogAdapter::descriptor_for_tests()
    }

    fn key(host: &str, service: &str, bucket: i64) -> DmdKey {
        (vec![host.to_string(), service.to_string()], bucket)
    }

    fn strings(values: &[&str]) -> Vec<String> {
        values.iter().map(|v| v.to_string()).collect()
    }

    fn is_covered(m: &DmdManager, (dims, bucket): &DmdKey) -> bool {
        let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
        unpoison(m.covered.lock()).contains(&dims, *bucket)
    }

    impl KeySpace<'_> {
        /// The brute-force oracle: `PSq` enumerated key by key
        /// (cartesian product of the dimensions × buckets).
        fn enumerate(&self) -> Vec<DmdKey> {
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

    #[test]
    fn bucket_ranges_merge_contiguous() {
        let d = MS_PER_DAY;
        let mut ranges = Vec::new();
        for b in [0, d, 2 * d, 5 * d] {
            coalesce(&mut ranges, b, b + d);
        }
        assert_eq!(ranges, vec![(0, 3 * d), (5 * d, 6 * d)]);
        // Overlapping, repeated and bridging ranges merge too.
        coalesce(&mut ranges, 2 * d, 4 * d);
        assert_eq!(ranges, vec![(0, 4 * d), (5 * d, 6 * d)]);
        coalesce(&mut ranges, 4 * d, 5 * d);
        assert_eq!(ranges, vec![(0, 6 * d)]);
        assert_eq!(overlap(&ranges, -d, 2 * d), 2 * d);
        assert_eq!(
            gaps(&[(0, d), (3 * d, 4 * d)], 0, 5 * d),
            vec![(d, 3 * d), (4 * d, 5 * d)]
        );
    }

    #[test]
    fn key_space_enumeration() {
        let ks = KeySpace {
            dims: vec![
                Cow::Owned(strings(&["web-1", "web-2"])),
                Cow::Owned(strings(&["api"])),
            ],
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
        let m = DmdManager::new(MS_PER_DAY);
        let k = key("web-1", "api", 0);
        assert!(!is_covered(&m, &k));
        m.mark_covered([k.clone()]);
        assert!(is_covered(&m, &k));
        assert_eq!(m.covered_count(), 1);
        // Re-marking a covered key counts nothing new.
        m.mark_covered([k.clone()]);
        assert_eq!(m.covered_count(), 1);
        m.clear();
        assert_eq!(m.covered_count(), 0);
        assert!(!is_covered(&m, &k));
    }

    /// A random key space over `domain`: each dimension unconstrained,
    /// fixed to a value (possibly one the domain lacks) or empty (a
    /// contradictory pair of equalities); buckets possibly pre-epoch or
    /// empty.
    fn random_space<'a>(rng: &mut Rng, domain: &'a KeyDomain, w: i64) -> KeySpace<'a> {
        let dims = domain
            .dims
            .iter()
            .map(|all| match rng.below(4) {
                0 => Cow::Borrowed(all.as_slice()),
                1 => Cow::Owned(vec![all[rng.below(all.len())].clone()]),
                2 => Cow::Owned(vec!["absent".to_string()]),
                _ if rng.below(3) == 0 => Cow::Owned(vec![]),
                _ => Cow::Borrowed(all.as_slice()),
            })
            .collect();
        let lo = rng.range(-12..12) * w;
        KeySpace { dims, buckets: (lo, lo + rng.range(0..8) * w), bucket_ms: w }
    }

    /// Range coverage against the brute-force oracle: a few hundred
    /// random `cover`/`mark_covered`/`clear` steps and queries per
    /// seed, checking `requested`, `missing`, the uncovered ranges and
    /// `covered_count` against a `HashSet` of enumerated keys.
    #[test]
    fn range_coverage_matches_key_enumeration_oracle() {
        let w = MS_PER_HOUR;
        let domain = KeyDomain {
            dims: vec![strings(&["a", "b", "c"]), strings(&["x", "y"])],
            range: (-8 * w, 8 * w),
        };
        for seed in 0..4 {
            let mut rng = Rng::new(seed);
            let m = DmdManager::new(w);
            let mut model: HashSet<DmdKey> = HashSet::new();
            for step in 0..300 {
                let combo = vec![
                    domain.dims[0][rng.below(3)].clone(),
                    domain.dims[1][rng.below(2)].clone(),
                ];
                match rng.below(10) {
                    // Short ranges over a narrow span: overlapping and
                    // adjacent ranges are common, so coalescing runs.
                    0..=2 => {
                        let lo = rng.range(-10..10) * w;
                        let hi = lo + rng.range(0..5) * w;
                        unpoison(m.covered.lock()).cover(&combo, (lo, hi));
                        let mut b = lo;
                        while b < hi {
                            model.insert((combo.clone(), b));
                            b += w;
                        }
                    }
                    3 => {
                        let k = (combo, rng.range(-10..10) * w);
                        m.mark_covered([k.clone()]);
                        model.insert(k);
                    }
                    4 if rng.below(15) == 0 => {
                        m.clear();
                        model.clear();
                    }
                    _ => {
                        let space = random_space(&mut rng, &domain, w);
                        let psq = space.enumerate();
                        assert_eq!(space.size(), psq.len(), "seed {seed} step {step}");
                        let want: HashSet<DmdKey> =
                            psq.into_iter().filter(|k| !model.contains(k)).collect();
                        let covered = unpoison(m.covered.lock());
                        assert_eq!(
                            covered.missing(&space),
                            want.len(),
                            "seed {seed} step {step}"
                        );
                        let mut got = HashSet::new();
                        for (dims, ranges) in covered.missing_ranges(&space) {
                            for pair in ranges.windows(2) {
                                assert!(
                                    pair[0].1 < pair[1].0,
                                    "gaps not maximal: {ranges:?}"
                                );
                            }
                            for (lo, hi) in ranges {
                                assert!(lo < hi && lo % w == 0 && hi % w == 0);
                                let mut b = lo;
                                while b < hi {
                                    assert!(
                                        got.insert((dims.clone(), b)),
                                        "key derived twice"
                                    );
                                    b += w;
                                }
                            }
                        }
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                }
                let covered = unpoison(m.covered.lock());
                assert_eq!(covered.keys, model.len(), "seed {seed} step {step}");
                for ranges in covered.ranges.values() {
                    for pair in ranges.windows(2) {
                        assert!(pair[0].1 < pair[1].0, "not coalesced: {ranges:?}");
                    }
                }
            }
        }
    }

    /// Step 2–3 against an oracle that tests every bucket of the domain
    /// against the predicates: `Eq`/`Lt`/`Le`/`Gt`/`Ge` on aligned and
    /// unaligned edges (either operand order), pre-epoch buckets,
    /// unconstrained, fixed and contradictory dimensions.
    #[test]
    fn key_space_bounds_match_predicate_oracle() {
        let d = descriptor();
        let dmd = d.dmd.clone().unwrap();
        let w = dmd.bucket_ms;
        let domain = KeyDomain {
            dims: vec![strings(&["web-1", "web-2"]), strings(&["api", "db"])],
            range: (-4 * w, 4 * w),
        };
        let catalog = assemble_catalog(&[&d]).unwrap();
        let base = sommelier_sql::compile("SELECT day_max_val FROM Y", &catalog).unwrap();
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let holds = |op: CmpOp, b: i64, t: i64| match op {
            CmpOp::Eq => b == t,
            CmpOp::Lt => b < t,
            CmpOp::Le => b <= t,
            CmpOp::Gt => b > t,
            CmpOp::Ge => b >= t,
            CmpOp::Ne => true,
        };
        let mut rng = Rng::new(26);
        for case in 0..300 {
            let mut spec = base.clone();
            let mut bounds = Vec::new();
            for _ in 0..rng.below(3) {
                let op = ops[rng.below(ops.len())];
                let t = rng.range(-6..6) * w + [0, 1, w - 1][rng.below(3)];
                let (col, lit) = (Expr::col("Y.day_start_ts"), Expr::Lit(Value::Time(t)));
                let pred = if rng.below(2) == 0 {
                    col.cmp(op, lit)
                } else {
                    lit.cmp(op.flip(), col)
                };
                spec.predicates.push(("Y".to_string(), pred));
                bounds.push((op, t));
            }
            let hosts: Vec<&str> = match rng.below(4) {
                0 => vec![],
                1 => vec!["web-2"],
                2 => vec!["web-1", "web-1"],
                _ => vec!["web-1", "web-2"],
            };
            for h in &hosts {
                spec.predicates
                    .push(("Y".to_string(), Expr::col("Y.day_host").eq(Expr::lit(*h))));
            }
            let space = extract_key_space(&spec, &dmd, &domain).unwrap();

            let want_hosts: Vec<&str> = match hosts.as_slice() {
                [] => vec!["web-1", "web-2"],
                [first, rest @ ..] if rest.iter().all(|h| h == first) => vec![*first],
                _ => vec![],
            };
            let mut want = Vec::new();
            for h in &want_hosts {
                for s in ["api", "db"] {
                    let mut b = domain.range.0;
                    while b < domain.range.1 {
                        if bounds.iter().all(|&(op, t)| holds(op, b, t)) {
                            want.push(key(h, s, b));
                        }
                        b += w;
                    }
                }
            }
            assert_eq!(space.enumerate(), want, "case {case}: {bounds:?} {hosts:?}");
            assert_eq!(space.size(), want.len());
        }
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

        let manager = DmdManager::new(MS_PER_DAY);
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
        let domain = KeyDomain::scan(&db, &dmd_spec).unwrap();
        let space = extract_key_space(&spec, &dmd_spec, &domain).unwrap();
        assert_eq!(space.dims, vec![vec!["web-1".to_string()], vec!["api".to_string()]]);
        let psq = space.enumerate();
        assert_eq!(psq.len(), 3, "three days referenced");

        // Run Algorithm 1 with a stub runner that returns empty results
        // (we only check the PSu bookkeeping here; end-to-end
        // derivation is covered by integration tests).
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let run = |dspec: QuerySpec| -> Result<QueryResult> {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let plan = sommelier_engine::joinorder::plan_query(
                &dspec,
                &sommelier_engine::joinorder::PlanOptions::eager(),
            )?;
            let out = sommelier_engine::twostage::execute_plan(
                &db,
                &plan,
                None,
                &Default::default(),
            )?;
            Ok(QueryResult {
                relation: out.relation,
                stats: out.stats,
                qtype: crate::QueryType::T4,
                dmd: None,
                trace: out.trace,
                span_trace: None,
                degraded: None,
            })
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
                ColumnData::Text(TextColumn::from_strs(["web-1", "web-2", "web-1"])),
                ColumnData::Text(TextColumn::from_strs(["api", "api", "api"])),
                ColumnData::Timestamp(vec![0, MS_PER_DAY, MS_PER_DAY]),
                ColumnData::Float64(vec![1.0, 2.0, 3.0]),
                ColumnData::Float64(vec![0.5, 0.25, 0.5]),
                ColumnData::Float64(vec![0.75, 1.0, 1.5]),
            ],
            ConstraintPolicy::none(),
        )
        .unwrap();
        let manager = DmdManager::new(MS_PER_DAY);
        restore_coverage(&db, &manager, &dmd_spec).unwrap();
        assert_eq!(manager.covered_count(), 3);
        assert!(is_covered(&manager, &key("web-1", "api", 0)));
        assert!(is_covered(&manager, &key("web-2", "api", MS_PER_DAY)));
        assert!(!is_covered(&manager, &key("web-2", "api", 0)));
        // web-1's two adjacent days restore into one coalesced range.
        let covered = unpoison(manager.covered.lock());
        assert_eq!(covered.ranges[&strings(&["web-1", "api"])], vec![(0, 2 * MS_PER_DAY)]);
    }
}
