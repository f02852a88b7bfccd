//! Materialized intermediate relations.
//!
//! A [`Relation`] is an ordered list of named columns of equal length.
//! Column names are qualified (`F.station`) at scan time; derived
//! columns carry whatever name the projection/aggregation gave them.
//! Lookup accepts either the exact name or an unambiguous suffix match
//! (`station` finds `F.station`), which is how the SQL layer resolves
//! bare identifiers.
//!
//! Column payloads are shared (`Arc<ColumnData>`), so cloning a
//! relation, projecting columns out of it, or handing it between the
//! cellar and the executor never copies row data — operators
//! that really produce new rows (filters, gathers, unions) copy, and
//! in-place mutation goes through copy-on-write
//! ([`std::sync::Arc::make_mut`]).
//!
//! A relation may carry *provenance*: the base table it was scanned
//! from plus the base-table row position of each of its rows. Filters
//! preserve provenance; that is what lets the executor use a
//! materialized FK [`sommelier_storage::index::JoinIndex`] (an
//! *index-scan* access path) on an already-filtered child.
//!
//! A relation may also carry *sortedness flags*: a decoder that can
//! prove an `Int64`/`Timestamp` column non-decreasing marks it
//! ([`RelationBuilder::mark_sorted`]). The per-chunk pipeline
//! ([`crate::exec::ChunkPipeline`]) does not copy rows at each step: it
//! carries a *candidate list* — ascending, disjoint row ranges over the
//! chunk's shared columns — and turns literal comparisons on flagged
//! columns into `partition_point` bounds. Zero-copy projections and
//! concatenations keep the flags; every operator that builds new
//! columns (gathers, filters, unions) drops them.

use crate::error::{EngineError, Result};
use sommelier_storage::{ColumnData, DataType, Value};
use std::ops::Range;
use std::sync::Arc;

/// Row provenance for index joins.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The base table these rows come from.
    pub table: String,
    /// For each relation row, its row position in the base table.
    pub rows: Vec<u32>,
}

/// A named-column relation with shared (zero-copy) column payloads.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    cols: Vec<(String, Arc<ColumnData>)>,
    provenance: Option<Provenance>,
    /// Bit `i` set: column `i` is known to be non-decreasing (only the
    /// first 64 columns can carry the flag).
    sorted: u64,
}

impl Relation {
    /// Empty relation (no columns, no rows).
    pub fn empty() -> Self {
        Relation::default()
    }

    /// Build from named columns; validates equal lengths.
    pub fn new(cols: Vec<(String, ColumnData)>) -> Result<Self> {
        Relation::from_shared(cols.into_iter().map(|(n, c)| (n, Arc::new(c))).collect())
    }

    /// Build from already-shared columns (no copies); validates equal
    /// lengths.
    pub fn from_shared(cols: Vec<(String, Arc<ColumnData>)>) -> Result<Self> {
        if let Some(first) = cols.first().map(|(_, c)| c.len()) {
            for (name, c) in &cols {
                if c.len() != first {
                    return Err(EngineError::Exec(format!(
                        "ragged relation: column {name} has {} rows, expected {first}",
                        c.len()
                    )));
                }
            }
        }
        Ok(Relation { cols, provenance: None, sorted: 0 })
    }

    /// Flag column `name` as non-decreasing (test relations; decoders
    /// flag through [`RelationBuilder::mark_sorted`]).
    #[cfg(test)]
    pub(crate) fn with_sorted(mut self, name: &str) -> Result<Self> {
        let i = self.resolve(name)?;
        self.mark_sorted(i)?;
        Ok(self)
    }

    /// Flag column `i` as non-decreasing. Errors unless the column is
    /// `Int64` or `Timestamp`.
    pub(crate) fn mark_sorted(&mut self, i: usize) -> Result<()> {
        let Ok(v) = self.cols[i].1.as_i64() else {
            return Err(EngineError::Exec(format!(
                "only integer and timestamp columns can be flagged sorted, not {}",
                self.cols[i].0
            )));
        };
        debug_assert!(v.windows(2).all(|w| w[0] <= w[1]), "{} is not sorted", self.cols[i].0);
        if i < 64 {
            self.sorted |= 1 << i;
        }
        Ok(())
    }

    /// Is column `i` flagged non-decreasing?
    pub fn is_sorted(&self, i: usize) -> bool {
        i < 64 && self.sorted & (1 << i) != 0
    }

    /// Attach provenance (base table + row positions).
    pub fn with_provenance(mut self, table: impl Into<String>, rows: Vec<u32>) -> Self {
        self.provenance = Some(Provenance { table: table.into(), rows });
        self
    }

    /// The provenance, if preserved.
    pub fn provenance(&self) -> Option<&Provenance> {
        self.provenance.as_ref()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.cols.first().map_or(0, |(_, c)| c.len())
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The columns (name, shared data) in order.
    pub fn columns(&self) -> &[(String, Arc<ColumnData>)] {
        &self.cols
    }

    /// Resolve `name` to a column position: exact match first, then an
    /// unambiguous `.name` suffix match.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        if let Some(i) = self.cols.iter().position(|(n, _)| n == name) {
            return Ok(i);
        }
        let suffix = format!(".{name}");
        let mut found = None;
        for (i, (n, _)) in self.cols.iter().enumerate() {
            if n.ends_with(&suffix) {
                if found.is_some() {
                    return Err(EngineError::Bind(format!("ambiguous column name {name:?}")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            EngineError::Bind(format!(
                "unknown column {name:?} (have: {})",
                self.names().join(", ")
            ))
        })
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&ColumnData> {
        Ok(&self.cols[self.resolve(name)?].1)
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &ColumnData {
        &self.cols[i].1
    }

    /// The scalar at (row, column name) — convenience for tests/results.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        Ok(self.column(name)?.get(row))
    }

    /// Gather rows by position into a new relation (provenance follows).
    /// The identity gather (every row once, in order — what an FK join
    /// whose every probe row matches exactly once produces) returns a
    /// cheap clone with shared columns instead of copying.
    pub fn take(&self, idx: &[u32]) -> Relation {
        if idx.len() == self.rows() && idx.iter().enumerate().all(|(i, &x)| x as usize == i) {
            return self.clone();
        }
        let cols =
            self.cols.iter().map(|(n, c)| (n.clone(), Arc::new(c.take(idx)))).collect();
        let provenance = self.provenance.as_ref().map(|p| Provenance {
            table: p.table.clone(),
            rows: idx.iter().map(|&i| p.rows[i as usize]).collect(),
        });
        Relation { cols, provenance, sorted: 0 }
    }

    /// Gather ascending, disjoint row ranges into a new relation
    /// (provenance follows). Ranges covering every row return a cheap
    /// clone with shared columns.
    pub(crate) fn take_ranges(&self, ranges: &[Range<usize>]) -> Relation {
        if matches!(ranges, [r] if r.start == 0 && r.end == self.rows()) {
            return self.clone();
        }
        let cols = self
            .cols
            .iter()
            .map(|(n, c)| (n.clone(), Arc::new(c.take_ranges(ranges))))
            .collect();
        let provenance = self.provenance.as_ref().map(|p| Provenance {
            table: p.table.clone(),
            rows: ranges.iter().flat_map(|r| p.rows[r.clone()].iter().copied()).collect(),
        });
        Relation { cols, provenance, sorted: 0 }
    }

    /// Filter by a boolean mask (provenance follows). An all-true mask
    /// returns a cheap clone (shared columns, no per-row copies); the
    /// gather list is pre-sized from the mask's popcount otherwise.
    pub fn filter(&self, mask: &[bool]) -> Relation {
        debug_assert_eq!(mask.len(), self.rows());
        let kept = mask.iter().filter(|&&k| k).count();
        if kept == mask.len() {
            return self.clone();
        }
        let mut idx: Vec<u32> = Vec::with_capacity(kept);
        idx.extend(mask.iter().enumerate().filter_map(|(i, &k)| k.then_some(i as u32)));
        self.take(&idx)
    }

    /// Append `other`'s rows (schemas must match by name & type, in
    /// order). The first append to a shared column copies it
    /// (copy-on-write) with capacity reserved for both sides up front;
    /// a union of a single relation stays zero-copy.
    pub fn union_in_place(&mut self, other: &Relation) -> Result<()> {
        if self.cols.is_empty() {
            *self = other.clone();
            self.provenance = None;
            self.sorted = 0;
            return Ok(());
        }
        if self.width() != other.width() {
            return Err(EngineError::Exec(format!(
                "union arity mismatch: {} vs {}",
                self.width(),
                other.width()
            )));
        }
        let extra = other.rows();
        for ((an, ac), (bn, bc)) in self.cols.iter_mut().zip(other.cols.iter()) {
            if an != bn {
                return Err(EngineError::Exec(format!(
                    "union column mismatch: {an} vs {bn}"
                )));
            }
            let appended = Arc::get_mut(ac).map(|col| {
                col.reserve(extra);
                col.append(bc)
            });
            match appended {
                Some(done) => done?,
                // Shared numeric column: rebuild once with the combined
                // capacity instead of copy-on-write (exact-size clone)
                // followed by a growing append.
                None if !matches!(&**ac, ColumnData::Text(_)) => {
                    let mut col = ColumnData::with_capacity(ac.data_type(), ac.len() + extra);
                    col.append(ac)?;
                    col.append(bc)?;
                    *ac = Arc::new(col);
                }
                // Shared text column: copy-on-write keeps the shared
                // dictionary (a capacity rebuild would re-intern every
                // code); reserve before extending.
                None => {
                    let col = Arc::make_mut(ac);
                    col.reserve(extra);
                    col.append(bc)?;
                }
            }
        }
        self.provenance = None;
        self.sorted = 0;
        Ok(())
    }

    /// Append `other`'s columns after this relation's (zero-copy; the
    /// rows must align). Provenance stays this relation's; both sides'
    /// sortedness flags follow their columns.
    pub(crate) fn hconcat(mut self, other: &Relation) -> Result<Relation> {
        if !self.cols.is_empty() && !other.cols.is_empty() && other.rows() != self.rows() {
            return Err(EngineError::Exec(format!(
                "ragged concatenation: {} rows beside {}",
                other.rows(),
                self.rows()
            )));
        }
        if self.width() < 64 {
            self.sorted |= other.sorted << self.width();
        }
        self.cols.extend(other.cols.iter().cloned());
        Ok(self)
    }

    /// Keep only the named columns, renaming to (output name, source
    /// name). Zero-copy: the output shares the source's column payloads
    /// and keeps their sortedness flags.
    pub fn project_named<'n>(
        &self,
        wanted: impl IntoIterator<Item = (&'n str, &'n str)>,
    ) -> Result<Relation> {
        let mut cols = Vec::new();
        let mut sorted = 0;
        for (out, src) in wanted {
            let i = self.resolve(src)?;
            if self.is_sorted(i) && cols.len() < 64 {
                sorted |= 1 << cols.len();
            }
            cols.push((out.to_string(), Arc::clone(&self.cols[i].1)));
        }
        let mut rel = Relation::from_shared(cols)?;
        rel.sorted = sorted;
        Ok(rel)
    }

    /// Approximate heap bytes (for the cellar's budget accounting).
    pub fn approx_bytes(&self) -> usize {
        self.cols.iter().map(|(n, c)| n.len() + c.approx_bytes()).sum::<usize>()
            + self.provenance.as_ref().map_or(0, |p| p.rows.len() * 4)
    }

    /// Render as an aligned text table (examples, debugging).
    pub fn pretty(&self, limit: usize) -> String {
        let mut out = String::new();
        let names = self.names();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for r in 0..self.rows().min(limit) {
            let row: Vec<String> =
                self.cols.iter().map(|(_, c)| c.get(r).to_string()).collect();
            out.push_str(&row.join(" | "));
            out.push('\n');
        }
        if self.rows() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.rows()));
        }
        out
    }

    /// Data types of the columns, in order.
    pub fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(|(_, c)| c.data_type()).collect()
    }
}

/// Typed, pre-sized column builders for assembling a [`Relation`] in a
/// single pass — the decode hot path's alternative to building one
/// relation per sub-unit (segment, CSV line, ...) and unioning them,
/// which re-copies every column once per unit.
///
/// Columns are declared up front with their expected row count; hot
/// loops then write straight into the destination buffers through the
/// typed `*_mut` accessors (index handles from the `add_*` calls, so no
/// name lookups per row). [`RelationBuilder::finish`] validates equal
/// lengths and produces the relation without any further copy.
#[derive(Debug, Default)]
pub struct RelationBuilder {
    cols: Vec<(String, ColumnData)>,
    sorted: Vec<usize>,
}

impl RelationBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        RelationBuilder::default()
    }

    /// Declare a column of `dtype` pre-sized for `capacity` rows;
    /// returns its handle for the typed accessors.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        dtype: DataType,
        capacity: usize,
    ) -> usize {
        self.cols.push((name.into(), ColumnData::with_capacity(dtype, capacity)));
        self.cols.len() - 1
    }

    /// Number of declared columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The destination buffer of an `Int64` or `Timestamp` column.
    ///
    /// # Panics
    /// If `idx` is not a handle for an integer-family column.
    pub fn i64_mut(&mut self, idx: usize) -> &mut Vec<i64> {
        match &mut self.cols[idx].1 {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v,
            other => panic!("column {idx} is {}, not an i64 family", other.data_type()),
        }
    }

    /// The destination buffer of a `Float64` column.
    ///
    /// # Panics
    /// If `idx` is not a handle for a float column.
    pub fn f64_mut(&mut self, idx: usize) -> &mut Vec<f64> {
        match &mut self.cols[idx].1 {
            ColumnData::Float64(v) => v,
            other => panic!("column {idx} is {}, not float64", other.data_type()),
        }
    }

    /// The destination column of a `Text` column.
    ///
    /// # Panics
    /// If `idx` is not a handle for a text column.
    pub fn text_mut(&mut self, idx: usize) -> &mut sommelier_storage::column::TextColumn {
        match &mut self.cols[idx].1 {
            ColumnData::Text(t) => t,
            other => panic!("column {idx} is {}, not text", other.data_type()),
        }
    }

    /// Flag the integer-family column `idx` as non-decreasing; the flag
    /// lands on the finished relation. Only a decoder that has proved
    /// the order may call this: the executor turns literal comparisons
    /// on flagged columns into binary-searched row ranges, so a false
    /// flag gives wrong answers.
    pub fn mark_sorted(&mut self, idx: usize) {
        self.sorted.push(idx);
    }

    /// Assemble the relation (validates equal column lengths).
    pub fn finish(self) -> Result<Relation> {
        let mut rel = Relation::new(self.cols)?;
        for i in self.sorted {
            rel.mark_sorted(i)?;
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::column::TextColumn;

    fn sample() -> Relation {
        Relation::new(vec![
            ("F.file_id".into(), ColumnData::Int64(vec![1, 2, 3])),
            (
                "F.station".into(),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"])),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn ragged_rejected() {
        let r = Relation::new(vec![
            ("a".into(), ColumnData::Int64(vec![1])),
            ("b".into(), ColumnData::Int64(vec![1, 2])),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn resolve_exact_and_suffix() {
        let r = sample();
        assert_eq!(r.resolve("F.station").unwrap(), 1);
        assert_eq!(r.resolve("station").unwrap(), 1);
        assert!(r.resolve("nope").is_err());
        // Ambiguity.
        let r2 = Relation::new(vec![
            ("F.x".into(), ColumnData::Int64(vec![])),
            ("S.x".into(), ColumnData::Int64(vec![])),
        ])
        .unwrap();
        assert!(r2.resolve("x").is_err());
        assert!(r2.resolve("F.x").is_ok());
    }

    #[test]
    fn take_filter_and_provenance() {
        let r = sample().with_provenance("F", vec![10, 11, 12]);
        let f = r.filter(&[true, false, true]);
        assert_eq!(f.rows(), 2);
        assert_eq!(f.value(1, "station").unwrap(), Value::Text("ISK".into()));
        let p = f.provenance().unwrap();
        assert_eq!(p.rows, vec![10, 12]);
        assert_eq!(p.table, "F");
    }

    #[test]
    fn all_true_filter_shares_columns() {
        let r = sample().with_provenance("F", vec![10, 11, 12]);
        let f = r.filter(&[true, true, true]);
        assert_eq!(f.rows(), 3);
        // No row copies: the filtered relation shares the payloads.
        for (a, b) in r.columns().iter().zip(f.columns()) {
            assert!(Arc::ptr_eq(&a.1, &b.1));
        }
        // Provenance survives the fast path.
        assert_eq!(f.provenance().unwrap().rows, vec![10, 11, 12]);
    }

    #[test]
    fn sorted_flags_follow_zero_copy_columns_only() {
        let r = sample().with_sorted("F.file_id").unwrap();
        assert!(r.is_sorted(0) && !r.is_sorted(1));
        assert!(sample().with_sorted("F.station").is_err(), "text cannot be flagged");
        // Zero-copy projection and concatenation keep the flag ...
        let p = r.project_named([("st", "F.station"), ("id", "F.file_id")]).unwrap();
        assert!(!p.is_sorted(0) && p.is_sorted(1));
        let wide = p.hconcat(&r).unwrap();
        assert_eq!(
            (0..4).map(|i| wide.is_sorted(i)).collect::<Vec<_>>(),
            [false, true, true, false]
        );
        // ... operators that build new columns drop it.
        assert!(!r.take(&[2, 0]).is_sorted(0));
        assert!(!r.filter(&[true, false, true]).is_sorted(0));
        assert!(!r.take_ranges(&[0..1, 2..3]).is_sorted(0));
        let mut u = r.clone();
        u.union_in_place(&r).unwrap();
        assert!(!u.is_sorted(0));
        // Ranges gather rows and provenance in order.
        let g = r.with_provenance("F", vec![10, 11, 12]).take_ranges(&[0..1, 2..3]);
        assert_eq!(g.column("F.file_id").unwrap().as_i64().unwrap(), &[1, 3]);
        assert_eq!(g.provenance().unwrap().rows, vec![10, 12]);
    }

    #[test]
    fn union_checks_schema() {
        let mut a = sample();
        let b = sample();
        a.union_in_place(&b).unwrap();
        assert_eq!(a.rows(), 6);
        let mismatched =
            Relation::new(vec![("x".into(), ColumnData::Int64(vec![1]))]).unwrap();
        assert!(a.union_in_place(&mismatched).is_err());
        // Union into empty adopts the other's schema.
        let mut e = Relation::empty();
        e.union_in_place(&b).unwrap();
        assert_eq!(e.rows(), 3);
    }

    #[test]
    fn union_copy_on_write_leaves_source_intact() {
        let src = sample();
        let mut u = Relation::empty();
        u.union_in_place(&src).unwrap();
        // Single-relation union shares payloads ...
        assert!(Arc::ptr_eq(&src.columns()[0].1, &u.columns()[0].1));
        u.union_in_place(&src).unwrap();
        // ... and the second append copies before mutating.
        assert!(!Arc::ptr_eq(&src.columns()[0].1, &u.columns()[0].1));
        assert_eq!(src.rows(), 3, "source untouched");
        assert_eq!(u.rows(), 6);
    }

    #[test]
    fn project_named_renames_and_shares() {
        let r = sample();
        let p = r.project_named([("sid", "file_id"), ("st", "F.station")]).unwrap();
        assert_eq!(p.names(), vec!["sid", "st"]);
        assert_eq!(p.value(0, "sid").unwrap(), Value::Int(1));
        // Zero-copy: projections share the source payloads.
        assert!(Arc::ptr_eq(&p.columns()[1].1, &r.columns()[1].1));
    }

    #[test]
    fn builder_assembles_presized_columns() {
        let mut b = RelationBuilder::new();
        let ids = b.add("D.file_id", DataType::Int64, 3);
        let ts = b.add("D.sample_time", DataType::Timestamp, 3);
        let vals = b.add("D.sample_value", DataType::Float64, 3);
        let names = b.add("D.tag", DataType::Text, 3);
        assert_eq!(b.width(), 4);
        b.i64_mut(ids).extend([7, 7, 7]);
        b.i64_mut(ts).extend([100, 200, 300]);
        b.f64_mut(vals).extend([1.0, 2.0, 3.0]);
        for s in ["a", "b", "a"] {
            b.text_mut(names).push(s);
        }
        let r = b.finish().unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.names(), vec!["D.file_id", "D.sample_time", "D.sample_value", "D.tag"]);
        assert_eq!(r.column("D.sample_time").unwrap().as_i64().unwrap(), &[100, 200, 300]);
        assert_eq!(r.value(2, "D.tag").unwrap(), Value::Text("a".into()));
        // Types survive: the timestamp column is a timestamp, not int.
        assert_eq!(
            r.types(),
            vec![DataType::Int64, DataType::Timestamp, DataType::Float64, DataType::Text]
        );
    }

    #[test]
    fn builder_ragged_columns_rejected() {
        let mut b = RelationBuilder::new();
        let a = b.add("a", DataType::Int64, 2);
        b.add("b", DataType::Int64, 2);
        b.i64_mut(a).push(1);
        assert!(b.finish().is_err());
    }

    #[test]
    fn union_reserves_combined_capacity() {
        // Unique columns: capacity after the union covers both sides.
        let mut a = sample();
        let b = sample();
        a.union_in_place(&b).unwrap();
        match a.column("F.file_id").unwrap() {
            ColumnData::Int64(v) => assert!(v.capacity() >= 6),
            other => panic!("unexpected {other:?}"),
        }
        // Shared numeric columns rebuild once at the combined size.
        let shared = sample();
        let mut u = shared.clone();
        u.union_in_place(&shared).unwrap();
        assert_eq!(u.rows(), 6);
        assert_eq!(shared.rows(), 3, "source untouched");
        match u.column("F.file_id").unwrap() {
            ColumnData::Int64(v) => assert!(v.capacity() >= 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pretty_prints_and_truncates() {
        let r = sample();
        let s = r.pretty(2);
        assert!(s.contains("F.station"));
        assert!(s.contains("3 rows total"));
    }
}
