//! In-memory typed column vectors.
//!
//! The execution engine is *bulk* (column-at-a-time), like MonetDB:
//! operators consume and produce whole [`ColumnData`] vectors. Text
//! columns are dictionary-encoded ([`TextColumn`]): a shared, immutable
//! dictionary (`Arc<Dict>`) plus a `u32` code per row, which makes the
//! metadata columns (`station`, `channel`, ...) cheap to filter and join.

use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// An append-only string dictionary.
#[derive(Debug, Default, Clone)]
pub struct Dict {
    strs: Vec<String>,
    map: HashMap<String, u32>,
}

impl Dict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dict::default()
    }

    /// Intern `s`, returning its (stable) code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.map.get(s) {
            return c;
        }
        let c = self.strs.len() as u32;
        self.strs.push(s.to_string());
        self.map.insert(s.to_string(), c);
        c
    }

    /// Look up a code, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// The string for `code`.
    pub fn get(&self, code: u32) -> &str {
        &self.strs[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// True if no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// All interned strings in code order.
    pub fn strings(&self) -> &[String] {
        &self.strs
    }

    /// Approximate heap footprint in bytes (for cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.strs.iter().map(|s| s.len() + 24).sum::<usize>() + self.map.len() * 48
    }
}

/// A dictionary-encoded text column.
#[derive(Debug, Clone)]
pub struct TextColumn {
    /// Shared dictionary. Cloned copies of a column share it.
    pub dict: Arc<Dict>,
    /// One dictionary code per row.
    pub codes: Vec<u32>,
}

impl TextColumn {
    /// Empty column with a fresh dictionary.
    pub fn new() -> Self {
        TextColumn { dict: Arc::new(Dict::new()), codes: Vec::new() }
    }

    /// Build from an iterator of strings.
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(items: I) -> Self {
        let mut dict = Dict::new();
        let codes = items.into_iter().map(|s| dict.intern(s)).collect();
        TextColumn { dict: Arc::new(dict), codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at row `i`.
    pub fn get(&self, i: usize) -> &str {
        self.dict.get(self.codes[i])
    }

    /// Append one string (copy-on-write on the shared dictionary).
    pub fn push(&mut self, s: &str) {
        let code = match self.dict.code_of(s) {
            Some(c) => c,
            None => Arc::make_mut(&mut self.dict).intern(s),
        };
        self.codes.push(code);
    }

    /// Append all rows of `other`, remapping codes between dictionaries.
    pub fn append(&mut self, other: &TextColumn) {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.codes.extend_from_slice(&other.codes);
            return;
        }
        // Remap via a per-code translation table (dictionaries are small).
        let mut remap: Vec<Option<u32>> = vec![None; other.dict.len()];
        self.codes.reserve(other.codes.len());
        for &c in &other.codes {
            let mapped = match remap[c as usize] {
                Some(m) => m,
                None => {
                    let s = other.dict.get(c);
                    let m = match self.dict.code_of(s) {
                        Some(m) => m,
                        None => Arc::make_mut(&mut self.dict).intern(s),
                    };
                    remap[c as usize] = Some(m);
                    m
                }
            };
            self.codes.push(mapped);
        }
    }

    /// Reserve room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.codes.reserve(additional);
    }

    /// Gather rows by position, sharing the dictionary.
    pub fn take(&self, idx: &[u32]) -> TextColumn {
        TextColumn {
            dict: Arc::clone(&self.dict),
            codes: idx.iter().map(|&i| self.codes[i as usize]).collect(),
        }
    }
}

impl Default for TextColumn {
    fn default() -> Self {
        TextColumn::new()
    }
}

/// A typed, fully materialized column vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Timestamp(Vec<i64>),
    Text(TextColumn),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
            DataType::Text => ColumnData::Text(TextColumn::new()),
        }
    }

    /// An empty column of the given type, pre-sized for `capacity` rows.
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        let mut col = ColumnData::empty(dtype);
        col.reserve(capacity);
        col
    }

    /// Reserve room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v.reserve(additional),
            ColumnData::Float64(v) => v.reserve(additional),
            ColumnData::Text(t) => t.reserve(additional),
        }
    }

    /// Build a column from scalar values; all must coerce to `dtype`.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Self> {
        let mut col = ColumnData::empty(dtype);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// The column type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Timestamp(_) => DataType::Timestamp,
            ColumnData::Text(_) => DataType::Text,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Text(t) => t.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scalar at row `i` (clones text).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Timestamp(v) => Value::Time(v[i]),
            ColumnData::Text(t) => Value::Text(t.get(i).to_string()),
        }
    }

    /// Append one scalar, coercing it to the column type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        let coerced = v.coerce_to(self.data_type())?;
        match (self, coerced) {
            (ColumnData::Int64(c), Value::Int(x)) => c.push(x),
            (ColumnData::Float64(c), Value::Float(x)) => c.push(x),
            (ColumnData::Timestamp(c), Value::Time(x)) => c.push(x),
            (ColumnData::Text(c), Value::Text(x)) => c.push(&x),
            (col, v) => {
                return Err(StorageError::Value(format!(
                    "cannot push {v} into {} column",
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Append all rows of `other` (must be the same type).
    pub fn append(&mut self, other: &ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => a.extend_from_slice(b),
            (ColumnData::Text(a), ColumnData::Text(b)) => a.append(b),
            (a, b) => {
                return Err(StorageError::Value(format!(
                    "cannot append {} column to {} column",
                    b.data_type(),
                    a.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Gather rows by position.
    pub fn take(&self, idx: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int64(v) => {
                ColumnData::Int64(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Float64(v) => {
                ColumnData::Float64(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Timestamp(v) => {
                ColumnData::Timestamp(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Text(t) => ColumnData::Text(t.take(idx)),
        }
    }

    /// Gather ascending, disjoint row ranges, one slice copy per range.
    pub fn take_ranges(&self, ranges: &[Range<usize>]) -> ColumnData {
        fn gather<T: Copy>(v: &[T], ranges: &[Range<usize>]) -> Vec<T> {
            let mut out = Vec::with_capacity(ranges.iter().map(|r| r.len()).sum());
            for r in ranges {
                out.extend_from_slice(&v[r.clone()]);
            }
            out
        }
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(gather(v, ranges)),
            ColumnData::Float64(v) => ColumnData::Float64(gather(v, ranges)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(gather(v, ranges)),
            ColumnData::Text(t) => ColumnData::Text(TextColumn {
                dict: Arc::clone(&t.dict),
                codes: gather(&t.codes, ranges),
            }),
        }
    }

    /// Contiguous sub-range `[from, to)` of the column.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(v[from..to].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[from..to].to_vec()),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(v[from..to].to_vec()),
            ColumnData::Text(t) => ColumnData::Text(TextColumn {
                dict: Arc::clone(&t.dict),
                codes: t.codes[from..to].to_vec(),
            }),
        }
    }

    /// `i64` view (ints and timestamps).
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => Ok(v),
            other => Err(StorageError::Value(format!(
                "expected int64/timestamp column, got {}",
                other.data_type()
            ))),
        }
    }

    /// `f64` view.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ColumnData::Float64(v) => Ok(v),
            other => Err(StorageError::Value(format!(
                "expected float64 column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Result<&TextColumn> {
        match self {
            ColumnData::Text(t) => Ok(t),
            other => Err(StorageError::Value(format!(
                "expected text column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Approximate heap footprint in bytes (for buffer/cache accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Text(t) => t.codes.len() * 4 + t.dict.approx_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_interning_is_stable() {
        let mut d = Dict::new();
        let a = d.intern("ISK");
        let b = d.intern("FIAM");
        assert_eq!(d.intern("ISK"), a);
        assert_ne!(a, b);
        assert_eq!(d.get(b), "FIAM");
        assert_eq!(d.len(), 2);
        assert_eq!(d.code_of("BHE"), None);
    }

    #[test]
    fn text_column_push_and_get() {
        let mut t = TextColumn::new();
        t.push("a");
        t.push("b");
        t.push("a");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), "a");
        assert_eq!(t.get(2), "a");
        assert_eq!(t.codes[0], t.codes[2]);
        assert_eq!(t.dict.len(), 2);
    }

    #[test]
    fn text_column_append_remaps_codes() {
        let mut a = TextColumn::from_strs(["x", "y"]);
        let b = TextColumn::from_strs(["y", "z", "y"]);
        a.append(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(
            (0..5).map(|i| a.get(i).to_string()).collect::<Vec<_>>(),
            vec!["x", "y", "y", "z", "y"]
        );
        // 'y' must map to a single code even though it came from two dicts.
        assert_eq!(a.codes[1], a.codes[2]);
    }

    #[test]
    fn text_column_shared_dict_append_is_cheap() {
        let a = TextColumn::from_strs(["x", "y"]);
        let mut b = a.clone();
        b.append(&a);
        assert_eq!(b.len(), 4);
        assert!(Arc::ptr_eq(&a.dict, &b.dict));
    }

    #[test]
    fn column_push_coerces() {
        let mut c = ColumnData::empty(DataType::Float64);
        c.push(&Value::Int(2)).unwrap();
        c.push(&Value::Float(0.5)).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[2.0, 0.5]);
        assert!(c.push(&Value::Text("no".into())).is_err());
    }

    #[test]
    fn column_take_and_slice() {
        let c = ColumnData::Int64(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.as_i64().unwrap(), &[40, 10, 10]);
        let s = c.slice(1, 3);
        assert_eq!(s.as_i64().unwrap(), &[20, 30]);
        let r = c.take_ranges(&[0..1, 2..4]);
        assert_eq!(r.as_i64().unwrap(), &[10, 30, 40]);
        let text = ColumnData::Text(TextColumn::from_strs(["a", "b", "c"]));
        let r = text.take_ranges(&[1..2, 2..3]);
        assert_eq!((r.as_text().unwrap().get(0), r.len()), ("b", 2));
    }

    #[test]
    fn text_take_shares_dict() {
        let t = TextColumn::from_strs(["a", "b", "c"]);
        let c = ColumnData::Text(t.clone());
        let taken = c.take(&[2, 1]);
        let taken = taken.as_text().unwrap();
        assert_eq!(taken.get(0), "c");
        assert!(Arc::ptr_eq(&taken.dict, &t.dict));
    }

    #[test]
    fn append_type_mismatch_errors() {
        let mut a = ColumnData::Int64(vec![1]);
        let b = ColumnData::Float64(vec![1.0]);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn from_values_roundtrip() {
        let vals = [Value::Int(1), Value::Int(5)];
        let c = ColumnData::from_values(DataType::Int64, &vals).unwrap();
        assert_eq!(c.get(1), Value::Int(5));
        // Timestamps from text literals.
        let t = ColumnData::from_values(
            DataType::Timestamp,
            &[Value::Text("1970-01-01T00:00:01".into())],
        )
        .unwrap();
        assert_eq!(t.get(0), Value::Time(1_000));
    }
}
