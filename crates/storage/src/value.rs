//! Scalar values and data types.

use crate::error::{Result, StorageError};
use crate::time::{format_ts, parse_ts};
use std::cmp::Ordering;
use std::fmt;

/// The four column types the seismology schema needs.
///
/// * `Timestamp` is epoch-milliseconds (`i64` representation);
/// * `Text` columns are dictionary-encoded ([`crate::column::TextColumn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int64,
    Float64,
    Timestamp,
    Text,
}

impl DataType {
    /// Width in bytes of the fixed-size representation on disk
    /// (text columns store 4-byte dictionary codes).
    pub fn disk_width(self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 | DataType::Timestamp => 8,
            DataType::Text => 4,
        }
    }

    /// Stable tag used in the on-disk column-file header and the catalog.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Int64 => 1,
            DataType::Float64 => 2,
            DataType::Timestamp => 3,
            DataType::Text => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            1 => DataType::Int64,
            2 => DataType::Float64,
            3 => DataType::Timestamp,
            4 => DataType::Text,
            other => return Err(StorageError::Corrupt(format!("unknown type tag {other}"))),
        })
    }

    /// Catalog / EXPLAIN name.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Timestamp => "timestamp",
            DataType::Text => "text",
        }
    }

    /// Inverse of [`DataType::name`].
    pub fn from_name(name: &str) -> Result<Self> {
        Ok(match name {
            "int64" => DataType::Int64,
            "float64" => DataType::Float64,
            "timestamp" => DataType::Timestamp,
            "text" => DataType::Text,
            other => {
                return Err(StorageError::Catalog(format!("unknown type name {other:?}")))
            }
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value.
///
/// `Null` only occurs transiently (e.g. aggregates over empty inputs);
/// base tables in this system are fully populated, matching the paper's
/// dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Time(i64),
    Text(String),
    Null,
}

impl Value {
    /// The value's type, if not null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Time(_) => Some(DataType::Timestamp),
            Value::Text(_) => Some(DataType::Text),
            Value::Null => None,
        }
    }

    /// Interpret as `i64` (ints and timestamps).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(v) | Value::Time(v) => Ok(*v),
            other => Err(StorageError::Value(format!("expected integer, got {other}"))),
        }
    }

    /// Interpret as `f64` (floats widen from ints).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) | Value::Time(v) => Ok(*v as f64),
            other => Err(StorageError::Value(format!("expected number, got {other}"))),
        }
    }

    /// Interpret as text.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(StorageError::Value(format!("expected text, got {other}"))),
        }
    }

    /// Coerce this value to `target`, used when binding query literals
    /// against column types (e.g. a quoted timestamp literal compared to
    /// a `Timestamp` column, or an int literal compared to a `Float64`
    /// column).
    pub fn coerce_to(&self, target: DataType) -> Result<Value> {
        let fail = || StorageError::Value(format!("cannot coerce {self} to {target}"));
        Ok(match (self, target) {
            (Value::Null, _) => Value::Null,
            (Value::Int(v), DataType::Int64) => Value::Int(*v),
            (Value::Int(v), DataType::Float64) => Value::Float(*v as f64),
            (Value::Int(v), DataType::Timestamp) => Value::Time(*v),
            (Value::Float(v), DataType::Float64) => Value::Float(*v),
            (Value::Time(v), DataType::Timestamp) => Value::Time(*v),
            (Value::Time(v), DataType::Int64) => Value::Int(*v),
            (Value::Text(s), DataType::Text) => Value::Text(s.clone()),
            (Value::Text(s), DataType::Timestamp) => Value::Time(parse_ts(s)?),
            _ => return Err(fail()),
        })
    }

    /// Total order within a type family; errors on cross-type compares
    /// that have no meaning (e.g. text vs int).
    pub fn compare(&self, other: &Value) -> Result<Ordering> {
        let fail = || StorageError::Value(format!("cannot compare {self} with {other}"));
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Time(a), Value::Time(b)) => Ok(a.cmp(b)),
            (Value::Int(a), Value::Time(b)) | (Value::Time(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).ok_or_else(fail),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b).ok_or_else(fail),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)).ok_or_else(fail),
            (Value::Text(a), Value::Text(b)) => Ok(a.cmp(b)),
            _ => Err(fail()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Time(v) => f.write_str(&format_ts(*v)),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for dt in [DataType::Int64, DataType::Float64, DataType::Timestamp, DataType::Text] {
            assert_eq!(DataType::from_tag(dt.tag()).unwrap(), dt);
            assert_eq!(DataType::from_name(dt.name()).unwrap(), dt);
        }
        assert!(DataType::from_tag(99).is_err());
        assert!(DataType::from_name("blob").is_err());
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).coerce_to(DataType::Float64).unwrap(), Value::Float(3.0));
        assert_eq!(
            Value::Text("1970-01-01T00:00:01".into()).coerce_to(DataType::Timestamp).unwrap(),
            Value::Time(1_000)
        );
        assert!(Value::Float(1.5).coerce_to(DataType::Int64).is_err());
        assert!(Value::Text("x".into()).coerce_to(DataType::Int64).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)).unwrap(), Ordering::Less);
        assert_eq!(Value::Int(1).compare(&Value::Float(0.5)).unwrap(), Ordering::Greater);
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("b".into())).unwrap(),
            Ordering::Less
        );
        assert!(Value::Text("a".into()).compare(&Value::Int(1)).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Text("ISK".into()).to_string(), "'ISK'");
        assert_eq!(Value::Time(0).to_string(), "1970-01-01T00:00:00.000");
    }
}
