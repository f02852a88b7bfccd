//! The persisted catalog: table schemas and their storage disposition.
//!
//! Serialized as a small line-oriented text format (one artifact fewer
//! than pulling in a serialization crate; the format is versioned and
//! round-trip tested):
//!
//! ```text
//! sommelier-catalog v1
//! table F metadata_given persistent
//! col file_id int64
//! col station text
//! pk file_id
//! fk file_id -> F : file_id
//! end
//! ```

use crate::error::{Result, StorageError};
use crate::schema::{ForeignKey, TableClass, TableSchema};
use crate::value::DataType;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Whether a table's columns live on disk or only in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    Persistent,
    Resident,
}

impl Disposition {
    fn name(self) -> &'static str {
        match self {
            Disposition::Persistent => "persistent",
            Disposition::Resident => "resident",
        }
    }

    fn from_name(s: &str) -> Result<Self> {
        Ok(match s {
            "persistent" => Disposition::Persistent,
            "resident" => Disposition::Resident,
            other => {
                return Err(StorageError::Catalog(format!("unknown disposition {other:?}")))
            }
        })
    }
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    pub schema: TableSchema,
    pub disposition: Disposition,
}

/// The catalog: an ordered map from table name to entry.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, CatalogEntry>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; fails on duplicates or invalid schemas.
    pub fn add_table(&mut self, schema: TableSchema, disposition: Disposition) -> Result<()> {
        schema.validate()?;
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::Catalog(format!(
                "table {:?} already exists",
                schema.name
            )));
        }
        self.tables.insert(schema.name.clone(), CatalogEntry { schema, disposition });
        Ok(())
    }

    /// Remove a table (no-op error if missing).
    pub fn drop_table(&mut self, name: &str) -> Result<CatalogEntry> {
        self.tables
            .remove(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<&CatalogEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.tables.values()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Serialize to the line format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("sommelier-catalog v1\n");
        for entry in self.tables.values() {
            let s = &entry.schema;
            let _ = writeln!(
                out,
                "table {} {} {}",
                s.name,
                s.class.name(),
                entry.disposition.name()
            );
            for c in &s.columns {
                let _ = writeln!(out, "col {} {}", c.name, c.dtype.name());
            }
            if !s.primary_key.is_empty() {
                let _ = writeln!(out, "pk {}", s.primary_key.join(" "));
            }
            for fk in &s.foreign_keys {
                let _ = writeln!(
                    out,
                    "fk {} -> {} : {}",
                    fk.columns.join(" "),
                    fk.parent_table,
                    fk.parent_columns.join(" ")
                );
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parse the line format.
    pub fn deserialize(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some("sommelier-catalog v1") => {}
            other => {
                return Err(StorageError::Catalog(format!("bad catalog header: {other:?}")))
            }
        }
        let mut catalog = Catalog::new();
        let mut current: Option<CatalogEntry> = None;
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| {
                StorageError::Catalog(format!("catalog line {}: {msg}: {line:?}", lineno + 2))
            };
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("table") => {
                    if current.is_some() {
                        return Err(err("nested table block"));
                    }
                    let name = parts.next().ok_or_else(|| err("missing table name"))?;
                    let class = TableClass::from_name(
                        parts.next().ok_or_else(|| err("missing class"))?,
                    )?;
                    let disp = Disposition::from_name(
                        parts.next().ok_or_else(|| err("missing disposition"))?,
                    )?;
                    current = Some(CatalogEntry {
                        schema: TableSchema::new(name, class),
                        disposition: disp,
                    });
                }
                Some("col") => {
                    let entry = current.as_mut().ok_or_else(|| err("col outside table"))?;
                    let name = parts.next().ok_or_else(|| err("missing column name"))?;
                    let dtype = DataType::from_name(
                        parts.next().ok_or_else(|| err("missing column type"))?,
                    )?;
                    entry.schema.columns.push(crate::schema::ColumnDef::new(name, dtype));
                }
                Some("pk") => {
                    let entry = current.as_mut().ok_or_else(|| err("pk outside table"))?;
                    entry.schema.primary_key = parts.map(String::from).collect();
                }
                Some("fk") => {
                    let entry = current.as_mut().ok_or_else(|| err("fk outside table"))?;
                    let rest: Vec<&str> = parts.collect();
                    let arrow = rest
                        .iter()
                        .position(|&t| t == "->")
                        .ok_or_else(|| err("fk missing ->"))?;
                    let colon = rest
                        .iter()
                        .position(|&t| t == ":")
                        .ok_or_else(|| err("fk missing :"))?;
                    if arrow + 2 != colon || colon + 1 > rest.len() {
                        return Err(err("malformed fk"));
                    }
                    entry.schema.foreign_keys.push(ForeignKey {
                        columns: rest[..arrow].iter().map(|s| s.to_string()).collect(),
                        parent_table: rest[arrow + 1].to_string(),
                        parent_columns: rest[colon + 1..]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    });
                }
                Some("end") => {
                    let entry = current.take().ok_or_else(|| err("end outside table"))?;
                    catalog.add_table(entry.schema, entry.disposition)?;
                }
                _ => return Err(err("unknown directive")),
            }
        }
        if current.is_some() {
            return Err(StorageError::Catalog("unterminated table block".into()));
        }
        Ok(catalog)
    }

    /// Write to `path` atomically (write + rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.serialize())
            .map_err(|e| StorageError::io(format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| StorageError::io(format!("renaming to {}", path.display()), e))?;
        Ok(())
    }

    /// Load from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StorageError::io(format!("reading {}", path.display()), e))?;
        Catalog::deserialize(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableSchema::new("F", TableClass::MetadataGiven)
                .column("file_id", DataType::Int64)
                .column("uri", DataType::Text)
                .column("station", DataType::Text)
                .primary_key(["file_id"]),
            Disposition::Persistent,
        )
        .unwrap();
        c.add_table(
            TableSchema::new("S", TableClass::MetadataGiven)
                .column("seg_id", DataType::Int64)
                .column("file_id", DataType::Int64)
                .column("start_time", DataType::Timestamp)
                .primary_key(["seg_id"])
                .foreign_key(["file_id"], "F", ["file_id"]),
            Disposition::Persistent,
        )
        .unwrap();
        c.add_table(
            TableSchema::new("H", TableClass::MetadataDerived)
                .column("window_station", DataType::Text)
                .column("window_start_ts", DataType::Timestamp)
                .column("window_max_val", DataType::Float64)
                .primary_key(["window_station", "window_start_ts"]),
            Disposition::Resident,
        )
        .unwrap();
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample_catalog();
        let text = c.serialize();
        let back = Catalog::deserialize(&text).unwrap();
        assert_eq!(back.len(), 3);
        let f = back.get("F").unwrap();
        assert_eq!(f.schema.columns.len(), 3);
        assert_eq!(f.schema.primary_key, vec!["file_id"]);
        assert_eq!(f.disposition, Disposition::Persistent);
        let s = back.get("S").unwrap();
        assert_eq!(s.schema.foreign_keys.len(), 1);
        assert_eq!(s.schema.foreign_keys[0].parent_table, "F");
        let h = back.get("H").unwrap();
        assert_eq!(h.schema.class, TableClass::MetadataDerived);
        assert_eq!(h.schema.primary_key.len(), 2);
        // Serialization is stable.
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = sample_catalog();
        let err = c.add_table(
            TableSchema::new("F", TableClass::ActualData).column("x", DataType::Int64),
            Disposition::Resident,
        );
        assert!(err.is_err());
    }

    #[test]
    fn drop_and_contains() {
        let mut c = sample_catalog();
        assert!(c.contains("F"));
        c.drop_table("F").unwrap();
        assert!(!c.contains("F"));
        assert!(c.drop_table("F").is_err());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        for text in [
            "",
            "not-a-catalog",
            "sommelier-catalog v1\ncol x int64\n",
            "sommelier-catalog v1\ntable X actual_data persistent\n",
            "sommelier-catalog v1\ntable X bogus persistent\nend\n",
            "sommelier-catalog v1\ntable X actual_data persistent\nfk a b\nend\n",
        ] {
            assert!(Catalog::deserialize(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn save_and_load() {
        let dir = crate::tempdir::TempDir::new("catalog");
        let path = dir.join("catalog.somm");
        let c = sample_catalog();
        c.save(&path).unwrap();
        let back = Catalog::load(&path).unwrap();
        assert_eq!(back.serialize(), c.serialize());
    }
}
