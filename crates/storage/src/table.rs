//! Tables: a schema plus column storage (resident or persistent).

use crate::buffer::BufferPool;
use crate::colfile::ColumnFile;
use crate::column::ColumnData;
use crate::error::{Result, StorageError};
use crate::schema::TableSchema;
use std::path::Path;

/// Column storage for one table.
#[derive(Debug)]
pub enum TableStore {
    /// Memory-resident columns (temporary chunk tables, derived metadata
    /// in lazy mode, tests).
    Resident(Vec<ColumnData>),
    /// Paged on-disk columns, read through the buffer pool.
    Persistent(Vec<ColumnFile>),
}

/// One table.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    store: TableStore,
    rows: u64,
}

impl Table {
    /// Create an empty memory-resident table.
    pub fn new_resident(schema: TableSchema) -> Result<Self> {
        schema.validate()?;
        let cols = schema.columns.iter().map(|c| ColumnData::empty(c.dtype)).collect();
        Ok(Table { schema, store: TableStore::Resident(cols), rows: 0 })
    }

    /// Create an empty persistent table; column files live in `dir` as
    /// `<column>.col`.
    pub fn new_persistent(schema: TableSchema, dir: &Path) -> Result<Self> {
        schema.validate()?;
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("creating {}", dir.display()), e))?;
        let mut files = Vec::with_capacity(schema.columns.len());
        for c in &schema.columns {
            files.push(ColumnFile::create(&dir.join(format!("{}.col", c.name)), c.dtype)?);
        }
        Ok(Table { schema, store: TableStore::Persistent(files), rows: 0 })
    }

    /// Re-open a persistent table from `dir`.
    pub fn open_persistent(schema: TableSchema, dir: &Path) -> Result<Self> {
        schema.validate()?;
        let mut files = Vec::with_capacity(schema.columns.len());
        let mut rows: Option<u64> = None;
        for c in &schema.columns {
            let cf = ColumnFile::open(&dir.join(format!("{}.col", c.name)))?;
            if cf.data_type() != c.dtype {
                return Err(StorageError::Corrupt(format!(
                    "table {}: column {} has type {} on disk, {} in catalog",
                    schema.name,
                    c.name,
                    cf.data_type(),
                    c.dtype
                )));
            }
            match rows {
                None => rows = Some(cf.rows()),
                Some(r) if r == cf.rows() => {}
                Some(r) => {
                    return Err(StorageError::Corrupt(format!(
                        "table {}: column {} has {} rows, expected {r}",
                        schema.name,
                        c.name,
                        cf.rows()
                    )))
                }
            }
            files.push(cf);
        }
        Ok(Table { schema, store: TableStore::Persistent(files), rows: rows.unwrap_or(0) })
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True if the store is persistent.
    pub fn is_persistent(&self) -> bool {
        matches!(self.store, TableStore::Persistent(_))
    }

    /// Paths of the backing column files (persistent tables only).
    pub fn column_paths(&self) -> Vec<std::path::PathBuf> {
        match &self.store {
            TableStore::Persistent(files) => {
                files.iter().map(|f| f.path().to_path_buf()).collect()
            }
            TableStore::Resident(_) => Vec::new(),
        }
    }

    /// Validate that `cols` matches the schema (count, types, equal lengths).
    fn check_append(&self, cols: &[ColumnData]) -> Result<usize> {
        if cols.len() != self.schema.columns.len() {
            return Err(StorageError::Schema(format!(
                "table {}: append with {} columns, schema has {}",
                self.schema.name,
                cols.len(),
                self.schema.columns.len()
            )));
        }
        let mut len = None;
        for (col, def) in cols.iter().zip(&self.schema.columns) {
            if col.data_type() != def.dtype {
                return Err(StorageError::Schema(format!(
                    "table {}: column {} expects {}, got {}",
                    self.schema.name,
                    def.name,
                    def.dtype,
                    col.data_type()
                )));
            }
            match len {
                None => len = Some(col.len()),
                Some(l) if l == col.len() => {}
                Some(l) => {
                    return Err(StorageError::Schema(format!(
                        "table {}: ragged append ({} vs {l} rows)",
                        self.schema.name,
                        col.len()
                    )))
                }
            }
        }
        Ok(len.unwrap_or(0))
    }

    /// Append a batch of columns.
    pub fn append(&mut self, cols: &[ColumnData]) -> Result<usize> {
        let n = self.check_append(cols)?;
        match &mut self.store {
            TableStore::Resident(existing) => {
                for (e, c) in existing.iter_mut().zip(cols) {
                    e.append(c)?;
                }
            }
            TableStore::Persistent(files) => {
                for (f, c) in files.iter_mut().zip(cols) {
                    f.append(c)?;
                }
            }
        }
        self.rows += n as u64;
        Ok(n)
    }

    /// Materialize one column.
    pub fn scan_column(&self, pool: &BufferPool, idx: usize) -> Result<ColumnData> {
        match &self.store {
            TableStore::Resident(cols) => Ok(cols[idx].clone()),
            TableStore::Persistent(files) => files[idx].read_all(pool),
        }
    }

    /// Materialize every column.
    pub fn scan(&self, pool: &BufferPool) -> Result<Vec<ColumnData>> {
        (0..self.schema.columns.len()).map(|i| self.scan_column(pool, i)).collect()
    }

    /// Bytes on disk (0 for resident tables).
    pub fn disk_bytes(&self) -> u64 {
        match &self.store {
            TableStore::Resident(_) => 0,
            TableStore::Persistent(files) => files.iter().map(|f| f.disk_bytes()).sum(),
        }
    }

    /// Approximate bytes in memory (0 for persistent tables).
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            TableStore::Resident(cols) => cols.iter().map(|c| c.approx_bytes()).sum(),
            TableStore::Persistent(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPoolConfig;
    use crate::column::TextColumn;
    use crate::schema::TableClass;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new("F", TableClass::MetadataGiven)
            .column("file_id", DataType::Int64)
            .column("station", DataType::Text)
    }

    fn batch() -> Vec<ColumnData> {
        vec![
            ColumnData::Int64(vec![1, 2]),
            ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
        ]
    }

    #[test]
    fn resident_append_and_scan() {
        let mut t = Table::new_resident(schema()).unwrap();
        t.append(&batch()).unwrap();
        t.append(&batch()).unwrap();
        assert_eq!(t.rows(), 4);
        let pool = BufferPool::new(BufferPoolConfig::default());
        let cols = t.scan(&pool).unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[1, 2, 1, 2]);
        assert_eq!(t.disk_bytes(), 0);
        assert!(t.resident_bytes() > 0);
    }

    #[test]
    fn persistent_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("somm-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new_persistent(schema(), &dir).unwrap();
        t.append(&batch()).unwrap();
        assert!(t.disk_bytes() > 0);

        let pool = BufferPool::new(BufferPoolConfig::default());
        let t2 = Table::open_persistent(schema(), &dir).unwrap();
        assert_eq!(t2.rows(), 2);
        let cols = t2.scan(&pool).unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[1, 2]);
        match &cols[1] {
            ColumnData::Text(tc) => assert_eq!(tc.get(1), "FIAM"),
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_validation() {
        let mut t = Table::new_resident(schema()).unwrap();
        // Wrong arity.
        assert!(t.append(&[ColumnData::Int64(vec![1])]).is_err());
        // Wrong type.
        assert!(t
            .append(&[
                ColumnData::Float64(vec![1.0]),
                ColumnData::Text(TextColumn::from_strs(["x"]))
            ])
            .is_err());
        // Ragged lengths.
        assert!(t
            .append(&[
                ColumnData::Int64(vec![1, 2]),
                ColumnData::Text(TextColumn::from_strs(["x"]))
            ])
            .is_err());
        assert_eq!(t.rows(), 0);
    }

    #[test]
    fn open_detects_type_drift() {
        let dir =
            std::env::temp_dir().join(format!("somm-table-drift-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new_persistent(schema(), &dir).unwrap();
        t.append(&batch()).unwrap();
        let wrong = TableSchema::new("F", TableClass::MetadataGiven)
            .column("file_id", DataType::Float64)
            .column("station", DataType::Text);
        assert!(Table::open_persistent(wrong, &dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
