//! Tables: a schema plus column storage (resident or persistent), and
//! for metadata tables the order facts of their rows.

use crate::buffer::BufferPool;
use crate::colfile::ColumnFile;
use crate::column::{ColumnData, TextColumn};
use crate::error::{Result, StorageError};
use crate::order::{cmp_rows, is_sorted, sort_permutation};
use crate::schema::TableSchema;
use crate::value::DataType;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Column storage for one table.
#[derive(Debug)]
pub enum TableStore {
    /// Memory-resident columns (temporary chunk tables, derived metadata
    /// in lazy mode, tests). Shared, so a scan hands them out without
    /// copying; an append to a column a reader still holds copies it.
    Resident(Vec<Arc<ColumnData>>),
    /// Paged on-disk columns, read through the buffer pool.
    Persistent(Vec<ColumnFile>),
}

/// What a metadata table knows about the order of its rows: whether
/// they are in primary-key order, and which integer and timestamp
/// columns never decrease down the table. [`Table::append`] keeps both
/// at O(batch) cost plus one boundary compare with the previous last
/// row; a persistent table recomputes them when it opens. Actual-data
/// tables keep no facts (everything `false`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowOrder {
    /// Rows are in non-decreasing lexicographic primary-key order
    /// (integers and timestamps by value, text by content).
    pub pk_ordered: bool,
    /// Per schema column: an integer or timestamp column whose values
    /// never decrease down the table.
    pub non_decreasing: Vec<bool>,
}

/// One table.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    store: TableStore,
    rows: u64,
    /// Order facts (metadata tables only).
    order: RowOrder,
    /// The last row, one-row columns for the next append's boundary
    /// compare (metadata tables only; empty while the table is).
    tail: Vec<ColumnData>,
}

impl Table {
    /// Create an empty memory-resident table.
    pub fn new_resident(schema: TableSchema) -> Result<Self> {
        schema.validate()?;
        let cols =
            schema.columns.iter().map(|c| Arc::new(ColumnData::empty(c.dtype))).collect();
        Ok(Table::empty(schema, TableStore::Resident(cols)))
    }

    /// An empty table over `store`: every order fact holds vacuously.
    fn empty(schema: TableSchema, store: TableStore) -> Self {
        let order = vacuous_order(&schema);
        Table { schema, store, rows: 0, order, tail: Vec::new() }
    }

    /// Take the row count, order facts and last row from `cols`, every
    /// row the table stores.
    fn describe(&mut self, cols: &[ColumnData]) {
        self.order = vacuous_order(&self.schema);
        self.tail.clear();
        self.order = self.order_after(cols);
        self.rows = cols.first().map_or(0, ColumnData::len) as u64;
        if self.rows > 0 && self.schema.class.is_metadata() {
            self.tail = last_row(cols);
        }
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
        Ok(Table::empty(schema, TableStore::Persistent(files)))
    }

    /// Re-open a persistent table from `dir`. Its order facts are
    /// recomputed from the stored rows (metadata tables only), through
    /// `pool`.
    pub fn open_persistent(
        schema: TableSchema,
        dir: &Path,
        pool: &BufferPool,
    ) -> Result<Self> {
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
        let mut table = Table::empty(schema, TableStore::Persistent(files));
        table.rows = rows.unwrap_or(0);
        if table.schema.class.is_metadata() && table.rows > 0 {
            let cols = table.scan(pool)?;
            table.describe(&cols);
        }
        Ok(table)
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The order facts of the rows (see [`RowOrder`]).
    pub fn order(&self) -> &RowOrder {
        &self.order
    }

    /// Schema positions of the primary-key columns, in key order.
    fn pk_positions(&self) -> Vec<usize> {
        self.schema.primary_key.iter().filter_map(|c| self.schema.col_index(c).ok()).collect()
    }

    /// The order facts after appending `cols` (already validated): the
    /// batch's own order, and its first row against the current last.
    pub(crate) fn order_after(&self, cols: &[ColumnData]) -> RowOrder {
        let mut order = self.order.clone();
        let n = cols.first().map_or(0, ColumnData::len);
        if n == 0 || !self.schema.class.is_metadata() {
            return order;
        }
        let tail = (!self.tail.is_empty()).then_some(self.tail.as_slice());
        for (i, col) in cols.iter().enumerate() {
            if order.non_decreasing[i] {
                let after_tail = tail.is_none_or(|t| {
                    cmp_rows(&[&t[i]], 0, &[col], 0).is_some_and(Ordering::is_le)
                });
                order.non_decreasing[i] = after_tail && is_sorted(&[col]);
            }
        }
        if order.pk_ordered {
            let pk = self.pk_positions();
            let key: Vec<&ColumnData> = pk.iter().map(|&i| &cols[i]).collect();
            let after_tail = tail.is_none_or(|t| {
                let last: Vec<&ColumnData> = pk.iter().map(|&i| &t[i]).collect();
                cmp_rows(&last, 0, &key, 0).is_some_and(Ordering::is_le)
            });
            order.pk_ordered = after_tail && is_sorted(&key);
        }
        order
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
        let order = self.order_after(cols);
        match &mut self.store {
            TableStore::Resident(existing) => {
                for (e, c) in existing.iter_mut().zip(cols) {
                    Arc::make_mut(e).append(c)?;
                }
            }
            TableStore::Persistent(files) => {
                for (f, c) in files.iter_mut().zip(cols) {
                    f.append(c)?;
                }
            }
        }
        self.rows += n as u64;
        self.order = order;
        if n > 0 && self.schema.class.is_metadata() {
            self.tail = last_row(cols);
        }
        Ok(n)
    }

    /// The rows of `cols` (a batch for this table) in primary-key
    /// order, stably; borrowed when they already are.
    pub fn in_pk_order<'c>(&self, cols: &'c [ColumnData]) -> Cow<'c, [ColumnData]> {
        let key: Vec<&ColumnData> = self.pk_positions().iter().map(|&i| &cols[i]).collect();
        if is_sorted(&key) {
            return Cow::Borrowed(cols);
        }
        let perm = sort_permutation(&key);
        Cow::Owned(cols.iter().map(|c| c.take(&perm)).collect())
    }

    /// Append a batch and put every row in primary-key order: the
    /// stored rows and the batch are sorted together (stably, stored
    /// rows first) and the table is rewritten, a persistent table's
    /// files all or none. For a batch that lands before the table's
    /// last key; the caller drops whatever index holds row positions.
    /// On an error the table is unchanged.
    pub fn merge_in_pk_order(
        &mut self,
        pool: &BufferPool,
        cols: &[ColumnData],
    ) -> Result<usize> {
        let n = self.check_append(cols)?;
        let mut all = self.scan(pool)?;
        for (a, c) in all.iter_mut().zip(cols) {
            a.append(c)?;
        }
        let sorted = self.in_pk_order(&all).into_owned();
        match &mut self.store {
            TableStore::Resident(existing) => {
                *existing = sorted.iter().cloned().map(Arc::new).collect();
            }
            TableStore::Persistent(files) => rewrite_files(files, &sorted, pool)?,
        }
        self.describe(&sorted);
        Ok(n)
    }

    /// Materialize one column.
    pub fn scan_column(&self, pool: &BufferPool, idx: usize) -> Result<ColumnData> {
        match &self.store {
            TableStore::Resident(cols) => Ok(ColumnData::clone(&cols[idx])),
            TableStore::Persistent(files) => files[idx].read_all(pool),
        }
    }

    /// One column, shared with the store when it is resident (no copy).
    pub fn scan_column_shared(
        &self,
        pool: &BufferPool,
        idx: usize,
    ) -> Result<Arc<ColumnData>> {
        match &self.store {
            TableStore::Resident(cols) => Ok(Arc::clone(&cols[idx])),
            TableStore::Persistent(files) => files[idx].read_all(pool).map(Arc::new),
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

/// Replace the rows of a table's column files with `cols`, all or
/// none: every column is written in full to a file of the same name in
/// the scratch directory `.merge` of the table's directory and synced,
/// and only then is each renamed over its original (its dictionary
/// first) and the pool's pages of the old file dropped; the table's
/// directory is synced last. A failed write removes the scratch files
/// and leaves the table's files as they were; only a crash or a failed
/// rename between the renames can leave columns of different lengths.
fn rewrite_files(
    files: &mut [ColumnFile],
    cols: &[ColumnData],
    pool: &BufferPool,
) -> Result<()> {
    let Some(dir) = files.first().and_then(|f| f.path().parent()).map(Path::to_path_buf)
    else {
        return Ok(());
    };
    let scratch = dir.join(".merge");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| StorageError::io(format!("creating {}", scratch.display()), e))?;
    let written = files
        .iter()
        .zip(cols)
        .map(|(f, c)| {
            let name = f.path().file_name().expect("a column file has a name");
            let mut tmp = ColumnFile::create(&scratch.join(name), f.data_type())?;
            tmp.append(c)?;
            tmp.sync_all()?;
            Ok(tmp)
        })
        .collect::<Result<Vec<_>>>();
    let written = match written {
        Ok(written) => written,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&scratch);
            return Err(e);
        }
    };
    for (f, mut tmp) in files.iter_mut().zip(written) {
        tmp.rename_over(f.path())?;
        *f = tmp;
        if let Some(fid) = pool.disk().forget(f.path()) {
            pool.invalidate_file(fid);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    File::open(&dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::io(format!("syncing {}", dir.display()), e))
}

/// The order facts of no rows: all hold (metadata tables only).
fn vacuous_order(schema: &TableSchema) -> RowOrder {
    let tracked = schema.class.is_metadata();
    RowOrder {
        pk_ordered: tracked && !schema.primary_key.is_empty(),
        non_decreasing: schema
            .columns
            .iter()
            .map(|c| tracked && matches!(c.dtype, DataType::Int64 | DataType::Timestamp))
            .collect(),
    }
}

/// The last row of `cols` (non-empty), as one-row columns. Text gets a
/// dictionary of its own: a slice would keep the batch's whole
/// dictionary alive after the batch is dropped.
fn last_row(cols: &[ColumnData]) -> Vec<ColumnData> {
    cols.iter()
        .map(|c| match c {
            ColumnData::Text(t) => {
                ColumnData::Text(TextColumn::from_strs([t.get(t.len() - 1)]))
            }
            _ => c.slice(c.len() - 1, c.len()),
        })
        .collect()
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
        let t2 = Table::open_persistent(schema(), &dir, &pool).unwrap();
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
        let pool = BufferPool::new(BufferPoolConfig::default());
        assert!(Table::open_persistent(wrong, &dir, &pool).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A table keyed on `(station, ts)`, with a second integer column.
    fn keyed(class: TableClass) -> TableSchema {
        TableSchema::new("H", class)
            .column("station", DataType::Text)
            .column("ts", DataType::Timestamp)
            .column("n", DataType::Int64)
            .primary_key(["station", "ts"])
    }

    fn rows(stations: &[&str], ts: &[i64], n: &[i64]) -> Vec<ColumnData> {
        vec![
            ColumnData::Text(TextColumn::from_strs(stations.iter().copied())),
            ColumnData::Timestamp(ts.to_vec()),
            ColumnData::Int64(n.to_vec()),
        ]
    }

    #[test]
    fn append_keeps_the_order_facts() {
        let mut t = Table::new_resident(keyed(TableClass::MetadataDerived)).unwrap();
        let facts = |t: &Table| (t.order().pk_ordered, t.order().non_decreasing.clone());
        assert_eq!(facts(&t), (true, vec![false, true, true]), "empty: vacuously ordered");
        // Text compares by content, not by dictionary code.
        t.append(&rows(&["B", "A"], &[5, 1], &[1, 2])).unwrap();
        assert_eq!(facts(&t), (false, vec![false, false, true]));
        let mut t = Table::new_resident(keyed(TableClass::MetadataDerived)).unwrap();
        t.append(&rows(&["A", "A", "B"], &[1, 2, 0], &[1, 1, 2])).unwrap();
        assert_eq!(facts(&t), (true, vec![false, false, true]));
        // The boundary compare: equal to the last key keeps the order.
        t.append(&rows(&["B"], &[0], &[2])).unwrap();
        assert_eq!(facts(&t), (true, vec![false, false, true]));
        t.append(&rows(&["A"], &[9], &[3])).unwrap();
        assert_eq!(facts(&t), (false, vec![false, false, true]));
        t.append(&rows(&["C"], &[9], &[1])).unwrap();
        assert_eq!(facts(&t), (false, vec![false, false, false]), "facts never come back");
        // Actual-data tables keep none.
        let t = Table::new_resident(keyed(TableClass::ActualData)).unwrap();
        assert_eq!(facts(&t), (false, vec![false; 3]));
    }

    #[test]
    fn merge_puts_every_row_in_key_order() {
        let pool = BufferPool::new(BufferPoolConfig::default());
        let dir =
            std::env::temp_dir().join(format!("somm-table-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = keyed(TableClass::MetadataDerived);
        for mut t in [
            Table::new_resident(schema.clone()).unwrap(),
            Table::new_persistent(schema.clone(), &dir).unwrap(),
        ] {
            t.append(&rows(&["B", "B"], &[3, 4], &[1, 2])).unwrap();
            assert_eq!(
                t.merge_in_pk_order(&pool, &rows(&["A", "B"], &[7, 1], &[3, 4])).unwrap(),
                2
            );
            assert_eq!(t.rows(), 4);
            assert!(t.order().pk_ordered);
            let cols = t.scan(&pool).unwrap();
            let station = cols[0].as_text().unwrap();
            let keys: Vec<(&str, i64)> =
                (0..4).map(|i| (station.get(i), cols[1].as_i64().unwrap()[i])).collect();
            assert_eq!(keys, [("A", 7), ("B", 1), ("B", 3), ("B", 4)]);
            assert_eq!(cols[2].as_i64().unwrap(), &[3, 4, 1, 2], "rows move whole");
            // The next in-order append is a plain append.
            t.append(&rows(&["C"], &[0], &[5])).unwrap();
            assert!(t.order().pk_ordered);
        }
        // A reopened table recomputes its facts.
        let pool = BufferPool::new(BufferPoolConfig::default());
        let t = Table::open_persistent(schema, &dir, &pool).unwrap();
        assert_eq!((t.rows(), t.order().pk_ordered), (5, true));
        assert_eq!(t.order().non_decreasing, vec![false, false, false]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A merge whose second column cannot be written leaves a
    /// persistent table as it was, in memory and on disk.
    #[test]
    fn failed_merge_leaves_the_table_intact() {
        let pool = BufferPool::new(BufferPoolConfig::default());
        let dir = std::env::temp_dir()
            .join(format!("somm-table-merge-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = keyed(TableClass::MetadataDerived);
        let mut t = Table::new_persistent(schema.clone(), &dir).unwrap();
        t.append(&rows(&["B", "C"], &[3, 4], &[1, 2])).unwrap();
        // Every stored value, column by column.
        let values = |t: &Table| -> Vec<Vec<crate::value::Value>> {
            let cols = t.scan(&pool).unwrap();
            cols.iter().map(|c| (0..c.len()).map(|i| c.get(i)).collect()).collect()
        };
        let before = (t.rows(), t.order().clone(), values(&t));
        // A directory where the merge writes the `ts` column: the
        // `station` column is written, then `ts` fails.
        std::fs::create_dir_all(dir.join(".merge").join("ts.col")).unwrap();
        let batch = rows(&["A"], &[9], &[3]);
        assert!(t.merge_in_pk_order(&pool, &batch).is_err());
        assert_eq!((t.rows(), t.order().clone(), values(&t)), before);
        assert!(!dir.join(".merge").exists(), "the scratch files are removed");
        let reopened = Table::open_persistent(schema.clone(), &dir, &pool).unwrap();
        assert_eq!(values(&reopened), before.2);
        // With the obstacle gone the same merge goes through.
        assert_eq!(t.merge_in_pk_order(&pool, &batch).unwrap(), 1);
        let reopened = Table::open_persistent(schema, &dir, &pool).unwrap();
        assert_eq!((reopened.rows(), reopened.order().pk_ordered), (3, true));
        assert_eq!(reopened.scan(&pool).unwrap()[2].as_i64().unwrap(), &[3, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
