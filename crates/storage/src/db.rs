//! The database façade: catalog + tables + buffer pool + indices.
//!
//! [`Database`] is what the upper layers (engine, core) talk to. It is
//! thread-safe: scans take a read lock, appends a write lock. The
//! workload is append-only (like the paper's), so this coarse scheme is
//! not a bottleneck.

use crate::buffer::{BufferPool, BufferPoolConfig};
use crate::catalog::{Catalog, Disposition};
use crate::column::ColumnData;
use crate::error::{Result, StorageError};
use crate::index::{HashIndex, JoinIndex};
use crate::schema::{TableClass, TableSchema};
use crate::sync::unpoison;
use crate::table::{RowOrder, Table};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Which constraints to verify on append.
///
/// The paper's *lazy* variant "omit\[s\] the foreign key constraints
/// between the data table and the metadata tables, to avoid constraint
/// verification whenever data is loaded" (§VI-A); eager variants verify
/// everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintPolicy {
    pub verify_pk: bool,
    pub verify_fk: bool,
}

impl ConstraintPolicy {
    /// Verify primary and foreign keys (eager loading).
    pub fn all() -> Self {
        ConstraintPolicy { verify_pk: true, verify_fk: true }
    }

    /// Verify primary keys only (lazy loading: FKs are system-generated,
    /// "enforced by design").
    pub fn pk_only() -> Self {
        ConstraintPolicy { verify_pk: true, verify_fk: false }
    }

    /// Verify nothing (bulk re-load of already-validated data).
    pub fn none() -> Self {
        ConstraintPolicy { verify_pk: false, verify_fk: false }
    }
}

/// Columns of one table scan, shared with the store, and what the
/// table's order facts ([`crate::table::RowOrder`]) say about them.
#[derive(Debug)]
pub struct SharedScan {
    /// The scanned columns, in the order asked for.
    pub columns: Vec<Arc<ColumnData>>,
    /// When the rows are in primary-key order: positions (in the scan's
    /// column list) of the longest key prefix the scan reads, in key
    /// order. Empty otherwise.
    pub pk_prefix: Vec<usize>,
    /// Length of the table's primary key.
    pub pk_len: usize,
    /// Per scanned column: it never decreases down the table.
    pub non_decreasing: Vec<bool>,
}

/// Materialized primary-key state: the PK columns plus their hash index.
struct PkState {
    cols: Vec<ColumnData>,
    index: HashIndex,
}

/// Runtime state for one table.
struct TableState {
    table: Table,
    pk: Option<PkState>,
    /// FK join indices keyed by parent table name.
    join_indices: HashMap<String, Arc<JoinIndex>>,
}

/// The database.
pub struct Database {
    dir: Option<PathBuf>,
    pool: Arc<BufferPool>,
    inner: RwLock<Inner>,
}

struct Inner {
    catalog: Catalog,
    tables: HashMap<String, TableState>,
}

impl Database {
    /// A purely in-memory database (all tables resident; tests and
    /// temporary chunk staging).
    pub fn in_memory(config: BufferPoolConfig) -> Self {
        Database {
            dir: None,
            pool: Arc::new(BufferPool::new(config)),
            inner: RwLock::new(Inner { catalog: Catalog::new(), tables: HashMap::new() }),
        }
    }

    /// Create a new on-disk database under `dir` (fails if a catalog
    /// already exists there).
    pub fn create(dir: &Path, config: BufferPoolConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("creating {}", dir.display()), e))?;
        let catalog_path = dir.join("catalog.somm");
        if catalog_path.exists() {
            return Err(StorageError::Catalog(format!(
                "database already exists at {}",
                dir.display()
            )));
        }
        let db = Database {
            dir: Some(dir.to_path_buf()),
            pool: Arc::new(BufferPool::new(config)),
            inner: RwLock::new(Inner { catalog: Catalog::new(), tables: HashMap::new() }),
        };
        unpoison(db.inner.read()).catalog.save(&catalog_path)?;
        Ok(db)
    }

    /// Open an existing on-disk database.
    pub fn open(dir: &Path, config: BufferPoolConfig) -> Result<Self> {
        let catalog = Catalog::load(&dir.join("catalog.somm"))?;
        let pool = Arc::new(BufferPool::new(config));
        let mut tables = HashMap::new();
        for entry in catalog.iter() {
            let name = entry.schema.name.clone();
            let table = match entry.disposition {
                Disposition::Persistent => Table::open_persistent(
                    entry.schema.clone(),
                    &dir.join("tables").join(&name),
                    &pool,
                )?,
                // Resident tables start empty after a restart (they are
                // caches / scratch space by definition).
                Disposition::Resident => Table::new_resident(entry.schema.clone())?,
            };
            tables.insert(name, TableState { table, pk: None, join_indices: HashMap::new() });
        }
        Ok(Database {
            dir: Some(dir.to_path_buf()),
            pool,
            inner: RwLock::new(Inner { catalog, tables }),
        })
    }

    /// Destroy the on-disk database directory, if any.
    pub fn destroy(dir: &Path) -> Result<()> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| StorageError::io(format!("removing {}", dir.display()), e))?;
        }
        Ok(())
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table. In-memory databases force `Resident`.
    pub fn create_table(&self, schema: TableSchema, disposition: Disposition) -> Result<()> {
        let name = schema.name.clone();
        let mut inner = unpoison(self.inner.write());
        let effective = match (&self.dir, disposition) {
            (None, _) => Disposition::Resident,
            (Some(_), d) => d,
        };
        inner.catalog.add_table(schema.clone(), effective)?;
        let table = match (effective, &self.dir) {
            (Disposition::Persistent, Some(dir)) => {
                Table::new_persistent(schema, &dir.join("tables").join(&name))?
            }
            _ => Table::new_resident(schema)?,
        };
        inner
            .tables
            .insert(name, TableState { table, pk: None, join_indices: HashMap::new() });
        self.save_catalog(&inner)?;
        Ok(())
    }

    /// Drop a table and delete its files.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut inner = unpoison(self.inner.write());
        inner.catalog.drop_table(name)?;
        if let Some(state) = inner.tables.remove(name) {
            for path in state.table.column_paths() {
                self.pool.disk().forget(&path);
            }
        }
        if let Some(dir) = &self.dir {
            let tdir = dir.join("tables").join(name);
            if tdir.exists() {
                std::fs::remove_dir_all(&tdir).map_err(|e| {
                    StorageError::io(format!("removing {}", tdir.display()), e)
                })?;
            }
        }
        self.save_catalog(&inner)?;
        Ok(())
    }

    fn save_catalog(&self, inner: &Inner) -> Result<()> {
        if let Some(dir) = &self.dir {
            inner.catalog.save(&dir.join("catalog.somm"))?;
        }
        Ok(())
    }

    /// True if `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        unpoison(self.inner.read()).catalog.contains(name)
    }

    /// Clone of the schema of `name`.
    pub fn table_schema(&self, name: &str) -> Result<TableSchema> {
        Ok(unpoison(self.inner.read()).catalog.get(name)?.schema.clone())
    }

    /// All table schemas.
    pub fn schemas(&self) -> Vec<TableSchema> {
        unpoison(self.inner.read()).catalog.iter().map(|e| e.schema.clone()).collect()
    }

    /// Row count of `name`.
    pub fn table_rows(&self, name: &str) -> Result<u64> {
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        Ok(state.table.rows())
    }

    /// Append a batch, verifying constraints per `policy`. A derived
    /// table stays in primary-key order by construction: its batch is
    /// sorted by the key first, and one that lands before the table's
    /// last key is merged into the stored rows.
    pub fn append(
        &self,
        name: &str,
        cols: &[ColumnData],
        policy: ConstraintPolicy,
    ) -> Result<usize> {
        let mut inner = unpoison(self.inner.write());
        let inner = &mut *inner;
        let table = &inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?
            .table;
        let schema = table.schema().clone();
        let derived = schema.class == TableClass::MetadataDerived;
        let sorted = if derived { table.in_pk_order(cols) } else { Cow::Borrowed(cols) };
        let cols = &*sorted;
        // Primary-key verification: maintain the PK index incrementally.
        if policy.verify_pk && !schema.primary_key.is_empty() {
            Self::ensure_pk_built(&self.pool, inner, name)?;
            let pk_col_idxs: Vec<usize> = schema
                .primary_key
                .iter()
                .map(|c| schema.col_index(c))
                .collect::<Result<_>>()?;
            let state = inner.tables.get_mut(name).expect("checked above");
            let pk = state.pk.as_mut().expect("built above");
            let old_rows = pk.cols.first().map_or(0, |c| c.len());
            for (slot, &ci) in pk.cols.iter_mut().zip(&pk_col_idxs) {
                slot.append(&cols[ci])?;
            }
            let batch_rows = cols.first().map_or(0, |c| c.len());
            let refs: Vec<&ColumnData> = pk.cols.iter().collect();
            for r in old_rows..old_rows + batch_rows {
                if let Err(e) = pk.index.try_insert(&refs, r, name) {
                    // Roll the PK cache back to a consistent state.
                    state.pk = None;
                    return Err(e);
                }
            }
        }
        // Foreign-key verification: probe each parent's PK index.
        if policy.verify_fk && !schema.foreign_keys.is_empty() {
            for fk in &schema.foreign_keys {
                Self::ensure_pk_built(&self.pool, inner, &fk.parent_table)?;
                let parent = inner.tables.get(&fk.parent_table).ok_or_else(|| {
                    StorageError::Catalog(format!("no such table {:?}", fk.parent_table))
                })?;
                let pk = parent.pk.as_ref().ok_or_else(|| {
                    StorageError::Constraint(format!(
                        "table {} has no primary key to reference",
                        fk.parent_table
                    ))
                })?;
                let child_cols: Vec<&ColumnData> = fk
                    .columns
                    .iter()
                    .map(|c| Ok(&cols[schema.col_index(c)?]))
                    .collect::<Result<_>>()?;
                let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
                let batch_rows = cols.first().map_or(0, |c| c.len());
                for r in 0..batch_rows {
                    if pk.index.probe(&parent_refs, &child_cols, r).next().is_none() {
                        return Err(StorageError::Constraint(format!(
                            "foreign key in {name} row {r} has no parent in {}",
                            fk.parent_table
                        )));
                    }
                }
            }
        }
        let state = inner.tables.get_mut(name).expect("checked above");
        let was_persistent = state.table.is_persistent();
        // A merge moves the stored rows, so the PK index is rebuilt on
        // next use. (No foreign key references a derived table, so no
        // join index holds its row positions.) A table out of order
        // already (a NaN key) appends: merging could not order it.
        let merge = derived
            && state.table.order().pk_ordered
            && !state.table.order_after(cols).pk_ordered;
        let n = if merge {
            state.pk = None;
            state.table.merge_in_pk_order(&self.pool, cols)?
        } else {
            state.table.append(cols)?
        };
        // Any previously built join indices on this table are stale.
        state.join_indices.clear();
        if was_persistent {
            for path in state.table.column_paths() {
                if let Some(fid) = self.pool.disk().forget(&path) {
                    self.pool.invalidate_file(fid);
                }
            }
        }
        Ok(n)
    }

    fn ensure_pk_built(pool: &BufferPool, inner: &mut Inner, name: &str) -> Result<()> {
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        if state.pk.is_some() || state.table.schema().primary_key.is_empty() {
            return Ok(());
        }
        let schema = state.table.schema().clone();
        let mut pk_cols = Vec::with_capacity(schema.primary_key.len());
        for c in &schema.primary_key {
            pk_cols.push(state.table.scan_column(pool, schema.col_index(c)?)?);
        }
        let refs: Vec<&ColumnData> = pk_cols.iter().collect();
        let index = HashIndex::build_unique(&refs, name)?;
        inner.tables.get_mut(name).expect("checked above").pk =
            Some(PkState { cols: pk_cols, index });
        Ok(())
    }

    /// Materialize all columns of `name`.
    pub fn scan_table(&self, name: &str) -> Result<Vec<ColumnData>> {
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        state.table.scan(&self.pool)
    }

    /// Materialize selected columns of `name` (by column name).
    pub fn scan_columns(&self, name: &str, cols: &[&str]) -> Result<Vec<ColumnData>> {
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        let schema = state.table.schema();
        cols.iter()
            .map(|c| state.table.scan_column(&self.pool, schema.col_index(c)?))
            .collect()
    }

    /// The order facts of `name`'s rows.
    pub fn row_order(&self, name: &str) -> Result<RowOrder> {
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        Ok(state.table.order().clone())
    }

    /// Selected columns of `name`, shared with the store when it is
    /// resident (no copy), with the table's order facts over them.
    pub fn scan_shared(&self, name: &str, cols: &[&str]) -> Result<SharedScan> {
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        let table = &state.table;
        let schema = table.schema();
        let idx: Vec<usize> =
            cols.iter().map(|c| schema.col_index(c)).collect::<Result<_>>()?;
        let columns = idx
            .iter()
            .map(|&i| table.scan_column_shared(&self.pool, i))
            .collect::<Result<_>>()?;
        let order = table.order();
        let pk_prefix = if order.pk_ordered {
            schema
                .primary_key
                .iter()
                .map_while(|k| cols.iter().position(|c| c == k))
                .collect()
        } else {
            Vec::new()
        };
        Ok(SharedScan {
            columns,
            pk_prefix,
            pk_len: schema.primary_key.len(),
            non_decreasing: idx.iter().map(|&i| order.non_decreasing[i]).collect(),
        })
    }

    /// Build the PK hash index of `name` (idempotent).
    pub fn build_pk_index(&self, name: &str) -> Result<()> {
        let mut inner = unpoison(self.inner.write());
        Self::ensure_pk_built(&self.pool, &mut inner, name)
    }

    /// Build every FK join index of `name` (the paper's *eager index*
    /// step). Verifies referential integrity as a side effect.
    pub fn build_join_indices(&self, name: &str) -> Result<()> {
        let schema = self.table_schema(name)?;
        for fk in &schema.foreign_keys {
            // Parent PK columns + index.
            {
                let mut inner = unpoison(self.inner.write());
                Self::ensure_pk_built(&self.pool, &mut inner, &fk.parent_table)?;
            }
            let child_cols = {
                let names: Vec<&str> = fk.columns.iter().map(|s| s.as_str()).collect();
                self.scan_columns(name, &names)?
            };
            let mut inner = unpoison(self.inner.write());
            let inner = &mut *inner;
            let parent = inner.tables.get(&fk.parent_table).ok_or_else(|| {
                StorageError::Catalog(format!("no such table {:?}", fk.parent_table))
            })?;
            let pk = parent.pk.as_ref().ok_or_else(|| {
                StorageError::Constraint(format!(
                    "table {} has no primary key to reference",
                    fk.parent_table
                ))
            })?;
            let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
            let child_refs: Vec<&ColumnData> = child_cols.iter().collect();
            let ji =
                JoinIndex::build(&fk.parent_table, &pk.index, &parent_refs, &child_refs)?;
            inner
                .tables
                .get_mut(name)
                .expect("checked above")
                .join_indices
                .insert(fk.parent_table.clone(), Arc::new(ji));
        }
        Ok(())
    }

    /// Delete all rows of `name` (drop + recreate, schema preserved).
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        let (schema, disposition) = {
            let inner = unpoison(self.inner.read());
            let entry = inner.catalog.get(name)?;
            (entry.schema.clone(), entry.disposition)
        };
        self.drop_table(name)?;
        self.create_table(schema, disposition)
    }

    /// Probe `table`'s primary-key index with every key in `keys`
    /// (single-column integer PKs), failing on the first absent key.
    /// This is the per-row verification work the paper's lazy variant
    /// skips when ingesting chunks (§VI-A); exposed for the ablation.
    pub fn pk_probe_i64(&self, table: &str, keys: &[i64]) -> Result<()> {
        {
            let mut inner = unpoison(self.inner.write());
            Self::ensure_pk_built(&self.pool, &mut inner, table)?;
        }
        let inner = unpoison(self.inner.read());
        let state = inner
            .tables
            .get(table)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {table:?}")))?;
        let pk = state.pk.as_ref().ok_or_else(|| {
            StorageError::Constraint(format!("table {table} has no primary key"))
        })?;
        let probe = ColumnData::Int64(keys.to_vec());
        let probe_refs: [&ColumnData; 1] = [&probe];
        let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
        for (r, key) in keys.iter().enumerate() {
            if pk.index.probe(&parent_refs, &probe_refs, r).next().is_none() {
                return Err(StorageError::Constraint(format!(
                    "key {key} not present in {table}"
                )));
            }
        }
        Ok(())
    }

    /// The FK join index from `child` to `parent`, if built.
    pub fn join_index(&self, child: &str, parent: &str) -> Option<Arc<JoinIndex>> {
        unpoison(self.inner.read()).tables.get(child)?.join_indices.get(parent).cloned()
    }

    /// Approximate bytes of all in-memory index structures
    /// (Table III "+keys").
    pub fn index_bytes(&self) -> u64 {
        let inner = unpoison(self.inner.read());
        inner
            .tables
            .values()
            .map(|s| {
                let pk = s.pk.as_ref().map_or(0, |p| {
                    p.index.approx_bytes()
                        + p.cols.iter().map(|c| c.approx_bytes()).sum::<usize>()
                });
                let ji: usize = s.join_indices.values().map(|j| j.approx_bytes()).sum();
                (pk + ji) as u64
            })
            .sum()
    }

    /// Bytes on disk across all tables.
    pub fn disk_bytes(&self) -> u64 {
        let inner = unpoison(self.inner.read());
        inner
            .tables
            .values()
            .map(|s| s.table.disk_bytes() + s.table.resident_bytes() as u64)
            .sum()
    }

    /// Bytes on disk for metadata-class tables only (Table III "Lazy").
    pub fn metadata_bytes(&self) -> u64 {
        let inner = unpoison(self.inner.read());
        inner
            .tables
            .values()
            .filter(|s| s.table.schema().class.is_metadata())
            .map(|s| s.table.disk_bytes() + s.table.resident_bytes() as u64)
            .sum()
    }

    /// Drop all cached pages (simulating a cold restart). Index
    /// structures are kept, as MonetDB's persistent join indices would
    /// be re-mapped, not recomputed.
    pub fn flush_caches(&self) {
        self.pool.clear();
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = unpoison(self.inner.read());
        f.debug_struct("Database")
            .field("dir", &self.dir)
            .field("tables", &inner.catalog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::TextColumn;
    use crate::schema::TableClass;
    use crate::value::DataType;

    fn f_schema() -> TableSchema {
        TableSchema::new("F", TableClass::MetadataGiven)
            .column("file_id", DataType::Int64)
            .column("station", DataType::Text)
            .primary_key(["file_id"])
    }

    fn s_schema() -> TableSchema {
        TableSchema::new("S", TableClass::MetadataGiven)
            .column("seg_id", DataType::Int64)
            .column("file_id", DataType::Int64)
            .primary_key(["seg_id"])
            .foreign_key(["file_id"], "F", ["file_id"])
    }

    fn mem_db() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(f_schema(), Disposition::Resident).unwrap();
        db.create_table(s_schema(), Disposition::Resident).unwrap();
        db
    }

    #[test]
    fn append_scan_roundtrip() {
        let db = mem_db();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![1, 2]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        assert_eq!(db.table_rows("F").unwrap(), 2);
        let cols = db.scan_table("F").unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[1, 2]);
        let one = db.scan_columns("F", &["station"]).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn pk_violation_rejected_across_batches() {
        let db = mem_db();
        let station = || ColumnData::Text(TextColumn::from_strs(["ISK"]));
        db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::all())
            .unwrap();
        let err =
            db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::all());
        assert!(matches!(err, Err(StorageError::Constraint(_))));
        // The rejected batch must not have been applied.
        assert_eq!(db.table_rows("F").unwrap(), 1);
        // Without verification the duplicate slips through (lazy bulk mode).
        db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::none())
            .unwrap();
        assert_eq!(db.table_rows("F").unwrap(), 2);
    }

    #[test]
    fn fk_verification() {
        let db = mem_db();
        db.append(
            "F",
            &[ColumnData::Int64(vec![10]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::all(),
        )
        .unwrap();
        // Valid child.
        db.append(
            "S",
            &[ColumnData::Int64(vec![1]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        // Dangling child.
        let err = db.append(
            "S",
            &[ColumnData::Int64(vec![2]), ColumnData::Int64(vec![99])],
            ConstraintPolicy::all(),
        );
        assert!(matches!(err, Err(StorageError::Constraint(_))));
        // Lazy mode skips FK checks.
        db.append(
            "S",
            &[ColumnData::Int64(vec![3]), ColumnData::Int64(vec![99])],
            ConstraintPolicy::pk_only(),
        )
        .unwrap();
    }

    #[test]
    fn join_index_build_and_lookup() {
        let db = mem_db();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![10, 20]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "S",
            &[ColumnData::Int64(vec![1, 2, 3]), ColumnData::Int64(vec![20, 10, 20])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.build_join_indices("S").unwrap();
        let ji = db.join_index("S", "F").expect("join index built");
        assert_eq!(ji.positions, vec![1, 0, 1]);
        assert!(db.join_index("F", "S").is_none());
        assert!(db.index_bytes() > 0);
    }

    #[test]
    fn join_indices_invalidated_by_append() {
        let db = mem_db();
        db.append(
            "F",
            &[ColumnData::Int64(vec![10]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "S",
            &[ColumnData::Int64(vec![1]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.build_join_indices("S").unwrap();
        assert!(db.join_index("S", "F").is_some());
        db.append(
            "S",
            &[ColumnData::Int64(vec![2]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        assert!(db.join_index("S", "F").is_none(), "stale join index dropped");
    }

    #[test]
    fn persistent_create_open_cycle() {
        let dir = std::env::temp_dir().join(format!("somm-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
            db.create_table(f_schema(), Disposition::Persistent).unwrap();
            db.append(
                "F",
                &[
                    ColumnData::Int64(vec![1]),
                    ColumnData::Text(TextColumn::from_strs(["ISK"])),
                ],
                ConstraintPolicy::all(),
            )
            .unwrap();
            assert!(db.disk_bytes() > 0);
        }
        {
            let db = Database::open(&dir, BufferPoolConfig::default()).unwrap();
            assert_eq!(db.table_rows("F").unwrap(), 1);
            let cols = db.scan_table("F").unwrap();
            assert_eq!(cols[0].as_i64().unwrap(), &[1]);
            // Creating again over the same dir fails.
            assert!(Database::create(&dir, BufferPoolConfig::default()).is_err());
        }
        Database::destroy(&dir).unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn drop_table_removes_files() {
        let dir = std::env::temp_dir().join(format!("somm-dbdrop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
        db.create_table(f_schema(), Disposition::Persistent).unwrap();
        assert!(dir.join("tables").join("F").exists());
        db.drop_table("F").unwrap();
        assert!(!dir.join("tables").join("F").exists());
        assert!(!db.has_table("F"));
        Database::destroy(&dir).unwrap();
    }

    #[test]
    fn metadata_bytes_counts_only_metadata_tables() {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(f_schema(), Disposition::Resident).unwrap();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData).column("v", DataType::Float64),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "F",
            &[ColumnData::Int64(vec![1]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::none(),
        )
        .unwrap();
        db.append("D", &[ColumnData::Float64(vec![0.0; 1000])], ConstraintPolicy::none())
            .unwrap();
        assert!(db.metadata_bytes() < db.disk_bytes());
    }
}
