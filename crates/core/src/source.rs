//! The source-adapter API: how a chunk-file format plugs into the
//! sommelier.
//!
//! The paper's thesis is that the DBMS acts as a sommelier over *any*
//! file-based repository — bottles in the cellar, labels in its head.
//! Everything format-specific therefore lives behind one trait:
//!
//! * [`SourceAdapter`] — the behaviour: enumerate + register chunks
//!   (the Registrar phase), decode a chunk into actual-data rows (the
//!   chunk-access path).
//! * [`SourceDescriptor`] — the knowledge: the given-/derived-metadata
//!   and actual-data table schemas, the catalog views, which column
//!   carries the chunk URI, the declarative metadata-inference rules
//!   ([`InferenceRule`]) and the derived-metadata specification
//!   ([`DmdSpec`]) that Algorithm 1 materializes.
//!
//! The façade ([`crate::Sommelier`]) is assembled from registered
//! sources: the bind catalog is the union of the descriptors, queries
//! are routed to the source owning their tables, and the cellar
//! accounts every source's chunks under one shared byte budget.
//!
//! # Implementing a third-party format
//!
//! A new format implements [`SourceAdapter`] and describes itself with
//! a [`SourceDescriptor`]. The contract, in registrar order:
//!
//! 1. **Schemas** — declare one `TableClass::MetadataGiven` table per
//!    metadata granularity (one of which is the *chunk table*: one row
//!    per chunk file, holding at least an integer chunk-id column and a
//!    text URI column), exactly one `TableClass::ActualData` table
//!    (with an integer foreign key back to the chunk table), and at
//!    most one `TableClass::MetadataDerived` table.
//! 2. **Register** — [`SourceAdapter::register`] scans the repository
//!    *headers only*, bulk-loads the given-metadata tables, and returns
//!    one [`FileEntry`] per chunk. `file_id` values must match the
//!    chunk-id column loaded into the chunk table. Fan out through the
//!    [`SchedPolicy`] you are given (one
//!    [`run_indexed_policy`](sommelier_engine::exec::run_indexed_policy)
//!    batch); do not start threads.
//! 3. **Load** — two methods, and every chunk load runs both in turn:
//!    [`SourceAdapter::fetch_bytes`] reads one chunk's raw bytes (the
//!    default reads the whole file at its URI), and
//!    [`SourceAdapter::decode_bytes`] parses them into a relation
//!    shaped like the actual-data table, with qualified column names
//!    (`"D.sample_value"`) and the system keys assigned at
//!    registration — restricted to a column projection when the caller
//!    passes one (the engine always decodes full width, because the
//!    cellar retains chunks for later queries over other columns).
//! 4. **Inference** — each [`InferenceRule`] teaches the planner how a
//!    literal predicate on an actual-data column bounds a given-metadata
//!    row, so stage 1 can narrow the chunk list without touching data.
//! 5. **Derived metadata** — a [`DmdSpec`] declares the windowed
//!    summary that Algorithm 1 materializes incrementally; omit it for
//!    sources without derived metadata.
//!
//! See the seismology adapter in the paper-scenario crate and
//! [`crate::adapters::EventLogAdapter`] (CSV event logs) for two
//! complete, differently shaped implementations.

use crate::chunks::FileEntry;
use crate::error::{Result, SommelierError};
use sommelier_engine::{AggFunc, Expr, JoinEdge, Relation, SchedPolicy};
use sommelier_sql::{BindCatalog, ViewDef};
use sommelier_storage::{ColumnData, DataType, Database, TableClass, TableSchema};
use std::collections::HashMap;

/// A declarative metadata-inference rule: how literal comparisons
/// against one actual-data column translate into predicates on a
/// given-metadata table, so the metadata branch `Qf` can narrow the
/// chunk list (the paper's "Lazy has to load only 2 mSEED files",
/// §VI-C).
///
/// For a conjunct `ad_column ⟨op⟩ literal` the planner adds, soundly:
///
/// * `<`/`<=` — `min_expr ⟨op⟩ literal` (a qualifying value can only
///   live in a metadata row whose *smallest* possible value is below
///   the bound);
/// * `>`/`>=` — `max_expr ⟨op⟩ literal` (…whose *largest* possible
///   value is above the bound);
/// * `=` — `min_expr <= literal AND max_expr > literal`.
#[derive(Debug, Clone)]
pub struct InferenceRule {
    /// Qualified actual-data column the rule listens to
    /// (e.g. `"E.ts"`).
    pub ad_column: String,
    /// Given-metadata table the inferred predicates attach to
    /// (e.g. `"S"`).
    pub table: String,
    /// Smallest value `ad_column` can take within one row of `table`
    /// (e.g. `S.start_time`).
    pub min_expr: Expr,
    /// Largest (exclusive) value `ad_column` can take within one row of
    /// `table` (e.g. the segment end time).
    pub max_expr: Expr,
    /// Type the literal must coerce to for the rule to fire.
    pub data_type: DataType,
}

/// One dimension of a derived-metadata key (e.g. "station").
#[derive(Debug, Clone)]
pub struct DmdDim {
    /// Column in the derived table (e.g. `"window_station"`).
    pub derived_column: String,
    /// Qualified source column on the *chunk table*
    /// (e.g. `"F.station"`).
    pub source_column: String,
}

/// One derived-metadata statistic.
#[derive(Debug, Clone)]
pub struct DmdAgg {
    /// Column in the derived table (e.g. `"window_max_val"`).
    pub derived_column: String,
    pub func: AggFunc,
    /// Qualified actual-data column aggregated (e.g.
    /// `"D.sample_value"`).
    pub ad_column: String,
}

/// The derived-metadata specification: what Algorithm 1 materializes.
///
/// The derived table's primary-key space is
/// `dims × bucket` — every combination of the dimension values present
/// in the given metadata and the `bucket_ms`-aligned time buckets of
/// the data range. The derived table's schema must list exactly
/// `dims..., bucket_column, aggregates...` in that order (validated by
/// [`SourceDescriptor::validate`]).
#[derive(Debug, Clone)]
pub struct DmdSpec {
    /// The derived-metadata table (e.g. `"H"`).
    pub table: String,
    /// Key dimensions, sourced from chunk-table columns.
    pub dims: Vec<DmdDim>,
    /// The time-bucket key column in the derived table
    /// (e.g. `"window_start_ts"`).
    pub bucket_column: String,
    /// Qualified actual-data column that is bucketed
    /// (e.g. `"E.ts"`).
    pub bucket_ad_column: String,
    /// Bucket width in milliseconds (hour for the seismology windows,
    /// day for log summaries, …).
    pub bucket_ms: i64,
    /// The statistics derived per key.
    pub aggregates: Vec<DmdAgg>,
    /// Tables of the internal derivation query (given metadata +
    /// actual data; *not* the derived table itself).
    pub derive_tables: Vec<String>,
    /// Join edges among `derive_tables`.
    pub derive_joins: Vec<JoinEdge>,
    /// Given-metadata table whose rows carry the data's time extent
    /// (e.g. `"S"`; may equal the chunk table).
    pub range_table: String,
    /// Column of `range_table` linking a row to its chunk id.
    pub range_chunk_id: String,
    /// Earliest data time covered by a `range_table` row (an expression
    /// over that table's qualified columns).
    pub range_min: Expr,
    /// Latest (exclusive) data time covered by a `range_table` row.
    pub range_max: Expr,
}

/// Everything the system needs to know about one source format.
///
/// See the [module docs](self) for the full contract.
#[derive(Debug, Clone)]
pub struct SourceDescriptor {
    /// Unique source name (e.g. `"eventlog"`); used in diagnostics
    /// and to route administrative operations.
    pub name: String,
    /// All table schemas this source owns (given metadata, actual
    /// data, derived metadata). Table names must be globally unique
    /// across the sources registered into one system.
    pub schemas: Vec<TableSchema>,
    /// Denormalized views registered into the bind catalog.
    pub views: Vec<ViewDef>,
    /// The given-metadata table holding one row per chunk.
    pub chunk_table: String,
    /// Integer chunk-id column of `chunk_table`.
    pub chunk_id_column: String,
    /// Text URI column of `chunk_table` (what the lazy loader opens).
    pub chunk_uri_column: String,
    /// Optional sub-unit metadata table (e.g. mSEED segments): used to
    /// restore per-chunk unit counts when reopening a persisted system.
    pub unit_table: Option<UnitTableSpec>,
    /// The actual-data table.
    pub ad_table: String,
    /// Declarative metadata-inference rules.
    pub inference_rules: Vec<InferenceRule>,
    /// Qualified actual-data columns the adapter records per-chunk
    /// min/max zone maps for at registration time (via
    /// [`FileEntry::zones`]); the `zone_map_pruning` pass drops chunks
    /// whose zones contradict a pushed-down predicate. Empty = no
    /// zone maps for this source.
    pub prunable_columns: Vec<String>,
    /// Derived-metadata specification, if the source has any.
    pub dmd: Option<DmdSpec>,
}

/// Where a source keeps per-chunk sub-unit metadata (e.g. one row per
/// mSEED segment).
#[derive(Debug, Clone)]
pub struct UnitTableSpec {
    /// The table (e.g. `"S"`).
    pub table: String,
    /// Its chunk-id column (e.g. `"file_id"`).
    pub chunk_id_column: String,
    /// Its unit-id column (e.g. `"seg_id"`); unit ids must be
    /// contiguous per chunk, registration-ordered.
    pub unit_id_column: String,
}

impl SourceDescriptor {
    /// The qualified URI column (`"F.uri"`), which `Qf` must output so
    /// the run-time optimizer can name the chunks.
    pub fn uri_column(&self) -> String {
        format!("{}.{}", self.chunk_table, self.chunk_uri_column)
    }

    /// The qualified chunk-id column (`"F.file_id"`).
    pub fn chunk_id_col(&self) -> String {
        format!("{}.{}", self.chunk_table, self.chunk_id_column)
    }

    /// Extra columns the lazy planner keeps in `Qf`'s output.
    pub fn lazy_qf_columns(&self) -> Vec<String> {
        vec![self.uri_column(), self.chunk_id_col()]
    }

    /// The schema of `name`, if this source owns it.
    pub fn schema(&self, name: &str) -> Option<&TableSchema> {
        self.schemas.iter().find(|s| s.name == name)
    }

    /// Does this source own table `name`?
    pub fn owns_table(&self, name: &str) -> bool {
        self.schema(name).is_some()
    }

    /// The column of the actual-data table that carries the chunk id
    /// (derived from its foreign key to the chunk table).
    pub fn ad_chunk_id_column(&self) -> Result<String> {
        let ad = self.schema(&self.ad_table).ok_or_else(|| {
            SommelierError::Usage(format!(
                "source {:?}: actual-data table {:?} has no schema",
                self.name, self.ad_table
            ))
        })?;
        ad.foreign_keys
            .iter()
            .find(|fk| fk.parent_table == self.chunk_table && fk.columns.len() == 1)
            .map(|fk| fk.columns[0].clone())
            .ok_or_else(|| {
                SommelierError::Usage(format!(
                    "source {:?}: table {:?} has no single-column foreign key to the \
                     chunk table {:?}",
                    self.name, self.ad_table, self.chunk_table
                ))
            })
    }

    /// Structural validation: every rule the registrar, planner and
    /// Algorithm 1 rely on. Run at [`crate::Sommelier`] build time.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(SommelierError::Usage(format!("source {:?}: {msg}", self.name)))
        };
        for s in &self.schemas {
            s.validate()?;
        }
        let Some(chunk) = self.schema(&self.chunk_table) else {
            return fail(format!(
                "chunk table {:?} is not among the schemas",
                self.chunk_table
            ));
        };
        if chunk.class != TableClass::MetadataGiven {
            return fail(format!(
                "chunk table {:?} must be given metadata",
                self.chunk_table
            ));
        }
        for (col, dtype) in [
            (&self.chunk_id_column, DataType::Int64),
            (&self.chunk_uri_column, DataType::Text),
        ] {
            match chunk.columns.iter().find(|c| &c.name == col) {
                Some(c) if c.dtype == dtype => {}
                Some(c) => {
                    return fail(format!(
                        "chunk column {col:?} has type {}, need {dtype}",
                        c.dtype
                    ))
                }
                None => return fail(format!("chunk table lacks column {col:?}")),
            }
        }
        let Some(ad) = self.schema(&self.ad_table) else {
            return fail(format!(
                "actual-data table {:?} is not among the schemas",
                self.ad_table
            ));
        };
        if ad.class != TableClass::ActualData {
            return fail(format!("table {:?} must be class ActualData", self.ad_table));
        }
        self.ad_chunk_id_column()?;
        if let Some(u) = &self.unit_table {
            let Some(us) = self.schema(&u.table) else {
                return fail(format!("unit table {:?} is not among the schemas", u.table));
            };
            for col in [&u.chunk_id_column, &u.unit_id_column] {
                if !us.columns.iter().any(|c| &c.name == col) {
                    return fail(format!("unit table {:?} lacks column {col:?}", u.table));
                }
            }
        }
        for rule in &self.inference_rules {
            if self.qualified_owner(&rule.ad_column) != Some(self.ad_table.as_str()) {
                return fail(format!(
                    "inference rule column {:?} is not on the actual-data table",
                    rule.ad_column
                ));
            }
            if !self.owns_table(&rule.table) {
                return fail(format!(
                    "inference rule targets unknown table {:?}",
                    rule.table
                ));
            }
        }
        for col in &self.prunable_columns {
            if self.qualified_owner(col) != Some(self.ad_table.as_str()) {
                return fail(format!(
                    "prunable column {col:?} is not on the actual-data table"
                ));
            }
        }
        if let Some(dmd) = &self.dmd {
            self.validate_dmd(dmd)?;
        }
        Ok(())
    }

    fn validate_dmd(&self, dmd: &DmdSpec) -> Result<()> {
        let fail = |msg: String| {
            Err(SommelierError::Usage(format!("source {:?}: {msg}", self.name)))
        };
        let Some(schema) = self.schema(&dmd.table) else {
            return fail(format!("derived table {:?} is not among the schemas", dmd.table));
        };
        if schema.class != TableClass::MetadataDerived {
            return fail(format!("table {:?} must be class MetadataDerived", dmd.table));
        }
        // The derived table's columns must be dims, bucket, aggregates —
        // in that order (Algorithm 1 appends derivation results
        // positionally).
        let expected: Vec<&str> = dmd
            .dims
            .iter()
            .map(|d| d.derived_column.as_str())
            .chain(std::iter::once(dmd.bucket_column.as_str()))
            .chain(dmd.aggregates.iter().map(|a| a.derived_column.as_str()))
            .collect();
        let actual: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        if expected != actual {
            return fail(format!(
                "derived table {:?} columns {actual:?} must be exactly dims + bucket + \
                 aggregates {expected:?}",
                dmd.table
            ));
        }
        let pk: Vec<&str> = expected[..dmd.dims.len() + 1].to_vec();
        if schema.primary_key != pk {
            return fail(format!(
                "derived table {:?} primary key must be the dims + bucket {pk:?}",
                dmd.table
            ));
        }
        for d in &dmd.dims {
            if self.qualified_owner(&d.source_column) != Some(self.chunk_table.as_str()) {
                return fail(format!(
                    "derived dimension source {:?} must be a chunk-table column",
                    d.source_column
                ));
            }
        }
        if dmd.bucket_ms <= 0 {
            return fail(format!("bucket width must be positive, got {}", dmd.bucket_ms));
        }
        if self.qualified_owner(&dmd.bucket_ad_column) != Some(self.ad_table.as_str()) {
            return fail(format!(
                "bucket source {:?} must be a qualified actual-data column",
                dmd.bucket_ad_column
            ));
        }
        for agg in &dmd.aggregates {
            if self.qualified_owner(&agg.ad_column) != Some(self.ad_table.as_str()) {
                return fail(format!(
                    "aggregate source {:?} must be a qualified actual-data column",
                    agg.ad_column
                ));
            }
        }
        let Some(range) = self.schema(&dmd.range_table) else {
            return fail(format!(
                "range table {:?} is not among the schemas",
                dmd.range_table
            ));
        };
        if !range.columns.iter().any(|c| c.name == dmd.range_chunk_id) {
            return fail(format!(
                "range table {:?} lacks the chunk-id column {:?}",
                dmd.range_table, dmd.range_chunk_id
            ));
        }
        for t in &dmd.derive_tables {
            if !self.owns_table(t) {
                return fail(format!("derivation table {:?} is not among the schemas", t));
            }
        }
        Ok(())
    }

    /// Which of this source's tables a qualified column (`"F.station"`)
    /// belongs to, if the prefix is one of ours.
    fn qualified_owner<'a>(&'a self, qualified: &str) -> Option<&'a str> {
        let (table, _) = qualified.split_once('.')?;
        self.schemas.iter().find(|s| s.name == table).map(|s| s.name.as_str())
    }

    /// Split a qualified column into (table, column).
    pub(crate) fn split_qualified(qualified: &str) -> Result<(&str, &str)> {
        qualified.split_once('.').ok_or_else(|| {
            SommelierError::Usage(format!("column {qualified:?} is not table-qualified"))
        })
    }
}

/// The raw, undecoded bytes of one chunk file, as produced by
/// [`SourceAdapter::fetch_bytes`] — the fetch half of every chunk load,
/// handed to [`SourceAdapter::decode_bytes`]. Carrying a plain owned
/// buffer keeps the prefetcher's IO threads format-agnostic: they only
/// read files, never parse.
#[derive(Debug, Clone, Default)]
pub struct RawChunk {
    /// The chunk file's full contents.
    pub bytes: Vec<u8>,
}

impl RawChunk {
    /// Size of the staged payload (what the cellar budget accounts for
    /// a prefetched-but-unconsumed chunk).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the fetched file was empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A source format plugged into the sommelier. See the
/// [module docs](self) for the contract a third-party format must
/// implement.
pub trait SourceAdapter: Send + Sync {
    /// The source's static self-description.
    fn descriptor(&self) -> &SourceDescriptor;

    /// The Registrar phase (§V.1): enumerate the repository's chunk
    /// files, extract *headers only*, bulk-load the given-metadata
    /// tables into `db`, and return one [`FileEntry`] per chunk —
    /// including the zone maps for the descriptor's
    /// [`SourceDescriptor::prunable_columns`], when the headers carry
    /// the bounds. This is the entire up-front cost of lazy loading.
    ///
    /// Fan out through `policy` — one
    /// [`run_indexed_policy`](sommelier_engine::exec::run_indexed_policy)
    /// batch on the system's morsel pool, inline when it has none — and
    /// start no threads of your own.
    fn register(&self, db: &Database, policy: &SchedPolicy) -> Result<Vec<FileEntry>>;

    /// The fetch half of a chunk load: read one chunk's raw bytes
    /// without parsing anything. Every load reads through here — the
    /// prefetcher on its IO threads, so the read of chunk k+1 overlaps
    /// with decoding chunk k, and the cellar's direct load and the
    /// eager loaders on the decode worker. The default reads the whole
    /// file at `entry.uri`.
    fn fetch_bytes(&self, entry: &FileEntry) -> sommelier_engine::Result<RawChunk> {
        let bytes = std::fs::read(&entry.uri).map_err(|e| {
            sommelier_engine::EngineError::Chunk(format!("read {:?}: {e}", entry.uri))
        })?;
        Ok(RawChunk { bytes })
    }

    /// The decode half of a chunk load: parse the bytes
    /// [`Self::fetch_bytes`] returned into a relation shaped like the
    /// actual-data table (qualified column names, system keys from
    /// registration), with no file IO of its own. With a `projection`,
    /// only the named columns need to be materialized; the engine
    /// passes `None`, since retained chunks must serve later queries
    /// over any column set. A chunk with no rows must still produce
    /// the correctly-shaped empty relation (see [`empty_ad_relation`]).
    fn decode_bytes(
        &self,
        entry: &FileEntry,
        raw: RawChunk,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation>;

    /// Total bytes of the source repository (Table III's raw-format
    /// column).
    fn source_bytes(&self) -> Result<u64>;
}

/// The correctly-shaped *empty* actual-data relation for a descriptor
/// (what [`SourceAdapter::decode_bytes`] must return for chunks with no
/// rows), restricted to `projection` when one is pushed down.
pub fn empty_ad_relation(
    descriptor: &SourceDescriptor,
    projection: Option<&[String]>,
) -> sommelier_engine::Result<Relation> {
    let schema = descriptor.schema(&descriptor.ad_table).ok_or_else(|| {
        sommelier_engine::EngineError::Chunk(format!(
            "descriptor {:?} lacks the actual-data schema",
            descriptor.name
        ))
    })?;
    Relation::new(
        schema
            .columns
            .iter()
            .filter_map(|c| {
                let name = format!("{}.{}", descriptor.ad_table, c.name);
                if let Some(p) = projection {
                    if !p.contains(&name) {
                        return None;
                    }
                }
                let data = match c.dtype {
                    DataType::Int64 => ColumnData::Int64(vec![]),
                    DataType::Float64 => ColumnData::Float64(vec![]),
                    DataType::Timestamp => ColumnData::Timestamp(vec![]),
                    DataType::Text => {
                        ColumnData::Text(sommelier_storage::column::TextColumn::new())
                    }
                };
                Some((name, data))
            })
            .collect(),
    )
}

/// Rebuild a source's chunk registry entries from its persisted
/// given-metadata tables (used when re-opening a disk-backed system).
pub fn restore_registry(
    db: &Database,
    descriptor: &SourceDescriptor,
) -> Result<Vec<FileEntry>> {
    let cols = db.scan_columns(
        &descriptor.chunk_table,
        &[descriptor.chunk_id_column.as_str(), descriptor.chunk_uri_column.as_str()],
    )?;
    let ids = cols[0].as_i64()?;
    let uris = cols[1].as_text()?;
    // Per chunk: smallest unit id and unit count, when a unit table
    // exists (unit ids are contiguous per chunk, registration-ordered).
    let mut unit_base: HashMap<i64, i64> = HashMap::new();
    let mut unit_count: HashMap<i64, u32> = HashMap::new();
    if let Some(u) = &descriptor.unit_table {
        let ucols = db.scan_columns(
            &u.table,
            &[u.unit_id_column.as_str(), u.chunk_id_column.as_str()],
        )?;
        let unit_ids = ucols[0].as_i64()?;
        let chunk_ids = ucols[1].as_i64()?;
        for (&uid, &cid) in unit_ids.iter().zip(chunk_ids) {
            let base = unit_base.entry(cid).or_insert(uid);
            *base = (*base).min(uid);
            *unit_count.entry(cid).or_insert(0) += 1;
        }
    }
    Ok(ids
        .iter()
        .enumerate()
        .map(|(i, &id)| FileEntry {
            uri: uris.get(i).to_string(),
            file_id: id,
            seg_base: unit_base.get(&id).copied().unwrap_or(0),
            seg_count: unit_count.get(&id).copied().unwrap_or(1),
            // Zone maps are restored from the persisted sidecar (see
            // the façade's open path), not from the metadata tables.
            zones: Vec::new(),
        })
        .collect())
}

/// Assemble the bind catalog of a multi-source system, rejecting table
/// or view name collisions between sources.
pub fn assemble_catalog(descriptors: &[&SourceDescriptor]) -> Result<BindCatalog> {
    let mut catalog = BindCatalog::default();
    for d in descriptors {
        for schema in &d.schemas {
            if !catalog.add_table(schema) {
                return Err(SommelierError::Usage(format!(
                    "table {:?} of source {:?} collides with an already registered source",
                    schema.name, d.name
                )));
            }
        }
    }
    for d in descriptors {
        for view in &d.views {
            if catalog.has_view(&view.name) {
                return Err(SommelierError::Usage(format!(
                    "view {:?} of source {:?} collides with an already registered source",
                    view.name, d.name
                )));
            }
            catalog.add_view(view.clone());
        }
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::eventlog::EventLogAdapter;

    fn descriptor() -> SourceDescriptor {
        EventLogAdapter::descriptor_for_tests()
    }

    #[test]
    fn descriptor_validates() {
        descriptor().validate().unwrap();
    }

    #[test]
    fn qualified_helpers() {
        let d = descriptor();
        assert_eq!(d.uri_column(), format!("{}.{}", d.chunk_table, d.chunk_uri_column));
        assert_eq!(d.lazy_qf_columns().len(), 2);
        assert!(d.owns_table(&d.ad_table));
        assert!(!d.owns_table("nope"));
        let ad_fk = d.ad_chunk_id_column().unwrap();
        assert!(d.schema(&d.ad_table).unwrap().columns.iter().any(|c| c.name == ad_fk));
    }

    #[test]
    fn validation_rejects_missing_chunk_table() {
        let mut d = descriptor();
        d.chunk_table = "nope".into();
        assert!(matches!(d.validate(), Err(SommelierError::Usage(_))));
    }

    #[test]
    fn validation_rejects_unqualified_dmd_columns() {
        let mut d = descriptor();
        d.dmd.as_mut().unwrap().bucket_ad_column = "ts".into();
        assert!(matches!(d.validate(), Err(SommelierError::Usage(_))));
        let mut d = descriptor();
        d.dmd.as_mut().unwrap().aggregates[0].ad_column = "val".into();
        assert!(matches!(d.validate(), Err(SommelierError::Usage(_))));
        let mut d = descriptor();
        d.dmd.as_mut().unwrap().range_chunk_id = "nope".into();
        assert!(matches!(d.validate(), Err(SommelierError::Usage(_))));
    }

    #[test]
    fn validation_rejects_misordered_derived_columns() {
        let mut d = descriptor();
        let dmd = d.dmd.as_mut().unwrap();
        dmd.aggregates.reverse();
        assert!(matches!(d.validate(), Err(SommelierError::Usage(_))));
    }

    #[test]
    fn catalog_assembly_rejects_collisions() {
        let a = descriptor();
        let b = descriptor();
        assert!(assemble_catalog(&[&a]).is_ok());
        assert!(matches!(assemble_catalog(&[&a, &b]), Err(SommelierError::Usage(_))));
    }
}
