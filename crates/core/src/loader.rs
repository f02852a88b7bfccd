//! The five loading approaches of §VI-A, with phase-timed reports.
//!
//! * **Eager csv** — decode every chunk, serialize to CSV, parse the
//!   CSV back and bulk-load (the paper's MonetDB `COPY INTO` path).
//!   The round trip is format-neutral: it serializes the decoded
//!   relation, not the source format.
//! * **Eager plain** — decode every chunk and load directly.
//! * **Eager index** — eager plain + build the FK join indices.
//! * **Eager dmd** — eager index + materialize all derived metadata.
//! * **Lazy** — register metadata only; actual data loads at query time.
//!
//! All five register the given metadata first (the eager paths need the
//! system keys too). Primary keys are verified in every mode; FK
//! verification is what `Lazy` omits (§VI-A). Everything
//! format-specific is delegated to the source's
//! [`crate::source::SourceAdapter`].

use crate::chunks::ChunkRegistry;
use crate::error::{Result, SommelierError};
use crate::registrar::RegistrarReport;
use crate::source::{SourceAdapter, SourceDescriptor};
use sommelier_engine::exec::run_indexed_policy;
use sommelier_engine::{Obs, Relation, SchedPolicy};
use sommelier_storage::column::TextColumn;
use sommelier_storage::{ColumnData, ConstraintPolicy, DataType, Database};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The loading approach (paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadingMode {
    EagerCsv,
    EagerPlain,
    EagerIndex,
    EagerDmd,
    Lazy,
}

impl LoadingMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [LoadingMode; 5] = [
        LoadingMode::EagerCsv,
        LoadingMode::EagerPlain,
        LoadingMode::EagerIndex,
        LoadingMode::EagerDmd,
        LoadingMode::Lazy,
    ];

    /// Paper label (e.g. `eager_index`).
    pub fn label(self) -> &'static str {
        match self {
            LoadingMode::EagerCsv => "eager_csv",
            LoadingMode::EagerPlain => "eager_plain",
            LoadingMode::EagerIndex => "eager_index",
            LoadingMode::EagerDmd => "eager_dmd",
            LoadingMode::Lazy => "lazy",
        }
    }

    /// Parse a [`Self::label`] back (mode persistence across reopens).
    pub fn from_label(label: &str) -> Option<LoadingMode> {
        LoadingMode::ALL.into_iter().find(|m| m.label() == label)
    }

    /// True for every eager variant.
    pub fn is_eager(self) -> bool {
        !matches!(self, LoadingMode::Lazy)
    }

    /// True if this mode builds FK join indices.
    pub fn builds_indices(self) -> bool {
        matches!(self, LoadingMode::EagerIndex | LoadingMode::EagerDmd)
    }

    /// True if this mode eagerly materializes all derived metadata.
    pub fn materializes_dmd(self) -> bool {
        matches!(self, LoadingMode::EagerDmd)
    }
}

impl fmt::Display for LoadingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Phase-timed preparation report (the bars of the paper's Figure 6).
/// In a multi-source system the phases accumulate across sources.
#[derive(Debug, Clone, Default)]
pub struct PrepReport {
    /// Metadata extraction + load (all modes; dominates only in Lazy).
    pub register: Duration,
    /// Chunk-decode → CSV serialization (eager csv only).
    pub chunks_to_csv: Duration,
    /// CSV parse + load (eager csv only).
    pub csv_to_db: Duration,
    /// Direct chunk decode + load (other eager modes).
    pub chunks_to_db: Duration,
    /// FK join-index construction (eager index / dmd).
    pub indexing: Duration,
    /// Full derived-metadata materialization (eager dmd).
    pub dmd_derivation: Duration,
    /// Rows loaded into the actual-data tables.
    pub rows_loaded: u64,
    /// Bytes of CSV written (eager csv; Table III).
    pub csv_bytes: u64,
    /// Registrar detail (accumulated over sources).
    pub registrar: RegistrarReport,
}

impl PrepReport {
    /// Total preparation time.
    pub fn total(&self) -> Duration {
        self.register
            + self.chunks_to_csv
            + self.csv_to_db
            + self.chunks_to_db
            + self.indexing
            + self.dmd_derivation
    }
}

/// How many chunk files to decode per wave (bounds peak memory during
/// eager loads).
const WAVE: usize = 64;

/// The actual-data batch (storage column order) of one decoded chunk.
fn relation_batch(rel: &Relation, descriptor: &SourceDescriptor) -> Result<Vec<ColumnData>> {
    let schema = descriptor.schema(&descriptor.ad_table).ok_or_else(|| {
        SommelierError::Usage(format!(
            "source {:?} lacks the actual-data schema",
            descriptor.name
        ))
    })?;
    schema
        .columns
        .iter()
        .map(|c| {
            rel.column(&format!("{}.{}", descriptor.ad_table, c.name))
                .cloned()
                .map_err(Into::into)
        })
        .collect()
}

/// Eager plain: decode everything and load into the actual-data table.
/// Each wave of chunk files decodes as one batch on `policy`'s pool.
pub fn load_eager_plain(
    db: &Database,
    adapter: &dyn SourceAdapter,
    registry: &ChunkRegistry,
    policy: &SchedPolicy,
    report: &mut PrepReport,
) -> Result<()> {
    let t = Instant::now();
    let descriptor = adapter.descriptor();
    for wave in registry.entries().chunks(WAVE) {
        let batches: Vec<Vec<ColumnData>> =
            run_indexed_policy(wave.len(), policy, &Obs::off(), |i| {
                let rel = adapter.decode(&wave[i], None)?;
                relation_batch(&rel, descriptor)
            })
            .into_iter()
            .collect::<Result<_>>()?;
        for batch in batches {
            report.rows_loaded += batch[0].len() as u64;
            db.append(&descriptor.ad_table, &batch, ConstraintPolicy::pk_only())?;
        }
    }
    report.chunks_to_db += t.elapsed();
    Ok(())
}

fn io_err(ctx: &str, e: std::io::Error) -> SommelierError {
    SommelierError::Adapter(format!("{ctx}: {e}"))
}

/// Append one text field, quoting RFC-4180 style when it contains a
/// comma or quote. The reader is line-based, so embedded line breaks
/// are refused at write time rather than silently corrupting the file.
fn csv_quote(value: &str, out: &mut String) -> Result<()> {
    if value.contains('\n') || value.contains('\r') {
        return Err(SommelierError::Adapter(format!(
            "text value {value:?} contains a line break; the CSV loading path stores one \
             row per line"
        )));
    }
    if value.contains(',') || value.contains('"') {
        out.push('"');
        for ch in value.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(value);
    }
    Ok(())
}

/// Split one CSV line into fields, honoring quoted fields with doubled
/// quotes. `None` on malformed quoting.
fn csv_fields(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    loop {
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next()? {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => break,
                    ch => field.push(ch),
                }
            }
            match chars.next() {
                None => {
                    fields.push(std::mem::take(&mut field));
                    return Some(fields);
                }
                Some(',') => fields.push(std::mem::take(&mut field)),
                Some(_) => return None,
            }
        } else {
            loop {
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut field));
                        return Some(fields);
                    }
                    Some(',') => {
                        fields.push(std::mem::take(&mut field));
                        break;
                    }
                    Some(ch) => field.push(ch),
                }
            }
        }
    }
}

/// Serialize one decoded chunk batch to CSV (storage column order, one
/// line per row). Returns the bytes written.
fn batch_to_csv(batch: &[ColumnData], path: &Path) -> Result<u64> {
    let rows = batch.first().map_or(0, |c| c.len());
    let mut out = String::new();
    for r in 0..rows {
        for (i, col) in batch.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match col {
                ColumnData::Int64(v) => out.push_str(&v[r].to_string()),
                ColumnData::Timestamp(v) => out.push_str(&v[r].to_string()),
                ColumnData::Float64(v) => out.push_str(&format!("{}", v[r])),
                ColumnData::Text(t) => csv_quote(t.get(r), &mut out)?,
            }
        }
        out.push('\n');
    }
    let mut f = std::fs::File::create(path).map_err(|e| io_err("creating csv", e))?;
    f.write_all(out.as_bytes()).map_err(|e| io_err("writing csv", e))?;
    Ok(out.len() as u64)
}

/// Parse one CSV file back into an actual-data batch, by schema types.
fn csv_to_batch(path: &Path, dtypes: &[DataType]) -> Result<Vec<ColumnData>> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err("reading csv", e))?;
    let mut ints: Vec<Vec<i64>> = Vec::new();
    let mut floats: Vec<Vec<f64>> = Vec::new();
    let mut texts: Vec<TextColumn> = Vec::new();
    // Per column: index into the typed buffers above.
    let slots: Vec<usize> = dtypes
        .iter()
        .map(|d| match d {
            DataType::Int64 | DataType::Timestamp => {
                ints.push(Vec::new());
                ints.len() - 1
            }
            DataType::Float64 => {
                floats.push(Vec::new());
                floats.len() - 1
            }
            DataType::Text => {
                texts.push(TextColumn::new());
                texts.len() - 1
            }
        })
        .collect();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let bad = || {
            SommelierError::Adapter(format!(
                "malformed csv row {line:?} in {}",
                path.display()
            ))
        };
        let fields = csv_fields(line).ok_or_else(bad)?;
        if fields.len() != dtypes.len() {
            return Err(bad());
        }
        for ((dtype, &slot), field) in dtypes.iter().zip(&slots).zip(&fields) {
            match dtype {
                DataType::Int64 | DataType::Timestamp => {
                    ints[slot].push(field.parse().map_err(|_| bad())?)
                }
                DataType::Float64 => floats[slot].push(field.parse().map_err(|_| bad())?),
                DataType::Text => texts[slot].push(field),
            }
        }
    }
    let mut ints = ints.into_iter();
    let mut floats = floats.into_iter();
    let mut texts = texts.into_iter();
    Ok(dtypes
        .iter()
        .map(|d| match d {
            DataType::Int64 => ColumnData::Int64(ints.next().expect("slot allocated")),
            DataType::Timestamp => {
                ColumnData::Timestamp(ints.next().expect("slot allocated"))
            }
            DataType::Float64 => ColumnData::Float64(floats.next().expect("slot allocated")),
            DataType::Text => ColumnData::Text(texts.next().expect("slot allocated")),
        })
        .collect())
}

/// Eager csv: decode → CSV files (kept in `csv_dir` for Table III
/// sizing) → parse → load.
pub fn load_eager_csv(
    db: &Database,
    adapter: &dyn SourceAdapter,
    registry: &ChunkRegistry,
    csv_dir: &Path,
    policy: &SchedPolicy,
    report: &mut PrepReport,
) -> Result<()> {
    std::fs::create_dir_all(csv_dir).map_err(|e| io_err("creating csv dir", e))?;
    let descriptor = adapter.descriptor();
    let source_dir = csv_dir.join(&descriptor.name);
    std::fs::create_dir_all(&source_dir).map_err(|e| io_err("creating csv dir", e))?;
    let dtypes: Vec<DataType> = descriptor
        .schema(&descriptor.ad_table)
        .map(|s| s.columns.iter().map(|c| c.dtype).collect())
        .unwrap_or_default();
    // Phase 1: chunk decode → CSV (one pool batch over every file).
    let t = Instant::now();
    let entries = registry.entries();
    let csv_paths: Vec<PathBuf> =
        entries.iter().map(|e| source_dir.join(format!("file_{}.csv", e.file_id))).collect();
    let written = run_indexed_policy(entries.len(), policy, &Obs::off(), |i| {
        let rel = adapter.decode(&entries[i], None)?;
        batch_to_csv(&relation_batch(&rel, descriptor)?, &csv_paths[i])
    });
    for bytes in written {
        report.csv_bytes += bytes?;
    }
    report.chunks_to_csv += t.elapsed();

    // Phase 2: CSV → DB (parse a wave of files per pool batch, append).
    let t = Instant::now();
    for wave in csv_paths.chunks(WAVE) {
        let batches = run_indexed_policy(wave.len(), policy, &Obs::off(), |i| {
            csv_to_batch(&wave[i], &dtypes)
        });
        for batch in batches {
            let batch = batch?;
            report.rows_loaded += batch[0].len() as u64;
            db.append(&descriptor.ad_table, &batch, ConstraintPolicy::pk_only())?;
        }
    }
    report.csv_to_db += t.elapsed();
    Ok(())
}

/// Index phase: build the FK join indices of every table that declares
/// foreign keys (verifies referential integrity as a side effect).
pub fn build_indices(
    db: &Database,
    descriptor: &SourceDescriptor,
    report: &mut PrepReport,
) -> Result<()> {
    let t = Instant::now();
    for schema in &descriptor.schemas {
        if !schema.foreign_keys.is_empty() {
            db.build_join_indices(&schema.name)?;
        }
    }
    report.indexing += t.elapsed();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::eventlog::{generate_event_logs, EventLogAdapter, EventLogSpec};
    use crate::registrar::register;
    use crate::tests::{pooled, TempDir};
    use sommelier_storage::catalog::Disposition;

    fn setup(
        tag: &str,
    ) -> (TempDir, Database, EventLogAdapter, ChunkRegistry, PrepReport, u64) {
        let dir = TempDir::new(&format!("loader-{tag}"));
        let spec = EventLogSpec::small(2, 16);
        generate_event_logs(&dir.join("repo"), &spec).unwrap();
        let adapter = EventLogAdapter::new(dir.join("repo"));
        let db = Database::in_memory(Default::default());
        for s in &adapter.descriptor().schemas {
            db.create_table(s.clone(), Disposition::Resident).unwrap();
        }
        let mut report = PrepReport::default();
        let (registry, reg_report) = register(&db, &adapter, &pooled()).unwrap();
        report.register = reg_report.duration;
        report.registrar = reg_report;
        let events = 2 * 2 * 16; // days × hosts × events_per_file
        (dir, db, adapter, registry, report, events)
    }

    #[test]
    fn eager_plain_loads_every_event() {
        let (_dir, db, adapter, registry, mut report, events) = setup("plain");
        load_eager_plain(&db, &adapter, &registry, &pooled(), &mut report).unwrap();
        assert_eq!(report.rows_loaded, events);
        assert_eq!(db.table_rows("E").unwrap(), events);
        assert!(report.chunks_to_db > Duration::ZERO);
        assert!(report.total() >= report.chunks_to_db);
    }

    #[test]
    fn eager_csv_matches_plain_and_reports_csv_size() {
        let (dir, db, adapter, registry, mut report, events) = setup("csv");
        load_eager_csv(&db, &adapter, &registry, &dir.join("csv"), &pooled(), &mut report)
            .unwrap();
        assert_eq!(report.rows_loaded, events);
        assert_eq!(db.table_rows("E").unwrap(), events);
        assert!(report.csv_bytes > 0);
    }

    #[test]
    fn csv_round_trip_is_lossless() {
        let dir = TempDir::new("loader-roundtrip");
        let path = dir.join("x.csv");
        let batch = vec![
            ColumnData::Int64(vec![1, -2, 3]),
            ColumnData::Timestamp(vec![0, 86_400_000, 123]),
            ColumnData::Float64(vec![1.5, -0.25, 1e-12]),
            ColumnData::Text(TextColumn::from_strs(["a", "", "GET /a,\"b\""])),
        ];
        batch_to_csv(&batch, &path).unwrap();
        let dtypes =
            [DataType::Int64, DataType::Timestamp, DataType::Float64, DataType::Text];
        let back = csv_to_batch(&path, &dtypes).unwrap();
        assert_eq!(back[0].as_i64().unwrap(), &[1, -2, 3]);
        assert_eq!(back[1].as_i64().unwrap(), &[0, 86_400_000, 123]);
        assert_eq!(back[2].as_f64().unwrap(), &[1.5, -0.25, 1e-12]);
        let text = back[3].as_text().unwrap();
        assert_eq!(text.get(1), "");
        assert_eq!(text.get(2), "GET /a,\"b\"", "commas and quotes survive the trip");
        // Line breaks inside values are refused at write time (the
        // reader is line-based) rather than corrupting the file.
        let bad = vec![ColumnData::Text(TextColumn::from_strs(["two\nlines"]))];
        assert!(batch_to_csv(&bad, &dir.join("bad.csv")).is_err());
    }

    #[test]
    fn indices_build_after_load() {
        let (_dir, db, adapter, registry, mut report, _) = setup("index");
        load_eager_plain(&db, &adapter, &registry, &pooled(), &mut report).unwrap();
        build_indices(&db, adapter.descriptor(), &mut report).unwrap();
        assert!(db.join_index("E", "G").is_some());
        assert!(report.indexing > Duration::ZERO);
        assert!(db.index_bytes() > 0);
    }

    #[test]
    fn mode_labels_and_flags() {
        assert_eq!(LoadingMode::EagerDmd.label(), "eager_dmd");
        assert_eq!(LoadingMode::from_label("eager_dmd"), Some(LoadingMode::EagerDmd));
        assert_eq!(LoadingMode::from_label("nope"), None);
        assert!(LoadingMode::EagerDmd.is_eager());
        assert!(LoadingMode::EagerDmd.builds_indices());
        assert!(LoadingMode::EagerDmd.materializes_dmd());
        assert!(!LoadingMode::Lazy.is_eager());
        assert!(!LoadingMode::EagerPlain.builds_indices());
        assert_eq!(LoadingMode::ALL.len(), 5);
    }
}
