//! A CSV event-log source: the second built-in [`SourceAdapter`].
//!
//! A *genuinely different* scenario from the seismology warehouse —
//! operations telemetry instead of waveforms — to prove the adapter
//! abstraction carries: per-file given metadata (host, service, day),
//! one actual-data row per logged event, and a **daily** summary as
//! derived metadata (vs the seismology adapter's hourly windows).
//!
//! On disk a repository is a directory of `*.evl` files, one chunk per
//! (host, service, day):
//!
//! ```text
//! web-1,api,1299024000000[,17.25,530.0]  ← header: host,service,day_start_ms
//! 1299024000123,17.25                    ←   (optionally ,min_val,max_val)
//! 1299024001456,18.00                    ← events: ts_ms,value
//! …
//! ```
//!
//! The two optional header fields are the file's value statistics
//! (Parquet-style column bounds carried by the format itself); the
//! adapter surfaces them — plus the day-derived `E.ts` bounds — as
//! zone maps, so the optimizer's `zone_map_pruning` pass can drop
//! whole chunks against `E.val`/`E.ts` predicates without decoding
//! them. Headers without statistics stay valid (their chunks are
//! simply never value-pruned).
//!
//! Tables:
//!
//! * `G` — given metadata per log file (`log_id`, `uri`, `host`,
//!   `service`, `day_ts`).
//! * `E` — actual data: one row per event (`log_id`, `ts`, `val`).
//! * `Y` — derived metadata: daily summaries keyed by
//!   (`day_host`, `day_service`, `day_start_ts`).
//!
//! Views: `eventview` (= G ⋈ E), `dayview` (= G ⋈ Y) and `daylogview`
//! (= G ⋈ E ⋈ Y) — the T4/T3/T5 shapes of the paper's taxonomy.

use crate::chunks::FileEntry;
use crate::error::{Result, SommelierError};
use crate::source::{
    DmdAgg, DmdDim, DmdSpec, InferenceRule, RawChunk, SourceAdapter, SourceDescriptor,
};
use sommelier_engine::exec::run_indexed_policy;
use sommelier_engine::expr::ArithOp;
use sommelier_engine::relation::RelationBuilder;
use sommelier_engine::{
    AggFunc, ColumnZone, EngineError, Expr, Func, JoinEdge, Obs, Relation, SchedPolicy,
};
use sommelier_sql::ViewDef;
use sommelier_storage::column::TextColumn;
use sommelier_storage::time::{civil_from_days, days_from_civil, MS_PER_DAY};
use sommelier_storage::{
    ColumnData, ConstraintPolicy, DataType, Database, TableClass, TableSchema, Value,
};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Schema of the given-metadata log-file table `G`.
fn g_schema() -> TableSchema {
    TableSchema::new("G", TableClass::MetadataGiven)
        .column("log_id", DataType::Int64)
        .column("uri", DataType::Text)
        .column("host", DataType::Text)
        .column("service", DataType::Text)
        .column("day_ts", DataType::Timestamp)
        .primary_key(["log_id"])
}

/// Schema of the actual-data event table `E`.
fn e_schema() -> TableSchema {
    TableSchema::new("E", TableClass::ActualData)
        .column("log_id", DataType::Int64)
        .column("ts", DataType::Timestamp)
        .column("val", DataType::Float64)
        .foreign_key(["log_id"], "G", ["log_id"])
}

/// Schema of the derived-metadata daily-summary table `Y`.
fn y_schema() -> TableSchema {
    TableSchema::new("Y", TableClass::MetadataDerived)
        .column("day_host", DataType::Text)
        .column("day_service", DataType::Text)
        .column("day_start_ts", DataType::Timestamp)
        .column("day_max_val", DataType::Float64)
        .column("day_min_val", DataType::Float64)
        .column("day_mean_val", DataType::Float64)
        .primary_key(["day_host", "day_service", "day_start_ts"])
}

fn eventview() -> ViewDef {
    ViewDef {
        name: "eventview".into(),
        tables: vec!["G".into(), "E".into()],
        joins: vec![JoinEdge::new(
            "G",
            "E",
            vec![Expr::col("G.log_id")],
            vec![Expr::col("E.log_id")],
        )
        .expect("static edge")],
    }
}

fn dayview() -> ViewDef {
    ViewDef {
        name: "dayview".into(),
        tables: vec!["G".into(), "Y".into()],
        joins: vec![JoinEdge::new(
            "G",
            "Y",
            vec![Expr::col("G.host"), Expr::col("G.service")],
            vec![Expr::col("Y.day_host"), Expr::col("Y.day_service")],
        )
        .expect("static edge")],
    }
}

/// `daylogview = G ⋈ E ⋈ Y`. The `G.day_ts = Y.day_start_ts` edge is
/// what lets `Qf` narrow the chunk list to the days that actually have
/// qualifying summaries (chunk files hold exactly one day).
fn daylogview() -> ViewDef {
    let mut view = eventview();
    view.name = "daylogview".into();
    view.tables.push("Y".into());
    view.joins.push(
        JoinEdge::new(
            "G",
            "Y",
            vec![Expr::col("G.host"), Expr::col("G.service"), Expr::col("G.day_ts")],
            vec![
                Expr::col("Y.day_host"),
                Expr::col("Y.day_service"),
                Expr::col("Y.day_start_ts"),
            ],
        )
        .expect("static edge"),
    );
    view.joins.push(
        JoinEdge::new(
            "E",
            "Y",
            vec![Expr::Call(
                Func::TimeBucket,
                vec![Expr::col("E.ts"), Expr::lit(MS_PER_DAY)],
            )],
            vec![Expr::col("Y.day_start_ts")],
        )
        .expect("static edge"),
    );
    view
}

/// End of the day a `G` row covers: `G.day_ts + 86_400_000`.
fn day_end_expr() -> Expr {
    Expr::Arith(
        ArithOp::Add,
        Box::new(Expr::col("G.day_ts")),
        Box::new(Expr::lit(MS_PER_DAY)),
    )
}

fn descriptor() -> SourceDescriptor {
    SourceDescriptor {
        name: "eventlog".into(),
        schemas: vec![g_schema(), e_schema(), y_schema()],
        views: vec![eventview(), dayview(), daylogview()],
        chunk_table: "G".into(),
        chunk_id_column: "log_id".into(),
        chunk_uri_column: "uri".into(),
        unit_table: None,
        ad_table: "E".into(),
        inference_rules: vec![InferenceRule {
            ad_column: "E.ts".into(),
            table: "G".into(),
            min_expr: Expr::col("G.day_ts"),
            max_expr: day_end_expr(),
            data_type: DataType::Timestamp,
        }],
        prunable_columns: vec!["E.ts".into(), "E.val".into()],
        dmd: Some(DmdSpec {
            table: "Y".into(),
            dims: vec![
                DmdDim { derived_column: "day_host".into(), source_column: "G.host".into() },
                DmdDim {
                    derived_column: "day_service".into(),
                    source_column: "G.service".into(),
                },
            ],
            bucket_column: "day_start_ts".into(),
            bucket_ad_column: "E.ts".into(),
            bucket_ms: MS_PER_DAY,
            aggregates: vec![
                DmdAgg {
                    derived_column: "day_max_val".into(),
                    func: AggFunc::Max,
                    ad_column: "E.val".into(),
                },
                DmdAgg {
                    derived_column: "day_min_val".into(),
                    func: AggFunc::Min,
                    ad_column: "E.val".into(),
                },
                DmdAgg {
                    derived_column: "day_mean_val".into(),
                    func: AggFunc::Avg,
                    ad_column: "E.val".into(),
                },
            ],
            derive_tables: vec!["G".into(), "E".into()],
            derive_joins: eventview().joins,
            range_table: "G".into(),
            range_chunk_id: "log_id".into(),
            range_min: Expr::col("G.day_ts"),
            range_max: day_end_expr(),
        }),
    }
}

/// Specification of a synthetic event-log dataset (tests, benches).
#[derive(Debug, Clone)]
pub struct EventLogSpec {
    pub hosts: Vec<String>,
    pub services: Vec<String>,
    /// First day, as days since the Unix epoch.
    pub start_day: i64,
    /// Consecutive days (one file per host × service × day).
    pub days: u32,
    pub events_per_file: u32,
    /// Seed driving all value randomness.
    pub seed: u64,
}

impl EventLogSpec {
    /// A small two-host fleet starting 2011-03-01 (clear of the
    /// seismology datasets' 2010 range, so mixed-source tests can tell
    /// the two apart).
    pub fn small(days: u32, events_per_file: u32) -> Self {
        EventLogSpec {
            hosts: vec!["web-1".into(), "web-2".into()],
            services: vec!["api".into()],
            start_day: days_from_civil(2011, 3, 1),
            days,
            events_per_file,
            seed: 0x10C_5EED,
        }
    }
}

/// Deterministic mixing (splitmix64): all values derive from the spec
/// seed, so datasets are reproducible byte-for-byte.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn io_err(ctx: &str, e: std::io::Error) -> SommelierError {
    SommelierError::Adapter(format!("{ctx}: {e}"))
}

/// Generate a synthetic event-log repository under `dir`, one `.evl`
/// file per (host, service, day). Returns the number of files written.
pub fn generate_event_logs(dir: &Path, spec: &EventLogSpec) -> Result<u64> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating log dir", e))?;
    let mut files = 0u64;
    for d in 0..spec.days {
        let day = spec.start_day + d as i64;
        let (y, m, dd) = civil_from_days(day);
        let day_ts = day * MS_PER_DAY;
        for host in &spec.hosts {
            for service in &spec.services {
                let path = dir.join(format!("{host}-{service}-{y:04}{m:02}{dd:02}.evl"));
                let mut body = String::new();
                let slot = (MS_PER_DAY / spec.events_per_file.max(1) as i64).max(1);
                let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
                for i in 0..spec.events_per_file {
                    let r = mix(spec.seed
                        ^ mix(day as u64)
                        ^ mix(
                            host.len() as u64 ^ (host.as_bytes()[host.len() - 1] as u64) << 8
                        )
                        ^ mix((service.len() as u64) << 16)
                        ^ (i as u64) << 32);
                    let ts = day_ts + i as i64 * slot + (r % slot as u64) as i64;
                    // Baseline latency with occasional incident spikes —
                    // gives selective predicates something to find.
                    let base = 20.0 + (r % 1000) as f64 / 50.0;
                    let val = if r.is_multiple_of(97) {
                        base + 500.0 + (r % 331) as f64
                    } else {
                        base
                    };
                    vmin = vmin.min(val);
                    vmax = vmax.max(val);
                    body.push_str(&format!("{ts},{val}\n"));
                }
                // Header with the file's value statistics (zone-map
                // bounds for E.val).
                let mut out = format!("{host},{service},{day_ts}");
                if spec.events_per_file > 0 {
                    out.push_str(&format!(",{vmin},{vmax}"));
                }
                out.push('\n');
                out.push_str(&body);
                std::fs::write(&path, out).map_err(|e| io_err("writing log file", e))?;
                files += 1;
            }
        }
    }
    Ok(files)
}

/// Parsed header of one log file.
struct LogHeader {
    host: String,
    service: String,
    day_ts: i64,
    /// The file's value statistics, when the header carries them.
    val_bounds: Option<(f64, f64)>,
}

fn read_header(path: &Path) -> Result<LogHeader> {
    let file = std::fs::File::open(path).map_err(|e| io_err("opening log file", e))?;
    let mut line = String::new();
    std::io::BufReader::new(file)
        .read_line(&mut line)
        .map_err(|e| io_err("reading log header", e))?;
    parse_header(line.trim_end(), path)
}

fn parse_header(line: &str, path: &Path) -> Result<LogHeader> {
    let mut parts = line.split(',');
    let bad = || {
        SommelierError::Adapter(format!(
            "malformed event-log header {line:?} in {}",
            path.display()
        ))
    };
    let host = parts.next().ok_or_else(bad)?.to_string();
    let service = parts.next().ok_or_else(bad)?.to_string();
    let day_ts: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    // Optional value statistics: both bounds or neither.
    let val_bounds = match parts.next() {
        None => None,
        Some(vmin) => {
            let vmin: f64 = vmin.parse().map_err(|_| bad())?;
            let vmax: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            Some((vmin, vmax))
        }
    };
    if host.is_empty() || service.is_empty() || parts.next().is_some() {
        return Err(bad());
    }
    Ok(LogHeader { host, service, day_ts, val_bounds })
}

/// The midpoint between the smallest and largest per-file `E.val`
/// maxima recorded in a repository's headers, optionally restricted
/// to one host (matched on the header field, not the file name).
/// `None` when the maxima do not vary (no midpoint separates any
/// files). Benches and tests use this to pick a value threshold that
/// the `zone_map_pruning` pass can prune some — but not all — chunks
/// against.
pub fn value_stats_midpoint(dir: &Path, host: Option<&str>) -> Result<Option<f64>> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("listing log dir", e))? {
        let path = entry.map_err(|e| io_err("listing log dir", e))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("evl") {
            continue;
        }
        let header = read_header(&path)?;
        if host.is_some_and(|h| h != header.host) {
            continue;
        }
        if let Some((_, vmax)) = header.val_bounds {
            lo = lo.min(vmax);
            hi = hi.max(vmax);
        }
    }
    Ok(if lo < hi { Some((lo + hi) / 2.0) } else { None })
}

/// The zone maps of one log file: `E.ts` covers the file's day, and
/// `E.val` the header statistics (when present).
fn zones_of(header: &LogHeader) -> Vec<ColumnZone> {
    let mut zones = vec![ColumnZone {
        column: "E.ts".into(),
        min: Value::Time(header.day_ts),
        max: Value::Time(header.day_ts + MS_PER_DAY - 1),
    }];
    if let Some((vmin, vmax)) = header.val_bounds {
        zones.push(ColumnZone {
            column: "E.val".into(),
            min: Value::Float(vmin),
            max: Value::Float(vmax),
        });
    }
    zones
}

/// The CSV event-log [`SourceAdapter`].
pub struct EventLogAdapter {
    dir: PathBuf,
    descriptor: SourceDescriptor,
}

impl EventLogAdapter {
    /// An adapter over the repository directory `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        EventLogAdapter { dir: dir.into(), descriptor: descriptor() }
    }

    /// The repository directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All chunk files, sorted by name (registration order).
    fn list(&self) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| io_err("listing log dir", e))?;
        for entry in entries {
            let path = entry.map_err(|e| io_err("listing log dir", e))?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("evl") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The bare descriptor (unit tests of the generic machinery).
    #[cfg(test)]
    pub(crate) fn descriptor_for_tests() -> SourceDescriptor {
        descriptor()
    }
}

impl SourceAdapter for EventLogAdapter {
    fn descriptor(&self) -> &SourceDescriptor {
        &self.descriptor
    }

    fn register(&self, db: &Database, policy: &SchedPolicy) -> Result<Vec<FileEntry>> {
        let files = self.list()?;
        // Header-only scan: one pool batch, results in file order.
        let headers =
            run_indexed_policy(files.len(), policy, &Obs::off(), |i| read_header(&files[i]));
        let mut entries = Vec::with_capacity(files.len());
        let mut log_ids = Vec::with_capacity(files.len());
        let mut uris = TextColumn::new();
        let mut hosts = TextColumn::new();
        let mut services = TextColumn::new();
        let mut day_ts = Vec::with_capacity(files.len());
        for (i, (path, header)) in files.iter().zip(headers).enumerate() {
            let header = header?;
            let uri = path.to_string_lossy().into_owned();
            log_ids.push(i as i64);
            uris.push(&uri);
            hosts.push(&header.host);
            services.push(&header.service);
            day_ts.push(header.day_ts);
            entries.push(FileEntry {
                uri,
                file_id: i as i64,
                seg_base: 0,
                seg_count: 1,
                zones: zones_of(&header),
            });
        }
        db.append(
            "G",
            &[
                ColumnData::Int64(log_ids),
                ColumnData::Text(uris),
                ColumnData::Text(hosts),
                ColumnData::Text(services),
                ColumnData::Timestamp(day_ts),
            ],
            ConstraintPolicy::pk_only(),
        )?;
        Ok(entries)
    }

    /// Single-pass pre-sized decode: validate the fetched bytes as
    /// UTF-8, size the column builders with a cheap line count, and
    /// fill them in one parsing pass.
    fn decode_bytes(
        &self,
        entry: &FileEntry,
        raw: RawChunk,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        let text = std::str::from_utf8(&raw.bytes).map_err(|e| {
            EngineError::Chunk(format!("{}: invalid UTF-8 in log file: {e}", entry.uri))
        })?;
        let want = |col: &str| projection.is_none_or(|p| p.iter().any(|c| c == col));
        let events = text.lines().skip(1).filter(|l| !l.is_empty()).count();
        let mut b = RelationBuilder::new();
        let id_col = want("E.log_id").then(|| b.add("E.log_id", DataType::Int64, events));
        let ts_col = want("E.ts").then(|| b.add("E.ts", DataType::Timestamp, events));
        let val_col = want("E.val").then(|| b.add("E.val", DataType::Float64, events));
        // `E.log_id` is constant; `E.ts` is flagged sorted only if this
        // pass sees it never decrease.
        let mut ts_sorted = true;
        let mut prev_ts = i64::MIN;
        for line in text.lines().skip(1) {
            if line.is_empty() {
                continue;
            }
            let bad =
                || EngineError::Chunk(format!("malformed event {line:?} in {}", entry.uri));
            let (t, v) = line.split_once(',').ok_or_else(bad)?;
            // Every field is validated regardless of the projection —
            // whether a malformed file errors must not depend on an
            // optimizer knob — but only referenced columns are
            // materialized (the projection-pushdown decode path).
            let t = t.parse::<i64>().map_err(|_| bad())?;
            let v = v.parse::<f64>().map_err(|_| bad())?;
            ts_sorted &= prev_ts <= t;
            prev_ts = t;
            if let Some(c) = id_col {
                b.i64_mut(c).push(entry.file_id);
            }
            if let Some(c) = ts_col {
                b.i64_mut(c).push(t);
            }
            if let Some(c) = val_col {
                b.f64_mut(c).push(v);
            }
        }
        if let Some(c) = id_col {
            b.mark_sorted(c);
        }
        if let Some(c) = ts_col.filter(|_| ts_sorted) {
            b.mark_sorted(c);
        }
        b.finish()
    }

    fn source_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for path in self.list()? {
            total +=
                std::fs::metadata(&path).map_err(|e| io_err("sizing log file", e))?.len();
        }
        Ok(total)
    }
}

/// Write a single hand-rolled log file (tests).
pub fn write_log_file(
    path: &Path,
    host: &str,
    service: &str,
    day_ts: i64,
    events: &[(i64, f64)],
) -> Result<()> {
    let mut f = std::fs::File::create(path).map_err(|e| io_err("creating log file", e))?;
    writeln!(f, "{host},{service},{day_ts}").map_err(|e| io_err("writing log file", e))?;
    for (ts, val) in events {
        writeln!(f, "{ts},{val}").map_err(|e| io_err("writing log file", e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::pooled;
    use sommelier_storage::tempdir::TempDir;

    fn fresh_db() -> Database {
        let db = Database::in_memory(Default::default());
        for s in descriptor().schemas {
            db.create_table(s, sommelier_storage::catalog::Disposition::Resident).unwrap();
        }
        db
    }

    #[test]
    fn descriptor_is_valid() {
        descriptor().validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TempDir::new("evl-gen-a");
        let b = TempDir::new("evl-gen-b");
        let spec = EventLogSpec::small(2, 16);
        assert_eq!(generate_event_logs(&a, &spec).unwrap(), 4, "2 days × 2 hosts × 1 svc");
        generate_event_logs(&b, &spec).unwrap();
        let read = |d: &Path| {
            let mut names: Vec<_> =
                std::fs::read_dir(d).unwrap().map(|e| e.unwrap().path()).collect();
            names.sort();
            names.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(read(&a), read(&b));
    }

    #[test]
    fn register_loads_given_metadata_only() {
        let dir = TempDir::new("evl-register");
        generate_event_logs(&dir, &EventLogSpec::small(3, 8)).unwrap();
        let adapter = EventLogAdapter::new(&*dir);
        let db = fresh_db();
        let entries = adapter.register(&db, &pooled()).unwrap();
        assert_eq!(entries.len(), 6);
        assert_eq!(db.table_rows("G").unwrap(), 6);
        assert_eq!(db.table_rows("E").unwrap(), 0, "no actual data ingested");
        // file_id matches the loaded chunk-id column.
        let ids = db.scan_columns("G", &["log_id"]).unwrap()[0].as_i64().unwrap().to_vec();
        assert_eq!(ids, (0..6).collect::<Vec<i64>>());
    }

    #[test]
    fn load_chunk_parses_events_with_system_keys() {
        let dir = TempDir::new("evl-load");
        let path = dir.join("h-a-x.evl");
        write_log_file(&path, "h", "a", 1_000_000, &[(1_000_100, 1.5), (1_000_200, -2.0)])
            .unwrap();
        let adapter = EventLogAdapter::new(&*dir);
        let entry = FileEntry {
            uri: path.to_string_lossy().into_owned(),
            file_id: 42,
            seg_base: 0,
            seg_count: 1,
            zones: vec![],
        };
        let raw = adapter.fetch_bytes(&entry).unwrap();
        let rel = adapter.decode_bytes(&entry, raw, None).unwrap();
        assert_eq!(rel.rows(), 2);
        assert_eq!(rel.column("E.log_id").unwrap().as_i64().unwrap(), &[42, 42]);
        assert_eq!(rel.column("E.ts").unwrap().as_i64().unwrap(), &[1_000_100, 1_000_200]);
        assert_eq!(rel.column("E.val").unwrap().as_f64().unwrap(), &[1.5, -2.0]);
    }

    #[test]
    fn malformed_files_are_reported() {
        let dir = TempDir::new("evl-bad");
        // Two good files beside the bad one, so the header scan is a
        // batch of three on the pool rather than one inline task.
        generate_event_logs(&dir, &EventLogSpec::small(1, 4)).unwrap();
        std::fs::write(dir.join("x.evl"), "only-one-field\n").unwrap();
        let adapter = EventLogAdapter::new(&*dir);
        let db = fresh_db();
        let err = adapter.register(&db, &pooled()).unwrap_err().to_string();
        assert!(err.contains("x.evl"), "{err}");
        assert_eq!(db.table_rows("G").unwrap(), 0, "a failed scan loads nothing");
    }

    #[test]
    fn source_bytes_counts_the_repository() {
        let dir = TempDir::new("evl-bytes");
        generate_event_logs(&dir, &EventLogSpec::small(1, 4)).unwrap();
        let adapter = EventLogAdapter::new(&*dir);
        assert!(adapter.source_bytes().unwrap() > 0);
    }
}
