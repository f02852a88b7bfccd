//! The seismology [`SourceAdapter`]: mSEED chunk files as a sommelier
//! source.
//!
//! This is the paper's own scenario (§II-C, after its reference
//! \[13\]), packaged behind the format-neutral adapter API of
//! `sommelier-core`:
//!
//! * `F` — given metadata per file (sensor identity + technical
//!   characteristics), plus the system-assigned `file_id` and the `uri`
//!   that the lazy loader uses to find the chunk.
//! * `S` — given metadata per segment (time coverage, sampling rate).
//! * `D` — the actual data: one row per sample.
//! * `H` — derived metadata: hourly summary windows
//!   (max/min/mean/stddev), keyed by (station, channel, window start).
//!
//! Plus the non-materialized views `dataview` (= F ⋈ S ⋈ D),
//! `windowdataview` (= F ⋈ S ⋈ D ⋈ H), `segview` (= F ⋈ S) and
//! `windowview` (= F ⋈ H).

use crate::reader::{parse_full_bytes, FileHeader};
use crate::repo::Repository;
use crate::steim;
use sommelier_core::chunks::FileEntry;
use sommelier_core::source::{
    empty_ad_relation, DmdAgg, DmdDim, DmdSpec, InferenceRule, RawChunk, SourceAdapter,
    SourceDescriptor, UnitTableSpec,
};
use sommelier_core::{Result, SommelierError};
use sommelier_engine::exec::run_indexed_policy;
use sommelier_engine::expr::ArithOp;
use sommelier_engine::relation::RelationBuilder;
use sommelier_engine::{
    AggFunc, ColumnZone, EngineError, Expr, Func, JoinEdge, Obs, Relation, SchedPolicy,
};
use sommelier_sql::ViewDef;
use sommelier_storage::column::TextColumn;
use sommelier_storage::time::MS_PER_HOUR;
use sommelier_storage::{
    ColumnData, ConstraintPolicy, DataType, Database, TableClass, TableSchema, Value,
};

/// Schema of the given-metadata file table `F`.
pub fn f_schema() -> TableSchema {
    TableSchema::new("F", TableClass::MetadataGiven)
        .column("file_id", DataType::Int64)
        .column("uri", DataType::Text)
        .column("network", DataType::Text)
        .column("station", DataType::Text)
        .column("location", DataType::Text)
        .column("channel", DataType::Text)
        .column("data_quality", DataType::Text)
        .column("encoding", DataType::Int64)
        .column("byte_order", DataType::Int64)
        .primary_key(["file_id"])
}

/// Schema of the given-metadata segment table `S`.
pub fn s_schema() -> TableSchema {
    TableSchema::new("S", TableClass::MetadataGiven)
        .column("seg_id", DataType::Int64)
        .column("file_id", DataType::Int64)
        .column("start_time", DataType::Timestamp)
        .column("frequency", DataType::Float64)
        .column("sample_count", DataType::Int64)
        .primary_key(["seg_id"])
        .foreign_key(["file_id"], "F", ["file_id"])
}

/// Schema of the actual-data table `D`.
pub fn d_schema() -> TableSchema {
    TableSchema::new("D", TableClass::ActualData)
        .column("file_id", DataType::Int64)
        .column("seg_id", DataType::Int64)
        .column("sample_time", DataType::Timestamp)
        .column("sample_value", DataType::Float64)
        .foreign_key(["file_id"], "F", ["file_id"])
        .foreign_key(["seg_id"], "S", ["seg_id"])
}

/// Schema of the derived-metadata window table `H`.
pub fn h_schema() -> TableSchema {
    TableSchema::new("H", TableClass::MetadataDerived)
        .column("window_station", DataType::Text)
        .column("window_channel", DataType::Text)
        .column("window_start_ts", DataType::Timestamp)
        .column("window_max_val", DataType::Float64)
        .column("window_min_val", DataType::Float64)
        .column("window_mean_val", DataType::Float64)
        .column("window_std_dev", DataType::Float64)
        .primary_key(["window_station", "window_channel", "window_start_ts"])
}

/// All four table schemas.
pub fn all_schemas() -> Vec<TableSchema> {
    vec![f_schema(), s_schema(), d_schema(), h_schema()]
}

/// `dataview = F ⋈ S ⋈ D` (join edges F–S on file, S–D on segment,
/// D–F on file).
pub fn dataview() -> ViewDef {
    ViewDef {
        name: "dataview".into(),
        tables: vec!["F".into(), "S".into(), "D".into()],
        joins: vec![
            JoinEdge::new(
                "F",
                "S",
                vec![Expr::col("F.file_id")],
                vec![Expr::col("S.file_id")],
            )
            .expect("static edge"),
            JoinEdge::new("S", "D", vec![Expr::col("S.seg_id")], vec![Expr::col("D.seg_id")])
                .expect("static edge"),
            JoinEdge::new(
                "F",
                "D",
                vec![Expr::col("F.file_id")],
                vec![Expr::col("D.file_id")],
            )
            .expect("static edge"),
        ],
    }
}

/// `windowdataview = F ⋈ S ⋈ D ⋈ H`.
///
/// `H` connects to the metadata side on sensor identity
/// (station/channel) and on *day* granularity (a window's day must
/// match a segment's day — sound because chunk files hold one day and
/// segments never span days — the repository generator keeps every
/// segment inside its file's day), and to `D` on the hour
/// bucket. The day edge is what lets `Qf` narrow the chunk list to the
/// days that actually have qualifying windows.
pub fn windowdataview() -> ViewDef {
    let mut view = dataview();
    view.name = "windowdataview".into();
    view.tables.push("H".into());
    view.joins.push(
        JoinEdge::new(
            "F",
            "H",
            vec![Expr::col("F.station"), Expr::col("F.channel")],
            vec![Expr::col("H.window_station"), Expr::col("H.window_channel")],
        )
        .expect("static edge"),
    );
    view.joins.push(
        JoinEdge::new(
            "S",
            "H",
            vec![Expr::Call(Func::DayBucket, vec![Expr::col("S.start_time")])],
            vec![Expr::Call(Func::DayBucket, vec![Expr::col("H.window_start_ts")])],
        )
        .expect("static edge"),
    );
    view.joins.push(
        JoinEdge::new(
            "D",
            "H",
            vec![Expr::Call(Func::HourBucket, vec![Expr::col("D.sample_time")])],
            vec![Expr::col("H.window_start_ts")],
        )
        .expect("static edge"),
    );
    view
}

/// `filedataview = F ⋈ D` — file metadata joined straight to the
/// samples, bypassing the segment table. Queries through this view get
/// no segment-level inference (the `S`-based rule needs `S` in scope),
/// which makes it the showcase for zone-map chunk pruning: the
/// per-file `D.sample_time` zones recorded at registration prune the
/// chunk list instead.
pub fn filedataview() -> ViewDef {
    ViewDef {
        name: "filedataview".into(),
        tables: vec!["F".into(), "D".into()],
        joins: vec![JoinEdge::new(
            "F",
            "D",
            vec![Expr::col("F.file_id")],
            vec![Expr::col("D.file_id")],
        )
        .expect("static edge")],
    }
}

/// `segview = F ⋈ S` — metadata only (T1 queries).
pub fn segview() -> ViewDef {
    ViewDef {
        name: "segview".into(),
        tables: vec!["F".into(), "S".into()],
        joins: vec![JoinEdge::new(
            "F",
            "S",
            vec![Expr::col("F.file_id")],
            vec![Expr::col("S.file_id")],
        )
        .expect("static edge")],
    }
}

/// `windowview = F ⋈ H` — given + derived metadata, no actual data
/// (T3 queries).
pub fn windowview() -> ViewDef {
    ViewDef {
        name: "windowview".into(),
        tables: vec!["F".into(), "H".into()],
        joins: vec![JoinEdge::new(
            "F",
            "H",
            vec![Expr::col("F.station"), Expr::col("F.channel")],
            vec![Expr::col("H.window_station"), Expr::col("H.window_channel")],
        )
        .expect("static edge")],
    }
}

/// The segment end-time expression:
/// `S.start_time + (S.sample_count * 1000) / S.frequency` (ms).
fn segment_end_expr() -> Expr {
    Expr::Arith(
        ArithOp::Add,
        Box::new(Expr::col("S.start_time")),
        Box::new(Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Arith(
                ArithOp::Mul,
                Box::new(Expr::col("S.sample_count")),
                Box::new(Expr::lit(1000i64)),
            )),
            Box::new(Expr::col("S.frequency")),
        )),
    )
}

/// The full self-description of the seismology source.
pub fn mseed_descriptor() -> SourceDescriptor {
    SourceDescriptor {
        name: "mseed".into(),
        schemas: all_schemas(),
        views: vec![dataview(), windowdataview(), filedataview(), segview(), windowview()],
        chunk_table: "F".into(),
        chunk_id_column: "file_id".into(),
        chunk_uri_column: "uri".into(),
        unit_table: Some(UnitTableSpec {
            table: "S".into(),
            chunk_id_column: "file_id".into(),
            unit_id_column: "seg_id".into(),
        }),
        ad_table: "D".into(),
        inference_rules: vec![InferenceRule {
            ad_column: "D.sample_time".into(),
            table: "S".into(),
            min_expr: Expr::col("S.start_time"),
            max_expr: segment_end_expr(),
            data_type: DataType::Timestamp,
        }],
        prunable_columns: vec!["D.sample_time".into()],
        dmd: Some(DmdSpec {
            table: "H".into(),
            dims: vec![
                DmdDim {
                    derived_column: "window_station".into(),
                    source_column: "F.station".into(),
                },
                DmdDim {
                    derived_column: "window_channel".into(),
                    source_column: "F.channel".into(),
                },
            ],
            bucket_column: "window_start_ts".into(),
            bucket_ad_column: "D.sample_time".into(),
            bucket_ms: MS_PER_HOUR,
            aggregates: vec![
                DmdAgg {
                    derived_column: "window_max_val".into(),
                    func: AggFunc::Max,
                    ad_column: "D.sample_value".into(),
                },
                DmdAgg {
                    derived_column: "window_min_val".into(),
                    func: AggFunc::Min,
                    ad_column: "D.sample_value".into(),
                },
                DmdAgg {
                    derived_column: "window_mean_val".into(),
                    func: AggFunc::Avg,
                    ad_column: "D.sample_value".into(),
                },
                DmdAgg {
                    derived_column: "window_std_dev".into(),
                    func: AggFunc::StdDev,
                    ad_column: "D.sample_value".into(),
                },
            ],
            derive_tables: vec!["F".into(), "S".into(), "D".into()],
            derive_joins: dataview().joins,
            range_table: "S".into(),
            range_chunk_id: "file_id".into(),
            range_min: Expr::col("S.start_time"),
            range_max: segment_end_expr(),
        }),
    }
}

/// The `D.sample_time` zone map of one registered file: the inclusive
/// min/max sample time over its segments, straight from the headers.
fn time_zone_of(segments: &[crate::SegmentMeta]) -> Vec<ColumnZone> {
    let spans: Vec<(i64, i64)> = segments
        .iter()
        .filter(|s| s.sample_count > 0)
        .map(|s| (s.sample_time(0), s.sample_time(s.sample_count - 1)))
        .collect();
    let (Some(&(lo, _)), Some(&(_, hi))) =
        (spans.iter().min_by_key(|(lo, _)| *lo), spans.iter().max_by_key(|(_, hi)| *hi))
    else {
        return Vec::new();
    };
    vec![ColumnZone {
        column: "D.sample_time".into(),
        min: Value::Time(lo),
        max: Value::Time(hi),
    }]
}

/// Decode one chunk file's payloads straight into pre-sized column
/// buffers — a single pass over the segments, no per-segment relations
/// and no union re-copies. The builders are sized from the header's
/// sample counts, sample values stream from [`steim::decode_each`]
/// directly into the destination `f64` buffer, and every payload is
/// decoded (validated) even when the projection drops `D.sample_value`,
/// so whether a corrupt chunk errors never depends on an optimizer
/// knob.
fn decode_columns(
    bytes: &[u8],
    header: &FileHeader,
    file_id: i64,
    seg_base: i64,
    projection: Option<&[String]>,
    descriptor: &SourceDescriptor,
) -> sommelier_engine::Result<Relation> {
    let want = |col: &str| projection.is_none_or(|p| p.iter().any(|c| c == col));
    let total: usize = header.segments.iter().map(|s| s.sample_count as usize).sum();
    let mut b = RelationBuilder::new();
    let id_col = want("D.file_id").then(|| b.add("D.file_id", DataType::Int64, total));
    let seg_col = want("D.seg_id").then(|| b.add("D.seg_id", DataType::Int64, total));
    let time_col =
        want("D.sample_time").then(|| b.add("D.sample_time", DataType::Timestamp, total));
    let val_col =
        want("D.sample_value").then(|| b.add("D.sample_value", DataType::Float64, total));
    for (k, (meta, &(offset, len))) in
        header.segments.iter().zip(&header.payload_spans).enumerate()
    {
        let n = meta.sample_count as usize;
        let span = bytes
            .get(offset as usize..offset as usize + len as usize)
            .ok_or_else(|| EngineError::Chunk("payload span out of bounds".into()))?;
        if let Some(c) = id_col {
            b.i64_mut(c).extend(std::iter::repeat_n(file_id, n));
        }
        if let Some(c) = seg_col {
            b.i64_mut(c).extend(std::iter::repeat_n(seg_base + k as i64, n));
        }
        if let Some(c) = time_col {
            meta.extend_sample_times(b.i64_mut(c));
        }
        match val_col {
            Some(c) => {
                let values = b.f64_mut(c);
                steim::decode_each(span, n, |s| values.push(s as f64))
            }
            // Projection dropped the values: still decode (validate)
            // the payload, discard the samples.
            None => steim::decode_each(span, n, |_| {}),
        }
        .map_err(|e| EngineError::Chunk(e.to_string()))?;
    }
    if b.width() == 0 {
        // A projection naming no D columns: the correctly-shaped empty
        // relation still has the projected width.
        return empty_ad_relation(descriptor, projection);
    }
    // Sortedness, proved from the header in O(segments): the file id is
    // constant and segment ids ascend; sample times never decrease
    // inside a segment (the reader rejects headers whose times
    // overflow), so the column is sorted when no segment's last sample
    // lies after the next non-empty segment's start.
    for c in id_col.into_iter().chain(seg_col) {
        b.mark_sorted(c);
    }
    if let Some(c) = time_col {
        let spans: Vec<(i64, i64)> = header
            .segments
            .iter()
            .filter(|s| s.sample_count > 0)
            .map(|s| (s.start_time, s.sample_time(s.sample_count - 1)))
            .collect();
        if spans.windows(2).all(|w| w[0].1 <= w[1].0) {
            b.mark_sorted(c);
        }
    }
    b.finish()
}

/// The mSEED [`SourceAdapter`] over an on-disk [`Repository`].
pub struct MseedAdapter {
    repo: Repository,
    descriptor: SourceDescriptor,
}

impl MseedAdapter {
    /// An adapter over `repo`.
    pub fn new(repo: Repository) -> Self {
        MseedAdapter { repo, descriptor: mseed_descriptor() }
    }

    /// The underlying repository.
    pub fn repo(&self) -> &Repository {
        &self.repo
    }
}

impl SourceAdapter for MseedAdapter {
    fn descriptor(&self) -> &SourceDescriptor {
        &self.descriptor
    }

    /// Register the repository: extract headers (never touching the
    /// compressed payloads), assign system keys, bulk-load `F` and `S`.
    fn register(&self, db: &Database, policy: &SchedPolicy) -> Result<Vec<FileEntry>> {
        let adapter_err = |e: crate::MseedError| SommelierError::Adapter(e.to_string());
        let files = self.repo.list().map_err(adapter_err)?;
        // Header-only scan: one pool batch, results in file order.
        let headers: Vec<FileHeader> =
            run_indexed_policy(files.len(), policy, &Obs::off(), |i| {
                crate::read_metadata(&files[i])
            })
            .into_iter()
            .collect::<crate::Result<_>>()
            .map_err(adapter_err)?;

        // Assign system keys in file order; segment ids are contiguous
        // per file, which the chunk-access operator relies on.
        let mut entries = Vec::with_capacity(files.len());
        let mut seg_cursor: i64 = 0;

        // F columns.
        let n = files.len();
        let mut file_ids = Vec::with_capacity(n);
        let mut uris = TextColumn::new();
        let mut networks = TextColumn::new();
        let mut stations = TextColumn::new();
        let mut locations = TextColumn::new();
        let mut channels = TextColumn::new();
        let mut qualities = TextColumn::new();
        let mut encodings = Vec::with_capacity(n);
        let mut byte_orders = Vec::with_capacity(n);

        // S columns.
        let mut seg_ids = Vec::new();
        let mut seg_file_ids = Vec::new();
        let mut start_times = Vec::new();
        let mut frequencies = Vec::new();
        let mut sample_counts = Vec::new();

        for (i, (path, header)) in files.iter().zip(&headers).enumerate() {
            let file_id = i as i64;
            let uri = path.to_string_lossy().into_owned();
            file_ids.push(file_id);
            uris.push(&uri);
            networks.push(&header.meta.network);
            stations.push(&header.meta.station);
            locations.push(&header.meta.location);
            channels.push(&header.meta.channel);
            qualities.push(&header.meta.data_quality);
            encodings.push(header.meta.encoding as i64);
            byte_orders.push(header.meta.byte_order as i64);

            let seg_base = seg_cursor;
            for seg in &header.segments {
                seg_ids.push(seg_cursor);
                seg_file_ids.push(file_id);
                start_times.push(seg.start_time);
                frequencies.push(seg.frequency);
                sample_counts.push(seg.sample_count as i64);
                seg_cursor += 1;
            }
            entries.push(FileEntry {
                uri,
                file_id,
                seg_base,
                seg_count: header.segments.len() as u32,
                zones: time_zone_of(&header.segments),
            });
        }

        db.append(
            "F",
            &[
                ColumnData::Int64(file_ids),
                ColumnData::Text(uris),
                ColumnData::Text(networks),
                ColumnData::Text(stations),
                ColumnData::Text(locations),
                ColumnData::Text(channels),
                ColumnData::Text(qualities),
                ColumnData::Int64(encodings),
                ColumnData::Int64(byte_orders),
            ],
            ConstraintPolicy::pk_only(),
        )?;
        db.append(
            "S",
            &[
                ColumnData::Int64(seg_ids),
                ColumnData::Int64(seg_file_ids),
                ColumnData::Timestamp(start_times),
                ColumnData::Float64(frequencies),
                ColumnData::Int64(sample_counts),
            ],
            ConstraintPolicy::pk_only(),
        )?;
        Ok(entries)
    }

    /// Single-pass columnar decode of the fetched bytes: parse the
    /// header and segment directory, pre-size the column builders from
    /// the header's sample counts, and decode the payloads straight
    /// into the destination buffers — one pass, no per-segment
    /// relations, no union re-copies.
    fn decode_bytes(
        &self,
        entry: &FileEntry,
        raw: RawChunk,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        let header = parse_full_bytes(&raw.bytes, &entry.uri)
            .map_err(|e| EngineError::Chunk(e.to_string()))?;
        decode_columns(
            &raw.bytes,
            &header,
            entry.file_id,
            entry.seg_base,
            projection,
            &self.descriptor,
        )
    }

    fn source_bytes(&self) -> Result<u64> {
        self.repo.total_bytes().map_err(|e| SommelierError::Adapter(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::DatasetSpec;
    use crate::{FileMeta, MseedFile, SegmentData, SegmentMeta};
    use sommelier_core::registrar::{register, register_source};
    use sommelier_core::source::{assemble_catalog, restore_registry};
    use sommelier_core::{
        LoadingMode, Metric, MetricsRegistry, MorselScheduler, Sommelier, SommelierConfig,
    };
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::tempdir::TempDir;
    use sommelier_storage::Value;
    use std::path::Path;
    use std::sync::Arc;

    fn fresh_db() -> Database {
        let db = Database::in_memory(Default::default());
        for s in all_schemas() {
            db.create_table(s, Disposition::Resident).unwrap();
        }
        db
    }

    #[test]
    fn descriptor_validates_and_matches_paper_classes() {
        let d = mseed_descriptor();
        d.validate().unwrap();
        assert_eq!(f_schema().class, TableClass::MetadataGiven);
        assert_eq!(s_schema().class, TableClass::MetadataGiven);
        assert_eq!(d_schema().class, TableClass::ActualData);
        assert_eq!(h_schema().class, TableClass::MetadataDerived);
        assert_eq!(
            h_schema().primary_key,
            vec!["window_station", "window_channel", "window_start_ts"]
        );
        assert_eq!(d.uri_column(), "F.uri");
        assert_eq!(d.lazy_qf_columns(), vec!["F.uri".to_string(), "F.file_id".to_string()]);
    }

    #[test]
    fn views_reference_known_tables() {
        let names: Vec<String> = all_schemas().into_iter().map(|s| s.name).collect();
        for v in [dataview(), windowdataview(), filedataview(), segview(), windowview()] {
            for t in &v.tables {
                assert!(names.contains(t), "view {} references unknown {t}", v.name);
            }
            for j in &v.joins {
                assert!(v.tables.contains(&j.left));
                assert!(v.tables.contains(&j.right));
            }
        }
        assert_eq!(windowdataview().joins.len(), 6);
    }

    #[test]
    fn catalog_binds_paper_queries() {
        let d = mseed_descriptor();
        let cat = assemble_catalog(&[&d]).unwrap();
        assert!(cat.has_view("dataview"));
        assert!(cat.has_view("windowdataview"));
        // Query 1 shape binds.
        sommelier_sql::compile(
            "SELECT AVG(D.sample_value) FROM dataview WHERE F.station = 'ISK'",
            &cat,
        )
        .unwrap();
        // Query 2 shape binds.
        sommelier_sql::compile(
            "SELECT D.sample_time, D.sample_value FROM windowdataview \
             WHERE F.station = 'FIAM' AND H.window_max_val > 10000",
            &cat,
        )
        .unwrap();
    }

    #[test]
    fn registers_a_small_repository() {
        let dir = TempDir::new("adapter-basic");
        let repo = Repository::at(dir.to_path_buf());
        let mut spec = DatasetSpec::ingv(1, 8);
        spec.days = 2; // 8 files
        let stats = repo.generate(&spec).unwrap();
        let db = fresh_db();
        let adapter = MseedAdapter::new(repo);
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(MorselScheduler::new(4, Arc::clone(&metrics)));
        let policy = SchedPolicy::default().with_scheduler(Some(pool));
        let (registry, report) = register(&db, &adapter, &policy).unwrap();
        assert_eq!(
            metrics.get(Metric::SchedTasks),
            8,
            "one header task per file on the pool"
        );
        assert_eq!(report.files, 8);
        assert_eq!(report.segments, stats.segments);
        assert_eq!(db.table_rows("F").unwrap(), 8);
        assert_eq!(db.table_rows("S").unwrap(), stats.segments);
        assert_eq!(db.table_rows("D").unwrap(), 0, "no actual data ingested");
        assert_eq!(registry.len(), 8);
        assert_eq!(registry.total_segments(), stats.segments);
    }

    #[test]
    fn segment_ids_are_contiguous_per_file() {
        let dir = TempDir::new("adapter-contig");
        let repo = Repository::at(dir.to_path_buf());
        let mut spec = DatasetSpec::fiam(1, 8);
        spec.days = 3;
        repo.generate(&spec).unwrap();
        let db = fresh_db();
        let adapter = MseedAdapter::new(repo);
        let (registry, _) = register_source(&db, &adapter, 2).unwrap();
        let mut expected_base = 0i64;
        for e in registry.entries() {
            assert_eq!(e.seg_base, expected_base);
            expected_base += e.seg_count as i64;
        }
    }

    #[test]
    fn station_metadata_lands_in_f() {
        let dir = TempDir::new("adapter-meta");
        let repo = Repository::at(dir.to_path_buf());
        let mut spec = DatasetSpec::ingv(1, 8);
        spec.days = 1; // 4 files, one per station
        repo.generate(&spec).unwrap();
        let db = fresh_db();
        let adapter = MseedAdapter::new(repo);
        register_source(&db, &adapter, 4).unwrap();
        let cols = db.scan_columns("F", &["station", "channel"]).unwrap();
        let mut stations: Vec<String> = (0..4)
            .map(|i| match cols[0].get(i) {
                Value::Text(s) => s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        stations.sort();
        assert_eq!(stations, vec!["AQU", "FIAM", "ISK", "TRI"]);
    }

    #[test]
    fn registry_roundtrips_through_db() {
        let dir = TempDir::new("adapter-roundtrip");
        let repo = Repository::at(dir.to_path_buf());
        let mut spec = DatasetSpec::fiam(1, 8);
        spec.days = 2;
        repo.generate(&spec).unwrap();
        let db = fresh_db();
        let adapter = MseedAdapter::new(repo);
        let (registry, _) = register_source(&db, &adapter, 2).unwrap();
        let rebuilt = restore_registry(&db, adapter.descriptor()).unwrap();
        assert_eq!(rebuilt.len(), registry.len());
        for (a, b) in registry.entries().iter().zip(&rebuilt) {
            assert_eq!(a.uri, b.uri);
            assert_eq!(a.file_id, b.file_id);
            assert_eq!(a.seg_base, b.seg_base);
            assert_eq!(a.seg_count, b.seg_count);
        }
    }

    #[test]
    fn prepare_registers_the_same_metadata_with_and_without_a_pool() {
        let dir = TempDir::new("adapter-pool");
        let mut spec = DatasetSpec::ingv(1, 8);
        spec.days = 2;
        Repository::at(dir.to_path_buf()).generate(&spec).unwrap();
        let tables = |max_threads| {
            let config = SommelierConfig { max_threads, ..SommelierConfig::default() };
            let somm = Sommelier::builder()
                .source(MseedAdapter::new(Repository::at(dir.to_path_buf())))
                .config(config)
                .build()
                .unwrap();
            assert_eq!(somm.scheduler().is_some(), max_threads > 1);
            somm.prepare(LoadingMode::Lazy).unwrap();
            [f_schema(), s_schema()].map(|schema| {
                let cols: Vec<&str> =
                    schema.columns.iter().map(|c| c.name.as_str()).collect();
                let cols = somm.db().scan_columns(&schema.name, &cols).unwrap();
                let values =
                    |c: &ColumnData| (0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>();
                format!("{:?}", cols.iter().map(values).collect::<Vec<_>>())
            })
        };
        assert_eq!(tables(1), tables(3));
    }

    fn write_test_chunk(dir: &Path) -> FileEntry {
        let file = MseedFile {
            meta: FileMeta::new("IV", "ISK", "", "BHE"),
            segments: vec![
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 0,
                        start_time: 1_000,
                        frequency: 10.0,
                        sample_count: 3,
                    },
                    samples: vec![5, 6, 7],
                },
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 1,
                        start_time: 10_000,
                        frequency: 10.0,
                        sample_count: 2,
                    },
                    samples: vec![-1, -2],
                },
            ],
        };
        let path = dir.join("x.msd");
        crate::write_file(&path, &file).unwrap();
        FileEntry {
            uri: path.to_string_lossy().into_owned(),
            file_id: 7,
            seg_base: 100,
            seg_count: 2,
            zones: vec![],
        }
    }

    #[test]
    fn load_chunk_assigns_system_keys() {
        let dir = TempDir::new("adapter-load");
        let entry = write_test_chunk(&dir);
        let adapter = MseedAdapter::new(Repository::at(dir.to_path_buf()));
        let raw = adapter.fetch_bytes(&entry).unwrap();
        let rel = adapter.decode_bytes(&entry, raw, None).unwrap();
        assert_eq!(rel.rows(), 5);
        assert_eq!(rel.column("D.file_id").unwrap().as_i64().unwrap(), &[7, 7, 7, 7, 7]);
        assert_eq!(
            rel.column("D.seg_id").unwrap().as_i64().unwrap(),
            &[100, 100, 100, 101, 101]
        );
        // Timestamps follow the segment's frequency (10 Hz → 100 ms).
        assert_eq!(
            rel.column("D.sample_time").unwrap().as_i64().unwrap(),
            &[1_000, 1_100, 1_200, 10_000, 10_100]
        );
        assert_eq!(
            rel.column("D.sample_value").unwrap().as_f64().unwrap(),
            &[5.0, 6.0, 7.0, -1.0, -2.0]
        );
    }
}
