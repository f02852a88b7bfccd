//! Decode-hot-path equivalence: the single-pass arena-backed chunk
//! decode and the indexed stage-1 candidate selection must never change
//! answers, only costs.
//!
//! * T1–T5 on both built-in adapters, new decode vs the test-support
//!   reference decoders (`sommelier_integration::reference`),
//!   byte-identical.
//! * Per-chunk decode equality across projections, including the
//!   projection × empty-chunk regression (the projected width must
//!   survive a chunk with no rows on both adapters).
//! * The zone interval index used as the pruning pass's prefilter must
//!   leave the surviving chunk list identical to the per-chunk scan.

use sommelier_core::adapters::{
    generate_event_logs, write_log_file, EventLogAdapter, EventLogSpec,
};
use sommelier_core::chunks::{ChunkRegistry, FileEntry};
use sommelier_core::source::SourceAdapter;
use sommelier_core::{LoadingMode, QueryResult, Sommelier, SommelierConfig};
use sommelier_engine::expr::CmpOp;
use sommelier_engine::logical::LogicalPlan;
use sommelier_engine::optimizer::{self, ZoneCandidates, ZoneConstraint};
use sommelier_engine::physical::ChunkRef;
use sommelier_engine::{ColumnZone, Expr, Relation, TwoStageConfig};
use sommelier_integration::reference::{ReferenceEventLog, ReferenceMseed};
use sommelier_integration::{ingv_repo, TempDir};
use sommelier_mseed::{MseedAdapter, Repository};
use sommelier_storage::{Database, Value};
use std::path::Path;

/// A lazily prepared in-memory system over `adapter`.
fn lazy_system(adapter: impl SourceAdapter + 'static) -> Sommelier {
    let somm = Sommelier::builder()
        .source(adapter)
        .config(SommelierConfig::default())
        .build()
        .unwrap();
    somm.prepare(LoadingMode::Lazy).unwrap();
    somm
}

fn mseed_system(repo: &Repository, reference: bool) -> Sommelier {
    let adapter = MseedAdapter::new(Repository::at(repo.dir()));
    if reference {
        lazy_system(ReferenceMseed(adapter))
    } else {
        lazy_system(adapter)
    }
}

fn eventlog_system(logs: &Path, reference: bool) -> Sommelier {
    let adapter = EventLogAdapter::new(logs);
    if reference {
        lazy_system(ReferenceEventLog(adapter))
    } else {
        lazy_system(adapter)
    }
}

/// T1–T5 against the seismology source (the same shapes the optimizer
/// equivalence suite runs).
fn mseed_queries() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) AS n FROM F WHERE station = 'ISK'",
        "SELECT window_start_ts, window_max_val FROM H \
         WHERE window_station = 'ISK' AND window_channel = 'BHE' \
         AND window_start_ts < '2010-01-01T04:00:00.000' \
         ORDER BY window_start_ts",
        "SELECT COUNT(*) AS n FROM windowview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = 'ISK' \
         AND D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-02T00:00:00.000'",
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
    ]
}

fn eventlog_queries() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'",
        "SELECT day_start_ts, day_max_val FROM Y \
         WHERE day_host = 'web-1' AND day_service = 'api' \
         AND day_start_ts < '2011-03-03T00:00:00.000' \
         ORDER BY day_start_ts",
        "SELECT COUNT(*) AS n FROM dayview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
        "SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'",
        "SELECT AVG(E.val) FROM daylogview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
    ]
}

/// Exact bit-level rendering of a result (floats as their raw bits).
fn bits(r: &QueryResult) -> String {
    relation_bits(&r.relation)
}

fn relation_bits(rel: &Relation) -> String {
    let mut out = format!("{:?}|", rel.names());
    for row in 0..rel.rows() {
        for name in rel.names() {
            match rel.value(row, name).unwrap() {
                Value::Float(f) => out.push_str(&format!("f{:016x},", f.to_bits())),
                other => out.push_str(&format!("{other:?},")),
            }
        }
        out.push(';');
    }
    out
}

#[test]
fn mseed_t1_t5_byte_identical_new_vs_reference_decode() {
    let dir = TempDir::new("deceq-mseed");
    let repo = ingv_repo(&dir, 3, 16);
    let new = mseed_system(&repo, false);
    let reference = mseed_system(&repo, true);
    for sql in mseed_queries() {
        // Cold cellars, so every query decodes and the decode path is
        // what runs.
        new.flush_caches();
        reference.flush_caches();
        assert_eq!(
            bits(&new.query(sql).unwrap()),
            bits(&reference.query(sql).unwrap()),
            "single-pass decode changed the answer of {sql}"
        );
    }
}

#[test]
fn eventlog_t1_t5_byte_identical_new_vs_reference_decode() {
    let dir = TempDir::new("deceq-evl");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 64)).unwrap();
    let new = eventlog_system(&logs, false);
    let reference = eventlog_system(&logs, true);
    for sql in eventlog_queries() {
        new.flush_caches();
        reference.flush_caches();
        assert_eq!(
            bits(&new.query(sql).unwrap()),
            bits(&reference.query(sql).unwrap()),
            "single-pass decode changed the answer of {sql}"
        );
    }
}

/// Chunk-level equality across projections: every registered mSEED
/// chunk decodes to bit-identical relations on both paths, for the
/// full width and for each single-column projection.
#[test]
fn mseed_per_chunk_decode_matches_reference_across_projections() {
    let dir = TempDir::new("decchunk-mseed");
    let repo = ingv_repo(&dir, 2, 32);
    let reference = ReferenceMseed(MseedAdapter::new(Repository::at(repo.dir())));
    let adapter = &reference.0;
    let db = sommelier_storage::Database::in_memory(Default::default());
    for s in sommelier_mseed::adapter::all_schemas() {
        db.create_table(s, sommelier_storage::catalog::Disposition::Resident).unwrap();
    }
    let (registry, _) = sommelier_core::registrar::register_source(&db, adapter, 2).unwrap();
    let projections: Vec<Option<Vec<String>>> = vec![
        None,
        Some(vec!["D.sample_value".into()]),
        Some(vec!["D.sample_time".into()]),
        Some(vec!["D.file_id".into(), "D.sample_value".into()]),
    ];
    for entry in registry.entries() {
        for projection in &projections {
            let p = projection.as_deref();
            let new = adapter.decode(entry, p).unwrap();
            let old = reference.decode(entry, p).unwrap();
            assert_eq!(
                relation_bits(&new),
                relation_bits(&old),
                "chunk {} projection {projection:?}",
                entry.uri
            );
        }
    }
}

/// Projection × empty chunk: a chunk with no rows must still produce
/// the projected width, on both adapters and both decode paths.
#[test]
fn empty_chunks_keep_projected_width() {
    let dir = TempDir::new("decempty");

    // mSEED: a zero-segment chunk file.
    let msd = dir.join("empty.msd");
    let file = sommelier_mseed::MseedFile {
        meta: sommelier_mseed::FileMeta::new("IV", "ISK", "", "BHE"),
        segments: vec![],
    };
    sommelier_mseed::write_file(&msd, &file).unwrap();
    let entry = FileEntry {
        uri: msd.to_string_lossy().into_owned(),
        file_id: 1,
        seg_base: 0,
        seg_count: 0,
        zones: vec![],
    };
    let reference = ReferenceMseed(MseedAdapter::new(Repository::at(dir.join("unused"))));
    let adapter = &reference.0;
    let cases: Vec<(Option<Vec<String>>, Vec<&str>)> = vec![
        (None, vec!["D.file_id", "D.seg_id", "D.sample_time", "D.sample_value"]),
        (Some(vec!["D.sample_value".into()]), vec!["D.sample_value"]),
        (
            Some(vec!["D.seg_id".into(), "D.sample_time".into()]),
            vec!["D.seg_id", "D.sample_time"],
        ),
    ];
    for (projection, want) in &cases {
        for rel in [
            adapter.decode(&entry, projection.as_deref()).unwrap(),
            reference.decode(&entry, projection.as_deref()).unwrap(),
        ] {
            assert_eq!(rel.rows(), 0);
            assert_eq!(&rel.names(), want, "projection {projection:?}");
        }
    }

    // Event log: a header-only chunk file.
    let evl = dir.join("empty.evl");
    write_log_file(&evl, "web-1", "api", 0, &[]).unwrap();
    let entry = FileEntry {
        uri: evl.to_string_lossy().into_owned(),
        file_id: 2,
        seg_base: 0,
        seg_count: 1,
        zones: vec![],
    };
    let reference = ReferenceEventLog(EventLogAdapter::new(dir.join("unused")));
    let adapter = &reference.0;
    let cases: Vec<(Option<Vec<String>>, Vec<&str>)> = vec![
        (None, vec!["E.log_id", "E.ts", "E.val"]),
        (Some(vec!["E.val".into()]), vec!["E.val"]),
        (Some(vec!["E.log_id".into(), "E.ts".into()]), vec!["E.log_id", "E.ts"]),
    ];
    for (projection, want) in &cases {
        for rel in [
            adapter.decode(&entry, projection.as_deref()).unwrap(),
            reference.decode(&entry, projection.as_deref()).unwrap(),
        ] {
            assert_eq!(rel.rows(), 0);
            assert_eq!(&rel.names(), want, "projection {projection:?}");
        }
    }
}

/// The pruning pass with the interval index as prefilter must keep
/// exactly the chunks the per-chunk scan keeps — same surviving list,
/// same order, same pruned count.
#[test]
fn indexed_pruning_pass_matches_per_chunk_scan() {
    // A synthetic day-partitioned registry: chunk i covers
    // [i*1000, i*1000+999] on D.sample_time; every 7th chunk has no
    // zones (never prunable).
    let entries: Vec<FileEntry> = (0..200)
        .map(|i| FileEntry {
            uri: format!("chunk-{i:04}"),
            file_id: i,
            seg_base: 0,
            seg_count: 1,
            zones: if i % 7 == 0 {
                vec![]
            } else {
                vec![ColumnZone {
                    column: "D.sample_time".into(),
                    min: Value::Time(i * 1000),
                    max: Value::Time(i * 1000 + 999),
                }]
            },
        })
        .collect();
    let registry = ChunkRegistry::new(entries);
    let chunk_refs: Vec<ChunkRef> = registry
        .entries()
        .iter()
        .map(|e| ChunkRef { uri: e.uri.clone(), cached: false })
        .collect();

    // A window predicate pushed down onto the lazy scan.
    let plan = LogicalPlan::LazyScan {
        table: "D".into(),
        columns: vec!["D.sample_time".into(), "D.sample_value".into()],
        predicate: Some(
            Expr::col("D.sample_time").cmp(CmpOp::Ge, Expr::lit(Value::Time(42_000))).and(
                Expr::col("D.sample_time").cmp(CmpOp::Lt, Expr::lit(Value::Time(51_000))),
            ),
        ),
    };
    let db = Database::in_memory(Default::default());
    let config = TwoStageConfig::default();
    let zones = |uri: &str| registry.zones_of(uri);
    let candidates = |constraints: &[ZoneConstraint]| -> Option<ZoneCandidates> {
        registry.zone_candidates(constraints)
    };

    let indexed = optimizer::rewrite_stage2(
        &plan,
        &db,
        Some(chunk_refs.clone()),
        Some(&zones),
        Some(&candidates),
        None,
        &config,
    )
    .unwrap();
    let scanned = optimizer::rewrite_stage2(
        &plan,
        &db,
        Some(chunk_refs.clone()),
        Some(&zones),
        None,
        None,
        &config,
    )
    .unwrap();

    let uris = |chunks: &Option<Vec<ChunkRef>>| -> Vec<String> {
        chunks.as_ref().unwrap().iter().map(|c| c.uri.clone()).collect()
    };
    assert_eq!(uris(&indexed.chunks), uris(&scanned.chunks));
    assert_eq!(indexed.pruned, scanned.pruned);
    // The window covers the zoned chunks 42..=50 (minus the two that
    // are 7-multiples and hence unzoned) plus all 29 unzoned chunks.
    assert_eq!(indexed.chunks.as_ref().unwrap().len(), 7 + 29);
    assert!(indexed.pruned > 0);
    let detail = indexed
        .trace
        .iter()
        .find(|t| t.name == "zone_map_pruning")
        .expect("pass traced")
        .detail
        .clone();
    assert!(detail.contains("indexed"), "prefilter path recorded: {detail}");
}

/// Decode every registered chunk of `adapter` at full width and check
/// every column it flags sorted with an O(n) scan. Returns how many
/// chunks flagged `time_column`, so callers can check the flags are
/// claimed at all.
fn check_sorted_flags(adapter: &dyn SourceAdapter, time_column: &str) -> usize {
    let db = Database::in_memory(Default::default());
    for s in &adapter.descriptor().schemas {
        db.create_table(s.clone(), sommelier_storage::catalog::Disposition::Resident)
            .unwrap();
    }
    let (registry, _) = sommelier_core::registrar::register_source(&db, adapter, 2).unwrap();
    assert!(!registry.entries().is_empty());
    let mut time_flagged = 0;
    for entry in registry.entries() {
        let rel = adapter.decode(entry, None).unwrap();
        for (i, (name, col)) in rel.columns().iter().enumerate() {
            if !rel.is_sorted(i) {
                continue;
            }
            let v = col.as_i64().unwrap();
            let bad = v.windows(2).position(|w| w[0] > w[1]);
            assert!(
                bad.is_none(),
                "{}: {name} flagged sorted, decreases at {bad:?}",
                entry.uri
            );
            time_flagged += usize::from(name == time_column);
        }
    }
    time_flagged
}

/// Every flag a decoder sets on generated chunks is true, and the
/// generated (ordered) chunks do get their time column flagged.
#[test]
fn sorted_flags_hold_on_every_generated_chunk() {
    let dir = TempDir::new("decflags");
    let repo = ingv_repo(&dir, 3, 32);
    let mseed = MseedAdapter::new(Repository::at(repo.dir()));
    let chunks = mseed.repo().list().unwrap().len();
    assert_eq!(check_sorted_flags(&mseed, "D.sample_time"), chunks);

    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 64)).unwrap();
    let events = EventLogAdapter::new(&logs);
    assert!(check_sorted_flags(&events, "E.ts") > 0, "no event log flagged E.ts");
    // A log whose timestamps go back is not flagged.
    let unordered = dir.join("unordered");
    std::fs::create_dir_all(&unordered).unwrap();
    let day = 15_000 * 86_400_000;
    write_log_file(
        &unordered.join("web-1_api_2011-01-26.evl"),
        "web-1",
        "api",
        day,
        &[(day + 5, 1.0), (day + 3, 2.0), (day + 9, 3.0)],
    )
    .unwrap();
    assert_eq!(check_sorted_flags(&EventLogAdapter::new(&unordered), "E.ts"), 0);
}

/// A hand-built mSEED file whose segments overlap in time: the decoder
/// must not flag `D.sample_time` sorted (segment and file ids still
/// are), and lazy answers over it still equal eager ones.
#[test]
fn overlapping_segments_are_flagged_unsorted_and_answer_alike() {
    use sommelier_mseed::{FileMeta, MseedFile, SegmentData, SegmentMeta};
    let dir = TempDir::new("decoverlap");
    let repo_dir = dir.join("repo");
    std::fs::create_dir_all(&repo_dir).unwrap();
    let start = 1_262_304_000_000; // 2010-01-01T00:00:00
    let segment = |k: u32, offset: i64, n: u32| SegmentData {
        meta: SegmentMeta {
            seg_index: k,
            start_time: start + offset,
            frequency: 1.0,
            sample_count: n,
        },
        samples: (0..n as i32).map(|i| i * 7 - 100 * k as i32).collect(),
    };
    // Segment 1 starts inside segment 0; segment 2 repeats an instant.
    let file = MseedFile {
        meta: FileMeta::new("IV", "ISK", "", "BHE"),
        segments: vec![segment(0, 0, 600), segment(1, 300_000, 600), segment(2, 899_000, 60)],
    };
    sommelier_mseed::write_file(&repo_dir.join("IV.ISK..BHE.2010.001.msd"), &file).unwrap();

    let adapter = MseedAdapter::new(Repository::at(&repo_dir));
    assert_eq!(check_sorted_flags(&adapter, "D.sample_time"), 0);
    let db = Database::in_memory(Default::default());
    for s in &adapter.descriptor().schemas {
        db.create_table(s.clone(), sommelier_storage::catalog::Disposition::Resident)
            .unwrap();
    }
    let (registry, _) = sommelier_core::registrar::register_source(&db, &adapter, 1).unwrap();
    let rel = adapter.decode(&registry.entries()[0], None).unwrap();
    for (i, name) in rel.names().iter().enumerate() {
        let want = matches!(*name, "D.file_id" | "D.seg_id");
        assert_eq!(rel.is_sorted(i), want, "{name}");
    }

    let lazy = mseed_system(&Repository::at(&repo_dir), false);
    let eager = Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(&repo_dir)))
        .config(SommelierConfig::default())
        .build()
        .unwrap();
    eager.prepare(LoadingMode::EagerPlain).unwrap();
    for (lo, hi) in
        [("00:04:59", "00:10:01"), ("00:10:00", "00:15:00"), ("00:14:59", "00:14:59")]
    {
        let sql = format!(
            "SELECT COUNT(*) AS n, SUM(D.sample_value) AS s FROM dataview \
             WHERE F.station = 'ISK' AND D.sample_time >= '2010-01-01T{lo}.000' \
             AND D.sample_time <= '2010-01-01T{hi}.000'"
        );
        let got = lazy.query(&sql).unwrap();
        assert_eq!(bits(&got), bits(&eager.query(&sql).unwrap()), "{sql}");
        assert!(got.relation.rows() > 0, "{sql} selected nothing");
    }
}
