//! The source-adapter API, end to end: the CSV event-log adapter as a
//! genuinely different scenario, and a two-source system serving the
//! seismology and event-log schemas side by side under one cellar.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{
    LoadingMode, Metric, QueryType, Sommelier, SommelierConfig, SourceAdapter,
};
use sommelier_integration::{ingv_repo, TempDir};
use sommelier_mseed::{MseedAdapter, Repository};
use std::path::{Path, PathBuf};

fn eventlog_repo(dir: &TempDir, days: u32, events: u32) -> PathBuf {
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(days, events)).unwrap();
    logs
}

fn eventlog_system(logs: &Path) -> Sommelier {
    Sommelier::builder().source(EventLogAdapter::new(logs)).build().unwrap()
}

/// One system over both sources (the tentpole scenario).
fn dual_system(repo: &Repository, logs: &Path) -> Sommelier {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .source(EventLogAdapter::new(logs))
        .config(SommelierConfig::default())
        .build()
        .unwrap()
}

/// The paper's T1–T5 taxonomy, phrased against the seismology source.
fn mseed_queries() -> Vec<(&'static str, QueryType)> {
    vec![
        ("SELECT COUNT(*) AS n FROM F WHERE station = 'ISK'", QueryType::T1),
        (
            "SELECT window_start_ts, window_max_val FROM H \
             WHERE window_station = 'ISK' AND window_channel = 'BHE' \
             AND window_start_ts < '2010-01-01T04:00:00.000' \
             ORDER BY window_start_ts",
            QueryType::T2,
        ),
        (
            "SELECT COUNT(*) AS n FROM windowview \
             WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
             AND H.window_start_ts < '2010-01-01T04:00:00.000'",
            QueryType::T3,
        ),
        (
            "SELECT AVG(D.sample_value) FROM dataview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND D.sample_time >= '2010-01-01T00:00:00.000' \
             AND D.sample_time < '2010-01-02T00:00:00.000'",
            QueryType::T4,
        ),
        (
            "SELECT AVG(D.sample_value) FROM windowdataview \
             WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
             AND H.window_start_ts < '2010-01-01T04:00:00.000'",
            QueryType::T5,
        ),
    ]
}

/// The same taxonomy against the event-log source (daily summaries
/// instead of hourly windows).
fn eventlog_queries() -> Vec<(&'static str, QueryType)> {
    vec![
        ("SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'", QueryType::T1),
        (
            "SELECT day_start_ts, day_max_val FROM Y \
             WHERE day_host = 'web-1' AND day_service = 'api' \
             AND day_start_ts < '2011-03-03T00:00:00.000' \
             ORDER BY day_start_ts",
            QueryType::T2,
        ),
        (
            "SELECT COUNT(*) AS n FROM dayview \
             WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
             AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
            QueryType::T3,
        ),
        (
            "SELECT AVG(E.val) FROM eventview \
             WHERE G.host = 'web-1' AND G.service = 'api' \
             AND E.ts >= '2011-03-01T00:00:00.000' \
             AND E.ts < '2011-03-02T00:00:00.000'",
            QueryType::T4,
        ),
        (
            "SELECT AVG(E.val) FROM daylogview \
             WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
             AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
            QueryType::T5,
        ),
    ]
}

/// Render a result relation deterministically (the queries above either
/// aggregate to one row or carry ORDER BY).
fn rendered(r: &sommelier_core::QueryResult) -> String {
    format!("{:?}", r.relation)
}

/// Cell-wise comparison across *loading modes*: exact for ints, texts
/// and timestamps, relative-1e-9 for floats — lazy plans aggregate
/// chunk-by-chunk (partial aggregation), so float sums may differ from
/// an eager plan's straight-line summation in the last ulp. (Serial vs
/// parallel within one mode stays byte-identical; see
/// `parallel_and_ablations.rs`.)
fn assert_results_close(
    l: &sommelier_core::QueryResult,
    e: &sommelier_core::QueryResult,
    sql: &str,
) {
    let (lr, er) = (&l.relation, &e.relation);
    assert_eq!(lr.names(), er.names(), "schema diverged on {sql}");
    assert_eq!(lr.rows(), er.rows(), "cardinality diverged on {sql}");
    for row in 0..lr.rows() {
        for name in lr.names() {
            let a = lr.value(row, name).unwrap();
            let b = er.value(row, name).unwrap();
            match (&a, &b) {
                (sommelier_storage::Value::Float(x), sommelier_storage::Value::Float(y)) => {
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= tol, "{name}[{row}]: {x} vs {y} on {sql}");
                }
                _ => assert_eq!(a, b, "{name}[{row}] diverged on {sql}"),
            }
        }
    }
}

#[test]
fn eventlog_lazy_matches_eager_on_all_query_types() {
    let dir = TempDir::new("evl-consistency");
    let logs = eventlog_repo(&dir, 3, 32);
    let lazy = eventlog_system(&logs);
    lazy.prepare(LoadingMode::Lazy).unwrap();
    let eager = eventlog_system(&logs);
    eager.prepare(LoadingMode::EagerIndex).unwrap();
    for (sql, expected) in eventlog_queries() {
        let l = lazy.query(sql).unwrap();
        let e = eager.query(sql).unwrap();
        assert_eq!(l.qtype, expected, "classification of {sql}");
        assert_eq!(e.qtype, expected);
        assert_results_close(&l, &e, sql);
    }
}

#[test]
fn eventlog_selective_predicate_loads_a_chunk_subset() {
    let dir = TempDir::new("evl-selectivity");
    let logs = eventlog_repo(&dir, 4, 16);
    let somm = eventlog_system(&logs);
    somm.prepare(LoadingMode::Lazy).unwrap();
    assert_eq!(somm.registered_chunks(), 8, "4 days × 2 hosts");
    // One host, one day: exactly one of the eight chunks qualifies.
    let r = somm
        .query(
            "SELECT COUNT(*) AS n FROM eventview \
             WHERE G.host = 'web-2' AND G.service = 'api' \
             AND E.ts >= '2011-03-02T00:00:00.000' \
             AND E.ts < '2011-03-03T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_selected, 1);
    assert_eq!(r.stats.files_loaded, 1);
    assert!(r.stats.files_loaded < somm.registered_chunks());
    assert_eq!(
        r.relation.value(0, "n").unwrap(),
        sommelier_storage::Value::Int(16),
        "the whole chunk's events qualify"
    );
}

#[test]
fn eventlog_eager_csv_round_trip_matches_plain() {
    let dir = TempDir::new("evl-csv");
    let logs = eventlog_repo(&dir, 2, 16);
    let via_csv = eventlog_system(&logs);
    let csv_report = via_csv.prepare(LoadingMode::EagerCsv).unwrap();
    assert!(csv_report.csv_bytes > 0);
    let plain = eventlog_system(&logs);
    plain.prepare(LoadingMode::EagerPlain).unwrap();
    assert_eq!(via_csv.db().table_rows("E").unwrap(), plain.db().table_rows("E").unwrap());
    let sql = "SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'";
    assert_eq!(rendered(&via_csv.query(sql).unwrap()), rendered(&plain.query(sql).unwrap()));
}

#[test]
fn two_sources_register_into_one_system() {
    let dir = TempDir::new("dual-register");
    let repo = ingv_repo(&dir, 2, 16); // 8 seismology chunks
    let logs = eventlog_repo(&dir, 3, 16); // 6 event-log chunks
    let somm = dual_system(&repo, &logs);
    assert_eq!(somm.source_names(), vec!["mseed", "eventlog"]);
    let report = somm.prepare(LoadingMode::Lazy).unwrap();
    assert_eq!(report.registrar.files, 14, "both sources registered");
    assert_eq!(somm.registered_chunks(), 14);
    // Given metadata of both sources landed in their own tables.
    assert_eq!(somm.db().table_rows("F").unwrap(), 8);
    assert_eq!(somm.db().table_rows("G").unwrap(), 6);
    assert_eq!(somm.db().table_rows("D").unwrap(), 0);
    assert_eq!(somm.db().table_rows("E").unwrap(), 0);
}

#[test]
fn dual_source_queries_touch_only_their_own_chunks() {
    let dir = TempDir::new("dual-isolation");
    let repo = ingv_repo(&dir, 2, 16);
    let logs = eventlog_repo(&dir, 3, 16);
    let somm = dual_system(&repo, &logs);
    somm.prepare(LoadingMode::Lazy).unwrap();
    // A pure actual-data query has no metadata to narrow the chunk
    // list: it must load *every* chunk of its source — and none of the
    // other source's.
    let r = somm.query("SELECT COUNT(E.val) AS n FROM E").unwrap();
    assert_eq!(r.qtype, QueryType::AdOnly);
    assert_eq!(r.stats.files_selected, 6, "all event-log chunks, no seismology chunks");
    assert_eq!(somm.metrics().get(Metric::CellarLoads), 6);
    let r = somm.query("SELECT COUNT(D.sample_value) AS n FROM D").unwrap();
    assert_eq!(r.stats.files_selected, 8, "all seismology chunks, no event-log chunks");
    assert_eq!(somm.metrics().get(Metric::CellarLoads), 14);
    // Selective queries narrow within their own source as usual.
    let r = somm
        .query(
            "SELECT AVG(D.sample_value) FROM dataview WHERE F.station = 'ISK' \
             AND D.sample_time < '2010-01-02T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_selected, 1);
    let r = somm
        .query(
            "SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1' \
             AND E.ts < '2011-03-02T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_selected, 1);
}

#[test]
fn dual_source_answers_t1_to_t5_on_each_source_lazy_equals_eager() {
    let dir = TempDir::new("dual-t1t5");
    let repo = ingv_repo(&dir, 2, 16);
    let logs = eventlog_repo(&dir, 3, 16);
    let lazy = dual_system(&repo, &logs);
    lazy.prepare(LoadingMode::Lazy).unwrap();
    let eager = dual_system(&repo, &logs);
    eager.prepare(LoadingMode::EagerIndex).unwrap();
    for (sql, expected) in mseed_queries().into_iter().chain(eventlog_queries()) {
        let l = lazy.query(sql).unwrap();
        let e = eager.query(sql).unwrap();
        assert_eq!(l.qtype, expected, "classification of {sql}");
        assert_results_close(&l, &e, sql);
        assert!(l.relation.rows() > 0, "degenerate (empty) answer for {sql}");
    }
    // Each source keeps its own derived-metadata bookkeeping.
    assert!(lazy.dmd_manager_of("mseed").unwrap().covered_count() > 0);
    assert!(lazy.dmd_manager_of("eventlog").unwrap().covered_count() > 0);
}

#[test]
fn dual_source_cross_source_query_is_rejected() {
    let dir = TempDir::new("dual-cross");
    let repo = ingv_repo(&dir, 1, 8);
    let logs = eventlog_repo(&dir, 1, 8);
    let somm = dual_system(&repo, &logs);
    somm.prepare(LoadingMode::Lazy).unwrap();
    // The binder itself has no join path between the two schemas; a
    // hand-built spec spanning sources must be refused by the router.
    let catalog = sommelier_core::source::assemble_catalog(&[
        &sommelier_mseed::mseed_descriptor(),
        &EventLogAdapter::new(dir.join("logs")).descriptor().clone(),
    ])
    .unwrap();
    let mut spec = sommelier_sql::compile("SELECT COUNT(*) AS n FROM F", &catalog).unwrap();
    spec.tables.push(sommelier_engine::TableRef {
        name: "G".into(),
        class: sommelier_storage::TableClass::MetadataGiven,
    });
    assert!(matches!(somm.query_spec(spec), Err(sommelier_core::SommelierError::Usage(_))));
}
