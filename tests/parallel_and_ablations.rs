//! The design-choice ablations, as correctness tests: FK verification
//! on lazy loads and index joins — every knob must preserve answers.
//!
//! The `serial ≡ parallel` suite additionally pins down the strongest
//! guarantee of the morsel-parallel stage 2: per-chunk partial
//! aggregation merges in chunk order, so the *bytes* of every T1–T5
//! answer are identical no matter how many workers ran the pipelines —
//! on both built-in adapters, and even when a tight cellar budget makes
//! eviction interleave with execution. Eager loading decodes on the
//! same pool, and its answers are pinned byte for byte the same way.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{LoadingMode, Metric, QueryResult, Sommelier, SommelierConfig};
use sommelier_integration::{fiam_repo, ingv_repo, prepared, scalar_f64, TempDir};
use sommelier_mseed::Repository;
use std::path::Path;

const Q: &str = "SELECT AVG(D.sample_value) FROM dataview \
                 WHERE F.station = 'FIAM' \
                 AND D.sample_time >= '2010-01-01T00:00:00.000' \
                 AND D.sample_time < '2010-01-05T00:00:00.000'";

#[test]
fn lazy_fk_verification_passes_on_consistent_data() {
    // The paper omits FK checks as "safe by design"; with the checks
    // turned on, system-generated keys must indeed verify.
    let dir = TempDir::new("fkverify");
    let repo = fiam_repo(&dir, 3, 32);
    let config = SommelierConfig { verify_lazy_fk: true, ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let r = somm.query(Q).unwrap();
    assert!(r.stats.files_loaded > 0);
    assert!(scalar_f64(&r, "avg").is_some());
}

#[test]
fn index_joins_agree_with_hash_joins() {
    let dir = TempDir::new("indexjoin");
    let repo = ingv_repo(&dir, 3, 64);
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE F.station = 'AQU' AND F.channel = 'BHZ' \
               AND D.sample_time >= '2010-01-01T12:00:00.000' \
               AND D.sample_time < '2010-01-03T12:00:00.000'";
    let plain = prepared(&repo, LoadingMode::EagerPlain, SommelierConfig::default());
    let index = prepared(&repo, LoadingMode::EagerIndex, SommelierConfig::default());
    let a = scalar_f64(&plain.query(sql).unwrap(), "avg").unwrap();
    let b = scalar_f64(&index.query(sql).unwrap(), "avg").unwrap();
    assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    // The index variant did build its join indices.
    assert!(index.db().join_index("D", "F").is_some());
    assert!(index.db().join_index("D", "S").is_some());
}

#[test]
fn static_parallelism_loads_every_file_exactly_once() {
    let dir = TempDir::new("once");
    let repo = fiam_repo(&dir, 8, 32);
    let config = SommelierConfig { max_threads: 3, ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let r = somm
        .query(
            "SELECT COUNT(*) AS n FROM dataview \
             WHERE D.sample_time < '2010-01-09T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_loaded, 8);
    // Row count equals the repository's sample count.
    let total: i64 = r.relation.value(0, "n").unwrap().as_i64().unwrap();
    let meta = somm.query("SELECT SUM(S.sample_count) AS s FROM segview").unwrap();
    let expected = scalar_f64(&meta, "s").unwrap();
    assert_eq!(total as f64, expected);
}

// ---- serial ≡ parallel, byte for byte ------------------------------

/// T1–T5 against the seismology source (FIAM, 4 days). Multi-row
/// answers carry ORDER BY so renderings are comparable.
fn mseed_t_queries() -> Vec<String> {
    vec![
        "SELECT COUNT(*) AS segments, SUM(S.sample_count) AS samples \
         FROM segview WHERE F.station = 'FIAM'"
            .into(),
        "SELECT window_start_ts, window_max_val, window_min_val, window_mean_val, \
         window_std_dev FROM H \
         WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
         AND window_start_ts >= '2010-01-01T00:00:00.000' \
         AND window_start_ts < '2010-01-03T00:00:00.000' \
         ORDER BY window_start_ts"
            .into(),
        "SELECT COUNT(*) AS n FROM windowview \
         WHERE F.station = 'FIAM' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-03T00:00:00.000'"
            .into(),
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = 'FIAM' \
         AND D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-04T00:00:00.000'"
            .into(),
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = 'FIAM' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-03T00:00:00.000'"
            .into(),
    ]
}

/// The same taxonomy against the event-log source.
fn eventlog_t_queries() -> Vec<String> {
    vec![
        "SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'".into(),
        "SELECT day_start_ts, day_max_val FROM Y \
         WHERE day_host = 'web-1' AND day_service = 'api' \
         AND day_start_ts < '2011-03-04T00:00:00.000' \
         ORDER BY day_start_ts"
            .into(),
        "SELECT COUNT(*) AS n FROM dayview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-04T00:00:00.000'"
            .into(),
        "SELECT AVG(E.val) FROM eventview \
         WHERE G.host = 'web-1' AND G.service = 'api' \
         AND E.ts >= '2011-03-01T00:00:00.000' \
         AND E.ts < '2011-03-04T00:00:00.000'"
            .into(),
        "SELECT AVG(E.val) FROM daylogview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-04T00:00:00.000'"
            .into(),
    ]
}

/// Exact rendering: Rust's float `Debug` is shortest-round-trip, so
/// equal strings ⇔ equal bits.
fn fingerprint(r: &QueryResult) -> String {
    format!("{:?}", r.relation)
}

fn config_with(max_threads: usize) -> SommelierConfig {
    SommelierConfig { max_threads, ..SommelierConfig::default() }
}

/// Run every query on a system freshly prepared in `mode`,
/// fingerprinting the answers.
fn mseed_fingerprints(
    repo: &Repository,
    queries: &[String],
    mode: LoadingMode,
    config: SommelierConfig,
) -> Vec<String> {
    let somm = prepared(repo, mode, config);
    queries.iter().map(|sql| fingerprint(&somm.query(sql).unwrap())).collect()
}

fn eventlog_fingerprints(
    logs: &Path,
    queries: &[String],
    mode: LoadingMode,
    config: SommelierConfig,
) -> Vec<String> {
    let somm = Sommelier::builder()
        .source(EventLogAdapter::new(logs))
        .config(config)
        .build()
        .unwrap();
    somm.prepare(mode).unwrap();
    queries.iter().map(|sql| fingerprint(&somm.query(sql).unwrap())).collect()
}

fn assert_identical(reference: &[String], other: &[String], queries: &[String], tag: &str) {
    for ((a, b), sql) in reference.iter().zip(other).zip(queries) {
        assert_eq!(a, b, "{tag}: serial and parallel bytes diverged on {sql}");
    }
}

#[test]
fn serial_and_parallel_results_byte_identical_mseed() {
    let dir = TempDir::new("bytes-mseed");
    let repo = fiam_repo(&dir, 4, 64);
    let queries = mseed_t_queries();
    let serial = mseed_fingerprints(&repo, &queries, LoadingMode::Lazy, config_with(1));
    let par8 = mseed_fingerprints(&repo, &queries, LoadingMode::Lazy, config_with(8));
    assert_identical(&serial, &par8, &queries, "mseed 8 workers");
    // The T4 shape really did run the fused partial-agg path.
    let somm = prepared(&repo, LoadingMode::Lazy, config_with(8));
    let r = somm.query(&queries[3]).unwrap();
    assert!(r.stats.partial_agg_chunks > 0, "partial aggregation fired");
    assert_eq!(r.stats.rows_union_materialized, 0, "no union materialized");
}

#[test]
fn serial_and_parallel_results_byte_identical_eventlog() {
    let dir = TempDir::new("bytes-evl");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 48)).unwrap();
    let queries = eventlog_t_queries();
    let serial = eventlog_fingerprints(&logs, &queries, LoadingMode::Lazy, config_with(1));
    let par8 = eventlog_fingerprints(&logs, &queries, LoadingMode::Lazy, config_with(8));
    assert_identical(&serial, &par8, &queries, "eventlog 8 workers");
}

#[test]
fn serial_and_parallel_eager_loading_byte_identical() {
    // Eager loading decodes on the morsel pool: the loaded tables, and
    // so every answer over them, must not depend on how many workers
    // decoded the chunks.
    let dir = TempDir::new("bytes-eager");
    let repo = fiam_repo(&dir, 4, 64);
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 48)).unwrap();
    let (mseed_q, evl_q) = (mseed_t_queries(), eventlog_t_queries());
    for mode in [LoadingMode::EagerPlain, LoadingMode::EagerCsv] {
        let serial = mseed_fingerprints(&repo, &mseed_q, mode, config_with(1));
        let par4 = mseed_fingerprints(&repo, &mseed_q, mode, config_with(4));
        assert_identical(&serial, &par4, &mseed_q, &format!("mseed {mode} 4 workers"));
        let serial = eventlog_fingerprints(&logs, &evl_q, mode, config_with(1));
        let par4 = eventlog_fingerprints(&logs, &evl_q, mode, config_with(4));
        assert_identical(&serial, &par4, &evl_q, &format!("eventlog {mode} 4 workers"));
    }
}

#[test]
fn serial_and_parallel_byte_identical_under_tight_cellar_budget() {
    // A budget of ~1 decoded chunk: the streaming wave evicts while it
    // executes (pins are per chunk). Answers must not change — serial
    // vs parallel, tight vs unbounded.
    let dir = TempDir::new("bytes-tight");
    let repo = fiam_repo(&dir, 4, 64);
    let queries = mseed_t_queries();
    let unbounded = mseed_fingerprints(&repo, &queries, LoadingMode::Lazy, config_with(8));
    let tight = |threads: usize| SommelierConfig {
        cellar_bytes: Some(32 * 1024),
        ..config_with(threads)
    };
    let serial_tight = mseed_fingerprints(&repo, &queries, LoadingMode::Lazy, tight(1));
    let par_tight = mseed_fingerprints(&repo, &queries, LoadingMode::Lazy, tight(8));
    assert_identical(&unbounded, &serial_tight, &queries, "tight-1 vs unbounded");
    assert_identical(&unbounded, &par_tight, &queries, "tight-8 vs unbounded");
    // The tight budget really did evict mid-workload.
    let somm = prepared(&repo, LoadingMode::Lazy, tight(8));
    for sql in &queries {
        somm.query(sql).unwrap();
    }
    let cellar = somm.cellar().unwrap();
    let evictions = somm.metrics().get(Metric::CellarEvictions);
    assert!(evictions > 0, "budget forced evictions: {cellar:?}");
    assert!(cellar.resident_bytes() <= cellar.budget_bytes());
}

#[test]
fn all_knobs_combined() {
    // FK verification + tiny cache: the most hostile configuration
    // must still answer correctly.
    let dir = TempDir::new("all-knobs");
    let repo = fiam_repo(&dir, 4, 32);
    let reference = {
        let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
        scalar_f64(&somm.query(Q).unwrap(), "avg").unwrap()
    };
    let config = SommelierConfig {
        verify_lazy_fk: true,
        cellar_bytes: Some(1),
        ..SommelierConfig::default()
    };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let got = scalar_f64(&somm.query(Q).unwrap(), "avg").unwrap();
    assert!((reference - got).abs() < 1e-9);
}
