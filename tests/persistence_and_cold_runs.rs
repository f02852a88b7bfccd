//! Disk-backed operation: catalog persistence, buffer-pool behaviour on
//! cold runs, the simulated-I/O substitution used by the figures, and
//! the rule that a system is prepared once.

use sommelier_core::adapters::{generate_event_logs, EventLogSpec};
use sommelier_core::{LoadingMode, SommelierConfig, SommelierError};
use sommelier_integration::{disk_system, eventlog_system, fiam_repo, open_system, TempDir};
use sommelier_storage::buffer::BufferPoolConfig;
use sommelier_storage::Database;

#[test]
fn disk_backed_prepare_and_query() {
    let dir = TempDir::new("disk");
    let repo = fiam_repo(&dir, 3, 64);
    let somm = disk_system(&dir.join("db"), &repo, SommelierConfig::default()).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    assert!(somm.db_bytes() > 0, "column files on disk");
    let r = somm
        .query(
            "SELECT COUNT(*) AS n FROM dataview \
             WHERE D.sample_time < '2010-01-04T00:00:00.000'",
        )
        .unwrap();
    assert!(r.relation.value(0, "n").unwrap().as_i64().unwrap() > 0);
}

#[test]
fn database_reopens_with_data_intact() {
    let dir = TempDir::new("reopen");
    let repo = fiam_repo(&dir, 2, 32);
    let db_dir = dir.join("db");
    let rows_before;
    {
        let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        somm.prepare(LoadingMode::EagerPlain).unwrap();
        rows_before = somm.db().table_rows("D").unwrap();
        assert!(rows_before > 0);
    }
    // Re-open at the storage level: catalog + data must be intact.
    let db = Database::open(&db_dir, BufferPoolConfig::default()).unwrap();
    assert_eq!(db.table_rows("D").unwrap(), rows_before);
    assert_eq!(db.table_rows("F").unwrap(), 2);
    let schema = db.table_schema("D").unwrap();
    assert_eq!(schema.columns.len(), 4);
    // Scanning after reopen works (reads through the buffer pool).
    let cols = db.scan_columns("D", &["sample_value"]).unwrap();
    assert_eq!(cols[0].len() as u64, rows_before);
}

#[test]
fn cold_runs_miss_the_buffer_pool() {
    let dir = TempDir::new("cold");
    let repo = fiam_repo(&dir, 2, 64);
    let somm = disk_system(&dir.join("db"), &repo, SommelierConfig::default()).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-02T00:00:00.000'";
    somm.query(sql).unwrap();
    let warm = somm.db().pool().stats().snapshot();
    somm.query(sql).unwrap();
    let hot = somm.db().pool().stats().snapshot();
    assert_eq!(hot.misses, warm.misses, "hot run: all hits");
    assert!(hot.hits > warm.hits);
    somm.flush_caches();
    somm.query(sql).unwrap();
    let cold = somm.db().pool().stats().snapshot();
    assert!(cold.misses > hot.misses, "cold run re-reads pages");
}

#[test]
fn buffer_pool_budget_bounds_residency() {
    let dir = TempDir::new("budget");
    let repo = fiam_repo(&dir, 4, 256);
    let config =
        SommelierConfig { buffer_pool_bytes: 256 * 1024, ..SommelierConfig::default() };
    let somm = disk_system(&dir.join("db"), &repo, config).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    somm.query(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE D.sample_time < '2010-01-05T00:00:00.000'",
    )
    .unwrap();
    assert!(somm.db().pool().resident_bytes() <= 256 * 1024, "pool stays within budget");
    assert!(somm.db().pool().stats().snapshot().evictions > 0);
}

#[test]
fn sommelier_reopens_prepared_database() {
    let dir = TempDir::new("somm-reopen");
    let repo = fiam_repo(&dir, 3, 64);
    let db_dir = dir.join("db");
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-03T00:00:00.000'";
    let (want, h_rows) = {
        let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let want = somm.query(sql).unwrap();
        // Materialize some DMd so the reopen can recover coverage.
        somm.query(
            "SELECT window_max_val FROM H \
             WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
             AND window_start_ts < '2010-01-01T05:00:00.000'",
        )
        .unwrap();
        (want.relation.value(0, "avg").unwrap(), somm.db().table_rows("H").unwrap())
    };
    assert!(h_rows > 0);
    // Reopen: lazy mode inferred (D empty), registry rebuilt from F/S,
    // DMd coverage recovered from H.
    let somm = open_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
    assert_eq!(somm.mode(), Some(LoadingMode::Lazy));
    assert_eq!(somm.registered_chunks(), 3);
    assert!(somm.dmd_manager().covered_count() >= h_rows as usize);
    let got = somm.query(sql).unwrap();
    assert_eq!(got.relation.value(0, "avg").unwrap(), want);
    // Previously derived windows are not re-derived.
    let r = somm
        .query(
            "SELECT window_max_val FROM H \
             WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
             AND window_start_ts < '2010-01-01T05:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.dmd.unwrap().missing, 0);
}

#[test]
fn second_create_in_same_dir_fails() {
    let dir = TempDir::new("dup");
    let repo = fiam_repo(&dir, 1, 16);
    let db_dir = dir.join("db");
    let _first = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
    assert!(disk_system(&db_dir, &repo, SommelierConfig::default()).is_err());
}

#[test]
fn reopened_system_restores_prepared_mode() {
    // The mode-inference bug this guards against: a reopened
    // `EagerIndex` database used to silently downgrade to `EagerPlain`
    // (the mode was guessed from D's row count), losing its join
    // indices, hence its index-join plans, after every restart. The
    // mode is persisted now.
    let dir = TempDir::new("mode-persist");
    let repo = fiam_repo(&dir, 2, 32);
    let db_dir = dir.join("db");
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-02T00:00:00.000'";
    let want = {
        let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        somm.prepare(LoadingMode::EagerIndex).unwrap();
        assert!(somm.db().join_index("D", "F").is_some());
        somm.query(sql).unwrap().relation.value(0, "avg").unwrap()
    };
    let somm = open_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
    assert_eq!(somm.mode(), Some(LoadingMode::EagerIndex), "mode restored, not guessed");
    // Join indices are rebuilt on open so index-join plans still work.
    assert!(somm.db().join_index("D", "F").is_some());
    assert_eq!(somm.query(sql).unwrap().relation.value(0, "avg").unwrap(), want);
}

/// A system is prepared once: a second `prepare`, in any mode, is a
/// usage error raised before anything is read or written, so the given
/// metadata and the answers stay as they were.
#[test]
fn second_prepare_is_a_usage_error_and_leaves_the_system_intact() {
    let dir = TempDir::new("re-prepare");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(2, 64)).unwrap();
    let somm = eventlog_system(&logs, SommelierConfig::default());
    let sql = "SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'";
    let want = somm.query(sql).unwrap().relation;
    for mode in [LoadingMode::Lazy, LoadingMode::EagerPlain] {
        let err = somm.prepare(mode).unwrap_err();
        assert!(matches!(err, SommelierError::Usage(_)), "{err}");
        assert!(err.to_string().contains("already prepared"), "{err}");
    }
    assert_eq!(somm.db().table_rows("G").unwrap(), 4, "one G row per chunk, no more");
    assert_eq!(somm.mode(), Some(LoadingMode::Lazy));
    assert_eq!(format!("{:?}", somm.query(sql).unwrap().relation), format!("{want:?}"));
}
