//! End-to-end behaviour of incremental metadata derivation
//! (Algorithm 1): coverage bookkeeping, partial reuse across
//! overlapping queries, equivalence with eager materialization, and
//! derivation as a child of its query (its cancel, deadline and a
//! `Strict` policy whatever the query's).

use sommelier_core::{
    CancelToken, DegradationPolicy, FaultPlan, LoadingMode, Metric, QueryOptions, Sommelier,
    SommelierConfig, SommelierError,
};
use sommelier_engine::EngineError;
use sommelier_integration::{
    chunk_files, fiam_repo, ingv_repo, prepared, wait_until, TempDir,
};
use sommelier_mseed::Repository;
use sommelier_storage::Value;
use std::time::Duration;

fn window_query(from_hour: &str, to_hour: &str) -> String {
    format!(
        "SELECT window_start_ts, window_max_val FROM H \
         WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
         AND window_start_ts >= '{from_hour}' AND window_start_ts < '{to_hour}' \
         ORDER BY window_start_ts"
    )
}

#[test]
fn overlapping_queries_derive_only_the_delta() {
    let dir = TempDir::new("delta");
    let repo = fiam_repo(&dir, 2, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());

    // Hours [0, 6) derived.
    let r1 = somm
        .query(&window_query("2010-01-01T00:00:00.000", "2010-01-01T06:00:00.000"))
        .unwrap();
    let d1 = r1.dmd.unwrap();
    assert_eq!((d1.requested, d1.missing), (6, 6));

    // Hours [3, 9): only [6, 9) is new.
    let r2 = somm
        .query(&window_query("2010-01-01T03:00:00.000", "2010-01-01T09:00:00.000"))
        .unwrap();
    let d2 = r2.dmd.unwrap();
    assert_eq!((d2.requested, d2.missing), (6, 3), "partial reuse");

    // Strict subset: nothing new.
    let r3 = somm
        .query(&window_query("2010-01-01T04:00:00.000", "2010-01-01T08:00:00.000"))
        .unwrap();
    assert_eq!(r3.dmd.unwrap().missing, 0);
    assert_eq!(somm.dmd_manager().covered_count(), 9);
    assert_eq!(somm.db().table_rows("H").unwrap(), 9);
}

#[test]
fn derivation_matches_eager_dmd_materialization() {
    let dir = TempDir::new("equiv");
    let repo = fiam_repo(&dir, 2, 64);

    // Eagerly materialized H.
    let eager = prepared(&repo, LoadingMode::EagerDmd, SommelierConfig::default());
    // Lazily derived H over the same span.
    let lazy = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let q = window_query("2010-01-01T00:00:00.000", "2010-01-03T00:00:00.000");
    let want = eager.query(&q).unwrap();
    let got = lazy.query(&q).unwrap();
    assert_eq!(want.relation.rows(), got.relation.rows());
    assert!(want.relation.rows() > 0);
    for r in 0..want.relation.rows() {
        let a = want.relation.value(r, "window_max_val").unwrap();
        let b = got.relation.value(r, "window_max_val").unwrap();
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                assert!((x - y).abs() < 1e-6, "row {r}: {x} vs {y}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn unconstrained_station_widens_to_all_sensors() {
    let dir = TempDir::new("widen");
    let repo = ingv_repo(&dir, 1, 32); // 4 stations × 1 day
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    // No station predicate: PSq spans all four sensors for one hour.
    let r = somm
        .query(
            "SELECT window_station, window_max_val FROM H \
             WHERE window_start_ts = '2010-01-01T05:00:00.000' \
             ORDER BY window_station",
        )
        .unwrap();
    let dmd = r.dmd.unwrap();
    // 4 stations × 4 channels × 1 hour (stations and channels widen
    // independently; nonexistent combinations derive to nothing).
    assert_eq!(dmd.requested, 16);
    assert_eq!(r.relation.rows(), 4, "one window per real sensor");
}

#[test]
fn derivation_rows_survive_cold_restarts_of_caches() {
    // Flushing buffer/chunk caches must not lose materialized DMd
    // (it is a table, not a cache).
    let dir = TempDir::new("cold-dmd");
    let repo = fiam_repo(&dir, 1, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let q = window_query("2010-01-01T00:00:00.000", "2010-01-01T04:00:00.000");
    somm.query(&q).unwrap();
    let rows_before = somm.db().table_rows("H").unwrap();
    somm.flush_caches();
    let r = somm.query(&q).unwrap();
    assert_eq!(r.dmd.unwrap().missing, 0, "coverage survives cache flush");
    assert_eq!(somm.db().table_rows("H").unwrap(), rows_before);
}

#[test]
fn eviction_keeps_derived_windows_covered() {
    // A chunk evicted under budget pressure takes only its decoded
    // relation with it: the windows derived from it stay materialized.
    let dir = TempDir::new("evict-dmd");
    let repo = fiam_repo(&dir, 1, 64);
    let config = SommelierConfig { cellar_bytes: Some(1), ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let q = window_query("2010-01-01T00:00:00.000", "2010-01-01T04:00:00.000");
    let first = somm.query(&q).unwrap();
    assert_eq!(first.dmd.unwrap().missing, 4);
    // A T4 over the same hours loads the chunk; release evicts it.
    let evictions = somm.metrics().get(Metric::CellarEvictions);
    somm.query(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-01T04:00:00.000'",
    )
    .unwrap();
    assert!(somm.metrics().get(Metric::CellarEvictions) > evictions);
    let again = somm.query(&q).unwrap();
    let dmd = again.dmd.unwrap();
    assert_eq!((dmd.requested, dmd.missing, dmd.files_loaded), (4, 0, 0));
    assert_eq!(somm.dmd_manager().covered_count(), 4);
    assert_eq!(somm.db().table_rows("H").unwrap(), first.relation.rows() as u64);
    assert_eq!(again.relation.rows(), first.relation.rows());
}

#[test]
fn reset_dmd_forces_rederivation() {
    let dir = TempDir::new("reset");
    let repo = fiam_repo(&dir, 1, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let q = window_query("2010-01-01T00:00:00.000", "2010-01-01T03:00:00.000");
    assert_eq!(somm.query(&q).unwrap().dmd.unwrap().missing, 3);
    assert_eq!(somm.query(&q).unwrap().dmd.unwrap().missing, 0);
    assert_eq!(somm.dmd_manager().covered_count(), 3);
    somm.reset_dmd().unwrap();
    assert_eq!(somm.db().table_rows("H").unwrap(), 0);
    assert_eq!(somm.dmd_manager().covered_count(), 0, "coverage ranges cleared");
    assert_eq!(somm.query(&q).unwrap().dmd.unwrap().missing, 3);
    assert_eq!(somm.dmd_manager().covered_count(), 3);
}

/// A relation's rows, ordered by their exact (non-float) cells.
fn sorted_rows(rel: &sommelier_engine::Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..rel.rows())
        .map(|r| rel.columns().iter().map(|(_, c)| c.get(r)).collect())
        .collect();
    rows.sort_by_cached_key(|row| {
        row.iter()
            .filter(|v| !matches!(v, Value::Float(_)))
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
    });
    rows
}

/// Windows derived out of order — later days first, then the first
/// day, then the gap between, for two stations — leave the derived
/// table in primary-key order, and T2, T3 and T5 answers equal an
/// eagerly materialized system's.
#[test]
fn out_of_order_derivation_keeps_windows_in_key_order() {
    let dir = TempDir::new("dmd-order");
    let repo = ingv_repo(&dir, 4, 32);
    let lazy = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let eager = prepared(&repo, LoadingMode::EagerDmd, SommelierConfig::default());
    let day = |d: u32| format!("2010-01-0{}T00:00:00.000", d + 1);
    let t2 = |station: &str, channel: &str, from: u32, to: u32| {
        format!(
            "SELECT window_start_ts, window_max_val, window_std_dev FROM H \
             WHERE window_station = '{station}' AND window_channel = '{channel}' \
             AND window_start_ts >= '{}' AND window_start_ts < '{}' \
             ORDER BY window_start_ts",
            day(from),
            day(to)
        )
    };
    let sensors = [("TRI", "HHE"), ("AQU", "BHZ")];
    for (from, to) in [(3, 4), (0, 1), (1, 3)] {
        for (station, channel) in sensors {
            let r = lazy.query(&t2(station, channel, from, to)).unwrap();
            assert_eq!(r.dmd.unwrap().missing, 24 * (to - from) as usize);
        }
    }
    let order = lazy.db().row_order("H").unwrap();
    assert!(order.pk_ordered, "H left out of key order: {order:?}");
    assert_eq!(lazy.db().table_rows("H").unwrap(), 2 * 4 * 24);
    let mut queries: Vec<String> = sensors.iter().map(|(s, c)| t2(s, c, 0, 4)).collect();
    for (station, channel) in sensors {
        queries.push(format!(
            "SELECT H.window_start_ts, H.window_max_val, F.network FROM windowview \
             WHERE F.station = '{station}' AND F.channel = '{channel}' \
             AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}'",
            day(1),
            day(3)
        ));
        queries.push(format!(
            "SELECT AVG(D.sample_value) AS avg, COUNT(*) AS n FROM windowdataview \
             WHERE F.station = '{station}' AND F.channel = '{channel}' \
             AND H.window_start_ts >= '{}' AND H.window_start_ts < '{}' \
             AND H.window_max_val > 0",
            day(0),
            day(4)
        ));
    }
    for q in &queries {
        let (got, want) = (lazy.query(q).unwrap(), eager.query(q).unwrap());
        assert!(want.relation.rows() > 0, "{q}");
        let (got, want) = (sorted_rows(&got.relation), sorted_rows(&want.relation));
        assert_eq!(got.len(), want.len(), "{q}");
        for (a, b) in got.iter().flatten().zip(want.iter().flatten()) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{q}: {x} vs {y}")
                }
                _ => assert_eq!(a, b, "{q}"),
            }
        }
    }
    assert!(lazy.db().row_order("H").unwrap().pk_ordered);
}

#[test]
fn t5_uses_windows_to_prune_chunks() {
    // The point of DMd in the lazy system: a T5 whose window predicate
    // matches nothing must not load any chunks for stage 2 (the
    // derivation itself needs the chunks once, though).
    let dir = TempDir::new("prune");
    let repo = fiam_repo(&dir, 3, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let r = somm
        .query(
            "SELECT AVG(D.sample_value) FROM windowdataview \
             WHERE F.station = 'FIAM' AND F.channel = 'HHZ' \
             AND H.window_start_ts < '2010-01-04T00:00:00.000' \
             AND H.window_max_val > 999999999",
        )
        .unwrap();
    // Derivation loaded the 3 chunks; the main query selected none.
    assert!(r.dmd.unwrap().files_loaded > 0);
    assert_eq!(r.stats.files_selected, 0, "no qualifying windows → no chunks");
    assert_eq!(r.relation.rows(), 0);
}

#[test]
fn derived_metadata_values_are_window_statistics() {
    // Cross-check one derived window against direct aggregation.
    let dir = TempDir::new("stats-check");
    let repo = fiam_repo(&dir, 1, 128);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let window = somm
        .query(
            "SELECT window_max_val, window_min_val, window_mean_val FROM H \
             WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
             AND window_start_ts = '2010-01-01T10:00:00.000'",
        )
        .unwrap();
    assert_eq!(window.relation.rows(), 1);
    let direct = somm
        .query(
            "SELECT MAX(D.sample_value) AS mx, MIN(D.sample_value) AS mn, \
             AVG(D.sample_value) AS me FROM dataview \
             WHERE F.station = 'FIAM' \
             AND D.sample_time >= '2010-01-01T10:00:00.000' \
             AND D.sample_time < '2010-01-01T11:00:00.000'",
        )
        .unwrap();
    for (wcol, dcol) in
        [("window_max_val", "mx"), ("window_min_val", "mn"), ("window_mean_val", "me")]
    {
        let w = window.relation.value(0, wcol).unwrap();
        let d = direct.relation.value(0, dcol).unwrap();
        match (w, d) {
            (Value::Float(x), Value::Float(y)) => {
                assert!((x - y).abs() < 1e-9, "{wcol}: {x} vs {y}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Every FIAM window of the first three days: deriving them loads
/// three chunks, one after another on a one-worker system.
fn three_days() -> String {
    window_query("2010-01-01T00:00:00.000", "2010-01-04T00:00:00.000")
}

/// A lazy system on one worker over `repo`, with fault injection wired
/// in so a test can hold its chunk loads.
fn one_worker_system(repo: &Repository, plan: FaultPlan) -> Sommelier {
    let config = SommelierConfig {
        max_threads: 1,
        fault_plan: Some(plan),
        ..SommelierConfig::default()
    };
    prepared(repo, LoadingMode::Lazy, config)
}

/// Run [`three_days`] under `opts` while chunk loads are held. Once the
/// first derivation load has parked, `fire` makes the event under test
/// happen and the loads are released. Returns the query's error.
fn derive_held(somm: &Sommelier, opts: &QueryOptions, fire: impl Fn()) -> SommelierError {
    let hold = somm.fault_injector().unwrap().hold();
    std::thread::scope(|scope| {
        let query = scope.spawn(|| somm.query_opts(&three_days(), opts));
        hold.wait_parked(1);
        fire();
        hold.release();
        query.join().unwrap().expect_err("the query must not complete")
    })
}

/// After a failed derivation: no window covered, at most the one parked
/// load done, and every pin released.
fn assert_derived_nothing(somm: &Sommelier) {
    assert_eq!(somm.dmd_manager().covered_count(), 0, "a failed derivation covers nothing");
    assert_eq!(somm.db().table_rows("H").unwrap(), 0);
    let loads = somm.metrics().get(Metric::CellarLoads);
    assert!(loads <= 1, "derivation kept loading after its query stopped: {loads} loads");
    assert_eq!(somm.cellar().unwrap().total_pins(), 0);
}

#[test]
fn cancel_stops_derivation() {
    let dir = TempDir::new("dmd-cancel");
    let somm = one_worker_system(&fiam_repo(&dir, 3, 64), FaultPlan::default());
    let token = CancelToken::new();
    let opts = QueryOptions { cancel: Some(token.clone()), ..QueryOptions::default() };
    let err = derive_held(&somm, &opts, || token.cancel());
    assert!(
        matches!(err, SommelierError::Engine(EngineError::Cancelled { timed_out: false })),
        "{err:?}"
    );
    assert_derived_nothing(&somm);
}

#[test]
fn timeout_stops_derivation() {
    let dir = TempDir::new("dmd-timeout");
    let somm = one_worker_system(&fiam_repo(&dir, 3, 64), FaultPlan::default());
    // The token only lets the test see the deadline pass; the query's
    // timeout installs it.
    let token = CancelToken::new();
    let opts = QueryOptions {
        cancel: Some(token.clone()),
        timeout: Some(Duration::from_secs(1)),
        ..QueryOptions::default()
    };
    let err = derive_held(&somm, &opts, || {
        wait_until("query deadline", || token.cancelled() == Some(true))
    });
    assert!(
        matches!(err, SommelierError::Engine(EngineError::Cancelled { timed_out: true })),
        "{err:?}"
    );
    assert_derived_nothing(&somm);
}

#[test]
fn derivation_stays_strict_under_a_skipping_query() {
    let dir = TempDir::new("dmd-strict");
    let repo = fiam_repo(&dir, 3, 64);
    let victim = chunk_files(repo.dir())[0].clone();
    let plan = FaultPlan { corrupt_uris: vec![victim.clone()], ..FaultPlan::default() };
    let somm = one_worker_system(&repo, plan);
    let opts =
        QueryOptions { degradation: DegradationPolicy::SkipUnreadable, ..Default::default() };
    let err = somm.query_opts(&three_days(), &opts).unwrap_err();
    assert!(
        matches!(
            &err,
            SommelierError::Engine(EngineError::ChunkLoad { uri, .. }) if *uri == victim
        ),
        "a derivation skips nothing: {err:?}"
    );
    assert_eq!(somm.dmd_manager().covered_count(), 0, "a partial derivation covers nothing");
    assert_eq!(somm.db().table_rows("H").unwrap(), 0);
}
