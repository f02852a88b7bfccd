//! Cellar invariants, end to end:
//!
//! 1. **Budget safety** — after any sequence of queries, resident chunk
//!    bytes never exceed the configured budget (property test).
//! 2. **Transparency** — a budget-constrained system returns
//!    byte-identical results to an unbounded one, whatever the
//!    sequence (the partial-loading guarantee of
//!    `correctness_lazy_vs_eager`, extended to partial *unloading*).
//! 3. **Single-flight** — N threads issuing the same query concurrently
//!    decode each needed chunk exactly once.
//! 4. **Eviction frees memory only** — evicting a chunk keeps the DMd
//!    derived from it, so Algorithm 1 never re-derives a covered window.

use sommelier_core::{LoadingMode, Metric, QueryType, Sommelier, SommelierConfig};
use sommelier_integration::{fiam_repo, prepared, TempDir};
use sommelier_storage::rng::check;
use sommelier_storage::time::{days_from_civil, format_ts, MS_PER_DAY};
use std::sync::Arc;

const DAYS: i64 = 10;

fn t4_query(start_day: i64, window: i64) -> String {
    window_query("AVG(D.sample_value)", start_day, window)
}

/// `select` over the samples of days `start_day..start_day + window`.
fn window_query(select: &str, start_day: i64, window: i64) -> String {
    let d0 = days_from_civil(2010, 1, 1);
    format!(
        "SELECT {select} FROM dataview \
         WHERE D.sample_time >= '{}' AND D.sample_time < '{}'",
        format_ts((d0 + start_day) * MS_PER_DAY),
        format_ts((d0 + start_day + window) * MS_PER_DAY)
    )
}

fn canonical(rel: &sommelier_engine::Relation) -> Vec<String> {
    (0..rel.rows())
        .map(|r| {
            rel.columns()
                .iter()
                .map(|(_, c)| match c.get(r) {
                    sommelier_storage::Value::Float(f) => format!("{f:.9e}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

fn budgeted_config(budget: usize) -> SommelierConfig {
    SommelierConfig { cellar_bytes: Some(budget), ..SommelierConfig::default() }
}

/// Any query sequence, tiny budget: residency never exceeds the budget
/// once the query returns, and every answer matches an unbounded twin
/// system's byte for byte. One 10-day FIAM repository serves every case
/// (each builds fresh systems over it) and is removed at the end.
#[test]
fn budget_is_never_exceeded_and_answers_never_change() {
    let dir = TempDir::new("cellar-prop");
    let repo = fiam_repo(&dir, DAYS as u32, 64);
    check("budget_is_never_exceeded_and_answers_never_change", |rng| {
        let queries: Vec<(i64, i64)> =
            (0..rng.range(1..6)).map(|_| (rng.range(0..9), rng.range(1..4))).collect();
        let budget = rng.range(1..80) as usize * 1024;
        let bounded = prepared(&repo, LoadingMode::Lazy, budgeted_config(budget));
        let unbounded = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
        let cellar = bounded.cellar().expect("prepared");
        for &(start, w) in &queries {
            let window = w.min(DAYS - start);
            let sql = t4_query(start, window);
            let got = bounded.query(&sql).unwrap();
            let want = unbounded.query(&sql).unwrap();
            assert_eq!(
                canonical(&got.relation),
                canonical(&want.relation),
                "bounded vs unbounded diverged on {sql:?}"
            );
            assert!(
                cellar.resident_bytes() <= budget,
                "resident {} exceeds budget {} after {}",
                cellar.resident_bytes(),
                budget,
                sql
            );
        }
    });
}

/// The acceptance-criteria configuration: a budget of 10 % of the
/// dataset's decoded bytes, swept over the whole repository repeatedly.
#[test]
fn ten_percent_budget_matches_unbounded_results() {
    let dir = TempDir::new("cellar-10pct");
    let repo = fiam_repo(&dir, 10, 64);
    // Calibrate: decoded size of the full working set.
    let unbounded = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let full_scan = t4_query(0, DAYS);
    unbounded.query(&full_scan).unwrap();
    let total = unbounded.metrics().get(Metric::CellarPeakResidentBytes) as usize;
    let budget = (total / 10).max(1);

    let bounded = prepared(&repo, LoadingMode::Lazy, budgeted_config(budget));
    let cellar = bounded.cellar().unwrap();
    // Two full passes of sliding windows plus a full scan: plenty of
    // evictions and reloads.
    let mut sqls: Vec<String> = Vec::new();
    for _ in 0..2 {
        for start in 0..DAYS - 1 {
            sqls.push(t4_query(start, 2));
        }
    }
    sqls.push(full_scan);
    for sql in &sqls {
        let got = bounded.query(sql).unwrap();
        let want = unbounded.query(sql).unwrap();
        assert_eq!(canonical(&got.relation), canonical(&want.relation), "diverged on {sql}");
        assert!(
            cellar.resident_bytes() <= budget,
            "resident {} exceeds budget {budget} after {sql}",
            cellar.resident_bytes()
        );
    }
    let m = bounded.metrics();
    assert!(m.get(Metric::CellarEvictions) > 0, "a 10% budget must evict: {cellar:?}");
    assert!(
        m.get(Metric::CellarReloads) > 0,
        "a repeated workload over a 10% budget must reload: {cellar:?}"
    );
}

/// Raw rows (no aggregate to fuse into) over every chunk, serially,
/// under a budget of ~1.5 chunks: the chunk wave pins one chunk at a
/// time, so residency peaks at the budget plus the chunk being
/// gathered — never the query's whole working set — and the rows match
/// an unbounded twin's.
#[test]
fn raw_row_query_pins_one_chunk_at_a_time() {
    let dir = TempDir::new("cellar-raw-rows");
    let repo = fiam_repo(&dir, DAYS as u32, 64);
    let serial = |cellar_bytes| SommelierConfig {
        cellar_bytes,
        max_threads: 1,
        ..SommelierConfig::default()
    };
    let raw = |start, window| window_query("D.sample_time, D.sample_value", start, window);
    // One chunk per day: measure the largest one's decoded bytes.
    let unbounded = prepared(&repo, LoadingMode::Lazy, serial(None));
    let unbounded_cellar = unbounded.cellar().unwrap();
    let mut one = 0;
    for day in 0..DAYS {
        let before = unbounded_cellar.resident_bytes();
        assert_eq!(unbounded.query(&raw(day, 1)).unwrap().stats.files_loaded, 1);
        one = one.max(unbounded_cellar.resident_bytes() - before);
    }
    let budget = one + one / 2;
    let bounded = prepared(&repo, LoadingMode::Lazy, serial(Some(budget)));
    let sql = raw(0, DAYS);
    let got = bounded.query(&sql).unwrap();
    let want = unbounded.query(&sql).unwrap();
    assert_eq!(got.stats.files_loaded, DAYS as usize);
    assert!(want.relation.rows() > 0);
    assert_eq!(canonical(&got.relation), canonical(&want.relation));
    let peak = bounded.metrics().get(Metric::CellarPeakResidentBytes) as usize;
    assert!(peak <= budget + one, "peak {peak} > budget {budget} + one chunk {one}");
}

/// Eight threads, same query, one decode per chunk (single-flight), and
/// `Sommelier::query` is safe to call concurrently.
#[test]
fn concurrent_identical_queries_decode_each_chunk_once() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sommelier>();

    let dir = TempDir::new("cellar-flight");
    let repo = fiam_repo(&dir, 6, 64);
    let somm = Arc::new(prepared(&repo, LoadingMode::Lazy, SommelierConfig::default()));
    let sql = t4_query(0, 6);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let results: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let somm = Arc::clone(&somm);
                let sql = sql.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let r = somm.query(&sql).unwrap();
                    assert_eq!(r.stats.files_selected, 6);
                    canonical(&r.relation)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "concurrent queries must agree");
    }
    let cellar = somm.cellar().unwrap();
    let count = |metric| somm.metrics().get(metric);
    let (hits, joins, loads) =
        (count(Metric::CellarHits), count(Metric::CellarJoins), count(Metric::CellarLoads));
    assert_eq!(loads, 6, "each of the 6 chunks decoded exactly once: {cellar:?}");
    assert_eq!(count(Metric::CellarReloads), 0);
    assert_eq!(hits + joins + loads, 8 * 6, "every acquisition accounted for: {cellar:?}");
}

/// Concurrent DMd-referring queries: Algorithm 1 must derive each
/// window exactly once (no duplicate `H` inserts, no PK trips), and
/// concurrent evictions must never make a query's windows vanish
/// mid-flight. Runs a mixed T2 + T4 storm over
/// one day under a tight budget; every query must succeed and agree
/// with an unbounded reference.
#[test]
fn concurrent_dmd_queries_derive_once_and_stay_consistent() {
    let dir = TempDir::new("cellar-dmd-race");
    let repo = fiam_repo(&dir, 3, 64);
    let t2 = "SELECT window_start_ts, window_max_val FROM H \
              WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
              AND window_start_ts >= '2010-01-01T00:00:00.000' \
              AND window_start_ts < '2010-01-02T00:00:00.000' \
              ORDER BY window_start_ts";
    let reference = {
        let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
        canonical(&somm.query(t2).unwrap().relation)
    };
    assert_eq!(reference.len(), 24, "one window per hour of the day");

    // Budget of one byte: every chunk release evicts.
    let somm = Arc::new(prepared(&repo, LoadingMode::Lazy, budgeted_config(1)));
    let barrier = Arc::new(std::sync::Barrier::new(8));
    std::thread::scope(|scope| {
        for i in 0..8 {
            let somm = Arc::clone(&somm);
            let barrier = Arc::clone(&barrier);
            let reference = &reference;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..3 {
                    if i % 2 == 0 {
                        let r = somm.query(t2).unwrap_or_else(|e| panic!("T2 failed: {e}"));
                        assert_eq!(&canonical(&r.relation), reference, "T2 diverged");
                    } else {
                        somm.query(&t4_query(0, 1))
                            .unwrap_or_else(|e| panic!("T4 failed: {e}"));
                    }
                }
            });
        }
    });
    // However the storm interleaved, H holds each window at most once.
    let h_rows = somm.db().table_rows("H").unwrap();
    assert!(h_rows <= 24, "duplicate windows materialized: {h_rows}");
    // And a final quiet query still agrees.
    assert_eq!(canonical(&somm.query(t2).unwrap().relation), reference);
}

/// Evicting a chunk frees memory only: the DMd windows derived from it
/// stay covered, so later T2/T3 queries over them derive nothing and
/// load no chunk, and answer exactly as an unbounded system does.
#[test]
fn eviction_keeps_dmd_coverage() {
    let dir = TempDir::new("cellar-dmd");
    let repo = fiam_repo(&dir, 4, 64);
    let t2 = "SELECT window_start_ts, window_max_val, window_mean_val FROM H \
              WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
              AND window_start_ts >= '2010-01-01T00:00:00.000' \
              AND window_start_ts < '2010-01-02T00:00:00.000' \
              ORDER BY window_start_ts";
    let t3 = "SELECT H.window_start_ts, H.window_max_val, F.network FROM windowview \
              WHERE F.station = 'FIAM' AND F.channel = 'HHZ' \
              AND H.window_start_ts >= '2010-01-01T06:00:00.000' \
              AND H.window_start_ts < '2010-01-01T18:00:00.000' \
              ORDER BY H.window_start_ts";

    // Reference: an unbounded system derives once, then serves from H.
    let unbounded = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let want_t2 = unbounded.query(t2).unwrap();
    assert_eq!(want_t2.qtype, QueryType::T2);
    assert!(want_t2.dmd.as_ref().unwrap().missing > 0);
    let want_t3 = unbounded.query(t3).unwrap();
    assert_eq!(want_t3.qtype, QueryType::T3);

    // A 1-byte budget evicts every chunk at release.
    let bounded = prepared(&repo, LoadingMode::Lazy, budgeted_config(1));
    let b1 = bounded.query(t2).unwrap();
    assert!(b1.dmd.as_ref().unwrap().missing > 0);
    assert_eq!(canonical(&b1.relation), canonical(&want_t2.relation));
    let h_rows = bounded.db().table_rows("H").unwrap();
    let covered = bounded.dmd_manager().covered_count();
    assert!(h_rows > 0 && covered > 0, "derived windows materialized");

    // A T4 over the same day re-loads the chunk, which is evicted again
    // at release: derived rows and coverage are untouched.
    let evictions = bounded.metrics().get(Metric::CellarEvictions);
    bounded.query(&t4_query(0, 1)).unwrap();
    assert!(bounded.metrics().get(Metric::CellarEvictions) > evictions, "the T4 evicted");
    assert_eq!(bounded.cellar().unwrap().resident_chunks(), 0);
    assert_eq!(bounded.db().table_rows("H").unwrap(), h_rows, "H rows kept");
    assert_eq!(bounded.dmd_manager().covered_count(), covered, "coverage kept");

    // T2 and T3 over the derived windows neither derive nor load.
    for (sql, want) in [(t2, &want_t2), (t3, &want_t3)] {
        let got = bounded.query(sql).unwrap();
        let dmd = got.dmd.as_ref().unwrap();
        assert_eq!((dmd.missing, dmd.files_loaded), (0, 0), "no re-derivation: {sql}");
        assert_eq!(got.stats.files_loaded, 0, "{sql}");
        assert_eq!(canonical(&got.relation), canonical(&want.relation), "{sql}");
    }
}
