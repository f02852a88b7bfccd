//! The fundamental guarantee of the paper's system: partial loading is
//! *transparent*. Every loading approach must return identical answers
//! for every query type — lazy ingestion, the two-stage rewrite, index
//! joins and incremental DMd derivation are pure optimizations.

use sommelier_core::{LoadingMode, QueryType, SommelierConfig};
use sommelier_integration::{ingv_repo, prepared, TempDir};
use sommelier_storage::rng::Rng;
use sommelier_storage::Value;

/// The five benchmark queries over the same small dataset, then two
/// more shapes of the per-chunk join and one raw-row scan.
fn queries() -> Vec<(&'static str, String)> {
    vec![
        (
            "T1",
            "SELECT COUNT(*) AS n, SUM(S.sample_count) AS total FROM segview \
             WHERE F.station = 'ISK'"
                .to_string(),
        ),
        (
            "T2",
            "SELECT window_start_ts, window_max_val, window_min_val, window_mean_val, \
             window_std_dev FROM H \
             WHERE window_station = 'ISK' AND window_channel = 'BHE' \
             AND window_start_ts >= '2010-01-01T00:00:00.000' \
             AND window_start_ts < '2010-01-02T00:00:00.000' \
             ORDER BY window_start_ts"
                .to_string(),
        ),
        (
            "T3",
            "SELECT H.window_start_ts, H.window_max_val, F.network FROM windowview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND H.window_start_ts >= '2010-01-01T06:00:00.000' \
             AND H.window_start_ts < '2010-01-02T00:00:00.000' \
             ORDER BY window_start_ts"
                .to_string(),
        ),
        (
            "T4",
            "SELECT AVG(D.sample_value) FROM dataview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-02T21:00:00.000'"
                .to_string(),
        ),
        (
            "T5",
            "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM windowdataview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND H.window_start_ts >= '2010-01-01T00:00:00.000' \
             AND H.window_start_ts < '2010-01-03T00:00:00.000' \
             AND H.window_max_val > 1000"
                .to_string(),
        ),
        (
            // A fused aggregate that reads build columns on every row:
            // the per-chunk probe gathers `F.station` and `S.frequency`.
            "T4 build columns",
            "SELECT F.station, COUNT(*) AS n, AVG(S.frequency) AS f, \
             SUM(D.sample_value) AS s FROM dataview \
             WHERE D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-02T21:00:00.000' \
             GROUP BY F.station"
                .to_string(),
        ),
        (
            // The time-range-only scan over every station: the probe
            // keeps no build column.
            "T4 time range",
            "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM dataview \
             WHERE D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-02T21:00:00.000'"
                .to_string(),
        ),
        (
            // Raw rows, no aggregate: not a fused shape, so the chunk
            // wave gathers each chunk's rows and drops its pin, and the
            // rows concatenate in chunk order.
            "T4 raw rows",
            "SELECT F.station, D.sample_time, D.sample_value FROM dataview \
             WHERE D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-01T03:10:00.000'"
                .to_string(),
        ),
    ]
}

/// Render a relation to a canonical string for comparison.
fn canonical(rel: &sommelier_engine::Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..rel.rows())
        .map(|r| {
            rel.columns()
                .iter()
                .map(|(_, c)| match c.get(r) {
                    // Normalize float formatting to survive summation
                    // order differences across parallel loads.
                    Value::Float(f) => format!("{:.9e}", f),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn all_modes_agree_on_all_query_types() {
    let dir = TempDir::new("agree");
    let repo = ingv_repo(&dir, 3, 64);
    // Reference: eager_plain.
    let reference = prepared(&repo, LoadingMode::EagerPlain, SommelierConfig::default());
    let expected: Vec<_> = queries()
        .iter()
        .map(|(name, sql)| {
            let r = reference.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), canonical(&r.relation))
        })
        .collect();
    // Every reference result must be non-trivial, otherwise the test
    // proves nothing.
    for (name, rows) in &expected {
        assert!(!rows.is_empty(), "{name} reference result is empty");
    }
    for mode in [
        LoadingMode::EagerCsv,
        LoadingMode::EagerIndex,
        LoadingMode::EagerDmd,
        LoadingMode::Lazy,
    ] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        for ((name, sql), (_, want)) in queries().iter().zip(&expected) {
            let got = somm.query(sql).unwrap_or_else(|e| panic!("{name} under {mode}: {e}"));
            assert_eq!(
                &canonical(&got.relation),
                want,
                "{name} result diverges under {mode}"
            );
        }
    }
}

#[test]
fn classification_is_mode_independent() {
    let dir = TempDir::new("classify");
    let repo = ingv_repo(&dir, 2, 16);
    let expected =
        [QueryType::T1, QueryType::T2, QueryType::T3, QueryType::T4, QueryType::T5];
    for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        for ((name, sql), want) in queries().iter().zip(expected) {
            let got = somm.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(got.qtype, want, "{name} under {mode:?}");
        }
    }
}

#[test]
fn repeated_queries_are_stable_under_caching() {
    // Results must not change as the cellar fills up / evicts.
    let dir = TempDir::new("stable");
    let repo = ingv_repo(&dir, 3, 64);
    let config =
        SommelierConfig { cellar_bytes: Some(64 * 1024), ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let (_, t4) = &queries()[3];
    let first = canonical(&somm.query(t4).unwrap().relation);
    for _ in 0..3 {
        assert_eq!(canonical(&somm.query(t4).unwrap().relation), first);
    }
    // Caches flushed: still identical.
    somm.flush_caches();
    assert_eq!(canonical(&somm.query(t4).unwrap().relation), first);
}

#[test]
fn lazy_aggregate_matches_manual_recomputation() {
    // Cross-check AVG against COUNT + SUM computed by separate queries.
    let dir = TempDir::new("manual");
    let repo = ingv_repo(&dir, 2, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let range = "D.sample_time >= '2010-01-01T00:00:00.000' \
                 AND D.sample_time < '2010-01-02T00:00:00.000'";
    let avg = somm
        .query(&format!(
            "SELECT AVG(D.sample_value) AS a FROM dataview \
             WHERE F.station = 'FIAM' AND {range}"
        ))
        .unwrap();
    let parts = somm
        .query(&format!(
            "SELECT COUNT(*) AS n, SUM(D.sample_value) AS s FROM dataview \
             WHERE F.station = 'FIAM' AND {range}"
        ))
        .unwrap();
    let a = match avg.relation.value(0, "a").unwrap() {
        Value::Float(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    let n = match parts.relation.value(0, "n").unwrap() {
        Value::Int(v) => v as f64,
        other => panic!("unexpected {other:?}"),
    };
    let s = match parts.relation.value(0, "s").unwrap() {
        Value::Float(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    assert!(n > 0.0);
    assert!((a - s / n).abs() < 1e-9, "AVG {a} vs SUM/COUNT {}", s / n);
}

/// Seeded T4 and T5 windows that start and end on chunk boundaries
/// (day starts) and segment boundaries (a segment's first sample, its
/// last, the instant after it), one millisecond either side of them,
/// plus empty windows: lazy answers equal eager ones.
#[test]
fn seeded_windows_on_chunk_and_segment_boundaries_agree() {
    use sommelier_mseed::SegmentMeta;
    use sommelier_storage::time::{format_ts, MS_PER_DAY};
    let dir = TempDir::new("windows");
    let repo = ingv_repo(&dir, 3, 64);
    let eager = prepared(&repo, LoadingMode::EagerPlain, SommelierConfig::default());
    let lazy = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());

    let segs = eager
        .query(
            "SELECT S.start_time, S.frequency, S.sample_count FROM segview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE'",
        )
        .unwrap()
        .relation;
    let mut bounds: Vec<i64> = Vec::new();
    for r in 0..segs.rows() {
        let (Value::Time(start_time), Value::Float(frequency), Value::Int(n)) = (
            segs.value(r, "start_time").unwrap(),
            segs.value(r, "frequency").unwrap(),
            segs.value(r, "sample_count").unwrap(),
        ) else {
            panic!("unexpected segment row {r}");
        };
        let meta =
            SegmentMeta { seg_index: 0, start_time, frequency, sample_count: n as u32 };
        let last = meta.sample_time(meta.sample_count - 1);
        bounds.extend([
            start_time,
            last,
            meta.end_time(),
            start_time.div_euclid(MS_PER_DAY) * MS_PER_DAY,
        ]);
    }
    bounds.sort_unstable();
    bounds.dedup();
    assert!(bounds.len() > 30, "too few boundaries: {}", bounds.len());

    let mut non_empty = 0;
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed);
        let mut pick = || rng.pick(&bounds) + rng.pick(&[-1, 0, 0, 1]);
        let (a, b) = (pick(), pick());
        // One window in five is empty (it ends before it starts).
        let (lo, hi) =
            if seed % 5 == 0 { (a.max(b), a.min(b)) } else { (a.min(b), a.max(b)) };
        let (lo_op, hi_op) = (rng.pick(&[">=", ">"]), rng.pick(&["<", "<="]));
        let (lo, hi) = (format_ts(lo), format_ts(hi));
        let sql = if seed % 4 == 3 {
            format!(
                "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM windowdataview \
                 WHERE F.station = 'ISK' AND F.channel = 'BHE' \
                 AND H.window_start_ts {lo_op} '{lo}' AND H.window_start_ts {hi_op} '{hi}' \
                 AND H.window_max_val > -1000000000"
            )
        } else {
            format!(
                "SELECT COUNT(*) AS n, SUM(D.sample_value) AS s, MIN(D.sample_time) AS t0, \
                 MAX(D.sample_time) AS t1 FROM dataview \
                 WHERE F.station = 'ISK' AND F.channel = 'BHE' \
                 AND D.sample_time {lo_op} '{lo}' AND '{hi}' {} D.sample_time",
                if hi_op == "<" { ">" } else { ">=" }
            )
        };
        let want = canonical(&eager.query(&sql).unwrap().relation);
        let got = canonical(&lazy.query(&sql).unwrap().relation);
        assert_eq!(got, want, "seed {seed}: {sql}");
        non_empty += usize::from(!want.is_empty());
    }
    assert!(non_empty >= 20, "only {non_empty} of 40 windows selected rows");
}
