//! Optimizer-pass equivalence: the `zone_map_pruning` rewrite pass must
//! never change answers, only costs. T1–T5 run on both built-in
//! adapters with the pass disabled vs enabled; results must be
//! byte-identical (same lazy chunk-by-chunk execution shape in every
//! configuration, so exact bit equality is required, not float
//! tolerance). The cost assertions then check the pass actually does
//! something: zone maps prune chunks before decode.

use sommelier_core::adapters::{generate_event_logs, EventLogSpec};
use sommelier_core::{LoadingMode, QueryResult, Sommelier, SommelierConfig};
use sommelier_integration::{eventlog_system, ingv_repo, TempDir};
use sommelier_mseed::Repository;
use sommelier_storage::Value;
use std::path::Path;

/// Knob matrix entry: `zone_map_pruning`.
const KNOBS: [bool; 2] = [true, false];

fn config(zone: bool) -> SommelierConfig {
    SommelierConfig { zone_map_pruning: zone, ..SommelierConfig::default() }
}

fn mseed_system(repo: &Repository, cfg: SommelierConfig) -> Sommelier {
    let somm = sommelier_integration::in_memory_system(repo, cfg).unwrap();
    somm.prepare(LoadingMode::Lazy).unwrap();
    somm
}

/// Run `sql` from a cold cellar, so every run decodes its chunks.
fn cold_bits(somm: &Sommelier, sql: &str) -> String {
    somm.flush_caches();
    bits(&somm.query(sql).unwrap())
}

/// T1–T5 against the seismology source, including the zone-map
/// showcase (`filedataview` carries no segment table, so metadata
/// inference cannot narrow the chunk list — only zone maps can).
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
        MSEED_ZONE_T4,
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
    ]
}

/// The mSEED zone-map showcase: a one-day window through the
/// segment-free view selects every ISK chunk in stage 1.
const MSEED_ZONE_T4: &str = "SELECT AVG(D.sample_value) FROM filedataview \
     WHERE F.station = 'ISK' \
     AND D.sample_time >= '2010-01-01T00:00:00.000' \
     AND D.sample_time < '2010-01-02T00:00:00.000'";

/// T1–T5 against the event-log source. The T4 is the value-zone
/// showcase: `threshold` comes from the per-file statistics in the
/// headers, chosen so some files' maxima sit below it.
fn eventlog_queries(threshold: f64) -> Vec<String> {
    vec![
        "SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'".into(),
        "SELECT day_start_ts, day_max_val FROM Y \
         WHERE day_host = 'web-1' AND day_service = 'api' \
         AND day_start_ts < '2011-03-03T00:00:00.000' \
         ORDER BY day_start_ts"
            .into(),
        "SELECT COUNT(*) AS n FROM dayview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'"
            .into(),
        eventlog_zone_t4(threshold),
        "SELECT AVG(E.val) FROM daylogview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'"
            .into(),
    ]
}

fn eventlog_zone_t4(threshold: f64) -> String {
    format!("SELECT COUNT(E.val) AS n FROM eventview WHERE G.host = 'web-1' AND E.val > {threshold}")
}

/// A midpoint between the smallest and largest per-file `E.val` maxima
/// (the adapter reads its own header statistics), so a value predicate
/// above it contradicts some files' zones but not others'.
fn val_threshold(logs: &Path) -> f64 {
    sommelier_core::adapters::value_stats_midpoint(logs, None)
        .unwrap()
        .expect("per-file maxima must differ for the showcase to mean anything")
}

/// Exact bit-level rendering of a result (floats as their raw bits).
fn bits(r: &QueryResult) -> String {
    let rel = &r.relation;
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
fn mseed_t1_t5_byte_identical_across_pass_knobs() {
    let dir = TempDir::new("opteq-mseed");
    let repo = ingv_repo(&dir, 3, 16);
    let baseline: Vec<String> = {
        let somm = mseed_system(&repo, config(KNOBS[0]));
        mseed_queries().iter().map(|sql| cold_bits(&somm, sql)).collect()
    };
    for zone in &KNOBS[1..] {
        let somm = mseed_system(&repo, config(*zone));
        for (sql, want) in mseed_queries().iter().zip(&baseline) {
            let got = cold_bits(&somm, sql);
            assert_eq!(&got, want, "zone={zone} changed the answer of {sql}");
        }
    }
}

#[test]
fn eventlog_t1_t5_byte_identical_across_pass_knobs() {
    let dir = TempDir::new("opteq-evl");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 64)).unwrap();
    let threshold = val_threshold(&logs);
    let baseline: Vec<String> = {
        let somm = eventlog_system(&logs, config(KNOBS[0]));
        eventlog_queries(threshold).iter().map(|sql| cold_bits(&somm, sql)).collect()
    };
    for zone in &KNOBS[1..] {
        let somm = eventlog_system(&logs, config(*zone));
        for (sql, want) in eventlog_queries(threshold).iter().zip(&baseline) {
            let got = cold_bits(&somm, sql);
            assert_eq!(&got, want, "zone={zone} changed the answer of {sql}");
        }
    }
}

#[test]
fn zone_maps_prune_mseed_chunks_before_decode() {
    let dir = TempDir::new("optzone-mseed");
    let repo = ingv_repo(&dir, 3, 16);
    // No segment table in the view → stage 1 selects every ISK chunk.
    let off = mseed_system(&repo, config(false)).query(MSEED_ZONE_T4).unwrap();
    assert_eq!(off.stats.files_pruned, 0);
    assert_eq!(off.stats.files_loaded, 3, "one ISK chunk per day, all decoded");
    let on = mseed_system(&repo, config(true)).query(MSEED_ZONE_T4).unwrap();
    assert_eq!(on.stats.files_selected, 3);
    assert_eq!(on.stats.files_pruned, 2, "two days contradict the window");
    assert_eq!(on.stats.files_loaded, 1);
    assert_eq!(bits(&on), bits(&off), "pruning never changes the answer");
    assert!(
        on.trace.iter().any(|t| t.name == "zone_map_pruning" && t.fired),
        "trace records the pruning pass: {:?}",
        on.trace
    );
}

#[test]
fn zone_maps_prune_eventlog_chunks_on_value_statistics() {
    let dir = TempDir::new("optzone-evl");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(4, 64)).unwrap();
    let sql = eventlog_zone_t4(val_threshold(&logs));
    let off = eventlog_system(&logs, config(false)).query(&sql).unwrap();
    assert_eq!(off.stats.files_pruned, 0);
    let on = eventlog_system(&logs, config(true)).query(&sql).unwrap();
    assert!(on.stats.files_pruned > 0, "some files' maxima sit below the threshold");
    assert!(on.stats.files_loaded < off.stats.files_loaded);
    assert_eq!(bits(&on), bits(&off), "pruning never changes the answer");
}

#[test]
fn explain_prints_the_pass_trace() {
    let dir = TempDir::new("optexplain");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(1, 8)).unwrap();
    let somm = eventlog_system(&logs, SommelierConfig::default());
    let plan =
        somm.explain("SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'").unwrap();
    assert!(plan.contains("-- optimizer passes"), "{plan}");
    for pass in ["join_order", "zone_map_pruning", "chunk_rewrite", "partial_agg_fusion"] {
        assert!(plan.contains(pass), "missing {pass} in {plan}");
    }
    assert!(plan.contains("partial_agg_fusion: fired"), "{plan}");
}

/// EXPLAIN takes a query and nothing else: multibyte text near where
/// an `ANALYZE` prefix would end is a parse error, not a panic, and an
/// `ANALYZE` prefix is not sniffed either — `explain_analyze` is the
/// one way to run EXPLAIN ANALYZE.
#[test]
fn explain_rejects_multibyte_text_at_the_analyze_boundary() {
    let dir = TempDir::new("optexplain-utf8");
    let repo = ingv_repo(&dir, 1, 16);
    let somm = mseed_system(&repo, SommelierConfig::default());
    for sql in ["SELECTé FROM t", "ANALYZé", "  ANALYZEé x", "é"] {
        assert!(somm.explain(sql).is_err(), "{sql:?} should not compile");
    }
    let t4 = "SELECT AVG(D.sample_value) FROM dataview \
              WHERE F.station = 'ISK' AND F.channel = 'BHE' \
              AND D.sample_time < '2010-01-01T12:00:00.000'";
    assert!(somm.explain(&format!("ANALYZE {t4}")).is_err(), "ANALYZE is not SQL");
    let text = somm.explain_analyze(t4).unwrap();
    assert!(text.contains("-- spans"), "{text}");
}

/// The per-chunk probe gathers only the build columns the aggregate
/// reads: none for T4, the group key for a per-station aggregate.
#[test]
fn explain_prints_the_kept_build_columns() {
    let dir = TempDir::new("optkeeps");
    let repo = ingv_repo(&dir, 2, 16);
    let somm = mseed_system(&repo, SommelierConfig::default());
    let probe_line = |sql: &str| {
        let plan = somm.explain(sql).unwrap();
        let line = plan.lines().find(|l| l.contains("per-chunk probe on"));
        line.unwrap_or_else(|| panic!("no per-chunk probe in {plan}")).trim().to_string()
    };
    let t4 = probe_line(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = 'ISK' AND F.channel = 'BHE' \
         AND D.sample_time >= '2010-01-01T03:00:00.000' \
         AND D.sample_time < '2010-01-02T21:00:00.000'",
    );
    assert!(t4.ends_with("keeps []"), "{t4}");
    let grouped = probe_line(
        "SELECT F.station, COUNT(*) AS n, AVG(D.sample_value) AS a FROM dataview \
         WHERE D.sample_time < '2010-01-02T00:00:00.000' GROUP BY F.station",
    );
    assert!(grouped.ends_with("keeps [F.station]"), "{grouped}");
    let per_row = probe_line(
        "SELECT F.station, AVG(S.frequency) AS f, SUM(D.sample_value) AS s FROM dataview \
         WHERE D.sample_time < '2010-01-02T00:00:00.000' GROUP BY F.station",
    );
    assert!(per_row.ends_with("keeps [F.station, S.frequency]"), "{per_row}");
}

/// EXPLAIN prints a per-chunk selection's column-vs-literal conjuncts
/// as `range` lines beside the probe line: the bounds a chunk whose
/// column is flagged sorted answers by binary search.
#[test]
fn explain_prints_the_range_conjuncts() {
    let dir = TempDir::new("optranges");
    let repo = ingv_repo(&dir, 2, 16);
    let somm = mseed_system(&repo, SommelierConfig::default());
    let ranges = |sql: &str| -> Vec<String> {
        let plan = somm.explain(sql).unwrap();
        plan.lines()
            .filter(|l| l.trim_start().starts_with("range "))
            .map(|l| l.trim().into())
            .collect()
    };
    let t4 = ranges(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = 'ISK' AND D.sample_time >= '2010-01-01T03:00:00.000' \
         AND D.sample_time < '2010-01-02T21:00:00.000'",
    );
    assert_eq!(
        t4,
        ["range D.sample_time ['2010-01-01T03:00:00.000', '2010-01-02T21:00:00.000')"]
    );
    // Literal on the left, open lower end; a comparison of two
    // expressions is no range.
    let open = ranges(
        "SELECT COUNT(*) AS n FROM dataview \
         WHERE '2010-01-02T00:00:00.000' >= D.sample_time AND D.sample_value > D.seg_id",
    );
    assert_eq!(open, ["range D.sample_time (-inf, '2010-01-02T00:00:00.000']"]);
    // Two bounds of one side open a second interval; each column gets
    // its own line.
    let twice = ranges(
        "SELECT COUNT(*) AS n FROM dataview WHERE D.sample_time > 5 \
         AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_value < 3",
    );
    assert_eq!(
        twice,
        [
            "range D.sample_time (5, +inf)",
            "range D.sample_time ['2010-01-01T00:00:00.000', +inf)",
            "range D.sample_value (-inf, 3)"
        ]
    );
    // Raw rows: no aggregate to fuse, so the chunk union stays and
    // its selection still runs inside each chunk, with its range line.
    let raw = somm
        .explain(
            "SELECT D.sample_value FROM dataview WHERE F.station = 'ISK' \
             AND D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-02T21:00:00.000'",
        )
        .unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    let union = lines
        .iter()
        .position(|l| l.trim_start().starts_with("ChunkUnion D"))
        .unwrap_or_else(|| panic!("no ChunkUnion D in {raw}"));
    assert!(lines[union].ends_with("(pushed into chunks)"), "{raw}");
    assert_eq!(
        lines[union + 1].trim(),
        "range D.sample_time ['2010-01-01T03:00:00.000', '2010-01-02T21:00:00.000')",
        "{raw}"
    );
    assert!(!raw.contains("PartialAggUnion"), "{raw}");
    // No pushed-down selection (T5): no range line.
    assert!(ranges(
        "SELECT AVG(D.sample_value) FROM windowdataview WHERE F.station = 'ISK' \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'"
    )
    .is_empty());
}
