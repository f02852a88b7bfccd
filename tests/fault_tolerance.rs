//! Fault-tolerant chunk IO end to end: deterministic injection at the
//! decode seam, retry/backoff recovery that stays byte-identical to the
//! fault-free run, strict-vs-skip degradation, chunk quarantine, and
//! pin hygiene under cancellation mid-backoff.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{
    DegradationPolicy, FaultPlan, LoadingMode, ObsLevel, QueryOptions, RetryPolicy,
    Sommelier, SommelierConfig, SommelierError,
};
use sommelier_engine::EngineError;
use sommelier_integration::{chunk_files, ingv_repo, TempDir};
use sommelier_mseed::{MseedAdapter, Repository};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn config(threads: usize, plan: Option<FaultPlan>) -> SommelierConfig {
    SommelierConfig { max_threads: threads, fault_plan: plan, ..SommelierConfig::default() }
}

fn mseed_system(repo: &Repository, cfg: SommelierConfig) -> Sommelier {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(cfg)
        .build()
        .unwrap()
}

fn eventlog_repo(dir: &TempDir, days: u32, events: u32) -> PathBuf {
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(days, events)).unwrap();
    logs
}

fn eventlog_system(logs: &Path, cfg: SommelierConfig) -> Sommelier {
    Sommelier::builder().source(EventLogAdapter::new(logs)).config(cfg).build().unwrap()
}

/// The paper's taxonomy against the seismology source.
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
         WHERE F.station = 'ISK' AND F.channel = 'BHE' \
         AND D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-02T00:00:00.000'",
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
    ]
}

/// The same taxonomy against the event-log source.
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
        "SELECT AVG(E.val) FROM eventview \
         WHERE G.host = 'web-1' AND G.service = 'api' \
         AND E.ts >= '2011-03-01T00:00:00.000' \
         AND E.ts < '2011-03-02T00:00:00.000'",
        "SELECT AVG(E.val) FROM daylogview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
    ]
}

/// T1–T5 on both adapters × lazy/eager × 1/8 workers stay byte-identical
/// to the fault-free run when half of all load attempts fail with
/// injected transient IO errors: the retry budget (4 attempts) absorbs
/// the per-chunk fault bound (2).
#[test]
fn taxonomy_byte_identical_under_transient_faults() {
    let dir = TempDir::new("faults-taxonomy");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    let mut lazy_faults_seen = false;
    for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
        for threads in [1usize, 8] {
            for adapter in ["mseed", "eventlog"] {
                let plan = Some(FaultPlan::transient(0.5));
                let (clean, faulty, queries) = if adapter == "mseed" {
                    (
                        mseed_system(&repo, config(threads, None)),
                        mseed_system(&repo, config(threads, plan)),
                        mseed_queries(),
                    )
                } else {
                    (
                        eventlog_system(&logs, config(threads, None)),
                        eventlog_system(&logs, config(threads, plan)),
                        eventlog_queries(),
                    )
                };
                clean.prepare(mode).unwrap();
                faulty.prepare(mode).unwrap();
                for (i, sql) in queries.iter().enumerate() {
                    let ctx = format!("{adapter} T{} {mode} x{threads}", i + 1);
                    let a = clean.query(sql).unwrap();
                    let b = faulty
                        .query(sql)
                        .unwrap_or_else(|e| panic!("{ctx} failed under faults: {e}"));
                    assert_eq!(
                        format!("{:?}", a.relation),
                        format!("{:?}", b.relation),
                        "{ctx}: answers must be byte-identical under transient faults"
                    );
                    assert!(b.degraded.is_none(), "{ctx}: retries are not degradation");
                }
                if mode == LoadingMode::Lazy {
                    lazy_faults_seen |=
                        faulty.fault_injector().unwrap().injected().transient > 0;
                }
            }
        }
    }
    assert!(lazy_faults_seen, "lazy runs at 50% fault rate must inject something");
}

/// Retries surface in the observability layer: a `retry` span under the
/// load span in EXPLAIN ANALYZE, and the `fault.*` counter family in
/// the metrics snapshot.
#[test]
fn retries_surface_in_spans_and_metrics() {
    let dir = TempDir::new("faults-obs");
    let logs = eventlog_repo(&dir, 3, 32);
    let somm = eventlog_system(
        &logs,
        SommelierConfig {
            observability: ObsLevel::Spans,
            fault_plan: Some(FaultPlan::transient(1.0)),
            ..SommelierConfig::default()
        },
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    // Rate 1.0: the first load of every chunk hits its per-chunk fault
    // budget, so the very first data query must retry.
    let text = somm.explain_analyze(eventlog_queries()[3]).unwrap();
    assert!(text.contains("retry"), "EXPLAIN ANALYZE missing retry span:\n{text}");
    let snap = somm.metrics_snapshot();
    assert!(snap.counter("fault.io_retries") >= Some(1), "retries counted");
    assert!(snap.counter("fault.faults_injected") >= Some(1), "injections counted");
    assert_eq!(snap.counter("fault.chunks_quarantined"), Some(0));
    assert_eq!(snap.counter("fault.queries_degraded"), Some(0));
}

/// `fault.io_retries` is counted per system: a clean system reports
/// none of the retries a faulty system in the same process performed.
#[test]
fn io_retries_are_counted_per_system() {
    let dir = TempDir::new("faults-per-system");
    let logs = eventlog_repo(&dir, 3, 32);
    let faulty = eventlog_system(&logs, config(2, Some(FaultPlan::transient(1.0))));
    let clean = eventlog_system(&logs, config(2, None));
    for somm in [&faulty, &clean] {
        somm.prepare(LoadingMode::Lazy).unwrap();
        somm.query(eventlog_queries()[3]).unwrap();
    }
    assert!(faulty.metrics_snapshot().counter("fault.io_retries") >= Some(1));
    assert_eq!(clean.metrics_snapshot().counter("fault.io_retries"), Some(0));
}

/// A permanently corrupt chunk fails a Strict query with a typed error
/// naming the chunk, quarantines it, and never poisons unrelated (or
/// even repeated) queries; the quarantined file is not touched again.
#[test]
fn strict_permanent_failure_quarantines_without_poisoning() {
    let dir = TempDir::new("faults-strict");
    let logs = eventlog_repo(&dir, 2, 48);
    let chunks = chunk_files(&logs);
    let victim = chunks[0].clone();
    let somm = eventlog_system(
        &logs,
        config(
            4,
            Some(FaultPlan { corrupt_uris: vec![victim.clone()], ..FaultPlan::default() }),
        ),
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    let all_rows = "SELECT COUNT(*) AS n FROM eventview WHERE E.val > -1000000000";
    let err = somm.query(all_rows).unwrap_err();
    assert!(err.to_string().contains(&victim), "error must name the chunk: {err}");
    assert!(
        matches!(
            &err,
            SommelierError::Engine(EngineError::ChunkLoad { uri, .. }) if *uri == victim
        ),
        "typed chunk-load error expected, got {err:?}"
    );
    let quarantined = somm.quarantined_chunks();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, victim);
    let touched = somm.fault_injector().unwrap().injected().corrupt;
    assert!(touched >= 1);
    // Repeating the query still fails (strict) — but via the
    // quarantine list, without re-reading the broken file.
    let err2 = somm.query(all_rows).unwrap_err();
    assert!(err2.to_string().contains("quarantined"), "{err2}");
    assert_eq!(
        somm.fault_injector().unwrap().injected().corrupt,
        touched,
        "file not re-touched"
    );
    // Metadata-only and disjoint data queries are untouched.
    somm.query(eventlog_queries()[0]).unwrap();
    let other = chunks.iter().find(|c| **c != victim).unwrap();
    let r = somm
        .query(&format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{other}'"))
        .unwrap();
    assert_eq!(r.relation.rows(), 1);
    assert_eq!(somm.metrics_snapshot().counter("fault.chunks_quarantined"), Some(1));
}

/// SkipUnreadable completes over the readable subset and reports
/// exactly what was skipped: total row count drops by precisely the
/// victim chunk's rows.
#[test]
fn skip_mode_answers_over_readable_subset_with_accurate_report() {
    let dir = TempDir::new("faults-skip");
    let logs = eventlog_repo(&dir, 2, 48);
    let victim = chunk_files(&logs)[0].clone();
    let clean = eventlog_system(&logs, config(4, None));
    clean.prepare(LoadingMode::Lazy).unwrap();
    let faulty = eventlog_system(
        &logs,
        config(
            4,
            Some(FaultPlan { corrupt_uris: vec![victim.clone()], ..FaultPlan::default() }),
        ),
    );
    faulty.prepare(LoadingMode::Lazy).unwrap();
    let count = |r: &sommelier_core::QueryResult| match r.relation.value(0, "n").unwrap() {
        sommelier_storage::Value::Int(n) => n,
        other => panic!("unexpected {other:?}"),
    };
    let all_rows = "SELECT COUNT(*) AS n FROM eventview WHERE E.val > -1000000000";
    let total = count(&clean.query(all_rows).unwrap());
    let victim_rows = count(
        &clean
            .query(&format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{victim}'"))
            .unwrap(),
    );
    assert!(victim_rows > 0, "victim chunk must hold rows for the test to mean anything");
    let opts =
        QueryOptions { degradation: DegradationPolicy::SkipUnreadable, ..Default::default() };
    let r = faulty.query_opts(all_rows, &opts).unwrap();
    assert_eq!(count(&r), total - victim_rows, "answer covers exactly the readable rest");
    assert_eq!(r.stats.files_skipped, 1);
    let d = r.degraded.expect("degraded report present");
    assert_eq!(d.skipped_chunks, vec![victim.clone()]);
    assert!(d.reasons[0].contains("bad magic"), "reason carries the cause: {}", d.reasons[0]);
    // The skip quarantined the chunk; a second skip query still reports
    // it (via stage 1) without touching the file again.
    let touched = faulty.fault_injector().unwrap().injected().corrupt;
    let r2 = faulty.query_opts(all_rows, &opts).unwrap();
    assert_eq!(count(&r2), total - victim_rows);
    assert_eq!(r2.degraded.unwrap().skipped_chunks, vec![victim]);
    assert_eq!(faulty.fault_injector().unwrap().injected().corrupt, touched);
    assert!(faulty.metrics_snapshot().counter("fault.queries_degraded") >= Some(2));
}

/// Cancelling a query stuck in retry/backoff (every attempt failing
/// transiently, effectively an unbounded retry budget) releases every
/// pin and quarantines nothing.
#[test]
fn cancellation_during_backoff_releases_all_pins() {
    let dir = TempDir::new("faults-cancel");
    let logs = eventlog_repo(&dir, 2, 32);
    let somm = eventlog_system(
        &logs,
        SommelierConfig {
            max_threads: 4,
            fault_plan: Some(FaultPlan {
                transient_rate: 1.0,
                max_transient_per_chunk: u32::MAX,
                ..FaultPlan::default()
            }),
            io_retry: RetryPolicy {
                max_attempts: 100_000,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(5),
            },
            ..SommelierConfig::default()
        },
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    let opts =
        QueryOptions { timeout: Some(Duration::from_millis(50)), ..Default::default() };
    let err = somm.query_opts(eventlog_queries()[3], &opts).unwrap_err();
    assert!(
        matches!(err, SommelierError::Engine(EngineError::Cancelled { .. })),
        "expected cancellation, got {err:?}"
    );
    let cellar = somm.cellar().unwrap();
    assert_eq!(cellar.total_pins(), 0, "cancelled query must leave zero pinned chunks");
    assert!(somm.quarantined_chunks().is_empty(), "transient faults never quarantine");
    assert!(
        somm.fault_injector().unwrap().injected().transient > 0,
        "the query did hit the injector"
    );
}
