//! Prefetch pipeline end to end: answers stay byte-identical to depth
//! 0 (each load fetches on its decode worker) at every window depth,
//! under transient faults, and under a ~1-chunk cellar budget (where
//! the window must degrade to depth 0 instead of deadlocking or
//! busting the budget); cancellation mid-prefetch leaves zero staged
//! bytes and zero pinned chunks.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{
    FaultInjector, FaultPlan, LoadingMode, Metric, ObsLevel, QueryOptions, RetryPolicy,
    Sommelier, SommelierConfig, SommelierError,
};
use sommelier_engine::EngineError;
use sommelier_integration::{ingv_repo, wait_until, TempDir};
use sommelier_mseed::{MseedAdapter, Repository};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn config(threads: usize, depth: usize) -> SommelierConfig {
    SommelierConfig {
        max_threads: threads,
        prefetch_depth: depth,
        ..SommelierConfig::default()
    }
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

/// Answers to the full taxonomy, as debug strings (byte-identity).
fn answers(somm: &Sommelier, queries: &[&str], ctx: &str) -> Vec<String> {
    queries
        .iter()
        .map(|sql| {
            let r = somm.query(sql).unwrap_or_else(|e| panic!("{ctx}: {sql} failed: {e}"));
            format!("{:?}", r.relation)
        })
        .collect()
}

/// Every staged byte is gone and every pin released once queries end.
fn assert_drained(somm: &Sommelier, ctx: &str) {
    if let Some(stage) = somm.prefetch_stage() {
        assert_eq!(stage.staged_bytes(), 0, "{ctx}: staged bytes must drain to zero");
    }
    if let Some(cellar) = somm.cellar() {
        assert_eq!(cellar.total_pins(), 0, "{ctx}: no pins may outlive their query");
    }
}

/// T1–T5 at depth 0/2/8 × both adapters × lazy/eager × 1/8 workers are
/// byte-identical to the depth-0 run, and at least one lazy windowed
/// run actually consumed prefetched bytes (hits > 0).
#[test]
fn taxonomy_byte_identical_across_depths() {
    let dir = TempDir::new("prefetch-taxonomy");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    let mut hits_seen = false;
    for adapter in ["mseed", "eventlog"] {
        let queries = if adapter == "mseed" { mseed_queries() } else { eventlog_queries() };
        let build = |depth: usize, threads: usize| -> Sommelier {
            if adapter == "mseed" {
                mseed_system(&repo, config(threads, depth))
            } else {
                eventlog_system(&logs, config(threads, depth))
            }
        };
        for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
            for threads in [1usize, 8] {
                // Control: same adapter, mode, and worker count with the
                // window off — each load fetches on its decode worker.
                let reference = {
                    let somm = build(0, threads);
                    assert!(somm.prefetch_stage().is_none(), "depth 0 builds no stage");
                    somm.prepare(mode).unwrap();
                    answers(&somm, &queries, &format!("{adapter} {mode} x{threads} depth=0"))
                };
                for depth in [2usize, 8] {
                    let ctx = format!("{adapter} {mode} x{threads} depth={depth}");
                    let somm = build(depth, threads);
                    somm.prepare(mode).unwrap();
                    assert_eq!(
                        answers(&somm, &queries, &ctx),
                        reference,
                        "{ctx}: answers must be byte-identical to depth 0"
                    );
                    assert_drained(&somm, &ctx);
                    if mode == LoadingMode::Lazy {
                        hits_seen |= somm.metrics().get(Metric::PrefetchHits) > 0;
                    }
                }
            }
        }
    }
    assert!(hits_seen, "at least one lazy run must consume prefetched bytes");
}

/// A 50% transient-fault plan whose seed fails the first load of
/// `uri`. Fault decisions hash `(seed, uri, attempt)` and the temp-dir
/// URIs differ from run to run, so a fixed seed would inject nothing on
/// some runs; a seed that fails one chunk the queries always load makes
/// injection certain on every run.
fn half_transient_failing_first_load_of(uri: &Path) -> FaultPlan {
    let uri = uri.to_string_lossy();
    (0..)
        .map(|seed| FaultPlan { seed, ..FaultPlan::transient(0.5) })
        .find(|plan| FaultInjector::new(plan.clone()).before_load(&uri).is_err())
        .expect("some seed fails a 50% first attempt")
}

/// Prefetch + fault injection compose: at a 50% transient fault rate
/// (faults fire on the IO thread, inside the prefetched fetch) every
/// answer matches the fault-free depth-0 run, nothing is quarantined,
/// and no staged bytes leak.
#[test]
fn byte_identical_under_transient_faults() {
    let dir = TempDir::new("prefetch-faults");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    // The event-log `eventview` query reads this chunk.
    let plan = half_transient_failing_first_load_of(&logs.join("web-1-api-20110301.evl"));
    let mut faults_seen = false;
    for adapter in ["mseed", "eventlog"] {
        let queries = if adapter == "mseed" { mseed_queries() } else { eventlog_queries() };
        let build = |cfg: SommelierConfig| -> Sommelier {
            if adapter == "mseed" {
                mseed_system(&repo, cfg)
            } else {
                eventlog_system(&logs, cfg)
            }
        };
        let reference = {
            let somm = build(config(8, 0));
            somm.prepare(LoadingMode::Lazy).unwrap();
            answers(&somm, &queries, &format!("{adapter} clean reference"))
        };
        for depth in [2usize, 8] {
            let ctx = format!("{adapter} depth={depth} faults=0.5");
            let somm =
                build(SommelierConfig { fault_plan: Some(plan.clone()), ..config(8, depth) });
            somm.prepare(LoadingMode::Lazy).unwrap();
            assert_eq!(answers(&somm, &queries, &ctx), reference, "{ctx}");
            assert!(
                somm.quarantined_chunks().is_empty(),
                "{ctx}: transient never quarantines"
            );
            assert_drained(&somm, &ctx);
            faults_seen |= somm.fault_injector().unwrap().injected().transient > 0;
        }
    }
    assert!(faults_seen, "a 50% fault rate must inject something");
}

/// Under a cellar budget of roughly one chunk, a deep window degrades
/// to (near) depth 0: queries still answer correctly, nothing
/// deadlocks, and no staged bytes outlive the run.
#[test]
fn tiny_budget_degrades_to_depth_zero_without_deadlock() {
    let dir = TempDir::new("prefetch-budget");
    let logs = eventlog_repo(&dir, 3, 32);
    let queries = eventlog_queries();
    let reference = {
        let somm = eventlog_system(&logs, config(4, 0));
        somm.prepare(LoadingMode::Lazy).unwrap();
        answers(&somm, &queries, "budget reference")
    };
    // One decoded eventlog chunk here is well under 4 KiB; a 4 KiB
    // budget fits ~1 chunk, so the probe must stall the window.
    let somm = eventlog_system(
        &logs,
        SommelierConfig { cellar_bytes: Some(4 * 1024), ..config(4, 8) },
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    assert_eq!(answers(&somm, &queries, "tiny budget"), reference);
    let stage = somm.prefetch_stage().unwrap();
    assert_eq!(stage.staged_bytes(), 0, "staged bytes drain even when the budget stalls");
    assert_drained(&somm, "tiny budget");
}

/// Cancelling a query stuck retrying inside prefetched fetches (every
/// attempt fails transiently on the IO thread) releases every pin and
/// every staged byte: the window is abandoned, late publishes are
/// counted as wasted, nothing leaks.
#[test]
fn cancellation_mid_prefetch_releases_staged_bytes_and_pins() {
    let dir = TempDir::new("prefetch-cancel");
    let logs = eventlog_repo(&dir, 3, 32);
    let somm = eventlog_system(
        &logs,
        SommelierConfig {
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
            ..config(4, 8)
        },
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    let opts =
        QueryOptions { timeout: Some(Duration::from_millis(50)), ..Default::default() };
    // T4-shaped (no internal derivation, so the timeout token reaches
    // every load) but spanning all three days: the window issues
    // several fetches before the deadline hits.
    let t4_all_days = "SELECT AVG(E.val) FROM eventview \
         WHERE G.host = 'web-1' AND G.service = 'api' \
         AND E.ts >= '2011-03-01T00:00:00.000' \
         AND E.ts < '2011-03-04T00:00:00.000'";
    let err = somm.query_opts(t4_all_days, &opts).unwrap_err();
    assert!(
        matches!(err, SommelierError::Engine(EngineError::Cancelled { .. })),
        "expected cancellation, got {err:?}"
    );
    assert_eq!(somm.cellar().unwrap().total_pins(), 0, "zero pins after cancel");
    // IO threads notice the cancel at their next retry checkpoint;
    // the stage must then drain fully.
    let stage = somm.prefetch_stage().unwrap();
    wait_until("fully drained prefetch stage", || stage.staged_bytes() == 0);
}

/// The observability surface: `prefetch.*` counters in the metrics
/// snapshot and a `prefetch` span in the EXPLAIN ANALYZE tree.
#[test]
fn prefetch_surfaces_in_metrics_and_spans() {
    let dir = TempDir::new("prefetch-obs");
    let logs = eventlog_repo(&dir, 3, 32);
    let somm = eventlog_system(
        &logs,
        SommelierConfig { observability: ObsLevel::Spans, ..config(4, 2) },
    );
    somm.prepare(LoadingMode::Lazy).unwrap();
    // T5 touches two chunks cold: the second one's bytes arrive via the
    // window while the first decodes.
    let text = somm.explain_analyze(eventlog_queries()[4]).unwrap();
    assert!(text.contains("prefetch"), "EXPLAIN ANALYZE missing prefetch span:\n{text}");
    let snap = somm.metrics_snapshot();
    assert!(snap.counter("prefetch.issued") >= Some(1), "issued counted");
    assert!(snap.counter("prefetch.hits") >= Some(1), "hits counted");
    assert!(snap.counter("prefetch.wasted_bytes").is_some());
    assert!(snap.counter("prefetch.io_wait_ns").is_some());
    assert_eq!(snap.gauge("prefetch.staged_bytes"), Some(0));
}
