//! The multi-tenant query server end to end: byte-identical T1–T5
//! results under 1/4/16 concurrent sessions on both source adapters,
//! bounded worker threads under concurrency (the shared morsel
//! scheduler), observable priority ordering under a saturated server,
//! typed timeout errors, the cancellation pin-leak regression, and
//! control threads reused across submits.
//! Events that must land mid-query do so on a fault-injector hold:
//! the query's loads park until the test releases them.

use sommelier_core::adapters::{generate_event_logs, EventLogSpec};
use sommelier_core::{FaultPlan, LoadingMode, Metric, Priority, Sommelier, SommelierConfig};
use sommelier_integration::{
    eventlog_system, fiam_repo, ingv_repo, prepared, wait_for_admission, wait_until, TempDir,
};
use sommelier_mseed::Repository;
use sommelier_server::{Server, ServerError, SessionOptions, SubmitOptions};
use sommelier_storage::sync::unpoison;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Serialize the tests in this file: the priority/timing assertions
/// want an unloaded machine.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    unpoison(LOCK.get_or_init(|| Mutex::new(())).lock())
}

fn server_config(threads: usize) -> SommelierConfig {
    SommelierConfig { max_threads: threads, ..SommelierConfig::default() }
}

/// Two workers and a fault injector that injects nothing, so a test
/// can park loads on its hold.
fn held_config() -> SommelierConfig {
    SommelierConfig { fault_plan: Some(FaultPlan::default()), ..server_config(2) }
}

fn mseed_system(repo: &Repository, config: SommelierConfig) -> Sommelier {
    prepared(repo, LoadingMode::Lazy, config)
}

/// The paper's T1–T5 taxonomy against the seismology source.
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

/// A T4-shaped query over every day of the FIAM station: several chunk
/// loads, so a held query has loads still to come after its release.
const ALL_DAYS_T4: &str = "SELECT AVG(D.sample_value) FROM dataview \
     WHERE F.station = 'FIAM' AND F.channel = 'HHZ' \
     AND D.sample_time >= '2010-01-01T00:00:00.000' \
     AND D.sample_time < '2010-01-09T00:00:00.000'";

#[test]
fn results_byte_identical_under_concurrent_sessions_on_both_adapters() {
    let _x = exclusive();
    let dir = TempDir::new("server-identical");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(3, 32)).unwrap();
    for adapter in ["mseed", "eventlog"] {
        let (somm, queries) = if adapter == "mseed" {
            (mseed_system(&repo, server_config(4)), mseed_queries())
        } else {
            (eventlog_system(&logs, server_config(4)), eventlog_queries())
        };
        assert!(somm.scheduler().is_some(), "shared scheduler on by default");
        // Serial reference: every query once, single-threaded caller.
        let mut max_selected = 0;
        let reference: Vec<String> = queries
            .iter()
            .map(|sql| {
                let r = somm.query(sql).unwrap();
                max_selected = max_selected.max(r.stats.files_selected);
                format!("{:?}", r.relation)
            })
            .collect();
        let server = Server::new(Arc::new(somm));
        for sessions in [1usize, 4, 16] {
            std::thread::scope(|scope| {
                for s in 0..sessions {
                    let server = server.clone();
                    let queries = &queries;
                    let reference = &reference;
                    scope.spawn(move || {
                        let session = server.open_session(SessionOptions::default());
                        // Stagger query order per session so chunk
                        // interleavings actually differ across clients.
                        for k in 0..queries.len() {
                            let i = (k + s) % queries.len();
                            let r = session.submit(queries[i]).unwrap().wait().unwrap();
                            assert_eq!(
                                format!("{:?}", r.relation),
                                reference[i],
                                "{adapter} T{} under {sessions} sessions drifted",
                                i + 1
                            );
                            assert!(r.stats.accounting_balanced());
                        }
                    });
                }
            });
            assert_eq!(server.active_sessions(), 0, "sessions closed");
        }
        // Bounded worker threads: every morsel batch runs on the one
        // shared pool (or inline), no matter how many sessions ran.
        let sched = Arc::clone(server.sommelier().scheduler().unwrap());
        assert_eq!(sched.worker_count(), 4, "pool size == max_threads");
        // Single-chunk waves run inline by design; only multi-chunk
        // queries must have landed on the shared pool.
        if max_selected > 1 {
            let batches = server.sommelier().metrics().get(Metric::SchedBatches);
            assert!(batches > 0, "morsels actually ran on the shared pool");
        }
        // Pins all returned.
        assert_eq!(server.sommelier().cellar().unwrap().total_pins(), 0);
    }
}

#[test]
fn priority_ordering_observable_under_saturated_server() {
    let _x = exclusive();
    let dir = TempDir::new("server-priority");
    let repo = fiam_repo(&dir, 8, 64);
    // One admission slot and a held load: the first query saturates
    // the server; everything else queues in the admission controller,
    // which serves the highest priority first. A zero cellar budget
    // makes every run decode; with one slot, its admission gate (one
    // lazy query at a time) and prefetch off change nothing. A 20 ms
    // spike on every load keeps each query far slower than a waiter's
    // wake-up, so completion order is admission order.
    let config = SommelierConfig {
        admission_max_concurrent: 1,
        cellar_bytes: Some(0),
        fault_plan: Some(FaultPlan {
            spike_rate: 1.0,
            spike: Duration::from_millis(20),
            ..FaultPlan::default()
        }),
        ..server_config(2)
    };
    let somm = mseed_system(&repo, config);
    let server = Server::new(Arc::new(somm));
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    let hold = server.sommelier().fault_injector().unwrap().hold();
    let hog = server.open_session(SessionOptions::default());
    let running = hog.submit(ALL_DAYS_T4).unwrap();
    // The hog wins the admission slot and parks mid-load before
    // anyone queues.
    hold.wait_parked(1);

    let mut waiters = Vec::new();
    // Low queues first, High second; High must still finish first.
    for (n, (tag, priority)) in
        [("low", Priority::Low), ("high", Priority::High)].into_iter().enumerate()
    {
        let srv = server.clone();
        let order = Arc::clone(&order);
        waiters.push(std::thread::spawn(move || {
            let session = srv.open_session(SessionOptions { priority, ..Default::default() });
            session.submit(ALL_DAYS_T4).unwrap().wait().unwrap();
            order.lock().unwrap().push(tag);
        }));
        // Deterministic enqueue order: wait until this waiter is
        // actually queued before releasing the next one.
        wait_for_admission(server.sommelier(), "queued waiter", |m| {
            m.get(Metric::AdmissionQueueDepth) > n as u64
        });
    }
    // The hog is still holding the slot, so ordering says something.
    let metrics = server.sommelier().metrics();
    assert_eq!(metrics.get(Metric::AdmissionQueueDepth), 2, "both waiters queued");
    hold.release();
    running.wait().unwrap();
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(
        *order.lock().unwrap(),
        vec!["high", "low"],
        "high priority must overtake the earlier-queued low-priority query"
    );
    assert_eq!(metrics.get(Metric::AdmissionAdmitted), 3);
    assert_eq!(metrics.get(Metric::AdmissionRunning), 0);
}

#[test]
fn timeout_fires_with_typed_error() {
    let _x = exclusive();
    let dir = TempDir::new("server-timeout");
    let repo = fiam_repo(&dir, 8, 64);
    let somm = mseed_system(&repo, held_config());
    let server = Server::new(Arc::new(somm));
    let session = server.open_session(SessionOptions {
        default_timeout: Some(Duration::from_millis(120)),
        ..Default::default()
    });
    // Loads stay parked until the deadline has passed, so the query
    // cannot finish in time however fast the machine is.
    let hold = server.sommelier().fault_injector().unwrap().hold();
    let handle = session.submit(ALL_DAYS_T4).unwrap();
    wait_until("blown deadline", || handle.cancel_token().cancelled().is_some());
    hold.release();
    let err = handle.wait().unwrap_err();
    assert!(matches!(err, ServerError::TimedOut), "expected TimedOut, got: {err}");
    // A per-submit override beats the session default.
    let r = session
        .submit_with(
            ALL_DAYS_T4,
            &SubmitOptions { timeout: Some(Duration::from_secs(120)), ..Default::default() },
        )
        .unwrap()
        .wait();
    assert!(r.is_ok(), "generous override must let the query finish: {:?}", r.err());
    assert_eq!(server.sommelier().cellar().unwrap().total_pins(), 0);
}

#[test]
fn cancellation_mid_query_leaves_no_pinned_chunks() {
    let _x = exclusive();
    let dir = TempDir::new("server-cancel-pins");
    let repo = fiam_repo(&dir, 8, 64);
    let somm = mseed_system(&repo, held_config());
    let cellar = somm.cellar().unwrap();
    let server = Server::new(Arc::new(somm));
    let session = server.open_session(SessionOptions::default());
    for round in 0..3 {
        // A cold cellar each round, so the query has loads to park.
        server.sommelier().flush_caches();
        let hold = server.sommelier().fault_injector().unwrap().hold();
        let handle = session.submit(ALL_DAYS_T4).unwrap();
        // The query is mid-flight in its decode wave: pull the plug.
        hold.wait_parked(1);
        handle.cancel();
        hold.release();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, ServerError::Cancelled), "round {round}: got {err}");
        // The regression this guards: a cancelled wave must release
        // every pin it took.
        assert_eq!(cellar.total_pins(), 0, "round {round}: cancel leaked pins");
    }
    // And the system is still fully usable afterwards.
    let r = session.submit(ALL_DAYS_T4).unwrap().wait().unwrap();
    assert_eq!(r.relation.rows(), 1);
    assert_eq!(cellar.total_pins(), 0);
}

#[test]
fn session_quota_rejects_excess_in_flight_queries() {
    let _x = exclusive();
    let dir = TempDir::new("server-quota");
    let repo = fiam_repo(&dir, 4, 64);
    let somm = mseed_system(&repo, held_config());
    let server = Server::new(Arc::new(somm));
    let session =
        server.open_session(SessionOptions { max_in_flight: 1, ..Default::default() });
    // The first query stays in flight while its loads are held.
    let hold = server.sommelier().fault_injector().unwrap().hold();
    let running = session.submit(ALL_DAYS_T4).unwrap();
    let err = session.submit(ALL_DAYS_T4).unwrap_err();
    assert!(matches!(err, ServerError::QuotaExceeded { limit: 1 }), "{err}");
    hold.release();
    running.wait().unwrap();
    // Slot free again.
    session.submit(ALL_DAYS_T4).unwrap().wait().unwrap();
}

/// A shutdown whose drain waits on one in-flight query returns as that
/// query publishes its result, not on the next tick of a poll: over 20
/// trials the median gap between the query finishing and `shutdown`
/// returning stays under 0.5 ms.
#[test]
fn shutdown_returns_as_the_last_query_finishes() {
    let _x = exclusive();
    let dir = TempDir::new("server-drain-wakeup");
    let repo = fiam_repo(&dir, 2, 32);
    // One thread: no scheduler workers to join, so the shutdown's own
    // work after the drain is a few reads.
    let config =
        SommelierConfig { fault_plan: Some(FaultPlan::default()), ..server_config(1) };
    let mut lags: Vec<Duration> = (0..20u32)
        .map(|trial| {
            let server = Server::new(Arc::new(mseed_system(&repo, config.clone())));
            let session = server.open_session(SessionOptions::default());
            let hold = server.sommelier().fault_injector().unwrap().hold();
            let handle = session.submit(ALL_DAYS_T4).unwrap();
            hold.wait_parked(1);
            let draining = server.clone();
            let shutdown = std::thread::spawn(move || {
                let report = draining.shutdown(Duration::from_secs(30));
                (std::time::Instant::now(), report)
            });
            // Let the shutdown reach its drain before the query can end;
            // the 0.1 ms steps spread the release over a 2 ms poll tick.
            std::thread::sleep(Duration::from_millis(5) + Duration::from_micros(100) * trial);
            hold.release();
            handle.wait().unwrap();
            let finished = std::time::Instant::now();
            let (returned, report) = shutdown.join().unwrap();
            assert_eq!((report.drained, report.cancelled), (1, 0), "{report:?}");
            returned.saturating_duration_since(finished)
        })
        .collect();
    lags.sort();
    let median = lags[lags.len() / 2];
    assert!(
        median < Duration::from_micros(500),
        "shutdown returned a median {median:?} after the query finished: {lags:?}"
    );
}

/// Drop-order lifecycle: dropping the last `Server` clone (and its
/// sessions) with queries still mid-flight, mid-retry-backoff, or
/// mid-prefetch must cancel and drain them — zero pinned chunks and
/// zero staged prefetch bytes afterwards, with the shared `Sommelier`
/// still fully usable.
#[test]
fn dropping_server_mid_flight_mid_backoff_mid_prefetch_releases_everything() {
    use sommelier_core::RetryPolicy;
    let _x = exclusive();
    let dir = TempDir::new("server-drop-order");
    let repo = fiam_repo(&dir, 8, 64);
    for scenario in ["mid-flight", "mid-backoff", "mid-prefetch"] {
        let config = match scenario {
            // A held load: the drop lands inside a decode wave.
            "mid-flight" => held_config(),
            // Every attempt fails transiently with an effectively
            // unbounded retry budget: the drop lands inside backoff.
            "mid-backoff" => SommelierConfig {
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
                ..server_config(2)
            },
            // A deep prefetch window with its reads held on the IO
            // threads: the drop lands with the whole window in flight,
            // and the reads complete for a cancelled query.
            _ => SommelierConfig { prefetch_depth: 4, ..held_config() },
        };
        let somm = Arc::new(mseed_system(&repo, config));
        // Loads parked when the drop lands: one mid-flight, the whole
        // window mid-prefetch.
        let parked = match scenario {
            "mid-flight" => 1,
            "mid-prefetch" => 4,
            _ => 0,
        };
        let hold = (parked > 0).then(|| somm.fault_injector().unwrap().hold());
        let releaser = {
            let server = Server::new(Arc::clone(&somm));
            let session = server.open_session(SessionOptions::default());
            let running = session.submit(ALL_DAYS_T4).unwrap();
            let cancel = running.cancel_token().clone();
            // Let the query get properly underway before pulling the rug.
            match hold {
                Some(hold) => {
                    hold.wait_parked(parked);
                    // A parked load never wakes on its own: open the
                    // gate once the drop drain has fired the cancel.
                    Some(std::thread::spawn(move || {
                        wait_until("drop-drain cancel", || cancel.cancelled().is_some());
                        hold.release();
                    }))
                }
                None => {
                    wait_until("injected transient fault", || {
                        somm.fault_injector().unwrap().injected().transient > 0
                    });
                    None
                }
            }
            // Handle first, then session, then the last server clone:
            // the shared drop drain cancels the orphaned query and
            // waits for it to unwind.
        };
        if let Some(r) = releaser {
            r.join().unwrap();
        }
        assert_eq!(
            somm.cellar().unwrap().total_pins(),
            0,
            "{scenario}: dropped server leaked pins"
        );
        assert_eq!(
            somm.prefetch_stage().map_or(0, |s| s.staged_bytes()),
            0,
            "{scenario}: dropped server leaked staged prefetch bytes"
        );
        assert!(somm.quarantined_chunks().is_empty(), "{scenario}: cancellation quarantined");
        // The system itself was not shut down — it serves the next
        // server instance (or direct queries) as before.
        if scenario != "mid-backoff" {
            let r = somm.query("SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'").unwrap();
            assert_eq!(r.relation.rows(), 1);
        }
    }
}

#[test]
fn scheduler_and_admission_metrics_reach_the_snapshot() {
    let _x = exclusive();
    let dir = TempDir::new("server-metrics");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, server_config(4));
    let server = Server::new(Arc::new(somm));
    let session = server.open_session(SessionOptions::default());
    session.submit(mseed_queries()[3]).unwrap().wait().unwrap();
    let snap = server.sommelier().metrics_snapshot();
    for counter in [
        "sched.batches",
        "sched.tasks",
        "sched.busy_ns",
        "admission.admitted",
        "admission.rejected",
        "admission.cancelled",
        "admission.timeouts",
        "admission.queue_wait_ns",
    ] {
        assert!(snap.counter(counter).is_some(), "documented counter {counter:?} missing");
    }
    for gauge in [
        "sched.workers",
        "sched.queue_depth",
        "admission.running",
        "admission.queue_depth",
        "server.active_sessions",
    ] {
        assert!(snap.gauge(gauge).is_some(), "documented gauge {gauge:?} missing");
    }
    assert_eq!(snap.gauge("sched.workers"), Some(4));
    assert!(snap.counter("admission.admitted") >= Some(1));
    assert_eq!(snap.gauge("server.active_sessions"), Some(1));
    drop(session);
    let snap = server.sommelier().metrics_snapshot();
    assert_eq!(snap.gauge("server.active_sessions"), Some(0));
}

/// Control threads are reused: one session's closed loop runs on one
/// thread, four sessions' closed loops on at most four, and every
/// thread exits once the last server clone drops.
#[test]
fn control_threads_are_reused_and_exit_with_the_server() {
    let _x = exclusive();
    let dir = TempDir::new("server-control-threads");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = Arc::new(mseed_system(&repo, server_config(2)));
    let threads = || somm.metrics().get(Metric::ServerControlThreads);
    let queries = mseed_queries();
    {
        let server = Server::new(Arc::clone(&somm));
        let session = server.open_session(SessionOptions::default());
        for _ in 0..200 {
            session.submit(queries[0]).unwrap().wait().unwrap();
        }
        assert_eq!(threads(), 1, "a closed loop on one session reuses one control thread");
        std::thread::scope(|scope| {
            for s in 0..4 {
                let session = server.open_session(SessionOptions::default());
                let (queries, threads) = (&queries, &threads);
                scope.spawn(move || {
                    for k in 0..25 {
                        session
                            .submit(queries[(k + s) % queries.len()])
                            .unwrap()
                            .wait()
                            .unwrap();
                        let live = threads();
                        assert!(live <= 4, "{live} control threads for 4 closed loops");
                    }
                });
            }
        });
        assert!(threads() <= 4, "{} control threads for 4 closed loops", threads());
    }
    wait_until("control threads to exit", || threads() == 0);
}
