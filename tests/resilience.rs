//! Server lifecycle resilience end to end: graceful drain within a
//! deadline, typed rejection of new and queued work during shutdown,
//! deadline-expired cancellation with balanced books, transient
//! overload with a retry-after contract, panic isolation + per-session
//! quarantine, priority aging under a saturating tenant, and a seeded
//! chaos schedule composing faults × cancellation × timeouts ×
//! saturation × panic injection × shutdown-while-loaded. Events that
//! must land mid-query do so on a fault-injector hold: the query's
//! loads park until the test releases them.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{
    FaultPlan, LoadingMode, Metric, Priority, Sommelier, SommelierConfig, SommelierError,
};
use sommelier_integration::{
    chunk_files, eventlog_system, fiam_repo, prepared, wait_for_admission, wait_until,
    TempDir,
};
use sommelier_mseed::Repository;
use sommelier_server::{Server, ServerError, SessionOptions, SubmitOptions};
use sommelier_storage::sync::unpoison;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serialize the tests in this file: the drain/aging assertions are
/// timing-sensitive and want an unloaded machine.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    unpoison(LOCK.get_or_init(|| Mutex::new(())).lock())
}

fn mseed_system(repo: &Repository, config: SommelierConfig) -> Sommelier {
    prepared(repo, LoadingMode::Lazy, config)
}

/// A T4-shaped query over every day of the FIAM station: several chunk
/// loads, so a held query has loads still to come after its release.
const ALL_DAYS_T4: &str = "SELECT AVG(D.sample_value) FROM dataview \
     WHERE F.station = 'FIAM' AND F.channel = 'HHZ' \
     AND D.sample_time >= '2010-01-01T00:00:00.000' \
     AND D.sample_time < '2010-01-09T00:00:00.000'";

/// Graceful drain: a generous deadline lets in-flight queries finish on
/// their own (drained, nothing cancelled, books balanced), queued
/// admission waiters are woken with the typed error, new submits are
/// rejected, and a second shutdown is an idempotent no-op.
#[test]
fn shutdown_drains_in_flight_within_deadline() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-drain");
    let repo = fiam_repo(&dir, 8, 64);
    let config = SommelierConfig {
        admission_max_concurrent: 1,
        max_threads: 2,
        fault_plan: Some(FaultPlan::default()),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(mseed_system(&repo, config)));
    let session = server.open_session(SessionOptions::default());
    let hold = server.sommelier().fault_injector().unwrap().hold();
    let running = session.submit(ALL_DAYS_T4).unwrap();
    hold.wait_parked(1);
    // A second query parked in the admission queue behind the hog: the
    // shutdown must wake it with the typed error, not leave it hanging.
    let queued = session.submit(ALL_DAYS_T4).unwrap();
    wait_for_admission(server.sommelier(), "queued query", |m| {
        m.get(Metric::AdmissionQueueDepth) > 0
    });

    let deadline = Duration::from_secs(120);
    // The hog stays parked until the shutdown has woken the queued
    // query, so it is still in flight when the drain starts.
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            wait_until("woken admission waiter", || queued.is_finished());
            hold.release();
        });
        server.shutdown(deadline)
    });
    assert!(report.is_clean(), "drain left unbalanced books: {report:?}");
    assert_eq!(report.cancelled, 0, "generous deadline: nothing should be cancelled");
    assert!(report.drained >= 1, "the running query finished in the drain window");
    assert!(report.elapsed < deadline, "drain finished before the deadline");
    let r = running.wait();
    assert!(r.is_ok(), "the in-flight query completed normally: {:?}", r.err());
    assert!(
        matches!(queued.wait().unwrap_err(), ServerError::ShuttingDown),
        "queued admission waiter must be woken with the typed shutdown error"
    );
    assert!(server.is_shutting_down());
    assert!(
        matches!(session.submit(ALL_DAYS_T4).unwrap_err(), ServerError::ShuttingDown),
        "new submits rejected after shutdown"
    );
    // Idempotent: a second shutdown re-reads an already-clean ledger.
    let again = server.shutdown(Duration::from_secs(1));
    assert!(again.is_clean());
    assert_eq!(again.drained, 0);
    assert_eq!(again.cancelled, 0);
}

/// An expired deadline fires the cancel tokens of stragglers; the
/// bounded grace window lets them observe the token and unwind, so the
/// ledger is still clean, equals the live gauges, and the straggler
/// fails with the typed cancellation error.
#[test]
fn shutdown_deadline_cancels_stragglers_with_balanced_books() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-cancel");
    let repo = fiam_repo(&dir, 8, 64);
    let config = SommelierConfig {
        max_threads: 2,
        fault_plan: Some(FaultPlan::default()),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(mseed_system(&repo, config)));
    let session = server.open_session(SessionOptions::default());
    let hold = server.sommelier().fault_injector().unwrap().hold();
    let straggler = session.submit(ALL_DAYS_T4).unwrap();
    hold.wait_parked(1);
    // Deadline expires immediately: the straggler cannot finish while
    // parked, and its loads resume only once the cancel has fired.
    let cancel = straggler.cancel_token().clone();
    let releaser = std::thread::spawn(move || {
        wait_until("straggler cancel", || cancel.cancelled().is_some());
        hold.release();
    });
    let report = server.shutdown(Duration::from_millis(1));
    releaser.join().unwrap();
    assert_eq!(report.cancelled, 1, "straggler's cancel token fired: {report:?}");
    assert!(report.is_clean(), "cancelled straggler must unwind cleanly: {report:?}");
    assert!(
        matches!(straggler.wait().unwrap_err(), ServerError::Cancelled),
        "straggler sees the typed cancellation"
    );
    let somm = server.sommelier();
    assert_eq!(somm.cellar().unwrap().total_pins(), 0);
    assert_eq!(somm.prefetch_stage().map_or(0, |s| s.staged_bytes()), 0);
    // The ledger is the live gauges, and they read empty.
    let m = somm.metrics();
    assert_eq!(report.queued, m.get(Metric::AdmissionQueueDepth));
    assert_eq!(report.queued, 0);
    assert_eq!(report.staged_bytes as u64, m.get(Metric::PrefetchStagedBytes));
    assert_eq!(report.staged_bytes, 0);
    assert_eq!(m.get(Metric::AdmissionRunning), 0);
    assert_eq!(m.get(Metric::SchedQueueDepth), 0);
}

/// Overload is transient backpressure, not a dead end: a full admission
/// queue rejects with `retry_after_ms` computed from queue depth ×
/// observed latency (clamped to [10ms, 10s]), and the advertised wait
/// is also published as the `admission.retry_after_ms` gauge.
#[test]
fn overload_rejection_carries_retry_after_contract() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-overload");
    let repo = fiam_repo(&dir, 4, 64);
    let config = SommelierConfig {
        admission_max_concurrent: 1,
        admission_queue_limit: 1,
        max_threads: 2,
        fault_plan: Some(FaultPlan::default()),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(mseed_system(&repo, config)));
    let session = server.open_session(SessionOptions::default());
    // Seed the latency EWMA so retry-after has an observation to scale.
    session
        .submit("SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'")
        .unwrap()
        .wait()
        .unwrap();
    // The hog holds the only slot, parked mid-load, until the
    // rejection has been observed.
    let hold = server.sommelier().fault_injector().unwrap().hold();
    let hog = session.submit(ALL_DAYS_T4).unwrap();
    hold.wait_parked(1);
    let queued = session.submit(ALL_DAYS_T4).unwrap();
    wait_for_admission(server.sommelier(), "queued query", |m| {
        m.get(Metric::AdmissionQueueDepth) > 0
    });
    // Queue full (limit 1): the third query is the one pushed back.
    let err = session.submit(ALL_DAYS_T4).unwrap().wait().unwrap_err();
    match err {
        ServerError::Overloaded { retry_after_ms, ref message } => {
            assert!(
                (10..=10_000).contains(&retry_after_ms),
                "retry-after clamped to its contract range, got {retry_after_ms}"
            );
            assert!(message.contains("queue"), "message names the cause: {message}");
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    let snap = server.sommelier().metrics_snapshot();
    assert!(
        snap.gauge("admission.retry_after_ms").unwrap_or(0) >= 10,
        "advertised retry-after reaches the metrics snapshot"
    );
    hold.release();
    hog.wait().unwrap();
    queued.wait().unwrap();
    // Transient by definition: the same query succeeds once the queue
    // has drained.
    session.submit(ALL_DAYS_T4).unwrap().wait().unwrap();
}

/// A panicking chunk decode fails exactly one query with the typed
/// error, quarantines that query text in its session only, leaks no
/// pins or staged bytes, surfaces in the metrics, and leaves every
/// other session (and the rest of the data) fully usable.
#[test]
fn panic_is_isolated_quarantined_and_leak_free() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-panic");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(3, 48)).unwrap();
    let chunks = chunk_files(&logs);
    assert!(chunks.len() >= 2, "need a victim and a healthy chunk");
    let victim = chunks[0].clone();
    let config = SommelierConfig {
        max_threads: 4,
        fault_plan: Some(FaultPlan {
            panic_uris: vec![victim.clone()],
            ..FaultPlan::default()
        }),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(eventlog_system(&logs, config)));
    let poisoned = server.open_session(SessionOptions::default());
    let bystander = server.open_session(SessionOptions::default());

    let all_rows = "SELECT COUNT(*) AS n FROM eventview WHERE E.val > -1000000000";
    let err = poisoned.submit(all_rows).unwrap().wait().unwrap_err();
    match &err {
        ServerError::Query(SommelierError::QueryPanicked { query, payload }) => {
            assert_eq!(query, all_rows, "the error names the query");
            assert!(payload.contains("injected panic"), "payload survives: {payload}");
        }
        other => panic!("expected QueryPanicked, got {other}"),
    }
    // Resubmitting the poison text fails fast — no second trip through
    // the worker pool.
    assert_eq!(poisoned.quarantined_count(), 1);
    assert!(matches!(
        poisoned.submit(all_rows).unwrap_err(),
        ServerError::Quarantined { .. }
    ));
    // Quarantine is per-session: the bystander may still try (and also
    // panics — the chunk is deterministically poisoned), proving the
    // first panic poisoned neither the server nor the session registry.
    assert_eq!(bystander.quarantined_count(), 0);
    // The rest of the data remains queryable from any session.
    let healthy = &chunks[1];
    let r = bystander
        .submit(&format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{healthy}'"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.relation.rows(), 1);
    let somm = server.sommelier();
    assert_eq!(somm.cellar().unwrap().total_pins(), 0, "panicked wave released its pins");
    assert_eq!(somm.prefetch_stage().map_or(0, |s| s.staged_bytes()), 0);
    assert!(
        somm.metrics_snapshot().counter("query.panicked") >= Some(1),
        "panics are counted"
    );
    assert!(
        somm.quarantined_chunks().is_empty(),
        "a panic is a code bug, not a bad chunk: the chunk registry must not quarantine it"
    );
}

/// `query_spec` shares `query`'s panic backstop: a panicking decode
/// is the typed `QueryPanicked`, counted in `query.panicked`.
#[test]
fn query_spec_panics_are_typed_and_counted() {
    use sommelier_core::source::{assemble_catalog, SourceAdapter};
    let dir = TempDir::new("resilience-spec-panic");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(2, 16)).unwrap();
    let plan = FaultPlan { panic_uris: chunk_files(&logs), ..FaultPlan::default() };
    let config = SommelierConfig { fault_plan: Some(plan), ..SommelierConfig::default() };
    let somm = eventlog_system(&logs, config);
    let catalog = assemble_catalog(&[EventLogAdapter::new(&logs).descriptor()]).unwrap();
    let spec = sommelier_sql::compile("SELECT AVG(E.val) FROM eventview", &catalog).unwrap();
    let err = somm.query_spec(spec).unwrap_err();
    assert!(matches!(err, SommelierError::QueryPanicked { .. }), "{err:?}");
    assert_eq!(somm.metrics_snapshot().counter("query.panicked"), Some(1));
}

/// Bounded starvation under the server: a saturating stream of High
/// queries on a tiny worker pool cannot starve a Low session forever —
/// aging promotes the Low batches one rank per `sched_aging_ms`.
#[test]
fn aging_keeps_low_priority_progressing_under_saturating_high_tenant() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-aging");
    let repo = fiam_repo(&dir, 4, 64);
    let config = SommelierConfig {
        max_threads: 2,
        sched_aging_ms: 10,
        // Slow loads (10 ms each), so the High tenant keeps both
        // workers busy.
        fault_plan: Some(FaultPlan {
            spike_rate: 1.0,
            spike: Duration::from_millis(10),
            ..FaultPlan::default()
        }),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(mseed_system(&repo, config)));
    let stop = Arc::new(AtomicBool::new(false));
    let mut hogs = Vec::new();
    for _ in 0..2 {
        let srv = server.clone();
        let stop = Arc::clone(&stop);
        hogs.push(std::thread::spawn(move || {
            let session = srv.open_session(SessionOptions {
                priority: Priority::High,
                ..Default::default()
            });
            while !stop.load(Ordering::Relaxed) {
                // Cold chunks every time, so the tenant keeps the
                // workers saturated with decode work.
                srv.sommelier().flush_caches();
                session.submit(ALL_DAYS_T4).unwrap().wait().unwrap();
            }
        }));
    }
    // Both High queries are running before the Low session arrives.
    wait_for_admission(server.sommelier(), "saturating High tenant", |m| {
        m.get(Metric::AdmissionRunning) >= 2
    });
    let low =
        server.open_session(SessionOptions { priority: Priority::Low, ..Default::default() });
    let t0 = Instant::now();
    let r = low.submit(ALL_DAYS_T4).unwrap().wait();
    let waited = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        h.join().unwrap();
    }
    assert!(r.is_ok(), "Low query must complete under High saturation: {:?}", r.err());
    assert!(
        waited < Duration::from_secs(60),
        "Low made progress in bounded time, waited {waited:?}"
    );
}

/// Tiny deterministic PRNG (xorshift64*) so the chaos schedule is a
/// pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What the seeded schedule does with one submitted query.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Wait for completion.
    Wait,
    /// Cancel after the given number of milliseconds.
    CancelAfter(u64),
    /// Submit with a tight timeout.
    Timeout(u64),
}

/// The deterministic chaos harness: one seeded schedule composes every
/// failure mode this PR hardens — injected transient faults and latency
/// spikes on every chunk, one deterministically panicking chunk,
/// mid-query cancellation, tight timeouts, admission saturation with a
/// tiny queue — driven by six concurrent clients. Every surviving query
/// must be byte-identical to the fault-free reference, every failure
/// must be one of the typed lifecycle errors, the pin/staged ledgers
/// must balance to zero afterwards, a fresh query must still succeed —
/// and then a shutdown fired while freshly loaded must drain clean.
#[test]
fn chaos_schedule_survivors_byte_identical_and_leak_free() {
    let _x = exclusive();
    let dir = TempDir::new("resilience-chaos");
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(3, 48)).unwrap();
    let chunks = chunk_files(&logs);
    assert!(chunks.len() >= 3, "need a victim and several healthy chunks");
    let victim = chunks[0].clone();
    let healthy: Vec<&String> = chunks.iter().filter(|c| **c != victim).collect();

    // The workload: a metadata-only query, per-healthy-chunk data
    // queries (decode work whose byte-identity is meaningful, pruned
    // away from the poisoned chunk), and one poison query that must
    // reach the panicking chunk. DMd-derived tables (Y) are excluded:
    // their derivation scans every chunk, which would make any query
    // touching them a second poison query.
    let mut workload: Vec<String> =
        vec!["SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'".into()];
    for c in &healthy {
        workload.push(format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{c}'"));
        workload.push(format!("SELECT AVG(E.val) FROM eventview WHERE G.uri = '{c}'"));
    }
    let poison_op = workload.len();
    workload.push("SELECT COUNT(*) AS n FROM eventview WHERE E.val > -1000000000".into());

    // Fault-free reference bytes for every workload position.
    let clean = eventlog_system(&logs, SommelierConfig::default());
    let reference: Vec<String> = workload
        .iter()
        .map(|sql| format!("{:?}", clean.query(sql).unwrap().relation))
        .collect();
    drop(clean);

    // The chaos system: transient faults within the retry budget, a
    // latency spike on every load (so cancels land mid-flight), the
    // panicking victim chunk, and a starved admission queue (so
    // saturation rejects with retry-after).
    let config = SommelierConfig {
        max_threads: 4,
        admission_max_concurrent: 2,
        admission_queue_limit: 3,
        fault_plan: Some(FaultPlan {
            transient_rate: 0.4,
            spike_rate: 1.0,
            spike: Duration::from_millis(5),
            panic_uris: vec![victim.clone()],
            ..FaultPlan::default()
        }),
        ..SommelierConfig::default()
    };
    let server = Server::new(Arc::new(eventlog_system(&logs, config)));

    // The seeded schedule: 48 operations, each a (workload op, action)
    // pair, drawn deterministically. Same seed, same schedule.
    const SEED: u64 = 0x01ce_2015_c4a6;
    let mut rng = Rng(SEED);
    let ops: Vec<(usize, Action)> = (0..48)
        .map(|k| {
            // Every 8th op is the poison query; the rest spread over
            // the healthy workload.
            let q = if k % 8 == 7 { poison_op } else { rng.below(poison_op as u64) as usize };
            let action = match rng.below(10) {
                0..=5 => Action::Wait,
                6..=7 => Action::CancelAfter(rng.below(30)),
                _ => Action::Timeout(1 + rng.below(40)),
            };
            (q, action)
        })
        .collect();

    let survivors = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let server = server.clone();
            let ops = &ops;
            let workload = &workload;
            let reference = &reference;
            let survivors = &survivors;
            let failures = &failures;
            let cursor = &cursor;
            scope.spawn(move || {
                let session = server.open_session(SessionOptions::default());
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(q, action)) = ops.get(k) else { break };
                    let sql = &workload[q];
                    // Cold chunks for every op, so faults, spikes and
                    // cancels land on real decodes.
                    server.sommelier().flush_caches();
                    let submitted = match action {
                        Action::Timeout(ms) => session.submit_with(
                            sql,
                            &SubmitOptions {
                                timeout: Some(Duration::from_millis(ms)),
                                ..Default::default()
                            },
                        ),
                        _ => session.submit(sql),
                    };
                    let res = match submitted {
                        Ok(handle) => {
                            if let Action::CancelAfter(ms) = action {
                                std::thread::sleep(Duration::from_millis(ms));
                                handle.cancel();
                            }
                            handle.wait()
                        }
                        Err(e) => Err(e),
                    };
                    match res {
                        Ok(r) => {
                            assert_ne!(
                                q, poison_op,
                                "op {k}: the poison query cannot succeed"
                            );
                            assert_eq!(
                                format!("{:?}", r.relation),
                                reference[q],
                                "op {k} (workload {q}) survived but drifted from the \
                                 fault-free reference"
                            );
                            survivors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // Honor (a capped slice of) the advertised
                            // backpressure before taking the next op.
                            if let ServerError::Overloaded { retry_after_ms, .. } = &e {
                                std::thread::sleep(Duration::from_millis(
                                    (*retry_after_ms).min(10),
                                ));
                            }
                            // Chaos may fail a query, but only with a
                            // typed lifecycle error.
                            let typed = matches!(
                                e,
                                ServerError::Cancelled
                                    | ServerError::TimedOut
                                    | ServerError::Overloaded { .. }
                                    | ServerError::Quarantined { .. }
                                    | ServerError::Query(
                                        SommelierError::QueryPanicked { .. }
                                    )
                            );
                            assert!(typed, "op {k} (workload {q}) failed untyped: {e}");
                            if matches!(
                                e,
                                ServerError::Quarantined { .. }
                                    | ServerError::Query(
                                        SommelierError::QueryPanicked { .. }
                                    )
                            ) {
                                assert_eq!(
                                    q, poison_op,
                                    "op {k}: only the poison query panics"
                                );
                            }
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let survivors = survivors.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    assert_eq!(survivors + failures, ops.len(), "every op resolved");
    assert!(survivors > 0, "chaos must not kill the whole schedule");
    assert!(failures > 0, "a schedule with no failures exercised nothing");

    // The invariant ledger after the storm: zero pins, zero staged
    // bytes, and a fresh query still succeeds.
    let somm = Arc::clone(server.sommelier());
    assert_eq!(somm.cellar().unwrap().total_pins(), 0, "chaos leaked pins");
    assert_eq!(
        somm.prefetch_stage().map_or(0, |s| s.staged_bytes()),
        0,
        "chaos leaked staging"
    );
    let fresh = server.open_session(SessionOptions::default());
    let h = healthy[0];
    let r = fresh
        .submit(&format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{h}'"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.relation.rows(), 1, "the system serves fresh queries after the storm");

    // Finale: shutdown while freshly loaded. Submit a wave, then drain.
    let mut wave = Vec::new();
    for c in healthy.iter().take(4) {
        wave.push(
            fresh
                .submit(&format!("SELECT AVG(E.val) FROM eventview WHERE G.uri = '{c}'"))
                .unwrap(),
        );
    }
    let report = server.shutdown(Duration::from_secs(120));
    assert!(report.is_clean(), "shutdown-while-loaded left unbalanced books: {report:?}");
    for h in wave {
        // Loaded-at-shutdown queries either drained to completion,
        // were woken out of the admission queue with the typed
        // shutdown error, or were cancelled at the deadline — all
        // clean outcomes.
        match h.wait() {
            Ok(r) => assert_eq!(r.relation.rows(), 1),
            Err(e) => assert!(
                matches!(e, ServerError::Cancelled | ServerError::ShuttingDown),
                "untyped: {e}"
            ),
        }
    }
    assert!(matches!(fresh.submit("SELECT 1").unwrap_err(), ServerError::ShuttingDown));
}
