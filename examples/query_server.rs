//! Query server walkthrough: several tenants sharing one engine
//! through sessions — priorities, quotas, cancellation, timeouts, and
//! the scheduler/admission counters that make the whole thing
//! observable.
//!
//! ```sh
//! cargo run --release --example query_server
//! ```

use sommelier_core::{LoadingMode, Metric, Priority, Sommelier, SommelierConfig};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use sommelier_server::{Server, ServerError, SessionOptions, SubmitOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small FIAM repository (one station, 40 days, one chunk file
    //    per day) registered lazily.
    let dir = std::env::temp_dir().join("sommelier-query-server");
    let _ = std::fs::remove_dir_all(&dir);
    let repo = Repository::at(dir.join("repo"));
    repo.generate(&DatasetSpec::fiam(1, 512))?;

    // 2. One engine, one shared morsel pool. `max_threads` bounds the
    //    worker count for EVERY in-flight query; `admission_*` knobs
    //    bound how many queries may run at once and how many may wait.
    let somm = Arc::new(
        Sommelier::builder()
            .source(MseedAdapter::new(repo))
            .config(SommelierConfig {
                max_threads: 4,
                admission_max_concurrent: 2,
                ..SommelierConfig::default()
            })
            .build()?,
    );
    somm.prepare(LoadingMode::Lazy)?;
    let server = Server::new(Arc::clone(&somm));

    // 3. Two tenants: an interactive high-priority session and a batch
    //    session with a small in-flight quota and a default timeout.
    let interactive = server.open_session(SessionOptions {
        priority: Priority::High,
        ..SessionOptions::default()
    });
    let batch = server.open_session(SessionOptions {
        priority: Priority::Low,
        max_in_flight: 2,
        default_timeout: Some(Duration::from_secs(30)),
        ..SessionOptions::default()
    });
    println!("sessions open: {}", server.active_sessions());

    let scan = "SELECT window_start_ts, window_max_val FROM H \
                WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
                AND window_start_ts >= '2010-01-01T00:00:00.000' \
                AND window_start_ts < '2010-02-01T00:00:00.000'";

    // 4. Submit from both; the batch scan's morsels queue behind the
    //    interactive query's on the shared pool.
    let hot = interactive.submit(scan)?;
    let cold = batch.submit(scan)?;
    let hot_rows = hot.wait().map(|r| r.relation.rows())?;
    let cold_rows = cold.wait().map(|r| r.relation.rows())?;
    println!("interactive: {hot_rows} window rows; batch: {cold_rows}");

    // 5. Cancellation: a handle can be cancelled mid-query; the engine
    //    notices at the next chunk-pipeline boundary and unwinds with
    //    the cellar's pin accounting balanced.
    let doomed = batch.submit(scan)?;
    doomed.cancel();
    match doomed.wait() {
        Err(ServerError::Cancelled) => println!("cancelled cleanly"),
        other => println!("finished before the cancel landed: {:?}", other.is_ok()),
    }

    // 6. Timeouts are just deadlines on the same token: a 1 ns budget
    //    cannot survive admission + execution.
    let hasty = batch.submit_with(
        scan,
        &SubmitOptions { timeout: Some(Duration::from_nanos(1)), ..SubmitOptions::default() },
    )?;
    match hasty.wait() {
        Err(ServerError::TimedOut) => println!("timed out, as requested"),
        other => println!("unexpectedly: {:?}", other.map(|r| r.relation.rows())),
    }

    // 7. Everything above left a trail in the metrics registry.
    let snap = somm.metrics_snapshot();
    println!(
        "\nsched.workers = {:?}, sched.batches = {:?}, sched.tasks = {:?}",
        snap.gauge("sched.workers"),
        snap.counter("sched.batches"),
        snap.counter("sched.tasks"),
    );
    let m = somm.metrics();
    println!(
        "admitted = {}, cancelled = {}, timeouts = {}, queue_wait_ns = {}",
        m.get(Metric::AdmissionAdmitted),
        m.get(Metric::AdmissionCancelled),
        m.get(Metric::AdmissionTimeouts),
        m.get(Metric::AdmissionQueueWaitNs),
    );
    // Each submit ran on a control thread; finished ones park and
    // serve the next submit, so two sufficed for everything above.
    println!("control threads = {}", m.get(Metric::ServerControlThreads));

    drop((interactive, batch));
    println!("sessions open after drop: {}", server.active_sessions());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
