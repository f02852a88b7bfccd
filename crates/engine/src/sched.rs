//! The shared morsel scheduler: one persistent worker pool serving
//! every in-flight query.
//!
//! A [`MorselScheduler`] owns exactly `max_threads` long-lived workers
//! and interleaves the per-chunk pipelines ("morsels") of many queries:
//! each [`MorselScheduler::run_batch`] call enqueues an indexed batch
//! of tasks, workers pick the best runnable batch (highest
//! [`Priority`] first, FIFO within a priority), and the submitting
//! thread blocks until its batch drains. Total live worker threads stay
//! bounded by the pool size no matter how many queries are in flight.
//!
//! Also here: [`CancelToken`] (cooperative cancellation/timeout checked
//! at chunk-pipeline boundaries) and [`SchedPolicy`] (the bundle of
//! scheduling knobs — shared pool, priority, cancel token — that
//! threads through the two-stage driver and residency layers).

use crate::error::{EngineError, Result};
use crate::obs::{self, Metric, MetricsRegistry, Obs};
use sommelier_storage::sync::unpoison;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Priority

/// Per-session / per-query scheduling priority. Workers always prefer
/// morsels of higher-priority batches; within a priority, batches drain
/// in submission order (FIFO), which is what keeps tail latency flat
/// under load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: scheduled only when nothing better is runnable.
    Low,
    /// The default for interactive queries.
    #[default]
    Normal,
    /// Latency-sensitive work: jumps the morsel queue.
    High,
}

impl Priority {
    /// Numeric rank used by the aging boost (Low = 0 … High = 2).
    fn rank(self) -> u64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

// ---------------------------------------------------------------------
// MorselPanic

/// The payload [`MorselScheduler::run_batch`] re-raises on the
/// submitting thread when one of the batch's tasks panicked on a pool
/// worker. Carrying the original panic message (instead of a generic
/// string) lets the query layer convert the unwind into a typed
/// per-query error without losing the cause.
#[derive(Debug, Clone)]
pub struct MorselPanic(pub String);

/// Stringify a caught panic payload: unwraps [`MorselPanic`], `&str`
/// and `String` payloads; anything else becomes a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(mp) = payload.downcast_ref::<MorselPanic>() {
        mp.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// DegradationPolicy

/// What a query does when a chunk cannot be read at all (permanent
/// decode failure, or a transient one that exhausted its retry
/// budget).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DegradationPolicy {
    /// Fail the query with a typed [`EngineError::ChunkLoad`] naming
    /// the chunk. The default: correctness over availability.
    #[default]
    Strict,
    /// Complete the query over the readable chunks and report the
    /// skipped ones (`QueryOutcome::degraded`). Availability over
    /// completeness — the answer is a correct subset.
    SkipUnreadable,
}

// ---------------------------------------------------------------------
// CancelToken

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

/// Cooperative cancellation handle, cloned into every layer that runs
/// work for one query. `cancel()` flips a flag; an optional deadline
/// turns the same flag into a timeout. The engine checks the token at
/// chunk-pipeline boundaries (never mid-decode), so cancellation is
/// prompt but always leaves chunk pin accounting balanced.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh token, not cancelled, with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reports a timeout once `timeout` elapses from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        let t = Self::new();
        t.set_deadline(Instant::now() + timeout);
        t
    }

    /// Install (or overwrite) the absolute deadline.
    pub fn set_deadline(&self, deadline: Instant) {
        *unpoison(self.inner.deadline.lock()) = Some(deadline);
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        *unpoison(self.inner.deadline.lock())
    }

    /// Request cancellation. Idempotent; already-running morsels finish,
    /// everything after the next checkpoint is skipped.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `Some(timed_out)` if the query should stop: `Some(false)` for an
    /// explicit cancel, `Some(true)` for a blown deadline.
    pub fn cancelled(&self) -> Option<bool> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(false);
        }
        match self.deadline() {
            Some(d) if Instant::now() >= d => Some(true),
            _ => None,
        }
    }

    /// Checkpoint: `Err(EngineError::Cancelled { .. })` once the token
    /// has fired.
    pub fn check(&self) -> Result<()> {
        match self.cancelled() {
            Some(timed_out) => Err(EngineError::Cancelled { timed_out }),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// SchedPolicy

/// Everything a morsel-parallel operator needs to know about *how* to
/// run: the shared scheduler, priority, and cancellation token.
/// Residency providers ([`crate::twostage::ChunkResidency`]) take this
/// so chunk acquisition waves land on the shared pool too. The default
/// policy has no pool: every batch runs inline on the caller's thread.
#[derive(Clone, Default)]
pub struct SchedPolicy {
    /// The shared pool, if the system runs one. `None` runs every batch
    /// inline on the caller's thread, serially. A batch of `n` tasks is
    /// serviced by at most `min(n, worker_count())` pool workers.
    pub scheduler: Option<Arc<MorselScheduler>>,
    /// Scheduling priority for batches submitted under this policy.
    pub priority: Priority,
    /// Cooperative cancellation for the owning query.
    pub cancel: Option<CancelToken>,
    /// What to do with chunks that cannot be read (see
    /// [`DegradationPolicy`]).
    pub degradation: DegradationPolicy,
    /// The owning query's span collector, when spans are on — lets a
    /// residency provider parent its load-time spans (e.g. IO retries)
    /// under the query's load span.
    pub tracer: Option<Arc<crate::obs::span::TraceCollector>>,
}

impl SchedPolicy {
    /// Attach a shared scheduler (builder-style).
    pub fn with_scheduler(mut self, scheduler: Option<Arc<MorselScheduler>>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Cancellation checkpoint; `Ok(())` when no token is attached.
    pub fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(c) => c.check(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedPolicy")
            .field("shared", &self.scheduler.is_some())
            .field("priority", &self.priority)
            .field("cancellable", &self.cancel.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Scheduler internals

thread_local! {
    static IS_SCHED_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on a shared-pool worker thread. Nested morsel batches (e.g. a
/// decode fan-out issued from inside a chunk pipeline) must run inline
/// on the worker instead of re-entering the queue, or a pool whose
/// every worker waits on nested batches would deadlock.
pub fn on_scheduler_worker() -> bool {
    IS_SCHED_WORKER.with(|f| f.get())
}

/// One submitted batch: `n` indexed tasks behind a lifetime-erased
/// function pointer. Soundness: `ctx` points into the submitting
/// thread's stack; the submitter blocks in [`MorselScheduler::run_batch`]
/// until all `n` tasks have completed (or been drained after a panic),
/// so workers never dereference `ctx` after the frame is gone.
struct BatchCore {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    n: usize,
    /// Max pool workers servicing this batch at once.
    cap: usize,
    priority: Priority,
    /// Submission order; FIFO tiebreak within a priority.
    seq: u64,
    /// When the batch entered the queue — drives the aging boost.
    enqueued: Instant,
    next: AtomicUsize,
    active: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
    /// First caught panic payload of this batch, re-raised to the
    /// submitter as a [`MorselPanic`].
    panic_msg: Mutex<Option<String>>,
    busy_ns: AtomicU64,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl BatchCore {
    /// Scheduling score under aging: the base priority rank, boosted by
    /// one rank per `aging` waited in the queue (saturating at High).
    /// `aging == 0` disables the boost — strict priority order.
    fn score(&self, aging: Duration) -> u64 {
        let base = self.priority.rank();
        if aging.is_zero() {
            return base;
        }
        let boost = (self.enqueued.elapsed().as_nanos() / aging.as_nanos().max(1)) as u64;
        base.saturating_add(boost).min(Priority::High.rank())
    }
}

// Safety: `ctx`/`run` describe a `Sync` closure + result slots that the
// submitter keeps alive until the batch fully drains (see above).
unsafe impl Send for BatchCore {}
unsafe impl Sync for BatchCore {}

struct SchedShared {
    queue: Mutex<Vec<Arc<BatchCore>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Queue wait that buys one priority rank (see [`BatchCore::score`]).
    aging: Duration,
    /// Counts `sched.*` as it happens; `sched.queue_depth` (batches
    /// queued or draining) is set under the queue lock.
    metrics: Arc<MetricsRegistry>,
}

/// The shared worker pool. See the module docs for the model; the
/// important invariants are:
///
/// - exactly `worker_count()` threads exist, created once and joined on
///   drop — query concurrency never changes the thread count;
/// - workers pick the runnable batch with the highest priority, then
///   the lowest submission seq, honoring each batch's worker cap;
/// - a panicking task poisons only its own batch: remaining morsels are
///   drained without running and the submitter re-panics.
pub struct MorselScheduler {
    shared: Arc<SchedShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
    next_seq: AtomicU64,
}

/// Default queue wait that promotes a batch by one priority rank.
/// Bounds starvation: a `Low` batch outranks freshly queued `High`
/// work after at most `2 * DEFAULT_AGING` in the queue.
pub const DEFAULT_AGING: Duration = Duration::from_millis(100);

impl MorselScheduler {
    /// Spawn a pool of `workers` (min 1) persistent threads with the
    /// default aging quantum ([`DEFAULT_AGING`]), counting into
    /// `metrics`.
    pub fn new(workers: usize, metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_aging(workers, DEFAULT_AGING, metrics)
    }

    /// Spawn a pool whose queued batches gain one priority rank per
    /// `aging` waited (zero disables aging — strict priority order,
    /// the pre-aging behavior, under which a saturating `High` tenant
    /// starves `Low` forever).
    pub fn with_aging(
        workers: usize,
        aging: Duration,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let workers = workers.max(1);
        metrics.set(Metric::SchedWorkers, workers as u64);
        let shared = Arc::new(SchedShared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            aging,
            metrics,
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("morsel-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn morsel worker")
            })
            .collect();
        MorselScheduler {
            shared,
            handles: Mutex::new(handles),
            workers,
            next_seq: AtomicU64::new(0),
        }
    }

    /// Pool size. The bound on live worker threads, independent of how
    /// many queries are in flight.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// True once [`MorselScheduler::shutdown`] ran: the worker pool is
    /// joined and new batches execute inline on their submitter.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Join the worker pool. Called by `Server::shutdown` (and by
    /// drop). Idempotent. Batches already queued are drained inline so
    /// their submitters always wake; batches submitted *after* shutdown
    /// run inline on the submitting thread — a shut-down scheduler
    /// still serves queries, just without parallelism.
    pub fn shutdown(&self) {
        {
            // Flag and enqueue are ordered by the queue lock: any batch
            // enqueued before the flip is visible to the drain below;
            // any submitter that sees the flag runs inline instead.
            let _q = unpoison(self.shared.queue.lock());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in unpoison(self.handles.lock()).drain(..) {
            let _ = h.join();
        }
        // Workers may have exited without touching late batches; claim
        // and run their remaining tasks here (tasks already claimed by
        // a worker completed before it exited).
        loop {
            let batch = {
                let mut q = unpoison(self.shared.queue.lock());
                let batch = q.pop();
                self.shared.metrics.set(Metric::SchedQueueDepth, q.len() as u64);
                batch
            };
            match batch {
                Some(b) => drain_batch(&self.shared, &b),
                None => break,
            }
        }
    }

    /// Run `task(0..n)` on the pool and collect the results in index
    /// order, blocking until the batch drains. At most `cap` workers
    /// service the batch concurrently. Feeds the `pool.*` metrics; idle
    /// time is charged only for workers that exist (`cap` clamped to
    /// the pool size).
    pub fn run_batch<T, F>(
        &self,
        n: usize,
        cap: usize,
        priority: Priority,
        obs: &Obs,
        task: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let wall = obs.metrics().map(|_| Instant::now());
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        struct Erased<'e, T, F> {
            task: &'e F,
            slots: &'e [Mutex<Option<T>>],
        }
        // Safety contract: `p` is the `Erased` for this batch and `i < n`.
        unsafe fn call<T, F: Fn(usize) -> T>(p: *const (), i: usize) {
            let e = unsafe { &*(p as *const Erased<'_, T, F>) };
            let v = (e.task)(i);
            *unpoison(e.slots[i].lock()) = Some(v);
        }

        let erased = Erased { task: &task, slots: &slots };
        let core = Arc::new(BatchCore {
            run: call::<T, F>,
            ctx: &erased as *const Erased<'_, T, F> as *const (),
            n,
            cap: cap.max(1),
            priority,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            enqueued: Instant::now(),
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            busy_ns: AtomicU64::new(0),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        });
        self.shared.metrics.add(Metric::SchedBatches, 1);
        self.shared.metrics.add(Metric::SchedTasks, n as u64);
        let inline = {
            let mut q = unpoison(self.shared.queue.lock());
            if self.shared.shutdown.load(Ordering::Acquire) {
                // Shut-down pool: no workers left; run on the submitter.
                true
            } else {
                q.push(Arc::clone(&core));
                self.shared.metrics.set(Metric::SchedQueueDepth, q.len() as u64);
                false
            }
        };
        if inline {
            drain_batch(&self.shared, &core);
        } else {
            self.shared.work_cv.notify_all();
        }

        // Block until every task has been claimed AND finished. This is
        // what makes the lifetime erasure sound. (A batch queued
        // concurrently with shutdown is drained inline by `shutdown`,
        // so this wait always terminates.)
        {
            let mut fin = unpoison(core.finished.lock());
            while !*fin {
                fin = unpoison(core.finished_cv.wait(fin));
            }
        }
        // Leave the queue now rather than at a worker's next sweep, so
        // `sched.queue_depth` reads 0 once every submitter returned.
        if !inline {
            let mut q = unpoison(self.shared.queue.lock());
            q.retain(|b| !Arc::ptr_eq(b, &core));
            self.shared.metrics.set(Metric::SchedQueueDepth, q.len() as u64);
        }

        if let (Some(m), Some(wall)) = (obs.metrics(), wall) {
            let busy = core.busy_ns.load(Ordering::Relaxed);
            let span = wall.elapsed().as_nanos() as u64 * cap.clamp(1, self.workers) as u64;
            count_batch(m, n, busy, span.saturating_sub(busy));
        }
        if core.panicked.load(Ordering::Acquire) {
            let msg = unpoison(core.panic_msg.lock())
                .take()
                .unwrap_or_else(|| "a morsel task panicked on the shared scheduler".into());
            std::panic::panic_any(MorselPanic(msg));
        }
        slots
            .into_iter()
            .map(|s| unpoison(s.into_inner()).expect("every morsel ran"))
            .collect()
    }
}

impl Drop for MorselScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for MorselScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorselScheduler").field("workers", &self.workers).finish()
    }
}

/// Feed one finished batch of `n` tasks into the `pool.*` metrics
/// (shared by the pooled and the inline paths).
pub(crate) fn count_batch(m: &MetricsRegistry, n: usize, busy_ns: u64, idle_ns: u64) {
    m.add(Metric::PoolBatches, 1);
    m.add(Metric::PoolTasks, n as u64);
    m.add(Metric::PoolBusyNs, busy_ns);
    m.add(Metric::PoolIdleNs, idle_ns);
    m.observe(Metric::PoolBatchTasks, n as u64);
}

/// Run one claimed task: catch a panic (recording its payload and the
/// pool-wide panic counter), charge busy time, and signal the batch's
/// submitter when the last task completes. Shared by the worker loop
/// and the inline drain paths.
fn run_one(shared: &SchedShared, batch: &BatchCore, i: usize) {
    let t0 = Instant::now();
    if !batch.panicked.load(Ordering::Acquire) {
        let r = catch_unwind(AssertUnwindSafe(|| unsafe { (batch.run)(batch.ctx, i) }));
        if let Err(payload) = r {
            {
                let mut msg = unpoison(batch.panic_msg.lock());
                if msg.is_none() {
                    *msg = Some(panic_message(payload.as_ref()));
                }
            }
            batch.panicked.store(true, Ordering::Release);
            shared.metrics.add(Metric::SchedPanics, 1);
        }
    }
    let dt = t0.elapsed().as_nanos() as u64;
    batch.busy_ns.fetch_add(dt, Ordering::Relaxed);
    shared.metrics.add(Metric::SchedBusyNs, dt);
    let finished = batch.done.fetch_add(1, Ordering::Relaxed) + 1 == batch.n;
    if finished {
        let mut fin = unpoison(batch.finished.lock());
        *fin = true;
        drop(fin);
        batch.finished_cv.notify_all();
    }
}

/// Claim and run every remaining task of `batch` on the calling thread
/// (the shutdown / post-shutdown inline path).
fn drain_batch(shared: &SchedShared, batch: &BatchCore) {
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.n {
            return;
        }
        run_one(shared, batch, i);
    }
}

fn worker_loop(shared: &SchedShared, w: usize) {
    IS_SCHED_WORKER.with(|f| f.set(true));
    let _tag = obs::worker_scope(w);
    loop {
        // Claim one morsel from the best runnable batch.
        let claimed = {
            let mut q = unpoison(shared.queue.lock());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Drop fully-claimed batches (their stragglers finish
                // outside the queue).
                let before = q.len();
                q.retain(|b| b.next.load(Ordering::Relaxed) < b.n);
                if q.len() != before {
                    shared.metrics.set(Metric::SchedQueueDepth, q.len() as u64);
                }
                // Priority with aging (queue wait buys ranks, so a
                // saturating High tenant cannot starve Low forever),
                // FIFO within a score.
                let best = q
                    .iter()
                    .filter(|b| b.active.load(Ordering::Relaxed) < b.cap)
                    .max_by_key(|b| (b.score(shared.aging), std::cmp::Reverse(b.seq)))
                    .cloned();
                match best {
                    Some(b) => {
                        let i = b.next.fetch_add(1, Ordering::Relaxed);
                        if i >= b.n {
                            continue; // raced to exhaustion; re-evaluate
                        }
                        b.active.fetch_add(1, Ordering::Relaxed);
                        break (b, i);
                    }
                    None => {
                        // Bounded wait: an aging batch can become the
                        // best choice without any new work arriving.
                        let wait = Duration::from_millis(5);
                        q = unpoison(shared.work_cv.wait_timeout(q, wait)).0;
                    }
                }
            }
        };
        let (batch, i) = claimed;
        run_one(shared, &batch, i);
        batch.active.fetch_sub(1, Ordering::Relaxed);
        if batch.done.load(Ordering::Relaxed) < batch.n
            && batch.next.load(Ordering::Relaxed) < batch.n
        {
            // A cap slot freed up with morsels still unclaimed.
            shared.work_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn batch_returns_results_in_index_order() {
        let s = MorselScheduler::new(4, Default::default());
        let out = s.run_batch(64, 4, Priority::Normal, &Obs::off(), |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(s.shared.metrics.get(Metric::SchedWorkers), 4);
        assert_eq!(s.shared.metrics.get(Metric::SchedBatches), 1);
        assert_eq!(s.shared.metrics.get(Metric::SchedTasks), 64);
    }

    #[test]
    fn many_submitters_share_one_pool() {
        let s = Arc::new(MorselScheduler::new(3, Default::default()));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let out = s.run_batch(16, 3, Priority::Normal, &Obs::off(), |i| i + 1);
                    assert_eq!(out.iter().sum::<usize>(), (1..=16).sum());
                });
            }
        });
        assert_eq!(s.shared.metrics.get(Metric::SchedBatches), 8);
        assert_eq!(s.shared.metrics.get(Metric::SchedTasks), 8 * 16);
    }

    #[test]
    fn cap_limits_concurrent_workers_per_batch() {
        let s = MorselScheduler::new(4, Default::default());
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        s.run_batch(32, 2, Priority::Normal, &Obs::off(), |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap exceeded: {peak:?}");
    }

    #[test]
    fn idle_time_is_charged_only_for_existing_workers() {
        // A cap above the pool size must not count idle time for
        // workers that do not exist.
        let s = MorselScheduler::new(2, Default::default());
        let metrics = Arc::new(crate::obs::MetricsRegistry::new());
        let obs = Obs::new(Arc::clone(&metrics));
        let t0 = Instant::now();
        s.run_batch(4, 8, Priority::Normal, &obs, |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let charged = metrics.get(Metric::PoolBusyNs) + metrics.get(Metric::PoolIdleNs);
        assert!(
            charged <= wall * s.worker_count() as u64,
            "busy + idle {charged} ns exceeds wall {wall} ns x {} workers",
            s.worker_count()
        );
    }

    #[test]
    fn high_priority_batch_overtakes_queued_normal_work() {
        // One worker, saturated by a slow batch; a Normal and then a
        // High batch queue behind it. High must start (and finish)
        // before Normal.
        let s = Arc::new(MorselScheduler::new(1, Default::default()));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.run_batch(1, 1, Priority::Normal, &Obs::off(), |_| {
                        std::thread::sleep(Duration::from_millis(60))
                    });
                });
            }
            std::thread::sleep(Duration::from_millis(15));
            {
                let (s, order) = (Arc::clone(&s), Arc::clone(&order));
                scope.spawn(move || {
                    s.run_batch(1, 1, Priority::Normal, &Obs::off(), |_| {
                        unpoison(order.lock()).push("normal")
                    });
                });
            }
            std::thread::sleep(Duration::from_millis(15));
            {
                let (s, order) = (Arc::clone(&s), Arc::clone(&order));
                scope.spawn(move || {
                    s.run_batch(1, 1, Priority::High, &Obs::off(), |_| {
                        unpoison(order.lock()).push("high")
                    });
                });
            }
        });
        assert_eq!(*unpoison(order.lock()), vec!["high", "normal"]);
    }

    #[test]
    fn panicking_task_propagates_to_the_submitter_only() {
        let s = Arc::new(MorselScheduler::new(2, Default::default()));
        let r = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let s = Arc::clone(&s);
                    catch_unwind(AssertUnwindSafe(move || {
                        s.run_batch(8, 2, Priority::Normal, &Obs::off(), |i| {
                            if i == 3 {
                                panic!("boom")
                            }
                            i
                        })
                    }))
                })
                .join()
                .unwrap()
        });
        assert!(r.is_err());
        // Pool still serves later batches.
        let out = s.run_batch(4, 2, Priority::Normal, &Obs::off(), |i| i);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cancel_token_reports_explicit_and_deadline_cancellation() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.cancel();
        assert_eq!(t.cancelled(), Some(false));
        assert!(matches!(t.check(), Err(EngineError::Cancelled { timed_out: false })));

        let t = CancelToken::with_timeout(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(t.cancelled(), Some(true));
        assert!(matches!(t.check(), Err(EngineError::Cancelled { timed_out: true })));
    }

    #[test]
    fn priority_orders_low_normal_high() {
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn panic_payload_is_typed_and_counted() {
        let s = MorselScheduler::new(2, Default::default());
        let r = catch_unwind(AssertUnwindSafe(|| {
            s.run_batch(8, 2, Priority::Normal, &Obs::off(), |i| {
                if i == 3 {
                    panic!("boom at morsel {i}")
                }
                i
            })
        }));
        let payload = r.expect_err("batch must re-raise the panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("boom at morsel 3"), "{msg}");
        assert_eq!(s.shared.metrics.get(Metric::SchedPanics), 1);
    }

    #[test]
    fn aging_lets_low_finish_under_saturating_high_tenant() {
        // One worker with fast aging: a queued Low batch must run even
        // while a stream of High batches keeps arriving.
        let aging = Duration::from_millis(10);
        let s = Arc::new(MorselScheduler::with_aging(1, aging, Default::default()));
        let low_done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            // Saturating High tenant: keeps one-morsel batches flowing.
            {
                let (s, low_done) = (Arc::clone(&s), Arc::clone(&low_done));
                scope.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !low_done.load(Ordering::Acquire) && Instant::now() < deadline {
                        s.run_batch(1, 1, Priority::High, &Obs::off(), |_| {
                            std::thread::sleep(Duration::from_millis(2))
                        });
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(5));
            {
                let (s, low_done) = (Arc::clone(&s), Arc::clone(&low_done));
                scope.spawn(move || {
                    s.run_batch(1, 1, Priority::Low, &Obs::off(), |_| {});
                    low_done.store(true, Ordering::Release);
                });
            }
        });
        assert!(low_done.load(Ordering::Acquire), "Low starved despite aging");
    }

    #[test]
    fn without_aging_score_is_the_static_rank() {
        let core = BatchCore {
            seq: 0,
            priority: Priority::Low,
            n: 1,
            cap: 1,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            busy_ns: AtomicU64::new(0),
            enqueued: Instant::now() - Duration::from_secs(60),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
            run: |_, _| {},
            ctx: std::ptr::null(),
        };
        assert_eq!(core.score(Duration::ZERO), Priority::Low.rank());
        // With aging, a long wait saturates at High's rank, never above.
        assert_eq!(core.score(Duration::from_millis(10)), Priority::High.rank());
    }

    #[test]
    fn shutdown_is_idempotent_and_degrades_to_inline() {
        let s = MorselScheduler::new(2, Default::default());
        assert!(!s.is_shut_down());
        s.shutdown();
        assert!(s.is_shut_down());
        s.shutdown(); // second call is a no-op
                      // Post-shutdown batches still complete, inline on the submitter.
        let out = s.run_batch(8, 2, Priority::Normal, &Obs::off(), |i| i * 3);
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_while_loaded_drains_queued_batches() {
        let s = Arc::new(MorselScheduler::new(1, Default::default()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let out = s.run_batch(8, 1, Priority::Normal, &Obs::off(), |i| {
                        std::thread::sleep(Duration::from_millis(1));
                        i
                    });
                    assert_eq!(out.len(), 8);
                });
            }
            std::thread::sleep(Duration::from_millis(3));
            let s = Arc::clone(&s);
            scope.spawn(move || s.shutdown());
        });
        assert!(s.is_shut_down());
        assert_eq!(s.shared.metrics.get(Metric::SchedTasks), 32, "every queued morsel ran");
        assert_eq!(
            s.shared.metrics.get(Metric::SchedQueueDepth),
            0,
            "the drained queue is empty"
        );
    }
}
