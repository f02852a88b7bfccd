//! # sommelier-server
//!
//! The multi-tenant query front end of the sommelier system: a
//! long-running [`Server`] wraps one [`Sommelier`] instance and hands
//! out [`Session`]s, each with its own priority, in-flight quota and
//! default timeout. Sessions submit SQL and get back a
//! [`QueryHandle`] — cancellable, timeout-able, waitable — while every
//! query's morsels run on the system's **one shared scheduler**
//! (`SommelierConfig::max_threads` persistent workers, which also ran
//! the system's registration and eager loading), so the total number
//! of live worker threads is bounded no matter how many sessions are
//! active.
//! Admission control (`SommelierConfig::admission_*`) bounds how many
//! queries run at once: the rest queue in priority order, and beyond
//! the queue limit they are rejected as overloaded. It does not look at
//! memory; the cellar budget (`SommelierConfig::cellar_bytes`) is the
//! only bound on chunk memory, staged prefetch bytes included.
//! Cold reads are bounded like workers: raw-byte prefetch
//! (`SommelierConfig::prefetch_depth`) runs on the system's **one
//! shared IO-thread pool**, so concurrent sessions compete for a fixed
//! set of `somm-io-N` readers rather than spawning per-session
//! prefetchers.
//! Each submitted query runs on a **control thread** of its own, which
//! blocks in admission and on the scheduler while the morsels run on
//! the pool. Control threads are reused: a finished one parks until
//! the next submit, and one is spawned only when none is parked, so
//! their number is bounded by the peak number of in-flight queries.
//! Parked threads exit when the last [`Server`] clone drops.
//!
//! ```no_run
//! use sommelier_core::adapters::EventLogAdapter;
//! use sommelier_core::{LoadingMode, Priority, Sommelier};
//! use sommelier_server::{Server, SessionOptions};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let somm = Sommelier::builder()
//!     .source(EventLogAdapter::new("/data/logs"))
//!     .build()
//!     .unwrap();
//! somm.prepare(LoadingMode::Lazy).unwrap();
//! let server = Server::new(Arc::new(somm));
//! let session = server.open_session(SessionOptions {
//!     priority: Priority::High,
//!     default_timeout: Some(Duration::from_secs(30)),
//!     ..Default::default()
//! });
//! let handle = session.submit("SELECT AVG(E.val) FROM eventview").unwrap();
//! let result = handle.wait().unwrap();
//! println!("{} rows", result.relation.rows());
//! ```

use sommelier_core::{
    CancelToken, DegradationPolicy, Metric, MetricsRegistry, Priority, QueryOptions,
    QueryResult, Sommelier, SommelierError,
};
use sommelier_storage::sync::unpoison;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

// ---------------------------------------------------------------------
// Errors

/// Failure of a server-submitted query.
#[derive(Debug)]
pub enum ServerError {
    /// The query was cancelled via [`QueryHandle::cancel`] (or its
    /// session token).
    Cancelled,
    /// The query's timeout elapsed (default from
    /// [`SessionOptions::default_timeout`] or per-submit override).
    TimedOut,
    /// The session already has [`SessionOptions::max_in_flight`]
    /// queries running.
    QuotaExceeded { limit: usize },
    /// Admission control rejected the query: the server-wide wait
    /// queue is full. `retry_after_ms` is the backpressure contract —
    /// how long the client should wait before resubmitting, computed
    /// from queue depth and observed query latency. Transient by
    /// definition: the same query is expected to succeed later.
    Overloaded { message: String, retry_after_ms: u64 },
    /// The server is draining ([`Server::shutdown`] was called) and no
    /// longer accepts queries.
    ShuttingDown,
    /// This exact query text panicked earlier in this session and is
    /// quarantined: resubmitting it verbatim fails fast instead of
    /// hot-looping a poison query through the worker pool.
    Quarantined { fingerprint: u64 },
    /// Any other failure, forwarded from the underlying system.
    Query(SommelierError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Cancelled => write!(f, "query cancelled"),
            ServerError::TimedOut => write!(f, "query timed out"),
            ServerError::QuotaExceeded { limit } => {
                write!(f, "session quota exceeded ({limit} queries in flight)")
            }
            ServerError::Overloaded { message, retry_after_ms } => {
                write!(f, "server overloaded: {message} (retry after {retry_after_ms}ms)")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Quarantined { fingerprint } => {
                write!(f, "query quarantined after a panic (fingerprint {fingerprint:#x})")
            }
            ServerError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SommelierError> for ServerError {
    fn from(e: SommelierError) -> Self {
        use sommelier_engine::EngineError;
        match e {
            SommelierError::Engine(EngineError::Cancelled { timed_out: true }) => {
                ServerError::TimedOut
            }
            SommelierError::Engine(EngineError::Cancelled { timed_out: false }) => {
                ServerError::Cancelled
            }
            SommelierError::Overloaded { message, retry_after_ms } => {
                ServerError::Overloaded { message, retry_after_ms }
            }
            SommelierError::ShuttingDown => ServerError::ShuttingDown,
            other => ServerError::Query(other),
        }
    }
}

// ---------------------------------------------------------------------
// Server

struct ServerShared {
    somm: Arc<Sommelier>,
    next_session: AtomicU64,
    /// Set once by [`Server::shutdown`]; submits fail fast with
    /// [`ServerError::ShuttingDown`] from then on.
    shutting_down: AtomicBool,
    /// Every in-flight query's completion state + cancel token, so
    /// shutdown (and the drop drain) can watch and fire them without
    /// the client keeping its [`QueryHandle`] alive. The list holds the
    /// state weakly: a detached query's result is freed as its control
    /// thread publishes it. Dead and finished entries are pruned on
    /// each registration.
    inflight: Mutex<Vec<(Weak<HandleState>, CancelToken)>>,
    /// The control threads that run submitted queries.
    control: Arc<ControlPool>,
}

impl ServerShared {
    fn register_inflight(&self, state: &Arc<HandleState>, cancel: &CancelToken) {
        let mut v = unpoison(self.inflight.lock());
        v.retain(|(st, _)| is_unfinished(st));
        v.push((Arc::downgrade(state), cancel.clone()));
    }

    fn unfinished_inflight(&self) -> usize {
        let v = unpoison(self.inflight.lock());
        v.iter().filter(|(st, _)| is_unfinished(st)).count()
    }

    fn cancel_inflight(&self) -> usize {
        let v = unpoison(self.inflight.lock());
        let mut fired = 0;
        for (st, cancel) in v.iter() {
            if is_unfinished(st) {
                cancel.cancel();
                fired += 1;
            }
        }
        fired
    }

    /// Wait until every registered query finished or `deadline` passes,
    /// on each unfinished query's completion condvar in turn, so the
    /// drain returns as the last one publishes. The list is read again
    /// after each round: a submit that passed the shutdown check just
    /// before it was set registers late and is waited on too. Returns
    /// the number still unfinished.
    fn drain_until(&self, deadline: std::time::Instant) -> usize {
        loop {
            let running: Vec<Arc<HandleState>> = {
                let v = unpoison(self.inflight.lock());
                v.iter()
                    .filter_map(|(st, _)| st.upgrade())
                    .filter(|st| !st.finished.load(Ordering::Acquire))
                    .collect()
            };
            if running.is_empty() || std::time::Instant::now() >= deadline {
                return running.len();
            }
            for state in running {
                let guard = unpoison(state.result.lock());
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                let _ = unpoison(state.cv.wait_timeout_while(guard, left, |_| {
                    !state.finished.load(Ordering::Acquire)
                }));
            }
        }
    }
}

/// Is an in-flight entry's query still running? Its control thread
/// holds the state until it publishes, so a state nobody holds has
/// finished.
fn is_unfinished(state: &Weak<HandleState>) -> bool {
    state.upgrade().is_some_and(|st| !st.finished.load(Ordering::Acquire))
}

impl Drop for ServerShared {
    fn drop(&mut self) {
        // Best-effort drain on the last server clone going away:
        // cancel whatever is still running and give it a short window
        // to unwind, so dropped servers do not leave control threads
        // mutating a system the caller believes quiesced. Deliberately
        // does NOT flip the system's admission into shutdown — the
        // shared `Sommelier` stays fully usable after the server drops.
        if self.cancel_inflight() > 0 {
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            self.drain_until(deadline);
        }
        // Parked control threads exit now; a straggler exits once its
        // query has published.
        self.control.close();
    }
}

/// What [`Server::shutdown`] accomplished, including the invariant
/// ledger read after the drain: a clean shutdown reports zeros across
/// `leaked_pins`, `staged_bytes`, and `queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Queries that finished on their own within the deadline.
    pub drained: usize,
    /// Queries still running at the deadline whose cancel tokens were
    /// fired.
    pub cancelled: usize,
    /// Chunk pins still held after the drain (0 on a clean shutdown).
    pub leaked_pins: usize,
    /// Prefetch bytes still staged after the drain: the
    /// `prefetch.staged_bytes` gauge (0 on a clean shutdown).
    pub staged_bytes: usize,
    /// Admission-queue depth after the drain: the
    /// `admission.queue_depth` gauge (0 on a clean shutdown — queued
    /// waiters are woken with `ShuttingDown`).
    pub queued: u64,
    /// Wall-clock time the shutdown took.
    pub elapsed: Duration,
}

impl ShutdownReport {
    /// Did the drain leave the system with balanced books?
    pub fn is_clean(&self) -> bool {
        self.leaked_pins == 0 && self.staged_bytes == 0 && self.queued == 0
    }
}

/// The long-running multi-tenant front end over one [`Sommelier`].
/// Cheap to clone; all clones share the same session accounting.
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
}

impl Server {
    /// Wrap a (prepared) system. The system should run with admission
    /// control on (the default) — the server works without it, but then
    /// nothing bounds how many queries execute at once. Worker threads
    /// are bounded either way: every morsel runs on the system's shared
    /// scheduler, or inline when `max_threads` is 1.
    pub fn new(somm: Arc<Sommelier>) -> Self {
        let control = Arc::new(ControlPool {
            metrics: Arc::clone(somm.metrics()),
            idle: Mutex::new(Idle { parked: Vec::new(), closed: false }),
        });
        Server {
            shared: Arc::new(ServerShared {
                somm,
                next_session: AtomicU64::new(1),
                shutting_down: AtomicBool::new(false),
                inflight: Mutex::new(Vec::new()),
                control,
            }),
        }
    }

    /// Gracefully drain and stop the server.
    ///
    /// 1. New submits (and queries waiting in the admission queue)
    ///    fail fast with a typed [`ServerError::ShuttingDown`].
    /// 2. In-flight queries get up to `deadline` to finish on their
    ///    own.
    /// 3. Stragglers have their [`CancelToken`]s fired, and are given
    ///    a bounded grace period to observe the token and unwind.
    /// 4. The shared [`sommelier_core::MorselScheduler`]'s workers are
    ///    joined (post-shutdown queries would still run, inline).
    /// 5. The invariant ledger is read: pinned chunks, staged prefetch
    ///    bytes, and admission-queue depth must all be zero — reported,
    ///    not assumed, in the returned [`ShutdownReport`].
    ///
    /// Idempotent: later calls re-drain whatever is left (trivially
    /// nothing) and re-read the ledger.
    pub fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        let t0 = std::time::Instant::now();
        let shared = &self.shared;
        shared.shutting_down.store(true, Ordering::Release);
        // Admission starts rejecting (and wakes queued waiters typed).
        shared.somm.begin_shutdown();
        let before = shared.unfinished_inflight();
        let left = shared.drain_until(t0 + deadline);
        let drained = before - left;
        let cancelled = shared.cancel_inflight();
        if cancelled > 0 {
            // Cancellation is cooperative (observed at chunk-pipeline
            // boundaries), so give stragglers a bounded grace window —
            // generous, but never unbounded.
            shared.drain_until(std::time::Instant::now() + Duration::from_secs(30));
        }
        if let Some(sched) = shared.somm.scheduler() {
            sched.shutdown();
        }
        let leaked_pins = shared.somm.cellar().map_or(0, |c| c.total_pins());
        let metrics = shared.somm.metrics();
        let staged_bytes = metrics.get(Metric::PrefetchStagedBytes) as usize;
        let queued = metrics.get(Metric::AdmissionQueueDepth);
        ShutdownReport {
            drained,
            cancelled,
            leaked_pins,
            staged_bytes,
            queued,
            elapsed: t0.elapsed(),
        }
    }

    /// Has [`Server::shutdown`] been called?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    /// Open a session with the given per-session policy.
    pub fn open_session(&self, options: SessionOptions) -> Session {
        let shared = Arc::clone(&self.shared);
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.somm.metrics().add(Metric::ServerActiveSessions, 1);
        Session {
            shared,
            id,
            options,
            in_flight: Arc::new(AtomicUsize::new(0)),
            quarantined: Arc::new(Mutex::new(std::collections::HashSet::new())),
        }
    }

    /// The wrapped system (for metrics scraping, EXPLAIN, ...).
    pub fn sommelier(&self) -> &Arc<Sommelier> {
        &self.shared.somm
    }

    /// Currently open sessions: the system's `server.active_sessions`
    /// gauge, which every session opens and closes in place.
    pub fn active_sessions(&self) -> u64 {
        self.shared.somm.metrics().get(Metric::ServerActiveSessions)
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("active_sessions", &self.active_sessions()).finish()
    }
}

// ---------------------------------------------------------------------
// Session

/// Per-session policy.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Scheduling priority of the session's queries: position in the
    /// admission queue and of their morsel batches on the shared pool.
    pub priority: Priority,
    /// Quota: how many of the session's queries may be in flight at
    /// once; further submits fail fast with
    /// [`ServerError::QuotaExceeded`].
    pub max_in_flight: usize,
    /// Timeout applied to every query that does not override it.
    pub default_timeout: Option<Duration>,
    /// What the session's queries do with chunks that stay unreadable
    /// after retries: fail (`Strict`, default) or complete over the
    /// readable rest and report the skips
    /// (`sommelier_core::QueryResult::degraded`).
    pub degradation: DegradationPolicy,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            priority: Priority::Normal,
            max_in_flight: 8,
            default_timeout: None,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// Per-submit overrides of the session policy.
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Override the session priority for this query.
    pub priority: Option<Priority>,
    /// Override the session default timeout for this query.
    pub timeout: Option<Duration>,
    /// Override the session degradation policy for this query.
    pub degradation: Option<DegradationPolicy>,
}

/// One tenant's handle on the server. Thread-safe; dropping it closes
/// the session (in-flight queries run to completion).
pub struct Session {
    shared: Arc<ServerShared>,
    id: u64,
    options: SessionOptions,
    in_flight: Arc<AtomicUsize>,
    /// Fingerprints (hashes of the exact query text) of queries that
    /// panicked in this session. Resubmitting one fails fast with
    /// [`ServerError::Quarantined`] — a poison query cannot be
    /// hot-looped through the worker pool.
    quarantined: Arc<Mutex<std::collections::HashSet<u64>>>,
}

/// The quarantine fingerprint of a query: a hash of its exact text.
fn query_fingerprint(sql: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sql.hash(&mut h);
    h.finish()
}

impl Session {
    /// The server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queries of this session quarantined after panicking.
    pub fn quarantined_count(&self) -> usize {
        unpoison(self.quarantined.lock()).len()
    }

    /// Queries of this session currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The session's degradation policy (what its queries do with
    /// unreadable chunks, absent a per-submit override).
    pub fn degradation_policy(&self) -> DegradationPolicy {
        self.options.degradation
    }

    /// Submit a query under the session's policy. Returns immediately
    /// with a [`QueryHandle`]; the query starts at once on a control
    /// thread of its own — a parked one reused, or a new one when none
    /// is parked — and runs asynchronously (queued by admission control
    /// when the server is busy).
    pub fn submit(&self, sql: &str) -> Result<QueryHandle, ServerError> {
        self.submit_with(sql, &SubmitOptions::default())
    }

    /// Submit with per-query overrides.
    pub fn submit_with(
        &self,
        sql: &str,
        overrides: &SubmitOptions,
    ) -> Result<QueryHandle, ServerError> {
        // Lifecycle gates first — they must not consume a quota slot.
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let fingerprint = query_fingerprint(sql);
        if unpoison(self.quarantined.lock()).contains(&fingerprint) {
            return Err(ServerError::Quarantined { fingerprint });
        }
        let limit = self.options.max_in_flight.max(1);
        // Claim a quota slot (released as the result is published).
        if self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_err()
        {
            return Err(ServerError::QuotaExceeded { limit });
        }
        let cancel = CancelToken::new();
        let qopts = QueryOptions {
            priority: overrides.priority.unwrap_or(self.options.priority),
            cancel: Some(cancel.clone()),
            timeout: overrides.timeout.or(self.options.default_timeout),
            degradation: overrides.degradation.unwrap_or(self.options.degradation),
        };
        let state = Arc::new(HandleState {
            result: Mutex::new(None),
            cv: Condvar::new(),
            finished: AtomicBool::new(false),
        });
        self.shared.register_inflight(&state, &cancel);
        self.shared.control.dispatch(Job {
            somm: Arc::clone(&self.shared.somm),
            sql: sql.to_string(),
            opts: qopts,
            fingerprint,
            quarantined: Arc::clone(&self.quarantined),
            in_flight: Arc::clone(&self.in_flight),
            state: Arc::clone(&state),
        });
        Ok(QueryHandle { cancel, state })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.somm.metrics().sub(Metric::ServerActiveSessions, 1);
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("in_flight", &self.in_flight())
            .field("options", &self.options)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Control threads

/// One submitted query, as a control thread runs it.
struct Job {
    somm: Arc<Sommelier>,
    sql: String,
    opts: QueryOptions,
    fingerprint: u64,
    quarantined: Arc<Mutex<std::collections::HashSet<u64>>>,
    in_flight: Arc<AtomicUsize>,
    state: Arc<HandleState>,
}

/// A finished query, not yet handed to its waiter.
struct Done {
    result: Result<QueryResult, ServerError>,
    in_flight: Arc<AtomicUsize>,
    state: Arc<HandleState>,
}

impl Job {
    /// Run the query (it blocks in admission and on the scheduler; the
    /// morsels run on the shared pool) and quarantine it if it
    /// panicked. The system handle drops here, before the result is
    /// published.
    fn run(self) -> Done {
        let result = self.somm.query_opts(&self.sql, &self.opts).map_err(ServerError::from);
        if matches!(&result, Err(ServerError::Query(SommelierError::QueryPanicked { .. }))) {
            unpoison(self.quarantined.lock()).insert(self.fingerprint);
        }
        Done { result, in_flight: self.in_flight, state: self.state }
    }
}

impl Done {
    /// Release the quota slot and hand the result to the waiter.
    fn publish(self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        // `finished` flips under the result lock, so a waiter that saw
        // it unset while holding the lock is parked before the notify.
        let mut result = unpoison(self.state.result.lock());
        *result = Some(self.result);
        self.state.finished.store(true, Ordering::Release);
        drop(result);
        self.state.cv.notify_all();
    }
}

/// The server's control threads. A thread runs one query at a time;
/// between queries it parks on a one-slot mailbox in the idle list,
/// which is popped last-in first-out so the most recently active
/// threads (and their warm malloc arenas) serve the next submits. A
/// thread is spawned only when none is parked, so live threads never
/// outnumber the peak of in-flight queries. Closing the pool drops the
/// parked mailboxes, and their threads exit; a busy one exits after
/// publishing its result.
struct ControlPool {
    metrics: Arc<MetricsRegistry>,
    idle: Mutex<Idle>,
}

struct Idle {
    parked: Vec<SyncSender<Job>>,
    closed: bool,
}

impl ControlPool {
    /// Start `job` on a parked control thread, or on a new one.
    fn dispatch(self: &Arc<Self>, mut job: Job) {
        let parked = unpoison(self.idle.lock()).parked.pop();
        if let Some(mailbox) = parked {
            // A parked thread holds its receiver until a job arrives;
            // should it have died instead, a new thread takes the job.
            match mailbox.send(job) {
                Ok(()) => return,
                Err(SendError(back)) => job = back,
            }
        }
        let pool = Arc::clone(self);
        std::thread::Builder::new()
            .name("somm-control".into())
            .spawn(move || pool.serve(job))
            .expect("start a server control thread");
    }

    /// A control thread's life: run jobs until the pool closes.
    fn serve(&self, mut job: Job) {
        self.metrics.add(Metric::ServerControlThreads, 1);
        loop {
            let done = job.run();
            // Park before publishing, so that the woken client's next
            // submit finds this thread instead of spawning another.
            let (mailbox, next) = sync_channel(1);
            self.park(mailbox);
            done.publish();
            match next.recv() {
                Ok(next) => job = next,
                Err(_) => break,
            }
        }
        self.metrics.sub(Metric::ServerControlThreads, 1);
    }

    /// Put `mailbox` on the idle list, or drop it once the pool is
    /// closed.
    fn park(&self, mailbox: SyncSender<Job>) {
        let mut idle = unpoison(self.idle.lock());
        if !idle.closed {
            idle.parked.push(mailbox);
        }
    }

    fn close(&self) {
        let mut idle = unpoison(self.idle.lock());
        idle.closed = true;
        idle.parked.clear();
    }
}

// ---------------------------------------------------------------------
// QueryHandle

struct HandleState {
    result: Mutex<Option<Result<QueryResult, ServerError>>>,
    cv: Condvar,
    finished: AtomicBool,
}

/// An in-flight query. Wait on it, poll it, or cancel it; dropping the
/// handle detaches the query (it runs to completion unobserved).
pub struct QueryHandle {
    cancel: CancelToken,
    state: Arc<HandleState>,
}

impl QueryHandle {
    /// Request cooperative cancellation. The engine observes the token
    /// at the next chunk-pipeline boundary (or in the admission
    /// queue); the query then fails with [`ServerError::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The query's cancellation token (shareable with watchdogs).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Has the query finished (successfully or not)?
    pub fn is_finished(&self) -> bool {
        self.state.finished.load(Ordering::Acquire)
    }

    /// Block until the query finishes and return its result.
    pub fn wait(self) -> Result<QueryResult, ServerError> {
        let mut guard = unpoison(self.state.result.lock());
        loop {
            if let Some(res) = guard.take() {
                return res;
            }
            guard = unpoison(self.state.cv.wait(guard));
        }
    }

    /// Wait up to `timeout` for the result. `None` means the query is
    /// still running and the handle stays usable (poll again, cancel,
    /// or [`QueryHandle::wait`]).
    pub fn wait_for(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<QueryResult, ServerError>> {
        let mut guard = unpoison(self.state.result.lock());
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(res) = guard.take() {
                return Some(res);
            }
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let (g, _) = unpoison(self.state.cv.wait_timeout(guard, left));
            guard = g;
        }
    }
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle").field("finished", &self.is_finished()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
    use sommelier_core::LoadingMode;

    /// A server over a generated event-log repository, which is
    /// removed when the server is dropped (also when its test fails).
    struct TestServer {
        server: Server,
        dir: std::path::PathBuf,
    }

    impl std::ops::Deref for TestServer {
        type Target = Server;
        fn deref(&self) -> &Server {
            &self.server
        }
    }

    impl Drop for TestServer {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn test_server(tag: &str) -> TestServer {
        let dir = std::env::temp_dir()
            .join(format!("somm-server-unit-{tag}-{}", std::process::id()));
        generate_event_logs(&dir, &EventLogSpec::small(2, 128)).unwrap();
        let somm = Sommelier::builder().source(EventLogAdapter::new(&dir)).build().unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        TestServer { server: Server::new(Arc::new(somm)), dir }
    }

    #[test]
    fn sessions_are_counted_and_queries_run() {
        let server = test_server("count");
        assert_eq!(server.active_sessions(), 0);
        let session = server.open_session(SessionOptions::default());
        assert_eq!(server.active_sessions(), 1);
        let r = session.submit("SELECT AVG(E.val) FROM eventview").unwrap().wait().unwrap();
        assert_eq!(r.relation.rows(), 1);
        assert_eq!(session.in_flight(), 0);
        drop(session);
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn detached_result_is_freed_when_published() {
        let server = test_server("detach");
        let session = server.open_session(SessionOptions::default());
        let handle = session.submit("SELECT AVG(E.val) FROM eventview").unwrap();
        let entry = {
            let v = server.shared.inflight.lock().unwrap();
            assert_eq!(v.len(), 1);
            Weak::clone(&v[0].0)
        };
        drop(handle);
        // Once the control thread has published, nothing holds the
        // state, and with it the result.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while entry.upgrade().is_some() {
            assert!(std::time::Instant::now() < deadline, "detached state still held");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.shared.unfinished_inflight(), 0);
        assert_eq!(session.in_flight(), 0);
    }

    /// A query that registers while the drain waits on another is
    /// waited on too: the drain reads the in-flight list again after
    /// each round.
    #[test]
    fn drain_waits_for_a_query_registered_during_the_drain() {
        let server = test_server("late");
        let shared = Arc::clone(&server.shared);
        let state = || {
            Arc::new(HandleState {
                result: Mutex::new(None),
                cv: Condvar::new(),
                finished: AtomicBool::new(false),
            })
        };
        let finish = |st: &HandleState| {
            let guard = st.result.lock().unwrap();
            st.finished.store(true, Ordering::Release);
            drop(guard);
            st.cv.notify_all();
        };
        let (first, late) = (state(), state());
        shared.register_inflight(&first, &CancelToken::new());
        let drain = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.drain_until(std::time::Instant::now() + Duration::from_secs(10))
            })
        };
        // The drain is waiting on `first` when `late` registers. (The
        // sleep only gives it time to get there: a drain that has not
        // yet read the list finds both states, and passes either way.)
        std::thread::sleep(Duration::from_millis(20));
        shared.register_inflight(&late, &CancelToken::new());
        finish(&first);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drain.is_finished(), "the drain returned with a query running");
        finish(&late);
        assert_eq!(drain.join().unwrap(), 0);
    }

    #[test]
    fn quota_rejects_typed() {
        let server = test_server("quota");
        let session =
            server.open_session(SessionOptions { max_in_flight: 1, ..Default::default() });
        // Occupy the single slot manually so the second submit is
        // deterministic regardless of query speed.
        session.in_flight.store(1, Ordering::SeqCst);
        let err = session.submit("SELECT AVG(E.val) FROM eventview").unwrap_err();
        assert!(matches!(err, ServerError::QuotaExceeded { limit: 1 }), "{err}");
        session.in_flight.store(0, Ordering::SeqCst);
    }

    #[test]
    fn bad_sql_is_a_query_error() {
        let server = test_server("badsql");
        let session = server.open_session(SessionOptions::default());
        let err = session.submit("SELECT nonsense FROM nowhere").unwrap().wait().unwrap_err();
        assert!(matches!(err, ServerError::Query(_)), "{err}");
    }

    #[test]
    fn shutdown_drains_and_rejects_new_submits() {
        let server = test_server("shutdown");
        let session = server.open_session(SessionOptions::default());
        // One query through first, so the drain has had real traffic.
        let r = session.submit("SELECT AVG(E.val) FROM eventview").unwrap().wait().unwrap();
        assert_eq!(r.relation.rows(), 1);
        assert!(!server.is_shutting_down());
        let report = server.shutdown(Duration::from_secs(5));
        assert!(server.is_shutting_down());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.cancelled, 0, "idle server cancels nothing");
        assert!(report.elapsed < Duration::from_secs(5));
        // New submits fail fast and typed, without consuming quota.
        let err = session.submit("SELECT AVG(E.val) FROM eventview").unwrap_err();
        assert!(matches!(err, ServerError::ShuttingDown), "{err}");
        assert_eq!(session.in_flight(), 0);
        // Shutdown is idempotent.
        let again = server.shutdown(Duration::from_millis(100));
        assert!(again.is_clean(), "{again:?}");
    }

    #[test]
    fn panicking_query_is_typed_and_quarantined() {
        use sommelier_core::{FaultPlan, SommelierConfig};
        let dir =
            std::env::temp_dir().join(format!("somm-server-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate_event_logs(&dir, &EventLogSpec::small(2, 64)).unwrap();
        let mut chunks = Vec::new();
        fn walk(dir: &std::path::Path, out: &mut Vec<String>) {
            for e in std::fs::read_dir(dir).unwrap().flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p.to_string_lossy().into_owned());
                }
            }
        }
        walk(&dir, &mut chunks);
        chunks.sort();
        let somm = Sommelier::builder()
            .config(SommelierConfig {
                fault_plan: Some(FaultPlan {
                    panic_uris: vec![chunks[0].clone()],
                    ..FaultPlan::default()
                }),
                ..Default::default()
            })
            .source(EventLogAdapter::new(&dir))
            .build()
            .unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let somm = Arc::new(somm);
        let server = Server::new(Arc::clone(&somm));
        let session = server.open_session(SessionOptions::default());
        let sql = "SELECT AVG(E.val) FROM eventview";
        // First submit: the injected decode panic fails only this
        // query, typed.
        let err = session.submit(sql).unwrap().wait().unwrap_err();
        assert!(
            matches!(&err, ServerError::Query(SommelierError::QueryPanicked { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("panic"), "{err}");
        assert_eq!(session.quarantined_count(), 1);
        // Resubmitting the poison query fails fast — no hot loop.
        let err = session.submit(sql).unwrap_err();
        assert!(matches!(err, ServerError::Quarantined { .. }), "{err}");
        // No pins or staged bytes leaked, and a query over the healthy
        // chunk (fresh session, same system) still works — the panic
        // poisoned neither the pool nor the cellar.
        assert_eq!(somm.cellar().map_or(0, |c| c.total_pins()), 0);
        assert_eq!(somm.prefetch_stage().map_or(0, |s| s.staged_bytes()), 0);
        let other = server.open_session(SessionOptions::default());
        let healthy = &chunks[1];
        let r = other
            .submit(&format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{healthy}'"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.relation.rows(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_share_one_prefetch_stage() {
        use sommelier_core::LoadingMode;
        let dir =
            std::env::temp_dir().join(format!("somm-server-prefetch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate_event_logs(&dir, &EventLogSpec::small(3, 64)).unwrap();
        let somm = Sommelier::builder().source(EventLogAdapter::new(&dir)).build().unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let somm = Arc::new(somm);
        let server = Server::new(Arc::clone(&somm));
        // Two sessions race cold multi-chunk scans: both windows run on
        // the system's single IO pool and stage, whose issue/hit
        // counters therefore accumulate across sessions.
        let sql = "SELECT AVG(E.val) FROM eventview WHERE E.val > -1000000000";
        let a = server.open_session(SessionOptions::default());
        let b = server.open_session(SessionOptions::default());
        let (ha, hb) = (a.submit(sql).unwrap(), b.submit(sql).unwrap());
        let (ra, rb) = (ha.wait().unwrap(), hb.wait().unwrap());
        assert_eq!(
            format!("{:?}", ra.relation),
            format!("{:?}", rb.relation),
            "shared staging must not change answers"
        );
        let stage = somm.prefetch_stage().expect("prefetch on by default");
        let (issued, hits) = (
            somm.metrics().get(Metric::PrefetchIssued),
            somm.metrics().get(Metric::PrefetchHits),
        );
        assert!(issued >= 1, "cold scans must issue prefetches");
        assert!(hits >= 1, "decodes must consume staged bytes");
        assert_eq!(stage.staged_bytes(), 0, "stage drains once queries end");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_session_degradation_policy() {
        use sommelier_core::{FaultPlan, SommelierConfig};
        let dir =
            std::env::temp_dir().join(format!("somm-server-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate_event_logs(&dir, &EventLogSpec::small(2, 64)).unwrap();
        // Declare one chunk file permanently corrupt via the injector.
        fn walk(dir: &std::path::Path, out: &mut Vec<String>) {
            for e in std::fs::read_dir(dir).unwrap().flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p.to_string_lossy().into_owned());
                }
            }
        }
        let mut chunks = Vec::new();
        walk(&dir, &mut chunks);
        chunks.sort();
        let victim = chunks[0].clone();
        let somm = Sommelier::builder()
            .config(SommelierConfig {
                fault_plan: Some(FaultPlan {
                    corrupt_uris: vec![victim.clone()],
                    ..FaultPlan::default()
                }),
                ..Default::default()
            })
            .source(EventLogAdapter::new(&dir))
            .build()
            .unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let server = Server::new(Arc::new(somm));
        // A strict session fails with a typed error naming the chunk...
        let strict = server.open_session(SessionOptions::default());
        assert_eq!(strict.degradation_policy(), DegradationPolicy::Strict);
        let err =
            strict.submit("SELECT AVG(E.val) FROM eventview").unwrap().wait().unwrap_err();
        assert!(err.to_string().contains(&victim), "{err}");
        // ...while a SkipUnreadable session completes over the readable
        // rest and reports the skip.
        let skip = server.open_session(SessionOptions {
            degradation: DegradationPolicy::SkipUnreadable,
            ..Default::default()
        });
        let r = skip.submit("SELECT AVG(E.val) FROM eventview").unwrap().wait().unwrap();
        assert_eq!(r.relation.rows(), 1);
        let d = r.degraded.expect("degraded report present");
        assert_eq!(d.skipped_chunks, vec![victim]);
        assert_eq!(d.reasons.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
