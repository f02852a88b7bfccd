//! Asynchronous raw-byte chunk prefetch: overlap cold repository IO
//! with decode/execute.
//!
//! The two-stage design hands the driver the *exact* surviving chunk
//! list right after zone pruning — before a single byte is decoded.
//! The [`PrefetchStage`] exploits that: a small dedicated IO-thread
//! pool reads the raw bytes of chunks `k+1..k+depth` (through
//! [`crate::source::SourceAdapter::fetch_bytes`]) while morsel workers
//! decode/execute chunk `k` (through
//! [`crate::source::SourceAdapter::decode_bytes`]). On a cold cellar
//! with a seek-dominated medium this turns `IO + decode` per chunk
//! into `max(IO, decode)` — the Odysseus/AsterixDB separation of data
//! fetch from query compute.
//!
//! Discipline, in one place:
//!
//! * **Window** — at most `depth` fetches in flight per plan; a new
//!   fetch is issued only when the cellar byte budget admits it
//!   (`resident + staged + estimate <= budget`: staged bytes count
//!   against the budget). Under a ~1-chunk budget nothing is ever
//!   issued: prefetch degrades to depth 0 instead of deadlocking.
//! * **Charging** — the `FaultInjector` gate (spikes, holds, injected
//!   errors) runs inside the fetcher closure, i.e. on the IO thread, so
//!   an injected slow read genuinely overlaps with compute (the decode
//!   worker passes the gate itself only on the non-prefetched path).
//! * **Failure** — a failed fetch (after its own retry/backoff, cancel
//!   honored) parks a `Failed` state that the claiming loader consumes
//!   as an error *and removes*; the loader's outer retry loop then
//!   falls back to the direct read path — exactly the wake-retryable
//!   contract of a failed cellar load.
//! * **No leaks** — [`PrefetchPlan::finish`] (driver drop-guard) marks
//!   every unclaimed entry abandoned: staged bytes are released and
//!   counted as `prefetch.wasted_bytes`, in-flight fetches discard
//!   their buffer on completion. Cancellation mid-prefetch and
//!   pruning-after-issue therefore leave zero staged bytes behind.

use crate::fault::{with_retries, RetryPolicy};
use crate::source::RawChunk;
use sommelier_engine::{
    CancelToken, EngineError, ErrorKind, Metric, MetricsRegistry, Obs, TraceCollector,
};
use sommelier_storage::sync::unpoison;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A fetch closure: read one chunk's raw bytes (passing the fault
/// injection gate inside, so it lands on the IO thread).
pub type RawFetcher = Arc<dyn Fn(&str) -> Result<RawChunk, EngineError> + Send + Sync>;

// ---------------------------------------------------------------------
// IoPool

type IoJob = Box<dyn FnOnce() + Send>;

/// A small fixed pool of dedicated IO threads (`somm-io-N`). Separate
/// from the morsel scheduler on purpose: prefetch reads must not
/// compete with decode work for CPU workers, and one pool per system
/// is shared by every session of a server.
pub struct IoPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    queue: Mutex<VecDeque<IoJob>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl IoPool {
    /// A pool of `threads` IO workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("somm-io-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut q = unpoison(shared.queue.lock());
                            loop {
                                if let Some(job) = q.pop_front() {
                                    break job;
                                }
                                if shared.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                q = unpoison(shared.cv.wait(q));
                            }
                        };
                        job();
                    })
                    .expect("spawn IO thread")
            })
            .collect();
        IoPool { shared, threads }
    }

    /// Number of IO threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    fn submit(&self, job: IoJob) {
        let mut q = unpoison(self.shared.queue.lock());
        q.push_back(job);
        self.shared.cv.notify_one();
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        {
            // Flip the flag under the queue lock: a worker checks it
            // and parks on `cv` while holding that lock, so it either
            // sees the flag or is already parked when we notify (a
            // flip between its check and its park would be a lost
            // wakeup, and the join below would wait forever).
            let _q = unpoison(self.shared.queue.lock());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for IoPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPool").field("threads", &self.threads.len()).finish()
    }
}

// ---------------------------------------------------------------------
// Staged entries

/// One staged fetch: the raw-byte analogue of the cellar's load latch.
struct RawLatch {
    state: Mutex<RawState>,
    cv: Condvar,
}

enum RawState {
    /// The fetch is queued or running on an IO thread.
    Pending,
    /// Raw bytes staged, waiting to be claimed by a decode.
    Ready(RawChunk),
    /// The fetch failed terminally (after its own retries). The bool
    /// marks a caught fetcher panic, so [`PrefetchStage::claim`] can
    /// rebuild a typed [`EngineError::Panicked`] instead of a generic
    /// load failure (panics must never be retried or skipped over).
    Failed(ErrorKind, String, bool),
    /// The plan finished before anyone claimed this entry; a late
    /// publish discards its buffer (counted as wasted).
    Abandoned,
    /// A loader consumed the entry (bytes or error) — terminal.
    Claimed,
}

impl RawLatch {
    fn new() -> Arc<Self> {
        Arc::new(RawLatch { state: Mutex::new(RawState::Pending), cv: Condvar::new() })
    }
}

// ---------------------------------------------------------------------
// PrefetchStage

/// Reports `(resident_bytes, budget_bytes)` of the cellar a stage
/// feeds (see [`PrefetchStage::bind_budget_probe`]).
type BudgetProbe = Box<dyn Fn() -> (usize, usize) + Send + Sync>;

/// The per-system prefetch stage: IO pool + staged-byte accounting +
/// the URI → staged-fetch map. One stage serves every query (and every
/// server session) of a [`crate::Sommelier`].
pub struct PrefetchStage {
    pool: IoPool,
    /// Sliding-window depth per plan (`SommelierConfig::prefetch_depth`).
    depth: usize,
    /// Retry/backoff for fetch attempts on the IO thread (same policy
    /// as the cellar's decode retries).
    retry: RetryPolicy,
    /// Counts `prefetch.*` and the fetches' retries. Its
    /// `prefetch.staged_bytes` gauge is the one record of the bytes
    /// staged (Ready, unclaimed), which count against the cellar budget.
    /// Relaxed like every registry slot: the gauge publishes no data
    /// (staged bytes are handed over under each latch's lock).
    obs: Obs,
    metrics: Arc<MetricsRegistry>,
    /// Staged fetches by URI (single-flight per chunk across plans).
    entries: Mutex<HashMap<String, Arc<RawLatch>>>,
    /// `(resident_bytes, budget_bytes)` of the cellar this stage feeds;
    /// bound once after the cellar is built. Issuing checks
    /// `resident + staged + estimate <= budget`.
    budget_probe: Mutex<Option<BudgetProbe>>,
}

impl PrefetchStage {
    /// A stage with `io_threads` dedicated IO workers and a per-plan
    /// window of `depth`, counting into `metrics`; staged bytes are
    /// bounded by the cellar budget (see [`Self::bind_budget_probe`]).
    pub fn new(
        io_threads: usize,
        depth: usize,
        retry: RetryPolicy,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        PrefetchStage {
            pool: IoPool::new(io_threads),
            depth: depth.max(1),
            retry,
            obs: Obs::new(Arc::clone(&metrics)),
            metrics,
            entries: Mutex::new(HashMap::new()),
            budget_probe: Mutex::new(None),
        }
    }

    /// Bind the cellar's `(resident, budget)` probe (called once at
    /// build time, after the cellar exists). Staged bytes then count
    /// against the cellar budget before every issue.
    pub fn bind_budget_probe(
        &self,
        probe: impl Fn() -> (usize, usize) + Send + Sync + 'static,
    ) {
        *unpoison(self.budget_probe.lock()) = Some(Box::new(probe));
    }

    /// Bytes currently staged (fetched, not yet claimed): the
    /// `prefetch.staged_bytes` gauge.
    pub fn staged_bytes(&self) -> usize {
        self.metrics.get(Metric::PrefetchStagedBytes) as usize
    }

    /// Charge the time a claimer waited out an in-flight fetch.
    fn note_wait(&self, waited: Option<Instant>) {
        if let Some(t) = waited {
            self.obs.count(Metric::PrefetchIoWaitNs, t.elapsed().as_nanos() as u64);
        }
    }

    /// Submit a plan: fetch `uris` (in order) through `fetcher`, at
    /// most the stage's window depth in flight, honoring `cancel`. URIs
    /// already being fetched by another live plan are skipped
    /// (single-flight).
    /// The caller must call [`PrefetchPlan::finish`] when the query's
    /// chunk wave ends (success, error, or cancel) so unclaimed bytes
    /// are released.
    pub fn submit(
        self: &Arc<Self>,
        uris: Vec<String>,
        fetcher: RawFetcher,
        cancel: Option<CancelToken>,
        tracer: Option<Arc<TraceCollector>>,
    ) -> Arc<PrefetchPlan> {
        let plan = Arc::new(PrefetchPlan {
            stage: Arc::clone(self),
            fetcher,
            cancel,
            tracer,
            uris,
            next: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            submitted: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
            mine: Mutex::new(Vec::new()),
        });
        plan.pump();
        plan
    }

    /// Claim staged bytes for `uri`, if a prefetch was issued for it:
    /// `None` = never staged (caller reads directly), `Some(Ok)` =
    /// bytes (possibly after waiting out an in-flight fetch — that wait
    /// is `prefetch.io_wait_ns`), `Some(Err)` = the fetch failed; the
    /// entry is consumed either way, so the caller's retry loop falls
    /// back to the direct path.
    pub fn claim(&self, uri: &str) -> Option<Result<RawChunk, EngineError>> {
        let latch = unpoison(self.entries.lock()).get(uri).map(Arc::clone)?;
        let mut waited = None;
        let mut state = unpoison(latch.state.lock());
        loop {
            match &mut *state {
                RawState::Pending => {
                    waited.get_or_insert_with(Instant::now);
                    state = unpoison(latch.cv.wait(state));
                }
                RawState::Ready(raw) => {
                    let raw = std::mem::take(raw);
                    *state = RawState::Claimed;
                    drop(state);
                    self.metrics.sub(Metric::PrefetchStagedBytes, raw.len() as u64);
                    self.obs.count(Metric::PrefetchHits, 1);
                    self.note_wait(waited);
                    self.remove_entry(uri, &latch);
                    return Some(Ok(raw));
                }
                RawState::Failed(kind, message, panicked) => {
                    let err = if *panicked {
                        EngineError::Panicked { payload: std::mem::take(message) }
                    } else {
                        EngineError::ChunkLoad {
                            uri: uri.to_string(),
                            kind: *kind,
                            message: std::mem::take(message),
                        }
                    };
                    *state = RawState::Claimed;
                    drop(state);
                    self.note_wait(waited);
                    self.remove_entry(uri, &latch);
                    return Some(Err(err));
                }
                // The owning plan finished while we were looking: treat
                // as a miss (the entry is gone from the map).
                RawState::Abandoned => return None,
                RawState::Claimed => return None,
            }
        }
    }

    /// Drop the map entry, but only if it still refers to `latch` (a
    /// newer plan may have re-staged the same URI).
    fn remove_entry(&self, uri: &str, latch: &Arc<RawLatch>) {
        let mut entries = unpoison(self.entries.lock());
        if let Some(cur) = entries.get(uri) {
            if Arc::ptr_eq(cur, latch) {
                entries.remove(uri);
            }
        }
    }
}

impl std::fmt::Debug for PrefetchStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchStage")
            .field("depth", &self.depth)
            .field("io_threads", &self.pool.threads())
            .field("staged_bytes", &self.staged_bytes())
            .finish()
    }
}

// ---------------------------------------------------------------------
// PrefetchPlan

/// One query's prefetch window over its surviving chunk list. Created
/// by [`PrefetchStage::submit`]; the driver must [`Self::finish`] it
/// when the chunk wave ends.
pub struct PrefetchPlan {
    stage: Arc<PrefetchStage>,
    fetcher: RawFetcher,
    cancel: Option<CancelToken>,
    /// The owning query's span collector: retry spans from IO-thread
    /// fetches land in the query's trace (as on the direct load path).
    tracer: Option<Arc<TraceCollector>>,
    uris: Vec<String>,
    /// Cursor into `uris`: next candidate to issue.
    next: AtomicUsize,
    /// Fetches currently queued or running (window occupancy).
    outstanding: AtomicUsize,
    /// Fetches actually issued by this plan.
    submitted: AtomicUsize,
    finished: AtomicBool,
    /// `(uri, latch)` pairs this plan registered — what `finish`
    /// abandons.
    mine: Mutex<Vec<(String, Arc<RawLatch>)>>,
}

impl PrefetchPlan {
    /// How many fetches this plan has issued so far (obs span detail).
    pub fn submitted(&self) -> usize {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Issue fetches until the window or the cellar budget stops us.
    /// Runs on the submitting thread and again on each IO thread as
    /// fetches complete (sliding the window).
    fn pump(self: &Arc<Self>) {
        loop {
            if self.finished.load(Ordering::Acquire) {
                return;
            }
            if let Some(c) = &self.cancel {
                if c.cancelled().is_some() {
                    return;
                }
            }
            if self.outstanding.load(Ordering::Acquire) >= self.stage.depth {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::AcqRel);
            let Some(uri) = self.uris.get(i) else {
                // Park the cursor so it cannot overflow on repeated
                // pumps of a drained plan.
                self.next.store(self.uris.len(), Ordering::Release);
                return;
            };
            // Budget gate. The estimate is the file's on-disk size —
            // what the staged buffer will hold.
            let est = std::fs::metadata(uri).map(|m| m.len() as usize).unwrap_or(0);
            let staged = self.stage.staged_bytes();
            if let Some(probe) = &*unpoison(self.stage.budget_probe.lock()) {
                let (resident, budget) = probe();
                if resident + staged + est > budget {
                    // The cellar could not admit this chunk right now:
                    // degrade to depth 0 rather than bust the budget.
                    self.next.store(i, Ordering::Release);
                    return;
                }
            }
            // Register the latch; skip URIs already in flight (another
            // plan or an earlier duplicate). `finish` flips `finished`
            // and sweeps `mine` under the same lock, so an entry
            // registered here is always swept: a pump racing `finish`
            // either registers before the sweep or sees the flag.
            let latch = {
                let mut mine = unpoison(self.mine.lock());
                if self.finished.load(Ordering::Acquire) {
                    return;
                }
                let mut entries = unpoison(self.stage.entries.lock());
                if entries.contains_key(uri) {
                    continue;
                }
                let latch = RawLatch::new();
                entries.insert(uri.clone(), Arc::clone(&latch));
                mine.push((uri.clone(), Arc::clone(&latch)));
                latch
            };
            self.stage.obs.count(Metric::PrefetchIssued, 1);
            self.submitted.fetch_add(1, Ordering::Relaxed);
            self.outstanding.fetch_add(1, Ordering::AcqRel);
            let plan = Arc::clone(self);
            let uri = uri.clone();
            self.stage.pool.submit(Box::new(move || plan.run_fetch(uri, latch)));
        }
    }

    /// One fetch on an IO thread: retry/backoff around the fetcher
    /// (sim IO + fault injection fire in there), then publish.
    fn run_fetch(self: Arc<Self>, uri: String, latch: Arc<RawLatch>) {
        let result = with_retries(
            &self.stage.retry,
            self.cancel.as_ref(),
            &self.stage.obs,
            self.tracer.as_deref(),
            &uri,
            || (self.fetcher)(&uri),
        );
        {
            let mut state = unpoison(latch.state.lock());
            match (&*state, result) {
                (RawState::Pending, Ok(raw)) => {
                    self.stage.metrics.add(Metric::PrefetchStagedBytes, raw.len() as u64);
                    *state = RawState::Ready(raw);
                }
                (RawState::Pending, Err(e)) => {
                    // Cancellation counts as transient: a later query
                    // (or the loader's own retry) may succeed.
                    let kind = match &e {
                        EngineError::Cancelled { .. } => ErrorKind::Transient,
                        other => other.kind(),
                    };
                    let (panicked, message) = match e {
                        EngineError::Panicked { payload } => (true, payload),
                        other => (false, other.to_string()),
                    };
                    *state = RawState::Failed(kind, message, panicked);
                }
                // Plan finished while we were fetching: the buffer is
                // wasted work, never staged.
                (_, Ok(raw)) => {
                    self.stage.obs.count(Metric::PrefetchWastedBytes, raw.len() as u64);
                }
                (_, Err(_)) => {}
            }
            latch.cv.notify_all();
        }
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        self.pump();
    }

    /// End the plan: stop issuing and abandon every unclaimed entry —
    /// staged bytes are released (counted as wasted), in-flight fetches
    /// discard their buffers on completion. Idempotent.
    pub fn finish(&self) {
        let mine = {
            let mut mine = unpoison(self.mine.lock());
            if self.finished.swap(true, Ordering::AcqRel) {
                return;
            }
            std::mem::take(&mut *mine)
        };
        for (uri, latch) in mine {
            let mut state = unpoison(latch.state.lock());
            match std::mem::replace(&mut *state, RawState::Abandoned) {
                RawState::Ready(raw) => {
                    self.stage.metrics.sub(Metric::PrefetchStagedBytes, raw.len() as u64);
                    self.stage.obs.count(Metric::PrefetchWastedBytes, raw.len() as u64);
                }
                // Keep terminal states terminal (claimers already
                // consumed them); Pending stays Abandoned so the late
                // publish discards its buffer.
                RawState::Claimed => *state = RawState::Claimed,
                RawState::Failed(..) | RawState::Abandoned | RawState::Pending => {}
            }
            latch.cv.notify_all();
            drop(state);
            self.stage.remove_entry(&uri, &latch);
        }
    }
}

impl std::fmt::Debug for PrefetchPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchPlan")
            .field("uris", &self.uris.len())
            .field("submitted", &self.submitted())
            .field("finished", &self.finished.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TempDir;
    use std::io::Write;

    impl TempDir {
        fn file(&self, name: &str, bytes: &[u8]) -> String {
            let path = self.0.join(name);
            let mut f = std::fs::File::create(&path).unwrap();
            f.write_all(bytes).unwrap();
            path.to_string_lossy().into_owned()
        }
    }

    fn read_fetcher() -> RawFetcher {
        Arc::new(|uri: &str| {
            let bytes = std::fs::read(uri)
                .map_err(|e| EngineError::Chunk(format!("read {uri:?}: {e}")))?;
            Ok(RawChunk { bytes })
        })
    }

    fn stage(depth: usize) -> Arc<PrefetchStage> {
        let metrics = Arc::new(MetricsRegistry::new());
        Arc::new(PrefetchStage::new(2, depth, RetryPolicy::default(), metrics))
    }

    /// `(issued, hits, wasted_bytes)` as counted in the stage's registry.
    fn counts(stage: &PrefetchStage) -> (u64, u64, u64) {
        let m = &stage.metrics;
        use Metric::*;
        (m.get(PrefetchIssued), m.get(PrefetchHits), m.get(PrefetchWastedBytes))
    }

    #[test]
    fn staged_bytes_are_claimed_once_and_accounted() {
        let dir = TempDir::new("claim");
        let a = dir.file("a.bin", b"aaaa");
        let b = dir.file("b.bin", b"bbbbbb");
        let stage = stage(4);
        let plan = stage.submit(vec![a.clone(), b.clone()], read_fetcher(), None, None);
        let got = stage.claim(&a).expect("staged").expect("fetch ok");
        assert_eq!(got.bytes, b"aaaa");
        assert!(stage.claim(&a).is_none(), "claimed entries are consumed");
        let got = stage.claim(&b).expect("staged").expect("fetch ok");
        assert_eq!(got.bytes, b"bbbbbb");
        plan.finish();
        assert_eq!(stage.staged_bytes(), 0, "all claims drained the staging area");
        assert_eq!(counts(&stage), (2, 2, 0));
    }

    #[test]
    fn finish_releases_unclaimed_bytes_as_wasted() {
        let dir = TempDir::new("finish");
        let a = dir.file("a.bin", &[7u8; 128]);
        let stage = stage(4);
        let plan = stage.submit(vec![a.clone()], read_fetcher(), None, None);
        // Wait for the fetch to land, then abandon it (the query was
        // cancelled / the chunk was pruned after issue).
        while stage.staged_bytes() == 0 {
            std::thread::yield_now();
        }
        plan.finish();
        assert_eq!(stage.staged_bytes(), 0, "abandoned bytes are released");
        let (_, hits, wasted) = counts(&stage);
        assert_eq!(hits, 0);
        assert_eq!(wasted, 128);
        assert!(stage.claim(&a).is_none(), "abandoned entries claim as a miss");
    }

    #[test]
    fn missing_file_parks_a_retryable_failure() {
        let stage = stage(2);
        let uri = "/nonexistent/somm-prefetch-test.bin".to_string();
        let plan = stage.submit(vec![uri.clone()], read_fetcher(), None, None);
        let err = stage.claim(&uri).expect("staged").expect_err("fetch fails");
        assert!(matches!(err, EngineError::ChunkLoad { .. }), "{err:?}");
        assert!(stage.claim(&uri).is_none(), "failure was consumed; caller retries direct");
        plan.finish();
        assert_eq!(stage.staged_bytes(), 0);
    }

    /// Dropping a pool whose workers are still starting up joins them:
    /// the shutdown flag cannot slip in between a worker's check and
    /// its park. Runs on a helper thread so a lost wakeup fails the
    /// test instead of hanging it.
    #[test]
    fn io_pool_drop_right_after_spawn_joins_every_worker() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..500 {
                drop(IoPool::new(2));
            }
            let _ = done.send(());
        });
        let joined = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(joined.is_ok(), "an IoPool drop never joined its workers");
    }

    /// `finish` racing the IO threads' window slides leaks nothing: a
    /// slide either registers its entry before the sweep or sees the
    /// plan finished, so no entry is staged after the plan ends.
    #[test]
    fn finish_racing_window_slides_leaks_no_staged_bytes() {
        let dir = TempDir::new("race");
        let uris: Vec<String> =
            (0..16).map(|i| dir.file(&format!("{i}.bin"), &[i as u8; 32])).collect();
        let stage = stage(2);
        for round in 0..300 {
            let plan = stage.submit(uris.clone(), read_fetcher(), None, None);
            for _ in 0..round % 7 {
                std::thread::yield_now();
            }
            plan.finish();
            // Every IO job holds the plan until its fetch and slide
            // return: wait until none is left.
            while Arc::strong_count(&plan) > 1 {
                std::thread::yield_now();
            }
            assert_eq!(stage.staged_bytes(), 0, "round {round}: finish leaked staged bytes");
        }
    }

    #[test]
    fn chunk_over_the_whole_budget_is_never_issued() {
        let dir = TempDir::new("oversized");
        let a = dir.file("a.bin", &[1u8; 4096]);
        let stage = stage(8);
        // An empty cellar whose whole budget is far below one file.
        stage.bind_budget_probe(|| (0, 16));
        let plan = stage.submit(vec![a.clone()], read_fetcher(), None, None);
        // Nothing may be issued: the estimate alone exceeds the budget.
        assert_eq!(plan.submitted(), 0);
        assert!(stage.claim(&a).is_none(), "degraded to depth 0");
        plan.finish();
    }

    #[test]
    fn budget_probe_gates_issuing() {
        let dir = TempDir::new("budget");
        let a = dir.file("a.bin", &[1u8; 1024]);
        let stage = stage(8);
        // A cellar whose budget is already spoken for.
        stage.bind_budget_probe(|| (100, 101));
        let plan = stage.submit(vec![a.clone()], read_fetcher(), None, None);
        assert_eq!(plan.submitted(), 0, "budget leaves no room: degrade, don't bust");
        plan.finish();
        assert_eq!(stage.staged_bytes(), 0);
    }

    #[test]
    fn cancelled_plan_stops_issuing() {
        let dir = TempDir::new("cancel");
        let uris: Vec<String> =
            (0..4).map(|i| dir.file(&format!("{i}.bin"), &[i as u8; 64])).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let stage = stage(2);
        let plan = stage.submit(uris, read_fetcher(), Some(cancel), None);
        assert_eq!(plan.submitted(), 0, "cancelled before issue");
        plan.finish();
        assert_eq!(stage.staged_bytes(), 0, "no leaked staged bytes after cancel");
    }
}
