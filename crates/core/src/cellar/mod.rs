//! The **cellar**: bounded-memory chunk residency management.
//!
//! The paper's sommelier takes bottles *out* of the cellar just in
//! time (Algorithm 1, chunk-access), but never puts one back: once a
//! chunk is ingested it stays resident, so any workload whose touched
//! set exceeds RAM degenerates to eager loading. This module is the
//! inverse of the ingest path — controlled *unloading* — the same
//! DBMS/file-system residency split that Odysseus/DFS manages
//! explicitly and AsterixDB handles with a budgeted buffer manager.
//!
//! The [`Cellar`] owns the loaded/not-loaded state of every registered
//! chunk, across **all** registered sources: a multi-source system has
//! per-source chunk registries, but one shared byte budget — a seismic
//! chunk and a log chunk compete for the same residency memory.
//!
//! * **Retention** — a decoded chunk stays resident after its last pin
//!   drops, full width, so a later query over the same chunk (and any
//!   column set) is a hit; this is the role MonetDB's Recycler plays in
//!   the paper. Only budget pressure or [`Cellar::clear`] removes it.
//! * **Byte budget + LRU** — resident decoded chunks are capped by a
//!   configurable budget; the least recently used unpinned chunk is
//!   evicted first ([`LruPolicy`]). A zero budget retains nothing past
//!   the pins: every acquisition decodes.
//! * **Pin/unpin** — a query's chunk wave pins each chunk only while
//!   that chunk's pipeline runs (from classification or admission until
//!   its sink returns); pinned chunks are never evicted, so
//!   [`crate::Sommelier::query`] is safe to call from many threads.
//! * **Single-flight loading** — concurrent acquisitions of the same
//!   chunk are collapsed onto one decode via a per-chunk in-flight
//!   latch (the page-latch idiom of classic buffer managers): N
//!   queries needing the chunk trigger exactly one ingest.
//! * **Eviction frees memory only** — evicting a chunk drops its decoded
//!   relation and nothing else. Registered chunk files are immutable, so
//!   derived metadata computed from a chunk stays valid after the chunk
//!   leaves: like a buffer pool beside the catalog, the cellar never
//!   touches the storage layer or the covered key space `PSm`.

pub mod policy;

pub use policy::LruPolicy;

use crate::chunks::{AdapterChunkSource, ChunkRegistry};
use crate::error::SommelierError;
use crate::fault::{with_retries, RetryPolicy};
use crate::source::SourceDescriptor;
use sommelier_engine::exec::run_indexed_policy;
use sommelier_engine::sched::{DegradationPolicy, SchedPolicy};
use sommelier_engine::twostage::{AcquiredChunk, ChunkResidency, ChunkSink, PrefetchHandle};
use sommelier_engine::{ColumnZone, EngineError, ErrorKind, Metric, Obs, Relation};
use sommelier_storage::sync::unpoison;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cellar configuration (derived from [`crate::SommelierConfig`]).
#[derive(Debug, Clone)]
pub struct CellarConfig {
    /// Byte budget for resident decoded chunks, shared by all sources.
    /// Pinned chunks may transiently exceed it (a chunk whose sink is
    /// running must stay resident); as each pin drops the budget is
    /// enforced again.
    pub budget_bytes: usize,
    /// Observability handle (the system always attaches its registry):
    /// the cellar counts `cellar.*` and `fault.chunks_quarantined`
    /// through it where each event happens, as do the decode waves
    /// (`pool.*`) and the retries (`fault.io_retries`).
    pub obs: Obs,
    /// Retry budget for transient chunk-IO failures, applied around
    /// every decode (see [`crate::SommelierConfig::io_retry`]).
    pub retry: RetryPolicy,
    /// The system's raw-byte prefetch stage, when prefetch is enabled:
    /// [`ChunkResidency::prefetch`] submits the surviving chunk list
    /// here and the sources' decode paths claim the staged bytes.
    /// `None` = prefetch off; acquisition is byte-for-byte unchanged.
    pub prefetch: Option<Arc<crate::prefetch::PrefetchStage>>,
}

impl Default for CellarConfig {
    fn default() -> Self {
        CellarConfig {
            budget_bytes: crate::config::DEFAULT_CELLAR_BYTES,
            obs: Obs::off(),
            retry: RetryPolicy::default(),
            prefetch: None,
        }
    }
}

/// One source registered into the cellar: its descriptor, its registry
/// and its decode path. The source's derived metadata is not here:
/// eviction never touches it.
pub struct CellarSource {
    pub descriptor: Arc<SourceDescriptor>,
    pub registry: Arc<ChunkRegistry>,
    pub source: Arc<AdapterChunkSource>,
}

/// What one in-flight load published: the decoded relation and its
/// cost, or the failure's retry classification plus message.
type LatchOutcome = Result<(Arc<Relation>, Duration), (ErrorKind, String)>;

/// Result of one in-flight load, shared through the latch.
enum LatchState {
    Pending,
    Done(Arc<Relation>, Duration),
    /// The load failed: its retry classification plus the message, so
    /// every waiter gets a typed, cloneable failure. A failed slot is
    /// always withdrawn by its loader before publishing, so waiters
    /// holding a transient classification can re-attempt — a failed
    /// load never permanently poisons the chunk.
    Failed(ErrorKind, String),
}

/// Per-chunk in-flight latch: the loader publishes here, waiters block
/// on the condvar (the page-latch idiom).
struct LoadLatch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl LoadLatch {
    fn new() -> Arc<Self> {
        Arc::new(LoadLatch { state: Mutex::new(LatchState::Pending), cv: Condvar::new() })
    }

    fn publish(&self, outcome: LatchOutcome) {
        let mut st = unpoison(self.state.lock());
        *st = match outcome {
            Ok((rel, cost)) => LatchState::Done(rel, cost),
            Err((kind, msg)) => LatchState::Failed(kind, msg),
        };
        self.cv.notify_all();
    }

    fn wait(&self) -> LatchOutcome {
        let mut st = unpoison(self.state.lock());
        loop {
            match &*st {
                LatchState::Pending => st = unpoison(self.cv.wait(st)),
                LatchState::Done(rel, cost) => return Ok((Arc::clone(rel), *cost)),
                LatchState::Failed(kind, msg) => return Err((*kind, msg.clone())),
            }
        }
    }
}

/// The retry classification a failed load publishes through its latch.
/// A load that failed because *its own query* was cancelled is
/// transient to everyone else — the chunk itself is fine — so waiters
/// re-attempt instead of inheriting a foreign cancellation. The same
/// holds for a caught panic: the panic fails only the owning query
/// (typed `Panicked`), while joiners re-attempt the load themselves —
/// the chunk may be perfectly decodable without the panicking query's
/// injected fault or operator state.
fn publish_kind(e: &EngineError) -> ErrorKind {
    if matches!(e, EngineError::Cancelled { .. } | EngineError::Panicked { .. }) {
        ErrorKind::Transient
    } else {
        e.kind()
    }
}

struct ResidentChunk {
    relation: Arc<Relation>,
    bytes: usize,
    pins: u32,
}

enum Slot {
    Loading(Arc<LoadLatch>),
    Resident(ResidentChunk),
}

struct Inner {
    slots: HashMap<String, Slot>,
    lru: LruPolicy,
    resident_bytes: usize,
    resident_chunks: usize,
    ever_evicted: HashSet<String>,
}

/// The chunk residency manager. See the module docs.
pub struct Cellar {
    sources: Vec<CellarSource>,
    /// uri → index into `sources`.
    by_uri: HashMap<String, usize>,
    config: CellarConfig,
    inner: Mutex<Inner>,
}

/// How one chunk of an acquisition wave was classified
/// ([`Cellar::classify_locked`]).
enum StreamTask {
    Hit(Arc<Relation>),
    Claimed(Arc<LoadLatch>),
    Joined(Arc<LoadLatch>),
}

/// Shared state of one streaming-acquisition wave, threaded through
/// every [`Cellar::run_task`] call: the sink, the first-error abort
/// slot and the query's policy (cancellation, degradation, tracer).
struct TaskCtx<'a> {
    sink: &'a ChunkSink<'a>,
    first_error: Mutex<Option<EngineError>>,
    policy: &'a SchedPolicy,
}

impl Cellar {
    /// Create a cellar over the registered sources. Chunk URIs must be
    /// unique across sources — the uri is the residency key, so two
    /// sources claiming the same file would route acquisitions to the
    /// wrong decoder.
    pub fn new(
        sources: Vec<CellarSource>,
        config: CellarConfig,
    ) -> crate::error::Result<Self> {
        let mut by_uri = HashMap::new();
        for (i, s) in sources.iter().enumerate() {
            for e in s.registry.entries() {
                if let Some(&other) = by_uri.get(&e.uri) {
                    let other: &CellarSource = &sources[other];
                    return Err(SommelierError::Usage(format!(
                        "chunk {:?} is registered by both source {:?} and source {:?}; \
                         sources must not overlap on repository files",
                        e.uri, other.descriptor.name, s.descriptor.name
                    )));
                }
                by_uri.insert(e.uri.clone(), i);
            }
        }
        let inner = Inner {
            slots: HashMap::new(),
            lru: LruPolicy::default(),
            resident_bytes: 0,
            resident_chunks: 0,
            ever_evicted: HashSet::new(),
        };
        let cellar = Cellar { sources, by_uri, config, inner: Mutex::new(inner) };
        let inner = unpoison(cellar.inner.lock());
        cellar.publish(&inner);
        drop(inner);
        Ok(cellar)
    }

    /// Set the `cellar.resident_*` gauges from `inner` and raise
    /// `cellar.peak_resident_bytes` (the one record of the high-water
    /// mark) to it; the caller holds the residency lock.
    fn publish(&self, inner: &Inner) {
        if let Some(m) = self.config.obs.metrics() {
            let bytes = inner.resident_bytes as u64;
            m.set(Metric::CellarResidentBytes, bytes);
            m.set(
                Metric::CellarPeakResidentBytes,
                m.get(Metric::CellarPeakResidentBytes).max(bytes),
            );
            m.set(Metric::CellarResidentChunks, inner.resident_chunks as u64);
        }
    }

    /// A view of this cellar restricted to one source: acquisition and
    /// accounting stay shared (one budget), but "all chunks" — what a
    /// pure actual-data query must load — is the source's own registry.
    pub fn scoped(self: &Arc<Self>, source_idx: usize) -> ScopedCellar {
        ScopedCellar { cellar: Arc::clone(self), source_idx }
    }

    fn source_of(&self, uri: &str) -> sommelier_engine::Result<&CellarSource> {
        self.by_uri
            .get(uri)
            .map(|&i| &self.sources[i])
            .ok_or_else(|| EngineError::Chunk(format!("chunk {uri:?} is not registered")))
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.config.budget_bytes
    }

    /// Bytes of decoded chunk data currently resident.
    pub fn resident_bytes(&self) -> usize {
        unpoison(self.inner.lock()).resident_bytes
    }

    /// Number of resident chunks.
    pub fn resident_chunks(&self) -> usize {
        unpoison(self.inner.lock()).resident_chunks
    }

    /// Sum of pin counts across all resident chunks. With no query in
    /// flight this must be zero — acquisition (including a cancelled or
    /// timed-out one) may never leak pins; the cancellation regression
    /// test asserts on it.
    pub fn total_pins(&self) -> usize {
        unpoison(self.inner.lock())
            .slots
            .values()
            .map(|s| match s {
                Slot::Resident(r) => r.pins as usize,
                _ => 0,
            })
            .sum()
    }

    /// Drop every unpinned resident chunk ("cold" run simulation).
    ///
    /// Like budget eviction this frees memory only: derived metadata
    /// (an incrementally materialized view over immutable chunk files)
    /// stays valid and covered.
    pub fn clear(&self) {
        let mut inner = unpoison(self.inner.lock());
        let uris: Vec<String> = inner.slots.keys().cloned().collect();
        for uri in uris {
            self.evict_locked(&mut inner, &uri);
        }
    }

    // ---- Acquisition --------------------------------------------------

    /// Wait on an in-flight-load latch, charging the blocked time to
    /// `cellar.pin_wait_ns`. Returns the latch outcome plus how long
    /// this caller actually waited (zero-ish when the load had already
    /// published).
    fn wait_latch(&self, latch: &LoadLatch) -> (LatchOutcome, Duration) {
        let t = Instant::now();
        let outcome = latch.wait();
        let waited = t.elapsed();
        self.config.obs.count(Metric::CellarPinWaitNs, waited.as_nanos() as u64);
        (outcome, waited)
    }

    /// Pin `uri` if still resident; otherwise re-admit the relation
    /// delivered through a latch, pinned once.
    fn pin_or_readmit(&self, uri: &str, relation: Arc<Relation>) -> Arc<Relation> {
        loop {
            let latch = {
                let mut inner = unpoison(self.inner.lock());
                match inner.slots.get_mut(uri) {
                    Some(Slot::Resident(r)) => {
                        r.pins += 1;
                        return Arc::clone(&r.relation);
                    }
                    // The chunk was evicted after our loader published
                    // and a newer claimant is already re-loading it.
                    // Never clobber its slot (that would double-count
                    // resident_bytes and alias pins): join its flight
                    // and retry once it publishes.
                    Some(Slot::Loading(latch)) => Arc::clone(latch),
                    None => {
                        self.insert_pinned_locked(&mut inner, uri, &relation);
                        return relation;
                    }
                }
            };
            // If the reload fails its loader withdraws the slot; our
            // latched copy is still valid data, so the next iteration
            // re-admits it.
            let _ = self.wait_latch(&latch);
        }
    }

    /// Insert `relation` as resident with one pin, updating byte
    /// accounting and the LRU order. The caller still owes an
    /// [`Self::enforce_budget_locked`].
    fn insert_pinned_locked(&self, inner: &mut Inner, uri: &str, relation: &Arc<Relation>) {
        let bytes = relation.approx_bytes();
        inner.slots.insert(
            uri.to_string(),
            Slot::Resident(ResidentChunk { relation: Arc::clone(relation), bytes, pins: 1 }),
        );
        inner.resident_bytes += bytes;
        inner.resident_chunks += 1;
        inner.lru.touch(uri);
        self.publish(inner);
    }

    /// Classify one chunk under the lock: pin + touch a resident chunk,
    /// join an in-flight load, or claim the load by installing a latch.
    /// Called at the start of a wave and again when a joined load
    /// failed transiently.
    fn classify_locked(&self, inner: &mut Inner, uri: &str) -> StreamTask {
        match inner.slots.get_mut(uri) {
            Some(Slot::Resident(r)) => {
                r.pins += 1;
                let rel = Arc::clone(&r.relation);
                inner.lru.touch(uri);
                self.config.obs.count(Metric::CellarHits, 1);
                StreamTask::Hit(rel)
            }
            Some(Slot::Loading(latch)) => StreamTask::Joined(Arc::clone(latch)),
            None => {
                let latch = LoadLatch::new();
                inner.slots.insert(uri.to_string(), Slot::Loading(Arc::clone(&latch)));
                StreamTask::Claimed(latch)
            }
        }
    }

    /// Decode a claimed chunk, admit it (pinned once for the caller),
    /// publish through the latch and enforce the budget. On error the
    /// slot is withdrawn and the error published.
    fn load_claim(
        &self,
        uri: &str,
        latch: &LoadLatch,
        policy: &SchedPolicy,
    ) -> sommelier_engine::Result<(Arc<Relation>, Duration)> {
        let (cancel, tracer) = (policy.cancel.as_ref(), policy.tracer.as_deref());
        let outcome =
            with_retries(&self.config.retry, cancel, &self.config.obs, tracer, uri, || {
                let t = Instant::now();
                let relation = self.source_of(uri)?.source.load_chunk(uri)?;
                Ok((relation, t.elapsed()))
            });
        match outcome {
            Ok((relation, cost)) => {
                let relation = Arc::new(relation);
                {
                    let mut inner = unpoison(self.inner.lock());
                    self.insert_pinned_locked(&mut inner, uri, &relation);
                    self.config.obs.count(Metric::CellarLoads, 1);
                    if inner.ever_evicted.contains(uri) {
                        self.config.obs.count(Metric::CellarReloads, 1);
                    }
                    self.enforce_budget_locked(&mut inner);
                }
                latch.publish(Ok((Arc::clone(&relation), cost)));
                Ok((relation, cost))
            }
            Err(e) => {
                unpoison(self.inner.lock()).slots.remove(uri);
                latch.publish(Err((publish_kind(&e), e.to_string())));
                self.note_load_failure(uri, &e);
                Err(e)
            }
        }
    }

    /// Record a load failure: a permanently unreadable chunk is
    /// quarantined in its registry, so stage 1 of every later query
    /// drops it up front without re-touching the file. Transient
    /// failures and cancellations never quarantine — and neither do
    /// panics: the unwind says nothing about the chunk's bytes, and
    /// registry-quarantining it would silently shrink every later
    /// query's answer. (Panic containment is per-session, in the
    /// server's query-fingerprint quarantine.)
    fn note_load_failure(&self, uri: &str, e: &EngineError) {
        if e.kind() == ErrorKind::Permanent
            && !matches!(e, EngineError::Cancelled { .. } | EngineError::Panicked { .. })
        {
            if let Ok(s) = self.source_of(uri) {
                if s.registry.quarantine(uri, e.to_string()) {
                    self.config.obs.count(Metric::FaultChunksQuarantined, 1);
                }
            }
        }
    }

    /// Resolve a load failure per the query's degradation policy:
    /// under [`DegradationPolicy::SkipUnreadable`] the chunk becomes an
    /// empty placeholder carrying the skip reason (schema-correct, so
    /// stage 2 runs unchanged over the readable rest); under `Strict` —
    /// and always for cancellations and panics — the error surfaces.
    /// (Skipping over a panic would hide a code bug as a smaller
    /// answer; a panic must fail its query loudly and typed.)
    fn skip_or(
        &self,
        degradation: DegradationPolicy,
        uri: &str,
        e: EngineError,
    ) -> sommelier_engine::Result<AcquiredChunk> {
        if degradation == DegradationPolicy::SkipUnreadable
            && !matches!(e, EngineError::Cancelled { .. } | EngineError::Panicked { .. })
        {
            let descriptor = &self.source_of(uri)?.descriptor;
            let placeholder = crate::source::empty_ad_relation(descriptor, None)?;
            Ok(AcquiredChunk::skipped(Arc::new(placeholder), e.to_string()))
        } else {
            Err(e)
        }
    }

    /// One streaming-acquisition task: pin/decode, sink, unpin. Errors
    /// (decode or sink) are recorded once; later tasks still run in
    /// full — decodes complete and publish through their latches, so an
    /// abort in this wave never fails a concurrent query that joined
    /// one of our in-flight loads — but their sink calls are skipped.
    ///
    /// Cancellation rides the same abort mechanism: a fired token is
    /// recorded as the wave's first error, sinks are skipped, and every
    /// pin is still released — claimed loads even complete and publish,
    /// so a cancelled query never hangs concurrent joiners.
    fn run_task(&self, i: usize, uri: &str, task: &StreamTask, tctx: &TaskCtx<'_>) {
        let aborted = || unpoison(tctx.first_error.lock()).is_some();
        let record = |e: EngineError| {
            let mut guard = unpoison(tctx.first_error.lock());
            if guard.is_none() {
                *guard = Some(e);
            }
        };
        // Sink calls run caller code while this task holds a pin; a
        // panic unwinding through here would skip the release below and
        // leak that pin past the query. Catch it and record a typed
        // `Panicked` instead — the abort mechanism then skips the
        // remaining sinks and the wave unwinds cleanly, pins balanced.
        let sink = |i: usize, chunk: AcquiredChunk| match std::panic::catch_unwind(
            std::panic::AssertUnwindSafe(|| (tctx.sink)(i, chunk)),
        ) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => record(e),
            Err(p) => record(EngineError::Panicked {
                payload: sommelier_engine::sched::panic_message(p.as_ref()),
            }),
        };
        if let Err(e) = tctx.policy.check_cancel() {
            record(e);
        }
        // The chunk this task pinned, or why it has none: a failed load
        // holds no pin (its slot was withdrawn). Every pinned chunk
        // reaches the one release below.
        let pinned = match task {
            StreamTask::Hit(relation) => {
                Ok(AcquiredChunk::untimed(Arc::clone(relation), false, false))
            }
            StreamTask::Claimed(latch) => {
                self.load_claim(uri, latch, tctx.policy).map(|(relation, cost)| {
                    AcquiredChunk {
                        decode: cost,
                        ..AcquiredChunk::untimed(relation, true, false)
                    }
                })
            }
            StreamTask::Joined(_) if aborted() => return,
            StreamTask::Joined(latch) => match self.wait_latch(latch) {
                (Ok((relation, _)), waited) => {
                    self.config.obs.count(Metric::CellarJoins, 1);
                    let relation = self.pin_or_readmit(uri, relation);
                    Ok(AcquiredChunk {
                        pin_wait: waited,
                        ..AcquiredChunk::untimed(relation, false, true)
                    })
                }
                // The loader's failure was retryable (or its query was
                // cancelled); the slot was withdrawn, so re-classify
                // once and hit, claim (with our own retry budget) or join.
                (Err((ErrorKind::Transient, _)), _) => {
                    let mut inner = unpoison(self.inner.lock());
                    let task = self.classify_locked(&mut inner, uri);
                    drop(inner);
                    return self.run_task(i, uri, &task, tctx);
                }
                (Err((kind, msg)), _) => Err(EngineError::ChunkLoad {
                    uri: uri.to_string(),
                    kind,
                    message: format!("joined load failed: {msg}"),
                }),
            },
        };
        match pinned {
            Ok(chunk) => {
                if !aborted() {
                    sink(i, chunk);
                }
                self.release(uri);
            }
            // A skip sinks the placeholder, strict records.
            Err(e) => match self.skip_or(tctx.policy.degradation, uri, e) {
                Ok(chunk) if !aborted() => sink(i, chunk),
                Ok(_) => {}
                Err(e) => record(e),
            },
        }
    }

    // ---- Eviction ----------------------------------------------------

    fn enforce_budget_locked(&self, inner: &mut Inner) {
        while inner.resident_bytes > self.config.budget_bytes {
            let victim = {
                let slots = &inner.slots;
                inner.lru.victim(
                    |uri| matches!(slots.get(uri), Some(Slot::Resident(r)) if r.pins == 0),
                )
            };
            match victim {
                Some(uri) if self.evict_locked(inner, &uri) => {}
                // Everything left is pinned: a query's working set may
                // transiently exceed the budget; release re-enforces it.
                _ => break,
            }
        }
    }

    /// Evict `uri` if it is resident and unpinned, and say whether it
    /// was. A pinned chunk stays resident: its sink is still reading it.
    fn evict_locked(&self, inner: &mut Inner, uri: &str) -> bool {
        let bytes = match inner.slots.get(uri) {
            Some(Slot::Resident(r)) if r.pins == 0 => r.bytes,
            _ => return false,
        };
        inner.slots.remove(uri);
        inner.resident_bytes -= bytes;
        inner.resident_chunks -= 1;
        inner.lru.remove(uri);
        inner.ever_evicted.insert(uri.to_string());
        self.publish(inner);
        self.config.obs.count(Metric::CellarEvictions, 1);
        true
    }

    fn release(&self, uri: &str) {
        let mut inner = unpoison(self.inner.lock());
        if let Some(Slot::Resident(r)) = inner.slots.get_mut(uri) {
            r.pins = r.pins.saturating_sub(1);
        }
        self.enforce_budget_locked(&mut inner);
    }

    /// Whether `uri` is decoded and resident (any source).
    fn is_resident(&self, uri: &str) -> bool {
        matches!(unpoison(self.inner.lock()).slots.get(uri), Some(Slot::Resident(_)))
    }

    /// Why `uri` is quarantined by its source's registry, if it is.
    fn quarantined(&self, uri: &str) -> Option<String> {
        let &i = self.by_uri.get(uri)?;
        self.sources[i].registry.quarantined(uri)
    }

    /// The cellar's one acquisition engine: one task per chunk —
    /// resident chunks go straight to the sink, misses decode first
    /// (claiming a single-flight latch), joins wait on the other
    /// loader's latch.
    /// Pins are dropped chunk by chunk — a hit stays pinned from
    /// classification until its sink returns, a decoded chunk from
    /// admission until its sink returns — so a query's working set
    /// never needs to fit the budget at once and eviction interleaves
    /// with execution (`resident_bytes` may transiently sit above
    /// budget while a wave's hits await their sink calls).
    ///
    /// The tasks are drained in two passes: hits and claimed loads
    /// first, as one morsel batch (hits ahead of claims, so their pins
    /// drop earliest), then joins, inline on the submitting thread.
    /// Neither hits nor claims ever wait on a latch, so pool workers
    /// never block: a join waits on another wave's claim, which is
    /// running or queued on the pool behind non-blocking tasks and so
    /// always publishes. Joins on the pool could deadlock two
    /// concurrent waves that each join chunks the other claimed (all
    /// workers blocked in `LoadLatch::wait` while the publishing tasks
    /// sit queued behind them).
    fn acquire_each(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
        sink: &ChunkSink<'_>,
    ) -> sommelier_engine::Result<()> {
        if uris.is_empty() {
            return Ok(());
        }
        // A cancel before classification means no pins were ever taken.
        policy.check_cancel()?;
        // Phase 1: classify under the lock. Hits are pinned right away
        // so a concurrent release cannot evict them before their sink
        // runs; misses install the in-flight latch.
        let tasks: Vec<StreamTask> = {
            let mut inner = unpoison(self.inner.lock());
            uris.iter().map(|uri| self.classify_locked(&mut inner, uri)).collect()
        };
        let (mut eager, joins): (Vec<usize>, Vec<usize>) =
            (0..uris.len()).partition(|&i| !matches!(tasks[i], StreamTask::Joined(_)));
        eager.sort_by_key(|&i| matches!(tasks[i], StreamTask::Claimed(_)));

        // Phase 2: drain the two passes (see above); each task decodes
        // (if needed), sinks, unpins.
        let tctx = TaskCtx { sink, first_error: Mutex::new(None), policy };
        let run = |&i: &usize| self.run_task(i, &uris[i], &tasks[i], &tctx);
        run_indexed_policy(eager.len(), policy, &self.config.obs, |k| run(&eager[k]));
        joins.iter().for_each(&run);
        match unpoison(tctx.first_error.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Submit the non-resident chunks of `uris` to the prefetch stage,
    /// one plan per source; `None` when prefetch is off or nothing is
    /// left to read.
    fn prefetch(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
    ) -> Option<Box<dyn PrefetchHandle>> {
        let stage = self.config.prefetch.as_ref()?;
        // Group candidate URIs per source (each source has its own
        // adapter, hence its own fetcher), skipping chunks that are
        // already resident — their bytes are decoded and pinned-able
        // without any read.
        let mut per_source: Vec<Vec<String>> = vec![Vec::new(); self.sources.len()];
        for uri in uris {
            if let Some(&i) = self.by_uri.get(uri.as_str()) {
                if !self.is_resident(uri) {
                    per_source[i].push(uri.clone());
                }
            }
        }
        let plans: Vec<_> = per_source
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(i, group)| {
                stage.submit(
                    group,
                    self.sources[i].source.raw_fetcher(),
                    policy.cancel.clone(),
                    policy.tracer.clone(),
                )
            })
            .collect();
        if plans.is_empty() {
            return None;
        }
        Some(Box::new(CellarPrefetchHandle { plans }))
    }
}

/// Ties the lifetime of a query's prefetch window to the driver: the
/// engine calls [`PrefetchHandle::finish`] (via its guard) on every
/// exit path, releasing any staged-but-unconsumed bytes.
struct CellarPrefetchHandle {
    plans: Vec<Arc<crate::prefetch::PrefetchPlan>>,
}

impl PrefetchHandle for CellarPrefetchHandle {
    fn submitted(&self) -> usize {
        self.plans.iter().map(|p| p.submitted()).sum()
    }

    fn finish(&self) {
        for plan in &self.plans {
            plan.finish();
        }
    }
}

/// A per-source view of a shared [`Cellar`] (see [`Cellar::scoped`]).
pub struct ScopedCellar {
    cellar: Arc<Cellar>,
    source_idx: usize,
}

impl ChunkResidency for ScopedCellar {
    fn is_resident(&self, uri: &str) -> bool {
        self.cellar.is_resident(uri)
    }

    fn quarantined(&self, uri: &str) -> Option<String> {
        self.cellar.quarantined(uri)
    }

    fn acquire_each(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
        sink: &ChunkSink<'_>,
    ) -> sommelier_engine::Result<()> {
        self.cellar.acquire_each(uris, policy, sink)
    }

    fn all_chunks(&self) -> sommelier_engine::Result<Vec<String>> {
        Ok(self.cellar.sources[self.source_idx]
            .registry
            .entries()
            .iter()
            .map(|e| e.uri.clone())
            .collect())
    }

    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        // Scoped like `all_chunks`: only this view's source answers.
        self.cellar.sources[self.source_idx].registry.zones_of(uri)
    }

    fn zone_candidates(
        &self,
        constraints: &[sommelier_engine::ZoneConstraint],
    ) -> Option<sommelier_engine::ZoneCandidates> {
        // Scoped like `all_chunks`: the view's own registry answers
        // (its candidate set covers exactly the chunks a query through
        // this source can select).
        self.cellar.sources[self.source_idx].registry.zone_candidates(constraints)
    }

    fn prefetch(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
    ) -> Option<Box<dyn PrefetchHandle>> {
        self.cellar.prefetch(uris, policy)
    }
}

impl std::fmt::Debug for Cellar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cellar")
            .field("sources", &self.sources.len())
            .field("budget_bytes", &self.config.budget_bytes)
            .field("resident_chunks", &self.resident_chunks())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::eventlog::{
        generate_event_logs, write_log_file, EventLogAdapter, EventLogSpec,
    };
    use crate::dmd::DmdManager;
    use crate::registrar::register;
    use crate::source::SourceAdapter;
    use crate::tests::pooled;
    use sommelier_engine::{Metric, MetricsRegistry, MorselScheduler};
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::rng::Rng;
    use sommelier_storage::tempdir::TempDir;
    use sommelier_storage::time::{days_from_civil, MS_PER_DAY};
    use sommelier_storage::{ColumnData, ConstraintPolicy, Database};
    use std::sync::atomic::{AtomicU64, Ordering};

    use Metric::*;

    /// The default configuration, counting into a fresh registry.
    fn counted() -> CellarConfig {
        let metrics = Arc::new(MetricsRegistry::new());
        CellarConfig { obs: Obs::new(metrics), ..CellarConfig::default() }
    }

    /// `metrics` as counted in `cellar`'s registry.
    fn counts<const N: usize>(cellar: &Cellar, metrics: [Metric; N]) -> [u64; N] {
        metrics.map(|m| cellar.config.obs.metrics().map_or(0, |r| r.get(m)))
    }

    fn count(cellar: &Cellar, metric: Metric) -> u64 {
        counts(cellar, [metric])[0]
    }

    struct Fixture {
        dir: TempDir,
        db: Arc<Database>,
        adapter: Arc<EventLogAdapter>,
        registry: Arc<ChunkRegistry>,
        dmd: Arc<DmdManager>,
    }

    /// A registered single-host event-log repository with `days` daily
    /// chunks.
    fn fixture(tag: &str, days: u32, events: u32) -> Fixture {
        let dir = TempDir::new(&format!("cellar-{tag}"));
        let mut spec = EventLogSpec::small(days, events);
        spec.hosts = vec!["web-1".into()];
        generate_event_logs(&dir.join("repo"), &spec).unwrap();
        let adapter = Arc::new(EventLogAdapter::new(dir.join("repo")));
        let db = Arc::new(Database::in_memory(Default::default()));
        for s in &adapter.descriptor().schemas {
            db.create_table(s.clone(), Disposition::Resident).unwrap();
        }
        let (registry, _) = register(&db, adapter.as_ref(), &pooled()).unwrap();
        Fixture {
            dir,
            db,
            adapter,
            registry: Arc::new(registry),
            dmd: Arc::new(DmdManager::new(MS_PER_DAY)),
        }
    }

    fn binding(fx: &Fixture) -> CellarSource {
        let adapter: Arc<dyn SourceAdapter> = Arc::clone(&fx.adapter) as _;
        let source = Arc::new(AdapterChunkSource::new(adapter, Arc::clone(&fx.registry)));
        CellarSource {
            descriptor: Arc::new(fx.adapter.descriptor().clone()),
            registry: Arc::clone(&fx.registry),
            source,
        }
    }

    fn cellar_over(fx: &Fixture, config: CellarConfig) -> Cellar {
        Cellar::new(vec![binding(fx)], config).unwrap()
    }

    fn uris(fx: &Fixture) -> Vec<String> {
        fx.registry.entries().iter().map(|e| e.uri.clone()).collect()
    }

    fn chunk_bytes(cellar: &Cellar, uri: &str) -> usize {
        // Measure one decoded chunk by loading it through the source.
        cellar.sources[0].source.load_chunk(uri).unwrap().approx_bytes()
    }

    /// A sink that accepts every chunk.
    fn accept(_i: usize, _chunk: AcquiredChunk) -> sommelier_engine::Result<()> {
        Ok(())
    }

    /// Run `check` while every chunk of `uris` is pinned: each chunk's
    /// inline wave runs the next chunk's wave inside its sink, so every
    /// sink — and its pin — stays open until `check` returns.
    fn while_pinned(
        cellar: &Cellar,
        uris: &[String],
        check: &(dyn Fn() + Sync),
    ) -> sommelier_engine::Result<()> {
        let Some((first, rest)) = uris.split_first() else {
            check();
            return Ok(());
        };
        cellar.acquire_each(std::slice::from_ref(first), &SchedPolicy::default(), &|_, _| {
            while_pinned(cellar, rest, check)
        })
    }

    /// Row count per chunk of one wave over `uris`, in `uris` order.
    fn rows_per_chunk(
        cellar: &Cellar,
        uris: &[String],
        policy: &SchedPolicy,
    ) -> sommelier_engine::Result<Vec<usize>> {
        let rows = Mutex::new(vec![0; uris.len()]);
        cellar.acquire_each(uris, policy, &|i, chunk| {
            unpoison(rows.lock())[i] = chunk.relation.rows();
            Ok(())
        })?;
        Ok(unpoison(rows.into_inner()))
    }

    #[test]
    fn budget_enforced_after_release_never_while_pinned() {
        let fx = fixture("budget", 4, 64);
        let all = uris(&fx);
        let one = chunk_bytes(&cellar_over(&fx, counted()), &all[0]);
        // Budget fits ~2 chunks; a 4-chunk query must still run.
        let cellar =
            cellar_over(&fx, CellarConfig { budget_bytes: one * 2 + one / 2, ..counted() });
        // All four pinned at once (nested sinks): transiently over
        // budget, nothing evicted.
        while_pinned(&cellar, &all, &|| {
            assert_eq!(cellar.resident_chunks(), 4);
            assert!(cellar.resident_bytes() > cellar.budget_bytes());
            assert_eq!(count(&cellar, CellarEvictions), 0);
        })
        .unwrap();
        assert_eq!(count(&cellar, CellarLoads), 4);
        // Budget enforced once pins dropped.
        assert!(cellar.resident_bytes() <= cellar.budget_bytes());
        assert!(count(&cellar, CellarEvictions) >= 2);
    }

    #[test]
    fn resident_chunks_hit_without_reload() {
        let fx = fixture("hits", 2, 32);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        let expect_loaded = |loaded: bool| {
            move |_i: usize, a: AcquiredChunk| {
                assert!(a.loaded == loaded && !a.joined);
                Ok(())
            }
        };
        cellar.acquire_each(&all, &pooled(), &expect_loaded(true)).unwrap();
        cellar.acquire_each(&all, &pooled(), &expect_loaded(false)).unwrap();
        assert_eq!(counts(&cellar, [CellarLoads, CellarHits, CellarReloads]), [2, 2, 0]);
    }

    #[test]
    fn single_flight_concurrent_acquires_decode_once() {
        let fx = fixture("flight", 2, 64);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cellar = &cellar;
                let all = &all;
                scope.spawn(move || {
                    let rows = rows_per_chunk(cellar, all, &pooled()).unwrap();
                    assert!(rows.iter().all(|&n| n > 0), "{rows:?}");
                });
            }
        });
        let [hits, joins, loads, reloads] =
            counts(&cellar, [CellarHits, CellarJoins, CellarLoads, CellarReloads]);
        assert_eq!(loads, all.len() as u64, "each chunk decoded exactly once");
        assert_eq!(hits + joins + loads, 8 * all.len() as u64);
        assert_eq!(reloads, 0);
    }

    #[test]
    fn zero_budget_cellar_re_ingests_every_acquisition() {
        let fx = fixture("zero-budget", 2, 32);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, CellarConfig { budget_bytes: 0, ..counted() });
        cellar.acquire_each(&all, &pooled(), &accept).unwrap();
        assert_eq!(cellar.resident_chunks(), 0);
        cellar.acquire_each(&all, &pooled(), &accept).unwrap();
        let [loads, reloads] = counts(&cellar, [CellarLoads, CellarReloads]);
        assert_eq!(loads, 2 * all.len() as u64, "every query re-ingests");
        assert_eq!(reloads, all.len() as u64);
    }

    #[test]
    fn eviction_keeps_derived_metadata() {
        let fx = fixture("evict-keeps", 2, 32);
        let all = uris(&fx);
        let entry0 = fx.registry.get(&all[0]).unwrap().clone();
        // Stage some E rows for chunk 0 (as an eager path might) and a
        // derived Y summary computed from it.
        fx.db
            .append(
                "E",
                &[
                    ColumnData::Int64(vec![entry0.file_id; 3]),
                    ColumnData::Timestamp(vec![0, 1, 2]),
                    ColumnData::Float64(vec![1.0, 2.0, 3.0]),
                ],
                ConstraintPolicy::none(),
            )
            .unwrap();
        // Chunk 0 covers the first day for web-1/api; mark its daily
        // summary as derived, with a matching Y row.
        let day0 = days_from_civil(2011, 3, 1) * MS_PER_DAY;
        fx.dmd.mark_covered([(vec!["web-1".to_string(), "api".to_string()], day0)]);
        fx.db
            .append(
                "Y",
                &[
                    ColumnData::Text(TextColumn::from_strs(["web-1"])),
                    ColumnData::Text(TextColumn::from_strs(["api"])),
                    ColumnData::Timestamp(vec![day0]),
                    ColumnData::Float64(vec![9.0]),
                    ColumnData::Float64(vec![1.0]),
                    ColumnData::Float64(vec![5.0]),
                ],
                ConstraintPolicy::none(),
            )
            .unwrap();
        // Budget 1 byte: everything evicts on release.
        let cellar = cellar_over(&fx, CellarConfig { budget_bytes: 1, ..counted() });
        cellar.acquire_each(&all[..1], &SchedPolicy::default(), &accept).unwrap();
        assert_eq!(cellar.resident_chunks(), 0);
        assert_eq!(count(&cellar, CellarEvictions), 1);
        // Eviction freed memory only: the storage rows, the derived Y
        // row and its coverage all survive.
        assert_eq!(fx.db.table_rows("E").unwrap(), 3);
        assert_eq!(fx.db.table_rows("Y").unwrap(), 1);
        assert_eq!(fx.dmd.covered_count(), 1);
    }

    #[test]
    fn clear_drops_residency_but_keeps_derived_metadata() {
        let fx = fixture("clear", 2, 32);
        let all = uris(&fx);
        let day0 = days_from_civil(2011, 3, 1) * MS_PER_DAY;
        fx.dmd.mark_covered([(vec!["web-1".to_string(), "api".to_string()], day0)]);
        let cellar = cellar_over(&fx, counted());
        cellar.acquire_each(&all, &pooled(), &accept).unwrap();
        assert_eq!(cellar.resident_chunks(), 2);
        cellar.clear();
        assert_eq!(cellar.resident_chunks(), 0);
        assert_eq!(cellar.resident_bytes(), 0);
        // A cold restart does not invalidate the materialized view.
        assert_eq!(fx.dmd.covered_count(), 1);
    }

    #[test]
    fn pinned_chunks_are_never_victims() {
        let fx = fixture("pins", 3, 64);
        let all = uris(&fx);
        let one = chunk_bytes(&cellar_over(&fx, counted()), &all[0]);
        let cellar =
            cellar_over(&fx, CellarConfig { budget_bytes: one + one / 2, ..counted() });
        // Hold a pin on chunk 0 (its sink is open) across a second
        // acquisition that overflows the budget.
        let inline = SchedPolicy::default();
        let hold_0 = |_i: usize, _chunk: AcquiredChunk| {
            cellar.acquire_each(&all[1..2], &inline, &accept)?;
            // Chunk 0 is pinned: the eviction to restore the budget
            // must have taken chunk 1.
            assert!(cellar.is_resident(&all[0]));
            assert!(!cellar.is_resident(&all[1]));
            Ok(())
        };
        cellar.acquire_each(&all[..1], &inline, &hold_0).unwrap();
        // Now nothing is pinned; the budget holds.
        assert!(cellar.resident_bytes() <= cellar.budget_bytes());
    }

    /// Eviction never takes a pinned chunk, in release builds too: an
    /// eviction tried from inside the chunk's own sink leaves it
    /// resident with its bytes accounted, and the next wave hits it
    /// with the same rows.
    #[test]
    fn evicting_a_chunk_pinned_in_its_sink_leaves_it_resident() {
        let fx = fixture("evict-pinned", 1, 64);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        let inline = SchedPolicy::default();
        let seen = Mutex::new(Vec::new());
        cellar
            .acquire_each(&all, &inline, &|_, chunk| {
                let bytes = cellar.resident_bytes();
                let mut inner = unpoison(cellar.inner.lock());
                let evicted = cellar.evict_locked(&mut inner, &all[0]);
                drop(inner);
                assert!(!evicted, "a pinned chunk was evicted");
                assert!(cellar.is_resident(&all[0]));
                assert_eq!(cellar.resident_bytes(), bytes);
                assert_eq!(count(&cellar, CellarEvictions), 0);
                *unpoison(seen.lock()) = bits(&chunk.relation);
                Ok(())
            })
            .unwrap();
        let loads = count(&cellar, CellarLoads);
        cellar
            .acquire_each(&all, &inline, &|_, chunk| {
                assert_eq!(bits(&chunk.relation), *unpoison(seen.lock()));
                Ok(())
            })
            .unwrap();
        assert_eq!(count(&cellar, CellarLoads), loads, "the pinned chunk was never reloaded");
        assert_eq!(count(&cellar, CellarHits), 1);
    }

    #[test]
    fn streaming_acquisition_delivers_every_chunk_once() {
        let fx = fixture("stream", 4, 64);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        let delivered = Mutex::new(vec![0usize; all.len()]);
        let rows = AtomicU64::new(0);
        let sink = |i: usize, chunk: AcquiredChunk| {
            unpoison(delivered.lock())[i] += 1;
            rows.fetch_add(chunk.relation.rows() as u64, Ordering::Relaxed);
            assert!(chunk.loaded);
            Ok(())
        };
        cellar.acquire_each(&all, &pooled(), &sink).unwrap();
        let counts = unpoison(delivered.lock()).clone();
        assert!(counts.iter().all(|&n| n == 1), "{counts:?}");
        assert!(rows.load(Ordering::Relaxed) > 0);
        // No pins survive the wave; the second pass is all hits.
        let hits = Mutex::new(0usize);
        let sink2 = |_i: usize, chunk: AcquiredChunk| {
            assert!(!chunk.loaded);
            *unpoison(hits.lock()) += 1;
            Ok(())
        };
        cellar.acquire_each(&all, &pooled(), &sink2).unwrap();
        assert_eq!(*unpoison(hits.lock()), all.len());
        assert_eq!(count(&cellar, CellarLoads), all.len() as u64);
        assert_eq!(count(&cellar, CellarHits), all.len() as u64);
    }

    #[test]
    fn streaming_acquisition_interleaves_eviction_under_tiny_budget() {
        let fx = fixture("stream-tiny", 4, 64);
        let all = uris(&fx);
        let one = chunk_bytes(&cellar_over(&fx, counted()), &all[0]);
        // Budget fits ~1 chunk: the wave holds each pin only during its
        // sink call, so eviction interleaves with delivery and the wave
        // succeeds without the 4-chunk working set ever fitting.
        let cellar =
            cellar_over(&fx, CellarConfig { budget_bytes: one + one / 2, ..counted() });
        let sunk = AtomicU64::new(0);
        let sink = |_i: usize, chunk: AcquiredChunk| {
            assert!(chunk.relation.rows() > 0);
            sunk.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        cellar.acquire_each(&all, &pooled(), &sink).unwrap();
        assert_eq!(sunk.load(Ordering::Relaxed), all.len() as u64);
        // Budget holds once the wave is over (no pins survive).
        assert!(cellar.resident_bytes() <= cellar.budget_bytes());
        assert!(count(&cellar, CellarEvictions) > 0, "eviction ran during the wave");
    }

    #[test]
    fn streaming_acquisition_concurrent_waves_reverse_orders_complete() {
        // Regression: waves that join chunks another wave claimed must
        // never wedge — joins are drained only after every claim of the
        // wave has published, and never on a pool worker, so a latch
        // wait can never sit ahead of the task that would publish it.
        // A zero budget maximizes claim/join churn (every wave
        // re-claims every chunk, joins re-admit via `pin_or_readmit`).
        // Two shapes: serial waves (any ordering violation wedges a
        // submitter immediately), and six submitters sharing one
        // 2-worker pool (claims on the pool, joins inline — the
        // shipping shape, where a join blocking a worker would wedge
        // every wave).
        let fx = fixture("stream-xwave", 4, 32);
        let all = uris(&fx);
        let pool_metrics = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(MorselScheduler::new(2, Arc::clone(&pool_metrics)));
        let serial = SchedPolicy::default();
        let shared = SchedPolicy::default().with_scheduler(Some(Arc::clone(&pool)));
        for policy in [&serial, &shared] {
            let cellar = cellar_over(&fx, CellarConfig { budget_bytes: 0, ..counted() });
            let waves_per_thread = 12u64;
            std::thread::scope(|scope| {
                for t in 0..6usize {
                    let cellar = &cellar;
                    let all = &all;
                    scope.spawn(move || {
                        // Opposing, rotated orders across threads so
                        // claims and joins of concurrent waves
                        // interleave.
                        let mut wave = all.clone();
                        if t % 2 == 1 {
                            wave.reverse();
                        }
                        let rot = t % wave.len();
                        wave.rotate_left(rot);
                        for _ in 0..waves_per_thread {
                            let n = AtomicU64::new(0);
                            let sink = |_i: usize, chunk: AcquiredChunk| {
                                assert!(chunk.relation.rows() > 0);
                                n.fetch_add(1, Ordering::Relaxed);
                                Ok(())
                            };
                            cellar.acquire_each(&wave, policy, &sink).unwrap();
                            assert_eq!(n.load(Ordering::Relaxed), wave.len() as u64);
                        }
                    });
                }
            });
            let acquisitions: u64 =
                counts(&cellar, [CellarHits, CellarJoins, CellarLoads]).iter().sum();
            assert_eq!(acquisitions, 6 * waves_per_thread * all.len() as u64);
        }
        assert!(pool_metrics.get(SchedTasks) > 0, "the shared run claimed on the pool");
    }

    #[test]
    fn streaming_acquisition_propagates_sink_errors_and_unpins() {
        let fx = fixture("stream-err", 3, 32);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        let sink = |i: usize, _chunk: AcquiredChunk| {
            if i == 1 {
                Err(EngineError::Exec("boom".into()))
            } else {
                Ok(())
            }
        };
        let err = cellar.acquire_each(&all, &SchedPolicy::default(), &sink);
        assert!(err.is_err());
        // All pins released: a clear() drops everything that was admitted.
        cellar.clear();
        assert_eq!(cellar.resident_chunks(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let fx = fixture("peak", 3, 32);
        let all = uris(&fx);
        let cellar = cellar_over(&fx, counted());
        cellar.acquire_each(&all, &pooled(), &accept).unwrap();
        let peak = count(&cellar, CellarPeakResidentBytes) as usize;
        assert_eq!(peak, cellar.resident_bytes());
        cellar.clear();
        let after = count(&cellar, CellarPeakResidentBytes) as usize;
        assert_eq!(after, peak, "peak survives clears");
    }

    #[test]
    fn scoped_view_restricts_all_chunks() {
        let fx_a = fixture("scope-a", 2, 16);
        // Second source over a hand-rolled single chunk, sharing the
        // same database tables is not required for cellar accounting.
        let dir_b = fx_a.dir.join("repo-b");
        std::fs::create_dir_all(&dir_b).unwrap();
        write_log_file(&dir_b.join("x.evl"), "db-1", "scan", 0, &[(10, 1.0)]).unwrap();
        let adapter_b = Arc::new(EventLogAdapter::new(&dir_b));
        let entries = vec![crate::chunks::FileEntry {
            uri: dir_b.join("x.evl").to_string_lossy().into_owned(),
            file_id: 0,
            seg_base: 0,
            seg_count: 1,
            zones: vec![],
        }];
        let registry_b = Arc::new(ChunkRegistry::new(entries));
        let source_b = Arc::new(AdapterChunkSource::new(
            Arc::clone(&adapter_b) as Arc<dyn SourceAdapter>,
            Arc::clone(&registry_b),
        ));
        let binding_b = CellarSource {
            descriptor: Arc::new(adapter_b.descriptor().clone()),
            registry: registry_b,
            source: source_b,
        };
        let cellar =
            Arc::new(Cellar::new(vec![binding(&fx_a), binding_b], counted()).unwrap());
        // Overlapping registries are refused outright.
        assert!(Cellar::new(vec![binding(&fx_a), binding(&fx_a)], counted()).is_err());
        assert_eq!(cellar.scoped(0).all_chunks().unwrap().len(), 2);
        assert_eq!(cellar.scoped(1).all_chunks().unwrap().len(), 1);
        // Acquiring through a scoped view still shares the one budget.
        let scoped = cellar.scoped(1);
        let uris_b = scoped.all_chunks().unwrap();
        scoped.acquire_each(&uris_b, &SchedPolicy::default(), &accept).unwrap();
        assert!(cellar.resident_bytes() > 0);
    }

    // ---- Fault tolerance ---------------------------------------------

    use crate::fault::{FaultInjector, FaultPlan};
    use sommelier_engine::sched::CancelToken;

    /// Like [`binding`], but every decode is gated through a fault
    /// injector executing `plan`.
    fn binding_faulty(fx: &Fixture, plan: FaultPlan) -> (CellarSource, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(plan));
        let adapter: Arc<dyn SourceAdapter> = Arc::clone(&fx.adapter) as _;
        let source = Arc::new(
            AdapterChunkSource::new(adapter, Arc::clone(&fx.registry))
                .with_faults(Some(Arc::clone(&injector))),
        );
        let binding = CellarSource {
            descriptor: Arc::new(fx.adapter.descriptor().clone()),
            registry: Arc::clone(&fx.registry),
            source,
        };
        (binding, injector)
    }

    fn faulty_cellar(fx: &Fixture, plan: FaultPlan, config: CellarConfig) -> Cellar {
        let (binding, _) = binding_faulty(fx, plan);
        Cellar::new(vec![binding], config).unwrap()
    }

    #[test]
    fn transient_faults_recover_via_retries_byte_identically() {
        let fx = fixture("retry", 3, 32);
        let all = uris(&fx);
        let clean = cellar_over(&fx, counted());
        let expect = rows_per_chunk(&clean, &all, &pooled()).unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let config = CellarConfig { obs: Obs::new(Arc::clone(&metrics)), ..counted() };
        let cellar = faulty_cellar(&fx, FaultPlan::transient(1.0), config);
        // Strict policy: a chunk that exhausted its retries would fail
        // the wave, never turn into a placeholder.
        let rows = rows_per_chunk(&cellar, &all, &pooled()).unwrap();
        assert_eq!(rows, expect, "retried loads decode the same data");
        cellar.clear();
        assert!(metrics.get(Metric::FaultIoRetries) > 0, "transient faults were retried");
        assert_eq!(cellar.total_pins(), 0);
    }

    #[test]
    fn failed_load_does_not_poison_later_queries() {
        // Retries disabled: the first acquisition surfaces the injected
        // transient error. The latch must not stay poisoned — the very
        // next acquisition re-attempts and succeeds.
        let fx = fixture("poison", 1, 16);
        let all = uris(&fx);
        let plan = FaultPlan { max_transient_per_chunk: 1, ..FaultPlan::transient(1.0) };
        let cellar = faulty_cellar(
            &fx,
            plan,
            CellarConfig { retry: RetryPolicy::none(), ..counted() },
        );
        let policy = SchedPolicy::default();
        let err = cellar.acquire_each(&all, &policy, &accept).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Transient, "{err}");
        assert!(err.to_string().contains(&all[0]), "{err}");
        assert_eq!(cellar.total_pins(), 0, "failed acquisition leaked pins");
        assert!(cellar.quarantined(&all[0]).is_none(), "transient failures never quarantine");
        let delivered = AtomicU64::new(0);
        let sink = |_i: usize, a: AcquiredChunk| {
            assert!(a.loaded && a.skipped.is_none());
            delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        cellar.acquire_each(&all, &policy, &sink).unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn permanent_failure_quarantines_strict_skip_substitutes() {
        let fx = fixture("quarantine", 2, 16);
        let all = uris(&fx);
        let plan = FaultPlan { corrupt_uris: vec![all[0].clone()], ..FaultPlan::default() };
        let cellar = faulty_cellar(&fx, plan, counted());
        // Strict: the typed error names the chunk, and the chunk lands
        // in quarantine.
        let err = cellar.acquire_each(&all, &pooled(), &accept).unwrap_err();
        assert!(
            matches!(&err, EngineError::ChunkLoad { uri, .. } if *uri == all[0]),
            "{err}"
        );
        assert_eq!(err.kind(), ErrorKind::Permanent);
        assert_eq!(cellar.total_pins(), 0);
        let reason = cellar.quarantined(&all[0]).expect("quarantined");
        assert!(reason.contains("bad magic"), "{reason}");
        assert!(cellar.quarantined(&all[1]).is_none());
        // Skip mode: the batch completes, the corrupt chunk becomes a
        // schema-correct empty placeholder carrying the reason.
        let policy = SchedPolicy {
            degradation: DegradationPolicy::SkipUnreadable,
            ..SchedPolicy::default()
        };
        let got = Mutex::new(Vec::new());
        let sink = |i: usize, a: AcquiredChunk| {
            // Only the readable chunk holds a pin while its sink runs.
            let pins = usize::from(a.skipped.is_none());
            assert_eq!(cellar.total_pins(), pins, "slot {i}");
            unpoison(got.lock()).push((i, a.skipped, a.relation.rows()));
            Ok(())
        };
        cellar.acquire_each(&all, &policy, &sink).unwrap();
        let mut got = unpoison(got.into_inner());
        got.sort_by_key(|(i, ..)| *i);
        assert!(got[0].1.as_deref().unwrap().contains("bad magic"));
        assert_eq!(got[0].2, 0);
        assert!(got[1].1.is_none() && got[1].2 > 0);
        assert_eq!(cellar.total_pins(), 0);
    }

    #[test]
    fn streaming_skip_mode_sinks_placeholder_and_leaks_no_pins() {
        let fx = fixture("stream-skip", 3, 16);
        let all = uris(&fx);
        let plan = FaultPlan { corrupt_uris: vec![all[1].clone()], ..FaultPlan::default() };
        let cellar = faulty_cellar(&fx, plan, counted());
        let mut policy = pooled();
        policy.degradation = DegradationPolicy::SkipUnreadable;
        let skipped = Mutex::new(Vec::new());
        let sink = |i: usize, chunk: AcquiredChunk| {
            if let Some(reason) = &chunk.skipped {
                unpoison(skipped.lock()).push((i, reason.clone()));
                assert_eq!(chunk.relation.rows(), 0);
            } else {
                assert!(chunk.relation.rows() > 0);
            }
            Ok(())
        };
        cellar.acquire_each(&all, &policy, &sink).unwrap();
        let skipped = unpoison(skipped.into_inner());
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 1, "slot 1 carries the skip");
        assert!(skipped[0].1.contains("bad magic"));
        assert_eq!(cellar.total_pins(), 0);
        assert!(cellar.quarantined(&all[1]).is_some());
    }

    /// A relation's columns, floats by their bit patterns.
    fn bits(rel: &Relation) -> Vec<(String, String)> {
        let render = |c: &ColumnData| match c {
            ColumnData::Float64(v) => {
                format!("{:x?}", v.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
            }
            other => format!("{other:?}"),
        };
        rel.columns().iter().map(|(name, c)| (name.clone(), render(c))).collect()
    }

    #[test]
    fn seeded_interleavings_keep_pins_budget_and_answers() {
        // Four threads draw streaming waves over random subsets of six
        // chunks — plain, or inside the sink of a one-chunk wave so that
        // chunk stays pinned across the acquisition — against a budget
        // of ~1.5 chunks, under transient faults. One
        // retry and two faults per chunk mean a chunk fails at most
        // one load in the whole run (both attempts faulted), so
        // errors, placeholders and joiners' re-classification all occur,
        // and a chunk that failed once always loads afterwards.
        let fx = fixture("interleave", 6, 16);
        let all = uris(&fx);
        let reference: HashMap<String, Vec<(String, String)>> = {
            let clean = cellar_over(&fx, counted());
            all.iter()
                .map(|u| (u.clone(), bits(&clean.sources[0].source.load_chunk(u).unwrap())))
                .collect()
        };
        let one = chunk_bytes(&cellar_over(&fx, counted()), &all[0]);
        let retry = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        for (seed, degradation) in [
            (1u64, DegradationPolicy::Strict),
            (2, DegradationPolicy::SkipUnreadable),
            (3, DegradationPolicy::Strict),
            (4, DegradationPolicy::SkipUnreadable),
        ] {
            let plan =
                FaultPlan { seed, max_transient_per_chunk: 2, ..FaultPlan::transient(0.5) };
            let config = CellarConfig { budget_bytes: one + one / 2, retry, ..counted() };
            let cellar = faulty_cellar(&fx, plan, config);
            // Only transient faults are injected: a strict wave may fail
            // with one, a skipping wave never fails.
            let check = |r: sommelier_engine::Result<()>| match r {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(degradation, DegradationPolicy::Strict, "{e}");
                    assert_eq!(e.kind(), ErrorKind::Transient, "{e}");
                }
            };
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (cellar, all, reference, start) = (&cellar, &all, &reference, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut rng = Rng::new(seed << 8 | t);
                        let mut policy =
                            if t % 2 == 0 { pooled() } else { SchedPolicy::default() };
                        policy.degradation = degradation;
                        for _ in 0..24 {
                            let subset: Vec<String> =
                                all.iter().filter(|_| rng.one_in(2)).cloned().collect();
                            // A delivered chunk decodes to the reference;
                            // true if it is pinned (not a placeholder).
                            let verify = |wave: &[String], i: usize, c: &AcquiredChunk| {
                                let pinned = c.skipped.is_none();
                                assert!(!pinned || bits(&c.relation) == reference[&wave[i]]);
                                pinned
                            };
                            let sink = |i: usize, c: AcquiredChunk| {
                                verify(&subset, i, &c);
                                Ok(())
                            };
                            if rng.one_in(2) {
                                // Held pin: the wave runs inside the sink
                                // of an inline one-chunk wave. (One chunk:
                                // a wave whose claims are still pending
                                // must not block in a sink, or a joiner of
                                // one of them would wait forever.)
                                let held = std::slice::from_ref(&all[rng.below(6)]);
                                let inline =
                                    SchedPolicy { degradation, ..Default::default() };
                                let hold = |i: usize, c: AcquiredChunk| {
                                    if verify(held, i, &c) {
                                        assert!(cellar.total_pins() >= 1);
                                    }
                                    cellar.acquire_each(&subset, &policy, &sink)
                                };
                                check(cellar.acquire_each(held, &inline, &hold));
                            } else {
                                check(cellar.acquire_each(&subset, &policy, &sink));
                            }
                        }
                    });
                }
            });
            assert_eq!(cellar.total_pins(), 0, "seed {seed}");
            assert!(cellar.resident_bytes() <= cellar.budget_bytes(), "seed {seed}");
            assert!(
                !unpoison(cellar.inner.lock())
                    .slots
                    .values()
                    .any(|s| matches!(s, Slot::Loading(_))),
                "seed {seed}: a latch stayed loading"
            );
            // A chunk whose fault budget is not yet spent may fail one
            // more load; the wave after that one loads everything.
            let strict = SchedPolicy::default();
            let sink = |i: usize, c: AcquiredChunk| {
                assert!(bits(&c.relation) == reference[&all[i]], "seed {seed}: {}", all[i]);
                Ok(())
            };
            cellar
                .acquire_each(&all, &strict, &sink)
                .or_else(|_| cellar.acquire_each(&all, &strict, &sink))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(cellar.total_pins(), 0, "seed {seed}");
        }
    }

    #[test]
    fn cancellation_during_backoff_leaves_zero_pins() {
        let fx = fixture("cancel-backoff", 2, 16);
        let all = uris(&fx);
        // Endless transient faults + a generous retry budget with long
        // backoffs: the wave sits in backoff sleeps until the token
        // fires. Cancellation must interrupt the retry loop and leave
        // no pinned chunks behind.
        let plan =
            FaultPlan { max_transient_per_chunk: u32::MAX, ..FaultPlan::transient(1.0) };
        let retry = RetryPolicy {
            max_attempts: 1_000,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
        };
        let cellar = faulty_cellar(&fx, plan, CellarConfig { retry, ..counted() });
        let token = CancelToken::new();
        let policy = SchedPolicy { cancel: Some(token.clone()), ..SchedPolicy::default() };
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(25));
                token.cancel();
            })
        };
        let sink = |_i: usize, _chunk: AcquiredChunk| Ok(());
        let err = cellar.acquire_each(&all, &policy, &sink).unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err}");
        assert_eq!(cellar.total_pins(), 0, "cancelled wave leaked pins");
        assert!(cellar.quarantined(&all[0]).is_none(), "cancellation never quarantines");
    }
}
