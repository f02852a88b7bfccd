//! The two-stage execution driver (§III "Run-time Query Optimization"
//! and §V "Run-time Optimizer").
//!
//! Given a decomposed plan `Q = Qf ▷ Qs`:
//!
//! 1. **Stage 1** executes the metadata branch `Qf` and materializes its
//!    result (the *result-scan* source).
//! 2. **Run-time rewrite**: the distinct chunk URIs in `Qf`'s result
//!    determine the chunk list; every [`crate::logical::LogicalPlan::LazyScan`]
//!    is rewritten into a union of *cache-scan* (chunk already resident)
//!    and *chunk-access* (ingest now) entries — rewrite rule (1), with
//!    the scan's selection pushed into each access. Aggregates over the
//!    rewritten scan additionally fuse into a
//!    [`crate::physical::PhysicalPlan::PartialAggUnion`]
//!    ([`crate::physical::fuse_partial_agg`]).
//! 3. **The chunk wave**: the plan's one chunk node — a
//!    [`crate::physical::PhysicalPlan::ChunkUnion`] or a
//!    `PartialAggUnion` — runs as one [`ChunkResidency::acquire_each`]
//!    wave, with the paper's static strategy: one task per whole chunk,
//!    claimed by the shared pool's workers. Each chunk runs the node's
//!    per-chunk pipeline on the worker that produced it the moment it is
//!    available, then drops its pin; the partial states merge (or the
//!    gathered rows concatenate) in chunk order afterwards. A query's
//!    working set never needs to be resident all at once, and decode and
//!    execution share the same worker pool. Few or skewed chunks
//!    underutilize cores (§V discusses this drawback); the exchange
//!    operator that would repartition them dynamically is the paper's
//!    future work.
//! 4. **Stage 2** executes the remainder `Qs`, in which the chunk node
//!    has become a result-scan of the wave's output.

use crate::agg::{aggregate, merge_partials, partial_aggregate_over};
use crate::error::ErrorKind;
use crate::error::{EngineError, Result};
use crate::exec::{execute, ChunkPipeline, ExecContext};
use crate::logical::LogicalPlan;
use crate::obs::{self, span::fmt_ns, Edges, Metric, Obs, StageTimer, TraceCollector};
use crate::optimizer::{self, ColumnZone, PassTrace, ZoneCandidates, ZoneConstraint};
use crate::physical::{lower, ChunkRef, LowerOptions, PhysicalPlan};
use crate::relation::Relation;
use crate::sched::{DegradationPolicy, SchedPolicy};
use sommelier_storage::sync::unpoison;
use sommelier_storage::{ColumnData, Database};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One chunk handed out by a [`ChunkResidency`] manager: the loaded
/// relation plus how the acquisition was satisfied.
#[derive(Debug)]
pub struct AcquiredChunk {
    /// The chunk's rows (pinned in the manager until the sink returns).
    pub relation: Arc<Relation>,
    /// True if this acquisition decoded the chunk (a residency miss);
    /// false if the chunk was already resident or an in-flight load by
    /// another thread was joined.
    pub loaded: bool,
    /// True if the acquisition waited on another thread's in-flight
    /// load of the same chunk (single-flight dedup).
    pub joined: bool,
    /// Time this acquisition spent decoding the chunk (zero for hits
    /// and joins — the decode happened elsewhere).
    pub decode: Duration,
    /// Time this acquisition spent blocked on another thread's
    /// in-flight load (zero unless `joined`).
    pub pin_wait: Duration,
    /// `Some(reason)` when the chunk could not be read and the query
    /// runs under [`DegradationPolicy::SkipUnreadable`]: `relation` is
    /// then an empty placeholder in the table's schema, so downstream
    /// unions and pipelines stay aligned with the chunk list.
    pub skipped: Option<String>,
}

impl AcquiredChunk {
    /// A hit/miss/join without timing detail (managers that do not
    /// measure decode cost).
    pub fn untimed(relation: Arc<Relation>, loaded: bool, joined: bool) -> Self {
        AcquiredChunk {
            relation,
            loaded,
            joined,
            decode: Duration::ZERO,
            pin_wait: Duration::ZERO,
            skipped: None,
        }
    }

    /// An unreadable chunk replaced by an empty placeholder relation
    /// (skip-mode degradation).
    pub fn skipped(placeholder: Arc<Relation>, reason: impl Into<String>) -> Self {
        AcquiredChunk {
            relation: placeholder,
            loaded: false,
            joined: false,
            decode: Duration::ZERO,
            pin_wait: Duration::ZERO,
            skipped: Some(reason.into()),
        }
    }
}

/// One chunk a degraded ([`DegradationPolicy::SkipUnreadable`]) query
/// completed *without*: the URI and why it was unreadable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedChunk {
    /// URI of the unreadable chunk.
    pub uri: String,
    /// Why it could not be read (quarantine reason or load error).
    pub reason: String,
}

/// Per-chunk delivery callback for [`ChunkResidency::acquire_each`]:
/// `(index into the uris slice, acquired chunk)`. May be called
/// concurrently from several threads.
pub type ChunkSink<'a> = dyn Fn(usize, AcquiredChunk) -> Result<()> + Sync + 'a;

/// A handle over one query's in-flight raw-byte prefetch (see
/// [`ChunkResidency::prefetch`]). The driver must call
/// [`Self::finish`] when the chunk wave ends — on every path, success
/// or failure — so the manager can release staged-but-unconsumed
/// bytes; dropping a driver-side guard is the idiomatic way.
pub trait PrefetchHandle: Send {
    /// How many raw-byte fetches were issued so far (observability).
    fn submitted(&self) -> usize;

    /// Stop issuing and release every staged-but-unconsumed buffer.
    /// Idempotent.
    fn finish(&self);
}

/// A chunk-granularity residency manager (the core crate's *cellar*):
/// the only way stage 2 reads chunks.
///
/// The manager owns the loaded/not-loaded state: an acquisition *pins*
/// its chunk so it cannot be evicted while the chunk's sink runs,
/// concurrent acquisitions of the same chunk are deduplicated to a
/// single decode (single-flight), and each pin drops as its sink
/// returns, which lets the manager enforce its byte budget mid-wave.
///
/// What a sink keeps is query memory, not residency memory: the rows a
/// [`PhysicalPlan::ChunkUnion`] gathers from a chunk outlive its pin.
/// A whole-chunk selection shares the chunk's `Arc` columns rather
/// than copying them — the same bytes a pin held until stage 2 ended
/// would have kept alive — so nothing is copied to release the pin.
pub trait ChunkResidency: Send + Sync {
    /// Is the chunk resident right now? (Advisory — used to label
    /// cache-scan vs chunk-access in plans; [`Self::acquire_each`] is
    /// authoritative.)
    fn is_resident(&self, uri: &str) -> bool;

    /// Acquire every chunk in `uris` under the given scheduling policy
    /// (shared scheduler, priority, cancellation, degradation), handing
    /// each to `sink` as soon as it is available — resident chunks
    /// immediately, decoded chunks the moment their decode finishes, on
    /// the worker that decoded them (pipelined decode→execute). Each
    /// chunk's pin is dropped as soon as its own `sink` call returns
    /// (though a resident chunk may be pinned from the start of the
    /// wave until its sink runs); by the time `acquire_each` returns, no
    /// pins from this call survive. An unreadable chunk skipped under
    /// [`DegradationPolicy::SkipUnreadable`] reaches the sink as an
    /// unpinned placeholder. The first error (decode or sink) aborts the
    /// wave and is returned. A wave claims its misses up front, so a
    /// sink must not wait on another acquisition while the wave still
    /// has chunks to load: a chunk it claimed would never publish (the
    /// driver's sinks only run pipelines).
    ///
    /// Chunks are decoded full width: they stay resident after their
    /// pins drop, so a later query over other columns still hits.
    fn acquire_each(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
        sink: &ChunkSink<'_>,
    ) -> Result<()>;

    /// Every chunk in the repository (pure actual-data queries must
    /// load everything — the paper's "no alternative" case).
    fn all_chunks(&self) -> Result<Vec<String>>;

    /// The recorded zone maps of one chunk, if any (drives the
    /// `zone_map_pruning` pass). `None` = no zone maps; the chunk is
    /// never pruned.
    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        let _ = uri;
        None
    }

    /// Indexed stage-1 candidate selection: which registered chunks may
    /// satisfy the given constraints, answered by a sorted interval
    /// index over the registry's zone maps in O(log n + hits). `None` =
    /// no index (the pruning pass falls back to per-chunk zone checks).
    fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        let _ = constraints;
        None
    }

    /// Is the chunk quarantined (known permanently unreadable)? Returns
    /// the recorded reason. Stage 1 consults this before scheduling any
    /// decode, so a quarantined chunk is skipped (or fails the query,
    /// under [`DegradationPolicy::Strict`]) without its file being
    /// touched again.
    fn quarantined(&self, uri: &str) -> Option<String> {
        let _ = uri;
        None
    }

    /// Begin asynchronous raw-byte prefetch of `uris` (the surviving,
    /// post-pruning chunk list, in acquisition order): dedicated IO
    /// threads read chunk `k+1..k+d` while workers decode chunk `k`,
    /// and the subsequent [`Self::acquire_each`] consumes the staged bytes without a second read. `None` (the
    /// default) = the manager does not prefetch; acquisition is
    /// unchanged.
    fn prefetch(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
    ) -> Option<Box<dyn PrefetchHandle>> {
        let _ = (uris, policy);
        None
    }
}

/// RAII guard: finishes a query's prefetch plan when the chunk wave
/// ends (on every path — success, decode error, cancel), so staged-
/// but-unconsumed bytes are always released.
struct PrefetchGuard(Box<dyn PrefetchHandle>);

impl Drop for PrefetchGuard {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// Two-stage execution configuration.
#[derive(Debug, Clone)]
pub struct TwoStageConfig {
    /// Drop chunks whose zone maps contradict the pushed-down predicate
    /// before any decode is scheduled (the `zone_map_pruning` pass).
    pub zone_map_pruning: bool,
    /// Use FK join indices where available (eager-index plans).
    pub use_index_joins: bool,
    /// Which `Qf` output column carries the chunk URI. There is no
    /// meaningful default — the caller takes it from its source
    /// descriptor (e.g. `F.uri` for the mSEED adapter); plans with lazy
    /// scans fail if it is left empty.
    pub uri_column: String,
    /// Observability handle for this query: pool/query counters, and —
    /// when a per-query tracer is attached — the span tree.
    pub obs: Obs,
    /// How every morsel-parallel wave (decode, per-chunk pipelines)
    /// runs: the shared scheduler (`None` runs waves inline on the
    /// caller), priority, cancellation (checked
    /// between stages and at chunk-pipeline boundaries) and what to do
    /// with unreadable chunks. Its `tracer` is the collector attached
    /// to [`Self::obs`]; whoever attaches one sets both.
    pub sched: SchedPolicy,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        TwoStageConfig {
            zone_map_pruning: true,
            use_index_joins: false,
            uri_column: String::new(),
            obs: Obs::off(),
            sched: SchedPolicy::default(),
        }
    }
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Stage-1 (metadata branch) wall time.
    pub stage1: Duration,
    /// Chunk wave wall time: acquisition (decode, hits, joins) and every
    /// chunk's stage-2 pipeline, which overlap on the workers and are
    /// not separable.
    pub load: Duration,
    /// Stage-2 (remainder) wall time.
    pub stage2: Duration,
    /// Chunks selected by `Qf`.
    pub files_selected: usize,
    /// Chunks dropped by the `zone_map_pruning` pass (never decoded).
    pub files_pruned: usize,
    /// Chunks actually ingested (cache misses).
    pub files_loaded: usize,
    /// Chunks already resident in the residency manager (or joined
    /// from another query's in-flight load) — no decode of their own.
    pub cache_hits: usize,
    /// Unreadable chunks skipped under
    /// [`DegradationPolicy::SkipUnreadable`] (quarantined before the
    /// wave, or failed during it); the query's answer excludes them.
    pub files_skipped: usize,
    /// Rows ingested from chunks.
    pub rows_loaded: u64,
    /// Approximate bytes ingested from chunks.
    pub bytes_loaded: u64,
    /// Rows concatenated into a materialized chunk union by the chunk
    /// wave (0 when partial aggregation avoided the union entirely).
    pub rows_union_materialized: u64,
    /// Chunks executed through per-chunk partial-aggregation pipelines.
    pub partial_agg_chunks: u64,
    /// Acquisitions that joined another thread's in-flight load of the
    /// same chunk (single-flight dedup) instead of decoding.
    pub load_joins: u64,
    /// Total time acquisitions spent blocked on in-flight loads.
    pub pin_wait: Duration,
    /// Chunks the residency manager evicted while this query ran
    /// (filled by the driver's caller from the manager's stats; 0 when
    /// the plan reads no chunks).
    pub cellar_evictions: u64,
}

impl ExecStats {
    /// Total wall time across stages.
    pub fn total(&self) -> Duration {
        self.stage1 + self.load + self.stage2
    }

    /// The chunk-accounting invariant every run must satisfy: each
    /// selected chunk is pruned, loaded, a cache hit, or skipped as
    /// unreadable — exactly one of the four.
    pub fn accounting_balanced(&self) -> bool {
        self.files_selected
            == self.files_pruned + self.files_loaded + self.cache_hits + self.files_skipped
    }
}

/// A query result with its execution statistics.
#[derive(Debug)]
pub struct QueryOutcome {
    pub relation: Relation,
    pub stats: ExecStats,
    /// The stage-2 optimizer pass trace (which rewrite rules fired).
    pub trace: Vec<PassTrace>,
    /// Unreadable chunks the query completed without (non-empty only
    /// under [`DegradationPolicy::SkipUnreadable`]): the answer is a
    /// correct subset over the remaining chunks.
    pub skipped: Vec<SkippedChunk>,
}

/// Execute a (possibly decomposed) logical plan.
///
/// Plans without lazy scans (eager loading, or queries that never touch
/// actual data) run in a single pass; plans with lazy scans go through
/// the full two-stage protocol and read their chunks from `access`
/// (`None` = no lazy chunks available, e.g. eager plans).
pub fn execute_plan(
    db: &Database,
    plan: &LogicalPlan,
    access: Option<&dyn ChunkResidency>,
    config: &TwoStageConfig,
) -> Result<QueryOutcome> {
    let mut stats = ExecStats::default();
    let mut skipped: Vec<SkippedChunk> = Vec::new();
    config.sched.check_cancel()?;
    let tracer: Option<&TraceCollector> = config.obs.tracer().map(Arc::as_ref);
    let mut ctx = ExecContext { tracer, ..ExecContext::new(db) };

    // ---- Stage 1: evaluate the metadata branch Qf, if marked. ------
    let qf_id = match plan.qf() {
        Some(qf) => {
            // Ambient, so each scan's access-path span nests under it.
            let stage1 = StageTimer::ambient(tracer, "stage1", Instant::now());
            let opts = LowerOptions {
                db,
                use_index_joins: config.use_index_joins,
                lazy_chunks: None,
                qf_result_id: None,
            };
            let phys = lower(qf, &opts)?;
            let rf = execute(&phys, &ctx)?;
            let rows = Some(rf.rows() as u64);
            stats.stage1 = stage1.stop(|| "Qf (metadata branch)".into(), rows, None).dur();
            ctx.materialized.push(Arc::new(rf));
            Some(0usize)
        }
        None => None,
    };

    // ---- Run-time chunk list: what stage 1 selected. ---------------
    config.sched.check_cancel()?;
    let chunk_refs: Option<Vec<ChunkRef>> = if plan.has_lazy_scan() {
        let Some(residency) = access else {
            return Err(EngineError::Chunk(
                "plan has lazy scans but no chunk source given".into(),
            ));
        };
        let uris: Vec<String> = match qf_id {
            Some(id) => distinct_uris(&ctx.materialized[id], &config.uri_column)?,
            // Pure-AD query: load the whole repository.
            None => residency.all_chunks()?,
        };
        stats.files_selected = uris.len();
        // Quarantine check: chunks recorded as permanently unreadable
        // never reach the decode wave, and their files are never
        // touched again. Under `Strict` the query fails here, fast and
        // typed; under `SkipUnreadable` it proceeds without them.
        let mut kept = Vec::with_capacity(uris.len());
        for u in uris {
            match residency.quarantined(&u) {
                None => kept.push(u),
                Some(reason) => match config.sched.degradation {
                    DegradationPolicy::SkipUnreadable => {
                        stats.files_skipped += 1;
                        skipped.push(SkippedChunk { uri: u, reason });
                    }
                    DegradationPolicy::Strict => {
                        return Err(EngineError::ChunkLoad {
                            uri: u,
                            kind: ErrorKind::Permanent,
                            message: format!("chunk is quarantined: {reason}"),
                        })
                    }
                },
            }
        }
        Some(
            kept.iter()
                .map(|u| ChunkRef { uri: u.clone(), cached: residency.is_resident(u) })
                .collect(),
        )
    } else {
        None
    };

    // ---- Stage-2 rewrite: zone-map pruning, the lazy-scan → union
    // chunk rewrite (lowering, selections pushed into the chunks),
    // partial-aggregate fusion.
    let zones = |uri: &str| access.and_then(|a| a.zone_maps(uri));
    let zone_candidates = |constraints: &[ZoneConstraint]| {
        // The zone-index probe: indexed stage-1 candidate selection.
        let probe = StageTimer::start(tracer, "zone_index_probe");
        let r = access.and_then(|a| a.zone_candidates(constraints));
        let detail = || match &r {
            Some(ZoneCandidates::Uris(uris)) => format!("{} candidates", uris.len()),
            Some(ZoneCandidates::All) => "all chunks candidate".to_string(),
            None => "no index".to_string(),
        };
        probe.stop(detail, None, None);
        config.obs.count(Metric::ZoneProbes, 1);
        r
    };
    let considered = chunk_refs.as_ref().map(Vec::len).unwrap_or(0);
    let rw_start = Instant::now();
    let s2 = optimizer::rewrite_stage2(
        plan,
        db,
        chunk_refs,
        Some(&zones),
        Some(&zone_candidates),
        qf_id,
        config,
    )?;
    if let Some(tc) = tracer {
        optimizer::record_pass_spans(tc, "rewrite_stage2", Edges::since(rw_start), &s2.trace);
    }
    let mut phys = s2.physical;
    let trace = s2.trace;
    stats.files_pruned = s2.pruned;
    if considered > 0 {
        config.obs.count(Metric::ZoneChunksConsidered, considered as u64);
        config.obs.count(Metric::ZoneChunksPruned, s2.pruned as u64);
    }

    // ---- Async raw-byte prefetch over the surviving chunk list. ----
    // Submitted the moment pruning settles — before any decode is
    // scheduled — so dedicated IO threads read chunk k+1..k+d while
    // workers decode chunk k. The guard finishes the plan on every
    // exit path (success, decode error, cancel), releasing staged-but-
    // unconsumed bytes.
    let prefetch_guard: Option<PrefetchGuard> = match (&s2.chunks, access) {
        (Some(refs), Some(residency)) if !refs.is_empty() => {
            let to_fetch: Vec<String> =
                refs.iter().filter(|r| !r.cached).map(|r| r.uri.clone()).collect();
            let submit = StageTimer::start(tracer, "prefetch");
            let handle = if to_fetch.is_empty() {
                None
            } else {
                residency.prefetch(&to_fetch, &config.sched)
            };
            if let Some(h) = handle.as_deref() {
                let detail =
                    || format!("{} issued over {} candidates", h.submitted(), to_fetch.len());
                submit.stop(detail, None, None);
            }
            handle.map(PrefetchGuard)
        }
        _ => None,
    };

    // ---- The chunk wave: the plan's one chunk node, streamed. -------
    // Cancellation checkpoint before any decode work is scheduled: a
    // cancel here means no pins were ever taken.
    config.sched.check_cancel()?;
    // A chunk node implies lazy scans, which come with a chunk source
    // (checked above).
    if let (Some(node), Some(residency)) =
        (phys.take_chunk_node(ctx.materialized.len())?, access)
    {
        // The load span is ambient while the wave runs, so per-chunk
        // spans recorded on pool workers attach under it.
        let load = StageTimer::ambient(tracer, "load", Instant::now());
        let out = run_chunk_node(&node, residency, &ctx, config, &mut stats, &mut skipped)?;
        let detail = || {
            let s = &stats;
            format!(
                "{} loaded, {} hits, {} joined",
                s.files_loaded, s.cache_hits, s.load_joins
            )
        };
        let (rows, bytes) = (Some(stats.rows_loaded), Some(stats.bytes_loaded));
        stats.load = load.stop(detail, rows, bytes).dur();
        ctx.materialized.push(Arc::new(out));
        // The chunk wave is over: everything prefetched was either
        // claimed by a decode or is now wasted — release it before
        // stage 2 runs.
        drop(prefetch_guard);
    }

    // Chunk accounting must balance on every path: each selected chunk
    // is pruned, loaded, a cache hit, or skipped.
    if !stats.accounting_balanced() {
        return Err(EngineError::Exec(format!(
            "chunk accounting out of balance: selected {} != pruned {} + loaded {} \
             + hits {} + skipped {}",
            stats.files_selected,
            stats.files_pruned,
            stats.files_loaded,
            stats.cache_hits,
            stats.files_skipped
        )));
    }

    // ---- Stage 2: the remainder Qs. ---------------------------------
    config.sched.check_cancel()?;
    let stage2 = StageTimer::ambient(tracer, "stage2", Instant::now());
    let relation = execute(&phys, &ctx)?;
    let rows = Some(relation.rows() as u64);
    stats.stage2 = stage2.stop(|| "Qs (remainder)".into(), rows, None).dur();

    let o = &config.obs;
    o.count(Metric::QueryCount, 1);
    o.count(Metric::QueryStage1Ns, stats.stage1.as_nanos() as u64);
    o.count(Metric::QueryLoadNs, stats.load.as_nanos() as u64);
    o.count(Metric::QueryStage2Ns, stats.stage2.as_nanos() as u64);
    o.count(Metric::ChunksSelected, stats.files_selected as u64);
    o.count(Metric::ChunksPruned, stats.files_pruned as u64);
    o.count(Metric::ChunksLoaded, stats.files_loaded as u64);
    o.count(Metric::ChunksCacheHits, stats.cache_hits as u64);
    o.count(Metric::ChunksLoadJoins, stats.load_joins);
    o.count(Metric::ChunksSkipped, stats.files_skipped as u64);
    o.count(Metric::RowsLoaded, stats.rows_loaded);
    o.count(Metric::BytesLoaded, stats.bytes_loaded);
    Ok(QueryOutcome { relation, stats, trace, skipped })
}

/// Run the plan's chunk node as one wave ([`chunk_wave`]) and return
/// its output: the merged partial states of a
/// [`PhysicalPlan::PartialAggUnion`], or the in-order concatenation of
/// a [`PhysicalPlan::ChunkUnion`]'s per-chunk filtered rows. A node over
/// no chunks yields the table's empty
/// schema, aggregated when the node aggregates, so the plan above keeps
/// working.
fn run_chunk_node(
    node: &PhysicalPlan,
    residency: &dyn ChunkResidency,
    ctx: &ExecContext,
    config: &TwoStageConfig,
    stats: &mut ExecStats,
    skipped: &mut Vec<SkippedChunk>,
) -> Result<Relation> {
    match node {
        PhysicalPlan::ChunkUnion { table, chunks, columns, predicate } => {
            if chunks.is_empty() {
                return empty_chunk_schema(ctx.db, table, columns);
            }
            let pipeline = ChunkPipeline {
                columns,
                predicate: predicate.as_ref(),
                build: None,
                ops: &[],
            };
            let parts = chunk_wave(residency, chunks, config, stats, skipped, |chunk| {
                pipeline.run(chunk)
            })?;
            let mut out = Relation::empty();
            for part in &parts {
                out.union_in_place(part)?;
            }
            stats.rows_union_materialized += out.rows() as u64;
            Ok(out)
        }
        PhysicalPlan::PartialAggUnion {
            table,
            chunks,
            columns,
            predicate,
            join,
            ops,
            group_by,
            aggs,
        } => {
            // The build side is chunk-free (fusion guarantees it):
            // execute and hash it once; every chunk probes the shared
            // build.
            let build =
                join.as_ref().map(|j| j.build(execute(&j.right, ctx)?)).transpose()?;
            let pipeline = ChunkPipeline {
                columns,
                predicate: predicate.as_ref(),
                build: join
                    .as_ref()
                    .zip(build.as_ref())
                    .map(|(j, b)| (b, j.left_keys.as_slice())),
                ops,
            };
            if chunks.is_empty() {
                let empty = empty_chunk_schema(ctx.db, table, columns)?;
                return aggregate(&pipeline.run(&empty)?, group_by, aggs);
            }
            let parts = chunk_wave(residency, chunks, config, stats, skipped, |chunk| {
                partial_aggregate_over(&pipeline.candidates(chunk)?, group_by, aggs)
            })?;
            stats.partial_agg_chunks += parts.len() as u64;
            merge_partials(parts, group_by, aggs)
        }
        other => Err(EngineError::Plan(format!("not a chunk node: {other}"))),
    }
}

/// The correctly-typed empty relation for a chunk scan over no chunks
/// (so joins above keep working).
fn empty_chunk_schema(db: &Database, table: &str, columns: &[String]) -> Result<Relation> {
    let schema = db.table_schema(table)?;
    let prefix = format!("{table}.");
    let cols = columns
        .iter()
        .map(|c| {
            let raw = c.strip_prefix(&prefix).ok_or_else(|| {
                EngineError::Plan(format!("chunk column {c:?} not qualified by {table}"))
            })?;
            Ok((c.clone(), ColumnData::empty(schema.col_type(raw)?)))
        })
        .collect::<Result<Vec<_>>>()?;
    Relation::new(cols)
}

/// How one chunk of a wave was acquired: what its slot keeps once the
/// chunk and its pin are gone.
struct Acquisition {
    loaded: bool,
    joined: bool,
    pin_wait: Duration,
    rows: u64,
    bytes: u64,
    skipped: Option<String>,
}

/// The one way stage 2 consumes chunks: acquire `chunks` as one
/// [`ChunkResidency::acquire_each`] wave, run `pipeline` over each
/// chunk on the worker that produced it and fill slot `i` with its
/// result and acquisition; the pin drops as the sink returns. One
/// `"chunk"` span per chunk covers its decode or pin wait plus its
/// pipeline. After the wave the slots fold into `stats` in chunk order
/// — every chunk counts exactly once, as loaded, hit or skipped — and
/// the results return in chunk order.
fn chunk_wave<T: Send>(
    residency: &dyn ChunkResidency,
    chunks: &[ChunkRef],
    config: &TwoStageConfig,
    stats: &mut ExecStats,
    skipped: &mut Vec<SkippedChunk>,
    pipeline: impl Fn(&Relation) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let uris: Vec<String> = chunks.iter().map(|c| c.uri.clone()).collect();
    let slots: Vec<Mutex<Option<(Acquisition, T)>>> =
        uris.iter().map(|_| Mutex::new(None)).collect();
    let tracer = config.obs.tracer().map(Arc::as_ref);
    let sink = |i: usize, chunk: AcquiredChunk| -> Result<()> {
        let t0 = Instant::now();
        let out = pipeline(&chunk.relation)?;
        let acquisition = Acquisition {
            loaded: chunk.loaded,
            joined: chunk.joined,
            pin_wait: chunk.pin_wait,
            rows: chunk.relation.rows() as u64,
            bytes: chunk.relation.approx_bytes() as u64,
            skipped: chunk.skipped,
        };
        if let Some(tc) = tracer {
            record_chunk_span(tc, &uris[i], &acquisition, chunk.decode, t0.elapsed());
        }
        *unpoison(slots[i].lock()) = Some((acquisition, out));
        Ok(())
    };
    residency.acquire_each(&uris, &config.sched, &sink)?;
    let mut outs = Vec::with_capacity(uris.len());
    for (uri, slot) in uris.into_iter().zip(slots) {
        let Some((acquisition, out)) = unpoison(slot.into_inner()) else {
            return Err(EngineError::Exec(format!(
                "chunk {uri:?} never reached its pipeline"
            )));
        };
        match acquisition.skipped {
            Some(reason) => {
                stats.files_skipped += 1;
                skipped.push(SkippedChunk { uri, reason });
            }
            None if acquisition.loaded => {
                stats.files_loaded += 1;
                stats.rows_loaded += acquisition.rows;
                stats.bytes_loaded += acquisition.bytes;
            }
            None => stats.cache_hits += 1,
        }
        stats.load_joins += u64::from(acquisition.joined);
        stats.pin_wait += acquisition.pin_wait;
        outs.push(out);
    }
    Ok(outs)
}

/// Record one chunk's span: its decode or pin wait plus its pipeline,
/// all on the worker that produced it.
fn record_chunk_span(
    tc: &TraceCollector,
    uri: &str,
    a: &Acquisition,
    decode: Duration,
    pipeline: Duration,
) {
    let (acq_ns, pipe_ns) =
        ((decode + a.pin_wait).as_nanos() as u64, pipeline.as_nanos() as u64);
    let how = if a.skipped.is_some() {
        "skipped".to_string()
    } else if a.joined {
        format!("wait {}", fmt_ns(a.pin_wait.as_nanos() as u64))
    } else if a.loaded {
        format!("decode {}", fmt_ns(decode.as_nanos() as u64))
    } else {
        "hit".to_string()
    };
    let end = tc.offset_ns(Instant::now());
    tc.record(
        tc.ambient(),
        "chunk",
        format!("{uri} ({how}, pipeline {})", fmt_ns(pipe_ns)),
        end.saturating_sub(acq_ns + pipe_ns),
        acq_ns + pipe_ns,
        obs::current_worker(),
        Some(a.rows),
        Some(a.bytes),
    );
}

/// Distinct URIs from the stage-1 result, in first-appearance order.
fn distinct_uris(rf: &Relation, uri_column: &str) -> Result<Vec<String>> {
    let col = rf.column(uri_column)?;
    let text = match col {
        ColumnData::Text(t) => t,
        other => {
            return Err(EngineError::Exec(format!(
                "uri column {uri_column} has type {}, expected text",
                other.data_type()
            )))
        }
    };
    let mut seen = vec![false; text.dict.len()];
    let mut out = Vec::new();
    for &code in &text.codes {
        if !seen[code as usize] {
            seen[code as usize] = true;
            out.push(text.dict.get(code).to_string());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_indexed_policy;
    use crate::expr::{AggFunc, ArithOp, CmpOp, Expr};
    use crate::obs::MetricsRegistry;
    use crate::sched::MorselScheduler;
    use sommelier_storage::buffer::BufferPoolConfig;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::{ConstraintPolicy, DataType, TableClass, TableSchema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A chunk source serving synthetic per-file D relations:
    /// file `u<i>` has rows with file_id = i and values i*10 .. i*10+2.
    struct FakeSource {
        uris: Vec<String>,
        loads: AtomicUsize,
    }

    impl FakeSource {
        fn new(n: usize) -> Self {
            FakeSource {
                uris: (0..n).map(|i| format!("u{i}")).collect(),
                loads: AtomicUsize::new(0),
            }
        }

        fn rel_for(i: i64) -> Relation {
            Relation::new(vec![
                ("D.file_id".into(), ColumnData::Int64(vec![i, i, i])),
                (
                    "D.sample_value".into(),
                    ColumnData::Float64(vec![
                        i as f64 * 10.0,
                        i as f64 * 10.0 + 1.0,
                        i as f64 * 10.0 + 2.0,
                    ]),
                ),
            ])
            .unwrap()
        }

        fn load_chunk(&self, uri: &str) -> Result<Relation> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            let i: i64 = uri[1..]
                .parse()
                .map_err(|_| EngineError::Chunk(format!("unknown uri {uri:?}")))?;
            Ok(Self::rel_for(i))
        }
    }

    /// A minimal residency manager over a [`FakeSource`], to exercise
    /// the chunk wave without the core crate's cellar: everything stays
    /// resident, and each chunk is pinned only while its sink runs (the
    /// pins are counted).
    struct FakeResidency {
        source: FakeSource,
        resident: Mutex<std::collections::HashMap<String, Arc<Relation>>>,
        pins: AtomicUsize,
        peak_pins: AtomicUsize,
        /// uri → reason: loads of these chunks fail (skip or error
        /// depending on the policy's degradation mode).
        unreadable: Mutex<std::collections::HashMap<String, String>>,
        /// uri → reason: stage 1 skips these without touching them.
        quarantined: Mutex<std::collections::HashMap<String, String>>,
    }

    impl FakeResidency {
        fn new(n: usize) -> Self {
            FakeResidency {
                source: FakeSource::new(n),
                resident: Mutex::new(std::collections::HashMap::new()),
                pins: AtomicUsize::new(0),
                peak_pins: AtomicUsize::new(0),
                unreadable: Mutex::new(std::collections::HashMap::new()),
                quarantined: Mutex::new(std::collections::HashMap::new()),
            }
        }

        fn pin(&self) {
            let now = self.pins.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak_pins.fetch_max(now, Ordering::SeqCst);
        }

        fn empty_placeholder() -> Arc<Relation> {
            Arc::new(
                Relation::new(vec![
                    ("D.file_id".into(), ColumnData::Int64(Vec::new())),
                    ("D.sample_value".into(), ColumnData::Float64(Vec::new())),
                ])
                .unwrap(),
            )
        }

        /// One task of [`ChunkResidency::acquire_each`]: pin (or skip),
        /// sink, unpin.
        fn acquire_one(
            &self,
            i: usize,
            uri: &str,
            policy: &SchedPolicy,
            sink: &ChunkSink<'_>,
        ) -> Result<()> {
            let unreadable = unpoison(self.unreadable.lock()).get(uri).cloned();
            if let Some(reason) = unreadable {
                return match policy.degradation {
                    DegradationPolicy::SkipUnreadable => {
                        sink(i, AcquiredChunk::skipped(Self::empty_placeholder(), reason))
                    }
                    DegradationPolicy::Strict => Err(EngineError::ChunkLoad {
                        uri: uri.to_string(),
                        kind: ErrorKind::Permanent,
                        message: reason,
                    }),
                };
            }
            self.pin();
            let chunk = {
                let mut resident = unpoison(self.resident.lock());
                match resident.get(uri) {
                    Some(rel) => Ok(AcquiredChunk::untimed(Arc::clone(rel), false, false)),
                    // Retaining manager: always decodes full width.
                    None => self.source.load_chunk(uri).map(|rel| {
                        let rel = Arc::new(rel);
                        resident.insert(uri.to_string(), Arc::clone(&rel));
                        AcquiredChunk::untimed(rel, true, false)
                    }),
                }
            };
            let out = chunk.and_then(|chunk| sink(i, chunk));
            self.pins.fetch_sub(1, Ordering::SeqCst);
            out
        }
    }

    impl ChunkResidency for FakeResidency {
        fn is_resident(&self, uri: &str) -> bool {
            unpoison(self.resident.lock()).contains_key(uri)
        }

        fn acquire_each(
            &self,
            uris: &[String],
            policy: &SchedPolicy,
            sink: &ChunkSink<'_>,
        ) -> Result<()> {
            run_indexed_policy(uris.len(), policy, &Obs::off(), |i| {
                self.acquire_one(i, &uris[i], policy, sink)
            })
            .into_iter()
            .collect()
        }

        fn all_chunks(&self) -> Result<Vec<String>> {
            Ok(self.source.uris.clone())
        }

        fn quarantined(&self, uri: &str) -> Option<String> {
            unpoison(self.quarantined.lock()).get(uri).cloned()
        }
    }

    fn test_config() -> TwoStageConfig {
        TwoStageConfig { uri_column: "F.uri".to_string(), ..TwoStageConfig::default() }
    }

    fn metadata_db() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(
            TableSchema::new("F", TableClass::MetadataGiven)
                .column("file_id", DataType::Int64)
                .column("uri", DataType::Text)
                .column("station", DataType::Text)
                .primary_key(["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        // The actual-data table's schema only: its rows live in the
        // chunks the residency manager serves.
        db.create_table(
            TableSchema::new("D", TableClass::ActualData)
                .column("file_id", DataType::Int64)
                .column("sample_value", DataType::Float64),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![0, 1, 2]),
                ColumnData::Text(TextColumn::from_strs(["u0", "u1", "u2"])),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db
    }

    /// `D ⋈ Qf(F)`: the chunk rows of the files of `station` with
    /// `D.sample_value >= min`.
    fn lazy_join(station: &str, min: f64) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::LazyScan {
                table: "D".into(),
                columns: vec!["D.file_id".into(), "D.sample_value".into()],
                predicate: Some(Expr::col("D.sample_value").cmp(CmpOp::Ge, Expr::lit(min))),
            }),
            right: Box::new(LogicalPlan::QfMark {
                input: Box::new(LogicalPlan::Scan {
                    table: "F".into(),
                    columns: vec!["F.file_id".into(), "F.uri".into(), "F.station".into()],
                    predicate: Some(Expr::col("F.station").eq(Expr::lit(station))),
                }),
            }),
            left_keys: vec![Expr::col("D.file_id")],
            right_keys: vec![Expr::col("F.file_id")],
        }
    }

    /// AVG(D.sample_value) for station ISK — a T4-shaped two-stage plan.
    fn lazy_plan() -> LogicalPlan {
        avg_plan("ISK")
    }

    fn avg_plan(station: &str) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(lazy_join(station, 0.0)),
            group_by: vec![],
            aggs: vec![("avg_v".into(), AggFunc::Avg, Expr::col("D.sample_value"))],
        }
    }

    /// Raw sample values of `station`'s files above 2 — a chunk union
    /// under a join, with no aggregate to fuse into.
    fn raw_plan(station: &str) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(lazy_join(station, 2.5)),
            exprs: vec![("v".into(), Expr::col("D.sample_value"))],
        }
    }

    /// `agg` over every chunk's rows (no metadata branch), after the
    /// row-local `wrap` (e.g. a projection).
    fn pure_ad_plan(
        wrap: impl FnOnce(LogicalPlan) -> LogicalPlan,
        group_by: Vec<(String, Expr)>,
        aggs: Vec<(String, AggFunc, Expr)>,
    ) -> LogicalPlan {
        let scan = LogicalPlan::LazyScan {
            table: "D".into(),
            columns: vec!["D.file_id".into(), "D.sample_value".into()],
            predicate: None,
        };
        LogicalPlan::Aggregate { input: Box::new(wrap(scan)), group_by, aggs }
    }

    fn count_plan() -> LogicalPlan {
        pure_ad_plan(
            |p| p,
            vec![],
            vec![("n".into(), AggFunc::Count, Expr::col("D.sample_value"))],
        )
    }

    /// A config whose waves run on a fresh shared pool of `n` workers;
    /// the pool's registry is returned so tests can check it was used.
    fn on_pool(n: usize) -> (TwoStageConfig, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(MorselScheduler::new(n, Arc::clone(&metrics)));
        let mut config = test_config();
        config.sched = SchedPolicy::default().with_scheduler(Some(pool));
        (config, metrics)
    }

    /// The unfused reference for an aggregate plan: its input runs as a
    /// chunk-union wave, then one `aggregate` folds the whole union.
    fn unfused(
        db: &Database,
        plan: &LogicalPlan,
        residency: &FakeResidency,
        config: &TwoStageConfig,
    ) -> QueryOutcome {
        let LogicalPlan::Aggregate { input, group_by, aggs } = plan else {
            panic!("not an aggregate plan: {plan:?}");
        };
        let mut out = execute_plan(db, input, Some(residency), config).unwrap();
        assert_eq!(out.stats.partial_agg_chunks, 0, "nothing to fuse below the aggregate");
        out.relation = aggregate(&out.relation, group_by, aggs).unwrap();
        out
    }

    /// Every cell of `names` in `a` equals the one in `b`, row by row.
    fn assert_same(a: &Relation, b: &Relation, names: &[&str]) {
        assert_eq!(a.rows(), b.rows());
        for r in 0..a.rows() {
            for name in names {
                assert_eq!(
                    a.value(r, name).unwrap(),
                    b.value(r, name).unwrap(),
                    "{name}@{r}"
                );
            }
        }
    }

    #[test]
    fn two_stage_loads_only_selected_chunks() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let config = test_config();
        let out = execute_plan(&db, &lazy_plan(), Some(&residency), &config).unwrap();
        // Stage 1 selects files 0 and 2 (ISK); their 6 values: 0,1,2,20,21,22.
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
        assert_eq!(out.stats.files_selected, 2);
        assert_eq!(out.stats.files_loaded, 2);
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.rows_loaded, 6);
        assert_eq!(residency.source.loads.load(Ordering::Relaxed), 2, "u1 never touched");
        // The aggregate fused: no union was materialized.
        assert_eq!(out.stats.partial_agg_chunks, 2);
        assert_eq!(out.stats.rows_union_materialized, 0);
    }

    #[test]
    fn managed_residency_runs_fused_wave() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let config = test_config();
        let out = execute_plan(&db, &lazy_plan(), Some(&residency), &config).unwrap();
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
        assert_eq!(out.stats.files_loaded, 2);
        assert_eq!(out.stats.partial_agg_chunks, 2);
        assert_eq!(out.stats.rows_union_materialized, 0, "no union materialized");
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0, "all pins released");
        // Second run: served from residency, still fused.
        let out2 = execute_plan(&db, &lazy_plan(), Some(&residency), &config).unwrap();
        assert_eq!(out2.stats.cache_hits, 2);
        assert_eq!(out2.stats.files_loaded, 0);
        assert_eq!(out2.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
    }

    #[test]
    fn fused_and_unfused_results_agree() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let fused =
            execute_plan(&db, &lazy_plan(), Some(&residency), &test_config()).unwrap();
        // The unfused reference: a chunk-union wave whose rows
        // materialize a union for one aggregate over it.
        let unioned = unfused(&db, &lazy_plan(), &residency, &test_config());
        assert!(unioned.stats.rows_union_materialized > 0);
        match (
            fused.relation.value(0, "avg_v").unwrap(),
            unioned.relation.value(0, "avg_v").unwrap(),
        ) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pure_metadata_plan_runs_single_stage() {
        let db = metadata_db();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::QfMark {
                input: Box::new(LogicalPlan::Scan {
                    table: "F".into(),
                    columns: vec!["F.station".into()],
                    predicate: None,
                }),
            }),
            exprs: vec![("s".into(), Expr::col("F.station"))],
        };
        let out = execute_plan(&db, &plan, None, &test_config()).unwrap();
        assert_eq!(out.relation.rows(), 3);
        assert_eq!(out.stats.files_selected, 0);
        assert!(out.stats.stage1 > Duration::ZERO);
    }

    #[test]
    fn pure_ad_plan_loads_everything() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::LazyScan {
                table: "D".into(),
                columns: vec!["D.sample_value".into()],
                predicate: None,
            }),
            group_by: vec![],
            aggs: vec![("n".into(), AggFunc::Count, Expr::col("D.sample_value"))],
        };
        let out = execute_plan(&db, &plan, Some(&residency), &test_config()).unwrap();
        assert_eq!(out.stats.files_selected, 3, "no metadata: all chunks");
        assert_eq!(out.relation.value(0, "n").unwrap(), Value::Int(9));
    }

    #[test]
    fn missing_source_is_an_error() {
        let db = metadata_db();
        assert!(matches!(
            execute_plan(&db, &lazy_plan(), None, &test_config()),
            Err(EngineError::Chunk(_))
        ));
    }

    #[test]
    fn skip_mode_completes_over_readable_chunks() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        unpoison(residency.unreadable.lock()).insert("u2".into(), "bad magic".into());
        let mut config = test_config();
        config.sched.degradation = DegradationPolicy::SkipUnreadable;
        let out = execute_plan(&db, &lazy_plan(), Some(&residency), &config).unwrap();
        // Only u0's values (0, 1, 2) survive; u2 is skipped.
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(1.0));
        assert_eq!(out.stats.files_skipped, 1);
        assert_eq!(out.stats.files_loaded, 1);
        assert!(out.stats.accounting_balanced());
        assert_eq!(out.skipped.len(), 1);
        assert_eq!(out.skipped[0].uri, "u2");
        assert_eq!(out.skipped[0].reason, "bad magic");
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0, "no pins leaked");
    }

    #[test]
    fn strict_mode_fails_with_typed_error_naming_the_chunk() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        unpoison(residency.unreadable.lock()).insert("u2".into(), "bad magic".into());
        let err =
            execute_plan(&db, &lazy_plan(), Some(&residency), &test_config()).unwrap_err();
        match err {
            EngineError::ChunkLoad { uri, kind, .. } => {
                assert_eq!(uri, "u2");
                assert_eq!(kind, ErrorKind::Permanent);
            }
            other => panic!("expected ChunkLoad, got {other:?}"),
        }
    }

    #[test]
    fn quarantined_chunk_skipped_without_being_touched() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        unpoison(residency.quarantined.lock())
            .insert("u2".into(), "quarantined earlier".into());
        let mut config = test_config();
        config.sched.degradation = DegradationPolicy::SkipUnreadable;
        let out = execute_plan(&db, &lazy_plan(), Some(&residency), &config).unwrap();
        assert_eq!(out.stats.files_skipped, 1);
        assert_eq!(out.skipped[0].uri, "u2");
        assert_eq!(
            residency.source.loads.load(Ordering::Relaxed),
            1,
            "only u0 decoded; the quarantined chunk's file was never touched"
        );
        // Strict mode fails fast on the quarantined chunk, still
        // without touching its file.
        let err =
            execute_plan(&db, &lazy_plan(), Some(&residency), &test_config()).unwrap_err();
        assert!(matches!(err, EngineError::ChunkLoad { uri, .. } if uri == "u2"));
        assert_eq!(residency.source.loads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunk_union_filters_per_chunk() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let out =
            execute_plan(&db, &raw_plan("ISK"), Some(&residency), &test_config()).unwrap();
        // u2's 20, 21, 22 pass the selection; u0's 0, 1, 2 do not.
        assert_eq!(out.relation.rows(), 3);
        assert_eq!(out.stats.rows_union_materialized, 3, "filtered per chunk");
        assert_eq!(out.stats.partial_agg_chunks, 0);
        assert!(out.stats.accounting_balanced());
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn chunk_union_parallel_matches_serial() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let serial =
            execute_plan(&db, &raw_plan("ISK"), Some(&residency), &test_config()).unwrap();
        let (config, pool) = on_pool(4);
        let parallel =
            execute_plan(&db, &raw_plan("ISK"), Some(&residency), &config).unwrap();
        assert_eq!(pool.get(Metric::SchedTasks), 2, "both chunk pipelines ran on the pool");
        assert_same(&serial.relation, &parallel.relation, &["v"]);
    }

    #[test]
    fn partial_agg_union_fuses_and_matches_aggregate_over_union() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let plan = || {
            pure_ad_plan(
                |p| p,
                vec![("fid".into(), Expr::col("D.file_id"))],
                vec![
                    ("n".into(), AggFunc::Count, Expr::col("D.sample_value")),
                    ("avg_v".into(), AggFunc::Avg, Expr::col("D.sample_value")),
                ],
            )
        };
        let (config, _pool) = on_pool(4);
        let fused = execute_plan(&db, &plan(), Some(&residency), &config).unwrap();
        let want = unfused(&db, &plan(), &residency, &config);
        // Partial aggregation materialized no union.
        assert_eq!(fused.stats.partial_agg_chunks, 3);
        assert_eq!(fused.stats.rows_union_materialized, 0);
        assert_eq!(want.stats.rows_union_materialized, 9);
        assert_same(&want.relation, &fused.relation, &["fid", "n", "avg_v"]);
    }

    #[test]
    fn partial_agg_union_with_join_matches_unfused() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(lazy_join("ISK", 0.0)),
                predicate: Expr::col("D.sample_value").cmp(CmpOp::Lt, Expr::lit(21.0)),
            }),
            group_by: vec![],
            aggs: vec![("s".into(), AggFunc::Sum, Expr::col("D.sample_value"))],
        };
        let (config, _pool) = on_pool(2);
        let fused = execute_plan(&db, &plan, Some(&residency), &config).unwrap();
        assert_eq!(fused.stats.partial_agg_chunks, 2, "join shape fuses");
        let want = unfused(&db, &plan, &residency, &config);
        assert_same(&want.relation, &fused.relation, &["s"]);
        assert_eq!(fused.relation.value(0, "s").unwrap(), Value::Float(23.0));
    }

    #[test]
    fn partial_agg_union_fuses_through_project() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        // Aggregate over a computed projection of the chunk rows.
        let plan = || {
            pure_ad_plan(
                |scan| LogicalPlan::Project {
                    input: Box::new(scan),
                    exprs: vec![(
                        "doubled".into(),
                        Expr::Arith(
                            ArithOp::Mul,
                            Box::new(Expr::col("D.sample_value")),
                            Box::new(Expr::lit(2.0)),
                        ),
                    )],
                },
                vec![],
                vec![("s".into(), AggFunc::Sum, Expr::col("doubled"))],
            )
        };
        let (config, _pool) = on_pool(2);
        let fused = execute_plan(&db, &plan(), Some(&residency), &config).unwrap();
        assert_eq!(fused.stats.partial_agg_chunks, 3, "project chain fuses");
        let want = unfused(&db, &plan(), &residency, &config);
        assert_same(&want.relation, &fused.relation, &["s"]);
        assert_eq!(fused.relation.value(0, "s").unwrap(), Value::Float(198.0));
    }

    #[test]
    fn partial_agg_union_empty_chunks_keeps_schema() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        // Stage 1 selects no files: both chunk-node kinds run no wave
        // and keep the table's schema.
        let agg =
            execute_plan(&db, &avg_plan("NONE"), Some(&residency), &test_config()).unwrap();
        assert_eq!(agg.relation.rows(), 0, "global aggregate over empty input");
        assert_eq!(agg.relation.width(), 1, "schema preserved");
        let raw =
            execute_plan(&db, &raw_plan("NONE"), Some(&residency), &test_config()).unwrap();
        assert_eq!((raw.relation.rows(), raw.relation.width()), (0, 1));
        assert_eq!(residency.source.loads.load(Ordering::Relaxed), 0);
        assert!(agg.stats.accounting_balanced() && raw.stats.accounting_balanced());
    }

    #[test]
    fn chunk_union_wave_pins_one_chunk_at_a_time() {
        // A chunk-union wave drops each chunk's pin as the chunk's rows
        // are gathered, so a serial run never holds two pins.
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let out = unfused(&db, &count_plan(), &residency, &test_config());
        assert_eq!(out.relation.value(0, "n").unwrap(), Value::Int(9));
        assert_eq!(out.stats.files_loaded, 3);
        assert_eq!(residency.peak_pins.load(Ordering::SeqCst), 1);
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn accounting_balances_over_quarantine_and_skip() {
        let db = metadata_db();
        let residency = FakeResidency::new(6);
        unpoison(residency.resident.lock())
            .insert("u3".into(), Arc::new(FakeSource::rel_for(3)));
        unpoison(residency.quarantined.lock())
            .insert("u1".into(), "quarantined earlier".into());
        unpoison(residency.unreadable.lock()).insert("u2".into(), "bad magic".into());
        let mut config = test_config();
        config.sched.degradation = DegradationPolicy::SkipUnreadable;
        let out = execute_plan(&db, &count_plan(), Some(&residency), &config).unwrap();
        let s = &out.stats;
        assert!(s.accounting_balanced(), "{s:?}");
        // u3 is a hit, u1 (quarantined) and u2 (unreadable) are skipped,
        // and the other three load: 6 = 3 + 1 + 2.
        let counts = (s.files_selected, s.files_loaded, s.cache_hits, s.files_skipped);
        assert_eq!(counts, (6, 3, 1, 2), "{s:?}");
        assert_eq!(out.skipped.len(), 2);
        assert_eq!(out.relation.value(0, "n").unwrap(), Value::Int(3 * 4));
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn distinct_uris_keeps_first_appearance_order() {
        let rel = Relation::new(vec![(
            "F.uri".into(),
            ColumnData::Text(TextColumn::from_strs(["b", "a", "b", "c", "a"])),
        )])
        .unwrap();
        assert_eq!(distinct_uris(&rel, "F.uri").unwrap(), vec!["b", "a", "c"]);
        assert!(distinct_uris(&rel, "F.nope").is_err());
    }
}
