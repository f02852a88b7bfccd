//! Guardrails: superseded execution paths stay deleted.
//!
//! Stage 2 reads chunks only through a `ChunkResidency` manager (the
//! cellar). The legacy direct path — `ChunkAccess::Direct`, the engine's
//! Recycler, the `ChunkSource` trait and its static/exchange loaders,
//! and the knobs that selected them — was removed at cutover.
//!
//! Every parallel morsel batch runs on the shared `MorselScheduler`
//! (`run_indexed_policy`; inline without a pool). The per-batch scoped
//! thread pool — `run_indexed`, `run_indexed_obs`, the
//! `legacy_pool_spawns` counter and the `shared_scheduler` knob that
//! selected it — was removed too, which is what bounds live worker
//! threads by `max_threads` by construction. Setup runs on the same
//! pool: registration's header scans and eager loading's decode, CSV
//! write and CSV parse are each one batch under the system's
//! `SchedPolicy`, and `SourceAdapter::register` takes that policy
//! instead of a thread count. The strided `std::thread::scope` loops
//! they ran on — mSEED's `read_all_headers`, the event-log header scan,
//! the loader's `decode_wave` and its two CSV phases — were removed.
//! Outside test code only the pools start threads (see
//! [`THREAD_OWNERS`]).
//!
//! The cellar has one residency mode: it always retains decoded chunks,
//! full width, until budget pressure evicts them (a zero budget retains
//! nothing past the pins). The non-retaining mode — `use_recycler`,
//! `CellarConfig::retain` — and the decode-projection plumbing only it
//! used — the `projection_pushdown` pass and knobs, the plans'
//! `projected_decode` flags, `decode_projection`, the cellar's narrow-hit
//! fork (`HitNarrow`, `load_private`, `covers`) — were removed, as were
//! the deprecated `sommelier_mseed::compat` constructor shims.
//!
//! Cellar eviction frees memory only. Registered chunk files are
//! immutable, so derived metadata outlives the residency of the chunks
//! it was computed from, the way a catalog outlives a buffer pool's
//! pages. The reclamation path — the cellar's `try_reclaim_batch` and
//! `compute_coverage`, storage's `delete_chunk_rows`/`retain_rows`, the
//! `reclaimed_rows`/`reclaim_failures` counters, and the DMd manager's
//! `uncover`/`try_invalidate`/`begin_query` invalidation lock — was
//! removed.
//!
//! The per-chunk join probes once per run of equal keys and borrows
//! plain-column keys; the per-row probe loop survives only as the
//! oracle in `join.rs`'s tests, and its key-cloning `key_columns`
//! helper was removed.
//!
//! Stage 2 decodes with the paper's static strategy only: one task per
//! whole chunk. The exchange alternative — `ParallelMode`,
//! `stage2_workers`, `SchedPolicy`'s `parallel`/`max_threads` fields,
//! the cellar's `decode_exchange`, the adapters' `chunk_units` and the
//! `ChunkUnit` type they returned, mSEED's per-segment `decode_segment`
//! and the `decode.units` counter — was removed; a wave's worker cap is
//! the shared pool's size. The cellar evicts in one order, LRU, called
//! directly: the boxed `ResidencyPolicy` trait, `CellarPolicyKind`, the
//! decode-cost-aware policy (measured slower on the evicting workloads)
//! and the `cellar_policy` knob were removed.
//!
//! The cellar has one acquisition engine, the streaming wave, and one
//! wave per chunk node is the only way stage 2 reads chunks: the driver
//! runs the plan's `ChunkUnion` or `PartialAggUnion` as one
//! `acquire_each` wave and each pin drops as its chunk's pipeline
//! returns. The load-all engine — `settle_acquired`, `settle_retry`,
//! `decode_claims` and its own `catch_unwind` — was removed, and so was
//! load-all acquisition: `acquire_many`/`release_many`, the driver's
//! `PinGuard` that held pins across stage 2, its `chunk.load` span, and
//! the executor's pre-loaded chunk map with its `resolve_chunks` and
//! `ExecCounters`. The approximate-answering wrappers `query_approx` and
//! `run_spec`/`run_spec_sampled` were removed, and so was the sampling
//! they wrapped: `QueryOptions::sampling`, `TwoStageConfig::sampling`,
//! `SubmitOptions::sampling`, `sample_uris`, `files_sampled_out` and the
//! `chunks.sampled_out` counter. A sample made `COUNT` and `SUM` return a
//! fraction of the true value, unscaled and with no stated error; every
//! answer is now exact.
//!
//! `FaultPlan` is the one way to slow or fail a chunk load: a spike at
//! rate 1.0 slows every load, and `FaultInjector::hold` parks loads
//! until a test releases them. The simulated-IO model — its latency
//! struct, the buffer pool's page-miss sleep, the two `SommelierConfig`
//! latency knobs and the chunk source's setter and sleep — was
//! removed. `FaultPlan`'s field count is pinned so the hold stays a
//! method, never a configuration field.
//!
//! `benchmark/` is the one performance instrument. The one-off sweeps
//! it superseded — the cellar, stage-2, optimizer, decode, observability
//! and prefetch binaries, their recorded `BENCH_*.json` baselines, the
//! criterion benches and the criterion shim only they used — were
//! removed, and so were the production hooks only they kept alive: the
//! adapters' reference-decode switch (the reference decoders live on as
//! test-support wrappers in `sommelier_integration::reference`), the
//! unused `header_value_bounds`, and two chunk-memory knobs nobody set
//! — the admission gate's high-water mark and the prefetch byte cap —
//! which left the cellar budget as the only bound on chunk memory.
//!
//! Stage 2 has one rewrite: `chunk_rewrite` always pushes a lazy
//! scan's selection into each chunk access, so a `ChunkUnion` has one
//! execution arm and every aggregate over it may fuse. The no-pushdown
//! ablation — the `chunk_pushdown` knob, `TwoStageConfig::pushdown`,
//! the plan's `pushdown` flag, the post-union filter and the
//! `selection_pushdown` pass that set the flag — was removed. The
//! optimizer passes are plain functions called in order by
//! `compile_plan` and `rewrite_stage2`: the boxed pass framework
//! (`OptPass`, `OptState`, `PassEffect`, `Pipeline`), the structs that
//! wrapped each pass and the `Stage2Options` copy of the configuration
//! were removed.
//!
//! Every metric is declared once, as a `Metric` in the catalogue that
//! `MetricsRegistry`'s fixed slots are indexed by. The name-keyed
//! register-or-get maps, the `Counter`/`Gauge` handles and the cached
//! `DecodeCounters` they forced, the unused `NS_BUCKETS` and
//! `Obs::gauge_set`, the `Off` observability level and the process-wide
//! `IO_RETRIES` copy of `fault.io_retries` were removed; the
//! tasks-per-batch histogram is `pool.batch_tasks`, not
//! `pool.queue_depth`.
//!
//! Every counter lives in the registry; subsystems count in place. The
//! cellar, the morsel scheduler, the admission controller and the
//! prefetch stage count into the system's registry where each event
//! happens and set their gauges under the lock that guards the state
//! they report. Their private copies — `CellarStats`/`CellarSnapshot`,
//! `SchedCounters`/`SchedStats`, `AdmissionStats` and
//! `Sommelier::admission_stats`, the `queries_degraded` atomic — and the
//! block that mirrored them into the registry at snapshot time were
//! removed: `metrics_snapshot()` is a read.
//!
//! A statement compiles once, into one `QueryPlan`, and one `run` takes
//! it as a top-level query or as Algorithm 1's derivation child of one
//! (no ticket; the parent's cancel token, deadline and priority; always
//! `Strict`). `CompiledQuery`, `compile_spec`, the two-flag
//! `run_spec_opts` (`check_dmd`, `force_spans`),
//! `explain_analyze_unguarded` with its second compile, and
//! `run_derivation`, which ran derivation with default options, were
//! removed. Each stage's two clock edges are read once, by a
//! `StageTimer`, so its span and its `ExecStats` field are equal; the
//! collector's `start`/`end`/`end_with` were removed. A traced run's
//! collector is set on its `TwoStageConfig` once, in `obs` and in
//! `sched`; `TwoStageConfig::policy()`, which cloned the whole
//! `SchedPolicy` to copy it across on every wave, was removed.
//!
//! The server runs each submitted query on a control thread of its own
//! and reuses them: a finished thread parks until the next submit. The
//! OS thread that `Session::submit_with` spawned and joined for every
//! query (`somm-query-s<session>`) was removed.
//!
//! A base-table scan takes its table's access path
//! (`engine::access::scan`): binary searches on the order facts, then
//! the rest of the predicate on what is left. `scan_base_table`'s
//! mask-then-copy scan survives only as `exec::scan_masked`, the oracle
//! of the access paths' tests, and the chunk probe's `run_end` became
//! `candidates::gallop`.
//!
//! Every lock is a plain `std::sync` lock, and a poisoned one is
//! recovered in one function, `sommelier_storage::sync::unpoison`. The
//! `parking_lot` shim that swallowed poison inside its own guard types,
//! the scheduler's and the admission controller's private `lock`
//! helpers and the inline `unwrap_or_else(|e| e.into_inner())` calls
//! were removed.
//!
//! Every chunk load is `SourceAdapter::fetch_bytes`, then
//! `decode_bytes` over the fetched bytes: the cellar's direct load, the
//! prefetched load and both eager loaders. The fused
//! `SourceAdapter::decode`, the thread-local decode scratch
//! (`BYTE_SCRATCH`, `TEXT_SCRATCH`, `with_byte_scratch`,
//! `with_text_scratch`), its process-wide `scratch_counters`, mSEED's
//! `read_full_bytes_into`, the event log's `decode_text` and
//! `MetricsSnapshot::patch`, which wrote values from outside the
//! registry into a snapshot, were removed.
//!
//! Partial aggregation folds each aggregate with its function's own
//! kernel, which keeps only the state that function's answer reads. The
//! per-row update of every field whatever the function
//! (`AggState::update_f`/`update_i`) was removed; `agg.rs`'s tests keep
//! it as their oracle under another name.
//!
//! This test scans every `crates/*/src/**/*.rs` file (comment lines
//! skipped, so prose citing the paper's Recycler stays legal) and fails
//! if any of those symbols reappear. A later deletion adds its own
//! lines to [`FORBIDDEN`] and [`DELETED_FILES`].
//!
//! The configuration structs are pinned too: [`CONFIG_FIELDS`] holds
//! each one's count of `pub` fields, so growing (or shrinking) a
//! configuration is a deliberate diff here, not drift.

use std::fs;
use std::path::{Path, PathBuf};

/// Code that must not reappear: `(needle, what replaced it)`.
const FORBIDDEN: &[(&str, &str)] = &[
    ("ChunkAccess", "execute_plan takes Option<&dyn ChunkResidency>"),
    ("struct Recycler", "the cellar retains decoded chunks"),
    ("mod recycler", "the cellar retains decoded chunks"),
    ("recycler_bytes", "the budget is SommelierConfig::cellar_bytes"),
    ("use_cache", "the cellar always retains decoded chunks"),
    ("trait ChunkSource", "the cellar calls AdapterChunkSource's inherent methods"),
    ("fn load_static", "the cellar runs the static decode wave"),
    ("fn load_exchange", "the cellar runs the exchange decode wave"),
    ("legacy_pool_spawns", "worker threads are bounded by the shared pool's size"),
    ("LEGACY_POOL_SPAWNS", "worker threads are bounded by the shared pool's size"),
    ("shared_scheduler", "the pool exists whenever max_threads > 1"),
    ("fn run_indexed_obs", "run_indexed_policy is the one morsel front door"),
    ("fn run_indexed<", "run_indexed_policy is the one morsel front door"),
    ("use_recycler", "the cellar always retains; cellar_bytes: Some(0) keeps nothing"),
    ("pub retain:", "the cellar always retains; budget pressure alone evicts"),
    ("projection_pushdown", "chunks decode full width so the cellar can retain them"),
    ("projected_decode", "chunks decode full width so the cellar can retain them"),
    ("ProjectionPushdown", "chunks decode full width so the cellar can retain them"),
    ("fn decode_projection", "chunks decode full width so the cellar can retain them"),
    ("HitNarrow", "every resident chunk is full width, so every hit covers its request"),
    (
        "fn load_private",
        "every resident chunk is full width, so every hit covers its request",
    ),
    ("fn covers", "every resident chunk is full width, so every hit covers its request"),
    ("mod compat", "systems are built with Sommelier::builder()"),
    ("fn try_reclaim_batch", "eviction frees memory only; derived metadata outlives it"),
    ("fn compute_coverage", "eviction frees memory only; derived metadata outlives it"),
    ("struct ChunkCoverage", "eviction frees memory only; derived metadata outlives it"),
    ("delete_chunk_rows", "eviction never touches storage"),
    ("fn retain_rows", "eviction never touches storage"),
    ("reclaimed_rows", "eviction never touches storage"),
    ("reclaim_failures", "eviction never touches storage"),
    ("try_invalidate", "covered windows leave PSm only through DmdManager::clear"),
    ("fn uncover", "covered windows leave PSm only through DmdManager::clear"),
    ("fn begin_query", "the coverage check runs under the covered lock alone"),
    ("fn key_columns", "JoinBuild::probe borrows plain-column keys (eval_column)"),
    ("ParallelMode", "stage 2 decodes one task per whole chunk"),
    ("stage2_workers", "a wave's worker cap is the shared pool's size"),
    ("ChunkUnit", "stage 2 decodes one task per whole chunk"),
    ("fn chunk_units", "stage 2 decodes one task per whole chunk"),
    ("decode_exchange", "the cellar's streaming wave decodes one task per chunk"),
    ("fn decode_segment", "chunks decode whole through SourceAdapter::decode_bytes"),
    ("fn read_full_bytes(", "chunk loads read through SourceAdapter::fetch_bytes"),
    ("decode.units", "one decode task per chunk: decode.chunks counts them"),
    ("SchedPolicy::new", "SchedPolicy::default() plus with_scheduler"),
    ("fn serial()", "SchedPolicy::default() runs batches inline"),
    ("ResidencyPolicy", "the cellar calls its LruPolicy directly"),
    ("CellarPolicyKind", "the cellar always evicts least recently used first"),
    ("CostAwarePolicy", "LRU measured faster on prune_window and server_mix"),
    ("cellar_policy", "the cellar always evicts least recently used first"),
    ("fn policy_name", "the cellar always evicts least recently used first"),
    ("fn settle_acquired", "the cellar's one engine is the streaming wave"),
    ("fn settle_retry", "the cellar's one engine is the streaming wave"),
    ("fn decode_claims", "the cellar's one engine is the streaming wave"),
    ("fn query_approx", "query_opts; every answer is exact"),
    ("fn run_spec_sampled", "query_opts; every answer is exact"),
    ("struct SimIo", "FaultPlan spikes slow chunk loads; the buffer pool reads real pages"),
    ("fn sim_io_total", "FaultPlan spikes slow chunk loads"),
    ("fn charge_sim_io", "FaultInjector::before_load gates every chunk load"),
    ("fn with_sim_io", "AdapterChunkSource::with_faults"),
    ("sim_chunk_io", "FaultPlan spikes slow chunk loads; FaultInjector::hold parks them"),
    ("fn acquire_many", "one acquire_each wave per chunk node"),
    ("fn release_many", "each pin drops as its chunk's sink returns"),
    ("struct PinGuard", "no pin outlives its chunk's sink"),
    ("fn resolve_chunks", "chunk nodes run in the two-stage driver, never in execute"),
    ("fn record_chunk_acquisition", "one \"chunk\" span per chunk, from the wave's sink"),
    ("fn replace_first_partial_agg", "PhysicalPlan::take_chunk_node"),
    ("struct ExecCounters", "the chunk wave counts straight into ExecStats"),
    ("\"chunk.load\"", "one \"chunk\" span per chunk covers acquisition and pipeline"),
    ("fn with_reference_decode", "sommelier_integration::reference wraps the adapters"),
    ("reference_decode:", "production adapters decode one way"),
    ("admission_high_water", "the cellar budget alone bounds chunk memory"),
    ("prefetch_bytes", "the budget probe bounds staged bytes by the cellar budget"),
    ("fn header_value_bounds", "value_stats_midpoint reads the header statistics"),
    ("fn decode_hotpath", "benchmark/: cold_scan decode.*, prune_window chunks.*"),
    ("fn prefetch_sweep", "benchmark/: cold_scan prefetch.* and fetch.*"),
    ("fn cellar_sweep", "benchmark/: prune_window and server_mix cellar.*"),
    ("fn obs_overhead", "benchmark/: every traced run's obs.*"),
    ("fn stage2_parallel", "benchmark/: cold_scan twostage.* and sched.*"),
    ("fn optimizer_sweep", "benchmark/: prune_window optimizer.* and chunks.*"),
    ("chunk_pushdown", "chunk_rewrite always pushes the selection into each chunk"),
    ("trait OptPass", "the passes are plain functions in optimizer::passes"),
    ("struct OptState", "each pass function takes its inputs as arguments"),
    ("enum PassEffect", "each pass function returns (output, fired, detail)"),
    ("struct SelectionPushdown", "chunk_rewrite always pushes the selection into each chunk"),
    ("struct Stage2Options", "rewrite_stage2 reads the TwoStageConfig it is given"),
    ("ObsLevel::Off", "ObsLevel is Counters or Spans; Obs::off() is the detached handle"),
    ("struct DecodeCounters", "the chunk source counts through its Obs by Metric"),
    ("fn io_retries", "fault.io_retries is counted per system through Obs"),
    ("IO_RETRIES", "fault.io_retries is counted per system through Obs"),
    ("NS_BUCKETS", "the one histogram buckets over COUNT_BUCKETS"),
    ("fn gauge_set", "MetricsRegistry::set(Metric, v)"),
    ("\"pool.queue_depth\"", "the tasks-per-batch histogram is pool.batch_tasks"),
    ("struct CellarStats", "the cellar counts cellar.* into the registry through its Obs"),
    ("struct CellarSnapshot", "read cellar.* from Sommelier::metrics()"),
    ("struct SchedCounters", "the scheduler counts sched.* into the registry"),
    ("struct SchedStats", "read sched.* from Sommelier::metrics()"),
    ("struct AdmissionStats", "admission counts admission.* into the registry"),
    ("fn admission_stats", "read admission.* from Sommelier::metrics()"),
    ("queries_degraded: AtomicU64", "fault.queries_degraded is counted in the registry"),
    ("m.set(CellarHits", "metrics_snapshot() reads the registry; nothing is mirrored"),
    ("struct CompiledQuery", "Sommelier::plan builds one QueryPlan per statement"),
    ("fn compile_spec", "Sommelier::plan builds one QueryPlan per statement"),
    ("fn run_spec_opts", "Sommelier::run takes a QueryPlan and a RunCtx"),
    ("fn explain_analyze_unguarded", "explain_analyze runs the one plan it renders"),
    ("fn run_derivation", "derivation runs as RunCtx::Derivation, a child of its query"),
    ("force_spans", "RunCtx::Query carries the span level"),
    ("check_dmd: bool", "RunCtx says whether a run is a top-level query"),
    ("fn end_with", "StageTimer reads each stage's two clock edges once"),
    ("spawn query control thread", "submits reuse the server's parked control threads"),
    ("somm-query-s", "submits reuse the server's parked control threads"),
    ("fn policy(", "core sets TwoStageConfig::sched's tracer where it attaches obs's"),
    ("fn scan_base_table", "base-table scans take their access path (engine::access::scan)"),
    ("fn run_end(", "candidates::gallop finds the end of a sorted run"),
    ("parking_lot::", "std::sync locks through sommelier_storage::sync::unpoison"),
    ("sample_uris", "every selected chunk is pruned, loaded, a hit or skipped"),
    ("files_sampled_out", "every selected chunk is pruned, loaded, a hit or skipped"),
    ("ChunksSampledOut", "chunks.selected = pruned + loaded + cache_hits + skipped"),
    ("sampling: Option<f64>", "every answer is exact; nothing scales a sample"),
    ("fn read_all_headers", "MseedAdapter::register scans headers in one pool batch"),
    ("fn decode_wave", "load_eager_plain decodes each wave in one pool batch"),
    ("db: &Database, max_threads", "SourceAdapter::register takes the system's SchedPolicy"),
    ("adapter.decode(", "every chunk load is fetch_bytes, then decode_bytes"),
    ("fn decode_text", "EventLogAdapter::decode_bytes parses the fetched text"),
    ("read_full_bytes_into", "chunk loads read through SourceAdapter::fetch_bytes"),
    ("BYTE_SCRATCH", "decode_bytes decodes the fetched bytes; no decode scratch"),
    ("TEXT_SCRATCH", "decode_bytes decodes the fetched bytes; no decode scratch"),
    ("with_byte_scratch", "decode_bytes decodes the fetched bytes; no decode scratch"),
    ("with_text_scratch", "decode_bytes decodes the fetched bytes; no decode scratch"),
    ("scratch_counters", "decode.arena_reuse and decode.arena_alloc are retired"),
    ("fn patch(", "metrics_snapshot() is the registry's snapshot"),
    ("MetricsSnapshot::patch", "metrics_snapshot() is the registry's snapshot"),
    ("fn update_f(", "each aggregate folds only its own state, with its function's kernel"),
    ("fn update_i(", "each aggregate folds only its own state, with its function's kernel"),
];

/// The only product sources that may start threads: `(path prefix,
/// what runs there)`. Everything else fans out through a
/// `SchedPolicy`.
const THREAD_OWNERS: &[(&str, &str)] = &[
    ("crates/engine/src/sched.rs", "the morsel pool"),
    ("crates/server/src/lib.rs", "the server's control pool"),
    ("crates/core/src/prefetch.rs", "the prefetch IO pool, until prefetch is deleted"),
    ("crates/mseed/src/repo.rs", "the fixture generator"),
    ("crates/bench/", "the paper-figure drivers, until the crate is deleted"),
];

/// `pub` fields per configuration struct: `(file, struct, count)`.
const CONFIG_FIELDS: &[(&str, &str, usize)] = &[
    ("crates/core/src/config.rs", "SommelierConfig", 12),
    ("crates/storage/src/buffer.rs", "BufferPoolConfig", 1),
    ("crates/core/src/fault.rs", "FaultPlan", 8),
    ("crates/core/src/cellar/mod.rs", "CellarConfig", 4),
    ("crates/engine/src/twostage.rs", "TwoStageConfig", 5),
    ("crates/engine/src/sched.rs", "SchedPolicy", 5),
];

/// Files that must stay deleted (relative to the workspace root).
const DELETED_FILES: &[&str] = &[
    "crates/engine/src/recycler.rs",
    "crates/bench/src/bin/server.rs",
    "crates/mseed/src/compat.rs",
    "BENCH_decode.json",
    "BENCH_stage2.json",
    "BENCH_prefetch.json",
    "BENCH_optimizer.json",
    "BENCH_obs.json",
    "crates/bench/src/bin/cellar.rs",
    "crates/bench/src/bin/stage2.rs",
    "crates/bench/src/bin/optimizer.rs",
    "crates/bench/src/bin/decode.rs",
    "crates/bench/src/bin/obs.rs",
    "crates/bench/src/bin/prefetch.rs",
    "crates/bench/benches/microbench.rs",
    "crates/bench/benches/ablations.rs",
    "crates/bench/benches/experiments.rs",
    "crates/shims/criterion/src/lib.rs",
    "crates/shims/parking_lot/src/lib.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `crates/*/src/**/*.rs` file in the workspace.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(workspace_root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

#[test]
fn deleted_symbols_stay_deleted() {
    let files = crate_sources();
    assert!(files.len() > 50, "scan found only {} source files", files.len());
    let mut hits = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        for (no, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for (needle, replacement) in FORBIDDEN {
                if line.contains(needle) {
                    hits.push(format!(
                        "{}:{}: `{needle}` was deleted ({replacement})",
                        file.display(),
                        no + 1
                    ));
                }
            }
        }
    }
    assert!(hits.is_empty(), "deleted code reappeared:\n{}", hits.join("\n"));
}

#[test]
fn deleted_files_stay_deleted() {
    let root = workspace_root();
    for file in DELETED_FILES {
        assert!(!root.join(file).exists(), "{file} is deleted and must not come back");
    }
}

/// The `pub` fields declared in the body of `pub struct <name> {` in
/// `text` (one per line, as rustfmt lays them out).
fn pub_fields(text: &str, name: &str) -> Vec<String> {
    let open = format!("pub struct {name} {{");
    let body = text
        .lines()
        .skip_while(|l| l.trim_start() != open)
        .skip(1)
        .take_while(|l| l.trim_end() != "}");
    body.filter_map(|l| {
        let field = l.trim_start().strip_prefix("pub ")?.split_once(':')?.0;
        field
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
            .then(|| field.to_string())
    })
    .collect()
}

#[test]
fn config_structs_keep_their_field_counts() {
    let root = workspace_root();
    for (file, name, want) in CONFIG_FIELDS {
        let text = fs::read_to_string(root.join(file)).unwrap();
        let fields = pub_fields(&text, name);
        assert_eq!(
            fields.len(),
            *want,
            "{name} ({file}) has {} pub fields, not {want}: {fields:?}. Adding or removing \
             a configuration field is a deliberate change: update CONFIG_FIELDS with it.",
            fields.len()
        );
    }
}

/// Lock poison is recovered in one place: `sync::unpoison`. Any other
/// line that maps a `PoisonError` back to its guard is a second policy.
#[test]
fn poison_is_recovered_in_one_function() {
    let policy =
        fs::read_to_string(workspace_root().join("crates/storage/src/sync.rs")).unwrap();
    assert!(policy.contains("pub fn unpoison<G>(r: LockResult<G>) -> G"), "unpoison moved");
    let mut hits = Vec::new();
    for file in crate_sources() {
        if file.ends_with("storage/src/sync.rs") {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        for (no, line) in text.lines().enumerate() {
            let recovers = line.contains("PoisonError")
                || (line.contains("unwrap_or_else(|") && line.contains(".into_inner()"));
            if recovers && !line.trim_start().starts_with("//") {
                hits.push(format!("{}:{}: {}", file.display(), no + 1, line.trim()));
            }
        }
    }
    assert!(hits.is_empty(), "recover poison through sync::unpoison:\n{}", hits.join("\n"));
}

/// The lines of `text` outside comments and `#[cfg(test)]` items (each
/// gated item is skipped to the line that closes its outermost brace,
/// or to its `;`), with their 0-based line numbers.
fn product_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((no, line)) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            let mut depth = 0usize;
            for (_, gated) in lines.by_ref() {
                depth += gated.matches('{').count();
                depth = depth.saturating_sub(gated.matches('}').count());
                let braced = gated.contains('{') || gated.contains('}');
                if depth == 0 && (braced || gated.trim_end().ends_with(';')) {
                    break;
                }
            }
            continue;
        }
        out.push((no, line));
    }
    out
}

/// Product code starts threads only in [`THREAD_OWNERS`]; every other
/// parallel loop is a `run_indexed_policy` batch on the morsel pool.
#[test]
fn only_the_pools_start_threads() {
    const NEEDLES: [&str; 3] = ["thread::scope", "thread::spawn", "thread::Builder"];
    let root = workspace_root();
    let (mut owned, mut hits) = (0, Vec::new());
    for file in crate_sources() {
        let rel = file.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        let text = fs::read_to_string(&file).unwrap();
        for (no, line) in product_lines(&text) {
            if !NEEDLES.iter().any(|n| line.contains(n)) {
                continue;
            }
            if THREAD_OWNERS.iter().any(|(owner, _)| rel.starts_with(owner)) {
                owned += 1;
            } else {
                hits.push(format!("{rel}:{}: {}", no + 1, line.trim()));
            }
        }
    }
    assert!(owned > 0, "the scan found not even the morsel pool's threads");
    assert!(
        hits.is_empty(),
        "start no threads here; fan out through the SchedPolicy you are given:\n{}",
        hits.join("\n")
    );
}
