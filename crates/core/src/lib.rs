//! # sommelier-core
//!
//! The **sommelier** system: a partial-loading-aware analytical DBMS —
//! a from-scratch Rust reproduction of *"The DBMS – your Big Data
//! Sommelier"* (Kargın, Kersten, Manegold, Pirk; ICDE 2015).
//!
//! Like the paper's sommelier, the system keeps the bottles (actual
//! data) in the cellar (the chunk-file repository) and the labels (the
//! metadata) in its head: registering a repository eagerly loads only
//! the given metadata; queries are executed in two stages so that the
//! metadata branch determines exactly which chunks to ingest; derived
//! metadata is an incrementally materialized view (Algorithm 1).
//!
//! The system is **format-agnostic**: chunk formats plug in through
//! the [`source::SourceAdapter`] API, and one system can serve several
//! sources at once — each with its own schemas, views, inference rules
//! and derived-metadata shape — under one shared cellar budget. The
//! seismology format of the paper lives in its own adapter crate; a
//! CSV event-log source ships in [`adapters`].
//!
//! ```no_run
//! use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
//! use sommelier_core::{LoadingMode, Sommelier};
//!
//! // Generate a tiny synthetic event-log repository ...
//! generate_event_logs("/tmp/somm-logs".as_ref(), &EventLogSpec::small(3, 512)).unwrap();
//! // ... register it into a system (metadata only) ...
//! let somm = Sommelier::builder()
//!     .source(EventLogAdapter::new("/tmp/somm-logs"))
//!     .build()
//!     .unwrap();
//! somm.prepare(LoadingMode::Lazy).unwrap();
//! // ... and query: stage 1 picks the chunks, stage 2 ingests just them.
//! let result = somm
//!     .query(
//!         "SELECT AVG(E.val) FROM eventview \
//!          WHERE G.host = 'web-1' \
//!          AND E.ts >= '2011-03-02T00:00:00.000' \
//!          AND E.ts <  '2011-03-03T00:00:00.000'",
//!     )
//!     .unwrap();
//! assert_eq!(result.stats.files_loaded, 1); // one day of one host → one chunk
//! ```

pub mod adapters;
pub mod admission;
pub mod cellar;
pub mod chunks;
pub mod config;
pub mod dmd;
pub mod error;
pub mod fault;
pub mod loader;
pub mod prefetch;
pub mod query;
pub mod registrar;
pub mod source;

pub use admission::{AdmissionController, AdmissionError, AdmissionTicket};
pub use config::SommelierConfig;
pub use error::{Result, SommelierError};
pub use fault::{FaultCounts, FaultInjector, FaultPlan, RetryPolicy};
pub use loader::{LoadingMode, PrepReport};
pub use query::QueryType;
pub use sommelier_engine::sched::{
    CancelToken, DegradationPolicy, MorselScheduler, Priority,
};
pub use sommelier_engine::twostage::SkippedChunk;
pub use sommelier_engine::{
    ErrorKind, Metric, MetricsRegistry, MetricsSnapshot, ObsLevel, SpanTrace,
};
pub use source::{
    DmdAgg, DmdDim, DmdSpec, InferenceRule, SourceAdapter, SourceDescriptor, UnitTableSpec,
};

use cellar::{Cellar, CellarConfig, CellarSource};
use chunks::{AdapterChunkSource, ChunkRegistry};
use dmd::{DmdManager, DmdOutcome};
use sommelier_engine::joinorder::PlanOptions;
use sommelier_engine::obs::span::fmt_ns;
use sommelier_engine::optimizer::{self, PassTrace};
use sommelier_engine::twostage::{execute_plan, ChunkResidency, TwoStageConfig};
use sommelier_engine::{
    ColumnZone, Edges, EngineError, ExecStats, LogicalPlan, Obs, QuerySpec, Relation,
    SchedPolicy, StageTimer, TraceCollector, ZoneCandidates,
};
use sommelier_sql::BindCatalog;
use sommelier_storage::buffer::BufferPoolConfig;
use sommelier_storage::catalog::Disposition;
use sommelier_storage::sync::unpoison;
use sommelier_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the file (inside a disk-backed system's directory) that
/// persists the prepared loading mode across restarts.
const MODE_FILE: &str = "sommelier.mode";

/// Name of the sidecar file that persists the registrar's per-chunk
/// zone maps across restarts (the metadata tables do not carry them).
const ZONES_FILE: &str = "sommelier.zones";

/// Prefix of the trailing checksum line [`write_sidecar_atomic`]
/// appends to every sidecar it writes.
const CHECKSUM_MARKER: &str = "#somm-checksum ";

/// Write a sidecar file atomically — tmp + rename, the catalog's
/// publish idiom — with a trailing FNV-1a checksum line so a torn or
/// bit-rotted file is detected on read and rebuilt instead of trusted.
fn write_sidecar_atomic(path: &Path, payload: &str) -> Result<()> {
    let body = format!("{payload}\n{CHECKSUM_MARKER}{:016x}\n", fnv1a(payload.as_bytes()));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, body)
        .map_err(|e| SommelierError::Usage(format!("writing sidecar {path:?}: {e}")))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SommelierError::Usage(format!("publishing sidecar {path:?}: {e}")))
}

/// Read a sidecar written by [`write_sidecar_atomic`], verifying its
/// checksum line. Returns `None` — treat the file as missing — when it
/// does not exist or the checksum mismatches. Files from versions
/// before checksumming lack the marker and are accepted as-is.
fn read_sidecar(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    match text.rsplit_once(&format!("\n{CHECKSUM_MARKER}")) {
        None => Some(text),
        Some((payload, sum)) => {
            let expect = u64::from_str_radix(sum.trim(), 16).ok()?;
            (fnv1a(payload.as_bytes()) == expect).then(|| payload.to_string())
        }
    }
}

/// FNV-1a, enough to catch torn writes and bit rot in small sidecars.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A query result: the relation plus everything the experiments report.
#[derive(Debug)]
pub struct QueryResult {
    pub relation: Relation,
    pub stats: ExecStats,
    pub qtype: QueryType,
    /// Algorithm-1 bookkeeping, when the query referred to DMd.
    pub dmd: Option<DmdOutcome>,
    /// The optimizer pass trace (the compile pass followed by the
    /// stage-2 rewrite passes): which rewrite rules fired.
    pub trace: Vec<PassTrace>,
    /// The query's span tree, when the system ran at
    /// [`sommelier_engine::ObsLevel::Spans`] (or the query came through
    /// [`Sommelier::explain_analyze`], which forces it).
    pub span_trace: Option<SpanTrace>,
    /// Present when the query ran under
    /// [`DegradationPolicy::SkipUnreadable`] and at least one chunk was
    /// skipped: the answer covers only the readable chunks.
    pub degraded: Option<DegradedReport>,
}

/// Partial-results report of a degraded query (see
/// [`QueryOptions::degradation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedReport {
    /// URIs of the chunks the query skipped.
    pub skipped_chunks: Vec<String>,
    /// Why each chunk was skipped, aligned with `skipped_chunks`.
    pub reasons: Vec<String>,
}

/// Per-query execution options for [`Sommelier::query_opts`] (the
/// multi-tenant session front end in `sommelier-server` feeds these).
/// `Default` reproduces [`Sommelier::query`] exactly.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Scheduling priority: position in the admission queue and of the
    /// query's morsel batches on the shared scheduler.
    pub priority: Priority,
    /// Cooperative cancellation handle. The engine checks it at chunk-
    /// pipeline boundaries, so cancellation is prompt and always leaves
    /// the cellar's pin accounting balanced.
    pub cancel: Option<CancelToken>,
    /// Deadline measured from submission; on expiry the query fails
    /// with a timed-out `Cancelled` error. Combines with `cancel` (the
    /// deadline is installed on the given token).
    pub timeout: Option<Duration>,
    /// What to do with chunks that cannot be read even after retries:
    /// fail the query (`Strict`, default) or complete over the
    /// readable rest and report the skips ([`QueryResult::degraded`]).
    pub degradation: DegradationPolicy,
}

/// One registered source, alive for the system's lifetime.
struct SourceRuntime {
    adapter: Arc<dyn SourceAdapter>,
    descriptor: Arc<SourceDescriptor>,
    dmd: Arc<DmdManager>,
}

struct Prepared {
    mode: LoadingMode,
    /// Per-source chunk registries, aligned with `Sommelier::sources`.
    registries: Vec<Arc<ChunkRegistry>>,
    cellar: Arc<Cellar>,
}

/// Where the builder puts the database.
enum StorageSpec {
    InMemory,
    Create(PathBuf),
    Open(PathBuf),
}

/// Builder for a [`Sommelier`] system: register one *or several*
/// [`SourceAdapter`]s, pick a configuration and a storage location,
/// then [`SommelierBuilder::build`].
///
/// ```no_run
/// use sommelier_core::adapters::EventLogAdapter;
/// use sommelier_core::{Sommelier, SommelierConfig};
///
/// let somm = Sommelier::builder()
///     .source(EventLogAdapter::new("/data/logs"))
///     .config(SommelierConfig::default())
///     .on_disk("/data/somm-db".as_ref())
///     .build()
///     .unwrap();
/// ```
pub struct SommelierBuilder {
    config: SommelierConfig,
    adapters: Vec<Arc<dyn SourceAdapter>>,
    storage: StorageSpec,
}

impl SommelierBuilder {
    /// Register a source (may be called several times; table and view
    /// names must not collide between sources).
    pub fn source(mut self, adapter: impl SourceAdapter + 'static) -> Self {
        self.adapters.push(Arc::new(adapter));
        self
    }

    /// Register an already-shared source.
    pub fn source_arc(mut self, adapter: Arc<dyn SourceAdapter>) -> Self {
        self.adapters.push(adapter);
        self
    }

    /// Set the system configuration (defaults to
    /// [`SommelierConfig::default`]).
    pub fn config(mut self, config: SommelierConfig) -> Self {
        self.config = config;
        self
    }

    /// Keep the database in memory (tests, examples). The default.
    pub fn in_memory(mut self) -> Self {
        self.storage = StorageSpec::InMemory;
        self
    }

    /// Create a fresh disk-backed database under `dir`.
    pub fn on_disk(mut self, dir: &Path) -> Self {
        self.storage = StorageSpec::Create(dir.to_path_buf());
        self
    }

    /// Re-open a previously prepared disk-backed database under `dir`.
    /// The chunk registries are rebuilt from the persisted metadata
    /// tables, the prepared loading mode is restored from the persisted
    /// mode file (systems written before mode persistence fall back to
    /// inferring it from the actual-data row counts), join indices are
    /// rebuilt when the restored mode needs them, and derived-metadata
    /// coverage is restored from the derived tables.
    pub fn open(mut self, dir: &Path) -> Self {
        self.storage = StorageSpec::Open(dir.to_path_buf());
        self
    }

    /// Assemble the system.
    pub fn build(self) -> Result<Sommelier> {
        if self.adapters.is_empty() {
            return Err(SommelierError::Usage(
                "register at least one source adapter before build()".into(),
            ));
        }
        let mut sources = Vec::with_capacity(self.adapters.len());
        for adapter in &self.adapters {
            let descriptor = Arc::new(adapter.descriptor().clone());
            descriptor.validate()?;
            if sources.iter().any(|s: &SourceRuntime| s.descriptor.name == descriptor.name) {
                return Err(SommelierError::Usage(format!(
                    "source name {:?} registered twice",
                    descriptor.name
                )));
            }
            sources.push(SourceRuntime {
                adapter: Arc::clone(adapter),
                // A source without derived metadata never covers a key;
                // its manager only answers `covered_count() == 0`.
                dmd: Arc::new(DmdManager::new(
                    descriptor.dmd.as_ref().map_or(1, |d| d.bucket_ms),
                )),
                descriptor,
            });
        }
        let catalog = source::assemble_catalog(
            &sources.iter().map(|s| s.descriptor.as_ref()).collect::<Vec<_>>(),
        )?;
        let pool = BufferPoolConfig { capacity_bytes: self.config.buffer_pool_bytes };
        let (db, db_dir, csv_dir, disposition, opened) = match &self.storage {
            StorageSpec::InMemory => {
                let csv = std::env::temp_dir().join(format!(
                    "sommelier-csv-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                (Database::in_memory(pool), None, csv, Disposition::Resident, false)
            }
            StorageSpec::Create(dir) => (
                Database::create(dir, pool)?,
                Some(dir.clone()),
                dir.join("csv_cache"),
                Disposition::Persistent,
                false,
            ),
            StorageSpec::Open(dir) => (
                Database::open(dir, pool)?,
                Some(dir.clone()),
                dir.join("csv_cache"),
                Disposition::Persistent,
                true,
            ),
        };
        // Every subsystem counts into this one registry.
        let metrics = Arc::new(MetricsRegistry::new());
        let scheduler = if self.config.max_threads > 1 {
            Some(Arc::new(MorselScheduler::with_aging(
                self.config.max_threads,
                std::time::Duration::from_millis(self.config.sched_aging_ms),
                Arc::clone(&metrics),
            )))
        } else {
            None
        };
        let admission = AdmissionController::new(
            self.config.admission_max_concurrent,
            self.config.admission_queue_limit,
            Arc::clone(&metrics),
        );
        let fault_injector =
            self.config.fault_plan.clone().map(|plan| Arc::new(FaultInjector::new(plan)));
        // One prefetch stage (and one IO-thread pool) per system: the
        // server's sessions all share it, so concurrent queries compete
        // for the same bounded read bandwidth instead of spawning
        // per-session pools.
        let prefetch = (self.config.prefetch_depth > 0).then(|| {
            Arc::new(prefetch::PrefetchStage::new(
                self.config.prefetch_io_threads(),
                self.config.prefetch_depth,
                self.config.io_retry,
                Arc::clone(&metrics),
            ))
        });
        let somm = Sommelier {
            db: Arc::new(db),
            config: self.config,
            catalog,
            sources,
            prepared: Mutex::new(None),
            csv_dir,
            db_dir,
            metrics,
            scheduler,
            admission,
            fault_injector,
            prefetch,
            latency_ewma_ns: AtomicU64::new(0),
        };
        if opened {
            somm.restore_on_open()?;
        } else {
            for s in &somm.sources {
                for schema in &s.descriptor.schemas {
                    somm.db.create_table(schema.clone(), disposition)?;
                }
            }
        }
        Ok(somm)
    }
}

/// The system façade.
///
/// Thread-safe: [`Sommelier::query`] may be called from any number of
/// threads concurrently — the cellar pins each query's chunk set for
/// the duration of stage 2 and deduplicates concurrent loads of the
/// same chunk (single-flight).
pub struct Sommelier {
    db: Arc<Database>,
    config: SommelierConfig,
    catalog: BindCatalog,
    sources: Vec<SourceRuntime>,
    prepared: Mutex<Option<Prepared>>,
    csv_dir: PathBuf,
    db_dir: Option<PathBuf>,
    /// The system's metrics registry (per instance, not process-global,
    /// so concurrent systems — and concurrent tests — never share
    /// counters): the one store every subsystem counts into; read by
    /// [`Sommelier::metrics_snapshot`].
    metrics: Arc<MetricsRegistry>,
    /// The shared morsel scheduler: one persistent pool of
    /// `max_threads` workers serving `prepare` and every in-flight
    /// query. `None` when `max_threads <= 1`: every batch then runs
    /// inline on the calling thread.
    scheduler: Option<Arc<MorselScheduler>>,
    /// Admission control for top-level queries (internal DMd
    /// derivation runs under the parent's ticket and skips this —
    /// otherwise a queued parent waiting on its own child would
    /// deadlock).
    admission: AdmissionController,
    /// Deterministic fault injector, threaded into every chunk source
    /// the cellar builds. `None` (the default) means the decode path
    /// is exactly the fault-free hot path.
    fault_injector: Option<Arc<FaultInjector>>,
    /// The raw-byte prefetch stage: a small dedicated IO-thread pool
    /// plus the staging area where fetched-but-not-yet-decoded bytes
    /// wait for their decode worker. One per system, shared by every
    /// session (see [`SommelierConfig::prefetch_depth`]). `None` when
    /// `prefetch_depth == 0` — the decode path is then byte-for-byte
    /// the classic fused fetch+decode.
    prefetch: Option<Arc<prefetch::PrefetchStage>>,
    /// EWMA of successful top-level query latency (α = 1/8), in
    /// nanoseconds. Feeds the `retry_after_ms` backpressure hint on
    /// [`SommelierError::Overloaded`]: clients are told to come back
    /// after roughly (queued ahead / concurrency) × observed latency.
    latency_ewma_ns: AtomicU64,
}

/// A statement compiled once: routed to its source, classified, with
/// the source's inference rules applied, and decomposed into the
/// logical plan `Q = Qf ▷ Qs`. One pipeline ([`Sommelier::plan`])
/// builds it for [`Sommelier::query`], [`Sommelier::query_opts`],
/// [`Sommelier::query_spec`], [`Sommelier::explain`],
/// [`Sommelier::explain_analyze`] and Algorithm 1's derivation queries,
/// and [`Sommelier::run`] executes it.
struct QueryPlan {
    mode: LoadingMode,
    source_idx: usize,
    qtype: QueryType,
    spec: QuerySpec,
    logical: LogicalPlan,
    /// The compile pass trace (`join_order`).
    compile_trace: Vec<PassTrace>,
    /// Clock edges of routing, classification and inference, and of
    /// the compile pass: a traced run records them as its `inference`
    /// and `compile` spans, and its root span starts at the first.
    inference: Edges,
    compile: Edges,
}

/// Whether [`Sommelier::run`] runs a top-level query or a derivation
/// child of one.
enum RunCtx<'a> {
    /// A top-level query: it takes an admission ticket and a root span
    /// (recorded at `level`), and its options set its priority,
    /// cancellation, deadline and degradation.
    Query { opts: &'a QueryOptions, level: ObsLevel },
    /// Algorithm 1's derivation child of a running query. It runs under
    /// its parent's ticket — queueing it would deadlock the parent on
    /// its own child — with the parent's cancel token (and so its
    /// deadline) and priority, and always
    /// `Strict`: a partial derivation must never mark a window
    /// covered. It records no spans: nothing reads a collector of its
    /// own, and its spans belong under its parent's `dmd_ensure`.
    Derivation { parent: &'a SchedPolicy },
}

impl Sommelier {
    /// Start building a system.
    pub fn builder() -> SommelierBuilder {
        SommelierBuilder {
            config: SommelierConfig::default(),
            adapters: Vec::new(),
            storage: StorageSpec::InMemory,
        }
    }

    /// Restore registries, loading mode, indices and DMd coverage of a
    /// re-opened database.
    fn restore_on_open(&self) -> Result<()> {
        let mut registries = Vec::with_capacity(self.sources.len());
        let zones = self.read_zone_sidecar();
        for s in &self.sources {
            let mut entries = source::restore_registry(&self.db, &s.descriptor)?;
            for e in &mut entries {
                if let Some(z) = zones.get(&e.uri) {
                    e.zones = z.clone();
                }
            }
            registries.push(Arc::new(ChunkRegistry::new(entries)));
        }
        let mode = match self.read_persisted_mode() {
            Some(mode) => mode,
            // Databases written before mode persistence: infer from
            // whether any actual data was materialized.
            None => {
                let mut any_ad = false;
                for s in &self.sources {
                    any_ad |= self.db.table_rows(&s.descriptor.ad_table)? > 0;
                }
                if any_ad {
                    LoadingMode::EagerPlain
                } else {
                    LoadingMode::Lazy
                }
            }
        };
        if mode.builds_indices() {
            // Join indices are not persisted; rebuild them so the
            // restored mode keeps its index-join plans.
            let mut scratch = PrepReport::default();
            for s in &self.sources {
                loader::build_indices(&self.db, &s.descriptor, &mut scratch)?;
            }
        }
        // Rows already materialized in the derived tables are usable
        // again: mark their keys covered so Algorithm 1 does not
        // re-derive them. The given metadata was just re-read, so the
        // cached key-space domain is too.
        for s in &self.sources {
            s.dmd.reset_domain();
            if let Some(dmd_spec) = &s.descriptor.dmd {
                dmd::restore_coverage(&self.db, &s.dmd, dmd_spec)?;
            }
        }
        let cellar = self.build_cellar(&registries)?;
        *unpoison(self.prepared.lock()) = Some(Prepared { mode, registries, cellar });
        Ok(())
    }

    /// Persist every registry's zone maps to the sidecar (disk-backed
    /// systems only). One line per (chunk, column):
    /// `uri \t column \t type \t min \t max` — chunk URIs containing
    /// tabs are not supported.
    fn persist_zone_maps(&self, registries: &[Arc<ChunkRegistry>]) -> Result<()> {
        use sommelier_storage::Value;
        let Some(dir) = &self.db_dir else { return Ok(()) };
        let mut out = String::new();
        for registry in registries {
            for e in registry.entries() {
                for z in &e.zones {
                    let (tag, min, max) = match (&z.min, &z.max) {
                        (Value::Int(a), Value::Int(b)) => ('i', a.to_string(), b.to_string()),
                        (Value::Time(a), Value::Time(b)) => {
                            ('t', a.to_string(), b.to_string())
                        }
                        (Value::Float(a), Value::Float(b)) => {
                            ('f', a.to_string(), b.to_string())
                        }
                        // Text or mixed-type zones are not persisted
                        // (none of the built-in adapters produce them).
                        _ => continue,
                    };
                    out.push_str(&format!("{}\t{}\t{tag}\t{min}\t{max}\n", e.uri, z.column));
                }
            }
        }
        write_sidecar_atomic(&dir.join(ZONES_FILE), &out)
    }

    /// Read the zone-map sidecar back, keyed by chunk URI. Missing or
    /// malformed files simply disable pruning (correct, just slower).
    fn read_zone_sidecar(&self) -> std::collections::HashMap<String, Vec<ColumnZone>> {
        use sommelier_storage::Value;
        let mut map: std::collections::HashMap<String, Vec<ColumnZone>> = Default::default();
        let Some(dir) = &self.db_dir else { return map };
        let Some(text) = read_sidecar(&dir.join(ZONES_FILE)) else { return map };
        for line in text.lines() {
            let parts: Vec<&str> = line.split('\t').collect();
            let [uri, column, tag, min, max] = parts.as_slice() else { continue };
            let parse = |s: &str| -> Option<Value> {
                Some(match *tag {
                    "i" => Value::Int(s.parse().ok()?),
                    "t" => Value::Time(s.parse().ok()?),
                    "f" => Value::Float(s.parse().ok()?),
                    _ => return None,
                })
            };
            let (Some(min), Some(max)) = (parse(min), parse(max)) else { continue };
            map.entry(uri.to_string()).or_default().push(ColumnZone {
                column: column.to_string(),
                min,
                max,
            });
        }
        map
    }

    fn read_persisted_mode(&self) -> Option<LoadingMode> {
        let dir = self.db_dir.as_ref()?;
        let text = read_sidecar(&dir.join(MODE_FILE))?;
        LoadingMode::from_label(text.trim())
    }

    fn persist_mode(&self, mode: LoadingMode) -> Result<()> {
        if let Some(dir) = &self.db_dir {
            write_sidecar_atomic(&dir.join(MODE_FILE), mode.label())?;
        }
        Ok(())
    }

    /// Prepare the system with one of the five loading approaches
    /// (§VI-A), returning the phase-timed report (Figure 6's bars).
    /// Every registered source goes through the same mode; phases
    /// accumulate across sources. Header scans and eager decoding run
    /// as batches on the system's morsel pool, the one queries use.
    ///
    /// A system is prepared once (a re-opened database arrives
    /// prepared): a second call is a [`SommelierError::Usage`] error
    /// that touches nothing. Another mode needs a fresh system.
    pub fn prepare(&self, mode: LoadingMode) -> Result<PrepReport> {
        if let Some(p) = unpoison(self.prepared.lock()).as_ref() {
            let msg =
                format!("already prepared {}; another mode needs a fresh system", p.mode);
            return Err(SommelierError::Usage(msg));
        }
        let mut report = PrepReport::default();
        let mut registries = Vec::with_capacity(self.sources.len());
        let policy = self.pool_policy();
        for s in &self.sources {
            let (registry, reg) = registrar::register(&self.db, s.adapter.as_ref(), &policy)?;
            report.register += reg.duration;
            report.registrar.files += reg.files;
            report.registrar.segments += reg.segments;
            report.registrar.duration += reg.duration;
            registries.push(Arc::new(registry));
            // Registration (re)wrote the given metadata the DMd key
            // space is drawn from.
            s.dmd.reset_domain();
        }
        let obs = self.obs();
        obs.count(Metric::RegistrarChunksRegistered, report.registrar.files);
        obs.count(Metric::RegistrarSegments, report.registrar.segments);
        let zones_indexed = registries
            .iter()
            .flat_map(|r| r.entries())
            .filter(|e| !e.zones.is_empty())
            .count();
        obs.count(Metric::RegistrarZonesIndexed, zones_indexed as u64);
        for (s, registry) in self.sources.iter().zip(&registries) {
            match mode {
                LoadingMode::Lazy => {}
                LoadingMode::EagerCsv => {
                    loader::load_eager_csv(
                        &self.db,
                        s.adapter.as_ref(),
                        registry,
                        &self.csv_dir,
                        &policy,
                        &mut report,
                    )?;
                }
                LoadingMode::EagerPlain | LoadingMode::EagerIndex | LoadingMode::EagerDmd => {
                    loader::load_eager_plain(
                        &self.db,
                        s.adapter.as_ref(),
                        registry,
                        &policy,
                        &mut report,
                    )?;
                }
            }
            if mode.builds_indices() {
                loader::build_indices(&self.db, &s.descriptor, &mut report)?;
            }
        }
        let cellar = self.build_cellar(&registries)?;
        self.persist_zone_maps(&registries)?;
        *unpoison(self.prepared.lock()) = Some(Prepared { mode, registries, cellar });
        if mode.materializes_dmd() {
            let t = Instant::now();
            for s in &self.sources {
                if s.descriptor.dmd.is_some() {
                    let parent = SchedPolicy::default();
                    dmd::derive_all(&self.db, &s.dmd, &s.descriptor, &|spec| {
                        self.run(self.plan(spec)?, RunCtx::Derivation { parent: &parent })
                    })?;
                }
            }
            report.dmd_derivation = t.elapsed();
        }
        self.persist_mode(mode)?;
        Ok(report)
    }

    /// The system's observability handle (no tracer attached —
    /// per-query tracers are created by the run path).
    fn obs(&self) -> Obs {
        Obs::new(Arc::clone(&self.metrics))
    }

    /// Assemble the cellar for freshly built registries.
    fn build_cellar(&self, registries: &[Arc<ChunkRegistry>]) -> Result<Arc<Cellar>> {
        let obs = self.obs();
        let bindings = self
            .sources
            .iter()
            .zip(registries)
            .map(|(s, registry)| {
                let source = Arc::new(
                    AdapterChunkSource::new(
                        Arc::clone(&s.adapter),
                        Arc::clone(registry),
                        Arc::clone(&self.db),
                        self.config.verify_lazy_fk,
                    )
                    .with_obs(&obs)
                    .with_faults(self.fault_injector.clone())
                    .with_prefetch(self.prefetch.clone()),
                );
                CellarSource {
                    descriptor: Arc::clone(&s.descriptor),
                    registry: Arc::clone(registry),
                    source,
                }
            })
            .collect();
        let cellar = Arc::new(Cellar::new(
            bindings,
            CellarConfig {
                budget_bytes: self.config.effective_cellar_bytes(),
                obs,
                retry: self.config.io_retry,
                prefetch: self.prefetch.clone(),
            },
        )?);
        if let Some(stage) = &self.prefetch {
            // Staged prefetch bytes count against the cellar budget:
            // the stage probes residency before issuing each read, so
            // a near-full (or tiny) cellar degrades prefetch toward
            // depth 0 instead of busting the budget. Weak: the cellar
            // holds the stage, so a strong probe would be a cycle.
            let weak = Arc::downgrade(&cellar);
            stage.bind_budget_probe(move || {
                weak.upgrade()
                    .map(|c| (c.resident_bytes(), c.budget_bytes()))
                    .unwrap_or((0, usize::MAX))
            });
        }
        Ok(cellar)
    }

    fn prepared_info(&self) -> Result<(LoadingMode, Arc<Cellar>)> {
        let guard = unpoison(self.prepared.lock());
        let p = guard.as_ref().ok_or_else(|| {
            SommelierError::Usage("call prepare(mode) before querying".into())
        })?;
        Ok((p.mode, Arc::clone(&p.cellar)))
    }

    /// Which registered source owns every table `spec` references.
    fn resolve_source(&self, spec: &QuerySpec) -> Result<usize> {
        let Some(first) = spec.tables.first() else {
            return Err(SommelierError::Usage("query references no tables".into()));
        };
        let idx = self
            .sources
            .iter()
            .position(|s| s.descriptor.owns_table(&first.name))
            .ok_or_else(|| {
                SommelierError::Usage(format!(
                    "no registered source owns table {:?}",
                    first.name
                ))
            })?;
        for t in &spec.tables {
            if !self.sources[idx].descriptor.owns_table(&t.name) {
                return Err(SommelierError::Usage(format!(
                    "query spans sources: table {:?} is not owned by source {:?}",
                    t.name, self.sources[idx].descriptor.name
                )));
            }
        }
        Ok(idx)
    }

    /// The single compile pipeline: route to a source, classify, apply
    /// the source's metadata-inference rules, and compile the logical
    /// plan.
    fn plan(&self, mut spec: QuerySpec) -> Result<QueryPlan> {
        let start = Instant::now();
        let (mode, _) = self.prepared_info()?;
        let source_idx = self.resolve_source(&spec)?;
        let qtype = query::classify(&spec);
        let descriptor = &self.sources[source_idx].descriptor;
        query::apply_inference_rules(&mut spec, &descriptor.inference_rules);
        // Literals carried across join edges narrow the scans only:
        // Algorithm 1 bounds the derived key space by the query's own
        // predicates, so they leave the spec once the plan is compiled.
        let own = spec.predicates.len();
        query::transfer_join_literals(&mut spec, &|qualified| {
            let (table, column) = qualified.split_once('.')?;
            descriptor.schema(table)?.col_type(column).ok()
        });
        let inference = Edges::since(start);
        let opts = self.plan_options(mode, source_idx);
        let (logical, compile_trace) = optimizer::compile_plan(&spec, &opts)?;
        spec.predicates.truncate(own);
        let compile = Edges::since(inference.end);
        Ok(QueryPlan {
            mode,
            source_idx,
            qtype,
            spec,
            logical,
            compile_trace,
            inference,
            compile,
        })
    }

    /// The plan's header and logical plan, as EXPLAIN and EXPLAIN
    /// ANALYZE both open.
    fn plan_header(&self, plan: &QueryPlan) -> String {
        format!(
            "-- source: {}, mode: {}, query type: {}\n{}",
            self.sources[plan.source_idx].descriptor.name,
            plan.mode,
            plan.qtype.label(),
            plan.logical
        )
    }

    fn plan_options(&self, mode: LoadingMode, source_idx: usize) -> PlanOptions {
        if mode == LoadingMode::Lazy {
            let cols = self.sources[source_idx].descriptor.lazy_qf_columns();
            PlanOptions::lazy(&cols.iter().map(String::as_str).collect::<Vec<_>>())
        } else {
            PlanOptions::eager()
        }
    }

    fn two_stage_config(&self, mode: LoadingMode, source_idx: usize) -> TwoStageConfig {
        TwoStageConfig {
            zone_map_pruning: self.config.zone_map_pruning,
            use_index_joins: mode.builds_indices(),
            uri_column: self.sources[source_idx].descriptor.uri_column(),
            obs: Obs::off(),
            sched: self.pool_policy(),
        }
    }

    /// Batches on the system's morsel pool (inline when it has none),
    /// at default priority: setup and queries run on the same workers.
    fn pool_policy(&self) -> SchedPolicy {
        SchedPolicy::default().with_scheduler(self.scheduler.clone())
    }

    /// Execute a plan as `ctx` says (see [`RunCtx`]). A top-level query
    /// runs Algorithm 1 first when it refers to derived metadata; its
    /// derivation queries run as children of it.
    fn run(&self, plan: QueryPlan, ctx: RunCtx<'_>) -> Result<QueryResult> {
        let (_, cellar) = self.prepared_info()?;
        let mut ts_config = self.two_stage_config(plan.mode, plan.source_idx);
        let sched = &mut ts_config.sched;
        // `top` holds a top-level query's options; a derivation child
        // has none.
        let (level, top) = match ctx {
            RunCtx::Query { opts, level } => {
                sched.priority = opts.priority;
                sched.degradation = opts.degradation;
                // One token serves both explicit cancellation and the
                // timeout.
                sched.cancel = match (&opts.cancel, opts.timeout) {
                    (Some(c), Some(t)) => {
                        c.set_deadline(Instant::now() + t);
                        Some(c.clone())
                    }
                    (Some(c), None) => Some(c.clone()),
                    (None, Some(t)) => Some(CancelToken::with_timeout(t)),
                    (None, None) => None,
                };
                (level, Some(opts))
            }
            RunCtx::Derivation { parent } => {
                sched.priority = parent.priority;
                sched.cancel = parent.cancel.clone();
                sched.degradation = DegradationPolicy::Strict;
                (ObsLevel::Counters, None)
            }
        };
        let tracer =
            level.spans().then(|| Arc::new(TraceCollector::new(plan.inference.start)));
        let tc = tracer.as_deref();
        let root = StageTimer::ambient(tc, "query", plan.inference.start);
        // Admission control: top-level queries take a ticket; chunk
        // memory is bounded by the cellar budget alone, not here.
        let _ticket = match top {
            Some(opts) => {
                let wait = StageTimer::start(tc, "queue_wait");
                let ticket = match self
                    .admission
                    .acquire(opts.priority, ts_config.sched.cancel.as_ref())
                {
                    Ok(t) => t,
                    Err(AdmissionError::QueueFull { limit }) => {
                        let retry_after_ms = self.overload_retry_after_ms();
                        self.metrics.set(Metric::AdmissionRetryAfterMs, retry_after_ms);
                        return Err(SommelierError::Overloaded {
                            message: format!("admission queue is full ({limit} queued)"),
                            retry_after_ms,
                        });
                    }
                    Err(AdmissionError::Cancelled { timed_out }) => {
                        return Err(EngineError::Cancelled { timed_out }.into())
                    }
                    Err(AdmissionError::ShuttingDown) => {
                        return Err(SommelierError::ShuttingDown)
                    }
                };
                wait.stop(|| format!("admitted ({:?} priority)", opts.priority), None, None);
                Some(ticket)
            }
            None => None,
        };
        if let Some(tc) = tc {
            let detail = format!("classified {}", plan.qtype.label());
            tc.record_stage(tc.ambient(), "inference", detail, plan.inference, None, None);
        }
        let source = &self.sources[plan.source_idx];
        let dmd_outcome = if top.is_some()
            && plan.qtype.refers_dmd()
            && !plan.mode.materializes_dmd()
            && source.descriptor.dmd.is_some()
        {
            let ensure = StageTimer::start(tc, "dmd_ensure");
            let parent = &ts_config.sched;
            let dmd = dmd::ensure_dmd(
                &self.db,
                &source.dmd,
                &source.descriptor,
                &plan.spec,
                &|s| self.run(self.plan(s)?, RunCtx::Derivation { parent }),
            )?;
            let detail = || {
                format!(
                    "{} of {} windows derived, {} rows",
                    dmd.missing, dmd.requested, dmd.rows_inserted
                )
            };
            ensure.stop(detail, Some(dmd.rows_inserted), None);
            Some(dmd)
        } else {
            None
        };
        if let Some(tc) = tc {
            // The ambient span is still the query root.
            optimizer::record_pass_spans(tc, "compile", plan.compile, &plan.compile_trace);
        }
        ts_config.sched.tracer = tracer.clone();
        ts_config.obs = self.obs().with_tracer(tracer.clone());
        let scoped = cellar.scoped(plan.source_idx);
        let access =
            (plan.mode == LoadingMode::Lazy).then_some(&scoped as &dyn ChunkResidency);
        let evictions_before = self.metrics.get(Metric::CellarEvictions);
        let outcome = execute_plan(&self.db, &plan.logical, access, &ts_config)?;
        let mut trace = plan.compile_trace;
        trace.extend(outcome.trace);
        let mut stats = outcome.stats;
        // Fold the residency manager's eviction activity into the
        // query's stats (best-effort under concurrency: evictions
        // triggered by overlapping queries land in whichever window
        // observes them).
        stats.cellar_evictions =
            self.metrics.get(Metric::CellarEvictions).saturating_sub(evictions_before);
        let rows = outcome.relation.rows();
        let elapsed = root.stop(|| format!("{rows} rows"), Some(rows as u64), None).dur();
        let degraded = if outcome.skipped.is_empty() {
            None
        } else {
            self.metrics.add(Metric::FaultQueriesDegraded, 1);
            Some(DegradedReport {
                skipped_chunks: outcome.skipped.iter().map(|s| s.uri.clone()).collect(),
                reasons: outcome.skipped.iter().map(|s| s.reason.clone()).collect(),
            })
        };
        if top.is_some() {
            self.note_query_latency(elapsed);
        }
        Ok(QueryResult {
            relation: outcome.relation,
            stats,
            qtype: plan.qtype,
            dmd: dmd_outcome,
            trace,
            span_trace: tracer.map(|tc| tc.finish()),
            degraded,
        })
    }

    /// Fold one successful top-level query latency into the EWMA
    /// (α = 1/8) that backs the overload retry-after hint.
    fn note_query_latency(&self, elapsed: std::time::Duration) {
        let sample = elapsed.as_nanos() as u64;
        let _ =
            self.latency_ewma_ns.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 { sample } else { cur - cur / 8 + sample / 8 })
            });
    }

    /// The backpressure hint attached to [`SommelierError::Overloaded`]:
    /// roughly how long until a queue slot frees up, computed as
    /// (queued ahead / concurrency + 1) × observed query latency,
    /// clamped to [10ms, 10s] so the hint is always actionable even
    /// before any latency samples exist.
    fn overload_retry_after_ms(&self) -> u64 {
        let queued = self.metrics.get(Metric::AdmissionQueueDepth);
        let ewma_ms = (self.latency_ewma_ns.load(Ordering::Relaxed) / 1_000_000).max(1);
        let rounds = queued / self.config.admission_max_concurrent.max(1) as u64 + 1;
        (rounds * ewma_ms).clamp(10, 10_000)
    }

    /// Compile and run a SQL query.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_opts(sql, &QueryOptions::default())
    }

    /// Compile and run a SQL query with per-query [`QueryOptions`]:
    /// priority, cancellation, timeout, degradation. This is the entry
    /// point the `sommelier-server` session API builds on.
    ///
    /// Panic isolated like every query entry point: a panic anywhere in
    /// the pipeline fails this query alone with
    /// [`SommelierError::QueryPanicked`].
    pub fn query_opts(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        self.guarded(sql, || {
            let plan = self.plan(sommelier_sql::compile(sql, &self.catalog)?)?;
            self.run(plan, RunCtx::Query { opts, level: self.config.observability })
        })
    }

    /// The panic isolation backstop of every query entry point
    /// ([`Self::query_opts`], [`Self::query_spec`],
    /// [`Self::explain_analyze`]): morsel panics are normally caught at
    /// the retry/scheduler seams and arrive here as typed errors, but
    /// a panic anywhere else in the query pipeline (binder, optimizer,
    /// operator code outside a batch) is caught too — either way the
    /// caller sees [`SommelierError::QueryPanicked`] naming `query`,
    /// `query.panicked` counts it, and the process (and every other
    /// in-flight query) lives on.
    fn guarded<T>(&self, query: &str, run: impl FnOnce() -> Result<T>) -> Result<T> {
        let payload = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Err(SommelierError::Engine(sommelier_engine::EngineError::Panicked {
                payload,
            }))) => payload,
            Ok(other) => return other,
            Err(p) => sommelier_engine::sched::panic_message(p.as_ref()),
        };
        self.metrics.add(Metric::QueryPanicked, 1);
        Err(SommelierError::QueryPanicked { query: query.to_string(), payload })
    }

    /// Flip admission into drain mode: every not-yet-admitted query —
    /// including waiters already queued — fails with
    /// [`SommelierError::ShuttingDown`] from now on, while
    /// already-running queries drain normally. Irreversible; the
    /// server layer builds its deadline-bounded
    /// `Server::shutdown` on top of this.
    pub fn begin_shutdown(&self) {
        self.admission.begin_shutdown();
    }

    /// The shared morsel scheduler, when the system runs one (whenever
    /// [`SommelierConfig::max_threads`] is above 1).
    pub fn scheduler(&self) -> Option<&Arc<MorselScheduler>> {
        self.scheduler.as_ref()
    }

    /// Run an already-bound spec (programmatic clients, benches).
    /// Panic isolated like [`Self::query_opts`].
    pub fn query_spec(&self, spec: QuerySpec) -> Result<QueryResult> {
        self.guarded("query spec", || {
            let opts = &QueryOptions::default();
            self.run(
                self.plan(spec)?,
                RunCtx::Query { opts, level: self.config.observability },
            )
        })
    }

    /// The plan a query would run, as text (EXPLAIN): the logical plan,
    /// the stage-2 physical shape — which shows whether
    /// partial-aggregation fusion (`PartialAggUnion`) fires — and the
    /// optimizer pass trace. Uses the same passes and configuration as
    /// execution; only the chunk list (a run-time quantity) is a
    /// placeholder, so run-time-only effects (chunks pruned by zone
    /// maps) show as the pass being armed.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let plan = self.plan(sommelier_sql::compile(sql, &self.catalog)?)?;
        let logical = &plan.logical;
        let s2 = optimizer::rewrite_stage2(
            logical,
            &self.db,
            logical.has_lazy_scan().then(Vec::new),
            None,
            None,
            logical.qf().map(|_| 0),
            &self.two_stage_config(plan.mode, plan.source_idx),
        )?;
        // Stage-2 trace, annotated: the zone-index candidate count is a
        // stage-1 quantity the registry can answer statically, so
        // EXPLAIN shows it next to the pruning pass it feeds.
        let zone_note = self.zone_candidate_note(logical, plan.source_idx);
        let mut s2_lines = String::new();
        for p in &s2.trace {
            s2_lines.push_str("  ");
            s2_lines.push_str(&p.to_string());
            if p.name == "zone_map_pruning" {
                if let Some(note) = &zone_note {
                    s2_lines.push_str(" [");
                    s2_lines.push_str(note);
                    s2_lines.push(']');
                }
            }
            s2_lines.push('\n');
        }
        Ok(format!(
            "{}-- stage-2 physical shape (chunk list resolved at run time)\n{}\
             -- optimizer passes\n{}{}",
            self.plan_header(&plan),
            s2.physical,
            optimizer::format_trace(&plan.compile_trace),
            s2_lines,
        ))
    }

    /// What the zone interval index answers for `plan`'s pushed-down
    /// predicate: how many registered chunks remain candidates.
    fn zone_candidate_note(&self, plan: &LogicalPlan, source_idx: usize) -> Option<String> {
        let constraints =
            optimizer::plan_zone_constraints(plan).into_iter().find(|c| !c.is_empty())?;
        let registry = {
            let guard = unpoison(self.prepared.lock());
            Arc::clone(&guard.as_ref()?.registries[source_idx])
        };
        let total = registry.len();
        let k = match registry.zone_candidates(&constraints)? {
            ZoneCandidates::All => total,
            ZoneCandidates::Uris(uris) => uris.len(),
        };
        Some(format!("zone index: {k} of {total} chunks candidate"))
    }

    /// EXPLAIN ANALYZE: compile the query once, run that plan with span
    /// tracing forced on (whatever [`SommelierConfig::observability`]
    /// says) and render it next to the measured span tree, the
    /// per-pass optimizer timings, and the stage/chunk accounting.
    /// Panic isolated like [`Self::query_opts`].
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        self.guarded(sql, || {
            let plan = self.plan(sommelier_sql::compile(sql, &self.catalog)?)?;
            let mut out = self.plan_header(&plan);
            let opts = &QueryOptions::default();
            let result = self.run(plan, RunCtx::Query { opts, level: ObsLevel::Spans })?;
            let stats = &result.stats;
            out.push_str("-- spans\n");
            out.push_str(
                &result.span_trace.as_ref().map(|t| t.render_tree()).unwrap_or_default(),
            );
            out.push_str("-- optimizer passes\n");
            for p in &result.trace {
                out.push_str(&format!("  {p} [{}]\n", fmt_ns(p.nanos)));
            }
            out.push_str(&format!(
                "-- stages: stage1 {} + load {} + stage2 {} = {}\n",
                fmt_ns(stats.stage1.as_nanos() as u64),
                fmt_ns(stats.load.as_nanos() as u64),
                fmt_ns(stats.stage2.as_nanos() as u64),
                fmt_ns(stats.total().as_nanos() as u64),
            ));
            out.push_str(&format!(
                "-- chunks: {} selected = {} pruned + {} loaded + {} cache hits + {} \
                 skipped; {} rows out\n",
                stats.files_selected,
                stats.files_pruned,
                stats.files_loaded,
                stats.cache_hits,
                stats.files_skipped,
                result.relation.rows(),
            ));
            if let Some(d) = &result.degraded {
                out.push_str(&format!(
                    "-- DEGRADED: skipped {} unreadable chunk(s): {}\n",
                    d.skipped_chunks.len(),
                    d.skipped_chunks.join(", "),
                ));
            }
            Ok(out)
        })
    }

    /// The instance's metrics registry (one per [`Sommelier`], so
    /// concurrent instances do not share counters): every metric's live
    /// value, and the store the server's session gauge counts into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot every metric by name. A pure read: every subsystem
    /// counts into [`Self::metrics`] in place, so this is the registry's
    /// snapshot plus three values kept outside it — the process-wide
    /// `decode.arena_reuse`/`decode.arena_alloc` (thread-local scratch
    /// arenas shared by every system) and `fault.faults_injected`, read
    /// from the injector's [`FaultCounts`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let (reuse, alloc) = source::scratch_counters();
        snap.patch(Metric::DecodeArenaReuse, reuse);
        snap.patch(Metric::DecodeArenaAlloc, alloc);
        let injected = self.fault_injector.as_ref().map_or(0, |f| f.injected().errors());
        snap.patch(Metric::FaultFaultsInjected, injected);
        snap
    }

    /// The raw-byte prefetch stage, when enabled (`prefetch_depth > 0`).
    pub fn prefetch_stage(&self) -> Option<&Arc<prefetch::PrefetchStage>> {
        self.prefetch.as_ref()
    }

    /// Drop buffered pages and cached chunks ("cold" run).
    pub fn flush_caches(&self) {
        self.db.flush_caches();
        if let Some(p) = unpoison(self.prepared.lock()).as_ref() {
            p.cellar.clear();
        }
    }

    /// Forget all derived metadata: truncate every source's derived
    /// table and reset the PSm bookkeeping. Benchmarks use this to
    /// measure DMd-deriving query types from a pristine state.
    pub fn reset_dmd(&self) -> Result<()> {
        for s in &self.sources {
            if let Some(dmd_spec) = &s.descriptor.dmd {
                self.db.truncate_table(&dmd_spec.table)?;
                s.dmd.clear();
            }
        }
        Ok(())
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The chunk residency manager, once prepared.
    pub fn cellar(&self) -> Option<Arc<Cellar>> {
        unpoison(self.prepared.lock()).as_ref().map(|p| Arc::clone(&p.cellar))
    }

    /// The fault injector every chunk load passes through, when fault
    /// injection is configured ([`SommelierConfig::fault_plan`]): its
    /// injected-fault counters and its load [`FaultInjector::hold`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault_injector.as_ref()
    }

    /// Every quarantined chunk as `(uri, reason)`, across sources.
    /// Quarantined chunks are excluded from stage 1's chunk selection
    /// for the life of the system.
    pub fn quarantined_chunks(&self) -> Vec<(String, String)> {
        unpoison(self.prepared.lock()).as_ref().map_or_else(Vec::new, |p| {
            p.registries
                .iter()
                .flat_map(|r| {
                    r.entries()
                        .iter()
                        .filter_map(|e| r.quarantined(&e.uri).map(|why| (e.uri.clone(), why)))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
    }

    /// The DMd bookkeeping of the first source with derived metadata
    /// (the common single-source case; multi-source systems use
    /// [`Sommelier::dmd_manager_of`]).
    pub fn dmd_manager(&self) -> &DmdManager {
        self.sources
            .iter()
            .find(|s| s.descriptor.dmd.is_some())
            .map(|s| s.dmd.as_ref())
            .unwrap_or_else(|| self.sources[0].dmd.as_ref())
    }

    /// The DMd bookkeeping of a source by name.
    pub fn dmd_manager_of(&self, source: &str) -> Option<&DmdManager> {
        self.sources.iter().find(|s| s.descriptor.name == source).map(|s| s.dmd.as_ref())
    }

    /// Names of the registered sources, in registration order.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.descriptor.name.as_str()).collect()
    }

    /// The active loading mode, if prepared.
    pub fn mode(&self) -> Option<LoadingMode> {
        unpoison(self.prepared.lock()).as_ref().map(|p| p.mode)
    }

    /// Number of registered chunks, across all sources.
    pub fn registered_chunks(&self) -> usize {
        unpoison(self.prepared.lock())
            .as_ref()
            .map_or(0, |p| p.registries.iter().map(|r| r.len()).sum())
    }

    /// Bytes of the source repositories (Table III's raw-format column).
    pub fn source_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for s in &self.sources {
            total += s.adapter.source_bytes()?;
        }
        Ok(total)
    }

    /// Bytes of database storage (Table III "MonetDB").
    pub fn db_bytes(&self) -> u64 {
        self.db.disk_bytes()
    }

    /// Bytes of metadata tables only (Table III "Lazy").
    pub fn metadata_bytes(&self) -> u64 {
        self.db.metadata_bytes()
    }

    /// Bytes of index structures (Table III "+keys" delta).
    pub fn index_bytes(&self) -> u64 {
        self.db.index_bytes()
    }
}

impl std::fmt::Debug for Sommelier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sommelier")
            .field("sources", &self.source_names())
            .field("mode", &self.mode().map(|m| m.label()))
            .field("chunks", &self.registered_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
    use sommelier_storage::Value;
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, removed when
    /// dropped (also when its test fails).
    pub(crate) struct TempDir(pub(crate) PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "somm-core-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A policy on a 2-worker pool shared by every test that uses it
    /// (the shipping shape): batches claim on the pool, the cellar's
    /// joins drain inline on the submitting thread.
    pub(crate) fn pooled() -> SchedPolicy {
        static POOL: std::sync::OnceLock<Arc<MorselScheduler>> = std::sync::OnceLock::new();
        let pool = POOL.get_or_init(|| Arc::new(MorselScheduler::new(2, Default::default())));
        SchedPolicy::default().with_scheduler(Some(Arc::clone(pool)))
    }

    fn temp_repo(tag: &str, days: u32, events: u32) -> TempDir {
        let dir = TempDir::new(tag);
        generate_event_logs(&dir, &EventLogSpec::small(days, events)).unwrap();
        dir
    }

    fn system(repo: &Path) -> Sommelier {
        Sommelier::builder().source(EventLogAdapter::new(repo)).build().unwrap()
    }

    fn query1(from: &str, to: &str) -> String {
        format!(
            "SELECT AVG(E.val) FROM eventview \
             WHERE G.host = 'web-1' AND G.service = 'api' \
             AND E.ts >= '{from}' AND E.ts < '{to}'"
        )
    }

    #[test]
    fn unprepared_query_fails() {
        let repo = temp_repo("unprepared", 1, 8);
        let somm = system(&repo);
        assert!(matches!(
            somm.query("SELECT COUNT(*) FROM G"),
            Err(SommelierError::Usage(_))
        ));
    }

    #[test]
    fn builder_requires_a_source() {
        assert!(matches!(Sommelier::builder().build(), Err(SommelierError::Usage(_))));
    }

    #[test]
    fn sidecar_roundtrip_detects_corruption_accepts_legacy() {
        let dir = TempDir::new("sidecar");
        let p = dir.join("x.sidecar");
        write_sidecar_atomic(&p, "hello\nworld\n").unwrap();
        assert_eq!(read_sidecar(&p).as_deref(), Some("hello\nworld\n"));
        assert!(!p.with_extension("tmp").exists(), "tmp is renamed away");
        // A torn / bit-rotted payload is detected and treated as missing.
        let rotted = std::fs::read_to_string(&p).unwrap().replace("world", "w0rld");
        std::fs::write(&p, rotted).unwrap();
        assert_eq!(read_sidecar(&p), None);
        // Sidecars from versions before checksumming are accepted as-is.
        std::fs::write(&p, "legacy\n").unwrap();
        assert_eq!(read_sidecar(&p).as_deref(), Some("legacy\n"));
        assert_eq!(read_sidecar(&dir.join("absent")), None);
    }

    #[test]
    fn duplicate_sources_rejected() {
        let repo = temp_repo("dup", 1, 8);
        let result = Sommelier::builder()
            .source(EventLogAdapter::new(&*repo))
            .source(EventLogAdapter::new(&*repo))
            .build();
        assert!(matches!(result, Err(SommelierError::Usage(_))));
    }

    #[test]
    fn lazy_t4_loads_only_matching_chunks() {
        let repo = temp_repo("lazy-t4", 4, 32);
        let somm = system(&repo);
        let report = somm.prepare(LoadingMode::Lazy).unwrap();
        assert_eq!(report.rows_loaded, 0, "lazy loads no actual data up front");
        assert_eq!(somm.db().table_rows("E").unwrap(), 0);
        let r = somm
            .query(&query1("2011-03-02T00:00:00.000", "2011-03-04T00:00:00.000"))
            .unwrap();
        assert_eq!(r.qtype, QueryType::T4);
        assert_eq!(r.stats.files_selected, 2, "two days of one host");
        assert_eq!(r.stats.files_loaded, 2);
        assert_eq!(r.relation.rows(), 1);
        // Second run: residency hits, nothing loaded.
        let r2 = somm
            .query(&query1("2011-03-02T00:00:00.000", "2011-03-04T00:00:00.000"))
            .unwrap();
        assert_eq!(r2.stats.cache_hits, 2);
        assert_eq!(r2.stats.files_loaded, 0);
    }

    #[test]
    fn lazy_matches_eager_answers() {
        let sql = query1("2011-03-01T06:00:00.000", "2011-03-02T12:00:00.000");
        let repo = temp_repo("consistency-a", 3, 32);
        let lazy = system(&repo);
        lazy.prepare(LoadingMode::Lazy).unwrap();
        let lazy_avg = lazy.query(&sql).unwrap().relation.value(0, "avg").unwrap();

        let repo_b = temp_repo("consistency-b", 3, 32);
        let eager = system(&repo_b);
        eager.prepare(LoadingMode::EagerIndex).unwrap();
        let eager_avg = eager.query(&sql).unwrap().relation.value(0, "avg").unwrap();
        match (lazy_avg, eager_avg) {
            (Value::Float(a), Value::Float(b)) => {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn setup_runs_on_the_pool() {
        let repo = temp_repo("setup-pool", 3, 16);
        let build = |max_threads| {
            let config = SommelierConfig { max_threads, ..SommelierConfig::default() };
            Sommelier::builder().source(EventLogAdapter::new(&*repo)).config(config).build()
        };
        let tasks = |somm: &Sommelier| somm.metrics().get(Metric::SchedTasks);
        let g_rows = |somm: &Sommelier| {
            let cols = ["log_id", "uri", "host", "service", "day_ts"];
            let cols = somm.db().scan_columns("G", &cols).unwrap();
            let values = |c: &sommelier_storage::ColumnData| {
                (0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>()
            };
            format!("{:?}", cols.iter().map(values).collect::<Vec<_>>())
        };

        // Each system counts into its own registry, from 0.
        let lazy = build(3).unwrap();
        lazy.prepare(LoadingMode::Lazy).unwrap();
        let files = lazy.registered_chunks() as u64;
        assert_eq!(files, 6, "3 days × 2 hosts");
        assert!(tasks(&lazy) >= files, "one header task per file on the pool");

        let eager = build(3).unwrap();
        eager.prepare(LoadingMode::EagerPlain).unwrap();
        assert!(tasks(&eager) >= 2 * files, "header scan plus one decode per chunk");

        // No pool at one thread: the same setup runs inline, serially.
        let serial = build(1).unwrap();
        assert!(serial.scheduler().is_none());
        serial.prepare(LoadingMode::Lazy).unwrap();
        assert_eq!(g_rows(&serial), g_rows(&lazy));
        assert_eq!(g_rows(&serial), g_rows(&eager));
    }

    #[test]
    fn t2_triggers_incremental_derivation() {
        let repo = temp_repo("t2", 3, 32);
        let somm = system(&repo);
        somm.prepare(LoadingMode::Lazy).unwrap();
        let sql = "SELECT day_start_ts, day_max_val FROM Y \
                   WHERE day_host = 'web-1' AND day_service = 'api' \
                   AND day_start_ts >= '2011-03-01T00:00:00.000' \
                   AND day_start_ts < '2011-03-03T00:00:00.000'";
        let r = somm.query(sql).unwrap();
        assert_eq!(r.qtype, QueryType::T2);
        let dmd = r.dmd.expect("algorithm 1 ran");
        assert_eq!(dmd.requested, 2);
        assert_eq!(dmd.missing, 2);
        assert!(dmd.rows_inserted > 0);
        assert!(r.relation.rows() > 0);
        // Second time: fully covered.
        let r2 = somm.query(sql).unwrap();
        assert_eq!(r2.dmd.unwrap().missing, 0);
        assert_eq!(r2.relation.rows(), r.relation.rows());
    }

    /// Algorithm 1's derivation children record no spans, even at
    /// `Spans`, and the traced parent's tree holds its own stages only.
    #[test]
    fn derivation_children_record_no_spans() {
        let repo = temp_repo("derive-spans", 3, 32);
        let somm = Sommelier::builder()
            .config(SommelierConfig { observability: ObsLevel::Spans, ..Default::default() })
            .source(EventLogAdapter::new(&*repo))
            .build()
            .unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let t2 = |day: u32| {
            format!(
                "SELECT day_start_ts, day_max_val FROM Y \
                 WHERE day_host = 'web-1' AND day_service = 'api' \
                 AND day_start_ts >= '2011-03-0{day}T00:00:00.000' \
                 AND day_start_ts < '2011-03-0{}T00:00:00.000'",
                day + 1
            )
        };
        // Day 1's windows, derived as a top-level query derives them.
        let plan = somm.plan(sommelier_sql::compile(&t2(1), &somm.catalog).unwrap()).unwrap();
        let source = &somm.sources[plan.source_idx];
        let parent = SchedPolicy::default();
        let traced = Mutex::new(Vec::new());
        let outcome =
            dmd::ensure_dmd(&somm.db, &source.dmd, &source.descriptor, &plan.spec, &|s| {
                let r = somm.run(somm.plan(s)?, RunCtx::Derivation { parent: &parent })?;
                unpoison(traced.lock()).push(r.span_trace.is_some());
                Ok(r)
            })
            .unwrap();
        assert_eq!(outcome.missing, 1);
        let traced = unpoison(traced.into_inner());
        assert!(!traced.is_empty(), "day 1 was derived");
        assert!(traced.iter().all(|t| !t), "a derivation child returned a span trace");
        // Day 2 through a top-level query: one root, one of each stage,
        // and nothing hung under `dmd_ensure`.
        let r = somm.query(&t2(2)).unwrap();
        assert_eq!(r.dmd.as_ref().map(|d| d.missing), Some(1), "day 2 was derived");
        let trace = r.span_trace.expect("spans level traces the query");
        for stage in ["query", "queue_wait", "inference", "dmd_ensure", "stage1", "stage2"] {
            assert_eq!(trace.count(stage), 1, "{stage} in\n{}", trace.render_tree());
        }
        let ensure = trace.find("dmd_ensure").unwrap().id;
        assert!(
            trace.spans.iter().all(|s| s.parent != Some(ensure)),
            "derivation spans hung under dmd_ensure:\n{}",
            trace.render_tree()
        );
    }

    #[test]
    fn eager_dmd_skips_algorithm_1() {
        let repo = temp_repo("edmd", 2, 16);
        let somm = system(&repo);
        let report = somm.prepare(LoadingMode::EagerDmd).unwrap();
        assert!(report.dmd_derivation > std::time::Duration::ZERO);
        assert!(somm.db().table_rows("Y").unwrap() > 0);
        let r = somm
            .query(
                "SELECT day_max_val FROM Y WHERE day_host = 'web-1' \
                 AND day_start_ts < '2011-03-02T00:00:00.000'",
            )
            .unwrap();
        assert!(r.dmd.is_none(), "eager_dmd answers straight from Y");
        assert!(r.relation.rows() > 0);
    }

    #[test]
    fn explain_shows_two_stage_shape() {
        let repo = temp_repo("explain", 1, 8);
        let somm = system(&repo);
        somm.prepare(LoadingMode::Lazy).unwrap();
        let plan =
            somm.explain("SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'").unwrap();
        assert!(plan.contains("QfMark"), "{plan}");
        assert!(plan.contains("LazyScan E"), "{plan}");
        assert!(plan.contains("mode: lazy"), "{plan}");
        assert!(plan.contains("source: eventlog"), "{plan}");
        // The physical section shows the partial-aggregation fusion.
        assert!(plan.contains("PartialAggUnion E"), "{plan}");
        assert!(plan.contains("per-chunk probe"), "{plan}");
        assert!(plan.contains("ResultScan #0"), "{plan}");
    }
}
