//! # sommelier-engine
//!
//! The relational query engine of the `sommelier` reproduction of
//! *"The DBMS – your Big Data Sommelier"* (ICDE 2015), implementing the
//! paper's query-processing contributions:
//!
//! * **Colored query graphs** ([`graph`]): metadata tables are red
//!   vertices, actual-data tables black; edges between them are red,
//!   blue, or black (§III).
//! * **Join-order rules R1–R4** ([`joinorder`]): red edges first, cross
//!   products to unify red components if necessary, no bushy plans over
//!   black vertices, black edges last. The result is a plan decomposed
//!   as `Q = Qf ▷ Qs` with the metadata branch `Qf` marked.
//! * **Access paths** ([`physical`]): besides scan/index-scan, the
//!   paper's three additions — *result-scan* (stage-1 result),
//!   *cache-scan* (chunk resident in the residency manager),
//!   *chunk-access* (lazy chunk ingestion).
//! * **Rule-based optimizer** ([`optimizer`]): every rewrite — join
//!   ordering, zone-map chunk pruning, the run-time chunk rewrite,
//!   partial-aggregate fusion — is a named pass function, called in a
//!   fixed order and traced as fired or skipped.
//! * **Two-stage execution** ([`twostage`]): evaluate `Qf`, then apply
//!   the run-time rewrite `scan(a) → ⋃_f cache-scan(f) | chunk-access(f)`
//!   (rewrite rule 1, with the selection pushed into the per-chunk
//!   accesses), then evaluate `Qs` — with the paper's *static*
//!   per-chunk parallelism (one task per chunk). Stage 2 reads every
//!   chunk through a [`ChunkResidency`] manager (the core crate's
//!   cellar, which stands in for MonetDB's Recycler).
//!
//! The executor is bulk (column-at-a-time), like MonetDB: operators
//! materialize whole [`relation::Relation`]s, except inside a per-chunk
//! pipeline, which narrows a candidate list of row
//! ranges over the chunk instead of copying rows at each step.

mod access;
pub mod agg;
mod candidates;
pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod graph;
pub mod join;
pub mod joinorder;
pub mod logical;
pub mod obs;
pub mod optimizer;
pub mod physical;
pub mod relation;
pub mod sched;
pub mod sort;
pub mod spec;
pub mod twostage;

pub use error::{EngineError, ErrorKind, Result};
pub use expr::{AggFunc, CmpOp, Expr, Func};
pub use logical::LogicalPlan;
pub use obs::{
    Edges, Metric, MetricsRegistry, MetricsSnapshot, Obs, ObsLevel, SpanTrace, StageTimer,
    TraceCollector,
};
pub use optimizer::{ColumnZone, PassTrace, ZoneCandidates, ZoneConstraint};
pub use physical::{fuse_partial_agg, PhysicalPlan};
pub use relation::{Relation, RelationBuilder};
pub use sched::{CancelToken, DegradationPolicy, MorselScheduler, Priority, SchedPolicy};
pub use spec::{JoinEdge, QuerySpec, TableRef};
pub use twostage::{
    AcquiredChunk, ChunkResidency, ChunkSink, ExecStats, SkippedChunk, TwoStageConfig,
};
