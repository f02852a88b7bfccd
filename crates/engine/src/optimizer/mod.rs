//! The rule-based optimizer: two fixed sequences of passes, each pass
//! a plain function in [`passes`], timed into a [`PassTrace`] that
//! `EXPLAIN` surfaces.
//!
//! * **compile** ([`compile_plan`]): `join_order` — the R1–R4
//!   metadata-first decomposition (or the traditional greedy order for
//!   eager plans), producing the logical plan.
//! * **stage 2** ([`rewrite_stage2`]), called by the two-stage driver
//!   once the stage-1 chunk list is known: `zone_map_pruning` →
//!   `chunk_rewrite` → `partial_agg_fusion`.
//!
//! `zone_map_pruning` drops chunks whose per-chunk min/max zone maps
//! (recorded by the registrar from adapter-declared prunable columns)
//! contradict the lazy scan's pushed-down predicate, *before any decode
//! is scheduled*. `chunk_rewrite` turns each lazy `scan(a)` into the
//! union of chunk accesses with the scan's selection inside each of
//! them (the paper's rewrite rule (1) with its refinement), and
//! `partial_agg_fusion` folds an aggregate over that union into
//! per-chunk partial aggregation. Chunks are always decoded full width
//! — the cellar retains them for later queries over other columns — and
//! the scan-level projection applies per chunk after decode.

pub mod passes;

pub use passes::{
    chunk_rewrite, join_order, partial_agg_fusion, plan_zone_constraints,
    zone_conjunct_contradicted, zone_map_pruning,
};

use crate::error::Result;
use crate::joinorder::PlanOptions;
use crate::logical::LogicalPlan;
use crate::obs::{Edges, TraceCollector};
use crate::physical::{ChunkRef, PhysicalPlan};
use crate::spec::QuerySpec;
use crate::twostage::TwoStageConfig;
use sommelier_storage::{Database, Value};
use std::fmt;
use std::time::Instant;

/// A per-chunk min/max summary of one column — the zone map the
/// registrar records for every adapter-declared prunable column.
/// Bounds are **inclusive** and may over-cover (a zone wider than the
/// actual data is safe: pruning only drops chunks whose zone is
/// provably disjoint from the predicate).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// Qualified actual-data column (e.g. `"D.sample_time"`).
    pub column: String,
    pub min: Value,
    pub max: Value,
}

/// Zone-map lookup, by chunk URI. `None` = no zone maps recorded for
/// the chunk (never pruned).
pub type ZoneMapFn<'a> = dyn Fn(&str) -> Option<Vec<ColumnZone>> + 'a;

/// One `column ⟨op⟩ literal` conjunct of a pushed-down predicate, in
/// the normalized column-on-left form — the query shape a sorted zone
/// interval index answers.
#[derive(Debug, Clone)]
pub struct ZoneConstraint {
    /// Qualified actual-data column (e.g. `"D.sample_time"`).
    pub column: String,
    pub op: crate::expr::CmpOp,
    pub value: Value,
}

/// An indexed answer to "which chunks may satisfy these constraints?".
#[derive(Debug, Clone)]
pub enum ZoneCandidates {
    /// Every registered chunk may satisfy them (no pruning possible).
    All,
    /// Only these chunks (by URI) may satisfy them. Must be a superset
    /// of the exactly-not-contradicted chunks: chunks with no recorded
    /// zone for a constrained column are always included, and
    /// constraints the index cannot answer constrain nothing. The
    /// exact per-chunk zone check still runs on the survivors, so an
    /// over-approximation is sound — an under-approximation is not.
    /// Shared `Arc<str>` URIs keep per-hit cost at a refcount bump
    /// (implementations intern them once at registration).
    Uris(std::collections::HashSet<std::sync::Arc<str>>),
}

/// Indexed stage-1 candidate selection over the chunk registry's zone
/// maps (O(log n + hits) instead of a per-chunk scan). `None` = no
/// index can answer (fall back to per-chunk zone checks only). The
/// implementation must be built over the same registry the run-time
/// chunk list is drawn from.
pub type ZoneCandidateFn<'a> = dyn Fn(&[ZoneConstraint]) -> Option<ZoneCandidates> + 'a;

/// One line of the optimizer trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTrace {
    pub name: &'static str,
    pub fired: bool,
    pub detail: String,
    /// Wall time the pass took. Always measured — two `Instant` reads
    /// per pass are noise — so `EXPLAIN ANALYZE` and the span trace can
    /// replay per-pass timings without re-running the passes.
    pub nanos: u64,
}

impl fmt::Display for PassTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({})",
            self.name,
            if self.fired { "fired" } else { "skipped" },
            self.detail
        )
    }
}

/// Result of the stage-2 rewrite.
pub struct Stage2Plan {
    pub physical: PhysicalPlan,
    /// The (possibly zone-pruned) chunk list the driver must acquire,
    /// when the plan had lazy scans.
    pub chunks: Option<Vec<ChunkRef>>,
    /// Chunks dropped by `zone_map_pruning`.
    pub pruned: usize,
    pub trace: Vec<PassTrace>,
}

/// Run one pass, appending its timed line to `trace`.
fn run_pass<T>(
    trace: &mut Vec<PassTrace>,
    name: &'static str,
    pass: impl FnOnce() -> Result<(T, bool, String)>,
) -> Result<T> {
    let start = Instant::now();
    let (out, fired, detail) = pass()?;
    trace.push(PassTrace { name, fired, detail, nanos: start.elapsed().as_nanos() as u64 });
    Ok(out)
}

/// The compile step: spec → logical plan via `join_order`.
pub fn compile_plan(
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<(LogicalPlan, Vec<PassTrace>)> {
    let mut trace = Vec::with_capacity(1);
    let plan = run_pass(&mut trace, "join_order", || join_order(spec, opts))?;
    Ok((plan, trace))
}

/// The stage-2 rewrite: logical plan + run-time chunk list → physical
/// plan, through `zone_map_pruning`, `chunk_rewrite` and
/// `partial_agg_fusion` in order. Reads `zone_map_pruning` from
/// `config`.
pub fn rewrite_stage2(
    plan: &LogicalPlan,
    db: &Database,
    mut chunks: Option<Vec<ChunkRef>>,
    zones: Option<&ZoneMapFn<'_>>,
    zone_candidates: Option<&ZoneCandidateFn<'_>>,
    qf_result_id: Option<usize>,
    config: &TwoStageConfig,
) -> Result<Stage2Plan> {
    let mut trace = Vec::with_capacity(3);
    let pruned = run_pass(&mut trace, "zone_map_pruning", || {
        Ok(zone_map_pruning(
            plan,
            chunks.as_mut(),
            zones,
            zone_candidates,
            config.zone_map_pruning,
        ))
    })?;
    let physical = run_pass(&mut trace, "chunk_rewrite", || {
        chunk_rewrite(plan, db, chunks.as_deref(), qf_result_id)
    })?;
    let physical =
        run_pass(&mut trace, "partial_agg_fusion", || Ok(partial_agg_fusion(physical)))?;
    Ok(Stage2Plan { physical, chunks, pruned, trace })
}

/// Record a span `name` under the ambient span, between `edges`, with
/// one child per pass of `trace`. The passes ran in order, so each
/// child starts where the previous one's recorded time ended.
pub fn record_pass_spans(
    tc: &TraceCollector,
    name: &'static str,
    edges: Edges,
    trace: &[PassTrace],
) {
    let detail = format!("{} passes", trace.len());
    let parent = tc.record_stage(tc.ambient(), name, detail, edges, None, None);
    let mut cursor = tc.offset_ns(edges.start);
    for p in trace {
        tc.record(Some(parent), p.name, p.detail.clone(), cursor, p.nanos, None, None, None);
        cursor += p.nanos;
    }
}

/// Render a trace as indented lines (what EXPLAIN appends).
pub fn format_trace(trace: &[PassTrace]) -> String {
    let mut out = String::new();
    for t in trace {
        out.push_str("  ");
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}
