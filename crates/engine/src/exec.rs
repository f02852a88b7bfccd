//! The bulk (column-at-a-time) executor.
//!
//! Executes a [`PhysicalPlan`] bottom-up, materializing every
//! intermediate [`Relation`] — MonetDB's execution style, which the
//! paper's two-stage model builds on. Chunk data for
//! [`PhysicalPlan::ChunkUnion`] and [`PhysicalPlan::PartialAggUnion`]
//! must have been pre-loaded into the [`ExecContext`] by the two-stage
//! driver (the paper's run-time optimizer inserts the load statements
//! before `Qs` resumes; see [`crate::twostage`]) — except when the
//! driver runs the fused decode→execute wave, which replaces the
//! partial-agg node with a result-scan of the merged states.
//!
//! Chunk-bearing operators are **morsel-parallel**: both union flavors
//! run their per-chunk pipelines (projection, pushed-down selection,
//! probe, partial aggregation) as one batch through
//! [`run_indexed_policy`] — on the shared
//! [`crate::sched::MorselScheduler`] when [`ExecContext::sched`] carries
//! one, inline on the caller otherwise. Results are combined in chunk
//! order, so the output is independent of the worker count.

use crate::agg::{aggregate, distinct, merge_partials, partial_aggregate_over, PartialAgg};
use crate::candidates::Candidates;
use crate::error::{EngineError, Result};
use crate::eval::{eval_mask, eval_scalar};
use crate::expr::Expr;
use crate::join::{cross_join, hash_join, index_join, JoinBuild};
use crate::obs::{self, metrics::COUNT_BUCKETS, Obs};
use crate::physical::{ChunkOp, PhysicalPlan};
use crate::relation::Relation;
use crate::sched::{self, SchedPolicy};
use crate::sort::{limit, sort_relation};
use sommelier_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters the executor fills while running (interior-mutable so the
/// worker pools can update them); the two-stage driver copies them into
/// [`crate::twostage::ExecStats`].
#[derive(Debug, Default)]
pub struct ExecCounters {
    /// Rows concatenated into materialized chunk unions.
    pub union_rows: AtomicU64,
    /// Chunks that went through a per-chunk partial-aggregation
    /// pipeline instead of being unioned.
    pub partial_agg_chunks: AtomicU64,
}

/// Everything the executor needs besides the plan.
pub struct ExecContext<'a> {
    pub db: &'a Database,
    /// Materialized stage-1 results, indexed by `ResultScan { id }`.
    /// Shared (`Arc`) so a result referenced several times is never
    /// deep-copied.
    pub materialized: Vec<Arc<Relation>>,
    /// Pre-loaded chunk relations by URI (cache-scans and chunk-accesses
    /// both resolve here; the driver fills it).
    pub chunks: HashMap<String, Arc<Relation>>,
    /// How morsel-parallel operators run their batches: shared pool,
    /// priority, cancellation.
    pub sched: SchedPolicy,
    /// Execution counters.
    pub counters: ExecCounters,
    /// Observability handle (pool metrics, per-chunk pipeline spans).
    pub obs: Obs,
}

impl<'a> ExecContext<'a> {
    /// A context with no stage-1 results or chunks, executing serially.
    pub fn new(db: &'a Database) -> Self {
        ExecContext {
            db,
            materialized: Vec::new(),
            chunks: HashMap::new(),
            sched: SchedPolicy::default(),
            counters: ExecCounters::default(),
            obs: Obs::off(),
        }
    }
}

/// Scan a base table into a qualified, provenance-carrying relation.
pub fn scan_base_table(
    db: &Database,
    table: &str,
    columns: &[String],
    predicate: Option<&crate::expr::Expr>,
) -> Result<Relation> {
    let prefix = format!("{table}.");
    let raw: Vec<&str> = columns
        .iter()
        .map(|c| {
            c.strip_prefix(&prefix).ok_or_else(|| {
                EngineError::Plan(format!("scan column {c:?} not qualified by {table}"))
            })
        })
        .collect::<Result<_>>()?;
    let data = db.scan_columns(table, &raw)?;
    let rel = Relation::new(columns.iter().cloned().zip(data).collect())?;
    let rows: Vec<u32> = (0..rel.rows() as u32).collect();
    let rel = rel.with_provenance(table, rows);
    match predicate {
        Some(p) => {
            let mask = eval_mask(p, &rel)?;
            Ok(rel.filter(&mask))
        }
        None => Ok(rel),
    }
}

/// The correctly-typed empty relation for a chunk scan that selected no
/// chunks (so joins above keep working).
fn empty_chunk_schema(db: &Database, table: &str, columns: &[String]) -> Result<Relation> {
    let schema = db.table_schema(table)?;
    let prefix = format!("{table}.");
    let cols = columns
        .iter()
        .map(|c| {
            let raw = c.strip_prefix(&prefix).ok_or_else(|| {
                EngineError::Plan(format!("chunk column {c:?} not qualified by {table}"))
            })?;
            let dtype = schema.col_type(raw)?;
            Ok((c.clone(), sommelier_storage::ColumnData::empty(dtype)))
        })
        .collect::<Result<Vec<_>>>()?;
    Relation::new(cols)
}

/// The per-chunk stage-2 pipeline: scan-level projection, pushed-down
/// selection, optional probe of a shared pre-built join side, residual
/// filter. Shared by the executor's morsel-parallel operators and the
/// two-stage driver's fused decode→execute wave.
///
/// The pipeline carries a candidate list — ascending, disjoint row
/// ranges over the chunk's shared columns — rather than copying the
/// surviving rows at each step: comparisons between a literal and a
/// column the decoder flagged sorted become binary-searched bounds,
/// other conjuncts are evaluated on candidate rows only, a probe on
/// sorted keys keeps uniquely matched key runs as ranges, and partial
/// aggregation folds the ranges in place. A probe on unsorted keys, a
/// fan-out probe, kept build columns or a computed projection gather
/// the candidates once and continue over the copy;
/// [`ChunkPipeline::run`] gathers them at the end.
pub struct ChunkPipeline<'a> {
    /// Qualified output columns of the chunk scan.
    pub columns: &'a [String],
    /// Pushed-down selection (None = post-union filtering, or none).
    pub predicate: Option<&'a Expr>,
    /// `(pre-built build side, probe keys)` of the per-chunk hash
    /// join, if the aggregate sat over a join. Built once; probed by
    /// every chunk.
    pub build: Option<(&'a JoinBuild, &'a [Expr])>,
    /// Residual filters/projections applied after the join, in order.
    pub ops: &'a [ChunkOp],
}

impl ChunkPipeline<'_> {
    /// The candidate rows of one chunk after every pipeline step.
    pub(crate) fn candidates(&self, chunk: &Relation) -> Result<Candidates> {
        let part = chunk.project_named(self.columns.iter().map(|c| (&**c, &**c)))?;
        let mut cands = Candidates::all(part);
        if let Some(p) = self.predicate {
            cands.filter(p)?;
        }
        if let Some((build, probe_keys)) = self.build {
            cands = build.probe_candidates(cands, probe_keys)?;
        }
        for op in self.ops {
            match op {
                ChunkOp::Filter(p) => cands.filter(p)?,
                ChunkOp::Project(exprs) => cands = cands.project(exprs)?,
            }
        }
        Ok(cands)
    }

    /// Run the pipeline over one chunk's rows, gathering the result.
    pub fn run(&self, chunk: &Relation) -> Result<Relation> {
        Ok(self.candidates(chunk)?.materialize())
    }

    /// The pipeline's mask-then-copy form, kept as the oracle of the
    /// candidate-list pipeline: every step filters or gathers the
    /// surviving rows into a new relation.
    #[cfg(test)]
    pub(crate) fn run_masked(&self, chunk: &Relation) -> Result<Relation> {
        let mut part = chunk.project_named(self.columns.iter().map(|c| (&**c, &**c)))?;
        if let Some(p) = self.predicate {
            let mask = eval_mask(p, &part)?;
            part = part.filter(&mask);
        }
        if let Some((build, probe_keys)) = self.build {
            part = build.probe(&part, probe_keys)?;
        }
        for op in self.ops {
            match op {
                ChunkOp::Filter(p) => {
                    let mask = eval_mask(p, &part)?;
                    part = part.filter(&mask);
                }
                ChunkOp::Project(exprs) => {
                    let cols = exprs
                        .iter()
                        .map(|(name, e)| {
                            let col = match e {
                                Expr::Col(src) => {
                                    Arc::clone(&part.columns()[part.resolve(src)?].1)
                                }
                                _ => Arc::new(eval_scalar(e, &part)?),
                            };
                            Ok((name.clone(), col))
                        })
                        .collect::<Result<Vec<_>>>()?;
                    part = Relation::from_shared(cols)?;
                }
            }
        }
        Ok(part)
    }
}

/// Run `task` over indices `0..n` and collect the results in index
/// order: the single front door for morsel-parallel work, shared by the
/// executor's morsel operators and the cellar's decode/streaming waves.
///
/// - With a scheduler attached and more than one effective worker (the
///   pool size capped by `n`): submits the batch to the shared pool,
///   at most that many workers servicing it at once.
/// - Otherwise — no pool, one worker, or a nested batch issued from a
///   pool worker (where re-entering the queue could deadlock a pool
///   whose every worker waits on nested batches) — runs inline on the
///   caller's thread.
///
/// Both branches feed the `pool.*` metrics (batches, tasks, busy/idle
/// ns, queue depth).
pub fn run_indexed_policy<T: Send>(
    n: usize,
    policy: &SchedPolicy,
    obs: &Obs,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if let Some(s) = &policy.scheduler {
        let workers = s.worker_count().min(n);
        if workers > 1 && !sched::on_scheduler_worker() {
            return s.run_batch(n, workers, policy.priority, obs, task);
        }
    }
    let wall = obs.metrics().map(|_| std::time::Instant::now());
    // Tag as worker 0 unless the caller already runs inside the pool
    // (nested batches keep the outer worker's id).
    let _tag = obs::current_worker().is_none().then(|| obs::worker_scope(0));
    let out: Vec<T> = (0..n).map(task).collect();
    if let (Some(m), Some(wall)) = (obs.metrics(), wall) {
        m.counter("pool.batches").inc();
        m.counter("pool.tasks").add(n as u64);
        m.counter("pool.busy_ns").add(wall.elapsed().as_nanos() as u64);
        m.histogram("pool.queue_depth", &COUNT_BUCKETS).observe(n as u64);
    }
    out
}

/// Resolve every chunk of a union against the pre-loaded context.
fn resolve_chunks<'c>(
    ctx: &'c ExecContext,
    chunks: &[crate::physical::ChunkRef],
) -> Result<Vec<&'c Arc<Relation>>> {
    chunks
        .iter()
        .map(|chunk| {
            ctx.chunks.get(&chunk.uri).ok_or_else(|| {
                EngineError::Chunk(format!("chunk {:?} was not pre-loaded", chunk.uri))
            })
        })
        .collect()
}

/// Execute a physical plan.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Relation> {
    match plan {
        PhysicalPlan::SeqScan { table, columns, predicate } => {
            scan_base_table(ctx.db, table, columns, predicate.as_ref())
        }
        PhysicalPlan::ResultScan { id } => ctx
            .materialized
            .get(*id)
            // Shallow: the clone shares the column payloads.
            .map(|r| (**r).clone())
            .ok_or_else(|| EngineError::Exec(format!("no materialized result #{id}"))),
        PhysicalPlan::ChunkUnion { table, chunks, columns, predicate, pushdown, .. } => {
            if chunks.is_empty() {
                // Stage 1 selected no files: an empty relation with the
                // base table's schema (so joins above keep working).
                return empty_chunk_schema(ctx.db, table, columns);
            }
            let pipeline = ChunkPipeline {
                columns,
                predicate: if *pushdown { predicate.as_ref() } else { None },
                build: None,
                ops: &[],
            };
            let rels = resolve_chunks(ctx, chunks)?;
            // Per-chunk projection (and selection, if pushed down) on
            // the worker pool; concatenation in chunk order.
            let parts = run_indexed_policy(rels.len(), &ctx.sched, &ctx.obs, |i| {
                let tracer = ctx.obs.tracer();
                let t0 = tracer.map(|tc| tc.now_ns());
                // Cancellation checkpoint at the chunk-pipeline
                // boundary: already-running morsels finish.
                let part = ctx.sched.check_cancel().and_then(|()| pipeline.run(rels[i]));
                if let (Some(tc), Some(t0)) = (tracer, t0) {
                    tc.record(
                        tc.ambient(),
                        "chunk",
                        chunks[i].uri.clone(),
                        t0,
                        tc.now_ns().saturating_sub(t0),
                        obs::current_worker(),
                        part.as_ref().ok().map(|r| r.rows() as u64),
                        None,
                    );
                }
                part
            });
            let mut out = Relation::empty();
            for part in parts {
                out.union_in_place(&part?)?;
            }
            ctx.counters.union_rows.fetch_add(out.rows() as u64, Ordering::Relaxed);
            if !*pushdown {
                if let Some(p) = predicate {
                    if out.rows() > 0 {
                        let mask = eval_mask(p, &out)?;
                        out = out.filter(&mask);
                    }
                }
            }
            // An empty union (zero chunks selected) still needs a schema
            // so joins above keep working.
            if out.width() == 0 {
                return Err(EngineError::Chunk(
                    "chunk union over zero chunks has no schema; stage-1 selected no files"
                        .into(),
                ));
            }
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
            ..
        } => {
            // Build the join side once; every chunk probes it.
            let build =
                join.as_ref().map(|j| j.build(execute(&j.right, ctx)?)).transpose()?;
            let probe =
                join.as_ref().zip(build.as_ref()).map(|(j, b)| (b, j.left_keys.as_slice()));
            if chunks.is_empty() {
                // No chunks: run the (empty) pipeline serially so the
                // aggregate keeps its schema semantics.
                let pipeline = ChunkPipeline { columns, predicate: None, build: probe, ops };
                let empty = empty_chunk_schema(ctx.db, table, columns)?;
                return aggregate(&pipeline.run(&empty)?, group_by, aggs);
            }
            let pipeline =
                ChunkPipeline { columns, predicate: predicate.as_ref(), build: probe, ops };
            let rels = resolve_chunks(ctx, chunks)?;
            let parts: Vec<Result<PartialAgg>> =
                run_indexed_policy(rels.len(), &ctx.sched, &ctx.obs, |i| {
                    // Cancellation checkpoint at the chunk-pipeline
                    // boundary: already-running morsels finish.
                    ctx.sched.check_cancel()?;
                    let tracer = ctx.obs.tracer();
                    let t0 = tracer.map(|tc| tc.now_ns());
                    let part = pipeline.candidates(rels[i])?;
                    let agg = partial_aggregate_over(&part, group_by, aggs);
                    if let (Some(tc), Some(t0)) = (tracer, t0) {
                        tc.record(
                            tc.ambient(),
                            "chunk",
                            chunks[i].uri.clone(),
                            t0,
                            tc.now_ns().saturating_sub(t0),
                            obs::current_worker(),
                            Some(part.rows() as u64),
                            None,
                        );
                    }
                    agg
                });
            ctx.counters.partial_agg_chunks.fetch_add(rels.len() as u64, Ordering::Relaxed);
            merge_partials(parts.into_iter().collect::<Result<Vec<_>>>()?, group_by, aggs)
        }
        PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            hash_join(&l, &r, left_keys, right_keys)
        }
        PhysicalPlan::IndexJoin {
            child,
            child_table,
            parent_table,
            parent_columns,
            parent_predicate,
        } => {
            let c = execute(child, ctx)?;
            match c.provenance() {
                Some(p) if p.table == *child_table => {}
                _ => {
                    return Err(EngineError::Exec(format!(
                        "index join expected provenance of {child_table}"
                    )))
                }
            }
            let parent = scan_base_table(ctx.db, parent_table, parent_columns, None)?;
            let ji = ctx.db.join_index(child_table, parent_table).ok_or_else(|| {
                EngineError::Exec(format!(
                    "no join index from {child_table} to {parent_table}"
                ))
            })?;
            index_join(&c, &parent, &ji.positions, parent_predicate.as_ref())
        }
        PhysicalPlan::Cross { left, right } => {
            let l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            cross_join(&l, &r)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let rel = execute(input, ctx)?;
            let mask = eval_mask(predicate, &rel)?;
            Ok(rel.filter(&mask))
        }
        PhysicalPlan::Project { input, exprs } => {
            let rel = execute(input, ctx)?;
            let cols = exprs
                .iter()
                .map(|(name, e)| Ok((name.clone(), eval_scalar(e, &rel)?)))
                .collect::<Result<Vec<_>>>()?;
            Relation::new(cols)
        }
        PhysicalPlan::Aggregate { input, group_by, aggs } => {
            let rel = execute(input, ctx)?;
            aggregate(&rel, group_by, aggs)
        }
        PhysicalPlan::Distinct { input } => {
            let rel = execute(input, ctx)?;
            distinct(&rel)
        }
        PhysicalPlan::Sort { input, keys } => {
            let rel = execute(input, ctx)?;
            sort_relation(&rel, keys)
        }
        PhysicalPlan::Limit { input, n } => {
            let rel = execute(input, ctx)?;
            Ok(limit(&rel, *n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp, Expr};
    use crate::physical::{fuse_partial_agg, ChunkRef};
    use crate::sched::MorselScheduler;
    use sommelier_storage::buffer::BufferPoolConfig;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::{
        ColumnData, ConstraintPolicy, DataType, TableClass, TableSchema, Value,
    };

    fn db() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(
            TableSchema::new("F", TableClass::MetadataGiven)
                .column("file_id", DataType::Int64)
                .column("station", DataType::Text)
                .primary_key(["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData)
                .column("file_id", DataType::Int64)
                .column("sample_value", DataType::Float64)
                .foreign_key(["file_id"], "F", ["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![1, 2]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "D",
            &[
                ColumnData::Int64(vec![1, 1, 2, 2]),
                ColumnData::Float64(vec![1.0, 3.0, 100.0, 200.0]),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db
    }

    #[test]
    fn scan_with_predicate_and_provenance() {
        let db = db();
        let rel = scan_base_table(
            &db,
            "D",
            &["D.file_id".into(), "D.sample_value".into()],
            Some(&Expr::col("D.sample_value").cmp(CmpOp::Gt, Expr::lit(2.0))),
        )
        .unwrap();
        assert_eq!(rel.rows(), 3);
        assert_eq!(rel.provenance().unwrap().rows, vec![1, 2, 3]);
    }

    #[test]
    fn full_pipeline_hash_join_aggregate() {
        let db = db();
        let ctx = ExecContext::new(&db);
        // AVG(sample_value) of station ISK via hash join.
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: "D".into(),
                    columns: vec!["D.file_id".into(), "D.sample_value".into()],
                    predicate: None,
                }),
                right: Box::new(PhysicalPlan::SeqScan {
                    table: "F".into(),
                    columns: vec!["F.file_id".into(), "F.station".into()],
                    predicate: Some(Expr::col("F.station").eq(Expr::lit("ISK"))),
                }),
                left_keys: vec![Expr::col("D.file_id")],
                right_keys: vec![Expr::col("F.file_id")],
            }),
            group_by: vec![],
            aggs: vec![("avg_v".into(), AggFunc::Avg, Expr::col("D.sample_value"))],
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.value(0, "avg_v").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn index_join_path() {
        let db = db();
        db.build_join_indices("D").unwrap();
        let ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::IndexJoin {
            child: Box::new(PhysicalPlan::SeqScan {
                table: "D".into(),
                columns: vec!["D.file_id".into(), "D.sample_value".into()],
                predicate: Some(Expr::col("D.sample_value").cmp(CmpOp::Gt, Expr::lit(1.5))),
            }),
            child_table: "D".into(),
            parent_table: "F".into(),
            parent_columns: vec!["F.file_id".into(), "F.station".into()],
            parent_predicate: Some(Expr::col("F.station").eq(Expr::lit("FIAM"))),
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value(0, "D.sample_value").unwrap(), Value::Float(100.0));
    }

    fn chunk_ctx(db: &Database) -> ExecContext<'_> {
        let mut ctx = ExecContext::new(db);
        let mk = |vals: Vec<f64>, ids: Vec<i64>| {
            Arc::new(
                Relation::new(vec![
                    ("D.file_id".into(), ColumnData::Int64(ids)),
                    ("D.sample_value".into(), ColumnData::Float64(vals)),
                ])
                .unwrap(),
            )
        };
        ctx.chunks.insert("a".into(), mk(vec![1.0, 5.0], vec![1, 1]));
        ctx.chunks.insert("b".into(), mk(vec![7.0], vec![2]));
        ctx
    }

    /// Run the context's morsel batches on a fresh shared pool of `n`
    /// workers; the pool is returned so tests can check it was used.
    fn on_pool(ctx: &mut ExecContext, n: usize) -> Arc<MorselScheduler> {
        let pool = Arc::new(MorselScheduler::new(n));
        ctx.sched = SchedPolicy::default().with_scheduler(Some(Arc::clone(&pool)));
        pool
    }

    fn union_plan(pushdown: bool) -> PhysicalPlan {
        PhysicalPlan::ChunkUnion {
            table: "D".into(),
            chunks: vec![
                ChunkRef { uri: "a".into(), cached: false },
                ChunkRef { uri: "b".into(), cached: true },
            ],
            columns: vec!["D.file_id".into(), "D.sample_value".into()],
            predicate: Some(Expr::col("D.sample_value").cmp(CmpOp::Gt, Expr::lit(2.0))),
            pushdown,
        }
    }

    #[test]
    fn chunk_union_with_pushdown() {
        let db = db();
        let ctx = chunk_ctx(&db);
        let out = execute(&union_plan(true), &ctx).unwrap();
        assert_eq!(out.rows(), 2);
        // Same result without pushdown.
        let out2 = execute(&union_plan(false), &ctx).unwrap();
        assert_eq!(out2.rows(), 2);
        // Union materialization is counted.
        assert!(ctx.counters.union_rows.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn chunk_union_parallel_matches_serial() {
        let db = db();
        let mut ctx = chunk_ctx(&db);
        let serial = execute(&union_plan(true), &ctx).unwrap();
        let pool = on_pool(&mut ctx, 4);
        let parallel = execute(&union_plan(true), &ctx).unwrap();
        assert_eq!(pool.stats().tasks, 2, "both chunk pipelines ran on the pool");
        assert_eq!(serial.rows(), parallel.rows());
        for r in 0..serial.rows() {
            assert_eq!(
                serial.value(r, "D.sample_value").unwrap(),
                parallel.value(r, "D.sample_value").unwrap()
            );
        }
    }

    #[test]
    fn partial_agg_union_fuses_and_matches_aggregate_over_union() {
        let db = db();
        let mut ctx = chunk_ctx(&db);
        on_pool(&mut ctx, 4);
        let agg_over_union = PhysicalPlan::Aggregate {
            input: Box::new(union_plan(true)),
            group_by: vec![("fid".into(), Expr::col("D.file_id"))],
            aggs: vec![
                ("n".into(), AggFunc::Count, Expr::col("D.sample_value")),
                ("avg_v".into(), AggFunc::Avg, Expr::col("D.sample_value")),
            ],
        };
        let fused = fuse_partial_agg(agg_over_union.clone());
        assert_eq!(fused.partial_agg_count(), 1, "fusion fires: {fused}");
        let want = execute(&agg_over_union, &ctx).unwrap();
        let union_rows = ctx.counters.union_rows.load(Ordering::Relaxed);
        let got = execute(&fused, &ctx).unwrap();
        // Partial aggregation did not materialize any further union.
        assert_eq!(ctx.counters.union_rows.load(Ordering::Relaxed), union_rows);
        assert_eq!(ctx.counters.partial_agg_chunks.load(Ordering::Relaxed), 2);
        assert_eq!(want.rows(), got.rows());
        for r in 0..want.rows() {
            for name in ["fid", "n", "avg_v"] {
                assert_eq!(want.value(r, name).unwrap(), got.value(r, name).unwrap());
            }
        }
    }

    #[test]
    fn partial_agg_union_with_join_matches_unfused() {
        let db = db();
        let mut ctx = chunk_ctx(&db);
        on_pool(&mut ctx, 2);
        let join = PhysicalPlan::HashJoin {
            left: Box::new(union_plan(true)),
            right: Box::new(PhysicalPlan::SeqScan {
                table: "F".into(),
                columns: vec!["F.file_id".into(), "F.station".into()],
                predicate: None,
            }),
            left_keys: vec![Expr::col("D.file_id")],
            right_keys: vec![Expr::col("F.file_id")],
        };
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(join),
                predicate: Expr::col("F.station").eq(Expr::lit("FIAM")),
            }),
            group_by: vec![],
            aggs: vec![("s".into(), AggFunc::Sum, Expr::col("D.sample_value"))],
        };
        let fused = fuse_partial_agg(plan.clone());
        assert_eq!(fused.partial_agg_count(), 1, "join shape fuses: {fused}");
        let want = execute(&plan, &ctx).unwrap();
        let got = execute(&fused, &ctx).unwrap();
        assert_eq!(want.value(0, "s").unwrap(), got.value(0, "s").unwrap());
        // No-pushdown unions do not fuse (they are the ablation baseline).
        let unfused = fuse_partial_agg(PhysicalPlan::Aggregate {
            input: Box::new(union_plan(false)),
            group_by: vec![],
            aggs: vec![("n".into(), AggFunc::Count, Expr::col("D.sample_value"))],
        });
        assert_eq!(unfused.partial_agg_count(), 0);
    }

    #[test]
    fn partial_agg_union_fuses_through_project() {
        use crate::expr::ArithOp;
        let db = db();
        let mut ctx = chunk_ctx(&db);
        on_pool(&mut ctx, 2);
        // Aggregate over a computed projection of the chunk rows.
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(union_plan(true)),
                exprs: vec![(
                    "doubled".into(),
                    Expr::Arith(
                        ArithOp::Mul,
                        Box::new(Expr::col("D.sample_value")),
                        Box::new(Expr::lit(2.0)),
                    ),
                )],
            }),
            group_by: vec![],
            aggs: vec![("s".into(), AggFunc::Sum, Expr::col("doubled"))],
        };
        let fused = fuse_partial_agg(plan.clone());
        assert_eq!(fused.partial_agg_count(), 1, "project chain fuses: {fused}");
        let want = execute(&plan, &ctx).unwrap();
        let got = execute(&fused, &ctx).unwrap();
        assert_eq!(want.value(0, "s").unwrap(), got.value(0, "s").unwrap());
    }

    #[test]
    fn partial_agg_union_empty_chunks_keeps_schema() {
        let db = db();
        let ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::PartialAggUnion {
            table: "D".into(),
            chunks: vec![],
            columns: vec!["D.file_id".into(), "D.sample_value".into()],
            predicate: None,
            join: None,
            ops: vec![],
            group_by: vec![],
            aggs: vec![("n".into(), AggFunc::Count, Expr::col("D.sample_value"))],
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows(), 0, "global aggregate over empty input");
        assert_eq!(out.width(), 1, "schema preserved");
    }

    #[test]
    fn missing_chunk_is_an_error() {
        let db = db();
        let ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::ChunkUnion {
            table: "D".into(),
            chunks: vec![ChunkRef { uri: "missing".into(), cached: false }],
            columns: vec!["D.file_id".into()],
            predicate: None,
            pushdown: true,
        };
        assert!(matches!(execute(&plan, &ctx), Err(EngineError::Chunk(_))));
    }

    #[test]
    fn result_scan_reads_materialized() {
        let db = db();
        let mut ctx = ExecContext::new(&db);
        ctx.materialized.push(Arc::new(
            Relation::new(vec![("x".into(), ColumnData::Int64(vec![42]))]).unwrap(),
        ));
        let out = execute(&PhysicalPlan::ResultScan { id: 0 }, &ctx).unwrap();
        assert_eq!(out.value(0, "x").unwrap(), Value::Int(42));
        // The scan shares the stored payloads (no deep copy).
        assert!(Arc::ptr_eq(&out.columns()[0].1, &ctx.materialized[0].columns()[0].1));
        assert!(execute(&PhysicalPlan::ResultScan { id: 7 }, &ctx).is_err());
    }

    #[test]
    fn project_sort_limit_pipeline() {
        let db = db();
        let ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Project {
                    input: Box::new(PhysicalPlan::SeqScan {
                        table: "D".into(),
                        columns: vec!["D.sample_value".into()],
                        predicate: None,
                    }),
                    exprs: vec![("v".into(), Expr::col("D.sample_value"))],
                }),
                keys: vec![("v".into(), false)],
            }),
            n: 2,
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value(0, "v").unwrap(), Value::Float(200.0));
    }
}
