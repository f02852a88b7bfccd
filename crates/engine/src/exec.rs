//! The bulk (column-at-a-time) executor.
//!
//! Executes a [`PhysicalPlan`] bottom-up, materializing every
//! intermediate [`Relation`] — MonetDB's execution style, which the
//! paper's two-stage model builds on. Chunk nodes
//! ([`PhysicalPlan::ChunkUnion`], [`PhysicalPlan::PartialAggUnion`])
//! never reach it: the two-stage driver ([`crate::twostage`]) runs the
//! plan's chunk node as one streaming wave — each chunk's
//! [`ChunkPipeline`] on the worker that produced it — and replaces the
//! node with a result-scan of the wave's output before `Qs` resumes.
//!
//! [`run_indexed_policy`] is the front door for morsel-parallel work:
//! the shared [`crate::sched::MorselScheduler`] when the policy carries
//! one, inline on the caller otherwise.

use crate::access::{self, Access};
use crate::agg::{aggregate, distinct};
use crate::candidates::Candidates;
use crate::error::{EngineError, Result};
use crate::eval::{eval_mask, eval_scalar};
use crate::expr::Expr;
use crate::join::{cross_join, hash_join, index_join, JoinBuild};
use crate::obs::{self, Obs, StageTimer, TraceCollector};
use crate::physical::{ChunkOp, PhysicalPlan};
use crate::relation::Relation;
use crate::sched::{self, SchedPolicy};
use crate::sort::{limit, sort_relation};
use sommelier_storage::Database;
use std::sync::Arc;

/// Everything the executor needs besides the plan.
pub struct ExecContext<'a> {
    pub db: &'a Database,
    /// Materialized stage-1 results and chunk-wave outputs, indexed by
    /// `ResultScan { id }`. Shared (`Arc`) so a result referenced
    /// several times is never deep-copied.
    pub materialized: Vec<Arc<Relation>>,
    /// The query's span collector: each base-table scan records a
    /// `scan` span naming its access path.
    pub tracer: Option<&'a TraceCollector>,
}

impl<'a> ExecContext<'a> {
    /// A context with no materialized results.
    pub fn new(db: &'a Database) -> Self {
        ExecContext { db, materialized: Vec::new(), tracer: None }
    }

    /// Run one base-table access (a scan, or a join whose build side is
    /// one) and record its `scan` span.
    fn access<'p>(
        &self,
        run: impl FnOnce() -> Result<(Relation, Access<'p>)>,
    ) -> Result<Relation> {
        let timer = self.tracer.map(|tc| StageTimer::start(Some(tc), "scan"));
        let (rel, access) = run()?;
        if let Some(timer) = timer {
            timer.stop(|| access.to_string(), Some(rel.rows() as u64), None);
        }
        Ok(rel)
    }
}

/// The mask-then-copy scan the access paths replaced, kept as their
/// oracle: copy every row, attach `0..rows` as provenance, and filter
/// by the predicate's mask.
#[cfg(test)]
pub(crate) fn scan_masked(
    db: &Database,
    table: &str,
    columns: &[String],
    predicate: Option<&Expr>,
) -> Result<Relation> {
    let prefix = format!("{table}.");
    let raw: Vec<&str> = columns.iter().map(|c| c.strip_prefix(&prefix).unwrap()).collect();
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

/// The per-chunk stage-2 pipeline: scan-level projection, pushed-down
/// selection, optional probe of a shared pre-built join side, residual
/// filter — what the two-stage driver's chunk wave runs over each chunk.
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
    /// Pushed-down selection, if the scan has one.
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
/// order: the single front door for morsel-parallel work (the cellar's
/// streaming acquisition wave runs through it).
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
/// ns, tasks per batch).
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
        sched::count_batch(m, n, wall.elapsed().as_nanos() as u64, 0);
    }
    out
}

/// Execute a physical plan.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Relation> {
    match plan {
        PhysicalPlan::SeqScan { table, columns, predicate } => {
            ctx.access(|| access::scan(ctx.db, table, columns, predicate.as_ref()))
        }
        PhysicalPlan::ResultScan { id } => ctx
            .materialized
            .get(*id)
            // Shallow: the clone shares the column payloads.
            .map(|r| (**r).clone())
            .ok_or_else(|| EngineError::Exec(format!("no materialized result #{id}"))),
        PhysicalPlan::ChunkUnion { .. } | PhysicalPlan::PartialAggUnion { .. } => {
            Err(EngineError::Plan("chunk nodes run in the two-stage driver".into()))
        }
        PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => {
            let l = execute(left, ctx)?;
            // A build side that is a base-table scan is joined by key
            // runs when its order allows, and hash-joined otherwise.
            if let PhysicalPlan::SeqScan { table, columns, predicate } = &**right {
                return ctx.access(|| {
                    let predicate = predicate.as_ref();
                    access::join_scan(
                        ctx.db, &l, table, columns, predicate, left_keys, right_keys,
                    )
                });
            }
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
            let parent =
                ctx.access(|| access::scan(ctx.db, parent_table, parent_columns, None))?;
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
    use crate::physical::ChunkRef;
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
        let (rel, _) = access::scan(
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

    #[test]
    fn chunk_node_reaching_execute_is_a_plan_error() {
        let db = db();
        let ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::ChunkUnion {
            table: "D".into(),
            chunks: vec![ChunkRef { uri: "a".into(), cached: false }],
            columns: vec!["D.file_id".into()],
            predicate: None,
        };
        assert!(matches!(execute(&plan, &ctx), Err(EngineError::Plan(_))));
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
