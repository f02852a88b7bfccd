//! Physical plans and lowering from logical plans.
//!
//! Physical access paths follow §III of the paper: besides the base
//! *scan* and *index-scan* (here: [`PhysicalPlan::IndexJoin`], which
//! consumes the materialized FK join index), the paper adds
//! *result-scan* (reads the materialized result of `Qf`), *cache-scan*
//! and *chunk-access*. The latter two appear here as the per-chunk
//! entries of [`PhysicalPlan::ChunkUnion`] — the materialization of
//! run-time rewrite rule (1):
//!
//! ```text
//! scan(a) → ⋃_{f ∈ result-scan(Qf)}  cache-scan(f)   if f ∈ C
//!                                  | chunk-access(f)  otherwise
//! ```

use crate::error::{EngineError, Result};
use crate::expr::{AggFunc, CmpOp, Expr};
use crate::join::JoinBuild;
use crate::logical::LogicalPlan;
use crate::relation::Relation;
use sommelier_storage::Database;
use std::fmt;

/// One chunk reference in a rewritten actual-data scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef {
    /// Chunk URI (the file path in the repository).
    pub uri: String,
    /// True → cache-scan; false → chunk-access.
    pub cached: bool,
}

/// The per-chunk hash join of a [`PhysicalPlan::PartialAggUnion`]: the
/// build side is chunk-free (typically the stage-1 result-scan) and is
/// executed once; every chunk probes it independently.
#[derive(Debug, Clone)]
pub struct PartialJoin {
    pub right: Box<PhysicalPlan>,
    pub left_keys: Vec<Expr>,
    pub right_keys: Vec<Expr>,
    /// The column references above the join (in the chunk ops, group
    /// keys and aggregates) that can name a build column. The join
    /// outputs only the build columns these match, by the rule
    /// [`Relation::resolve`] uses, so every reference resolves as it
    /// would against the full build side.
    pub keep: Vec<String>,
}

impl PartialJoin {
    /// Does a reference in [`PartialJoin::keep`] match build column
    /// `name` (exactly, or as its `.suffix`)?
    pub(crate) fn keeps(&self, name: &str) -> bool {
        self.keep.iter().any(|r| {
            name == r || name.strip_suffix(r.as_str()).is_some_and(|head| head.ends_with('.'))
        })
    }

    /// Build the shared join side from the executed build relation,
    /// keeping only the build columns the pipeline reads.
    pub(crate) fn build(&self, right: Relation) -> Result<JoinBuild> {
        JoinBuild::new(right, &self.right_keys, |name| self.keeps(name))
    }
}

/// The references that can name a build column of a per-chunk join:
/// every column the ops, group keys and aggregates read off the join's
/// output, up to the first projection (which replaces that output),
/// except references that exactly name a probe column (those resolve
/// to the probe side whatever the build side holds).
fn build_references(
    probe_columns: &[String],
    ops: &[ChunkOp],
    group_by: &[(String, Expr)],
    aggs: &[(String, AggFunc, Expr)],
) -> Vec<String> {
    let mut exprs: Vec<&Expr> = Vec::new();
    let mut projected = false;
    for op in ops {
        match op {
            ChunkOp::Filter(p) => exprs.push(p),
            ChunkOp::Project(cols) => {
                exprs.extend(cols.iter().map(|(_, e)| e));
                projected = true;
                break;
            }
        }
    }
    if !projected {
        exprs.extend(group_by.iter().map(|(_, e)| e));
        exprs.extend(aggs.iter().map(|(_, _, e)| e));
    }
    let mut refs: Vec<String> = Vec::new();
    for c in exprs.iter().flat_map(|e| e.columns()) {
        if !probe_columns.iter().any(|p| p == c) && !refs.iter().any(|r| r == c) {
            refs.push(c.to_string());
        }
    }
    refs
}

/// One row-local operator folded into a per-chunk pipeline (the
/// `Filter`/`Project` nodes that sat between the chunk scan/join and
/// the fused aggregate), applied per chunk in order.
#[derive(Debug, Clone)]
pub enum ChunkOp {
    /// Residual selection.
    Filter(Expr),
    /// Projection / column computation.
    Project(Vec<(String, Expr)>),
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table (scan-level projection +
    /// pushed-down selection).
    SeqScan { table: String, columns: Vec<String>, predicate: Option<Expr> },
    /// Scan of a materialized stage-1 result (`result-scan`).
    ResultScan { id: usize },
    /// The rewritten `scan(a)`: union of cache-scans and chunk-accesses,
    /// the selection applied inside each per-chunk access.
    ChunkUnion {
        table: String,
        chunks: Vec<ChunkRef>,
        columns: Vec<String>,
        predicate: Option<Expr>,
    },
    /// Morsel-parallel aggregation over a rewritten actual-data scan:
    /// per chunk, scan-level projection → pushed-down selection →
    /// (optional) hash join against a chunk-free build side → residual
    /// filter → **partial aggregation**; the per-chunk states merge in
    /// chunk order ([`crate::agg::merge_partials`]). The union of chunk
    /// rows is never materialized, and the chunks run on a worker pool.
    /// Produced by [`fuse_partial_agg`] from `Aggregate` roots over
    /// `ChunkUnion`s.
    PartialAggUnion {
        table: String,
        chunks: Vec<ChunkRef>,
        columns: Vec<String>,
        /// The scan's pushed-down selection (applied per chunk).
        predicate: Option<Expr>,
        /// Per-chunk probe of a shared build side, if the aggregate sat
        /// over a join.
        join: Option<PartialJoin>,
        /// Residual filters/projections that sat between the scan/join
        /// and the aggregate, applied per chunk in order (after the
        /// join).
        ops: Vec<ChunkOp>,
        group_by: Vec<(String, Expr)>,
        aggs: Vec<(String, AggFunc, Expr)>,
    },
    /// Hash equi-join (build right, probe left).
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    },
    /// Index join through a materialized FK join index (child side must
    /// carry base-table provenance).
    IndexJoin {
        child: Box<PhysicalPlan>,
        child_table: String,
        parent_table: String,
        parent_columns: Vec<String>,
        parent_predicate: Option<Expr>,
    },
    /// Cross product.
    Cross { left: Box<PhysicalPlan>, right: Box<PhysicalPlan> },
    /// Residual filter.
    Filter { input: Box<PhysicalPlan>, predicate: Expr },
    /// Projection.
    Project { input: Box<PhysicalPlan>, exprs: Vec<(String, Expr)> },
    /// Hash aggregation.
    Aggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<(String, Expr)>,
        aggs: Vec<(String, AggFunc, Expr)>,
    },
    /// Duplicate elimination.
    Distinct { input: Box<PhysicalPlan> },
    /// Ordering.
    Sort { input: Box<PhysicalPlan>, keys: Vec<(String, bool)> },
    /// Row cap.
    Limit { input: Box<PhysicalPlan>, n: usize },
}

/// EXPLAIN's `range` lines for a per-chunk selection: its comparisons
/// between a column and a literal, one interval per column (`[`/`]`
/// inclusive, `(`/`)` exclusive). Whether a range is binary-searched
/// is decided per chunk: only on a chunk whose decoder flags the
/// column sorted ([`crate::candidates::Candidates::filter`]); on any
/// other chunk the conjunct is evaluated row by row.
fn write_ranges(f: &mut fmt::Formatter<'_>, pad: &str, pred: &Expr) -> fmt::Result {
    // (column, lower bound, upper bound) in first-appearance order; a
    // bound a column's last interval already has opens a new one.
    let mut intervals: Vec<(&str, Option<String>, Option<String>)> = Vec::new();
    for (col, op, lit) in pred.conjuncts().into_iter().filter_map(Expr::as_range) {
        let (lo, hi) = match op {
            CmpOp::Eq => (Some(format!("[{lit}")), Some(format!("{lit}]"))),
            CmpOp::Gt => (Some(format!("({lit}")), None),
            CmpOp::Ge => (Some(format!("[{lit}")), None),
            CmpOp::Lt => (None, Some(format!("{lit})"))),
            CmpOp::Le => (None, Some(format!("{lit}]"))),
            CmpOp::Ne => unreachable!("as_range excludes <>"),
        };
        let last = intervals.iter_mut().rev().find(|(c, ..)| *c == col);
        match last {
            Some((_, l, h))
                if !(lo.is_some() && l.is_some() || hi.is_some() && h.is_some()) =>
            {
                *l = lo.or(l.take());
                *h = hi.or(h.take());
            }
            _ => intervals.push((col, lo, hi)),
        }
    }
    for (col, lo, hi) in intervals {
        let lo = lo.unwrap_or_else(|| "(-inf".into());
        let hi = hi.unwrap_or_else(|| "+inf)".into());
        writeln!(f, "{pad}  range {col} {lo}, {hi}")?;
    }
    Ok(())
}

/// Options controlling logical → physical lowering.
pub struct LowerOptions<'a> {
    /// The database: a join lowers to an index join where it holds the
    /// FK join index (only the *eager index* variants build one).
    pub db: &'a Database,
    /// Expansion of [`LogicalPlan::LazyScan`]: the chunk list computed
    /// by the run-time optimizer. `None` means lazy scans are an error
    /// (stage-1 lowering and eager plans).
    pub lazy_chunks: Option<&'a [ChunkRef]>,
    /// What [`LogicalPlan::QfMark`] lowers to: a result-scan of the
    /// given materialized id, or (if `None`) inline pass-through.
    pub qf_result_id: Option<usize>,
}

/// Which base table a subtree's rows still correspond to 1:1 (provenance
/// chain): scans and filters preserve it, and joins preserve the left
/// (probe/child) side's.
fn provenance_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some(table),
        LogicalPlan::Filter { input, .. } => provenance_table(input),
        LogicalPlan::Join { left, .. } => provenance_table(left),
        _ => None,
    }
}

/// Lower a logical plan to a physical plan.
pub fn lower(plan: &LogicalPlan, opts: &LowerOptions) -> Result<PhysicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { table, columns, predicate } => PhysicalPlan::SeqScan {
            table: table.clone(),
            columns: columns.clone(),
            predicate: predicate.clone(),
        },
        LogicalPlan::LazyScan { table, columns, predicate } => {
            let chunks = opts.lazy_chunks.ok_or_else(|| {
                EngineError::Plan(format!(
                    "lazy scan of {table} reached lowering without a chunk list \
                     (stage-2 rewrite missing)"
                ))
            })?;
            PhysicalPlan::ChunkUnion {
                table: table.clone(),
                chunks: chunks.to_vec(),
                columns: columns.clone(),
                predicate: predicate.clone(),
            }
        }
        LogicalPlan::QfMark { input } => match opts.qf_result_id {
            Some(id) => PhysicalPlan::ResultScan { id },
            None => lower(input, opts)?,
        },
        LogicalPlan::Join { left, right, left_keys, right_keys } => {
            // Index-join detection: child chain ⋈ parent base scan on a
            // simple FK → PK column equality, with the join index built.
            if let (
                Some(child_table),
                LogicalPlan::Scan { table: parent, columns, predicate },
            ) = (provenance_table(left), &**right)
            {
                if opts.db.join_index(child_table, parent).is_some() {
                    let simple = left_keys.iter().zip(right_keys).all(|(l, r)| {
                        matches!(
                            (l, r),
                            (Expr::Col(a), Expr::Col(b))
                                if a.starts_with(&format!("{child_table}."))
                                    && b.starts_with(&format!("{parent}."))
                        )
                    });
                    if simple {
                        return Ok(PhysicalPlan::IndexJoin {
                            child: Box::new(lower(left, opts)?),
                            child_table: child_table.to_string(),
                            parent_table: parent.clone(),
                            parent_columns: columns.clone(),
                            parent_predicate: predicate.clone(),
                        });
                    }
                }
            }
            PhysicalPlan::HashJoin {
                left: Box::new(lower(left, opts)?),
                right: Box::new(lower(right, opts)?),
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
            }
        }
        LogicalPlan::Cross { left, right } => PhysicalPlan::Cross {
            left: Box::new(lower(left, opts)?),
            right: Box::new(lower(right, opts)?),
        },
        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(lower(input, opts)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, exprs } => PhysicalPlan::Project {
            input: Box::new(lower(input, opts)?),
            exprs: exprs.clone(),
        },
        LogicalPlan::Aggregate { input, group_by, aggs } => PhysicalPlan::Aggregate {
            input: Box::new(lower(input, opts)?),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::Distinct { input } => {
            PhysicalPlan::Distinct { input: Box::new(lower(input, opts)?) }
        }
        LogicalPlan::Sort { input, keys } => {
            PhysicalPlan::Sort { input: Box::new(lower(input, opts)?), keys: keys.clone() }
        }
        LogicalPlan::Limit { input, n } => {
            PhysicalPlan::Limit { input: Box::new(lower(input, opts)?), n: *n }
        }
    })
}

/// Can this aggregate input chain be fused into a
/// [`PhysicalPlan::PartialAggUnion`]? The chain may pass through any
/// number of row-local `Filter`/`Project` nodes and at most one
/// `HashJoin` whose probe (left) side is a `ChunkUnion` and whose build
/// side reads no chunks.
fn fusable(input: &PhysicalPlan) -> bool {
    match input {
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            fusable(input)
        }
        PhysicalPlan::ChunkUnion { .. } => true,
        PhysicalPlan::HashJoin { left, right, .. } => {
            matches!(&**left, PhysicalPlan::ChunkUnion { .. }) && !contains_chunk_scan(right)
        }
        _ => false,
    }
}

/// Does the subtree read lazily loaded chunks?
fn contains_chunk_scan(plan: &PhysicalPlan) -> bool {
    matches!(plan, PhysicalPlan::ChunkUnion { .. } | PhysicalPlan::PartialAggUnion { .. })
        || plan.children().iter().any(|c| contains_chunk_scan(c))
}

/// Rewrite every `Aggregate` whose input chains down to a
/// `ChunkUnion` (optionally through residual filters and one hash join
/// against a chunk-free build side — the shape of every two-stage
/// T1–T5 aggregate plan) into a [`PhysicalPlan::PartialAggUnion`], so
/// stage 2 aggregates chunk-by-chunk and never materializes the union.
pub fn fuse_partial_agg(plan: PhysicalPlan) -> PhysicalPlan {
    let plan = match plan {
        PhysicalPlan::Aggregate { input, group_by, aggs } if fusable(&input) => {
            return fuse_chain(*input, Vec::new(), group_by, aggs);
        }
        other => other,
    };
    plan.map_children(&fuse_partial_agg)
}

/// Destructure a `fusable` chain into the fused node. `ops`
/// accumulates the row-local operators outermost-first.
fn fuse_chain(
    node: PhysicalPlan,
    mut ops: Vec<ChunkOp>,
    group_by: Vec<(String, Expr)>,
    aggs: Vec<(String, AggFunc, Expr)>,
) -> PhysicalPlan {
    match node {
        PhysicalPlan::Filter { input, predicate } => {
            ops.push(ChunkOp::Filter(predicate));
            fuse_chain(*input, ops, group_by, aggs)
        }
        PhysicalPlan::Project { input, exprs } => {
            ops.push(ChunkOp::Project(exprs));
            fuse_chain(*input, ops, group_by, aggs)
        }
        PhysicalPlan::ChunkUnion { table, chunks, columns, predicate, .. } => {
            ops.reverse(); // apply in inner→outer order
            PhysicalPlan::PartialAggUnion {
                table,
                chunks,
                columns,
                predicate,
                join: None,
                ops,
                group_by,
                aggs,
            }
        }
        PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => match *left {
            PhysicalPlan::ChunkUnion { table, chunks, columns, predicate, .. } => {
                ops.reverse();
                let keep = build_references(&columns, &ops, &group_by, &aggs);
                PhysicalPlan::PartialAggUnion {
                    table,
                    chunks,
                    columns,
                    predicate,
                    join: Some(PartialJoin { right, left_keys, right_keys, keep }),
                    ops,
                    group_by,
                    aggs,
                }
            }
            _ => unreachable!("fusable() guarantees a chunk-union probe side"),
        },
        _ => unreachable!("fusable() guarantees the chain shape"),
    }
}

impl PhysicalPlan {
    /// Direct children, in probe-then-build order.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::ResultScan { .. }
            | PhysicalPlan::ChunkUnion { .. } => Vec::new(),
            PhysicalPlan::PartialAggUnion { join, .. } => {
                join.iter().map(|j| j.right.as_ref()).collect()
            }
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::Cross { left, right } => vec![left, right],
            PhysicalPlan::IndexJoin { child, .. } => vec![child],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
        }
    }

    /// Rebuild this node with `f` applied to every direct child.
    fn map_children(self, f: &dyn Fn(PhysicalPlan) -> PhysicalPlan) -> PhysicalPlan {
        match self {
            leaf @ (PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::ResultScan { .. }
            | PhysicalPlan::ChunkUnion { .. }) => leaf,
            PhysicalPlan::PartialAggUnion {
                table,
                chunks,
                columns,
                predicate,
                join,
                ops,
                group_by,
                aggs,
            } => PhysicalPlan::PartialAggUnion {
                table,
                chunks,
                columns,
                predicate,
                join: join.map(|j| PartialJoin { right: Box::new(f(*j.right)), ..j }),
                ops,
                group_by,
                aggs,
            },
            PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => {
                PhysicalPlan::HashJoin {
                    left: Box::new(f(*left)),
                    right: Box::new(f(*right)),
                    left_keys,
                    right_keys,
                }
            }
            PhysicalPlan::Cross { left, right } => {
                PhysicalPlan::Cross { left: Box::new(f(*left)), right: Box::new(f(*right)) }
            }
            PhysicalPlan::IndexJoin {
                child,
                child_table,
                parent_table,
                parent_columns,
                parent_predicate,
            } => PhysicalPlan::IndexJoin {
                child: Box::new(f(*child)),
                child_table,
                parent_table,
                parent_columns,
                parent_predicate,
            },
            PhysicalPlan::Filter { input, predicate } => {
                PhysicalPlan::Filter { input: Box::new(f(*input)), predicate }
            }
            PhysicalPlan::Project { input, exprs } => {
                PhysicalPlan::Project { input: Box::new(f(*input)), exprs }
            }
            PhysicalPlan::Aggregate { input, group_by, aggs } => {
                PhysicalPlan::Aggregate { input: Box::new(f(*input)), group_by, aggs }
            }
            PhysicalPlan::Distinct { input } => {
                PhysicalPlan::Distinct { input: Box::new(f(*input)) }
            }
            PhysicalPlan::Sort { input, keys } => {
                PhysicalPlan::Sort { input: Box::new(f(*input)), keys }
            }
            PhysicalPlan::Limit { input, n } => {
                PhysicalPlan::Limit { input: Box::new(f(*input)), n }
            }
        }
    }

    /// Pre-order mutable visit of every node (including the build side
    /// of a [`PhysicalPlan::PartialAggUnion`]).
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut PhysicalPlan)) {
        f(self);
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::ResultScan { .. }
            | PhysicalPlan::ChunkUnion { .. } => {}
            PhysicalPlan::PartialAggUnion { join, .. } => {
                if let Some(j) = join {
                    j.right.visit_mut(f);
                }
            }
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::Cross { left, right } => {
                left.visit_mut(f);
                right.visit_mut(f);
            }
            PhysicalPlan::IndexJoin { child, .. } => child.visit_mut(f),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.visit_mut(f),
        }
    }

    /// Number of [`PhysicalPlan::PartialAggUnion`] nodes in the plan.
    pub fn partial_agg_count(&self) -> usize {
        let own = usize::from(matches!(self, PhysicalPlan::PartialAggUnion { .. }));
        own + self.children().iter().map(|c| c.partial_agg_count()).sum::<usize>()
    }

    /// Take the plan's chunk node — its [`PhysicalPlan::ChunkUnion`] or
    /// [`PhysicalPlan::PartialAggUnion`] — and leave a result-scan of
    /// materialized slot `id` in its place: the hand-off to the
    /// two-stage driver, which runs the node as one chunk wave. A
    /// source has one actual-data table and a plan scans it once, so a
    /// second chunk node is a plan error.
    pub fn take_chunk_node(&mut self, id: usize) -> Result<Option<PhysicalPlan>> {
        let mut taken = Vec::new();
        self.visit_mut(&mut |node| {
            if matches!(
                node,
                PhysicalPlan::ChunkUnion { .. } | PhysicalPlan::PartialAggUnion { .. }
            ) {
                taken.push(std::mem::replace(node, PhysicalPlan::ResultScan { id }));
            }
        });
        if taken.len() > 1 {
            return Err(EngineError::Plan(format!(
                "plan has {} chunk nodes; stage 2 runs one chunk wave",
                taken.len()
            )));
        }
        Ok(taken.pop())
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PhysicalPlan::SeqScan { table, columns, predicate } => {
                write!(f, "{pad}SeqScan {table} [{}]", columns.join(", "))?;
                if let Some(p) = predicate {
                    write!(f, " where {p}")?;
                }
                writeln!(f)
            }
            PhysicalPlan::ResultScan { id } => writeln!(f, "{pad}ResultScan #{id}"),
            PhysicalPlan::ChunkUnion { table, chunks, predicate, .. } => {
                let cached = chunks.iter().filter(|c| c.cached).count();
                write!(
                    f,
                    "{pad}ChunkUnion {table}: {} chunk-access + {cached} cache-scan",
                    chunks.len() - cached
                )?;
                if let Some(p) = predicate {
                    write!(f, " where {p} (pushed into chunks)")?;
                }
                writeln!(f)?;
                match predicate {
                    Some(p) => write_ranges(f, &pad, p),
                    None => Ok(()),
                }
            }
            PhysicalPlan::PartialAggUnion {
                table,
                chunks,
                predicate,
                join,
                ops,
                group_by,
                aggs,
                ..
            } => {
                let cached = chunks.iter().filter(|c| c.cached).count();
                let gs: Vec<String> = group_by.iter().map(|(n, _)| n.clone()).collect();
                let asr: Vec<String> = aggs
                    .iter()
                    .map(|(n, a, e)| format!("{}({e}) AS {n}", a.name()))
                    .collect();
                write!(
                    f,
                    "{pad}PartialAggUnion {table}: {} chunk-access + {cached} cache-scan, \
                     group=[{}] aggs=[{}]",
                    chunks.len() - cached,
                    gs.join(", "),
                    asr.join(", ")
                )?;
                if let Some(p) = predicate {
                    write!(f, " where {p} (pushed into chunks)")?;
                }
                for op in ops {
                    match op {
                        ChunkOp::Filter(p) => write!(f, " residual {p}")?,
                        ChunkOp::Project(exprs) => {
                            let cols: Vec<String> =
                                exprs.iter().map(|(n, e)| format!("{e} AS {n}")).collect();
                            write!(f, " project [{}]", cols.join(", "))?;
                        }
                    }
                }
                writeln!(f)?;
                if let Some(p) = predicate {
                    write_ranges(f, &pad, p)?;
                }
                if let Some(j) = join {
                    let keys: Vec<String> = j
                        .left_keys
                        .iter()
                        .zip(&j.right_keys)
                        .map(|(l, r)| format!("{l} = {r}"))
                        .collect();
                    writeln!(
                        f,
                        "{pad}  per-chunk probe on {} keeps [{}]",
                        keys.join(" AND "),
                        j.keep.join(", ")
                    )?;
                    j.right.fmt_indent(f, indent + 2)?;
                }
                Ok(())
            }
            PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                writeln!(f, "{pad}HashJoin on {}", keys.join(" AND "))?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::IndexJoin {
                child,
                child_table,
                parent_table,
                parent_predicate,
                ..
            } => {
                write!(f, "{pad}IndexJoin {child_table} -> {parent_table}")?;
                if let Some(p) = parent_predicate {
                    write!(f, " where {p}")?;
                }
                writeln!(f)?;
                child.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Cross { left, right } => {
                writeln!(f, "{pad}Cross")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter {predicate}")?;
                input.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Project { input, exprs } => {
                let cols: Vec<String> =
                    exprs.iter().map(|(n, e)| format!("{e} AS {n}")).collect();
                writeln!(f, "{pad}Project [{}]", cols.join(", "))?;
                input.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Aggregate { input, group_by, aggs } => {
                let gs: Vec<String> = group_by.iter().map(|(n, _)| n.clone()).collect();
                let asr: Vec<String> = aggs
                    .iter()
                    .map(|(n, a, e)| format!("{}({e}) AS {n}", a.name()))
                    .collect();
                writeln!(
                    f,
                    "{pad}Aggregate group=[{}] aggs=[{}]",
                    gs.join(", "),
                    asr.join(", ")
                )?;
                input.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(c, asc)| format!("{c} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                writeln!(f, "{pad}Sort [{}]", ks.join(", "))?;
                input.fmt_indent(f, indent + 1)
            }
            PhysicalPlan::Limit { input, n } => {
                writeln!(f, "{pad}Limit {n}")?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::buffer::BufferPoolConfig;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::{ColumnData, ConstraintPolicy, TableClass, TableSchema};

    fn db_without_index() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(
            TableSchema::new("F", TableClass::MetadataGiven)
                .column("file_id", sommelier_storage::DataType::Int64)
                .primary_key(["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData)
                .column("file_id", sommelier_storage::DataType::Int64)
                .foreign_key(["file_id"], "F", ["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        db.append("F", &[ColumnData::Int64(vec![1, 2])], ConstraintPolicy::all()).unwrap();
        db.append("D", &[ColumnData::Int64(vec![1, 2, 1])], ConstraintPolicy::all()).unwrap();
        db
    }

    fn db_with_index() -> Database {
        let db = db_without_index();
        db.build_join_indices("D").unwrap();
        db
    }

    fn join_plan() -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "D".into(),
                columns: vec!["D.file_id".into()],
                predicate: None,
            }),
            right: Box::new(LogicalPlan::Scan {
                table: "F".into(),
                columns: vec!["F.file_id".into()],
                predicate: None,
            }),
            left_keys: vec![Expr::col("D.file_id")],
            right_keys: vec![Expr::col("F.file_id")],
        }
    }

    #[test]
    fn index_join_selected_when_available() {
        let db = db_with_index();
        let opts = LowerOptions { db: &db, lazy_chunks: None, qf_result_id: None };
        let phys = lower(&join_plan(), &opts).unwrap();
        assert!(matches!(phys, PhysicalPlan::IndexJoin { .. }), "got {phys}");
        // No join index built: falls back to hash join.
        let db = db_without_index();
        let opts = LowerOptions { db: &db, ..opts };
        let phys = lower(&join_plan(), &opts).unwrap();
        assert!(matches!(phys, PhysicalPlan::HashJoin { .. }), "got {phys}");
    }

    /// Fusion records the references that can name a build column:
    /// exact probe columns drop out, bare names stay (they may resolve
    /// by suffix), and nothing past the first projection counts.
    #[test]
    fn fusion_keeps_only_referenced_build_columns() {
        let chunk = PhysicalPlan::ChunkUnion {
            table: "D".into(),
            chunks: Vec::new(),
            columns: vec!["D.file_id".into(), "D.sample_value".into()],
            predicate: None,
        };
        let join = |input: PhysicalPlan| PhysicalPlan::HashJoin {
            left: Box::new(input),
            right: Box::new(PhysicalPlan::ResultScan { id: 0 }),
            left_keys: vec![Expr::col("D.file_id")],
            right_keys: vec![Expr::col("F.file_id")],
        };
        let keep_of = |plan: PhysicalPlan| match fuse_partial_agg(plan) {
            PhysicalPlan::PartialAggUnion { join: Some(j), .. } => j,
            other => panic!("not fused: {other}"),
        };
        let fused = keep_of(PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(join(chunk.clone())),
                predicate: Expr::col("network").eq(Expr::lit("IV")),
            }),
            group_by: vec![("station".into(), Expr::col("F.station"))],
            aggs: vec![("a".into(), AggFunc::Avg, Expr::col("D.sample_value"))],
        });
        assert_eq!(fused.keep, vec!["network", "F.station"]);
        assert!(fused.keeps("F.network") && fused.keeps("F.station"));
        assert!(!fused.keeps("F.channel") && !fused.keeps("F.xnetwork"));
        // A projection replaces the join's output: only its expressions
        // read build columns.
        let fused = keep_of(PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(join(chunk)),
                exprs: vec![("v".into(), Expr::col("D.sample_value"))],
            }),
            group_by: vec![("station".into(), Expr::col("station"))],
            aggs: vec![("n".into(), AggFunc::Count, Expr::col("v"))],
        });
        assert!(fused.keep.is_empty(), "{:?}", fused.keep);
    }

    #[test]
    fn lazy_scan_without_chunks_is_error() {
        let db = db_with_index();
        let opts = LowerOptions { db: &db, lazy_chunks: None, qf_result_id: None };
        let plan = LogicalPlan::LazyScan {
            table: "D".into(),
            columns: vec!["D.file_id".into()],
            predicate: None,
        };
        assert!(lower(&plan, &opts).is_err());
    }

    #[test]
    fn lazy_scan_expands_to_chunk_union() {
        let db = db_with_index();
        let chunks = vec![
            ChunkRef { uri: "a.msd".into(), cached: false },
            ChunkRef { uri: "b.msd".into(), cached: true },
        ];
        let opts =
            LowerOptions { db: &db, lazy_chunks: Some(&chunks), qf_result_id: Some(0) };
        let plan = LogicalPlan::QfMark {
            input: Box::new(LogicalPlan::Scan {
                table: "F".into(),
                columns: vec!["F.file_id".into()],
                predicate: None,
            }),
        };
        let phys = lower(&plan, &opts).unwrap();
        assert!(matches!(phys, PhysicalPlan::ResultScan { id: 0 }));
        let plan = LogicalPlan::LazyScan {
            table: "D".into(),
            columns: vec!["D.file_id".into()],
            predicate: None,
        };
        match lower(&plan, &opts).unwrap() {
            PhysicalPlan::ChunkUnion { chunks, .. } => {
                assert_eq!(chunks.len(), 2);
                assert!(chunks[1].cached);
            }
            other => panic!("expected ChunkUnion, got {other}"),
        }
    }
}
