//! The optimizer passes, as plain functions. Each returns its output
//! plus whether it fired and a one-line detail; [`super::compile_plan`]
//! and [`super::rewrite_stage2`] call them in order and time them.

use super::{ColumnZone, ZoneCandidateFn, ZoneCandidates, ZoneConstraint, ZoneMapFn};
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::joinorder::{plan_query, PlanOptions};
use crate::logical::LogicalPlan;
use crate::physical::{fuse_partial_agg, lower, ChunkRef, LowerOptions, PhysicalPlan};
use crate::spec::QuerySpec;
use sommelier_storage::{Database, Value};
use std::collections::HashSet;

/// `join_order` — the paper's R1–R4 metadata-first decomposition
/// (`Q = Qf ▷ Qs`) or, for eager plans, the traditional greedy order.
pub fn join_order(
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<(LogicalPlan, bool, String)> {
    let plan = plan_query(spec, opts)?;
    let detail = if opts.lazy {
        match plan.qf() {
            Some(qf) => format!(
                "metadata-first: Qf over [{}]{}",
                qf.tables().join(", "),
                if plan.has_lazy_scan() { ", lazy actual-data scans above" } else { "" }
            ),
            None => "metadata-first: no metadata tables (pure actual-data)".into(),
        }
    } else {
        "traditional greedy order (eager plan)".into()
    };
    Ok((plan, true, detail))
}

/// `zone_map_pruning` — drop chunks whose recorded min/max zone maps
/// contradict the lazy scan's pushed-down predicate, before any decode
/// is scheduled. With several lazy scans (which share one chunk list),
/// a chunk is dropped only if *every* scan's predicate contradicts it.
/// Returns how many chunks it dropped from `chunks`.
pub fn zone_map_pruning(
    plan: &LogicalPlan,
    chunks: Option<&mut Vec<ChunkRef>>,
    zones: Option<&ZoneMapFn<'_>>,
    zone_candidates: Option<&ZoneCandidateFn<'_>>,
    enabled: bool,
) -> (usize, bool, String) {
    let skipped = |detail: &str| (0, false, detail.to_string());
    if !enabled {
        return skipped("disabled by config");
    }
    let Some(chunks) = chunks else {
        return skipped("no run-time chunk list");
    };
    let Some(zones) = zones else {
        // EXPLAIN has no zone provider; the pass is armed and applies
        // once the chunk list is real.
        return skipped("armed; chunk zones resolved at run time");
    };
    let mut predicates: Vec<Option<&Expr>> = Vec::new();
    plan.visit(&mut |p| {
        if let LogicalPlan::LazyScan { predicate, .. } = p {
            predicates.push(predicate.as_ref());
        }
    });
    if predicates.is_empty() || predicates.iter().any(|p| p.is_none()) {
        return skipped("no pushed-down predicate on the lazy scans");
    }
    // Split each predicate into conjuncts once, not once per chunk.
    let conjunct_sets: Vec<Vec<&Expr>> =
        predicates.iter().map(|p| p.expect("checked above").conjuncts()).collect();
    let before = chunks.len();

    // Indexed prefilter: ask the registry's sorted interval index
    // which chunks may satisfy each scan's constraints
    // (O(log n + hits) instead of touching every chunk's zones). A
    // chunk survives if *any* scan's candidate set keeps it; the
    // exact per-chunk checks below then run on the survivors only —
    // so an over-approximating index stays sound and the final
    // chunk list is identical to the unindexed path.
    let mut indexed = false;
    if let Some(index) = zone_candidates {
        let mut keep: HashSet<std::sync::Arc<str>> = HashSet::new();
        let mut keep_all = false;
        for conjuncts in &conjunct_sets {
            let constraints: Vec<ZoneConstraint> =
                conjuncts.iter().copied().filter_map(as_zone_constraint).collect();
            match (!constraints.is_empty()).then(|| index(&constraints)).flatten() {
                Some(ZoneCandidates::Uris(uris)) => keep.extend(uris),
                // This scan constrains nothing the index can see:
                // every chunk survives the prefilter.
                Some(ZoneCandidates::All) | None => {
                    keep_all = true;
                    break;
                }
            }
        }
        if !keep_all {
            chunks.retain(|c| keep.contains(c.uri.as_str()));
            indexed = true;
        }
    }

    // Exact per-chunk zone checks on the (prefiltered) list.
    chunks.retain(|c| {
        let Some(zone) = zones(&c.uri) else { return true };
        // Prunable only if every lazy scan's predicate rules the
        // chunk out.
        !conjunct_sets
            .iter()
            .all(|conjuncts| conjuncts.iter().any(|c| conjunct_contradicted(c, &zone)))
    });
    let pruned = before - chunks.len();
    let how = if indexed { "indexed" } else { "scanned" };
    if pruned == 0 {
        (0, false, format!("no chunk of {before} contradicted ({how})"))
    } else {
        (pruned, true, format!("pruned {pruned} of {before} chunks ({how})"))
    }
}

/// A `column ⟨op⟩ literal` conjunct as the constraint a zone interval
/// index answers ([`Expr::as_range`]); `None` for any other shape.
fn as_zone_constraint(conjunct: &Expr) -> Option<ZoneConstraint> {
    let (column, op, value) = conjunct.as_range()?;
    Some(ZoneConstraint { column: column.into(), op, value: value.clone() })
}

/// The zone constraints of every lazy scan's pushed-down predicate in
/// `plan` — one entry per lazy scan carrying a predicate. This is how
/// `EXPLAIN` probes the registry's zone index for a candidate count
/// without running the query (at plan time the chunk list is not yet
/// real, so `zone_map_pruning` itself only reports "armed").
pub fn plan_zone_constraints(plan: &LogicalPlan) -> Vec<Vec<ZoneConstraint>> {
    let mut out = Vec::new();
    plan.visit(&mut |p| {
        if let LogicalPlan::LazyScan { predicate: Some(pred), .. } = p {
            out.push(pred.conjuncts().into_iter().filter_map(as_zone_constraint).collect());
        }
    });
    out
}

/// Is `column ⟨op⟩ lit` provably false for every row of a chunk with
/// the given zones? The single source of truth for zone contradiction —
/// the pruning pass, the core registry's linear scan and the interval
/// index's equivalence tests all funnel through it.
pub fn zone_conjunct_contradicted(
    op: CmpOp,
    column: &str,
    lit: &Value,
    zones: &[ColumnZone],
) -> bool {
    let Some(zone) = zones.iter().find(|z| z.column == column) else { return false };
    // Coerce the literal into the zone's type family (e.g. a quoted
    // timestamp against a Time zone); incomparable → keep the chunk.
    let lit = match zone.min.data_type().and_then(|t| lit.coerce_to(t).ok()) {
        Some(v) => v,
        None => return false,
    };
    let (Ok(min_lit), Ok(max_lit)) = (zone.min.compare(&lit), zone.max.compare(&lit)) else {
        return false;
    };
    use std::cmp::Ordering::*;
    match op {
        // col < L: impossible if even the smallest value is >= L.
        CmpOp::Lt => matches!(min_lit, Greater | Equal),
        // col <= L: impossible if min > L.
        CmpOp::Le => matches!(min_lit, Greater),
        // col > L: impossible if even the largest value is <= L.
        CmpOp::Gt => matches!(max_lit, Less | Equal),
        // col >= L: impossible if max < L.
        CmpOp::Ge => matches!(max_lit, Less),
        // col = L: impossible if L lies outside [min, max].
        CmpOp::Eq => matches!(min_lit, Greater) || matches!(max_lit, Less),
        CmpOp::Ne => false,
    }
}

/// Is `pred` provably false for every row of a chunk with the given
/// zones? Only plain `col ⟨op⟩ literal` conjuncts can contradict;
/// anything else (disjunctions, computed columns, unzoned columns)
/// conservatively keeps the chunk. (The pass itself pre-splits the
/// conjunctions; this convenience form drives the unit tests.)
#[cfg(test)]
fn contradicted(pred: &Expr, zones: &[ColumnZone]) -> bool {
    pred.conjuncts().into_iter().any(|c| conjunct_contradicted(c, zones))
}

fn conjunct_contradicted(conjunct: &Expr, zones: &[ColumnZone]) -> bool {
    conjunct
        .as_range()
        .is_some_and(|(col, op, lit)| zone_conjunct_contradicted(op, col, lit, zones))
}

/// `chunk_rewrite` — the run-time rewrite rule (1): every lazy
/// `scan(a)` becomes the union of cache-scans and chunk-accesses over
/// the stage-1 chunk list, with the scan's selection pushed into each
/// access, and the plan lowers to physical operators (`QfMark` →
/// result-scan, index joins where `db` holds the join index).
pub fn chunk_rewrite(
    plan: &LogicalPlan,
    db: &Database,
    chunks: Option<&[ChunkRef]>,
    qf_result_id: Option<usize>,
) -> Result<(PhysicalPlan, bool, String)> {
    let opts = LowerOptions { db, lazy_chunks: chunks, qf_result_id };
    let phys = lower(plan, &opts)?;
    Ok(match chunks {
        Some(chunks) => {
            let cached = chunks.iter().filter(|c| c.cached).count();
            let detail = format!(
                "lazy scans -> union of {cached} cache-scan + {} chunk-access",
                chunks.len() - cached
            );
            (phys, true, detail)
        }
        None => (phys, false, "lowered (no lazy scans)".into()),
    })
}

/// `partial_agg_fusion` — rewrite `Aggregate` over a chunk union
/// (optionally through residual filters and one hash join against a
/// chunk-free build side) into a [`PhysicalPlan::PartialAggUnion`], so
/// stage 2 aggregates chunk-by-chunk and never materializes the union.
pub fn partial_agg_fusion(phys: PhysicalPlan) -> (PhysicalPlan, bool, String) {
    let fused = fuse_partial_agg(phys);
    match fused.partial_agg_count() {
        0 => (fused, false, "no fusable aggregate-over-union chain".into()),
        n => (
            fused,
            true,
            format!("{n} aggregate(s) fused into per-chunk partial aggregation"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::Value;

    fn zone(col: &str, min: Value, max: Value) -> ColumnZone {
        ColumnZone { column: col.into(), min, max }
    }

    #[test]
    fn conjunct_contradiction_table() {
        let zones = vec![zone("D.t", Value::Time(100), Value::Time(200))];
        let col = || Expr::col("D.t");
        // Inside the zone: never contradicted.
        assert!(!contradicted(&col().cmp(CmpOp::Ge, Expr::lit(150i64)), &zones));
        // Entirely above the zone.
        assert!(contradicted(&col().cmp(CmpOp::Ge, Expr::lit(201i64)), &zones));
        assert!(contradicted(&col().cmp(CmpOp::Gt, Expr::lit(200i64)), &zones));
        assert!(!contradicted(&col().cmp(CmpOp::Ge, Expr::lit(200i64)), &zones));
        // Entirely below the zone.
        assert!(contradicted(&col().cmp(CmpOp::Lt, Expr::lit(100i64)), &zones));
        assert!(contradicted(&col().cmp(CmpOp::Le, Expr::lit(99i64)), &zones));
        assert!(!contradicted(&col().cmp(CmpOp::Le, Expr::lit(100i64)), &zones));
        // Equality outside / inside.
        assert!(contradicted(&col().eq(Expr::lit(50i64)), &zones));
        assert!(contradicted(&col().eq(Expr::lit(250i64)), &zones));
        assert!(!contradicted(&col().eq(Expr::lit(150i64)), &zones));
        // Flipped literal-first form.
        assert!(contradicted(&Expr::lit(201i64).cmp(CmpOp::Le, col()), &zones));
        // Unzoned column: keep.
        assert!(!contradicted(&Expr::col("D.v").cmp(CmpOp::Gt, Expr::lit(0i64)), &zones));
        // Conjunction: one contradicted factor suffices.
        let both = col().cmp(CmpOp::Ge, Expr::lit(150i64)).and(col().eq(Expr::lit(5i64)));
        assert!(contradicted(&both, &zones));
        // Disjunction: conservatively kept.
        let either = col().eq(Expr::lit(5i64)).or(col().eq(Expr::lit(6i64)));
        assert!(!contradicted(&either, &zones));
    }

    #[test]
    fn literal_coercion_in_pruning() {
        // Float zone vs int literal (the `E.val > 800` shape).
        let zones = vec![zone("E.val", Value::Float(1.0), Value::Float(700.0))];
        assert!(contradicted(&Expr::col("E.val").cmp(CmpOp::Gt, Expr::lit(800i64)), &zones));
        assert!(!contradicted(&Expr::col("E.val").cmp(CmpOp::Gt, Expr::lit(600i64)), &zones));
        // Time zone vs quoted timestamp literal.
        let zones = vec![zone("E.ts", Value::Time(0), Value::Time(1000))];
        let lit = Expr::lit("1970-01-01T00:00:02.000");
        assert!(contradicted(&Expr::col("E.ts").cmp(CmpOp::Ge, lit), &zones));
        // Garbage literal: keep the chunk.
        let lit = Expr::lit("not-a-time");
        assert!(!contradicted(&Expr::col("E.ts").cmp(CmpOp::Ge, lit), &zones));
    }
}
