//! Compile-time join ordering — the paper's rules R1–R4, plus a
//! "traditional" optimizer used for the eager loading baselines.
//!
//! * **R1** Join on red edges first before anything else.
//! * **R2** Only if necessary, use cross-products to join all red
//!   vertices into one, before using any blue or black edges.
//! * **R3** Do not allow bushy plans containing black vertices.
//! * **R4** Join on black edges only if all other edges are used.
//!
//! [`order_metadata_first`] produces the decomposed plan
//! `Q = Qf ▷ Qs`: a join tree where all metadata (red) vertices form
//! one subtree, wrapped in [`LogicalPlan::QfMark`], and actual-data
//! (black) vertices attach linearly above it. With `lazy = true` the
//! black leaves become [`LogicalPlan::LazyScan`]s.
//!
//! [`order_traditional`] is what a selectivity-greedy textbook optimizer
//! would do (start from the selective big table, chain in the rest) —
//! the plan shape the eager variants run, where index joins apply.

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::graph::{EdgeColor, QueryGraph, VertexColor};
use crate::logical::LogicalPlan;
use crate::spec::{OutputExpr, QuerySpec};

/// How to plan a query.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Lazy loading: the metadata-first (two-stage) shape with
    /// `LazyScan` leaves for actual-data tables, vs. the traditional
    /// shape over fully loaded tables.
    pub lazy: bool,
    /// Extra columns the `Qf` output must retain (e.g. `F.uri` and
    /// `F.file_id` so the run-time optimizer can name the chunks).
    pub qf_extra_columns: Vec<String>,
}

impl PlanOptions {
    /// The paper's lazy two-stage planning.
    pub fn lazy(qf_extra: &[&str]) -> Self {
        PlanOptions {
            lazy: true,
            qf_extra_columns: qf_extra.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Traditional planning over fully loaded tables.
    pub fn eager() -> Self {
        PlanOptions { lazy: false, qf_extra_columns: Vec::new() }
    }
}

/// Plan `spec` according to `opts`, producing a complete logical plan
/// (join tree + aggregation/projection/ordering).
pub fn plan_query(spec: &QuerySpec, opts: &PlanOptions) -> Result<LogicalPlan> {
    let graph = QueryGraph::from_spec(spec)?;
    let join_tree = if opts.lazy {
        order_metadata_first(&graph, spec, opts)?
    } else {
        order_traditional(&graph, spec)?
    };
    finish(join_tree, spec)
}

/// Scan leaf for vertex `v`.
fn leaf(graph: &QueryGraph, spec: &QuerySpec, v: usize, opts: &PlanOptions) -> LogicalPlan {
    let vertex = &graph.vertices[v];
    let extra: Vec<&str> = opts.qf_extra_columns.iter().map(|s| s.as_str()).collect();
    let columns = spec.needed_columns(&vertex.table, &extra);
    let predicate = vertex.predicate.clone();
    if opts.lazy && vertex.color == VertexColor::Black {
        LogicalPlan::LazyScan { table: vertex.table.clone(), columns, predicate }
    } else {
        LogicalPlan::Scan { table: vertex.table.clone(), columns, predicate }
    }
}

/// Join `plan` (covering `covered`) with vertex `v`, merging the key
/// lists of every edge that connects them. `new_on_left` controls
/// whether the new vertex becomes the left (probe) or right (build)
/// input.
fn attach(
    graph: &QueryGraph,
    plan: LogicalPlan,
    covered: &[bool],
    v: usize,
    v_leaf: LogicalPlan,
    new_on_left: bool,
) -> Result<LogicalPlan> {
    let edges = graph.edges_into(v, covered);
    if edges.is_empty() {
        // Cross product (rule R2 or a genuinely disconnected query).
        return Ok(if new_on_left {
            LogicalPlan::Cross { left: Box::new(v_leaf), right: Box::new(plan) }
        } else {
            LogicalPlan::Cross { left: Box::new(plan), right: Box::new(v_leaf) }
        });
    }
    let table = &graph.vertices[v].table;
    let mut v_keys = Vec::new();
    let mut covered_keys = Vec::new();
    for e in edges {
        let (mine, other) = e
            .join
            .keys_for(table)
            .ok_or_else(|| EngineError::Plan(format!("edge does not touch {table}")))?;
        v_keys.extend_from_slice(mine);
        covered_keys.extend_from_slice(other);
    }
    Ok(if new_on_left {
        LogicalPlan::Join {
            left: Box::new(v_leaf),
            right: Box::new(plan),
            left_keys: v_keys,
            right_keys: covered_keys,
        }
    } else {
        LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(v_leaf),
            left_keys: covered_keys,
            right_keys: v_keys,
        }
    })
}

/// Rules R1–R4: red subtree first (marked as `Qf`), black vertices
/// attached linearly above.
pub fn order_metadata_first(
    graph: &QueryGraph,
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<LogicalPlan> {
    let n = graph.vertices.len();
    let mut covered = vec![false; n];
    let reds = graph.vertices_of(VertexColor::Red);
    let blacks = graph.vertices_of(VertexColor::Black);

    // ---- Red phase (R1 + R2) -------------------------------------
    let qf: Option<LogicalPlan> = if reds.is_empty() {
        None
    } else {
        // Start from a selective red vertex.
        let start = reds
            .iter()
            .copied()
            .find(|&v| graph.vertices[v].predicate.is_some())
            .unwrap_or(reds[0]);
        let mut plan = leaf(graph, spec, start, opts);
        covered[start] = true;
        let mut remaining: Vec<usize> =
            reds.iter().copied().filter(|&v| v != start).collect();
        while !remaining.is_empty() {
            // R1: prefer a red vertex connected by a red edge.
            let connected =
                remaining.iter().position(|&v| !graph.edges_into(v, &covered).is_empty());
            let idx = connected.unwrap_or(0); // R2: cross product fallback
            let v = remaining.remove(idx);
            let v_leaf = leaf(graph, spec, v, opts);
            plan = attach(graph, plan, &covered, v, v_leaf, false)?;
            covered[v] = true;
        }
        Some(plan)
    };

    // ---- Black phase (R3 + R4) -----------------------------------
    let mut plan = match qf {
        Some(qf) => LogicalPlan::QfMark { input: Box::new(qf) },
        None => {
            // Pure actual-data query: the paper's "no alternative to
            // loading all AD" case. Start from the first black vertex.
            let start = blacks
                .first()
                .copied()
                .ok_or_else(|| EngineError::Plan("query with no tables".into()))?;
            covered[start] = true;
            let first = leaf(graph, spec, start, opts);
            let mut plan = first;
            let mut remaining: Vec<usize> =
                blacks.iter().copied().filter(|&v| v != start).collect();
            while !remaining.is_empty() {
                let connected =
                    remaining.iter().position(|&v| !graph.edges_into(v, &covered).is_empty());
                let idx = connected.unwrap_or(0);
                let v = remaining.remove(idx);
                let v_leaf = leaf(graph, spec, v, opts);
                plan = attach(graph, plan, &covered, v, v_leaf, true)?;
                covered[v] = true;
            }
            return Ok(plan);
        }
    };
    let mut remaining: Vec<usize> = blacks;
    while !remaining.is_empty() {
        // R4: prefer black vertices reachable via a blue edge; fall back
        // to black edges; cross product only if disconnected.
        let pick = remaining
            .iter()
            .position(|&v| {
                graph.edges_into(v, &covered).iter().any(|e| e.color == EdgeColor::Blue)
            })
            .or_else(|| {
                remaining.iter().position(|&v| !graph.edges_into(v, &covered).is_empty())
            })
            .unwrap_or(0);
        let v = remaining.remove(pick);
        let v_leaf = leaf(graph, spec, v, opts);
        // Black vertex on the left (probe side), composite on the right
        // (build side) — the metadata result is the small input. The
        // chain stays linear, satisfying R3.
        plan = attach(graph, plan, &covered, v, v_leaf, true)?;
        covered[v] = true;
    }
    Ok(plan)
}

/// A traditional greedy order: start from a selective actual-data
/// table, then repeatedly join the "cheapest" connected vertex
/// (predicated metadata first).
pub fn order_traditional(graph: &QueryGraph, spec: &QuerySpec) -> Result<LogicalPlan> {
    let n = graph.vertices.len();
    let opts = PlanOptions::eager();
    let mut covered = vec![false; n];
    let rank = |v: usize| -> (u8, u8) {
        let vx = &graph.vertices[v];
        (
            if vx.predicate.is_some() { 0 } else { 1 },
            if vx.color == VertexColor::Red { 0 } else { 1 },
        )
    };
    // Start from a black vertex (the data table drives the scan) if one
    // exists, preferring predicated ones; otherwise the best red vertex.
    let blacks = graph.vertices_of(VertexColor::Black);
    let start = blacks
        .iter()
        .copied()
        .min_by_key(|&v| rank(v))
        .or_else(|| (0..n).min_by_key(|&v| rank(v)))
        .ok_or_else(|| EngineError::Plan("query with no tables".into()))?;
    let mut plan = leaf(graph, spec, start, &opts);
    covered[start] = true;
    let mut remaining: Vec<usize> = (0..n).filter(|&v| v != start).collect();
    while !remaining.is_empty() {
        // Among connected vertices pick the lowest rank; else cross.
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&v| !graph.edges_into(v, &covered).is_empty())
            .collect();
        let v = connected.into_iter().min_by_key(|&v| rank(v)).unwrap_or(remaining[0]);
        remaining.retain(|&x| x != v);
        let v_leaf = leaf(graph, spec, v, &opts);
        // New table goes on the right: it becomes the hash-join build
        // side (metadata tables are small) or the index-join parent.
        plan = attach(graph, plan, &covered, v, v_leaf, false)?;
        covered[v] = true;
    }
    Ok(plan)
}

/// Add aggregation / projection / distinct / order / limit on top of a
/// join tree, per the spec's output clause.
pub fn finish(join_tree: LogicalPlan, spec: &QuerySpec) -> Result<LogicalPlan> {
    let mut plan = join_tree;
    if let Some(residual) = Expr::conjoin(spec.residual.iter().cloned()) {
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: residual };
    }
    if spec.has_aggregates() || !spec.group_by.is_empty() {
        let aggs: Vec<(String, crate::expr::AggFunc, Expr)> = spec
            .output
            .iter()
            .filter_map(|o| match o {
                OutputExpr::Aggregate { name, func, expr } => {
                    Some((name.clone(), *func, expr.clone()))
                }
                OutputExpr::Column { .. } => None,
            })
            .collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: spec.group_by.clone(),
            aggs,
        };
        // Re-order the aggregate's output to the SELECT-list order.
        let exprs: Vec<(String, Expr)> =
            spec.output.iter().map(|o| (o.name().to_string(), Expr::col(o.name()))).collect();
        plan = LogicalPlan::Project { input: Box::new(plan), exprs };
    } else {
        let exprs: Vec<(String, Expr)> = spec
            .output
            .iter()
            .map(|o| match o {
                OutputExpr::Column { name, expr } => (name.clone(), expr.clone()),
                OutputExpr::Aggregate { .. } => unreachable!("filtered above"),
            })
            .collect();
        plan = LogicalPlan::Project { input: Box::new(plan), exprs };
    }
    if spec.distinct {
        plan = LogicalPlan::Distinct { input: Box::new(plan) };
    }
    if !spec.order_by.is_empty() {
        plan = LogicalPlan::Sort { input: Box::new(plan), keys: spec.order_by.clone() };
    }
    if let Some(n) = spec.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::windowish_spec;
    use crate::spec::{JoinEdge, OutputExpr, TableRef};
    use sommelier_storage::TableClass;

    /// Walk the join tree: assert every scan under QfMark is metadata,
    /// and every actual-data scan is above it.
    #[test]
    fn metadata_first_separates_colors() {
        let spec = windowish_spec();
        let opts = PlanOptions::lazy(&["F.uri", "F.file_id"]);
        let graph = QueryGraph::from_spec(&spec).unwrap();
        let plan = order_metadata_first(&graph, &spec, &opts).unwrap();
        let qf = plan.qf().expect("Qf must be marked");
        let mut qf_tables = qf.tables();
        qf_tables.sort();
        assert_eq!(qf_tables, vec!["F", "H", "S"]);
        assert!(!qf.has_lazy_scan(), "no actual data below the Qf mark");
        assert!(plan.has_lazy_scan(), "D is a lazy scan above Qf");
    }

    #[test]
    fn qf_scan_keeps_required_columns() {
        let spec = windowish_spec();
        let opts = PlanOptions::lazy(&["F.uri", "F.file_id"]);
        let plan = plan_query(&spec, &opts).unwrap();
        let mut found_uri = false;
        plan.visit(&mut |p| {
            if let LogicalPlan::Scan { table, columns, .. } = p {
                if table == "F" {
                    found_uri = columns.iter().any(|c| c == "F.uri");
                }
            }
        });
        assert!(found_uri, "F scan must retain F.uri for the run-time rewrite");
    }

    #[test]
    fn black_phase_is_linear() {
        // Two black vertices must chain, not join bushily (R3).
        let mut spec = windowish_spec();
        spec.tables.push(TableRef { name: "D2".into(), class: TableClass::ActualData });
        spec.joins.push(
            JoinEdge::new(
                "D",
                "D2",
                vec![Expr::col("D.seg_id")],
                vec![Expr::col("D2.seg_id")],
            )
            .unwrap(),
        );
        let graph = QueryGraph::from_spec(&spec).unwrap();
        let opts = PlanOptions::lazy(&[]);
        let plan = order_metadata_first(&graph, &spec, &opts).unwrap();
        // Walk down the spine: every Join's left child must be a leaf
        // scan (linear chain), never a Join of two black subtrees.
        fn assert_linear(p: &LogicalPlan) {
            if let LogicalPlan::Join { left, right, .. } = p {
                assert!(
                    matches!(**left, LogicalPlan::LazyScan { .. } | LogicalPlan::Scan { .. }),
                    "black spine must be linear, got left = {left}"
                );
                assert_linear(right);
            }
        }
        assert_linear(&plan);
    }

    #[test]
    fn r2_cross_product_when_reds_disconnected() {
        // Two metadata tables with no red edge between them, both
        // bridging into D: R2 forces a cross product in Qf.
        let spec = QuerySpec {
            tables: vec![
                TableRef { name: "M1".into(), class: TableClass::MetadataGiven },
                TableRef { name: "M2".into(), class: TableClass::MetadataGiven },
                TableRef { name: "D".into(), class: TableClass::ActualData },
            ],
            joins: vec![
                JoinEdge::new("M1", "D", vec![Expr::col("M1.k")], vec![Expr::col("D.k1")])
                    .unwrap(),
                JoinEdge::new("M2", "D", vec![Expr::col("M2.k")], vec![Expr::col("D.k2")])
                    .unwrap(),
            ],
            output: vec![OutputExpr::Column { name: "k".into(), expr: Expr::col("D.k1") }],
            ..QuerySpec::default()
        };
        let graph = QueryGraph::from_spec(&spec).unwrap();
        let opts = PlanOptions::lazy(&[]);
        let plan = order_metadata_first(&graph, &spec, &opts).unwrap();
        let qf = plan.qf().unwrap();
        let mut has_cross = false;
        qf.visit(&mut |p| {
            if matches!(p, LogicalPlan::Cross { .. }) {
                has_cross = true;
            }
        });
        assert!(has_cross, "R2: disconnected red vertices must cross-product inside Qf");
        // And D joins the crossed metadata on both keys at once.
        if let LogicalPlan::Join { left_keys, .. } = &plan {
            assert_eq!(left_keys.len(), 2);
        } else {
            panic!("expected a join at the root, got {plan}");
        }
    }

    #[test]
    fn pure_metadata_query_is_all_qf() {
        let spec = QuerySpec {
            tables: vec![TableRef { name: "H".into(), class: TableClass::MetadataDerived }],
            output: vec![OutputExpr::Column {
                name: "ts".into(),
                expr: Expr::col("H.window_start_ts"),
            }],
            ..QuerySpec::default()
        };
        let plan = plan_query(&spec, &PlanOptions::lazy(&[])).unwrap();
        assert!(plan.qf().is_some());
        assert!(!plan.has_lazy_scan());
    }

    #[test]
    fn pure_ad_query_has_no_qf() {
        let spec = QuerySpec {
            tables: vec![TableRef { name: "D".into(), class: TableClass::ActualData }],
            output: vec![OutputExpr::Column {
                name: "v".into(),
                expr: Expr::col("D.sample_value"),
            }],
            ..QuerySpec::default()
        };
        let plan = plan_query(&spec, &PlanOptions::lazy(&[])).unwrap();
        assert!(plan.qf().is_none());
        assert!(plan.has_lazy_scan());
    }

    #[test]
    fn traditional_order_starts_from_data_table() {
        let spec = windowish_spec();
        let graph = QueryGraph::from_spec(&spec).unwrap();
        let plan = order_traditional(&graph, &spec).unwrap();
        // Leftmost leaf should be the D scan.
        fn leftmost(p: &LogicalPlan) -> &LogicalPlan {
            match p {
                LogicalPlan::Join { left, .. } | LogicalPlan::Cross { left, .. } => {
                    leftmost(left)
                }
                other => other,
            }
        }
        match leftmost(&plan) {
            LogicalPlan::Scan { table, .. } => assert_eq!(table, "D"),
            other => panic!("expected D scan at the bottom, got {other:?}"),
        }
        assert!(plan.qf().is_none(), "traditional plans are not decomposed");
        assert!(!plan.has_lazy_scan());
    }

    #[test]
    fn finish_adds_aggregate_projection() {
        let mut spec = windowish_spec();
        spec.output = vec![OutputExpr::Aggregate {
            name: "avg_v".into(),
            func: crate::expr::AggFunc::Avg,
            expr: Expr::col("D.sample_value"),
        }];
        let plan = plan_query(&spec, &PlanOptions::lazy(&["F.uri"])).unwrap();
        match &plan {
            LogicalPlan::Project { input, exprs } => {
                assert_eq!(exprs[0].0, "avg_v");
                assert!(matches!(**input, LogicalPlan::Aggregate { .. }));
            }
            other => panic!("expected Project over Aggregate, got {other}"),
        }
    }

    #[test]
    fn finish_adds_sort_and_limit() {
        let mut spec = windowish_spec();
        spec.order_by = vec![("v".into(), true)];
        spec.limit = Some(10);
        let plan = plan_query(&spec, &PlanOptions::eager()).unwrap();
        match &plan {
            LogicalPlan::Limit { input, n } => {
                assert_eq!(*n, 10);
                assert!(matches!(**input, LogicalPlan::Sort { .. }));
            }
            other => panic!("expected Limit over Sort, got {other}"),
        }
    }
}
