//! Query classification (paper Table I) and metadata-level predicate
//! inference.
//!
//! Classification is format-neutral (it only looks at the
//! [`TableClass`] of referenced tables). Inference is driven by the
//! declarative [`InferenceRule`]s of the query's source descriptor —
//! the format itself decides *which* actual-data columns bound *which*
//! metadata expressions; this module only applies the rules soundly.

use crate::source::InferenceRule;
use sommelier_engine::{CmpOp, Expr, QuerySpec};
use sommelier_storage::{DataType, TableClass};

/// The paper's query taxonomy (Table I): which data classes a query
/// refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    /// GMd only.
    T1,
    /// DMd only.
    T2,
    /// DMd & GMd.
    T3,
    /// GMd & AD.
    T4,
    /// DMd & GMd & AD.
    T5,
    /// AD only — supported, but the system must load every chunk.
    AdOnly,
    /// DMd & AD without GMd — outside the paper's focus (§II-B).
    DmdAd,
}

impl QueryType {
    /// Does this query type refer to derived metadata (and hence
    /// trigger Algorithm 1)?
    pub fn refers_dmd(self) -> bool {
        matches!(self, QueryType::T2 | QueryType::T3 | QueryType::T5 | QueryType::DmdAd)
    }

    /// Does this query type refer to actual data?
    pub fn refers_ad(self) -> bool {
        matches!(self, QueryType::T4 | QueryType::T5 | QueryType::AdOnly | QueryType::DmdAd)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QueryType::T1 => "T1",
            QueryType::T2 => "T2",
            QueryType::T3 => "T3",
            QueryType::T4 => "T4",
            QueryType::T5 => "T5",
            QueryType::AdOnly => "AD-only",
            QueryType::DmdAd => "DMd&AD",
        }
    }
}

/// Classify a bound query per Table I.
pub fn classify(spec: &QuerySpec) -> QueryType {
    let gmd = spec.references_class(TableClass::MetadataGiven);
    let dmd = spec.references_class(TableClass::MetadataDerived);
    let ad = spec.references_class(TableClass::ActualData);
    match (gmd, dmd, ad) {
        (_, false, false) => QueryType::T1,
        (false, true, false) => QueryType::T2,
        (true, true, false) => QueryType::T3,
        (true, false, true) => QueryType::T4,
        (true, true, true) => QueryType::T5,
        (false, false, true) => QueryType::AdOnly,
        (false, true, true) => QueryType::DmdAd,
    }
}

/// Infer metadata-level predicates from literal comparisons against
/// actual-data columns, per the source's declarative rules.
///
/// For each rule and each conjunct `rule.ad_column ⟨op⟩ literal`:
/// a row with a value below the bound can only live in a metadata row
/// whose `min_expr` is below it; one above the bound only where
/// `max_expr` is above it. Propagating the bounds onto the metadata
/// table is what lets the metadata branch `Qf` narrow the chunk list
/// to the few files covering the requested interval — the paper's
/// "Lazy has to load only 2 mSEED files" behaviour (§VI-C). Sound: it
/// only excludes metadata rows that cannot cover qualifying values.
pub fn apply_inference_rules(spec: &mut QuerySpec, rules: &[InferenceRule]) {
    let mut inferred: Vec<(String, Expr)> = Vec::new();
    for rule in rules {
        let ad_table = rule.ad_column.split_once('.').map(|(t, _)| t).unwrap_or("");
        let has = |name: &str| spec.tables.iter().any(|t| t.name == name);
        if !(has(ad_table) && has(&rule.table)) {
            continue;
        }
        for (table, pred) in &spec.predicates {
            if table != ad_table {
                continue;
            }
            for conjunct in pred.conjuncts() {
                let Expr::Cmp(op, lhs, rhs) = conjunct else { continue };
                // Normalize to column-on-left.
                let (op, col, lit) = match (&**lhs, &**rhs) {
                    (Expr::Col(c), Expr::Lit(v)) => (*op, c.as_str(), v),
                    (Expr::Lit(v), Expr::Col(c)) => (op.flip(), c.as_str(), v),
                    _ => continue,
                };
                if col != rule.ad_column {
                    continue;
                }
                let Ok(lit) = lit.coerce_to(rule.data_type) else { continue };
                let bound = Expr::Lit(lit);
                match op {
                    CmpOp::Lt | CmpOp::Le => {
                        // Value below the bound ⇒ the row's smallest
                        // possible value is below it.
                        inferred
                            .push((rule.table.clone(), rule.min_expr.clone().cmp(op, bound)));
                    }
                    CmpOp::Gt | CmpOp::Ge => {
                        // Value above the bound ⇒ the row's largest
                        // possible value is above it. `max_expr` is
                        // exclusive, so both `>` and `>=` need the
                        // strict comparison (a row whose exclusive end
                        // *equals* the bound cannot contain it).
                        inferred.push((
                            rule.table.clone(),
                            rule.max_expr.clone().cmp(CmpOp::Gt, bound),
                        ));
                    }
                    CmpOp::Eq => {
                        inferred.push((
                            rule.table.clone(),
                            rule.min_expr
                                .clone()
                                .cmp(CmpOp::Le, bound.clone())
                                .and(rule.max_expr.clone().cmp(CmpOp::Gt, bound)),
                        ));
                    }
                    CmpOp::Ne => {}
                }
            }
        }
    }
    spec.predicates.extend(inferred);
}

/// Carry literal equalities across the query's join edges: when
/// `F.station = 'AQU'` and an edge states `F.station = H.window_station`
/// between plain columns of one type (`type_of` gives a qualified
/// column's type), every joined row has `H.window_station = 'AQU'`
/// too, so `H` gets that predicate and its scan a key prefix. Every
/// edge is an inner equi-join, so this is sound; a key computed by a
/// function (`DAY_BUCKET`, …) carries nothing. Repeats until nothing
/// new follows, so literals travel along chains of edges.
pub fn transfer_join_literals(
    spec: &mut QuerySpec,
    type_of: &dyn Fn(&str) -> Option<DataType>,
) {
    loop {
        let mut carried: Vec<(String, Expr)> = Vec::new();
        for edge in &spec.joins {
            for (a, b) in edge.left_keys.iter().zip(&edge.right_keys) {
                let (Expr::Col(a), Expr::Col(b)) = (a, b) else { continue };
                if type_of(a).is_none() || type_of(a) != type_of(b) {
                    continue;
                }
                for (from, to, table) in [(a, b, &edge.right), (b, a, &edge.left)] {
                    for conjunct in spec.predicates.iter().flat_map(|(_, p)| p.conjuncts()) {
                        let Some((col, CmpOp::Eq, lit)) = conjunct.as_range() else {
                            continue;
                        };
                        if col != from {
                            continue;
                        }
                        let pred = (table.clone(), Expr::col(to).eq(Expr::Lit(lit.clone())));
                        let known = spec
                            .predicates
                            .iter()
                            .any(|(t, p)| *t == pred.0 && p.conjuncts().contains(&&pred.1));
                        if !known && !carried.contains(&pred) {
                            carried.push(pred);
                        }
                    }
                }
            }
        }
        if carried.is_empty() {
            return;
        }
        spec.predicates.extend(carried);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::eventlog::EventLogAdapter;
    use sommelier_sql::compile;

    fn catalog() -> sommelier_sql::BindCatalog {
        crate::source::assemble_catalog(&[&EventLogAdapter::descriptor_for_tests()]).unwrap()
    }

    fn rules() -> Vec<InferenceRule> {
        EventLogAdapter::descriptor_for_tests().inference_rules
    }

    fn spec_of(sql: &str) -> QuerySpec {
        compile(sql, &catalog()).unwrap()
    }

    #[test]
    fn classification_matches_table_1() {
        // T1: GMd only.
        assert_eq!(
            classify(&spec_of("SELECT COUNT(*) FROM G WHERE host = 'web-1'")),
            QueryType::T1
        );
        // T2: DMd only.
        assert_eq!(
            classify(&spec_of("SELECT day_max_val FROM Y WHERE day_host = 'web-1'")),
            QueryType::T2
        );
        // T3: GMd & DMd.
        assert_eq!(
            classify(&spec_of("SELECT G.uri FROM dayview WHERE Y.day_max_val > 10")),
            QueryType::T3
        );
        // T4: GMd & AD.
        assert_eq!(
            classify(&spec_of("SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'")),
            QueryType::T4
        );
        // T5: all three.
        assert_eq!(
            classify(&spec_of("SELECT E.val FROM daylogview WHERE Y.day_max_val > 10")),
            QueryType::T5
        );
        assert!(QueryType::T5.refers_dmd());
        assert!(QueryType::T5.refers_ad());
        assert!(!QueryType::T4.refers_dmd());
        assert!(!QueryType::T2.refers_ad());
    }

    #[test]
    fn time_predicates_propagate_to_metadata() {
        let mut spec = spec_of(
            "SELECT AVG(E.val) FROM eventview \
             WHERE G.host = 'web-1' \
             AND E.ts > '2011-03-02T06:00:00.000' \
             AND E.ts < '2011-03-02T18:00:00.000'",
        );
        let before = spec.predicates.len();
        apply_inference_rules(&mut spec, &rules());
        let g_preds: Vec<&Expr> =
            spec.predicates.iter().filter(|(t, _)| t == "G").map(|(_, e)| e).collect();
        assert_eq!(spec.predicates.len(), before + 2);
        // One inferred bound per time conjunct, plus the original
        // G.host predicate.
        assert_eq!(g_preds.len(), 3);
        let rendered: String =
            g_preds.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" ");
        assert!(rendered.contains("G.day_ts"), "{rendered}");
    }

    #[test]
    fn inference_skips_non_ruled_predicates() {
        let mut spec = spec_of("SELECT AVG(E.val) FROM eventview WHERE E.val > 100");
        let before = spec.predicates.len();
        apply_inference_rules(&mut spec, &rules());
        assert_eq!(spec.predicates.len(), before);
    }

    #[test]
    fn inference_handles_flipped_literals() {
        let mut spec = spec_of(
            "SELECT AVG(E.val) FROM eventview WHERE '2011-03-02T00:00:00.000' < E.ts",
        );
        let before = spec.predicates.iter().filter(|(t, _)| t == "G").count();
        apply_inference_rules(&mut spec, &rules());
        assert_eq!(spec.predicates.iter().filter(|(t, _)| t == "G").count(), before + 1);
    }

    /// The types of the test source's columns.
    fn type_of(qualified: &str) -> Option<DataType> {
        let (table, column) = qualified.split_once('.')?;
        EventLogAdapter::descriptor_for_tests().schema(table)?.col_type(column).ok()
    }

    /// The predicates `spec` holds on `table`, rendered.
    fn on(spec: &QuerySpec, table: &str) -> Vec<String> {
        spec.predicates
            .iter()
            .filter(|(t, _)| t == table)
            .flat_map(|(_, p)| p.conjuncts().into_iter().map(|c| c.to_string()))
            .collect()
    }

    #[test]
    fn literal_equalities_cross_plain_join_edges() {
        // `dayview` joins G and Y on host and service.
        let mut spec = spec_of(
            "SELECT Y.day_max_val FROM dayview \
             WHERE G.host = 'web-1' AND G.service <> 'api' AND Y.day_max_val > 10",
        );
        transfer_join_literals(&mut spec, &type_of);
        assert_eq!(on(&spec, "Y"), ["(Y.day_max_val > 10)", "(Y.day_host = 'web-1')"]);
        // Carrying again finds nothing new.
        let before = spec.predicates.len();
        transfer_join_literals(&mut spec, &type_of);
        assert_eq!(spec.predicates.len(), before);

        // `daylogview` also joins G.day_ts = Y.day_start_ts (plain, so a
        // literal crosses it either way) and E to Y through a time
        // bucket (a function: nothing crosses).
        let mut spec = spec_of(
            "SELECT E.val FROM daylogview \
             WHERE Y.day_start_ts = '2011-03-02T00:00:00.000' \
             AND '2011-03-02T00:00:00.000' = E.ts AND Y.day_service = 'api'",
        );
        transfer_join_literals(&mut spec, &type_of);
        assert_eq!(
            on(&spec, "G"),
            ["(G.service = 'api')", "(G.day_ts = '2011-03-02T00:00:00.000')"]
        );
        assert_eq!(on(&spec, "E"), ["('2011-03-02T00:00:00.000' = E.ts)"]);

        // Columns of different types carry nothing.
        let mut spec = spec_of("SELECT Y.day_max_val FROM dayview WHERE G.host = 'web-1'");
        transfer_join_literals(&mut spec, &|c| {
            (c != "Y.day_host").then_some(DataType::Text).or(Some(DataType::Int64))
        });
        assert!(on(&spec, "Y").is_empty());
    }

    #[test]
    fn inference_requires_both_tables() {
        // Query over Y only: no G/E in scope, no inference.
        let mut spec = spec_of("SELECT day_max_val FROM Y");
        apply_inference_rules(&mut spec, &rules());
        assert!(spec.predicates.is_empty());
    }
}
