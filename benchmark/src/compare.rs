//! `benchmark compare A.json B.json`: apply the bounds of
//! `BENCHMARK.json` to two results of the same instrument.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs' own spread is wider than the bound and the change does
    /// not clear it: the instrument cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline, `b` the candidate. `spread` is the wider of the
/// two runs' noise floors for the metric, as a share of its median.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse_by = if higher_is_better { (a - b) / a } else { (b - a) / a };
    if a == b {
        // The same measurement twice (a result compared with itself).
        Verdict::Same
    } else if worse_by.abs() > bound.max(spread) {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub change: f64,
    pub verdict: Verdict,
}

fn field(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_f64()
}

/// One row per workload × end-to-end metric. Refuses results whose
/// headers (seed, seconds, threads, malloc regime) or client counts
/// differ.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<Vec<Row>, String> {
    for key in ["seed", "seconds", "threads", "malloc"] {
        let at = |j: &Json| j.get("header").and_then(|h| h.get(key)).map(Json::render);
        let (x, y) = (at(a), at(b));
        if x.is_none() || x != y {
            return Err(format!("headers differ in {key}: {x:?} vs {y:?}; not comparable"));
        }
    }
    let defs =
        manifest.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end bounds")?;
    let wa = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    let mut rows = Vec::new();
    for (name, ea) in wa {
        let Some(eb) = b.get("workloads").and_then(|w| w.get(name)) else {
            return Err(format!("workload {name} is missing from B"));
        };
        if field(ea, &["clients"]) != field(eb, &["clients"]) {
            return Err(format!("{name}: client counts differ; not comparable"));
        }
        for def in defs {
            let metric =
                def.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound =
                def.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let higher = def.get("better").and_then(Json::as_str) == Some("higher");
            let value = |e: &Json| field(e, &["end_to_end", metric, "value"]);
            let (Some(va), Some(vb)) = (value(ea), value(eb)) else {
                return Err(format!("{name}: {metric} is missing from a result"));
            };
            let spread = [ea, eb]
                .iter()
                .filter_map(|e| field(e, &["end_to_end", metric, "spread"]))
                .fold(0.0, f64::max);
            rows.push(Row {
                workload: name.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                change: (vb - va) / va,
                verdict: verdict(va, vb, higher, bound, spread),
            });
        }
    }
    Ok(rows)
}

/// Prints the table; true when any row is worse.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for r in rows {
        println!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>+8.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.verdict.label()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, bound 10 %, quiet runs.
        assert_eq!(verdict(100.0, 104.0, false, 0.10, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 115.0, false, 0.10, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 80.0, false, 0.10, 0.02), Verdict::Better);
        // Higher is better flips the sign.
        assert_eq!(verdict(100.0, 80.0, true, 0.10, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 120.0, true, 0.10, 0.02), Verdict::Better);
        // Noise wider than the bound: small changes cannot be called.
        assert_eq!(verdict(100.0, 104.0, false, 0.10, 0.20), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 115.0, false, 0.10, 0.20), Verdict::Unresolved);
        // ...but a change that clears the noise still can.
        assert_eq!(verdict(100.0, 150.0, false, 0.10, 0.20), Verdict::Worse);
        // A measurement against itself is the same, however noisy.
        assert_eq!(verdict(100.0, 100.0, false, 0.10, 0.20), Verdict::Same);
    }

    fn result(seed: u32, p50: f64, spread: f64) -> Json {
        Json::parse(&format!(
            r#"{{"header": {{"seed": {seed}, "seconds": 20, "threads": 2, "malloc": "a/b"}},
                "workloads": {{"warm_mix": {{"clients": 1, "end_to_end":
                  {{"query_p50_ms": {{"value": {p50}, "spread": {spread}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn manifest() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_result_against_itself_is_all_same() {
        let a = result(1, 0.5, 0.03);
        let rows = compare(&a, &a, &manifest()).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(!print(&rows));
    }

    #[test]
    fn regressions_are_flagged_and_mismatched_headers_refused() {
        let rows =
            compare(&result(1, 0.5, 0.03), &result(1, 0.6, 0.03), &manifest()).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(print(&rows));
        let err = compare(&result(1, 0.5, 0.03), &result(2, 0.5, 0.03), &manifest());
        assert!(err.is_err_and(|e| e.contains("seed")));
    }
}
