//! Result files and what a run prints.
//!
//! A result file has a `header` (what must match for two results to be
//! comparable) and one entry per workload with its `end_to_end` and,
//! after a traced run, `per_layer` metrics and the traced layer budget.

use crate::harness::{threads, Metric, RunReport};
use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit)),
        ("spread", Json::Num(m.spread)),
        ("samples", Json::Num(m.samples as f64)),
    ])
}

/// What identifies the instrument: results whose headers differ in
/// `seed`, `seconds`, `threads`, `malloc` or whose workloads differ in
/// `clients` are not comparable.
pub fn header(seed: u64, seconds: f64) -> Json {
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    // `run.sh` fixes glibc malloc's thresholds; a run started without
    // it measures a different allocator regime.
    let malloc = ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"]
        .map(|k| std::env::var(k).unwrap_or_else(|_| "dynamic".into()))
        .join("/");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("git_rev", env("BENCH_GIT_REV")),
        ("rustc", env("BENCH_RUSTC")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("threads", Json::Num(threads() as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("malloc", Json::str(malloc)),
        // Reads are served by the OS page cache: latency is this
        // sandbox's, not a device's.
        ("io", Json::str("os_cache")),
        ("loop", Json::str("closed")),
        ("claim", Json::Null),
    ])
}

/// One run as a result file with a single workload entry.
pub fn result_json(r: &RunReport) -> Json {
    let section = if r.traced { "per_layer" } else { "end_to_end" };
    let metrics: BTreeMap<String, Json> =
        r.metrics.iter().map(|m| (m.name.to_string(), metric_json(m))).collect();
    let mut entry = BTreeMap::from([
        (section.to_string(), Json::Obj(metrics)),
        ("clients".to_string(), Json::Num(r.clients as f64)),
    ]);
    let run = Json::obj([
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("verified", Json::Num(r.verified as f64)),
        ("correct", Json::Bool(r.correct)),
        ("measured_s", Json::Num(r.measured_s)),
        ("notes", Json::Arr(r.notes.iter().map(Json::str).collect())),
    ]);
    entry.insert(if r.traced { "traced_run" } else { "run" }.to_string(), run);
    if r.traced {
        let rows = r.budget.iter().map(|b| {
            Json::obj([
                ("name", Json::str(&b.name)),
                ("count", Json::Num(b.count as f64)),
                ("total_ms", Json::Num(b.total_ns as f64 / 1e6)),
                ("self_ms", Json::Num(b.self_ns as f64 / 1e6)),
            ])
        });
        entry.insert("budget".to_string(), Json::Arr(rows.collect()));
    }
    Json::obj([
        ("header", header(r.seed, r.seconds)),
        (
            "workloads",
            Json::Obj(BTreeMap::from([(r.workload.name().to_string(), Json::Obj(entry))])),
        ),
    ])
}

/// Fold `other`'s workload entries into `into` (the suite merges the
/// untraced and traced runs of every workload into one file).
pub fn merge_results(into: &mut Json, other: &Json) {
    let (Json::Obj(into), Some(other)) = (into, other.as_obj()) else { return };
    for (key, value) in other {
        match (into.get_mut(key), value) {
            (Some(mine @ Json::Obj(_)), Json::Obj(_)) if key != "header" => {
                merge_results(mine, value)
            }
            (Some(_), _) => {}
            (None, _) => {
                into.insert(key.clone(), value.clone());
            }
        }
    }
}

/// Every metric by name with its unit, then (traced runs) the layer
/// budget. The caller prints the machine-readable line after this.
pub fn print_run(r: &RunReport) {
    println!(
        "# {} seed={} seconds={} threads={} clients={} traced={} io=os_cache loop=closed",
        r.workload.name(),
        r.seed,
        r.seconds,
        r.threads,
        r.clients,
        r.traced
    );
    println!(
        "# attempted={} failed={} verified={} measured_s={:.3}",
        r.attempted, r.failed, r.verified, r.measured_s
    );
    for m in &r.metrics {
        if m.spread.is_finite() {
            println!(
                "{:<40} {:>16.4} {:<10} spread={:.3} n={}",
                m.name, m.value, m.unit, m.spread, m.samples
            );
        } else {
            println!("{:<40} {:>16.4} {:<10}", m.name, m.value, m.unit);
        }
    }
    if !r.budget.is_empty() {
        let queries: f64 = r
            .budget
            .iter()
            .filter(|b| b.name == "bench.query")
            .map(|b| b.total_ns as f64)
            .sum();
        println!(
            "# traced layer budget (self = span minus children; share of bench.query total)"
        );
        for b in r.budget.iter().take(24) {
            println!(
                "#   {:<32} n={:<8} total={:>10.2} ms  self={:>10.2} ms  {:>5.1} %",
                b.name,
                b.count,
                b.total_ns as f64 / 1e6,
                b.self_ns as f64 / 1e6,
                100.0 * b.self_ns as f64 / queries.max(1.0)
            );
        }
    }
    for n in &r.notes {
        println!("# note: {n}");
    }
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn driver_line(r: &RunReport) -> String {
    let metrics: BTreeMap<String, Json> = r
        .metrics
        .iter()
        .map(|m| {
            let pair =
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.to_string(), pair)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

pub fn write(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_keeps_both_runs_of_a_workload() {
        let mut a = Json::parse(
            r#"{"header": {"seed": 1}, "workloads": {"w": {"end_to_end": {"x": {"value": 1}}}}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"header": {"seed": 2}, "workloads": {"w": {"per_layer": {"y": {"value": 2}}}, "v": {}}}"#,
        )
        .unwrap();
        merge_results(&mut a, &b);
        let w = a.get("workloads").unwrap().get("w").unwrap();
        assert!(w.get("end_to_end").is_some() && w.get("per_layer").is_some());
        assert!(a.get("workloads").unwrap().get("v").is_some());
        assert_eq!(a.get("header").unwrap().get("seed").unwrap().as_f64(), Some(1.0));
    }
}
