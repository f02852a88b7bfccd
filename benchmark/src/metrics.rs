//! The metric catalogue: every name the benchmark reports, once. The
//! harness fills these, `BENCHMARK.json` lists them (a unit test keeps
//! the two in step) and the README explains them.

use crate::json::Json;
use crate::workloads::{Workload, ALL};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Bounds cover twice the widest spread (inter-quartile range over
/// median of ten runs, each with another seed) and the widest drift
/// between two such sets that any workload showed for the metric on the
/// 2-core box this was calibrated on; see README.md.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.20 },
    EndToEnd { name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.20 },
    EndToEnd { name: "query_p95_ms", unit: "ms", better: "lower", bound: 0.20 },
    EndToEnd { name: "cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.20 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module name. `0` means "does not apply to this workload"
/// (e.g. `decode.eventlog_us_per_chunk` on an mSEED workload).
pub const PER_LAYER: [PerLayer; 55] = [
    layer("sql.compile_us", "us", "lower"),
    layer("optimizer.passes_us", "us", "lower"),
    layer("optimizer.zone_map_pruning_us", "us", "lower"),
    layer("core.explain_us", "us", "lower"),
    layer("core.unattributed_us", "us", "lower"),
    layer("chunks.stage1_us", "us", "lower"),
    layer("chunks.zone_candidates_us", "us", "lower"),
    layer("chunks.selected_per_query", "count", "lower"),
    layer("chunks.pruned_share", "share", "higher"),
    layer("registrar.prepare_ms", "ms", "lower"),
    layer("registrar.us_per_chunk", "us", "lower"),
    layer("storage.db_bytes_per_source_byte", "ratio", "lower"),
    layer("storage.metadata_bytes", "B", "lower"),
    layer("dmd.derive_s", "s", "lower"),
    layer("dmd.covered_keys", "count", "higher"),
    layer("admission.queue_wait_us_per_query", "us", "lower"),
    layer("admission.rejected", "count", "lower"),
    layer("fetch.us_per_chunk", "us", "lower"),
    layer("fetch.mb_s", "MB/s", "higher"),
    layer("prefetch.hit_share", "share", "higher"),
    layer("prefetch.io_wait_us_per_query", "us", "lower"),
    layer("prefetch.wasted_bytes_per_query", "B", "lower"),
    layer("decode.mseed_us_per_chunk", "us", "lower"),
    layer("decode.mseed_mb_s", "MB/s", "higher"),
    layer("decode.eventlog_us_per_chunk", "us", "lower"),
    layer("decode.arena_reuse_share", "share", "higher"),
    layer("steim.msamples_s", "Msamples/s", "higher"),
    layer("cellar.hit_share", "share", "higher"),
    layer("cellar.evictions_per_query", "count", "lower"),
    layer("cellar.reloads_per_query", "count", "lower"),
    layer("cellar.joins_per_query", "count", "higher"),
    layer("cellar.pin_wait_us_per_query", "us", "lower"),
    layer("cellar.peak_resident_mb", "MB", "lower"),
    layer("twostage.load_ms", "ms", "lower"),
    layer("twostage.stage2_ms", "ms", "lower"),
    layer("twostage.chunk_mb_s", "MB/s", "higher"),
    layer("twostage.partial_agg_chunks_per_query", "count", "higher"),
    layer("twostage.rows_union_per_query", "count", "lower"),
    layer("sched.busy_share", "share", "higher"),
    layer("sched.tasks_per_query", "count", "lower"),
    layer("sched.batches_per_query", "count", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("query.p99_ms", "ms", "lower"),
    layer("query.p50_ms.meta", "ms", "lower"),
    layer("query.p50_ms.data", "ms", "lower"),
    layer("query.p50_ms.high", "ms", "lower"),
    layer("obs.traced_qps", "1/s", "higher"),
    layer("obs.span_vs_stats_gap_pct", "%", "lower"),
    layer("obs.bench_vs_span_gap_pct", "%", "lower"),
    layer("obs.error_rate", "share", "lower"),
    layer("counts.queries", "count", "higher"),
    layer("counts.chunks_selected", "count", "lower"),
    layer("counts.files_loaded", "count", "lower"),
    layer("counts.partial_agg_chunks", "count", "higher"),
    layer("counts.cellar_evictions", "count", "lower"),
];

pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::ColdScan => {
            "every acquisition is a cellar miss: fetch, Steim decode and per-chunk \
             partial aggregation do nearly all the work; sql, optimizer and stage 1 are ~0"
        }
        Workload::WarmMix => {
            "every acquisition is a cellar hit, no decode: latency is the fixed per-query \
             path (parse, optimize, DMd check, stage 1, admission, pin, merge)"
        }
        Workload::PruneWindow => {
            "stage 1 picks under 3 % of 8192 small text chunks; the working set is ten \
             times the cellar, so evictions and reloads occur naturally"
        }
        Workload::ServerMix => {
            "the only contended workload: sessions share the admission queue, the morsel \
             scheduler and a cellar half the working set; 70 % metadata / 30 % data queries"
        }
    }
}

/// The contents of `BENCHMARK.json`, generated from the catalogue.
pub fn manifest(run_seconds: u32) -> Json {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                ALL.iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name())),
                            ("why", Json::str(why(*w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// Seconds one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
        for (name, unit, better) in all {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(better == "higher" || better == "lower");
        }
        for w in ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'), "{}", why(w).len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), manifest(RUN_SECONDS));
        assert!(text.len() <= 64 * 1024);
    }
}
