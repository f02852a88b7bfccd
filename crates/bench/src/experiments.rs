//! The experiment implementations — one function per table/figure of
//! the paper's §VI, shared by the CLI binaries and the criterion
//! wrappers.
//!
//! Absolute numbers differ from the paper (scaled datasets, different
//! machine, simulated I/O); the *shape* — which approach wins, by
//! roughly what factor, where the crossovers sit — is the reproduction
//! target. EXPERIMENTS.md records paper-vs-measured for each.

use crate::datasets::{dataset, BenchScale, DatasetKind};
use crate::queries;
use crate::report::{secs, Table};
use crate::runner::{
    bench_config, cold_hot, fresh_system, fresh_system_with, slow_chunk_io, time_it,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sommelier_core::{LoadingMode, Result, Sommelier, SommelierConfig};
use sommelier_mseed::repo::days_for_sf;
use sommelier_storage::time::days_from_civil;

/// First day of every synthetic dataset (2010-01-01), in days.
fn start_day() -> i64 {
    days_from_civil(2010, 1, 1)
}

/// Paper reference rows for Table II (files, segments, samples).
fn paper_table2(sf: u32) -> Option<(u64, u64, u64)> {
    match sf {
        1 => Some((160, 2_009, 1_273_454_901)),
        3 => Some((484, 7_802, 3_929_151_193)),
        9 => Some((1_464, 12_566, 11_912_163_036)),
        27 => Some((4_384, 74_526, 33_683_711_338)),
        _ => None,
    }
}

/// Table II — dataset record counts per scale factor.
pub fn table2(scale: &BenchScale) -> Table {
    let mut t = Table::new(
        "Table II: INGV-like dataset (measured vs paper structure)",
        &[
            "sf",
            "days",
            "files",
            "segments",
            "samples",
            "paper_files",
            "paper_segments",
            "paper_samples",
        ],
    );
    for &sf in &scale.sfs {
        let (_, stats) = dataset(scale, DatasetKind::Ingv, sf);
        let paper = paper_table2(sf);
        t.row(vec![
            format!("sf-{sf}"),
            days_for_sf(sf).to_string(),
            stats.files.to_string(),
            stats.segments.to_string(),
            stats.samples.to_string(),
            paper.map_or("-".into(), |p| p.0.to_string()),
            paper.map_or("-".into(), |p| p.1.to_string()),
            paper.map_or("-".into(), |p| p.2.to_string()),
        ]);
    }
    t
}

/// Table III + Figure 6 — storage footprints and loading-time
/// breakdowns for all five approaches (shared preparation work).
pub fn table3_and_fig6(scale: &BenchScale) -> Result<(Table, Table)> {
    let mut t3 = Table::new(
        "Table III: dataset sizes",
        &["sf", "mseed", "csv", "db", "keys_extra", "lazy_metadata"],
    );
    let mut f6 = Table::new(
        "Figure 6: loading-time breakdown (seconds)",
        &[
            "sf",
            "approach",
            "register",
            "chunks_to_csv",
            "csv_to_db",
            "chunks_to_db",
            "indexing",
            "dmd",
            "total",
        ],
    );
    for &sf in &scale.sfs {
        let (repo, stats) = dataset(scale, DatasetKind::Ingv, sf);
        let mut csv_bytes = 0u64;
        let mut db_bytes = 0u64;
        let mut keys_bytes = 0u64;
        let mut lazy_bytes = 0u64;
        for mode in LoadingMode::ALL {
            let guard = fresh_system(scale, &repo, mode)?;
            let p = &guard.prep;
            f6.row(vec![
                format!("sf-{sf}"),
                mode.label().to_string(),
                secs(p.register),
                secs(p.chunks_to_csv),
                secs(p.csv_to_db),
                secs(p.chunks_to_db),
                secs(p.indexing),
                secs(p.dmd_derivation),
                secs(p.total()),
            ]);
            match mode {
                LoadingMode::EagerCsv => csv_bytes = p.csv_bytes,
                LoadingMode::EagerPlain => db_bytes = guard.somm.db_bytes(),
                LoadingMode::EagerIndex => keys_bytes = guard.somm.index_bytes(),
                LoadingMode::Lazy => lazy_bytes = guard.somm.metadata_bytes(),
                LoadingMode::EagerDmd => {}
            }
        }
        t3.row(vec![
            format!("sf-{sf}"),
            stats.bytes.to_string(),
            csv_bytes.to_string(),
            db_bytes.to_string(),
            keys_bytes.to_string(),
            lazy_bytes.to_string(),
        ]);
    }
    Ok((t3, f6))
}

/// The four loading approaches Figure 7 compares (eager_csv loads the
/// same data as eager_plain, so the paper omits it here).
const FIG7_MODES: [LoadingMode; 4] = [
    LoadingMode::EagerPlain,
    LoadingMode::EagerIndex,
    LoadingMode::EagerDmd,
    LoadingMode::Lazy,
];

/// Figure 7a–e — cold/hot single-query time per query type, scale
/// factor, and loading approach. Each query type uses its own 2-day
/// window of one station (the paper's domain-expert queries), at a
/// different offset so DMd derivation is observed per type.
pub fn fig7(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Figure 7: single-query performance, cold and hot (seconds)",
        &["sf", "query", "approach", "cold", "hot"],
    );
    let d0 = start_day();
    for &sf in &scale.sfs {
        let (repo, _) = dataset(scale, DatasetKind::Ingv, sf);
        for mode in FIG7_MODES {
            let guard = fresh_system(scale, &repo, mode)?;
            let queries: [(&str, String); 5] = [
                ("T1", queries::t1("ISK")),
                ("T2", {
                    let (a, b) = queries::day_range(d0 + 2, 2);
                    queries::t2("ISK", "BHE", a, b)
                }),
                ("T3", {
                    let (a, b) = queries::day_range(d0 + 6, 2);
                    queries::t3("ISK", "BHE", a, b)
                }),
                ("T4", {
                    let (a, b) = queries::day_range(d0 + 10, 2);
                    queries::t4("ISK", "BHE", a, b)
                }),
                ("T5", {
                    let (a, b) = queries::day_range(d0 + 14, 2);
                    queries::t5("ISK", "BHE", a, b, 10_000.0, 10.0)
                }),
            ];
            for (name, sql) in &queries {
                let (cold, hot) = cold_hot(&guard.somm, sql, scale.runs)?;
                t.row(vec![
                    format!("sf-{sf}"),
                    name.to_string(),
                    mode.label().to_string(),
                    secs(cold),
                    secs(hot),
                ]);
            }
        }
    }
    Ok(t)
}

/// The approaches Figure 8 sweeps.
const FIG8_MODES: [LoadingMode; 4] = [
    LoadingMode::EagerDmd,
    LoadingMode::EagerIndex,
    LoadingMode::EagerPlain,
    LoadingMode::Lazy,
];

/// Figure 8 — data-to-insight time (preparation + first query) over
/// query selectivity, on the FIAM dataset, for T4 and T5.
///
/// One system is prepared per (sf, approach); the per-selectivity
/// "first query" is emulated by flushing caches and resetting the
/// incrementally derived metadata before each point (equivalent to a
/// fresh prepare, without re-paying the load).
pub fn fig8(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Figure 8: data-to-insight time vs query selectivity (FIAM, seconds)",
        &[
            "sf",
            "query",
            "approach",
            "selectivity_pct",
            "prep",
            "first_query",
            "data_to_insight",
        ],
    );
    let (lo, hi) = scale.sf_extremes();
    let sfs = if lo == hi { vec![lo] } else { vec![lo, hi] };
    let d0 = start_day();
    for &sf in &sfs {
        let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
        let total_days = days_for_sf(sf) as i64;
        for qtype in ["T4", "T5"] {
            for mode in FIG8_MODES {
                let guard = fresh_system(scale, &repo, mode)?;
                let prep = guard.prep.total();
                for &sel in &scale.selectivities {
                    let query_time = if sel == 0 {
                        std::time::Duration::ZERO
                    } else {
                        guard.somm.flush_caches();
                        if !mode.materializes_dmd() {
                            guard.somm.reset_dmd()?;
                        }
                        let days = ((total_days * sel as i64) / 100).max(1);
                        let (a, b) = queries::day_range(d0, days);
                        let sql = if qtype == "T4" {
                            queries::t4_selectivity(a, b)
                        } else {
                            queries::t5_selectivity(a, b)
                        };
                        let (r, d) = time_it(|| guard.somm.query(&sql));
                        r?;
                        d
                    };
                    t.row(vec![
                        format!("sf-{sf}"),
                        qtype.to_string(),
                        mode.label().to_string(),
                        sel.to_string(),
                        secs(prep),
                        secs(query_time),
                        secs(prep + query_time),
                    ]);
                }
            }
        }
    }
    Ok(t)
}

/// Figure 9 — cumulative workload time over workload selectivity
/// (FIAM dataset; fixed 2.5 % query selectivity; T3 against eager_dmd,
/// T4 against eager_index, both against lazy).
pub fn fig9(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Figure 9: cumulative workload time vs workload selectivity (FIAM, seconds)",
        &[
            "sf",
            "query",
            "approach",
            "queries",
            "workload_selectivity_pct",
            "prep",
            "workload",
            "cumulative",
        ],
    );
    let (lo, hi) = scale.sf_extremes();
    let sfs = if lo == hi { vec![lo] } else { vec![lo, hi] };
    let d0 = start_day();
    for &sf in &sfs {
        let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
        let total_days = days_for_sf(sf) as i64;
        // 2.5 % query selectivity, at least one day.
        let qdays = ((total_days * 25) / 1000).max(1);
        for (qtype, eager_mode) in
            [("T3", LoadingMode::EagerDmd), ("T4", LoadingMode::EagerIndex)]
        {
            for mode in [eager_mode, LoadingMode::Lazy] {
                let guard = fresh_system(scale, &repo, mode)?;
                let prep = guard.prep.total();
                for &n in &scale.workload_queries {
                    for &wsel in &scale.workload_selectivities {
                        let mut workload_time = std::time::Duration::ZERO;
                        if wsel > 0 {
                            guard.somm.flush_caches();
                            if !mode.materializes_dmd() {
                                guard.somm.reset_dmd()?;
                            }
                            let wdays = ((total_days * wsel as i64) / 100).max(qdays);
                            let mut rng = SmallRng::seed_from_u64(
                                0xF19_u64
                                    ^ (sf as u64) << 32
                                    ^ (n as u64) << 16
                                    ^ wsel as u64
                                    ^ if qtype == "T3" { 1 } else { 2 },
                            );
                            for _ in 0..n {
                                let span = (wdays - qdays).max(0);
                                let offset =
                                    if span == 0 { 0 } else { rng.random_range(0..=span) };
                                let (a, b) = queries::day_range(d0 + offset, qdays);
                                let sql = if qtype == "T3" {
                                    queries::t3_selectivity(a, b)
                                } else {
                                    queries::t4_selectivity(a, b)
                                };
                                let (r, d) = time_it(|| guard.somm.query(&sql));
                                r?;
                                workload_time += d;
                            }
                        }
                        t.row(vec![
                            format!("sf-{sf}"),
                            qtype.to_string(),
                            mode.label().to_string(),
                            n.to_string(),
                            wsel.to_string(),
                            secs(prep),
                            secs(workload_time),
                            secs(prep + workload_time),
                        ]);
                    }
                }
            }
        }
    }
    Ok(t)
}

/// The budget fractions the cellar sweep compares (percent of the
/// workload's total decoded bytes).
const CELLAR_FRACTIONS: [u32; 3] = [100, 50, 10];

/// Run the repeated sliding-window workload, returning its wall time
/// and a correctness checksum (sum of the per-query averages).
fn cellar_workload(
    somm: &Sommelier,
    total_days: i64,
    rounds: usize,
) -> Result<(std::time::Duration, f64)> {
    let d0 = start_day();
    let window = 2i64.min(total_days);
    let mut checksum = 0.0;
    let t = std::time::Instant::now();
    for _ in 0..rounds {
        let mut day = 0i64;
        while day + window <= total_days {
            let (a, b) = queries::day_range(d0 + day, window);
            let r = somm.query(&queries::t4("FIAM", "HHZ", a, b))?;
            if r.relation.rows() == 1 {
                if let sommelier_storage::Value::Float(v) = r
                    .relation
                    .value(0, "avg")
                    .map_err(sommelier_core::SommelierError::Engine)?
                {
                    checksum += v;
                }
            }
            day += window;
        }
    }
    Ok((t.elapsed(), checksum))
}

/// Cellar sweep — bounded-memory residency under a repeated-query
/// workload. A calibration pass with an unbounded budget measures the
/// workload's total decoded bytes; budgets at 100 %, 50 % and 10 % of
/// that are then swept, reporting hit/evict/reload counts alongside
/// wall-clock. The `checksum` column must be identical in every row:
/// bounding memory must never change answers.
pub fn cellar_sweep(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Cellar sweep: budget vs hit/evict/reload and wall-clock (FIAM, lazy)",
        &[
            "sf",
            "budget_pct",
            "budget_bytes",
            "workload_s",
            "hits",
            "loads",
            "reloads",
            "evictions",
            "peak_resident",
            "resident_after",
            "checksum",
        ],
    );
    let (sf, _) = scale.sf_extremes();
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let rounds = scale.runs.max(2);

    // Calibration: unbounded budget → the workload's full decoded size.
    let unbounded = SommelierConfig { cellar_bytes: Some(usize::MAX), ..bench_config(scale) };
    let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, unbounded)?;
    let (wall, reference_checksum) = cellar_workload(&guard.somm, total_days, rounds)?;
    let cellar = guard.somm.cellar().expect("prepared");
    let total_bytes = cellar.peak_resident_bytes().max(1);
    let s = cellar.stats();
    t.row(vec![
        format!("sf-{sf}"),
        "unbounded".into(),
        total_bytes.to_string(),
        secs(wall),
        s.hits.to_string(),
        s.loads.to_string(),
        s.reloads.to_string(),
        s.evictions.to_string(),
        cellar.peak_resident_bytes().to_string(),
        cellar.resident_bytes().to_string(),
        format!("{reference_checksum:.6e}"),
    ]);
    drop(guard);

    for pct in CELLAR_FRACTIONS {
        let budget = (total_bytes as u64 * pct as u64 / 100).max(1) as usize;
        let config = SommelierConfig { cellar_bytes: Some(budget), ..bench_config(scale) };
        let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, config)?;
        let (wall, checksum) = cellar_workload(&guard.somm, total_days, rounds)?;
        let cellar = guard.somm.cellar().expect("prepared");
        let s = cellar.stats();
        t.row(vec![
            format!("sf-{sf}"),
            pct.to_string(),
            budget.to_string(),
            secs(wall),
            s.hits.to_string(),
            s.loads.to_string(),
            s.reloads.to_string(),
            s.evictions.to_string(),
            cellar.peak_resident_bytes().to_string(),
            cellar.resident_bytes().to_string(),
            format!("{checksum:.6e}"),
        ]);
    }
    Ok(t)
}

/// Worker counts the stage-2 parallelism sweep compares.
const STAGE2_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Stage-2 morsel parallelism sweep — worker counts × selection/partial-
/// aggregation pushdown on multi-chunk aggregate queries (T4 and T5
/// over the whole FIAM range, lazy loading).
///
/// Per configuration the query runs `runs` times with the caches
/// flushed before each run, so every run pays decode + stage-2
/// execution — the fused per-chunk wave this sweep measures. Reported
/// per row: average wall-clock, the load/stage-2 split, how many rows
/// stage 2 materialized into a union (`union_rows`, 0 when partial
/// aggregation fused), how many chunks went through per-chunk pipelines
/// (`partial_chunks`), and the result as exact bits (`result_bits`) —
/// identical `result_bits` across worker counts of one (query,
/// pushdown) group is the serial ≡ parallel guarantee.
pub fn stage2_parallel(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Stage-2 morsel parallelism: workers × pushdown on multi-chunk aggregates \
         (FIAM, lazy)",
        &[
            "sf",
            "query",
            "workers",
            "pushdown",
            "wall_s",
            "load_s",
            "stage2_s",
            "union_rows",
            "partial_chunks",
            "files_loaded",
            "result_bits",
        ],
    );
    let (sf, _) = scale.sf_extremes();
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let d0 = start_day();
    let (a, b) = queries::day_range(d0, total_days);
    let sqls = [("T4", queries::t4_selectivity(a, b)), ("T5", queries::t5_selectivity(a, b))];
    for (name, sql) in &sqls {
        for pushdown in [true, false] {
            for &workers in &STAGE2_WORKERS {
                let config = SommelierConfig {
                    max_threads: workers,
                    chunk_pushdown: pushdown,
                    ..bench_config(scale)
                };
                let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, config)?;
                // Warm run: derive any DMd the query needs (T5's windows)
                // so the timed runs measure chunk work, not derivation.
                guard.somm.query(sql)?;
                let runs = scale.runs.max(1);
                let mut wall = std::time::Duration::ZERO;
                let mut load = std::time::Duration::ZERO;
                let mut stage2 = std::time::Duration::ZERO;
                let mut last: Option<sommelier_core::QueryResult> = None;
                for _ in 0..runs {
                    // Flush residency: every run decodes its chunks.
                    guard.somm.flush_caches();
                    let (r, d) = time_it(|| guard.somm.query(sql));
                    let r = r?;
                    wall += d;
                    load += r.stats.load;
                    stage2 += r.stats.stage2;
                    last = Some(r);
                }
                let last = last.expect("runs >= 1");
                let avg = match last
                    .relation
                    .value(0, "avg")
                    .map_err(sommelier_core::SommelierError::Engine)?
                {
                    sommelier_storage::Value::Float(v) => v,
                    other => {
                        return Err(sommelier_core::SommelierError::Usage(format!(
                            "expected a float AVG, got {other:?}"
                        )))
                    }
                };
                t.row(vec![
                    format!("sf-{sf}"),
                    name.to_string(),
                    workers.to_string(),
                    if pushdown { "on" } else { "off" }.to_string(),
                    secs(wall / runs as u32),
                    secs(load / runs as u32),
                    secs(stage2 / runs as u32),
                    last.stats.rows_union_materialized.to_string(),
                    last.stats.partial_agg_chunks.to_string(),
                    last.stats.files_loaded.to_string(),
                    format!("{:016x}", avg.to_bits()),
                ]);
            }
        }
    }
    Ok(t)
}

/// The `zone_map_pruning` settings the optimizer sweep compares.
const OPT_KNOBS: [bool; 2] = [false, true];

/// One optimizer-sweep measurement: run `sql` `runs` times (caches
/// flushed, so every run decodes) and report counters + result bits.
fn optimizer_row(
    t: &mut Table,
    adapter: &str,
    query: &str,
    zone: bool,
    somm: &Sommelier,
    sql: &str,
    runs: usize,
) -> Result<()> {
    let runs = runs.max(1);
    let mut wall = std::time::Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        somm.flush_caches();
        let (r, d) = time_it(|| somm.query(sql));
        last = Some(r?);
        wall += d;
    }
    let last = last.expect("runs >= 1");
    let bits = match last
        .relation
        .value(0, last.relation.names().first().expect("one output"))
        .map_err(sommelier_core::SommelierError::Engine)?
    {
        sommelier_storage::Value::Float(v) => format!("f{:016x}", v.to_bits()),
        other => format!("{other:?}"),
    };
    t.row(vec![
        adapter.to_string(),
        query.to_string(),
        if zone { "on" } else { "off" }.to_string(),
        secs(wall / runs as u32),
        last.stats.files_selected.to_string(),
        last.stats.files_pruned.to_string(),
        last.stats.files_loaded.to_string(),
        last.stats.rows_loaded.to_string(),
        last.stats.bytes_loaded.to_string(),
        bits,
    ]);
    Ok(())
}

/// The per-file `E.val` maxima threshold for the event-log zone query
/// (see [`sommelier_core::adapters::value_stats_midpoint`]): a
/// midpoint ensures the predicate contradicts some files' zones but
/// not others'.
fn eventlog_threshold(logs: &std::path::Path, host: &str) -> Result<f64> {
    sommelier_core::adapters::value_stats_midpoint(logs, Some(host))?.ok_or_else(|| {
        sommelier_core::SommelierError::Usage(
            "event-log value maxima do not vary; cannot pick a pruning threshold".into(),
        )
    })
}

/// Optimizer sweep — zone-map pruning off vs on, on both built-in
/// adapters, over one zone-prunable T4 each:
///
/// * **mseed** — `t4_filezone` (FIAM, first day): the segment-free
///   view gets no metadata inference, so stage 1 selects every FIAM
///   chunk and only zone maps can prune.
/// * **eventlog** — a value-threshold scan whose bound comes from the
///   headers' per-file statistics; zone maps prune the quiet files.
///
/// Caches are flushed before every run, so every run decodes its
/// chunks (full width). `result_bits` must be identical within each
/// adapter: pruning may not change answers.
/// With `SOMM_SIM_IO` on, pruned chunks also skip their per-load
/// latency spike, so wall-clock scales with `files_loaded`.
pub fn optimizer_sweep(scale: &BenchScale) -> Result<Table> {
    use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
    let mut t = Table::new(
        "Optimizer sweep: zone-map pruning (cold cellar)",
        &[
            "adapter",
            "query",
            "zone_pruning",
            "wall_s",
            "files_selected",
            "files_pruned",
            "files_loaded",
            "rows_decoded",
            "bytes_decoded",
            "result_bits",
        ],
    );
    // ---- mSEED (FIAM) --------------------------------------------
    let (sf, _) = scale.sf_extremes();
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let (a, b) = queries::day_range(start_day(), 1);
    let mseed_sql = queries::t4_filezone("FIAM", a, b);
    for zone in OPT_KNOBS {
        let config = SommelierConfig { zone_map_pruning: zone, ..bench_config(scale) };
        let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, config)?;
        optimizer_row(
            &mut t,
            "mseed",
            "T4/filedataview",
            zone,
            &guard.somm,
            &mseed_sql,
            scale.runs,
        )?;
    }
    // ---- Event log -----------------------------------------------
    let logs = scale.data_dir.join("optimizer-eventlog");
    if !logs.join("web-1-api-20110301.evl").exists() {
        generate_event_logs(&logs, &EventLogSpec::small(8, 256))?;
    }
    let threshold = eventlog_threshold(&logs, "web-1")?;
    let evl_sql = format!(
        "SELECT COUNT(E.val) AS n FROM eventview \
         WHERE G.host = 'web-1' AND E.val > {threshold}"
    );
    for zone in OPT_KNOBS {
        let config = SommelierConfig { zone_map_pruning: zone, ..bench_config(scale) };
        let somm = Sommelier::builder()
            .source(EventLogAdapter::new(&logs))
            .config(config)
            .build()?;
        somm.prepare(LoadingMode::Lazy)?;
        optimizer_row(&mut t, "eventlog", "T4/eventview", zone, &somm, &evl_sql, scale.runs)?;
    }
    Ok(t)
}

/// Decode hot path sweep — two measurements behind `load_s` being ~95 %
/// of lazy query wall time after the stage-2 optimizations:
///
/// 1. **decode** — T4/T5 (sf-1, caches flushed before every run, 1
///    worker, simulated I/O off so the decode itself is what's timed): the single-pass
///    arena-backed columnar decode vs the retained reference decode
///    (per-segment relations + unions, the pre-PR code path).
///    `result_bits` must be identical in every row, and must match the
///    committed stage-2 baseline.
/// 2. **stage1** — candidate selection over the `sf-reg` registry
///    (`SOMM_REG_CHUNKS` registered chunks, headers only): the sorted
///    zone interval index vs the linear per-chunk registry scan, on a
///    two-day window. The candidate sets must be identical.
pub fn decode_hotpath(scale: &BenchScale) -> Result<Table> {
    decode_hotpath_sized(scale, crate::datasets::sf_reg_chunks())
}

/// [`decode_hotpath`] with an explicit `sf-reg` registry size (the
/// criterion wrapper runs a scaled-down registry; the `decode` binary
/// uses the full `SOMM_REG_CHUNKS`).
pub fn decode_hotpath_sized(scale: &BenchScale, reg_chunks: usize) -> Result<Table> {
    use crate::datasets::sf_reg_registry;
    use crate::runner::fresh_system_with_adapter;
    use sommelier_engine::{CmpOp, ZoneConstraint};
    use sommelier_mseed::{MseedAdapter, Repository};

    let mut t = Table::new(
        "Decode hot path: single-pass decode vs reference, indexed vs linear stage-1 \
         selection",
        &[
            "experiment",
            "query",
            "variant",
            "wall_s",
            "load_s",
            "rows_decoded",
            "files",
            "speedup",
            "result_bits",
        ],
    );

    // ---- 1. Chunk decode (FIAM sf-1, cold cellar, 1 worker) --------
    let sf = 1;
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let (a, b) = queries::day_range(start_day(), total_days);
    let sqls = [("T4", queries::t4_selectivity(a, b)), ("T5", queries::t5_selectivity(a, b))];
    // Decode-bound configuration: caches flushed before every timed run
    // (every run decodes), one worker (serial decode cost, not parallel
    // overlap), simulated I/O off (the sleep would swamp the decode
    // being measured).
    let config =
        || SommelierConfig { max_threads: 1, fault_plan: None, ..bench_config(scale) };
    for (name, sql) in &sqls {
        // The recorded PR-4 load_s under this exact configuration
        // (measured from a build of the PR-4 commit — see
        // EXPERIMENTS.md for the recipe). When present it is the
        // speedup baseline and appears as its own row; otherwise the
        // in-run reference-decode ablation is the baseline.
        let pr4: Option<f64> =
            std::env::var(format!("SOMM_PR4_LOAD_{name}")).ok().and_then(|v| v.parse().ok());
        if let Some(load) = pr4 {
            t.row(vec![
                "decode".into(),
                name.to_string(),
                "pr4_baseline".into(),
                "-".into(),
                format!("{load:.6}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "recorded from the PR-4 build".into(),
            ]);
        }
        let mut reference_load = None;
        for reference in [true, false] {
            let adapter = MseedAdapter::new(Repository::at(repo.dir()));
            let adapter = if reference { adapter.with_reference_decode() } else { adapter };
            let guard =
                fresh_system_with_adapter(scale, adapter, LoadingMode::Lazy, config())?;
            // Warm run: derive any DMd the query needs (T5's windows)
            // so the timed runs measure chunk decode, not derivation.
            guard.somm.query(sql)?;
            let runs = scale.runs.max(1);
            let mut wall = std::time::Duration::ZERO;
            let mut load = std::time::Duration::ZERO;
            let mut last = None;
            for _ in 0..runs {
                guard.somm.flush_caches();
                let (r, d) = time_it(|| guard.somm.query(sql));
                let r = r?;
                wall += d;
                load += r.stats.load;
                last = Some(r);
            }
            let last = last.expect("runs >= 1");
            let avg = match last
                .relation
                .value(0, "avg")
                .map_err(sommelier_core::SommelierError::Engine)?
            {
                sommelier_storage::Value::Float(v) => v,
                other => {
                    return Err(sommelier_core::SommelierError::Usage(format!(
                        "expected a float AVG, got {other:?}"
                    )))
                }
            };
            let load = load / runs as u32;
            let speedup = match (reference_load, pr4) {
                (None, _) => {
                    reference_load = Some(load);
                    "-".to_string()
                }
                // Speedup vs the recorded PR-4 load when available,
                // else vs the in-run reference-decode ablation.
                (Some(reference), baseline) => {
                    let baseline = baseline.unwrap_or(reference.as_secs_f64());
                    format!("{:.2}", baseline / load.as_secs_f64().max(1e-12))
                }
            };
            t.row(vec![
                "decode".into(),
                name.to_string(),
                if reference { "reference" } else { "single_pass" }.to_string(),
                secs(wall / runs as u32),
                secs(load),
                last.stats.rows_loaded.to_string(),
                last.stats.files_loaded.to_string(),
                speedup,
                format!("{:016x}", avg.to_bits()),
            ]);
        }
    }

    // ---- 2. Stage-1 candidate selection (sf-reg, headers only) -----
    let n = reg_chunks.max(1);
    let registry = sf_reg_registry(n);
    // A two-day window, mid-registry: the indexed path must find the
    // handful of covering chunks without touching the other ~n entries.
    let days = (n / 4) as i64;
    let d0 = 14_610 + days / 2;
    let (lo, hi) = queries::day_range(d0, 2.min(days.max(1)));
    let constraints = vec![
        ZoneConstraint {
            column: "D.sample_time".into(),
            op: CmpOp::Ge,
            value: sommelier_storage::Value::Time(lo),
        },
        ZoneConstraint {
            column: "D.sample_time".into(),
            op: CmpOp::Lt,
            value: sommelier_storage::Value::Time(hi),
        },
    ];
    let reps = (scale.runs.max(1) * 5).max(10);
    let (linear, linear_t) = time_it(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = registry.linear_candidate_positions(&constraints);
        }
        last
    });
    let (indexed, indexed_t) = time_it(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = registry
                .indexed_candidate_positions(&constraints)
                .expect("sf-reg zones are indexed");
        }
        last
    });
    if indexed != linear {
        return Err(sommelier_core::SommelierError::Usage(format!(
            "indexed candidates diverge from the linear scan: {} vs {} hits",
            indexed.len(),
            linear.len()
        )));
    }
    let speedup = linear_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12);
    for (variant, duration) in [("linear_scan", linear_t), ("interval_index", indexed_t)] {
        t.row(vec![
            "stage1".into(),
            format!("{n}-chunk window"),
            variant.to_string(),
            secs(duration / reps as u32),
            "-".into(),
            "-".into(),
            indexed.len().to_string(),
            if variant == "interval_index" { format!("{speedup:.1}") } else { "-".into() },
            format!("hits:{}", indexed.len()),
        ]);
    }
    Ok(t)
}

/// Observability overhead: the decode-bound T4/T5 sweep (FIAM sf-1,
/// cold cellar, 1 worker, simulated I/O off — the `decode_hotpath`
/// configuration) at each [`sommelier_core::ObsLevel`]. `Off` is the baseline;
/// `Counters` (the default level) must stay within noise of it, and
/// `result_bits` must be byte-identical across all three levels.
pub fn obs_overhead(scale: &BenchScale) -> Result<Table> {
    use crate::runner::fresh_system_with_adapter;
    use sommelier_core::ObsLevel;
    use sommelier_mseed::{MseedAdapter, Repository};

    let mut t = Table::new(
        "Observability overhead: T4/T5 decode-bound sweep at Off / Counters / Spans",
        &[
            "experiment",
            "query",
            "level",
            "wall_s",
            "load_s",
            "runs",
            "overhead_pct",
            "result_bits",
        ],
    );
    let sf = 1;
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let (a, b) = queries::day_range(start_day(), total_days);
    let sqls = [("T4", queries::t4_selectivity(a, b)), ("T5", queries::t5_selectivity(a, b))];
    let config = |level: ObsLevel| SommelierConfig {
        max_threads: 1,
        fault_plan: None,
        observability: level,
        ..bench_config(scale)
    };
    for (name, sql) in &sqls {
        let mut off_wall: Option<f64> = None;
        for level in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Spans] {
            let adapter = MseedAdapter::new(Repository::at(repo.dir()));
            let guard =
                fresh_system_with_adapter(scale, adapter, LoadingMode::Lazy, config(level))?;
            // Warm run: derive any DMd the query needs (T5's windows)
            // so the timed runs measure the observed hot path only.
            guard.somm.query(sql)?;
            let runs = scale.runs.max(1);
            // Best-of-N: the minimum is robust to scheduler noise,
            // which at ~5 ms per run otherwise swamps the sub-percent
            // counter overhead being measured.
            let mut wall = std::time::Duration::MAX;
            let mut load = std::time::Duration::MAX;
            let mut last = None;
            for _ in 0..runs {
                guard.somm.flush_caches();
                let (r, d) = time_it(|| guard.somm.query(sql));
                let r = r?;
                wall = wall.min(d);
                load = load.min(r.stats.load);
                last = Some(r);
            }
            let last = last.expect("runs >= 1");
            let avg = match last
                .relation
                .value(0, "avg")
                .map_err(sommelier_core::SommelierError::Engine)?
            {
                sommelier_storage::Value::Float(v) => v,
                other => {
                    return Err(sommelier_core::SommelierError::Usage(format!(
                        "expected a float AVG, got {other:?}"
                    )))
                }
            };
            let wall_s = wall.as_secs_f64();
            let overhead = match off_wall {
                None => {
                    off_wall = Some(wall_s);
                    "-".to_string()
                }
                Some(base) => format!("{:+.2}", 100.0 * (wall_s - base) / base.max(1e-12)),
            };
            t.row(vec![
                "obs_overhead".into(),
                name.to_string(),
                format!("{level:?}"),
                format!("{wall_s:.6}"),
                secs(load),
                runs.to_string(),
                overhead,
                format!("{:016x}", avg.to_bits()),
            ]);
        }
    }
    Ok(t)
}

/// Fault-tolerance sweep: T4 over the full FIAM sf-1 window (touches
/// every chunk) under rising transient-fault rates × retry budgets,
/// plus a degradation section where one chunk is permanently corrupt
/// and the query runs under `SkipUnreadable`.
///
/// Each run gets a *fresh* system with a run-specific injector seed —
/// the injector is deterministic per `(seed, uri, attempt)`, so reusing
/// one system would replay identical faults (and the per-chunk
/// transient cap would drain after the first run). Expected shape:
/// budget 1 fails roughly at the per-query fault probability, the
/// default budget 4 rides out the per-chunk cap of 2 and recovers to
/// 100% success at a p99 cost of a few backoffs, and `SkipUnreadable`
/// converts the remaining permanent failures into degraded answers.
pub fn fault_sweep(scale: &BenchScale) -> Result<Table> {
    use sommelier_core::{DegradationPolicy, FaultPlan, QueryOptions, RetryPolicy};

    let mut t = Table::new(
        "Fault tolerance: transient rate x retry budget -> success / p99 / degraded \
         (FIAM sf-1, lazy, T4 full window)",
        &[
            "mode",
            "rate",
            "budget",
            "runs",
            "success_pct",
            "degraded_pct",
            "p50_s",
            "p99_s",
            "retries",
            "faults",
        ],
    );
    let sf = 1;
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let (a, b) = queries::day_range(start_day(), total_days);
    let sql = queries::t4_selectivity(a, b);
    let runs = (scale.runs * 5).max(12);

    // (mode, transient rate, retry budget, corrupt one chunk?)
    let mut cells: Vec<(&str, f64, u32, bool)> = Vec::new();
    for &rate in &[0.0, 0.25, 0.5] {
        for &budget in &[1u32, 2, 4] {
            if rate == 0.0 && budget != 1 {
                continue; // fault-free baseline needs one row only
            }
            cells.push(("strict", rate, budget, false));
        }
    }
    cells.push(("skip", 0.5, 4, true));
    cells.push(("strict", 0.5, 4, true));

    for (mode, rate, budget, corrupt) in cells {
        let mut ok = 0usize;
        let mut degraded = 0usize;
        let mut lat = Vec::new();
        let mut faults = 0u64;
        let retries_before = sommelier_core::fault::io_retries();
        for run in 0..runs {
            let mut plan = FaultPlan::transient(rate);
            plan.seed = 0x5eed_f00d ^ (run as u64).wrapping_mul(0x9e37_79b9);
            if corrupt {
                // Sacrifice a deterministic victim chunk: the first
                // miniSEED file of the repository in sorted order (the
                // dir also holds the dataset's `.complete` marker).
                let mut files: Vec<_> = walk_files(repo.dir());
                files.retain(|f| f.ends_with(".msd"));
                files.sort();
                plan.corrupt_uris = vec![files.first().expect("non-empty repo").clone()];
            }
            let config = SommelierConfig {
                fault_plan: Some(plan),
                io_retry: RetryPolicy { max_attempts: budget, ..RetryPolicy::default() },
                ..bench_config(scale)
            };
            let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, config)?;
            let opts = QueryOptions {
                degradation: if mode == "skip" {
                    DegradationPolicy::SkipUnreadable
                } else {
                    DegradationPolicy::Strict
                },
                ..Default::default()
            };
            let (r, d) = time_it(|| guard.somm.query_opts(&sql, &opts));
            match r {
                Ok(res) => {
                    ok += 1;
                    if res.degraded.is_some() {
                        degraded += 1;
                    }
                    lat.push(d.as_secs_f64());
                }
                Err(e) => {
                    // Only injected faults may fail a run; anything
                    // else is a bench bug worth surfacing loudly.
                    assert!(
                        e.to_string().contains("injected")
                            || e.to_string().contains("failed to load"),
                        "unexpected failure: {e}"
                    );
                }
            }
            faults += guard.somm.fault_injector().map(|f| f.injected().errors()).unwrap_or(0);
        }
        lat.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let q = |p: f64| -> String {
            if lat.is_empty() {
                return "-".into();
            }
            let i = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1;
            format!("{:.6}", lat[i])
        };
        t.row(vec![
            mode.to_string(),
            format!("{rate:.2}"),
            budget.to_string(),
            runs.to_string(),
            format!("{:.1}", 100.0 * ok as f64 / runs as f64),
            format!("{:.1}", 100.0 * degraded as f64 / runs as f64),
            q(0.50),
            q(0.99),
            (sommelier_core::fault::io_retries() - retries_before).to_string(),
            faults.to_string(),
        ]);
    }
    Ok(t)
}

/// Every file under `dir`, recursively, as chunk-uri strings (the
/// adapters use the file path as the chunk uri).
fn walk_files(dir: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = std::fs::read_dir(&d) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    out.push(p.to_string_lossy().into_owned());
                }
            }
        }
    }
    out
}

/// FNV-1a hash of a string (stable across runs and platforms; used to
/// fingerprint query results order-independently).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Row-order-independent fingerprint of a relation, bound to the
/// query's workload position `i`: schema + row count hashed once, then
/// an XOR over per-row hashes. Row-returning queries whose waves span
/// several chunks concatenate per-chunk results in completion order,
/// so row *order* is scheduling-dependent while the row *multiset* is
/// not — this is exactly the equality the chaos driver must check.
fn relation_fingerprint(i: usize, rel: &sommelier_engine::Relation) -> u64 {
    use std::fmt::Write;
    let mut bits = fnv1a(&format!("{i}:cols={:?}:rows={}", rel.names(), rel.rows()));
    for r in 0..rel.rows() {
        let mut row = String::new();
        for (name, col) in rel.columns() {
            let _ = write!(row, "{name}={:?};", col.get(r));
        }
        bits ^= fnv1a(&format!("{i}:{row}"));
    }
    bits
}

/// Window depths the prefetch sweep compares (0 = classic fused path).
const PREFETCH_DEPTHS: [usize; 5] = [0, 1, 2, 4, 8];

/// Prefetch sweep: window depth × simulated seek latency × workers on
/// cold multi-chunk aggregates (FIAM, lazy, T4/T5). Every run flushes
/// residency first, so the wall clock is the cold fetch+decode
/// pipeline; `result_bits` must be identical down every column. The
/// headline is the depth ≥ 2 vs depth 0 cold-run ratio under the
/// seek-dominated medium (`sim_ms > 0`): fetch overlaps decode, so
/// per-chunk cost drops from `seek + decode` toward
/// `max(seek/io_threads, decode)`.
pub fn prefetch_sweep(scale: &BenchScale) -> Result<Table> {
    let mut t = Table::new(
        "Prefetch: depth x sim seek x workers on cold runs (FIAM, lazy)",
        &[
            "sf",
            "query",
            "sim_ms",
            "workers",
            "depth",
            "io_threads",
            "wall_s",
            "load_s",
            "issued",
            "hits",
            "wasted_b",
            "io_wait_s",
            "files_loaded",
            "result_bits",
        ],
    );
    let (sf, _) = scale.sf_extremes();
    let (repo, _) = dataset(scale, DatasetKind::Fiam, sf);
    let total_days = days_for_sf(sf) as i64;
    let d0 = start_day();
    let (a, b) = queries::day_range(d0, total_days);
    let sqls = [("T4", queries::t4_selectivity(a, b)), ("T5", queries::t5_selectivity(a, b))];
    let sim_points: &[u64] = if scale.sim_io { &[2, 8] } else { &[0] };
    for (name, sql) in &sqls {
        for &sim_ms in sim_points {
            for &workers in &[1usize, 8] {
                for &depth in &PREFETCH_DEPTHS {
                    let config = SommelierConfig {
                        max_threads: workers,
                        prefetch_depth: depth,
                        fault_plan: (sim_ms > 0).then(|| slow_chunk_io(sim_ms)),
                        ..bench_config(scale)
                    };
                    let io_threads = if depth > 0 { config.prefetch_io_threads() } else { 0 };
                    let guard = fresh_system_with(scale, &repo, LoadingMode::Lazy, config)?;
                    // Warm run: derive any DMd the query needs (T5's
                    // windows) so the timed runs measure chunk work.
                    guard.somm.query(sql)?;
                    let stats0 =
                        guard.somm.prefetch_stage().map_or((0, 0, 0, 0), |s| s.stats());
                    let runs = scale.runs.max(1);
                    let mut wall = std::time::Duration::ZERO;
                    let mut load = std::time::Duration::ZERO;
                    let mut last: Option<sommelier_core::QueryResult> = None;
                    for _ in 0..runs {
                        // Flush residency: every run fetches cold.
                        guard.somm.flush_caches();
                        let (r, d) = time_it(|| guard.somm.query(sql));
                        let r = r?;
                        wall += d;
                        load += r.stats.load;
                        last = Some(r);
                    }
                    let last = last.expect("runs >= 1");
                    let (issued, hits, wasted, io_wait) =
                        guard.somm.prefetch_stage().map_or((0, 0, 0, 0), |s| s.stats());
                    let avg = match last
                        .relation
                        .value(0, "avg")
                        .map_err(sommelier_core::SommelierError::Engine)?
                    {
                        sommelier_storage::Value::Float(v) => v,
                        other => {
                            return Err(sommelier_core::SommelierError::Usage(format!(
                                "expected a float AVG, got {other:?}"
                            )))
                        }
                    };
                    t.row(vec![
                        format!("sf-{sf}"),
                        name.to_string(),
                        sim_ms.to_string(),
                        workers.to_string(),
                        depth.to_string(),
                        io_threads.to_string(),
                        secs(wall / runs as u32),
                        secs(load / runs as u32),
                        (issued - stats0.0).to_string(),
                        (hits - stats0.1).to_string(),
                        (wasted - stats0.2).to_string(),
                        secs(std::time::Duration::from_nanos(io_wait - stats0.3)),
                        last.stats.files_loaded.to_string(),
                        format!("{:016x}", avg.to_bits()),
                    ]);
                }
            }
        }
    }
    Ok(t)
}

/// Deterministic chaos harness: seeded schedules composing injected
/// transient faults and latency spikes, one deterministically
/// panicking chunk, mid-query cancellation, tight timeouts, and
/// admission saturation, driven through the session API by concurrent
/// clients — finishing with a shutdown fired while the server is
/// freshly loaded.
///
/// Every cell first computes a fault-free reference for the whole
/// workload; a chaos run's *survivors* (queries that complete) must
/// reproduce their reference fingerprints exactly — asserted inside the
/// experiment — and every failure must be one of the typed lifecycle
/// errors. `result_bits` is the XOR of the surviving fingerprints;
/// `clean` reports the post-storm invariant ledger (zero pins, zero
/// staged bytes, zero queued) plus the shutdown report's own ledger.
pub fn chaos(scale: &BenchScale) -> Result<Table> {
    use sommelier_core::FaultPlan;
    use sommelier_server::{Server, ServerError, SessionOptions, SubmitOptions};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    let mut t = Table::new(
        "Chaos: seeded fault x cancel x timeout x panic x saturation schedules, \
         then shutdown-while-loaded (event logs, lazy)",
        &[
            "seed",
            "clients",
            "ops",
            "ok",
            "cancelled",
            "timed_out",
            "overloaded",
            "panicked",
            "p99_ms",
            "shutdown_drained",
            "shutdown_cancelled",
            "clean",
            "result_bits",
        ],
    );

    // A small event-log source: its chunk URIs are plain file paths,
    // which the workload uses for chunk-pruned queries that avoid the
    // poisoned chunk.
    use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
    let logs = scale.data_dir.join(format!("chaos-logs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&logs);
    generate_event_logs(&logs, &EventLogSpec::small(3, 64)).expect("generate event logs");
    let mut chunks = walk_files(&logs);
    chunks.sort();
    assert!(chunks.len() >= 3, "need a victim and several healthy chunks");
    let victim = chunks[0].clone();
    let healthy: Vec<&String> = chunks.iter().filter(|c| **c != victim).collect();

    // DMd-derived tables (Y) are excluded from the workload: their
    // derivation scans every chunk, which would make any query touching
    // them a second poison query.
    let mut workload: Vec<String> =
        vec!["SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'".into()];
    for c in &healthy {
        workload.push(format!("SELECT COUNT(*) AS n FROM eventview WHERE G.uri = '{c}'"));
        workload.push(format!("SELECT AVG(E.val) FROM eventview WHERE G.uri = '{c}'"));
    }
    let poison_op = workload.len();
    workload.push("SELECT COUNT(*) AS n FROM eventview WHERE E.val > -1000000000".into());

    // Fault-free reference fingerprints for every workload position.
    let build = |plan: Option<FaultPlan>| -> Result<Sommelier> {
        let config = SommelierConfig {
            max_threads: 4,
            admission_max_concurrent: 2,
            admission_queue_limit: 3,
            fault_plan: plan,
            ..SommelierConfig::default()
        };
        let somm = Sommelier::builder()
            .source(EventLogAdapter::new(&logs))
            .config(config)
            .build()?;
        somm.prepare(LoadingMode::Lazy)?;
        Ok(somm)
    };
    let clean_somm = build(None)?;
    let reference: Vec<u64> = workload
        .iter()
        .enumerate()
        .map(|(i, sql)| Ok(relation_fingerprint(i, &clean_somm.query(sql)?.relation)))
        .collect::<Result<_>>()?;
    drop(clean_somm);

    let clients = 6usize;
    let ops_per_seed = (scale.runs * 16).max(48);
    for seed in [0x01ce_2015_u64, 0xc4a6_0b5e, 0x5eed_cafe] {
        let somm = Arc::new(build(Some(FaultPlan {
            seed,
            transient_rate: 0.4,
            spike_rate: 1.0,
            spike: Duration::from_millis(5),
            panic_uris: vec![victim.clone()],
            ..FaultPlan::default()
        }))?);
        let server = Server::new(Arc::clone(&somm));

        // The schedule is a pure function of the seed.
        let mut rng = SmallRng::seed_from_u64(seed);
        let schedule: Vec<(usize, u64, u64)> = (0..ops_per_seed)
            .map(|k| {
                let q = if k % 8 == 7 { poison_op } else { rng.random_range(0..poison_op) };
                // action: 0..=5 wait, 6..=7 cancel after 0..30ms,
                // 8..=9 timeout 1..=40ms.
                (q, rng.random_range(0..10u64), rng.random_range(0..40u64))
            })
            .collect();

        let counts: [AtomicUsize; 5] = Default::default(); // ok, cancel, timeout, overload, panic
        let bits = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);
        let lat = Mutex::new(Vec::with_capacity(schedule.len()));
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let server = server.clone();
                let (schedule, workload, reference) = (&schedule, &workload, &reference);
                let (counts, bits, cursor, lat) = (&counts, &bits, &cursor, &lat);
                scope.spawn(move || {
                    let session = server.open_session(SessionOptions::default());
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(q, action, ms)) = schedule.get(k) else { break };
                        let sql = &workload[q];
                        let tq = std::time::Instant::now();
                        let submitted = if action >= 8 {
                            session.submit_with(
                                sql,
                                &SubmitOptions {
                                    timeout: Some(Duration::from_millis(1 + ms)),
                                    ..Default::default()
                                },
                            )
                        } else {
                            session.submit(sql)
                        };
                        let res = match submitted {
                            Ok(handle) => {
                                if (6..8).contains(&action) {
                                    std::thread::sleep(Duration::from_millis(ms % 30));
                                    handle.cancel();
                                }
                                handle.wait()
                            }
                            Err(e) => Err(e),
                        };
                        lat.lock().expect("latency lock").push(tq.elapsed());
                        match res {
                            Ok(r) => {
                                assert_ne!(
                                    q, poison_op,
                                    "op {k}: poison query cannot succeed"
                                );
                                let f = relation_fingerprint(q, &r.relation);
                                assert_eq!(
                                    f, reference[q],
                                    "op {k} (workload {q}) survived but drifted"
                                );
                                bits.fetch_xor(f, Ordering::Relaxed);
                                counts[0].fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                let slot = match e {
                                    ServerError::Cancelled => 1,
                                    ServerError::TimedOut => 2,
                                    ServerError::Overloaded { retry_after_ms, .. } => {
                                        // Honor (a capped slice of) the
                                        // advertised backpressure before
                                        // taking the next op.
                                        std::thread::sleep(Duration::from_millis(
                                            retry_after_ms.min(10),
                                        ));
                                        3
                                    }
                                    ServerError::Quarantined { .. }
                                    | ServerError::Query(
                                        sommelier_core::SommelierError::QueryPanicked {
                                            ..
                                        },
                                    ) => 4,
                                    other => panic!("op {k} failed untyped: {other}"),
                                };
                                counts[slot].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });

        // Shutdown while freshly loaded: one more wave, then drain.
        let fresh = server.open_session(SessionOptions::default());
        let wave: Vec<_> = healthy
            .iter()
            .take(4)
            .map(|c| {
                fresh
                    .submit(&format!("SELECT AVG(E.val) FROM eventview WHERE G.uri = '{c}'"))
                    .expect("submit wave")
            })
            .collect();
        let report = server.shutdown(Duration::from_secs(120));
        for h in wave {
            if let Err(e) = h.wait() {
                assert!(
                    matches!(e, ServerError::Cancelled | ServerError::ShuttingDown),
                    "wave failed untyped: {e}"
                );
            }
        }
        let clean = report.is_clean()
            && somm.cellar().map_or(0, |c| c.total_pins()) == 0
            && somm.prefetch_stage().map_or(0, |s| s.staged_bytes()) == 0;
        let mut ms: Vec<f64> = lat
            .into_inner()
            .expect("latency lock")
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let p99 = ms[((ms.len() - 1) as f64 * 0.99).round() as usize];
        t.row(vec![
            format!("{seed:#x}"),
            clients.to_string(),
            ops_per_seed.to_string(),
            counts[0].load(Ordering::Relaxed).to_string(),
            counts[1].load(Ordering::Relaxed).to_string(),
            counts[2].load(Ordering::Relaxed).to_string(),
            counts[3].load(Ordering::Relaxed).to_string(),
            counts[4].load(Ordering::Relaxed).to_string(),
            format!("{p99:.3}"),
            report.drained.to_string(),
            report.cancelled.to_string(),
            if clean { "yes".into() } else { "NO".into() },
            format!("{:016x}", bits.load(Ordering::Relaxed)),
        ]);
    }
    let _ = std::fs::remove_dir_all(&logs);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(tag: &str) -> BenchScale {
        let mut scale = BenchScale::tiny();
        scale.data_dir =
            std::env::temp_dir().join(format!("somm-exp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scale.data_dir);
        scale
    }

    #[test]
    fn table2_shape() {
        let scale = tiny("t2");
        let t = table2(&scale);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][2], "160", "sf-1 has the paper's 160 files");
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn cellar_sweep_shape_and_invariants() {
        let scale = tiny("cellar");
        let t = cellar_sweep(&scale).unwrap();
        // 1 calibration row + 3 fractions.
        assert_eq!(t.rows.len(), 1 + 3);
        // Bounding memory must never change answers: one checksum.
        let checksums: std::collections::HashSet<&String> =
            t.rows.iter().map(|r| &r[10]).collect();
        assert_eq!(checksums.len(), 1, "identical results across budgets: {t:?}");
        for row in &t.rows[1..] {
            let pct: u32 = row[1].parse().unwrap();
            let budget: u64 = row[2].parse().unwrap();
            let reloads: u64 = row[6].parse().unwrap();
            let evictions: u64 = row[7].parse().unwrap();
            let resident_after: u64 = row[9].parse().unwrap();
            assert!(
                resident_after <= budget,
                "resident {resident_after} over budget {budget} in {row:?}"
            );
            if pct == 10 {
                // A 10% budget under a repeated workload must thrash.
                assert!(evictions > 0, "{row:?}");
                assert!(reloads > 0, "{row:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn stage2_parallel_shape_and_invariants() {
        let scale = tiny("stage2");
        let t = stage2_parallel(&scale).unwrap();
        // 2 queries × 2 pushdown settings × 4 worker counts.
        assert_eq!(t.rows.len(), 2 * 2 * 4);
        for row in &t.rows {
            let pushdown = &row[3];
            let union_rows: u64 = row[7].parse().unwrap();
            let partial_chunks: u64 = row[8].parse().unwrap();
            let files_loaded: u64 = row[9].parse().unwrap();
            assert!(files_loaded > 1, "multi-chunk query: {row:?}");
            if pushdown == "on" {
                // Partial aggregation fused: the union never materialized.
                assert_eq!(union_rows, 0, "{row:?}");
                assert_eq!(partial_chunks, files_loaded, "{row:?}");
            } else {
                assert!(union_rows > 0, "baseline materializes the union: {row:?}");
                assert_eq!(partial_chunks, 0, "{row:?}");
            }
        }
        // Serial ≡ parallel, bit for bit, within each (query, pushdown)
        // group.
        let mut groups: std::collections::HashMap<(String, String), Vec<&String>> =
            std::collections::HashMap::new();
        for row in &t.rows {
            groups.entry((row[1].clone(), row[3].clone())).or_default().push(&row[10]);
        }
        for ((query, pushdown), bits) in groups {
            assert!(
                bits.iter().all(|b| *b == bits[0]),
                "{query}/{pushdown}: results differ across worker counts: {bits:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn optimizer_sweep_shape_and_invariants() {
        let scale = tiny("optimizer");
        let t = optimizer_sweep(&scale).unwrap();
        // 2 adapters × zone pruning off/on.
        assert_eq!(t.rows.len(), 2 * 2);
        for adapter in ["mseed", "eventlog"] {
            let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == adapter).collect();
            // Answers are knob-independent, bit for bit.
            assert!(
                rows.iter().all(|r| r[9] == rows[0][9]),
                "{adapter}: result bits differ across knobs: {rows:?}"
            );
            for row in &rows {
                let pruned: u64 = row[5].parse().unwrap();
                let loaded: u64 = row[6].parse().unwrap();
                if row[2] == "on" {
                    assert!(pruned > 0, "{adapter}: zone maps must prune: {row:?}");
                } else {
                    assert_eq!(pruned, 0, "{row:?}");
                }
                assert!(loaded > 0, "{row:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn table3_fig6_shapes() {
        let scale = tiny("t3f6");
        let (t3, f6) = table3_and_fig6(&scale).unwrap();
        assert_eq!(t3.rows.len(), 1);
        assert_eq!(f6.rows.len(), 5, "five approaches");
        // The paper's Table III orderings that survive tiny scale:
        // mSEED ≪ CSV and DB; indexes add bytes; lazy metadata is tiny.
        // (The CSV-vs-DB ratio needs realistic sample counts — per-file
        // headers dominate at 16 samples/segment; the harness binaries
        // run at ≥256.)
        let mseed: u64 = t3.rows[0][1].parse().unwrap();
        let csv: u64 = t3.rows[0][2].parse().unwrap();
        let db: u64 = t3.rows[0][3].parse().unwrap();
        let keys: u64 = t3.rows[0][4].parse().unwrap();
        let lazy: u64 = t3.rows[0][5].parse().unwrap();
        assert!(mseed < db, "mseed {mseed} < db {db}");
        assert!(mseed * 3 < csv, "csv expansion: mseed {mseed} vs csv {csv}");
        assert!(keys > 0, "indexes add bytes");
        assert!(lazy < db, "metadata {lazy} smaller than the loaded db {db}");
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn prefetch_sweep_shape() {
        let scale = tiny("prefetch");
        let t = prefetch_sweep(&scale).unwrap();
        // 2 queries x 1 sim point (off at tiny scale) x 2 workers x 5
        // depths; answers must be identical down every depth column.
        assert_eq!(t.rows.len(), 20);
        for query in ["T4", "T5"] {
            let bits: Vec<&String> =
                t.rows.iter().filter(|r| r[1] == query).map(|r| &r[13]).collect();
            assert!(bits.windows(2).all(|w| w[0] == w[1]), "{query}: identical results");
        }
        let hits: u64 = t.rows.iter().map(|r| r[9].parse::<u64>().unwrap()).sum();
        assert!(hits > 0, "windowed cells must consume prefetched bytes");
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }

    #[test]
    fn chaos_shape() {
        let scale = tiny("chaos");
        let t = chaos(&scale).unwrap();
        // 3 seeds; survivor byte-identity and typed-failure-only are
        // asserted inside the experiment itself.
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[11], "yes", "seed {}: ledger must balance: {row:?}", row[0]);
            let ok: usize = row[3].parse().unwrap();
            assert!(ok > 0, "seed {}: chaos must not kill the whole schedule", row[0]);
        }
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }
}
