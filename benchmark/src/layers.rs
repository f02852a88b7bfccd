//! Per-layer metrics of the traced run.
//!
//! Three sources, all outside the program: sums of what each measured
//! query reported (`ExecStats`, `PassTrace`, its span tree), deltas of
//! `metrics_snapshot()` across the measured phase, and a standalone
//! *layer replay* that times single public functions (`sql::compile`,
//! `zone_candidates`, `fetch_bytes`, `decode_bytes`, `steim`) over the
//! same texts and chunks the workload used.

use crate::fixtures::Rng;
use crate::harness::{threads, Metric, Phase, RunOptions, System};
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::trace::SpanLog;
use crate::workloads::{Class, Fixture, Stream};
use sommelier_core::chunks::ChunkRegistry;
use sommelier_core::registrar::register_source;
use sommelier_core::source::assemble_catalog;
use sommelier_core::{LoadingMode, Sommelier};
use sommelier_engine::{CmpOp, ZoneConstraint};
use sommelier_storage::catalog::Disposition;
use sommelier_storage::time::MS_PER_DAY;
use sommelier_storage::{BufferPoolConfig, Database, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Texts the `sql` and `core.explain` replays run over.
const COMPILE_TEXTS: usize = 2000;
const EXPLAIN_TEXTS: usize = 200;
/// Windows the stage-1 zone-index replay probes.
const ZONE_PROBES: usize = 1000;
/// Fresh `build + prepare` rounds behind `registrar.prepare_ms`.
const PREPARE_ROUNDS: usize = 7;

/// Times a closure as one harness span; returns its result and seconds.
struct Replay<'a> {
    log: &'a mut SpanLog,
    epoch: Instant,
}

impl Replay<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.log.push(name, ns(t0), ns(t1), None, None);
        (r, (t1 - t0).as_secs_f64())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn per_layer(
    opts: &RunOptions,
    system: &System,
    fixture: &Fixture,
    phase: &Phase,
    epoch: Instant,
    log: &mut SpanLog,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut set = |name: &'static str, v: f64| {
        values.insert(name, v);
    };
    let somm = &system.somm;
    let sums = &phase.sums;
    let q = sums.queries.max(1) as f64;
    let busy_s = phase.busy_s();

    // ---- What the measured queries reported -------------------------
    let stages_ns = (sums.stage1_ns + sums.load_ns + sums.stage2_ns) as f64;
    set("optimizer.passes_us", sums.passes_ns as f64 / q / 1e3);
    set("optimizer.zone_map_pruning_us", sums.zone_pass_ns as f64 / q / 1e3);
    set("chunks.stage1_us", sums.stage1_ns as f64 / q / 1e3);
    set("chunks.selected_per_query", sums.selected as f64 / q);
    // Share of (queries × registered chunks) never acquired.
    set(
        "chunks.pruned_share",
        1.0 - ratio((sums.loaded + sums.hits) as f64, q * fixture.chunks() as f64),
    );
    set("twostage.load_ms", sums.load_ns as f64 / q / 1e6);
    set("twostage.stage2_ms", sums.stage2_ns as f64 / q / 1e6);
    set("twostage.chunk_mb_s", sums.bytes_loaded as f64 / 1e6 / busy_s);
    set("twostage.partial_agg_chunks_per_query", sums.partial_agg as f64 / q);
    set("twostage.rows_union_per_query", sums.rows_union as f64 / q);
    // The program's root span is the core's view of a query; what the
    // session adds on top (text compile, control thread, hand-off) is
    // the server's overhead. A library call has no such layer.
    let core_ns =
        if opts.workload.through_server() { sums.span_root_ns } else { sums.lat_ns } as f64;
    set("core.unattributed_us", (core_ns - stages_ns).max(0.0) / q / 1e3);
    set(
        "server.overhead_us",
        if opts.workload.through_server() {
            (sums.lat_ns as f64 - core_ns) / q / 1e3
        } else {
            0.0
        },
    );
    set("query.p99_ms", phase.latency_ms(0.99, None, None));
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    set("query.p50_ms.meta", or_zero(phase.latency_ms(0.5, Some(Class::Meta), None)));
    set("query.p50_ms.data", or_zero(phase.latency_ms(0.5, Some(Class::Data), None)));
    set(
        "query.p50_ms.high",
        if opts.workload.through_server() {
            phase.latency_ms(0.5, None, Some(0))
        } else {
            0.0
        },
    );
    set("obs.traced_qps", phase.attempted() as f64 / busy_s);
    let stats_ns = (sums.load_ns + sums.stage2_ns) as f64;
    set(
        "obs.span_vs_stats_gap_pct",
        100.0
            * ratio(
                ((sums.span_load_ns + sums.span_stage2_ns) as f64 - stats_ns).abs(),
                stats_ns,
            ),
    );
    set(
        "obs.bench_vs_span_gap_pct",
        100.0 * ratio(sums.lat_ns as f64 - sums.span_root_ns as f64, sums.lat_ns as f64),
    );
    set("obs.error_rate", ratio(phase.failed as f64, phase.attempted() as f64));
    let w = &phase.window;
    set("counts.queries", w.queries as f64);
    set("counts.chunks_selected", w.selected as f64);
    set("counts.files_loaded", w.loaded as f64);
    set("counts.partial_agg_chunks", w.partial_agg as f64);
    set("counts.cellar_evictions", w.evictions as f64);
    if (w.queries as usize) < opts.workload.count_window() {
        notes.push(format!(
            "count window not filled ({} of {} queries): counts.* are not comparable",
            w.queries,
            opts.workload.count_window()
        ));
    }

    // ---- Counter deltas across the measured phase -------------------
    let delta = |name: &str| {
        let get = |s: &sommelier_core::MetricsSnapshot| s.counter(name).unwrap_or(0);
        get(&phase.after).saturating_sub(get(&phase.before)) as f64
    };
    let (hits, loads, joins) =
        (delta("cellar.hits"), delta("cellar.loads"), delta("cellar.joins"));
    set("cellar.hit_share", ratio(hits, hits + loads + joins));
    set("cellar.evictions_per_query", delta("cellar.evictions") / q);
    set("cellar.reloads_per_query", delta("cellar.reloads") / q);
    set("cellar.joins_per_query", joins / q);
    set("cellar.pin_wait_us_per_query", delta("cellar.pin_wait_ns") / q / 1e3);
    set(
        "cellar.peak_resident_mb",
        phase.after.gauge("cellar.peak_resident_bytes").unwrap_or(0) as f64 / 1e6,
    );
    set(
        "sched.busy_share",
        ratio(delta("sched.busy_ns"), phase.wall_ns as f64 * threads() as f64),
    );
    set("sched.tasks_per_query", delta("sched.tasks") / q);
    set("sched.batches_per_query", delta("sched.batches") / q);
    set("admission.queue_wait_us_per_query", delta("admission.queue_wait_ns") / q / 1e3);
    set("admission.rejected", delta("admission.rejected"));
    set("prefetch.hit_share", ratio(delta("prefetch.hits"), delta("prefetch.issued")));
    set("prefetch.io_wait_us_per_query", delta("prefetch.io_wait_ns") / q / 1e3);
    set("prefetch.wasted_bytes_per_query", delta("prefetch.wasted_bytes") / q);
    let (reuse, alloc) = (delta("decode.arena_reuse"), delta("decode.arena_alloc"));
    set("decode.arena_reuse_share", ratio(reuse, reuse + alloc));

    // ---- Layer replay -----------------------------------------------
    let mut replay = Replay { log, epoch };
    let adapter = fixture.adapter();
    let mut stream = Stream::new(opts.workload, fixture, opts.seed, 0);
    let texts: Vec<String> = (0..COMPILE_TEXTS).map(|_| stream.next_query().sql).collect();

    // sql: parse + bind, second pass timed.
    let catalog = assemble_catalog(&[adapter.descriptor()]).map_err(|e| e.to_string())?;
    let mut compile_s = 0.0;
    for timed in [false, true] {
        for sql in &texts {
            let (spec, s) =
                replay.span("layer.sql.compile", || sommelier_sql::compile(sql, &catalog));
            black_box(spec.map_err(|e| format!("sql replay: {e}"))?);
            if timed {
                compile_s += s;
            }
        }
    }
    set("sql.compile_us", compile_s * 1e6 / texts.len() as f64);

    // core: compile + plan + stage-2 rewrite, nothing executed.
    let mut explain_s = 0.0;
    for sql in &texts[..EXPLAIN_TEXTS] {
        let (plan, s) = replay.span("layer.core.explain", || somm.explain(sql));
        black_box(plan.map_err(|e| format!("explain replay: {e}"))?);
        explain_s += s;
    }
    set("core.explain_us", explain_s * 1e6 / EXPLAIN_TEXTS as f64);

    // chunks: the zone interval index, on a registry built the way
    // `prepare` builds it.
    let db = Database::in_memory(BufferPoolConfig::default());
    for schema in &adapter.descriptor().schemas {
        db.create_table(schema.clone(), Disposition::Resident).map_err(|e| e.to_string())?;
    }
    let (registry, _): (ChunkRegistry, _) =
        register_source(&db, adapter.as_ref(), threads()).map_err(|e| e.to_string())?;
    let (lo, hi) = fixture.time_range();
    let mut rng = Rng::derive(opts.seed, "zone-probes");
    let mut zone_s = 0.0;
    for _ in 0..ZONE_PROBES {
        let len = rng.range(1, 8) * MS_PER_DAY;
        let from = rng.range(lo, hi - len);
        let bound = |op, at| ZoneConstraint {
            column: fixture.zone_column().to_string(),
            op,
            value: Value::Time(at),
        };
        let constraints = [bound(CmpOp::Ge, from), bound(CmpOp::Lt, from + len)];
        let (hit, s) = replay
            .span("layer.chunks.zone_candidates", || registry.zone_candidates(&constraints));
        black_box(hit.ok_or("zone index does not cover the workload's window column")?);
        zone_s += s;
    }
    set("chunks.zone_candidates_us", zone_s * 1e6 / ZONE_PROBES as f64);

    // fetch → (steim) → decode over every registered chunk.
    let entries = registry.entries();
    let (mut fetch_s, mut decode_s, mut steim_s) = (0.0, 0.0, 0.0);
    let (mut source_bytes, mut steim_samples) = (0u64, 0u64);
    for entry in entries {
        let (raw, s) = replay.span("layer.fetch", || adapter.fetch_bytes(entry));
        let raw = raw.map_err(|e| format!("fetch replay: {e}"))?;
        fetch_s += s;
        source_bytes += raw.len() as u64;
        if let Fixture::Mseed(_) = fixture {
            let header = sommelier_mseed::reader::parse_full_bytes(&raw.bytes, &entry.uri)
                .map_err(|e| e.to_string())?;
            let (sum, s) = replay.span("layer.steim", || {
                let mut sum = 0i64;
                for (seg, &(off, len)) in header.segments.iter().zip(&header.payload_spans) {
                    let payload = &raw.bytes[off as usize..off as usize + len as usize];
                    sommelier_mseed::steim::decode_each(
                        payload,
                        seg.sample_count as usize,
                        |v| sum += v as i64,
                    )?;
                }
                Ok::<_, sommelier_mseed::MseedError>(sum)
            });
            black_box(sum.map_err(|e| e.to_string())?);
            steim_s += s;
            steim_samples +=
                header.segments.iter().map(|s| s.sample_count as u64).sum::<u64>();
        }
        let (rel, s) = replay.span("layer.decode", || adapter.decode_bytes(entry, raw, None));
        black_box(rel.map_err(|e| format!("decode replay: {e}"))?);
        decode_s += s;
    }
    let chunks = entries.len() as f64;
    set("fetch.us_per_chunk", fetch_s * 1e6 / chunks);
    set("fetch.mb_s", source_bytes as f64 / 1e6 / fetch_s);
    let decode_us = decode_s * 1e6 / chunks;
    let is_mseed = matches!(fixture, Fixture::Mseed(_));
    set("decode.mseed_us_per_chunk", if is_mseed { decode_us } else { 0.0 });
    set(
        "decode.mseed_mb_s",
        if is_mseed { source_bytes as f64 / 1e6 / decode_s } else { 0.0 },
    );
    set("decode.eventlog_us_per_chunk", if is_mseed { 0.0 } else { decode_us });
    set("steim.msamples_s", ratio(steim_samples as f64 / 1e6, steim_s));

    // registrar / storage: the whole up-front cost of lazy loading.
    let mut rounds = Vec::new();
    for _ in 0..PREPARE_ROUNDS {
        let (built, s) = replay.span("layer.registrar.prepare", || {
            let somm = Sommelier::builder()
                .source_arc(fixture.adapter())
                .config(opts.workload.config(fixture, threads(), false))
                .build()?;
            somm.prepare(LoadingMode::Lazy)?;
            Ok::<_, sommelier_core::SommelierError>(somm)
        });
        black_box(built.map_err(|e| format!("prepare replay: {e}"))?);
        rounds.push(s * 1e3);
    }
    set("registrar.prepare_ms", median(&rounds));
    set("registrar.us_per_chunk", median(&rounds) * 1e3 / chunks);
    set("storage.metadata_bytes", somm.metadata_bytes() as f64);
    set(
        "storage.db_bytes_per_source_byte",
        ratio(somm.db_bytes() as f64, source_bytes as f64),
    );

    // dmd: the first DMd-referring statement after forgetting it all.
    somm.reset_dmd().map_err(|e| e.to_string())?;
    let derive = opts.workload.warmup(fixture, opts.seed).swap_remove(0);
    let (derived, s) = replay.span("layer.dmd.derive", || somm.query(&derive));
    derived.map_err(|e| format!("dmd replay: {e}"))?;
    set("dmd.derive_s", s);
    set("dmd.covered_keys", somm.dmd_manager().covered_count() as f64);

    PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .ok_or(format!("per-layer metric {} not filled", m.name))?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
                spread: f64::NAN,
                samples: sums.queries as usize,
            })
        })
        .collect()
}
