//! The observability layer end to end: metric-snapshot determinism,
//! span-tree shape across the T1–T5 taxonomy (plus a raw-row query) on
//! both source adapters,
//! result equivalence across observability levels, the ExecStats
//! accounting invariant, and the EXPLAIN / EXPLAIN ANALYZE surfaces.

use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
use sommelier_core::{LoadingMode, Metric, ObsLevel, Sommelier, SommelierConfig};
use sommelier_engine::obs::metrics::Kind;
use sommelier_integration::{ingv_repo, TempDir};
use sommelier_mseed::{MseedAdapter, Repository};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn obs_config(level: ObsLevel, threads: usize) -> SommelierConfig {
    SommelierConfig {
        observability: level,
        max_threads: threads,
        ..SommelierConfig::default()
    }
}

fn mseed_system(repo: &Repository, level: ObsLevel, threads: usize) -> Sommelier {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(obs_config(level, threads))
        .build()
        .unwrap()
}

fn eventlog_repo(dir: &TempDir, days: u32, events: u32) -> PathBuf {
    let logs = dir.join("logs");
    generate_event_logs(&logs, &EventLogSpec::small(days, events)).unwrap();
    logs
}

fn eventlog_system(logs: &Path, level: ObsLevel, threads: usize) -> Sommelier {
    Sommelier::builder()
        .source(EventLogAdapter::new(logs))
        .config(obs_config(level, threads))
        .build()
        .unwrap()
}

/// The paper's taxonomy against the seismology source, then raw rows.
fn mseed_queries() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) AS n FROM F WHERE station = 'ISK'",
        "SELECT window_start_ts, window_max_val FROM H \
         WHERE window_station = 'ISK' AND window_channel = 'BHE' \
         AND window_start_ts < '2010-01-01T04:00:00.000' \
         ORDER BY window_start_ts",
        "SELECT COUNT(*) AS n FROM windowview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE F.station = 'ISK' AND F.channel = 'BHE' \
         AND D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-02T00:00:00.000'",
        "SELECT AVG(D.sample_value) FROM windowdataview \
         WHERE F.station = 'ISK' AND H.window_max_val > -1000000000 \
         AND H.window_start_ts < '2010-01-01T04:00:00.000'",
        // Raw rows: a chunk union with no aggregate to fuse into.
        "SELECT D.sample_time, D.sample_value FROM dataview \
         WHERE F.station = 'ISK' AND F.channel = 'BHE' \
         AND D.sample_time >= '2010-01-01T00:00:00.000' \
         AND D.sample_time < '2010-01-01T01:00:00.000'",
    ]
}

/// The same taxonomy against the event-log source.
fn eventlog_queries() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) AS n FROM G WHERE host = 'web-1'",
        "SELECT day_start_ts, day_max_val FROM Y \
         WHERE day_host = 'web-1' AND day_service = 'api' \
         AND day_start_ts < '2011-03-03T00:00:00.000' \
         ORDER BY day_start_ts",
        "SELECT COUNT(*) AS n FROM dayview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
        "SELECT AVG(E.val) FROM eventview \
         WHERE G.host = 'web-1' AND G.service = 'api' \
         AND E.ts >= '2011-03-01T00:00:00.000' \
         AND E.ts < '2011-03-02T00:00:00.000'",
        "SELECT AVG(E.val) FROM daylogview \
         WHERE G.host = 'web-1' AND Y.day_max_val > 0 \
         AND Y.day_start_ts < '2011-03-03T00:00:00.000'",
        "SELECT E.ts, E.val FROM eventview \
         WHERE G.host = 'web-1' AND G.service = 'api' \
         AND E.ts >= '2011-03-01T00:00:00.000' \
         AND E.ts < '2011-03-01T06:00:00.000'",
    ]
}

/// Counters whose deltas must repeat exactly across identical warm
/// runs. Timings (`*_ns`, `decode.ns`), pool busy/idle accounting and
/// the process-global scratch-arena counters (shared with concurrently
/// running tests) are inherently nondeterministic and excluded.
fn is_deterministic(name: &str) -> bool {
    !name.ends_with("_ns") && name != "decode.ns" && !name.starts_with("decode.arena")
}

#[test]
fn counter_deltas_repeat_across_identical_warm_runs() {
    let dir = TempDir::new("obs-determinism");
    let repo = ingv_repo(&dir, 2, 64);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    let t4 = mseed_queries()[3];
    somm.query(t4).unwrap(); // warm: residency reached steady state
    let s0 = somm.metrics_snapshot();
    somm.query(t4).unwrap();
    let s1 = somm.metrics_snapshot();
    somm.query(t4).unwrap();
    let s2 = somm.metrics_snapshot();
    let d1: Vec<(String, u64)> =
        s1.counter_deltas(&s0).into_iter().filter(|(n, _)| is_deterministic(n)).collect();
    let d2: Vec<(String, u64)> =
        s2.counter_deltas(&s1).into_iter().filter(|(n, _)| is_deterministic(n)).collect();
    assert!(!d1.is_empty(), "a warm T4 must still move counters");
    assert_eq!(d1, d2, "identical warm runs must produce identical counter deltas");
    assert_eq!(s2.counter("query.count"), Some(3), "three runs counted");
}

#[test]
fn span_trace_shape_covers_the_taxonomy_on_both_adapters() {
    let dir = TempDir::new("obs-spans");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
        for threads in [1usize, 8] {
            for adapter in ["mseed", "eventlog"] {
                let (somm, queries) = if adapter == "mseed" {
                    (mseed_system(&repo, ObsLevel::Spans, threads), mseed_queries())
                } else {
                    (eventlog_system(&logs, ObsLevel::Spans, threads), eventlog_queries())
                };
                somm.prepare(mode).unwrap();
                for (i, sql) in queries.iter().enumerate() {
                    let r = somm.query(sql).unwrap();
                    let ctx = format!("{adapter} T{} {mode} x{threads}", i + 1);
                    assert!(
                        r.stats.accounting_balanced(),
                        "chunk accounting unbalanced on {ctx}: {:?}",
                        r.stats
                    );
                    let trace =
                        r.span_trace.as_ref().unwrap_or_else(|| panic!("no trace on {ctx}"));
                    let root =
                        trace.find("query").unwrap_or_else(|| panic!("{ctx}: no root"));
                    assert!(root.parent.is_none(), "{ctx}: query span must be the root");
                    assert_eq!(trace.count("query"), 1, "{ctx}");
                    assert_eq!(trace.count("inference"), 1, "{ctx}");
                    assert_eq!(trace.count("compile"), 1, "{ctx}");
                    assert_eq!(trace.count("stage2"), 1, "{ctx}");
                    assert_eq!(trace.count("rewrite_stage2"), 1, "{ctx}");
                    // Every span's parent precedes it (a well-formed tree).
                    for s in &trace.spans {
                        if let Some(p) = s.parent {
                            assert!(p < s.id, "{ctx}: span {} parented to later {}", s.id, p);
                        }
                    }
                    // Lazy runs that ingested chunks show one chunk-level
                    // span (`chunk` or any `chunk.*` kind) per chunk,
                    // tagged with the worker that ran it.
                    let ingested = r.stats.files_loaded + r.stats.cache_hits;
                    if mode == LoadingMode::Lazy && ingested > 0 {
                        let chunk_spans: Vec<_> = trace
                            .spans
                            .iter()
                            .filter(|s| s.name == "chunk" || s.name.starts_with("chunk."))
                            .collect();
                        assert_eq!(chunk_spans.len(), ingested, "{ctx}: one span per chunk");
                        assert!(
                            chunk_spans.iter().all(|s| s.worker.is_some()),
                            "{ctx}: chunk spans carry worker ids"
                        );
                    }
                    // Each stage's span and its stats field come from one
                    // pair of clock edges, so they are equal.
                    for (name, stat) in [
                        ("stage1", r.stats.stage1),
                        ("load", r.stats.load),
                        ("stage2", r.stats.stage2),
                    ] {
                        if let Some(s) = trace.find(name) {
                            let measured = stat.as_nanos() as u64;
                            assert_eq!(s.dur_ns, measured, "{ctx}: {name} span vs stats");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn spans_absent_below_spans_level() {
    let dir = TempDir::new("obs-levels");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    let r = somm.query(mseed_queries()[3]).unwrap();
    assert!(r.span_trace.is_none(), "no span trace expected at Counters");
}

#[test]
fn results_identical_across_observability_levels() {
    let dir = TempDir::new("obs-equivalence");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    for adapter in ["mseed", "eventlog"] {
        let (counters, spans, queries) = if adapter == "mseed" {
            (
                mseed_system(&repo, ObsLevel::Counters, 4),
                mseed_system(&repo, ObsLevel::Spans, 4),
                mseed_queries(),
            )
        } else {
            (
                eventlog_system(&logs, ObsLevel::Counters, 4),
                eventlog_system(&logs, ObsLevel::Spans, 4),
                eventlog_queries(),
            )
        };
        counters.prepare(LoadingMode::Lazy).unwrap();
        spans.prepare(LoadingMode::Lazy).unwrap();
        for (i, sql) in queries.iter().enumerate() {
            let a = counters.query(sql).unwrap();
            let b = spans.query(sql).unwrap();
            assert_eq!(
                format!("{:?}", a.relation),
                format!("{:?}", b.relation),
                "{adapter} T{}: Counters and Spans must be byte-identical",
                i + 1
            );
            assert!(a.stats.accounting_balanced() && b.stats.accounting_balanced());
        }
    }
}

#[test]
fn explain_annotates_zone_index_candidates() {
    let dir = TempDir::new("obs-explain-zone");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    let text = somm.explain(mseed_queries()[3]).unwrap();
    let zone_line = text
        .lines()
        .find(|l| l.contains("zone_map_pruning"))
        .expect("explain shows the zone_map_pruning pass");
    assert!(
        zone_line.contains("zone index:") && zone_line.contains("chunks candidate"),
        "zone-index candidate count missing from: {zone_line}"
    );
}

#[test]
fn explain_analyze_renders_spans_passes_and_accounting() {
    let dir = TempDir::new("obs-explain-analyze");
    let repo = ingv_repo(&dir, 2, 32);
    // Counters level: ANALYZE must force a span trace for its one run.
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    let t4 = mseed_queries()[3];
    let text = somm.explain_analyze(t4).unwrap();
    for needle in
        ["-- spans", "query", "stage2", "-- optimizer passes", "-- stages:", "-- chunks:"]
    {
        assert!(text.contains(needle), "EXPLAIN ANALYZE missing {needle:?} in:\n{text}");
    }
    assert!(
        text.contains("selected =") && text.contains("cache hits"),
        "accounting line missing:\n{text}"
    );
    assert!(text.starts_with("-- source:"), "{text}");
    // explain() does not sniff an ANALYZE prefix.
    assert!(somm.explain(&format!("ANALYZE {t4}")).is_err());
}

/// EXPLAIN ANALYZE names each stage-1 scan's access path and the rows
/// it touched: on a T5, `F` is scanned whole, `S` by the key runs of
/// the surviving files, and `H` by a range on its full key (the
/// station and channel carried over from `F`); its join also matches
/// days, which no key run follows, so it is hashed.
#[test]
fn explain_analyze_names_stage1_access_paths() {
    let dir = TempDir::new("obs-access-paths");
    let repo = ingv_repo(&dir, 3, 32);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    let t5 = "SELECT AVG(D.sample_value) FROM windowdataview \
              WHERE F.station = 'ISK' AND F.channel = 'BHE' \
              AND H.window_start_ts >= '2010-01-02T00:00:00.000' \
              AND H.window_start_ts < '2010-01-03T00:00:00.000' \
              AND H.window_max_val > -1000000000";
    // A first run derives the windows; the second reads them.
    somm.query(t5).unwrap();
    let text = somm.explain_analyze(t5).unwrap();
    let (_, spans) = text.split_once("-- spans\n").unwrap();
    let stage1 = spans.lines().position(|l| l.trim_start().starts_with("stage1 ")).unwrap();
    let scans: Vec<&str> = spans
        .lines()
        .skip(stage1 + 1)
        .take_while(|l| l.starts_with("    "))
        .filter(|l| l.trim_start().starts_with("scan "))
        .collect();
    let line = |table: &str| {
        *scans
            .iter()
            .find(|l| l.contains(&format!("({table}: ")))
            .unwrap_or_else(|| panic!("no {table} scan under stage1 in:\n{text}"))
    };
    // "<touched> of <rows> rows"
    let touched = |l: &str| -> (u64, u64) {
        let (_, tail) = l.rsplit_once(", ").unwrap();
        let (n, rest) = tail.split_once(" of ").unwrap();
        (n.parse().unwrap(), rest.split(' ').next().unwrap().parse().unwrap())
    };
    let f = line("F");
    assert!(f.contains("F: full scan, "), "{f}");
    let (n, total) = touched(f);
    assert_eq!(n, total, "{f}");
    let s = line("S");
    assert!(s.contains("S: key runs of F.file_id, "), "{s}");
    let (n, total) = touched(s);
    assert!(0 < n && n < total, "{s}");
    let h = line("H");
    assert!(h.contains("H: range on PK prefix (3 of 3 cols), "), "{h}");
    let (n, total) = touched(h);
    assert!(n == 24 && n < total, "{h}");
}

#[test]
fn explain_and_explain_analyze_render_one_plan() {
    let dir = TempDir::new("obs-explain-one-plan");
    let repo = ingv_repo(&dir, 2, 32);
    let logs = eventlog_repo(&dir, 3, 32);
    for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
        for adapter in ["mseed", "eventlog"] {
            let (somm, queries) = if adapter == "mseed" {
                (mseed_system(&repo, ObsLevel::Counters, 2), mseed_queries())
            } else {
                (eventlog_system(&logs, ObsLevel::Counters, 2), eventlog_queries())
            };
            somm.prepare(mode).unwrap();
            for (i, sql) in queries.iter().take(5).enumerate() {
                let ctx = format!("{adapter} T{} {mode}", i + 1);
                let plain = somm.explain(sql).unwrap();
                let (plan, _) = plain
                    .split_once("-- stage-2 physical shape")
                    .unwrap_or_else(|| panic!("{ctx}: no physical section in:\n{plain}"));
                assert!(
                    plan.starts_with("-- source:") && plan.contains("query type:"),
                    "{ctx}"
                );
                let analyzed = somm.explain_analyze(sql).unwrap();
                let rest = analyzed.strip_prefix(plan).unwrap_or_else(|| {
                    panic!("{ctx}: EXPLAIN ANALYZE renders another plan:\n{plan}\n{analyzed}")
                });
                assert!(rest.starts_with("-- spans\n"), "{ctx}: {rest}");
                let (_, passes) = rest.split_once("-- optimizer passes\n").unwrap();
                let join_order = passes.lines().filter(|l| l.contains("join_order:")).count();
                assert_eq!(join_order, 1, "{ctx}: compiled once:\n{passes}");
            }
        }
    }
}

#[test]
fn queue_wait_span_appears_once_on_admitted_queries() {
    let dir = TempDir::new("obs-queue-wait");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, ObsLevel::Spans, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    // Every top-level query passes admission control, so its span tree
    // carries exactly one queue_wait span (a child of the root),
    // however short the wait was on an idle system.
    let r = somm.query(mseed_queries()[3]).unwrap();
    let trace = r.span_trace.as_ref().expect("Spans level produces a trace");
    assert_eq!(trace.count("queue_wait"), 1, "exactly one queue_wait span");
    let qw = trace.find("queue_wait").unwrap();
    let root = trace.find("query").unwrap();
    assert_eq!(qw.parent, Some(root.id), "queue_wait hangs off the query root");
    // And EXPLAIN ANALYZE (which forces spans) renders it.
    let text = somm.explain_analyze(mseed_queries()[3]).unwrap();
    assert!(text.contains("queue_wait"), "EXPLAIN ANALYZE missing queue_wait:\n{text}");
}

/// The metric names in README's table: each row names its families
/// (`` `cellar.*` ``) in the first cell and their members
/// (`` `hits` ``) in the second.
fn readme_metric_names() -> BTreeSet<String> {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
            .expect("README.md at the repository root");
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
    };
    let mut names = BTreeSet::new();
    let rows = readme
        .lines()
        .skip_while(|l| !l.starts_with("| family |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    for row in rows {
        let cells: Vec<&str> = row.split('|').collect();
        let families = ticked(cells[1]);
        for family in &families {
            let family = family.strip_suffix(".*").expect("family cells read `name.*`");
            for member in ticked(cells[2]) {
                names.insert(format!("{family}.{member}"));
            }
        }
    }
    names
}

#[test]
fn metrics_snapshot_serializes_documented_names() {
    let dir = TempDir::new("obs-snapshot-json");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    somm.query(mseed_queries()[3]).unwrap();
    let snap = somm.metrics_snapshot();
    let catalogue: BTreeSet<String> =
        Metric::ALL.iter().map(|m| m.name().to_string()).collect();
    assert_eq!(readme_metric_names(), catalogue, "README's metric table is the catalogue");
    for m in Metric::ALL {
        let listed = match m.kind() {
            Kind::Counter => snap.counter(m.name()).is_some(),
            Kind::Gauge => snap.gauge(m.name()).is_some(),
            Kind::Histogram => snap.histograms.iter().any(|h| h.name == m.name()),
        };
        assert!(listed, "declared {:?} {:?} missing from the snapshot", m.kind(), m.name());
    }
    assert!(snap.counter("query.count") >= Some(1));
    let json = snap.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'), "not a JSON object");
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"query.count\""] {
        assert!(json.contains(key), "JSON missing {key}:\n{json}");
    }
}

/// A snapshot is a pure read: every subsystem counts into the registry
/// where the event happens, so the live registry already holds what
/// `metrics_snapshot` reports — bar the three values it reads from
/// outside the registry — and taking snapshots changes nothing.
#[test]
fn metrics_snapshot_is_a_read() {
    let dir = TempDir::new("obs-snapshot-read");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = mseed_system(&repo, ObsLevel::Counters, 2);
    somm.prepare(LoadingMode::Lazy).unwrap();
    for sql in &mseed_queries()[..5] {
        somm.query(sql).unwrap();
    }
    // Nobody has called `metrics_snapshot` on this system yet.
    let live = somm.metrics().snapshot();
    let snap = somm.metrics_snapshot();
    let outside =
        |name: &str| name.starts_with("decode.arena_") || name == "fault.faults_injected";
    let inside = |pairs: &[(String, u64)]| -> Vec<(String, u64)> {
        pairs.iter().filter(|(n, _)| !outside(n)).cloned().collect()
    };
    assert_eq!(inside(&live.counters), inside(&snap.counters));
    assert_eq!(live.gauges, snap.gauges);
    assert_eq!(live.histograms, snap.histograms);
    assert!(live.counter("cellar.loads") > Some(0), "T4 and T5 loaded chunks");
    // Back to back: equal, except the process-wide arena counters that
    // concurrently running tests move.
    let (a, b) = (somm.metrics_snapshot(), somm.metrics_snapshot());
    let system = |pairs: &[(String, u64)]| -> Vec<(String, u64)> {
        pairs.iter().filter(|(n, _)| !n.starts_with("decode.arena_")).cloned().collect()
    };
    assert_eq!(system(&a.counters), system(&b.counters), "a snapshot writes nothing");
    assert_eq!((a.gauges, a.histograms), (b.gauges, b.histograms));
}

/// Every counter (`delta("…")`) and gauge (`.gauge("…")`) the benchmark
/// reads by name is declared with that kind, so a rename cannot
/// silently zero a benchmark row.
#[test]
fn benchmark_reads_only_declared_metrics() {
    let layers = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmark/src/layers.rs"
    ))
    .expect("benchmark/src/layers.rs");
    let read = |call: &str| -> Vec<String> {
        layers
            .split(call)
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    };
    for (call, kind, at_least) in
        [("delta(\"", Kind::Counter, 10), (".gauge(\"", Kind::Gauge, 1)]
    {
        let names = read(call);
        assert!(names.len() >= at_least, "expected {call}…\") reads, found {names:?}");
        for name in names {
            assert!(
                Metric::ALL.iter().any(|m| m.name() == name && m.kind() == kind),
                "benchmark reads {name:?}, which is not a declared {kind:?}"
            );
        }
    }
}
