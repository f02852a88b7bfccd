//! Ablation benches for the system's design choices:
//!
//! 1. static vs exchange chunk-loading parallelism under skew (§V's
//!    drawback and the paper's future-work fix),
//! 2. cellar retention on/off (default budget vs budget 0) for
//!    repeated chunk access,
//! 3. selection pushdown into chunk accesses on/off,
//! 4. FK verification of lazily ingested chunks on/off (§VI-A's
//!    "safe by design" argument priced out).

use criterion::{criterion_group, criterion_main, Criterion};
use sommelier_core::{LoadingMode, Sommelier, SommelierConfig};
use sommelier_engine::ParallelMode;
use sommelier_mseed::record::{FileMeta, MseedFile, SegmentData, SegmentMeta};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use sommelier_storage::time::MS_PER_DAY;
use std::hint::black_box;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("somm-abl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deliberately skewed repository: 8 one-day files for one station,
/// the first carrying 16× the samples of the others. Static per-chunk
/// parallelism is dominated by the big chunk; exchange balances its
/// segments across workers.
fn skewed_repo(dir: &std::path::Path) -> Repository {
    let repo = Repository::at(dir.join("repo"));
    std::fs::create_dir_all(repo.dir()).unwrap();
    let day0 = sommelier_storage::time::days_from_civil(2010, 1, 1);
    for day in 0..8i64 {
        let seg_count = if day == 0 { 64 } else { 4 };
        let samples_per_seg = 2_000u32;
        let day_start = (day0 + day) * MS_PER_DAY;
        let slot = MS_PER_DAY / seg_count;
        let segments: Vec<SegmentData> = (0..seg_count)
            .map(|s| {
                let start = day_start + s * slot;
                let n = samples_per_seg;
                let freq = n as f64 * 1000.0 / slot as f64;
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: s as u32,
                        start_time: start,
                        frequency: freq,
                        sample_count: n,
                    },
                    samples: sommelier_mseed::gen::generate_segment(
                        day as u64 * 1000 + s as u64,
                        &sommelier_mseed::gen::WaveformParams::default(),
                        start,
                        freq,
                        n as usize,
                    ),
                }
            })
            .collect();
        let file = MseedFile { meta: FileMeta::new("IV", "SKEW", "", "HHZ"), segments };
        let (y, m, d) = sommelier_storage::time::civil_from_days(day0 + day);
        sommelier_mseed::write_file(
            &repo.dir().join(format!("IV.SKEW.HHZ.{y:04}-{m:02}-{d:02}.msd")),
            &file,
        )
        .unwrap();
    }
    repo
}

const FULL_SCAN: &str = "SELECT AVG(D.sample_value) FROM dataview \
                         WHERE D.sample_time < '2010-01-09T00:00:00.000'";

fn system(repo: &Repository, mode: LoadingMode, config: SommelierConfig) -> Sommelier {
    let somm = Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .build()
        .expect("create system");
    somm.prepare(mode).expect("prepare");
    somm
}

/// Run `sql` from a cold cellar, so every chunk it selects decodes.
fn cold_query(somm: &Sommelier, sql: &str) -> sommelier_core::QueryResult {
    somm.flush_caches();
    somm.query(sql).unwrap()
}

fn bench_parallelism(c: &mut Criterion) {
    let dir = scratch("parallel");
    let repo = skewed_repo(&dir);
    let mut g = c.benchmark_group("ablation/chunk_parallelism_skewed");
    g.sample_size(10);
    for (label, mode) in [
        ("static", ParallelMode::Static),
        ("exchange", ParallelMode::Exchange { workers: 8 }),
    ] {
        let config = SommelierConfig { parallel: mode, ..SommelierConfig::default() };
        let somm = system(&repo, LoadingMode::Lazy, config);
        // Cold cellar every iteration: measure the load path itself.
        g.bench_function(label, |b| b.iter(|| black_box(cold_query(&somm, FULL_SCAN))));
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_retention_ablation(c: &mut Criterion) {
    let dir = scratch("retention");
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::fiam(1, 512);
    spec.days = 6;
    repo.generate(&spec).unwrap();
    let mut g = c.benchmark_group("ablation/cellar_retention_repeated_access");
    g.sample_size(10);
    for (label, cellar_bytes) in [("cached", None), ("uncached", Some(0))] {
        let config = SommelierConfig { cellar_bytes, ..SommelierConfig::default() };
        let somm = system(&repo, LoadingMode::Lazy, config);
        somm.query(FULL_SCAN).unwrap(); // warm (or not)
        g.bench_function(label, |b| b.iter(|| black_box(somm.query(FULL_SCAN).unwrap())));
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_pushdown_ablation(c: &mut Criterion) {
    let dir = scratch("pushdown");
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::fiam(1, 512);
    spec.days = 4;
    repo.generate(&spec).unwrap();
    // A selective predicate: pushdown filters inside each chunk before
    // the union materializes.
    let sql = "SELECT COUNT(*) AS n FROM dataview \
               WHERE D.sample_value > 100000 \
               AND D.sample_time < '2010-01-05T00:00:00.000'";
    let mut g = c.benchmark_group("ablation/selection_pushdown");
    g.sample_size(10);
    for (label, pushdown) in [("pushed_into_chunks", true), ("post_union", false)] {
        let config =
            SommelierConfig { chunk_pushdown: pushdown, ..SommelierConfig::default() };
        let somm = system(&repo, LoadingMode::Lazy, config);
        g.bench_function(label, |b| b.iter(|| black_box(cold_query(&somm, sql))));
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_fk_verification_ablation(c: &mut Criterion) {
    let dir = scratch("fk");
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::fiam(1, 512);
    spec.days = 4;
    repo.generate(&spec).unwrap();
    let mut g = c.benchmark_group("ablation/lazy_fk_verification");
    g.sample_size(10);
    for (label, verify) in [("skipped_as_in_paper", false), ("verified", true)] {
        let config = SommelierConfig { verify_lazy_fk: verify, ..SommelierConfig::default() };
        let somm = system(&repo, LoadingMode::Lazy, config);
        g.bench_function(label, |b| b.iter(|| black_box(cold_query(&somm, FULL_SCAN))));
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_parallelism,
    bench_retention_ablation,
    bench_pushdown_ablation,
    bench_fk_verification_ablation
);
criterion_main!(benches);
