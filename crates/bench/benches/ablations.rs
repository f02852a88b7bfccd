//! Ablation benches for the system's design choices:
//!
//! 1. cellar retention on/off (default budget vs budget 0) for
//!    repeated chunk access,
//! 2. selection pushdown into chunk accesses on/off,
//! 3. FK verification of lazily ingested chunks on/off (§VI-A's
//!    "safe by design" argument priced out).

use criterion::{criterion_group, criterion_main, Criterion};
use sommelier_core::{LoadingMode, Sommelier, SommelierConfig};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use std::hint::black_box;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("somm-abl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    bench_retention_ablation,
    bench_pushdown_ablation,
    bench_fk_verification_ablation
);
criterion_main!(benches);
