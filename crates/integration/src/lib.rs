//! Shared helpers for the workspace-level integration tests in
//! `tests/` (wired into cargo through this crate's `[[test]]` entries).

pub mod reference;

use sommelier_core::adapters::EventLogAdapter;
use sommelier_core::{LoadingMode, MetricsRegistry, Result, Sommelier, SommelierConfig};
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A self-cleaning scratch directory.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create under the system temp dir, uniquely named.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "somm-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// Path inside the directory.
    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate a small INGV-like repository (4 stations × `days`).
pub fn ingv_repo(dir: &TempDir, days: u32, samples: u32) -> Repository {
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::ingv(1, samples);
    spec.days = days;
    repo.generate(&spec).expect("generate repo");
    repo
}

/// Generate a small FIAM repository (1 station × `days`).
pub fn fiam_repo(dir: &TempDir, days: u32, samples: u32) -> Repository {
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::fiam(1, samples);
    spec.days = days;
    repo.generate(&spec).expect("generate repo");
    repo
}

/// An in-memory system over the given mSEED repository directory.
pub fn in_memory_system(repo: &Repository, config: SommelierConfig) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .build()
}

/// A disk-backed system (database files under `db_dir`).
pub fn disk_system(
    db_dir: &Path,
    repo: &Repository,
    config: SommelierConfig,
) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .on_disk(db_dir)
        .build()
}

/// Re-open a previously prepared disk-backed system.
pub fn open_system(
    db_dir: &Path,
    repo: &Repository,
    config: SommelierConfig,
) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .open(db_dir)
        .build()
}

/// An in-memory system over the event logs under `logs`, prepared
/// lazily.
pub fn eventlog_system(logs: &Path, config: SommelierConfig) -> Sommelier {
    let somm = Sommelier::builder()
        .source(EventLogAdapter::new(logs))
        .config(config)
        .build()
        .unwrap();
    somm.prepare(LoadingMode::Lazy).expect("prepare");
    somm
}

/// Every chunk file under `dir`, sorted (chunk URIs are file paths for
/// both built-in adapters).
pub fn chunk_files(dir: &Path) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p.to_string_lossy().into_owned());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

/// An in-memory system prepared with `mode` over the given repository
/// directory.
pub fn prepared(repo: &Repository, mode: LoadingMode, config: SommelierConfig) -> Sommelier {
    let somm = in_memory_system(repo, config).expect("create sommelier");
    somm.prepare(mode).expect("prepare");
    somm
}

/// Extract a single f64 cell from a 1×1 result.
pub fn scalar_f64(result: &sommelier_core::QueryResult, col: &str) -> Option<f64> {
    if result.relation.rows() != 1 {
        return None;
    }
    match result.relation.value(0, col).ok()? {
        sommelier_storage::Value::Float(v) => Some(v),
        sommelier_storage::Value::Int(v) => Some(v as f64),
        _ => None,
    }
}

/// Poll `cond` every 2 ms until it holds. Panics after 30 s naming
/// `what`, so an event that never comes fails by name instead of
/// hanging the suite.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "no {what} after 30 s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Wait (see [`wait_until`]) until `ready` holds for `somm`'s metrics
/// registry (the `admission.*` gauges, typically).
pub fn wait_for_admission(
    somm: &Sommelier,
    what: &str,
    ready: impl Fn(&MetricsRegistry) -> bool,
) {
    wait_until(what, || ready(somm.metrics()));
}
