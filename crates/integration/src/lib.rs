//! Shared helpers for the workspace-level integration tests in
//! `tests/` (wired into cargo through this crate's `[[test]]` entries).

use sommelier_core::{AdmissionStats, LoadingMode, Result, Sommelier, SommelierConfig};
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

/// Poll `somm`'s admission counters every 2 ms until `ready` holds.
/// Panics after 30 s with the last [`AdmissionStats`], so a query that
/// finished before any poll saw it fails by name instead of hanging
/// the suite.
pub fn wait_for_admission(
    somm: &Sommelier,
    what: &str,
    ready: impl Fn(&AdmissionStats) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = somm.admission_stats();
        if ready(&stats) {
            return;
        }
        assert!(Instant::now() < deadline, "no {what} after 30 s: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
