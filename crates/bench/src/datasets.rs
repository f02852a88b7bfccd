//! Dataset generation with on-disk caching, plus the env-driven scale
//! configuration shared by all experiments.

use sommelier_mseed::{DatasetSpec, RepoStats, Repository};
use std::path::PathBuf;

/// Which of the paper's two dataset families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 4 stations (Table II / Figs. 6–7).
    Ingv,
    /// Single-station FIAM (Figs. 8–9).
    Fiam,
}

impl DatasetKind {
    fn spec(self, sf: u32, samples: u32) -> DatasetSpec {
        match self {
            DatasetKind::Ingv => DatasetSpec::ingv(sf, samples),
            DatasetKind::Fiam => DatasetSpec::fiam(sf, samples),
        }
    }
}

/// Experiment scale, read once from the environment.
#[derive(Debug, Clone)]
pub struct BenchScale {
    pub sfs: Vec<u32>,
    pub samples_per_seg: u32,
    pub data_dir: PathBuf,
    pub runs: usize,
    /// `SOMM_SIM_IO`: every chunk load sleeps a fault-injector latency
    /// spike (see `runner::bench_config`).
    pub sim_io: bool,
    pub pool_bytes: usize,
    pub full: bool,
    /// Selectivity sweep points for Fig. 8 (percent).
    pub selectivities: Vec<u32>,
    /// Workload-selectivity sweep points for Fig. 9 (percent).
    pub workload_selectivities: Vec<u32>,
    /// Workload sizes for Fig. 9.
    pub workload_queries: Vec<usize>,
}

fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false" | "no"),
        Err(_) => default,
    }
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl BenchScale {
    /// Read the scale configuration from the environment.
    pub fn from_env() -> Self {
        let full = env_flag("SOMM_FULL", false);
        let sfs = std::env::var("SOMM_SFS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect::<Vec<u32>>())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| if full { vec![1, 3, 9, 27] } else { vec![1, 3] });
        let data_dir = std::env::var("SOMM_DATA_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/sommelier-data"));
        BenchScale {
            sfs,
            samples_per_seg: env_num("SOMM_SAMPLES_PER_SEG", 256),
            data_dir,
            runs: env_num("SOMM_RUNS", 3usize),
            sim_io: env_flag("SOMM_SIM_IO", true),
            pool_bytes: env_num("SOMM_POOL_MB", 64usize) * 1024 * 1024,
            full,
            selectivities: if full {
                vec![0, 10, 20, 40, 60, 80, 100]
            } else {
                vec![0, 25, 50, 100]
            },
            workload_selectivities: if full {
                vec![0, 10, 20, 40, 60, 80, 100]
            } else {
                vec![0, 20, 60, 100]
            },
            workload_queries: if full { vec![100, 200] } else { vec![20, 40] },
        }
    }

    /// A tiny scale for smoke tests.
    pub fn tiny() -> Self {
        BenchScale {
            sfs: vec![1],
            samples_per_seg: 16,
            data_dir: std::env::temp_dir().join("sommelier-bench-tiny"),
            runs: 1,
            sim_io: false,
            pool_bytes: 64 * 1024 * 1024,
            full: false,
            selectivities: vec![0, 50, 100],
            workload_selectivities: vec![0, 50, 100],
            workload_queries: vec![5],
        }
    }

    /// Smallest and largest configured scale factor.
    pub fn sf_extremes(&self) -> (u32, u32) {
        let lo = self.sfs.iter().copied().min().unwrap_or(1);
        let hi = self.sfs.iter().copied().max().unwrap_or(1);
        (lo, hi)
    }
}

/// Generate (or reuse) a dataset, returning the repository and its
/// stats. Cached by (kind, sf, samples) under `scale.data_dir`; a
/// marker file records the stats of a completed generation.
pub fn dataset(scale: &BenchScale, kind: DatasetKind, sf: u32) -> (Repository, RepoStats) {
    let spec = kind.spec(sf, scale.samples_per_seg);
    let dir = scale.data_dir.join(&spec.name).join(format!("s{}", scale.samples_per_seg));
    let marker = dir.join(".complete");
    let repo = Repository::at(&dir);
    if let Ok(text) = std::fs::read_to_string(&marker) {
        let nums: Vec<u64> = text.split_whitespace().filter_map(|t| t.parse().ok()).collect();
        if nums.len() == 4 {
            return (
                repo,
                RepoStats {
                    files: nums[0],
                    segments: nums[1],
                    samples: nums[2],
                    bytes: nums[3],
                },
            );
        }
    }
    let stats = repo.generate(&spec).expect("dataset generation");
    std::fs::write(
        &marker,
        format!("{} {} {} {}", stats.files, stats.segments, stats.samples, stats.bytes),
    )
    .expect("writing dataset marker");
    (repo, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_has_one_sf() {
        let s = BenchScale::tiny();
        assert_eq!(s.sfs, vec![1]);
        assert_eq!(s.sf_extremes(), (1, 1));
    }

    #[test]
    fn dataset_cache_roundtrip() {
        let mut scale = BenchScale::tiny();
        scale.data_dir =
            std::env::temp_dir().join(format!("somm-bench-ds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scale.data_dir);
        let (_, first) = dataset(&scale, DatasetKind::Fiam, 1);
        assert!(first.files > 0);
        // Second call must come from the marker, byte-identical stats.
        let (_, second) = dataset(&scale, DatasetKind::Fiam, 1);
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&scale.data_dir);
    }
}
