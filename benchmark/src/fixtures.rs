//! Seeded fixtures: the only things the program under test ever sees
//! are the chunk files generated here and SQL text.
//!
//! Both repositories come from the product's own generators
//! (`Repository::generate`, `generate_event_logs`) with the dataset
//! seed derived from `--seed`, and are cached under
//! `<data-dir>/<kind>-<spec-hash>/` behind a `.complete` marker.

use sommelier_core::adapters::{generate_event_logs, EventLogSpec};
use sommelier_mseed::{DatasetSpec, Repository};
use sommelier_storage::time::days_from_civil;
use std::path::{Path, PathBuf};

/// splitmix64: every seeded choice in the benchmark (dataset seeds,
/// query parameters, verification samples) comes from this stream, so
/// inputs depend on `--seed` and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, purpose)`.
    pub fn derive(seed: u64, purpose: &str) -> Self {
        let mut r = Rng(seed ^ fnv1a(purpose.as_bytes()));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(hi > lo);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Bytes one decoded actual-data row occupies in the cellar: both
/// adapters decode to three 8-byte columns. Cellar budgets are sized
/// from this, as a share of the decoded repository.
pub const DECODED_BYTES_PER_ROW: u64 = 24;

/// The mSEED repository of `cold_scan`, `warm_mix` and `server_mix`.
#[derive(Debug, Clone)]
pub struct MseedFixture {
    pub dir: PathBuf,
    pub spec: DatasetSpec,
    pub files: u64,
    pub rows: u64,
}

/// The event-log repository of `prune_window`.
#[derive(Debug, Clone)]
pub struct EventFixture {
    pub dir: PathBuf,
    pub spec: EventLogSpec,
    pub files: u64,
    pub rows: u64,
}

/// INGV-like, 4 stations × 40 days = 160 chunk files of 12 segments ×
/// 4096 samples.
pub fn mseed_spec(seed: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::ingv(1, 4096);
    spec.seed = Rng::derive(seed, "mseed-dataset").next_u64();
    spec
}

/// 8 hosts × 4 services × 256 days = 8192 chunk files of 200 events.
pub fn eventlog_spec(seed: u64) -> EventLogSpec {
    EventLogSpec {
        hosts: (1..=8).map(|i| format!("web-{i}")).collect(),
        services: ["api", "auth", "cache", "db"].map(String::from).to_vec(),
        start_day: days_from_civil(2011, 3, 1),
        days: 256,
        events_per_file: 200,
        seed: Rng::derive(seed, "eventlog-dataset").next_u64(),
    }
}

/// Reuse `<data_dir>/<kind>-<hash>` when its `.complete` marker holds
/// `N` counters, otherwise generate it. Stale siblings of the same kind
/// are removed first so a sweep over seeds does not accumulate
/// repositories.
fn cached<const N: usize>(
    data_dir: &Path,
    kind: &str,
    spec_debug: &str,
    generate: impl FnOnce(&Path) -> Result<[u64; N], String>,
) -> Result<(PathBuf, [u64; N]), String> {
    let dir = data_dir.join(format!("{kind}-{:016x}", fnv1a(spec_debug.as_bytes())));
    let marker = dir.join(".complete");
    if let Ok(text) = std::fs::read_to_string(&marker) {
        let numbers: Vec<u64> =
            text.split_whitespace().filter_map(|t| t.parse().ok()).collect();
        if let Ok(counters) = <[u64; N]>::try_from(numbers) {
            return Ok((dir, counters));
        }
    }
    if let Ok(entries) = std::fs::read_dir(data_dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&format!("{kind}-")) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let counters = generate(&dir)?;
    std::fs::write(&marker, counters.map(|c| c.to_string()).join(" "))
        .map_err(|e| format!("writing {}: {e}", marker.display()))?;
    Ok((dir, counters))
}

pub fn mseed(data_dir: &Path, seed: u64) -> Result<MseedFixture, String> {
    let spec = mseed_spec(seed);
    let (dir, [files, rows]) = cached(data_dir, "mseed", &format!("{spec:?}"), |dir| {
        let st = Repository::at(dir).generate(&spec).map_err(|e| e.to_string())?;
        Ok([st.files, st.samples])
    })?;
    Ok(MseedFixture { dir, spec, files, rows })
}

pub fn eventlog(data_dir: &Path, seed: u64) -> Result<EventFixture, String> {
    let spec = eventlog_spec(seed);
    let (dir, [files, rows]) = cached(data_dir, "eventlog", &format!("{spec:?}"), |dir| {
        let files = generate_event_logs(dir, &spec).map_err(|e| e.to_string())?;
        Ok([files, files * spec.events_per_file as u64])
    })?;
    Ok(EventFixture { dir, spec, files, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_seed_and_purpose_only() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(1, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(1, "x").next_u64(), Rng::derive(2, "x").next_u64());
        assert_ne!(Rng::derive(1, "x").next_u64(), Rng::derive(1, "y").next_u64());
        let mut r = Rng::derive(9, "range");
        for _ in 0..1000 {
            let v = r.range(-5, 7);
            assert!((-5..7).contains(&v));
        }
    }

    #[test]
    fn dataset_seeds_follow_the_benchmark_seed() {
        assert_eq!(mseed_spec(1).seed, mseed_spec(1).seed);
        assert_ne!(mseed_spec(1).seed, mseed_spec(2).seed);
        assert_ne!(eventlog_spec(1).seed, eventlog_spec(2).seed);
        assert_eq!(mseed_spec(1).expected_files(), 160);
        let e = eventlog_spec(1);
        assert_eq!(e.hosts.len() * e.services.len() * e.days as usize, 8192);
    }
}
