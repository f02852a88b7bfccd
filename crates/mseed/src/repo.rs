//! Dataset specifications and the on-disk file repository.
//!
//! The paper's Table II datasets keep a fixed *structure* that we
//! reproduce exactly — one file per (station, day):
//!
//! | sf    | span     | stations | files |
//! |-------|----------|----------|-------|
//! | sf-1  | 40 days  | 4        | 160   |
//! | sf-3  | 4 months | 4        | 484   |
//! | sf-9  | 1 year   | 4        | 1464  |
//! | sf-27 | 3 years  | 4        | 4384  |
//!
//! The FIAM dataset (used in Figs. 8–9) is the same 3-year span for a
//! single station ("roughly a quarter of the size"), with sf-n mapping
//! to the first `days(sf-n)` days.
//!
//! Only the *samples per segment* is scaled down (the paper's sf-1
//! already holds 1.27 G samples); it is a knob on [`DatasetSpec`].

use crate::error::{MseedError, Result};
use crate::gen::{cell_seed, generate_segment, WaveformParams};
use crate::record::{FileMeta, MseedFile, SegmentData, SegmentMeta};
use crate::writer::write_file;
use sommelier_storage::rng::Rng;
use sommelier_storage::time::{civil_from_days, days_from_civil, MS_PER_DAY};
use std::path::{Path, PathBuf};

/// One synthetic station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StationSpec {
    pub network: String,
    pub station: String,
    pub location: String,
    pub channel: String,
}

impl StationSpec {
    /// Convenience constructor.
    pub fn new(network: &str, station: &str, channel: &str) -> Self {
        StationSpec {
            network: network.to_string(),
            station: station.to_string(),
            location: String::new(),
            channel: channel.to_string(),
        }
    }
}

/// The paper's four INGV stations, with per-station channels matching
/// the queries in §II-C / §VI (ISK·BHE for Query 1, FIAM·HHZ for
/// Query 2).
pub fn ingv_stations() -> Vec<StationSpec> {
    vec![
        StationSpec::new("IV", "ISK", "BHE"),
        StationSpec::new("IV", "FIAM", "HHZ"),
        StationSpec::new("IV", "AQU", "BHZ"),
        StationSpec::new("IV", "TRI", "HHE"),
    ]
}

/// Days covered by scale factor `sf`, matching the paper's file counts
/// exactly for sf ∈ {1, 3, 9, 27} (40 days / 4 months / 1 year /
/// 3 years).
pub fn days_for_sf(sf: u32) -> u32 {
    match sf {
        1 => 40,
        3 => 121,
        9 => 366,
        27 => 1096,
        other => 40 * other,
    }
}

/// Full description of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Human name, e.g. `ingv-sf-9`.
    pub name: String,
    pub stations: Vec<StationSpec>,
    /// First day, as days since the Unix epoch.
    pub start_day: i64,
    /// Number of consecutive days (one file per station per day).
    pub days: u32,
    /// Mean number of segments per file (jittered per file).
    pub segments_per_file: u32,
    /// Samples per segment — the scale-down knob.
    pub samples_per_segment: u32,
    /// Dataset seed (drives all randomness).
    pub seed: u64,
    /// Waveform model parameters.
    pub params: WaveformParams,
}

impl DatasetSpec {
    /// The INGV-like dataset at scale factor `sf` (paper Table II
    /// structure; starts 2010-01-01 so the paper's query literals fall
    /// inside the data).
    pub fn ingv(sf: u32, samples_per_segment: u32) -> Self {
        DatasetSpec {
            name: format!("ingv-sf-{sf}"),
            stations: ingv_stations(),
            start_day: days_from_civil(2010, 1, 1),
            days: days_for_sf(sf),
            segments_per_file: 12,
            samples_per_segment,
            seed: 0x5EED_0001,
            params: WaveformParams::default(),
        }
    }

    /// The FIAM single-station dataset at scale factor `sf`
    /// (paper §VI-D: used for the selectivity and workload figures).
    pub fn fiam(sf: u32, samples_per_segment: u32) -> Self {
        DatasetSpec {
            name: format!("fiam-sf-{sf}"),
            stations: vec![StationSpec::new("IV", "FIAM", "HHZ")],
            start_day: days_from_civil(2010, 1, 1),
            days: days_for_sf(sf),
            segments_per_file: 12,
            samples_per_segment,
            seed: 0x5EED_0002,
            params: WaveformParams::default(),
        }
    }

    /// Expected number of files.
    pub fn expected_files(&self) -> u64 {
        self.stations.len() as u64 * self.days as u64
    }

    /// First instant covered (epoch ms).
    pub fn start_ms(&self) -> i64 {
        self.start_day * MS_PER_DAY
    }

    /// One-past-the-last instant covered (epoch ms).
    pub fn end_ms(&self) -> i64 {
        (self.start_day + self.days as i64) * MS_PER_DAY
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.stations.is_empty() {
            return Err(MseedError::Spec("no stations".into()));
        }
        if self.days == 0 {
            return Err(MseedError::Spec("zero days".into()));
        }
        if self.segments_per_file == 0 {
            return Err(MseedError::Spec("zero segments per file".into()));
        }
        if self.samples_per_segment == 0 {
            return Err(MseedError::Spec("zero samples per segment".into()));
        }
        Ok(())
    }
}

/// Build the in-memory chunk file for one (station, day) cell.
///
/// The day is divided into `segments` intervals separated by short
/// random gaps (sensors drop out; this is why segments exist at all),
/// with the sampling frequency derived so the samples span the segment.
pub fn build_file(spec: &DatasetSpec, station: &StationSpec, day: i64) -> MseedFile {
    let seed = cell_seed(spec.seed, &station.station, &station.channel, day);
    let mut rng = Rng::new(seed);
    // Jitter segment count ±33%.
    let base = spec.segments_per_file;
    let seg_count =
        rng.range((base - base / 3).max(1) as i64..=(base + base / 3) as i64) as u32;
    let day_start_ms = day * MS_PER_DAY;
    let slot_ms = MS_PER_DAY / seg_count as i64;
    let mut segments = Vec::with_capacity(seg_count as usize);
    for s in 0..seg_count {
        // Gap of 0–10% at the start of each slot.
        let gap = (rng.f64() * 0.1 * slot_ms as f64) as i64;
        let start = day_start_ms + s as i64 * slot_ms + gap;
        let span_ms = slot_ms - gap;
        let n = spec.samples_per_segment;
        // Frequency so that n samples cover the span.
        let frequency = (n as f64 * 1000.0 / span_ms as f64).max(0.001);
        let samples = generate_segment(
            seed.wrapping_add(s as u64),
            &spec.params,
            start,
            frequency,
            n as usize,
        );
        segments.push(SegmentData {
            meta: SegmentMeta { seg_index: s, start_time: start, frequency, sample_count: n },
            samples,
        });
    }
    MseedFile {
        meta: FileMeta::new(
            &station.network,
            &station.station,
            &station.location,
            &station.channel,
        ),
        segments,
    }
}

/// Counters describing a generated repository.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepoStats {
    pub files: u64,
    pub segments: u64,
    pub samples: u64,
    pub bytes: u64,
}

/// A directory of chunk files.
#[derive(Debug, Clone)]
pub struct Repository {
    dir: PathBuf,
}

impl Repository {
    /// Wrap an existing directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Repository { dir: dir.into() }
    }

    /// The repository directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name for a (station, day) cell:
    /// `IV.FIAM.HHZ.2010-04-20.msd`.
    pub fn file_name(station: &StationSpec, day: i64) -> String {
        let (y, m, d) = civil_from_days(day);
        format!(
            "{}.{}.{}.{y:04}-{m:02}-{d:02}.msd",
            station.network, station.station, station.channel
        )
    }

    /// Generate the dataset into this directory (parallel across files).
    /// Existing identically named files are overwritten.
    pub fn generate(&self, spec: &DatasetSpec) -> Result<RepoStats> {
        spec.validate()?;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| MseedError::io(format!("creating {}", self.dir.display()), e))?;
        let cells: Vec<(usize, i64)> = (0..spec.stations.len())
            .flat_map(|s| {
                (spec.start_day..spec.start_day + spec.days as i64).map(move |d| (s, d))
            })
            .collect();
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let chunk = cells.len().div_ceil(workers);
        let stats = std::thread::scope(|scope| -> Result<RepoStats> {
            let mut handles = Vec::new();
            for part in cells.chunks(chunk.max(1)) {
                let dir = self.dir.clone();
                handles.push(scope.spawn(move || -> Result<RepoStats> {
                    let mut st = RepoStats::default();
                    for &(si, day) in part {
                        let station = &spec.stations[si];
                        let file = build_file(spec, station, day);
                        let path = dir.join(Repository::file_name(station, day));
                        let bytes = write_file(&path, &file)?;
                        st.files += 1;
                        st.segments += file.segments.len() as u64;
                        st.samples += file.total_samples();
                        st.bytes += bytes;
                    }
                    Ok(st)
                }));
            }
            let mut total = RepoStats::default();
            for h in handles {
                let st = h.join().expect("generator thread panicked")?;
                total.files += st.files;
                total.segments += st.segments;
                total.samples += st.samples;
                total.bytes += st.bytes;
            }
            Ok(total)
        })?;
        Ok(stats)
    }

    /// List all chunk files, sorted by name (deterministic order).
    pub fn list(&self) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| MseedError::io(format!("listing {}", self.dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| MseedError::io("listing repository", e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "msd") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Total bytes of all chunk files.
    pub fn total_bytes(&self) -> Result<u64> {
        Ok(self
            .list()?
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::tempdir::TempDir;

    fn tiny_spec() -> DatasetSpec {
        let mut spec = DatasetSpec::ingv(1, 16);
        spec.days = 3;
        spec.name = "tiny".into();
        spec
    }

    #[test]
    fn paper_file_counts() {
        assert_eq!(DatasetSpec::ingv(1, 8).expected_files(), 160);
        assert_eq!(DatasetSpec::ingv(3, 8).expected_files(), 484);
        assert_eq!(DatasetSpec::ingv(9, 8).expected_files(), 1464);
        assert_eq!(DatasetSpec::ingv(27, 8).expected_files(), 4384);
        assert_eq!(DatasetSpec::fiam(27, 8).expected_files(), 1096);
    }

    #[test]
    fn generate_and_list() {
        let dir = TempDir::new("repo-gen");
        let repo = Repository::at(dir.to_path_buf());
        let spec = tiny_spec();
        let stats = repo.generate(&spec).unwrap();
        assert_eq!(stats.files, spec.expected_files());
        assert!(stats.segments >= stats.files * 8, "segments: {}", stats.segments);
        assert_eq!(stats.samples, stats.segments * 16);
        let files = repo.list().unwrap();
        assert_eq!(files.len() as u64, stats.files);
        assert_eq!(repo.total_bytes().unwrap(), stats.bytes);
        // File names carry station and date.
        let name = files[0].file_name().unwrap().to_string_lossy().to_string();
        assert!(name.ends_with(".msd"));
        assert!(name.contains("2010-01-0"));
    }

    #[test]
    fn generation_is_deterministic() {
        let dir_a = TempDir::new("repo-det-a");
        let dir_b = TempDir::new("repo-det-b");
        let spec = tiny_spec();
        Repository::at(dir_a.to_path_buf()).generate(&spec).unwrap();
        Repository::at(dir_b.to_path_buf()).generate(&spec).unwrap();
        let files_a = Repository::at(dir_a.to_path_buf()).list().unwrap();
        let files_b = Repository::at(dir_b.to_path_buf()).list().unwrap();
        assert_eq!(files_a.len(), files_b.len());
        for (a, b) in files_a.iter().zip(&files_b) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "{a:?}");
        }
    }

    /// The generator's output is pinned: the FNV-1a hash of the tiny
    /// repository's file names and bytes, recorded from the generator
    /// the benchmark fixtures were first built with. A change to the
    /// seeded stream or to how the generator draws from it fails here
    /// rather than silently changing every fixture.
    #[test]
    fn generated_bytes_are_pinned() {
        let dir = TempDir::new("repo-pinned");
        let repo = Repository::at(dir.to_path_buf());
        repo.generate(&tiny_spec()).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for path in repo.list().unwrap() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            for b in name.bytes().chain(std::fs::read(&path).unwrap()) {
                hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(hash, 6782837040138586344);
    }

    #[test]
    fn generated_files_parse_back() {
        let dir = TempDir::new("repo-parse");
        let repo = Repository::at(dir.to_path_buf());
        repo.generate(&tiny_spec()).unwrap();
        for path in repo.list().unwrap() {
            let header = crate::reader::read_metadata(&path).unwrap();
            let full = crate::reader::read_full(&path).unwrap();
            assert_eq!(header.segments.len(), full.segments.len());
            assert!(!full.segments.is_empty());
            // Segment times stay inside their day and are ordered.
            for w in full.segments.windows(2) {
                assert!(w[0].meta.start_time < w[1].meta.start_time);
            }
        }
    }

    #[test]
    fn segment_times_cover_the_day() {
        let spec = tiny_spec();
        let station = &spec.stations[0];
        let day = spec.start_day;
        let file = build_file(&spec, station, day);
        let day_start = day * MS_PER_DAY;
        let day_end = day_start + MS_PER_DAY;
        for seg in &file.segments {
            assert!(seg.meta.start_time >= day_start);
            assert!(seg.meta.end_time() <= day_end, "segment spills over the day");
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = tiny_spec();
        s.days = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.stations.clear();
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.samples_per_segment = 0;
        assert!(s.validate().is_err());
    }
}
