//! # sommelier-mseed
//!
//! The chunked-file substrate for the `sommelier` reproduction of
//! *"The DBMS – your Big Data Sommelier"* (ICDE 2015).
//!
//! The paper evaluates on a repository of **mini-SEED** files from the
//! Italian National Institute of Geophysics and Volcanology (INGV):
//! each file is a *semantic chunk* holding the waveform of one sensor
//! over a time period, preceded by small control headers (the *given
//! metadata*). We do not have the INGV data (nor redistribute rights to
//! SEED corpora), so this crate provides the documented substitution:
//!
//! * [`mod@format`]/[`writer`]/[`reader`] — an mSEED-like binary format:
//!   a control header (network, station, location, channel, quality,
//!   encoding, byte order), a segment directory (start time, sampling
//!   frequency, sample count per segment), and per-segment
//!   Steim-style compressed payloads. Crucially, the reader offers the
//!   same two access granularities the paper relies on: a cheap
//!   *header-only* scan (what the Registrar uses) and a full decode
//!   (what the `chunk-access` operator uses).
//! * [`steim`] — a delta + zig-zag varint codec standing in for SEED's
//!   Steim compression; it reproduces the order-of-magnitude expansion
//!   from mSEED to CSV/DB storage that Table III reports.
//! * [`gen`] — a seeded synthetic seismogram generator (AR(1) noise +
//!   diurnal oscillation + damped-oscillation "events") so datasets are
//!   reproducible byte-for-byte across runs.
//! * [`repo`] — dataset specifications matching the paper's Table II
//!   structure (sf-1/3/9/27 with 160/484/1464/4384 files; the
//!   single-station FIAM variant) and the on-disk repository.
//! * [`csv`] — CSV export/import used by the *eager csv* loading
//!   baseline.
//! * [`adapter`] — the [`MseedAdapter`] plugging this format into the
//!   `sommelier-core` source-adapter API.

pub mod adapter;
pub mod csv;
pub mod error;
pub mod format;
pub mod gen;
pub mod reader;
pub mod record;
pub mod repo;
pub mod steim;
pub mod writer;

pub use adapter::{mseed_descriptor, MseedAdapter};
pub use error::{MseedError, Result};
pub use reader::{read_full, read_metadata};
pub use record::{FileMeta, MseedFile, SegmentData, SegmentMeta};
pub use repo::{DatasetSpec, RepoStats, Repository, StationSpec};
pub use writer::write_file;

/// A fresh directory under the system temp dir, removed when dropped
/// (also when its test fails).
#[cfg(test)]
pub(crate) struct TempDir(pub(crate) std::path::PathBuf);

#[cfg(test)]
impl TempDir {
    pub(crate) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "somm-mseed-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
