//! In-memory representation of a chunk file: given metadata + samples.

/// Per-file given metadata (the fields of the paper's table `F`,
/// minus the system-assigned `file_id`/`uri`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    pub network: String,
    pub station: String,
    pub location: String,
    pub channel: String,
    pub data_quality: String,
    /// Payload encoding: 1 = Steim-style delta varint (the only encoder
    /// we write; the tag exists so readers reject unknown encodings).
    pub encoding: u8,
    /// 0 = little endian (the only byte order we write).
    pub byte_order: u8,
}

impl FileMeta {
    /// Metadata for a synthetic sensor.
    pub fn new(network: &str, station: &str, location: &str, channel: &str) -> Self {
        FileMeta {
            network: network.to_string(),
            station: station.to_string(),
            location: location.to_string(),
            channel: channel.to_string(),
            data_quality: "D".to_string(),
            encoding: crate::format::ENCODING_STEIM,
            byte_order: 0,
        }
    }
}

/// Per-segment given metadata (the fields of the paper's table `S`,
/// minus the system-assigned `seg_id`/`file_id`).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Segment index within its file (unique per file, as in the paper).
    pub seg_index: u32,
    /// Start of the segment's time series, epoch milliseconds.
    pub start_time: i64,
    /// Sampling rate in Hz.
    pub frequency: f64,
    /// Number of samples in the segment.
    pub sample_count: u32,
}

impl SegmentMeta {
    /// Timestamp of sample `i` (epoch ms): `start + i / frequency`.
    pub fn sample_time(&self, i: u32) -> i64 {
        debug_assert!(self.frequency > 0.0);
        self.start_time + ((i as f64) * 1000.0 / self.frequency).round() as i64
    }

    /// Timestamp of sample `i`, or `None` when it does not fit in an
    /// `i64` (a tiny frequency, or a start near the end of time).
    /// [`SegmentMeta::sample_time`] would saturate the offset and wrap
    /// the sum in release builds, yielding decreasing times.
    pub fn checked_sample_time(&self, i: u32) -> Option<i64> {
        let offset = ((i as f64) * 1000.0 / self.frequency).round();
        // `as` saturates: anything from 2^63 up does not fit.
        if offset.is_nan() || offset >= i64::MAX as f64 {
            return None;
        }
        self.start_time.checked_add(offset as i64)
    }

    /// End of the segment (timestamp just after the last sample).
    pub fn end_time(&self) -> i64 {
        if self.sample_count == 0 {
            self.start_time
        } else {
            self.sample_time(self.sample_count - 1) + 1
        }
    }
}

/// A segment with its decoded samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentData {
    pub meta: SegmentMeta,
    /// Raw sensor counts (SEED stores integers; conversion to physical
    /// units happens downstream).
    pub samples: Vec<i32>,
}

/// A whole chunk file in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MseedFile {
    pub meta: FileMeta,
    pub segments: Vec<SegmentData>,
}

impl MseedFile {
    /// Total number of samples across segments.
    pub fn total_samples(&self) -> u64 {
        self.segments.iter().map(|s| s.samples.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_times_follow_frequency() {
        let m =
            SegmentMeta { seg_index: 0, start_time: 1_000, frequency: 20.0, sample_count: 3 };
        assert_eq!(m.sample_time(0), 1_000);
        assert_eq!(m.sample_time(1), 1_050);
        assert_eq!(m.sample_time(2), 1_100);
        assert_eq!(m.end_time(), 1_101);
    }

    #[test]
    fn checked_sample_time_rejects_what_does_not_fit() {
        let m =
            SegmentMeta { seg_index: 0, start_time: 1_000, frequency: 20.0, sample_count: 3 };
        assert_eq!(m.checked_sample_time(2), Some(m.sample_time(2)));
        let tiny = SegmentMeta { frequency: 1e-300, ..m.clone() };
        assert_eq!(tiny.checked_sample_time(0), Some(1_000));
        assert_eq!(tiny.checked_sample_time(1), None);
        let late = SegmentMeta { start_time: i64::MAX - 60, ..m };
        assert_eq!(late.checked_sample_time(1), Some(i64::MAX - 10));
        assert_eq!(late.checked_sample_time(2), None);
    }

    #[test]
    fn empty_segment_end_time() {
        let m = SegmentMeta { seg_index: 0, start_time: 5, frequency: 1.0, sample_count: 0 };
        assert_eq!(m.end_time(), 5);
    }

    #[test]
    fn total_samples_sums_segments() {
        let f = MseedFile {
            meta: FileMeta::new("IV", "FIAM", "", "HHZ"),
            segments: vec![
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 0,
                        start_time: 0,
                        frequency: 1.0,
                        sample_count: 2,
                    },
                    samples: vec![1, 2],
                },
                SegmentData {
                    meta: SegmentMeta {
                        seg_index: 1,
                        start_time: 10,
                        frequency: 1.0,
                        sample_count: 3,
                    },
                    samples: vec![3, 4, 5],
                },
            ],
        };
        assert_eq!(f.total_samples(), 5);
    }
}
