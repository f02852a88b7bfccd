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

    /// Append the timestamps of all `sample_count` samples to `out`,
    /// each equal to [`SegmentMeta::sample_time`]. The offsets are
    /// monotone in `i` (`i·1000` is exact below 2^53 and a correctly
    /// rounded division is monotone), so when the last one lies in
    /// `[0, 2^52]` every one does, and they round exactly by adding
    /// 2^52, in a loop free of libm calls that the compiler vectorises.
    /// Otherwise each sample takes `sample_time`.
    pub fn extend_sample_times(&self, out: &mut Vec<i64>) {
        let Some(last) = self.sample_count.checked_sub(1) else {
            return;
        };
        let f = self.frequency;
        let start = self.start_time;
        if in_round_domain((last as f64) * 1000.0 / f) {
            out.extend(
                (0..self.sample_count)
                    .map(|i| start + round_half_away((i as f64) * 1000.0 / f)),
            );
        } else {
            out.extend((0..self.sample_count).map(|i| self.sample_time(i)));
        }
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

/// 2^52: from here up every `f64` is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Is `x` in `[0, 2^52]`, where [`round_half_away`] is exact? False
/// for NaN.
#[inline]
fn in_round_domain(x: f64) -> bool {
    (0.0..=TWO_POW_52).contains(&x)
}

/// `x.round() as i64` for `x` in `[0, 2^52]` (see [`in_round_domain`]),
/// without the libm call `f64::round` is on the baseline x86-64 target.
/// Adding 2^52 rounds `x` to an integer, ties to even, whose value is
/// the distance of the sum's bit pattern from 2^52's (`x + 2^52` lies in
/// `[2^52, 2^53]`, where the bits count in steps of 1). `x − r` is exact
/// by Sterbenz's lemma, and equals 0.5 exactly on a tie rounded down,
/// which rounding half away from zero takes up.
#[inline(always)]
fn round_half_away(x: f64) -> i64 {
    let shifted = x + TWO_POW_52;
    let r = shifted - TWO_POW_52;
    let int = (shifted.to_bits() - TWO_POW_52.to_bits()) as i64;
    int + i64::from(x - r == 0.5)
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
    use sommelier_storage::rng::Rng;

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
    fn round_half_away_is_libm_round_on_its_domain() {
        let two51 = 2f64.powi(51);
        let two52 = 2f64.powi(52);
        let inside = [
            (0.0, 0),
            (-0.0, 0),
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (0.49999999999999994, 0),
            (two51 - 0.5, 1 << 51),
            (two51 + 0.5, (1 << 51) + 1),
            (two52 - 0.5, 1 << 52),
            (two52, 1 << 52),
        ];
        for (x, want) in inside {
            assert!(in_round_domain(x), "{x:e}");
            assert_eq!(x.round() as i64, want, "{x:e}");
            assert_eq!(round_half_away(x), want, "{x:e}");
        }
        // Where the helper would be wrong, the domain check sends the
        // bulk fill to `sample_time` instead.
        let negatives = inside.iter().map(|&(x, _)| -x).filter(|&x| x != 0.0);
        let outside = [two52 + 1.0, 9.3e18, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for x in outside.into_iter().chain(negatives) {
            assert!(!in_round_domain(x), "{x:e}");
        }
        let mut rng = Rng::new(52);
        for _ in 0..100_000 {
            let bits = rng.range(0..=52);
            let x = rng.f64() * 2f64.powi(bits as i32);
            let tie = (x as i64 as f64) + 0.5;
            for x in [x, tie] {
                if in_round_domain(x) {
                    assert_eq!(round_half_away(x), x.round() as i64, "{x:e}");
                }
            }
        }
    }

    /// The bulk fill equals `sample_time` sample for sample on every
    /// frequency shape it meets: the generator's `n·1000/span`, integer
    /// Hz, exact half-millisecond offsets (ties), and tiny frequencies
    /// whose offsets lie near or beyond 2^52, where it falls back.
    #[test]
    fn extend_sample_times_matches_sample_time() {
        let mut rng = Rng::new(41);
        for case in 0..2_000 {
            let n = rng.range(0..=4_096) as u32;
            let frequency = match case % 5 {
                0 => {
                    let span_ms = rng.range(1_000..=7_200_000);
                    (n as f64 * 1000.0 / span_ms as f64).max(0.001)
                }
                1 => rng.range(1..=1_000) as f64,
                2 => rng.pick(&[2000.0, 400.0, 80.0, 16.0]),
                3 => {
                    // The last offset straddles 2^52.
                    let last = 2f64.powi(52) * rng.f64_range(0.999_999..1.000_001);
                    n.saturating_sub(1).max(1) as f64 * 1000.0 / last
                }
                _ => {
                    // Offsets far into or beyond the fast domain, short of
                    // overflowing the sum.
                    let last = 2f64.powi(rng.range(40..=59) as i32);
                    n.saturating_sub(1).max(1) as f64 * 1000.0 / last
                }
            };
            let meta = SegmentMeta {
                seg_index: 0,
                start_time: rng.range(-1_000_000_000_000..=1_000_000_000_000),
                frequency,
                sample_count: n,
            };
            let mut bulk = vec![7];
            meta.extend_sample_times(&mut bulk);
            let one_by_one: Vec<i64> =
                std::iter::once(7).chain((0..n).map(|i| meta.sample_time(i))).collect();
            assert_eq!(bulk, one_by_one, "{meta:?}");
        }
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
