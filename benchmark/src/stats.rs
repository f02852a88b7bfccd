//! Order statistics and the per-run noise floor.

/// Blocks a measured phase is split into; every end-to-end metric is
/// also computed per block so a run carries its own spread.
pub const BLOCKS: usize = 5;

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile a sample of `n` supports: the wanted one when at
/// least [`MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// that has (never below the median).
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return wanted;
    }
    let highest = 1.0 - MIN_BEYOND as f64 / n as f64;
    wanted.min(highest).max(0.5)
}

/// (max − min) / median of per-block values: the run's own noise floor
/// for one metric. NaN blocks (a block with no sample) are skipped.
pub fn block_spread(blocks: &[f64]) -> f64 {
    let v: Vec<f64> = blocks.iter().copied().filter(|x| x.is_finite()).collect();
    if v.len() < 2 {
        return f64::NAN;
    }
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(&v)
}

/// Which of [`BLOCKS`] equal time blocks an event at `t_ns` falls in;
/// whatever ends after the nominal phase belongs to the last block.
pub fn block_of(t_ns: u64, phase_ns: u64) -> usize {
    let width = (phase_ns / BLOCKS as u64).max(1);
    ((t_ns / width) as usize).min(BLOCKS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond() {
        // 200 samples: exactly ten lie beyond p95.
        assert_eq!(supported_tail(200, 0.95), 0.95);
        assert_eq!(supported_tail(10_000, 0.95), 0.95);
        // 100 samples support only p90; 40 only p75.
        assert!((supported_tail(100, 0.95) - 0.90).abs() < 1e-12);
        assert!((supported_tail(40, 0.95) - 0.75).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_tail(12, 0.95), 0.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 100.0);
        assert_eq!(quantile_sorted(&v, 0.95), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > 190.0).count(), 10);
        assert_eq!(quantile_sorted(&v, 1.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(block_spread(&[10.0, 11.0, 9.0, 10.0, 10.0]), 0.2);
        assert_eq!(block_spread(&[5.0, 5.0, 5.0]), 0.0);
        // Empty blocks do not poison the spread; one block has none.
        assert_eq!(block_spread(&[10.0, f64::NAN, 12.0, 11.0]), 2.0 / 11.0);
        assert!(block_spread(&[7.0]).is_nan());
    }

    #[test]
    fn late_completions_land_in_the_last_block() {
        let phase = 10_000_000_000;
        assert_eq!(block_of(0, phase), 0);
        assert_eq!(block_of(1_999_999_999, phase), 0);
        assert_eq!(block_of(2_000_000_000, phase), 1);
        assert_eq!(block_of(9_999_999_999, phase), 4);
        assert_eq!(block_of(10_400_000_000, phase), 4);
    }
}
