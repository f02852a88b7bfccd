//! Seeded synthetic seismogram generation.
//!
//! Substitutes for the INGV sensor data the paper evaluates on. The
//! model is the standard teaching decomposition of a seismic trace:
//!
//! * **microseismic background**: an AR(1) noise process (smooth, so the
//!   Steim-style codec compresses it like real band-limited noise);
//! * **diurnal cultural noise**: a low-frequency sinusoid whose
//!   amplitude peaks mid-day;
//! * **events**: occasional damped oscillations ("earthquakes") with
//!   random onset, amplitude and decay — these produce the
//!   high-max/high-stddev hours that the paper's Query 2 hunts for.
//!
//! Everything is keyed by a deterministic seed derived from
//! (dataset seed, station, channel, day), so regenerating a repository
//! yields byte-identical files.

use sommelier_storage::rng::Rng;
use std::f64::consts::TAU;
use std::hash::{Hash, Hasher};

/// Tuning knobs for the synthesizer.
#[derive(Debug, Clone)]
pub struct WaveformParams {
    /// AR(1) coefficient of the background process (0 < phi < 1).
    pub ar_coefficient: f64,
    /// Standard deviation of the AR(1) innovation, in counts.
    pub noise_sigma: f64,
    /// Peak amplitude of the diurnal component, in counts.
    pub diurnal_amplitude: f64,
    /// Probability that any given segment contains an event.
    pub event_probability: f64,
    /// Event peak amplitude range, in counts.
    pub event_amplitude: (f64, f64),
    /// Event decay time constant, in samples.
    pub event_decay: f64,
}

impl Default for WaveformParams {
    fn default() -> Self {
        WaveformParams {
            ar_coefficient: 0.97,
            noise_sigma: 40.0,
            diurnal_amplitude: 300.0,
            event_probability: 0.08,
            event_amplitude: (8_000.0, 60_000.0),
            event_decay: 80.0,
        }
    }
}

/// Deterministic seed for one (dataset, station, channel, day) cell.
pub fn cell_seed(dataset_seed: u64, station: &str, channel: &str, day: i64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dataset_seed.hash(&mut h);
    station.hash(&mut h);
    channel.hash(&mut h);
    day.hash(&mut h);
    h.finish()
}

/// Generate one segment of `n` samples starting at epoch-ms `t0`,
/// sampled at `frequency` Hz.
pub fn generate_segment(
    seed: u64,
    params: &WaveformParams,
    t0_ms: i64,
    frequency: f64,
    n: usize,
) -> Vec<i32> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    let mut ar = 0.0f64;

    // Decide up front whether this segment contains an event.
    let event = if rng.f64() < params.event_probability {
        let onset = rng.below(n.max(1));
        let amplitude = rng.f64_range(params.event_amplitude.0..params.event_amplitude.1);
        let period_samples = rng.f64_range(6.0..40.0);
        Some((onset, amplitude, period_samples))
    } else {
        None
    };

    for i in 0..n {
        // Gaussian-ish innovation from the sum of uniforms (Irwin–Hall,
        // k=4): cheap and close enough for signal synthesis.
        let u: f64 = (0..4).map(|_| rng.f64()).sum::<f64>() - 2.0;
        ar = params.ar_coefficient * ar + u * params.noise_sigma;

        let t_ms = t0_ms + (i as f64 * 1000.0 / frequency) as i64;
        let day_phase = (t_ms.rem_euclid(86_400_000)) as f64 / 86_400_000.0;
        let diurnal = params.diurnal_amplitude * (TAU * day_phase).sin();

        let mut x = ar + diurnal;
        if let Some((onset, amplitude, period)) = event {
            if i >= onset {
                let k = (i - onset) as f64;
                x += amplitude * (-k / params.event_decay).exp() * (TAU * k / period).sin();
            }
        }
        out.push(x.clamp(i32::MIN as f64, i32::MAX as f64) as i32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let p = WaveformParams::default();
        let a = generate_segment(42, &p, 0, 20.0, 500);
        let b = generate_segment(42, &p, 0, 20.0, 500);
        assert_eq!(a, b);
        let c = generate_segment(43, &p, 0, 20.0, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn cell_seed_distinguishes_cells() {
        let a = cell_seed(1, "FIAM", "HHZ", 100);
        assert_eq!(a, cell_seed(1, "FIAM", "HHZ", 100));
        assert_ne!(a, cell_seed(1, "FIAM", "HHZ", 101));
        assert_ne!(a, cell_seed(1, "ISK", "HHZ", 100));
        assert_ne!(a, cell_seed(2, "FIAM", "HHZ", 100));
    }

    #[test]
    fn background_is_bounded_noise() {
        let p = WaveformParams { event_probability: 0.0, ..WaveformParams::default() };
        let samples = generate_segment(7, &p, 0, 20.0, 10_000);
        let max = samples.iter().map(|v| v.abs()).max().unwrap();
        // AR(1) with sigma 40 and phi .97 stays well under event scale.
        assert!(max < 8_000, "background max {max}");
    }

    #[test]
    fn events_create_large_amplitudes() {
        let p = WaveformParams { event_probability: 1.0, ..WaveformParams::default() };
        let samples = generate_segment(7, &p, 0, 20.0, 5_000);
        let max = samples.iter().map(|v| v.abs()).max().unwrap();
        assert!(max > 5_000, "event max {max}");
    }

    #[test]
    fn compresses_like_a_seismic_trace() {
        // The point of the synthetic model: Steim-style coding shrinks it.
        let p = WaveformParams::default();
        let samples = generate_segment(11, &p, 0, 20.0, 20_000);
        let encoded = crate::steim::encode(&samples);
        let bytes_per_sample = encoded.len() as f64 / samples.len() as f64;
        assert!(bytes_per_sample < 2.5, "expected < 2.5 B/sample, got {bytes_per_sample:.2}");
    }
}
