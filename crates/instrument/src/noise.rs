//! Current-noise models for the readout front end.
//!
//! Electrochemical measurements at sub-µA levels fight three noise
//! sources: white noise (thermal/shot, flat spectrum), flicker noise
//! (1/f, dominating at the slow sampling rates of amperometric sensing),
//! and quantization (handled by [`crate::adc`]). The generator here is
//! deterministic under a seed so every simulated table is reproducible.

use bios_prng::Rng;
use bios_units::Amperes;

/// Deterministic current-noise source: white Gaussian noise plus a
/// leaky-random-walk low-frequency ("flicker-like") component.
///
/// # Examples
///
/// ```
/// use bios_instrument::noise::NoiseGenerator;
///
/// let mut gen = NoiseGenerator::new(7, bios_units::Amperes::from_pico_amps(100.0));
/// let a = gen.sample();
/// let mut gen2 = NoiseGenerator::new(7, bios_units::Amperes::from_pico_amps(100.0));
/// let b = gen2.sample();
/// // Same seed, same sequence.
/// assert_eq!(a.as_amps(), b.as_amps());
/// ```
#[derive(Debug, Clone)]
pub struct NoiseGenerator {
    rng: Rng,
    white_rms: f64,
    flicker_rms: f64,
    /// Leak factor for the low-frequency walk, in (0, 1).
    leak: f64,
    walk: f64,
}

impl NoiseGenerator {
    /// Creates a white-only generator with the given RMS amplitude.
    #[must_use]
    pub fn new(seed: u64, white_rms: Amperes) -> NoiseGenerator {
        NoiseGenerator {
            rng: Rng::seed_from_u64(seed),
            white_rms: white_rms.as_amps().abs(),
            flicker_rms: 0.0,
            leak: 0.98,
            walk: 0.0,
        }
    }

    /// Adds a flicker (low-frequency drift) component of the given RMS.
    #[must_use]
    pub fn with_flicker(mut self, flicker_rms: Amperes) -> NoiseGenerator {
        self.flicker_rms = flicker_rms.as_amps().abs();
        self
    }

    /// Total RMS assuming independent components.
    #[must_use]
    pub fn total_rms(&self) -> Amperes {
        Amperes::from_amps((self.white_rms.powi(2) + self.flicker_rms.powi(2)).sqrt())
    }

    /// Draws the next noise sample.
    pub fn sample(&mut self) -> Amperes {
        let white = self.white_rms * self.gaussian();
        // Leaky random walk whose stationary RMS equals flicker_rms:
        // innovation σ_w = σ_f·√(1−λ²).
        let flicker = if self.flicker_rms > 0.0 {
            let sigma_w = self.flicker_rms * (1.0 - self.leak * self.leak).sqrt();
            self.walk = self.leak * self.walk + sigma_w * self.gaussian();
            self.walk
        } else {
            0.0
        };
        Amperes::from_amps(white + flicker)
    }

    /// Standard normal variate via Box–Muller.
    fn gaussian(&mut self) -> f64 {
        self.rng.gaussian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = NoiseGenerator::new(123, Amperes::from_amps(1.0e-9));
        let mut b = NoiseGenerator::new(123, Amperes::from_amps(1.0e-9));
        for _ in 0..100 {
            assert_eq!(a.sample().as_amps(), b.sample().as_amps());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseGenerator::new(1, Amperes::from_amps(1.0e-9));
        let mut b = NoiseGenerator::new(2, Amperes::from_amps(1.0e-9));
        let same = (0..50)
            .filter(|_| a.sample().as_amps() == b.sample().as_amps())
            .count();
        assert!(same < 5);
    }

    #[test]
    fn empirical_rms_matches_specification() {
        let rms = 0.5e-9;
        let mut g = NoiseGenerator::new(7, Amperes::from_amps(rms));
        let n = 20_000;
        let sum_sq: f64 = (0..n).map(|_| g.sample().as_amps().powi(2)).sum();
        let measured = (sum_sq / n as f64).sqrt();
        assert!((measured - rms).abs() / rms < 0.05, "measured {measured}");
    }

    #[test]
    fn empirical_mean_is_zero() {
        let mut g = NoiseGenerator::new(11, Amperes::from_amps(1.0e-9));
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| g.sample().as_amps()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05e-9);
    }

    #[test]
    fn flicker_adds_low_frequency_correlation() {
        let mut white = NoiseGenerator::new(3, Amperes::from_amps(1.0e-9));
        let mut pink = NoiseGenerator::new(3, Amperes::from_amps(1.0e-9))
            .with_flicker(Amperes::from_amps(3.0e-9));
        let lag_corr = |g: &mut NoiseGenerator| {
            let xs: Vec<f64> = (0..5000).map(|_| g.sample().as_amps()).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
            let cov: f64 = xs
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>();
            cov / var
        };
        assert!(lag_corr(&mut pink) > lag_corr(&mut white) + 0.2);
    }

    #[test]
    fn total_rms_combines_quadratically() {
        let g = NoiseGenerator::new(0, Amperes::from_amps(3.0e-9))
            .with_flicker(Amperes::from_amps(4.0e-9));
        assert!((g.total_rms().as_nano_amps() - 5.0).abs() < 1e-9);
    }
}
