//! Electrochemical impedance spectroscopy (EIS) on a Randles cell.
//!
//! Faradic impedimetric biosensors (§2.3 of the paper, \[37\]) read the
//! charge-transfer resistance `R_ct` of a redox probe: antibody–antigen
//! binding blocks the surface and `R_ct` rises. This module computes the
//! complex impedance of the standard Randles equivalent circuit
//!
//! `Z(ω) = R_s + ( (R_ct + Z_W) ⁻¹ + jωC_dl )⁻¹`,  `Z_W = σ·ω^-1/2·(1−j)`
//!
//! and provides the spectrum analysis a sensor readout needs (Nyquist
//! semicircle diameter → `R_ct`).

/// A complex number; minimal ad-hoc implementation to avoid external
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts
    /// (unit-agnostic; throughout this module both parts are in Ω).
    #[must_use]
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Complex reciprocal.
    ///
    /// # Panics
    ///
    /// Panics on a zero magnitude.
    #[must_use]
    pub fn recip(self) -> Complex {
        let d = self.re * self.re + self.im * self.im;
        assert!(d > 0.0, "cannot invert zero impedance");
        Complex::new(self.re / d, -self.im / d)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// The Randles equivalent circuit of an electrode interface.
///
/// # Examples
///
/// ```
/// use bios_electrochem::impedance::RandlesCell;
///
/// let cell = RandlesCell::new(100.0, 5_000.0, 1e-6, 50.0);
/// // At very high frequency only the solution resistance remains.
/// let z_hf = cell.impedance(1e6);
/// assert!((z_hf.re - 100.0).abs() < 20.0);
/// // At low frequency the charge-transfer arc dominates.
/// let z_lf = cell.impedance(1.0);
/// assert!(z_lf.re > 3_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandlesCell {
    /// Solution (series) resistance, Ω.
    pub solution_resistance: f64,
    /// Charge-transfer resistance, Ω — the sensing observable.
    pub charge_transfer_resistance: f64,
    /// Double-layer capacitance, F.
    pub double_layer_capacitance: f64,
    /// Warburg coefficient σ, Ω·s^-1/2 (0 disables diffusion impedance).
    pub warburg_sigma: f64,
}

impl RandlesCell {
    /// Creates a Randles cell from `r_s` and `r_ct` in Ω, `c_dl` in
    /// farads, and the Warburg coefficient `sigma` in Ω·s^-1/2.
    ///
    /// # Panics
    ///
    /// Panics if any resistance or the capacitance is not positive, or
    /// σ is negative.
    #[must_use]
    pub fn new(r_s: f64, r_ct: f64, c_dl: f64, sigma: f64) -> RandlesCell {
        assert!(r_s > 0.0, "solution resistance must be positive");
        assert!(r_ct > 0.0, "charge-transfer resistance must be positive");
        assert!(c_dl > 0.0, "double-layer capacitance must be positive");
        assert!(sigma >= 0.0, "Warburg coefficient cannot be negative");
        RandlesCell {
            solution_resistance: r_s,
            charge_transfer_resistance: r_ct,
            double_layer_capacitance: c_dl,
            warburg_sigma: sigma,
        }
    }

    /// Complex impedance, in Ω, at frequency `hz` in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not positive.
    #[must_use]
    pub fn impedance(&self, hz: f64) -> Complex {
        assert!(hz > 0.0, "frequency must be positive");
        let omega = 2.0 * std::f64::consts::PI * hz;
        // Faradaic branch: R_ct in series with Warburg.
        let w = self.warburg_sigma / omega.sqrt();
        let faradaic = Complex::new(self.charge_transfer_resistance + w, -w);
        // In parallel with the double layer.
        let y_dl = Complex::new(0.0, omega * self.double_layer_capacitance);
        let y_total = faradaic.recip() + y_dl;
        let z_parallel = y_total.recip();
        Complex::new(self.solution_resistance, 0.0) + z_parallel
    }

    /// Sweeps `points` frequencies log-spaced over `[f_lo, f_hi]` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f_lo < f_hi` and `points ≥ 2`.
    #[must_use]
    pub fn spectrum(&self, f_lo: f64, f_hi: f64, points: usize) -> Vec<(f64, Complex)> {
        assert!(f_lo > 0.0 && f_hi > f_lo, "need 0 < f_lo < f_hi");
        assert!(points >= 2, "need at least 2 spectrum points");
        let log_lo = f_lo.log10();
        let log_hi = f_hi.log10();
        (0..points)
            .map(|k| {
                let f = 10f64.powf(log_lo + (log_hi - log_lo) * k as f64 / (points - 1) as f64);
                (f, self.impedance(f))
            })
            .collect()
    }
}

/// Estimates `R_ct`, in Ω, from a measured spectrum as the width of the
/// Nyquist semicircle: the difference between the low-frequency
/// real-axis intercept (σ = 0) and the high-frequency intercept.
///
/// For spectra with Warburg tails, the estimate uses the real part at
/// the apex (−Z″ maximum): `R_ct ≈ 2·(Re(Z_apex) − R_s)`.
///
/// # Panics
///
/// Panics on an empty spectrum.
#[must_use]
pub fn estimate_charge_transfer(spectrum: &[(f64, Complex)]) -> f64 {
    assert!(!spectrum.is_empty(), "spectrum is empty");
    // High-frequency intercept ≈ minimum real part.
    let r_s = spectrum
        .iter()
        .map(|(_, z)| z.re)
        .fold(f64::INFINITY, f64::min);
    // Apex: maximum −Z″ (most capacitive point of the semicircle).
    // The assert above guarantees a maximum exists; fall back to the
    // intercept (R_ct = 0) rather than carrying a panic path.
    let apex_re = spectrum
        .iter()
        .max_by(|a, b| (-a.1.im).total_cmp(&(-b.1.im)))
        .map_or(r_s, |(_, z)| z.re);
    2.0 * (apex_re - r_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> RandlesCell {
        RandlesCell::new(100.0, 10_000.0, 1e-6, 0.0)
    }

    #[test]
    fn limits_are_resistive() {
        let c = cell();
        // HF → R_s.
        let z = c.impedance(1e7);
        assert!((z.re - 100.0).abs() < 5.0);
        assert!(z.im.abs() < 5.0);
        // LF → R_s + R_ct.
        let z = c.impedance(1e-3);
        assert!((z.re - 10_100.0).abs() < 10.0);
    }

    #[test]
    fn apex_is_most_capacitive_point() {
        let c = cell();
        // Semicircle apex, f* = 1/(2π·R_ct·C_dl).
        let f_apex = 1.0 / (2.0 * std::f64::consts::PI * 10_000.0 * 1e-6);
        let at = |f: f64| -c.impedance(f).im;
        assert!(at(f_apex) > at(f_apex * 5.0));
        assert!(at(f_apex) > at(f_apex / 5.0));
        // At the apex, −Z″ = R_ct/2 for an ideal semicircle.
        assert!((at(f_apex) - 5_000.0).abs() < 10.0);
    }

    #[test]
    fn rct_estimation_recovers_truth() {
        let c = cell();
        let spec = c.spectrum(0.01, 1e6, 400);
        let est = estimate_charge_transfer(&spec);
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.05, "estimated {est}");
    }

    #[test]
    fn binding_event_raises_rct_estimate() {
        // The immunosensor principle: surface blocking doubles R_ct.
        let before = RandlesCell::new(100.0, 5_000.0, 1e-6, 30.0);
        let after = RandlesCell::new(100.0, 10_000.0, 1e-6, 30.0);
        let est_before = estimate_charge_transfer(&before.spectrum(0.1, 1e6, 100));
        let est_after = estimate_charge_transfer(&after.spectrum(0.1, 1e6, 100));
        assert!(est_after > 1.6 * est_before);
    }

    #[test]
    fn warburg_tail_appears_at_low_frequency() {
        let with_w = RandlesCell::new(100.0, 1_000.0, 1e-6, 500.0);
        let spec = with_w.spectrum(0.01, 1e5, 80);
        // At the lowest frequencies, the 45° Warburg line: |Z″| grows
        // with falling f and the phase tends toward −45° relative slope.
        let (f1, z1) = spec[0];
        let (f2, z2) = spec[4];
        assert!(f1 < f2);
        assert!(-z1.im > -z2.im);
        // Warburg real and imaginary contributions are equal; slope of
        // the tail ≈ 1.
        let slope = (z2.im - z1.im) / (z2.re - z1.re);
        assert!((slope.abs() - 1.0).abs() < 0.35, "slope {slope}");
    }

    #[test]
    fn spectrum_is_log_spaced_and_ordered() {
        let spec = cell().spectrum(1.0, 1e4, 5);
        assert_eq!(spec.len(), 5);
        let ratios: Vec<f64> = spec.windows(2).map(|w| w[1].0 / w[0].0).collect();
        for r in &ratios {
            assert!((r - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_helpers() {
        let z = Complex::new(3.0, 4.0);
        let r = z.recip();
        assert!((r.re - 0.12).abs() < 1e-12);
        assert!((r.im + 0.16).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = cell().impedance(0.0);
    }
}
