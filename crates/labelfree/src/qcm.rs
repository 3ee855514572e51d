//! Quartz crystal microbalance (piezoelectric) sensing.
//!
//! §2.3: "Piezoelectric biosensors typically detect mass variation …
//! once the sensing element binds the target, the mass of the system
//! varies and shifts the resonance frequency." The classic relation is
//! the Sauerbrey equation:
//!
//! `Δf = −2·f₀²·Δm / (A·√(ρ_q·µ_q))`
//!
//! with quartz density ρ_q = 2.648 g/cm³ and shear modulus
//! µ_q = 2.947×10¹¹ g·cm⁻¹·s⁻².

use bios_units::SquareCm;

/// Quartz density, g/cm³.
const RHO_QUARTZ: f64 = 2.648;
/// Quartz shear modulus, g·cm⁻¹·s⁻².
const MU_QUARTZ: f64 = 2.947e11;
/// Frequency-counter resolution, Hz.
const RESOLUTION_HZ: f64 = 0.1;

/// An AT-cut quartz resonator with a functionalized electrode.
///
/// # Examples
///
/// ```
/// use bios_labelfree::QuartzCrystalMicrobalance;
/// use bios_units::SquareCm;
///
/// // The canonical 5 MHz crystal: ~56.6 Hz per µg/cm².
/// let qcm = QuartzCrystalMicrobalance::new(5e6, SquareCm::from_square_cm(1.0));
/// let shift = qcm.frequency_shift_hz(1.0e-6); // 1 µg bound on 1 cm²
/// assert!((shift + 56.6).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuartzCrystalMicrobalance {
    fundamental_hz: f64,
    active_area: SquareCm,
}

impl QuartzCrystalMicrobalance {
    /// Creates a crystal with the given fundamental frequency and active
    /// electrode area.
    ///
    /// # Panics
    ///
    /// Panics if the frequency or area is not positive.
    #[must_use]
    pub fn new(fundamental_hz: f64, active_area: SquareCm) -> QuartzCrystalMicrobalance {
        assert!(
            fundamental_hz > 0.0,
            "fundamental frequency must be positive"
        );
        assert!(
            active_area.as_square_cm() > 0.0,
            "active area must be positive"
        );
        QuartzCrystalMicrobalance {
            fundamental_hz,
            active_area,
        }
    }

    /// Sauerbrey mass sensitivity, Hz per (g/cm²).
    #[must_use]
    pub fn sensitivity_hz_per_gram_per_cm2(&self) -> f64 {
        2.0 * self.fundamental_hz * self.fundamental_hz / (RHO_QUARTZ * MU_QUARTZ).sqrt()
    }

    /// Frequency shift for `mass_grams` of rigidly coupled deposit.
    /// Negative shifts mean added mass.
    #[must_use]
    pub fn frequency_shift_hz(&self, mass_grams: f64) -> f64 {
        -self.sensitivity_hz_per_gram_per_cm2() * mass_grams / self.active_area.as_square_cm()
    }

    /// The smallest detectable areal mass (g/cm²) given the counter
    /// resolution — 3 counts as the detection criterion.
    #[must_use]
    pub fn mass_detection_limit_grams_per_cm2(&self) -> f64 {
        3.0 * RESOLUTION_HZ / self.sensitivity_hz_per_gram_per_cm2()
    }

    /// Whether a deposited protein monolayer (~200 ng/cm²) is
    /// detectable on this crystal.
    #[must_use]
    pub fn detects_protein_monolayer(&self) -> bool {
        self.mass_detection_limit_grams_per_cm2() < 200e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qcm() -> QuartzCrystalMicrobalance {
        QuartzCrystalMicrobalance::new(5e6, SquareCm::from_square_cm(1.0))
    }

    #[test]
    fn sauerbrey_constant_for_5_mhz() {
        // Textbook: 56.6 Hz·µg⁻¹·cm² for 5 MHz AT-cut quartz.
        let s = qcm().sensitivity_hz_per_gram_per_cm2() * 1e-6;
        assert!((s - 56.6).abs() < 0.5, "sensitivity {s}");
    }

    #[test]
    fn added_mass_lowers_frequency() {
        let shift = qcm().frequency_shift_hz(0.5e-6);
        assert!(shift < 0.0);
    }

    #[test]
    fn shift_linear_in_mass_and_inverse_in_area() {
        let q = qcm();
        assert!((q.frequency_shift_hz(2e-6) / q.frequency_shift_hz(1e-6) - 2.0).abs() < 1e-12);
        let small = QuartzCrystalMicrobalance::new(5e6, SquareCm::from_square_cm(0.5));
        assert!((small.frequency_shift_hz(1e-6) / q.frequency_shift_hz(1e-6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn higher_fundamental_is_more_sensitive() {
        let f5 = qcm();
        let f10 = QuartzCrystalMicrobalance::new(10e6, SquareCm::from_square_cm(1.0));
        // Sauerbrey ∝ f².
        let ratio = f10.sensitivity_hz_per_gram_per_cm2() / f5.sensitivity_hz_per_gram_per_cm2();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn monolayer_detection() {
        // A 5 MHz crystal at 0.1 Hz resolution resolves ~5 ng/cm² —
        // comfortably below a protein monolayer.
        assert!(qcm().detects_protein_monolayer());
        // A 0.5 MHz crystal is 100× less sensitive (Sauerbrey ∝ f₀²):
        // ~530 ng/cm² is the best it resolves.
        let slow = QuartzCrystalMicrobalance::new(0.5e6, SquareCm::from_square_cm(1.0));
        assert!(!slow.detects_protein_monolayer());
    }

    /// QCM detection limit improves with a faster crystal.
    #[test]
    fn qcm_lod_monotonicities() {
        bios_prng::cases(0x0605, 64, |rng| {
            let f_mhz = rng.uniform_in(1.0, 30.0);
            let area = SquareCm::from_square_cm(1.0);
            let q = QuartzCrystalMicrobalance::new(f_mhz * 1e6, area);
            let faster = QuartzCrystalMicrobalance::new(2.0 * f_mhz * 1e6, area);
            assert!(
                faster.mass_detection_limit_grams_per_cm2()
                    < q.mass_detection_limit_grams_per_cm2()
            );
        });
    }
}
