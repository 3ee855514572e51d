//! Electrode degradation: fouling and reference drift.
//!
//! Two failure modes dominate real amperometric sensors operated in
//! biological matrices (the paper's §2.5 lifetime discussion):
//!
//! 1. **Fouling** — proteins and oxidation products passivate a fraction
//!    `θ` of the working-electrode area. To first order the faradaic
//!    current scales with the *free* area, `i = i₀·(1 − θ)`.
//! 2. **Reference drift** — a pseudo-reference (screen-printed Ag/AgCl)
//!    walks by ΔE, shifting the true overpotential applied to the
//!    working electrode. On the mass-transport plateau extra
//!    overpotential gains nothing, but drifting *toward* the foot of the
//!    wave suppresses the current along the Tafel slope,
//!    `i/i₀ = exp(α·n·f·ΔE)` capped at 1.
//!
//! [`ElectrodeHealth`] composes both into a single current multiplier
//! that `bios-core` applies when a fault plan is armed; a pristine
//! health is an exact no-op.

use bios_faults::{Faultable, RealizedFaults};
use bios_units::{nearly_zero, Kelvin, Volts, FARADAY, GAS_CONSTANT};

/// Degradation state of a working/reference electrode pair.
///
/// # Examples
///
/// ```
/// use bios_electrochem::degradation::ElectrodeHealth;
/// use bios_units::Kelvin;
///
/// let healthy = ElectrodeHealth::pristine();
/// assert_eq!(healthy.current_factor(1, 0.5, Kelvin::ROOM), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectrodeHealth {
    /// Fraction of working-electrode area passivated, `[0, 1)`.
    fouling_coverage: f64,
    /// Reference-electrode potential error (true − nominal).
    reference_drift: Volts,
}

impl ElectrodeHealth {
    /// A factory-fresh electrode pair: no fouling, no drift.
    #[must_use]
    pub fn pristine() -> ElectrodeHealth {
        ElectrodeHealth {
            fouling_coverage: 0.0,
            reference_drift: Volts::ZERO,
        }
    }

    /// True when the pair is factory-fresh (both factors exactly 1).
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        nearly_zero(self.fouling_coverage) && self.reference_drift == Volts::ZERO
    }

    /// Area factor from fouling: the free fraction `1 − θ`.
    #[must_use]
    pub fn fouling_factor(&self) -> f64 {
        1.0 - self.fouling_coverage
    }

    /// Current factor from reference drift for an `n`-electron couple
    /// with transfer coefficient `alpha` at `temperature`:
    /// `min(1, exp(α·n·F·ΔE/(R·T)))`. Positive drift (more
    /// overpotential) is capped at 1 — the sensor already sits on the
    /// mass-transport plateau; negative drift slides down the Tafel
    /// slope exponentially.
    #[must_use]
    pub fn drift_factor(&self, n: u32, alpha: f64, temperature: Kelvin) -> f64 {
        let de = self.reference_drift.as_volts();
        if nearly_zero(de) {
            return 1.0;
        }
        let f = FARADAY / (GAS_CONSTANT * temperature.as_kelvin());
        (alpha * f64::from(n) * f * de).exp().min(1.0)
    }

    /// Combined multiplier on the healthy faradaic current.
    #[must_use]
    pub fn current_factor(&self, n: u32, alpha: f64, temperature: Kelvin) -> f64 {
        self.fouling_factor() * self.drift_factor(n, alpha, temperature)
    }
}

impl Default for ElectrodeHealth {
    fn default() -> Self {
        Self::pristine()
    }
}

impl Faultable for ElectrodeHealth {
    /// Applies injected fouling and reference drift; a healthy
    /// realization returns the state unchanged.
    fn with_faults(self, faults: &RealizedFaults) -> Self {
        if faults.fouling_coverage <= 0.0 && nearly_zero(faults.reference_drift_volts) {
            return self;
        }
        let coverage = (self.fouling_coverage + faults.fouling_coverage).clamp(0.0, 0.99);
        let drift =
            Volts::from_volts(self.reference_drift.as_volts() + faults.reference_drift_volts);
        ElectrodeHealth {
            fouling_coverage: coverage,
            reference_drift: drift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(fouling_coverage: f64, reference_drift_volts: f64) -> ElectrodeHealth {
        let mut faults = RealizedFaults::healthy();
        faults.fouling_coverage = fouling_coverage;
        faults.reference_drift_volts = reference_drift_volts;
        ElectrodeHealth::pristine().with_faults(&faults)
    }

    #[test]
    fn pristine_is_identity() {
        let h = ElectrodeHealth::pristine();
        assert!(h.is_pristine());
        assert_eq!(h.current_factor(1, 0.5, Kelvin::ROOM), 1.0);
        assert_eq!(h.current_factor(2, 0.3, Kelvin::ROOM), 1.0);
    }

    #[test]
    fn fouling_scales_linearly_with_free_area() {
        let h = health(0.4, 0.0);
        assert!((h.current_factor(1, 0.5, Kelvin::ROOM) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn negative_drift_follows_tafel_slope() {
        let h = health(0.0, -0.059);
        let factor = h.drift_factor(1, 0.5, Kelvin::ROOM);
        // α·f·ΔE ≈ 0.5 · 38.92 V⁻¹ · −0.059 V ≈ −1.148 → e^−1.148 ≈ 0.317.
        assert!((factor - (-1.148f64).exp()).abs() < 0.01, "factor {factor}");
    }

    #[test]
    fn positive_drift_is_capped_on_the_plateau() {
        let h = health(0.0, 0.080);
        assert_eq!(h.drift_factor(1, 0.5, Kelvin::ROOM), 1.0);
    }

    #[test]
    fn healthy_faults_leave_state_untouched() {
        let h = ElectrodeHealth::pristine();
        assert_eq!(h.with_faults(&RealizedFaults::healthy()), h);
    }

    #[test]
    fn injected_fouling_and_drift_compose() {
        let h = health(0.25, -0.02);
        assert!((h.fouling_factor() - 0.75).abs() < 1e-12);
        assert!(h.drift_factor(1, 0.5, Kelvin::ROOM) < 1.0);
        assert!(h.current_factor(1, 0.5, Kelvin::ROOM) < 0.75);
    }
}
