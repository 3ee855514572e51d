//! Field-effect (ISFET / nanowire / CNT-FET) transduction.
//!
//! §2.3: conventional FETs "can be modified for biosensing purposes by
//! functionalizing the gate terminal with probes … the binding between
//! probes and targets results in a variation of electric charges at the
//! gate terminal", and §2.4 notes nanowires/CNTs can replace the channel
//! so binding modulates channel conductivity. This module models both: a
//! charge-to-threshold-shift gate model and a square-law MOSFET readout.

use bios_units::{nearly_zero, Amperes, Molar, Volts};

/// A biologically functionalized FET.
///
/// Probe–target binding follows a Langmuir isotherm; bound targets
/// deposit charge on the gate, shifting the threshold voltage by
/// `ΔV_th = q·N_bound/C_ox` (per unit area), which the drain current
/// readout converts to signal.
///
/// # Examples
///
/// ```
/// use bios_electrochem::field_effect::BioFet;
/// use bios_units::{Molar, Volts};
///
/// let fet = BioFet::psa_cnt_fet();
/// let blank = fet.drain_current(Molar::ZERO);
/// let bound = fet.drain_current(Molar::from_nano_molar(10.0));
/// assert!(bound != blank);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BioFet {
    /// Probe surface density, m⁻² (sites available for binding).
    probe_density_per_m2: f64,
    /// Dissociation constant of the probe–target pair.
    kd: Molar,
    /// Elementary charges delivered per bound target (sign matters:
    /// DNA/PSA are negative at physiological pH).
    charges_per_target: f64,
    /// Gate oxide capacitance per area, F/m².
    oxide_capacitance_per_m2: f64,
    /// Bare threshold voltage.
    threshold: Volts,
    /// Gate overdrive at the bias point.
    overdrive: Volts,
    /// Transconductance parameter k' = µC_ox·W/L, A/V².
    k_prime: f64,
}

impl BioFet {
    /// A CNT-channel PSA immunosensor in the spirit of \[22\]:
    /// antibody probes, nM-scale affinity, negative analyte charge.
    #[must_use]
    pub fn psa_cnt_fet() -> BioFet {
        BioFet {
            probe_density_per_m2: 1e15,
            kd: Molar::from_nano_molar(5.0),
            charges_per_target: -4.0,
            oxide_capacitance_per_m2: 8.6e-3, // ~4 nm SiO₂
            threshold: Volts::from_milli_volts(500.0),
            overdrive: Volts::from_milli_volts(300.0),
            k_prime: 2e-4,
        }
    }

    /// Fraction of probes occupied at target concentration `c`
    /// (Langmuir).
    #[must_use]
    pub fn occupancy(&self, c: Molar) -> f64 {
        let x = c.as_molar().max(0.0);
        x / (self.kd.as_molar() + x)
    }

    /// Threshold shift produced by bound targets.
    #[must_use]
    pub fn threshold_shift(&self, c: Molar) -> Volts {
        const Q: f64 = 1.602_176_634e-19;
        let bound = self.probe_density_per_m2 * self.occupancy(c);
        // Negative charge raises V_th of an n-FET.
        Volts::from_volts(-Q * self.charges_per_target * bound / self.oxide_capacitance_per_m2)
    }

    /// Saturation drain current at the fixed bias point:
    /// `I_D = k'/2·(V_ov − ΔV_th)²`, clamped at cut-off.
    #[must_use]
    pub fn drain_current(&self, c: Molar) -> Amperes {
        let v_eff = self.overdrive.as_volts() - self.threshold_shift(c).as_volts();
        if v_eff <= 0.0 {
            return Amperes::ZERO;
        }
        Amperes::from_amps(self.k_prime / 2.0 * v_eff * v_eff)
    }

    /// The relative signal `|ΔI/I₀|` at concentration `c` — the
    /// figure usually quoted for FET biosensors.
    #[must_use]
    pub fn relative_response(&self, c: Molar) -> f64 {
        let i0 = self.drain_current(Molar::ZERO).as_amps();
        let i = self.drain_current(c).as_amps();
        if nearly_zero(i0) {
            return 0.0;
        }
        (i - i0).abs() / i0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_langmuir() {
        let fet = BioFet::psa_cnt_fet();
        assert_eq!(fet.occupancy(Molar::ZERO), 0.0);
        let half = fet.occupancy(fet.kd);
        assert!((half - 0.5).abs() < 1e-12);
        assert!(fet.occupancy(Molar::from_micro_molar(1.0)) > 0.99);
    }

    #[test]
    fn negative_targets_raise_threshold_and_cut_current() {
        let fet = BioFet::psa_cnt_fet();
        let shift = fet.threshold_shift(Molar::from_nano_molar(50.0));
        assert!(
            shift.as_volts() > 0.0,
            "negative charge raises V_th of n-FET"
        );
        let i0 = fet.drain_current(Molar::ZERO);
        let i = fet.drain_current(Molar::from_nano_molar(50.0));
        assert!(i < i0);
    }

    #[test]
    fn response_is_monotone_in_concentration() {
        let fet = BioFet::psa_cnt_fet();
        let mut prev = -1.0;
        for nano in [0.1, 1.0, 5.0, 20.0, 100.0] {
            let r = fet.relative_response(Molar::from_nano_molar(nano));
            assert!(r >= prev, "at {nano} nM");
            prev = r;
        }
    }

    #[test]
    fn nanomolar_sensitivity() {
        // The §2.4 argument for nano-channel FETs: nM targets give
        // percent-scale signals.
        let fet = BioFet::psa_cnt_fet();
        let r = fet.relative_response(Molar::from_nano_molar(5.0));
        assert!(r > 0.02, "relative response {r}");
    }

    #[test]
    fn saturating_targets_can_pinch_off() {
        // Enough bound charge can push the device to cut-off; the model
        // clamps at zero rather than going negative.
        let mut fet = BioFet::psa_cnt_fet();
        fet.charges_per_target = -1000.0;
        let i = fet.drain_current(Molar::from_micro_molar(10.0));
        assert_eq!(i, Amperes::ZERO);
    }
}
