//! Double-layer capacitance and charging currents.
//!
//! Every potential excursion charges the electrode/electrolyte interface.
//! The charging (non-faradaic) current rides on top of the faradaic signal
//! and is one reason the nanostructured electrodes of the paper — with
//! their enormous real surface area — need careful treatment: capacitance
//! scales with *real* area while the useful signal scales with coverage.

use bios_units::{Amperes, ScanRate, SquareCm};

/// A double-layer capacitor at the electrode interface.
///
/// # Examples
///
/// ```
/// use bios_electrochem::double_layer::DoubleLayer;
/// use bios_units::{ScanRate, SquareCm};
///
/// // A bare electrode (~20 µF/cm²) vs a CNT-modified one whose real
/// // area is 100× larger.
/// let bare = DoubleLayer::new(20e-6, SquareCm::from_square_cm(0.1), 1.0);
/// let cnt = DoubleLayer::new(20e-6, SquareCm::from_square_cm(0.1), 100.0);
/// let v = ScanRate::from_milli_volts_per_second(50.0);
/// assert!(cnt.charging_current(v).as_amps() > bare.charging_current(v).as_amps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleLayer {
    /// Specific capacitance of the pristine interface, F/cm².
    specific_f_per_cm2: f64,
    /// Geometric electrode area.
    area: SquareCm,
    /// Real-to-geometric area ratio (roughness factor); ≥ 1.
    roughness: f64,
}

impl DoubleLayer {
    /// Creates a double layer.
    ///
    /// # Panics
    ///
    /// Panics if the specific capacitance is not positive or the roughness
    /// factor is below 1.
    #[must_use]
    pub fn new(specific_f_per_cm2: f64, area: SquareCm, roughness: f64) -> DoubleLayer {
        assert!(
            specific_f_per_cm2 > 0.0 && specific_f_per_cm2.is_finite(),
            "specific capacitance must be positive"
        );
        assert!(roughness >= 1.0, "roughness factor cannot be below 1");
        DoubleLayer {
            specific_f_per_cm2,
            area,
            roughness,
        }
    }

    /// Total interfacial capacitance in farads.
    #[must_use]
    pub fn capacitance_farads(&self) -> f64 {
        self.specific_f_per_cm2 * self.area.as_square_cm() * self.roughness
    }

    /// Steady charging current during a potential ramp: `i_c = C·v`.
    #[must_use]
    pub fn charging_current(&self, scan_rate: ScanRate) -> Amperes {
        Amperes::from_amps(self.capacitance_farads() * scan_rate.as_volts_per_second())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dl() -> DoubleLayer {
        DoubleLayer::new(20e-6, SquareCm::from_square_cm(0.1), 1.0)
    }

    #[test]
    fn capacitance_is_specific_times_area() {
        assert!((dl().capacitance_farads() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn charging_current_linear_in_scan_rate() {
        let i1 = dl().charging_current(ScanRate::from_milli_volts_per_second(25.0));
        let i2 = dl().charging_current(ScanRate::from_milli_volts_per_second(50.0));
        assert!((i2.as_amps() / i1.as_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn roughness_multiplies_capacitance() {
        let rough = DoubleLayer::new(20e-6, SquareCm::from_square_cm(0.1), 80.0);
        assert!((rough.capacitance_farads() / dl().capacitance_farads() - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "roughness")]
    fn sub_unity_roughness_rejected() {
        let _ = DoubleLayer::new(20e-6, SquareCm::from_square_cm(0.1), 0.5);
    }
}
