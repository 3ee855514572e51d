//! Transimpedance amplification of the sensor current.

use bios_units::{Amperes, Ohms, Volts};

/// A transimpedance (current-to-voltage) amplifier stage.
///
/// The standard front end of every amperometric readout: the working
/// electrode current flows through a feedback resistor, producing
/// `V = −I·R_f` (we keep the sign positive for convenience).
///
/// # Examples
///
/// ```
/// use bios_instrument::TransimpedanceAmplifier;
/// use bios_units::{Amperes, Ohms, Volts};
///
/// let tia = TransimpedanceAmplifier::new(Ohms::from_mega_ohms(1.0), Volts::from_volts(3.3));
/// let v = tia.convert(Amperes::from_micro_amps(1.5));
/// assert!((v.as_volts() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransimpedanceAmplifier {
    gain: Ohms,
    rail: Volts,
}

impl TransimpedanceAmplifier {
    /// Creates an amplifier with feedback resistance `gain` and supply
    /// rail `rail` (output clips at ±rail).
    ///
    /// # Panics
    ///
    /// Panics if the gain or rail is not positive.
    #[must_use]
    pub fn new(gain: Ohms, rail: Volts) -> TransimpedanceAmplifier {
        assert!(gain.as_ohms() > 0.0, "gain must be positive");
        assert!(rail.as_volts() > 0.0, "supply rail must be positive");
        TransimpedanceAmplifier { gain, rail }
    }

    /// Supply rail (clipping level).
    #[must_use]
    pub fn rail(&self) -> Volts {
        self.rail
    }

    /// Converts a current to the output voltage, clipping at the rails.
    #[must_use]
    pub fn convert(&self, current: Amperes) -> Volts {
        let v = self.gain.as_ohms() * current.as_amps();
        Volts::from_volts(v.clamp(-self.rail.as_volts(), self.rail.as_volts()))
    }

    /// Inverse conversion for an *unclipped* output voltage.
    #[must_use]
    pub fn invert(&self, output: Volts) -> Amperes {
        Amperes::from_amps(output.as_volts() / self.gain.as_ohms())
    }

    /// The largest current representable before clipping.
    #[must_use]
    pub fn full_scale_current(&self) -> Amperes {
        Amperes::from_amps(self.rail.as_volts() / self.gain.as_ohms())
    }

    /// Picks the largest decade gain (10ᵏ Ω) that keeps `expected_max`
    /// within 80 % of full scale — auto-ranging, as a real potentiostat
    /// front end does.
    #[must_use]
    pub fn auto_range(expected_max: Amperes, rail: Volts) -> TransimpedanceAmplifier {
        let target = 0.8 * rail.as_volts();
        let i = expected_max.as_amps().abs().max(1e-12);
        let r = target / i;
        let decade = 10f64.powf(r.log10().floor());
        TransimpedanceAmplifier::new(Ohms::from_ohms(decade), rail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tia() -> TransimpedanceAmplifier {
        TransimpedanceAmplifier::new(Ohms::from_mega_ohms(1.0), Volts::from_volts(3.3))
    }

    #[test]
    fn conversion_round_trips() {
        let i = Amperes::from_amps(420.0e-9);
        let v = tia().convert(i);
        let back = tia().invert(v);
        assert!((back.as_nano_amps() - 420.0).abs() < 1e-9);
    }

    #[test]
    fn clips_at_rail() {
        let v = tia().convert(Amperes::from_micro_amps(10.0));
        assert!((v.as_volts() - 3.3).abs() < 1e-12);
        let v = tia().convert(Amperes::from_micro_amps(-10.0));
        assert!((v.as_volts() + 3.3).abs() < 1e-12);
    }

    #[test]
    fn full_scale_and_saturation() {
        let fs = tia().full_scale_current();
        assert!((fs.as_micro_amps() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn auto_range_keeps_signal_in_band() {
        for max_na in [5.0, 50.0, 500.0, 5000.0] {
            let expected = Amperes::from_amps(max_na * 1e-9);
            let tia = TransimpedanceAmplifier::auto_range(expected, Volts::from_volts(3.3));
            assert!(
                expected <= tia.full_scale_current(),
                "{max_na} nA saturates"
            );
            // Signal uses at least a few percent of the range.
            let frac = expected.as_amps() / tia.full_scale_current().as_amps();
            assert!(frac > 0.05, "{max_na} nA uses only {frac} of range");
        }
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn zero_gain_rejected() {
        let _ = TransimpedanceAmplifier::new(Ohms::from_ohms(0.0), Volts::from_volts(3.3));
    }
}
