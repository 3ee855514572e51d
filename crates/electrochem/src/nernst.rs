//! Nernstian relations: the thermal voltage and the slope per decade.

use bios_units::{Kelvin, Volts, FARADAY, GAS_CONSTANT};

/// Thermal voltage `RT/F` at room temperature ([`Kelvin::ROOM`]) —
/// about 25.7 mV.
///
/// # Examples
///
/// ```
/// use bios_electrochem::nernst::thermal_voltage;
///
/// let vt = thermal_voltage();
/// assert!((vt.as_milli_volts() - 25.69).abs() < 0.05);
/// ```
#[must_use]
pub fn thermal_voltage() -> Volts {
    Volts::from_volts(GAS_CONSTANT * Kelvin::ROOM.as_kelvin() / FARADAY)
}

/// The Nernstian slope per decade of concentration ratio at room
/// temperature: `2.303·RT/nF` — the canonical “59 mV per decade” at
/// 25 °C for n = 1.
///
/// Potentiometric sensors (ion-selective electrodes, §2.3 of the paper)
/// are characterized by how closely they approach this slope.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn nernstian_slope_per_decade(n: u32) -> Volts {
    assert!(n > 0, "electron count must be at least 1");
    Volts::from_volts(thermal_voltage().as_volts() * std::f64::consts::LN_10 / f64::from(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_nine_millivolts_per_decade() {
        let slope = nernstian_slope_per_decade(1);
        assert!((slope.as_milli_volts() - 59.16).abs() < 0.05);
        // n = 2 halves the slope.
        let slope2 = nernstian_slope_per_decade(2);
        assert!((slope2.as_milli_volts() - 29.58).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_electrons_rejected() {
        let _ = nernstian_slope_per_decade(0);
    }
}
