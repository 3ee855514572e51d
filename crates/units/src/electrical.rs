//! Electrical quantities: current, potential, resistance, current density,
//! and voltammetric scan rate.

use std::fmt;

use crate::geometry::SquareCm;
use crate::macros::quantity_ops;

/// Electric current, stored canonically in amperes.
///
/// Biosensor currents live in the pA–µA decades, so µA/pA constructors
/// and µA/nA readouts are provided.
///
/// # Examples
///
/// ```
/// use bios_units::Amperes;
///
/// let i = Amperes::from_micro_amps(0.25);
/// assert!((i.as_nano_amps() - 250.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Amperes(f64);

quantity_ops!(Amperes);

impl Amperes {
    /// Zero current.
    pub const ZERO: Amperes = Amperes(0.0);

    /// Creates a current from amperes.
    #[must_use]
    pub fn from_amps(amps: f64) -> Amperes {
        Amperes(amps)
    }

    /// Creates a current from microamperes.
    #[must_use]
    pub fn from_micro_amps(micro_amps: f64) -> Amperes {
        Amperes(micro_amps * 1e-6)
    }

    /// Creates a current from picoamperes.
    #[must_use]
    pub fn from_pico_amps(pico_amps: f64) -> Amperes {
        Amperes(pico_amps * 1e-12)
    }

    /// Returns the current in amperes.
    #[must_use]
    pub fn as_amps(self) -> f64 {
        self.0
    }

    /// Returns the current in milliamperes.
    #[must_use]
    pub fn as_milli_amps(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the current in microamperes.
    #[must_use]
    pub fn as_micro_amps(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the current in nanoamperes.
    #[must_use]
    pub fn as_nano_amps(self) -> f64 {
        self.0 * 1e9
    }
}

impl fmt::Display for Amperes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 1e-3 {
            write!(f, "{:.4} mA", self.as_milli_amps())
        } else if abs >= 1e-6 || abs == 0.0 {
            write!(f, "{:.4} µA", self.as_micro_amps())
        } else {
            write!(f, "{:.4} nA", self.as_nano_amps())
        }
    }
}

/// Current divided by electrode area gives a current density.
impl std::ops::Div<SquareCm> for Amperes {
    type Output = CurrentDensity;
    fn div(self, rhs: SquareCm) -> CurrentDensity {
        CurrentDensity::from_amps_per_square_cm(self.0 / rhs.as_square_cm())
    }
}

/// Current density, A · cm⁻².
///
/// # Examples
///
/// ```
/// use bios_units::{Amperes, SquareCm};
///
/// let j = Amperes::from_micro_amps(13.0) / SquareCm::from_square_mm(13.0);
/// assert!((j.as_micro_amps_per_square_cm() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CurrentDensity(f64);

quantity_ops!(CurrentDensity);

impl CurrentDensity {
    /// Creates a current density from A · cm⁻².
    #[must_use]
    pub fn from_amps_per_square_cm(value: f64) -> CurrentDensity {
        CurrentDensity(value)
    }

    /// Returns the density in µA · cm⁻².
    #[must_use]
    pub fn as_micro_amps_per_square_cm(self) -> f64 {
        self.0 * 1e6
    }
}

impl fmt::Display for CurrentDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} µA/cm²", self.as_micro_amps_per_square_cm())
    }
}

/// Electric potential, stored canonically in volts.
///
/// Working-electrode biases are quoted in mV in the paper (+650 mV for the
/// oxidase sensors).
///
/// # Examples
///
/// ```
/// use bios_units::Volts;
///
/// let bias = Volts::from_milli_volts(650.0);
/// assert_eq!(bias.as_volts(), 0.65);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(f64);

quantity_ops!(Volts);

impl Volts {
    /// Zero potential (vs the reference electrode).
    pub const ZERO: Volts = Volts(0.0);

    /// Creates a potential from volts.
    #[must_use]
    pub fn from_volts(volts: f64) -> Volts {
        Volts(volts)
    }

    /// Creates a potential from millivolts.
    #[must_use]
    pub fn from_milli_volts(milli_volts: f64) -> Volts {
        Volts(milli_volts * 1e-3)
    }

    /// Returns the potential in volts.
    #[must_use]
    pub fn as_volts(self) -> f64 {
        self.0
    }

    /// Returns the potential in millivolts.
    #[must_use]
    pub fn as_milli_volts(self) -> f64 {
        self.0 * 1e3
    }
}

impl std::ops::Neg for Volts {
    type Output = Volts;
    fn neg(self) -> Volts {
        Volts(-self.0)
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.1} mV", self.as_milli_volts())
    }
}

/// Electrical resistance, ohms.
///
/// Used by the instrument crate for transimpedance gains and by the
/// impedimetric classification entries.
///
/// # Examples
///
/// ```
/// use bios_units::Ohms;
///
/// let feedback = Ohms::from_mega_ohms(1.0);
/// assert!((feedback.as_ohms() - 1.0e6).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ohms(f64);

quantity_ops!(Ohms);

impl Ohms {
    /// Creates a resistance from ohms.
    #[must_use]
    pub fn from_ohms(ohms: f64) -> Ohms {
        Ohms(ohms)
    }

    /// Creates a resistance from MΩ.
    #[must_use]
    pub fn from_mega_ohms(mega_ohms: f64) -> Ohms {
        Ohms(mega_ohms * 1e6)
    }

    /// Returns the resistance in ohms.
    #[must_use]
    pub fn as_ohms(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Ohms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 1e6 {
            write!(f, "{:.3} MΩ", self.0 / 1e6)
        } else if abs >= 1e3 {
            write!(f, "{:.3} kΩ", self.0 / 1e3)
        } else {
            write!(f, "{:.3} Ω", self.0)
        }
    }
}

/// Voltammetric scan rate, V · s⁻¹.
///
/// Cyclic voltammetry experiments are parameterized by how fast the
/// potential ramp sweeps; peak currents grow with √(scan rate)
/// (Randles–Ševčík).
///
/// # Examples
///
/// ```
/// use bios_units::ScanRate;
///
/// let v = ScanRate::from_milli_volts_per_second(50.0);
/// assert_eq!(v.as_volts_per_second(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ScanRate(f64);

quantity_ops!(ScanRate);

impl ScanRate {
    /// Creates a scan rate from mV · s⁻¹ (the usual experimental unit).
    #[must_use]
    pub fn from_milli_volts_per_second(value: f64) -> ScanRate {
        ScanRate(value * 1e-3)
    }

    /// Returns the rate in V · s⁻¹.
    #[must_use]
    pub fn as_volts_per_second(self) -> f64 {
        self.0
    }

    /// Returns the rate in mV · s⁻¹.
    #[must_use]
    pub fn as_milli_volts_per_second(self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for ScanRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mV/s", self.as_milli_volts_per_second())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_unit_ladder() {
        let i = Amperes::from_amps(1e-3);
        assert_eq!(i.as_micro_amps(), 1000.0);
        assert_eq!(i.as_nano_amps(), 1_000_000.0);
        assert_eq!(Amperes::from_pico_amps(1000.0).as_nano_amps(), 1.0);
    }

    #[test]
    fn current_density_round_trip() {
        let area = SquareCm::from_square_cm(0.5);
        let j = Amperes::from_micro_amps(10.0) / area;
        assert!((j.as_micro_amps_per_square_cm() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn potential_conversions_and_negation() {
        let e = Volts::from_milli_volts(-250.0);
        assert_eq!((-e).as_milli_volts(), 250.0);
        assert_eq!(e.as_volts(), -0.25);
    }

    #[test]
    fn scan_rate_units() {
        let v = ScanRate::from_milli_volts_per_second(100.0);
        assert!((v.as_volts_per_second() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Amperes::from_micro_amps(2.5).to_string(), "2.5000 µA");
        assert_eq!(Amperes::from_amps(3.0e-9).to_string(), "3.0000 nA");
        assert_eq!(Volts::from_milli_volts(650.0).to_string(), "+650.0 mV");
        assert_eq!(Ohms::from_mega_ohms(2.0).to_string(), "2.000 MΩ");
        assert_eq!(
            ScanRate::from_milli_volts_per_second(20.0).to_string(),
            "20.0 mV/s"
        );
    }
}
