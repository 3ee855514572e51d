//! Geometric quantities: length and area.

use std::fmt;

use crate::macros::quantity_ops;

/// Length, stored canonically in centimeters (the CGS habit of
/// electrochemistry: diffusion coefficients are cm² · s⁻¹).
///
/// # Examples
///
/// ```
/// use bios_units::Centimeters;
///
/// let film = Centimeters::from_micro_meters(5.0);
/// assert!((film.as_cm() - 5.0e-4).abs() < 1e-16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Centimeters(f64);

quantity_ops!(Centimeters);

impl Centimeters {
    /// Creates a length from micrometers.
    #[must_use]
    pub fn from_micro_meters(um: f64) -> Centimeters {
        Centimeters(um * 1e-4)
    }

    /// Creates a length from nanometers.
    #[must_use]
    pub fn from_nano_meters(nm: f64) -> Centimeters {
        Centimeters(nm * 1e-7)
    }

    /// Returns the length in centimeters.
    #[must_use]
    pub fn as_cm(self) -> f64 {
        self.0
    }

    /// Returns the length in micrometers.
    #[must_use]
    pub fn as_micro_meters(self) -> f64 {
        self.0 * 1e4
    }

    /// Returns the length in nanometers.
    #[must_use]
    pub fn as_nano_meters(self) -> f64 {
        self.0 * 1e7
    }
}

impl fmt::Display for Centimeters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 0.1 {
            write!(f, "{:.3} cm", self.0)
        } else if abs >= 1e-4 {
            write!(f, "{:.2} µm", self.as_micro_meters())
        } else {
            write!(f, "{:.1} nm", self.as_nano_meters())
        }
    }
}

/// Area, stored canonically in cm².
///
/// Electrode areas in the paper: the screen-printed working electrode is
/// 13 mm² (0.13 cm²); each microfabricated Au electrode is 0.25 mm²
/// (0.0025 cm²).
///
/// # Examples
///
/// ```
/// use bios_units::SquareCm;
///
/// let spe = SquareCm::from_square_mm(13.0);
/// let micro = SquareCm::from_square_mm(0.25);
/// assert!((spe / micro - 52.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SquareCm(pub(crate) f64);

quantity_ops!(SquareCm);

impl SquareCm {
    /// Creates an area from cm².
    #[must_use]
    pub fn from_square_cm(value: f64) -> SquareCm {
        SquareCm(value)
    }

    /// Creates an area from mm².
    #[must_use]
    pub fn from_square_mm(value: f64) -> SquareCm {
        SquareCm(value * 0.01)
    }

    /// Returns the area in cm².
    #[must_use]
    pub fn as_square_cm(self) -> f64 {
        self.0
    }

    /// Returns the area in square millimetres (1 cm² = 100 mm²).
    #[must_use]
    pub fn as_square_mm(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for SquareCm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} mm²", self.as_square_mm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_ladder() {
        assert!((Centimeters::from_micro_meters(10_000.0).as_cm() - 1.0).abs() < 1e-12);
        assert!((Centimeters::from_nano_meters(10.0).as_micro_meters() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn paper_electrode_areas() {
        let spe = SquareCm::from_square_mm(13.0);
        assert!((spe.as_square_cm() - 0.13).abs() < 1e-12);
        let micro = SquareCm::from_square_mm(0.25);
        assert!((micro.as_square_cm() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SquareCm::from_square_mm(13.0).to_string(), "13.0000 mm²");
        assert_eq!(Centimeters::from_nano_meters(10.0).to_string(), "10.0 nm");
        assert_eq!(Centimeters::from_micro_meters(1.5).to_string(), "1.50 µm");
    }
}
