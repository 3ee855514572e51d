//! Kinetic quantities: diffusion coefficients and first-order rate
//! constants.

use std::fmt;

use crate::macros::quantity_ops;

/// Diffusion coefficient, cm² · s⁻¹.
///
/// Small molecules in water diffuse at roughly 10⁻⁶–10⁻⁵ cm² · s⁻¹;
/// glucose is ≈ 6.7 × 10⁻⁶ cm² · s⁻¹, H₂O₂ ≈ 1.4 × 10⁻⁵ cm² · s⁻¹.
///
/// # Examples
///
/// ```
/// use bios_units::DiffusionCoefficient;
///
/// let d = DiffusionCoefficient::from_square_cm_per_second(6.7e-6);
/// assert!(d.as_square_cm_per_second() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DiffusionCoefficient(f64);

quantity_ops!(DiffusionCoefficient);

impl DiffusionCoefficient {
    /// Creates a diffusion coefficient from cm² · s⁻¹.
    ///
    /// `const` so transport tables can be declared as constants.
    #[must_use]
    pub const fn from_square_cm_per_second(value: f64) -> DiffusionCoefficient {
        DiffusionCoefficient(value)
    }

    /// Returns the coefficient in cm² · s⁻¹.
    #[must_use]
    pub fn as_square_cm_per_second(self) -> f64 {
        self.0
    }
}

impl fmt::Display for DiffusionCoefficient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} cm²/s", self.0)
    }
}

/// First-order rate constant, s⁻¹.
///
/// Used for enzyme turnover numbers (k_cat) and heterogeneous electron
/// transfer rates (after normalization).
///
/// # Examples
///
/// ```
/// use bios_units::RateConstant;
///
/// // Glucose oxidase turns over ~700 substrate molecules per second.
/// let kcat = RateConstant::from_per_second(700.0);
/// assert_eq!(kcat.as_per_second(), 700.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct RateConstant(f64);

quantity_ops!(RateConstant);

impl RateConstant {
    /// Creates a rate constant from s⁻¹.
    #[must_use]
    pub fn from_per_second(value: f64) -> RateConstant {
        RateConstant(value)
    }

    /// Returns the rate in s⁻¹.
    #[must_use]
    pub fn as_per_second(self) -> f64 {
        self.0
    }
}

impl fmt::Display for RateConstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} s⁻¹", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            DiffusionCoefficient::from_square_cm_per_second(6.7e-6).to_string(),
            "6.700e-6 cm²/s"
        );
        assert_eq!(
            RateConstant::from_per_second(700.0).to_string(),
            "700.000 s⁻¹"
        );
    }

    #[test]
    fn scaling_is_linear() {
        let d = DiffusionCoefficient::from_square_cm_per_second(1e-5) * 0.5;
        assert!((d.as_square_cm_per_second() - 5e-6).abs() < 1e-18);
    }
}
