//! The biosensing figure of merit: area-normalized calibration slope.

use std::fmt;

use crate::macros::quantity_ops;

/// Sensor sensitivity, µA · mM⁻¹ · cm⁻² — the unit every row of the
/// paper's Table 2 is quoted in.
///
/// Sensitivity is the slope of the calibration curve (current vs
/// concentration) normalized by the electrode's geometric area, which is
/// what makes devices with different electrode sizes comparable.
///
/// # Examples
///
/// ```
/// use bios_units::Sensitivity;
///
/// // The paper's glucose sensor: 55.5 µA·mM⁻¹·cm⁻².
/// let paper = Sensitivity::new(55.5);
/// let measured = Sensitivity::new(50.0);
/// assert!((measured.relative_error(paper) - 5.5 / 55.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Sensitivity(f64);

quantity_ops!(Sensitivity);

impl Sensitivity {
    /// Creates a sensitivity from µA · mM⁻¹ · cm⁻².
    #[must_use]
    pub fn new(micro_amps_per_milli_molar_square_cm: f64) -> Sensitivity {
        Sensitivity(micro_amps_per_milli_molar_square_cm)
    }

    /// Returns the sensitivity in µA · mM⁻¹ · cm⁻².
    #[must_use]
    pub fn as_micro_amps_per_milli_molar_square_cm(self) -> f64 {
        self.0
    }

    /// Relative difference from another sensitivity: `|self−other|/other`.
    ///
    /// Used by the experiment harness to score simulated vs paper values.
    #[must_use]
    pub fn relative_error(self, reference: Sensitivity) -> f64 {
        if reference.0 == 0.0 {
            f64::INFINITY
        } else {
            (self.0 - reference.0).abs() / reference.0
        }
    }
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} µA·mM⁻¹·cm⁻²", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_scores() {
        let measured = Sensitivity::new(50.0);
        let paper = Sensitivity::new(55.5);
        assert!((measured.relative_error(paper) - 5.5 / 55.5).abs() < 1e-12);
        assert!(Sensitivity::new(1.0)
            .relative_error(Sensitivity::new(0.0))
            .is_infinite());
    }

    #[test]
    fn display() {
        assert_eq!(Sensitivity::new(55.5).to_string(), "55.500 µA·mM⁻¹·cm⁻²");
    }
}
