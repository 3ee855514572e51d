//! Concentration read-back from calibrated channels.
//!
//! Point-of-care use (the paper's end goal) is the inverse problem of
//! calibration: given a measured current on a calibrated channel, report
//! the analyte concentration — or say honestly that the reading is below
//! the detection limit or beyond the linear range.

use bios_analytics::CalibrationSummary;
use bios_units::{Amperes, ConcentrationRange, Molar, SquareCm};

/// Outcome of quantifying one reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantification {
    /// A concentration inside the validated range.
    Level(Molar),
    /// Signal indistinguishable from blank (below 3σ LOD).
    BelowDetection {
        /// The channel's detection limit.
        limit: Molar,
    },
    /// Signal beyond the linear range — dilute and re-measure.
    AboveRange {
        /// Upper end of the validated range.
        range_top: Molar,
    },
}

impl Quantification {
    /// The concentration if quantified, `None` otherwise.
    #[must_use]
    pub fn level(&self) -> Option<Molar> {
        match self {
            Quantification::Level(c) => Some(*c),
            _ => None,
        }
    }
}

/// A calibrated inverse model for one channel.
///
/// # Examples
///
/// ```
/// use bios_core::catalog;
/// use bios_core::quantify::{Quantification, Quantifier};
/// use bios_units::Molar;
///
/// let entry = catalog::our_glucose_sensor();
/// let outcome = entry.run_calibration(42)?;
/// let sensor = entry.build_sensor();
/// let q = Quantifier::from_calibration(&outcome.summary, sensor.electrode().area());
///
/// let unknown = Molar::from_micro_molar(400.0);
/// let current = sensor.faradaic_current(unknown);
/// let result = q.quantify(current);
/// let level = result.level().expect("inside the linear range");
/// assert!((level.as_micro_molar() - 400.0).abs() / 400.0 < 0.15);
/// # Ok::<(), bios_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantifier {
    /// Calibration slope, µA per mM (already area-integrated).
    slope_micro_amps_per_milli_molar: f64,
    detection_limit: Molar,
    linear_range: ConcentrationRange,
}

impl Quantifier {
    /// Builds the inverse model from a calibration summary and the
    /// channel's electrode area.
    #[must_use]
    pub fn from_calibration(summary: &CalibrationSummary, area: SquareCm) -> Quantifier {
        Quantifier {
            slope_micro_amps_per_milli_molar: summary
                .sensitivity
                .as_micro_amps_per_milli_molar_square_cm()
                * area.as_square_cm(),
            detection_limit: summary.detection_limit,
            linear_range: summary.linear_range,
        }
    }

    /// Converts a measured current into a concentration verdict.
    #[must_use]
    pub fn quantify(&self, current: Amperes) -> Quantification {
        let raw = Molar::from_milli_molar(
            (current.as_micro_amps() / self.slope_micro_amps_per_milli_molar).max(0.0),
        );
        if raw < self.detection_limit {
            Quantification::BelowDetection {
                limit: self.detection_limit,
            }
        } else if raw > self.linear_range.high() {
            Quantification::AboveRange {
                range_top: self.linear_range.high(),
            }
        } else {
            Quantification::Level(raw)
        }
    }

    /// The dilution factor needed to bring an above-range estimate back
    /// to the middle of the validated window.
    #[must_use]
    pub fn suggested_dilution(&self, current: Amperes) -> Option<f64> {
        match self.quantify(current) {
            Quantification::AboveRange { .. } => {
                let raw = current.as_micro_amps() / self.slope_micro_amps_per_milli_molar;
                let mid = self.linear_range.high().as_milli_molar() / 2.0;
                Some((raw / mid).max(1.0))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn quantifier() -> (Quantifier, crate::Biosensor) {
        let entry = catalog::our_glucose_sensor();
        let outcome = entry.run_calibration(11).unwrap();
        let sensor = entry.build_sensor();
        let q = Quantifier::from_calibration(&outcome.summary, sensor.electrode().area());
        (q, sensor)
    }

    #[test]
    fn in_range_reading_quantifies_accurately() {
        let (q, sensor) = quantifier();
        for micro_molar in [100.0, 300.0, 600.0] {
            let truth = Molar::from_micro_molar(micro_molar);
            let verdict = q.quantify(sensor.faradaic_current(truth));
            let level = verdict.level().expect("in range");
            let rel = (level.as_micro_molar() - micro_molar).abs() / micro_molar;
            assert!(rel < 0.15, "{micro_molar} µM recovered as {level} ({rel})");
        }
    }

    #[test]
    fn tiny_signal_reports_below_detection() {
        let (q, sensor) = quantifier();
        let verdict = q.quantify(sensor.faradaic_current(Molar::from_nano_molar(100.0)));
        assert!(matches!(verdict, Quantification::BelowDetection { .. }));
        assert!(verdict.level().is_none());
    }

    #[test]
    fn saturated_signal_reports_above_range_with_dilution_advice() {
        let (q, sensor) = quantifier();
        let current = sensor.faradaic_current(Molar::from_milli_molar(5.0));
        // 5 mM is beyond the 0–1 mM window even after MM compression…
        match q.quantify(current) {
            Quantification::AboveRange { range_top } => {
                assert!(range_top.as_milli_molar() <= 1.2);
            }
            other => panic!("expected AboveRange, got {other:?}"),
        }
        let dilution = q.suggested_dilution(current).unwrap();
        assert!(dilution > 1.0 && dilution < 20.0, "dilution {dilution}");
    }

    #[test]
    fn negative_noise_readings_clamp_to_below_detection() {
        let (q, _) = quantifier();
        let verdict = q.quantify(Amperes::from_amps(-0.5e-9));
        assert!(matches!(verdict, Quantification::BelowDetection { .. }));
    }

    #[test]
    fn no_dilution_advice_inside_range() {
        let (q, sensor) = quantifier();
        let current = sensor.faradaic_current(Molar::from_micro_molar(500.0));
        assert!(q.suggested_dilution(current).is_none());
    }
}
