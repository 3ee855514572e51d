//! Calibration curves from replicate standard additions.

use bios_units::{Amperes, ConcentrationRange, Molar, Sensitivity, SquareCm};

use crate::error::{AnalyticsError, Result};
use crate::limits::detection_limit;
use crate::linear_range::{detect_linear_range, LinearRangeOptions};
use crate::regression::LinearFit;

/// One standard: a known concentration with its replicate current
/// readings.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationPoint {
    concentration: Molar,
    replicates: Vec<Amperes>,
}

impl CalibrationPoint {
    /// Creates a point from replicate readings.
    ///
    /// # Panics
    ///
    /// Panics if no replicates are given.
    #[must_use]
    pub fn new(concentration: Molar, replicates: Vec<Amperes>) -> CalibrationPoint {
        assert!(!replicates.is_empty(), "at least one replicate required");
        CalibrationPoint {
            concentration,
            replicates,
        }
    }

    /// The standard's concentration.
    #[must_use]
    pub fn concentration(&self) -> Molar {
        self.concentration
    }

    /// Raw replicate readings.
    #[must_use]
    pub fn replicates(&self) -> &[Amperes] {
        &self.replicates
    }

    /// Mean current across replicates.
    #[must_use]
    pub fn mean_current(&self) -> Amperes {
        let sum: f64 = self.replicates.iter().map(|i| i.as_amps()).sum();
        Amperes::from_amps(sum / self.replicates.len() as f64)
    }
}

/// A full calibration: standards, electrode area, and the blank noise.
///
/// # Examples
///
/// ```
/// use bios_analytics::{CalibrationCurve, CalibrationPoint};
/// use bios_units::{Amperes, Molar, SquareCm};
///
/// let points = (0..=5).map(|k| {
///     let c = Molar::from_milli_molar(k as f64 * 0.2);
///     let i = Amperes::from_micro_amps(k as f64 * 0.2 * 7.2); // 7.2 µA/mM
///     CalibrationPoint::new(c, vec![i])
/// }).collect();
/// let curve = CalibrationCurve::new(
///     points,
///     SquareCm::from_square_cm(0.13),
///     Amperes::from_amps(1.0e-9),
/// );
/// let s = curve.sensitivity()?;
/// assert!((s.as_micro_amps_per_milli_molar_square_cm() - 7.2 / 0.13).abs() < 0.1);
/// # Ok::<(), bios_analytics::AnalyticsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCurve {
    points: Vec<CalibrationPoint>,
    electrode_area: SquareCm,
    blank_sigma: Amperes,
}

impl CalibrationCurve {
    /// Assembles a calibration curve. Points are sorted by concentration.
    #[must_use]
    pub fn new(
        mut points: Vec<CalibrationPoint>,
        electrode_area: SquareCm,
        blank_sigma: Amperes,
    ) -> CalibrationCurve {
        points.sort_by(|a, b| {
            a.concentration()
                .as_molar()
                .total_cmp(&b.concentration().as_molar())
        });
        CalibrationCurve {
            points,
            electrode_area,
            blank_sigma,
        }
    }

    /// The standards in ascending concentration order.
    #[must_use]
    pub fn points(&self) -> &[CalibrationPoint] {
        &self.points
    }

    /// Electrode geometric area used for normalization.
    #[must_use]
    pub fn electrode_area(&self) -> SquareCm {
        self.electrode_area
    }

    /// Blank-signal standard deviation (for detection limits).
    #[must_use]
    pub fn blank_sigma(&self) -> Amperes {
        self.blank_sigma
    }

    /// Concentrations in mM, as a plain vector (x axis).
    #[must_use]
    pub fn concentrations_milli_molar(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.concentration().as_milli_molar())
            .collect()
    }

    /// Mean currents in µA (y axis).
    #[must_use]
    pub fn mean_currents_micro_amps(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.mean_current().as_micro_amps())
            .collect()
    }

    /// Detects the linear range and returns `(range, fit within range)`.
    ///
    /// # Errors
    ///
    /// Propagates regression errors from the detector.
    pub fn linear_range(
        &self,
        options: &LinearRangeOptions,
    ) -> Result<(ConcentrationRange, LinearFit)> {
        detect_linear_range(self, options)
    }

    /// Area-normalized sensitivity from the fit inside the detected
    /// linear range (default options).
    ///
    /// # Errors
    ///
    /// Propagates regression errors; returns
    /// [`AnalyticsError::NonPositiveSlope`] if the calibration slope is
    /// not positive.
    pub fn sensitivity(&self) -> Result<Sensitivity> {
        let (_, fit) = self.linear_range(&LinearRangeOptions::default())?;
        self.sensitivity_from_fit(&fit)
    }

    /// Area-normalized sensitivity from an explicit fit.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticsError::NonPositiveSlope`] if the slope is not
    /// positive.
    pub fn sensitivity_from_fit(&self, fit: &LinearFit) -> Result<Sensitivity> {
        if fit.slope() <= 0.0 {
            return Err(AnalyticsError::NonPositiveSlope);
        }
        // slope is µA/mM; normalize by area.
        Ok(Sensitivity::new(
            fit.slope() / self.electrode_area.as_square_cm(),
        ))
    }

    /// Full summary: sensitivity, linear range, detection limit, and R².
    ///
    /// # Errors
    ///
    /// Propagates regression errors and non-positive slopes.
    pub fn summary(&self, options: &LinearRangeOptions) -> Result<CalibrationSummary> {
        let (range, fit) = self.linear_range(options)?;
        let sensitivity = self.sensitivity_from_fit(&fit)?;
        let lod = detection_limit(self.blank_sigma, &fit)?;
        Ok(CalibrationSummary {
            sensitivity,
            linear_range: range,
            detection_limit: lod,
            r_squared: fit.r_squared(),
        })
    }
}

/// The figures of merit of one calibrated sensor — one Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSummary {
    /// Area-normalized sensitivity.
    pub sensitivity: Sensitivity,
    /// Detected linear range.
    pub linear_range: ConcentrationRange,
    /// 3σ limit of detection.
    pub detection_limit: Molar,
    /// R² of the linear-range fit.
    pub r_squared: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_curve(slope_ua_per_mm: f64, n: usize, max_mm: f64) -> CalibrationCurve {
        let points = (0..n)
            .map(|k| {
                let c_mm = max_mm * k as f64 / (n - 1) as f64;
                let i = Amperes::from_micro_amps(slope_ua_per_mm * c_mm);
                CalibrationPoint::new(Molar::from_milli_molar(c_mm), vec![i])
            })
            .collect();
        CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(1.0),
            Amperes::from_amps(5.0e-9),
        )
    }

    #[test]
    fn point_statistics() {
        let p = CalibrationPoint::new(
            Molar::from_milli_molar(1.0),
            vec![
                Amperes::from_micro_amps(1.0),
                Amperes::from_micro_amps(2.0),
                Amperes::from_micro_amps(3.0),
            ],
        );
        assert!((p.mean_current().as_micro_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn points_sorted_on_construction() {
        let pts = vec![
            CalibrationPoint::new(Molar::from_milli_molar(2.0), vec![Amperes::ZERO]),
            CalibrationPoint::new(Molar::from_milli_molar(0.5), vec![Amperes::ZERO]),
            CalibrationPoint::new(Molar::from_milli_molar(1.0), vec![Amperes::ZERO]),
        ];
        let curve = CalibrationCurve::new(pts, SquareCm::from_square_cm(1.0), Amperes::ZERO);
        let cs = curve.concentrations_milli_molar();
        assert!(cs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sensitivity_normalizes_by_area() {
        let curve = linear_curve(10.0, 8, 1.0);
        let s = curve.sensitivity().unwrap();
        assert!((s.as_micro_amps_per_milli_molar_square_cm() - 10.0).abs() < 1e-6);

        // Same currents on a 0.1 cm² electrode → 10× the sensitivity.
        let small = CalibrationCurve::new(
            curve.points().to_vec(),
            SquareCm::from_square_cm(0.1),
            curve.blank_sigma(),
        );
        let s_small = small.sensitivity().unwrap();
        assert!((s_small.as_micro_amps_per_milli_molar_square_cm() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn detection_limit_is_3_sigma_over_slope() {
        let curve = linear_curve(10.0, 8, 1.0); // slope 10 µA/mM, σ = 5 nA
        let lod = curve
            .summary(&LinearRangeOptions::default())
            .unwrap()
            .detection_limit;
        // 3 × 5e-3 µA / 10 µA/mM = 1.5e-3 mM = 1.5 µM.
        assert!((lod.as_micro_molar() - 1.5).abs() < 0.01);
    }

    #[test]
    fn summary_bundles_figures_of_merit() {
        let curve = linear_curve(10.0, 8, 1.0);
        let s = curve.summary(&LinearRangeOptions::default()).unwrap();
        assert!(s.r_squared > 0.999);
        assert!(s.linear_range.high() >= Molar::from_milli_molar(0.9));
        assert!(s.detection_limit.as_micro_molar() < 2.0);
    }

    #[test]
    fn non_positive_slope_is_an_error() {
        let points = (0..5)
            .map(|k| {
                CalibrationPoint::new(
                    Molar::from_milli_molar(k as f64),
                    vec![Amperes::from_micro_amps(5.0 - k as f64)],
                )
            })
            .collect();
        let curve = CalibrationCurve::new(points, SquareCm::from_square_cm(1.0), Amperes::ZERO);
        let fit = LinearFit::fit(
            &curve.concentrations_milli_molar(),
            &curve.mean_currents_micro_amps(),
        )
        .unwrap();
        assert!(matches!(
            curve.sensitivity_from_fit(&fit),
            Err(AnalyticsError::NonPositiveSlope)
        ));
    }

    #[test]
    #[should_panic(expected = "replicate")]
    fn empty_replicates_rejected() {
        let _ = CalibrationPoint::new(Molar::ZERO, Vec::new());
    }
}
