//! Data-driven linear-range detection.
//!
//! Table 2 of the paper quotes a *linear range* for every sensor: the
//! concentration window over which current tracks concentration within
//! tolerance. This module finds that window from the calibration data
//! itself — anchored at the low end (where enzyme kinetics are always
//! linear) and extended upward until Michaelis–Menten curvature breaks
//! the fit.

use bios_units::ConcentrationRange;

use crate::calibration::CalibrationCurve;
use crate::error::{AnalyticsError, Result};
use crate::regression::LinearFit;

/// Tuning parameters for the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRangeOptions {
    /// Number of low-concentration points the initial fit is anchored on.
    pub anchor_points: usize,
    /// Maximum relative deviation of any point from the running fit.
    pub tolerance: f64,
    /// Points whose predicted signal is below this fraction of the
    /// top-of-window prediction are exempt from the relative-deviation
    /// check (they are noise-dominated, not curvature-dominated).
    pub noise_floor_fraction: f64,
}

impl Default for LinearRangeOptions {
    /// Anchor on 4 points, allow 8 % deviation, exempt the bottom 3 %.
    fn default() -> LinearRangeOptions {
        LinearRangeOptions {
            anchor_points: 4,
            tolerance: 0.08,
            noise_floor_fraction: 0.03,
        }
    }
}

/// Detects the linear range of a calibration curve.
///
/// Returns the detected concentration window and the least-squares fit
/// over the points inside it.
///
/// # Errors
///
/// * [`AnalyticsError::TooFewPoints`] with fewer than 3 standards.
/// * Regression errors from degenerate data.
///
/// # Examples
///
/// ```
/// use bios_analytics::linear_range::detect_linear_range;
/// use bios_analytics::{CalibrationCurve, CalibrationPoint, LinearRangeOptions};
/// use bios_units::{Amperes, Molar, SquareCm};
///
/// // Michaelis–Menten data: linear early, saturating late.
/// let points = (0..20).map(|k| {
///     let c = 0.25 * k as f64; // mM
///     let i = 10.0 * c / (1.0 + c / 5.0); // saturates around 5 mM
///     CalibrationPoint::new(
///         Molar::from_milli_molar(c),
///         vec![Amperes::from_micro_amps(i)],
///     )
/// }).collect();
/// let curve = CalibrationCurve::new(
///     points, SquareCm::from_square_cm(1.0), Amperes::from_amps(1.0e-9));
/// let (range, fit) = detect_linear_range(&curve, &LinearRangeOptions::default())?;
/// // Detector cuts off well before saturation.
/// assert!(range.high().as_milli_molar() < 3.0);
/// assert!(fit.r_squared() > 0.99);
/// # Ok::<(), bios_analytics::AnalyticsError>(())
/// ```
pub fn detect_linear_range(
    curve: &CalibrationCurve,
    options: &LinearRangeOptions,
) -> Result<(ConcentrationRange, LinearFit)> {
    let xs = curve.concentrations_milli_molar();
    let ys = curve.mean_currents_micro_amps();
    let n = xs.len();
    if n < 3 {
        return Err(AnalyticsError::TooFewPoints { needed: 3, got: n });
    }

    let anchor = options.anchor_points.clamp(3, n);
    let mut best = anchor - 1;
    let mut best_fit = LinearFit::fit(&xs[..anchor], &ys[..anchor])?;

    // Points whose absolute deviation is within the blank noise cannot
    // be evidence of curvature — exempt them (3σ guard).
    let noise_guard = 3.0 * curve.blank_sigma().as_micro_amps();

    for k in anchor..n {
        let fit = LinearFit::fit(&xs[..=k], &ys[..=k])?;
        let top_pred = fit.predict(xs[k]).abs();
        let floor = options.noise_floor_fraction * top_pred;
        let within = (0..=k).all(|i| {
            let pred = fit.predict(xs[i]);
            if pred.abs() < floor || (ys[i] - pred).abs() <= noise_guard {
                true
            } else {
                fit.relative_deviation(xs[i], ys[i]) <= options.tolerance
            }
        });
        if within {
            best = k;
            best_fit = fit;
        } else {
            break;
        }
    }

    // Points are sorted ascending, so the range cannot invert; map the
    // impossible error instead of panicking on it.
    let range = ConcentrationRange::new(
        curve.points()[0].concentration(),
        curve.points()[best].concentration(),
    )
    .map_err(|_| AnalyticsError::DegenerateAbscissa)?;
    Ok((range, best_fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationPoint;
    use bios_units::{Amperes, Molar, SquareCm};

    fn curve_from(f: impl Fn(f64) -> f64, n: usize, max_mm: f64) -> CalibrationCurve {
        let points = (0..n)
            .map(|k| {
                let c = max_mm * k as f64 / (n - 1) as f64;
                CalibrationPoint::new(
                    Molar::from_milli_molar(c),
                    vec![Amperes::from_micro_amps(f(c))],
                )
            })
            .collect();
        CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(1.0),
            Amperes::from_amps(1.0e-9),
        )
    }

    #[test]
    fn perfectly_linear_data_uses_everything() {
        let curve = curve_from(|c| 7.0 * c, 15, 2.0);
        let (range, fit) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        assert!((range.high().as_milli_molar() - 2.0).abs() < 1e-9);
        assert!((fit.slope() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_truncates_range() {
        // MM with K_M = 2 mM: 5% deviation at ~0.105 mM… sweep to 10 mM.
        let km = 2.0;
        let curve = curve_from(|c| 50.0 * c / (km + c), 40, 10.0);
        let (range, _) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        let high = range.high().as_milli_molar();
        assert!(high < 2.0, "detected {high} mM");
        assert!(high > 0.1, "detected {high} mM");
    }

    #[test]
    fn tighter_tolerance_shrinks_range() {
        let km = 5.0;
        let curve = curve_from(|c| 20.0 * c / (km + c), 60, 10.0);
        let loose = LinearRangeOptions {
            tolerance: 0.15,
            ..LinearRangeOptions::default()
        };
        let tight = LinearRangeOptions {
            tolerance: 0.03,
            ..LinearRangeOptions::default()
        };
        let (r_loose, _) = detect_linear_range(&curve, &loose).unwrap();
        let (r_tight, _) = detect_linear_range(&curve, &tight).unwrap();
        assert!(r_tight.high() <= r_loose.high());
    }

    #[test]
    fn range_never_exceeds_sweep() {
        let curve = curve_from(|c| 3.0 * c, 10, 1.0);
        let (range, _) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        assert!(range.high().as_milli_molar() <= 1.0 + 1e-12);
        assert!(range.low().as_milli_molar() >= 0.0);
    }

    #[test]
    fn too_few_points_is_an_error() {
        let curve = curve_from(|c| c, 2, 1.0);
        assert!(matches!(
            detect_linear_range(&curve, &LinearRangeOptions::default()),
            Err(AnalyticsError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn noisy_zero_points_do_not_break_detection() {
        // A tiny offset at C=0 would give infinite relative deviation
        // without the noise floor exemption.
        let points = vec![
            CalibrationPoint::new(Molar::ZERO, vec![Amperes::from_amps(2.0e-9)]),
            CalibrationPoint::new(
                Molar::from_milli_molar(0.2),
                vec![Amperes::from_micro_amps(2.0)],
            ),
            CalibrationPoint::new(
                Molar::from_milli_molar(0.4),
                vec![Amperes::from_micro_amps(4.0)],
            ),
            CalibrationPoint::new(
                Molar::from_milli_molar(0.6),
                vec![Amperes::from_micro_amps(6.0)],
            ),
            CalibrationPoint::new(
                Molar::from_milli_molar(0.8),
                vec![Amperes::from_micro_amps(8.0)],
            ),
        ];
        let curve = CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(1.0),
            Amperes::from_amps(1.0e-9),
        );
        let (range, fit) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        assert!((range.high().as_milli_molar() - 0.8).abs() < 1e-9);
        assert!((fit.slope() - 10.0).abs() < 0.2);
    }
}
