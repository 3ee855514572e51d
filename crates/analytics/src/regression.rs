//! Ordinary least-squares line fitting.

use crate::error::{AnalyticsError, Result};
use bios_units::nearly_zero;

/// An ordinary-least-squares line `y = slope·x + intercept` with its
/// coefficient of determination.
///
/// # Examples
///
/// ```
/// use bios_analytics::LinearFit;
///
/// let xs = [0.0, 0.5, 1.0, 1.5, 2.0];
/// let ys = [0.1, 1.1, 2.0, 3.1, 4.0];
/// let fit = LinearFit::fit(&xs, &ys)?;
/// assert!((fit.slope() - 2.0).abs() < 0.1);
/// assert!(fit.r_squared() > 0.99);
/// # Ok::<(), bios_analytics::AnalyticsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    slope: f64,
    intercept: f64,
    r_squared: f64,
}

impl LinearFit {
    /// Fits a line through `(xs, ys)` by ordinary least squares.
    ///
    /// # Errors
    ///
    /// * [`AnalyticsError::LengthMismatch`] if the slices differ in length.
    /// * [`AnalyticsError::TooFewPoints`] with fewer than 2 points.
    /// * [`AnalyticsError::NonFiniteInput`] on NaN/∞ values.
    /// * [`AnalyticsError::DegenerateAbscissa`] if all x are equal.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit> {
        if xs.len() != ys.len() {
            return Err(AnalyticsError::LengthMismatch {
                xs: xs.len(),
                ys: ys.len(),
            });
        }
        if xs.len() < 2 {
            return Err(AnalyticsError::TooFewPoints {
                needed: 2,
                got: xs.len(),
            });
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(AnalyticsError::NonFiniteInput);
        }

        let n = xs.len();
        let count = n as f64;
        let mean_x: f64 = xs.iter().sum::<f64>() / count;
        let mean_y: f64 = ys.iter().sum::<f64>() / count;

        let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
        if nearly_zero(sxx) {
            return Err(AnalyticsError::DegenerateAbscissa);
        }
        let sxy: f64 = (0..n).map(|i| (xs[i] - mean_x) * (ys[i] - mean_y)).sum();
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;

        let ss_res: f64 = (0..n)
            .map(|i| (ys[i] - slope * xs[i] - intercept).powi(2))
            .sum();
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let r_squared = if nearly_zero(ss_tot) {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };

        Ok(LinearFit {
            slope,
            intercept,
            r_squared,
        })
    }

    /// Fitted slope.
    #[must_use]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination R².
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicted y at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Relative deviation of an observation from the fitted line,
    /// `|y − ŷ|/|ŷ|`, used by the linear-range detector.
    #[must_use]
    pub fn relative_deviation(&self, x: f64, y: f64) -> f64 {
        let pred = self.predict(x);
        if nearly_zero(pred) {
            if nearly_zero(y) {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (y - pred).abs() / pred.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x - 2.0).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope() - 3.5).abs() < 1e-12);
        assert!((fit.intercept() + 2.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_diagnostics() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 1.0 + 0.05 * ((i as f64 * 2.399).sin()))
            .collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope() - 2.0).abs() < 0.02);
        assert!(fit.r_squared() > 0.999);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            LinearFit::fit(&[1.0], &[1.0]),
            Err(AnalyticsError::TooFewPoints { .. })
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, 2.0], &[1.0]),
            Err(AnalyticsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, 1.0], &[1.0, 2.0]),
            Err(AnalyticsError::DegenerateAbscissa)
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(AnalyticsError::NonFiniteInput)
        ));
    }

    #[test]
    fn predict_and_relative_deviation() {
        let fit = LinearFit::fit(&[0.0, 1.0], &[0.0, 2.0]).unwrap();
        assert!((fit.predict(3.0) - 6.0).abs() < 1e-12);
        assert!((fit.relative_deviation(1.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((fit.relative_deviation(1.0, 1.8) - 0.1).abs() < 1e-12);
    }
}
