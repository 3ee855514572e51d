//! The detection limit.

use bios_units::{Amperes, Molar};

use crate::error::{AnalyticsError, Result};
use crate::regression::LinearFit;

/// IUPAC 3σ limit of detection: the concentration whose signal equals
/// three blank standard deviations, `LOD = 3·σ_blank / slope`.
///
/// The fit must be in µA vs mM (the convention of
/// [`crate::CalibrationCurve`]).
///
/// # Errors
///
/// Returns [`AnalyticsError::NonPositiveSlope`] if the calibration slope
/// is not positive.
///
/// # Examples
///
/// ```
/// use bios_analytics::limits::detection_limit;
/// use bios_analytics::LinearFit;
/// use bios_units::Amperes;
///
/// // 10 µA/mM calibration with 5 nA blank noise → LOD = 1.5 µM.
/// let fit = LinearFit::fit(&[0.0, 1.0], &[0.0, 10.0])?;
/// let lod = detection_limit(Amperes::from_amps(5.0e-9), &fit)?;
/// assert!((lod.as_micro_molar() - 1.5).abs() < 1e-9);
/// # Ok::<(), bios_analytics::AnalyticsError>(())
/// ```
pub fn detection_limit(blank_sigma: Amperes, fit: &LinearFit) -> Result<Molar> {
    if fit.slope() <= 0.0 {
        return Err(AnalyticsError::NonPositiveSlope);
    }
    // slope: µA/mM; sigma in µA → concentration in mM.
    let lod_milli_molar = 3.0 * blank_sigma.as_micro_amps() / fit.slope();
    Ok(Molar::from_milli_molar(lod_milli_molar))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(slope: f64) -> LinearFit {
        LinearFit::fit(&[0.0, 1.0, 2.0], &[0.0, slope, 2.0 * slope]).unwrap()
    }

    #[test]
    fn lod_scales_with_noise() {
        let f = fit(10.0);
        let a = detection_limit(Amperes::from_amps(5.0e-9), &f).unwrap();
        let b = detection_limit(Amperes::from_amps(10.0e-9), &f).unwrap();
        assert!((b.as_molar() / a.as_molar() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lod_scales_inverse_with_slope() {
        let sigma = Amperes::from_amps(5.0e-9);
        let a = detection_limit(sigma, &fit(10.0)).unwrap();
        let b = detection_limit(sigma, &fit(20.0)).unwrap();
        assert!((a.as_molar() / b.as_molar() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flat_calibration_rejected() {
        let f = LinearFit::fit(&[0.0, 1.0, 2.0], &[1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(
            detection_limit(Amperes::from_amps(1.0e-9), &f),
            Err(AnalyticsError::NonPositiveSlope)
        ));
    }
}
