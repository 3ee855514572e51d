//! Property tests for the analytics crate: regression exactness,
//! detector bounds, and limit arithmetic over randomized data.
//! Sampled deterministically via `bios_prng::cases`.

use bios_analytics::limits::detection_limit;
use bios_analytics::linear_range::detect_linear_range;
use bios_analytics::{CalibrationCurve, CalibrationPoint, LinearFit, LinearRangeOptions};
use bios_prng::cases;
use bios_units::{Amperes, Molar, SquareCm};

/// OLS recovers an exact line perfectly for any slope/intercept.
#[test]
fn exact_line_recovery() {
    cases(0x0501, 64, |rng| {
        let slope = rng.uniform_in(-1e3, 1e3);
        let intercept = rng.uniform_in(-1e3, 1e3);
        let n = rng.index_in(3, 50);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.37).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope() - slope).abs() < 1e-6 + slope.abs() * 1e-9);
        assert!((fit.intercept() - intercept).abs() < 1e-6 + intercept.abs() * 1e-9);
        assert!(fit.r_squared() > 1.0 - 1e-9 || slope == 0.0);
    });
}

/// R² is invariant under affine rescaling of both axes.
#[test]
fn r_squared_scale_invariant() {
    cases(0x0502, 64, |rng| {
        let n = rng.index_in(5, 30);
        let seed_pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0)))
            .collect();
        let sx = rng.log_uniform_in(0.01, 100.0);
        let sy = rng.log_uniform_in(0.01, 100.0);
        let xs: Vec<f64> = seed_pts
            .iter()
            .enumerate()
            .map(|(i, p)| i as f64 + p.0 / 100.0)
            .collect();
        let ys: Vec<f64> = seed_pts.iter().map(|p| p.0 * 2.0 + p.1).collect();
        let fit1 = LinearFit::fit(&xs, &ys).unwrap();
        let xs2: Vec<f64> = xs.iter().map(|x| x * sx).collect();
        let ys2: Vec<f64> = ys.iter().map(|y| y * sy).collect();
        let fit2 = LinearFit::fit(&xs2, &ys2).unwrap();
        assert!((fit1.r_squared() - fit2.r_squared()).abs() < 1e-9);
        // Slope transforms as sy/sx.
        assert!(
            (fit2.slope() - fit1.slope() * sy / sx).abs()
                < 1e-9 * (1.0 + fit1.slope().abs() * sy / sx)
        );
    });
}

/// The LOD is exactly 3σ over the slope.
#[test]
fn limit_arithmetic() {
    cases(0x0504, 64, |rng| {
        let sigma_na = rng.log_uniform_in(0.01, 100.0);
        let slope = rng.log_uniform_in(0.01, 1e3);
        let fit = LinearFit::fit(&[0.0, 1.0, 2.0], &[0.0, slope, 2.0 * slope]).unwrap();
        let sigma = Amperes::from_amps(sigma_na * 1e-9);
        let lod = detection_limit(sigma, &fit).unwrap();
        let expected_milli_molar = 3.0 * sigma_na * 1e-3 / slope;
        assert!((lod.as_milli_molar() - expected_milli_molar).abs() / expected_milli_molar < 1e-9);
    });
}

/// The linear-range detector returns a range inside the sweep, with
/// a rising fit, for any saturating curve.
#[test]
fn detector_output_is_well_formed() {
    cases(0x0505, 64, |rng| {
        let km = rng.uniform_in(0.2, 50.0);
        let vmax = rng.uniform_in(1.0, 100.0);
        let n = rng.index_in(8, 60);
        let top = rng.uniform_in(1.0, 20.0);
        let points: Vec<CalibrationPoint> = (0..n)
            .map(|k| {
                let c = top * k as f64 / (n - 1) as f64;
                let i = vmax * c / (km + c);
                CalibrationPoint::new(
                    Molar::from_milli_molar(c),
                    vec![Amperes::from_micro_amps(i)],
                )
            })
            .collect();
        let curve = CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(1.0),
            Amperes::from_amps(1.0e-9),
        );
        let (range, fit) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        assert!(range.low().as_milli_molar() >= -1e-12);
        assert!(range.high().as_milli_molar() <= top + 1e-9);
        assert!(fit.slope() > 0.0);
    });
}

/// A strictly linear calibration is always detected in full.
#[test]
fn fully_linear_data_fully_included() {
    cases(0x0506, 64, |rng| {
        let slope = rng.log_uniform_in(0.1, 100.0);
        let n = rng.index_in(6, 40);
        let points: Vec<CalibrationPoint> = (0..n)
            .map(|k| {
                let c = k as f64 * 0.1;
                CalibrationPoint::new(
                    Molar::from_milli_molar(c),
                    vec![Amperes::from_micro_amps(slope * c)],
                )
            })
            .collect();
        let top = (n - 1) as f64 * 0.1;
        let curve = CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(1.0),
            Amperes::from_amps(1.0e-9),
        );
        let (range, fit) = detect_linear_range(&curve, &LinearRangeOptions::default()).unwrap();
        assert!((range.high().as_milli_molar() - top).abs() < 1e-9);
        assert!((fit.slope() - slope).abs() / slope < 1e-9);
    });
}

/// The replicate mean lies between the smallest and largest replicate.
#[test]
fn replicate_statistics() {
    cases(0x0507, 64, |rng| {
        let n = rng.index_in(1, 10);
        let reps: Vec<f64> = (0..n).map(|_| rng.uniform_in(0.0, 100.0)).collect();
        let point = CalibrationPoint::new(
            Molar::from_milli_molar(1.0),
            reps.iter().map(|&r| Amperes::from_micro_amps(r)).collect(),
        );
        let mean = point.mean_current().as_micro_amps();
        let lo = reps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = reps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    });
}
