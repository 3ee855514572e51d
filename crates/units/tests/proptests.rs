//! Property tests for the quantity newtypes: conversions are exact
//! inverses, arithmetic is linear, ordering follows magnitude.
//! Sampled deterministically via `bios_prng::cases` (offline build —
//! no property-testing framework available).

use bios_prng::cases;
use bios_units::{
    Amperes, ConcentrationRange, Molar, ScanRate, Seconds, Sensitivity, SquareCm, Volts,
};

/// Values spanning the magnitudes the platform actually uses.
fn finite_positive(rng: &mut bios_prng::Rng) -> f64 {
    rng.log_uniform_in(1e-9, 1e6)
}

#[test]
fn molar_unit_ladder_round_trips() {
    cases(0x0001, 64, |rng| {
        let v = finite_positive(rng);
        let c = Molar::from_milli_molar(v);
        assert!((c.as_micro_molar() / 1e3 - v).abs() <= v * 1e-12);
        assert!((c.as_nano_molar() / 1e6 - v).abs() <= v * 1e-12);
        assert!(
            (Molar::from_micro_molar(c.as_micro_molar()).as_milli_molar() - v).abs() <= v * 1e-12
        );
    });
}

#[test]
fn amperes_unit_ladder_round_trips() {
    cases(0x0002, 64, |rng| {
        let v = finite_positive(rng);
        let i = Amperes::from_amps(v * 1e-9);
        assert!((i.as_micro_amps() * 1e3 - v).abs() <= v * 1e-9);
        assert!((Amperes::from_micro_amps(i.as_micro_amps()).as_nano_amps() - v).abs() <= v * 1e-9);
    });
}

#[test]
fn addition_is_commutative_and_linear() {
    cases(0x0003, 64, |rng| {
        let (a, b) = (finite_positive(rng), finite_positive(rng));
        let x = Molar::from_milli_molar(a);
        let y = Molar::from_milli_molar(b);
        assert_eq!(x + y, y + x);
        assert!(((x + y).as_milli_molar() - (a + b)).abs() <= (a + b) * 1e-12);
    });
}

#[test]
fn scalar_multiplication_scales() {
    cases(0x0004, 64, |rng| {
        let v = finite_positive(rng);
        let k = rng.uniform_in(0.1, 100.0);
        let i = Amperes::from_micro_amps(v);
        let scaled = i * k;
        assert!((scaled.as_micro_amps() - v * k).abs() <= (v * k) * 1e-12);
        assert_eq!(k * i, scaled);
    });
}

#[test]
fn ratio_of_like_quantities_is_dimensionless() {
    cases(0x0005, 64, |rng| {
        let (a, b) = (finite_positive(rng), finite_positive(rng));
        let r = SquareCm::from_square_cm(a) / SquareCm::from_square_cm(b);
        assert!((r - a / b).abs() <= (a / b) * 1e-12);
    });
}

#[test]
fn ordering_follows_magnitude() {
    cases(0x0006, 64, |rng| {
        let (a, b) = (finite_positive(rng), finite_positive(rng));
        let x = Volts::from_milli_volts(a);
        let y = Volts::from_milli_volts(b);
        assert_eq!(x < y, a < b);
        // Conversion round trips can cost an ULP, so compare with slack.
        let eps = a.max(b) * 1e-12;
        assert!((x.max(y).as_milli_volts() - a.max(b)).abs() <= eps);
        assert!((x.min(y).as_milli_volts() - a.min(b)).abs() <= eps);
    });
}

#[test]
fn relative_error_is_zero_iff_equal() {
    cases(0x0009, 64, |rng| {
        let s = rng.uniform_in(0.1, 2000.0);
        let a = Sensitivity::new(s);
        assert!(a.relative_error(a) < 1e-15);
        let b = Sensitivity::new(s * 1.5);
        assert!((b.relative_error(a) - 0.5).abs() < 1e-9);
    });
}

#[test]
fn range_linspace_is_sorted_and_bounded() {
    cases(0x000A, 64, |rng| {
        let lo = rng.uniform_in(0.0, 5.0);
        let width = rng.uniform_in(0.001, 10.0);
        let n = rng.index_in(2, 60);
        let range = ConcentrationRange::from_milli_molar(lo, lo + width).unwrap();
        let pts = range.linspace(n);
        assert_eq!(pts.len(), n);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]));
        assert!((pts[0].as_milli_molar() - lo).abs() < 1e-9);
        assert!((pts[n - 1].as_milli_molar() - (lo + width)).abs() < 1e-9);
        for p in &pts {
            assert!(range.contains(*p) || (p.as_milli_molar() - (lo + width)).abs() < 1e-9);
        }
    });
}

#[test]
fn overlap_score_is_symmetric_and_bounded() {
    cases(0x000B, 64, |rng| {
        let a_lo = rng.uniform_in(0.0, 2.0);
        let a_w = rng.uniform_in(0.01, 3.0);
        let b_lo = rng.uniform_in(0.0, 2.0);
        let b_w = rng.uniform_in(0.01, 3.0);
        let a = ConcentrationRange::from_milli_molar(a_lo, a_lo + a_w).unwrap();
        let b = ConcentrationRange::from_milli_molar(b_lo, b_lo + b_w).unwrap();
        let ab = a.overlap_score(&b);
        let ba = b.overlap_score(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    });
}

#[test]
fn seconds_and_scan_rate_compose() {
    cases(0x000E, 64, |rng| {
        // A sweep at `rate` mV/s for `t` seconds travels rate·t mV.
        let rate = rng.uniform_in(1.0, 1000.0);
        let t = rng.log_uniform_in(0.001, 100.0);
        let sr = ScanRate::from_milli_volts_per_second(rate);
        let dt = Seconds::from_seconds(t);
        let travel = sr.as_milli_volts_per_second() * dt.as_seconds();
        assert!((travel - rate * t).abs() <= (rate * t) * 1e-12);
    });
}
