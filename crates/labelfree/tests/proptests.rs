//! Property tests for the QCM model through its public surface.
//! Sampled deterministically via `bios_prng::cases`.

use bios_labelfree::QuartzCrystalMicrobalance;
use bios_prng::cases;
use bios_units::SquareCm;

/// Sauerbrey: frequency shift is exactly linear in mass and the
/// sensitivity scales as f².
#[test]
fn qcm_scalings() {
    cases(0x0604, 64, |rng| {
        let f_mhz = rng.uniform_in(1.0, 30.0);
        let mass_ng = rng.log_uniform_in(1.0, 10_000.0);
        let k = rng.uniform_in(1.5, 4.0);
        let q = QuartzCrystalMicrobalance::new(f_mhz * 1e6, SquareCm::from_square_cm(1.0));
        let s1 = q.frequency_shift_hz(mass_ng * 1e-9);
        let s2 = q.frequency_shift_hz(mass_ng * 1e-9 * k);
        assert!(s1 < 0.0);
        assert!((s2 / s1 - k).abs() < 1e-9);
        let q2 = QuartzCrystalMicrobalance::new(f_mhz * 1e6 * k, SquareCm::from_square_cm(1.0));
        let ratio = q2.sensitivity_hz_per_gram_per_cm2() / q.sensitivity_hz_per_gram_per_cm2();
        assert!((ratio - k * k).abs() / (k * k) < 1e-9);
    });
}
