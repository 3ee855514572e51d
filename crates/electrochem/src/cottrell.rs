//! The Cottrell equation: diffusion-limited chronoamperometry.
//!
//! The oxidase sensors in the paper are read out by chronoamperometry —
//! the working electrode is held at +650 mV and the current sampled once
//! the transient settles. The Cottrell relation is the ideal response to
//! the potential step; the diffusion solver is checked against it.

use bios_units::{Amperes, DiffusionCoefficient, Molar, Seconds, SquareCm, FARADAY};

/// Current `t` seconds after a potential step into the diffusion-limited
/// regime:
///
/// `i(t) = n·F·A·C·√(D/(π·t))`
///
/// # Panics
///
/// Panics if `t` is zero (the ideal Cottrell current diverges at `t = 0`)
/// or if `n == 0`.
///
/// # Examples
///
/// ```
/// use bios_electrochem::cottrell::cottrell_current;
/// use bios_units::{DiffusionCoefficient, Molar, SquareCm, Seconds};
///
/// let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
/// let i1 = cottrell_current(1, SquareCm::from_square_cm(0.1), d,
///                           Molar::from_milli_molar(1.0), Seconds::from_seconds(1.0));
/// let i4 = cottrell_current(1, SquareCm::from_square_cm(0.1), d,
///                           Molar::from_milli_molar(1.0), Seconds::from_seconds(4.0));
/// // i ∝ 1/√t: quadrupling t halves the current.
/// assert!((i1.as_amps() / i4.as_amps() - 2.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn cottrell_current(
    n: u32,
    area: SquareCm,
    d: DiffusionCoefficient,
    bulk: Molar,
    t: Seconds,
) -> Amperes {
    assert!(n > 0, "electron count must be at least 1");
    assert!(t.as_seconds() > 0.0, "Cottrell current diverges at t = 0");
    // mol/L → mol/cm³.
    let c = bulk.as_molar() * 1e-3;
    let i = f64::from(n)
        * FARADAY
        * area.as_square_cm()
        * c
        * (d.as_square_cm_per_second() / (std::f64::consts::PI * t.as_seconds())).sqrt();
    Amperes::from_amps(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> DiffusionCoefficient {
        DiffusionCoefficient::from_square_cm_per_second(1e-5)
    }

    #[test]
    fn inverse_sqrt_time_decay() {
        let a = SquareCm::from_square_cm(0.1);
        let c = Molar::from_milli_molar(1.0);
        let i1 = cottrell_current(1, a, d(), c, Seconds::from_seconds(0.25));
        let i2 = cottrell_current(1, a, d(), c, Seconds::from_seconds(1.0));
        assert!((i1.as_amps() / i2.as_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_in_concentration_and_area() {
        let a = SquareCm::from_square_cm(0.1);
        let t = Seconds::from_seconds(1.0);
        let i1 = cottrell_current(1, a, d(), Molar::from_milli_molar(1.0), t);
        let i2 = cottrell_current(1, a, d(), Molar::from_milli_molar(3.0), t);
        assert!((i2.as_amps() / i1.as_amps() - 3.0).abs() < 1e-12);
        let i3 = cottrell_current(1, a * 2.0, d(), Molar::from_milli_molar(1.0), t);
        assert!((i3.as_amps() / i1.as_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_magnitude() {
        // n=1, A=1 cm², D=1e-5 cm²/s, C=1 mM, t=1 s:
        // i = 96485 * 1e-6 mol/cm³ * sqrt(1e-5/π) ≈ 172 µA... let's verify
        // against the closed form itself evaluated by hand:
        let i = cottrell_current(
            1,
            SquareCm::from_square_cm(1.0),
            d(),
            Molar::from_milli_molar(1.0),
            Seconds::from_seconds(1.0),
        );
        let expected = 96485.33212 * 1e-6 * (1e-5 / std::f64::consts::PI).sqrt();
        assert!((i.as_amps() - expected).abs() / expected < 1e-12);
        // ≈ 0.172 mA·cm⁻²·mM⁻¹ scale — sanity on the order of magnitude.
        assert!(i.as_micro_amps() > 100.0 && i.as_micro_amps() < 300.0);
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn zero_time_panics() {
        let _ = cottrell_current(
            1,
            SquareCm::from_square_cm(0.1),
            d(),
            Molar::from_milli_molar(1.0),
            Seconds::from_seconds(0.0),
        );
    }
}
