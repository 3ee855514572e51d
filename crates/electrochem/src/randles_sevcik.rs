//! Randles–Ševčík peak currents for sweep voltammetry.
//!
//! The cytochrome-P450 drug sensors in the paper are read out by cyclic
//! voltammetry: "the peak height is proportional to drug concentration"
//! (§3.1). These closed forms give the ideal peak for reversible and
//! irreversible couples and serve as the reference the digital simulation
//! in [`crate::voltammetry`] is validated against.

use bios_units::{
    Amperes, DiffusionCoefficient, Kelvin, Molar, ScanRate, SquareCm, FARADAY, GAS_CONSTANT,
};

/// Reversible Randles–Ševčík peak current at room temperature:
///
/// `i_p = 0.4463·n·F·A·C·√(n·F·v·D/(R·T))`
///
/// # Panics
///
/// Panics if `n == 0` or the scan rate is not positive.
///
/// # Examples
///
/// ```
/// use bios_electrochem::randles_sevcik::reversible_peak_current;
/// use bios_units::{DiffusionCoefficient, Molar, ScanRate, SquareCm};
///
/// let slow = reversible_peak_current(
///     1, SquareCm::from_square_cm(0.1),
///     DiffusionCoefficient::from_square_cm_per_second(6.5e-6),
///     Molar::from_milli_molar(1.0),
///     ScanRate::from_milli_volts_per_second(25.0),
/// );
/// let fast = reversible_peak_current(
///     1, SquareCm::from_square_cm(0.1),
///     DiffusionCoefficient::from_square_cm_per_second(6.5e-6),
///     Molar::from_milli_molar(1.0),
///     ScanRate::from_milli_volts_per_second(100.0),
/// );
/// // Peak grows as √v: 4× the scan rate doubles the peak.
/// assert!((fast.as_amps() / slow.as_amps() - 2.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn reversible_peak_current(
    n: u32,
    area: SquareCm,
    d: DiffusionCoefficient,
    bulk: Molar,
    scan_rate: ScanRate,
) -> Amperes {
    assert!(n > 0, "electron count must be at least 1");
    let v = scan_rate.as_volts_per_second();
    assert!(v > 0.0, "scan rate must be positive");
    let nf = f64::from(n) * FARADAY;
    let c = bulk.as_molar() * 1e-3; // mol/cm³
    let i = 0.4463
        * nf
        * area.as_square_cm()
        * c
        * (nf * v * d.as_square_cm_per_second() / (GAS_CONSTANT * Kelvin::ROOM.as_kelvin())).sqrt();
    Amperes::from_amps(i)
}

/// Surface-confined (thin-film / adsorbed species) voltammetric peak at
/// room temperature:
///
/// `i_p = n²·F²·v·A·Γ/(4·R·T)`
///
/// Immobilized CYP450 on MWCNT behaves as a surface-confined couple; its
/// peak scales linearly with scan rate (not √v), the classic signature
/// the paper's calibration relies on.
///
/// `gamma_mol_per_cm2` is the electroactive surface coverage.
///
/// # Panics
///
/// Panics if `n == 0` or the scan rate is not positive.
#[must_use]
pub fn surface_confined_peak_current(
    n: u32,
    area: SquareCm,
    gamma_mol_per_cm2: f64,
    scan_rate: ScanRate,
) -> Amperes {
    assert!(n > 0, "electron count must be at least 1");
    let v = scan_rate.as_volts_per_second();
    assert!(v > 0.0, "scan rate must be positive");
    let nf = f64::from(n) * FARADAY;
    let i = nf * nf * v * area.as_square_cm() * gamma_mol_per_cm2
        / (4.0 * GAS_CONSTANT * Kelvin::ROOM.as_kelvin());
    Amperes::from_amps(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> DiffusionCoefficient {
        DiffusionCoefficient::from_square_cm_per_second(6.5e-6)
    }

    #[test]
    fn peak_linear_in_concentration() {
        let v = ScanRate::from_milli_volts_per_second(50.0);
        let a = SquareCm::from_square_cm(0.1);
        let i1 = reversible_peak_current(1, a, d(), Molar::from_milli_molar(1.0), v);
        let i2 = reversible_peak_current(1, a, d(), Molar::from_milli_molar(2.0), v);
        assert!((i2.as_amps() / i1.as_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_magnitude_for_ferrocyanide() {
        // Classic teaching-lab numbers: 1 mM ferrocyanide, 0.1 V/s, 1 cm²
        // electrode → i_p ≈ 2.4e2 µA.
        let i = reversible_peak_current(
            1,
            SquareCm::from_square_cm(1.0),
            d(),
            Molar::from_milli_molar(1.0),
            ScanRate::from_milli_volts_per_second(100.0),
        );
        assert!(i.as_micro_amps() > 150.0 && i.as_micro_amps() < 350.0);
    }

    #[test]
    fn surface_confined_peak_linear_in_scan_rate() {
        let a = SquareCm::from_square_cm(0.1);
        let g = 1e-10;
        let i1 =
            surface_confined_peak_current(1, a, g, ScanRate::from_milli_volts_per_second(20.0));
        let i2 =
            surface_confined_peak_current(1, a, g, ScanRate::from_milli_volts_per_second(40.0));
        assert!((i2.as_amps() / i1.as_amps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn surface_confined_peak_linear_in_coverage() {
        let a = SquareCm::from_square_cm(0.1);
        let v = ScanRate::from_milli_volts_per_second(20.0);
        let i1 = surface_confined_peak_current(1, a, 1e-11, v);
        let i2 = surface_confined_peak_current(1, a, 5e-11, v);
        assert!((i2.as_amps() / i1.as_amps() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scan rate")]
    fn zero_scan_rate_panics() {
        let _ = reversible_peak_current(
            1,
            SquareCm::from_square_cm(0.1),
            d(),
            Molar::from_milli_molar(1.0),
            ScanRate::from_milli_volts_per_second(0.0),
        );
    }
}
