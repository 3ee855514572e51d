//! Bulk concentration and electrode-surface loading quantities.

use std::fmt;

use crate::macros::quantity_ops;

/// Amount-of-substance concentration, stored canonically in mol · L⁻¹ (M).
///
/// The biosensing literature quotes analyte levels in mM or µM; both have
/// dedicated constructors and accessors so call sites read like the paper.
///
/// # Examples
///
/// ```
/// use bios_units::Molar;
///
/// // Physiological glucose is ~5 mM.
/// let glucose = Molar::from_milli_molar(5.0);
/// assert_eq!(glucose.as_micro_molar(), 5000.0);
/// assert_eq!(glucose.as_molar(), 5.0e-3);
///
/// // Detection limits are quoted in µM.
/// let lod = Molar::from_micro_molar(2.0);
/// assert!(lod < glucose);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Molar(f64);

quantity_ops!(Molar);

impl Molar {
    /// Zero concentration (a blank sample).
    pub const ZERO: Molar = Molar(0.0);

    /// Creates a concentration from a value in mol · L⁻¹. No validation:
    /// intended for literals and computed values known to be valid.
    #[must_use]
    pub const fn from_molar(molar: f64) -> Molar {
        Molar(molar)
    }

    /// Creates a concentration from a value in mmol · L⁻¹.
    #[must_use]
    pub fn from_milli_molar(milli_molar: f64) -> Molar {
        Molar(milli_molar * 1e-3)
    }

    /// Creates a concentration from a value in µmol · L⁻¹.
    #[must_use]
    pub fn from_micro_molar(micro_molar: f64) -> Molar {
        Molar(micro_molar * 1e-6)
    }

    /// Creates a concentration from a value in nmol · L⁻¹.
    #[must_use]
    pub fn from_nano_molar(nano_molar: f64) -> Molar {
        Molar(nano_molar * 1e-9)
    }

    /// Returns the concentration in mol · L⁻¹.
    #[must_use]
    pub fn as_molar(self) -> f64 {
        self.0
    }

    /// Returns the concentration in mmol · L⁻¹.
    #[must_use]
    pub fn as_milli_molar(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the concentration in µmol · L⁻¹.
    #[must_use]
    pub fn as_micro_molar(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the concentration in nmol · L⁻¹.
    #[must_use]
    pub fn as_nano_molar(self) -> f64 {
        self.0 * 1e9
    }
}

impl fmt::Display for Molar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick the most readable unit for the magnitude.
        let abs = self.0.abs();
        if abs >= 1e-3 || abs == 0.0 {
            write!(f, "{:.4} mM", self.as_milli_molar())
        } else if abs >= 1e-6 {
            write!(f, "{:.4} µM", self.as_micro_molar())
        } else {
            write!(f, "{:.4} nM", self.as_nano_molar())
        }
    }
}

/// Surface loading of an immobilized species, mol · cm⁻².
///
/// Enzyme films are characterized by how many moles of active protein are
/// anchored per unit of electrode area; typical monolayer coverages are
/// 10⁻¹²–10⁻¹⁰ mol · cm⁻².
///
/// # Examples
///
/// ```
/// use bios_units::SurfaceLoading;
///
/// let gamma = SurfaceLoading::from_pico_mol_per_square_cm(20.0);
/// assert!((gamma.as_mol_per_square_cm() - 2.0e-11).abs() < 1e-24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SurfaceLoading(f64);

quantity_ops!(SurfaceLoading);

impl SurfaceLoading {
    /// Creates a loading from mol · cm⁻².
    #[must_use]
    pub fn from_mol_per_square_cm(value: f64) -> SurfaceLoading {
        SurfaceLoading(value)
    }

    /// Creates a loading from pmol · cm⁻² (the natural unit for enzyme
    /// monolayers).
    #[must_use]
    pub fn from_pico_mol_per_square_cm(value: f64) -> SurfaceLoading {
        SurfaceLoading(value * 1e-12)
    }

    /// Returns the loading in mol · cm⁻².
    #[must_use]
    pub fn as_mol_per_square_cm(self) -> f64 {
        self.0
    }

    /// Returns the loading in pmol · cm⁻².
    #[must_use]
    pub fn as_pico_mol_per_square_cm(self) -> f64 {
        self.0 * 1e12
    }
}

impl fmt::Display for SurfaceLoading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} pmol/cm²", self.as_pico_mol_per_square_cm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milli_and_micro_round_trip() {
        let c = Molar::from_milli_molar(2.5);
        assert!((c.as_micro_molar() - 2500.0).abs() < 1e-9);
        assert!((c.as_molar() - 0.0025).abs() < 1e-15);
        let c = Molar::from_micro_molar(78.0);
        assert!((c.as_milli_molar() - 0.078).abs() < 1e-12);
    }

    #[test]
    fn nano_molar_round_trip() {
        let c = Molar::from_nano_molar(400.0);
        assert!((c.as_micro_molar() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves_linearly() {
        let a = Molar::from_milli_molar(1.0);
        let b = Molar::from_milli_molar(2.0);
        assert_eq!((a + b).as_milli_molar(), 3.0);
        assert_eq!((b - a).as_milli_molar(), 1.0);
        assert_eq!((a * 4.0).as_milli_molar(), 4.0);
        assert_eq!((b / 2.0).as_milli_molar(), 1.0);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_follows_magnitude() {
        assert!(Molar::from_micro_molar(10.0) < Molar::from_milli_molar(1.0));
        assert_eq!(
            Molar::from_micro_molar(10.0).max(Molar::from_milli_molar(1.0)),
            Molar::from_milli_molar(1.0)
        );
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(Molar::from_milli_molar(5.0).to_string(), "5.0000 mM");
        assert_eq!(Molar::from_micro_molar(2.0).to_string(), "2.0000 µM");
        assert_eq!(Molar::from_nano_molar(300.0).to_string(), "300.0000 nM");
    }

    #[test]
    fn surface_loading_units() {
        let g = SurfaceLoading::from_pico_mol_per_square_cm(150.0);
        assert!((g.as_mol_per_square_cm() - 1.5e-10).abs() < 1e-22);
    }

    #[test]
    fn sum_of_concentrations() {
        let total: Molar = [1.0, 2.0, 3.0]
            .iter()
            .map(|&v| Molar::from_milli_molar(v))
            .sum();
        assert!((total.as_milli_molar() - 6.0).abs() < 1e-12);
    }
}
