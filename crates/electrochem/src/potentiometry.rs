//! Potentiometric (zero-current) sensing.
//!
//! §2.3: "the catalyzed reaction … can result in a variation of the
//! electrode potential, while no current flows. Such technique is called
//! potentiometric. Ion-selective sensors belong to that family." The
//! standard response model is the Nikolsky–Eisenmann extension of the
//! Nernst equation, which adds interference through selectivity
//! coefficients.

use bios_units::{Molar, Volts};

use crate::nernst::nernstian_slope_per_decade;

/// An interfering ion with its selectivity coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferent {
    /// Potentiometric selectivity coefficient `K^pot_{ij}` (smaller is
    /// better; 10⁻³ means a 1000× selectivity margin).
    pub selectivity: f64,
    /// Charge of the interfering ion.
    pub charge: i32,
}

/// An ion-selective electrode at room temperature following
/// Nikolsky–Eisenmann:
///
/// `E = E⁰ + (2.303RT/z_iF)·log₁₀(a_i + Σ_j K_ij·a_j^(z_i/z_j))`
///
/// # Examples
///
/// ```
/// use bios_electrochem::potentiometry::IonSelectiveElectrode;
/// use bios_units::{Molar, Volts};
///
/// // An ammonium ISE, the back end of potentiometric urea biosensors.
/// let ise = IonSelectiveElectrode::new(Volts::from_milli_volts(220.0), 1);
/// let e1 = ise.potential(Molar::from_milli_molar(0.1), &[]);
/// let e2 = ise.potential(Molar::from_milli_molar(1.0), &[]);
/// // One decade → one Nernstian slope (≈ 59 mV).
/// assert!(((e2 - e1).as_milli_volts() - 59.2).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IonSelectiveElectrode {
    standard_potential: Volts,
    charge: i32,
}

impl IonSelectiveElectrode {
    /// Creates an ideal ISE for an ion of charge `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z == 0`.
    #[must_use]
    pub fn new(standard_potential: Volts, charge: i32) -> IonSelectiveElectrode {
        assert!(charge != 0, "ion charge cannot be zero");
        IonSelectiveElectrode {
            standard_potential,
            charge,
        }
    }

    /// The electrode's slope per decade: the ideal Nernstian slope,
    /// signed by the ion's charge.
    #[must_use]
    pub fn slope_per_decade(&self) -> Volts {
        let ideal = nernstian_slope_per_decade(self.charge.unsigned_abs());
        let signed = if self.charge > 0 { 1.0 } else { -1.0 };
        ideal * signed
    }

    /// Electrode potential for primary-ion activity `a_i` with the given
    /// interferents at activities `a_j` (Molar used as activity).
    ///
    /// # Panics
    ///
    /// Panics if the total effective activity is not positive (an ISE
    /// needs some ion to sense).
    #[must_use]
    pub fn potential(&self, primary: Molar, interferents: &[(Interferent, Molar)]) -> Volts {
        let zi = f64::from(self.charge);
        let effective: f64 = primary.as_molar()
            + interferents
                .iter()
                .map(|(ion, a)| ion.selectivity * a.as_molar().powf(zi / f64::from(ion.charge)))
                .sum::<f64>();
        assert!(effective > 0.0, "no sensible ion activity present");
        Volts::from_volts(
            self.standard_potential.as_volts()
                + self.slope_per_decade().as_volts() * effective.log10(),
        )
    }

    /// The apparent detection limit imposed by an interferent background:
    /// the primary activity at which the interference term equals the
    /// primary term (the IUPAC crossing-point construction).
    #[must_use]
    pub fn interference_floor(&self, interferents: &[(Interferent, Molar)]) -> Molar {
        let zi = f64::from(self.charge);
        let floor: f64 = interferents
            .iter()
            .map(|(ion, a)| ion.selectivity * a.as_molar().powf(zi / f64::from(ion.charge)))
            .sum();
        Molar::from_molar(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ise() -> IonSelectiveElectrode {
        IonSelectiveElectrode::new(Volts::from_milli_volts(220.0), 1)
    }

    #[test]
    fn nernstian_decade_response() {
        let e_decade = ise().potential(Molar::from_milli_molar(1.0), &[])
            - ise().potential(Molar::from_milli_molar(0.1), &[]);
        assert!((e_decade.as_milli_volts() - 59.16).abs() < 0.1);
    }

    #[test]
    fn divalent_ion_halves_slope() {
        let ca = IonSelectiveElectrode::new(Volts::ZERO, 2);
        let e_decade = ca.potential(Molar::from_milli_molar(1.0), &[])
            - ca.potential(Molar::from_milli_molar(0.1), &[]);
        assert!((e_decade.as_milli_volts() - 29.58).abs() < 0.1);
    }

    #[test]
    fn anion_slope_is_negative() {
        let cl = IonSelectiveElectrode::new(Volts::ZERO, -1);
        let e1 = cl.potential(Molar::from_milli_molar(0.1), &[]);
        let e2 = cl.potential(Molar::from_milli_molar(1.0), &[]);
        assert!(e2 < e1);
    }

    #[test]
    fn selective_electrode_ignores_weak_interferent() {
        let k_interferent = (
            Interferent {
                selectivity: 1e-4,
                charge: 1,
            },
            Molar::from_milli_molar(10.0),
        );
        let clean = ise().potential(Molar::from_milli_molar(1.0), &[]);
        let with = ise().potential(Molar::from_milli_molar(1.0), &[k_interferent]);
        assert!((with - clean).as_milli_volts() < 0.5);
    }

    #[test]
    fn interference_floor_limits_detection() {
        let bad_ion = (
            Interferent {
                selectivity: 1e-2,
                charge: 1,
            },
            Molar::from_milli_molar(100.0),
        );
        let floor = ise().interference_floor(&[bad_ion]);
        assert!((floor.as_milli_molar() - 1.0).abs() < 1e-9);
        // Below the floor, response flattens: a decade below the floor
        // moves the potential by far less than a Nernstian decade.
        let e_hi = ise().potential(Molar::from_milli_molar(1.0), &[bad_ion]);
        let e_lo = ise().potential(Molar::from_milli_molar(0.1), &[bad_ion]);
        assert!((e_hi - e_lo).as_milli_volts() < 20.0);
    }

    #[test]
    #[should_panic(expected = "charge cannot be zero")]
    fn zero_charge_rejected() {
        let _ = IonSelectiveElectrode::new(Volts::ZERO, 0);
    }
}
