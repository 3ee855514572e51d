//! Cytochrome-P450 sensing chemistry for drug detection.
//!
//! The paper's drug sensors (§3.2.4) immobilize P450 isoforms on
//! MWCNT-modified screen-printed electrodes. The electrode plays the role
//! of the natural redox partner: it supplies the electrons of the
//! catalytic cycle, so the *cathodic catalytic current* grows with
//! substrate concentration — that is the calibration signal.
//!
//! Isoform ↔ drug assignments follow the paper's Table 1:
//! custom CYP (BM3-like) → arachidonic acid, CYP1A2 → Ftorafur®,
//! CYP2B6 → cyclophosphamide, CYP3A4 → ifosfamide.

use bios_units::{Molar, RateConstant, Volts};

use crate::michaelis::MichaelisMenten;

/// P450 isoforms used by the paper's sensor family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CypIsoform {
    /// Customized fatty-acid-active isoform (CYP102A1/BM3 family),
    /// supplied by EMPA for arachidonic-acid sensing.
    Custom102A1,
    /// CYP1A2 — activates the chemotherapy prodrug Ftorafur® (tegafur).
    Cyp1A2,
    /// CYP2B6 — activates cyclophosphamide.
    Cyp2B6,
    /// CYP3A4 — activates ifosfamide; the most promiscuous human isoform.
    Cyp3A4,
    /// CYP2D6 — metabolizes dextromethorphan (multi-panel work \[9\]).
    Cyp2D6,
    /// CYP2C9 — metabolizes naproxen and flurbiprofen (multi-panel \[9\]).
    Cyp2C9,
}

impl CypIsoform {
    /// Paper-style display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CypIsoform::Custom102A1 => "custom-CYP",
            CypIsoform::Cyp1A2 => "CYP1A2",
            CypIsoform::Cyp2B6 => "CYP2B6",
            CypIsoform::Cyp3A4 => "CYP3A4",
            CypIsoform::Cyp2D6 => "CYP2D6",
            CypIsoform::Cyp2C9 => "CYP2C9",
        }
    }
}

/// A P450 electrode chemistry: isoform + substrate-binding kinetics +
/// heme electron demand.
///
/// The catalytic cycle consumes 2 electrons and one O₂ per monooxygenation.
/// At the electrode, the observed catalytic current adds to the baseline
/// heme Fe(III)→Fe(II) reduction in proportion to substrate saturation.
///
/// # Examples
///
/// ```
/// use bios_enzyme::{CypIsoform, CypSensorChemistry};
/// use bios_units::Molar;
///
/// let cyp = CypSensorChemistry::stock(CypIsoform::Cyp2B6);
/// let low = cyp.binding().turnover_rate(Molar::from_micro_molar(10.0));
/// let high = cyp.binding().turnover_rate(Molar::from_micro_molar(60.0));
/// assert!(high.as_per_second() > low.as_per_second());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CypSensorChemistry {
    isoform: CypIsoform,
    binding: MichaelisMenten,
    /// Reduction potential of the immobilized heme vs Ag/AgCl.
    heme_potential: Volts,
    /// Fraction of substrate-bound enzymes productively coupled (the rest
    /// leak electrons to the "uncoupled" shunt without signal).
    coupling: f64,
}

impl CypSensorChemistry {
    /// Stock chemistries with literature-derived constants:
    ///
    /// | isoform | k_cat (s⁻¹) | K_M (µM) | coupling |
    /// |---|---|---|---|
    /// | custom-CYP / AA | 9.0 | 150 | 0.9 |
    /// | CYP1A2 / Ftorafur | 1.8 | 35 | 0.55 |
    /// | CYP2B6 / CP | 2.6 | 330 | 0.5 |
    /// | CYP3A4 / IFO | 3.1 | 650 | 0.45 |
    /// | CYP2D6 / DEX | 4.5 | 8 | 0.5 |
    /// | CYP2C9 / naproxen | 1.2 | 90 | 0.5 |
    #[must_use]
    pub fn stock(isoform: CypIsoform) -> CypSensorChemistry {
        let (kcat, km_micro, coupling) = match isoform {
            CypIsoform::Custom102A1 => (9.0, 150.0, 0.9),
            CypIsoform::Cyp1A2 => (1.8, 35.0, 0.55),
            CypIsoform::Cyp2B6 => (2.6, 330.0, 0.5),
            CypIsoform::Cyp3A4 => (3.1, 650.0, 0.45),
            CypIsoform::Cyp2D6 => (4.5, 8.0, 0.5),
            CypIsoform::Cyp2C9 => (1.2, 90.0, 0.5),
        };
        CypSensorChemistry {
            isoform,
            binding: MichaelisMenten::new(
                RateConstant::from_per_second(kcat),
                Molar::from_micro_molar(km_micro),
            ),
            heme_potential: Volts::from_milli_volts(-300.0),
            coupling,
        }
    }

    /// The isoform.
    #[must_use]
    pub fn isoform(&self) -> CypIsoform {
        self.isoform
    }

    /// Substrate-binding kinetics.
    #[must_use]
    pub fn binding(&self) -> MichaelisMenten {
        self.binding
    }

    /// Heme reduction potential (vs Ag/AgCl reference).
    #[must_use]
    pub fn heme_potential(&self) -> Volts {
        self.heme_potential
    }

    /// Productive-coupling fraction.
    #[must_use]
    pub fn coupling(&self) -> f64 {
        self.coupling
    }

    /// Electrons drawn from the electrode per productive cycle.
    #[must_use]
    pub fn electrons_per_turnover(&self) -> u32 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_isoforms_construct() {
        for iso in [
            CypIsoform::Custom102A1,
            CypIsoform::Cyp1A2,
            CypIsoform::Cyp2B6,
            CypIsoform::Cyp3A4,
        ] {
            let c = CypSensorChemistry::stock(iso);
            assert_eq!(c.isoform(), iso);
            assert!(c.binding().kcat().as_per_second() > 0.0);
        }
    }

    #[test]
    fn custom_isoform_is_fastest() {
        let aa = CypSensorChemistry::stock(CypIsoform::Custom102A1);
        for other in [CypIsoform::Cyp1A2, CypIsoform::Cyp2B6, CypIsoform::Cyp3A4] {
            let o = CypSensorChemistry::stock(other);
            assert!(aa.binding().kcat() > o.binding().kcat());
        }
    }

    #[test]
    fn heme_potential_is_cathodic() {
        let c = CypSensorChemistry::stock(CypIsoform::Cyp3A4);
        assert!(c.heme_potential().as_volts() < 0.0);
    }
}
