//! Oxidase sensing elements: glucose, lactate, and glutamate oxidase.
//!
//! The paper's metabolite sensors (Table 1) all pair an oxidase with
//! chronoamperometric H₂O₂ detection: the enzyme oxidizes its substrate,
//! hands the electrons to O₂, and the resulting H₂O₂ is oxidized at the
//! electrode at +650 mV, two electrons per molecule.

use bios_units::{Molar, RateConstant};

use crate::ping_pong::{PingPongBiBi, AIR_SATURATED_O2};

/// Which oxidase is immobilized on the electrode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OxidaseKind {
    /// Glucose oxidase from *Aspergillus niger* (GOD, EC 1.1.3.4).
    GlucoseOxidase,
    /// Lactate oxidase from *Pediococcus* sp. (LOD, EC 1.1.3.2).
    LactateOxidase,
    /// L-glutamate oxidase from *Streptomyces* sp. (GlOD, EC 1.4.3.11).
    GlutamateOxidase,
}

/// A fully-parameterized oxidase sensing element.
///
/// # Examples
///
/// ```
/// use bios_enzyme::{Oxidase, OxidaseKind};
/// use bios_units::Molar;
///
/// let god = Oxidase::stock(OxidaseKind::GlucoseOxidase);
/// let v = god.apparent_kinetics().turnover_rate(Molar::from_milli_molar(5.0));
/// assert!(v.as_per_second() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oxidase {
    kind: OxidaseKind,
    kinetics: PingPongBiBi,
    oxygen: Molar,
}

impl Oxidase {
    /// Builds the literature ("solution") form of each oxidase:
    ///
    /// | enzyme | k_cat (s⁻¹) | K_M substrate | K_M O₂ |
    /// |---|---|---|---|
    /// | GOD  | 700 | 25 mM | 200 µM |
    /// | LOD  | 150 | 0.7 mM | 130 µM |
    /// | GlOD | 75  | 0.2 mM | 140 µM |
    #[must_use]
    pub fn stock(kind: OxidaseKind) -> Oxidase {
        let (kcat, ka_milli, kb_micro) = match kind {
            OxidaseKind::GlucoseOxidase => (700.0, 25.0, 200.0),
            OxidaseKind::LactateOxidase => (150.0, 0.7, 130.0),
            OxidaseKind::GlutamateOxidase => (75.0, 0.2, 140.0),
        };
        Oxidase {
            kind,
            kinetics: PingPongBiBi::new(
                RateConstant::from_per_second(kcat),
                Molar::from_milli_molar(ka_milli),
                Molar::from_micro_molar(kb_micro),
            ),
            oxygen: AIR_SATURATED_O2,
        }
    }

    /// Which oxidase this is.
    #[must_use]
    pub fn kind(&self) -> OxidaseKind {
        self.kind
    }

    /// Returns a copy operating at a different dissolved-O₂ level
    /// (hypoxic tissue, degassed buffer, cell-culture medium…).
    #[must_use]
    pub fn with_oxygen(mut self, oxygen: Molar) -> Oxidase {
        self.oxygen = oxygen;
        self
    }

    /// Electrons delivered to the electrode per catalytic turnover: H₂O₂
    /// oxidation is a 2-electron process.
    #[must_use]
    pub fn electrons_per_turnover(&self) -> u32 {
        2
    }

    /// The apparent Michaelis–Menten kinetics in the analyte at the
    /// ambient oxygen level.
    #[must_use]
    pub fn apparent_kinetics(&self) -> crate::michaelis::MichaelisMenten {
        self.kinetics.apparent_in_a(self.oxygen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_constants_are_distinct() {
        // Saturating O2 recovers each enzyme's solution constants.
        let solution = |kind| {
            Oxidase::stock(kind)
                .with_oxygen(Molar::from_molar(1.0e3))
                .apparent_kinetics()
        };
        let god = solution(OxidaseKind::GlucoseOxidase);
        let lod = solution(OxidaseKind::LactateOxidase);
        let glod = solution(OxidaseKind::GlutamateOxidase);
        assert!(god.kcat() > lod.kcat());
        assert!(lod.kcat() > glod.kcat());
        assert!(god.km() > lod.km());
        assert!(lod.km() > glod.km());
    }

    #[test]
    fn hypoxia_suppresses_output() {
        let god = Oxidase::stock(OxidaseKind::GlucoseOxidase);
        let s = Molar::from_milli_molar(5.0);
        let v_air = god.apparent_kinetics().turnover_rate(s);
        let v_low = god
            .with_oxygen(Molar::from_micro_molar(20.0))
            .apparent_kinetics()
            .turnover_rate(s);
        assert!(v_low < v_air);
    }

    #[test]
    fn two_electrons_per_h2o2() {
        assert_eq!(
            Oxidase::stock(OxidaseKind::LactateOxidase).electrons_per_turnover(),
            2
        );
    }

    #[test]
    fn apparent_kinetics_below_solution_values() {
        let god = Oxidase::stock(OxidaseKind::GlucoseOxidase);
        let app = god.apparent_kinetics();
        // Saturating O2 recovers the solution values; air-level O2
        // limitation pulls both constants below them.
        let solution = god
            .with_oxygen(Molar::from_molar(1.0e3))
            .apparent_kinetics();
        assert!(app.kcat() < solution.kcat());
        assert!(app.km() < solution.km());
    }
}
