//! The analytes the platform detects, and common interferents.

use bios_units::Molar;

/// Every species the paper's platform measures (Table 1) plus the
/// endogenous interferents that plague amperometric sensing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analyte {
    /// Blood sugar — the most-studied metabolite of the last fifty years.
    Glucose,
    /// L-lactate — exercise physiology, sepsis, cell-culture monitoring.
    Lactate,
    /// L-glutamate — neurotransmitter.
    Glutamate,
    /// Arachidonic acid — fatty acid abundant in liver, brain, muscle.
    ArachidonicAcid,
    /// Cyclophosphamide — alkylating anticancer agent.
    Cyclophosphamide,
    /// Ifosfamide — alkylating anticancer agent.
    Ifosfamide,
    /// Ftorafur® (tegafur) — chemotherapeutic prodrug.
    Ftorafur,
    /// Benzphetamine — anti-obesity agent (multi-panel of \[9\]).
    Benzphetamine,
    /// Dextromethorphan — cough suppressant (multi-panel of \[9\]).
    Dextromethorphan,
    /// Naproxen — anti-inflammatory (multi-panel of \[9\]).
    Naproxen,
    /// Flurbiprofen — anti-inflammatory (multi-panel of \[9\]).
    Flurbiprofen,
    /// Ascorbic acid (vitamin C) — classic anodic interferent.
    AscorbicAcid,
    /// Uric acid — classic anodic interferent.
    UricAcid,
    /// Paracetamol — drug interferent at oxidizing potentials.
    Paracetamol,
}

impl Analyte {
    /// Display name matching the paper's usage.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Analyte::Glucose => "glucose",
            Analyte::Lactate => "lactate",
            Analyte::Glutamate => "glutamate",
            Analyte::ArachidonicAcid => "arachidonic acid",
            Analyte::Cyclophosphamide => "cyclophosphamide",
            Analyte::Ifosfamide => "ifosfamide",
            Analyte::Ftorafur => "Ftorafur",
            Analyte::Benzphetamine => "benzphetamine",
            Analyte::Dextromethorphan => "dextromethorphan",
            Analyte::Naproxen => "naproxen",
            Analyte::Flurbiprofen => "flurbiprofen",
            Analyte::AscorbicAcid => "ascorbic acid",
            Analyte::UricAcid => "uric acid",
            Analyte::Paracetamol => "paracetamol",
        }
    }

    /// Whether this analyte is a drug (exogenous) rather than a
    /// metabolite (endogenous) — the paper's two detection families.
    #[must_use]
    pub fn is_drug(&self) -> bool {
        matches!(
            self,
            Analyte::Cyclophosphamide
                | Analyte::Ifosfamide
                | Analyte::Ftorafur
                | Analyte::Benzphetamine
                | Analyte::Dextromethorphan
                | Analyte::Naproxen
                | Analyte::Flurbiprofen
                | Analyte::Paracetamol
        )
    }

    /// Typical physiological (serum) concentration, where meaningful.
    #[must_use]
    pub fn physiological_level(&self) -> Option<Molar> {
        match self {
            Analyte::Glucose => Some(Molar::from_milli_molar(5.0)),
            Analyte::Lactate => Some(Molar::from_milli_molar(1.0)),
            Analyte::Glutamate => Some(Molar::from_micro_molar(50.0)),
            Analyte::AscorbicAcid => Some(Molar::from_micro_molar(60.0)),
            Analyte::UricAcid => Some(Molar::from_micro_molar(300.0)),
            // Drugs have no endogenous level.
            _ => None,
        }
    }
}

impl std::fmt::Display for Analyte {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drug_vs_metabolite_split() {
        assert!(Analyte::Cyclophosphamide.is_drug());
        assert!(Analyte::Ftorafur.is_drug());
        assert!(!Analyte::Glucose.is_drug());
        assert!(!Analyte::ArachidonicAcid.is_drug());
    }

    #[test]
    fn physiological_levels_sane() {
        let glucose = Analyte::Glucose.physiological_level().unwrap();
        assert!((glucose.as_milli_molar() - 5.0).abs() < 1e-12);
        assert!(Analyte::Cyclophosphamide.physiological_level().is_none());
    }

    #[test]
    fn display_names() {
        assert_eq!(Analyte::Glucose.to_string(), "glucose");
        assert_eq!(Analyte::ArachidonicAcid.to_string(), "arachidonic acid");
    }
}
