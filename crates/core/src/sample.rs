//! Synthetic samples — the stand-in for human fluids and cell-culture
//! supernatant the paper measures.

use std::collections::HashMap;

use bios_units::Molar;

use crate::analyte::Analyte;

/// A liquid sample: a set of analyte concentrations.
///
/// # Examples
///
/// ```
/// use bios_core::{Analyte, Sample};
/// use bios_units::Molar;
///
/// let serum = Sample::physiological_serum();
/// assert!(serum.concentration(Analyte::Glucose).as_milli_molar() > 3.0);
///
/// let dosed = serum.with_analyte(
///     Analyte::Cyclophosphamide,
///     Molar::from_micro_molar(40.0),
/// );
/// assert!(dosed.concentration(Analyte::Cyclophosphamide).as_micro_molar() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    concentrations: HashMap<Analyte, Molar>,
    /// Fraction of the buffer-calibration slope retained in this matrix
    /// (1.0 = clean buffer; serum proteins foul electrodes and suppress
    /// the response).
    matrix_factor: f64,
}

impl Default for Sample {
    fn default() -> Sample {
        Sample {
            concentrations: HashMap::new(),
            matrix_factor: 1.0,
        }
    }
}

impl Sample {
    /// An empty (blank buffer) sample.
    #[must_use]
    pub fn blank() -> Sample {
        Sample::default()
    }

    /// Healthy human serum: physiological metabolites and interferents,
    /// no drugs. Serum proteins suppress amperometric slopes by ~15 %.
    #[must_use]
    pub fn physiological_serum() -> Sample {
        let mut s = Sample::blank().with_matrix_factor(0.85);
        for analyte in [
            Analyte::Glucose,
            Analyte::Lactate,
            Analyte::Glutamate,
            Analyte::AscorbicAcid,
            Analyte::UricAcid,
        ] {
            if let Some(level) = analyte.physiological_level() {
                s.concentrations.insert(analyte, level);
            }
        }
        s
    }

    /// Neural cell-culture medium as in the authors' earlier work \[4\]\[5\]:
    /// glucose-rich, accumulating lactate and glutamate.
    #[must_use]
    pub fn cell_culture_medium() -> Sample {
        Sample::blank()
            .with_analyte(Analyte::Glucose, Molar::from_milli_molar(10.0))
            .with_analyte(Analyte::Lactate, Molar::from_milli_molar(0.5))
            .with_analyte(Analyte::Glutamate, Molar::from_micro_molar(200.0))
    }

    /// Returns a copy with the matrix suppression factor set.
    ///
    /// # Panics
    ///
    /// Panics unless the factor lies in `(0, 1]`.
    #[must_use]
    pub fn with_matrix_factor(mut self, factor: f64) -> Sample {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "matrix factor must lie in (0, 1]"
        );
        self.matrix_factor = factor;
        self
    }

    /// The matrix suppression factor (1.0 for clean buffer).
    #[must_use]
    pub fn matrix_factor(&self) -> f64 {
        self.matrix_factor
    }

    /// Returns a copy with one analyte set to `concentration`.
    #[must_use]
    pub fn with_analyte(mut self, analyte: Analyte, concentration: Molar) -> Sample {
        self.concentrations.insert(analyte, concentration);
        self
    }

    /// Concentration of `analyte` (zero if absent).
    #[must_use]
    pub fn concentration(&self, analyte: Analyte) -> Molar {
        self.concentrations
            .get(&analyte)
            .copied()
            .unwrap_or(Molar::ZERO)
    }

    /// A dilution of this sample by `factor` (> 1 dilutes).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn diluted(&self, factor: f64) -> Sample {
        assert!(factor > 0.0, "dilution factor must be positive");
        let mut s = Sample::blank();
        for (&a, &c) in &self.concentrations {
            s.concentrations.insert(a, c / factor);
        }
        // Dilution relaxes the matrix toward clean buffer.
        s.matrix_factor = 1.0 - (1.0 - self.matrix_factor) / factor;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_is_blank() {
        assert_eq!(Sample::blank().concentration(Analyte::Glucose), Molar::ZERO);
    }

    #[test]
    fn serum_has_metabolites_but_no_drugs() {
        let s = Sample::physiological_serum();
        assert!(s.concentration(Analyte::Glucose).as_molar() > 0.0);
        assert!(s.concentration(Analyte::UricAcid).as_molar() > 0.0);
        assert_eq!(s.concentration(Analyte::Cyclophosphamide), Molar::ZERO);
    }

    #[test]
    fn with_analyte_round_trips() {
        let s = Sample::blank().with_analyte(Analyte::Ifosfamide, Molar::from_micro_molar(80.0));
        assert!((s.concentration(Analyte::Ifosfamide).as_micro_molar() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_factor_validated_and_defaulted() {
        assert_eq!(Sample::blank().matrix_factor(), 1.0);
        assert!((Sample::physiological_serum().matrix_factor() - 0.85).abs() < 1e-12);
        let s = Sample::blank().with_matrix_factor(0.6);
        assert!((s.matrix_factor() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matrix factor")]
    fn zero_matrix_factor_rejected() {
        let _ = Sample::blank().with_matrix_factor(0.0);
    }

    #[test]
    fn dilution_relaxes_matrix() {
        let serum = Sample::physiological_serum();
        let diluted = serum.diluted(10.0);
        assert!(diluted.matrix_factor() > serum.matrix_factor());
        assert!((diluted.matrix_factor() - 0.985).abs() < 1e-9);
    }

    #[test]
    fn dilution_scales_everything() {
        let s = Sample::physiological_serum().diluted(10.0);
        assert!((s.concentration(Analyte::Glucose).as_milli_molar() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn culture_medium_is_glucose_rich() {
        let m = Sample::cell_culture_medium();
        assert!(
            m.concentration(Analyte::Glucose)
                > Sample::physiological_serum().concentration(Analyte::Glucose)
        );
    }

    #[test]
    #[should_panic(expected = "dilution factor")]
    fn zero_dilution_rejected() {
        let _ = Sample::blank().diluted(0.0);
    }
}
