//! Calibration protocols: the virtual wet-lab procedures.
//!
//! A protocol runs a sensor through a standard-addition series exactly
//! the way the paper's experiments do — settle, sample, replicate — and
//! returns a [`CalibrationCurve`] ready for figure-of-merit extraction.

use bios_analytics::{CalibrationCurve, CalibrationPoint};
use bios_instrument::ReadoutChain;
use bios_units::{Amperes, ConcentrationRange, Molar, Seconds};

use crate::sensor::Biosensor;

/// Anything that can calibrate a sensor over a set of standards.
pub trait CalibrationProtocol {
    /// Runs the standard series and assembles the calibration curve.
    fn calibrate(
        &self,
        sensor: &Biosensor,
        chain: &mut ReadoutChain,
        standards: &[Molar],
    ) -> CalibrationCurve;

    /// Convenience: sweep `n` evenly spaced standards over `range`.
    fn calibrate_over(
        &self,
        sensor: &Biosensor,
        chain: &mut ReadoutChain,
        range: &ConcentrationRange,
        n: usize,
    ) -> CalibrationCurve {
        self.calibrate(sensor, chain, &range.linspace(n))
    }
}

/// Fixed-bias chronoamperometry: settle at the working potential, then
/// average a sampling window; repeat per replicate.
///
/// # Examples
///
/// ```
/// use bios_core::catalog;
/// use bios_core::protocol::{CalibrationProtocol, Chronoamperometry};
/// use bios_instrument::ReadoutChain;
/// use bios_units::Molar;
///
/// let entry = catalog::our_glucose_sensor();
/// let sensor = entry.build_sensor();
/// let mut chain = entry.build_readout(7);
/// let standards: Vec<Molar> =
///     (0..=10).map(|k| Molar::from_milli_molar(0.1 * k as f64)).collect();
/// let curve = Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards);
/// assert_eq!(curve.points().len(), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chronoamperometry {
    /// Time allowed for the Cottrell transient to settle (bookkeeping —
    /// the model samples the settled plateau).
    pub settle_time: Seconds,
    /// Samples averaged per replicate reading.
    pub samples_per_reading: usize,
    /// Replicate readings per standard.
    pub replicates: usize,
    /// Blank readings used to estimate the noise floor.
    pub blank_readings: usize,
}

impl Default for Chronoamperometry {
    /// 30 s settling, 8-sample window, triplicate standards, 30 blanks.
    fn default() -> Chronoamperometry {
        Chronoamperometry {
            settle_time: Seconds::from_seconds(30.0),
            samples_per_reading: 8,
            replicates: 3,
            blank_readings: 30,
        }
    }
}

impl Chronoamperometry {
    fn read_once(&self, chain: &mut ReadoutChain, true_current: Amperes) -> Amperes {
        let sum: f64 = (0..self.samples_per_reading)
            .map(|_| chain.digitize(true_current).as_amps())
            .sum();
        Amperes::from_amps(sum / self.samples_per_reading as f64)
    }

    /// Standard deviation of blank replicate readings — the σ used for
    /// the 3σ detection limit, measured with the same averaging as the
    /// standards.
    pub fn measure_blank_sigma(&self, chain: &mut ReadoutChain) -> Amperes {
        let blanks: Vec<f64> = (0..self.blank_readings)
            .map(|_| self.read_once(chain, Amperes::ZERO).as_amps())
            .collect();
        let mean = blanks.iter().sum::<f64>() / blanks.len() as f64;
        let var =
            blanks.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (blanks.len() - 1) as f64;
        Amperes::from_amps(var.sqrt())
    }
}

impl CalibrationProtocol for Chronoamperometry {
    fn calibrate(
        &self,
        sensor: &Biosensor,
        chain: &mut ReadoutChain,
        standards: &[Molar],
    ) -> CalibrationCurve {
        let blank_sigma = self.measure_blank_sigma(chain);
        let points = standards
            .iter()
            .map(|&c| {
                let true_current = sensor.faradaic_current(c);
                let replicates = (0..self.replicates)
                    .map(|_| self.read_once(chain, true_current))
                    .collect();
                CalibrationPoint::new(c, replicates)
            })
            .collect();
        CalibrationCurve::new(points, sensor.electrode().area(), blank_sigma)
    }
}

/// Cyclic voltammetry calibration: each standard's reading is the
/// baseline-corrected catalytic peak height.
///
/// The full hysteresis simulation lives in
/// [`bios_electrochem::voltammetry`]; for calibration throughput this
/// protocol uses the sensor's catalytic peak model and the readout
/// chain's noise, which is what the paper's peak-vs-concentration plots
/// reduce to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclicVoltammetry {
    /// Number of conditioning cycles before the measured sweep.
    pub conditioning_cycles: u32,
    /// Replicate sweeps per standard.
    pub replicates: usize,
    /// Blank sweeps for the noise floor.
    pub blank_readings: usize,
}

impl Default for CyclicVoltammetry {
    /// Three conditioning cycles, triplicate sweeps, 30 blanks.
    fn default() -> CyclicVoltammetry {
        CyclicVoltammetry {
            conditioning_cycles: 3,
            replicates: 3,
            blank_readings: 30,
        }
    }
}

impl CalibrationProtocol for CyclicVoltammetry {
    fn calibrate(
        &self,
        sensor: &Biosensor,
        chain: &mut ReadoutChain,
        standards: &[Molar],
    ) -> CalibrationCurve {
        // Noise floor from blank sweeps.
        let blanks: Vec<f64> = (0..self.blank_readings)
            .map(|_| chain.digitize(Amperes::ZERO).as_amps())
            .collect();
        let mean = blanks.iter().sum::<f64>() / blanks.len() as f64;
        let var =
            blanks.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (blanks.len() - 1) as f64;
        let blank_sigma = Amperes::from_amps(var.sqrt());

        let points = standards
            .iter()
            .map(|&c| {
                let peak = sensor.faradaic_current(c);
                let replicates = (0..self.replicates).map(|_| chain.digitize(peak)).collect();
                CalibrationPoint::new(c, replicates)
            })
            .collect();
        CalibrationCurve::new(points, sensor.electrode().area(), blank_sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyte::Analyte;
    use crate::sensor::Technique;
    use bios_enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
    use bios_instrument::ReadoutChain;
    use bios_nanomaterial::{ElectrodeStock, SurfaceModification};
    use bios_units::SurfaceLoading;

    fn sensor() -> Biosensor {
        let film = EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(100.0))
            .retained_activity(0.6)
            .build();
        Biosensor::builder("glucose", Analyte::Glucose)
            .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
            .modification(SurfaceModification::mwcnt_nafion())
            .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
            .technique(Technique::paper_chronoamperometry())
            .build()
    }

    #[test]
    fn chronoamperometry_recovers_model_sensitivity() {
        let s = sensor();
        let mut chain = ReadoutChain::benchtop(3)
            .auto_ranged_for(s.faradaic_current(Molar::from_milli_molar(1.5)));
        let range = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let curve = Chronoamperometry::default().calibrate_over(&s, &mut chain, &range, 11);
        let measured = curve.sensitivity().unwrap();
        let model = s.model_sensitivity();
        let rel = measured.relative_error(model);
        assert!(rel < 0.10, "relative error {rel}");
    }

    #[test]
    fn replicates_and_points_shape() {
        let s = sensor();
        let mut chain = ReadoutChain::benchtop(1);
        let protocol = Chronoamperometry {
            replicates: 5,
            ..Chronoamperometry::default()
        };
        let standards: Vec<Molar> = (0..7)
            .map(|k| Molar::from_milli_molar(0.1 * k as f64))
            .collect();
        let curve = protocol.calibrate(&s, &mut chain, &standards);
        assert_eq!(curve.points().len(), 7);
        assert!(curve.points().iter().all(|p| p.replicates().len() == 5));
    }

    #[test]
    fn blank_sigma_positive_and_small() {
        let mut chain = ReadoutChain::benchtop(9);
        let sigma = Chronoamperometry::default().measure_blank_sigma(&mut chain);
        assert!(sigma.as_amps() > 0.0);
        assert!(sigma.as_nano_amps() < 1.0);
    }

    #[test]
    fn averaging_window_reduces_blank_sigma() {
        let narrow = Chronoamperometry {
            samples_per_reading: 1,
            blank_readings: 200,
            ..Chronoamperometry::default()
        };
        let wide = Chronoamperometry {
            samples_per_reading: 32,
            blank_readings: 200,
            ..Chronoamperometry::default()
        };
        let s1 = narrow.measure_blank_sigma(&mut ReadoutChain::benchtop(5));
        let s2 = wide.measure_blank_sigma(&mut ReadoutChain::benchtop(5));
        assert!(s2 < s1);
    }

    #[test]
    fn cv_protocol_produces_calibratable_curve() {
        use bios_enzyme::{CypIsoform, CypSensorChemistry};
        let film = EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(300.0))
            .retained_activity(0.5)
            .build();
        let s = Biosensor::builder("CP", Analyte::Cyclophosphamide)
            .electrode(ElectrodeStock::DropSensSpe.working_electrode())
            .modification(SurfaceModification::mwcnt_chloroform())
            .cyp(CypSensorChemistry::stock(CypIsoform::Cyp2B6), film)
            .technique(Technique::paper_cyclic_voltammetry())
            .build();
        let mut chain = ReadoutChain::benchtop(11)
            .auto_ranged_for(s.faradaic_current(Molar::from_micro_molar(100.0)));
        let range = ConcentrationRange::new(Molar::ZERO, Molar::from_micro_molar(70.0)).unwrap();
        let curve = CyclicVoltammetry::default().calibrate_over(&s, &mut chain, &range, 10);
        let fit = bios_analytics::LinearFit::fit(
            &curve.concentrations_milli_molar(),
            &curve.mean_currents_micro_amps(),
        )
        .unwrap();
        assert!(fit.slope() > 0.0);
        assert!(fit.r_squared() > 0.98);
    }
}
