//! A composed biosensing channel and its forward model.
//!
//! A [`Biosensor`] is the paper's §3 recipe as a value: electrode +
//! nanomaterial modification + immobilized enzyme + electrochemical
//! technique. Its forward model maps analyte concentration to faradaic
//! current through the physics of the substrate crates:
//!
//! `i(C) = n·F·A·η_coll·Γ_eff·k_cat_app·C/(K_M_app + C)`
//!
//! where the apparent kinetics come from the enzyme (and its O₂
//! co-substrate, for oxidases) filtered through the film model, and the
//! collection efficiency and loading capacity come from the surface
//! modification.

use bios_enzyme::michaelis::MichaelisMenten;
use bios_enzyme::{CypSensorChemistry, EnzymeFilm, Oxidase};
use bios_nanomaterial::{Electrode, SurfaceModification};
use bios_units::{Amperes, Molar, ScanRate, Sensitivity, Volts, FARADAY};

use crate::analyte::Analyte;
use crate::sample::Sample;

/// The electrochemical technique a sensor is read out with (Table 1's
/// third column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// Hold a fixed oxidizing bias, read the settled current — the
    /// oxidase recipe (+650 mV in the paper).
    Chronoamperometry {
        /// Working-electrode bias vs the reference.
        bias: Volts,
    },
    /// Sweep the potential forward and back, read the peak height — the
    /// CYP450 recipe.
    CyclicVoltammetry {
        /// Most negative potential of the window.
        low: Volts,
        /// Most positive potential of the window.
        high: Volts,
        /// Sweep rate.
        rate: ScanRate,
    },
}

impl Technique {
    /// The paper's chronoamperometric readout: +650 mV bias.
    #[must_use]
    pub fn paper_chronoamperometry() -> Technique {
        Technique::Chronoamperometry {
            bias: Volts::from_milli_volts(650.0),
        }
    }

    /// The paper's cyclic-voltammetry readout window for CYP sensing.
    #[must_use]
    pub fn paper_cyclic_voltammetry() -> Technique {
        Technique::CyclicVoltammetry {
            low: Volts::from_milli_volts(-700.0),
            high: Volts::from_milli_volts(100.0),
            rate: ScanRate::from_milli_volts_per_second(50.0),
        }
    }

    /// Short label as used in Table 1.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Chronoamperometry { .. } => "Chronoamperometry",
            Technique::CyclicVoltammetry { .. } => "Cyclic voltammetry",
        }
    }
}

/// The immobilized recognition chemistry.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorChemistry {
    /// Oxidase + H₂O₂ detection (metabolite sensors).
    Oxidase {
        /// The enzyme.
        enzyme: Oxidase,
        /// Its immobilization film.
        film: EnzymeFilm,
    },
    /// Cytochrome P450 catalytic-current detection (drug sensors).
    Cyp {
        /// The isoform chemistry.
        chemistry: CypSensorChemistry,
        /// Its immobilization film.
        film: EnzymeFilm,
    },
}

impl SensorChemistry {
    /// Probe name as in Table 1 ("Glucose oxidase", "CYP2B6", …).
    #[must_use]
    pub fn probe_name(&self) -> String {
        match self {
            SensorChemistry::Oxidase { enzyme, .. } => match enzyme.kind() {
                bios_enzyme::OxidaseKind::GlucoseOxidase => "Glucose oxidase".to_owned(),
                bios_enzyme::OxidaseKind::LactateOxidase => "Lactate oxidase".to_owned(),
                bios_enzyme::OxidaseKind::GlutamateOxidase => "Glutamate oxidase".to_owned(),
            },
            SensorChemistry::Cyp { chemistry, .. } => chemistry.isoform().name().to_owned(),
        }
    }

    /// Electrons per catalytic turnover reaching the electrode.
    #[must_use]
    pub fn electrons(&self) -> u32 {
        match self {
            SensorChemistry::Oxidase { enzyme, .. } => enzyme.electrons_per_turnover(),
            SensorChemistry::Cyp { chemistry, .. } => chemistry.electrons_per_turnover(),
        }
    }

    /// The apparent (film + co-substrate) Michaelis–Menten kinetics that
    /// govern the calibration shape.
    #[must_use]
    pub fn apparent_kinetics(&self) -> MichaelisMenten {
        match self {
            SensorChemistry::Oxidase { enzyme, film } => {
                film.apparent_kinetics(&enzyme.apparent_kinetics())
            }
            SensorChemistry::Cyp { chemistry, film } => {
                let base = film.apparent_kinetics(&chemistry.binding());
                // Coupling losses scale the turnover, not the affinity.
                MichaelisMenten::new(base.kcat() * chemistry.coupling(), base.km())
            }
        }
    }

    /// The film.
    #[must_use]
    pub fn film(&self) -> &EnzymeFilm {
        match self {
            SensorChemistry::Oxidase { film, .. } | SensorChemistry::Cyp { film, .. } => film,
        }
    }
}

/// A fully composed biosensor channel.
///
/// # Examples
///
/// ```
/// use bios_core::sensor::{Biosensor, Technique};
/// use bios_core::Analyte;
/// use bios_enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
/// use bios_nanomaterial::{ElectrodeStock, SurfaceModification};
/// use bios_units::Molar;
///
/// let sensor = Biosensor::builder("demo glucose sensor", Analyte::Glucose)
///     .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
///     .modification(SurfaceModification::mwcnt_nafion())
///     .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), EnzymeFilm::builder().build())
///     .technique(Technique::paper_chronoamperometry())
///     .build();
/// let i1 = sensor.faradaic_current(Molar::from_milli_molar(0.5));
/// let i2 = sensor.faradaic_current(Molar::from_milli_molar(1.0));
/// assert!(i2 > i1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Biosensor {
    name: String,
    analyte: Analyte,
    electrode: Electrode,
    modification: SurfaceModification,
    chemistry: SensorChemistry,
    technique: Technique,
}

impl Biosensor {
    /// Starts building a sensor for `analyte`.
    #[must_use]
    pub fn builder(name: &str, analyte: Analyte) -> BiosensorBuilder {
        BiosensorBuilder {
            name: name.to_owned(),
            analyte,
            electrode: None,
            modification: SurfaceModification::bare(),
            chemistry: None,
            technique: Technique::paper_chronoamperometry(),
        }
    }

    /// The analyte this channel detects.
    #[must_use]
    pub fn analyte(&self) -> Analyte {
        self.analyte
    }

    /// The working electrode.
    #[must_use]
    pub fn electrode(&self) -> &Electrode {
        &self.electrode
    }

    /// The surface modification.
    #[must_use]
    pub fn modification(&self) -> &SurfaceModification {
        &self.modification
    }

    /// The recognition chemistry.
    #[must_use]
    pub fn chemistry(&self) -> &SensorChemistry {
        &self.chemistry
    }

    /// The readout technique.
    #[must_use]
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// Steady-state faradaic current at analyte concentration `c`.
    ///
    /// This is the forward model: enzyme film flux × collection
    /// efficiency × electrons × Faraday × geometric area.
    #[must_use]
    pub fn faradaic_current(&self, c: Molar) -> Amperes {
        let apparent = self.chemistry.apparent_kinetics();
        let gamma = self
            .chemistry
            .film()
            .effective_loading()
            .as_mol_per_square_cm();
        let turnover = apparent.turnover_rate(c).as_per_second();
        let flux = gamma * turnover; // mol/(cm²·s)
        let n = f64::from(self.chemistry.electrons());
        let coll = self.modification.collection_efficiency();
        Amperes::from_amps(n * FARADAY * self.electrode.area().as_square_cm() * coll * flux)
    }

    /// The analytic low-concentration sensitivity of the forward model,
    /// µA · mM⁻¹ · cm⁻² — what a noiseless calibration would measure.
    #[must_use]
    pub fn model_sensitivity(&self) -> Sensitivity {
        let apparent = self.chemistry.apparent_kinetics();
        let gamma = self
            .chemistry
            .film()
            .effective_loading()
            .as_mol_per_square_cm();
        let n = f64::from(self.chemistry.electrons());
        let coll = self.modification.collection_efficiency();
        // dI/dC at C→0, per area: n·F·coll·Γ·kcat/K_M with K_M in mol/L;
        // convert A/(cm²·M) to µA/(cm²·mM): ×1e6 µA/A ×1e-3 M/mM.
        let slope =
            n * FARADAY * coll * gamma * apparent.kcat().as_per_second() / apparent.km().as_molar();
        Sensitivity::new(slope * 1e3)
    }

    /// The model's theoretical linear-range endpoint for a 5 %
    /// linearity tolerance.
    #[must_use]
    pub fn model_linear_limit(&self) -> Molar {
        self.chemistry.apparent_kinetics().linear_limit(0.05)
    }

    /// Response to a whole sample: analyte signal plus direct oxidation
    /// of electroactive interferents (ascorbate, urate, paracetamol) at
    /// chronoamperometric bias. Nafion-based films largely reject the
    /// anionic interferents.
    #[must_use]
    pub fn respond_to_sample(&self, sample: &Sample) -> Amperes {
        let mut i = self
            .faradaic_current(sample.concentration(self.analyte))
            .as_amps()
            * sample.matrix_factor();
        if let Technique::Chronoamperometry { bias } = self.technique {
            if bias.as_milli_volts() > 400.0 {
                i += self.interference_current(sample).as_amps();
            }
        }
        Amperes::from_amps(i)
    }

    /// Synthesizes the full cyclic voltammogram ("hysteresis plot",
    /// §3.1) of a CYP sensor at drug concentration `c`: the
    /// surface-confined heme wave, the catalytic wave growing with
    /// substrate, and the capacitive envelope of the CNT film.
    ///
    /// Returns `None` for non-CYP chemistries or non-CV techniques.
    #[must_use]
    pub fn synthesize_voltammogram(
        &self,
        c: Molar,
    ) -> Option<bios_electrochem::voltammetry::Voltammogram> {
        use bios_electrochem::double_layer::DoubleLayer;
        use bios_electrochem::voltammetry::{Voltammogram, VoltammogramPoint};
        use bios_electrochem::waveform::{CyclicSweep, Waveform};
        use bios_units::{Seconds, FARADAY as F, GAS_CONSTANT as R};

        let SensorChemistry::Cyp { chemistry, film } = &self.chemistry else {
            return None;
        };
        let Technique::CyclicVoltammetry { low, high, rate } = self.technique else {
            return None;
        };
        let sweep = CyclicSweep::new(low, high, rate, 1);
        let t_room = 298.15;
        let n = f64::from(chemistry.electrons_per_turnover());
        let f_over_rt = F / (R * t_room);
        let e0 = chemistry.heme_potential().as_volts();
        let area = self.electrode.area();

        // Surface-confined heme wave amplitude (1-electron heme couple).
        let gamma = film.effective_loading().as_mol_per_square_cm();
        let i_surf_peak = bios_electrochem::randles_sevcik::surface_confined_peak_current(
            1,
            area,
            gamma,
            rate,
            bios_units::Kelvin::ROOM,
        )
        .as_amps();

        // Catalytic wave amplitude: the steady catalytic current.
        let i_cat = self.faradaic_current(c).as_amps();

        // Capacitive envelope from the CNT film's real area.
        let dl = DoubleLayer::new(
            self.electrode.material().specific_capacitance(),
            area,
            self.modification.roughness(),
        );
        let i_c = dl.charging_current(rate).as_amps();

        let dt = Seconds::from_seconds(sweep.duration().as_seconds() / 800.0);
        let points = sweep
            .samples(dt)
            .into_iter()
            .enumerate()
            .map(|(k, (t, e))| {
                let half = sweep.duration().as_seconds() / 2.0;
                let forward = t.as_seconds() <= half;
                // Cathodic sweep first (toward the heme potential):
                // direction sign for the surface wave and capacitance.
                let dir = if forward { -1.0 } else { 1.0 };
                let x = f_over_rt * (e.as_volts() - e0);
                let ex = x.exp();
                let bell = 4.0 * ex / ((1.0 + ex) * (1.0 + ex));
                let surf = dir * i_surf_peak * bell;
                // Catalytic reduction: sigmoidal turn-on past the heme
                // potential, cathodic (negative) on both branches.
                let catalytic = -i_cat * n / (1.0 + (f_over_rt * (e.as_volts() - e0)).exp());
                let capacitive = dir * i_c;
                let _ = k;
                VoltammogramPoint {
                    time: t,
                    potential: e,
                    current: Amperes::from_amps(surf + catalytic + capacitive),
                }
            })
            .collect();
        Some(Voltammogram::new(points))
    }

    /// Classifies this sensor along the five §2 axes — placing the
    /// paper's own devices inside the survey taxonomy they propose.
    #[must_use]
    pub fn classify(&self) -> crate::classification::SensorClassEntry {
        use crate::classification::{
            ElectrodeTechnology, NanoMaterialClass, SensingElement, SensorClassEntry, Target,
            Transduction,
        };
        use bios_nanomaterial::ElectrodeMaterial;

        let target = if self.analyte.is_drug() {
            Target::Drug
        } else {
            Target::Metabolite
        };
        let nanomaterial = if self.modification.cnt_dimensions().is_some() {
            Some(NanoMaterialClass::CarbonNanotube)
        } else if self.modification.is_nanostructured() {
            Some(NanoMaterialClass::OtherNanotube)
        } else {
            None
        };
        let technology = match self.electrode.material() {
            ElectrodeMaterial::Graphite | ElectrodeMaterial::CarbonPaste => {
                ElectrodeTechnology::Disposable
            }
            ElectrodeMaterial::Gold => ElectrodeTechnology::Integrated,
            _ => ElectrodeTechnology::Conventional,
        };
        SensorClassEntry {
            name: self.name.clone(),
            citation: "this work".to_owned(),
            target,
            element: SensingElement::Enzyme,
            transduction: Transduction::Amperometric,
            nanomaterial,
            technology,
        }
    }

    /// Direct-oxidation current from interferents alone.
    #[must_use]
    pub fn interference_current(&self, sample: &Sample) -> Amperes {
        // Bare-electrode interferent sensitivity, µA·mM⁻¹·cm⁻².
        const INTERFERENT_SENSITIVITY: f64 = 1.2;
        let rejects = self
            .modification
            .dispersant()
            .is_some_and(|d| d.rejects_anionic_interferents());
        let passband = if rejects { 0.02 } else { 1.0 };
        let area = self.electrode.area().as_square_cm();
        let total_milli_molar: f64 = [
            Analyte::AscorbicAcid,
            Analyte::UricAcid,
            Analyte::Paracetamol,
        ]
        .iter()
        .map(|&a| sample.concentration(a).as_milli_molar())
        .sum();
        Amperes::from_micro_amps(INTERFERENT_SENSITIVITY * passband * area * total_milli_molar)
    }
}

/// Builder for [`Biosensor`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct BiosensorBuilder {
    name: String,
    analyte: Analyte,
    electrode: Option<Electrode>,
    modification: SurfaceModification,
    chemistry: Option<SensorChemistry>,
    technique: Technique,
}

impl BiosensorBuilder {
    /// Sets the working electrode.
    #[must_use]
    pub fn electrode(mut self, electrode: Electrode) -> Self {
        self.electrode = Some(electrode);
        self
    }

    /// Sets the surface modification (defaults to bare).
    #[must_use]
    pub fn modification(mut self, modification: SurfaceModification) -> Self {
        self.modification = modification;
        self
    }

    /// Mounts an oxidase chemistry.
    #[must_use]
    pub fn oxidase(mut self, enzyme: Oxidase, film: EnzymeFilm) -> Self {
        self.chemistry = Some(SensorChemistry::Oxidase { enzyme, film });
        self
    }

    /// Mounts a cytochrome-P450 chemistry.
    #[must_use]
    pub fn cyp(mut self, chemistry: CypSensorChemistry, film: EnzymeFilm) -> Self {
        self.chemistry = Some(SensorChemistry::Cyp { chemistry, film });
        self
    }

    /// Sets the readout technique (defaults to the paper's
    /// chronoamperometry).
    #[must_use]
    pub fn technique(mut self, technique: Technique) -> Self {
        self.technique = technique;
        self
    }

    /// Finalizes the sensor, reporting what is missing instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::BuilderIncomplete`] when no electrode or
    /// no chemistry was supplied.
    pub fn try_build(self) -> crate::error::Result<Biosensor> {
        let electrode = self
            .electrode
            .ok_or(crate::error::CoreError::BuilderIncomplete {
                missing: "an electrode",
            })?;
        let chemistry = self
            .chemistry
            .ok_or(crate::error::CoreError::BuilderIncomplete {
                missing: "a sensing chemistry",
            })?;
        Ok(Biosensor {
            name: self.name,
            analyte: self.analyte,
            electrode,
            modification: self.modification,
            chemistry,
            technique: self.technique,
        })
    }

    /// Finalizes the sensor.
    ///
    /// # Panics
    ///
    /// Panics if no electrode or chemistry was supplied; use
    /// [`BiosensorBuilder::try_build`] for the checked path.
    #[must_use]
    pub fn build(self) -> Biosensor {
        match self.try_build() {
            Ok(sensor) => sensor,
            // bios-audit: allow(P-panic) — documented builder contract; try_build is the checked path
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_enzyme::OxidaseKind;
    use bios_nanomaterial::ElectrodeStock;
    use bios_units::SurfaceLoading;

    fn glucose_sensor() -> Biosensor {
        let film = EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(100.0))
            .retained_activity(0.6)
            .build();
        Biosensor::builder("glucose test", Analyte::Glucose)
            .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
            .modification(SurfaceModification::mwcnt_nafion())
            .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
            .technique(Technique::paper_chronoamperometry())
            .build()
    }

    fn cp_sensor() -> Biosensor {
        let film = EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(200.0))
            .retained_activity(0.5)
            .build();
        Biosensor::builder("CP test", Analyte::Cyclophosphamide)
            .electrode(ElectrodeStock::DropSensSpe.working_electrode())
            .modification(SurfaceModification::mwcnt_chloroform())
            .cyp(
                CypSensorChemistry::stock(bios_enzyme::CypIsoform::Cyp2B6),
                film,
            )
            .technique(Technique::paper_cyclic_voltammetry())
            .build()
    }

    #[test]
    fn current_is_monotone_and_saturating() {
        let s = glucose_sensor();
        let mut prev = -1.0;
        for mm in [0.0, 0.5, 1.0, 5.0, 20.0, 100.0] {
            let i = s.faradaic_current(Molar::from_milli_molar(mm)).as_amps();
            assert!(i >= prev);
            prev = i;
        }
        // Saturation: doubling from an already-high concentration gains
        // little.
        let hi = s.faradaic_current(Molar::from_milli_molar(200.0)).as_amps();
        let hi2 = s.faradaic_current(Molar::from_milli_molar(400.0)).as_amps();
        assert!((hi2 - hi) / hi < 0.05);
    }

    #[test]
    fn zero_concentration_zero_current() {
        assert_eq!(
            glucose_sensor().faradaic_current(Molar::ZERO),
            Amperes::ZERO
        );
        assert_eq!(cp_sensor().faradaic_current(Molar::ZERO), Amperes::ZERO);
    }

    #[test]
    fn model_sensitivity_matches_numeric_slope() {
        for sensor in [glucose_sensor(), cp_sensor()] {
            let s_model = sensor.model_sensitivity();
            // Numeric slope at a concentration far below K_M.
            let c = Molar::from_molar(sensor.chemistry().apparent_kinetics().km().as_molar() / 1e4);
            let i = sensor.faradaic_current(c);
            let numeric =
                i.as_micro_amps() / c.as_milli_molar() / sensor.electrode().area().as_square_cm();
            let rel = (numeric - s_model.as_micro_amps_per_milli_molar_square_cm()).abs()
                / s_model.as_micro_amps_per_milli_molar_square_cm();
            assert!(rel < 0.01, "{}: {rel}", sensor.name);
        }
    }

    #[test]
    fn better_modification_higher_sensitivity() {
        let make = |modification: SurfaceModification| {
            let film = EnzymeFilm::builder()
                .loading(SurfaceLoading::from_pico_mol_per_square_cm(100.0))
                .build();
            Biosensor::builder("x", Analyte::Glucose)
                .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
                .modification(modification)
                .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
                .build()
        };
        let cnt = make(SurfaceModification::mwcnt_nafion());
        let bare = make(SurfaceModification::bare());
        assert!(cnt.model_sensitivity() > bare.model_sensitivity());
    }

    #[test]
    fn interferents_add_current_and_nafion_blocks_them() {
        let serum = Sample::physiological_serum();
        let cnt_nafion = glucose_sensor();
        // Matrix-adjusted clean signal (serum suppresses the slope).
        let clean = cnt_nafion.faradaic_current(serum.concentration(Analyte::Glucose))
            * serum.matrix_factor();
        let with_interf = cnt_nafion.respond_to_sample(&serum);
        // Nafion blocks most, but not all, of the interferent signal.
        assert!(with_interf >= clean);

        let unprotected = {
            let film = EnzymeFilm::builder()
                .loading(SurfaceLoading::from_pico_mol_per_square_cm(100.0))
                .retained_activity(0.6)
                .build();
            Biosensor::builder("no nafion", Analyte::Glucose)
                .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
                .modification(SurfaceModification::cnt_mat())
                .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
                .build()
        };
        assert!(
            unprotected.interference_current(&serum).as_amps()
                > cnt_nafion.interference_current(&serum).as_amps() * 10.0
        );
    }

    #[test]
    fn cv_sensors_skip_anodic_interference() {
        let sample = Sample::blank()
            .with_analyte(Analyte::Cyclophosphamide, Molar::from_micro_molar(40.0))
            .with_analyte(Analyte::AscorbicAcid, Molar::from_micro_molar(60.0));
        let s = cp_sensor();
        let with = s.respond_to_sample(&sample);
        let without = s.faradaic_current(Molar::from_micro_molar(40.0));
        assert_eq!(with, without);
    }

    #[test]
    fn table1_labels() {
        assert_eq!(glucose_sensor().chemistry().probe_name(), "Glucose oxidase");
        assert_eq!(cp_sensor().chemistry().probe_name(), "CYP2B6");
        assert_eq!(glucose_sensor().technique().label(), "Chronoamperometry");
        assert_eq!(cp_sensor().technique().label(), "Cyclic voltammetry");
    }

    #[test]
    #[should_panic(expected = "needs an electrode")]
    fn builder_requires_electrode() {
        let _ = Biosensor::builder("x", Analyte::Glucose).build();
    }

    #[test]
    fn voltammogram_only_for_cyp_cv_sensors() {
        assert!(glucose_sensor()
            .synthesize_voltammogram(Molar::from_milli_molar(1.0))
            .is_none());
        assert!(cp_sensor()
            .synthesize_voltammogram(Molar::from_micro_molar(40.0))
            .is_some());
    }

    #[test]
    fn voltammogram_cathodic_peak_grows_with_drug() {
        let s = cp_sensor();
        let peak = |micro: f64| {
            s.synthesize_voltammogram(Molar::from_micro_molar(micro))
                .unwrap()
                .cathodic_peak()
                .unwrap()
                .current
                .as_amps()
                .abs()
        };
        let blank = peak(0.0);
        let low = peak(20.0);
        let high = peak(60.0);
        assert!(low > blank);
        assert!(high > low);
        // Peak-height difference is roughly linear in concentration
        // below the binding K_M.
        let d1 = low - blank;
        let d2 = high - blank;
        assert!((d2 / d1 - 3.0).abs() < 0.5, "ratio {}", d2 / d1);
    }

    #[test]
    fn voltammogram_shows_hysteresis() {
        let s = cp_sensor();
        let vg = s
            .synthesize_voltammogram(Molar::from_micro_molar(40.0))
            .unwrap();
        // Forward and return branches enclose a loop.
        assert!(vg.hysteresis_area() > 0.0);
        // Surface wave: both anodic and cathodic excursions exist.
        assert!(vg.anodic_peak().unwrap().current.as_amps() > 0.0);
        assert!(vg.cathodic_peak().unwrap().current.as_amps() < 0.0);
    }

    #[test]
    fn voltammogram_peak_sits_near_heme_potential() {
        let s = cp_sensor();
        let vg = s
            .synthesize_voltammogram(Molar::from_micro_molar(40.0))
            .unwrap();
        let peak_e = vg.cathodic_peak().unwrap().potential.as_milli_volts();
        // Heme at −300 mV; catalytic wave shifts the apex cathodic.
        assert!(peak_e < -150.0 && peak_e > -720.0, "peak at {peak_e} mV");
    }
}
