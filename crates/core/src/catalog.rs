//! Every sensor of the paper's Tables 1 and 2 as a runnable
//! configuration.
//!
//! Each [`CatalogEntry`] carries (a) the figures of merit the paper
//! reports for that device and (b) a physical recipe — electrode,
//! modification, enzyme, film — whose parameters are *derived from* the
//! reported figures through the forward model:
//!
//! * the apparent `K_M` is set so Michaelis–Menten curvature ends the
//!   linear range where the paper says it ends (5 % tolerance);
//! * the effective enzyme loading is set so the model's low-concentration
//!   slope equals the reported sensitivity given the modification's
//!   collection efficiency;
//! * the readout noise floor is set so 3σ/slope lands at the reported
//!   detection limit.
//!
//! The calibration harness then *re-measures* all three figures from a
//! noisy simulated standard series — slope from regression, range from
//! the linearity detector, LOD from measured blank scatter — so the
//! reproduced table is an output of the pipeline, not an echo of its
//! inputs.

use bios_analytics::{CalibrationCurve, CalibrationSummary, LinearRangeOptions};
use bios_electrochem::degradation::ElectrodeHealth;
use bios_enzyme::michaelis::MichaelisMenten;
use bios_enzyme::{CypIsoform, CypSensorChemistry, EnzymeFilm, Oxidase, OxidaseKind};
use bios_faults::{FaultPlan, Faultable, RealizedFaults};
use bios_instrument::noise::NoiseGenerator;
use bios_instrument::{Adc, ReadoutChain, TransimpedanceAmplifier};
use bios_nanomaterial::{Electrode, ElectrodeRole, ElectrodeStock, SurfaceModification};
use bios_prng::Fnv1a;
use bios_units::{
    Amperes, ConcentrationRange, Molar, Sensitivity, SquareCm, SurfaceLoading, Volts, FARADAY,
};

use crate::analyte::Analyte;
use crate::error::Result;
use crate::protocol::{CalibrationProtocol, Chronoamperometry, CyclicVoltammetry};
use crate::sensor::{Biosensor, Technique};

/// Linearity tolerance used to translate a reported linear range into an
/// apparent Michaelis constant.
const LINEARITY_TOLERANCE: f64 = 0.05;

/// The paper-reported figures of merit for one Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperFigures {
    /// Reported sensitivity.
    pub sensitivity: Sensitivity,
    /// Reported linear range.
    pub linear_range: ConcentrationRange,
    /// Reported limit of detection (the CNT-mat sensor \[42\] reports
    /// none).
    pub detection_limit: Option<Molar>,
}

/// Which enzyme chemistry an entry mounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ChemistryKind {
    Oxidase(OxidaseKind),
    Cyp(CypIsoform),
}

/// A reproducible sensor configuration with its paper-reported target
/// figures.
///
/// # Examples
///
/// ```
/// use bios_core::catalog;
///
/// let ours = catalog::our_glucose_sensor();
/// let sensor = ours.build_sensor();
/// // The forward model's analytic slope matches the paper's 55.5
/// // µA·mM⁻¹·cm⁻² by construction…
/// let s = sensor.model_sensitivity();
/// assert!(s.relative_error(ours.paper().sensitivity) < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    id: String,
    label: String,
    citation: Option<String>,
    analyte: Analyte,
    paper: PaperFigures,
    electrode: Electrode,
    modification: SurfaceModification,
    chemistry: ChemistryKind,
    technique: Technique,
    sweep: ConcentrationRange,
    sweep_points: usize,
    film_activity: f64,
    is_ours: bool,
    /// [`CatalogEntry::protocol_fingerprint`], computed whenever a field
    /// is set (construction and every `with_*`), never on the job path.
    fingerprint: u64,
}

impl CatalogEntry {
    /// Stable identifier (e.g. `"glucose/ours"`, `"lactate/goran2011"`).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Table 2 row label (e.g. `"MWCNT/Nafion + GOD"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Bibliography key for literature baselines; `None` for the paper's
    /// own devices.
    #[must_use]
    pub fn citation(&self) -> Option<&str> {
        self.citation.as_deref()
    }

    /// The analyte detected.
    #[must_use]
    pub fn analyte(&self) -> Analyte {
        self.analyte
    }

    /// The paper-reported figures of merit.
    #[must_use]
    pub fn paper(&self) -> PaperFigures {
        self.paper
    }

    /// Whether this is one of the authors' own devices (bold rows in
    /// Table 2).
    #[must_use]
    pub fn is_ours(&self) -> bool {
        self.is_ours
    }

    /// The concentration sweep the harness calibrates over.
    #[must_use]
    pub fn sweep(&self) -> ConcentrationRange {
        self.sweep
    }

    /// Number of standards in the sweep.
    #[must_use]
    pub fn sweep_points(&self) -> usize {
        self.sweep_points
    }

    /// Returns the entry with a different number of standards in the
    /// calibration sweep. Mainly useful for stress and fault-injection
    /// scenarios: fewer than 3 points makes [`CatalogEntry::run_calibration`]
    /// fail figure-of-merit extraction.
    #[must_use]
    pub fn with_sweep_points(mut self, sweep_points: usize) -> CatalogEntry {
        self.sweep_points = sweep_points;
        self.refingerprinted()
    }

    /// Returns the entry under a different id (e.g. to mount the same
    /// recipe as several fleet channels without cache aliasing).
    #[must_use]
    pub fn with_id(mut self, id: &str) -> CatalogEntry {
        self.id = id.to_owned();
        self.refingerprinted()
    }

    /// Returns the entry with the film's retained activity pinned to
    /// `activity` (clamped to [0.05, 1.0]) — an **aged** device. A
    /// calibration of the aged entry measures the degraded film with
    /// the full sweep, which is how the stream engine rebuilds a
    /// drifted patient channel's calibration epoch. The activity is
    /// part of the protocol fingerprint, so aged and fresh runs never
    /// alias in the memo cache.
    #[must_use]
    pub fn with_film_activity(mut self, activity: f64) -> CatalogEntry {
        self.film_activity = activity.clamp(0.05, 1.0);
        self.refingerprinted()
    }

    /// A stable 64-bit fingerprint (FNV-1a) of everything that
    /// determines the calibration protocol: electrode, modification,
    /// chemistry, technique, sweep, and the paper figures the film
    /// recipe is derived from. Entries that would simulate differently
    /// fingerprint differently, so `(id, fingerprint, seed)` is a sound
    /// memo-cache key for [`CatalogEntry::run_calibration`].
    ///
    /// The value is computed once, when the entry is built or changed,
    /// so reading it is free.
    #[must_use]
    pub fn protocol_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Re-stamps the stored fingerprint after a field changed.
    fn refingerprinted(mut self) -> CatalogEntry {
        self.fingerprint = self.canonical_fingerprint();
        self
    }

    /// FNV-1a over the canonical binary encoding of every field, in
    /// declaration order (see [`Fnv1a`]: little-endian integers, floats
    /// as bit patterns, length-prefixed strings). `Option`s and the
    /// data-carrying enums are tagged with an explicit byte; field-less
    /// enums contribute their declaration-order discriminant, so
    /// reordering a variant moves fingerprints (the pinned
    /// `our_glucose_sensor` vector in the tests catches layout drift).
    fn canonical_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.id);
        h.write_str(&self.label);
        write_option(&mut h, self.citation.as_deref(), Fnv1a::write_str);
        h.write_u8(self.analyte as u8);

        let paper = &self.paper;
        h.write_f64(paper.sensitivity.as_micro_amps_per_milli_molar_square_cm());
        write_range(&mut h, paper.linear_range);
        write_option(&mut h, paper.detection_limit, |h, lod| {
            h.write_f64(lod.as_molar());
        });

        h.write_u8(self.electrode.material() as u8);
        h.write_f64(self.electrode.area().as_square_cm());
        h.write_u8(self.electrode.role() as u8);

        let m = &self.modification;
        h.write_str(m.name());
        write_option(&mut h, m.dispersant(), |h, d| h.write_u8(d as u8));
        h.write_f64(m.roughness());
        h.write_f64(m.electron_transfer_gain());
        h.write_f64(m.enzyme_capacity_gain());
        h.write_f64(m.collection_efficiency());
        write_option(&mut h, m.cnt_dimensions(), |h, cnt| {
            h.write_f64(cnt.diameter.as_cm());
            h.write_f64(cnt.length.as_cm());
        });

        match self.chemistry {
            ChemistryKind::Oxidase(kind) => {
                h.write_u8(0);
                h.write_u8(kind as u8);
            }
            ChemistryKind::Cyp(isoform) => {
                h.write_u8(1);
                h.write_u8(isoform as u8);
            }
        }

        match self.technique {
            Technique::Chronoamperometry { bias } => {
                h.write_u8(0);
                h.write_f64(bias.as_volts());
            }
            Technique::CyclicVoltammetry { low, high, rate } => {
                h.write_u8(1);
                h.write_f64(low.as_volts());
                h.write_f64(high.as_volts());
                h.write_f64(rate.as_volts_per_second());
            }
        }

        write_range(&mut h, self.sweep);
        h.write_u64(self.sweep_points as u64);
        h.write_f64(self.film_activity);
        h.write_u8(u8::from(self.is_ours));
        h.value()
    }

    /// The apparent Michaelis constant implied by the reported linear
    /// range at the 5 % linearity tolerance.
    #[must_use]
    pub fn target_km(&self) -> Molar {
        MichaelisMenten::km_for_linear_limit(self.paper.linear_range.high(), LINEARITY_TOLERANCE)
    }

    /// Constructs the physical sensor for this entry.
    ///
    /// Film parameters are derived from the paper figures as described
    /// in the module docs.
    #[must_use]
    pub fn build_sensor(&self) -> Biosensor {
        self.assemble_sensor(self.film_activity, 1.0)
    }

    /// Sensor assembly parametrized by degradation: `activity` scales the
    /// film's retained activity (denaturation) and `current_scale` scales
    /// the effective loading (electrode fouling / reference drift act as
    /// a current multiplier to first order). `(1.0, 1.0)` is the healthy
    /// device, bit-identical to the original derivation.
    fn assemble_sensor(&self, activity: f64, current_scale: f64) -> Biosensor {
        let km_target = self.target_km();
        let coll = self.modification.collection_efficiency();
        let s_target = self
            .paper
            .sensitivity
            .as_micro_amps_per_milli_molar_square_cm();

        match self.chemistry {
            ChemistryKind::Oxidase(kind) => {
                let enzyme = Oxidase::stock(kind);
                let apparent = enzyme.apparent_kinetics();
                let km_shift = km_target.as_molar() / apparent.km().as_molar();
                let kcat_app = apparent.kcat().as_per_second();
                let n = f64::from(enzyme.electrons_per_turnover());
                // S [µA·mM⁻¹·cm⁻²] = 1e3·n·F·coll·Γ·kcat/K_M[M]
                let gamma = s_target * km_target.as_molar() / (1e3 * n * FARADAY * coll * kcat_app);
                let film = EnzymeFilm::builder()
                    .loading(SurfaceLoading::from_mol_per_square_cm(
                        gamma * current_scale,
                    ))
                    .retained_activity(activity)
                    .km_shift(km_shift)
                    .build();
                Biosensor::builder(&self.label, self.analyte)
                    .electrode(self.electrode)
                    .modification(self.modification.clone())
                    .oxidase(enzyme, film)
                    .technique(self.technique)
                    .build()
            }
            ChemistryKind::Cyp(isoform) => {
                let chemistry = CypSensorChemistry::stock(isoform);
                let km_shift = km_target.as_molar() / chemistry.binding().km().as_molar();
                let kcat_eff = chemistry.binding().kcat().as_per_second() * chemistry.coupling();
                let n = f64::from(chemistry.electrons_per_turnover());
                let gamma = s_target * km_target.as_molar() / (1e3 * n * FARADAY * coll * kcat_eff);
                let film = EnzymeFilm::builder()
                    .loading(SurfaceLoading::from_mol_per_square_cm(
                        gamma * current_scale,
                    ))
                    .retained_activity(activity)
                    .km_shift(km_shift)
                    .build();
                Biosensor::builder(&self.label, self.analyte)
                    .electrode(self.electrode)
                    .modification(self.modification.clone())
                    .cyp(chemistry, film)
                    .technique(self.technique)
                    .build()
            }
        }
    }

    /// The per-sample white-noise RMS implied by the reported detection
    /// limit (nominal 10 µM when the paper reports none).
    #[must_use]
    pub fn readout_noise(&self) -> Amperes {
        let lod = self
            .paper
            .detection_limit
            .unwrap_or(Molar::from_micro_molar(10.0));
        let slope_micro_amps_per_milli_molar = self
            .paper
            .sensitivity
            .as_micro_amps_per_milli_molar_square_cm()
            * self.electrode.area().as_square_cm();
        let sigma_reading = lod.as_milli_molar() * slope_micro_amps_per_milli_molar / 3.0;
        // Chronoamperometry averages an 8-sample window per reading, so
        // the per-sample RMS is √8 larger; CV reads single sweeps.
        let window = match self.technique {
            Technique::Chronoamperometry { .. } => {
                Chronoamperometry::default().samples_per_reading as f64
            }
            _ => 1.0,
        };
        Amperes::from_micro_amps(sigma_reading * window.sqrt())
    }

    /// Builds the readout chain for this entry: auto-ranged amplifier,
    /// 16-bit converter, and the device's noise floor. Deterministic
    /// under `seed`.
    #[must_use]
    pub fn build_readout(&self, seed: u64) -> ReadoutChain {
        self.readout_for(&self.build_sensor(), seed)
    }

    /// [`build_readout`](Self::build_readout) around an already-built
    /// healthy sensor (from [`build_sensor`](Self::build_sensor)), whose
    /// full-scale current ranges the amplifier.
    fn readout_for(&self, sensor: &Biosensor, seed: u64) -> ReadoutChain {
        let max_current = sensor.faradaic_current(self.sweep.high());
        let rail = Volts::from_volts(3.3);
        let tia = TransimpedanceAmplifier::auto_range(max_current * 1.2, rail);
        ReadoutChain::new(
            tia,
            Adc::new(16, rail),
            NoiseGenerator::new(seed, self.readout_noise()),
            bios_instrument::filter::FilterSpec::None,
        )
    }

    /// The combined current multiplier from injected electrode faults
    /// (fouling × Tafel-slope drift for this entry's redox chemistry).
    fn electrode_current_factor(&self, faults: &RealizedFaults) -> f64 {
        let health = ElectrodeHealth::pristine().with_faults(faults);
        if health.is_pristine() {
            return 1.0;
        }
        let n = match self.chemistry {
            ChemistryKind::Oxidase(kind) => Oxidase::stock(kind).electrons_per_turnover(),
            ChemistryKind::Cyp(isoform) => {
                CypSensorChemistry::stock(isoform).electrons_per_turnover()
            }
        };
        health.current_factor(n)
    }

    /// Estimated number of ADC samples one calibration run digitizes —
    /// the work unit the gateway converts into service ticks and the
    /// benchmark counts per job. Saturating, so a
    /// pathological `with_sweep_points` request cannot overflow.
    #[must_use]
    pub fn calibration_workload(&self) -> u64 {
        let points = self.sweep_points as u64;
        match self.technique {
            Technique::Chronoamperometry { .. } => {
                let p = Chronoamperometry::default();
                (p.blank_readings as u64)
                    .saturating_add(points.saturating_mul(p.replicates as u64))
                    .saturating_mul(p.samples_per_reading as u64)
            }
            _ => {
                let p = CyclicVoltammetry::default();
                (p.blank_readings as u64).saturating_add(points.saturating_mul(p.replicates as u64))
            }
        }
    }

    /// Runs the entry's calibration protocol end to end and extracts the
    /// figures of merit.
    ///
    /// # Errors
    ///
    /// Propagates analytics errors from the figure-of-merit extraction.
    pub fn run_calibration(&self, seed: u64) -> Result<CalibrationOutcome> {
        self.run_calibration_with(seed, None)
    }

    /// Like [`run_calibration`](Self::run_calibration), but with an
    /// optional armed fault plan. The plan's faults for this `(entry,
    /// seed)` pair are realized deterministically and applied at the
    /// matching layer: film denaturation to the enzyme film, fouling and
    /// reference drift as an electrode current factor, and readout
    /// faults to the digitizer chain. With `None` — or a plan that
    /// realizes nothing — the run is bit-identical to the healthy path.
    ///
    /// # Errors
    ///
    /// Propagates analytics errors from the figure-of-merit extraction;
    /// severe injected degradation can surface as e.g. a non-positive
    /// calibration slope.
    pub fn run_calibration_with(
        &self,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<CalibrationOutcome> {
        let realized = plan.map(|p| p.realize(&self.id, seed));
        let (sensor, mut chain) = match &realized {
            None => {
                let sensor = self.build_sensor();
                let chain = self.readout_for(&sensor, seed);
                (sensor, chain)
            }
            // The amplifier is ranged for the healthy device, so the
            // injected faults show up in the readings, not the range.
            Some(faults) => (
                // An injected denaturation compounds with the entry's
                // own aged-film state multiplicatively.
                self.assemble_sensor(
                    (self.film_activity * faults.film_activity).max(0.05),
                    self.electrode_current_factor(faults),
                ),
                self.build_readout(seed).with_faults(faults),
            ),
        };
        let standards = self.sweep.linspace(self.sweep_points);
        let curve = match self.technique {
            Technique::Chronoamperometry { .. } => {
                Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards)
            }
            _ => CyclicVoltammetry::default().calibrate(&sensor, &mut chain, &standards),
        };
        let summary = curve.summary(&LinearRangeOptions::default())?;
        Ok(CalibrationOutcome { summary, curve })
    }
}

/// Tags an `Option` with one byte (0 = `None`, 1 = `Some`) and encodes
/// the value after a `Some`.
fn write_option<T>(h: &mut Fnv1a, value: Option<T>, write: impl FnOnce(&mut Fnv1a, T)) {
    match value {
        None => h.write_u8(0),
        Some(v) => {
            h.write_u8(1);
            write(h, v);
        }
    }
}

/// A concentration range as its two bounds, in molar.
fn write_range(h: &mut Fnv1a, range: ConcentrationRange) {
    h.write_f64(range.low().as_molar());
    h.write_f64(range.high().as_molar());
}

/// The result of one end-to-end calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOutcome {
    /// Extracted figures of merit.
    pub summary: CalibrationSummary,
    /// The underlying calibration data.
    pub curve: CalibrationCurve,
}

impl CalibrationOutcome {
    /// This outcome without its calibration points: the summary, plus a
    /// point-less curve that keeps the electrode area and blank sigma.
    /// The fleet runtime hands out and memoizes outcomes in this shape,
    /// because nothing downstream of a finished job reads the raw
    /// readings; [`CatalogEntry::run_calibration_with`] still returns
    /// the full curve.
    #[must_use]
    pub fn summary_only(self) -> CalibrationOutcome {
        let curve = CalibrationCurve::new(
            Vec::new(),
            self.curve.electrode_area(),
            self.curve.blank_sigma(),
        );
        CalibrationOutcome {
            summary: self.summary,
            curve,
        }
    }
}

fn glassy_carbon() -> Electrode {
    ElectrodeStock::GlassyCarbonDisc.working_electrode()
}

fn carbon_paste_disc() -> Electrode {
    Electrode::new(
        bios_nanomaterial::ElectrodeMaterial::CarbonPaste,
        SquareCm::from_square_mm(7.07),
        ElectrodeRole::Working,
    )
}

// The range literals below are transcribed paper constants; the
// catalog round-trip tests execute every entry, so a malformed literal
// cannot survive CI. Panicking here beats threading a Result through
// every consumer of the static table.
#[allow(clippy::too_many_arguments, clippy::expect_used)]
fn entry(
    id: &str,
    label: &str,
    citation: Option<&str>,
    analyte: Analyte,
    sensitivity: f64,
    range_milli_molar: (f64, f64),
    lod_micro_molar: Option<f64>,
    electrode: Electrode,
    modification: SurfaceModification,
    chemistry: ChemistryKind,
    technique: Technique,
    sweep_top_milli_molar: f64,
) -> CatalogEntry {
    CatalogEntry {
        id: id.to_owned(),
        label: label.to_owned(),
        citation: citation.map(str::to_owned),
        analyte,
        paper: PaperFigures {
            sensitivity: Sensitivity::new(sensitivity),
            linear_range: ConcentrationRange::from_milli_molar(
                range_milli_molar.0,
                range_milli_molar.1,
            )
            // bios-audit: allow(P-expect) — static paper constant, exercised by every catalog test
            .expect("paper range is well-formed"),
            detection_limit: lod_micro_molar.map(Molar::from_micro_molar),
        },
        electrode,
        modification,
        chemistry,
        technique,
        sweep: ConcentrationRange::from_milli_molar(0.0, sweep_top_milli_molar)
            // bios-audit: allow(P-expect) — static paper constant, exercised by every catalog test
            .expect("sweep is well-formed"),
        sweep_points: 25,
        film_activity: 1.0,
        is_ours: citation.is_none(),
        fingerprint: 0,
    }
    .refingerprinted()
}

/// The paper's glucose sensor: MWCNT/Nafion on the microfabricated Au
/// chip, 55.5 µA·mM⁻¹·cm⁻², 0–1 mM, LOD 2 µM.
#[must_use]
pub fn our_glucose_sensor() -> CatalogEntry {
    entry(
        "glucose/ours",
        "MWCNT/Nafion + GOD",
        None,
        Analyte::Glucose,
        55.5,
        (0.0, 1.0),
        Some(2.0),
        ElectrodeStock::EpflMicroChip.working_electrode(),
        SurfaceModification::mwcnt_nafion(),
        ChemistryKind::Oxidase(OxidaseKind::GlucoseOxidase),
        Technique::paper_chronoamperometry(),
        1.6,
    )
}

/// The GLUCOSE block of Table 2, in row order (ours last).
#[must_use]
pub fn glucose_sensors() -> Vec<CatalogEntry> {
    vec![
        entry(
            "glucose/ryu2010",
            "CNT mat + GOD",
            Some("[42]"),
            Analyte::Glucose,
            4.05,
            (0.2, 2.18),
            None,
            glassy_carbon(),
            SurfaceModification::cnt_mat(),
            ChemistryKind::Oxidase(OxidaseKind::GlucoseOxidase),
            Technique::paper_chronoamperometry(),
            3.3,
        ),
        entry(
            "glucose/tsai2005",
            "MWCNT/Nafion co-cast + GOD",
            Some("[49]"),
            Analyte::Glucose,
            4.7,
            (0.025, 2.0),
            Some(4.0),
            glassy_carbon(),
            SurfaceModification::mwcnt_nafion_codeposit(),
            ChemistryKind::Oxidase(OxidaseKind::GlucoseOxidase),
            Technique::paper_chronoamperometry(),
            3.0,
        ),
        entry(
            "glucose/wang2003",
            "MWCNT + GOD",
            Some("[55]"),
            Analyte::Glucose,
            14.2,
            (0.05, 13.0),
            Some(10.0),
            glassy_carbon(),
            SurfaceModification::mwcnt_au_film(),
            ChemistryKind::Oxidase(OxidaseKind::GlucoseOxidase),
            Technique::paper_chronoamperometry(),
            19.0,
        ),
        entry(
            "glucose/hua2012",
            "MWCNT-BA + GOD",
            Some("[18]"),
            Analyte::Glucose,
            23.5,
            (0.01, 2.5),
            Some(10.0),
            glassy_carbon(),
            SurfaceModification::mwcnt_butyric_acid(),
            ChemistryKind::Oxidase(OxidaseKind::GlucoseOxidase),
            Technique::paper_chronoamperometry(),
            3.8,
        ),
        our_glucose_sensor(),
    ]
}

/// The paper's lactate sensor: 25.0 µA·mM⁻¹·cm⁻², 0–1 mM, LOD 11 µM.
#[must_use]
pub fn our_lactate_sensor() -> CatalogEntry {
    entry(
        "lactate/ours",
        "MWCNT/Nafion + LOD",
        None,
        Analyte::Lactate,
        25.0,
        (0.0, 1.0),
        Some(11.0),
        ElectrodeStock::EpflMicroChip.working_electrode(),
        SurfaceModification::mwcnt_nafion(),
        ChemistryKind::Oxidase(OxidaseKind::LactateOxidase),
        Technique::paper_chronoamperometry(),
        1.6,
    )
}

/// The LACTATE block of Table 2, in row order (ours last).
#[must_use]
pub fn lactate_sensors() -> Vec<CatalogEntry> {
    vec![
        entry(
            "lactate/rubianes2005",
            "MWCNT/mineral oil + LOD",
            Some("[41]"),
            Analyte::Lactate,
            0.204,
            (0.0, 7.0),
            Some(300.0),
            carbon_paste_disc(),
            SurfaceModification::cnt_paste(),
            ChemistryKind::Oxidase(OxidaseKind::LactateOxidase),
            Technique::paper_chronoamperometry(),
            10.5,
        ),
        entry(
            "lactate/yang2008",
            "Titanate NT + LOD",
            Some("[57]"),
            Analyte::Lactate,
            0.24,
            (0.5, 14.0),
            Some(200.0),
            glassy_carbon(),
            SurfaceModification::titanate_nanotube(),
            ChemistryKind::Oxidase(OxidaseKind::LactateOxidase),
            Technique::paper_chronoamperometry(),
            20.0,
        ),
        entry(
            "lactate/huang2007",
            "MWCNT + sol-gel/LOD",
            Some("[19]"),
            Analyte::Lactate,
            2.1,
            (0.3, 1.5),
            Some(0.3),
            glassy_carbon(),
            SurfaceModification::mwcnt_sol_gel(),
            ChemistryKind::Oxidase(OxidaseKind::LactateOxidase),
            Technique::paper_chronoamperometry(),
            2.3,
        ),
        entry(
            "lactate/goran2011",
            "N-doped CNT/Nafion + LOD",
            Some("[16]"),
            Analyte::Lactate,
            40.0,
            (0.014, 0.325),
            Some(4.0),
            glassy_carbon(),
            SurfaceModification::n_doped_cnt_nafion(),
            ChemistryKind::Oxidase(OxidaseKind::LactateOxidase),
            Technique::paper_chronoamperometry(),
            0.5,
        ),
        our_lactate_sensor(),
    ]
}

/// The paper's glutamate sensor: 0.9 µA·mM⁻¹·cm⁻², 0–2 mM, LOD 78 µM.
#[must_use]
pub fn our_glutamate_sensor() -> CatalogEntry {
    entry(
        "glutamate/ours",
        "MWCNT/Nafion + GlOD",
        None,
        Analyte::Glutamate,
        0.9,
        (0.0, 2.0),
        Some(78.0),
        ElectrodeStock::EpflMicroChip.working_electrode(),
        SurfaceModification::mwcnt_nafion(),
        ChemistryKind::Oxidase(OxidaseKind::GlutamateOxidase),
        Technique::paper_chronoamperometry(),
        3.2,
    )
}

/// The GLUTAMATE block of Table 2, in row order (ours last).
#[must_use]
pub fn glutamate_sensors() -> Vec<CatalogEntry> {
    vec![
        entry(
            "glutamate/pan1996",
            "Nafion + GlOD",
            Some("[33]"),
            Analyte::Glutamate,
            16.1,
            (0.001, 0.013),
            Some(0.3),
            ElectrodeStock::PlatinumDisc.working_electrode(),
            SurfaceModification::nafion_film(),
            ChemistryKind::Oxidase(OxidaseKind::GlutamateOxidase),
            Technique::paper_chronoamperometry(),
            0.02,
        ),
        entry(
            "glutamate/zhang2006",
            "Chit + GlOD",
            Some("[59]"),
            Analyte::Glutamate,
            85.0,
            (0.0, 0.2),
            Some(0.1),
            glassy_carbon(),
            SurfaceModification::chitosan_film(),
            ChemistryKind::Oxidase(OxidaseKind::GlutamateOxidase),
            Technique::paper_chronoamperometry(),
            0.32,
        ),
        entry(
            "glutamate/ammam2010",
            "PU/MWCNT + GlOD/PP",
            Some("[1]"),
            Analyte::Glutamate,
            384.0,
            (0.0, 0.14),
            Some(0.3),
            ElectrodeStock::PlatinumDisc.working_electrode(),
            SurfaceModification::pu_mwcnt_polypyrrole(),
            ChemistryKind::Oxidase(OxidaseKind::GlutamateOxidase),
            Technique::paper_chronoamperometry(),
            0.22,
        ),
        our_glutamate_sensor(),
    ]
}

/// The CYP450 block of Table 2 (all four are the paper's own devices):
/// arachidonic acid, cyclophosphamide, ifosfamide, Ftorafur®.
#[must_use]
pub fn cyp_sensors() -> Vec<CatalogEntry> {
    let spe = ElectrodeStock::DropSensSpe.working_electrode();
    vec![
        entry(
            "cyp/arachidonic-acid",
            "MWCNT + custom-CYP",
            None,
            Analyte::ArachidonicAcid,
            1140.0,
            (0.0, 0.04),
            Some(0.4),
            spe,
            SurfaceModification::mwcnt_chloroform(),
            ChemistryKind::Cyp(CypIsoform::Custom102A1),
            Technique::paper_cyclic_voltammetry(),
            0.048,
        ),
        entry(
            "cyp/cyclophosphamide",
            "MWCNT + CYP2B6",
            None,
            Analyte::Cyclophosphamide,
            102.0,
            (0.0, 0.07),
            Some(2.0),
            spe,
            SurfaceModification::mwcnt_chloroform(),
            ChemistryKind::Cyp(CypIsoform::Cyp2B6),
            Technique::paper_cyclic_voltammetry(),
            0.084,
        ),
        entry(
            "cyp/ifosfamide",
            "MWCNT + CYP3A4",
            None,
            Analyte::Ifosfamide,
            160.0,
            (0.0, 0.14),
            Some(2.0),
            spe,
            SurfaceModification::mwcnt_chloroform(),
            ChemistryKind::Cyp(CypIsoform::Cyp3A4),
            Technique::paper_cyclic_voltammetry(),
            0.168,
        ),
        entry(
            "cyp/ftorafur",
            "MWCNT + CYP1A2",
            None,
            Analyte::Ftorafur,
            883.0,
            (0.0, 0.008),
            Some(0.7),
            spe,
            SurfaceModification::mwcnt_chloroform(),
            ChemistryKind::Cyp(CypIsoform::Cyp1A2),
            Technique::paper_cyclic_voltammetry(),
            0.0096,
        ),
    ]
}

/// The extended multi-panel drug set of the authors' earlier work \[9\]:
/// benzphetamine, cyclophosphamide, dextromethorphan, naproxen, and
/// flurbiprofen in human serum, one P450 isoform per channel. These are
/// *extension* entries (not Table 2 rows); their figures are set to the
/// serum-panel operating points of \[9\]-era devices.
#[must_use]
pub fn multi_panel_sensors() -> Vec<CatalogEntry> {
    let spe = ElectrodeStock::DropSensSpe.working_electrode();
    let make = |id: &str,
                label: &str,
                analyte: Analyte,
                isoform: CypIsoform,
                sensitivity: f64,
                top_milli: f64,
                lod_micro: f64| {
        entry(
            id,
            label,
            Some("[9]"),
            analyte,
            sensitivity,
            (0.0, top_milli),
            Some(lod_micro),
            spe,
            SurfaceModification::mwcnt_chloroform(),
            ChemistryKind::Cyp(isoform),
            Technique::paper_cyclic_voltammetry(),
            top_milli * 1.2,
        )
    };
    vec![
        make(
            "panel/benzphetamine",
            "MWCNT + CYP2B6 (BP)",
            Analyte::Benzphetamine,
            CypIsoform::Cyp2B6,
            65.0,
            0.05,
            3.0,
        ),
        make(
            "panel/cyclophosphamide",
            "MWCNT + CYP2B6 (CP)",
            Analyte::Cyclophosphamide,
            CypIsoform::Cyp2B6,
            102.0,
            0.07,
            2.0,
        ),
        make(
            "panel/dextromethorphan",
            "MWCNT + CYP2D6 (DEX)",
            Analyte::Dextromethorphan,
            CypIsoform::Cyp2D6,
            420.0,
            0.012,
            0.8,
        ),
        make(
            "panel/naproxen",
            "MWCNT + CYP2C9 (NAP)",
            Analyte::Naproxen,
            CypIsoform::Cyp2C9,
            48.0,
            0.3,
            6.0,
        ),
        make(
            "panel/flurbiprofen",
            "MWCNT + CYP2C9 (FLB)",
            Analyte::Flurbiprofen,
            CypIsoform::Cyp2C9,
            90.0,
            0.09,
            2.5,
        ),
    ]
}

/// Every Table 2 row, block by block (glucose, lactate, glutamate, CYP).
#[must_use]
pub fn all_table2() -> Vec<CatalogEntry> {
    let mut v = glucose_sensors();
    v.extend(lactate_sensors());
    v.extend(glutamate_sensors());
    v.extend(cyp_sensors());
    v
}

/// Table 1: the paper's own seven biosensors (target, probe, technique).
#[must_use]
pub fn table1() -> Vec<CatalogEntry> {
    let mut v = vec![
        our_glucose_sensor(),
        our_lactate_sensor(),
        our_glutamate_sensor(),
    ];
    v.extend(cyp_sensors());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_18_rows() {
        assert_eq!(all_table2().len(), 18);
        assert_eq!(glucose_sensors().len(), 5);
        assert_eq!(lactate_sensors().len(), 5);
        assert_eq!(glutamate_sensors().len(), 4);
        assert_eq!(cyp_sensors().len(), 4);
    }

    #[test]
    fn table1_has_7_sensors_all_ours() {
        let t1 = table1();
        assert_eq!(t1.len(), 7);
        assert!(t1.iter().all(CatalogEntry::is_ours));
    }

    #[test]
    fn ids_are_unique() {
        let all = all_table2();
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert_ne!(a.id(), b.id());
            }
        }
    }

    #[test]
    fn forward_model_reproduces_paper_sensitivity_exactly() {
        for e in all_table2() {
            let s = e.build_sensor().model_sensitivity();
            let rel = s.relative_error(e.paper().sensitivity);
            assert!(rel < 1e-9, "{}: relative error {rel}", e.id());
        }
    }

    #[test]
    fn model_linear_limit_matches_paper_range() {
        for e in all_table2() {
            let limit = e.build_sensor().model_linear_limit();
            let target = e.paper().linear_range.high();
            let rel = (limit.as_molar() - target.as_molar()).abs() / target.as_molar();
            assert!(rel < 1e-9, "{}: relative error {rel}", e.id());
        }
    }

    #[test]
    fn sweeps_cover_reported_ranges() {
        for e in all_table2() {
            assert!(
                e.sweep().low() <= e.paper().linear_range.low(),
                "{} sweep does not cover paper range",
                e.id()
            );
            assert!(
                e.sweep().high() > e.paper().linear_range.high(),
                "{} sweep must extend beyond the linear range",
                e.id()
            );
        }
    }

    #[test]
    fn enzyme_loadings_are_physically_plausible() {
        // 3-D CNT films hold up to ~1 nmol/cm²; monolayers ~1 pmol/cm².
        for e in all_table2() {
            let sensor = e.build_sensor();
            let gamma = sensor
                .chemistry()
                .film()
                .effective_loading()
                .as_pico_mol_per_square_cm();
            assert!(
                gamma > 0.01 && gamma < 5000.0,
                "{}: loading {gamma} pmol/cm²",
                e.id()
            );
        }
    }

    #[test]
    fn readout_noise_positive_and_sub_microamp() {
        for e in all_table2() {
            let n = e.readout_noise();
            assert!(n.as_amps() > 0.0, "{}", e.id());
            assert!(n.as_micro_amps() < 1.0, "{}: {n}", e.id());
        }
    }

    #[test]
    fn our_glucose_sensor_calibrates_near_paper_values() {
        let e = our_glucose_sensor();
        let outcome = e.run_calibration(1234).unwrap();
        let s = outcome.summary;
        assert!(
            s.sensitivity.relative_error(e.paper().sensitivity) < 0.15,
            "sensitivity {} vs paper {}",
            s.sensitivity,
            e.paper().sensitivity
        );
        let lod_rel = (s.detection_limit.as_micro_molar() - 2.0).abs() / 2.0;
        assert!(
            lod_rel < 1.0,
            "LOD {} µM",
            s.detection_limit.as_micro_molar()
        );
        assert!(s.r_squared > 0.99);
    }

    #[test]
    fn aged_entry_calibrates_with_proportionally_lower_sensitivity() {
        let fresh = our_glucose_sensor();
        let aged = fresh.clone().with_film_activity(0.6);
        assert!((aged.film_activity - 0.6).abs() < 1e-12);
        assert_ne!(
            fresh.protocol_fingerprint(),
            aged.protocol_fingerprint(),
            "aged and fresh entries must not alias in the memo cache"
        );
        let s_fresh = fresh.run_calibration(77).unwrap().summary.sensitivity;
        let s_aged = aged.run_calibration(77).unwrap().summary.sensitivity;
        let ratio = s_aged.as_micro_amps_per_milli_molar_square_cm()
            / s_fresh.as_micro_amps_per_milli_molar_square_cm();
        assert!(
            (0.45..0.75).contains(&ratio),
            "60% film should measure ≈60% sensitivity, got {ratio}"
        );
    }

    #[test]
    fn film_activity_clamps_and_compounds_with_injected_denaturation() {
        let e = our_glucose_sensor().with_film_activity(-3.0);
        assert!((e.film_activity - 0.05).abs() < 1e-12, "clamps to floor");
        let e = our_glucose_sensor().with_film_activity(7.0);
        assert!((e.film_activity - 1.0).abs() < 1e-12, "clamps to fresh");
        // The same denaturation plan degrades an aged entry further
        // than a fresh one.
        let plan = bios_faults::FaultPlan::builder("age", 3)
            .spec(bios_faults::FaultKind::FilmDenaturation, 1.0, 0.5)
            .build();
        let fresh = our_glucose_sensor()
            .run_calibration_with(5, Some(&plan))
            .unwrap();
        let aged = our_glucose_sensor()
            .with_film_activity(0.5)
            .run_calibration_with(5, Some(&plan))
            .unwrap();
        assert!(
            aged.summary
                .sensitivity
                .as_micro_amps_per_milli_molar_square_cm()
                < fresh
                    .summary
                    .sensitivity
                    .as_micro_amps_per_milli_molar_square_cm()
        );
    }

    #[test]
    fn multi_panel_covers_five_distinct_drugs() {
        let panel = multi_panel_sensors();
        assert_eq!(panel.len(), 5);
        let mut analytes: Vec<Analyte> = panel.iter().map(CatalogEntry::analyte).collect();
        analytes.dedup();
        assert_eq!(analytes.len(), 5);
        assert!(panel.iter().all(|e| e.analyte().is_drug()));
        assert!(panel.iter().all(|e| e.citation() == Some("[9]")));
    }

    #[test]
    fn multi_panel_sensors_calibrate() {
        for e in multi_panel_sensors() {
            let outcome = e.run_calibration(17).unwrap();
            assert!(
                outcome
                    .summary
                    .sensitivity
                    .relative_error(e.paper().sensitivity)
                    < 0.15,
                "{}",
                e.id()
            );
        }
    }

    #[test]
    fn calibration_is_deterministic_under_seed() {
        let e = our_lactate_sensor();
        let a = e.run_calibration(77).unwrap();
        let b = e.run_calibration(77).unwrap();
        assert_eq!(a.summary.sensitivity, b.summary.sensitivity);
        assert_eq!(a.summary.detection_limit, b.summary.detection_limit);
    }

    #[test]
    fn harmless_plan_matches_healthy_run_exactly() {
        let e = our_glucose_sensor();
        let calm = bios_faults::FaultPlan::chaos(3, 0.0);
        let healthy = e.run_calibration(5).unwrap();
        let armed = e.run_calibration_with(5, Some(&calm)).unwrap();
        assert_eq!(healthy, armed, "zero-intensity plan perturbed the run");
    }

    #[test]
    fn faulted_calibration_is_deterministic() {
        let e = our_glucose_sensor();
        let plan = bios_faults::FaultPlan::builder("deterministic", 11)
            .spec(bios_faults::FaultKind::FilmDenaturation, 1.0, 0.7)
            .spec(bios_faults::FaultKind::ReadoutSpike, 1.0, 0.5)
            .build();
        let a = e.run_calibration_with(9, Some(&plan)).unwrap();
        let b = e.run_calibration_with(9, Some(&plan)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn denaturation_suppresses_sensitivity() {
        let e = our_glucose_sensor();
        let plan = bios_faults::FaultPlan::builder("denature", 21)
            .spec(bios_faults::FaultKind::FilmDenaturation, 1.0, 1.0)
            .build();
        let healthy = e.run_calibration(2).unwrap().summary.sensitivity;
        let faulted = e
            .run_calibration_with(2, Some(&plan))
            .unwrap()
            .summary
            .sensitivity;
        assert!(
            faulted.as_micro_amps_per_milli_molar_square_cm()
                < 0.7 * healthy.as_micro_amps_per_milli_molar_square_cm(),
            "faulted {faulted:?} vs healthy {healthy:?}"
        );
    }

    #[test]
    fn fouling_and_drift_suppress_sensitivity() {
        let e = our_lactate_sensor();
        let plan = bios_faults::FaultPlan::builder("electrode", 31)
            .spec(bios_faults::FaultKind::ElectrodeFouling, 1.0, 1.0)
            .spec(bios_faults::FaultKind::ReferenceDrift, 1.0, 1.0)
            .build();
        let healthy = e.run_calibration(4).unwrap().summary.sensitivity;
        let faulted = e
            .run_calibration_with(4, Some(&plan))
            .unwrap()
            .summary
            .sensitivity;
        assert!(
            faulted.as_micro_amps_per_milli_molar_square_cm()
                < healthy.as_micro_amps_per_milli_molar_square_cm()
        );
    }

    #[test]
    fn workload_scales_with_sweep_points() {
        let e = our_glucose_sensor();
        let base = e.calibration_workload();
        // Chrono default: (30 blanks + 25 pts × 3 reps) × 8 samples.
        assert_eq!(base, (30 + 25 * 3) * 8);
        let wide = e.with_sweep_points(1000);
        assert!(wide.calibration_workload() > base);
        // Saturates instead of overflowing.
        let absurd = our_glucose_sensor().with_sweep_points(usize::MAX);
        assert_eq!(absurd.calibration_workload(), u64::MAX);
    }

    fn every_entry() -> Vec<CatalogEntry> {
        let mut all = all_table2();
        all.extend(multi_panel_sensors());
        all
    }

    #[test]
    fn stored_fingerprint_matches_a_fresh_recomputation() {
        for e in every_entry() {
            assert_eq!(
                e.protocol_fingerprint(),
                e.canonical_fingerprint(),
                "{}",
                e.id()
            );
            let aged = e.clone().with_film_activity(0.5).with_sweep_points(9);
            assert_eq!(
                aged.protocol_fingerprint(),
                aged.canonical_fingerprint(),
                "{}",
                e.id()
            );
        }
    }

    #[test]
    fn every_field_changing_builder_moves_the_fingerprint() {
        for e in every_entry() {
            let fp = e.protocol_fingerprint();
            let changed = [
                e.clone().with_id("renamed").protocol_fingerprint(),
                e.clone()
                    .with_sweep_points(e.sweep_points() + 1)
                    .protocol_fingerprint(),
                e.clone().with_film_activity(0.5).protocol_fingerprint(),
            ];
            for (k, moved) in changed.into_iter().enumerate() {
                assert_ne!(
                    moved,
                    fp,
                    "{}: builder {k} kept a stale fingerprint",
                    e.id()
                );
            }
            let same = e.clone().with_film_activity(e.film_activity);
            assert_eq!(same.protocol_fingerprint(), fp, "{}", e.id());
            assert_eq!(same, e);
        }
    }

    #[test]
    fn catalog_entries_fingerprint_distinctly() {
        let mut fps: Vec<u64> = every_entry()
            .iter()
            .map(CatalogEntry::protocol_fingerprint)
            .collect();
        let n = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), n);
    }

    #[test]
    fn glucose_fingerprint_reference_vector() {
        // Pins the canonical encoding's layout (field order, widths,
        // tags): any change to it moves this value, and with it every
        // memo-cache key and journal fingerprint.
        assert_eq!(
            our_glucose_sensor().protocol_fingerprint(),
            0x525e_aa61_3b2f_ab8e
        );
    }

    #[test]
    fn different_seeds_vary_but_stay_in_band() {
        let e = our_glucose_sensor();
        for seed in [1, 2, 3] {
            let s = e.run_calibration(seed).unwrap().summary.sensitivity;
            assert!(s.relative_error(e.paper().sensitivity) < 0.2, "seed {seed}");
        }
    }
}
