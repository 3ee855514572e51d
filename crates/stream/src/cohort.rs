//! Seeded synthetic patient cohorts.
//!
//! A [`PatientCohort`] expands one `(seed, n)` pair into `n` patients,
//! each carrying a catalog sensor, a physiological concentration
//! model, and two derived seed streams (measurement noise and
//! calibration runs). Every field is a pure function of the cohort
//! seed and the patient index, so cohorts regenerate bit-identically
//! on any machine at any worker count.

use bios_core::catalog::{self, CatalogEntry};
use bios_prng::{Rng, SplitMix64};
use bios_units::Molar;

/// Ticks per simulated day; one tick ≈ 5 minutes of wear.
pub const TICKS_PER_DAY: u64 = 288;

/// The physiological model generating a patient's true analyte
/// concentration over logical ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum Physiology {
    /// Sinusoidal circadian rhythm around a personal baseline —
    /// glucose-style continuous monitoring.
    Circadian {
        /// Personal fasting baseline, mM.
        baseline_milli_molar: f64,
        /// Meal-cycle swing amplitude, mM.
        amplitude_milli_molar: f64,
        /// Rhythm period in ticks (one day).
        period_ticks: u64,
        /// Personal phase offset in ticks.
        phase_ticks: f64,
    },
    /// One-compartment pharmacokinetics under repeated bolus dosing —
    /// therapeutic drug monitoring. Concentration is the closed-form
    /// superposition of all past doses with exponential elimination.
    OneCompartment {
        /// Concentration added by one dose, mM.
        dose_milli_molar: f64,
        /// Ticks between doses.
        interval_ticks: u64,
        /// Per-tick retention factor in (0, 1); elimination is
        /// `C → C · decay` each tick.
        decay_per_tick: f64,
    },
}

impl Physiology {
    /// The true concentration at `tick`.
    #[must_use]
    pub fn concentration_at(&self, tick: u64) -> Molar {
        match *self {
            Physiology::Circadian {
                baseline_milli_molar,
                amplitude_milli_molar,
                period_ticks,
                phase_ticks,
            } => {
                let period = period_ticks.max(1) as f64;
                let angle = std::f64::consts::TAU * ((tick as f64 + phase_ticks) / period);
                let c = baseline_milli_molar + amplitude_milli_molar * angle.sin();
                Molar::from_milli_molar(c.max(0.0))
            }
            Physiology::OneCompartment {
                dose_milli_molar,
                interval_ticks,
                decay_per_tick,
            } => {
                let (tau, d, d_tau) = dosing_terms(interval_ticks, decay_per_tick);
                let m = tick / tau;
                let c = dose_milli_molar * d.powf((tick - m * tau) as f64) * dose_series(d_tau, m);
                Molar::from_milli_molar(c.max(0.0))
            }
        }
    }
}

/// A one-compartment patient's per-patient constants: the dosing
/// interval τ, the clamped per-tick retention `d`, and `d^τ`.
fn dosing_terms(interval_ticks: u64, decay_per_tick: f64) -> (u64, f64, f64) {
    let tau = interval_ticks.max(1);
    let d = decay_per_tick.clamp(1e-6, 1.0 - 1e-9);
    (tau, d, d.powf(tau as f64))
}

/// Doses at 0, τ, 2τ, …, mτ (m = ⌊t/τ⌋): the geometric series
/// Σ dose·d^(t−kτ) has the closed form `dose · d^(t−mτ) · series`, so
/// evaluation is O(1) at any tick. `series` changes once per dosing
/// interval.
fn dose_series(d_tau: f64, m: u64) -> f64 {
    (1.0 - d_tau.powf(m as f64 + 1.0)) / (1.0 - d_tau)
}

/// [`Physiology::concentration_at`] for one patient, with the
/// per-patient terms evaluated once and the dosing series kept until
/// the tick leaves its interval. Every value is bit-identical to
/// `concentration_at`'s: the same expressions, in the same order.
/// (A `d^k` table for `k < τ` would save the last `powf` per reading,
/// but its 768 bytes per drug patient raised `cohort-day`'s peak RSS.)
#[derive(Debug)]
pub(crate) struct ConcentrationCurve<'p> {
    physiology: &'p Physiology,
    dosing: Option<Dosing>,
}

/// The hoisted one-compartment terms of a [`ConcentrationCurve`].
#[derive(Debug)]
struct Dosing {
    dose_milli_molar: f64,
    tau: u64,
    d: f64,
    d_tau: f64,
    /// The dosing interval `series` belongs to.
    m: u64,
    series: f64,
}

impl<'p> ConcentrationCurve<'p> {
    pub(crate) fn new(physiology: &'p Physiology) -> ConcentrationCurve<'p> {
        let dosing = match *physiology {
            Physiology::Circadian { .. } => None,
            Physiology::OneCompartment {
                dose_milli_molar,
                interval_ticks,
                decay_per_tick,
            } => {
                let (tau, d, d_tau) = dosing_terms(interval_ticks, decay_per_tick);
                Some(Dosing {
                    dose_milli_molar,
                    tau,
                    d,
                    d_tau,
                    m: 0,
                    series: dose_series(d_tau, 0),
                })
            }
        };
        ConcentrationCurve { physiology, dosing }
    }

    /// The true concentration at `tick`; cheapest when ticks ascend.
    pub(crate) fn at(&mut self, tick: u64) -> Molar {
        let Some(dosing) = &mut self.dosing else {
            return self.physiology.concentration_at(tick);
        };
        let m = tick / dosing.tau;
        if m != dosing.m {
            dosing.m = m;
            dosing.series = dose_series(dosing.d_tau, m);
        }
        let c =
            dosing.dose_milli_molar * dosing.d.powf((tick - m * dosing.tau) as f64) * dosing.series;
        Molar::from_milli_molar(c.max(0.0))
    }
}

/// One synthetic patient: a worn sensor plus the seeded streams that
/// make their longitudinal trace reproducible.
#[derive(Debug, Clone)]
pub struct Patient {
    /// Stable id, `p000000`-style, unique within the cohort.
    pub id: String,
    /// The catalog sensor this patient wears.
    pub entry: CatalogEntry,
    /// The model generating the patient's true concentration.
    pub physiology: Physiology,
    /// Seed stream for per-tick measurement noise.
    pub noise_seed: u64,
    /// Seed stream for calibration runs (bootstrap and every
    /// recalibration epoch derive from it).
    pub cal_seed: u64,
}

/// A generated cohort of synthetic patients.
#[derive(Debug, Clone)]
pub struct PatientCohort {
    patients: Vec<Patient>,
}

impl PatientCohort {
    /// Generates `n` patients from `seed`. Three of every four wear
    /// the glucose sensor under a circadian rhythm; the fourth wears a
    /// multi-panel drug sensor under repeated-dose pharmacokinetics.
    #[must_use]
    pub fn generate(seed: u64, n: usize) -> PatientCohort {
        let panel = catalog::multi_panel_sensors();
        let patients = (0..n)
            .map(|i| {
                let base = SplitMix64::new(seed).derive(i as u64);
                let mut rng = Rng::seed_from_u64(base);
                let noise_seed = SplitMix64::new(base).derive(1);
                let cal_seed = SplitMix64::new(base).derive(2);
                let (entry, physiology) = if i % 4 == 3 && !panel.is_empty() {
                    let entry = panel[(i / 4) % panel.len()].clone();
                    let high = entry.sweep().high().as_milli_molar();
                    // Half-life 3–5 hours of 5-minute ticks; dose sized
                    // so the steady-state peak sits inside the sweep.
                    let half_life = rng.uniform_in(36.0, 60.0);
                    let decay = 0.5_f64.powf(1.0 / half_life);
                    let tau = TICKS_PER_DAY / 3;
                    let peak_fraction = rng.uniform_in(0.5, 0.8);
                    let dose = peak_fraction * high * (1.0 - decay.powf(tau as f64));
                    (
                        entry,
                        Physiology::OneCompartment {
                            dose_milli_molar: dose,
                            interval_ticks: tau,
                            decay_per_tick: decay,
                        },
                    )
                } else {
                    (
                        catalog::our_glucose_sensor(),
                        Physiology::Circadian {
                            baseline_milli_molar: rng.uniform_in(0.45, 0.55),
                            amplitude_milli_molar: rng.uniform_in(0.15, 0.30),
                            period_ticks: TICKS_PER_DAY,
                            phase_ticks: rng.uniform_in(0.0, TICKS_PER_DAY as f64),
                        },
                    )
                };
                Patient {
                    id: format!("p{i:06}"),
                    entry,
                    physiology,
                    noise_seed,
                    cal_seed,
                }
            })
            .collect();
        PatientCohort { patients }
    }

    /// The generated patients, in index order.
    #[must_use]
    pub fn patients(&self) -> &[Patient] {
        &self.patients
    }

    /// Patients in the cohort.
    #[must_use]
    pub fn len(&self) -> usize {
        self.patients.len()
    }

    /// Whether the cohort is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patients.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_regenerate_bit_identically() {
        let a = PatientCohort::generate(42, 16);
        let b = PatientCohort::generate(42, 16);
        for (x, y) in a.patients().iter().zip(b.patients()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.entry.id(), y.entry.id());
            assert_eq!(x.noise_seed, y.noise_seed);
            assert_eq!(x.cal_seed, y.cal_seed);
            assert_eq!(x.physiology, y.physiology);
        }
    }

    #[test]
    fn cohorts_mix_glucose_and_drug_patients() {
        let cohort = PatientCohort::generate(7, 16);
        let drug = cohort
            .patients()
            .iter()
            .filter(|p| matches!(p.physiology, Physiology::OneCompartment { .. }))
            .count();
        assert_eq!(drug, 4, "every fourth patient is a drug patient");
        assert!(cohort
            .patients()
            .iter()
            .step_by(4)
            .all(|p| p.entry.id() == "glucose/ours"));
    }

    #[test]
    fn circadian_truth_stays_inside_the_calibrated_sweep() {
        let cohort = PatientCohort::generate(3, 8);
        for p in cohort.patients() {
            let high = p.entry.sweep().high().as_milli_molar();
            for tick in 0..TICKS_PER_DAY {
                let c = p.physiology.concentration_at(tick).as_milli_molar();
                assert!(c >= 0.0, "{}: negative concentration at {tick}", p.id);
                assert!(
                    c <= high * 1.05,
                    "{}: {c} mM escapes the sweep high {high} at {tick}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn the_hoisted_curve_equals_concentration_at_bit_for_bit() {
        let cohort = PatientCohort::generate(0x57AE_A11E, 48);
        let mut drug = 0;
        for p in cohort.patients() {
            if matches!(p.physiology, Physiology::OneCompartment { .. }) {
                drug += 1;
            }
            let mut curve = ConcentrationCurve::new(&p.physiology);
            // Five dosing intervals in order, then a jump back and
            // one ahead, so the cached series is recomputed both ways.
            let ticks = (0..5 * TICKS_PER_DAY / 3).chain([7, 1000, 3]);
            for tick in ticks {
                let hoisted = curve.at(tick).as_milli_molar();
                let direct = p.physiology.concentration_at(tick).as_milli_molar();
                assert_eq!(hoisted.to_bits(), direct.to_bits(), "{} at {tick}", p.id);
            }
        }
        assert_eq!(drug, 12, "every fourth patient is a drug patient");
    }

    #[test]
    fn one_compartment_accumulates_to_a_bounded_steady_state() {
        let phys = Physiology::OneCompartment {
            dose_milli_molar: 0.02,
            interval_ticks: 96,
            decay_per_tick: 0.99,
        };
        let first_peak = phys.concentration_at(0).as_milli_molar();
        let late_peak = phys.concentration_at(96 * 10).as_milli_molar();
        let later_peak = phys.concentration_at(96 * 20).as_milli_molar();
        assert!(late_peak > first_peak, "doses accumulate");
        assert!(
            (later_peak - late_peak).abs() < 1e-6,
            "steady state reached"
        );
        let trough = phys.concentration_at(96 * 10 + 95).as_milli_molar();
        assert!(trough < late_peak, "elimination between doses");
    }
}
