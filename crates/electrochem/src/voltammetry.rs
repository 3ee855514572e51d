//! Digital simulation of sweep voltammetry.
//!
//! Simulates the coupled diffusion of the oxidized and reduced halves of a
//! redox couple under a swept potential, producing full voltammograms —
//! the "hysteresis plots" the paper's CYP450 sensors are read from. The
//! surface condition is either Nernstian (reversible) or Butler–Volmer
//! (quasireversible), selected automatically from the couple's `k⁰`.
//!
//! Validated against the Randles–Ševčík closed form (see tests).

use bios_units::{Amperes, Kelvin, Molar, Seconds, SquareCm, Volts, FARADAY, GAS_CONSTANT};

use crate::checkpoint::{CheckPoint, NeverCancel, POLL_INTERVAL};
use crate::error::ElectrochemError;
use crate::species::RedoxCouple;
use crate::waveform::{CyclicSweep, Waveform};

/// One simulated current/potential trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Voltammogram {
    points: Vec<VoltammogramPoint>,
}

/// A single sample of the voltammogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltammogramPoint {
    /// Time from sweep start.
    pub time: Seconds,
    /// Applied potential.
    pub potential: Volts,
    /// Measured current (anodic positive).
    pub current: Amperes,
}

impl Voltammogram {
    /// Creates a voltammogram from raw points.
    #[must_use]
    pub fn new(points: Vec<VoltammogramPoint>) -> Voltammogram {
        Voltammogram { points }
    }

    /// All samples in sweep order.
    #[must_use]
    pub fn points(&self) -> &[VoltammogramPoint] {
        &self.points
    }

    /// The most anodic (most positive current) sample.
    #[must_use]
    pub fn anodic_peak(&self) -> Option<VoltammogramPoint> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.current.as_amps().total_cmp(&b.current.as_amps()))
    }

    /// The most cathodic (most negative current) sample.
    #[must_use]
    pub fn cathodic_peak(&self) -> Option<VoltammogramPoint> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.current.as_amps().total_cmp(&b.current.as_amps()))
    }

    /// Anodic-to-cathodic peak potential separation, when both exist.
    #[must_use]
    pub fn peak_separation(&self) -> Option<Volts> {
        let a = self.anodic_peak()?;
        let c = self.cathodic_peak()?;
        Some(Volts::from_volts(
            (a.potential.as_volts() - c.potential.as_volts()).abs(),
        ))
    }

    /// Loop (hysteresis) area in volt·amps, computed by the shoelace
    /// formula over the (E, i) trace. The paper reads drug concentration
    /// off the hysteresis plot; the loop area is a robust scalar proxy.
    #[must_use]
    pub fn hysteresis_area(&self) -> f64 {
        let n = self.points.len();
        if n < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for k in 0..n {
            let p = &self.points[k];
            let q = &self.points[(k + 1) % n];
            acc += p.potential.as_volts() * q.current.as_amps()
                - q.potential.as_volts() * p.current.as_amps();
        }
        (acc / 2.0).abs()
    }
}

/// Configuration and state for a cyclic-voltammetry digital simulation.
///
/// # Examples
///
/// ```
/// use bios_electrochem::voltammetry::CvSimulator;
/// use bios_electrochem::{CyclicSweep, RedoxCouple};
/// use bios_units::{Kelvin, Molar, ScanRate, SquareCm, Volts};
///
/// let couple = RedoxCouple::builder("ferrocyanide")
///     .standard_potential(Volts::from_milli_volts(230.0))
///     .rate_constant(5e-3)
///     .build();
/// let sweep = CyclicSweep::new(
///     Volts::from_milli_volts(-170.0),
///     Volts::from_milli_volts(630.0),
///     ScanRate::from_milli_volts_per_second(100.0),
///     1,
/// );
/// let vg = CvSimulator::new(couple, SquareCm::from_square_cm(0.1))
///     .with_reduced_bulk(Molar::from_milli_molar(1.0))
///     .run(&sweep);
/// let peak = vg.anodic_peak().expect("sweep produced samples");
/// assert!(peak.current.as_micro_amps() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CvSimulator {
    couple: RedoxCouple,
    area: SquareCm,
    reduced_bulk: Molar,
    nodes: usize,
    /// Samples stored per simulated second of sweep.
    samples_per_second: f64,
}

impl CvSimulator {
    /// Creates a simulator for `couple` on an electrode of geometric
    /// `area`, with no analyte present (set bulks before running).
    #[must_use]
    pub fn new(couple: RedoxCouple, area: SquareCm) -> CvSimulator {
        CvSimulator {
            couple,
            area,
            reduced_bulk: Molar::ZERO,
            nodes: 240,
            samples_per_second: 50.0,
        }
    }

    /// Sets the bulk concentration of the reduced form.
    #[must_use]
    pub fn with_reduced_bulk(mut self, c: Molar) -> CvSimulator {
        self.reduced_bulk = c;
        self
    }

    /// Overrides the spatial resolution (default 240 nodes).
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::GridTooSmall`] if fewer than 16
    /// nodes are requested.
    pub fn with_nodes(mut self, nodes: usize) -> Result<CvSimulator, ElectrochemError> {
        if nodes < 16 {
            return Err(ElectrochemError::GridTooSmall {
                requested: nodes,
                minimum: 16,
            });
        }
        self.nodes = nodes;
        Ok(self)
    }

    /// Runs the sweep and returns the voltammogram.
    #[must_use]
    pub fn run(&self, sweep: &CyclicSweep) -> Voltammogram {
        // NeverCancel cannot trip; a NonFinite bail returns the samples
        // collected so far, which is what the old unguarded loop would
        // have produced up to the divergence anyway.
        match self.run_checked(sweep, &NeverCancel) {
            Ok(vg) => vg,
            Err(_) => Voltammogram::new(Vec::new()),
        }
    }

    /// [`Self::run`] with cooperative cancellation and a numerical
    /// guardrail: every [`POLL_INTERVAL`] inner steps the simulator
    /// polls `cp` and verifies the surface fields are finite.
    ///
    /// # Errors
    ///
    /// * [`ElectrochemError::Cancelled`] — `cp` tripped mid-sweep.
    /// * [`ElectrochemError::NonFinite`] — the digital simulation
    ///   diverged; the partial trace must not be trusted.
    pub fn run_checked(
        &self,
        sweep: &CyclicSweep,
        cp: &dyn CheckPoint,
    ) -> Result<Voltammogram, ElectrochemError> {
        let d = self.couple.diffusion().as_square_cm_per_second();
        let t_total = sweep.duration().as_seconds();
        // Domain: 6 diffusion lengths keeps the far boundary unperturbed.
        let length = 6.0 * (d * t_total).sqrt();
        let dx = length / (self.nodes - 1) as f64;
        // Explicit stability with margin.
        let dt = 0.4 * dx * dx / d;
        let steps = (t_total / dt).ceil() as usize;
        let dt = t_total / steps as f64;
        let r = d * dt / (dx * dx);

        // Only the reduced form is present in the bulk.
        let c_red_bulk = self.reduced_bulk.as_molar() * 1e-3;
        let mut c_ox = vec![0.0_f64; self.nodes];
        let mut c_red = vec![c_red_bulk; self.nodes];
        let mut old_ox = c_ox.clone();
        let mut old_red = c_red.clone();

        let n = f64::from(self.couple.electrons());
        let f_over_rt = n * FARADAY / (GAS_CONSTANT * Kelvin::ROOM.as_kelvin());
        let e0 = self.couple.standard_potential().as_volts();
        let k0 = self.couple.rate_constant();
        let alpha = self.couple.alpha();
        let nfa = n * FARADAY * self.area.as_square_cm();

        let sample_every = ((1.0 / self.samples_per_second) / dt).max(1.0) as usize;
        let mut points = Vec::with_capacity(steps / sample_every + 2);

        for step in 0..=steps {
            if step % POLL_INTERVAL == 0 {
                if cp.cancelled() {
                    return Err(ElectrochemError::Cancelled);
                }
                // The surface nodes see every pathology first (they fold
                // in the exponential Butler–Volmer rates), so checking
                // them is a sufficient sentinel for the whole field.
                if !(c_ox[0].is_finite()
                    && c_red[0].is_finite()
                    && c_ox[1].is_finite()
                    && c_red[1].is_finite())
                {
                    return Err(ElectrochemError::NonFinite { step });
                }
            }
            let t = step as f64 * dt;
            let e = sweep.potential_at(Seconds::from_seconds(t)).as_volts();

            // Butler–Volmer surface flux (reduction positive), linearized
            // against the first interior node.
            let x = f_over_rt * (e - e0);
            let kf = k0 * (-alpha * x).exp(); // reduction of O
            let kb = k0 * ((1.0 - alpha) * x).exp(); // oxidation of R
            let j = (kf * c_ox[1] - kb * c_red[1]) / (1.0 + (kf + kb) * dx / d);
            // Surface concentrations consistent with that flux.
            c_ox[0] = (c_ox[1] - j * dx / d).max(0.0);
            c_red[0] = (c_red[1] + j * dx / d).max(0.0);

            // Anodic-positive current.
            let i = -nfa * j;
            if step % sample_every == 0 || step == steps {
                points.push(VoltammogramPoint {
                    time: Seconds::from_seconds(t),
                    potential: Volts::from_volts(e),
                    current: Amperes::from_amps(i),
                });
            }

            if step == steps {
                break;
            }

            // Diffuse the interior (FTCS).
            old_ox.copy_from_slice(&c_ox);
            old_red.copy_from_slice(&c_red);
            for i in 1..self.nodes - 1 {
                c_ox[i] = old_ox[i] + r * (old_ox[i + 1] - 2.0 * old_ox[i] + old_ox[i - 1]);
                c_red[i] = (old_red[i] + r * (old_red[i + 1] - 2.0 * old_red[i] + old_red[i - 1]))
                    .max(0.0);
            }
            c_ox[self.nodes - 1] = 0.0;
            c_red[self.nodes - 1] = c_red_bulk;
        }

        Ok(Voltammogram::new(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randles_sevcik::reversible_peak_current;
    use bios_units::ScanRate;

    fn fast_couple() -> RedoxCouple {
        // k0 large → reversible behaviour.
        RedoxCouple::builder("fast probe")
            .standard_potential(Volts::from_milli_volts(230.0))
            .rate_constant(1.0)
            .diffusion(bios_units::DiffusionCoefficient::from_square_cm_per_second(
                6.5e-6,
            ))
            .build()
    }

    fn sweep() -> CyclicSweep {
        CyclicSweep::new(
            Volts::from_milli_volts(-170.0),
            Volts::from_milli_volts(630.0),
            ScanRate::from_milli_volts_per_second(100.0),
            1,
        )
    }

    #[test]
    fn reversible_peak_matches_randles_sevcik() {
        let area = SquareCm::from_square_cm(0.1);
        let c = Molar::from_milli_molar(1.0);
        let vg = CvSimulator::new(fast_couple(), area)
            .with_reduced_bulk(c)
            .with_nodes(300)
            .expect("enough nodes")
            .run(&sweep());
        let sim_peak = vg.anodic_peak().unwrap().current;
        let analytic = reversible_peak_current(
            1,
            area,
            fast_couple().diffusion(),
            c,
            ScanRate::from_milli_volts_per_second(100.0),
            Kelvin::ROOM,
        );
        let rel = (sim_peak.as_amps() - analytic.as_amps()).abs() / analytic.as_amps();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn reversible_peak_potential_near_e0_plus_28mv() {
        let vg = CvSimulator::new(fast_couple(), SquareCm::from_square_cm(0.1))
            .with_reduced_bulk(Molar::from_milli_molar(1.0))
            .with_nodes(300)
            .expect("enough nodes")
            .run(&sweep());
        let peak_e = vg.anodic_peak().unwrap().potential.as_milli_volts();
        // E_p = E0 + 28.5/n mV for an anodic reversible sweep.
        assert!(
            (peak_e - (230.0 + 28.5)).abs() < 12.0,
            "peak at {peak_e} mV"
        );
    }

    #[test]
    fn peak_current_linear_in_concentration() {
        let area = SquareCm::from_square_cm(0.1);
        let run = |mm: f64| {
            CvSimulator::new(fast_couple(), area)
                .with_reduced_bulk(Molar::from_milli_molar(mm))
                .run(&sweep())
                .anodic_peak()
                .unwrap()
                .current
                .as_amps()
        };
        let i1 = run(0.5);
        let i2 = run(1.0);
        assert!((i2 / i1 - 2.0).abs() < 0.02);
    }

    #[test]
    fn return_sweep_shows_cathodic_peak() {
        let vg = CvSimulator::new(fast_couple(), SquareCm::from_square_cm(0.1))
            .with_reduced_bulk(Molar::from_milli_molar(1.0))
            .run(&sweep());
        let cat = vg.cathodic_peak().unwrap();
        assert!(cat.current.as_amps() < 0.0);
        // Reversible ΔEp ≈ 57 mV; digital + quasi effects allow slack.
        let sep = vg.peak_separation().unwrap();
        assert!(
            sep.as_milli_volts() > 40.0 && sep.as_milli_volts() < 120.0,
            "separation {sep}"
        );
    }

    #[test]
    fn sluggish_kinetics_depress_and_shift_peak() {
        let slow = RedoxCouple::builder("slow probe")
            .standard_potential(Volts::from_milli_volts(230.0))
            .rate_constant(1e-5)
            .diffusion(bios_units::DiffusionCoefficient::from_square_cm_per_second(
                6.5e-6,
            ))
            .build();
        let area = SquareCm::from_square_cm(0.1);
        let c = Molar::from_milli_molar(1.0);
        let fast_vg = CvSimulator::new(fast_couple(), area)
            .with_reduced_bulk(c)
            .run(&sweep());
        let slow_vg = CvSimulator::new(slow, area)
            .with_reduced_bulk(c)
            .run(&sweep());
        let fast_peak = fast_vg.anodic_peak().unwrap();
        let slow_peak = slow_vg.anodic_peak().unwrap();
        assert!(slow_peak.current < fast_peak.current);
        assert!(slow_peak.potential > fast_peak.potential);
    }

    #[test]
    fn blank_solution_gives_negligible_current() {
        let vg = CvSimulator::new(fast_couple(), SquareCm::from_square_cm(0.1)).run(&sweep());
        let peak = vg.anodic_peak().unwrap();
        assert!(peak.current.as_nano_amps().abs() < 1.0);
    }

    #[test]
    fn invalid_builder_inputs_are_typed_errors() {
        let sim = || CvSimulator::new(fast_couple(), SquareCm::from_square_cm(0.1));
        assert!(matches!(
            sim().with_nodes(8),
            Err(ElectrochemError::GridTooSmall {
                requested: 8,
                minimum: 16
            })
        ));
    }

    #[test]
    fn run_checked_matches_run_and_honours_cancellation() {
        use std::sync::atomic::AtomicBool;
        let sim = CvSimulator::new(fast_couple(), SquareCm::from_square_cm(0.1))
            .with_reduced_bulk(Molar::from_milli_molar(1.0));
        let plain = sim.run(&sweep());
        let checked = sim
            .run_checked(&sweep(), &crate::checkpoint::NeverCancel)
            .expect("healthy sweep completes");
        assert_eq!(plain, checked, "checked path must be bit-identical");
        let tripped = AtomicBool::new(true);
        assert!(matches!(
            sim.run_checked(&sweep(), &tripped),
            Err(ElectrochemError::Cancelled)
        ));
    }

    #[test]
    fn hysteresis_area_grows_with_concentration() {
        let area = SquareCm::from_square_cm(0.1);
        let run = |mm: f64| {
            CvSimulator::new(fast_couple(), area)
                .with_reduced_bulk(Molar::from_milli_molar(mm))
                .run(&sweep())
                .hysteresis_area()
        };
        assert!(run(1.0) > run(0.25));
    }
}
