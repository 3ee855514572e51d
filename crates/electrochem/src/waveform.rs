//! Potential programs applied by the potentiostat.
//!
//! The CYP450 sensors of the paper are read with a forward/backward
//! linear ramp (cyclic voltammetry), modelled by [`CyclicSweep`].

use bios_units::{ScanRate, Seconds, Volts};

/// A deterministic potential-vs-time program.
///
/// Implementors are pure functions of time, so they can be sampled at any
/// rate by the instrument model.
pub trait Waveform {
    /// The applied potential at time `t` from the start of the program.
    fn potential_at(&self, t: Seconds) -> Volts;

    /// Total program duration.
    fn duration(&self) -> Seconds;

    /// Samples the program every `dt`, inclusive of `t = 0`, through the
    /// full duration.
    fn samples(&self, dt: Seconds) -> Vec<(Seconds, Volts)>
    where
        Self: Sized,
    {
        let n = (self.duration().as_seconds() / dt.as_seconds()).floor() as usize;
        (0..=n)
            .map(|k| {
                let t = Seconds::from_seconds(k as f64 * dt.as_seconds());
                (t, self.potential_at(t))
            })
            .collect()
    }
}

/// Triangular cyclic sweep: `start → vertex → start`, repeated `cycles`
/// times.
///
/// # Examples
///
/// ```
/// use bios_electrochem::waveform::{CyclicSweep, Waveform};
/// use bios_units::{ScanRate, Seconds, Volts};
///
/// let cv = CyclicSweep::new(
///     Volts::from_milli_volts(-600.0),
///     Volts::from_milli_volts(200.0),
///     ScanRate::from_milli_volts_per_second(50.0),
///     1,
/// );
/// // Forward vertex is reached halfway through the cycle.
/// let half = Seconds::from_seconds(cv.duration().as_seconds() / 2.0);
/// assert!((cv.potential_at(half).as_milli_volts() - 200.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclicSweep {
    start: Volts,
    vertex: Volts,
    rate: ScanRate,
    cycles: u32,
}

impl CyclicSweep {
    /// Creates a cyclic program.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive, the vertices coincide, or
    /// `cycles == 0`.
    #[must_use]
    pub fn new(start: Volts, vertex: Volts, rate: ScanRate, cycles: u32) -> CyclicSweep {
        assert!(
            rate.as_volts_per_second() > 0.0,
            "scan rate must be positive"
        );
        assert!(start != vertex, "sweep vertices must differ");
        assert!(cycles > 0, "at least one cycle required");
        CyclicSweep {
            start,
            vertex,
            rate,
            cycles,
        }
    }

    /// Duration of a single triangular cycle.
    #[must_use]
    pub fn cycle_duration(&self) -> Seconds {
        let span = (self.vertex.as_volts() - self.start.as_volts()).abs();
        Seconds::from_seconds(2.0 * span / self.rate.as_volts_per_second())
    }
}

impl Waveform for CyclicSweep {
    fn potential_at(&self, t: Seconds) -> Volts {
        let cycle = self.cycle_duration().as_seconds();
        let span = self.vertex.as_volts() - self.start.as_volts();
        let within = (t.as_seconds() % cycle).min(cycle);
        // Clamp once past the final cycle.
        let within = if t.as_seconds() >= cycle * f64::from(self.cycles) {
            0.0
        } else {
            within
        };
        let half = cycle / 2.0;
        let frac = if within <= half {
            within / half
        } else {
            2.0 - within / half
        };
        Volts::from_volts(self.start.as_volts() + span * frac)
    }

    fn duration(&self) -> Seconds {
        Seconds::from_seconds(self.cycle_duration().as_seconds() * f64::from(self.cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(v: f64) -> Volts {
        Volts::from_milli_volts(v)
    }

    fn s(v: f64) -> Seconds {
        Seconds::from_seconds(v)
    }

    #[test]
    fn cyclic_sweep_is_triangular_and_returns() {
        let w = CyclicSweep::new(
            mv(-600.0),
            mv(200.0),
            ScanRate::from_milli_volts_per_second(100.0),
            1,
        );
        // Span 800 mV at 100 mV/s → 8 s out, 8 s back.
        assert!((w.duration().as_seconds() - 16.0).abs() < 1e-9);
        assert_eq!(w.potential_at(s(0.0)), mv(-600.0));
        assert!((w.potential_at(s(8.0)).as_milli_volts() - 200.0).abs() < 1e-6);
        assert!((w.potential_at(s(12.0)).as_milli_volts() - -200.0).abs() < 1e-6);
        assert!((w.potential_at(s(16.0)).as_milli_volts() - -600.0).abs() < 1e-6);
    }

    #[test]
    fn multi_cycle_repeats() {
        let w = CyclicSweep::new(
            mv(0.0),
            mv(100.0),
            ScanRate::from_milli_volts_per_second(100.0),
            3,
        );
        let one = w.cycle_duration().as_seconds();
        let e1 = w.potential_at(s(0.3 * one));
        let e2 = w.potential_at(s(1.3 * one));
        assert!((e1.as_volts() - e2.as_volts()).abs() < 1e-9);
        assert!((w.duration().as_seconds() - 3.0 * one).abs() < 1e-12);
    }

    #[test]
    fn samples_cover_duration() {
        // 0 → 250 mV and back at 100 mV/s: a 5 s program.
        let w = CyclicSweep::new(
            mv(0.0),
            mv(250.0),
            ScanRate::from_milli_volts_per_second(100.0),
            1,
        );
        let pts = w.samples(s(0.5));
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, s(0.0));
        assert!((pts.last().unwrap().0.as_seconds() - 5.0).abs() < 1e-12);
    }
}
