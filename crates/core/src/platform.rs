//! The multi-target sensing platform.
//!
//! The paper's §3 platform pairs the 5-working-electrode microfabricated
//! chip with per-channel readout, keeping the chemical component
//! (electrode functionalization) separate from the electrical component
//! (readout chain) — "easing design and manufacturing". The
//! [`SensingPlatform`] models exactly that composition; [`stack`] models
//! the 3-D integration option of Guiducci et al. \[17\] discussed in §2.5.

use bios_instrument::ReadoutChain;
use bios_units::Amperes;

use crate::analyte::Analyte;
use crate::error::{CoreError, Result};
use crate::sample::Sample;
use crate::sensor::Biosensor;

/// A multiplexed measurement from one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReading {
    /// Which channel produced the reading.
    pub channel: usize,
    /// The analyte that channel detects.
    pub analyte: Analyte,
    /// The digitized current.
    pub current: Amperes,
}

/// A multi-channel biosensing platform: N independently functionalized
/// working electrodes, each with its own readout chain.
///
/// # Examples
///
/// ```
/// use bios_core::platform::SensingPlatform;
/// use bios_core::{catalog, Analyte, Sample};
///
/// let mut platform = SensingPlatform::epfl_chip(42);
/// platform.mount(0, catalog::our_glucose_sensor().build_sensor())?;
/// platform.mount(1, catalog::our_lactate_sensor().build_sensor())?;
///
/// let readings = platform.measure_all(&Sample::cell_culture_medium());
/// assert_eq!(readings.len(), 2);
/// assert_eq!(readings[0].analyte, Analyte::Glucose);
/// # Ok::<(), bios_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct SensingPlatform {
    channels: Vec<Option<Biosensor>>,
    chains: Vec<ReadoutChain>,
}

impl SensingPlatform {
    /// Creates a platform with `channels` empty channels, each given an
    /// integrated-CMOS readout chain seeded deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn new(channels: usize, seed: u64) -> SensingPlatform {
        assert!(channels > 0, "platform needs at least one channel");
        SensingPlatform {
            channels: (0..channels).map(|_| None).collect(),
            chains: (0..channels)
                .map(|i| ReadoutChain::integrated_cmos(seed.wrapping_add(i as u64)))
                .collect(),
        }
    }

    /// The paper's 5-channel microfabricated chip.
    #[must_use]
    pub fn epfl_chip(seed: u64) -> SensingPlatform {
        SensingPlatform::new(5, seed)
    }

    /// Mounts a sensor on `channel` (replacing any previous sensor).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ChannelOutOfRange`] for a bad index.
    pub fn mount(&mut self, channel: usize, sensor: Biosensor) -> Result<()> {
        let n = self.channels.len();
        let slot = self
            .channels
            .get_mut(channel)
            .ok_or(CoreError::ChannelOutOfRange {
                channel,
                available: n,
            })?;
        *slot = Some(sensor);
        Ok(())
    }

    /// Dismounts the sensor on `channel`, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ChannelOutOfRange`] for a bad index.
    pub fn dismount(&mut self, channel: usize) -> Result<Option<Biosensor>> {
        let n = self.channels.len();
        let slot = self
            .channels
            .get_mut(channel)
            .ok_or(CoreError::ChannelOutOfRange {
                channel,
                available: n,
            })?;
        Ok(slot.take())
    }

    /// The sensor mounted on `channel`, if any.
    #[must_use]
    pub fn sensor_at(&self, channel: usize) -> Option<&Biosensor> {
        self.channels.get(channel).and_then(Option::as_ref)
    }

    /// Measures one channel against a sample.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ChannelOutOfRange`] or
    /// [`CoreError::ChannelEmpty`].
    pub fn measure(&mut self, channel: usize, sample: &Sample) -> Result<ChannelReading> {
        let n = self.channels.len();
        let sensor = self
            .channels
            .get(channel)
            .ok_or(CoreError::ChannelOutOfRange {
                channel,
                available: n,
            })?
            .as_ref()
            .ok_or(CoreError::ChannelEmpty { channel })?;
        let true_current = sensor.respond_to_sample(sample);
        let current = self.chains[channel].digitize(true_current);
        Ok(ChannelReading {
            channel,
            analyte: sensor.analyte(),
            current,
        })
    }

    /// Measures every mounted channel against the same sample — the
    /// multi-target detection the platform exists for.
    pub fn measure_all(&mut self, sample: &Sample) -> Vec<ChannelReading> {
        (0..self.channels.len())
            .filter_map(|ch| self.measure(ch, sample).ok())
            .collect()
    }
}

/// The 3-D stacked integration model of Guiducci et al. \[17\]: vertically
/// stacked heterogeneous layers connected by through-silicon vias, with
/// a disposable biolayer on top and permanent readout/processing/power
/// layers below.
pub mod stack {

    /// A layer's role in the stack.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LayerKind {
        /// The disposable biolayer in contact with the sample.
        BioInterface,
        /// Analog front end (potentiostats, amplifiers, converters).
        Readout,
        /// Digital post-processing.
        Processing,
        /// Power management / energy storage.
        Power,
        /// Wireless transmission.
        Radio,
    }

    /// One layer of the stack.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Layer {
        /// The layer's role.
        pub kind: LayerKind,
        /// Whether this layer is replaced between measurements.
        pub disposable: bool,
        /// Fabrication cost in arbitrary units (for the NRE comparison).
        pub unit_cost: f64,
    }

    /// A vertically integrated sensing stack.
    ///
    /// # Examples
    ///
    /// ```
    /// use bios_core::platform::stack::IntegratedStack;
    ///
    /// let stack = IntegratedStack::guiducci();
    /// // Only the biolayer is disposable — the running cost is a small
    /// // fraction of the stack's build cost.
    /// assert!(stack.recurring_cost() < 0.2 * stack.build_cost());
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    pub struct IntegratedStack {
        layers: Vec<Layer>,
    }

    impl IntegratedStack {
        /// The \[17\] reference stack: disposable biolayer + permanent
        /// readout, processing, power, and radio layers.
        #[must_use]
        pub fn guiducci() -> IntegratedStack {
            IntegratedStack {
                layers: vec![
                    Layer {
                        kind: LayerKind::BioInterface,
                        disposable: true,
                        unit_cost: 1.0,
                    },
                    Layer {
                        kind: LayerKind::Readout,
                        disposable: false,
                        unit_cost: 8.0,
                    },
                    Layer {
                        kind: LayerKind::Processing,
                        disposable: false,
                        unit_cost: 6.0,
                    },
                    Layer {
                        kind: LayerKind::Power,
                        disposable: false,
                        unit_cost: 3.0,
                    },
                    Layer {
                        kind: LayerKind::Radio,
                        disposable: false,
                        unit_cost: 4.0,
                    },
                ],
            }
        }

        /// One-time cost of building the whole stack.
        #[must_use]
        pub fn build_cost(&self) -> f64 {
            self.layers.iter().map(|l| l.unit_cost).sum()
        }

        /// Per-measurement-cycle cost: only disposable layers are
        /// replaced.
        #[must_use]
        pub fn recurring_cost(&self) -> f64 {
            self.layers
                .iter()
                .filter(|l| l.disposable)
                .map(|l| l.unit_cost)
                .sum()
        }

        /// Cost of `n` measurement cycles: build once, replace the
        /// disposables each cycle.
        #[must_use]
        pub fn cost_over(&self, cycles: u64) -> f64 {
            self.build_cost() + self.recurring_cost() * cycles.saturating_sub(1) as f64
        }

        /// Cost of `n` cycles with fully disposable devices (the strip
        /// model the paper contrasts against): rebuild everything each
        /// time.
        #[must_use]
        pub fn disposable_cost_over(&self, cycles: u64) -> f64 {
            self.build_cost() * cycles as f64
        }

        /// The break-even cycle count beyond which the integrated stack
        /// is cheaper than fully disposable devices.
        #[must_use]
        pub fn break_even_cycles(&self) -> u64 {
            let build = self.build_cost();
            let rec = self.recurring_cost();
            if rec >= build {
                return u64::MAX;
            }
            // build + rec·(n−1) < build·n  →  n > (build − rec)/(build − rec) = 1;
            // first integer n where the inequality is strict:
            2
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn reference_stack_shape() {
            let s = IntegratedStack::guiducci();
            assert_eq!(s.layers.len(), 5);
            assert_eq!(
                s.layers.iter().filter(|l| l.disposable).count(),
                1,
                "only the biolayer is disposable"
            );
            assert_eq!(s.layers[0].kind, LayerKind::BioInterface);
        }

        #[test]
        fn integration_amortizes_cost() {
            let s = IntegratedStack::guiducci();
            let cycles = 100;
            assert!(s.cost_over(cycles) < s.disposable_cost_over(cycles) / 5.0);
        }

        #[test]
        fn single_cycle_costs_build() {
            let s = IntegratedStack::guiducci();
            assert!((s.cost_over(1) - s.build_cost()).abs() < 1e-12);
        }

        #[test]
        fn break_even_is_early() {
            assert_eq!(IntegratedStack::guiducci().break_even_cycles(), 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn loaded_platform() -> SensingPlatform {
        let mut p = SensingPlatform::epfl_chip(7);
        p.mount(0, catalog::our_glucose_sensor().build_sensor())
            .unwrap();
        p.mount(1, catalog::our_lactate_sensor().build_sensor())
            .unwrap();
        p.mount(2, catalog::our_glutamate_sensor().build_sensor())
            .unwrap();
        p
    }

    #[test]
    fn five_channel_chip() {
        assert_eq!(SensingPlatform::epfl_chip(0).channels.len(), 5);
    }

    #[test]
    fn mount_measure_dismount_cycle() {
        let mut p = loaded_platform();
        let sample = Sample::cell_culture_medium();
        let r = p.measure(0, &sample).unwrap();
        assert_eq!(r.analyte, Analyte::Glucose);
        assert!(r.current.as_amps() > 0.0);

        let removed = p.dismount(0).unwrap();
        assert!(removed.is_some());
        assert!(matches!(
            p.measure(0, &sample),
            Err(CoreError::ChannelEmpty { channel: 0 })
        ));
    }

    #[test]
    fn out_of_range_channel_errors() {
        let mut p = loaded_platform();
        assert!(matches!(
            p.measure(9, &Sample::blank()),
            Err(CoreError::ChannelOutOfRange { channel: 9, .. })
        ));
        assert!(p
            .mount(9, catalog::our_glucose_sensor().build_sensor())
            .is_err());
    }

    #[test]
    fn measure_all_skips_empty_channels() {
        let mut p = loaded_platform();
        let readings = p.measure_all(&Sample::cell_culture_medium());
        assert_eq!(readings.len(), 3);
        let analytes: Vec<Analyte> = readings.iter().map(|r| r.analyte).collect();
        assert_eq!(
            analytes,
            vec![Analyte::Glucose, Analyte::Lactate, Analyte::Glutamate]
        );
    }

    #[test]
    fn channels_respond_to_their_own_analytes() {
        let mut p = loaded_platform();
        // Glucose-only sample: glucose channel sees signal, lactate
        // channel sees only noise.
        let sample = Sample::blank()
            .with_analyte(Analyte::Glucose, bios_units::Molar::from_milli_molar(0.8));
        let glucose = p.measure(0, &sample).unwrap().current;
        let lactate = p.measure(1, &sample).unwrap().current;
        assert!(glucose.as_amps() > 10.0 * lactate.as_amps().abs());
    }

    #[test]
    fn blank_sample_reads_near_zero_everywhere() {
        let mut p = loaded_platform();
        for r in p.measure_all(&Sample::blank()) {
            assert!(r.current.as_nano_amps().abs() < 1.0, "{r:?}");
        }
    }
}
