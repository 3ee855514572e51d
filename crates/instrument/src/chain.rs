//! The assembled readout chain: noise → amplifier → ADC → filter.

use bios_faults::{Faultable, RealizedFaults};
use bios_units::{Amperes, Ohms, Volts};

use crate::adc::Adc;
use crate::amplifier::TransimpedanceAmplifier;
use crate::fault::{FaultState, ReadoutFaults, SampleFate};
use crate::filter::FilterSpec;
use crate::noise::NoiseGenerator;

/// A complete current-measurement chain with realistic imperfections.
///
/// Three presets reflect the §2.5 narrative:
///
/// * [`ReadoutChain::benchtop`] — a lab potentiostat (reference quality);
/// * [`ReadoutChain::integrated_cmos`] — the paper's integrated front end,
///   with the SNR benefit of placing the electronics next to the sensor;
/// * [`ReadoutChain::low_cost`] — a noisy disposable-reader baseline.
///
/// # Examples
///
/// ```
/// use bios_instrument::ReadoutChain;
/// use bios_units::Amperes;
///
/// let mut cmos = ReadoutChain::integrated_cmos(1);
/// let mut cheap = ReadoutChain::low_cost(1);
/// assert!(cmos.noise_rms().as_amps() < cheap.noise_rms().as_amps());
/// ```
#[derive(Debug, Clone)]
pub struct ReadoutChain {
    tia: TransimpedanceAmplifier,
    adc: Adc,
    noise: NoiseGenerator,
    filter: FilterSpec,
    /// Injected-fault stage; `None` keeps the healthy path untouched.
    faults: Option<FaultState>,
}

impl ReadoutChain {
    /// Builds a chain from explicit stages.
    #[must_use]
    pub fn new(
        tia: TransimpedanceAmplifier,
        adc: Adc,
        noise: NoiseGenerator,
        filter: FilterSpec,
    ) -> ReadoutChain {
        ReadoutChain {
            tia,
            adc,
            noise,
            filter,
            faults: None,
        }
    }

    /// Laboratory benchtop potentiostat: 1 MΩ gain, 16-bit converter,
    /// ~60 pA input noise.
    #[must_use]
    pub fn benchtop(seed: u64) -> ReadoutChain {
        ReadoutChain {
            tia: TransimpedanceAmplifier::new(Ohms::from_mega_ohms(1.0), Volts::from_volts(3.3)),
            adc: Adc::new(16, Volts::from_volts(3.3)),
            noise: NoiseGenerator::new(seed, Amperes::from_pico_amps(50.0))
                .with_flicker(Amperes::from_pico_amps(30.0)),
            filter: FilterSpec::MovingAverage(5),
            faults: None,
        }
    }

    /// Integrated CMOS front end co-located with the sensor: shorter
    /// leads and on-chip conversion cut pickup and flicker.
    #[must_use]
    pub fn integrated_cmos(seed: u64) -> ReadoutChain {
        ReadoutChain {
            tia: TransimpedanceAmplifier::new(Ohms::from_mega_ohms(10.0), Volts::from_volts(1.8)),
            adc: Adc::new(14, Volts::from_volts(1.8)),
            noise: NoiseGenerator::new(seed, Amperes::from_pico_amps(20.0))
                .with_flicker(Amperes::from_pico_amps(10.0)),
            filter: FilterSpec::MovingAverage(5),
            faults: None,
        }
    }

    /// Cheap handheld reader: coarse converter, long leads, mains pickup.
    #[must_use]
    pub fn low_cost(seed: u64) -> ReadoutChain {
        ReadoutChain {
            tia: TransimpedanceAmplifier::new(Ohms::from_mega_ohms(1.0), Volts::from_volts(3.3)),
            adc: Adc::new(12, Volts::from_volts(3.3)),
            noise: NoiseGenerator::new(seed, Amperes::from_pico_amps(2000.0))
                .with_flicker(Amperes::from_pico_amps(1500.0)),
            filter: FilterSpec::MovingAverage(3),
            faults: None,
        }
    }

    /// Auto-ranges the amplifier of an existing chain so `expected_max`
    /// sits inside 80 % of full scale.
    #[must_use]
    pub fn auto_ranged_for(mut self, expected_max: Amperes) -> ReadoutChain {
        self.tia = TransimpedanceAmplifier::auto_range(expected_max, self.tia.rail());
        self
    }

    /// Replaces the post-filter.
    #[must_use]
    pub fn with_filter(mut self, filter: FilterSpec) -> ReadoutChain {
        self.filter = filter;
        self
    }

    /// Installs an injected-fault stage. A passive configuration is
    /// ignored so the healthy sampling path stays bit-identical.
    #[must_use]
    pub fn with_readout_faults(mut self, config: ReadoutFaults) -> ReadoutChain {
        self.faults = if config.is_passive() {
            None
        } else {
            Some(FaultState::new(config))
        };
        self
    }

    /// Input-referred RMS noise of the front end (excluding
    /// quantization).
    #[must_use]
    pub fn noise_rms(&self) -> Amperes {
        self.noise.total_rms()
    }

    /// Measures one current sample through the full chain: adds input
    /// noise, amplifies (with clipping), quantizes, and refers the result
    /// back to a current. With a fault stage installed the sample may
    /// additionally be spiked, dropped, saturated early, or lose stuck
    /// ADC code bits.
    pub fn digitize(&mut self, true_current: Amperes) -> Amperes {
        let noisy = Amperes::from_amps(true_current.as_amps() + self.noise.sample().as_amps());
        let Some(state) = &mut self.faults else {
            let v = self.tia.convert(noisy);
            let vq = self.adc.digitize(v);
            return self.tia.invert(vq);
        };
        let full_scale = self.tia.full_scale_current().as_amps();
        match state.next_sample(full_scale) {
            SampleFate::Dropped { held_amps } => Amperes::from_amps(held_amps),
            SampleFate::Convert { spike_amps } => {
                let disturbed = Amperes::from_amps(noisy.as_amps() + spike_amps);
                let mut v = self.tia.convert(disturbed);
                let saturation = state.config().saturation;
                if saturation > 0.0 {
                    let limit = self.tia.rail().as_volts() * (1.0 - saturation);
                    v = Volts::from_volts(v.as_volts().clamp(-limit, limit));
                }
                let mut code = self.adc.quantize(v);
                let mask = i64::from(state.config().stuck_mask);
                if mask != 0 {
                    code &= !mask;
                }
                let reading = self.tia.invert(self.adc.reconstruct(code));
                state.record(reading.as_amps());
                reading
            }
        }
    }

    /// Measures a whole trace and applies the configured post-filter.
    pub fn digitize_trace(&mut self, trace: &[Amperes]) -> Vec<Amperes> {
        let raw: Vec<f64> = trace.iter().map(|&i| self.digitize(i).as_amps()).collect();
        self.filter
            .apply(&raw)
            .into_iter()
            .map(Amperes::from_amps)
            .collect()
    }
}

impl Faultable for ReadoutChain {
    /// Maps the instrument-layer fields of a realized fault set onto a
    /// fault stage. A realization with no instrument faults returns the
    /// chain unchanged (no stage installed).
    fn with_faults(self, faults: &RealizedFaults) -> Self {
        let config = ReadoutFaults {
            saturation: faults.adc_saturation,
            stuck_mask: faults.adc_stuck_mask,
            spike_probability: faults.spike_probability,
            spike_magnitude: faults.spike_magnitude,
            dropout_probability: faults.dropout_probability,
            seed: faults.noise_seed,
        };
        self.with_readout_faults(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard deviation of `n` digitized zero-current samples: the
    /// blank σ of the 3σ detection limit.
    fn blank_sigma(chain: &mut ReadoutChain, n: usize) -> Amperes {
        let xs: Vec<f64> = (0..n)
            .map(|_| chain.digitize(Amperes::ZERO).as_amps())
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Amperes::from_amps(var.sqrt())
    }

    #[test]
    fn digitize_preserves_signal_scale() {
        let mut chain = ReadoutChain::benchtop(5);
        let i = Amperes::from_amps(500.0e-9);
        let mean: f64 = (0..200)
            .map(|_| chain.digitize(i).as_nano_amps())
            .sum::<f64>()
            / 200.0;
        assert!((mean - 500.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn cmos_quieter_than_low_cost() {
        let mut cmos = ReadoutChain::integrated_cmos(9);
        let mut cheap = ReadoutChain::low_cost(9);
        let s1 = blank_sigma(&mut cmos, 2000);
        let s2 = blank_sigma(&mut cheap, 2000);
        assert!(s1.as_amps() * 3.0 < s2.as_amps(), "{s1} vs {s2}");
    }

    #[test]
    fn blank_sigma_close_to_generator_rms() {
        let mut chain = ReadoutChain::benchtop(13).with_filter(FilterSpec::None);
        let sigma = blank_sigma(&mut chain, 5000);
        let spec = chain.noise_rms();
        // Quantization adds a little; flicker correlations add scatter.
        assert!(sigma.as_amps() > 0.5 * spec.as_amps());
        assert!(sigma.as_amps() < 2.0 * spec.as_amps());
    }

    #[test]
    fn clipping_limits_large_signals() {
        let mut chain = ReadoutChain::benchtop(1);
        let reading = chain.digitize(Amperes::from_micro_amps(100.0));
        let fs = chain.tia.full_scale_current();
        assert!(reading.as_amps() <= fs.as_amps() * 1.001);
    }

    #[test]
    fn auto_range_prevents_clipping() {
        let expected = Amperes::from_micro_amps(50.0);
        let mut chain = ReadoutChain::benchtop(1).auto_ranged_for(expected);
        let reading = chain.digitize(expected);
        assert!((reading.as_micro_amps() - 50.0).abs() < 1.0);
    }

    #[test]
    fn healthy_realization_installs_no_stage() {
        let chain = ReadoutChain::benchtop(3).with_faults(&RealizedFaults::healthy());
        assert!(chain.faults.is_none());
    }

    #[test]
    fn stuck_code_biases_readings_toward_zero_codes() {
        let i = Amperes::from_amps(400.0e-9);
        let mut healthy = ReadoutChain::benchtop(11).with_filter(FilterSpec::None);
        let mut faults = RealizedFaults::healthy();
        faults.adc_stuck_mask = 0b1_1111;
        let mut stuck = ReadoutChain::benchtop(11)
            .with_filter(FilterSpec::None)
            .with_faults(&faults);
        let mean = |chain: &mut ReadoutChain| {
            (0..500).map(|_| chain.digitize(i).as_amps()).sum::<f64>() / 500.0
        };
        // Forcing low bits to zero truncates codes toward zero: the
        // faulted mean must sit below the healthy mean.
        assert!(mean(&mut stuck) < mean(&mut healthy));
    }

    #[test]
    fn saturation_caps_readings_below_full_scale() {
        let mut faults = RealizedFaults::healthy();
        faults.adc_saturation = 0.5;
        let mut chain = ReadoutChain::benchtop(1).with_faults(&faults);
        let reading = chain.digitize(Amperes::from_micro_amps(100.0));
        let fs = chain.tia.full_scale_current();
        assert!(reading.as_amps() <= fs.as_amps() * 0.5 * 1.001);
    }

    #[test]
    fn spikes_inflate_blank_sigma() {
        let mut faults = RealizedFaults::healthy();
        faults.spike_probability = 0.2;
        faults.spike_magnitude = 0.3;
        faults.noise_seed = 77;
        let sigma = |chain: &mut ReadoutChain| blank_sigma(chain, 2000).as_amps();
        let mut healthy = ReadoutChain::benchtop(5).with_filter(FilterSpec::None);
        let mut spiky = ReadoutChain::benchtop(5)
            .with_filter(FilterSpec::None)
            .with_faults(&faults);
        assert!(sigma(&mut spiky) > 10.0 * sigma(&mut healthy));
    }

    #[test]
    fn dropout_repeats_held_readings() {
        let mut faults = RealizedFaults::healthy();
        faults.dropout_probability = 0.5;
        faults.noise_seed = 9;
        let mut chain = ReadoutChain::benchtop(5)
            .with_filter(FilterSpec::None)
            .with_faults(&faults);
        let readings: Vec<f64> = (0..200)
            .map(|_| chain.digitize(Amperes::from_amps(300.0e-9)).as_amps())
            .collect();
        let repeats = readings.windows(2).filter(|w| w[0] == w[1]).count();
        // Consecutive identical analog readings are (measure-)zero
        // probability without dropout holds.
        assert!(repeats > 20, "only {repeats} held samples");
    }

    #[test]
    fn faulted_chain_is_deterministic() {
        let mut faults = RealizedFaults::healthy();
        faults.spike_probability = 0.1;
        faults.spike_magnitude = 0.5;
        faults.dropout_probability = 0.1;
        faults.noise_seed = 1234;
        let run = || {
            let mut chain = ReadoutChain::benchtop(8).with_faults(&faults);
            (0..256)
                .map(|_| chain.digitize(Amperes::from_amps(100.0e-9)).as_amps())
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_filtering_reduces_scatter() {
        let trace = vec![Amperes::from_amps(100.0e-9); 200];
        let mut raw_chain = ReadoutChain::benchtop(21).with_filter(FilterSpec::None);
        let mut filt_chain = ReadoutChain::benchtop(21).with_filter(FilterSpec::MovingAverage(9));
        let spread = |xs: &[Amperes]| {
            let m = xs.iter().map(|x| x.as_amps()).sum::<f64>() / xs.len() as f64;
            xs.iter()
                .map(|x| (x.as_amps() - m).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let raw = raw_chain.digitize_trace(&trace);
        let filt = filt_chain.digitize_trace(&trace);
        assert!(spread(&filt) < spread(&raw));
    }
}
