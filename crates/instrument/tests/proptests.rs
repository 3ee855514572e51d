//! Property tests for the instrument chain: quantization bounds,
//! amplifier linearity, filter invariants, and noise statistics.
//! Sampled deterministically via `bios_prng::cases`.

use bios_instrument::filter::{exponential, moving_average, savitzky_golay};
use bios_instrument::noise::NoiseGenerator;
use bios_instrument::{Adc, ReadoutChain, TransimpedanceAmplifier};
use bios_prng::cases;
use bios_units::{Amperes, Ohms, Volts};

/// Quantization error never exceeds half an LSB in range.
#[test]
fn adc_error_bounded() {
    cases(0x0401, 64, |rng| {
        let bits = rng.index_in(4, 20) as u8;
        let v_mv = rng.uniform_in(-3000.0, 3000.0);
        let adc = Adc::new(bits, Volts::from_volts(3.3));
        let v = Volts::from_milli_volts(v_mv);
        let q = adc.digitize(v);
        let err = (q.as_volts() - v.as_volts()).abs();
        assert!(err <= adc.lsb().as_volts() / 2.0 + 1e-12);
    });
}

/// ADC codes are monotone in the input voltage.
#[test]
fn adc_monotone() {
    cases(0x0402, 64, |rng| {
        let bits = rng.index_in(4, 20) as u8;
        let a = rng.uniform_in(-3.0, 3.0);
        let d = rng.uniform_in(0.0, 1.0);
        let adc = Adc::new(bits, Volts::from_volts(3.3));
        let c1 = adc.quantize(Volts::from_volts(a));
        let c2 = adc.quantize(Volts::from_volts(a + d));
        assert!(c2 >= c1);
    });
}

/// The amplifier is exactly linear inside its rails and clips hard
/// outside.
#[test]
fn amplifier_linearity_and_clipping() {
    cases(0x0403, 64, |rng| {
        let gain_k = rng.uniform_in(1.0, 10_000.0);
        let i_na = rng.uniform_in(-1e6, 1e6);
        let tia =
            TransimpedanceAmplifier::new(Ohms::from_ohms(gain_k * 1e3), Volts::from_volts(3.3));
        let i = Amperes::from_amps(i_na * 1e-9);
        let v = tia.convert(i);
        assert!(v.as_volts().abs() <= 3.3 + 1e-12);
        if i.as_amps().abs() <= tia.full_scale_current().as_amps() {
            let back = tia.invert(v);
            assert!((back.as_nano_amps() - i_na).abs() <= i_na.abs() * 1e-9 + 1e-9);
        }
    });
}

/// Auto-ranging never saturates at the expected maximum.
#[test]
fn auto_range_never_clips() {
    cases(0x0404, 64, |rng| {
        let max_na = rng.log_uniform_in(0.1, 1e6);
        let expected = Amperes::from_amps(max_na * 1e-9);
        let tia = TransimpedanceAmplifier::auto_range(expected, Volts::from_volts(3.3));
        assert!(expected <= tia.full_scale_current());
    });
}

/// Filters preserve the mean of a constant signal exactly and never
/// extend the value range of the input.
#[test]
fn filters_respect_constant_signals() {
    cases(0x0405, 64, |rng| {
        let level = rng.uniform_in(-100.0, 100.0);
        let n = rng.index_in(10, 100);
        let x = vec![level; n];
        for y in [
            moving_average(&x, 5),
            savitzky_golay(&x, 7),
            exponential(&x, 0.3),
        ] {
            assert_eq!(y.len(), n);
            for v in y {
                assert!((v - level).abs() < 1e-9);
            }
        }
    });
}

/// Moving average output stays within [min, max] of the input.
#[test]
fn moving_average_no_overshoot() {
    cases(0x0406, 64, |rng| {
        let n = rng.index_in(10, 80);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform_in(-10.0, 10.0)).collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in moving_average(&xs, 5) {
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    });
}

/// Noise generator: identical seeds give identical streams.
#[test]
fn noise_reproducibility() {
    cases(0x0408, 64, |rng| {
        let seed = rng.next_u64() % 10_000;
        let rms_pa = rng.uniform_in(1.0, 1e4);
        let mut a = NoiseGenerator::new(seed, Amperes::from_amps(rms_pa * 1e-12));
        let mut b = NoiseGenerator::new(seed, Amperes::from_amps(rms_pa * 1e-12));
        for _ in 0..32 {
            assert_eq!(a.sample().as_amps(), b.sample().as_amps());
        }
    });
}

/// The full chain is unbiased for in-range signals: the mean of many
/// digitized readings approaches the true current.
#[test]
fn chain_is_unbiased() {
    cases(0x0409, 64, |rng| {
        let seed = rng.next_u64() % 1000;
        let i_na = rng.uniform_in(10.0, 2000.0);
        let mut chain =
            ReadoutChain::benchtop(seed).auto_ranged_for(Amperes::from_amps(i_na * 2.0 * 1e-9));
        let i = Amperes::from_amps(i_na * 1e-9);
        let n = 300;
        let mean: f64 = (0..n)
            .map(|_| chain.digitize(i).as_nano_amps())
            .sum::<f64>()
            / f64::from(n);
        // Bias below 2 % of signal (noise ~0.06 nA, quantization ≲ LSB).
        assert!(
            (mean - i_na).abs() < 0.02 * i_na + 1.0,
            "mean {mean} vs {i_na}"
        );
    });
}
