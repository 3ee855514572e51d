//! Property tests for the electrochemistry engine: scaling laws and
//! waveform bounds over randomized parameters.
//! Sampled deterministically via `bios_prng::cases`.

use bios_electrochem::waveform::{CyclicSweep, Waveform};
use bios_electrochem::{cottrell, randles_sevcik};
use bios_prng::cases;
use bios_units::{DiffusionCoefficient, Molar, ScanRate, Seconds, SquareCm, Volts};

/// Cottrell current scales exactly linearly in area and
/// concentration and as 1/√t.
#[test]
fn cottrell_scaling_laws() {
    cases(0x0101, 48, |rng| {
        let area = rng.log_uniform_in(1e-3, 1.0);
        let c = rng.log_uniform_in(1e-3, 20.0);
        let t = rng.log_uniform_in(0.01, 100.0);
        let k = rng.uniform_in(1.5, 10.0);
        let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
        let base = cottrell::cottrell_current(
            1,
            SquareCm::from_square_cm(area),
            d,
            Molar::from_milli_molar(c),
            Seconds::from_seconds(t),
        );
        let double_area = cottrell::cottrell_current(
            1,
            SquareCm::from_square_cm(area * k),
            d,
            Molar::from_milli_molar(c),
            Seconds::from_seconds(t),
        );
        assert!((double_area.as_amps() / base.as_amps() - k).abs() < 1e-9);
        let later = cottrell::cottrell_current(
            1,
            SquareCm::from_square_cm(area),
            d,
            Molar::from_milli_molar(c),
            Seconds::from_seconds(t * k * k),
        );
        assert!((base.as_amps() / later.as_amps() - k).abs() < 1e-9);
    });
}

/// Randles–Ševčík peak is exactly √v in scan rate and linear in C.
#[test]
fn randles_sevcik_scalings() {
    cases(0x0104, 48, |rng| {
        let v = rng.log_uniform_in(0.005, 1.0);
        let c = rng.log_uniform_in(0.01, 10.0);
        let k = rng.uniform_in(1.2, 8.0);
        let d = DiffusionCoefficient::from_square_cm_per_second(6.5e-6);
        let area = SquareCm::from_square_cm(0.1);
        let base = randles_sevcik::reversible_peak_current(
            1,
            area,
            d,
            Molar::from_milli_molar(c),
            ScanRate::from_milli_volts_per_second(v * 1e3),
        );
        let faster = randles_sevcik::reversible_peak_current(
            1,
            area,
            d,
            Molar::from_milli_molar(c),
            ScanRate::from_milli_volts_per_second(v * k * k * 1e3),
        );
        assert!((faster.as_amps() / base.as_amps() - k).abs() < 1e-9);
        let richer = randles_sevcik::reversible_peak_current(
            1,
            area,
            d,
            Molar::from_milli_molar(c * k),
            ScanRate::from_milli_volts_per_second(v * 1e3),
        );
        assert!((richer.as_amps() / base.as_amps() - k).abs() < 1e-9);
    });
}

/// A cyclic sweep stays inside its programmed potential window.
#[test]
fn waveforms_stay_in_window() {
    cases(0x0108, 48, |rng| {
        let low_mv = rng.uniform_in(-800.0, -10.0);
        let high_mv = rng.uniform_in(10.0, 800.0);
        let rate = rng.uniform_in(5.0, 500.0);
        let t_frac = rng.uniform();
        let lo = Volts::from_milli_volts(low_mv);
        let hi = Volts::from_milli_volts(high_mv);
        let sr = ScanRate::from_milli_volts_per_second(rate);

        let cv = CyclicSweep::new(lo, hi, sr, 1);
        let t = Seconds::from_seconds(cv.duration().as_seconds() * t_frac);
        let e = cv.potential_at(t);
        assert!(e >= lo && e <= hi, "CV left window: {e}");
    });
}

/// Cyclic sweeps return exactly to the start potential at the end
/// of every cycle.
#[test]
fn cyclic_sweep_closes() {
    cases(0x0109, 48, |rng| {
        let low_mv = rng.uniform_in(-500.0, 0.0);
        let high_mv = rng.uniform_in(10.0, 500.0);
        let cycles = rng.index_in(1, 4) as u32;
        let cv = CyclicSweep::new(
            Volts::from_milli_volts(low_mv),
            Volts::from_milli_volts(high_mv),
            ScanRate::from_milli_volts_per_second(100.0),
            cycles,
        );
        for k in 1..=cycles {
            let t = Seconds::from_seconds(cv.cycle_duration().as_seconds() * f64::from(k) - 1e-9);
            let e = cv.potential_at(t);
            assert!((e.as_milli_volts() - low_mv).abs() < 1.0, "cycle {k}: {e}");
        }
    });
}
