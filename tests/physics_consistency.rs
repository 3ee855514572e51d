//! Cross-crate physics consistency: the closed-form relations, the
//! numerical solvers, and the sensor forward model must agree with each
//! other where their domains overlap.

use biosim::electrochem::diffusion::{DiffusionGrid, SurfaceBoundary};
use biosim::electrochem::voltammetry::CvSimulator;
use biosim::electrochem::{cottrell, randles_sevcik, CyclicSweep, RedoxCouple};
use biosim::nanomaterial::SurfaceModification;
use biosim::units::{DiffusionCoefficient, Molar, ScanRate, Seconds, SquareCm, Volts};

#[test]
fn diffusion_solver_reproduces_cottrell_over_a_decade_of_time() {
    let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
    let bulk = Molar::from_milli_molar(1.0);
    let area = SquareCm::from_square_cm(1.0);
    let mut grid = DiffusionGrid::new(d, bulk, 600e-4, 1201).expect("valid grid");
    grid.set_surface(SurfaceBoundary::Concentration(0.0));
    let dt = Seconds::from_millis(1.0);
    let mut elapsed = 0.0;
    for checkpoint in [0.5f64, 1.0, 2.0, 5.0] {
        while elapsed < checkpoint - 1e-9 {
            grid.step_crank_nicolson(dt);
            elapsed += dt.as_seconds();
        }
        let i_grid = grid.flux_mol_per_cm2_s() * 96485.332 * area.as_square_cm();
        let i_cottrell =
            cottrell::cottrell_current(1, area, d, bulk, Seconds::from_seconds(checkpoint));
        let rel = (i_grid - i_cottrell.as_amps()).abs() / i_cottrell.as_amps();
        assert!(rel < 0.03, "t = {checkpoint}s: {rel}");
    }
}

#[test]
fn cv_simulation_tracks_randles_sevcik_scaling_in_scan_rate() {
    let couple = RedoxCouple::builder("fast")
        .standard_potential(Volts::from_milli_volts(200.0))
        .rate_constant(1.0)
        .diffusion(DiffusionCoefficient::from_square_cm_per_second(6.5e-6))
        .build();
    let area = SquareCm::from_square_cm(0.1);
    let c = Molar::from_milli_molar(1.0);
    let peak_at = |mv_per_s: f64| {
        let sweep = CyclicSweep::new(
            Volts::from_milli_volts(-200.0),
            Volts::from_milli_volts(600.0),
            ScanRate::from_milli_volts_per_second(mv_per_s),
            1,
        );
        CvSimulator::new(couple.clone(), area)
            .with_reduced_bulk(c)
            .with_nodes(300)
            .expect("enough nodes")
            .run(&sweep)
            .anodic_peak()
            .unwrap()
            .current
            .as_amps()
    };
    let i_50 = peak_at(50.0);
    let i_200 = peak_at(200.0);
    // Randles–Ševčík: 4× the scan rate doubles the peak.
    let ratio = i_200 / i_50;
    assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
}

#[test]
fn cnt_modification_pulls_sluggish_couple_toward_reversible_peak() {
    // A slow couple on a bare electrode gives a depressed, shifted peak;
    // the same couple accelerated by the MWCNT film approaches the
    // reversible Randles–Ševčík limit — the paper's §2.4 claim.
    let slow = RedoxCouple::builder("sluggish probe")
        .standard_potential(Volts::from_milli_volts(200.0))
        .rate_constant(5e-4)
        .diffusion(DiffusionCoefficient::from_square_cm_per_second(6.5e-6))
        .build();
    let area = SquareCm::from_square_cm(0.1);
    let c = Molar::from_milli_molar(1.0);
    let sweep = CyclicSweep::new(
        Volts::from_milli_volts(-200.0),
        Volts::from_milli_volts(600.0),
        ScanRate::from_milli_volts_per_second(100.0),
        1,
    );
    let run = |couple: RedoxCouple| {
        CvSimulator::new(couple, area)
            .with_reduced_bulk(c)
            .with_nodes(300)
            .expect("enough nodes")
            .run(&sweep)
    };
    let bare = run(slow.clone());
    let on_cnt = run(SurfaceModification::mwcnt_nafion().modify_couple(&slow));
    let analytic = randles_sevcik::reversible_peak_current(
        1,
        area,
        slow.diffusion(),
        c,
        ScanRate::from_milli_volts_per_second(100.0),
    );

    let bare_peak = bare.anodic_peak().unwrap();
    let cnt_peak = on_cnt.anodic_peak().unwrap();
    // CNT film raises the peak toward the reversible limit…
    assert!(cnt_peak.current > bare_peak.current);
    let cnt_gap = (cnt_peak.current.as_amps() - analytic.as_amps()).abs() / analytic.as_amps();
    let bare_gap = (bare_peak.current.as_amps() - analytic.as_amps()).abs() / analytic.as_amps();
    assert!(cnt_gap < bare_gap);
    assert!(cnt_gap < 0.10, "CNT peak still {cnt_gap} from reversible");
    // …and closes the peak separation toward 57 mV.
    let sep_bare = bare.peak_separation().unwrap();
    let sep_cnt = on_cnt.peak_separation().unwrap();
    assert!(sep_cnt < sep_bare);
}

#[test]
fn sensor_model_sensitivity_agrees_with_calibrated_slope_noise_free() {
    use biosim::core::catalog;
    use biosim::core::protocol::{CalibrationProtocol, Chronoamperometry};
    use biosim::instrument::filter::FilterSpec;
    use biosim::instrument::noise::NoiseGenerator;
    use biosim::instrument::{Adc, ReadoutChain, TransimpedanceAmplifier};
    use biosim::units::{Amperes, Ohms};

    // A nearly noiseless, very fine chain: the measured slope must match
    // the analytic model slope to better than 2 %.
    for entry in [
        catalog::our_glucose_sensor(),
        catalog::our_lactate_sensor(),
        catalog::our_glutamate_sensor(),
    ] {
        let sensor = entry.build_sensor();
        let max = sensor.faradaic_current(entry.sweep().high());
        let tia = TransimpedanceAmplifier::auto_range(max * 1.2, Volts::from_volts(3.3));
        let _ = Ohms::from_ohms(1.0); // (ohms imported for clarity of the chain's units)
        let mut chain = ReadoutChain::new(
            tia,
            Adc::new(24, Volts::from_volts(3.3)),
            NoiseGenerator::new(1, Amperes::from_pico_amps(0.001)),
            FilterSpec::None,
        );
        let curve =
            Chronoamperometry::default().calibrate_over(&sensor, &mut chain, &entry.sweep(), 25);
        let measured = curve.sensitivity().unwrap();
        // The linear-range fit spans finite concentrations, so a small
        // negative Michaelis–Menten bias vs the C→0 tangent is expected;
        // it must stay within the linearity tolerance band.
        let model = sensor.model_sensitivity();
        let rel = (measured.as_micro_amps_per_milli_molar_square_cm()
            - model.as_micro_amps_per_milli_molar_square_cm())
            / model.as_micro_amps_per_milli_molar_square_cm();
        assert!(rel <= 0.0, "{}: measured above tangent?", entry.id());
        assert!(rel > -0.10, "{}: bias {rel}", entry.id());
    }
}

#[test]
fn oxidase_sensor_output_is_oxygen_limited() {
    use biosim::core::sensor::{Biosensor, Technique};
    use biosim::core::Analyte;
    use biosim::enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
    use biosim::nanomaterial::ElectrodeStock;
    use biosim::units::SurfaceLoading;

    let make = |o2_micro_molar: f64| {
        let enzyme = Oxidase::stock(OxidaseKind::GlucoseOxidase)
            .with_oxygen(Molar::from_micro_molar(o2_micro_molar));
        let film = EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(100.0))
            .build();
        Biosensor::builder("o2 study", Analyte::Glucose)
            .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
            .modification(SurfaceModification::mwcnt_nafion())
            .oxidase(enzyme, film)
            .technique(Technique::paper_chronoamperometry())
            .build()
    };
    let air = make(250.0);
    let hypoxic = make(25.0);
    let c = Molar::from_milli_molar(5.0);
    assert!(hypoxic.faradaic_current(c) < air.faradaic_current(c));
}
