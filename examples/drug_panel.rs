//! The personalized-therapy scenario of the paper's introduction:
//! monitoring anticancer drug levels in a patient sample with the
//! multi-panel CYP450 platform.
//!
//! Mounts all four CYP sensors on screen-printed electrodes, calibrates
//! the whole panel concurrently through the fleet runtime, then
//! quantifies an unknown "patient" cocktail of cyclophosphamide +
//! ifosfamide by inverting the calibration fits.
//!
//! Run with: `cargo run --example drug_panel`

// An example reports on stdout by design.
#![allow(clippy::print_stdout)]

use biosim::core::catalog;
use biosim::prelude::*;
use biosim::runtime::JobError;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Multi-panel anticancer drug monitoring ==\n");

    // A patient sample after combination chemotherapy (unknown to the
    // quantification step).
    let truth_cp = Molar::from_micro_molar(35.0);
    let truth_ifo = Molar::from_micro_molar(60.0);
    let patient = Sample::physiological_serum()
        .with_analyte(Analyte::Cyclophosphamide, truth_cp)
        .with_analyte(Analyte::Ifosfamide, truth_ifo);

    // Calibrate every channel of the panel in one fleet run: the four
    // CYP sensors fan out across the runtime's workers and come back
    // with per-job error reporting.
    let runtime = Runtime::new(RuntimeConfig::from_env());
    let fleet = Fleet::builder("cyp-panel")
        .sensors(catalog::cyp_sensors())
        .seed(7)
        .build();
    let panel: FleetReport = runtime.run(&fleet);
    println!(
        "panel calibrated: {} channels on {} workers\n",
        fleet.len(),
        panel.workers
    );
    // Wall-clock time varies run to run, so it stays off stdout.
    eprintln!("panel calibration took {:?}", panel.elapsed);
    for (result, error) in panel.failures() {
        eprintln!("channel {} failed: {error}", result.sensor);
    }

    for entry in catalog::cyp_sensors() {
        let outcome = panel
            .outcome(entry.id(), 7)
            .ok_or_else(|| JobError::Panicked(format!("channel {} missing", entry.id())))?;
        let fit_sensitivity = outcome.summary.sensitivity;

        // Measure the patient sample on the calibrated channel.
        let sensor = entry.build_sensor();
        let mut chain = entry.build_readout(99);
        let current = chain.digitize(sensor.respond_to_sample(&patient));

        // Invert: concentration = current / (sensitivity × area).
        let slope_micro_amps_per_milli_molar = fit_sensitivity
            .as_micro_amps_per_milli_molar_square_cm()
            * sensor.electrode().area().as_square_cm();
        let estimated = Molar::from_milli_molar(
            (current.as_micro_amps() / slope_micro_amps_per_milli_molar).max(0.0),
        );

        let true_level = patient.concentration(entry.analyte());
        println!("{:<22} ({})", entry.label(), entry.analyte());
        println!("  calibrated sensitivity: {fit_sensitivity}");
        println!(
            "  LOD:                    {}",
            outcome.summary.detection_limit
        );
        println!("  channel current:        {current}");
        if true_level.as_molar() > 0.0 {
            let err = (estimated.as_micro_molar() - true_level.as_micro_molar())
                / true_level.as_micro_molar();
            println!(
                "  estimated {:.1} µM vs true {:.1} µM ({:+.1}%)",
                estimated.as_micro_molar(),
                true_level.as_micro_molar(),
                err * 100.0
            );
        } else {
            println!(
                "  estimated {:.2} µM (drug absent — reading is noise, \
                 below LOD {})",
                estimated.as_micro_molar(),
                outcome.summary.detection_limit
            );
        }
        println!();
    }

    // External calibration under-reads in serum (matrix suppression);
    // standard addition on the sample itself removes the bias.
    println!("== Matrix correction by standard addition (CP channel) ==\n");
    let Some(entry) = catalog::cyp_sensors()
        .into_iter()
        .find(|e| e.analyte() == Analyte::Cyclophosphamide)
    else {
        eprintln!("catalog has no cyclophosphamide sensor");
        return Ok(());
    };
    let sensor = entry.build_sensor();
    let mut chain = entry.build_readout(123);
    use biosim::analytics::standard_addition::{estimate_unknown, Addition};
    let series: Vec<Addition> = [0.0, 20.0, 40.0, 60.0]
        .iter()
        .map(|&spike| {
            let total = Molar::from_micro_molar(truth_cp.as_micro_molar() + spike);
            let spiked = patient
                .clone()
                .with_analyte(Analyte::Cyclophosphamide, total);
            Addition {
                added: Molar::from_micro_molar(spike),
                signal: chain.digitize(sensor.respond_to_sample(&spiked)),
            }
        })
        .collect();
    let corrected = estimate_unknown(&series).map_err(CoreError::from)?;
    println!(
        "standard-addition estimate: {:.1} µM vs true {:.1} µM ({:+.1}%)\n",
        corrected.as_micro_molar(),
        truth_cp.as_micro_molar(),
        (corrected.as_micro_molar() / truth_cp.as_micro_molar() - 1.0) * 100.0
    );

    println!(
        "Therapy guidance: a clinician would titrate the next dose from\n\
         the measured drug levels instead of the population mean — the\n\
         personalized-medicine loop the paper motivates."
    );
    Ok(())
}
