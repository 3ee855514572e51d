//! The §2.3 classification, executable: one working model per
//! transduction family the paper surveys — amperometric (the platform's
//! own), potentiometric, Faradic impedimetric, field-effect, surface
//! plasmon resonance, and piezoelectric (QCM).
//!
//! Run with: `cargo run --example transduction_zoo`

// An example reports on stdout by design.
#![allow(clippy::print_stdout)]

use biosim::core::catalog;
use biosim::electrochem::field_effect::BioFet;
use biosim::electrochem::impedance::{estimate_charge_transfer, RandlesCell};
use biosim::electrochem::potentiometry::{Interferent, IonSelectiveElectrode};
use biosim::labelfree::{QuartzCrystalMicrobalance, SprSensor};
use biosim::prelude::*;

fn main() -> Result<(), CoreError> {
    println!("== 1. Amperometric (the paper's choice): glucose channel ==");
    let outcome = catalog::our_glucose_sensor().run_calibration(42)?;
    println!(
        "   calibration slope {}, LOD {}\n",
        outcome.summary.sensitivity, outcome.summary.detection_limit
    );

    println!("== 2. Potentiometric: urea biosensor back end (NH4+ ISE) ==");
    // Urease converts urea to ammonium; the ISE reads the product.
    let ise = IonSelectiveElectrode::new(Volts::from_milli_volts(220.0), 1);
    let interferents = [(
        Interferent {
            selectivity: 1e-3,
            charge: 1,
        },
        Molar::from_milli_molar(140.0), // physiological Na+
    )];
    for urea_milli in [0.1, 1.0, 10.0] {
        // 1:1 conversion to ammonium at steady state.
        let e = ise.potential(Molar::from_milli_molar(urea_milli), &interferents);
        println!("   {urea_milli:>5} mM urea → {e}");
    }
    println!(
        "   Na+ background caps detection near {}\n",
        ise.interference_floor(&interferents)
    );

    println!("== 3. Faradic impedimetric: immunosensor via R_ct ==");
    let before_binding = RandlesCell::new(120.0, 4_000.0, 1.2e-6, 80.0);
    let after_binding = RandlesCell::new(120.0, 9_500.0, 1.1e-6, 80.0);
    let r_before = estimate_charge_transfer(&before_binding.spectrum(0.1, 1e6, 300));
    let r_after = estimate_charge_transfer(&after_binding.spectrum(0.1, 1e6, 300));
    println!("   R_ct before binding: {r_before:.0} Ω");
    println!(
        "   R_ct after binding:  {r_after:.0} Ω  ({:.1}×)\n",
        r_after / r_before
    );

    println!("== 4. Field-effect: CNT-FET PSA immunosensor [22] ==");
    let fet = BioFet::psa_cnt_fet();
    for nano in [0.5, 5.0, 50.0] {
        let c = Molar::from_nano_molar(nano);
        println!(
            "   {nano:>5} nM PSA → ΔV_th {:.1} mV, ΔI/I0 {:.1}%",
            fet.threshold_shift(c).as_milli_volts(),
            fet.relative_response(c) * 100.0
        );
    }

    println!("\n== 5. Surface plasmon resonance: biomarker panel [11] ==");
    let spr = SprSensor::biacore_like();
    for nano in [1.0, 10.0, 100.0] {
        let c = Molar::from_nano_molar(nano);
        let ru = spr.response_units(c);
        println!(
            "   {nano:>5} nM antigen → {ru:.0} RU ({:.1} mdeg shift)",
            spr.angle_shift_millideg(ru)
        );
    }
    println!(
        "   3σ detection limit: {:.3} nM",
        spr.detection_limit().as_nano_molar()
    );

    println!("\n== 6. Piezoelectric: 5 MHz QCM immunoassay [13] ==");
    let qcm = QuartzCrystalMicrobalance::new(5e6, SquareCm::from_square_cm(1.0));
    for ng in [50.0, 200.0, 1000.0] {
        println!(
            "   {ng:>5} ng bound → Δf {:.2} Hz",
            qcm.frequency_shift_hz(ng * 1e-9)
        );
    }
    println!(
        "   monolayer detectable: {}",
        qcm.detects_protein_monolayer()
    );

    println!(
        "\nSix transduction mechanisms, one codebase — the survey of §2.3\n\
         as running models instead of prose."
    );
    Ok(())
}
