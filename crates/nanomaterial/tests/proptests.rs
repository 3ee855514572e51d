//! Property tests for the electrode and material models.
//! Sampled deterministically via `bios_prng::cases`.

use bios_nanomaterial::{Electrode, ElectrodeMaterial};
use bios_prng::{cases, Rng};
use bios_units::SquareCm;

const MATERIALS: [ElectrodeMaterial; 5] = [
    ElectrodeMaterial::Graphite,
    ElectrodeMaterial::Gold,
    ElectrodeMaterial::Platinum,
    ElectrodeMaterial::GlassyCarbon,
    ElectrodeMaterial::CarbonPaste,
];

fn any_material(rng: &mut Rng) -> ElectrodeMaterial {
    MATERIALS[rng.index(MATERIALS.len())]
}

/// Electrodes accept any positive area, and the stored values round
/// trip exactly.
#[test]
fn electrode_round_trips() {
    cases(0x0301, 64, |rng| {
        let material = any_material(rng);
        let area_mm2 = rng.log_uniform_in(1e-3, 100.0);
        let e = Electrode::new(material, SquareCm::from_square_mm(area_mm2));
        assert_eq!(e.material(), material);
        assert!((e.area().as_square_mm() - area_mm2).abs() <= area_mm2 * 1e-12);
    });
}

/// The capacitance table stays in its physical band for every
/// variant.
#[test]
fn material_properties_bounded() {
    for material in MATERIALS {
        let cap = material.specific_capacitance();
        assert!((5e-6..=100e-6).contains(&cap));
    }
}
