//! Electrode geometries and the paper's stock devices.

use bios_units::SquareCm;

use crate::material::ElectrodeMaterial;

/// A physical working electrode — where the sensing chemistry happens
/// and the current is measured: material + geometric area.
///
/// # Examples
///
/// ```
/// use bios_nanomaterial::{Electrode, ElectrodeMaterial};
/// use bios_units::SquareCm;
///
/// let we = Electrode::new(ElectrodeMaterial::Gold, SquareCm::from_square_mm(0.25));
/// assert_eq!(we.area().as_square_mm(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Electrode {
    material: ElectrodeMaterial,
    area: SquareCm,
}

impl Electrode {
    /// Creates an electrode.
    ///
    /// # Panics
    ///
    /// Panics if the area is not positive.
    #[must_use]
    pub fn new(material: ElectrodeMaterial, area: SquareCm) -> Electrode {
        assert!(area.as_square_cm() > 0.0, "electrode area must be positive");
        Electrode { material, area }
    }

    /// Bulk material.
    #[must_use]
    pub fn material(&self) -> ElectrodeMaterial {
        self.material
    }

    /// Geometric area.
    #[must_use]
    pub fn area(&self) -> SquareCm {
        self.area
    }
}

/// The stock electrode systems used in the paper (§3.1) and the cited
/// literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectrodeStock {
    /// DropSens carbon-paste screen-printed electrode: 13 mm² graphite
    /// working electrode, graphite counter, Ag reference. Used for the
    /// paper's CYP450 drug sensors.
    DropSensSpe,
    /// EPFL microfabricated chip: five 0.25 mm² Au working electrodes,
    /// Au counter, Pt reference. Used for the paper's oxidase sensors.
    EpflMicroChip,
    /// A conventional 3 mm-diameter glassy-carbon disc (≈ 7.1 mm²) — the
    /// default electrode of the cited literature sensors.
    GlassyCarbonDisc,
    /// Platinum disc microelectrode (1 mm diameter ≈ 0.79 mm²), used by
    /// the glutamate literature baselines.
    PlatinumDisc,
}

impl ElectrodeStock {
    /// The working electrode of this stock system.
    #[must_use]
    pub fn working_electrode(&self) -> Electrode {
        match self {
            ElectrodeStock::DropSensSpe => {
                Electrode::new(ElectrodeMaterial::Graphite, SquareCm::from_square_mm(13.0))
            }
            ElectrodeStock::EpflMicroChip => {
                Electrode::new(ElectrodeMaterial::Gold, SquareCm::from_square_mm(0.25))
            }
            ElectrodeStock::GlassyCarbonDisc => Electrode::new(
                ElectrodeMaterial::GlassyCarbon,
                SquareCm::from_square_mm(7.07),
            ),
            ElectrodeStock::PlatinumDisc => {
                Electrode::new(ElectrodeMaterial::Platinum, SquareCm::from_square_mm(0.785))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_areas_are_exact() {
        let spe = ElectrodeStock::DropSensSpe.working_electrode();
        assert!((spe.area().as_square_mm() - 13.0).abs() < 1e-12);
        let chip = ElectrodeStock::EpflMicroChip.working_electrode();
        assert!((chip.area().as_square_mm() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_materials_are_exact() {
        assert_eq!(
            ElectrodeStock::DropSensSpe.working_electrode().material(),
            ElectrodeMaterial::Graphite
        );
        assert_eq!(
            ElectrodeStock::EpflMicroChip.working_electrode().material(),
            ElectrodeMaterial::Gold
        );
    }

    #[test]
    #[should_panic(expected = "area must be positive")]
    fn zero_area_rejected() {
        let _ = Electrode::new(ElectrodeMaterial::Gold, SquareCm::from_square_cm(0.0));
    }
}
