//! Bulk electrode materials.

/// The conductor an electrode is made of.
///
/// Each material carries a specific double-layer capacitance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectrodeMaterial {
    /// Screen-printed graphite (DropSens SPE working/counter electrodes).
    Graphite,
    /// Evaporated/microfabricated gold (the EPFL chip).
    Gold,
    /// Platinum (reference on the chip; classic H₂O₂ anode).
    Platinum,
    /// Glassy carbon (the workhorse of the cited literature sensors).
    GlassyCarbon,
    /// Carbon paste (CNT/mineral-oil composite electrodes, \[41\]).
    CarbonPaste,
}

impl ElectrodeMaterial {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ElectrodeMaterial::Graphite => "graphite",
            ElectrodeMaterial::Gold => "Au",
            ElectrodeMaterial::Platinum => "Pt",
            ElectrodeMaterial::GlassyCarbon => "glassy carbon",
            ElectrodeMaterial::CarbonPaste => "carbon paste",
        }
    }

    /// Specific double-layer capacitance of the clean surface, F/cm².
    #[must_use]
    pub fn specific_capacitance(&self) -> f64 {
        match self {
            ElectrodeMaterial::Graphite => 25e-6,
            ElectrodeMaterial::Gold => 20e-6,
            ElectrodeMaterial::Platinum => 22e-6,
            ElectrodeMaterial::GlassyCarbon => 24e-6,
            ElectrodeMaterial::CarbonPaste => 30e-6,
        }
    }
}

impl std::fmt::Display for ElectrodeMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitances_in_physical_band() {
        for m in [
            ElectrodeMaterial::Graphite,
            ElectrodeMaterial::Gold,
            ElectrodeMaterial::Platinum,
            ElectrodeMaterial::GlassyCarbon,
            ElectrodeMaterial::CarbonPaste,
        ] {
            let c = m.specific_capacitance();
            assert!((10e-6..=50e-6).contains(&c), "{m}: {c}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ElectrodeMaterial::Gold.to_string(), "Au");
        assert_eq!(ElectrodeMaterial::CarbonPaste.to_string(), "carbon paste");
    }
}
