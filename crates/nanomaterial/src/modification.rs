//! The surface-modification catalog.
//!
//! Every sensor row in the paper's Table 2 differs in how the electrode
//! surface was nanostructured before the enzyme went on. A modification
//! is summarized by four engineering gains relative to the bare surface:
//!
//! * **roughness** — real/geometric area ratio (drives capacitance and
//!   hosting sites);
//! * **electron-transfer gain** — multiplier on the redox couple's `k⁰`
//!   (the ballistic-conduction benefit of §2.4);
//! * **enzyme-capacity gain** — how much more protein the 3-D film hosts
//!   than a flat monolayer;
//! * **collection efficiency** — the fraction of enzyme-generated product
//!   that is captured electrochemically before escaping to bulk.

use crate::dispersion::Dispersant;

use bios_electrochem::RedoxCouple;
use bios_units::Centimeters;

/// Nominal MWCNT dimensions used in the paper (§3.1): 10 nm diameter,
/// 1–2 µm length (DropSens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CntDimensions {
    /// Tube outer diameter.
    pub diameter: Centimeters,
    /// Tube length.
    pub length: Centimeters,
}

impl Default for CntDimensions {
    fn default() -> CntDimensions {
        CntDimensions {
            diameter: Centimeters::from_nano_meters(10.0),
            length: Centimeters::from_micro_meters(1.5),
        }
    }
}

/// A named electrode surface modification with its engineering gains.
///
/// Constructors cover every recipe in the paper's Table 2.
///
/// # Examples
///
/// ```
/// use bios_nanomaterial::SurfaceModification;
///
/// let ours = SurfaceModification::mwcnt_nafion();
/// assert!(ours.collection_efficiency() > 0.5);
/// assert_eq!(ours.name(), "MWCNT/Nafion");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceModification {
    name: String,
    dispersant: Option<Dispersant>,
    roughness: f64,
    electron_transfer_gain: f64,
    enzyme_capacity_gain: f64,
    collection_efficiency: f64,
    cnt: Option<CntDimensions>,
}

impl SurfaceModification {
    /// An unmodified electrode surface.
    #[must_use]
    pub fn bare() -> SurfaceModification {
        SurfaceModification {
            name: "bare".to_owned(),
            dispersant: None,
            roughness: 1.0,
            electron_transfer_gain: 1.0,
            enzyme_capacity_gain: 1.0,
            collection_efficiency: 0.2,
            cnt: None,
        }
    }

    /// The paper's oxidase recipe: MWCNT drop-cast from 0.5 % Nafion.
    /// Best dispersion → highest wired fraction and collection.
    #[must_use]
    pub fn mwcnt_nafion() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT/Nafion".to_owned(),
            dispersant: Some(Dispersant::Nafion),
            roughness: 120.0,
            electron_transfer_gain: 60.0,
            enzyme_capacity_gain: 40.0,
            collection_efficiency: 0.85,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// The paper's CYP450 recipe: MWCNT drop-cast from chloroform onto
    /// carbon-paste SPE.
    #[must_use]
    pub fn mwcnt_chloroform() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT (chloroform)".to_owned(),
            dispersant: Some(Dispersant::Chloroform),
            roughness: 100.0,
            electron_transfer_gain: 45.0,
            enzyme_capacity_gain: 35.0,
            collection_efficiency: 0.8,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Wang et al. \[55\]: Au film evaporated onto grown MWCNT, GOD drop
    /// cast on top.
    #[must_use]
    pub fn mwcnt_au_film() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT + Au film".to_owned(),
            dispersant: None,
            roughness: 80.0,
            electron_transfer_gain: 30.0,
            enzyme_capacity_gain: 20.0,
            collection_efficiency: 0.55,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Tsai et al. \[49\]: CNT + GOD co-cast in Nafion on glassy carbon.
    #[must_use]
    pub fn mwcnt_nafion_codeposit() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT/Nafion co-cast".to_owned(),
            dispersant: Some(Dispersant::Nafion),
            roughness: 60.0,
            electron_transfer_gain: 20.0,
            enzyme_capacity_gain: 15.0,
            collection_efficiency: 0.4,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Ryu et al. \[42\]: free-standing CNT mat with covalently bound GOD.
    #[must_use]
    pub fn cnt_mat() -> SurfaceModification {
        SurfaceModification {
            name: "CNT mat".to_owned(),
            dispersant: None,
            roughness: 70.0,
            electron_transfer_gain: 18.0,
            enzyme_capacity_gain: 12.0,
            collection_efficiency: 0.35,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Hua et al. \[18\]: butyric-acid functionalized MWCNT.
    #[must_use]
    pub fn mwcnt_butyric_acid() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT-BA".to_owned(),
            dispersant: Some(Dispersant::Water),
            roughness: 90.0,
            electron_transfer_gain: 35.0,
            enzyme_capacity_gain: 25.0,
            collection_efficiency: 0.6,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Goran et al. \[16\]: nitrogen-doped CNT with Nafion overlayer —
    /// N-doping makes carbon exceptionally active for H₂O₂.
    #[must_use]
    pub fn n_doped_cnt_nafion() -> SurfaceModification {
        SurfaceModification {
            name: "N-doped CNT/Nafion".to_owned(),
            dispersant: Some(Dispersant::Nafion),
            roughness: 110.0,
            electron_transfer_gain: 80.0,
            enzyme_capacity_gain: 30.0,
            collection_efficiency: 0.9,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Rubianes & Rivas \[41\]: CNT kneaded into mineral-oil paste.
    #[must_use]
    pub fn cnt_paste() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT/mineral oil paste".to_owned(),
            dispersant: Some(Dispersant::MineralOil),
            roughness: 20.0,
            electron_transfer_gain: 3.0,
            enzyme_capacity_gain: 5.0,
            collection_efficiency: 0.15,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Yang et al. \[57\]: titanate (not carbon) nanotubes — shows the
    /// material itself matters, not just the nanoscale shape (§3.2.2).
    #[must_use]
    pub fn titanate_nanotube() -> SurfaceModification {
        SurfaceModification {
            name: "Titanate NT".to_owned(),
            dispersant: Some(Dispersant::Water),
            roughness: 50.0,
            electron_transfer_gain: 2.0,
            enzyme_capacity_gain: 8.0,
            collection_efficiency: 0.2,
            cnt: None,
        }
    }

    /// Huang et al. \[19\]: MWCNT embedded in a silica sol-gel film.
    #[must_use]
    pub fn mwcnt_sol_gel() -> SurfaceModification {
        SurfaceModification {
            name: "MWCNT + sol-gel".to_owned(),
            dispersant: Some(Dispersant::SolGel),
            roughness: 40.0,
            electron_transfer_gain: 10.0,
            enzyme_capacity_gain: 10.0,
            collection_efficiency: 0.3,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Pan & Arnold \[33\]: plain Nafion film on Pt (no nanomaterial).
    #[must_use]
    pub fn nafion_film() -> SurfaceModification {
        SurfaceModification {
            name: "Nafion film".to_owned(),
            dispersant: Some(Dispersant::Nafion),
            roughness: 2.0,
            electron_transfer_gain: 1.0,
            enzyme_capacity_gain: 3.0,
            collection_efficiency: 0.5,
            cnt: None,
        }
    }

    /// Zhang et al. \[59\]: chitosan entrapment film.
    #[must_use]
    pub fn chitosan_film() -> SurfaceModification {
        SurfaceModification {
            name: "Chitosan film".to_owned(),
            dispersant: None,
            roughness: 3.0,
            electron_transfer_gain: 1.5,
            enzyme_capacity_gain: 6.0,
            collection_efficiency: 0.6,
            cnt: None,
        }
    }

    /// Ammam & Fransaer \[1\]: polyurethane/MWCNT with GlOD in
    /// polypyrrole on Pt — the record-sensitivity glutamate electrode.
    #[must_use]
    pub fn pu_mwcnt_polypyrrole() -> SurfaceModification {
        SurfaceModification {
            name: "PU/MWCNT + PP".to_owned(),
            dispersant: Some(Dispersant::Water),
            roughness: 150.0,
            electron_transfer_gain: 70.0,
            enzyme_capacity_gain: 60.0,
            collection_efficiency: 0.9,
            cnt: Some(CntDimensions::default()),
        }
    }

    /// Display name (matches the Table 2 "Modification" column style).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dispersion medium, if a cast film.
    #[must_use]
    pub fn dispersant(&self) -> Option<Dispersant> {
        self.dispersant
    }

    /// Real/geometric area ratio.
    #[must_use]
    pub fn roughness(&self) -> f64 {
        self.roughness
    }

    /// Multiplier on the redox couple's standard rate constant.
    #[must_use]
    pub fn electron_transfer_gain(&self) -> f64 {
        self.electron_transfer_gain
    }

    /// Multiplier on monolayer enzyme loading.
    #[must_use]
    pub fn enzyme_capacity_gain(&self) -> f64 {
        self.enzyme_capacity_gain
    }

    /// Fraction of enzyme product captured by the electrode.
    #[must_use]
    pub fn collection_efficiency(&self) -> f64 {
        self.collection_efficiency
    }

    /// CNT dimensions if the film is nanotube-based.
    #[must_use]
    pub fn cnt_dimensions(&self) -> Option<CntDimensions> {
        self.cnt
    }

    /// Whether any nanomaterial is present (vs a plain polymer film).
    #[must_use]
    pub fn is_nanostructured(&self) -> bool {
        self.roughness > 10.0
    }

    /// Applies the modification to a redox couple, returning the couple
    /// as seen on the modified surface (accelerated `k⁰`, weighted by the
    /// dispersant's film quality).
    #[must_use]
    pub fn modify_couple(&self, couple: &RedoxCouple) -> RedoxCouple {
        let quality = self.dispersant.map_or(1.0, |d| d.film_quality());
        couple.with_rate_enhanced(1.0 + (self.electron_transfer_gain - 1.0) * quality)
    }
}

impl std::fmt::Display for SurfaceModification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_modifications() -> Vec<SurfaceModification> {
        vec![
            SurfaceModification::bare(),
            SurfaceModification::mwcnt_nafion(),
            SurfaceModification::mwcnt_chloroform(),
            SurfaceModification::mwcnt_au_film(),
            SurfaceModification::mwcnt_nafion_codeposit(),
            SurfaceModification::cnt_mat(),
            SurfaceModification::mwcnt_butyric_acid(),
            SurfaceModification::n_doped_cnt_nafion(),
            SurfaceModification::cnt_paste(),
            SurfaceModification::titanate_nanotube(),
            SurfaceModification::mwcnt_sol_gel(),
            SurfaceModification::nafion_film(),
            SurfaceModification::chitosan_film(),
            SurfaceModification::pu_mwcnt_polypyrrole(),
        ]
    }

    #[test]
    fn all_gains_are_physical() {
        for m in all_modifications() {
            assert!(m.roughness() >= 1.0, "{m}");
            assert!(m.electron_transfer_gain() >= 1.0, "{m}");
            assert!(m.enzyme_capacity_gain() >= 1.0, "{m}");
            let ce = m.collection_efficiency();
            assert!(ce > 0.0 && ce <= 1.0, "{m}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mods = all_modifications();
        for (i, a) in mods.iter().enumerate() {
            for b in mods.iter().skip(i + 1) {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn paper_recipe_beats_literature_glucose_recipes() {
        // The comparative claim of §3.2.1 in engineering-gain terms.
        let ours = SurfaceModification::mwcnt_nafion();
        for other in [
            SurfaceModification::mwcnt_au_film(),
            SurfaceModification::mwcnt_nafion_codeposit(),
            SurfaceModification::cnt_mat(),
            SurfaceModification::mwcnt_butyric_acid(),
        ] {
            let ours_score = ours.enzyme_capacity_gain() * ours.collection_efficiency();
            let other_score = other.enzyme_capacity_gain() * other.collection_efficiency();
            assert!(ours_score > other_score, "vs {other}");
        }
    }

    #[test]
    fn titanate_transfers_worse_than_carbon() {
        // §3.2.2: "carbon gives better performance… also for the material
        // itself".
        assert!(
            SurfaceModification::titanate_nanotube().electron_transfer_gain()
                < SurfaceModification::mwcnt_sol_gel().electron_transfer_gain()
        );
    }

    #[test]
    fn cnt_dimensions_match_datasheet() {
        let dims = SurfaceModification::mwcnt_nafion()
            .cnt_dimensions()
            .unwrap();
        assert!((dims.diameter.as_nano_meters() - 10.0).abs() < 1e-9);
        let len_um = dims.length.as_micro_meters();
        assert!((1.0..=2.0).contains(&len_um));
    }

    fn h2o2() -> RedoxCouple {
        RedoxCouple::builder("H2O2 oxidation")
            .rate_constant(2e-4)
            .build()
    }

    #[test]
    fn modify_couple_never_decelerates_and_stays_within_the_gain() {
        let base = h2o2();
        for m in all_modifications() {
            let k = m.modify_couple(&base).rate_constant();
            assert!(k >= base.rate_constant() * (1.0 - 1e-12), "{m}");
            assert!(
                k <= base.rate_constant() * m.electron_transfer_gain() * (1.0 + 1e-12),
                "{m}"
            );
        }
    }

    #[test]
    fn better_dispersion_faster_couple() {
        let base = h2o2();
        let nafion = SurfaceModification::mwcnt_nafion();
        let oil = SurfaceModification {
            dispersant: Some(Dispersant::MineralOil),
            ..nafion.clone()
        };
        assert!(
            nafion.modify_couple(&base).rate_constant() > oil.modify_couple(&base).rate_constant()
        );
    }

    #[test]
    fn modify_couple_accelerates_k0() {
        let base = h2o2();
        let on_cnt = SurfaceModification::mwcnt_nafion().modify_couple(&base);
        assert!(on_cnt.rate_constant() > 30.0 * base.rate_constant());
    }

    #[test]
    fn bare_surface_is_identity_on_couples() {
        let base = h2o2();
        let same = SurfaceModification::bare().modify_couple(&base);
        assert!((same.rate_constant() - base.rate_constant()).abs() < 1e-15);
    }

    #[test]
    fn nanostructure_flag() {
        assert!(SurfaceModification::mwcnt_nafion().is_nanostructured());
        assert!(!SurfaceModification::nafion_film().is_nanostructured());
        assert!(!SurfaceModification::bare().is_nanostructured());
    }
}
