//! The literature survey of §2 as a queryable registry.

use super::taxonomy::{
    ElectrodeTechnology, NanoMaterialClass, SensingElement, Target, Transduction,
};

/// One surveyed device: a point in the five-axis classification space.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorClassEntry {
    /// Short description ("glucose SPE strip", "CNT-FET PSA sensor", …).
    pub name: String,
    /// Reference key in the paper's bibliography ("\[30\]", "\[22\]", …).
    pub citation: String,
    /// What it detects.
    pub target: Target,
    /// Recognition element.
    pub element: SensingElement,
    /// Transduction mechanism.
    pub transduction: Transduction,
    /// Nanomaterial, if any.
    pub nanomaterial: Option<NanoMaterialClass>,
    /// Electrode / integration technology.
    pub technology: ElectrodeTechnology,
}

impl SensorClassEntry {
    fn new(
        name: &str,
        citation: &str,
        target: Target,
        element: SensingElement,
        transduction: Transduction,
        nanomaterial: Option<NanoMaterialClass>,
        technology: ElectrodeTechnology,
    ) -> SensorClassEntry {
        SensorClassEntry {
            name: name.to_owned(),
            citation: citation.to_owned(),
            target,
            element,
            transduction,
            nanomaterial,
            technology,
        }
    }
}

/// The queryable registry of surveyed sensors.
///
/// # Examples
///
/// ```
/// use bios_core::classification::{SensorRegistry, Transduction};
///
/// let reg = SensorRegistry::literature();
/// // Amperometric devices dominate the literature, as §2.3 asserts.
/// let amp = reg.by_transduction(Transduction::Amperometric).len();
/// for t in [Transduction::Optical, Transduction::Piezoelectric] {
///     assert!(amp > reg.by_transduction(t).len());
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensorRegistry {
    entries: Vec<SensorClassEntry>,
}

impl SensorRegistry {
    /// The §2 survey: every device family the paper cites, classified
    /// along its five axes.
    #[must_use]
    pub fn literature() -> SensorRegistry {
        use ElectrodeTechnology as Tech;
        use NanoMaterialClass as Nano;
        use SensingElement as El;
        use Target as T;
        use Transduction as Tx;

        let e = SensorClassEntry::new;
        let entries = vec![
            // §2.1 targets / §2.3 transduction survey.
            e(
                "DNA microarray (light-generated oligo arrays)",
                "[35]",
                T::Dna,
                El::NucleicAcid,
                Tx::Optical,
                None,
                Tech::Conventional,
            ),
            e(
                "label-free electronic DNA chip",
                "[45]",
                T::Dna,
                El::NucleicAcid,
                Tx::ImpedimetricCapacitive,
                None,
                Tech::Integrated,
            ),
            e(
                "home blood-glucose strip",
                "[30]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Disposable,
            ),
            e(
                "sports-medicine lactate sensor",
                "[31]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Disposable,
            ),
            e(
                "cobalt-oxide cholesterol sensor",
                "[43]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::Nanoparticle),
                Tech::Conventional,
            ),
            e(
                "in-vivo glutamate microsensor",
                "[38]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Conventional,
            ),
            e(
                "creatinine biosensor",
                "[21]",
                T::Metabolite,
                El::Enzyme,
                Tx::Potentiometric,
                None,
                Tech::Conventional,
            ),
            e(
                "multiplexed PSA assay",
                "[58]",
                T::Biomarker,
                El::Antibody,
                Tx::Amperometric,
                None,
                Tech::Disposable,
            ),
            e(
                "CA-125 immunosensor (thionine/AuNP carbon paste)",
                "[47]",
                T::Biomarker,
                El::Antibody,
                Tx::Amperometric,
                Some(Nano::Nanoparticle),
                Tech::Conventional,
            ),
            e(
                "SPR autoimmune-antibody panel",
                "[11]",
                T::Biomarker,
                El::Antibody,
                Tx::SurfacePlasmonResonance,
                None,
                Tech::Conventional,
            ),
            e(
                "dengue RNA / hepatitis-B antigen screen",
                "[11]",
                T::Pathogen,
                El::NucleicAcid,
                Tx::Optical,
                None,
                Tech::Disposable,
            ),
            e(
                "cardiac-marker (AMI) protein panel",
                "[11]",
                T::Biomarker,
                El::Antibody,
                Tx::SurfacePlasmonResonance,
                None,
                Tech::Conventional,
            ),
            e(
                "paracetamol / theophylline / chlorpromazine / salicylate monitors",
                "[53]",
                T::Drug,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Disposable,
            ),
            e(
                "multi-panel P450 drug detector in serum",
                "[9]",
                T::Drug,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Disposable,
            ),
            e(
                "ELISA (enzyme-linked immunosorbent assay)",
                "[25]",
                T::Biomarker,
                El::Antibody,
                Tx::Optical,
                None,
                Tech::Conventional,
            ),
            e(
                "ion-channel receptor platform",
                "[46]",
                T::Drug,
                El::Receptor,
                Tx::Potentiometric,
                None,
                Tech::Conventional,
            ),
            e(
                "QCM DNA / immunoassay microbalance",
                "[13]",
                T::Dna,
                El::NucleicAcid,
                Tx::Piezoelectric,
                None,
                Tech::Conventional,
            ),
            e(
                "capacitive microsystem for biomarkers",
                "[50]",
                T::Biomarker,
                El::Antibody,
                Tx::ImpedimetricCapacitive,
                None,
                Tech::Integrated,
            ),
            e(
                "Faradic impedimetric immunosensor",
                "[37]",
                T::Biomarker,
                El::Antibody,
                Tx::ImpedimetricFaradic,
                None,
                Tech::Conventional,
            ),
            e(
                "potentiometric urea / creatinine sensors",
                "[23]",
                T::Metabolite,
                El::Enzyme,
                Tx::Potentiometric,
                None,
                Tech::Conventional,
            ),
            e(
                "ISFET biological sensor",
                "[24]",
                T::Metabolite,
                El::Enzyme,
                Tx::FieldEffect,
                None,
                Tech::Integrated,
            ),
            e(
                "CNT-FET prostate-cancer diagnostic",
                "[22]",
                T::Biomarker,
                El::Antibody,
                Tx::FieldEffect,
                Some(Nano::CarbonNanotube),
                Tech::Integrated,
            ),
            e(
                "nanowire conductometric biosensors",
                "[39]",
                T::Biomarker,
                El::Enzyme,
                Tx::FieldEffect,
                Some(Nano::Nanowire),
                Tech::Integrated,
            ),
            e(
                "AuNP-enhanced voltammetric sensors",
                "[36]",
                T::Biomarker,
                El::Antibody,
                Tx::Amperometric,
                Some(Nano::Nanoparticle),
                Tech::Conventional,
            ),
            e(
                "quantum-dot labeled assays",
                "[27]",
                T::Biomarker,
                El::Antibody,
                Tx::Optical,
                Some(Nano::QuantumDot),
                Tech::Conventional,
            ),
            e(
                "core-shell nanoparticle chemosensors",
                "[2]",
                T::Biomarker,
                El::Antibody,
                Tx::Optical,
                Some(Nano::CoreShell),
                Tech::Conventional,
            ),
            e(
                "direct-ET glucose oxidase on CNT",
                "[7]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "DNA-modified electrodes for cyclophosphamide",
                "[32]",
                T::Drug,
                El::NucleicAcid,
                Tx::Amperometric,
                None,
                Tech::Disposable,
            ),
            e(
                "3-D stacked bio-electronic interface",
                "[17]",
                T::Dna,
                El::NucleicAcid,
                Tx::ImpedimetricCapacitive,
                None,
                Tech::ThreeDimensionalStack,
            ),
            // Table 2 literature baselines.
            e(
                "CNT-mat glucose electrode",
                "[42]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "MWCNT/Nafion cast glucose film",
                "[49]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "MWCNT + Au film glucose sensor",
                "[55]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "butyric-acid MWCNT glucose sensor",
                "[18]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "CNT-paste lactate electrode",
                "[41]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "titanate-nanotube lactate sensor",
                "[57]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::OtherNanotube),
                Tech::Conventional,
            ),
            e(
                "sol-gel MWCNT lactate film",
                "[19]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "N-doped CNT lactate electrode",
                "[16]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "Nafion/GlOD glutamate sensor",
                "[33]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Conventional,
            ),
            e(
                "chitosan/GlOD glutamate film",
                "[59]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                None,
                Tech::Conventional,
            ),
            e(
                "PU/MWCNT polypyrrole glutamate microsensor",
                "[1]",
                T::Metabolite,
                El::Enzyme,
                Tx::Amperometric,
                Some(Nano::CarbonNanotube),
                Tech::Conventional,
            ),
            e(
                "porous-silicon P450 arachidonic-acid sensor",
                "[14]",
                T::Metabolite,
                El::Enzyme,
                Tx::Optical,
                None,
                Tech::Integrated,
            ),
        ];
        SensorRegistry { entries }
    }

    /// Adds an entry.
    pub fn add(&mut self, entry: SensorClassEntry) {
        self.entries.push(entry);
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries transduced by `mechanism`.
    #[must_use]
    pub fn by_transduction(&self, mechanism: Transduction) -> Vec<&SensorClassEntry> {
        self.entries
            .iter()
            .filter(|e| e.transduction == mechanism)
            .collect()
    }

    /// All electrochemical entries.
    #[must_use]
    pub fn electrochemical(&self) -> Vec<&SensorClassEntry> {
        self.entries
            .iter()
            .filter(|e| e.transduction.is_electrochemical())
            .collect()
    }

    /// Fraction of entries using any nanomaterial.
    #[must_use]
    pub fn nanotech_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries
            .iter()
            .filter(|e| e.nanomaterial.is_some())
            .count() as f64
            / self.entries.len() as f64
    }

    /// The literature survey extended with the paper's own seven Table 1
    /// devices, each classified through
    /// [`crate::sensor::Biosensor::classify`].
    #[must_use]
    pub fn with_paper_platform() -> SensorRegistry {
        let mut reg = SensorRegistry::literature();
        for entry in crate::catalog::table1() {
            reg.add(entry.build_sensor().classify());
        }
        reg
    }
}

impl IntoIterator for SensorRegistry {
    type Item = SensorClassEntry;
    type IntoIter = std::vec::IntoIter<SensorClassEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<SensorClassEntry> for SensorRegistry {
    fn from_iter<I: IntoIterator<Item = SensorClassEntry>>(iter: I) -> SensorRegistry {
        SensorRegistry {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_has_broad_coverage() {
        let reg = SensorRegistry::literature();
        assert!(reg.len() >= 35, "only {} entries", reg.len());
        // Every axis value is represented at least once.
        for t in [
            Target::Dna,
            Target::Metabolite,
            Target::Biomarker,
            Target::Pathogen,
            Target::Drug,
        ] {
            assert!(
                reg.entries.iter().any(|e| e.target == t),
                "no entries for {t}"
            );
        }
        for el in [
            SensingElement::Enzyme,
            SensingElement::Antibody,
            SensingElement::NucleicAcid,
            SensingElement::Receptor,
        ] {
            assert!(
                reg.entries.iter().any(|e| e.element == el),
                "no entries for {el}"
            );
        }
    }

    #[test]
    fn amperometric_dominates() {
        // §2.3: "electrochemical biosensors … are by far the most
        // reported devices in literature" and amperometric sensors "have
        // had great success in the market".
        let reg = SensorRegistry::literature();
        let amp = reg.by_transduction(Transduction::Amperometric).len();
        for t in [
            Transduction::Optical,
            Transduction::SurfacePlasmonResonance,
            Transduction::Piezoelectric,
            Transduction::Potentiometric,
            Transduction::FieldEffect,
        ] {
            assert!(amp > reg.by_transduction(t).len(), "amperometric ≤ {t}");
        }
        let ec = reg.electrochemical().len();
        assert!(ec * 2 > reg.len(), "electrochemical not a majority");
    }

    #[test]
    fn cnt_is_the_most_common_nanomaterial() {
        let reg = SensorRegistry::literature();
        let count = |n: NanoMaterialClass| {
            reg.entries
                .iter()
                .filter(|e| e.nanomaterial == Some(n))
                .count()
        };
        let cnt = count(NanoMaterialClass::CarbonNanotube);
        for n in [
            NanoMaterialClass::Nanoparticle,
            NanoMaterialClass::QuantumDot,
            NanoMaterialClass::CoreShell,
            NanoMaterialClass::Nanowire,
            NanoMaterialClass::OtherNanotube,
        ] {
            assert!(cnt > count(n));
        }
    }

    #[test]
    fn citation_lookup() {
        let reg = SensorRegistry::literature();
        let by_citation = |c: &str| reg.entries.iter().find(|e| e.citation == c);
        let guiducci = by_citation("[17]").unwrap();
        assert_eq!(
            guiducci.technology,
            ElectrodeTechnology::ThreeDimensionalStack
        );
        assert!(by_citation("[999]").is_none());
    }

    #[test]
    fn nanotech_fraction_is_substantial() {
        // §2.4: nanomaterials are "the new frontier" — a large minority
        // of surveyed devices already use them.
        let f = SensorRegistry::literature().nanotech_fraction();
        assert!(f > 0.3 && f < 0.8, "fraction {f}");
    }

    #[test]
    fn collect_and_iterate() {
        let reg = SensorRegistry::literature();
        let metabolite_only: SensorRegistry = reg
            .clone()
            .into_iter()
            .filter(|e| e.target == Target::Metabolite)
            .collect();
        let metabolites = reg
            .entries
            .iter()
            .filter(|e| e.target == Target::Metabolite)
            .count();
        assert_eq!(metabolite_only.len(), metabolites);
        assert!(metabolites > 0);
    }

    #[test]
    fn paper_platform_classifies_into_the_survey() {
        let reg = SensorRegistry::with_paper_platform();
        let base = SensorRegistry::literature();
        assert_eq!(reg.len(), base.len() + 7);
        // All seven are amperometric enzyme sensors ("this work").
        let ours: Vec<_> = reg
            .entries
            .iter()
            .filter(|e| e.citation == "this work")
            .collect();
        assert_eq!(ours.len(), 7);
        for e in &ours {
            assert_eq!(e.element, SensingElement::Enzyme);
            assert_eq!(e.transduction, Transduction::Amperometric);
            assert_eq!(e.nanomaterial, Some(NanoMaterialClass::CarbonNanotube));
        }
        // Oxidase sensors ride the integrated Au chip; CYP sensors the
        // disposable SPE — both §2.5 technologies are represented.
        assert!(ours
            .iter()
            .any(|e| e.technology == ElectrodeTechnology::Integrated));
        assert!(ours
            .iter()
            .any(|e| e.technology == ElectrodeTechnology::Disposable));
    }

    #[test]
    fn add_extends_registry() {
        let mut reg = SensorRegistry::default();
        assert!(reg.is_empty());
        reg.add(SensorClassEntry {
            name: "test".into(),
            citation: "[x]".into(),
            target: Target::Drug,
            element: SensingElement::Enzyme,
            transduction: Transduction::Amperometric,
            nanomaterial: None,
            technology: ElectrodeTechnology::Disposable,
        });
        assert_eq!(reg.len(), 1);
    }
}
