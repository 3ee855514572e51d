//! Redox-couple descriptors.

use bios_units::{DiffusionCoefficient, Volts};

/// A one-electron redox couple with a symmetric transfer coefficient
/// (α = 0.5): everything the simulators need to know about the
/// electroactive species.
///
/// # Examples
///
/// ```
/// use bios_electrochem::RedoxCouple;
/// use bios_units::{DiffusionCoefficient, Volts};
///
/// let h2o2 = RedoxCouple::builder("H2O2 oxidation")
///     .standard_potential(Volts::from_milli_volts(400.0))
///     .diffusion(DiffusionCoefficient::from_square_cm_per_second(1.43e-5))
///     .rate_constant(1e-4)
///     .build();
/// assert_eq!(h2o2.rate_constant(), 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RedoxCouple {
    name: String,
    standard_potential: Volts,
    k0_cm_per_s: f64,
    diffusion: DiffusionCoefficient,
}

impl RedoxCouple {
    /// Electrons transferred, `n`.
    pub(crate) const ELECTRONS: u32 = 1;
    /// Transfer coefficient α (dimensionless, in `(0, 1)`).
    pub(crate) const ALPHA: f64 = 0.5;

    /// Starts building a couple with the given display name.
    #[must_use]
    pub fn builder(name: &str) -> RedoxCoupleBuilder {
        RedoxCoupleBuilder {
            name: name.to_owned(),
            standard_potential: Volts::ZERO,
            k0_cm_per_s: 1e-3,
            diffusion: DiffusionCoefficient::from_square_cm_per_second(1e-5),
        }
    }

    /// Formal/standard potential `E⁰`.
    #[must_use]
    pub fn standard_potential(&self) -> Volts {
        self.standard_potential
    }

    /// Standard heterogeneous rate constant `k⁰`, cm/s.
    #[must_use]
    pub fn rate_constant(&self) -> f64 {
        self.k0_cm_per_s
    }

    /// Diffusion coefficient of the electroactive species.
    #[must_use]
    pub fn diffusion(&self) -> DiffusionCoefficient {
        self.diffusion
    }

    /// Returns a copy with the rate constant multiplied by `factor` —
    /// how surface modifications (CNT films) accelerate the couple.
    #[must_use]
    pub fn with_rate_enhanced(&self, factor: f64) -> RedoxCouple {
        let mut out = self.clone();
        out.k0_cm_per_s *= factor;
        out
    }
}

/// Builder for [`RedoxCouple`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct RedoxCoupleBuilder {
    name: String,
    standard_potential: Volts,
    k0_cm_per_s: f64,
    diffusion: DiffusionCoefficient,
}

impl RedoxCoupleBuilder {
    /// Sets the formal potential `E⁰`.
    #[must_use]
    pub fn standard_potential(mut self, e0: Volts) -> Self {
        self.standard_potential = e0;
        self
    }

    /// Sets the standard rate constant `k⁰` in cm/s.
    ///
    /// # Panics
    ///
    /// Panics if `k0` is not positive and finite.
    #[must_use]
    pub fn rate_constant(mut self, k0_cm_per_s: f64) -> Self {
        assert!(
            k0_cm_per_s > 0.0 && k0_cm_per_s.is_finite(),
            "rate constant must be positive and finite"
        );
        self.k0_cm_per_s = k0_cm_per_s;
        self
    }

    /// Sets the diffusion coefficient.
    #[must_use]
    pub fn diffusion(mut self, d: DiffusionCoefficient) -> Self {
        self.diffusion = d;
        self
    }

    /// Finalizes the couple.
    #[must_use]
    pub fn build(self) -> RedoxCouple {
        RedoxCouple {
            name: self.name,
            standard_potential: self.standard_potential,
            k0_cm_per_s: self.k0_cm_per_s,
            diffusion: self.diffusion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let c = RedoxCouple::builder("test").build();
        assert!(c.rate_constant() > 0.0);
    }

    #[test]
    fn rate_enhancement_multiplies_k0() {
        let base = RedoxCouple::builder("H2O2 oxidation")
            .standard_potential(Volts::from_milli_volts(400.0))
            .rate_constant(2e-4)
            .build();
        let boosted = base.with_rate_enhanced(50.0);
        assert!((boosted.rate_constant() / base.rate_constant() - 50.0).abs() < 1e-9);
        // Everything else is untouched.
        assert_eq!(boosted.diffusion(), base.diffusion());
        assert_eq!(boosted.standard_potential(), base.standard_potential());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn k0_must_be_positive() {
        let _ = RedoxCouple::builder("bad").rate_constant(0.0);
    }
}
