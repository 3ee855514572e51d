//! Immobilized enzyme films.
//!
//! Adsorbing an enzyme onto a CNT forest (the paper's immobilization
//! method, §2.4) changes three things relative to solution kinetics:
//!
//! 1. **Loading** — a 3-D nanotube film holds far more enzyme per
//!    geometric cm² than a monolayer;
//! 2. **Retained activity** — some fraction of adsorbed protein denatures
//!    or is wired badly;
//! 3. **Partitioning** — crowding inside the film shifts the apparent
//!    K_M away from its solution value.
//!
//! The sensor model reads the film's active loading and apparent
//! kinetics to turn substrate into an areal product flux.

use bios_faults::{Faultable, RealizedFaults};
use bios_units::SurfaceLoading;

use crate::michaelis::MichaelisMenten;

/// An enzyme layer immobilized on the electrode.
///
/// # Examples
///
/// ```
/// use bios_enzyme::EnzymeFilm;
/// use bios_units::SurfaceLoading;
///
/// let film = EnzymeFilm::builder()
///     .loading(SurfaceLoading::from_pico_mol_per_square_cm(50.0))
///     .retained_activity(0.6)
///     .build();
/// let active = film.effective_loading();
/// assert!((active.as_pico_mol_per_square_cm() - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnzymeFilm {
    loading: SurfaceLoading,
    retained_activity: f64,
    km_shift: f64,
}

impl EnzymeFilm {
    /// Starts building a film with monolayer-scale defaults.
    #[must_use]
    pub fn builder() -> EnzymeFilmBuilder {
        EnzymeFilmBuilder {
            loading: SurfaceLoading::from_pico_mol_per_square_cm(2.0),
            retained_activity: 0.5,
            km_shift: 1.0,
        }
    }

    /// Catalytically-effective loading, mol/cm².
    #[must_use]
    pub fn effective_loading(&self) -> SurfaceLoading {
        self.loading * self.retained_activity
    }

    /// The apparent in-film kinetics derived from solution kinetics.
    #[must_use]
    pub fn apparent_kinetics(&self, solution: &MichaelisMenten) -> MichaelisMenten {
        MichaelisMenten::new(solution.kcat(), solution.km() * self.km_shift)
    }

    /// Typical first-order activity-loss rate of an adsorbed enzyme film
    /// stored wet at room temperature, per day. CNT adsorption is a good
    /// immobilizer (\[4\]) but enzymes still denature over weeks.
    pub const TYPICAL_DECAY_PER_DAY: f64 = 0.02;

    /// The same film after `days` of operation/storage, with the active
    /// fraction decayed as `exp(−rate·days)` — the stability axis that
    /// separates disposable strips from implanted sensors (§2.5).
    ///
    /// # Panics
    ///
    /// Panics if `days` or `rate_per_day` is negative.
    #[must_use]
    pub fn aged(&self, days: f64, rate_per_day: f64) -> EnzymeFilm {
        assert!(days >= 0.0, "age cannot be negative");
        assert!(rate_per_day >= 0.0, "decay rate cannot be negative");
        let mut out = *self;
        out.retained_activity =
            (self.retained_activity * (-rate_per_day * days).exp()).max(f64::MIN_POSITIVE);
        out
    }

    /// The same film with its active fraction scaled by `factor` —
    /// abrupt denaturation (thermal shock, oxidative damage) as opposed
    /// to the gradual [`aged`](Self::aged) decay. The result is floored
    /// at `f64::MIN_POSITIVE` so a fully-denatured film still produces a
    /// (vanishingly small) signal rather than NaNs downstream.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    #[must_use]
    pub fn denatured(&self, factor: f64) -> EnzymeFilm {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "denaturation factor must lie in (0, 1]"
        );
        let mut out = *self;
        out.retained_activity = (self.retained_activity * factor).max(f64::MIN_POSITIVE);
        out
    }

    /// Days of operation until the film's activity falls to `fraction`
    /// of its current value at the given decay rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1` and `rate_per_day > 0`.
    #[must_use]
    pub fn lifetime_to_fraction(&self, fraction: f64, rate_per_day: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must lie in (0, 1)"
        );
        assert!(rate_per_day > 0.0, "decay rate must be positive");
        -fraction.ln() / rate_per_day
    }
}

impl Faultable for EnzymeFilm {
    /// Applies injected film denaturation; a healthy realization
    /// (`film_activity == 1.0`) returns the film bit-identical.
    fn with_faults(self, faults: &RealizedFaults) -> Self {
        if faults.film_activity >= 1.0 {
            self
        } else {
            self.denatured(faults.film_activity.max(f64::MIN_POSITIVE))
        }
    }
}

/// Builder for [`EnzymeFilm`].
#[derive(Debug, Clone)]
pub struct EnzymeFilmBuilder {
    loading: SurfaceLoading,
    retained_activity: f64,
    km_shift: f64,
}

impl EnzymeFilmBuilder {
    /// Sets the protein loading.
    #[must_use]
    pub fn loading(mut self, loading: SurfaceLoading) -> Self {
        self.loading = loading;
        self
    }

    /// Sets the retained-activity fraction.
    ///
    /// # Panics
    ///
    /// Panics unless the fraction lies in `(0, 1]`.
    #[must_use]
    pub fn retained_activity(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "retained activity must lie in (0, 1]"
        );
        self.retained_activity = fraction;
        self
    }

    /// Sets the apparent-K_M multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless the shift is positive.
    #[must_use]
    pub fn km_shift(mut self, shift: f64) -> Self {
        assert!(shift > 0.0, "K_M shift must be positive");
        self.km_shift = shift;
        self
    }

    /// Finalizes the film.
    #[must_use]
    pub fn build(self) -> EnzymeFilm {
        EnzymeFilm {
            loading: self.loading,
            retained_activity: self.retained_activity,
            km_shift: self.km_shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::{Molar, RateConstant};

    fn kinetics() -> MichaelisMenten {
        MichaelisMenten::new(
            RateConstant::from_per_second(700.0),
            Molar::from_milli_molar(20.0),
        )
    }

    fn film() -> EnzymeFilm {
        EnzymeFilm::builder()
            .loading(SurfaceLoading::from_pico_mol_per_square_cm(50.0))
            .retained_activity(0.6)
            .build()
    }

    #[test]
    fn effective_loading_applies_activity() {
        let g = film().effective_loading();
        assert!((g.as_pico_mol_per_square_cm() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn km_shift_moves_apparent_km() {
        let shifted = EnzymeFilm::builder().km_shift(0.5).build();
        let app = shifted.apparent_kinetics(&kinetics());
        assert!((app.km().as_milli_molar() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "retained activity")]
    fn activity_fraction_validated() {
        let _ = EnzymeFilm::builder().retained_activity(1.5);
    }

    #[test]
    fn aging_decays_activity_exponentially() {
        let fresh = film();
        let day10 = fresh.aged(10.0, EnzymeFilm::TYPICAL_DECAY_PER_DAY);
        let expected = fresh.retained_activity * (-0.2f64).exp();
        assert!((day10.retained_activity - expected).abs() < 1e-12);
        // Everything else unchanged.
        assert_eq!(day10.loading, fresh.loading);
        assert_eq!(day10.km_shift, fresh.km_shift);
    }

    #[test]
    fn aging_composes() {
        let fresh = film();
        let two_step = fresh.aged(5.0, 0.02).aged(5.0, 0.02);
        let one_step = fresh.aged(10.0, 0.02);
        assert!((two_step.retained_activity - one_step.retained_activity).abs() < 1e-12);
    }

    #[test]
    fn zero_days_is_identity() {
        let fresh = film();
        assert_eq!(
            fresh.aged(0.0, 0.05).retained_activity,
            fresh.retained_activity
        );
    }

    #[test]
    fn lifetime_inverts_decay() {
        let f = film();
        let days = f.lifetime_to_fraction(0.5, 0.02);
        let aged = f.aged(days, 0.02);
        assert!((aged.retained_activity / f.retained_activity - 0.5).abs() < 1e-9);
        // Half-life at 2 %/day ≈ 34.7 days.
        assert!((days - 34.657).abs() < 0.01);
    }

    #[test]
    fn denatured_scales_activity_and_nothing_else() {
        let fresh = film();
        let hit = fresh.denatured(0.25);
        assert!((hit.retained_activity - fresh.retained_activity * 0.25).abs() < 1e-12);
        assert_eq!(hit.loading, fresh.loading);
    }

    #[test]
    #[should_panic(expected = "denaturation factor")]
    fn denatured_rejects_zero_factor() {
        let _ = film().denatured(0.0);
    }

    #[test]
    fn healthy_faults_leave_film_untouched() {
        let fresh = film();
        assert_eq!(fresh.with_faults(&RealizedFaults::healthy()), fresh);
    }

    #[test]
    fn injected_denaturation_applies() {
        let mut faults = RealizedFaults::healthy();
        faults.film_activity = 0.5;
        let hit = film().with_faults(&faults);
        assert!((hit.retained_activity - film().retained_activity * 0.5).abs() < 1e-12);
    }
}
