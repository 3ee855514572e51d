//! Michaelis–Menten kinetics.

use bios_units::{Molar, RateConstant};

/// Michaelis–Menten kinetics of a single-substrate enzyme:
///
/// `v = k_cat·[S]/(K_M + [S])` (per enzyme molecule).
///
/// # Examples
///
/// ```
/// use bios_enzyme::michaelis::MichaelisMenten;
/// use bios_units::{Molar, RateConstant};
///
/// let mm = MichaelisMenten::new(
///     RateConstant::from_per_second(100.0),
///     Molar::from_milli_molar(1.0),
/// );
/// // Saturation: rate approaches k_cat at high substrate.
/// let v = mm.turnover_rate(Molar::from_milli_molar(100.0));
/// assert!(v.as_per_second() > 99.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MichaelisMenten {
    kcat: RateConstant,
    km: Molar,
}

impl MichaelisMenten {
    /// Creates kinetics from the turnover number `k_cat` and the Michaelis
    /// constant `K_M`.
    ///
    /// # Panics
    ///
    /// Panics if `K_M` is not strictly positive.
    #[must_use]
    pub fn new(kcat: RateConstant, km: Molar) -> MichaelisMenten {
        assert!(km.as_molar() > 0.0, "Michaelis constant must be positive");
        MichaelisMenten { kcat, km }
    }

    /// Turnover number `k_cat`.
    #[must_use]
    pub fn kcat(&self) -> RateConstant {
        self.kcat
    }

    /// Michaelis constant `K_M`.
    #[must_use]
    pub fn km(&self) -> Molar {
        self.km
    }

    /// Per-molecule turnover rate at substrate concentration `s`.
    #[must_use]
    pub fn turnover_rate(&self, s: Molar) -> RateConstant {
        let frac = self.saturation(s);
        RateConstant::from_per_second(self.kcat.as_per_second() * frac)
    }

    /// The saturation fraction `[S]/(K_M + [S])` ∈ [0, 1).
    #[must_use]
    pub fn saturation(&self, s: Molar) -> f64 {
        let s = s.as_molar().max(0.0);
        s / (self.km.as_molar() + s)
    }

    /// The substrate concentration at which the linearity deviation
    /// reaches `tolerance` — the theoretical end of the linear range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1`.
    #[must_use]
    pub fn linear_limit(&self, tolerance: f64) -> Molar {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must lie in (0, 1)"
        );
        // s/(Km+s) = tol  →  s = Km·tol/(1−tol).
        Molar::from_molar(self.km.as_molar() * tolerance / (1.0 - tolerance))
    }

    /// Inverse of [`MichaelisMenten::linear_limit`]: the apparent `K_M`
    /// that puts the end of the linear range at `limit` for the given
    /// `tolerance`. Used to calibrate catalog sensors from their reported
    /// linear ranges.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1` and `limit > 0`.
    #[must_use]
    pub fn km_for_linear_limit(limit: Molar, tolerance: f64) -> Molar {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must lie in (0, 1)"
        );
        assert!(limit.as_molar() > 0.0, "linear limit must be positive");
        Molar::from_molar(limit.as_molar() * (1.0 - tolerance) / tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MichaelisMenten {
        MichaelisMenten::new(
            RateConstant::from_per_second(700.0),
            Molar::from_milli_molar(33.0),
        )
    }

    #[test]
    fn half_rate_at_km() {
        let v = mm().turnover_rate(Molar::from_milli_molar(33.0));
        assert!((v.as_per_second() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn rate_is_monotone_in_substrate() {
        let mut prev = -1.0;
        for c in [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let v = mm()
                .turnover_rate(Molar::from_milli_molar(c))
                .as_per_second();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn zero_substrate_gives_zero_rate() {
        assert_eq!(mm().turnover_rate(Molar::ZERO).as_per_second(), 0.0);
    }

    #[test]
    fn rate_never_exceeds_kcat() {
        let v = mm().turnover_rate(Molar::from_molar(100.0));
        assert!(v.as_per_second() < 700.0);
    }

    #[test]
    fn linear_limit_round_trips_with_km_for_linear_limit() {
        let tol = 0.05;
        let limit = mm().linear_limit(tol);
        let km = MichaelisMenten::km_for_linear_limit(limit, tol);
        assert!((km.as_molar() - 0.033).abs() < 1e-12);
    }

    #[test]
    fn five_percent_linearity_at_km_over_19() {
        let limit = mm().linear_limit(0.05);
        assert!((limit.as_milli_molar() - 33.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Michaelis constant")]
    fn zero_km_rejected() {
        let _ = MichaelisMenten::new(RateConstant::from_per_second(1.0), Molar::ZERO);
    }
}
