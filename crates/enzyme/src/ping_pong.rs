//! Two-substrate ping-pong bi-bi kinetics.
//!
//! Oxidases work in two half-reactions: the flavin is reduced by the
//! substrate (glucose → gluconolactone), then reoxidized by O₂ producing
//! H₂O₂. The steady-state rate is
//!
//! `v = k_cat / (1 + K_A/[A] + K_B/[B])`
//!
//! which reduces to Michaelis–Menten in substrate A when the co-substrate
//! B (oxygen) is saturating, and explains the oxygen-limitation plateau
//! that shapes real glucose-sensor linear ranges.

use bios_units::{nearly_zero, Molar, RateConstant};

use crate::michaelis::MichaelisMenten;

/// Ping-pong bi-bi kinetics for substrates A (analyte) and B
/// (co-substrate, typically dissolved O₂).
///
/// # Examples
///
/// ```
/// use bios_enzyme::ping_pong::PingPongBiBi;
/// use bios_units::{nearly_zero, Molar, RateConstant};
///
/// let god = PingPongBiBi::new(
///     RateConstant::from_per_second(700.0),
///     Molar::from_milli_molar(25.0),   // K_glucose
///     Molar::from_micro_molar(200.0),  // K_O2
/// );
/// // Air-saturated water holds ~250 µM O2.
/// let v = god.rate(Molar::from_milli_molar(5.0), Molar::from_micro_molar(250.0));
/// assert!(v.as_per_second() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongBiBi {
    kcat: RateConstant,
    ka: Molar,
    kb: Molar,
}

/// Dissolved O₂ concentration of air-saturated water at 25 °C, ≈ 250 µM.
pub const AIR_SATURATED_O2: Molar = Molar::from_molar(250.0e-6);

impl PingPongBiBi {
    /// Creates ping-pong kinetics from the limiting turnover and the two
    /// Michaelis constants.
    ///
    /// # Panics
    ///
    /// Panics if either Michaelis constant is not positive.
    #[must_use]
    pub fn new(kcat: RateConstant, ka: Molar, kb: Molar) -> PingPongBiBi {
        assert!(ka.as_molar() > 0.0, "K_A must be positive");
        assert!(kb.as_molar() > 0.0, "K_B must be positive");
        PingPongBiBi { kcat, ka, kb }
    }

    /// Steady-state per-molecule rate with analyte `a` and co-substrate
    /// `b` present.
    #[must_use]
    pub fn rate(&self, a: Molar, b: Molar) -> RateConstant {
        let a = a.as_molar().max(0.0);
        let b = b.as_molar().max(0.0);
        if nearly_zero(a) || nearly_zero(b) {
            return RateConstant::from_per_second(0.0);
        }
        let denom = 1.0 + self.ka.as_molar() / a + self.kb.as_molar() / b;
        RateConstant::from_per_second(self.kcat.as_per_second() / denom)
    }

    /// The apparent single-substrate kinetics in A at a fixed co-substrate
    /// level `b`:
    ///
    /// `k_cat' = k_cat/(1 + K_B/[B])`, `K_A' = K_A/(1 + K_B/[B])`.
    ///
    /// Oxygen starvation therefore *lowers* both the apparent `V_max` and
    /// the apparent `K_M` — the classic reason implanted glucose sensors
    /// read low in hypoxic tissue.
    #[must_use]
    pub fn apparent_in_a(&self, b: Molar) -> MichaelisMenten {
        let beta = 1.0 + self.kb.as_molar() / b.as_molar().max(f64::MIN_POSITIVE);
        MichaelisMenten::new(self.kcat / beta, self.ka / beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn god() -> PingPongBiBi {
        PingPongBiBi::new(
            RateConstant::from_per_second(700.0),
            Molar::from_milli_molar(25.0),
            Molar::from_micro_molar(200.0),
        )
    }

    #[test]
    fn saturating_both_substrates_approaches_kcat() {
        let v = god().rate(Molar::from_molar(1.0), Molar::from_molar(1.0));
        assert!(v.as_per_second() > 680.0);
    }

    #[test]
    fn zero_either_substrate_stalls() {
        assert_eq!(
            god().rate(Molar::ZERO, AIR_SATURATED_O2).as_per_second(),
            0.0
        );
        assert_eq!(
            god()
                .rate(Molar::from_milli_molar(5.0), Molar::ZERO)
                .as_per_second(),
            0.0
        );
    }

    #[test]
    fn oxygen_starvation_reduces_rate() {
        let a = Molar::from_milli_molar(5.0);
        let v_air = god().rate(a, AIR_SATURATED_O2);
        let v_hypoxic = god().rate(a, Molar::from_micro_molar(25.0));
        assert!(v_hypoxic < v_air);
    }

    #[test]
    fn apparent_kinetics_match_full_model() {
        let b = AIR_SATURATED_O2;
        let app = god().apparent_in_a(b);
        for c in [0.5, 2.0, 10.0, 50.0] {
            let a = Molar::from_milli_molar(c);
            let full = god().rate(a, b).as_per_second();
            let approx = app.turnover_rate(a).as_per_second();
            assert!((full - approx).abs() / full < 1e-9, "at {c} mM");
        }
    }

    #[test]
    fn apparent_km_shrinks_when_oxygen_limits() {
        let app_air = god().apparent_in_a(AIR_SATURATED_O2);
        let app_low = god().apparent_in_a(Molar::from_micro_molar(20.0));
        assert!(app_low.km() < app_air.km());
        assert!(app_low.kcat() < app_air.kcat());
    }

    #[test]
    fn monotone_in_both_substrates() {
        let mut prev = 0.0;
        for c in [0.1, 1.0, 10.0] {
            let v = god()
                .rate(Molar::from_milli_molar(c), AIR_SATURATED_O2)
                .as_per_second();
            assert!(v > prev);
            prev = v;
        }
        let mut prev = 0.0;
        for o in [10.0, 100.0, 1000.0] {
            let v = god()
                .rate(Molar::from_milli_molar(5.0), Molar::from_micro_molar(o))
                .as_per_second();
            assert!(v > prev);
            prev = v;
        }
    }
}
