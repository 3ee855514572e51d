//! Property tests for enzyme kinetics: saturation bounds, monotonicity,
//! linear-range inverses and the ping-pong reduction. Sampled
//! deterministically via `bios_prng::cases`.

use bios_enzyme::michaelis::MichaelisMenten;
use bios_enzyme::ping_pong::PingPongBiBi;
use bios_prng::cases;
use bios_units::{Molar, RateConstant};

fn mm(kcat: f64, km_milli: f64) -> MichaelisMenten {
    MichaelisMenten::new(
        RateConstant::from_per_second(kcat),
        Molar::from_milli_molar(km_milli),
    )
}

/// 0 ≤ rate < k_cat everywhere; rate(K_M) = k_cat/2 exactly.
#[test]
fn michaelis_menten_bounds() {
    cases(0x0201, 64, |rng| {
        let kcat = rng.log_uniform_in(0.1, 1e4);
        let km = rng.log_uniform_in(0.001, 100.0);
        let s = rng.uniform_in(0.0, 1e4);
        let k = mm(kcat, km);
        let v = k.turnover_rate(Molar::from_milli_molar(s)).as_per_second();
        assert!(v >= 0.0);
        assert!(v < kcat);
        let half = k.turnover_rate(Molar::from_milli_molar(km)).as_per_second();
        assert!((half - kcat / 2.0).abs() / kcat < 1e-12);
    });
}

/// Rate is monotone non-decreasing in substrate.
#[test]
fn michaelis_menten_monotone() {
    cases(0x0202, 64, |rng| {
        let kcat = rng.log_uniform_in(0.1, 1e4);
        let km = rng.log_uniform_in(0.001, 100.0);
        let s = rng.uniform_in(0.0, 1e3);
        let ds = rng.uniform_in(0.0, 1e3);
        let k = mm(kcat, km);
        let v1 = k.turnover_rate(Molar::from_milli_molar(s)).as_per_second();
        let v2 = k
            .turnover_rate(Molar::from_milli_molar(s + ds))
            .as_per_second();
        assert!(v2 >= v1);
    });
}

/// linear_limit and km_for_linear_limit are exact inverses.
#[test]
fn linear_limit_inverse() {
    cases(0x0203, 64, |rng| {
        let km = rng.log_uniform_in(0.001, 100.0);
        let tol = rng.uniform_in(0.01, 0.5);
        let k = mm(100.0, km);
        let limit = k.linear_limit(tol);
        let back = MichaelisMenten::km_for_linear_limit(limit, tol);
        assert!((back.as_milli_molar() - km).abs() / km < 1e-9);
    });
}

/// The saturation (the deviation from linearity) at the linear limit
/// equals the tolerance.
#[test]
fn deviation_at_limit_equals_tolerance() {
    cases(0x0204, 64, |rng| {
        let km = rng.log_uniform_in(0.001, 100.0);
        let tol = rng.uniform_in(0.01, 0.5);
        let k = mm(100.0, km);
        let limit = k.linear_limit(tol);
        assert!((k.saturation(limit) - tol).abs() < 1e-12);
    });
}

/// Ping-pong rate is bounded by min of the two single-substrate
/// saturations times k_cat.
#[test]
fn ping_pong_bounds() {
    cases(0x0207, 64, |rng| {
        let ka = rng.log_uniform_in(0.01, 50.0);
        let kb = rng.log_uniform_in(0.001, 1.0);
        let a = rng.uniform_in(0.0, 100.0);
        let b = rng.uniform_in(0.0, 2.0);
        let pp = PingPongBiBi::new(
            RateConstant::from_per_second(100.0),
            Molar::from_milli_molar(ka),
            Molar::from_milli_molar(kb),
        );
        let v = pp
            .rate(Molar::from_milli_molar(a), Molar::from_milli_molar(b))
            .as_per_second();
        assert!(v >= 0.0);
        assert!(v <= 100.0);
        // Never faster than either substrate allows alone.
        let sat_a = a / (ka + a);
        let sat_b = b / (kb + b);
        assert!(v <= 100.0 * sat_a.min(sat_b) + 1e-9);
    });
}

/// The apparent single-substrate reduction of ping-pong kinetics is
/// exact for any fixed co-substrate level.
#[test]
fn ping_pong_apparent_reduction_exact() {
    cases(0x0208, 64, |rng| {
        let ka = rng.log_uniform_in(0.01, 50.0);
        let kb = rng.log_uniform_in(0.001, 1.0);
        let b = rng.log_uniform_in(0.001, 2.0);
        let a = rng.log_uniform_in(0.001, 100.0);
        let pp = PingPongBiBi::new(
            RateConstant::from_per_second(100.0),
            Molar::from_milli_molar(ka),
            Molar::from_milli_molar(kb),
        );
        let fixed_b = Molar::from_milli_molar(b);
        let app = pp.apparent_in_a(fixed_b);
        let sub = Molar::from_milli_molar(a);
        let full = pp.rate(sub, fixed_b).as_per_second();
        let reduced = app.turnover_rate(sub).as_per_second();
        assert!((full - reduced).abs() / full.max(1e-30) < 1e-9);
    });
}
