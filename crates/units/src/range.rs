//! Concentration intervals — linear ranges and sweep windows.

use std::fmt;

use crate::error::{QuantityError, Result};
use crate::Molar;

/// A closed concentration interval `[low, high]`.
///
/// Used both for the *linear range* figure of merit (Table 2 of the paper)
/// and for specifying calibration sweep windows.
///
/// # Examples
///
/// ```
/// use bios_units::{ConcentrationRange, Molar};
///
/// // The paper's glucose sensor is linear from 0 to 1 mM.
/// let range = ConcentrationRange::new(
///     Molar::ZERO,
///     Molar::from_milli_molar(1.0),
/// )?;
/// assert!(range.contains(Molar::from_micro_molar(500.0)));
/// assert!(!range.contains(Molar::from_milli_molar(2.0)));
/// assert_eq!(range.width().as_milli_molar(), 1.0);
/// # Ok::<(), bios_units::QuantityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcentrationRange {
    low: Molar,
    high: Molar,
}

impl ConcentrationRange {
    /// Creates a range from its bounds.
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError::InvertedRange`] when `low > high`.
    pub fn new(low: Molar, high: Molar) -> Result<ConcentrationRange> {
        if low > high {
            Err(QuantityError::InvertedRange {
                low: low.as_molar(),
                high: high.as_molar(),
            })
        } else {
            Ok(ConcentrationRange { low, high })
        }
    }

    /// Convenience constructor from bounds in mM.
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError::InvertedRange`] when `low > high`.
    pub fn from_milli_molar(low: f64, high: f64) -> Result<ConcentrationRange> {
        ConcentrationRange::new(Molar::from_milli_molar(low), Molar::from_milli_molar(high))
    }

    /// Lower bound.
    #[must_use]
    pub fn low(&self) -> Molar {
        self.low
    }

    /// Upper bound.
    #[must_use]
    pub fn high(&self) -> Molar {
        self.high
    }

    /// Width of the interval.
    #[must_use]
    pub fn width(&self) -> Molar {
        self.high - self.low
    }

    /// Whether `c` lies inside the closed interval.
    #[must_use]
    pub fn contains(&self, c: Molar) -> bool {
        c >= self.low && c <= self.high
    }

    /// Intersection of two ranges, or `None` when disjoint.
    #[must_use]
    pub fn intersection(&self, other: &ConcentrationRange) -> Option<ConcentrationRange> {
        let low = self.low.max(other.low);
        let high = self.high.min(other.high);
        ConcentrationRange::new(low, high).ok()
    }

    /// `n` evenly spaced concentrations from `low` to `high` inclusive.
    ///
    /// The workhorse of calibration sweeps: `n ≥ 2` yields both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — a calibration needs at least two points.
    #[must_use]
    pub fn linspace(&self, n: usize) -> Vec<Molar> {
        assert!(n >= 2, "a concentration sweep needs at least 2 points");
        let lo = self.low.as_molar();
        let hi = self.high.as_molar();
        (0..n)
            .map(|k| Molar::from_molar(lo + (hi - lo) * k as f64 / (n - 1) as f64))
            .collect()
    }

    /// Jaccard-style overlap score with a reference range: intersection
    /// width divided by union width. 1.0 means identical ranges, 0.0 means
    /// disjoint. Used by the harness to score simulated linear ranges
    /// against the paper's.
    #[must_use]
    pub fn overlap_score(&self, reference: &ConcentrationRange) -> f64 {
        let inter = match self.intersection(reference) {
            Some(r) => r.width().as_molar(),
            None => return 0.0,
        };
        let union = self.width().as_molar() + reference.width().as_molar() - inter;
        if union == 0.0 {
            1.0
        } else {
            inter / union
        }
    }
}

impl fmt::Display for ConcentrationRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Use the unit of the upper bound for both ends, as the paper does.
        let hi = self.high.as_molar().abs();
        if hi >= 1e-3 {
            write!(
                f,
                "{:.3} – {:.3} mM",
                self.low.as_milli_molar(),
                self.high.as_milli_molar()
            )
        } else {
            write!(
                f,
                "{:.2} – {:.2} µM",
                self.low.as_micro_molar(),
                self.high.as_micro_molar()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(v: f64) -> Molar {
        Molar::from_milli_molar(v)
    }

    #[test]
    fn rejects_inverted_bounds() {
        assert!(ConcentrationRange::new(mm(2.0), mm(1.0)).is_err());
        assert!(ConcentrationRange::new(mm(1.0), mm(1.0)).is_ok());
    }

    #[test]
    fn contains_is_inclusive() {
        let outer = ConcentrationRange::from_milli_molar(0.0, 2.0).unwrap();
        assert!(outer.contains(mm(2.0)));
        assert!(!outer.contains(mm(2.0001)));
    }

    #[test]
    fn intersection_of_overlapping_ranges() {
        let a = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let b = ConcentrationRange::from_milli_molar(0.5, 2.0).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.low(), mm(0.5));
        assert_eq!(i.high(), mm(1.0));
        let c = ConcentrationRange::from_milli_molar(3.0, 4.0).unwrap();
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn linspace_hits_endpoints() {
        let r = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let pts = r.linspace(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], Molar::ZERO);
        assert!((pts[4].as_milli_molar() - 1.0).abs() < 1e-12);
        assert!((pts[2].as_milli_molar() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn linspace_needs_two_points() {
        let r = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let _ = r.linspace(1);
    }

    #[test]
    fn overlap_score_extremes() {
        let a = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let same = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        let disjoint = ConcentrationRange::from_milli_molar(2.0, 3.0).unwrap();
        assert!((a.overlap_score(&same) - 1.0).abs() < 1e-12);
        assert_eq!(a.overlap_score(&disjoint), 0.0);
        let half = ConcentrationRange::from_milli_molar(0.5, 1.0).unwrap();
        assert!((a.overlap_score(&half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_uses_paper_units() {
        let r = ConcentrationRange::from_milli_molar(0.0, 1.0).unwrap();
        assert_eq!(r.to_string(), "0.000 – 1.000 mM");
        let r = ConcentrationRange::new(Molar::ZERO, Molar::from_micro_molar(40.0)).unwrap();
        assert_eq!(r.to_string(), "0.00 – 40.00 µM");
    }
}
