//! The epsilon guard for floating-point degeneracy tests.
//!
//! Exact `==`/`!=` on floats is banned in solver and analytics code by
//! the `F-eq` audit rule (DESIGN.md §11): after any arithmetic, two
//! mathematically equal values may differ in their last bits, and an
//! exact comparison silently turns that rounding into a control-flow
//! change. [`nearly_zero`] spells out the tolerance instead: an
//! *absolute* test against [`ABS_EPS`], for degeneracy guards (`sxx`,
//! determinants, denominators) where the natural scale of a genuinely
//! non-degenerate input is far above the tolerance (unitless, or
//! whatever unit the caller's quantity carries).
//!
//! Exact sentinel semantics ("this field was never set") should use an
//! `Option` or an explicit flag, not a float compare; where a legacy
//! exact compare is genuinely intended, waive the audit rule with a
//! reason instead of reaching for this helper.

/// Absolute tolerance: values this close to zero are treated as zero.
/// Chosen far below any physical quantity this workspace computes
/// (currents are ≥ pA ≈ 1e-12 A, concentrations ≥ pM ≈ 1e-12 M) so
/// replacing an exact guard with [`nearly_zero`] never changes the
/// outcome for legitimate inputs (unitless threshold).
pub const ABS_EPS: f64 = 1e-300;

/// True when `x` is within [`ABS_EPS`] of zero (absolute test,
/// unitless threshold). Non-finite inputs are never nearly zero.
#[must_use]
pub fn nearly_zero(x: f64) -> bool {
    x.abs() <= ABS_EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_guards() {
        assert!(nearly_zero(0.0));
        assert!(nearly_zero(-0.0));
        assert!(nearly_zero(1e-301));
        assert!(!nearly_zero(1e-12), "picoscale physics is not zero");
        assert!(!nearly_zero(f64::NAN));
        assert!(!nearly_zero(f64::INFINITY));
    }
}
