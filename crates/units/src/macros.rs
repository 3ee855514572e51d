//! Private helper macro generating the arithmetic and trait boilerplate
//! shared by all quantity newtypes.

/// Implements `Add`, `Sub`, scalar `Mul`/`Div`, quantity-ratio `Div`,
/// `Neg`-free ordering helpers, and `Sum` for a `f64` newtype.
///
/// The newtype must expose its raw value through a field named `0`.
macro_rules! quantity_ops {
    ($ty:ident) => {
        impl std::ops::Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }

        impl std::ops::Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }

        impl std::ops::Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }

        impl std::ops::Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }

        impl std::ops::Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl std::ops::Div for $ty {
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|q| q.0).sum())
            }
        }

        impl $ty {
            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }
        }
    };
}

pub(crate) use quantity_ops;
