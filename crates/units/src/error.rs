//! Error type of the fallible range constructors.

use std::error::Error;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, QuantityError>;

/// Error returned when a physical quantity is constructed from an
/// invalid numeric value.
///
/// # Examples
///
/// ```
/// use bios_units::{ConcentrationRange, QuantityError};
///
/// let err = ConcentrationRange::from_milli_molar(2.0, 1.0).unwrap_err();
/// assert!(matches!(err, QuantityError::InvertedRange { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QuantityError {
    /// A range was constructed with `low > high`.
    InvertedRange {
        /// Supplied lower bound (canonical unit).
        low: f64,
        /// Supplied upper bound (canonical unit).
        high: f64,
    },
}

impl fmt::Display for QuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantityError::InvertedRange { low, high } => {
                write!(f, "range lower bound {low} exceeds upper bound {high}")
            }
        }
    }
}

impl Error for QuantityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = QuantityError::InvertedRange {
            low: 2.0,
            high: 1.0,
        };
        assert_eq!(e.to_string(), "range lower bound 2 exceeds upper bound 1");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantityError>();
    }
}
