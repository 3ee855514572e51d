//! Time quantity.

use std::fmt;

use crate::macros::quantity_ops;

/// Time, stored canonically in seconds.
///
/// # Examples
///
/// ```
/// use bios_units::Seconds;
///
/// let settle = Seconds::from_millis(250.0);
/// assert_eq!(settle.as_seconds(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

quantity_ops!(Seconds);

impl Seconds {
    /// Creates a time from seconds.
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Seconds {
        Seconds(seconds)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Seconds {
        Seconds(millis * 1e-3)
    }

    /// Returns the time in seconds.
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// Returns the time in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 && self.0 != 0.0 {
            write!(f, "{:.1} ms", self.as_millis())
        } else {
            write!(f, "{:.3} s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ladder() {
        assert_eq!(Seconds::from_millis(1500.0).as_seconds(), 1.5);
    }

    #[test]
    fn display() {
        assert_eq!(Seconds::from_seconds(2.0).to_string(), "2.000 s");
        assert_eq!(Seconds::from_millis(5.0).to_string(), "5.0 ms");
    }
}
