//! Thermodynamic temperature.

use std::fmt;

/// Thermodynamic temperature, stored canonically in kelvin.
///
/// Electrochemical experiments in the paper run at room temperature
/// (25 °C), provided as [`Kelvin::ROOM`].
///
/// # Examples
///
/// ```
/// use bios_units::Kelvin;
///
/// assert!((Kelvin::ROOM.as_kelvin() - 298.15).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Kelvin(f64);

impl Kelvin {
    /// Standard laboratory room temperature, 25 °C.
    pub const ROOM: Kelvin = Kelvin(298.15);

    /// Returns the temperature in kelvin.
    #[must_use]
    pub fn as_kelvin(self) -> f64 {
        self.0
    }

    /// Returns the temperature in degrees Celsius.
    #[must_use]
    pub fn as_celsius(self) -> f64 {
        self.0 - 273.15
    }
}

impl Default for Kelvin {
    /// Defaults to room temperature, the paper's experimental condition.
    fn default() -> Kelvin {
        Kelvin::ROOM
    }
}

impl fmt::Display for Kelvin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} °C", self.as_celsius())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn room_is_25_celsius() {
        assert!((Kelvin::ROOM.as_celsius() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_room() {
        assert_eq!(Kelvin::default(), Kelvin::ROOM);
    }

    #[test]
    fn display() {
        assert_eq!(Kelvin::ROOM.to_string(), "25.00 °C");
    }
}
