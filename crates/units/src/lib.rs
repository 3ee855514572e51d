//! # bios-units
//!
//! Strongly-typed physical quantities for electrochemical biosensor
//! simulation.
//!
//! Every quantity is a newtype over `f64` with an explicit canonical unit,
//! so a concentration can never be confused with a potential, and unit
//! conversions are spelled out at construction or extraction time
//! (Rust API guideline C-NEWTYPE).
//!
//! Canonical storage units:
//!
//! | Type | Canonical unit |
//! |---|---|
//! | [`Molar`] | mol · L⁻¹ |
//! | [`Amperes`] | A |
//! | [`Volts`] | V |
//! | [`SquareCm`] | cm² |
//! | [`Centimeters`] | cm |
//! | [`Seconds`] | s |
//! | [`Kelvin`] | K |
//! | [`Sensitivity`] | µA · mM⁻¹ · cm⁻² |
//! | [`CurrentDensity`] | A · cm⁻² |
//! | [`SurfaceLoading`] | mol · cm⁻² |
//! | [`DiffusionCoefficient`] | cm² · s⁻¹ |
//! | [`RateConstant`] | s⁻¹ |
//! | [`ScanRate`] | V · s⁻¹ |
//!
//! # Examples
//!
//! ```
//! use bios_units::{Molar, Amperes, SquareCm, Sensitivity};
//!
//! let glucose = Molar::from_milli_molar(5.0);
//! assert_eq!(glucose.as_milli_molar(), 5.0);
//!
//! let area = SquareCm::from_square_mm(13.0);
//! let current = Amperes::from_micro_amps(7.2);
//! let density = current / area;
//! assert!((density.as_micro_amps_per_square_cm() - 7.2 / 0.13).abs() < 1e-9);
//!
//! // Sensitivity is a calibration slope normalized by electrode area.
//! let s = Sensitivity::new(55.5);
//! assert_eq!(s.as_micro_amps_per_milli_molar_square_cm(), 55.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
mod concentration;
mod electrical;
mod error;
mod geometry;
mod kinetic;
mod macros;
mod range;
mod sensitivity;
mod temperature;
mod time;

pub use approx::nearly_zero;
pub use concentration::{Molar, SurfaceLoading};
pub use electrical::{Amperes, CurrentDensity, Ohms, ScanRate, Volts};
pub use error::QuantityError;
pub use geometry::{Centimeters, SquareCm};
pub use kinetic::{DiffusionCoefficient, RateConstant};
pub use range::ConcentrationRange;
pub use sensitivity::Sensitivity;
pub use temperature::Kelvin;
pub use time::Seconds;

/// Faraday constant, C · mol⁻¹.
pub const FARADAY: f64 = 96_485.332_12;

/// Molar gas constant, J · mol⁻¹ · K⁻¹.
pub const GAS_CONSTANT: f64 = 8.314_462_618;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_codata_values() {
        assert!((FARADAY - 96485.33212).abs() < 1e-4);
        assert!((GAS_CONSTANT - 8.314462618).abs() < 1e-9);
    }

    #[test]
    fn thermal_voltage_at_room_temperature() {
        // RT/F ≈ 25.7 mV at 25 °C — the number every electrochemist knows.
        let t = Kelvin::ROOM;
        let vt = GAS_CONSTANT * t.as_kelvin() / FARADAY;
        assert!((vt - 0.02569).abs() < 1e-4);
    }
}
