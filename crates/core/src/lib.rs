//! # bios-core
//!
//! The paper's primary contribution, virtualized: a **modular platform
//! for multi-target electrochemical biosensing**, with a clean separation
//! between the chemical component (electrode + nanomaterial + enzyme,
//! from [`bios_nanomaterial`] and [`bios_enzyme`]) and the electrical
//! component (the readout chain from [`bios_instrument`]).
//!
//! Module map:
//!
//! * [`classification`] — the §2 survey as a typed ontology plus a
//!   queryable registry of literature sensors.
//! * [`analyte`] — the analytes of Table 1 (metabolites + drugs) and the
//!   common interferents.
//! * [`sample`] — synthetic physiological samples (the simulate-the-
//!   missing-wet-lab substitution).
//! * [`sensor`] — [`sensor::Biosensor`]: a composed sensing channel with
//!   a physics-based forward model from concentration to current.
//! * [`protocol`] — chronoamperometric and voltammetric calibration
//!   protocols producing [`bios_analytics::CalibrationCurve`]s.
//! * [`platform`] — the multi-working-electrode chip
//!   ([`platform::SensingPlatform`]) and the 3-D integration cost model.
//! * [`catalog`] — every sensor of the paper's Tables 1 and 2 (the
//!   authors' devices *and* the literature baselines) as ready-to-run
//!   configurations with their paper-reported figures of merit.
//!
//! # Examples
//!
//! ```
//! use bios_core::catalog;
//! use bios_core::protocol::CalibrationProtocol;
//!
//! // Reproduce the paper's glucose sensor row end to end.
//! let entry = catalog::our_glucose_sensor();
//! let outcome = entry.run_calibration(42)?;
//! let s = outcome.summary.sensitivity;
//! // Table 2 reports 55.5 µA·mM⁻¹·cm⁻²; the simulation should land close.
//! assert!(s.relative_error(entry.paper().sensitivity) < 0.25);
//! # Ok::<(), bios_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyte;
pub mod catalog;
pub mod classification;
pub mod error;
pub mod platform;
pub mod protocol;
pub mod quantify;
pub mod sample;
pub mod sensor;

pub use analyte::Analyte;
pub use error::CoreError;
pub use sample::Sample;
pub use sensor::Biosensor;
