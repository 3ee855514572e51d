//! # bios-electrochem
//!
//! Electrochemical physics engine underlying the biosensor simulation
//! platform.
//!
//! The paper's devices are amperometric and voltammetric sensors; every
//! figure of merit they report is ultimately governed by a handful of
//! textbook relations plus diffusive mass transport:
//!
//! * [`nernst`] — the thermal voltage and the Nernstian slope per
//!   decade that potentiometric sensors are graded against.
//! * [`cottrell`] — the diffusion-limited current transient after a
//!   potential step (chronoamperometry, the oxidase-sensor technique).
//! * [`randles_sevcik`] — peak currents in cyclic voltammetry (the
//!   cytochrome-P450 sensor technique), diffusive and surface-confined.
//! * [`diffusion`] — a 1-D finite-difference mass-transport solver
//!   (explicit and Crank–Nicolson schemes) for when the closed forms do
//!   not apply.
//! * [`waveform`] — the cyclic-sweep potential program.
//! * [`species`] — redox couple descriptors (`E⁰`, `n`, `α`, `k⁰`, `D`).
//! * [`double_layer`] — capacitive charging currents that contaminate the
//!   faradaic signal.
//! * [`voltammetry`] — a full digital simulation of cyclic voltammetry
//!   (Nernstian and quasireversible) built on the diffusion solver.
//! * [`degradation`] — electrode fouling and reference drift as a
//!   current multiplier.
//! * [`potentiometry`], [`impedance`], [`field_effect`] — the
//!   potentiometric, impedimetric and FET transducers of the paper's
//!   §2.3 survey.
//! * [`checkpoint`] — cooperative cancellation
//!   ([`checkpoint::CheckPoint`]) polled inside the diffusion and
//!   voltammetry inner loops so a fleet watchdog can reclaim a worker
//!   without preemption.
//!
//! # Examples
//!
//! ```
//! use bios_electrochem::cottrell;
//! use bios_units::{DiffusionCoefficient, Molar, SquareCm, Seconds};
//!
//! // Diffusion-limited current 1 s after stepping the potential on a
//! // 0.25 mm² electrode in 1 mM H2O2.
//! let i = cottrell::cottrell_current(
//!     2,
//!     SquareCm::from_square_mm(0.25),
//!     DiffusionCoefficient::from_square_cm_per_second(1.43e-5),
//!     Molar::from_milli_molar(1.0),
//!     Seconds::from_seconds(1.0),
//! );
//! assert!(i.as_micro_amps() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod cottrell;
pub mod degradation;
pub mod diffusion;
pub mod double_layer;
pub mod error;
pub mod field_effect;
pub mod impedance;
pub mod nernst;
pub mod potentiometry;
pub mod randles_sevcik;
pub mod species;
pub mod voltammetry;
pub mod waveform;

pub use species::RedoxCouple;
pub use waveform::CyclicSweep;
