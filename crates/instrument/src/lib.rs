//! # bios-instrument
//!
//! The electrical half of the paper's platform: a virtual potentiostat
//! readout chain. §2.5 of the paper argues that integrating CMOS readout
//! next to the transducer improves SNR for the weak, noisy biological
//! signals; this crate supplies the noise floor and signal chain that
//! make detection limits *emerge* in simulation rather than being quoted.
//!
//! Signal path: true faradaic current → [`noise::NoiseGenerator`] →
//! [`amplifier::TransimpedanceAmplifier`] → [`adc::Adc`] →
//! [`filter`] smoothing, with an optional injected [`fault`] stage. The
//! whole chain is bundled in [`chain::ReadoutChain`];
//! [`sequencer::ScanSchedule`] models multiplexing one chain over
//! several channels.
//!
//! # Examples
//!
//! ```
//! use bios_instrument::chain::ReadoutChain;
//! use bios_units::Amperes;
//!
//! let mut chain = ReadoutChain::benchtop(42);
//! let reading = chain.digitize(Amperes::from_amps(250.0e-9));
//! // The chain adds noise and quantization but preserves the signal scale.
//! assert!((reading.as_nano_amps() - 250.0).abs() < 25.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod amplifier;
pub mod chain;
pub mod fault;
pub mod filter;
pub mod noise;
pub mod sequencer;

pub use adc::Adc;
pub use amplifier::TransimpedanceAmplifier;
pub use chain::ReadoutChain;
