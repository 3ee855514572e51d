//! Typed errors for invalid electrochemical configurations.
//!
//! Construction-time validation used to `assert!`, which aborts the
//! calling thread — fatal for a fleet runtime where one bad config
//! should fail one job, not the process. Input validation now returns
//! [`ElectrochemError`]; internal invariants that cannot be violated by
//! caller input stay as `debug_assert!`s.

use std::error::Error;
use std::fmt;

/// Reasons an electrochemical model rejects its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ElectrochemError {
    /// A spatial grid was requested with too few nodes to discretize.
    GridTooSmall {
        /// Nodes requested.
        requested: usize,
        /// Minimum nodes the solver needs.
        minimum: usize,
    },
    /// A spatial domain length was zero, negative, or non-finite.
    InvalidLength {
        /// The offending length in cm.
        length_cm: f64,
    },
    /// A checked solver loop observed its cancellation token and
    /// stopped cooperatively (watchdog deadline, shutdown).
    Cancelled,
    /// The solution field left the finite domain (NaN or ±Inf) — the
    /// numerics diverged and nothing downstream may trust the state.
    NonFinite {
        /// Inner-loop step index at which non-finite values were seen.
        step: usize,
    },
}

impl fmt::Display for ElectrochemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElectrochemError::GridTooSmall { requested, minimum } => {
                write!(f, "grid needs at least {minimum} nodes, got {requested}")
            }
            ElectrochemError::InvalidLength { length_cm } => {
                write!(
                    f,
                    "domain length must be positive and finite, got {length_cm} cm"
                )
            }
            ElectrochemError::Cancelled => {
                write!(f, "solver cancelled at a cooperative checkpoint")
            }
            ElectrochemError::NonFinite { step } => {
                write!(f, "solution became non-finite at step {step}")
            }
        }
    }
}

impl Error for ElectrochemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ElectrochemError::GridTooSmall {
            requested: 2,
            minimum: 3,
        };
        assert!(e.to_string().contains("at least 3 nodes"));
        let e = ElectrochemError::InvalidLength { length_cm: -0.5 };
        assert!(e.to_string().contains("positive"));
    }
}
