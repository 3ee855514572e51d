//! Error type for platform operations.

use std::error::Error;
use std::fmt;

use bios_analytics::AnalyticsError;
use bios_units::QuantityError;

/// Convenience alias for platform results.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised while configuring or running the sensing platform.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A calibration could not be analyzed.
    Analytics(AnalyticsError),
    /// An invalid physical quantity was supplied.
    Quantity(QuantityError),
    /// A platform channel index is out of range.
    ChannelOutOfRange {
        /// Requested channel.
        channel: usize,
        /// Channels available.
        available: usize,
    },
    /// A platform channel has no sensor mounted.
    ChannelEmpty {
        /// The empty channel.
        channel: usize,
    },
    /// A builder was finalized before a required part was supplied.
    BuilderIncomplete {
        /// The missing part, with its article (e.g. `"an electrode"`).
        missing: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Analytics(e) => write!(f, "calibration analysis failed: {e}"),
            CoreError::Quantity(e) => write!(f, "invalid quantity: {e}"),
            CoreError::ChannelOutOfRange { channel, available } => {
                write!(f, "channel {channel} out of range ({available} available)")
            }
            CoreError::ChannelEmpty { channel } => {
                write!(f, "channel {channel} has no sensor mounted")
            }
            CoreError::BuilderIncomplete { missing } => {
                write!(f, "biosensor builder needs {missing}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Analytics(e) => Some(e),
            CoreError::Quantity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AnalyticsError> for CoreError {
    fn from(e: AnalyticsError) -> CoreError {
        CoreError::Analytics(e)
    }
}

impl From<QuantityError> for CoreError {
    fn from(e: QuantityError) -> CoreError {
        CoreError::Quantity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::ChannelOutOfRange {
            channel: 7,
            available: 5,
        };
        assert_eq!(e.to_string(), "channel 7 out of range (5 available)");
        let e = CoreError::ChannelEmpty { channel: 2 };
        assert!(e.to_string().contains("no sensor"));
    }

    #[test]
    fn sources_are_chained() {
        let inner = AnalyticsError::NonPositiveSlope;
        let e = CoreError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
