//! Time-division multiplexing of one readout chain across channels.
//!
//! A cost-optimized platform shares one potentiostat front end among the
//! chip's five working electrodes through an analog multiplexer (§2.5's
//! integration trade-offs). Switching channels disturbs the double layer,
//! so each visit pays a settling delay before its samples count.

use bios_units::Seconds;

/// A scan schedule over `channels`, visiting each for `dwell` after a
/// `settling` blanking interval.
///
/// # Examples
///
/// ```
/// use bios_instrument::sequencer::ScanSchedule;
/// use bios_units::Seconds;
///
/// let s = ScanSchedule::new(5, Seconds::from_millis(50.0), Seconds::from_millis(200.0));
/// // One full frame visits all five channels.
/// assert_eq!(s.frame_time().as_millis(), 5.0 * 250.0);
/// assert!(s.duty_cycle() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanSchedule {
    channels: usize,
    settling: Seconds,
    dwell: Seconds,
}

impl ScanSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or the dwell is not positive.
    #[must_use]
    pub fn new(channels: usize, settling: Seconds, dwell: Seconds) -> ScanSchedule {
        assert!(channels > 0, "schedule needs at least one channel");
        assert!(dwell.as_seconds() > 0.0, "dwell must be positive");
        ScanSchedule {
            channels,
            settling,
            dwell,
        }
    }

    /// Number of channels in the frame.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Time for one complete pass over all channels.
    #[must_use]
    pub fn frame_time(&self) -> Seconds {
        Seconds::from_seconds(
            self.channels as f64 * (self.settling.as_seconds() + self.dwell.as_seconds()),
        )
    }

    /// Fraction of wall time spent usefully sampling.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.dwell.as_seconds() / (self.settling.as_seconds() + self.dwell.as_seconds())
    }

    /// Effective per-channel sample rate given an ADC rate `hz`: samples
    /// gathered per channel per second of wall time.
    #[must_use]
    pub fn effective_rate_hz(&self, adc_hz: f64) -> f64 {
        adc_hz * self.dwell.as_seconds() / self.frame_time().as_seconds()
    }

    /// The SNR penalty (in linear amplitude ratio) of multiplexing vs a
    /// dedicated chain, from reduced averaging: `√(1/channels · duty)`.
    #[must_use]
    pub fn snr_penalty(&self) -> f64 {
        (self.duty_cycle() / self.channels as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> ScanSchedule {
        ScanSchedule::new(5, Seconds::from_millis(50.0), Seconds::from_millis(200.0))
    }

    #[test]
    fn frame_accounting() {
        let s = schedule();
        assert!((s.frame_time().as_seconds() - 1.25).abs() < 1e-12);
        assert!((s.duty_cycle() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn effective_rate_divides_among_channels() {
        let s = schedule();
        // 1 kHz ADC → per channel: 1000·0.2/1.25 = 160 Hz.
        assert!((s.effective_rate_hz(1000.0) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn more_channels_lower_rate_and_snr() {
        let two = ScanSchedule::new(2, Seconds::from_millis(50.0), Seconds::from_millis(200.0));
        let five = schedule();
        assert!(two.effective_rate_hz(1000.0) > five.effective_rate_hz(1000.0));
        assert!(two.snr_penalty() > five.snr_penalty());
    }

    #[test]
    fn longer_settling_hurts_duty_cycle() {
        let slow = ScanSchedule::new(5, Seconds::from_millis(200.0), Seconds::from_millis(200.0));
        assert!(slow.duty_cycle() < schedule().duty_cycle());
    }
}
