//! Per-patient calibration epochs and streaming state.
//!
//! A patient's current is converted to concentration by whichever
//! *calibration epoch* is active. Epoch 0 comes from the bootstrap
//! fleet; each drift-triggered recalibration that completes swaps in
//! the next epoch at a known tick. The swap is the only mutation, so
//! every reading is attributable to exactly one `(epoch, tick)` pair —
//! the determinism argument in DESIGN.md §13 leans on this.

use bios_analytics::DriftMonitor;

/// One calibration epoch: the gain the stream uses to invert currents
/// into concentrations from `calibrated_tick` onward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationEpoch {
    /// 0 for bootstrap, +1 per completed recalibration.
    pub index: u32,
    /// Logical tick the epoch became active.
    pub calibrated_tick: u64,
    /// Whole-electrode sensitivity, µA per mM.
    pub sensitivity_micro_amps_per_milli_molar: f64,
}

/// Everything the stream engine tracks per patient.
#[derive(Debug)]
pub struct PatientState {
    /// Online drift monitor over standardized residuals.
    pub monitor: DriftMonitor,
    /// Active calibration epoch; `None` when bootstrap failed and the
    /// patient is unmonitored.
    pub epoch: Option<CalibrationEpoch>,
    /// Recalibrations requested so far (caps retries).
    pub recal_attempts: u32,
    /// Request id of the in-flight recalibration, if any.
    pub inflight: Option<u64>,
    /// Earliest tick the next recalibration may be requested (backoff
    /// after failures/rejections).
    pub next_eligible_tick: u64,
    /// First tick the monitor tripped, if it has.
    pub detected_tick: Option<u64>,
    /// Σ |ĉ − c| / c over readings with c > 0 (MARD numerator).
    pub abs_rel_err_sum: f64,
    /// Readings accumulated into the MARD (denominator).
    pub readings: u64,
}

impl PatientState {
    /// Fresh state around `monitor`, with no epoch yet.
    #[must_use]
    pub fn new(monitor: DriftMonitor) -> PatientState {
        PatientState {
            monitor,
            epoch: None,
            recal_attempts: 0,
            inflight: None,
            next_eligible_tick: 0,
            detected_tick: None,
            abs_rel_err_sum: 0.0,
            readings: 0,
        }
    }

    /// Installs a new epoch and re-baselines the drift monitor against
    /// it. The monitor must re-learn its reference level because the
    /// new gain changes what a "zero residual" looks like.
    pub fn swap_epoch(&mut self, epoch: CalibrationEpoch) {
        self.epoch = Some(epoch);
        self.monitor.rebaseline();
        self.inflight = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_epoch_rebaselines_and_clears_inflight() {
        let mut state = PatientState::new(DriftMonitor::new(4, 3.0));
        state.inflight = Some(9);
        for _ in 0..4 {
            state.monitor.observe(0.0);
        }
        for _ in 0..8 {
            state.monitor.observe(10.0);
        }
        assert!(state.monitor.tripped());
        state.swap_epoch(CalibrationEpoch {
            index: 1,
            calibrated_tick: 40,
            sensitivity_micro_amps_per_milli_molar: 5.0,
        });
        assert!(!state.monitor.tripped(), "rebaseline clears the trip");
        // The baseline re-learns: the next window of the shifted level
        // warms the monitor up instead of tripping it.
        for _ in 0..4 {
            assert!(!state.monitor.observe(10.0), "baseline re-learns");
        }
        assert_eq!(state.inflight, None);
        assert_eq!(state.epoch.map(|e| e.index), Some(1));
    }
}
