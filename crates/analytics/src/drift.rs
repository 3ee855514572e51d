//! Drift and fault detection from calibration residuals.
//!
//! A deployed sensor re-calibrates periodically; comparing each fresh
//! calibration curve against a trusted reference curve is the cheapest
//! way to notice that the device has degraded (film denaturation,
//! fouling, drifting reference, glitching readout) *before* its reported
//! concentrations go quietly wrong. [`DriftDetector`] implements the
//! rolling-residual test the chaos ablation uses to score *detected*
//! faults against *injected* ones: point-wise residuals between the two
//! curves are normalized by the replicate noise scale, averaged over a
//! rolling window (so a consistent shift stands out above uncorrelated
//! noise), and compared against a z-score threshold.

//!
//! [`ResidualRing`] is the fixed-capacity rolling window both detectors
//! share: one allocation at construction, zero per-push allocation, and
//! a mean that sums the retained residuals in logical (oldest-first)
//! order so its result is bit-identical to the slice-window formulation
//! it replaced. [`DriftMonitor`] wraps the ring into the *incremental*
//! form the longitudinal stream engine needs: one normalized residual
//! per logical tick, a warm-up baseline that absorbs calibration bias,
//! and a latched trip decision.

use crate::calibration::CalibrationCurve;
use crate::error::{AnalyticsError, Result};

/// A fixed-capacity ring buffer over the last `capacity` normalized
/// residuals. Allocates once at construction; every push thereafter is
/// a slot overwrite, so rolling a window across a curve (or a
/// million-tick patient stream) costs zero allocation.
///
/// # Examples
///
/// ```
/// use bios_analytics::drift::ResidualRing;
///
/// let mut ring = ResidualRing::new(3);
/// for z in [1.0, 2.0, 3.0, 4.0] {
///     ring.push(z);
/// }
/// // Oldest value (1.0) was evicted; mean of [2, 3, 4] is 3.
/// assert!((ring.mean() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualRing {
    slots: Vec<f64>,
    head: usize,
    len: usize,
}

impl ResidualRing {
    /// A ring holding the last `capacity` pushes (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> ResidualRing {
        ResidualRing {
            slots: vec![0.0; capacity.max(1)],
            head: 0,
            len: 0,
        }
    }

    /// The fixed window length.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether the window has filled to capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Pushes one residual, evicting the oldest once full.
    pub fn push(&mut self, z: f64) {
        self.slots[self.head] = z;
        self.head += 1;
        if self.head == self.capacity() {
            self.head = 0;
        }
        self.len = (self.len + 1).min(self.capacity());
    }

    /// Mean of the retained residuals, summed oldest-first — the same
    /// association order as summing a contiguous slice window, so the
    /// result is bit-identical to the `windows()` formulation. Returns
    /// 0.0 while empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        // `head` and `len` both start at 0 and advance together until
        // the ring fills, so a ring that is not full holds
        // `slots[..len]`; a full one holds `slots[head..]` (oldest)
        // then `slots[..head]`.
        let (before, after) = self.slots.split_at(self.head);
        let (oldest, newest) = if self.is_full() {
            (after, before)
        } else {
            (before, &[][..])
        };
        let mut sum = 0.0;
        for z in oldest.iter().chain(newest) {
            sum += z;
        }
        sum / self.len as f64
    }

    /// Forgets every retained residual (capacity is kept).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// Rolling-residual drift detector.
///
/// # Examples
///
/// ```
/// use bios_analytics::drift::DriftDetector;
///
/// let detector = DriftDetector::default();
/// assert_eq!(detector.window(), 5);
/// assert!((detector.threshold() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetector {
    window: usize,
    threshold: f64,
}

impl DriftDetector {
    /// Builds a detector with the given rolling-window length (clamped
    /// to at least 1) and z-score threshold.
    #[must_use]
    pub fn new(window: usize, threshold: f64) -> DriftDetector {
        DriftDetector {
            window: window.max(1),
            threshold,
        }
    }

    /// Rolling-window length in calibration points.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Detection threshold on the windowed mean z-score.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Compares `observed` against the trusted `reference` curve.
    ///
    /// Both curves must cover the same standards. Residuals are scaled
    /// by the larger of the two blank sigmas (reduced by √replicates,
    /// since each point is a replicate mean), then averaged over the
    /// rolling window; the largest |windowed mean| is the drift score.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticsError::LengthMismatch`] when the curves have
    /// different numbers of points, [`AnalyticsError::TooFewPoints`]
    /// when they have fewer than 3, and
    /// [`AnalyticsError::NonFiniteInput`] when the standards disagree or
    /// the noise scale degenerates.
    pub fn assess(
        &self,
        reference: &CalibrationCurve,
        observed: &CalibrationCurve,
    ) -> Result<DriftAssessment> {
        let ref_x = reference.concentrations_milli_molar();
        let obs_x = observed.concentrations_milli_molar();
        if ref_x.len() != obs_x.len() {
            return Err(AnalyticsError::LengthMismatch {
                xs: ref_x.len(),
                ys: obs_x.len(),
            });
        }
        if ref_x.len() < 3 {
            return Err(AnalyticsError::TooFewPoints {
                needed: 3,
                got: ref_x.len(),
            });
        }
        for (a, b) in ref_x.iter().zip(&obs_x) {
            if (a - b).abs() > 1e-9 * a.abs().max(1.0) {
                return Err(AnalyticsError::NonFiniteInput);
            }
        }

        let replicates = reference
            .points()
            .iter()
            .map(|p| p.replicates().len())
            .min()
            .unwrap_or(1)
            .max(1);
        let sigma_amps = reference
            .blank_sigma()
            .as_amps()
            .max(observed.blank_sigma().as_amps());
        let sigma_point = sigma_amps * 1e6 / (replicates as f64).sqrt();
        if !(sigma_point.is_finite() && sigma_point > 0.0) {
            return Err(AnalyticsError::NonFiniteInput);
        }

        let ref_y = reference.mean_currents_micro_amps();
        let obs_y = observed.mean_currents_micro_amps();
        let window = self.window.min(ref_y.len());
        // One fixed ring instead of materializing the residual vector
        // and re-walking slice windows: each push overwrites one slot,
        // and `mean()` sums oldest-first, so the scores are bit-identical
        // to the previous `windows()` formulation.
        let mut ring = ResidualRing::new(window);
        let mut score: f64 = 0.0;
        for (r, o) in ref_y.iter().zip(&obs_y) {
            ring.push((o - r) / sigma_point);
            if ring.is_full() {
                score = score.max(ring.mean().abs());
            }
        }
        Ok(DriftAssessment {
            score,
            drifted: score > self.threshold,
            window,
        })
    }
}

impl Default for DriftDetector {
    /// Window of 5 points, threshold 4σ — comfortably above the ~1.6σ
    /// worst-case windowed mean of two healthy same-protocol curves.
    fn default() -> Self {
        DriftDetector::new(5, 4.0)
    }
}

/// Outcome of one drift comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAssessment {
    /// Largest |rolling mean| of the normalized residuals, in σ units.
    pub score: f64,
    /// Whether the score exceeded the detector threshold.
    pub drifted: bool,
    /// The window length actually used (≤ configured, bounded by the
    /// number of points).
    pub window: usize,
}

/// Incremental per-channel drift monitor — [`DriftDetector`] promoted
/// from offline curve comparison to online tick-by-tick operation.
///
/// Feed it one *normalized residual* per observation (observed minus
/// predicted current, divided by the channel's noise scale). The first
/// `window` observations after construction or [`DriftMonitor::rebaseline`]
/// form a **baseline**: their mean is subtracted from every later
/// rolling mean, so a constant calibration bias (the new epoch's slope
/// being a hair off the channel's true slope) can never masquerade as
/// drift. Once warmed, the monitor trips — and stays tripped, so a
/// caller polling it cannot miss the edge — when the baseline-corrected
/// rolling mean exceeds the threshold.
///
/// # Examples
///
/// ```
/// use bios_analytics::drift::DriftMonitor;
///
/// let mut monitor = DriftMonitor::new(4, 4.0);
/// for _ in 0..8 {
///     assert!(!monitor.observe(0.1)); // warm-up + healthy plateau
/// }
/// for _ in 0..4 {
///     monitor.observe(9.0); // a real shift
/// }
/// assert!(monitor.tripped());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriftMonitor {
    threshold: f64,
    ring: ResidualRing,
    warmup: ResidualRing,
    baseline: Option<f64>,
    score: f64,
    tripped: bool,
}

impl DriftMonitor {
    /// A monitor with the given rolling-window length (clamped to ≥ 1)
    /// and z-score threshold on the baseline-corrected window mean.
    #[must_use]
    pub fn new(window: usize, threshold: f64) -> DriftMonitor {
        DriftMonitor {
            threshold,
            ring: ResidualRing::new(window),
            warmup: ResidualRing::new(window),
            baseline: None,
            score: 0.0,
            tripped: false,
        }
    }

    /// Whether the monitor has tripped since the last
    /// [`DriftMonitor::rebaseline`] / [`DriftMonitor::rearm`].
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Pushes one normalized residual and returns the (latched) trip
    /// state after it.
    pub fn observe(&mut self, z: f64) -> bool {
        match self.baseline {
            None => {
                self.warmup.push(z);
                if self.warmup.is_full() {
                    self.baseline = Some(self.warmup.mean());
                    self.warmup.clear();
                }
            }
            Some(baseline) => {
                self.ring.push(z);
                if self.ring.is_full() {
                    self.score = (self.ring.mean() - baseline).abs();
                    if self.score > self.threshold {
                        self.tripped = true;
                    }
                }
            }
        }
        self.tripped
    }

    /// Full reset after a calibration-epoch swap: forgets the window,
    /// the trip, *and* the baseline, so the next `window` observations
    /// re-zero the monitor against the fresh calibration.
    pub fn rebaseline(&mut self) {
        self.ring.clear();
        self.warmup.clear();
        self.baseline = None;
        self.score = 0.0;
        self.tripped = false;
    }

    /// Clears only the trip latch (window and baseline are kept): a
    /// still-drifting channel re-trips on the next observation. Used
    /// when a re-calibration attempt was rejected and should be retried
    /// later.
    pub fn rearm(&mut self) {
        self.tripped = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::{Amperes, Molar, SquareCm};

    use crate::calibration::CalibrationPoint;

    /// A synthetic curve: y = slope·x µA with per-point offsets, σ_blank
    /// = 0.01 µA, triplicates.
    fn curve(slope: f64, offsets: &[f64]) -> CalibrationCurve {
        let points: Vec<CalibrationPoint> = offsets
            .iter()
            .enumerate()
            .map(|(i, off)| {
                let x = (i + 1) as f64; // mM
                let y = slope * x + off; // µA
                CalibrationPoint::new(
                    Molar::from_milli_molar(x),
                    vec![Amperes::from_micro_amps(y); 3],
                )
            })
            .collect();
        CalibrationCurve::new(
            points,
            SquareCm::from_square_cm(0.1),
            Amperes::from_micro_amps(0.01),
        )
    }

    #[test]
    fn identical_curves_do_not_drift() {
        let reference = curve(2.0, &[0.0; 12]);
        let observed = curve(2.0, &[0.0; 12]);
        let assessment = DriftDetector::default()
            .assess(&reference, &observed)
            .unwrap();
        assert!(!assessment.drifted);
        assert_eq!(assessment.score, 0.0);
    }

    #[test]
    fn small_uncorrelated_noise_stays_below_threshold() {
        let reference = curve(2.0, &[0.0; 12]);
        // ±1σ_point alternating noise: rolling mean shrinks toward zero.
        let sigma_point = 0.01 / 3f64.sqrt();
        let noise: Vec<f64> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    sigma_point
                } else {
                    -sigma_point
                }
            })
            .collect();
        let observed = curve(2.0, &noise);
        let assessment = DriftDetector::default()
            .assess(&reference, &observed)
            .unwrap();
        assert!(!assessment.drifted, "score {}", assessment.score);
    }

    #[test]
    fn sensitivity_loss_is_detected() {
        let reference = curve(2.0, &[0.0; 12]);
        let degraded = curve(1.6, &[0.0; 12]); // 20 % slope loss
        let assessment = DriftDetector::default()
            .assess(&reference, &degraded)
            .unwrap();
        assert!(assessment.drifted, "score {}", assessment.score);
        assert!(assessment.score > 10.0);
    }

    #[test]
    fn consistent_offset_is_detected() {
        let reference = curve(2.0, &[0.0; 12]);
        let shifted = curve(2.0, &[0.1; 12]); // +0.1 µA everywhere
        let assessment = DriftDetector::default()
            .assess(&reference, &shifted)
            .unwrap();
        assert!(assessment.drifted);
    }

    #[test]
    fn mismatched_curves_are_rejected() {
        let reference = curve(2.0, &[0.0; 12]);
        let short = curve(2.0, &[0.0; 6]);
        assert!(matches!(
            DriftDetector::default().assess(&reference, &short),
            Err(AnalyticsError::LengthMismatch { .. })
        ));
        let tiny = curve(2.0, &[0.0; 2]);
        assert!(matches!(
            DriftDetector::default().assess(&tiny, &tiny),
            Err(AnalyticsError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn ring_matches_slice_windows_bit_for_bit() {
        bios_prng::cases(0x41B6_D21F, 64, |rng| {
            let n = 3 + (rng.uniform() * 20.0) as usize;
            let window = 1 + (rng.uniform() * n as f64) as usize;
            let z: Vec<f64> = (0..n).map(|_| rng.gaussian() * 3.0).collect();
            let mut expected: f64 = 0.0;
            for chunk in z.windows(window.min(n)) {
                let mean = chunk.iter().sum::<f64>() / window.min(n) as f64;
                expected = expected.max(mean.abs());
            }
            let mut ring = ResidualRing::new(window.min(n));
            let mut got: f64 = 0.0;
            for &v in &z {
                ring.push(v);
                if ring.is_full() {
                    got = got.max(ring.mean().abs());
                }
            }
            assert_eq!(got.to_bits(), expected.to_bits());
        });
    }

    #[test]
    fn ring_mean_matches_its_window_at_every_push_and_after_clear() {
        bios_prng::cases(0x41B6_D220, 64, |rng| {
            let cap = 1 + (rng.uniform() * 12.0) as usize;
            let z: Vec<f64> = (0..40).map(|_| rng.gaussian() * 3.0).collect();
            let cleared_at = (rng.uniform() * 40.0) as usize;
            let mut ring = ResidualRing::new(cap);
            let mut since = 0;
            for (i, &v) in z.iter().enumerate() {
                if i == cleared_at {
                    ring.clear();
                    since = i;
                }
                ring.push(v);
                let window = &z[since.max(i + 1 - cap.min(i + 1))..=i];
                let mut sum = 0.0;
                for w in window {
                    sum += w;
                }
                let expected = sum / window.len() as f64;
                assert_eq!(ring.mean().to_bits(), expected.to_bits(), "push {i}");
            }
        });
    }

    #[test]
    fn detector_never_trips_on_reference_level_noise() {
        // Property (`cases`): replicate-scale uncorrelated noise around
        // the reference curve never trips the default detector.
        let sigma_point = 0.01 / 3f64.sqrt();
        bios_prng::cases(0xD21F_0001, 48, |rng| {
            let reference = curve(2.0, &[0.0; 12]);
            let offsets: Vec<f64> = (0..12).map(|_| rng.gaussian() * sigma_point).collect();
            let observed = curve(2.0, &offsets);
            let assessment = DriftDetector::default()
                .assess(&reference, &observed)
                .unwrap();
            assert!(
                !assessment.drifted,
                "noise tripped the detector: score {}",
                assessment.score
            );
        });
    }

    #[test]
    fn detector_score_grows_monotonically_with_drift_magnitude() {
        // Property (`cases`): for any base slope, injecting a larger
        // sensitivity loss can never score lower than a smaller one,
        // and large losses trip.
        bios_prng::cases(0xD21F_0002, 48, |rng| {
            let slope = 1.0 + 3.0 * rng.uniform();
            let reference = curve(slope, &[0.0; 12]);
            let detector = DriftDetector::default();
            let mut last = -1.0f64;
            for loss in [0.0, 0.02, 0.05, 0.1, 0.2, 0.4] {
                let degraded = curve(slope * (1.0 - loss), &[0.0; 12]);
                let assessment = detector.assess(&reference, &degraded).unwrap();
                assert!(
                    assessment.score >= last,
                    "score fell from {last} to {} at loss {loss}",
                    assessment.score
                );
                last = assessment.score;
            }
            assert!(last > detector.threshold(), "40% loss must trip: {last}");
        });
    }

    #[test]
    fn monitor_never_trips_on_pure_noise() {
        bios_prng::cases(0xD21F_0003, 32, |rng| {
            let mut monitor = DriftMonitor::new(12, 4.0);
            for _ in 0..600 {
                assert!(!monitor.observe(rng.gaussian()), "noise tripped");
            }
        });
    }

    #[test]
    fn monitor_trips_on_a_ramp_and_rebaseline_clears_it() {
        let mut monitor = DriftMonitor::new(8, 4.0);
        for _ in 0..16 {
            monitor.observe(0.0);
        }
        assert!(monitor.baseline.is_some());
        assert!(!monitor.tripped());
        let mut t = 0u64;
        let tripped_at = loop {
            t += 1;
            if monitor.observe(t as f64 * 0.5) {
                break t;
            }
            assert!(t < 200, "ramp never tripped");
        };
        assert!(tripped_at >= 8, "needs a full window past warm-up");
        // The latch holds even when the signal returns to baseline.
        monitor.observe(0.0);
        assert!(monitor.tripped());
        monitor.rebaseline();
        assert!(!monitor.tripped());
        assert!(monitor.baseline.is_none());
    }

    #[test]
    fn monitor_baseline_absorbs_constant_calibration_bias() {
        // A constant 3σ bias (slightly-off epoch slope) is absorbed by
        // the warm-up baseline; only *additional* drift can trip.
        let mut monitor = DriftMonitor::new(6, 4.0);
        for _ in 0..60 {
            assert!(!monitor.observe(3.0), "constant bias must not trip");
        }
        for _ in 0..6 {
            monitor.observe(3.0 + 9.0);
        }
        assert!(monitor.tripped(), "drift on top of bias must trip");
    }

    #[test]
    fn monitor_rearm_keeps_window_so_persistent_drift_retrips() {
        let mut monitor = DriftMonitor::new(4, 4.0);
        for _ in 0..8 {
            monitor.observe(0.0);
        }
        for _ in 0..4 {
            monitor.observe(8.0);
        }
        assert!(monitor.tripped());
        monitor.rearm();
        assert!(!monitor.tripped());
        assert!(monitor.observe(8.0), "persistent drift re-trips at once");
    }

    #[test]
    fn window_clamps_to_curve_length() {
        let reference = curve(2.0, &[0.0; 4]);
        let observed = curve(2.0, &[0.0; 4]);
        let assessment = DriftDetector::new(50, 4.0)
            .assess(&reference, &observed)
            .unwrap();
        assert_eq!(assessment.window, 4);
    }
}
