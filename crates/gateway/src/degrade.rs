//! Brownout degradation policy.
//!
//! Under pressure the gateway prefers to *downgrade* work rather than
//! drop it: a calibration run at fewer sweep points still yields a
//! usable sensitivity estimate, while a shed request yields nothing.
//! The policy decides (a) when the queue is deep enough to brown out
//! and (b) how far to cut an entry's sweep resolution. Both are pure
//! integer arithmetic so brownout decisions are identical on every
//! machine and worker count.

use bios_core::catalog::CatalogEntry;

/// Whether a result was computed at full or reduced resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Full configured sweep resolution.
    Full,
    /// Reduced sweep resolution under brownout.
    Degraded,
}

impl Quality {
    /// Stable lowercase label for digests and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Quality::Full => "full",
            Quality::Degraded => "degraded",
        }
    }
}

/// Brownout trips when `queue_depth / queue_capacity` reaches
/// `PRESSURE_NUM / PRESSURE_DEN`.
const PRESSURE_NUM: usize = 3;
const PRESSURE_DEN: usize = 4;
/// Degraded sweep points = `full * SWEEP_NUM / SWEEP_DEN`…
const SWEEP_NUM: usize = 1;
const SWEEP_DEN: usize = 2;
/// …but never fewer than this many points (a calibration line needs
/// enough standards to fit).
const MIN_SWEEP_POINTS: usize = 7;

/// When and how hard to brown out: past a 3/4-full queue, at half the
/// sweep points but never fewer than 7.
// Braced rather than a unit struct: `perfbench` spells it
// `DegradationPolicy::default()`, which clippy rejects for unit structs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationPolicy {}

impl DegradationPolicy {
    /// Whether `queue_depth` of `queue_capacity` is past the brownout
    /// watermark.
    #[must_use]
    pub fn triggered(queue_depth: usize, queue_capacity: usize) -> bool {
        if queue_capacity == 0 {
            return false;
        }
        queue_depth.saturating_mul(PRESSURE_DEN) >= queue_capacity.saturating_mul(PRESSURE_NUM)
    }

    /// Sweep points after degradation, floored at `MIN_SWEEP_POINTS`
    /// and never *raised* above the full resolution.
    #[must_use]
    pub fn degraded_points(full: usize) -> usize {
        (full.saturating_mul(SWEEP_NUM) / SWEEP_DEN)
            .max(MIN_SWEEP_POINTS)
            .min(full)
    }

    /// The degraded twin of `entry`: same chemistry and id, fewer
    /// sweep points. The changed sweep changes the entry's protocol
    /// fingerprint, so degraded and full runs never alias in the
    /// runtime's memo cache.
    #[must_use]
    pub fn degrade(&self, entry: &CatalogEntry) -> CatalogEntry {
        let points = DegradationPolicy::degraded_points(entry.sweep_points());
        entry.clone().with_sweep_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_core::catalog::our_glucose_sensor;

    #[test]
    fn watermark_uses_integer_arithmetic() {
        let triggered = DegradationPolicy::triggered;
        assert!(!triggered(0, 8));
        assert!(!triggered(5, 8), "5/8 < 3/4");
        assert!(triggered(6, 8), "6/8 = 3/4 trips");
        assert!(triggered(8, 8));
        assert!(!triggered(100, 0), "zero capacity never browns out");
    }

    #[test]
    fn degraded_points_floor_and_never_exceed_full() {
        let degraded_points = DegradationPolicy::degraded_points;
        assert_eq!(degraded_points(25), 12);
        assert_eq!(degraded_points(8), 7, "floored at MIN_SWEEP_POINTS");
        assert_eq!(degraded_points(5), 5, "never raised above full");
    }

    #[test]
    fn degraded_entry_changes_fingerprint_and_shrinks_workload() {
        let p = DegradationPolicy::default();
        let full = our_glucose_sensor();
        let thin = p.degrade(&full);
        assert_eq!(thin.id(), full.id());
        assert_ne!(
            thin.protocol_fingerprint(),
            full.protocol_fingerprint(),
            "degraded runs must not alias full runs in the memo cache"
        );
        assert!(thin.calibration_workload() < full.calibration_workload());
    }
}
