//! Exact-bit field comparison and the deterministic majority vote.
//!
//! A [`Ballot`] is one replica lane's observation of a job's summary,
//! flattened to the [`FIELDS`] comparable figures of merit
//! (sensitivity, linear-range low, linear-range high, detection limit,
//! R²). Two ballots agree when every field has the same bit pattern:
//! honest lanes observe the committed bytes, so they always land in the
//! same cluster, while a corrupted lane's observation differs by a
//! relative factor of at least `1e-4` ([`bios_faults::CorruptionDelta`])
//! and cannot share its bits — a corruption is *detectable by
//! construction*, and the only question the vote answers is which
//! cluster is the majority.
//!
//! Everything here is pure: clustering visits ballots in poll order,
//! uses no maps keyed by hash, and never consults clocks or thread
//! identity, so the same ballots produce the same clusters on every
//! layout.

use bios_analytics::CalibrationSummary;
use bios_faults::CorruptionDelta;

/// Number of comparable summary fields a ballot carries (count).
pub const FIELDS: usize = CorruptionDelta::FIELDS;

/// Flattens a calibration summary to the [`FIELDS`] comparable figures
/// of merit, in the fixed order corruption deltas index: sensitivity
/// (µA·mM⁻¹·cm⁻²), linear-range low (molar), linear-range high
/// (molar), detection limit (molar), R² (dimensionless).
#[must_use]
pub fn summary_fields(summary: &CalibrationSummary) -> [f64; FIELDS] {
    [
        summary
            .sensitivity
            .as_micro_amps_per_milli_molar_square_cm(),
        summary.linear_range.low().as_molar(),
        summary.linear_range.high().as_molar(),
        summary.detection_limit.as_molar(),
        summary.r_squared,
    ]
}

/// One replica lane's observation of the committed truth: the true
/// field vector perturbed by the lane's realized corruption delta, if
/// any. A zero-valued field is perturbed additively (the relative
/// factor would be invisible on zero), keeping every realized
/// corruption detectable.
#[must_use]
pub fn observe(truth: &[f64; FIELDS], delta: Option<&CorruptionDelta>) -> [f64; FIELDS] {
    let mut fields = *truth;
    if let Some(d) = delta {
        if let Some(v) = fields.get_mut(d.field) {
            *v = if *v == 0.0 {
                d.relative
            } else {
                *v * (1.0 + d.relative)
            };
        }
    }
    fields
}

/// One replica lane's vote: the lane id, the field vector it observed,
/// and whether a corruption delta was realized on it (known to the
/// harness because it injected the fault; the vote itself never reads
/// this flag — it is bookkeeping for catch-rate metering only).
#[derive(Debug, Clone)]
pub struct Ballot {
    /// Logical replica lane that produced this observation (identifier).
    pub lane: u64,
    /// The observed field vector.
    pub fields: [f64; FIELDS],
    /// Whether a [`CorruptionDelta`] was realized on this lane (flag).
    pub corrupted: bool,
}

/// Clusters ballots by exact-bit agreement, in poll order: each ballot
/// joins the first existing cluster whose *representative* (first
/// member) has the same field bit patterns, else opens a new cluster.
/// Returns clusters as lists of ballot indexes, in first-appearance
/// order.
///
/// Honest lanes observe identical bytes, so they always share one
/// cluster; corrupt lanes each draw an independent delta and land in
/// singletons.
#[must_use]
pub fn cluster(ballots: &[Ballot]) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (idx, ballot) in ballots.iter().enumerate() {
        let bits = ballot.fields.map(f64::to_bits);
        let home = clusters.iter_mut().find(|members| {
            members
                .first()
                .and_then(|&rep| ballots.get(rep))
                .is_some_and(|rep| rep.fields.map(f64::to_bits) == bits)
        });
        match home {
            Some(members) => members.push(idx),
            None => clusters.push(vec![idx]),
        }
    }
    clusters
}

/// The index of the winning cluster, or `None` when the vote is tied
/// and needs a tie-breaker lane. A vote is decided when exactly one
/// cluster has the maximum size; `force` breaks a residual tie by
/// taking the tied cluster containing the earliest-polled ballot
/// (deterministic last resort after escalation is exhausted).
#[must_use]
pub fn decide(clusters: &[Vec<usize>], force: bool) -> Option<usize> {
    let max = clusters.iter().map(Vec::len).max()?;
    let mut at_max = clusters
        .iter()
        .enumerate()
        .filter(|(_, members)| members.len() == max);
    let first = at_max.next()?.0;
    match at_max.next() {
        None => Some(first),
        Some(_) if force => Some(first),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ballot(lane: u64, fields: [f64; FIELDS], corrupted: bool) -> Ballot {
        Ballot {
            lane,
            fields,
            corrupted,
        }
    }

    const TRUTH: [f64; FIELDS] = [42.5, 1.0e-6, 2.0e-3, 3.0e-7, 0.9991];

    #[test]
    fn identical_observations_agree_and_cluster_together() {
        let ballots = vec![
            ballot(0, TRUTH, false),
            ballot(1, TRUTH, false),
            ballot(2, TRUTH, false),
        ];
        let clusters = cluster(&ballots);
        assert_eq!(clusters, vec![vec![0, 1, 2]]);
        assert_eq!(decide(&clusters, false), Some(0));
    }

    #[test]
    fn corrupt_singleton_loses_two_to_one() {
        let delta = CorruptionDelta {
            field: 0,
            relative: 1.0e-4,
        };
        let ballots = vec![
            ballot(0, TRUTH, false),
            ballot(1, observe(&TRUTH, Some(&delta)), true),
            ballot(2, TRUTH, false),
        ];
        let clusters = cluster(&ballots);
        assert_eq!(clusters.len(), 2);
        assert_eq!(decide(&clusters, false), Some(0));
        assert_eq!(clusters[0], vec![0, 2]);
        assert_eq!(clusters[1], vec![1]);
    }

    #[test]
    fn all_singletons_tie_until_forced() {
        let d1 = CorruptionDelta {
            field: 1,
            relative: 2.0e-3,
        };
        let d2 = CorruptionDelta {
            field: 3,
            relative: -4.0e-3,
        };
        let ballots = vec![
            ballot(0, TRUTH, false),
            ballot(1, observe(&TRUTH, Some(&d1)), true),
            ballot(2, observe(&TRUTH, Some(&d2)), true),
        ];
        let clusters = cluster(&ballots);
        assert_eq!(clusters.len(), 3);
        assert_eq!(decide(&clusters, false), None, "three-way tie");
        assert_eq!(decide(&clusters, true), Some(0), "forced: earliest ballot");
    }

    #[test]
    fn realized_corruption_never_bit_equals_the_truth() {
        let with_zero = [0.0, 1.0e-6, 2.0e-3, 3.0e-7, 0.9991];
        for truth in [TRUTH, with_zero] {
            for field in 0..FIELDS {
                for relative in [1.0e-4, -1.0e-4, 5.0e-3, -0.2] {
                    let delta = CorruptionDelta { field, relative };
                    let seen = observe(&truth, Some(&delta));
                    assert_ne!(
                        seen.map(f64::to_bits),
                        truth.map(f64::to_bits),
                        "corruption {relative} on field {field} of {truth:?} must be visible"
                    );
                }
            }
            assert_eq!(
                observe(&truth, None).map(f64::to_bits),
                truth.map(f64::to_bits)
            );
        }
    }
}
