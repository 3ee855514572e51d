//! The suspect scoreboard: strikes and quarantine for replica lanes.
//!
//! Lanes are *logical* replica identities (0, 1, 2, …), not physical
//! workers: the roster is a pure function of the scoreboard state, so
//! the same vote history yields the same lane assignments at any
//! worker or shard count. A lane that loses a vote earns a strike;
//! at its third strike it is quarantined and never appears in a roster
//! or as a tie-breaker again. Strikes are cumulative for the
//! life of the board — a silent corrupter's identity is keyed into
//! the fault plan, so it *will* reoffend, and forgetting strikes would
//! only let it oscillate below the threshold.
//!
//! All state lives in ordered collections ([`BTreeMap`]/[`BTreeSet`])
//! and every query walks lane ids in ascending order, keeping the
//! board deterministic on every layout.

use std::collections::{BTreeMap, BTreeSet};

/// Strikes at which a lane is quarantined (count).
const STRIKE_THRESHOLD: u32 = 3;

/// Strike ledger and quarantine set for replica lanes.
#[derive(Debug, Clone, Default)]
pub struct SuspectBoard {
    /// Accumulated strikes per lane (count). Never decays.
    strikes: BTreeMap<u64, u32>,
    /// Lanes removed from service, in quarantine order not kept —
    /// membership only (identifiers).
    quarantined: BTreeSet<u64>,
}

impl SuspectBoard {
    /// The first `n` serviceable lane ids, ascending — lane ids are
    /// dense from 0, skipping quarantined lanes. This is the replica
    /// roster polled for a vote.
    #[must_use]
    pub fn roster(&self, n: usize) -> Vec<u64> {
        let mut lanes = Vec::with_capacity(n);
        let mut candidate = 0u64;
        while lanes.len() < n {
            if !self.quarantined.contains(&candidate) {
                lanes.push(candidate);
            }
            candidate += 1;
        }
        lanes
    }

    /// The smallest serviceable lane id not already polled — the lane
    /// a tied vote escalates to (identifier).
    #[must_use]
    pub fn tie_breaker(&self, polled: &[u64]) -> u64 {
        let mut candidate = 0u64;
        loop {
            if !self.quarantined.contains(&candidate) && !polled.contains(&candidate) {
                return candidate;
            }
            candidate += 1;
        }
    }

    /// Records a lost vote against `lane`. Returns `true` when this
    /// strike crosses the threshold and the lane is *newly*
    /// quarantined (flag).
    pub fn strike(&mut self, lane: u64) -> bool {
        if self.quarantined.contains(&lane) {
            return false;
        }
        let tally = self.strikes.entry(lane).or_insert(0);
        *tally += 1;
        if *tally >= STRIKE_THRESHOLD {
            self.quarantined.insert(lane);
            true
        } else {
            false
        }
    }

    /// Whether `lane` has been removed from service (flag).
    #[must_use]
    pub fn is_quarantined(&self, lane: u64) -> bool {
        self.quarantined.contains(&lane)
    }

    /// Quarantined lane ids, ascending (identifiers).
    #[must_use]
    pub fn quarantined(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Accumulated strikes against `lane` (count).
    #[must_use]
    pub fn strikes(&self, lane: u64) -> u32 {
        self.strikes.get(&lane).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_dense_from_zero() {
        let board = SuspectBoard::default();
        assert_eq!(board.roster(3), vec![0, 1, 2]);
        assert_eq!(board.roster(1), vec![0]);
        assert!(board.roster(0).is_empty());
    }

    #[test]
    fn strikes_accumulate_to_quarantine_and_roster_skips() {
        let mut board = SuspectBoard::default();
        assert!(!board.strike(1));
        assert!(!board.strike(1));
        assert!(board.strike(1), "third strike quarantines");
        assert!(board.is_quarantined(1));
        assert_eq!(board.roster(3), vec![0, 2, 3], "lane 1 skipped");
        assert_eq!(board.quarantined(), vec![1]);
        // Further strikes against a quarantined lane are inert.
        assert!(!board.strike(1));
        assert_eq!(board.strikes(1), 3);
    }

    #[test]
    fn tie_breaker_skips_polled_and_quarantined() {
        let mut board = SuspectBoard::default();
        assert_eq!(board.tie_breaker(&[0, 1, 2]), 3);
        assert!(!board.strike(3));
        assert!(!board.strike(3));
        assert!(board.strike(3), "third strike quarantines");
        assert_eq!(board.tie_breaker(&[0, 1, 2]), 4);
        assert_eq!(board.tie_breaker(&[]), 0);
    }
}
