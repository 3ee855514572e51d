//! The shard supervisor: a deterministic health fold that detects
//! wedged or poisoned shards and quarantines them.
//!
//! The supervisor never probes, times, or threads anything — it is a
//! pure fold over [`HealthEvent`]s that the sharded gateway derives
//! from *logical* outcomes (a deadline-killed job, a panicked worker,
//! a forced `(shard, tick)` loss). Fed
//! the same event sequence it always reaches the same
//! [`ShardHealth`] per shard, so quarantine decisions — and the
//! redistribution they trigger — are as reproducible as everything
//! else in the platform.
//!
//! Three conditions quarantine a shard:
//!
//! * **Deadline-kill storm** — at least 8 deadline kills
//!   (`STORM_THRESHOLD`) inside a sliding 32-tick window
//!   (`STORM_WINDOW_TICKS`): the signature of a wedged pool (livelocked
//!   jobs, stalled bus).
//! * **Respawn exhaustion** — cumulative panic losses reach 16
//!   (`RESPAWN_BUDGET`): the pool keeps burning threads on poisoned
//!   work and should stop taking new tenants.
//! * **Silent corruption** — cumulative corruption strikes (quorum
//!   votes this shard lost, see `bios-quorum`) reach 3
//!   (`CORRUPTION_STRIKES`). Strikes never expire: a shard that keeps
//!   producing finite-but-wrong values is defective hardware, not a
//!   transient.
//! * **Shard loss** — the run's chaos inputs say the shard is gone
//!   ([`HealthEvent::ShardLost`]); quarantine is immediate.
//!
//! Quarantine is terminal for a run: a lost or poisoned shard does
//! not silently rejoin mid-trace, which keeps the host sequence of
//! every tenant deterministic.

use std::collections::VecDeque;

/// Deadline kills inside the sliding window that quarantine a shard.
const STORM_THRESHOLD: u32 = 8;
/// Width (in logical ticks) of the deadline-kill storm window.
const STORM_WINDOW_TICKS: u64 = 32;
/// Cumulative panic losses a shard may absorb before it is declared
/// poisoned.
const RESPAWN_BUDGET: u32 = 16;
/// Cumulative corruption strikes a shard may absorb before it is
/// declared a silent corrupter.
const CORRUPTION_STRIKES: u32 = 3;

/// One observed shard-health event, attributed to the shard that
/// hosted the job when it was dispatched (its logical placement; the
/// job ran on the shared worker pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// A job on this shard was reclaimed by the deadline/watchdog
    /// layer at `tick`.
    DeadlineKill {
        /// The shard that hosted the job.
        shard: usize,
        /// Logical tick the kill surfaced.
        tick: u64,
    },
    /// A job on this shard panicked at `tick`.
    PanicLoss {
        /// The shard that hosted the job.
        shard: usize,
        /// Logical tick the panic surfaced.
        tick: u64,
    },
    /// The shard was lost outright at `tick` (see
    /// [`crate::ShardChaos::with_shard_loss_at`]).
    ShardLost {
        /// The lost shard.
        shard: usize,
        /// Logical tick of the loss.
        tick: u64,
    },
    /// A quorum vote attributed a silently corrupted result to this
    /// shard at `tick` (see `bios-quorum`): the value was finite —
    /// past every NonFinite guard — but disagreed with the redundant
    /// replicas and lost the vote.
    CorruptionSuspect {
        /// The suspected shard.
        shard: usize,
        /// Logical tick the disagreement surfaced.
        tick: u64,
    },
}

/// Why a shard was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Deadline-kill storm: the shard looked wedged.
    DeadlineStorm,
    /// Panic budget exhausted: the shard looked poisoned.
    RespawnExhausted,
    /// The shard was lost at the infrastructure level.
    ShardLost,
    /// The shard exhausted its corruption-strike budget: repeated
    /// quorum votes attributed silently corrupted results to it.
    SilentCorrupter,
}

/// A shard's current health as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Accepting home and stolen work.
    Healthy,
    /// Removed from the routing and stealing sets.
    Quarantined {
        /// Tick the quarantine took effect.
        since_tick: u64,
        /// What tripped it.
        reason: QuarantineReason,
    },
}

/// Per-shard fold state.
#[derive(Debug)]
struct ShardState {
    /// Ticks of recent deadline kills, oldest first, pruned to the
    /// storm window.
    recent_kills: VecDeque<u64>,
    /// Cumulative panic losses.
    panics: u32,
    /// Cumulative corruption strikes (lost quorum votes).
    strikes: u32,
    health: ShardHealth,
}

/// The supervisor itself: one fold state per shard, folded forward by
/// [`ShardSupervisor::observe`].
#[derive(Debug)]
pub struct ShardSupervisor {
    states: Vec<ShardState>,
}

impl ShardSupervisor {
    /// A supervisor over `shards` healthy shards.
    #[must_use]
    pub fn new(shards: usize) -> ShardSupervisor {
        ShardSupervisor {
            states: (0..shards.max(1))
                .map(|_| ShardState {
                    recent_kills: VecDeque::new(),
                    panics: 0,
                    strikes: 0,
                    health: ShardHealth::Healthy,
                })
                .collect(),
        }
    }

    /// Folds one event. Events must be fed in the deterministic order
    /// the sharded gateway derives them (tick-ascending); an event for
    /// an already-quarantined shard is a no-op, and an out-of-range
    /// shard index is ignored rather than trusted.
    pub fn observe(&mut self, event: HealthEvent) {
        let (shard, tick) = match event {
            HealthEvent::DeadlineKill { shard, tick }
            | HealthEvent::PanicLoss { shard, tick }
            | HealthEvent::ShardLost { shard, tick }
            | HealthEvent::CorruptionSuspect { shard, tick } => (shard, tick),
        };
        let Some(state) = self.states.get_mut(shard) else {
            return;
        };
        if matches!(state.health, ShardHealth::Quarantined { .. }) {
            return;
        }
        match event {
            HealthEvent::DeadlineKill { .. } => {
                let floor = tick.saturating_sub(STORM_WINDOW_TICKS);
                while state.recent_kills.front().is_some_and(|&t| t < floor) {
                    state.recent_kills.pop_front();
                }
                state.recent_kills.push_back(tick);
                if state.recent_kills.len() as u32 >= STORM_THRESHOLD {
                    state.health = ShardHealth::Quarantined {
                        since_tick: tick,
                        reason: QuarantineReason::DeadlineStorm,
                    };
                }
            }
            HealthEvent::PanicLoss { .. } => {
                state.panics += 1;
                if state.panics >= RESPAWN_BUDGET {
                    state.health = ShardHealth::Quarantined {
                        since_tick: tick,
                        reason: QuarantineReason::RespawnExhausted,
                    };
                }
            }
            HealthEvent::ShardLost { .. } => {
                state.health = ShardHealth::Quarantined {
                    since_tick: tick,
                    reason: QuarantineReason::ShardLost,
                };
            }
            HealthEvent::CorruptionSuspect { .. } => {
                state.strikes += 1;
                if state.strikes >= CORRUPTION_STRIKES {
                    state.health = ShardHealth::Quarantined {
                        since_tick: tick,
                        reason: QuarantineReason::SilentCorrupter,
                    };
                }
            }
        }
    }

    /// This shard's health (out-of-range indexes read as quarantined
    /// so nothing routes to them).
    #[must_use]
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.states.get(shard).map_or(
            ShardHealth::Quarantined {
                since_tick: 0,
                reason: QuarantineReason::ShardLost,
            },
            |s| s.health,
        )
    }

    /// Whether this shard is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, shard: usize) -> bool {
        matches!(self.health(shard), ShardHealth::Quarantined { .. })
    }

    /// The healthy shards, ascending — the redistribution domain of
    /// [`crate::route::redistribute`].
    #[must_use]
    pub fn healthy_shards(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.health, ShardHealth::Healthy))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deadline_storm_inside_the_window_quarantines() {
        let mut sup = ShardSupervisor::new(4);
        for tick in 5..5 + u64::from(STORM_THRESHOLD) - 1 {
            sup.observe(HealthEvent::DeadlineKill { shard: 1, tick });
        }
        assert!(!sup.is_quarantined(1), "seven kills are below threshold");
        sup.observe(HealthEvent::DeadlineKill { shard: 1, tick: 30 });
        assert_eq!(
            sup.health(1),
            ShardHealth::Quarantined {
                since_tick: 30,
                reason: QuarantineReason::DeadlineStorm
            }
        );
        assert_eq!(sup.healthy_shards(), vec![0, 2, 3]);
    }

    #[test]
    fn kills_outside_the_window_slide_off() {
        let mut sup = ShardSupervisor::new(2);
        for tick in 0..u64::from(STORM_THRESHOLD) - 1 {
            sup.observe(HealthEvent::DeadlineKill { shard: 0, tick });
        }
        // Tick 40 is past the 32-tick window of ticks 0–6: every old
        // kill slides off before the new one counts.
        sup.observe(HealthEvent::DeadlineKill { shard: 0, tick: 40 });
        assert!(!sup.is_quarantined(0), "stale kills must not storm");
    }

    #[test]
    fn respawn_exhaustion_quarantines_cumulatively() {
        let mut sup = ShardSupervisor::new(2);
        for tick in 0..u64::from(RESPAWN_BUDGET) - 1 {
            sup.observe(HealthEvent::PanicLoss {
                shard: 0,
                tick: tick * 50,
            });
        }
        assert!(!sup.is_quarantined(0), "fifteen panics are below budget");
        // Panics never expire: the budget is cumulative.
        sup.observe(HealthEvent::PanicLoss {
            shard: 0,
            tick: 900,
        });
        assert_eq!(
            sup.health(0),
            ShardHealth::Quarantined {
                since_tick: 900,
                reason: QuarantineReason::RespawnExhausted
            }
        );
    }

    #[test]
    fn corruption_strikes_accumulate_to_quarantine() {
        let mut sup = ShardSupervisor::new(3);
        sup.observe(HealthEvent::CorruptionSuspect { shard: 1, tick: 4 });
        sup.observe(HealthEvent::CorruptionSuspect { shard: 1, tick: 9 });
        assert!(!sup.is_quarantined(1), "two strikes are below the budget");
        // Strikes never expire, like panics: a corrupter stays guilty.
        sup.observe(HealthEvent::CorruptionSuspect {
            shard: 1,
            tick: 800,
        });
        assert_eq!(
            sup.health(1),
            ShardHealth::Quarantined {
                since_tick: 800,
                reason: QuarantineReason::SilentCorrupter
            }
        );
        assert_eq!(sup.healthy_shards(), vec![0, 2]);
    }

    #[test]
    fn shard_loss_quarantines_immediately_and_is_terminal() {
        let mut sup = ShardSupervisor::new(3);
        sup.observe(HealthEvent::ShardLost { shard: 2, tick: 11 });
        assert!(sup.is_quarantined(2));
        // Later events cannot overwrite the quarantine record.
        sup.observe(HealthEvent::DeadlineKill { shard: 2, tick: 12 });
        assert_eq!(
            sup.health(2),
            ShardHealth::Quarantined {
                since_tick: 11,
                reason: QuarantineReason::ShardLost
            }
        );
    }

    #[test]
    fn out_of_range_shards_are_ignored_but_read_quarantined() {
        let mut sup = ShardSupervisor::new(2);
        sup.observe(HealthEvent::ShardLost { shard: 9, tick: 1 });
        assert_eq!(sup.healthy_shards(), vec![0, 1]);
        assert!(sup.is_quarantined(9), "nothing may route off the map");
    }

    #[test]
    fn the_fold_is_deterministic() {
        // Shard 0 storms with 8 kills in ticks 0–14; shard 1 panics 16
        // times, interleaved.
        let events: Vec<HealthEvent> = (0..u64::from(RESPAWN_BUDGET))
            .flat_map(|i| {
                let kill = (i < u64::from(STORM_THRESHOLD)).then_some(HealthEvent::DeadlineKill {
                    shard: 0,
                    tick: 2 * i,
                });
                let panic = HealthEvent::PanicLoss {
                    shard: 1,
                    tick: 2 * i + 1,
                };
                kill.into_iter().chain([panic])
            })
            .collect();
        let run = |events: &[HealthEvent]| {
            let mut sup = ShardSupervisor::new(2);
            for &e in events {
                sup.observe(e);
            }
            ([sup.health(0), sup.health(1)], sup.healthy_shards())
        };
        assert_eq!(run(&events), run(&events));
        let (health, healthy) = run(&events);
        assert_eq!(
            health,
            [
                ShardHealth::Quarantined {
                    since_tick: 14,
                    reason: QuarantineReason::DeadlineStorm
                },
                ShardHealth::Quarantined {
                    since_tick: 31,
                    reason: QuarantineReason::RespawnExhausted
                }
            ],
            "both shards should trip"
        );
        assert!(healthy.is_empty());
    }
}
