//! bios-quorum: N-modular redundancy for the calibration fleet —
//! redundant replica lanes, deterministic field-wise voting, silent-
//! corruption detection, and a suspect scoreboard that quarantines
//! repeat offenders.
//!
//! # Threat model
//!
//! The fault layers below this one produce failures that *announce
//! themselves*: a panicked worker, a non-finite solver output, a torn
//! journal tail. [`bios_faults::FaultKind::SilentCorruption`] models
//! the failure that does not — a finite, plausible, *wrong* value
//! produced by a flaky worker (bit-flipped register, miscompiled hot
//! loop, cosmic-ray DRAM upset). `NonFinite` quarantine is blind to it
//! by construction: the corrupted sensitivity is a perfectly ordinary
//! `f64`, just not the one the physics produced.
//!
//! The only defense that works without trusting any single executor is
//! redundancy: run the job on multiple *replica lanes*, compare the
//! observations field-wise, and let the majority commit. This crate is
//! that layer, armed fleet-wide on `bios-shard`'s completion path
//! (`ShardedGateway::run_with`), between admission and the runtime.
//!
//! # Determinism
//!
//! Lanes are logical identities (0, 1, 2, …), not physical workers.
//! Corruption realization is keyed to `(plan seed, sensor, job seed,
//! lane)` via [`bios_faults::FaultPlan::silent_corruption`], the
//! roster is a pure function of the vote history
//! ([`suspect::SuspectBoard`]), and clustering visits ballots in poll
//! order ([`vote::cluster`]) — so the entire screen is a pure function
//! of `(config, plan, job stream)` and produces byte-identical
//! verdicts at 1, 2, or 8 workers and on any shard layout.
//!
//! Ballots agree only when their fields are bit-identical. Honest
//! lanes observe the committed result's actual bytes, so they agree
//! *exactly*; each corrupt lane draws an independent delta of relative
//! magnitude ≥ `1e-4`, which no corrupted field survives bit-equal, so
//! corrupt lanes land in singleton clusters. The majority cluster is
//! therefore the truth whenever at least two honest lanes were polled,
//! the vote's accepted value equals the value already committed, and
//! the report digest is untouched by arming the screen. Corrupt observations are ephemeral
//! ballots: they are never written to the memo cache or the journal.
//!
//! ```
//! use bios_core::catalog;
//! use bios_faults::{FaultKind, FaultPlan};
//! use bios_quorum::{QuorumConfig, QuorumScreen};
//!
//! let plan = FaultPlan::builder("corruption drill", 7)
//!     .spec(FaultKind::SilentCorruption, 0.35, 0.75)
//!     .build();
//! let summary = catalog::our_glucose_sensor().run_calibration(7).unwrap().summary;
//! let mut screen = QuorumScreen::new(QuorumConfig::default());
//! // A critical job is always covered: its lanes vote on copies of the
//! // committed summary, and the majority keeps it.
//! let verdict = screen.screen(Some(&plan), "glucose/ours", 7, &summary, true);
//! assert!(verdict.is_some());
//! assert_eq!(screen.summary().votes, 1);
//! ```

pub mod suspect;
pub mod vote;

use bios_analytics::CalibrationSummary;
use bios_faults::FaultPlan;
use bios_recover::fnv1a;
use bios_runtime::{Counter, JobResult, RuntimeMetrics};

pub use suspect::SuspectBoard;
pub use vote::Ballot;

/// Replica lanes polled per covered job (count). Three is the smallest
/// count that outvotes a single corrupt lane without escalation.
const REPLICAS: usize = 3;
/// Tie-breaker lanes a tied vote may escalate to before the
/// deterministic forced decision (count).
const MAX_ESCALATIONS: u32 = 3;

/// Coverage of the redundancy layer. Every covered job is polled on
/// three replica lanes, a tied vote escalates to at most three
/// tie-breaker lanes, and a lane's third lost vote quarantines it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumConfig {
    /// Fraction of non-critical jobs sampled into coverage, in
    /// `[0, 1]`. Critical jobs (recalibrations) are always covered.
    pub sampling: f64,
}

impl Default for QuorumConfig {
    fn default() -> Self {
        QuorumConfig { sampling: 0.25 }
    }
}

impl QuorumConfig {
    /// Is the job `(sensor, seed)` covered by the screen? Critical
    /// jobs always are; the rest are sampled by a pure hash of the
    /// job identity against [`QuorumConfig::sampling`], so coverage is
    /// a property of the job, not of scheduling (flag).
    #[must_use]
    pub fn covers(&self, sensor: &str, seed: u64, critical: bool) -> bool {
        if critical {
            return true;
        }
        if self.sampling >= 1.0 {
            return true;
        }
        if self.sampling <= 0.0 {
            return false;
        }
        let h = fnv1a(format!("quorum {sensor} {seed:016x}").as_bytes());
        // Top 53 bits → uniform in [0, 1): the same idiom as the fault
        // realizer's occurrence gate, reproducible on any platform.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.sampling
    }
}

/// Running totals of the screen's work (all counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumSummary {
    /// Jobs covered by the screen (critical + sampled).
    pub covered: u64,
    /// Votes held (one per covered job with a successful outcome).
    pub votes: u64,
    /// Tie-breaker lanes polled beyond the base roster.
    pub escalations: u64,
    /// Votes that were not unanimous.
    pub disagreements: u64,
    /// Corruption deltas realized on polled lanes.
    pub injected: u64,
    /// Corrupt ballots that lost their vote (detected corruption).
    pub caught: u64,
    /// Corrupt ballots that ended in the winning cluster (escaped
    /// detection; possible only in a forced decision after exhausted
    /// escalation).
    pub escaped: u64,
    /// Honest ballots that lost a vote (false suspicion; same residual
    /// cases as `escaped`).
    pub false_suspects: u64,
    /// Lanes quarantined by the suspect scoreboard.
    pub quarantined: u64,
}

impl QuorumSummary {
    /// Fraction of realized corruptions that lost their vote, in
    /// `[0, 1]`; `1.0` when nothing was injected.
    #[must_use]
    pub fn catch_rate(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.caught as f64 / self.injected as f64
        }
    }
}

/// The outcome of screening one covered job.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenVerdict {
    /// Replica lanes polled, in poll order (identifiers).
    pub lanes: Vec<u64>,
    /// Tie-breaker lanes added beyond the base roster (count).
    pub escalations: u32,
    /// Whether any lane disagreed with the winning cluster (flag).
    pub disagreement: bool,
    /// Lanes whose ballots lost the vote (identifiers).
    pub losers: Vec<u64>,
    /// Corruption deltas realized across polled lanes (count).
    pub injected: u32,
    /// Corrupt ballots among the losers (count).
    pub caught: u32,
    /// Corrupt ballots inside the winning cluster (count).
    pub escaped: u32,
    /// Lanes newly quarantined by this vote's strikes (identifiers).
    pub quarantined: Vec<u64>,
    /// Whether the winning cluster's observation is bit-identical to
    /// the committed value — the vote *accepting* the commit. False
    /// only in the residual escape cases counted by
    /// [`QuorumSummary::escaped`] (flag).
    pub accepted: bool,
}

/// The redundancy screen: polls replica lanes for covered jobs, votes,
/// strikes losers, and accumulates a [`QuorumSummary`].
///
/// The screen validates an already-committed result — the runtime's
/// value is the ballot honest lanes observe — so the committed bytes,
/// and with them every digest, are independent of whether the screen
/// is armed. What arming changes is *observability*: disagreements,
/// catches, and quarantines are metered and surfaced.
#[derive(Debug, Clone)]
pub struct QuorumScreen {
    config: QuorumConfig,
    board: SuspectBoard,
    summary: QuorumSummary,
}

impl QuorumScreen {
    /// A fresh screen with an empty scoreboard.
    #[must_use]
    pub fn new(config: QuorumConfig) -> QuorumScreen {
        QuorumScreen {
            config,
            board: SuspectBoard::default(),
            summary: QuorumSummary::default(),
        }
    }

    /// Accumulated totals.
    #[must_use]
    pub fn summary(&self) -> QuorumSummary {
        self.summary
    }

    /// Screens one committed result. Convenience over
    /// [`QuorumScreen::screen`]: errors carry no comparable fields, so
    /// only successful outcomes are voted on.
    pub fn screen_result(
        &mut self,
        plan: Option<&FaultPlan>,
        result: &JobResult,
        critical: bool,
    ) -> Option<ScreenVerdict> {
        let outcome = result.outcome.as_ref().ok()?;
        self.screen(
            plan,
            &result.sensor,
            result.seed,
            &outcome.summary,
            critical,
        )
    }

    /// Screens one committed `(sensor, seed, summary)` job: polls the
    /// replica roster, votes, escalates ties, strikes losers. Returns
    /// `None` when the job is not covered.
    pub fn screen(
        &mut self,
        plan: Option<&FaultPlan>,
        sensor: &str,
        seed: u64,
        summary: &CalibrationSummary,
        critical: bool,
    ) -> Option<ScreenVerdict> {
        if !self.config.covers(sensor, seed, critical) {
            return None;
        }
        self.summary.covered += 1;
        let truth = vote::summary_fields(summary);
        let poll = |lane: u64| -> Ballot {
            let delta = plan.and_then(|p| p.silent_corruption(sensor, seed, lane));
            Ballot {
                lane,
                fields: vote::observe(&truth, delta.as_ref()),
                corrupted: delta.is_some(),
            }
        };

        let mut lanes = self.board.roster(REPLICAS);
        let mut ballots: Vec<Ballot> = lanes.iter().map(|&lane| poll(lane)).collect();
        self.summary.votes += 1;

        let mut escalations = 0u32;
        let (clusters, winner) = loop {
            let clusters = vote::cluster(&ballots);
            if let Some(winner) = vote::decide(&clusters, false) {
                break (clusters, winner);
            }
            if escalations >= MAX_ESCALATIONS {
                // Deterministic last resort: among tied clusters take
                // the one polled first. Any mistake this makes is
                // counted (`escaped` / `false_suspects`), not hidden.
                let clusters = vote::cluster(&ballots);
                let winner = vote::decide(&clusters, true).unwrap_or(0);
                break (clusters, winner);
            }
            escalations += 1;
            self.summary.escalations += 1;
            let extra = self.board.tie_breaker(&lanes);
            lanes.push(extra);
            ballots.push(poll(extra));
        };

        let winning: Vec<usize> = clusters.get(winner).cloned().unwrap_or_default();
        let mut verdict = ScreenVerdict {
            lanes,
            escalations,
            disagreement: clusters.len() > 1,
            losers: Vec::new(),
            injected: 0,
            caught: 0,
            escaped: 0,
            quarantined: Vec::new(),
            accepted: winning
                .first()
                .and_then(|&idx| ballots.get(idx))
                .is_some_and(|b| b.fields.map(f64::to_bits) == truth.map(f64::to_bits)),
        };
        for (idx, ballot) in ballots.iter().enumerate() {
            if ballot.corrupted {
                verdict.injected += 1;
            }
            if winning.contains(&idx) {
                if ballot.corrupted {
                    verdict.escaped += 1;
                }
                continue;
            }
            verdict.losers.push(ballot.lane);
            if ballot.corrupted {
                verdict.caught += 1;
            } else {
                self.summary.false_suspects += 1;
            }
            if self.board.strike(ballot.lane) {
                verdict.quarantined.push(ballot.lane);
            }
        }

        if verdict.disagreement {
            self.summary.disagreements += 1;
        }
        self.summary.injected += u64::from(verdict.injected);
        self.summary.caught += u64::from(verdict.caught);
        self.summary.escaped += u64::from(verdict.escaped);
        self.summary.quarantined += verdict.quarantined.len() as u64;
        Some(verdict)
    }
}

/// Folds one verdict into the runtime's metrics registry, so the
/// quorum counters land in the same
/// [`MetricsSnapshot`](bios_runtime::MetricsSnapshot) as the runtime's.
pub fn meter(verdict: &ScreenVerdict, metrics: &RuntimeMetrics) {
    metrics.add(Counter::QuorumVotes, 1);
    metrics.add(Counter::Disagreements, u64::from(verdict.disagreement));
    metrics.add(Counter::CorruptionCaught, u64::from(verdict.caught));
    metrics.add(
        Counter::SuspectsQuarantined,
        verdict.quarantined.len() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_faults::FaultKind;
    use bios_units::{ConcentrationRange, Molar, Sensitivity};

    fn summary() -> CalibrationSummary {
        CalibrationSummary {
            sensitivity: Sensitivity::new(42.5),
            linear_range: ConcentrationRange::new(
                Molar::from_molar(1.0e-6),
                Molar::from_molar(2.0e-3),
            )
            .unwrap(),
            detection_limit: Molar::from_molar(3.0e-7),
            r_squared: 0.9991,
        }
    }

    fn corruption_plan(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan::builder("corruption drill", seed)
            .spec(FaultKind::SilentCorruption, probability, 0.75)
            .build()
    }

    #[test]
    fn sampling_is_a_pure_job_property() {
        let config = QuorumConfig { sampling: 0.25 };
        let mut covered = 0u32;
        for seed in 0..400u64 {
            let a = config.covers("glucose/gox", seed, false);
            assert_eq!(a, config.covers("glucose/gox", seed, false));
            covered += u32::from(a);
        }
        // Rough quarter, by hash not by scheduling.
        assert!((50..200).contains(&covered), "covered {covered} of 400");
        // Critical jobs are always covered.
        assert!(config.covers("glucose/gox", 9999, true));
        let off = QuorumConfig { sampling: 0.0 };
        assert!(!off.covers("glucose/gox", 1, false));
        assert!(off.covers("glucose/gox", 1, true));
    }

    #[test]
    fn unarmed_screen_is_unanimous_and_accepts() {
        let mut screen = QuorumScreen::new(QuorumConfig::default());
        let s = summary();
        let verdict = screen
            .screen(None, "glucose/gox", 7, &s, true)
            .expect("critical jobs are covered");
        assert_eq!(verdict.lanes, vec![0, 1, 2]);
        assert!(!verdict.disagreement);
        assert!(verdict.losers.is_empty());
        assert!(verdict.accepted);
        assert_eq!(screen.summary().votes, 1);
        assert_eq!(screen.summary().disagreements, 0);
    }

    #[test]
    fn armed_screen_catches_every_injection_and_accepts_truth() {
        let plan = corruption_plan(0xC0FFEE, 0.5);
        let mut screen = QuorumScreen::new(QuorumConfig::default());
        let s = summary();
        for seed in 0..600u64 {
            if let Some(v) = screen.screen(Some(&plan), "glucose/gox", seed, &s, true) {
                assert!(v.accepted, "seed {seed}: vote must accept the commit");
                assert_eq!(v.escaped, 0, "seed {seed}: no corruption may escape");
            }
        }
        let total = screen.summary();
        assert!(total.injected > 0, "drill never fired");
        assert_eq!(total.caught, total.injected, "catch rate must be 100%");
        assert_eq!(total.escaped, 0);
        assert_eq!(total.false_suspects, 0);
        assert!(total.disagreements > 0);
        assert!((total.catch_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn repeat_offender_is_quarantined_and_never_polled_again() {
        let plan = corruption_plan(0xBAD5EED, 0.9);
        let mut screen = QuorumScreen::new(QuorumConfig::default());
        let s = summary();
        let mut banned: Vec<u64> = Vec::new();
        let mut served_after_ban = false;
        for seed in 0..800u64 {
            if let Some(v) = screen.screen(Some(&plan), "lactate/lox", seed, &s, true) {
                for lane in &v.lanes {
                    if banned.contains(lane) {
                        served_after_ban = true;
                    }
                }
                banned.extend(v.quarantined.iter().copied());
            }
        }
        assert!(
            !banned.is_empty(),
            "a 90%-probability corrupter must be quarantined"
        );
        assert!(
            !served_after_ban,
            "a quarantined lane must never serve another voted job"
        );
        assert_eq!(screen.summary().quarantined, banned.len() as u64);
        // The board's roster skips every banned lane.
        let roster = screen.board.roster(64);
        assert!(banned.iter().all(|lane| !roster.contains(lane)));
    }

    #[test]
    fn screen_is_deterministic_in_inputs() {
        let plan = corruption_plan(0xFEED, 0.6);
        let run = || {
            let mut screen = QuorumScreen::new(QuorumConfig::default());
            let s = summary();
            let mut verdicts = Vec::new();
            for seed in 0..200u64 {
                verdicts.push(screen.screen(Some(&plan), "glucose/gox", seed, &s, seed % 3 == 0));
            }
            (verdicts, screen.summary())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_corrupt_lanes_tie_to_a_forced_decision_and_count_the_escape() {
        // A plan whose every lane of the first vote is an offender: with
        // occurrence probability 1 each lane draws its own delta, so all
        // six ballots are singletons and no escalation breaks the tie.
        let lanes = (REPLICAS as u64) + u64::from(MAX_ESCALATIONS);
        let plan = (0..10_000u64)
            .map(|seed| corruption_plan(seed, 1.0))
            .find(|p| (0..lanes).all(|lane| p.silent_corruption("glucose/gox", 0, lane).is_some()))
            .expect("some plan seed makes lanes 0-5 offenders");
        let mut screen = QuorumScreen::new(QuorumConfig::default());
        let verdict = screen
            .screen(Some(&plan), "glucose/gox", 0, &summary(), true)
            .expect("critical jobs are covered");
        assert_eq!(verdict.lanes, (0..lanes).collect::<Vec<_>>());
        assert_eq!(verdict.escalations, MAX_ESCALATIONS);
        // The forced decision takes the first-polled cluster, lane 0.
        assert_eq!(verdict.losers, (1..lanes).collect::<Vec<_>>());
        assert_eq!(verdict.escaped, 1);
        assert_eq!(u64::from(verdict.caught), lanes - 1);
        assert!(!verdict.accepted, "a corrupt winner does not accept");
        let total = screen.summary();
        assert_eq!(total.escaped, 1);
        assert_eq!(total.injected, lanes);
        assert!(total.catch_rate() < 1.0);
    }
}
