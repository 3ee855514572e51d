//! The longitudinal stream engine: per-tick patient simulation, online
//! drift monitoring, and deterministic drift-triggered re-calibration
//! through the gateway's admission path.
//!
//! Each tick, every monitored patient produces one reading from their
//! true physiology, the active aging profile, and a seeded noise draw.
//! The standardized residual against the patient's active calibration
//! epoch feeds their [`DriftMonitor`]; a trip enqueues a
//! [`Priority::Recalibration`]-class request (full-resolution sweep +
//! figure-of-merit re-extraction) through the normal
//! admission/breaker path, and the completed job swaps the patient's
//! epoch. Everything is a pure function of `(config, cohort seed,
//! tick)` — see `StreamReport::digest`.

use std::collections::BTreeMap;

use bios_analytics::DriftMonitor;
use bios_core::catalog::CalibrationOutcome;
use bios_faults::{AgingProfile, FaultKind, FaultPlan};
use bios_gateway::{
    Disposition, Gateway, GatewayCounters, Priority, Quality, Request, RequestOutcome,
};
use bios_prng::{Rng, SplitMix64};
use bios_runtime::Fleet;

use crate::cohort::{ConcentrationCurve, PatientCohort};
use crate::epoch::{CalibrationEpoch, PatientState};

/// Stream construction options. Everything is logical ticks and seeds;
/// the engine has no wall-clock inputs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Synthetic patients in the cohort.
    pub patients: usize,
    /// Ticks to stream (one tick ≈ 5 minutes of wear).
    pub horizon_ticks: u64,
    /// Seed the cohort, noise, and aging streams derive from.
    pub cohort_seed: u64,
    /// Recalibration requests allowed per patient over the horizon.
    pub max_recalibrations: u32,
    /// The sensor-aging plan; its `FilmDenaturation` spec decides who
    /// ages, when, and how fast (see [`FaultPlan::aging_profile`]).
    pub aging: FaultPlan,
}

/// Tenant id stamped on every recalibration request the engine offers
/// to the gateway.
const TENANT: &str = "stream";
/// Rolling window of the per-patient drift monitor.
const MONITOR_WINDOW: usize = 12;
/// Trip threshold on the window-mean standardized residual.
const MONITOR_THRESHOLD: f64 = 4.0;
/// Deadline budget (ticks) each recalibration request carries.
const RECAL_DEADLINE_TICKS: u64 = 64;
/// Ticks a patient waits after a failed or rejected recalibration
/// before re-requesting.
const RETRY_BACKOFF_TICKS: u64 = 16;

impl StreamConfig {
    /// A config for `patients` over `horizon_ticks` from `seed`: at most
    /// 4 recalibrations per patient and an aging plan denaturating
    /// ~35 % of films at intensity 0.8. The drift monitor (window 12,
    /// threshold 4), the 64-tick recalibration deadline and the 16-tick
    /// retry backoff are fixed for every config.
    #[must_use]
    pub fn new(patients: usize, horizon_ticks: u64, seed: u64) -> StreamConfig {
        StreamConfig {
            patients,
            horizon_ticks,
            cohort_seed: seed,
            max_recalibrations: 4,
            aging: FaultPlan::builder("stream-aging", seed)
                .spec(FaultKind::FilmDenaturation, 0.35, 0.8)
                .build(),
        }
    }

    /// Overrides the aging plan.
    #[must_use]
    pub fn with_aging(mut self, aging: FaultPlan) -> StreamConfig {
        self.aging = aging;
        self
    }

    /// Overrides the per-patient recalibration cap.
    #[must_use]
    pub fn with_max_recalibrations(mut self, max: u32) -> StreamConfig {
        self.max_recalibrations = max;
        self
    }
}

/// Everything one stream run produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Patients in the cohort.
    pub patients: usize,
    /// Ticks streamed.
    pub horizon_ticks: u64,
    /// Patients whose bootstrap calibration failed (unmonitored).
    pub bootstrap_failed: u64,
    /// Monitored patients whose aging profile actually degrades the
    /// film inside the horizon.
    pub drift_injected: u64,
    /// Injected drifts the monitors caught (first detections).
    pub drift_detected: u64,
    /// Monitor trips with no injected drift behind them.
    pub false_trips: u64,
    /// Recalibration requests offered to the gateway.
    pub recal_enqueued: u64,
    /// Recalibration jobs that executed and returned a usable epoch.
    pub recal_completed: u64,
    /// Recalibration jobs that executed but failed (or produced an
    /// unusable gain).
    pub recal_failed: u64,
    /// Recalibration requests the gateway rejected.
    pub recal_rejected: u64,
    /// Recalibrations executed at degraded quality — must stay 0; the
    /// recalibration class is never browned out.
    pub recal_degraded: u64,
    /// Calibration epochs swapped in during the horizon.
    pub epoch_swaps: u64,
    /// Detection latency in ticks (trip tick − aging onset tick), one
    /// entry per first detection.
    pub detection_latencies: Vec<u64>,
    /// Mean absolute relative deviation of ĉ vs true c across every
    /// reading of every monitored patient.
    pub mean_mard: f64,
    /// The gateway's admission counters for the recalibration traffic.
    pub gateway: GatewayCounters,
    /// Tick the last in-flight recalibration completed.
    pub drained_tick: u64,
    /// Deterministic event log (bootstrap failures, detections,
    /// enqueues, swaps, failures), in occurrence order.
    pub events: Vec<String>,
}

impl StreamReport {
    /// Mean detection latency in ticks (0 when nothing was detected).
    #[must_use]
    pub fn mean_detection_latency(&self) -> f64 {
        if self.detection_latencies.is_empty() {
            0.0
        } else {
            self.detection_latencies.iter().sum::<u64>() as f64
                / self.detection_latencies.len() as f64
        }
    }

    /// Largest detection latency in ticks.
    #[must_use]
    pub fn max_detection_latency(&self) -> u64 {
        self.detection_latencies.iter().copied().max().unwrap_or(0)
    }

    /// The canonical stream digest: every event line in occurrence
    /// order, then one footer with the counters. No wall-clock fields,
    /// so equal configurations produce byte-equal digests at any
    /// worker count.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(event);
            out.push('\n');
        }
        out.push_str(&format!(
            "patients={} horizon={} boot_failed={} injected={} detected={} false_trips={} \
             enqueued={} completed={} failed={} rejected={} degraded={} swaps={} \
             mard={:.6} latency_mean={:.3} latency_max={} drained_tick={} {}\n",
            self.patients,
            self.horizon_ticks,
            self.bootstrap_failed,
            self.drift_injected,
            self.drift_detected,
            self.false_trips,
            self.recal_enqueued,
            self.recal_completed,
            self.recal_failed,
            self.recal_rejected,
            self.recal_degraded,
            self.epoch_swaps,
            self.mean_mard,
            self.mean_detection_latency(),
            self.max_detection_latency(),
            self.drained_tick,
            self.gateway,
        ));
        out
    }
}

/// Whole-electrode gain of a calibration outcome, µA per mM; ≤ 0 means
/// the outcome is unusable as an epoch.
fn epoch_gain(outcome: &CalibrationOutcome) -> f64 {
    outcome
        .summary
        .sensitivity
        .as_micro_amps_per_milli_molar_square_cm()
        * outcome.curve.electrode_area().as_square_cm()
}

/// The stream engine: a cohort in front of a gateway.
#[derive(Debug)]
pub struct StreamEngine {
    config: StreamConfig,
    gateway: Gateway,
}

impl StreamEngine {
    /// An engine streaming `config`'s cohort through `gateway`.
    #[must_use]
    pub fn new(config: StreamConfig, gateway: Gateway) -> StreamEngine {
        StreamEngine { config, gateway }
    }

    /// The stream configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs the stream to its horizon, drains outstanding
    /// recalibrations, and reports.
    #[must_use]
    pub fn run(&self) -> StreamReport {
        let cfg = &self.config;
        let cohort = PatientCohort::generate(cfg.cohort_seed, cfg.patients);
        let mut events: Vec<String> = Vec::new();

        // Phase A — bootstrap: calibrate every patient's sensor once,
        // as a plain batch fleet (epoch 0 predates admission control).
        let mut builder = Fleet::builder("stream-bootstrap");
        for p in cohort.patients() {
            builder = builder.job(p.entry.clone(), p.cal_seed);
        }
        let boot = self.gateway.runtime().run(&builder.build());
        let mut states: Vec<PatientState> = Vec::with_capacity(cohort.len());
        let mut boot_gain: Vec<f64> = Vec::with_capacity(cohort.len());
        let mut sigma: Vec<f64> = Vec::with_capacity(cohort.len());
        let mut bootstrap_failed = 0u64;
        for (p, result) in cohort.patients().iter().zip(&boot.results) {
            let mut state = PatientState::new(DriftMonitor::new(MONITOR_WINDOW, MONITOR_THRESHOLD));
            let gain = match &result.outcome {
                Ok(outcome) => epoch_gain(outcome),
                Err(_) => 0.0,
            };
            if gain > 0.0 {
                state.epoch = Some(CalibrationEpoch {
                    index: 0,
                    calibrated_tick: 0,
                    sensitivity_micro_amps_per_milli_molar: gain,
                });
            } else {
                bootstrap_failed += 1;
                events.push(format!("boot {} failed", p.id));
            }
            boot_gain.push(gain);
            sigma.push(p.entry.readout_noise().as_micro_amps());
            states.push(state);
        }

        // Phase B — arm the aging plans. A profile is "injected" drift
        // only if the patient is monitored and degradation starts
        // inside the horizon.
        let profiles: Vec<AgingProfile> = cohort
            .patients()
            .iter()
            .map(|p| cfg.aging.aging_profile(&p.id, cfg.horizon_ticks))
            .collect();
        let drift_injected = profiles
            .iter()
            .zip(&states)
            .filter(|(prof, state)| {
                state.epoch.is_some()
                    && prof.ages()
                    && prof.onset_tick.is_some_and(|t| t < cfg.horizon_ticks)
            })
            .count() as u64;

        // Phase C — the tick loop.
        let mut curves: Vec<ConcentrationCurve> = cohort
            .patients()
            .iter()
            .map(|p| ConcentrationCurve::new(&p.physiology))
            .collect();
        let mut session = self.gateway.session();
        let mut rid_map: BTreeMap<u64, usize> = BTreeMap::new();
        let mut next_rid = 0u64;
        let mut drift_detected = 0u64;
        let mut false_trips = 0u64;
        let mut recal_enqueued = 0u64;
        let mut recal_completed = 0u64;
        let mut recal_failed = 0u64;
        let mut recal_rejected = 0u64;
        let mut recal_degraded = 0u64;
        let mut epoch_swaps = 0u64;
        let mut latencies: Vec<u64> = Vec::new();
        for tick in 0..cfg.horizon_ticks {
            // C1 — recalibration outcomes whose logical tick has come.
            for outcome in session.advance_to(tick) {
                let Some(&pi) = rid_map.get(&outcome.id) else {
                    continue;
                };
                self.settle(
                    &outcome,
                    pi,
                    &cohort,
                    &mut states[pi],
                    tick,
                    &mut events,
                    &mut recal_completed,
                    &mut recal_failed,
                    &mut recal_rejected,
                    &mut recal_degraded,
                    &mut epoch_swaps,
                    true,
                );
            }
            // C2 — one reading per monitored patient, in index order.
            for (pi, p) in cohort.patients().iter().enumerate() {
                let Some(epoch) = states[pi].epoch else {
                    continue;
                };
                let activity = profiles[pi].activity_at(tick);
                let c = curves[pi].at(tick).as_milli_molar();
                let i_true = activity * boot_gain[pi] * c;
                let noise =
                    Rng::seed_from_u64(SplitMix64::new(p.noise_seed).derive(tick)).gaussian();
                let i_obs = i_true + sigma[pi] * noise;
                let s_epoch = epoch.sensitivity_micro_amps_per_milli_molar;
                let state = &mut states[pi];
                if c > 1e-9 {
                    let c_hat = i_obs / s_epoch;
                    state.abs_rel_err_sum += (c_hat - c).abs() / c;
                    state.readings += 1;
                }
                let z = (i_obs - s_epoch * c) / sigma[pi];
                let _ = state.monitor.observe(z);
                let may_request = state.monitor.tripped()
                    && state.inflight.is_none()
                    && state.recal_attempts < cfg.max_recalibrations
                    && tick >= state.next_eligible_tick;
                if !may_request {
                    continue;
                }
                if state.detected_tick.is_none() {
                    match profiles[pi].onset_tick {
                        Some(onset) if onset <= tick => {
                            drift_detected += 1;
                            latencies.push(tick - onset);
                            state.detected_tick = Some(tick);
                            events.push(format!("detect {} t{tick} lat={}", p.id, tick - onset));
                        }
                        _ => {
                            false_trips += 1;
                            events.push(format!("falsetrip {} t{tick}", p.id));
                        }
                    }
                }
                let rid = next_rid;
                next_rid += 1;
                // The recal job sweeps the sensor in its *current* aged
                // state; rounding the activity keeps the entry's
                // protocol fingerprint stable across re-renders.
                let aged = p
                    .entry
                    .clone()
                    .with_film_activity((activity * 1e6).round() / 1e6);
                let seed = SplitMix64::new(p.cal_seed).derive(u64::from(epoch.index) + 1);
                session.offer(
                    Request::new(rid, TENANT, aged, seed, tick + 1, RECAL_DEADLINE_TICKS)
                        .with_priority(Priority::Recalibration),
                );
                rid_map.insert(rid, pi);
                state.inflight = Some(rid);
                state.recal_attempts += 1;
                recal_enqueued += 1;
                events.push(format!("recal {} rid={rid} t{tick}", p.id));
            }
        }

        // Phase D — drain stragglers still in flight past the horizon:
        // they count, but the stream is over so no epoch swaps.
        let gate_report = session.finish();
        for outcome in &gate_report.outcomes {
            let Some(&pi) = rid_map.get(&outcome.id) else {
                continue;
            };
            if states[pi].inflight != Some(outcome.id) {
                continue; // already settled inside the horizon
            }
            self.settle(
                outcome,
                pi,
                &cohort,
                &mut states[pi],
                cfg.horizon_ticks,
                &mut events,
                &mut recal_completed,
                &mut recal_failed,
                &mut recal_rejected,
                &mut recal_degraded,
                &mut epoch_swaps,
                false,
            );
        }

        let (err_sum, readings) = states.iter().fold((0.0f64, 0u64), |(e, n), s| {
            (e + s.abs_rel_err_sum, n + s.readings)
        });
        StreamReport {
            patients: cohort.len(),
            horizon_ticks: cfg.horizon_ticks,
            bootstrap_failed,
            drift_injected,
            drift_detected,
            false_trips,
            recal_enqueued,
            recal_completed,
            recal_failed,
            recal_rejected,
            recal_degraded,
            epoch_swaps,
            detection_latencies: latencies,
            mean_mard: if readings == 0 {
                0.0
            } else {
                err_sum / readings as f64
            },
            gateway: gate_report.counters,
            drained_tick: gate_report.drained_tick,
            events,
        }
    }

    /// Applies one terminal recalibration outcome to its patient:
    /// completed jobs swap the epoch (when `swap` — i.e. inside the
    /// horizon — and the gain is usable), failures and rejections back
    /// off and re-arm the monitor so persistent drift re-trips.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        outcome: &RequestOutcome,
        pi: usize,
        cohort: &PatientCohort,
        state: &mut PatientState,
        tick: u64,
        events: &mut Vec<String>,
        recal_completed: &mut u64,
        recal_failed: &mut u64,
        recal_rejected: &mut u64,
        recal_degraded: &mut u64,
        epoch_swaps: &mut u64,
        swap: bool,
    ) {
        let id = &cohort.patients()[pi].id;
        match &outcome.disposition {
            Disposition::Executed {
                quality,
                done_tick,
                result,
                ..
            } => {
                if matches!(quality, Quality::Degraded) {
                    *recal_degraded += 1;
                }
                let gain = match &result.outcome {
                    Ok(oc) => epoch_gain(oc),
                    Err(_) => 0.0,
                };
                if gain > 0.0 {
                    *recal_completed += 1;
                    if swap {
                        let index = state.epoch.map_or(0, |e| e.index) + 1;
                        state.swap_epoch(CalibrationEpoch {
                            index,
                            calibrated_tick: *done_tick,
                            sensitivity_micro_amps_per_milli_molar: gain,
                        });
                        *epoch_swaps += 1;
                        events.push(format!("swap {id} e{index} t{done_tick}"));
                    } else {
                        state.inflight = None;
                    }
                } else {
                    *recal_failed += 1;
                    state.inflight = None;
                    state.next_eligible_tick = tick + RETRY_BACKOFF_TICKS;
                    state.monitor.rearm();
                    events.push(format!("recalfail {id} t{tick}"));
                }
            }
            Disposition::Rejected(reason) => {
                *recal_rejected += 1;
                state.inflight = None;
                state.next_eligible_tick = tick + RETRY_BACKOFF_TICKS;
                state.monitor.rearm();
                events.push(format!("recalreject {id} t{tick} {reason}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_gateway::GatewayConfig;
    use bios_runtime::{Runtime, RuntimeConfig};

    fn engine(config: StreamConfig, workers: usize) -> StreamEngine {
        let runtime = Runtime::new(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        });
        StreamEngine::new(config, Gateway::new(GatewayConfig::default(), runtime))
    }

    #[test]
    fn aggressive_aging_is_detected_and_recalibrated() {
        let seed = 11;
        let aging = FaultPlan::builder("stream-aging", seed)
            .spec(FaultKind::FilmDenaturation, 1.0, 1.0)
            .build();
        let report = engine(StreamConfig::new(12, 96, seed).with_aging(aging), 2).run();
        assert_eq!(report.bootstrap_failed, 0);
        assert!(report.drift_injected >= 8, "p=1.0 ages nearly everyone");
        assert!(
            report.drift_detected >= report.drift_injected / 2,
            "monitors catch injected drift: {} of {}",
            report.drift_detected,
            report.drift_injected
        );
        assert_eq!(report.false_trips, 0, "no trips without injected drift");
        assert!(report.epoch_swaps >= 1, "completed recals swap epochs");
        assert_eq!(report.recal_degraded, 0, "recals never brown out");
        assert!(
            report
                .detection_latencies
                .iter()
                .all(|&l| (1..96).contains(&l)),
            "latencies are positive and inside the horizon: {:?}",
            report.detection_latencies
        );
    }

    #[test]
    fn a_healthy_cohort_never_trips_or_recalibrates() {
        let seed = 5;
        let healthy = FaultPlan::builder("stream-aging", seed)
            .spec(FaultKind::FilmDenaturation, 0.0, 1.0)
            .build();
        let report = engine(StreamConfig::new(10, 96, seed).with_aging(healthy), 2).run();
        assert_eq!(report.drift_injected, 0);
        assert_eq!(report.drift_detected, 0);
        assert_eq!(report.false_trips, 0);
        assert_eq!(report.recal_enqueued, 0);
        assert_eq!(report.epoch_swaps, 0);
        assert!(
            report.mean_mard < 0.1,
            "healthy tracking error stays small: {}",
            report.mean_mard
        );
    }

    #[test]
    fn recalibration_restores_tracking_accuracy() {
        // Same aged cohort, with and without recalibration. The run
        // that swaps epochs must track concentration better.
        let seed = 23;
        let aging = || {
            FaultPlan::builder("stream-aging", seed)
                .spec(FaultKind::FilmDenaturation, 1.0, 1.0)
                .build()
        };
        let with = engine(StreamConfig::new(8, 144, seed).with_aging(aging()), 2).run();
        let without = engine(
            StreamConfig::new(8, 144, seed)
                .with_aging(aging())
                .with_max_recalibrations(0),
            2,
        )
        .run();
        assert!(with.epoch_swaps >= 1);
        assert_eq!(without.epoch_swaps, 0);
        assert!(
            with.mean_mard < without.mean_mard,
            "recalibrated {} vs stale {}",
            with.mean_mard,
            without.mean_mard
        );
    }
}
