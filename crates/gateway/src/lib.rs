//! # bios-gateway — the fleet runtime's overload-robust front door
//!
//! [`bios_runtime::Runtime`] executes whatever fleet it is handed; when
//! arrivals outrun capacity its queue grows without bound and every job
//! gets slower together. This crate puts an admission layer in front of
//! it, built from four cooperating mechanisms:
//!
//! * **Admission control** — a bounded intake queue plus per-tenant
//!   token-bucket rate limiting. Overflow is rejected *explicitly*
//!   ([`Rejected::QueueFull`], [`Rejected::RateLimited`]) instead of
//!   silently growing the queue.
//! * **Deadline propagation** — each [`Request`] carries a deadline
//!   budget in logical ticks. Time spent queueing is charged against
//!   it, and a request whose remaining budget cannot cover even a
//!   degraded run is shed *before* it burns a worker slot
//!   ([`Rejected::DeadlineShed`]).
//! * **Circuit breakers** — a per-sensor-family breaker watches job
//!   outcomes and cuts a persistently failing chemistry off
//!   ([`Rejected::BreakerOpen`]), probing deterministically for
//!   recovery after a cooldown.
//! * **Brownout degradation** — under queue pressure the gateway
//!   downgrades work instead of dropping it: entries are re-run at
//!   reduced sweep resolution and the result is tagged
//!   [`Quality::Degraded`].
//!
//! ## Determinism
//!
//! The gateway is clocked by a **logical tick**, never wall time. A
//! request's service time is derived from its
//! [`CatalogEntry::calibration_workload`] estimate, arrivals carry
//! explicit ticks, and every shed/trip/brownout decision is a pure
//! function of (config, arrival trace, tick). Jobs dispatched in the
//! same tick execute concurrently on the runtime's worker pool — job
//! *outcomes* are pure functions of (entry, seed, plan), so physical
//! parallelism never leaks into the decisions. The full
//! [`GatewayReport::digest`] is byte-identical at any worker count.
//!
//! ```
//! use bios_core::catalog;
//! use bios_gateway::{Gateway, GatewayConfig, Request};
//! use bios_runtime::{Runtime, RuntimeConfig};
//!
//! let runtime = Runtime::new(RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
//! let gateway = Gateway::new(GatewayConfig::default(), runtime);
//! let requests: Vec<Request> = (0..8)
//!     .map(|i| Request::new(i, "ward-3", catalog::our_glucose_sensor(), i, i, 64))
//!     .collect();
//! let report = gateway.run(&requests);
//! assert!(report.clean_drain());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use bios_core::catalog::CatalogEntry;
use bios_runtime::{JobResult, Runtime};

pub mod breaker;
pub mod bucket;
pub mod degrade;
mod session;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use bucket::TokenBucket;
pub use degrade::{DegradationPolicy, Quality};
pub use session::GatewaySession;

/// Scheduling class of a request.
///
/// [`Priority::Recalibration`] is the maintenance class used by the
/// streaming layer for drift-triggered re-calibrations. It bypasses
/// tenant rate limiting (a patient whose sensor has drifted must not
/// wait behind their own routine traffic), is drained ahead of routine
/// work at dispatch, and is **never browned out** — a degraded sweep
/// would corrupt the very calibration epoch it is meant to restore.
/// Recalibrations remain subject to queue capacity and the family
/// circuit breaker: a sick chemistry stays cut off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Normal request class; full admission pipeline applies.
    #[default]
    Routine,
    /// Drift-recovery class: no rate limit, head-of-line dispatch,
    /// never degraded.
    Recalibration,
}

impl Priority {
    /// Stable lowercase label for digests and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Routine => "routine",
            Priority::Recalibration => "recal",
        }
    }
}

/// One calibration request presented at the gateway's front door.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the outcome and digest.
    pub id: u64,
    /// Tenant whose token bucket this request draws from.
    pub tenant: String,
    /// The catalog entry to calibrate.
    pub entry: CatalogEntry,
    /// Noise seed for the run.
    pub seed: u64,
    /// Logical tick the request arrives at the gateway.
    pub arrival_tick: u64,
    /// Deadline budget in logical ticks, counted from arrival.
    pub deadline_ticks: u64,
    /// Scheduling class; [`Priority::Routine`] unless overridden with
    /// [`Request::with_priority`].
    pub priority: Priority,
}

impl Request {
    /// A routine-priority request with every other field explicit.
    #[must_use]
    pub fn new(
        id: u64,
        tenant: &str,
        entry: CatalogEntry,
        seed: u64,
        arrival_tick: u64,
        deadline_ticks: u64,
    ) -> Request {
        Request {
            id,
            tenant: tenant.to_string(),
            entry,
            seed,
            arrival_tick,
            deadline_ticks,
            priority: Priority::Routine,
        }
    }

    /// The same request in a different scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Whether this request is in the recalibration class.
    #[must_use]
    pub fn is_recalibration(&self) -> bool {
        self.priority == Priority::Recalibration
    }

    /// The sensor family the request's breaker is keyed on: the
    /// catalog-id prefix before `/` (`"glucose/ours"` → `"glucose"`).
    #[must_use]
    pub fn family(&self) -> &str {
        family_of(&self.entry)
    }
}

fn family_of(entry: &CatalogEntry) -> &str {
    let id = entry.id();
    id.split('/').next().unwrap_or(id)
}

/// How a job outcome counts toward its family's breaker. `Some(true)`
/// is a success, `Some(false)` a breaker-relevant failure, `None`
/// neutral. Calibration errors, panics, deadline kills, and
/// non-finite quarantines indicate a sick family; exhausted-retry
/// transients say nothing about its chemistry, so they move no breaker
/// state.
fn breaker_verdict(result: &JobResult) -> Option<bool> {
    use bios_runtime::JobError;
    match &result.outcome {
        Ok(_) => Some(true),
        Err(JobError::Transient { .. }) => None,
        Err(
            JobError::Calibration(_)
            | JobError::Panicked(_)
            | JobError::Deadline
            | JobError::NonFinite,
        ) => Some(false),
    }
}

/// Why the gateway refused a request. Every rejection is explicit and
/// counted; nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded intake queue was full at arrival.
    QueueFull,
    /// The tenant's token bucket was empty at arrival.
    RateLimited,
    /// The sensor family's circuit breaker was open (or its half-open
    /// probe quota was in use).
    BreakerOpen,
    /// The remaining deadline budget at dispatch could not cover even
    /// a degraded run.
    DeadlineShed,
}

impl Rejected {
    /// Stable lowercase label for digests and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Rejected::QueueFull => "queue-full",
            Rejected::RateLimited => "rate-limited",
            Rejected::BreakerOpen => "breaker-open",
            Rejected::DeadlineShed => "deadline-shed",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the gateway ultimately did with one request.
#[derive(Debug, Clone)]
pub enum Disposition {
    /// The request ran on the runtime.
    Executed {
        /// Full or browned-out resolution.
        quality: Quality,
        /// Tick the job left the queue for a worker.
        dispatched_tick: u64,
        /// Tick the job's logical service time elapsed.
        done_tick: u64,
        /// The host index the job was dispatched under (see
        /// [`GatewaySession::set_execution_host`]): logical placement,
        /// never rendered by [`RequestOutcome::digest_line`].
        host: usize,
        /// The runtime's result for the job.
        result: JobResult,
    },
    /// The request was refused; the payload says where.
    Rejected(Rejected),
}

/// One request's journey through the gateway.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The caller-chosen request id.
    pub id: u64,
    /// The tenant the request billed against.
    pub tenant: String,
    /// Catalog id of the requested sensor.
    pub sensor: String,
    /// Noise seed of the requested run.
    pub seed: u64,
    /// Tick the request arrived.
    pub arrival_tick: u64,
    /// Scheduling class the request carried.
    pub priority: Priority,
    /// What happened to it.
    pub disposition: Disposition,
}

impl RequestOutcome {
    /// Whether the request executed (at any quality).
    #[must_use]
    pub fn executed(&self) -> bool {
        matches!(self.disposition, Disposition::Executed { .. })
    }

    /// The outcome's line in the canonical gateway digest (no trailing
    /// newline). Wall-clock fields never appear, so the digest is
    /// byte-identical at any worker count. Routine lines are unchanged
    /// from earlier schema versions; recalibration-class lines insert
    /// a ` recal` tag after the tenant.
    #[must_use]
    pub fn digest_line(&self) -> String {
        let tag = match self.priority {
            Priority::Routine => "",
            Priority::Recalibration => " recal",
        };
        match &self.disposition {
            Disposition::Executed {
                quality,
                dispatched_tick,
                done_tick,
                // Placement: the same job may run under any host, so
                // the digest never renders it.
                host: _,
                result,
            } => format!(
                "req {:04} {}{} t{}->{}->{} {} {}",
                self.id,
                self.tenant,
                tag,
                self.arrival_tick,
                dispatched_tick,
                done_tick,
                quality.label(),
                result.digest_line()
            ),
            Disposition::Rejected(r) => format!(
                "req {:04} {}{} t{} rejected {} {} seed={}",
                self.id, self.tenant, tag, self.arrival_tick, r, self.sensor, self.seed
            ),
        }
    }
}

/// The six overload counters, mirrored into the runtime's
/// [`bios_runtime::MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayCounters {
    /// Requests rejected because the intake queue was full.
    pub admission_rejected: u64,
    /// Requests rejected by a tenant's token bucket.
    pub rate_limited: u64,
    /// Closed→Open and HalfOpen→Open breaker transitions.
    pub breaker_trips: u64,
    /// Requests admitted as half-open recovery probes.
    pub breaker_half_open_probes: u64,
    /// Requests executed at degraded resolution.
    pub browned_out: u64,
    /// Requests shed at dispatch for an exhausted deadline budget.
    pub deadline_shed: u64,
}

impl GatewayCounters {
    /// Total requests refused outright: queue overflow, rate limiting,
    /// and deadline sheds. Breaker rejections are per-request outcomes
    /// (`breaker_trips` counts state transitions, not refusals), and
    /// brownouts still execute.
    #[must_use]
    pub fn total_rejected(&self) -> u64 {
        self.admission_rejected + self.rate_limited + self.deadline_shed
    }
}

impl fmt::Display for GatewayCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission_rejected={} rate_limited={} breaker_trips={} breaker_half_open_probes={} browned_out={} deadline_shed={}",
            self.admission_rejected,
            self.rate_limited,
            self.breaker_trips,
            self.breaker_half_open_probes,
            self.browned_out,
            self.deadline_shed
        )
    }
}

/// Everything one gateway run produced.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// Per-request outcomes, in the caller's request order.
    pub outcomes: Vec<RequestOutcome>,
    /// Logical tick the last in-flight job completed.
    pub drained_tick: u64,
    /// The overload counters for this run.
    pub counters: GatewayCounters,
}

impl GatewayReport {
    /// The canonical run digest: one [`RequestOutcome::digest_line`]
    /// per request in request order, then the counters. Contains no
    /// wall-clock fields, so equal configurations produce byte-equal
    /// digests at any worker count.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.digest_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "drained_tick={} {}\n",
            self.drained_tick, self.counters
        ));
        out
    }

    /// Whether every request reached a terminal outcome — executed or
    /// explicitly rejected — with nothing lost in the queue.
    #[must_use]
    pub fn clean_drain(&self) -> bool {
        let executed = self.outcomes.iter().filter(|o| o.executed()).count() as u64;
        let rejected = self.counters.admission_rejected
            + self.counters.rate_limited
            + self.counters.deadline_shed
            + self
                .outcomes
                .iter()
                .filter(|o| matches!(o.disposition, Disposition::Rejected(Rejected::BreakerOpen)))
                .count() as u64;
        executed + rejected == self.outcomes.len() as u64
    }

    /// Ids of requests that executed (any quality), in request order.
    #[must_use]
    pub fn executed_ids(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.executed())
            .map(|o| o.id)
            .collect()
    }

    /// Ids of requests rejected with the given reason, in request
    /// order.
    #[must_use]
    pub fn rejected_ids(&self, reason: Rejected) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.disposition, Disposition::Rejected(r) if r == reason))
            .map(|o| o.id)
            .collect()
    }

    /// Ids of requests that executed at degraded quality, in request
    /// order.
    #[must_use]
    pub fn browned_out_ids(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Executed {
                        quality: Quality::Degraded,
                        ..
                    }
                )
            })
            .map(|o| o.id)
            .collect()
    }
}

/// Gateway construction options. All time-like fields are logical
/// ticks; wall-clock time is never an input to any admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Bounded intake queue capacity; arrivals past it are rejected
    /// with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Jobs the gateway dispatches concurrently per tick.
    pub service_slots: usize,
    /// Workload units ([`CatalogEntry::calibration_workload`] samples)
    /// one logical tick of service represents.
    pub work_units_per_tick: u64,
    /// Deadline budget assigned by [`Gateway::trace_from_plan`] when
    /// the caller does not choose one.
    pub default_deadline_ticks: u64,
    /// Per-tenant token-bucket capacity in millitokens
    /// ([`TokenBucket::WHOLE_TOKEN`] per request).
    pub bucket_capacity_milli: u64,
    /// Per-tenant refill rate in millitokens per tick.
    pub bucket_refill_milli_per_tick: u64,
    /// Per-sensor-family circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for GatewayConfig {
    /// A queue of 32, four service slots, 256 work units per tick
    /// (one full-resolution amperometric calibration ≈ 4 ticks), a
    /// 64-tick default deadline, buckets of 8 tokens refilling 2 per
    /// tick, and default breaker tuning. Brownout follows the fixed
    /// [`DegradationPolicy`].
    fn default() -> GatewayConfig {
        GatewayConfig {
            queue_capacity: 32,
            service_slots: 4,
            work_units_per_tick: 256,
            default_deadline_ticks: 64,
            bucket_capacity_milli: 8 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 2 * TokenBucket::WHOLE_TOKEN,
            breaker: BreakerConfig::default(),
        }
    }
}

/// The overload-robust front door. Owns a [`Runtime`] and feeds it
/// per-tick batches of admitted work.
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    runtime: Runtime,
}

impl Gateway {
    /// A gateway in front of `runtime`.
    #[must_use]
    pub fn new(config: GatewayConfig, runtime: Runtime) -> Gateway {
        Gateway { config, runtime }
    }

    /// The configuration the gateway was built with.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// The runtime this gateway feeds. Streaming callers use this for
    /// work that deliberately bypasses admission (e.g. the bootstrap
    /// calibration fleet in `bios-stream`).
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Opens an incremental admission session: requests are offered
    /// tick by tick ([`GatewaySession::offer`]) instead of as one
    /// pre-assembled trace, and outcomes surface as their ticks pass
    /// ([`GatewaySession::advance_to`]). [`Gateway::run`] is this
    /// session driven to completion over a full trace.
    #[must_use]
    pub fn session(&self) -> GatewaySession<'_> {
        GatewaySession::new(self)
    }

    /// A snapshot of the owned runtime's metrics, including the six
    /// gateway overload counters this gateway has recorded into it.
    #[must_use]
    pub fn metrics(&self) -> bios_runtime::MetricsSnapshot {
        self.runtime.metrics_handle().snapshot()
    }

    /// Logical service ticks for `workload` sample units, always ≥ 1.
    #[must_use]
    pub fn service_ticks(&self, workload: u64) -> u64 {
        workload
            .div_ceil(self.config.work_units_per_tick.max(1))
            .max(1)
    }

    /// Runs a trace of requests to completion and reports every
    /// outcome. The trace need not be sorted; arrivals are processed
    /// in (arrival tick, trace order) order. This is a
    /// [`GatewaySession`] offered the whole trace up front and driven
    /// until every request is terminal.
    #[must_use]
    pub fn run(&self, requests: &[Request]) -> GatewayReport {
        let mut session = self.session();
        for req in requests {
            session.offer(req.clone());
        }
        session.finish()
    }

    /// Builds an arrival trace from a fault plan: one request per
    /// (entry, seed) pair, arrival ticks drawn from
    /// [`bios_faults::FaultPlan::arrival_ticks`] so a
    /// [`bios_faults::FaultKind::TrafficBurst`] spec compresses the
    /// trace into bursts.
    #[must_use]
    pub fn trace_from_plan(
        &self,
        plan: &bios_faults::FaultPlan,
        pairs: &[(CatalogEntry, u64)],
        tenant: &str,
        base_interval_ticks: u64,
    ) -> Vec<Request> {
        let ticks = plan.arrival_ticks(pairs.len(), base_interval_ticks);
        pairs
            .iter()
            .zip(ticks)
            .enumerate()
            .map(|(i, ((entry, seed), arrival))| {
                Request::new(
                    i as u64,
                    tenant,
                    entry.clone(),
                    *seed,
                    arrival,
                    self.config.default_deadline_ticks,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_core::catalog::{our_glucose_sensor, our_lactate_sensor};
    use bios_runtime::RuntimeConfig;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn a_gentle_trickle_all_executes_at_full_quality() {
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request::new(i, "icu", our_glucose_sensor(), i, i * 8, 64))
            .collect();
        let report = gw.run(&reqs);
        assert!(report.clean_drain());
        assert_eq!(report.executed_ids(), vec![0, 1, 2, 3]);
        assert!(report.browned_out_ids().is_empty());
        assert_eq!(report.counters, GatewayCounters::default());
    }

    #[test]
    fn a_burst_past_the_bucket_is_rate_limited() {
        let config = GatewayConfig {
            bucket_capacity_milli: 2 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 0,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, runtime());
        let reqs: Vec<Request> = (0..5)
            .map(|i| Request::new(i, "ward", our_glucose_sensor(), i, 0, 64))
            .collect();
        let report = gw.run(&reqs);
        assert_eq!(report.executed_ids(), vec![0, 1]);
        assert_eq!(report.rejected_ids(Rejected::RateLimited), vec![2, 3, 4]);
        assert_eq!(report.counters.rate_limited, 3);
        assert!(report.clean_drain());
    }

    #[test]
    fn a_full_queue_rejects_explicitly() {
        let config = GatewayConfig {
            queue_capacity: 2,
            service_slots: 1,
            bucket_capacity_milli: 100 * TokenBucket::WHOLE_TOKEN,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, runtime());
        // All at tick 0: slot takes one, queue holds two, rest bounce.
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::new(i, "ward", our_glucose_sensor(), i, 0, 640))
            .collect();
        let report = gw.run(&reqs);
        assert!(report.counters.admission_rejected >= 1);
        assert!(!report.rejected_ids(Rejected::QueueFull).is_empty());
        assert!(report.clean_drain());
    }

    #[test]
    fn hopeless_deadlines_are_shed_before_burning_a_worker() {
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        // Deadline of 1 tick cannot cover even a degraded glucose run
        // (≈ 2 ticks at 256 units/tick).
        let reqs = vec![Request::new(7, "er", our_glucose_sensor(), 1, 0, 1)];
        let report = gw.run(&reqs);
        assert_eq!(report.rejected_ids(Rejected::DeadlineShed), vec![7]);
        assert_eq!(report.counters.deadline_shed, 1);
        assert!(report.clean_drain());
    }

    #[test]
    fn families_are_isolated_by_their_breakers() {
        // Two sweep points are below the linear-range detector's
        // three-standard minimum, so every run of this entry fails
        // with a deterministic calibration error.
        let bad = our_lactate_sensor().with_sweep_points(2);
        let config = GatewayConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ticks: 1000,
                probe_quota: 1,
            },
            bucket_capacity_milli: 100 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 100 * TokenBucket::WHOLE_TOKEN,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, runtime());
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| Request::new(i, "lab", bad.clone(), i, i * 4, 64))
            .collect();
        reqs.extend((4..8).map(|i| Request::new(i, "lab", our_glucose_sensor(), i, 64 + i, 64)));
        let report = gw.run(&reqs);
        assert!(report.counters.breaker_trips >= 1, "lactate family trips");
        assert!(
            !report.rejected_ids(Rejected::BreakerOpen).is_empty(),
            "later lactate requests bounce off the open breaker"
        );
        assert_eq!(
            report.executed_ids().iter().filter(|&&i| i >= 4).count(),
            4,
            "the glucose family sails through untouched"
        );
    }

    #[test]
    fn digest_is_identical_across_worker_counts() {
        let reqs: Vec<Request> = (0..12)
            .map(|i| {
                Request::new(
                    i,
                    if i % 2 == 0 { "a" } else { "b" },
                    our_glucose_sensor(),
                    i,
                    i / 3,
                    64,
                )
            })
            .collect();
        let digests: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let rt = Runtime::new(RuntimeConfig {
                    workers: w,
                    ..RuntimeConfig::default()
                });
                Gateway::new(GatewayConfig::default(), rt)
                    .run(&reqs)
                    .digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn counters_mirror_into_the_runtime_metrics_snapshot() {
        let rt = runtime();
        let config = GatewayConfig {
            bucket_capacity_milli: TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 0,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, rt);
        let reqs: Vec<Request> = (0..3)
            .map(|i| Request::new(i, "ward", our_glucose_sensor(), 0, 0, 64))
            .collect();
        let report = gw.run(&reqs);
        assert_eq!(report.counters.rate_limited, 2);
        let snap = gw.metrics();
        assert_eq!(snap.rate_limited, 2, "counters mirror runtime-side");
        assert_eq!(snap.admission_rejected, 0);
    }

    #[test]
    fn a_recalibration_is_never_browned_out_under_pressure() {
        // One service slot and a long queue: enough routine work piles
        // up at tick 0 that the brownout watermark is well past
        // triggered when the recal request reaches dispatch. Routine
        // requests degrade; the recalibration must run at full quality.
        let config = GatewayConfig {
            queue_capacity: 12,
            service_slots: 1,
            bucket_capacity_milli: 100 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 100 * TokenBucket::WHOLE_TOKEN,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, runtime());
        let mut reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(i, "ward", our_glucose_sensor(), i, 0, 640))
            .collect();
        reqs.push(
            Request::new(99, "ward", our_glucose_sensor(), 99, 0, 640)
                .with_priority(Priority::Recalibration),
        );
        let report = gw.run(&reqs);
        assert!(report.clean_drain());
        assert!(
            report.counters.browned_out >= 1,
            "routine work must brown out under this pressure: {}",
            report.counters
        );
        assert!(
            !report.browned_out_ids().contains(&99),
            "the recalibration must not be degraded"
        );
        let recal = report.outcomes.iter().find(|o| o.id == 99).unwrap();
        assert!(
            matches!(
                recal.disposition,
                Disposition::Executed {
                    quality: Quality::Full,
                    ..
                }
            ),
            "recal outcome: {}",
            recal.digest_line()
        );
        // Head-of-line dispatch: despite being offered last, the recal
        // is the first request to leave the queue.
        let Disposition::Executed {
            dispatched_tick, ..
        } = recal.disposition
        else {
            unreachable!()
        };
        assert_eq!(dispatched_tick, 0, "recal dispatches in its arrival tick");
        assert!(recal.digest_line().contains(" recal "), "digest is tagged");
    }

    #[test]
    fn recalibrations_bypass_the_rate_limit_but_not_the_queue() {
        let config = GatewayConfig {
            bucket_capacity_milli: TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 0,
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config, runtime());
        let reqs = vec![
            Request::new(0, "ward", our_glucose_sensor(), 0, 0, 64),
            Request::new(1, "ward", our_glucose_sensor(), 1, 0, 64),
            Request::new(2, "ward", our_glucose_sensor(), 2, 0, 64)
                .with_priority(Priority::Recalibration),
        ];
        let report = gw.run(&reqs);
        // The bucket holds one token: request 1 is rate limited, but
        // the recalibration never draws from the bucket at all.
        assert_eq!(report.rejected_ids(Rejected::RateLimited), vec![1]);
        assert_eq!(report.executed_ids(), vec![0, 2]);
        assert!(report.clean_drain());
    }

    #[test]
    fn digest_with_recalibrations_is_identical_across_worker_counts() {
        let mut reqs: Vec<Request> = (0..9)
            .map(|i| {
                Request::new(
                    i,
                    if i % 2 == 0 { "a" } else { "b" },
                    our_glucose_sensor(),
                    i,
                    i / 3,
                    64,
                )
            })
            .collect();
        reqs.push(
            Request::new(50, "a", our_glucose_sensor(), 50, 1, 64)
                .with_priority(Priority::Recalibration),
        );
        let digests: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let rt = Runtime::new(RuntimeConfig {
                    workers: w,
                    ..RuntimeConfig::default()
                });
                Gateway::new(GatewayConfig::default(), rt)
                    .run(&reqs)
                    .digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
        assert!(digests[0].contains(" recal "));
    }

    #[test]
    fn a_session_advanced_incrementally_matches_the_batch_digest() {
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::new(i, "icu", our_glucose_sensor(), i, i * 2, 64))
            .collect();
        let batch = Gateway::new(GatewayConfig::default(), runtime()).run(&reqs);
        // Same trace, offered tick by tick against a live session.
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        let mut session = gw.session();
        let mut terminal = 0usize;
        for tick in 0..=14 {
            for req in reqs.iter().filter(|r| r.arrival_tick == tick) {
                session.offer(req.clone());
            }
            terminal += session.advance_to(tick).len();
        }
        assert_eq!(session.offered(), reqs.len());
        let report = session.finish();
        assert_eq!(report.digest(), batch.digest());
        assert!(terminal <= reqs.len());
    }

    #[test]
    fn offers_after_a_full_drain_clamp_forward_and_match_the_batch() {
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        let mut session = gw.session();
        session.offer(Request::new(0, "icu", our_glucose_sensor(), 1, 0, 64));
        // Drain everything the session has been offered so far.
        while let Some(t) = session.next_event_tick() {
            let _ = session.advance_to(t);
        }
        assert_eq!(session.open(), 0, "the first request must be terminal");
        // A late offer with a stale arrival tick: clamped forward,
        // never landing in the already-processed past.
        session.offer(Request::new(1, "icu", our_glucose_sensor(), 2, 0, 64));
        let report = session.finish();
        let clamped = report.outcomes[1].arrival_tick;
        assert!(clamped > 0, "arrival must clamp past processed ticks");
        // The batch path, handed the *effective* trace, agrees byte
        // for byte.
        let batch = Gateway::new(GatewayConfig::default(), runtime()).run(&[
            Request::new(0, "icu", our_glucose_sensor(), 1, 0, 64),
            Request::new(1, "icu", our_glucose_sensor(), 2, clamped, 64),
        ]);
        assert_eq!(report.digest(), batch.digest());
    }

    #[test]
    fn a_zero_tenant_trace_matches_the_empty_batch() {
        let batch = Gateway::new(GatewayConfig::default(), runtime()).run(&[]);
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        let session = gw.session();
        assert_eq!(session.next_event_tick(), None);
        let report = session.finish();
        assert_eq!(report.digest(), batch.digest());
        assert_eq!(report.drained_tick, 0);
        assert_eq!(report.counters, GatewayCounters::default());
    }

    #[test]
    fn a_breaker_opening_mid_session_matches_the_batch_digest() {
        // Two sweep points fail deterministically (below the detector's
        // three-standard minimum), so the lactate family's breaker
        // opens while later offers are still arriving.
        let bad = our_lactate_sensor().with_sweep_points(2);
        let config = GatewayConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ticks: 1000,
                probe_quota: 1,
            },
            bucket_capacity_milli: 100 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 100 * TokenBucket::WHOLE_TOKEN,
            ..GatewayConfig::default()
        };
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| Request::new(i, "lab", bad.clone(), i, i * 4, 64))
            .collect();
        reqs.extend((4..8).map(|i| Request::new(i, "lab", our_glucose_sensor(), i, 64 + i, 64)));
        let batch = Gateway::new(config.clone(), runtime()).run(&reqs);
        assert!(batch.counters.breaker_trips >= 1);
        assert!(!batch.rejected_ids(Rejected::BreakerOpen).is_empty());
        // The same trace offered tick by tick against a live session.
        let gw = Gateway::new(config, runtime());
        let mut session = gw.session();
        for tick in 0..=72 {
            for req in reqs.iter().filter(|r| r.arrival_tick == tick) {
                session.offer(req.clone());
            }
            let _ = session.advance_to(tick);
        }
        let report = session.finish();
        assert_eq!(report.digest(), batch.digest());
    }

    #[test]
    fn trace_from_plan_matches_arrival_ticks() {
        use bios_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::builder("burst", 11)
            .spec(FaultKind::TrafficBurst, 0.5, 1.0)
            .build();
        let gw = Gateway::new(GatewayConfig::default(), runtime());
        let pairs: Vec<(CatalogEntry, u64)> = (0..6).map(|s| (our_glucose_sensor(), s)).collect();
        let trace = gw.trace_from_plan(&plan, &pairs, "ward", 3);
        let expect = plan.arrival_ticks(6, 3);
        assert_eq!(
            trace.iter().map(|r| r.arrival_tick).collect::<Vec<_>>(),
            expect
        );
        assert!(trace.iter().all(|r| r.deadline_ticks == 64));
    }
}
