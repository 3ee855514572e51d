//! Tenant-sharded fleet-of-fleets: bulkhead isolation, shard
//! supervision, and deterministic work-stealing over per-shard
//! runtimes.
//!
//! The gateway and stream engine feed every tenant into a *single*
//! [`Runtime`] — one tenant's chaos plan, breaker storm, or brownout
//! degrades every neighbor. `bios-shard` partitions the fleet across N
//! tenant-sharded runtimes, each with its own bounded memo cache,
//! metrics, and journal segment. The runtimes of a [`ShardedGateway`]
//! share one physical worker pool of `shards × workers per shard`
//! threads, so an idle worker always takes the oldest queued job;
//! everything below is logical:
//!
//! * **Routing** ([`route`]) — a tenant's home shard is FNV-1a of its
//!   id mod N; re-homing off a quarantined shard re-hashes over the
//!   ordered healthy set. Stateless and reproducible.
//! * **Bulkheads** — every tenant gets its *own*
//!   [`bios_gateway::GatewaySession`] (token bucket, breakers,
//!   queues, brownout state, counters) bound to its home shard, so a
//!   neighbor's chaos plan, breaker trips, or panics are invisible to
//!   it. The bulkhead is that session, not the thread a job runs on:
//!   streams reject injected stalls synchronously and every job runs
//!   behind `catch_unwind`, so no neighbor can wedge a shared worker.
//! * **Supervision** ([`supervisor`]) — a pure fold over logical
//!   health events quarantines wedged shards (deadline-kill storms),
//!   poisoned shards (respawn exhaustion), and lost shards (a forced
//!   `(shard, tick)` loss, [`ShardChaos::with_shard_loss_at`]);
//!   pending work of a quarantined shard's tenants deterministically
//!   redistributes to healthy shards.
//! * **Work-stealing** — tick-aligned and load-aware: a shard's load
//!   is the service ticks of the in-flight jobs it hosts. When a
//!   tenant's home shard carries at least [`ShardConfig::steal_batch`]
//!   more load than the least-loaded healthy shard, that shard hosts
//!   the tenant's dispatches for the tick. Hosting is a logical tag
//!   ([`bios_gateway::GatewaySession::set_execution_host`]) that
//!   load, completions and health events are credited to; the job
//!   itself still runs on the shared pool, billed to its home shard.
//!
//! The whole layer is a pure function of `(config, trace, chaos)`:
//! job outcomes are pure in `(entry, seed, plan)` and admission state
//! is per-tenant, so [`ShardedReport::digest`] is **byte-identical at
//! any (shard count × worker count)** — even mid-quarantine. CI pins
//! this with `gate shard` (the `bios-bench` gate binary).
//!
//! ```
//! use bios_shard::{tenant_trace, ShardConfig, ShardedGateway};
//!
//! let trace = tenant_trace(2, 2, 2, 64, None);
//! let one = ShardedGateway::new(ShardConfig {
//!     shards: 1,
//!     ..ShardConfig::default()
//! })
//! .run(&trace);
//! let four = ShardedGateway::new(ShardConfig {
//!     shards: 4,
//!     ..ShardConfig::default()
//! })
//! .run(&trace);
//! assert_eq!(one.digest(), four.digest());
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bios_core::catalog;
use bios_faults::FaultPlan;
use bios_gateway::{Disposition, Gateway, GatewayConfig, GatewayCounters, Priority, Request};
use bios_quorum::{meter, QuorumConfig, QuorumScreen};
use bios_recover::StorageIo;
use bios_runtime::journal::{JournalError, JournalOptions};
use bios_runtime::{Counter, Fleet, Job, JobError, Runtime, RuntimeConfig};

pub mod merge;
pub mod route;
pub mod supervisor;

pub use merge::{ShardPlacement, ShardedReport};
pub use route::home_shard;
pub use supervisor::{HealthEvent, ShardSupervisor};

/// Construction knobs for the sharded layer.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of tenant shards (each its own gateway + runtime).
    pub shards: usize,
    /// Minimum load gap, in service ticks, between a tenant's home
    /// shard and the least-loaded healthy shard before the latter
    /// hosts the tenant's dispatches. A shard's load is the service
    /// ticks of the dispatched, not yet due jobs it hosts; the default
    /// of 4 is about one full-resolution job.
    pub steal_batch: usize,
    /// Per-shard admission tuning (every shard gets a copy).
    pub gateway: GatewayConfig,
    /// Per-shard runtime template — `runtime.workers` is workers *per
    /// shard*: a [`ShardedGateway`]'s shared pool has `shards ×
    /// runtime.workers` threads.
    pub runtime: RuntimeConfig,
}

impl Default for ShardConfig {
    /// Four shards, steal batch 4, default gateway/runtime tuning.
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            steal_batch: 4,
            gateway: GatewayConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ShardConfig {
        self.shards = shards;
        self
    }

    /// Overrides the per-shard worker count.
    #[must_use]
    pub fn with_workers_per_shard(mut self, workers: usize) -> ShardConfig {
        self.runtime.workers = workers;
        self
    }
}

/// The chaos inputs of a sharded run, all deterministic.
#[derive(Debug, Clone, Default)]
pub struct ShardChaos {
    /// Per-tenant fault plans: armed on that tenant's session only,
    /// so the bulkhead keeps them invisible to every neighbor.
    pub tenant_plans: BTreeMap<String, FaultPlan>,
    /// Explicit `(shard, tick)` losses, fired as the run's global
    /// tick passes them: the one way a shard is lost.
    pub forced_losses: Vec<(usize, u64)>,
    /// Arms the redundancy screen over the whole fleet's completions:
    /// covered jobs are re-polled across replica lanes and
    /// majority-voted, disagreements strike the offending lane *and*
    /// the executing shard (see
    /// [`supervisor::HealthEvent::CorruptionSuspect`]), and the run's
    /// [`ShardedReport::quorum`] totals are filled. `None` leaves the
    /// screen off.
    pub quorum: Option<QuorumConfig>,
}

impl ShardChaos {
    /// No chaos at all.
    #[must_use]
    pub fn none() -> ShardChaos {
        ShardChaos::default()
    }

    /// Arms `plan` on `tenant`'s session (and no one else's).
    #[must_use]
    pub fn with_tenant_plan(mut self, tenant: &str, plan: FaultPlan) -> ShardChaos {
        self.tenant_plans.insert(tenant.to_string(), plan);
        self
    }

    /// Forces the loss of one shard at one tick.
    #[must_use]
    pub fn with_shard_loss_at(mut self, shard: usize, tick: u64) -> ShardChaos {
        self.forced_losses.push((shard, tick));
        self
    }

    /// Arms the redundancy screen with `config`.
    #[must_use]
    pub fn with_quorum(mut self, config: QuorumConfig) -> ShardChaos {
        self.quorum = Some(config);
        self
    }
}

/// The fleet-of-fleets front door: N per-shard [`Gateway`]s (each
/// owning its own [`Runtime`], all runtimes on one shared worker pool)
/// behind deterministic tenant routing, supervision, and
/// work-stealing.
#[derive(Debug)]
pub struct ShardedGateway {
    config: ShardConfig,
    gateways: Vec<Gateway>,
}

impl ShardedGateway {
    /// Builds `config.shards` shards, each a fresh gateway over a
    /// fresh runtime from the config's templates. The runtimes share
    /// one worker pool of `shards × runtime.workers` threads, so an
    /// idle worker always takes the oldest job queued by any shard.
    #[must_use]
    pub fn new(config: ShardConfig) -> ShardedGateway {
        let shards = config.shards.max(1);
        let workers = shards * config.runtime.workers.max(1);
        let pool = Runtime::new(config.runtime.with_workers(workers));
        let gateways = (0..shards)
            .map(|_| Runtime::on_pool_of(&pool, config.runtime))
            .map(|runtime| Gateway::new(config.gateway.clone(), runtime))
            .collect();
        ShardedGateway { config, gateways }
    }

    /// The shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.gateways.len()
    }

    /// One shard's gateway, if in range.
    #[must_use]
    pub fn gateway(&self, shard: usize) -> Option<&Gateway> {
        self.gateways.get(shard)
    }

    /// Runs a trace with no chaos armed.
    #[must_use]
    pub fn run(&self, trace: &[Request]) -> ShardedReport {
        self.run_with(trace, &ShardChaos::none())
    }

    /// Runs a multi-tenant trace through the sharded fleet.
    ///
    /// Every tenant gets its own session on its home shard's gateway
    /// (bulkhead), with that tenant's chaos plan — if any — armed on
    /// it alone. The lockstep loop then advances all sessions through
    /// the globally merged tick sequence; before each tenant's tick
    /// the loop picks its execution host:
    ///
    /// 1. home shard quarantined → re-hash over the healthy set
    ///    ([`route::redistribute`]), falling back to home when no
    ///    shard is healthy;
    /// 2. home load ≥ the least-loaded healthy shard's load +
    ///    [`ShardConfig::steal_batch`] → that shard steals the
    ///    dispatches. A shard's load is the service ticks of the jobs
    ///    it hosts that are dispatched and not yet due (their session
    ///    has not processed their done tick), read from each job's
    ///    dispatch tick, done tick and host tag, and kept current as
    ///    tenants advance, so a tenant sees the placements of the
    ///    tenants before it in the same tick. Load ties go to home,
    ///    then to the lowest index;
    /// 3. otherwise → home.
    ///
    /// Sessions are advanced in ascending tenant order, and health
    /// events (deadline kills, panic losses, forced shard losses)
    /// fold into the supervisor in that same order — the whole run is
    /// a pure function of `(config, trace, chaos)`
    /// and its digest is placement-independent by construction.
    #[must_use]
    pub fn run_with(&self, trace: &[Request], chaos: &ShardChaos) -> ShardedReport {
        let shards = self.gateways.len();
        let mut tenant_names: Vec<String> = trace.iter().map(|r| r.tenant.clone()).collect();
        tenant_names.sort();
        tenant_names.dedup();
        let slot_of: BTreeMap<&str, usize> = tenant_names
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i))
            .collect();
        let homes: Vec<usize> = tenant_names
            .iter()
            .map(|t| route::home_shard(t, shards))
            .collect();

        // One bulkheaded session per tenant, on its home shard, with
        // only its own chaos plan armed.
        let mut sessions = Vec::with_capacity(tenant_names.len());
        for (slot, tenant) in tenant_names.iter().enumerate() {
            let mut session = self.gateways[homes[slot]].session();
            if let Some(plan) = chaos.tenant_plans.get(tenant) {
                session.set_fault_plan(Some(plan.clone()));
            }
            sessions.push(session);
        }

        // Offer the full trace up front; `(slot, k)` recovers global
        // offer order from the per-tenant reports at the end.
        let mut global_of: Vec<(usize, usize)> = Vec::with_capacity(trace.len());
        let mut offered = vec![0usize; tenant_names.len()];
        for request in trace {
            let slot = slot_of[request.tenant.as_str()];
            global_of.push((slot, offered[slot]));
            offered[slot] += 1;
            sessions[slot].offer(request.clone());
        }

        // Forced shard losses, fired as the global tick passes them.
        let mut supervisor = ShardSupervisor::new(shards);
        // One fleet-wide redundancy screen: replica lanes are logical
        // identities, so the scoreboard is shared across shards and the
        // verdict stream is placement-independent.
        let mut quorum = chaos.quorum.map(QuorumScreen::new);
        let mut losses = chaos.forced_losses.clone();
        losses.sort_unstable_by_key(|&(shard, tick)| (tick, shard));
        let mut next_loss = 0usize;

        let mut completions = vec![0u64; shards];
        let mut steals_in = vec![0u64; shards];
        let mut redistributions_in = vec![0u64; shards];
        // Logical in-flight load per host shard: the service ticks of
        // the jobs it hosts that are dispatched and whose done tick
        // their session has not yet processed. Only `advance_to`
        // changes a session's share, so each due session's share is
        // taken out before it advances and put back after; later
        // tenants of a tick see earlier tenants' placements.
        let mut load = vec![0u64; shards];
        let steal_gap = self.config.steal_batch as u64;

        while let Some(tick) = sessions.iter().filter_map(|s| s.next_event_tick()).min() {
            while next_loss < losses.len() && losses[next_loss].1 <= tick {
                let (shard, loss_tick) = losses[next_loss];
                supervisor.observe(HealthEvent::ShardLost {
                    shard,
                    tick: loss_tick,
                });
                next_loss += 1;
            }
            let healthy = supervisor.healthy_shards();
            for slot in 0..sessions.len() {
                let due = sessions[slot].next_event_tick().is_some_and(|t| t <= tick);
                if !due {
                    continue;
                }
                let home = homes[slot];
                let host = if supervisor.is_quarantined(home) {
                    let target = route::redistribute(&tenant_names[slot], &healthy).unwrap_or(home);
                    if target != home {
                        redistributions_in[target] += 1;
                    }
                    target
                } else {
                    // Least loaded; ties go to home, then to the lowest
                    // index.
                    let lightest = healthy
                        .iter()
                        .copied()
                        .min_by_key(|&i| (load[i], i != home, i))
                        .unwrap_or(home);
                    if lightest != home && load[home] >= load[lightest] + steal_gap {
                        steals_in[lightest] += 1;
                        lightest
                    } else {
                        home
                    }
                };
                for (h, ticks) in sessions[slot].in_flight_load() {
                    load[h] -= ticks;
                }
                sessions[slot].set_execution_host(host);
                let outcomes = sessions[slot].advance_to(tick);
                for (h, ticks) in sessions[slot].in_flight_load() {
                    load[h] += ticks;
                }
                for outcome in outcomes {
                    // Credit the shard the job was dispatched under,
                    // not the one chosen for the tick it completes on.
                    let Disposition::Executed {
                        done_tick,
                        host,
                        result,
                        ..
                    } = &outcome.disposition
                    else {
                        continue;
                    };
                    let host = *host;
                    completions[host] += 1;
                    match &result.outcome {
                        Err(JobError::Deadline) => supervisor.observe(HealthEvent::DeadlineKill {
                            shard: host,
                            tick: *done_tick,
                        }),
                        Err(JobError::Panicked(_)) => {
                            supervisor.observe(HealthEvent::PanicLoss {
                                shard: host,
                                tick: *done_tick,
                            });
                        }
                        _ => {}
                    }
                    if let Some(screen) = quorum.as_mut() {
                        let metrics = self.gateways[host].runtime().metrics_handle();
                        if !result.verify_integrity() {
                            // The produce-time checksum no longer
                            // matches the payload: refuse to treat the
                            // value as clean and suspect the executor.
                            metrics.add(Counter::CorruptionCaught, 1);
                            supervisor.observe(HealthEvent::CorruptionSuspect {
                                shard: host,
                                tick: *done_tick,
                            });
                        } else {
                            let critical = outcome.priority == Priority::Recalibration;
                            let plan = chaos.tenant_plans.get(&tenant_names[slot]);
                            if let Some(verdict) = screen.screen_result(plan, result, critical) {
                                if verdict.disagreement {
                                    supervisor.observe(HealthEvent::CorruptionSuspect {
                                        shard: host,
                                        tick: *done_tick,
                                    });
                                }
                                meter(&verdict, metrics);
                            }
                        }
                    }
                }
            }
        }

        let reports: Vec<bios_gateway::GatewayReport> =
            sessions.into_iter().map(|s| s.finish()).collect();
        let mut counters = GatewayCounters::default();
        let mut drained_tick = 0u64;
        for report in &reports {
            counters = merge_counters(counters, report.counters);
            drained_tick = drained_tick.max(report.drained_tick);
        }
        let outcomes = global_of
            .iter()
            .map(|&(slot, k)| reports[slot].outcomes[k].clone())
            .collect();
        let placement = (0..shards)
            .map(|i| ShardPlacement {
                shard: i,
                completions: completions[i],
                steals_in: steals_in[i],
                redistributions_in: redistributions_in[i],
                health: supervisor.health(i),
            })
            .collect();
        let mut report = ShardedReport::new(outcomes, counters, drained_tick, placement);
        report.quorum = quorum.map(|screen| screen.summary());
        report
    }
}

/// Element-wise sum of two counter sets.
fn merge_counters(a: GatewayCounters, b: GatewayCounters) -> GatewayCounters {
    GatewayCounters {
        admission_rejected: a.admission_rejected + b.admission_rejected,
        rate_limited: a.rate_limited + b.rate_limited,
        breaker_trips: a.breaker_trips + b.breaker_trips,
        breaker_half_open_probes: a.breaker_half_open_probes + b.breaker_half_open_probes,
        browned_out: a.browned_out + b.browned_out,
        deadline_shed: a.deadline_shed + b.deadline_shed,
    }
}

/// Builds a deterministic multi-tenant trace: `tenants` wards
/// (`ward-00`, `ward-01`, …), `per_tenant` requests each, arriving
/// one per `base_interval` ticks within a tenant, sensors alternating
/// between the platform's glucose and lactate entries. With a `skew`
/// plan carrying a [`bios_faults::FaultKind::TenantHotspot`] spec, a
/// hot tenant contributes [`FaultPlan::hotspot_factor`] times the
/// baseline request count at proportionally tighter arrival spacing
/// (`base_interval / factor`, floored at one tick) — a genuine rate
/// hotspot, the arrival-skew input of the isolation ablation.
#[must_use]
pub fn tenant_trace(
    tenants: usize,
    per_tenant: usize,
    base_interval: u64,
    deadline_ticks: u64,
    skew: Option<&FaultPlan>,
) -> Vec<Request> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for t in 0..tenants {
        let tenant = format!("ward-{t:02}");
        let factor = skew.map_or(1, |p| p.hotspot_factor(&tenant));
        let count = per_tenant.saturating_mul(factor as usize);
        let interval = (base_interval / factor).max(1);
        for k in 0..count {
            let entry = if (t + k) % 2 == 0 {
                catalog::our_glucose_sensor()
            } else {
                catalog::our_lactate_sensor()
            };
            let seed = ((t as u64) << 32) | k as u64;
            out.push(Request::new(
                id,
                &tenant,
                entry,
                seed,
                k as u64 * interval,
                deadline_ticks,
            ));
            id += 1;
        }
    }
    out
}

/// What a sharded journaled run (or resume) produced: per-shard
/// segments merged back into one fleet-order digest.
#[derive(Debug)]
pub struct ShardedFleetReport {
    digest: String,
}

impl ShardedFleetReport {
    /// The canonical per-job digest of the whole fleet, segment lines
    /// merged back into fleet job order — byte-identical to
    /// `FleetReport::summaries_digest` of an unsharded run at any
    /// worker count.
    #[must_use]
    pub fn summaries_digest(&self) -> &str {
        &self.digest
    }
}

/// N per-shard [`Runtime`]s for batch fleets: jobs are deterministically
/// partitioned across shards, each shard journals into its own segment
/// file, and resume re-verifies and merges the segments.
#[derive(Debug)]
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
}

impl ShardedRuntime {
    /// Builds `config.shards` runtimes from the config's per-shard
    /// template.
    #[must_use]
    pub fn new(config: &ShardConfig) -> ShardedRuntime {
        ShardedRuntime {
            shards: (0..config.shards.max(1))
                .map(|_| Runtime::new(config.runtime))
                .collect(),
        }
    }

    /// The shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's runtime, if in range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> Option<&Runtime> {
        self.shards.get(shard)
    }

    /// The journal segment path of one shard under `dir`.
    #[must_use]
    pub fn segment_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.journal"))
    }

    /// Deterministically partitions a fleet: job → shard is FNV-1a of
    /// `"{sensor id} {seed:016x}"` mod N, so the split depends only
    /// on job identity — never on job order, shard load, or timing —
    /// and a resume recomputes exactly the same segments. Returns the
    /// dense per-shard sub-jobs plus the map back to fleet indexes.
    fn partition(&self, fleet: &Fleet) -> Vec<(Vec<Job>, Vec<usize>)> {
        let mut parts: Vec<(Vec<Job>, Vec<usize>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for job in fleet.jobs() {
            let key = format!("{} {:016x}", job.entry.id(), job.seed);
            let shard = (bios_recover::fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize;
            let (jobs, orig_of) = &mut parts[shard];
            jobs.push(Job {
                index: jobs.len(),
                entry: job.entry.clone(),
                seed: job.seed,
            });
            orig_of.push(job.index);
        }
        parts
    }

    /// Runs a fleet with one write-ahead journal segment per shard
    /// (`dir/shard-<i>.journal`) and merges the per-shard digest
    /// lines back into fleet job order. Every segment goes through
    /// `backend`, so the torture gate can crash or degrade individual
    /// segments deterministically.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when a segment cannot be created,
    /// appended, or sealed.
    pub fn run_journaled_on(
        &self,
        backend: &dyn StorageIo,
        fleet: &Fleet,
        dir: impl AsRef<Path>,
    ) -> Result<ShardedFleetReport, JournalError> {
        self.each_segment(fleet, dir.as_ref(), |runtime, sub_fleet, path| {
            let report =
                runtime.run_journaled_on(backend, sub_fleet, path, JournalOptions::default())?;
            Ok(report.summaries_digest())
        })
    }

    /// Resumes a sharded journaled run: each segment goes through
    /// [`Runtime::recover_on`] against its shard's sub-fleet, so a
    /// present segment is fingerprint-verified and replayed/completed
    /// exactly like [`Runtime::resume`], while a **missing** segment
    /// (the crash predated its creation) or a **headerless** one (the
    /// crash predated the durable header) runs that shard's jobs fresh
    /// under a new segment. The merged digest is byte-identical to an
    /// uninterrupted unsharded run.
    ///
    /// # Errors
    ///
    /// * [`JournalError::FingerprintMismatch`] — a segment belongs to
    ///   a different fleet; resuming would alias its results;
    /// * other [`JournalError`]s as in [`Runtime::resume`].
    pub fn resume_on(
        &self,
        backend: &dyn StorageIo,
        fleet: &Fleet,
        dir: impl AsRef<Path>,
    ) -> Result<ShardedFleetReport, JournalError> {
        self.each_segment(fleet, dir.as_ref(), |runtime, sub_fleet, path| {
            let report = runtime.recover_on(backend, sub_fleet, path)?;
            Ok(report.summaries_digest().to_owned())
        })
    }

    /// Partitions `fleet`, hands each non-empty shard's sub-fleet and
    /// segment path to `segment` — which returns the digest for it —
    /// and merges the per-segment digest lines back into fleet job
    /// order.
    fn each_segment(
        &self,
        fleet: &Fleet,
        dir: &Path,
        mut segment: impl FnMut(&Runtime, &Fleet, &Path) -> Result<String, JournalError>,
    ) -> Result<ShardedFleetReport, JournalError> {
        let mut lines: Vec<Option<String>> = vec![None; fleet.len()];
        for (shard, (jobs, orig_of)) in self.partition(fleet).into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let sub_fleet = fleet.with_jobs(jobs);
            let path = Self::segment_path(dir, shard);
            let digest = segment(&self.shards[shard], &sub_fleet, &path)?;
            for (line, &orig) in digest.lines().zip(&orig_of) {
                lines[orig] = Some(line.to_owned());
            }
        }
        Ok(ShardedFleetReport {
            digest: join_lines(lines),
        })
    }
}

/// Joins per-job digest lines (fleet order) into the canonical digest
/// string; unfilled slots are unreachable but skipped rather than
/// trusted.
fn join_lines(lines: Vec<Option<String>>) -> String {
    let mut out = String::new();
    for line in lines.into_iter().flatten() {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_faults::FaultKind;
    use bios_recover::RealIo;

    fn shard_config(shards: usize, workers: usize) -> ShardConfig {
        ShardConfig::default()
            .with_shards(shards)
            .with_workers_per_shard(workers)
    }

    #[test]
    fn digest_is_identical_across_shard_and_worker_configs() {
        let trace = tenant_trace(6, 4, 2, 64, None);
        let digests: Vec<String> = [(1usize, 1usize), (4, 2), (8, 8)]
            .iter()
            .map(|&(s, w)| ShardedGateway::new(shard_config(s, w)).run(&trace).digest())
            .collect();
        assert!(!digests[0].is_empty());
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn bulkhead_chaos_on_one_tenant_leaves_neighbors_untouched() {
        // The golden bulkhead test: arm worker panics and stalls on
        // ward-01 alone; every other ward's digest lines *and*
        // latency statistics must be byte-identical to a run with no
        // chaos anywhere.
        let trace = tenant_trace(4, 5, 2, 64, None);
        let quiet = ShardedGateway::new(shard_config(4, 2)).run(&trace);
        let chaos = ShardChaos::none().with_tenant_plan(
            "ward-01",
            FaultPlan::builder("tenant-chaos", 77)
                .spec(FaultKind::WorkerPanic, 0.6, 1.0)
                .spec(FaultKind::WorkerStall, 0.3, 1.0)
                .build(),
        );
        let noisy = ShardedGateway::new(shard_config(4, 2)).run_with(&trace, &chaos);
        // The victim tenant really did take damage…
        assert_ne!(
            quiet.tenant_digest_lines("ward-01"),
            noisy.tenant_digest_lines("ward-01"),
            "the armed plan must actually bite ward-01"
        );
        // …and no neighbor saw any of it.
        for neighbor in ["ward-00", "ward-02", "ward-03"] {
            assert_eq!(
                quiet.tenant_digest_lines(neighbor),
                noisy.tenant_digest_lines(neighbor),
                "{neighbor} digest lines moved under a neighbor's chaos"
            );
            let (q, n) = match (quiet.tenant(neighbor), noisy.tenant(neighbor)) {
                (Some(q), Some(n)) => (q, n),
                other => panic!("missing stats for {neighbor}: {other:?}"),
            };
            assert_eq!(q.latencies, n.latencies, "{neighbor} latencies moved");
            assert_eq!(q.p99(), n.p99());
        }
    }

    #[test]
    fn a_quarantined_shard_redistributes_without_touching_the_digest() {
        let trace = tenant_trace(6, 4, 3, 64, None);
        let healthy = ShardedGateway::new(shard_config(4, 2)).run(&trace);
        // Lose ward-00's home shard right after the run starts.
        let victim_home = route::home_shard("ward-00", 4);
        let chaos = ShardChaos::none().with_shard_loss_at(victim_home, 1);
        let lossy = ShardedGateway::new(shard_config(4, 2)).run_with(&trace, &chaos);
        assert_eq!(lossy.quarantined_shards(), vec![victim_home]);
        assert!(
            lossy
                .placement
                .iter()
                .map(|p| p.redistributions_in)
                .sum::<u64>()
                > 0,
            "pending work of the lost shard's tenants must re-home"
        );
        assert_eq!(
            healthy.digest(),
            lossy.digest(),
            "placement (even mid-quarantine) must never reach the digest"
        );
    }

    #[test]
    fn a_completion_is_credited_to_the_shard_it_was_dispatched_under() {
        // Two tenants homed on shard 0, one request each at tick 0 with
        // the same service time. The first-sorted tenant dispatches
        // home; the second sees shard 0 carry its load and is stolen to
        // shard 1. At the shared done tick the first tenant's job is
        // due first, so the second tenant is back home when its
        // completion is processed: that completion still belongs to
        // shard 1.
        let mut homed: Vec<String> = (0..64)
            .map(|i| format!("ward-{i:02}"))
            .filter(|t| route::home_shard(t, 2) == 0)
            .take(2)
            .collect();
        homed.sort();
        let trace: Vec<Request> = homed
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                Request::new(
                    i as u64,
                    tenant,
                    catalog::our_glucose_sensor(),
                    i as u64,
                    0,
                    64,
                )
            })
            .collect();
        let gateway = ShardedGateway::new(ShardConfig {
            steal_batch: 1,
            ..shard_config(2, 1)
        });
        let report = gateway.run(&trace);
        assert_eq!(report.executed(), 2);
        let hosts: Vec<usize> = report
            .outcomes
            .iter()
            .map(|o| match o.disposition {
                Disposition::Executed { host, .. } => host,
                Disposition::Rejected(_) => unreachable!("both requests execute"),
            })
            .collect();
        assert_eq!(hosts, vec![0, 1], "the second tenant must be stolen");
        let per_shard = |f: fn(&ShardPlacement) -> u64| -> Vec<u64> {
            report.placement.iter().map(f).collect()
        };
        assert_eq!(per_shard(|p| p.steals_in), vec![0, 1]);
        assert_eq!(per_shard(|p| p.completions), vec![1, 1]);
    }

    #[test]
    fn shards_run_on_one_pool_of_shards_times_workers_threads() {
        for (s, w) in [(1usize, 1usize), (2, 1), (4, 2), (3, 0)] {
            let gateway = ShardedGateway::new(shard_config(s, w));
            for i in 0..s {
                let runtime = gateway.gateway(i).unwrap().runtime();
                assert_eq!(runtime.workers(), s * w.max(1), "{s}x{w}: shard {i}");
            }
        }
    }

    #[test]
    fn seeded_hotspot_sweep_steals_deterministically_and_digest_neutrally() {
        // Twelve seeded hotspot traces, each run at every multi-shard
        // layout and steal threshold: the digest must equal the 1x1
        // digest, a second run (warm caches) must repeat the steal
        // counts exactly, and every layout must steal somewhere.
        const LAYOUTS: [(usize, usize); 3] = [(2, 1), (4, 2), (8, 8)];
        const STEAL_BATCHES: [usize; 3] = [1, 4, 16];
        let fleets: Vec<Vec<ShardedGateway>> = LAYOUTS
            .iter()
            .map(|&(s, w)| {
                STEAL_BATCHES
                    .iter()
                    .map(|&steal_batch| {
                        ShardedGateway::new(ShardConfig {
                            steal_batch,
                            ..shard_config(s, w)
                        })
                    })
                    .collect()
            })
            .collect();
        let reference = ShardedGateway::new(shard_config(1, 1));
        let mut steals_at = [0u64; LAYOUTS.len()];
        for seed in 0..12u64 {
            let skew = FaultPlan::builder("sweep", 0x5EED + seed)
                .spec(FaultKind::TenantHotspot, 0.5, 1.0)
                .build();
            let trace = tenant_trace(6, 3, 2, 64, Some(&skew));
            let golden = reference.run(&trace).digest();
            for (l, row) in fleets.iter().enumerate() {
                for (fleet, steal_batch) in row.iter().zip(STEAL_BATCHES) {
                    let (s, w) = LAYOUTS[l];
                    let first = fleet.run(&trace);
                    assert_eq!(
                        first.digest(),
                        golden,
                        "seed {seed}, {s}x{w}, steal_batch {steal_batch}: digest moved"
                    );
                    let again = fleet.run(&trace);
                    let per_shard = |r: &ShardedReport| -> Vec<u64> {
                        r.placement.iter().map(|p| p.steals_in).collect()
                    };
                    assert_eq!(
                        per_shard(&first),
                        per_shard(&again),
                        "seed {seed}, {s}x{w}, steal_batch {steal_batch}: steals not repeatable"
                    );
                    steals_at[l] += first.steals();
                }
            }
        }
        for (&(s, w), steals) in LAYOUTS.iter().zip(steals_at) {
            assert!(steals > 0, "{s}x{w}: no schedule stole");
        }
    }

    #[test]
    fn hotspot_skew_shapes_the_trace_not_the_jobs() {
        let skew = FaultPlan::builder("skew", 0x5EED)
            .spec(FaultKind::TenantHotspot, 0.5, 1.0)
            .build();
        let flat = tenant_trace(6, 3, 2, 64, None);
        let skewed = tenant_trace(6, 3, 2, 64, Some(&skew));
        assert!(
            skewed.len() > flat.len(),
            "a hotspot plan must inflate someone's volume"
        );
        let again = tenant_trace(6, 3, 2, 64, Some(&skew));
        assert_eq!(skewed.len(), again.len());
        for (a, b) in skewed.iter().zip(&again) {
            assert_eq!(
                (a.id, &a.tenant, a.seed, a.arrival_tick),
                (b.id, &b.tenant, b.seed, b.arrival_tick)
            );
        }
    }

    #[test]
    fn an_empty_trace_drains_to_an_empty_report() {
        let report = ShardedGateway::new(shard_config(4, 1)).run(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.drained_tick, 0);
        assert_eq!(report.executed(), 0);
        assert!(report.digest().starts_with("drained_tick=0 "));
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bios-shard-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::create_dir_all(&dir).ok();
        dir
    }

    fn demo_fleet() -> Fleet {
        Fleet::builder("sharded")
            .sensors(catalog::cyp_sensors())
            .seeds([1, 2, 3])
            .build()
    }

    /// Jobs the partition routes to each shard, ascending by shard.
    fn per_shard_jobs(sharded: &ShardedRuntime, fleet: &Fleet) -> Vec<usize> {
        sharded
            .partition(fleet)
            .iter()
            .map(|(jobs, _)| jobs.len())
            .collect()
    }

    /// `(resumed, executed)` jobs summed over the shards' runtimes
    /// since they were built: each runtime's resumed-jobs counter and
    /// the jobs it handed to the pool.
    fn resume_counts(sharded: &ShardedRuntime) -> (usize, usize) {
        sharded
            .shards
            .iter()
            .map(Runtime::metrics)
            .fold((0, 0), |(resumed, executed), m| {
                (
                    resumed + m.resumed_jobs as usize,
                    executed + m.jobs_submitted as usize,
                )
            })
    }

    #[test]
    fn sharded_journaled_run_matches_the_monolithic_digest() {
        let dir = scratch_dir("journal");
        let fleet = demo_fleet();
        let sharded = ShardedRuntime::new(&shard_config(4, 2));
        let report = match sharded.run_journaled_on(&RealIo, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("journaled run failed: {e:?}"),
        };
        let per_shard = per_shard_jobs(&sharded, &fleet);
        assert_eq!(per_shard.iter().sum::<usize>(), fleet.len());
        assert_eq!(resume_counts(&sharded), (0, fleet.len()));
        assert!(
            per_shard.iter().filter(|&&n| n > 0).count() > 1,
            "partitioning should spread this fleet over shards"
        );
        let monolithic = Runtime::with_workers(2).run(&fleet);
        assert_eq!(report.summaries_digest(), monolithic.summaries_digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_merges_segments_and_tolerates_a_missing_one() {
        let dir = scratch_dir("resume");
        let fleet = demo_fleet();
        let sharded = ShardedRuntime::new(&shard_config(4, 2));
        let first = match sharded.run_journaled_on(&RealIo, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("journaled run failed: {e:?}"),
        };
        let per_shard = per_shard_jobs(&sharded, &fleet);
        // A pure replay resumes everything and executes nothing.
        let (resumed, executed) = resume_counts(&sharded);
        let replay = match sharded.resume_on(&RealIo, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("replay failed: {e:?}"),
        };
        let (resumed_after, executed_after) = resume_counts(&sharded);
        assert_eq!(executed_after - executed, 0);
        assert_eq!(resumed_after - resumed, fleet.len());
        assert_eq!(replay.summaries_digest(), first.summaries_digest());
        // Delete one populated segment: its shard re-executes fresh,
        // everyone else replays, and the digest is still identical.
        let victim = match per_shard.iter().position(|&n| n > 0) {
            Some(v) => v,
            None => panic!("no populated shard"),
        };
        std::fs::remove_file(ShardedRuntime::segment_path(&dir, victim)).ok();
        let (resumed, executed) = resume_counts(&sharded);
        let partial = match sharded.resume_on(&RealIo, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("partial resume failed: {e:?}"),
        };
        let (resumed_after, executed_after) = resume_counts(&sharded);
        assert_eq!(executed_after - executed, per_shard[victim]);
        assert_eq!(resumed_after - resumed, fleet.len() - per_shard[victim]);
        assert_eq!(partial.summaries_digest(), first.summaries_digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Walks journal frames (`[u32 len][payload][u64 sum]` after the
    /// 8-byte magic) and returns the byte offset after each complete
    /// frame, starting with the magic boundary itself.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = vec![8usize];
        let mut at = 8usize;
        while at + 4 <= bytes.len() {
            let Some(len_buf) = bytes.get(at..at + 4) else {
                break;
            };
            let Ok(len_arr) = <[u8; 4]>::try_from(len_buf) else {
                break;
            };
            let end = at + 4 + u32::from_le_bytes(len_arr) as usize + 8;
            if end > bytes.len() {
                break;
            }
            at = end;
            ends.push(at);
        }
        ends
    }

    #[test]
    fn mixed_health_segments_resume_to_the_golden_digest() {
        use bios_recover::SimIo;
        // One sealed segment, one torn tail, one ENOSPC-style clean
        // unsealed prefix: resume must recover exactly the journaled
        // jobs, re-execute the rest, and land on the golden digest.
        let fleet = demo_fleet();
        let golden = Runtime::with_workers(2).run(&fleet).summaries_digest();
        let dir = PathBuf::from("/sim/mixed-health");
        let sharded = ShardedRuntime::new(&shard_config(3, 2));
        let io = SimIo::perfect(0xD15C_0BAD);
        let first = match sharded.run_journaled_on(&io, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("journaled run failed: {e:?}"),
        };
        assert_eq!(first.summaries_digest(), golden);
        // Rank populated shards by job count: the biggest becomes the
        // ENOSPC casualty (a retired journal is a valid unsealed
        // prefix of complete frames), the runner-up tears mid-frame,
        // everyone else stays sealed.
        let mut populated: Vec<(usize, usize)> = per_shard_jobs(&sharded, &fleet)
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect();
        populated.sort_by_key(|&(shard, n)| (std::cmp::Reverse(n), shard));
        let (&(prefix_shard, prefix_jobs), &(torn_shard, torn_jobs)) =
            match (populated.first(), populated.get(1)) {
                (Some(a), Some(b)) => (a, b),
                other => panic!("need two populated shards, got {other:?}"),
            };
        assert!(
            populated.len() >= 3,
            "need a third, still-sealed shard: {populated:?}"
        );
        assert!(prefix_jobs >= 2, "prefix shard needs a job to lose");
        assert!(torn_jobs >= 1);
        // ENOSPC aftermath: keep the header frame plus one job record.
        let prefix_path = ShardedRuntime::segment_path(&dir, prefix_shard);
        let bytes = match io.file_bytes(&prefix_path) {
            Some(b) => b,
            None => panic!("missing segment {prefix_path:?}"),
        };
        let ends = frame_ends(&bytes);
        let keep = match ends.get(2) {
            Some(&k) => k as u64,
            None => panic!("segment too short: {ends:?}"),
        };
        if let Err(e) = io.open_truncated(&prefix_path, keep) {
            panic!("truncating prefix segment failed: {e:?}");
        }
        // Torn tail: cut three bytes into the last job frame so both
        // the seal and that record are lost mid-byte.
        let torn_path = ShardedRuntime::segment_path(&dir, torn_shard);
        let tbytes = match io.file_bytes(&torn_path) {
            Some(b) => b,
            None => panic!("missing segment {torn_path:?}"),
        };
        let tends = frame_ends(&tbytes);
        let cut = match tends.len().checked_sub(2).and_then(|i| tends.get(i)) {
            Some(&end_last_job) => (end_last_job - 3) as u64,
            None => panic!("torn segment too short: {tends:?}"),
        };
        if let Err(e) = io.open_truncated(&torn_path, cut) {
            panic!("tearing segment failed: {e:?}");
        }
        // Fresh runtimes resume the mixed-health directory.
        let resumer = ShardedRuntime::new(&shard_config(3, 2));
        let resumed = match resumer.resume_on(&io, &fleet, &dir) {
            Ok(r) => r,
            Err(e) => panic!("mixed-health resume failed: {e:?}"),
        };
        assert_eq!(
            resumed.summaries_digest(),
            golden,
            "mixed-health resume must converge to the golden digest"
        );
        // Exactly the journaled jobs were recovered: the prefix shard
        // lost all but its first record, the torn shard lost one.
        let lost = (prefix_jobs - 1) + 1;
        assert_eq!(resume_counts(&resumer), (fleet.len() - lost, lost));
    }

    #[test]
    fn enospc_mid_run_degrades_metered_and_still_resumes_to_golden() {
        use bios_recover::{IoFaultScript, SimIo};
        // A live ENOSPC on a segment append retires that shard's
        // journal (metered via `journal_lost`), the degraded run still
        // produces the golden digest, and a later resume over the
        // half-journaled directory converges to it too. Seeds are
        // scanned deterministically: some hit ENOSPC on `create`,
        // which is the typed-error branch and simply skipped.
        let fleet = demo_fleet();
        let golden = Runtime::with_workers(2).run(&fleet).summaries_digest();
        let mut exercised = false;
        for seed in 0..64u64 {
            let io = SimIo::new(IoFaultScript::healthy(seed).with_rates(0, 30, 0, 0));
            let dir = PathBuf::from(format!("/sim/enospc-{seed}"));
            let sharded = ShardedRuntime::new(&shard_config(3, 2));
            let report = match sharded.run_journaled_on(&io, &fleet, &dir) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let lost: u64 = (0..sharded.shards())
                .filter_map(|i| sharded.shard(i))
                .map(|rt| rt.metrics().journal_lost)
                .sum();
            if lost == 0 {
                continue;
            }
            assert_eq!(
                report.summaries_digest(),
                golden,
                "seed {seed}: a degraded run must still be correct"
            );
            io.set_script(IoFaultScript::healthy(seed));
            let resumed =
                match ShardedRuntime::new(&shard_config(3, 2)).resume_on(&io, &fleet, &dir) {
                    Ok(r) => r,
                    Err(e) => panic!("seed {seed}: resume failed: {e:?}"),
                };
            assert_eq!(
                resumed.summaries_digest(),
                golden,
                "seed {seed}: resume after degradation diverged"
            );
            exercised = true;
            break;
        }
        assert!(exercised, "no seed in 0..64 produced a metered ENOSPC");
    }

    #[test]
    fn quorum_armed_digests_are_identical_across_layouts_while_votes_fire() {
        // The tentpole determinism contract: with silent corruption
        // armed on every tenant and the redundancy screen voting on
        // every completion, the digest AND the quorum totals must be
        // byte-identical at 1/2/8 workers and across shard layouts —
        // and equal to a run with no screen at all.
        let trace = tenant_trace(4, 5, 2, 64, None);
        let plan = FaultPlan::builder("silent-corrupter", 0xC0DE)
            .spec(FaultKind::SilentCorruption, 0.45, 0.8)
            .build();
        let mut chaos = ShardChaos::none().with_quorum(QuorumConfig { sampling: 1.0 });
        for ward in ["ward-00", "ward-01", "ward-02", "ward-03"] {
            chaos = chaos.with_tenant_plan(ward, plan.clone());
        }
        let baseline = ShardedGateway::new(shard_config(1, 1)).run(&trace);
        let mut digests = Vec::new();
        let mut summaries = Vec::new();
        for &(s, w) in &[(1usize, 1usize), (1, 2), (1, 8), (4, 2)] {
            let report = ShardedGateway::new(shard_config(s, w)).run_with(&trace, &chaos);
            let q = match report.quorum {
                Some(q) => q,
                None => panic!("({s}x{w}): armed run must carry a quorum summary"),
            };
            assert!(q.votes > 0, "({s}x{w}): the screen must vote");
            assert!(q.disagreements > 0, "({s}x{w}): the drill must bite");
            assert!(q.injected > 0, "({s}x{w}): corruption must realize");
            assert_eq!(q.caught, q.injected, "({s}x{w}): every corruption caught");
            assert_eq!(q.escaped, 0, "({s}x{w}): nothing may escape the vote");
            digests.push(report.digest());
            summaries.push(q);
        }
        for (d, s) in digests.iter().zip(&summaries) {
            assert_eq!(d, &digests[0], "digest moved across layouts");
            assert_eq!(s, &summaries[0], "quorum totals moved across layouts");
        }
        assert_eq!(
            digests[0],
            baseline.digest(),
            "arming the screen must never move the digest"
        );
    }

    #[test]
    fn silent_corrupters_quarantine_lanes_and_suspect_the_host_shard() {
        // High-rate corruption: offending lanes accumulate strikes and
        // are quarantined, the executing shard collects
        // CorruptionSuspect events until the supervisor pulls it, and
        // the digest still never moves.
        let trace = tenant_trace(2, 12, 2, 64, None);
        let plan = FaultPlan::builder("corrupt-flood", 0xBAD)
            .spec(FaultKind::SilentCorruption, 0.9, 1.0)
            .build();
        let chaos = ShardChaos::none()
            .with_quorum(QuorumConfig { sampling: 1.0 })
            .with_tenant_plan("ward-00", plan.clone())
            .with_tenant_plan("ward-01", plan);
        let report = ShardedGateway::new(shard_config(1, 2)).run_with(&trace, &chaos);
        let q = match report.quorum {
            Some(q) => q,
            None => panic!("armed run must carry a quorum summary"),
        };
        assert!(
            q.quarantined > 0,
            "repeat-offender lanes must be quarantined: {q:?}"
        );
        assert!(q.disagreements >= 3, "the flood must disagree repeatedly");
        assert_eq!(
            report.quarantined_shards(),
            vec![0],
            "the lone executing shard must be pulled after repeated suspicion"
        );
        let quiet = ShardedGateway::new(shard_config(1, 2)).run(&trace);
        assert_eq!(
            quiet.digest(),
            report.digest(),
            "corruption screening (and shard quarantine) must be digest-neutral"
        );
    }

    #[test]
    fn a_bit_flip_in_a_sealed_segment_surfaces_a_checksum_error_on_resume() {
        // End-to-end integrity: flip one bit inside a sealed journal
        // record's payload and the merged resume must refuse with a
        // checksum error — deterministically — instead of merging the
        // corrupt record.
        let dir = scratch_dir("bitflip");
        let fleet = demo_fleet();
        let sharded = ShardedRuntime::new(&shard_config(4, 2));
        if let Err(e) = sharded.run_journaled_on(&RealIo, &fleet, &dir) {
            panic!("journaled run failed: {e:?}");
        }
        let victim = match per_shard_jobs(&sharded, &fleet).iter().position(|&n| n > 0) {
            Some(v) => v,
            None => panic!("no populated shard"),
        };
        let path = ShardedRuntime::segment_path(&dir, victim);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => panic!("segment unreadable: {e}"),
        };
        // Target the last job record's digest-line payload (well past
        // the header frame, well before nothing — the seal follows).
        let needle = b"seed=";
        let pos = match bytes.windows(needle.len()).rposition(|w| w == needle) {
            Some(p) => p,
            None => panic!("no digest line in segment"),
        };
        bytes[pos + needle.len()] ^= 0x01;
        if let Err(e) = std::fs::write(&path, &bytes) {
            panic!("rewrite failed: {e}");
        }
        for attempt in 0..2 {
            match sharded.resume_on(&RealIo, &fleet, &dir) {
                Err(JournalError::Corrupt(_)) => {}
                Err(e) => panic!("attempt {attempt}: expected Corrupt, got {e:?}"),
                Ok(_) => panic!("attempt {attempt}: resume merged a bit-flipped record"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_fleet() {
        let dir = scratch_dir("foreign");
        let sharded = ShardedRuntime::new(&shard_config(2, 1));
        if let Err(e) = sharded.run_journaled_on(&RealIo, &demo_fleet(), &dir) {
            panic!("journaled run failed: {e:?}");
        }
        let other = Fleet::builder("other")
            .sensors(catalog::cyp_sensors())
            .seeds([9, 10, 11])
            .build();
        match sharded.resume_on(&RealIo, &other, &dir) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
