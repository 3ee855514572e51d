//! Merging per-tenant session reports into one [`ShardedReport`].
//!
//! The digest contract is the platform's strictest: the merged digest
//! must be **byte-identical at any (shard count × worker count)**,
//! including runs where a shard was quarantined mid-trace and its
//! tenants redistributed. That holds because everything the digest
//! contains is placement-independent by construction:
//!
//! * request lines are [`RequestOutcome::digest_line`]s in global
//!   offer order — job outcomes are pure functions of
//!   `(entry, seed, plan)` and admission is per-tenant, so neither
//!   depends on which shard executed;
//! * tenant latency lines are derived from logical
//!   `done_tick − arrival_tick` spans of those same outcomes;
//! * the footer merges counters that are sums of per-tenant counters.
//!
//! Placement — which shard hosted what, who stole, who was
//! quarantined — is reported in [`ShardedReport::placement`] for
//! humans and benches, and deliberately kept **out** of the digest.

use std::collections::BTreeMap;

use bios_gateway::{Disposition, GatewayCounters, RequestOutcome};
use bios_quorum::QuorumSummary;
use bios_recover::fnv1a;

use crate::supervisor::ShardHealth;

/// Per-tenant logical-latency and outcome statistics, derived purely
/// from the tenant's own request outcomes.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: String,
    /// Requests that executed (at any quality).
    pub executed: u64,
    /// Requests the gateway rejected.
    pub rejected: u64,
    /// Logical latency (`done_tick − arrival_tick`) of every executed
    /// request, sorted ascending.
    pub latencies: Vec<u64>,
}

impl TenantStats {
    /// Nearest-rank quantile over the sorted logical latencies
    /// (0 when the tenant executed nothing). Integer in, integer out:
    /// no float formatting can wobble the digest.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rank =
            ((q * self.latencies.len() as f64).ceil() as usize).clamp(1, self.latencies.len());
        self.latencies[rank - 1]
    }

    /// Median logical latency in ticks.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.latency_quantile(0.50)
    }

    /// 99th-percentile logical latency in ticks.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.latency_quantile(0.99)
    }

    /// Worst logical latency in ticks.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.latencies.last().copied().unwrap_or(0)
    }

    /// This tenant's line in the sharded digest (no trailing newline).
    #[must_use]
    pub fn digest_line(&self) -> String {
        format!(
            "tenant {} executed={} rejected={} p50={} p99={} max={}",
            self.tenant,
            self.executed,
            self.rejected,
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

/// Where work was placed — the logical placement summary (every shard
/// runs on the one shared worker pool). Deterministic (the lockstep
/// loop derives it from logical state only) but
/// *placement-dependent*, so it never enters the digest.
#[derive(Debug, Clone)]
pub struct ShardPlacement {
    /// The shard index.
    pub shard: usize,
    /// Executed outcomes whose job was dispatched with this shard as
    /// its host.
    pub completions: u64,
    /// Tenant-ticks this shard hosted as a work-stealing target.
    pub steals_in: u64,
    /// Tenant-ticks this shard hosted for tenants re-homed off a
    /// quarantined shard.
    pub redistributions_in: u64,
    /// The shard's final health.
    pub health: ShardHealth,
}

/// The merged result of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Every request outcome, in global offer (= trace) order.
    pub outcomes: Vec<RequestOutcome>,
    /// Admission counters summed across every tenant session.
    pub counters: GatewayCounters,
    /// Latest tick any tenant's last in-flight job completed.
    pub drained_tick: u64,
    /// Per-shard placement summary, ascending by shard index.
    pub placement: Vec<ShardPlacement>,
    /// Totals of the redundancy screen when the run armed one
    /// ([`crate::ShardChaos::quorum`]); `None` otherwise. Deliberately
    /// *not* part of [`ShardedReport::digest`]: the vote validates
    /// already-committed values, so arming a screen never moves the
    /// digest — the summary is observability, not payload.
    pub quorum: Option<QuorumSummary>,
}

impl ShardedReport {
    /// Builds the report from merged outcomes and the run's placement
    /// summary. Outcomes must already be in global offer order.
    #[must_use]
    pub fn new(
        outcomes: Vec<RequestOutcome>,
        counters: GatewayCounters,
        drained_tick: u64,
        placement: Vec<ShardPlacement>,
    ) -> ShardedReport {
        ShardedReport {
            outcomes,
            counters,
            drained_tick,
            placement,
            quorum: None,
        }
    }

    /// Per-tenant statistics, ascending by tenant id — pure function
    /// of the outcomes, so identical at any placement.
    #[must_use]
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut by_tenant: BTreeMap<&str, TenantStats> = BTreeMap::new();
        for outcome in &self.outcomes {
            let stats = by_tenant
                .entry(outcome.tenant.as_str())
                .or_insert_with(|| TenantStats {
                    tenant: outcome.tenant.clone(),
                    executed: 0,
                    rejected: 0,
                    latencies: Vec::new(),
                });
            match &outcome.disposition {
                Disposition::Executed { done_tick, .. } => {
                    stats.executed += 1;
                    stats
                        .latencies
                        .push(done_tick.saturating_sub(outcome.arrival_tick));
                }
                Disposition::Rejected(_) => stats.rejected += 1,
            }
        }
        let mut stats: Vec<TenantStats> = by_tenant.into_values().collect();
        for s in &mut stats {
            s.latencies.sort_unstable();
        }
        stats
    }

    /// The statistics of one tenant, if it appears in the trace.
    #[must_use]
    pub fn tenant(&self, tenant: &str) -> Option<TenantStats> {
        self.tenant_stats().into_iter().find(|s| s.tenant == tenant)
    }

    /// The digest lines of one tenant's requests, in offer order —
    /// the unit of the bulkhead invariant: arming chaos on a
    /// *different* tenant must leave these bytes untouched.
    #[must_use]
    pub fn tenant_digest_lines(&self, tenant: &str) -> String {
        let mut out = String::new();
        for outcome in self.outcomes.iter().filter(|o| o.tenant == tenant) {
            out.push_str(&outcome.digest_line());
            out.push('\n');
        }
        out
    }

    /// The canonical sharded digest: every request line in global
    /// offer order, one latency line per tenant (ascending), then the
    /// merged-counters footer. Contains no placement, wall-clock, or
    /// shard-count field, so equal `(config, trace, plans)` produce
    /// byte-equal digests at any (shard count × worker count) — the
    /// `gate shard` contract.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            out.push_str(&outcome.digest_line());
            out.push('\n');
        }
        for stats in self.tenant_stats() {
            out.push_str(&stats.digest_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "drained_tick={} {}\n",
            self.drained_tick, self.counters
        ));
        out
    }

    /// FNV-1a of [`ShardedReport::digest`] — the value the CI gate
    /// compares across shard × worker configurations.
    #[must_use]
    pub fn digest_fnv(&self) -> u64 {
        fnv1a(self.digest().as_bytes())
    }

    /// Total executed outcomes.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.executed()).count() as u64
    }

    /// Tenant-ticks hosted by steal targets, summed across shards.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.placement.iter().map(|p| p.steals_in).sum()
    }

    /// Shards that ended the run quarantined.
    #[must_use]
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.placement
            .iter()
            .filter(|p| matches!(p.health, ShardHealth::Quarantined { .. }))
            .map(|p| p.shard)
            .collect()
    }
}
