//! Deterministic tenant → shard routing.
//!
//! A tenant's **home shard** is a pure function of its id and the
//! shard count — FNV-1a of the tenant id modulo N, the same hash the
//! rest of the platform uses for fingerprints — so routing needs no
//! table, no coordination, and no state that could drift between a
//! run and its resume. When a home shard is quarantined, its tenants
//! are re-homed by re-hashing over the ordered list of *healthy*
//! shards ([`redistribute`]): still a pure function of
//! `(tenant, healthy set)`, so every participant computes the same
//! answer without talking to each other.
//!
//! Routing only ever decides which shard a tenant's session lives on
//! and which shard hosts its dispatches: logical placement. Every
//! shard of a sharded gateway runs its jobs on one shared worker
//! pool, and job outcomes are pure functions of `(entry, seed, plan)`,
//! so no routing decision can reach a digest.

use bios_recover::fnv1a;

/// The home shard for `tenant` among `shards` shards: FNV-1a of the
/// tenant id mod N. Pure, stateless, and stable across runs; a
/// degenerate `shards == 0` routes everything to shard 0 rather than
/// dividing by zero.
#[must_use]
pub fn home_shard(tenant: &str, shards: usize) -> usize {
    (fnv1a(tenant.as_bytes()) % shards.max(1) as u64) as usize
}

/// Re-homes a quarantined tenant onto one of the `healthy` shards
/// (ordered ascending, as `ShardSupervisor::healthy_shards` yields
/// them): FNV-1a of the tenant id mod the healthy count, indexing
/// into the healthy list. `None` when no shard is healthy — the
/// caller falls back to the home shard, which is always safe because
/// placement never changes what a job computes.
#[must_use]
pub fn redistribute(tenant: &str, healthy: &[usize]) -> Option<usize> {
    if healthy.is_empty() {
        return None;
    }
    Some(healthy[(fnv1a(tenant.as_bytes()) % healthy.len() as u64) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_shard_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for i in 0..64 {
                let tenant = format!("ward-{i:02}");
                let home = home_shard(&tenant, shards);
                assert_eq!(home, home_shard(&tenant, shards));
                assert!(home < shards);
            }
        }
        assert_eq!(home_shard("anything", 0), 0);
        assert_eq!(home_shard("anything", 1), 0);
    }

    #[test]
    fn enough_tenants_reach_every_shard() {
        let shards = 8;
        let mut hit = vec![false; shards];
        for i in 0..256 {
            hit[home_shard(&format!("ward-{i:03}"), shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never homed a tenant");
    }

    #[test]
    fn redistribute_lands_on_a_healthy_shard_only() {
        let healthy = vec![0usize, 2, 5];
        for i in 0..64 {
            let tenant = format!("ward-{i:02}");
            let target = redistribute(&tenant, &healthy).unwrap();
            assert!(healthy.contains(&target));
            assert_eq!(Some(target), redistribute(&tenant, &healthy));
        }
        assert_eq!(redistribute("ward-00", &[]), None);
        assert_eq!(redistribute("ward-00", &[3]), Some(3));
    }
}
