//! The memoizing result cache.
//!
//! Catalog calibrations are pure functions of `(sensor configuration,
//! seed, armed fault plan)`: the same entry calibrated under the same
//! seed and plan produces the same [`CalibrationOutcome`] bit for bit.
//! Benches, tables, and examples re-run the same configurations
//! constantly, so the runtime memoizes outcomes behind a sharded map
//! keyed by `(sensor id, protocol fingerprint, plan fingerprint, seed)`.
//!
//! Each shard indexes its entries by one `u64`, a splitmix64 mix of
//! `(protocol, plan, seed)` that also picks the shard, so a probe
//! compares integers rather than strings. The sensor id stays out of
//! the mix because the protocol fingerprint already hashes it. Every
//! entry keeps its full [`CacheKey`], and a probe serves only when the
//! whole stored key equals the probe: two keys that share an index
//! never serve each other's outcome, and an insert displaces the
//! resident that shares its index.
//!
//! The protocol fingerprint ([`bios_core::catalog::CatalogEntry::protocol_fingerprint`])
//! covers every field that feeds the calibration — electrode, film
//! recipe, technique, sweep — so two entries sharing an id but differing
//! in recipe can never alias each other's results. It is a hash of the
//! entry's canonical binary encoding, stored when the entry is built, so
//! building a key costs no hashing at all. The plan fingerprint
//! ([`bios_faults::FaultPlan::fingerprint`]) does the same for injected
//! faults: a faulted outcome can never masquerade as a healthy one
//! (jobs whose realization is healthy store under plan fingerprint 0,
//! because their outcome *is* the healthy outcome).
//!
//! Every resident entry carries an integrity checksum stamped at insert
//! and re-verified on every hit: FNV-1a over the summary's canonical
//! encoding, its five `f64` bit patterns (`summary_bits`). A hit
//! therefore costs one lock, a walk of integer comparisons down one
//! shard's map, one key comparison and a 40-byte hash.
//!
//! The cache is **bounded**: each shard evicts its least-recently-used
//! entry once it exceeds its share of the configured capacity, so a
//! long-lived runtime sweeping thousands of seeds cannot grow without
//! limit. Evictions are counted and surfaced through the runtime
//! metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bios_analytics::CalibrationSummary;
use bios_core::catalog::CalibrationOutcome;
use bios_prng::SplitMix64;
use bios_recover::Fnv1a;

/// Number of independent shards; a small power of two keeps lock
/// contention negligible at any plausible worker count.
const SHARDS: usize = 16;

/// Default total capacity (entries across all shards) when the caller
/// does not configure one.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The cache key: which sensor, which exact protocol, which fault
/// plan, which seed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Catalog id of the sensor (e.g. `"glucose/ours"`).
    pub sensor: String,
    /// Fingerprint of the full calibration recipe.
    pub protocol: u64,
    /// Fingerprint of the armed fault plan, or 0 when the job ran
    /// healthy (no plan, or a plan that realized nothing for this job).
    pub plan: u64,
    /// The noise seed of the run.
    pub seed: u64,
}

impl CacheKey {
    /// This key's [`key_index`].
    fn index(&self) -> u64 {
        key_index(self.protocol, self.plan, self.seed)
    }

    /// Whether this key names the job `(sensor, protocol, plan, seed)`.
    fn is(&self, sensor: &str, protocol: u64, plan: u64, seed: u64) -> bool {
        self.protocol == protocol && self.plan == plan && self.seed == seed && self.sensor == sensor
    }
}

/// The 64-bit index of a key: a splitmix64 mix of `(protocol, plan,
/// seed)`. The sensor id is left out because the protocol fingerprint
/// already hashes it. The index picks the shard and orders the shard's
/// map; two keys that share one are told apart by the full key stored
/// in the entry.
fn key_index(protocol: u64, plan: u64, seed: u64) -> u64 {
    SplitMix64::new(SplitMix64::new(protocol).derive(plan)).derive(seed)
}

/// Which of the [`SHARDS`] shards holds the key with this index.
fn shard_of(index: u64) -> usize {
    (index % SHARDS as u64) as usize
}

/// One resident outcome: the full key it was stored under, the shared
/// outcome, its recency stamp (the shard tick at its last get/insert),
/// and its integrity checksum, stamped at insert and re-verified at
/// every serve (see [`outcome_checksum`]).
#[derive(Debug)]
struct Entry {
    key: CacheKey,
    outcome: Arc<CalibrationOutcome>,
    stamp: u64,
    checksum: u64,
}

/// One shard: entries by [`key_index`], plus a monotonic touch counter.
/// The minimum stamp is the least-recently-used entry. A map probe
/// compares `u64`s only; the stored key is compared once, at the end.
///
/// `lru` is the eviction queue, stamp → index, updated lazily: an insert
/// queues its index at the insert stamp, but a hit only moves the stamp
/// in `map`. Every resident index is queued at least once, at a stamp no
/// later than its current one, so the queue's first entry is either the
/// least-recently-used entry (its stamps agree) or a stale one to
/// re-queue at its current stamp (see [`Shard::evict_lru`]).
#[derive(Debug, Default)]
struct Shard {
    map: BTreeMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    tick: u64,
}

impl Shard {
    /// Removes the least-recently-used entry; `false` when the shard is
    /// empty. Amortized O(log n): each stale queue entry is popped once
    /// and re-queued at most once per hit.
    fn evict_lru(&mut self) -> bool {
        while let Some((queued, index)) = self.lru.pop_first() {
            match self.map.get(&index).map(|entry| entry.stamp) {
                Some(stamp) if stamp == queued => {
                    self.map.remove(&index);
                    return true;
                }
                // Touched since it was queued: queue it where it is now.
                Some(stamp) => {
                    self.lru.insert(stamp, index);
                }
                // Dropped since it was queued (corruption at serve).
                None => {}
            }
        }
        false
    }
}

/// The canonical encoding of a [`CalibrationSummary`]: the IEEE-754 bit
/// patterns of its five floats — sensitivity (µA·mM⁻¹·cm⁻²), linear
/// range low and high (M), detection limit (M), R² — in that order.
/// Equal encodings ⇔ bit-equal summaries ⇔ equal digest lines, so the
/// cache checksum and the result seal both cover exactly what the fleet
/// digest renders, without rendering it.
pub(crate) fn summary_bits(s: &CalibrationSummary) -> [u64; 5] {
    [
        s.sensitivity.as_micro_amps_per_milli_molar_square_cm(),
        s.linear_range.low().as_molar(),
        s.linear_range.high().as_molar(),
        s.detection_limit.as_molar(),
        s.r_squared,
    ]
    .map(f64::to_bits)
}

/// Feeds [`summary_bits`] to a hasher, little-endian.
pub(crate) fn hash_summary(h: &mut Fnv1a, s: &CalibrationSummary) {
    for bits in summary_bits(s) {
        h.write_u64(bits);
    }
}

/// Test hook: `s` with the low mantissa bit of its `k`-th
/// [`summary_bits`] float flipped.
#[cfg(test)]
pub(crate) fn flip_summary_bit(s: &CalibrationSummary, k: usize) -> CalibrationSummary {
    use bios_units::{ConcentrationRange, Molar, Sensitivity};
    let mut bits = summary_bits(s);
    bits[k] ^= 1;
    let [sensitivity, low, high, detection_limit, r_squared] = bits.map(f64::from_bits);
    CalibrationSummary {
        sensitivity: Sensitivity::new(sensitivity),
        linear_range: ConcentrationRange::new(Molar::from_molar(low), Molar::from_molar(high))
            .unwrap(),
        detection_limit: Molar::from_molar(detection_limit),
        r_squared,
    }
}

/// Integrity checksum of a memoized outcome: FNV-1a over its summary's
/// [`summary_bits`]. A cache hit whose recomputed checksum no longer
/// matches its insert stamp was corrupted *at rest* — it is dropped and
/// counted, never served, because a finite-but-wrong summary would sail
/// through `NonFinite` quarantine and poison every later run that hits
/// it.
fn outcome_checksum(outcome: &CalibrationOutcome) -> u64 {
    let mut h = Fnv1a::new();
    hash_summary(&mut h, &outcome.summary);
    h.value()
}

/// A sharded, thread-safe, bounded memo table of calibration outcomes.
///
/// Outcomes are stored behind `Arc` so a cache hit is a pointer clone,
/// not a deep copy of the calibration curve.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound; `usize::MAX` when unbounded.
    shard_capacity: usize,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl ResultCache {
    /// Creates an empty cache bounded at [`DEFAULT_CAPACITY`] entries.
    #[must_use]
    pub fn new() -> ResultCache {
        ResultCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` total entries
    /// (0 means unbounded). The bound is enforced per shard, so the
    /// effective total can exceed `capacity` by at most `SHARDS − 1`
    /// rounding entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> ResultCache {
        let shard_capacity = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(SHARDS).max(1)
        };
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
        }
    }

    /// The shard that holds `index`; every shard lookup goes through
    /// here.
    fn shard(&self, index: u64) -> &Mutex<Shard> {
        // bios-audit: allow(P-index) — `shard_of` is `< SHARDS`
        &self.shards[shard_of(index)]
    }

    /// Looks up a memoized outcome, refreshing its recency stamp. The
    /// entry's integrity checksum is re-verified before it is served; a
    /// mismatch drops the entry (counted in
    /// [`ResultCache::corrupt_dropped`]) and reports a miss, so the
    /// caller recomputes instead of consuming rotten bytes.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CalibrationOutcome>> {
        self.probe(&key.sensor, key.protocol, key.plan, key.seed)
    }

    /// [`ResultCache::get`] from the key's parts, so a probe needs no
    /// owned [`CacheKey`]. A resident that shares the probe's index but
    /// not its whole key is a miss, and is left untouched.
    pub(crate) fn probe(
        &self,
        sensor: &str,
        protocol: u64,
        plan: u64,
        seed: u64,
    ) -> Option<Arc<CalibrationOutcome>> {
        let index = key_index(protocol, plan, seed);
        let mut shard = self.shard(index).lock().ok()?;
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard
            .map
            .get_mut(&index)
            .filter(|entry| entry.key.is(sensor, protocol, plan, seed))?;
        if outcome_checksum(&entry.outcome) == entry.checksum {
            entry.stamp = tick;
            return Some(Arc::clone(&entry.outcome));
        }
        shard.map.remove(&index);
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores an outcome, returning the shared handle. Evicts the
    /// shard's least-recently-used entry when the shard is over
    /// capacity. A resident under a different key that shares this
    /// key's index is displaced; that is not counted as an eviction.
    pub fn insert(&self, key: CacheKey, outcome: CalibrationOutcome) -> Arc<CalibrationOutcome> {
        let checksum = outcome_checksum(&outcome);
        let outcome = Arc::new(outcome);
        let index = key.index();
        if let Ok(mut shard) = self.shard(index).lock() {
            shard.tick += 1;
            let stamp = shard.tick;
            let entry = Entry {
                key,
                outcome: Arc::clone(&outcome),
                stamp,
                checksum,
            };
            // A replaced entry's index is already queued, at an earlier
            // stamp.
            if shard.map.insert(index, entry).is_none() {
                shard.lru.insert(stamp, index);
            }
            while shard.map.len() > self.shard_capacity && shard.evict_lru() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Number of memoized outcomes across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map_or(0, |shard| shard.map.len()))
            .sum()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the capacity bound since creation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resident entries that failed their integrity checksum when a
    /// probe found them, since creation: each is dropped at serve time
    /// and never served.
    #[must_use]
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped.load(Ordering::Relaxed)
    }

    /// Test hook: swaps the stored outcome under `key` *without*
    /// updating its integrity checksum — simulating silent at-rest
    /// corruption of a resident entry.
    #[cfg(test)]
    fn tamper(&self, key: &CacheKey, outcome: CalibrationOutcome) {
        let index = key.index();
        if let Ok(mut shard) = self.shard(index).lock() {
            if let Some(entry) = shard.map.get_mut(&index).filter(|e| e.key == *key) {
                entry.outcome = Arc::new(outcome);
            }
        }
    }

    /// Test hook: every resident key, without touching any stamp.
    #[cfg(test)]
    fn keys(&self) -> std::collections::BTreeSet<CacheKey> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .flat_map(|shard| {
                shard
                    .map
                    .values()
                    .map(|entry| entry.key.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use bios_core::catalog;

    use super::*;

    fn key(seed: u64) -> CacheKey {
        let entry = catalog::our_glucose_sensor();
        CacheKey {
            sensor: entry.id().to_owned(),
            protocol: entry.protocol_fingerprint(),
            plan: 0,
            seed,
        }
    }

    #[test]
    fn round_trips_an_outcome() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        assert!(cache.get(&key(7)).is_none());
        cache.insert(key(7), outcome.clone());
        let hit = cache.get(&key(7)).expect("hit");
        assert_eq!(hit.summary, outcome.summary);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinguishes_seeds() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(7), outcome);
        assert!(cache.get(&key(8)).is_none());
    }

    #[test]
    fn distinguishes_fault_plans() {
        let cache = ResultCache::new();
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(7), outcome);
        let mut faulted = key(7);
        faulted.plan = 0xDEAD_BEEF;
        assert!(
            cache.get(&faulted).is_none(),
            "a faulted job must never be served the healthy outcome"
        );
    }

    #[test]
    fn tampered_entry_is_dropped_at_serve_never_served() {
        let cache = ResultCache::new();
        let entry = catalog::our_glucose_sensor();
        let honest = entry.run_calibration(7).unwrap();
        cache.insert(key(7), honest.clone());
        assert!(cache.get(&key(7)).is_some(), "sanity: entry serves");
        // Swap in a different (finite, plausible) outcome behind the
        // checksum's back: exactly the silent corruption NonFinite
        // quarantine cannot see.
        let impostor = entry.run_calibration(8).unwrap();
        assert_ne!(
            format!("{:?}", honest.summary),
            format!("{:?}", impostor.summary)
        );
        cache.tamper(&key(7), impostor);
        assert!(
            cache.get(&key(7)).is_none(),
            "tampered entry must be a miss, not a serve"
        );
        assert_eq!(cache.corrupt_dropped(), 1);
        assert!(
            cache.get(&key(7)).is_none(),
            "the rotten entry is gone, not re-served"
        );
        assert_eq!(cache.corrupt_dropped(), 1, "dropped exactly once");
    }

    #[test]
    fn one_flipped_summary_float_is_dropped_at_serve_never_served() {
        let honest = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for k in 0..5 {
            let cache = ResultCache::new();
            cache.insert(key(7), honest.clone());
            let mut rotten = honest.clone();
            rotten.summary = flip_summary_bit(&honest.summary, k);
            cache.tamper(&key(7), rotten);
            assert!(cache.get(&key(7)).is_none(), "float {k} served");
            assert_eq!(cache.corrupt_dropped(), 1, "float {k}");
            assert!(cache.is_empty(), "float {k} stayed resident");
        }
    }

    #[test]
    fn keys_sharing_an_index_never_serve_each_other() {
        let entry = catalog::our_glucose_sensor();
        let (own, other) = (
            entry.run_calibration(7).unwrap(),
            entry.run_calibration(8).unwrap(),
        );
        let a = key(7);
        let b = CacheKey {
            sensor: "glucose/impostor".to_owned(),
            ..key(7)
        };
        assert_eq!(a.index(), b.index(), "sensor is not part of the index");
        let bits = |o: &CalibrationOutcome| summary_bits(&o.summary);
        for (first, second) in [(&a, &b), (&b, &a)] {
            let cache = ResultCache::new();
            cache.insert(first.clone(), own.clone());
            assert!(cache.get(second).is_none(), "served another key's outcome");
            let hit = cache.get(first).expect("resident key serves");
            assert_eq!(bits(&hit), bits(&own));
            // The second insert displaces the first: each key still gets
            // its own outcome or a miss.
            cache.insert(second.clone(), other.clone());
            assert_eq!(cache.len(), 1);
            assert!(
                cache.get(first).is_none(),
                "served the displacing key's outcome"
            );
            let hit = cache.get(second).expect("displacing key serves");
            assert_eq!(bits(&hit), bits(&other));
            assert_eq!((cache.evictions(), cache.corrupt_dropped()), (0, 0));

            // A corrupt resident: the other key's probe misses without
            // dropping it, its own probe drops it, and the other key's
            // insert then serves only its own outcome.
            let cache = ResultCache::new();
            cache.insert(first.clone(), own.clone());
            cache.tamper(first, other.clone());
            assert!(cache.get(second).is_none());
            assert_eq!((cache.len(), cache.corrupt_dropped()), (1, 0));
            assert!(cache.get(first).is_none(), "served a tampered outcome");
            assert_eq!((cache.len(), cache.corrupt_dropped()), (0, 1));
            cache.insert(second.clone(), other.clone());
            assert!(cache.get(first).is_none());
            let hit = cache.get(second).expect("fresh insert serves");
            assert_eq!(bits(&hit), bits(&other));
        }
    }

    #[test]
    fn warm_campaign_keys_fit_every_shard() {
        // The catalog crossed with 128 seeds, as the warm benchmark runs
        // it: no shard may overflow its share of the default capacity,
        // or a fleet that fits the cache would evict.
        let mut entries = catalog::all_table2();
        entries.extend(catalog::multi_panel_sensors());
        let bound = DEFAULT_CAPACITY / SHARDS;
        for base in [0, 1, 1 << 20, 0x00ab_cdef_1234, 0x00ff_ffff_ff00, 1 << 39] {
            let mut per_shard = [0usize; SHARDS];
            let mut indices = std::collections::BTreeSet::new();
            for entry in &entries {
                for seed in base..base + 128 {
                    let index = key_index(entry.protocol_fingerprint(), 0, seed);
                    assert!(indices.insert(index), "two warm keys share an index");
                    per_shard[shard_of(index)] += 1;
                }
            }
            let fullest = per_shard.iter().max().copied().unwrap_or(0);
            assert!(fullest <= bound, "base {base}: {fullest} keys in one shard");
        }
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // Capacity 16 → one entry per shard; every shard over-fills
        // quickly with 200 distinct seeds.
        let cache = ResultCache::with_capacity(16);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for seed in 0..200 {
            cache.insert(key(seed), outcome.clone());
        }
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
        assert!(cache.evictions() >= 184, "evictions {}", cache.evictions());
    }

    #[test]
    fn recently_touched_entries_survive_eviction() {
        // 64 entries → 4 per shard: room for the hot entry plus churn.
        let cache = ResultCache::with_capacity(64);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        cache.insert(key(0), outcome.clone());
        // Keep touching seed 0 while flooding; it must stay resident
        // even as its shard cycles through colliding keys.
        for seed in 1..400 {
            let _ = cache.get(&key(0));
            cache.insert(key(seed), outcome.clone());
        }
        assert!(cache.get(&key(0)).is_some(), "hot entry was evicted");
    }

    /// The eviction policy the lazy queue replaced, kept as its
    /// reference: per shard, a stamp per key and a full scan for the
    /// minimum stamp on every over-capacity insert.
    struct ScanLru {
        shards: Vec<(BTreeMap<CacheKey, u64>, u64)>,
        shard_capacity: usize,
    }

    impl ScanLru {
        fn new(shard_capacity: usize) -> ScanLru {
            ScanLru {
                shards: (0..SHARDS).map(|_| (BTreeMap::new(), 0)).collect(),
                shard_capacity,
            }
        }

        /// A probe; a hit on a `corrupt` entry drops it instead.
        fn get(&mut self, key: &CacheKey, corrupt: bool) {
            let (map, tick) = &mut self.shards[shard_of(key.index())];
            *tick += 1;
            if corrupt {
                map.remove(key);
            } else if let Some(stamp) = map.get_mut(key) {
                *stamp = *tick;
            }
        }

        /// An insert; returns the keys it evicted, in order.
        fn insert(&mut self, key: CacheKey) -> Vec<CacheKey> {
            let (map, tick) = &mut self.shards[shard_of(key.index())];
            *tick += 1;
            map.insert(key, *tick);
            let mut victims = Vec::new();
            while map.len() > self.shard_capacity {
                let oldest = map
                    .iter()
                    .min_by_key(|(_, stamp)| **stamp)
                    .map(|(k, _)| k.clone())
                    .unwrap();
                map.remove(&oldest);
                victims.push(oldest);
            }
            victims
        }
    }

    #[test]
    fn lazy_queue_evicts_the_same_victims_as_the_scan() {
        // 32 entries → 2 per shard, over 48 keys: most inserts evict,
        // and hits keep reordering the queue behind its back.
        let cache = ResultCache::with_capacity(32);
        let mut reference = ScanLru::new(cache.shard_capacity);
        let honest = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        let impostor = catalog::our_glucose_sensor().run_calibration(8).unwrap();
        let (mut expected, mut actual) = (Vec::new(), Vec::new());
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = key(state % 48);
            match (state >> 32) % 20 {
                // Insert (fresh or replacing).
                0..=9 => {
                    let before = cache.keys();
                    cache.insert(k.clone(), honest.clone());
                    let after = cache.keys();
                    actual.extend(before.difference(&after).cloned());
                    expected.extend(reference.insert(k));
                }
                // Hit or miss.
                10..=16 => {
                    let _ = cache.get(&k);
                    reference.get(&k, false);
                }
                // At-rest corruption caught at serve: the entry is
                // dropped, and any queue entry it had goes stale.
                _ => {
                    cache.tamper(&k, impostor.clone());
                    let _ = cache.get(&k);
                    reference.get(&k, true);
                }
            }
            assert_eq!(actual, expected, "victims diverged");
        }
        assert!(expected.len() > 500, "only {} evictions", expected.len());
        assert!(cache.corrupt_dropped() > 100, "too few corrupt drops");
        assert_eq!(cache.evictions(), expected.len() as u64);
        let resident: std::collections::BTreeSet<CacheKey> = reference
            .shards
            .iter()
            .flat_map(|(map, _)| map.keys().cloned())
            .collect();
        assert_eq!(cache.keys(), resident);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = ResultCache::with_capacity(0);
        let outcome = catalog::our_glucose_sensor().run_calibration(7).unwrap();
        for seed in 0..300 {
            cache.insert(key(seed), outcome.clone());
        }
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.evictions(), 0);
    }
}
