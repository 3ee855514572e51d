//! Deterministic token-bucket rate limiting.
//!
//! The bucket is clocked by the gateway's logical tick, never by wall
//! time, and holds its level in integer **millitokens** so refill
//! arithmetic is exact — no float drift, no platform-dependent
//! rounding. One admitted request costs [`TokenBucket::WHOLE_TOKEN`]
//! millitokens; fractional refill rates (e.g. one request every three
//! ticks) are expressed as `WHOLE_TOKEN / 3` millitokens per tick.

/// A token bucket clocked in logical ticks and denominated in
/// millitokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    capacity_milli: u64,
    refill_milli_per_tick: u64,
    level_milli: u64,
    last_refill_tick: u64,
}

impl TokenBucket {
    /// Millitokens in one whole token (the cost of one request).
    pub const WHOLE_TOKEN: u64 = 1000;

    /// A bucket that starts full at tick 0.
    #[must_use]
    pub fn new(capacity_milli: u64, refill_milli_per_tick: u64) -> TokenBucket {
        TokenBucket {
            capacity_milli,
            refill_milli_per_tick,
            level_milli: capacity_milli,
            last_refill_tick: 0,
        }
    }

    /// Credits refill for every tick elapsed since the last refill,
    /// saturating at capacity. Ticks never run backwards; a stale
    /// `tick` is a no-op rather than a drain.
    pub fn advance_to(&mut self, tick: u64) {
        if tick <= self.last_refill_tick {
            return;
        }
        let elapsed = tick - self.last_refill_tick;
        let credit = elapsed.saturating_mul(self.refill_milli_per_tick);
        self.level_milli = self
            .level_milli
            .saturating_add(credit)
            .min(self.capacity_milli);
        self.last_refill_tick = tick;
    }

    /// Takes `cost_milli` millitokens if available. Returns whether
    /// the request is within rate.
    pub fn try_take(&mut self, cost_milli: u64) -> bool {
        if self.level_milli >= cost_milli {
            self.level_milli -= cost_milli;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_prng::cases;

    #[test]
    fn starts_full_and_spends_down() {
        let mut b = TokenBucket::new(2 * TokenBucket::WHOLE_TOKEN, 100);
        assert!(b.try_take(TokenBucket::WHOLE_TOKEN));
        assert!(b.try_take(TokenBucket::WHOLE_TOKEN));
        assert!(!b.try_take(TokenBucket::WHOLE_TOKEN));
        assert_eq!(b.level_milli, 0);
    }

    #[test]
    fn refill_is_linear_and_saturates_at_capacity() {
        let mut b = TokenBucket::new(1000, 250);
        assert!(b.try_take(1000));
        b.advance_to(2);
        assert_eq!(b.level_milli, 500);
        b.advance_to(10);
        assert_eq!(b.level_milli, 1000, "refill must clamp at capacity");
    }

    #[test]
    fn stale_ticks_are_no_ops() {
        let mut b = TokenBucket::new(1000, 100);
        b.advance_to(5);
        assert!(b.try_take(400));
        let level = b.level_milli;
        b.advance_to(3);
        assert_eq!(b.level_milli, level, "time must never run backwards");
        b.advance_to(5);
        assert_eq!(b.level_milli, level, "same tick must not re-credit");
    }

    #[test]
    fn huge_gaps_never_overflow() {
        let mut b = TokenBucket::new(u64::MAX, u64::MAX / 2);
        b.advance_to(u64::MAX);
        assert_eq!(b.level_milli, u64::MAX);
        assert!(b.try_take(u64::MAX));
        assert!(!b.try_take(1));
    }

    // Properties driven by the in-tree seeded `bios_prng::cases` driver.

    #[test]
    fn bucket_refill_is_monotone_in_elapsed_ticks() {
        cases(0x0601, 128, |rng| {
            let capacity = 1 + (rng.next_u64() % 50_000);
            let rate = rng.next_u64() % 5_000;
            let spend = rng.next_u64() % (capacity + 1);
            let t1 = rng.next_u64() % 1_000;
            let t2 = t1 + rng.next_u64() % 1_000;
            let mut a = TokenBucket::new(capacity, rate);
            assert!(a.try_take(spend));
            let mut b = a.clone();
            a.advance_to(t1);
            b.advance_to(t2);
            assert!(
                b.level_milli >= a.level_milli,
                "waiting longer can never yield fewer tokens (t1={t1} t2={t2})"
            );
        });
    }

    #[test]
    fn bucket_level_never_exceeds_capacity() {
        cases(0x0602, 128, |rng| {
            let capacity = 1 + (rng.next_u64() % 10_000);
            let rate = rng.next_u64() % u32::MAX as u64;
            let mut b = TokenBucket::new(capacity, rate);
            let mut tick = 0u64;
            for _ in 0..32 {
                tick += rng.next_u64() % 1_000;
                b.advance_to(tick);
                assert!(
                    b.level_milli <= b.capacity_milli,
                    "level {} above capacity {}",
                    b.level_milli,
                    b.capacity_milli
                );
                let cost = rng.next_u64() % (capacity * 2);
                let before = b.level_milli;
                let taken = b.try_take(cost);
                assert_eq!(taken, before >= cost, "take succeeds iff affordable");
                if taken {
                    assert_eq!(b.level_milli, before - cost, "take is exact");
                } else {
                    assert_eq!(b.level_milli, before, "a refused take never drains");
                }
            }
        });
    }

    #[test]
    fn bucket_interleaved_advances_equal_one_big_advance() {
        cases(0x0603, 64, |rng| {
            let capacity = 1 + (rng.next_u64() % 100_000);
            let rate = rng.next_u64() % 100;
            let mut stepped = TokenBucket::new(capacity, rate);
            let mut jumped = TokenBucket::new(capacity, rate);
            assert!(stepped.try_take(capacity));
            assert!(jumped.try_take(capacity));
            let hops: Vec<u64> = (0..8).map(|_| rng.next_u64() % 100).collect();
            let mut tick = 0u64;
            for h in &hops {
                tick += h;
                stepped.advance_to(tick);
            }
            jumped.advance_to(tick);
            // Refill below capacity is linear, so path does not matter —
            // only when the clamp engages may the stepped path differ, and
            // then both must sit at the same clamped level.
            assert_eq!(
                stepped.level_milli, jumped.level_milli,
                "refill must be path-independent"
            );
        });
    }
}
