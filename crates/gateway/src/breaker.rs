//! Per-sensor-family circuit breakers.
//!
//! A breaker watches the stream of job outcomes for one sensor family
//! (the catalog-id prefix before `/`) and cuts the family off when it
//! fails persistently, so a poisoned chemistry cannot keep burning
//! worker budget that healthy families need. The state machine is the
//! classic three-state breaker, driven entirely by logical ticks:
//!
//! ```text
//! Closed --trip_after consecutive failures--> Open
//! Open   --cooldown_ticks elapsed----------> HalfOpen
//! HalfOpen --probe_quota probe successes---> Closed
//! HalfOpen --any probe failure-------------> Open   (counts as a trip)
//! ```
//!
//! Every transition is a pure function of (config, outcome sequence,
//! tick), so breaker decisions are byte-identical across worker counts.

/// Tuning for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive breaker-relevant failures that trip Closed → Open.
    pub trip_after: u32,
    /// Logical ticks an Open breaker waits before probing.
    pub cooldown_ticks: u64,
    /// Probe successes required to close from HalfOpen; also the cap
    /// on probes in flight at once.
    pub probe_quota: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown_ticks: 8,
            probe_quota: 2,
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: all requests pass.
    Closed,
    /// Tripped: all requests rejected until the cooldown elapses.
    Open,
    /// Cooling down: a bounded number of probes pass to test recovery.
    HalfOpen,
}

/// The breaker's verdict on one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Pass: the family is healthy.
    Admit,
    /// Pass as a recovery probe: the result must be reported back with
    /// `probe = true`.
    Probe,
    /// Reject: the family is cut off (or its probe quota is in use).
    Reject,
}

/// A three-state circuit breaker for one sensor family.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_tick: u64,
    probes_in_flight: u32,
    probe_successes: u32,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    #[must_use]
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config: BreakerConfig {
                trip_after: config.trip_after.max(1),
                cooldown_ticks: config.cooldown_ticks,
                probe_quota: config.probe_quota.max(1),
            },
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_tick: 0,
            probes_in_flight: 0,
            probe_successes: 0,
        }
    }

    /// Decides whether a request arriving at `tick` passes.
    pub fn admit(&mut self, tick: u64) -> Admission {
        if self.state == BreakerState::Open
            && tick.saturating_sub(self.opened_tick) >= self.config.cooldown_ticks
        {
            self.state = BreakerState::HalfOpen;
            self.probes_in_flight = 0;
            self.probe_successes = 0;
        }
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => Admission::Reject,
            BreakerState::HalfOpen => {
                if self.probes_in_flight + self.probe_successes < self.config.probe_quota {
                    self.probes_in_flight += 1;
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
        }
    }

    /// Releases a probe slot for a probe that was admitted but never
    /// executed (e.g. shed at dispatch for deadline exhaustion), so an
    /// abandoned probe cannot wedge the breaker half-open forever.
    pub fn cancel_probe(&mut self) {
        self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
    }

    /// Feeds one completed job outcome back. `probe` is whether that
    /// job was admitted via [`Admission::Probe`]. Returns `true` when
    /// this outcome trips the breaker open (from Closed or HalfOpen).
    pub fn on_result(&mut self, ok: bool, probe: bool, tick: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                    false
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.trip_after {
                        self.trip(tick);
                        true
                    } else {
                        false
                    }
                }
            }
            BreakerState::HalfOpen => {
                if !probe {
                    // A straggler dispatched before the trip; it says
                    // nothing about recovery, so it moves no state.
                    return false;
                }
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                if ok {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.probe_quota {
                        self.state = BreakerState::Closed;
                        self.consecutive_failures = 0;
                        self.probe_successes = 0;
                    }
                    false
                } else {
                    self.trip(tick);
                    true
                }
            }
            // Stragglers finishing while Open are already accounted
            // for by the trip that opened the breaker.
            BreakerState::Open => false,
        }
    }

    fn trip(&mut self, tick: u64) {
        self.state = BreakerState::Open;
        self.opened_tick = tick;
        self.consecutive_failures = 0;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BreakerConfig {
        BreakerConfig {
            trip_after: 2,
            cooldown_ticks: 4,
            probe_quota: 1,
        }
    }

    #[test]
    fn trips_only_on_consecutive_failures() {
        let mut b = CircuitBreaker::new(quick());
        assert!(!b.on_result(false, false, 0));
        assert!(!b.on_result(true, false, 1), "success resets the streak");
        assert!(!b.on_result(false, false, 2));
        assert!(
            b.on_result(false, false, 3),
            "second consecutive failure trips"
        );
        assert_eq!(b.state, BreakerState::Open);
    }

    #[test]
    fn open_rejects_until_cooldown_then_probes() {
        let mut b = CircuitBreaker::new(quick());
        b.on_result(false, false, 0);
        b.on_result(false, false, 0);
        assert_eq!(b.admit(1), Admission::Reject);
        assert_eq!(b.admit(3), Admission::Reject);
        assert_eq!(b.admit(4), Admission::Probe, "cooldown elapsed at tick 4");
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.admit(4), Admission::Reject, "probe quota is 1");
    }

    #[test]
    fn probe_success_closes_and_probe_failure_reopens() {
        let mut recovered = CircuitBreaker::new(quick());
        recovered.on_result(false, false, 0);
        recovered.on_result(false, false, 0);
        assert_eq!(recovered.admit(10), Admission::Probe);
        assert!(!recovered.on_result(true, true, 11));
        assert_eq!(recovered.state, BreakerState::Closed);

        let mut relapsed = CircuitBreaker::new(quick());
        relapsed.on_result(false, false, 0);
        relapsed.on_result(false, false, 0);
        assert_eq!(relapsed.admit(10), Admission::Probe);
        assert!(
            relapsed.on_result(false, true, 11),
            "probe failure is a trip"
        );
        assert_eq!(relapsed.state, BreakerState::Open);
        assert_eq!(relapsed.admit(12), Admission::Reject, "cooldown restarts");
        assert_eq!(relapsed.admit(15), Admission::Probe);
    }

    #[test]
    fn stragglers_move_no_state_while_open_or_half_open() {
        let mut b = CircuitBreaker::new(quick());
        b.on_result(false, false, 0);
        b.on_result(false, false, 0);
        assert!(!b.on_result(false, false, 1), "straggler while open");
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.admit(4), Admission::Probe);
        assert!(!b.on_result(false, false, 5), "straggler while half-open");
        assert_eq!(b.state, BreakerState::HalfOpen);
    }

    #[test]
    fn cancelled_probe_frees_the_quota() {
        let mut b = CircuitBreaker::new(quick());
        b.on_result(false, false, 0);
        b.on_result(false, false, 0);
        assert_eq!(b.admit(4), Admission::Probe);
        assert_eq!(b.admit(4), Admission::Reject);
        b.cancel_probe();
        assert_eq!(b.admit(4), Admission::Probe, "slot reopened after cancel");
    }

    #[test]
    fn degenerate_config_is_clamped_sane() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after: 0,
            cooldown_ticks: 0,
            probe_quota: 0,
        });
        assert!(b.on_result(false, false, 0), "trip_after clamps to 1");
        assert_eq!(b.admit(0), Admission::Probe, "zero cooldown probes at once");
        assert!(!b.on_result(true, true, 0), "probe_quota clamps to 1");
        assert_eq!(b.state, BreakerState::Closed);
    }

    // The breaker state space is small enough to enumerate outright:
    // every ok/fail outcome sequence of length 10 (2^10 = 1024 traces)
    // is driven through a breaker with a tight config, checking
    // structural invariants after every step.

    /// Drives one ok/fail trace through a breaker, interleaving admission
    /// probes, and checks invariants at every step.
    fn drive_trace(trace_bits: u32, len: u32, config: BreakerConfig) {
        let mut b = CircuitBreaker::new(config);
        let mut tick = 0u64;
        let mut probe_pending = 0u32;
        for step in 0..len {
            tick += 1;
            // Interleave an admission attempt before each outcome so the
            // Open → HalfOpen transition is exercised mid-trace.
            let admission = b.admit(tick);
            match admission {
                Admission::Probe => {
                    probe_pending += 1;
                    assert_ne!(
                        b.state,
                        BreakerState::Closed,
                        "probes only issue from a half-open breaker"
                    );
                }
                Admission::Admit => {
                    assert_eq!(
                        b.state,
                        BreakerState::Closed,
                        "plain admits only when closed"
                    );
                }
                Admission::Reject => {
                    assert_ne!(
                        b.state,
                        BreakerState::Closed,
                        "a closed breaker never rejects"
                    );
                }
            }
            let ok = (trace_bits >> step) & 1 == 1;
            let as_probe = probe_pending > 0;
            if as_probe {
                probe_pending -= 1;
            }
            let tripped = b.on_result(ok, as_probe, tick);
            if tripped {
                assert_eq!(b.state, BreakerState::Open, "a trip always lands Open");
                assert!(!ok, "a success can never trip the breaker");
            }
            if ok && b.state == BreakerState::Open {
                // The only way a success leaves the breaker open is as a
                // straggler that arrived while already open.
                assert!(!tripped);
            }
        }
    }

    #[test]
    fn breaker_invariants_hold_on_every_length_10_trace() {
        let config = BreakerConfig {
            trip_after: 2,
            cooldown_ticks: 3,
            probe_quota: 2,
        };
        for trace in 0u32..(1 << 10) {
            drive_trace(trace, 10, config);
        }
    }

    #[test]
    fn breaker_closed_to_open_needs_exactly_trip_after_consecutive_failures() {
        for trip_after in 1u32..=4 {
            let config = BreakerConfig {
                trip_after,
                cooldown_ticks: 100,
                probe_quota: 1,
            };
            let mut b = CircuitBreaker::new(config);
            for i in 0..trip_after - 1 {
                assert!(!b.on_result(false, false, u64::from(i)));
                assert_eq!(b.state, BreakerState::Closed);
            }
            // One success resets the whole streak…
            assert!(!b.on_result(true, false, 10));
            for i in 0..trip_after - 1 {
                assert!(!b.on_result(false, false, 11 + u64::from(i)));
            }
            assert_eq!(b.state, BreakerState::Closed, "streak reset by the success");
            // …and only an unbroken streak of `trip_after` trips.
            assert!(b.on_result(false, false, 20));
            assert_eq!(b.state, BreakerState::Open);
        }
    }

    #[test]
    fn breaker_full_recovery_cycle_closed_open_half_open_closed() {
        let config = BreakerConfig {
            trip_after: 3,
            cooldown_ticks: 5,
            probe_quota: 2,
        };
        let mut b = CircuitBreaker::new(config);
        assert_eq!(b.state, BreakerState::Closed);
        for t in 0..3 {
            b.on_result(false, false, t);
        }
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.admit(6), Admission::Reject, "cooldown not yet elapsed");
        assert_eq!(
            b.admit(7),
            Admission::Probe,
            "cooldown elapsed (5 ticks after trip at 2)"
        );
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.admit(7), Admission::Probe, "quota of 2");
        assert_eq!(b.admit(7), Admission::Reject, "quota exhausted");
        assert!(!b.on_result(true, true, 8));
        assert_eq!(b.state, BreakerState::HalfOpen, "one success is not enough");
        assert!(!b.on_result(true, true, 9));
        assert_eq!(b.state, BreakerState::Closed, "quota met closes the loop");
    }
}
