//! Incremental admission sessions: the gateway's tick loop exposed as
//! an open-ended `offer` / `advance_to` / `finish` surface, so a
//! streaming caller (the `bios-stream` engine) can interleave request
//! submission with its own per-tick simulation instead of assembling
//! the whole arrival trace up front.
//!
//! [`crate::Gateway::run`] is a thin wrapper over this module: it
//! offers the full trace and drives the session to drain. Both paths
//! therefore share one admission/breaker/brownout implementation, and
//! the batch digests pin the session's semantics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bios_core::catalog::CatalogEntry;
use bios_faults::FaultPlan;
use bios_quorum::{QuorumScreen, QuorumSummary};
use bios_runtime::{Counter, JobResult, JobStream, Runtime};

use crate::breaker::{Admission, CircuitBreaker};
use crate::bucket::TokenBucket;
use crate::degrade::Quality;
use crate::{
    breaker_verdict, Disposition, Gateway, GatewayCounters, GatewayReport, Rejected, Request,
    RequestOutcome,
};

/// A job the session has dispatched whose logical service time has not
/// yet elapsed. The runtime result is fetched by `ticket` when
/// `done_tick` passes; no admission decision ever reads it earlier, so
/// pipelined physical execution cannot leak into logical ordering.
#[derive(Debug)]
struct InFlight {
    idx: usize,
    dispatched_tick: u64,
    done_tick: u64,
    probe: bool,
    quality: Quality,
    ticket: u64,
}

/// An open admission session over a [`Gateway`].
///
/// Requests are [`GatewaySession::offer`]ed at any time before their
/// arrival tick is processed; [`GatewaySession::advance_to`] runs the
/// deterministic tick loop (completions → arrivals → dispatch) up to
/// and including a tick and returns the outcomes that became terminal;
/// [`GatewaySession::finish`] drains everything still queued or in
/// flight and renders the final [`GatewayReport`] in offer order.
///
/// Jobs dispatch onto the runtime's worker pool immediately through a
/// [`JobStream`] and *complete* — logically — when their service ticks
/// elapse. Every admission, brownout, shed, and breaker decision is a
/// pure function of (config, offered requests, tick), so a session
/// produces byte-identical digests at any worker count.
#[derive(Debug)]
pub struct GatewaySession<'g> {
    gateway: &'g Gateway,
    stream: JobStream<'g>,
    /// Every offered request, in offer order (= report order).
    requests: Vec<Request>,
    /// Terminal disposition per request, filled as ticks pass.
    outcomes: Vec<Option<Disposition>>,
    counters: GatewayCounters,
    /// Indices of offered-but-unprocessed requests, sorted stably by
    /// arrival tick (ties keep offer order).
    pending: Vec<usize>,
    buckets: BTreeMap<String, TokenBucket>,
    breakers: BTreeMap<String, CircuitBreaker>,
    probes: BTreeSet<usize>,
    /// Admitted routine work awaiting a service slot.
    routine: VecDeque<usize>,
    /// Admitted recalibration-class work; drained before `routine`.
    recal: VecDeque<usize>,
    running: Vec<InFlight>,
    /// Completions fetched from the stream ahead of their logical tick.
    results: BTreeMap<u64, JobResult>,
    /// Last tick the loop processed; events never run earlier.
    last_tick: Option<u64>,
    drained_tick: Option<u64>,
    /// Fault plan applied to every job this session dispatches — the
    /// per-tenant chaos seam `bios-shard` arms (see
    /// [`GatewaySession::set_fault_plan`]).
    plan: Option<FaultPlan>,
    /// Runtime whose worker pool physically executes the next
    /// dispatches; `None` means the session's own gateway runtime (see
    /// [`GatewaySession::set_execution_host`]).
    host: Option<&'g Runtime>,
    /// Optional redundancy screen (the `bios-quorum` seam): covered
    /// completions are re-polled across replica lanes and voted before
    /// the result stands (see [`GatewaySession::set_quorum`]).
    quorum: Option<QuorumScreen>,
}

impl<'g> GatewaySession<'g> {
    pub(crate) fn new(gateway: &'g Gateway) -> GatewaySession<'g> {
        GatewaySession {
            gateway,
            stream: gateway.runtime().open_stream(),
            requests: Vec::new(),
            outcomes: Vec::new(),
            counters: GatewayCounters::default(),
            pending: Vec::new(),
            buckets: BTreeMap::new(),
            breakers: BTreeMap::new(),
            probes: BTreeSet::new(),
            routine: VecDeque::new(),
            recal: VecDeque::new(),
            running: Vec::new(),
            results: BTreeMap::new(),
            last_tick: None,
            drained_tick: None,
            plan: None,
            host: None,
            quorum: None,
        }
    }

    /// Arms a fault plan on every job this session dispatches from now
    /// on — the per-tenant chaos seam: `bios-shard` arms one tenant's
    /// plan on that tenant's session only, so a neighbor's session
    /// (its own breakers, buckets, queues, and counters) never sees it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// Routes the *physical* execution of subsequent dispatches onto
    /// `host`'s worker pool (or back to the session's own gateway
    /// runtime with `None`) — the work-stealing/redistribution seam.
    /// Accounting never moves: jobs are still billed to, memoized in,
    /// and collected from the home runtime
    /// (see [`JobStream::submit_on`]), and because job outcomes are
    /// pure functions of `(entry, seed, plan)` the digest is
    /// host-independent.
    pub fn set_execution_host(&mut self, host: Option<&'g Runtime>) {
        self.host = host;
    }

    /// Arms (or disarms) the redundancy screen on this session's
    /// completions. Every recalibration-class completion and a sampled
    /// fraction of routine ones is re-polled across replica lanes and
    /// majority-voted before the result stands; disagreements, catches,
    /// and quarantines are metered on the home runtime's registry. The
    /// vote validates the already-committed value, so arming a screen
    /// never changes a digest — only what is observed about it.
    pub fn set_quorum(&mut self, screen: Option<QuorumScreen>) {
        self.quorum = screen;
    }

    /// Totals accumulated by the armed quorum screen, if any.
    pub fn quorum_summary(&self) -> Option<QuorumSummary> {
        self.quorum.as_ref().map(QuorumScreen::summary)
    }

    /// The armed quorum screen, if any (scoreboard inspection).
    pub fn quorum(&self) -> Option<&QuorumScreen> {
        self.quorum.as_ref()
    }

    /// Offers one request to the session. A request whose arrival tick
    /// has already been processed is clamped forward to the next
    /// unprocessed tick — arrivals never land in the past.
    pub fn offer(&mut self, mut request: Request) {
        if let Some(last) = self.last_tick {
            request.arrival_tick = request.arrival_tick.max(last + 1);
        }
        let idx = self.requests.len();
        let at = request.arrival_tick;
        // Stable insert: after every pending request arriving at or
        // before `at`, so ties keep offer order.
        let pos = self
            .pending
            .partition_point(|&i| self.requests[i].arrival_tick <= at);
        self.pending.insert(pos, idx);
        self.requests.push(request);
        self.outcomes.push(None);
    }

    /// Requests offered so far.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.requests.len()
    }

    /// Requests not yet terminal (pending arrival, queued, or in
    /// flight).
    #[must_use]
    pub fn open(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// The session's counters so far.
    #[must_use]
    pub fn counters(&self) -> GatewayCounters {
        self.counters
    }

    /// The next tick at which anything can happen — the earliest of
    /// the next pending arrival, the next in-flight completion, and
    /// (when admitted work waits for a slot) the tick after the last
    /// processed one. `None` when the session is fully drained.
    #[must_use]
    pub fn next_event_tick(&self) -> Option<u64> {
        let floor = self.last_tick.map_or(0, |t| t.saturating_add(1));
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            let t = t.max(floor);
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if let Some(&idx) = self.pending.first() {
            consider(self.requests[idx].arrival_tick);
        }
        if let Some(done) = self.running.iter().map(|r| r.done_tick).min() {
            consider(done);
        }
        if !self.routine.is_empty() || !self.recal.is_empty() {
            consider(floor);
        }
        next
    }

    /// Processes every event tick up to and including `tick`, in
    /// order, and returns the outcomes that became terminal, in
    /// deterministic processing order (completions of a tick before
    /// its rejections, ticks ascending).
    pub fn advance_to(&mut self, tick: u64) -> Vec<RequestOutcome> {
        let mut terminal = Vec::new();
        while let Some(event) = self.next_event_tick() {
            if event > tick {
                break;
            }
            self.process_tick(event, &mut terminal);
        }
        terminal
    }

    /// Drains the session — every offered request reaches a terminal
    /// outcome — and renders the report in offer order.
    #[must_use]
    pub fn finish(mut self) -> GatewayReport {
        let mut sink = Vec::new();
        while let Some(event) = self.next_event_tick() {
            self.process_tick(event, &mut sink);
        }
        let outcomes = self
            .requests
            .iter()
            .zip(&self.outcomes)
            .map(|(req, slot)| {
                RequestOutcome {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    sensor: req.entry.id().to_string(),
                    seed: req.seed,
                    arrival_tick: req.arrival_tick,
                    priority: req.priority,
                    // Every request is terminal by construction: offers
                    // either reject or enqueue, and the drain loop only
                    // stops once queues and the running set are empty.
                    disposition: slot
                        .clone()
                        .unwrap_or(Disposition::Rejected(Rejected::QueueFull)),
                }
            })
            .collect();
        GatewayReport {
            outcomes,
            drained_tick: self.drained_tick.unwrap_or(0),
            counters: self.counters,
        }
    }

    /// One tick of the deterministic loop: completions due at this
    /// tick feed the breakers, arrivals are admitted or rejected, and
    /// free service slots dispatch queued work (recalibration class
    /// first).
    fn process_tick(&mut self, tick: u64, terminal: &mut Vec<RequestOutcome>) {
        let metrics = self.gateway.runtime().metrics_handle();
        let config = self.gateway.config();
        self.last_tick = Some(tick);
        if self.drained_tick.is_none() {
            self.drained_tick = Some(tick);
        }

        // 1. Completions due at this tick, in (done tick, dispatch
        // tick, offer position) order, feed the breakers.
        let mut due: Vec<InFlight> = Vec::new();
        let mut still: Vec<InFlight> = Vec::new();
        for r in self.running.drain(..) {
            if r.done_tick <= tick {
                due.push(r);
            } else {
                still.push(r);
            }
        }
        self.running = still;
        due.sort_by_key(|r| (r.done_tick, r.dispatched_tick, r.idx));
        for fin in due {
            let result = self.take_result(fin.ticket);
            let family = self.requests[fin.idx].family().to_owned();
            let breaker = self
                .breakers
                .entry(family)
                .or_insert_with(|| CircuitBreaker::new(config.breaker));
            match breaker_verdict(&result) {
                Some(ok) if breaker.on_result(ok, fin.probe, tick) => {
                    self.counters.breaker_trips += 1;
                    metrics.add(Counter::BreakerTrips, 1);
                }
                Some(_) => {}
                None if fin.probe => breaker.cancel_probe(),
                None => {}
            }
            if let Some(screen) = self.quorum.as_mut() {
                let critical = self.requests[fin.idx].is_recalibration();
                if let Some(verdict) = screen.screen_result(self.plan.as_ref(), &result, critical) {
                    bios_quorum::meter(&verdict, &metrics);
                }
            }
            self.drained_tick = Some(
                self.drained_tick
                    .unwrap_or(fin.done_tick)
                    .max(fin.done_tick),
            );
            let disposition = Disposition::Executed {
                quality: fin.quality,
                dispatched_tick: fin.dispatched_tick,
                done_tick: fin.done_tick,
                result,
            };
            self.outcomes[fin.idx] = Some(disposition);
            terminal.push(self.outcome_of(fin.idx));
        }

        // 2. Arrivals at this tick, in offer order: rate limit (waived
        // for the recalibration class), then queue capacity, then the
        // family breaker.
        let arriving = self
            .pending
            .partition_point(|&i| self.requests[i].arrival_tick <= tick);
        let arrived: Vec<usize> = self.pending.drain(..arriving).collect();
        for idx in arrived {
            let req = &self.requests[idx];
            if !req.is_recalibration() {
                let bucket = self.buckets.entry(req.tenant.clone()).or_insert_with(|| {
                    TokenBucket::new(
                        config.bucket_capacity_milli,
                        config.bucket_refill_milli_per_tick,
                    )
                });
                bucket.advance_to(tick);
                if !bucket.try_take(TokenBucket::WHOLE_TOKEN) {
                    self.counters.rate_limited += 1;
                    metrics.add(Counter::RateLimited, 1);
                    self.outcomes[idx] = Some(Disposition::Rejected(Rejected::RateLimited));
                    terminal.push(self.outcome_of(idx));
                    continue;
                }
            }
            let req = &self.requests[idx];
            if self.routine.len() + self.recal.len() >= config.queue_capacity.max(1) {
                self.counters.admission_rejected += 1;
                metrics.add(Counter::AdmissionRejected, 1);
                self.outcomes[idx] = Some(Disposition::Rejected(Rejected::QueueFull));
                terminal.push(self.outcome_of(idx));
                continue;
            }
            let breaker = self
                .breakers
                .entry(req.family().to_owned())
                .or_insert_with(|| CircuitBreaker::new(config.breaker));
            match breaker.admit(tick) {
                Admission::Reject => {
                    self.outcomes[idx] = Some(Disposition::Rejected(Rejected::BreakerOpen));
                    terminal.push(self.outcome_of(idx));
                    continue;
                }
                Admission::Probe => {
                    self.counters.breaker_half_open_probes += 1;
                    metrics.add(Counter::BreakerHalfOpenProbes, 1);
                    self.probes.insert(idx);
                }
                Admission::Admit => {}
            }
            if self.requests[idx].is_recalibration() {
                self.recal.push_back(idx);
            } else {
                self.routine.push_back(idx);
            }
        }

        // 3. Dispatch into free slots, recalibration class first:
        // charge queueing time against the deadline budget, brown out
        // routine work under pressure (recalibrations never degrade),
        // shed what cannot finish in budget. Jobs go to the worker
        // pool immediately; their results are not read before their
        // done tick.
        let slots = config.service_slots.max(1);
        while self.running.len() < slots {
            let (idx, is_recal) = match self.recal.pop_front() {
                Some(idx) => (idx, true),
                None => match self.routine.pop_front() {
                    Some(idx) => (idx, false),
                    None => break,
                },
            };
            let req = &self.requests[idx];
            let waited = tick.saturating_sub(req.arrival_tick);
            let remaining = req.deadline_ticks.saturating_sub(waited);
            let full_ticks = self.gateway.service_ticks(req.entry.calibration_workload());
            let fits_full = full_ticks <= remaining;
            let dispatch: Option<(CatalogEntry, Quality, u64)> = if is_recal {
                // A degraded sweep would corrupt the calibration epoch
                // it is meant to restore: full resolution or nothing.
                fits_full.then(|| (req.entry.clone(), Quality::Full, full_ticks))
            } else {
                let pressured = config
                    .degradation
                    .triggered(self.routine.len() + self.recal.len(), config.queue_capacity);
                if fits_full && !pressured {
                    Some((req.entry.clone(), Quality::Full, full_ticks))
                } else {
                    let thin = config.degradation.degrade(&req.entry);
                    let thin_ticks = self.gateway.service_ticks(thin.calibration_workload());
                    if thin_ticks <= remaining && thin_ticks < full_ticks {
                        self.counters.browned_out += 1;
                        metrics.add(Counter::BrownedOut, 1);
                        Some((thin, Quality::Degraded, thin_ticks))
                    } else if fits_full {
                        // Pressured, but degradation cannot shrink this
                        // entry: run it at full resolution anyway.
                        Some((req.entry.clone(), Quality::Full, full_ticks))
                    } else {
                        None
                    }
                }
            };
            match dispatch {
                Some((entry, quality, serv)) => {
                    let seed = self.requests[idx].seed;
                    let host = self.host.unwrap_or_else(|| self.gateway.runtime());
                    let ticket = self
                        .stream
                        .submit_on(host, &entry, seed, self.plan.as_ref());
                    self.running.push(InFlight {
                        idx,
                        dispatched_tick: tick,
                        done_tick: tick + serv,
                        probe: self.probes.remove(&idx),
                        quality,
                        ticket,
                    });
                }
                None => {
                    self.counters.deadline_shed += 1;
                    metrics.add(Counter::DeadlineShed, 1);
                    if self.probes.remove(&idx) {
                        let family = self.requests[idx].family().to_owned();
                        if let Some(b) = self.breakers.get_mut(&family) {
                            b.cancel_probe();
                        }
                    }
                    self.outcomes[idx] = Some(Disposition::Rejected(Rejected::DeadlineShed));
                    terminal.push(self.outcome_of(idx));
                }
            }
        }
    }

    /// Blocks until the runtime result for `ticket` is available.
    /// Results arriving out of order are parked for their own tick.
    fn take_result(&mut self, ticket: u64) -> JobResult {
        loop {
            if let Some(result) = self.results.remove(&ticket) {
                return result;
            }
            match self.stream.recv() {
                Some((t, result)) => {
                    self.results.insert(t, result);
                }
                None => {
                    // Unreachable in practice: every dispatched ticket
                    // is outstanding until received, and a lost worker
                    // surfaces as a synthesized failure, not a closed
                    // stream. Degrade to an explicit loss regardless.
                    let req = &self.requests;
                    let (sensor, seed) = self
                        .running
                        .iter()
                        .find(|r| r.ticket == ticket)
                        .map_or_else(
                            || (String::from("unknown"), 0),
                            |r| (req[r.idx].entry.id().to_owned(), req[r.idx].seed),
                        );
                    return JobResult {
                        index: ticket as usize,
                        sensor,
                        seed,
                        wall: std::time::Duration::ZERO,
                        from_cache: false,
                        attempts: 0,
                        injected: bios_faults::FaultTally::default(),
                        outcome: Err(bios_runtime::JobError::Panicked("stream closed".into())),
                        integrity: 0,
                    }
                    .sealed();
                }
            }
        }
    }

    /// Renders the terminal [`RequestOutcome`] for an index whose
    /// disposition slot has just been filled.
    fn outcome_of(&self, idx: usize) -> RequestOutcome {
        let req = &self.requests[idx];
        RequestOutcome {
            id: req.id,
            tenant: req.tenant.clone(),
            sensor: req.entry.id().to_string(),
            seed: req.seed,
            arrival_tick: req.arrival_tick,
            priority: req.priority,
            disposition: self.outcomes[idx]
                .clone()
                .unwrap_or(Disposition::Rejected(Rejected::QueueFull)),
        }
    }
}
