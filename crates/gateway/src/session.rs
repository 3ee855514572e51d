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
use bios_runtime::{Counter, JobResult, JobStream};

use crate::breaker::{Admission, CircuitBreaker};
use crate::bucket::TokenBucket;
use crate::degrade::{DegradationPolicy, Quality};
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
    /// The host index the job was dispatched under (see
    /// [`GatewaySession::set_execution_host`]).
    host: usize,
}

/// A request's bucket, breaker and entry slots, interned at offer so
/// the tick loop never hashes, compares or clones a string.
#[derive(Debug, Clone, Copy)]
struct Keys {
    tenant: usize,
    family: usize,
    entry: usize,
}

/// What the session derives once per distinct catalog entry.
#[derive(Debug)]
struct EntryTicks {
    /// Service ticks at full resolution.
    full: u64,
    /// The degraded twin and its service ticks, built the first time
    /// one of the entry's requests is a brownout candidate.
    thin: Option<(CatalogEntry, u64)>,
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
    /// Interned slots per request, in offer order.
    keys: Vec<Keys>,
    /// Terminal disposition per request, filled as ticks pass.
    outcomes: Vec<Option<Disposition>>,
    counters: GatewayCounters,
    /// Indices of offered-but-unprocessed requests, sorted stably by
    /// arrival tick (ties keep offer order).
    pending: VecDeque<usize>,
    /// Tenant → slot in `buckets`.
    tenants: BTreeMap<String, usize>,
    buckets: Vec<TokenBucket>,
    /// Sensor family → slot in `breakers`.
    families: BTreeMap<String, usize>,
    breakers: Vec<CircuitBreaker>,
    /// Entry protocol fingerprint → slot in `entry_ticks`.
    entries: BTreeMap<u64, usize>,
    entry_ticks: Vec<EntryTicks>,
    probes: BTreeSet<usize>,
    /// Admitted routine work awaiting a service slot.
    routine: VecDeque<usize>,
    /// Admitted recalibration-class work; drained before `routine`.
    recal: VecDeque<usize>,
    running: Vec<InFlight>,
    /// Scratch for the completions of one tick, kept to reuse its
    /// allocation.
    due: Vec<InFlight>,
    /// Completions fetched from the stream ahead of their logical tick.
    results: BTreeMap<u64, JobResult>,
    /// Last tick the loop processed; events never run earlier.
    last_tick: Option<u64>,
    drained_tick: Option<u64>,
    /// Fault plan applied to every job this session dispatches — the
    /// per-tenant chaos seam `bios-shard` arms (see
    /// [`GatewaySession::set_fault_plan`]).
    plan: Option<FaultPlan>,
    /// Host index the next dispatches are tagged with (see
    /// [`GatewaySession::set_execution_host`]).
    host: usize,
}

impl<'g> GatewaySession<'g> {
    pub(crate) fn new(gateway: &'g Gateway) -> GatewaySession<'g> {
        GatewaySession {
            gateway,
            stream: gateway.runtime().open_stream(),
            requests: Vec::new(),
            keys: Vec::new(),
            outcomes: Vec::new(),
            counters: GatewayCounters::default(),
            pending: VecDeque::new(),
            tenants: BTreeMap::new(),
            buckets: Vec::new(),
            families: BTreeMap::new(),
            breakers: Vec::new(),
            entries: BTreeMap::new(),
            entry_ticks: Vec::new(),
            probes: BTreeSet::new(),
            routine: VecDeque::new(),
            recal: VecDeque::new(),
            running: Vec::new(),
            due: Vec::new(),
            results: BTreeMap::new(),
            last_tick: None,
            drained_tick: None,
            plan: None,
            host: 0,
        }
    }

    /// Arms a fault plan on every job this session dispatches from now
    /// on — the per-tenant chaos seam: `bios-shard` arms one tenant's
    /// plan on that tenant's session only, so a neighbor's session
    /// (its own breakers, buckets, queues, and counters) never sees it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// Tags subsequent dispatches with `index`, the caller's logical
    /// placement for them (`bios-shard` passes the shard index; a
    /// fresh session tags 0). The tag is all that moves: jobs still
    /// run on, are billed to, memoized in and collected from the home
    /// runtime. [`GatewaySession::in_flight_load`] reads it back, and
    /// each executed outcome carries it as
    /// [`Disposition::Executed::host`]; no digest renders it.
    pub fn set_execution_host(&mut self, index: usize) {
        self.host = index;
    }

    /// The session's logical in-flight load: for every dispatched job
    /// whose done tick the session has not yet processed, its host's
    /// index (see [`GatewaySession::set_execution_host`]) and its
    /// service ticks. Read only from dispatch ticks, done ticks and
    /// host choices, so it is the same at any worker count.
    pub fn in_flight_load(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.running
            .iter()
            .map(|r| (r.host, r.done_tick - r.dispatched_tick))
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
        // A bucket or breaker is created on its key's first offer
        // rather than its first use; neither reads the tick until used,
        // so the two are the same state.
        let gateway = self.gateway;
        let config = gateway.config();
        let keys = Keys {
            tenant: intern(
                &mut self.tenants,
                &mut self.buckets,
                request.tenant.as_str(),
                || {
                    TokenBucket::new(
                        config.bucket_capacity_milli,
                        config.bucket_refill_milli_per_tick,
                    )
                },
            ),
            family: intern(
                &mut self.families,
                &mut self.breakers,
                request.family(),
                || CircuitBreaker::new(config.breaker),
            ),
            entry: intern(
                &mut self.entries,
                &mut self.entry_ticks,
                &request.entry.protocol_fingerprint(),
                || EntryTicks {
                    full: gateway.service_ticks(request.entry.calibration_workload()),
                    thin: None,
                },
            ),
        };
        self.keys.push(keys);
        self.requests.push(request);
        self.outcomes.push(None);
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
        if let Some(&idx) = self.pending.front() {
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
        let gateway = self.gateway;
        let metrics = gateway.runtime().metrics_handle();
        let config = gateway.config();
        self.last_tick = Some(tick);
        if self.drained_tick.is_none() {
            self.drained_tick = Some(tick);
        }

        // 1. Completions due at this tick, in (done tick, dispatch
        // tick, offer position) order, feed the breakers. The order of
        // `running` itself is never read.
        let mut due = std::mem::take(&mut self.due);
        let mut k = 0;
        while k < self.running.len() {
            if self.running[k].done_tick <= tick {
                due.push(self.running.swap_remove(k));
            } else {
                k += 1;
            }
        }
        due.sort_unstable_by_key(|r| (r.done_tick, r.dispatched_tick, r.idx));
        for fin in due.drain(..) {
            let result = self.take_result(&fin);
            let breaker = &mut self.breakers[self.keys[fin.idx].family];
            match breaker_verdict(&result) {
                Some(ok) if breaker.on_result(ok, fin.probe, tick) => {
                    self.counters.breaker_trips += 1;
                    metrics.add(Counter::BreakerTrips, 1);
                }
                Some(_) => {}
                None if fin.probe => breaker.cancel_probe(),
                None => {}
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
                host: fin.host,
                result,
            };
            self.settle(fin.idx, disposition, terminal);
        }
        self.due = due;

        // 2. Arrivals at this tick, in offer order: rate limit (waived
        // for the recalibration class), then queue capacity, then the
        // family breaker.
        while let Some(&idx) = self.pending.front() {
            if self.requests[idx].arrival_tick > tick {
                break;
            }
            self.pending.pop_front();
            let keys = self.keys[idx];
            if !self.requests[idx].is_recalibration() {
                let bucket = &mut self.buckets[keys.tenant];
                bucket.advance_to(tick);
                if !bucket.try_take(TokenBucket::WHOLE_TOKEN) {
                    self.counters.rate_limited += 1;
                    metrics.add(Counter::RateLimited, 1);
                    self.settle(idx, Disposition::Rejected(Rejected::RateLimited), terminal);
                    continue;
                }
            }
            if self.routine.len() + self.recal.len() >= config.queue_capacity.max(1) {
                self.counters.admission_rejected += 1;
                metrics.add(Counter::AdmissionRejected, 1);
                self.settle(idx, Disposition::Rejected(Rejected::QueueFull), terminal);
                continue;
            }
            match self.breakers[keys.family].admit(tick) {
                Admission::Reject => {
                    self.settle(idx, Disposition::Rejected(Rejected::BreakerOpen), terminal);
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
            let keys = self.keys[idx];
            let waited = tick.saturating_sub(req.arrival_tick);
            let remaining = req.deadline_ticks.saturating_sub(waited);
            let ticks = &mut self.entry_ticks[keys.entry];
            let full_ticks = ticks.full;
            let fits_full = full_ticks <= remaining;
            let dispatch: Option<(Quality, u64)> = if is_recal {
                // A degraded sweep would corrupt the calibration epoch
                // it is meant to restore: full resolution or nothing.
                fits_full.then_some((Quality::Full, full_ticks))
            } else {
                let pressured = DegradationPolicy::triggered(
                    self.routine.len() + self.recal.len(),
                    config.queue_capacity,
                );
                if fits_full && !pressured {
                    Some((Quality::Full, full_ticks))
                } else {
                    let (_, thin_ticks) = ticks.thin.get_or_insert_with(|| {
                        let thin = DegradationPolicy::default().degrade(&req.entry);
                        let thin_ticks = gateway.service_ticks(thin.calibration_workload());
                        (thin, thin_ticks)
                    });
                    let thin_ticks = *thin_ticks;
                    if thin_ticks <= remaining && thin_ticks < full_ticks {
                        self.counters.browned_out += 1;
                        metrics.add(Counter::BrownedOut, 1);
                        Some((Quality::Degraded, thin_ticks))
                    } else if fits_full {
                        // Pressured, but degradation cannot shrink this
                        // entry: run it at full resolution anyway.
                        Some((Quality::Full, full_ticks))
                    } else {
                        None
                    }
                }
            };
            match dispatch {
                Some((quality, serv)) => {
                    let entry = match (quality, &self.entry_ticks[keys.entry].thin) {
                        (Quality::Degraded, Some((thin, _))) => thin,
                        _ => &req.entry,
                    };
                    let ticket = self.stream.submit(entry, req.seed, self.plan.as_ref());
                    self.running.push(InFlight {
                        idx,
                        dispatched_tick: tick,
                        done_tick: tick + serv,
                        probe: self.probes.remove(&idx),
                        quality,
                        ticket,
                        host: self.host,
                    });
                }
                None => {
                    self.counters.deadline_shed += 1;
                    metrics.add(Counter::DeadlineShed, 1);
                    if self.probes.remove(&idx) {
                        self.breakers[keys.family].cancel_probe();
                    }
                    self.settle(idx, Disposition::Rejected(Rejected::DeadlineShed), terminal);
                }
            }
        }
    }

    /// Blocks until the runtime result for `fin` is available.
    /// Results arriving out of order are parked for their own tick.
    fn take_result(&mut self, fin: &InFlight) -> JobResult {
        loop {
            if let Some(result) = self.results.remove(&fin.ticket) {
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
                    let req = &self.requests[fin.idx];
                    return JobResult {
                        index: fin.ticket as usize,
                        sensor: req.entry.id().to_owned(),
                        seed: req.seed,
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

    /// Fills request `idx`'s terminal disposition and reports it.
    fn settle(&mut self, idx: usize, disposition: Disposition, terminal: &mut Vec<RequestOutcome>) {
        self.outcomes[idx] = Some(disposition);
        terminal.push(self.outcome_of(idx));
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

/// The slot of `key` in `map`; a new key gets the next slot, and
/// `make()` fills it in `slots`.
fn intern<Q, T>(
    map: &mut BTreeMap<Q::Owned, usize>,
    slots: &mut Vec<T>,
    key: &Q,
    make: impl FnOnce() -> T,
) -> usize
where
    Q: Ord + ToOwned + ?Sized,
    Q::Owned: Ord + std::borrow::Borrow<Q>,
{
    if let Some(&slot) = map.get(key) {
        return slot;
    }
    let slot = slots.len();
    map.insert(key.to_owned(), slot);
    slots.push(make());
    slot
}
