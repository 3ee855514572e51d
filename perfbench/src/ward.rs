//! `ward-serving`: a multi-tenant hotspot/burst trace through
//! `ShardedGateway::run_with` at 2 shards × 1 worker with the quorum
//! screen armed at its default sampling, and the traced per-tenant
//! session replay of the gateway, quorum and shard layers.

use std::collections::BTreeMap;
use std::time::Instant;

use bios_core::catalog::CatalogEntry;
use bios_gateway::{DegradationPolicy, Disposition, GatewayConfig, Quality, Request};
use bios_prng::Rng;
use bios_quorum::{QuorumConfig, QuorumScreen};
use bios_runtime::{Fleet, DEFAULT_CAPACITY};
use bios_shard::{home_shard, ShardChaos, ShardConfig, ShardedGateway, ShardedReport};

use crate::catalog::{self, JobSpec};
use crate::span::{SelfTime, Tracer};
use crate::stats::{mix, timed};
use crate::{repeated_setup, timed_passes, Check, Measured, Options, PassWork, Scale, Traced};

/// Shards in the workload's layout (one worker each).
const SHARDS: usize = 2;

/// Requests one hot tenant fires in a single tick: past the token
/// bucket's 8-token capacity, so rate limiting must refuse some.
const BURST: usize = 12;

struct Sizes {
    tenants: usize,
    hot: usize,
    horizon: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tenants: 8,
            hot: 2,
            horizon: 192,
        },
        Scale::Tiny => Sizes {
            tenants: 3,
            hot: 1,
            horizon: 40,
        },
    }
}

/// The layout: `shards` × 1 worker, gateway defaults.
#[must_use]
fn config(shards: usize) -> ShardConfig {
    ShardConfig::default()
        .with_shards(shards)
        .with_workers_per_shard(1)
}

/// The armed chaos: no faults, quorum screen at default sampling.
#[must_use]
fn chaos() -> ShardChaos {
    ShardChaos::none().with_quorum(QuorumConfig::default())
}

/// The ward trace for `seed`. Hot tenants — all homed on one shard —
/// fire a [`BURST`] and then three multi-tick calibrations per tick,
/// more than their bucket refills and their queue drains, so rate
/// limiting, brownouts and queue-full refusals fire, and their shard's
/// backlog outlives the other shard's, so it steals. Cold tenants, on
/// both shards, arrive every 3 ticks cycling through the catalog.
///
/// # Errors
///
/// A tenant set that leaves one shard empty (cannot steal).
fn requests(seed: u64, scale: Scale) -> Result<Vec<Request>, String> {
    let sizes = sizes(scale);
    let deadline = GatewayConfig::default().default_deadline_ticks;
    let all = catalog::entries();
    let slow: Vec<CatalogEntry> = all
        .iter()
        .filter(|e| e.calibration_workload() > GatewayConfig::default().work_units_per_tick)
        .cloned()
        .collect();
    let names: Vec<String> = (0..sizes.tenants).map(|t| format!("ward-{t:02}")).collect();
    let homed = |shard: usize| -> Vec<usize> {
        (0..names.len())
            .filter(|&t| home_shard(&names[t], SHARDS) == shard)
            .collect()
    };
    let (on_0, on_1) = (homed(0), homed(1));
    if on_0.is_empty() || on_1.is_empty() {
        return Err("ward tenants must span both shards".to_owned());
    }
    let mut rng = Rng::seed_from_u64(mix(seed, 0x3A7D));
    // The hot tenants come from the seed, always from the shard homing
    // the most tenants, so every seed loads the layout the same way.
    let mut hot_pool = if on_0.len() >= on_1.len() { on_0 } else { on_1 };
    let mut hot = Vec::new();
    while hot.len() < sizes.hot.min(hot_pool.len()) {
        let pick = (rng.next_u64() % hot_pool.len() as u64) as usize;
        hot.push(hot_pool.swap_remove(pick));
    }
    let mut out = Vec::new();
    let mut push = |tenant: &str, entry: &CatalogEntry, tick: u64, rng: &mut Rng| {
        let id = out.len() as u64;
        out.push(Request::new(
            id,
            tenant,
            entry.clone(),
            rng.next_u64() >> 8,
            tick,
            deadline,
        ));
    };
    for (t, name) in names.iter().enumerate() {
        if hot.contains(&t) {
            let burst_tick = rng.next_u64() % (sizes.horizon / 2);
            for tick in 0..sizes.horizon {
                let n = if tick == burst_tick { BURST } else { 3 };
                for _ in 0..n {
                    let entry = &slow[(rng.next_u64() % slow.len() as u64) as usize];
                    push(name, entry, tick, &mut rng);
                }
            }
        } else {
            let interval = 3;
            let mut tick = rng.next_u64() % interval;
            let mut k = t;
            while tick < sizes.horizon {
                push(name, &all[k % all.len()], tick, &mut rng);
                k += 1;
                tick += interval;
            }
        }
    }
    Ok(out)
}

/// Executed jobs with at least one error.
fn job_errors(report: &ShardedReport) -> u64 {
    report
        .outcomes
        .iter()
        .filter(|o| matches!(&o.disposition, Disposition::Executed { result, .. } if result.outcome.is_err()))
        .count() as u64
}

fn pass_work(trace: &[Request], report: &ShardedReport) -> PassWork {
    let executed = report.executed();
    PassWork {
        jobs: executed,
        requests: trace.len() as u64,
        job_errors: job_errors(report),
        refused: trace.len() as u64 - executed,
    }
}

/// Mechanism checks every ward run must pass.
fn mechanism_checks(report: &ShardedReport) -> Vec<Check> {
    let c = report.counters;
    let votes = report.quorum.map_or(0, |q| q.votes);
    let refusals = c.rate_limited + c.admission_rejected;
    vec![
        Check::new(
            "steals fire",
            report.steals() > 0,
            format!("{}", report.steals()),
        ),
        Check::new(
            "rate-limit or queue-full refusals fire",
            refusals > 0,
            format!(
                "{} rate-limited, {} queue-full",
                c.rate_limited, c.admission_rejected
            ),
        ),
        Check::new(
            "brownouts fire",
            c.browned_out > 0,
            format!("{}", c.browned_out),
        ),
        Check::new("quorum votes", votes > 0, format!("{votes}")),
    ]
}

/// The untraced `ward-serving` run.
///
/// # Errors
///
/// Trace generation failure.
pub fn measure(opts: &Options) -> Result<Measured, String> {
    let chaos = chaos();
    let (trace, setup_s) = repeated_setup(|| {
        let trace = requests(opts.seed, opts.scale)?;
        let warm_up = ShardedGateway::new(config(SHARDS)).run_with(&trace, &chaos);
        drop(warm_up);
        Ok(trace)
    })?;
    let mut last = None;
    let passes = timed_passes(opts.seconds, |_| {
        let gateway = ShardedGateway::new(config(SHARDS));
        let (report, wall) = timed(|| gateway.run_with(&trace, &chaos));
        let work = pass_work(&trace, &report);
        last = Some(report);
        Ok((wall, work))
    })?;
    let work = passes.total;
    let report = last.ok_or("no pass ran")?;
    let reference = ShardedGateway::new(config(1)).run_with(&trace, &chaos);
    let mut checks = vec![Check::new(
        "digest equals the 1 shard × 1 worker digest",
        report.digest() == reference.digest(),
        format!("0x{:016x}", report.digest_fnv()),
    )];
    checks.extend(mechanism_checks(&report));
    checks.push(Check::new(
        "no job errors",
        work.job_errors == 0,
        format!("{} errors", work.job_errors),
    ));
    Ok(Measured {
        setup_s,
        passes,
        pool: "2 shards x 1 worker",
        checks,
        extra: Vec::new(),
    })
}

/// The executed jobs of a ward run as a fleet, each with the entry it
/// actually ran (browned-out requests ran the degraded twin).
fn executed_fleet(trace: &[Request], report: &ShardedReport) -> (Fleet, String) {
    let policy = DegradationPolicy::default();
    let mut builder = Fleet::builder("ward-executed");
    let mut lines = String::new();
    for (request, outcome) in trace.iter().zip(&report.outcomes) {
        if let Disposition::Executed {
            quality, result, ..
        } = &outcome.disposition
        {
            let entry = match quality {
                Quality::Degraded => policy.degrade(&request.entry),
                Quality::Full => request.entry.clone(),
            };
            builder = builder.job(entry, request.seed);
            lines.push_str(&result.digest_line());
            lines.push('\n');
        }
    }
    (builder.build(), lines)
}

/// Per-tenant session replay of `trace` on `gateway`'s home shards,
/// one tenant at a time: `GatewaySession::offer` per request,
/// `advance_to` per event tick, and `QuorumScreen::screen_result` per
/// executed outcome. Returns each tenant's digest lines.
fn session_replay(
    t: &mut Tracer,
    gateway: &ShardedGateway,
    trace: &[Request],
) -> BTreeMap<String, String> {
    let mut by_tenant: BTreeMap<&str, Vec<&Request>> = BTreeMap::new();
    for r in trace {
        by_tenant.entry(r.tenant.as_str()).or_default().push(r);
    }
    let mut screen = QuorumScreen::new(QuorumConfig::default());
    let mut lines = BTreeMap::new();
    for (tenant, requests) in by_tenant {
        let Some(home) = gateway.gateway(home_shard(tenant, gateway.shards())) else {
            continue;
        };
        let mut session = home.session();
        for r in requests {
            t.span("gateway.offer", r.id, |_| session.offer(r.clone()));
        }
        while let Some(tick) = session.next_event_tick() {
            let outcomes = t.span("gateway.advance", tick, |_| session.advance_to(tick));
            for o in outcomes {
                if let Disposition::Executed { result, .. } = &o.disposition {
                    let critical = o.priority == bios_gateway::Priority::Recalibration;
                    t.span("quorum.screen", o.id, |_| {
                        screen.screen_result(None, result, critical)
                    });
                }
            }
        }
        let report = session.finish();
        let text: String = report
            .outcomes
            .iter()
            .map(|o| o.digest_line() + "\n")
            .collect();
        lines.insert(tenant.to_owned(), text);
    }
    lines
}

/// Gateway/quorum/shard-layer output of the ward replay.
struct GatewayTrace {
    times: BTreeMap<&'static str, SelfTime>,
    traced_s: f64,
    untraced_s: f64,
    run_with_s: f64,
    requests: u64,
    parity: bool,
}

/// Alternates, until `seconds` pass (at least once): an untraced
/// `run_with`, an untraced per-tenant session replay, and a traced one,
/// all on one 2 × 1 gateway whose caches already hold every job — so
/// `advance_to` is timed without the physics, and `run_with` minus the
/// replay is the shard layer's own cost. Per-tenant replay lines must
/// equal `run_with`'s.
fn trace_gateway(
    trace: &[Request],
    report: &ShardedReport,
    seconds: f64,
    tracer: &mut Tracer,
) -> GatewayTrace {
    let chaos = chaos();
    let warm = ShardedGateway::new(config(SHARDS));
    let _ = warm.run_with(trace, &chaos);
    let mut quiet = Tracer::new(false);
    let mut out = GatewayTrace {
        times: BTreeMap::new(),
        traced_s: 0.0,
        untraced_s: 0.0,
        run_with_s: 0.0,
        requests: 0,
        parity: true,
    };
    let started = Instant::now();
    let mut iterations = 0;
    while iterations == 0 || started.elapsed().as_secs_f64() < seconds {
        let (_, wall) = timed(|| warm.run_with(trace, &chaos));
        out.run_with_s += wall.as_secs_f64();
        out.requests += trace.len() as u64;
        let (_, wall) = timed(|| session_replay(&mut quiet, &warm, trace));
        out.untraced_s += wall.as_secs_f64();
        tracer.clear();
        let (lines, wall) = timed(|| session_replay(tracer, &warm, trace));
        out.traced_s += wall.as_secs_f64();
        tracer.fold_self_times(&mut out.times);
        out.parity &= lines
            .iter()
            .all(|(tenant, text)| *text == report.tenant_digest_lines(tenant));
        iterations += 1;
    }
    out
}

fn gateway_metrics(
    g: &GatewayTrace,
    report: &ShardedReport,
    source: &'static str,
) -> Vec<(&'static str, f64, &'static str, &'static str)> {
    let us = |name: &str| g.times.get(name).copied().unwrap_or_default().us_per_call();
    let c = report.counters;
    let q = report.quorum.unwrap_or_default();
    let ok_executed = report.executed() - job_errors(report);
    let completions: Vec<f64> = report
        .placement
        .iter()
        .map(|p| p.completions as f64)
        .collect();
    let mean = completions.iter().sum::<f64>() / completions.len().max(1) as f64;
    let max = completions.iter().copied().fold(0.0, f64::max);
    vec![
        ("gateway.offer_us", us("gateway.offer"), "us", source),
        (
            "gateway.advance_us_per_tick",
            us("gateway.advance"),
            "us",
            source,
        ),
        (
            "gateway.refusals",
            (c.rate_limited + c.admission_rejected + c.deadline_shed) as f64,
            "count",
            source,
        ),
        ("gateway.brownouts", c.browned_out as f64, "count", source),
        ("quorum.screen_us", us("quorum.screen"), "us", source),
        ("quorum.votes", q.votes as f64, "count", source),
        (
            "quorum.coverage",
            q.covered as f64 / ok_executed.max(1) as f64,
            "ratio",
            source,
        ),
        ("shard.steals", report.steals() as f64, "count", source),
        (
            "shard.redistributions",
            report
                .placement
                .iter()
                .map(|p| p.redistributions_in)
                .sum::<u64>() as f64,
            "count",
            source,
        ),
        (
            "shard.completion_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
            "ratio",
            source,
        ),
        (
            "shard.overhead_us_per_request",
            (g.run_with_s - g.untraced_s) * 1e6 / g.requests.max(1) as f64,
            "us",
            source,
        ),
    ]
}

/// The `ward-serving` traced run: the job replay of every executed
/// request, then the gateway/quorum/shard replay.
///
/// # Errors
///
/// Trace generation or journal IO failures.
pub fn trace(opts: &Options) -> Result<Traced, String> {
    let trace = requests(opts.seed, opts.scale)?;
    let report = ShardedGateway::new(config(SHARDS)).run_with(&trace, &chaos());
    let (fleet, executed_lines) = executed_fleet(&trace, &report);
    let mut tracer = Tracer::new(true);
    let spec = JobSpec {
        capacity: DEFAULT_CAPACITY,
        prefill: None,
        journaled: false,
        fresh_caches: true,
        fleet: Box::new({
            let fleet = fleet.clone();
            move |_| fleet.clone()
        }),
    };
    let jobs = catalog::trace_jobs(opts, spec, opts.seconds * 0.4, &mut tracer)?;
    let (replayed, _) = catalog::replay(
        &mut Tracer::new(false),
        &fleet,
        &bios_runtime::ResultCache::with_capacity(DEFAULT_CAPACITY),
    );
    let mut gateway_tracer = Tracer::new(true);
    let g = trace_gateway(&trace, &report, opts.seconds * 0.6, &mut gateway_tracer);
    let mut metrics = jobs.metrics("workload", "probe");
    metrics.extend(gateway_metrics(&g, &report, "workload"));
    let mut checks = vec![
        Check::new(
            "job replay reproduces the gateway's results",
            catalog::digest(&replayed) == executed_lines,
            format!("{} jobs", fleet.len()),
        ),
        Check::new(
            "per-tenant session replay reproduces run_with",
            g.parity,
            format!("{} tenants", report.tenant_stats().len()),
        ),
    ];
    checks.extend(mechanism_checks(&report));
    let mut traced = jobs.into_traced(metrics, checks, &tracer, opts);
    traced.self_times.extend(g.times);
    traced.traced_s += g.traced_s;
    traced.untraced_s += g.untraced_s;
    traced.attempted += g.requests;
    Ok(traced)
}

/// Adds the gateway/quorum/shard metrics to a traced run whose own
/// path does not cross those layers, from one tiny ward replay.
///
/// # Errors
///
/// Trace generation failure.
pub fn probe(opts: &Options, traced: &mut Traced) -> Result<(), String> {
    let trace = requests(opts.seed, opts.scale)?;
    let report = ShardedGateway::new(config(SHARDS)).run_with(&trace, &chaos());
    let mut tracer = Tracer::new(true);
    let g = trace_gateway(&trace, &report, 0.0, &mut tracer);
    traced.metrics.extend(gateway_metrics(&g, &report, "probe"));
    traced.self_times.extend(g.times);
    traced.checks.push(Check::new(
        "probe: per-tenant session replay reproduces run_with",
        g.parity,
        format!("{} requests", trace.len()),
    ));
    Ok(())
}
