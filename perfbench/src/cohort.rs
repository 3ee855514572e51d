//! `cohort-day`: `StreamEngine` over a generated cohort for a 288-tick
//! day on 2 workers, and the traced split of one run into cohort
//! generation, the bootstrap fleet, and the per-reading tick loop.

use std::collections::BTreeMap;
use std::time::Instant;

use bios_gateway::{Gateway, GatewayConfig};
use bios_runtime::{Fleet, Runtime, RuntimeConfig, DEFAULT_CAPACITY};
use bios_stream::{PatientCohort, StreamConfig, StreamEngine, StreamReport};

use crate::catalog::{self, JobSpec};
use crate::span::{SelfTime, Tracer};
use crate::stats::{mix, timed};
use crate::WORKERS;
use crate::{repeated_setup, timed_passes, Check, Measured, Options, PassWork, Scale, Traced};

/// Ticks in one monitored day (5-minute readings).
const DAY_TICKS: u64 = 288;

fn patients(scale: Scale) -> usize {
    match scale {
        Scale::Full => 512,
        Scale::Tiny => 24,
    }
}

/// Seed of the sensor-aging plan. Fixed, so every seed ages the same
/// films on the same schedule and a day's recalibration load does not
/// swing with the seed; physiology and noise still come from it.
const AGING_SEED: u64 = 0xA61_4647;

/// The stream configuration for `opts`: its cohort seed derives from
/// the CLI seed.
#[must_use]
fn stream_config(opts: &Options) -> StreamConfig {
    let config = StreamConfig::new(patients(opts.scale), DAY_TICKS, mix(opts.seed, 0xC0_407));
    let aging = StreamConfig::new(0, 0, AGING_SEED).aging;
    config.with_aging(aging)
}

/// An engine over a fresh runtime (empty cache) of `workers`.
#[must_use]
fn engine(config: &StreamConfig, workers: usize) -> StreamEngine {
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(workers));
    StreamEngine::new(
        config.clone(),
        Gateway::new(GatewayConfig::default(), runtime),
    )
}

fn pass_work(report: &StreamReport) -> PassWork {
    let patients = report.patients as u64;
    let recal_ran = report.recal_completed + report.recal_failed;
    PassWork {
        jobs: patients + recal_ran,
        requests: patients + report.recal_enqueued,
        job_errors: report.bootstrap_failed + report.recal_failed,
        refused: report.recal_rejected,
    }
}

fn mechanism_checks(report: &StreamReport) -> Vec<Check> {
    vec![
        Check::new(
            "drift detections",
            report.drift_detected > 0,
            format!(
                "{} of {} injected",
                report.drift_detected, report.drift_injected
            ),
        ),
        Check::new(
            "completed recalibrations",
            report.recal_completed > 0,
            format!(
                "{} of {} enqueued",
                report.recal_completed, report.recal_enqueued
            ),
        ),
    ]
}

/// The untraced `cohort-day` run. Every pass runs a fresh engine (its
/// runtime's cache empty) over the same cohort.
///
/// # Errors
///
/// Never in practice; the signature matches the other workloads.
pub fn measure(opts: &Options) -> Result<Measured, String> {
    let (config, setup_s) = repeated_setup(|| {
        let config = stream_config(opts);
        let warm_up = engine(&config, WORKERS).run();
        drop(warm_up);
        Ok(config)
    })?;
    let mut last = None;
    let passes = timed_passes(opts.seconds, |_| {
        let engine = engine(&config, WORKERS);
        let (report, wall) = timed(|| engine.run());
        let work = pass_work(&report);
        last = Some(report);
        Ok((wall, work))
    })?;
    let report = last.ok_or("no pass ran")?;
    let reference = engine(&config, 1).run();
    let mut checks = vec![Check::new(
        "digest identical at 1 and 2 workers",
        report.digest() == reference.digest(),
        format!("0x{:016x}", bios_recover::fnv1a(report.digest().as_bytes())),
    )];
    checks.extend(mechanism_checks(&report));
    let ticks = report.patients as f64 * DAY_TICKS as f64;
    let per_s = ticks / crate::stats::median(&passes.walls);
    Ok(Measured {
        setup_s,
        passes,
        pool: "2 workers",
        checks,
        extra: vec![("patient_ticks_per_s", per_s, "1/s")],
    })
}

/// The bootstrap fleet `StreamEngine::run` submits: one job per
/// patient at its calibration seed.
#[must_use]
fn bootstrap_fleet(cohort: &PatientCohort) -> Fleet {
    cohort
        .patients()
        .iter()
        .fold(Fleet::builder("stream-bootstrap"), |b, p| {
            b.job(p.entry.clone(), p.cal_seed)
        })
        .build()
}

/// Stream-layer output of the cohort replay.
struct StreamTrace {
    times: BTreeMap<&'static str, SelfTime>,
    iterations: u64,
    report: StreamReport,
}

/// Until `seconds` pass (at least once): one traced engine run, then a
/// traced cohort generation and a traced bootstrap fleet on a fresh
/// runtime of the engine's width — the pieces `run` starts with — so
/// the tick loop is the remainder.
fn trace_stream(config: &StreamConfig, seconds: f64, tracer: &mut Tracer) -> StreamTrace {
    let mut times = BTreeMap::new();
    let mut iterations = 0;
    let mut report = None;
    let started = Instant::now();
    while iterations == 0 || started.elapsed().as_secs_f64() < seconds {
        let engine = engine(config, WORKERS);
        let bootstrap = Runtime::new(
            RuntimeConfig::default()
                .with_workers(WORKERS)
                .with_cache_capacity(DEFAULT_CAPACITY),
        );
        tracer.clear();
        let run = tracer.span("stream.run", iterations, |_| engine.run());
        let cohort = tracer.span("stream.cohort_generate", iterations, |_| {
            PatientCohort::generate(config.cohort_seed, config.patients)
        });
        let fleet = bootstrap_fleet(&cohort);
        let _ = tracer.span("stream.bootstrap", iterations, |_| bootstrap.run(&fleet));
        tracer.fold_self_times(&mut times);
        report = Some(run);
        iterations += 1;
    }
    StreamTrace {
        times,
        iterations,
        report: report.unwrap_or_else(|| engine(config, WORKERS).run()),
    }
}

fn stream_metrics(
    s: &StreamTrace,
    source: &'static str,
) -> Vec<(&'static str, f64, &'static str, &'static str)> {
    let ms = |name: &str| {
        s.times.get(name).map_or(0.0, |t| t.total_ns as f64) / 1e6 / s.iterations.max(1) as f64
    };
    let (run, generate, bootstrap) = (
        ms("stream.run"),
        ms("stream.cohort_generate"),
        ms("stream.bootstrap"),
    );
    let r = &s.report;
    vec![
        ("stream.cohort_generate_ms", generate, "ms", source),
        ("stream.bootstrap_ms", bootstrap, "ms", source),
        (
            "stream.tick_loop_ms",
            run - generate - bootstrap,
            "ms",
            source,
        ),
        (
            "stream.recal_enqueued",
            r.recal_enqueued as f64,
            "count",
            source,
        ),
        (
            "stream.recal_completed",
            r.recal_completed as f64,
            "count",
            source,
        ),
        (
            "stream.recal_rejected",
            r.recal_rejected as f64,
            "count",
            source,
        ),
    ]
}

/// The `cohort-day` traced run: the job replay of the bootstrap fleet,
/// then the stream-layer split.
///
/// # Errors
///
/// Journal IO failures.
pub fn trace(opts: &Options) -> Result<Traced, String> {
    let config = stream_config(opts);
    let cohort = PatientCohort::generate(config.cohort_seed, config.patients);
    let fleet = bootstrap_fleet(&cohort);
    let mut tracer = Tracer::new(true);
    let spec = JobSpec {
        capacity: DEFAULT_CAPACITY,
        prefill: None,
        journaled: false,
        fresh_caches: true,
        fleet: Box::new(move |_| fleet.clone()),
    };
    let jobs = catalog::trace_jobs(opts, spec, opts.seconds * 0.5, &mut tracer)?;
    let mut stream_tracer = Tracer::new(true);
    let s = trace_stream(&config, opts.seconds * 0.5, &mut stream_tracer);
    let mut metrics = jobs.metrics("workload", "probe");
    metrics.extend(stream_metrics(&s, "workload"));
    let checks = mechanism_checks(&s.report);
    let mut traced = jobs.into_traced(metrics, checks, &tracer, opts);
    traced.self_times.extend(s.times);
    // Three coarse spans per engine run cost nothing measurable, so
    // the tracing overhead is the job replay's.
    Ok(traced)
}

/// Adds the stream metrics to a traced run whose own path does not
/// cross the stream layer, from one tiny cohort day.
///
/// # Errors
///
/// Never in practice; the signature matches [`crate::ward::probe`].
pub fn probe(opts: &Options, traced: &mut Traced) -> Result<(), String> {
    let config = stream_config(opts);
    let mut tracer = Tracer::new(true);
    let s = trace_stream(&config, 0.0, &mut tracer);
    traced.metrics.extend(stream_metrics(&s, "probe"));
    traced.self_times.extend(s.times);
    Ok(())
}
