//! Chaos-mode integration: an armed fault plan must degrade a fleet
//! *deterministically* — the same partial outcome, byte for byte, at
//! any worker count — while the runtime retries transients, contains
//! panics, and never serves a faulted job a healthy cached result.

use std::time::Duration;

use bios_core::catalog;
use bios_faults::{FaultKind, FaultPlan};
use bios_runtime::{Fleet, JobError, Runtime, RuntimeConfig, MAX_ATTEMPTS};

/// A plan that exercises every robustness path at once: every job
/// glitches transiently twice (retried to success under the default
/// three attempts), a deterministic minority of jobs panics, and a
/// slice of the physics degrades.
fn stress_plan() -> FaultPlan {
    FaultPlan::builder("chaos-suite", 0xC0FFEE)
        .spec(FaultKind::TransientGlitch, 1.0, 0.4)
        .spec(FaultKind::WorkerPanic, 0.2, 1.0)
        .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
        .spec(FaultKind::ReadoutSpike, 0.4, 0.5)
        .build()
}

fn stress_fleet(seed: u64) -> Fleet {
    Fleet::builder("chaos")
        .sensors(catalog::all_table2())
        .seed(seed)
        .fault_plan(stress_plan())
        .build()
}

fn config(workers: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(workers)
        .with_cache(false)
        // Keep the retry storm fast: backoff is deterministic anyway.
        .with_retry_backoff(Duration::from_micros(10))
}

#[test]
fn armed_fleet_outcome_is_identical_across_worker_counts() {
    let fleet = stress_fleet(42);
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&workers| Runtime::new(config(workers)).run(&fleet))
        .collect();

    // The stress plan must actually bite: panics and retried
    // transients both present, plus surviving (degraded) channels.
    let outcome = reports[0].outcome_summary();
    assert!(outcome.failed >= 1, "expected ≥1 panicked job: {outcome}");
    assert!(outcome.degraded >= 1, "expected degraded jobs: {outcome}");
    assert_eq!(outcome.total(), fleet.len());
    assert!(
        reports[0]
            .failures()
            .any(|(_, e)| matches!(e, JobError::Panicked(_))),
        "injected WorkerPanic must surface as JobError::Panicked"
    );
    assert!(
        reports[0]
            .results
            .iter()
            .any(|r| r.outcome.is_ok() && r.attempts > 1),
        "transient glitches must be retried to success"
    );

    // Determinism: byte-identical digests and identical triage at any
    // worker count, panics and retries included.
    for report in &reports[1..] {
        assert_eq!(report.summaries_digest(), reports[0].summaries_digest());
        assert_eq!(report.outcome_summary(), outcome);
    }
}

#[test]
fn transient_retries_are_metered_and_bounded() {
    let fleet = Fleet::builder("retries")
        .sensors(catalog::glucose_sensors())
        .seed(7)
        .fault_plan(
            FaultPlan::builder("transient-only", 9)
                .spec(FaultKind::TransientGlitch, 1.0, 0.4)
                .build(),
        )
        .build();
    let runtime = Runtime::new(config(2));
    let report = runtime.run(&fleet);
    // Glitches at this intensity cost at most 2 attempts' worth of
    // retries, so every job recovers within the default 3 attempts.
    assert_eq!(report.failures().count(), 0, "all transients must recover");
    for result in &report.results {
        assert!(result.attempts > 1, "{}: expected retries", result.sensor);
        assert!(result.attempts <= 3, "{}: attempts bounded", result.sensor);
        assert!(result.injected.runtime >= 1);
    }
    let metrics = runtime.metrics();
    assert!(metrics.retries >= fleet.len() as u64);
    assert!(metrics.faults_injected >= fleet.len() as u64);
}

#[test]
fn exhausted_transients_fail_with_attempt_count() {
    // Intensity 1.0 realizes 2 or 3 consecutive glitches per job
    // (`1 + round(2·magnitude)`, magnitude in [0.5, 1]): 2 recover on
    // the last attempt, 3 exhaust all of them.
    let plan = FaultPlan::builder("glitch-storm", 11)
        .spec(FaultKind::TransientGlitch, 1.0, 1.0)
        .build();
    let sensor = catalog::our_glucose_sensor();
    let fleet = Fleet::builder("exhausted")
        .sensor(sensor.clone())
        .seeds(0..12)
        .fault_plan(plan.clone())
        .build();
    let runtime = Runtime::new(config(1));
    let report = runtime.run(&fleet);
    let mut exhausted = 0;
    for result in &report.results {
        let glitches = plan.realize(sensor.id(), result.seed).transient_failures;
        if glitches >= MAX_ATTEMPTS {
            exhausted += 1;
            match &result.outcome {
                Err(error @ JobError::Transient { attempts, .. }) => {
                    assert_eq!(*attempts, MAX_ATTEMPTS, "seed {}", result.seed);
                    assert_eq!(result.attempts, MAX_ATTEMPTS);
                    assert!(error.is_transient());
                }
                other => panic!("seed {}: expected Transient, got {other:?}", result.seed),
            }
        } else {
            assert!(result.outcome.is_ok(), "seed {} must recover", result.seed);
            assert_eq!(result.attempts, glitches + 1, "seed {}", result.seed);
        }
    }
    assert!(
        exhausted > 0,
        "some seed must realize {MAX_ATTEMPTS} glitches"
    );
    assert!(exhausted < report.results.len(), "some seed must recover");
}

#[test]
fn runtime_survives_panicking_jobs_across_runs() {
    let panic_plan = FaultPlan::builder("all-panic", 1)
        .spec(FaultKind::WorkerPanic, 1.0, 1.0)
        .build();
    let poisoned = Fleet::builder("poisoned")
        .sensors(catalog::glucose_sensors())
        .seed(1)
        .fault_plan(panic_plan)
        .build();
    let healthy = Fleet::builder("healthy")
        .sensors(catalog::glucose_sensors())
        .seed(1)
        .build();
    let runtime = Runtime::new(config(2));
    let wrecked = runtime.run(&poisoned);
    assert_eq!(wrecked.failures().count(), poisoned.len());
    // The panics were contained inside the jobs; the same runtime must
    // calibrate a healthy fleet cleanly afterwards.
    let recovered = runtime.run(&healthy);
    assert_eq!(recovered.failures().count(), 0);
    assert_eq!(recovered.results.len(), healthy.len());
}

#[test]
fn faulted_jobs_never_alias_healthy_cache_entries() {
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_retry_backoff(Duration::ZERO),
    );
    let sensors = catalog::glucose_sensors;
    let healthy = Fleet::builder("healthy")
        .sensors(sensors())
        .seed(42)
        .build();
    let denatured = Fleet::builder("denatured")
        .sensors(sensors())
        .seed(42)
        .fault_plan(
            FaultPlan::builder("denature-all", 2)
                .spec(FaultKind::FilmDenaturation, 1.0, 0.8)
                .build(),
        )
        .build();
    let first = runtime.run(&healthy);
    let faulted = runtime.run(&denatured);
    // Same sensors, same seed — but the armed run must re-simulate,
    // not hit the healthy entries.
    assert_eq!(faulted.cache_hits(), 0);
    for (result, outcome) in faulted.successes() {
        let reference = first
            .outcome(&result.sensor, 42)
            .expect("healthy reference");
        assert!(
            outcome.summary.sensitivity < 0.7 * reference.summary.sensitivity,
            "{}: denatured sensitivity must collapse",
            result.sensor
        );
    }
    // And the faulted outcomes are themselves memoized under the plan
    // fingerprint: a rerun is all cache hits with the same digest.
    let rerun = runtime.run(&denatured);
    assert_eq!(rerun.cache_hits(), denatured.len());
    assert_eq!(rerun.summaries_digest(), faulted.summaries_digest());
}

#[test]
fn bounded_cache_evicts_and_reports() {
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_cache_capacity(16),
    );
    let fleet = Fleet::builder("churn")
        .sensor(catalog::our_glucose_sensor())
        .seeds(0..200)
        .build();
    let report = runtime.run(&fleet);
    assert_eq!(report.failures().count(), 0);
    assert!(
        runtime.cache_len() <= 16,
        "cache bounded: {}",
        runtime.cache_len()
    );
    let metrics = runtime.metrics();
    assert!(
        metrics.cache_evictions >= 184,
        "evictions: {}",
        metrics.cache_evictions
    );
    assert_eq!(report.metrics.cache_evictions, metrics.cache_evictions);
}

#[test]
fn chaos_intensity_zero_is_byte_identical_to_unarmed() {
    let runtime = Runtime::new(config(2));
    let unarmed = Fleet::builder("unarmed")
        .sensors(catalog::all_table2())
        .seed(17)
        .build();
    let armed_harmless = Fleet::builder("armed-harmless")
        .sensors(catalog::all_table2())
        .seed(17)
        .fault_plan(FaultPlan::chaos(99, 0.0))
        .build();
    let a = runtime.run(&unarmed);
    let b = runtime.run(&armed_harmless);
    assert_eq!(a.summaries_digest(), b.summaries_digest());
    assert_eq!(b.outcome_summary().degraded, 0);
    assert_eq!(b.outcome_summary().failed, 0);
    assert_eq!(runtime.metrics().faults_injected, 0);
}

#[test]
fn sequential_and_concurrent_chaos_agree() {
    let fleet = stress_fleet(23);
    let concurrent = Runtime::new(config(8)).run(&fleet);
    let sequential = Runtime::new(config(1)).run_sequential(&fleet);
    assert_eq!(concurrent.summaries_digest(), sequential.summaries_digest());
    assert_eq!(concurrent.outcome_summary(), sequential.outcome_summary());
}
