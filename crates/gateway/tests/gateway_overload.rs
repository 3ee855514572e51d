//! Overload end-to-end pins: a bursty trace through the full gateway
//! must shed, brown out, and trip byte-identically at any worker
//! count, and browned-out results must stay close to full-resolution
//! truth.

use bios_core::catalog::{our_glucose_sensor, our_lactate_sensor, CatalogEntry};
use bios_faults::{FaultKind, FaultPlan};
use bios_gateway::{
    BreakerConfig, DegradationPolicy, Disposition, Gateway, GatewayConfig, Quality, Request,
    TokenBucket,
};
use bios_runtime::{Runtime, RuntimeConfig};

fn overload_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: 6,
        service_slots: 2,
        work_units_per_tick: 256,
        default_deadline_ticks: 24,
        bucket_capacity_milli: 6 * TokenBucket::WHOLE_TOKEN,
        bucket_refill_milli_per_tick: TokenBucket::WHOLE_TOKEN / 2,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown_ticks: 6,
            probe_quota: 1,
        },
    }
}

/// A bursty mixed trace: two tenants, a healthy glucose family, and a
/// poisoned lactate family (two sweep points are below the analytics
/// three-standard minimum ⇒ deterministic calibration error), with
/// arrivals compressed by a TrafficBurst fault spec.
fn overload_trace(gateway: &Gateway) -> Vec<Request> {
    let plan = FaultPlan::builder("overload-pin", 0xB10C)
        .spec(FaultKind::TrafficBurst, 0.6, 1.0)
        .build();
    let poisoned = our_lactate_sensor().with_sweep_points(2);
    let pairs: Vec<(CatalogEntry, u64)> = (0..40)
        .map(|i| {
            if i % 4 == 3 {
                (poisoned.clone(), i)
            } else {
                (our_glucose_sensor(), i)
            }
        })
        .collect();
    let mut trace = gateway.trace_from_plan(&plan, &pairs, "ward-a", 2);
    for (i, req) in trace.iter_mut().enumerate() {
        if i % 3 == 0 {
            req.tenant = "ward-b".to_string();
        }
    }
    trace
}

fn run_at(workers: usize) -> bios_gateway::GatewayReport {
    let runtime = Runtime::new(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    });
    let gateway = Gateway::new(overload_config(), runtime);
    let trace = overload_trace(&gateway);
    gateway.run(&trace)
}

#[test]
fn overloaded_fleet_sheds_the_identical_job_set_at_1_2_and_8_workers() {
    let reports: Vec<_> = [1usize, 2, 8].iter().map(|&w| run_at(w)).collect();
    let digests: Vec<String> = reports.iter().map(|r| r.digest()).collect();
    assert_eq!(digests[0], digests[1], "1 vs 2 workers");
    assert_eq!(digests[1], digests[2], "2 vs 8 workers");

    // The pin is only meaningful if the trace actually overloads the
    // gateway: every robustness mechanism must have fired.
    let c = &reports[0].counters;
    assert!(c.rate_limited > 0, "rate limiter never fired: {c}");
    assert!(c.browned_out > 0, "brownout never fired: {c}");
    assert!(c.breaker_trips > 0, "breaker never tripped: {c}");
    assert!(
        reports[0].clean_drain(),
        "every request must reach a terminal outcome"
    );

    // And the shed/brownout *sets*, not just counts, must agree.
    for r in &reports[1..] {
        assert_eq!(r.executed_ids(), reports[0].executed_ids());
        assert_eq!(r.browned_out_ids(), reports[0].browned_out_ids());
        assert_eq!(
            r.rejected_ids(bios_gateway::Rejected::RateLimited),
            reports[0].rejected_ids(bios_gateway::Rejected::RateLimited)
        );
        assert_eq!(
            r.rejected_ids(bios_gateway::Rejected::BreakerOpen),
            reports[0].rejected_ids(bios_gateway::Rejected::BreakerOpen)
        );
    }
}

#[test]
fn brownout_accuracy_loss_is_bounded() {
    // Golden bound: a glucose calibration at the browned-out sweep
    // resolution must reproduce the full-resolution sensitivity within
    // 10%. If someone makes the degradation policy more aggressive,
    // this pin forces the accuracy conversation.
    let policy = DegradationPolicy::default();
    let full = our_glucose_sensor();
    let thin = policy.degrade(&full);
    assert_eq!(thin.sweep_points(), 12, "default policy halves 25 points");

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let gateway = Gateway::new(GatewayConfig::default(), runtime);
    let reqs = vec![
        Request::new(0, "golden", full, 42, 0, 1000),
        Request::new(1, "golden", thin, 42, 0, 1000),
    ];
    let report = gateway.run(&reqs);
    let sens: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| match &o.disposition {
            Disposition::Executed { result, .. } => match &result.outcome {
                Ok(outcome) => outcome
                    .summary
                    .sensitivity
                    .as_micro_amps_per_milli_molar_square_cm(),
                Err(e) => panic!("golden run failed: {e}"),
            },
            Disposition::Rejected(r) => panic!("golden run rejected: {r}"),
        })
        .collect();
    let rel = ((sens[1] - sens[0]) / sens[0]).abs();
    assert!(
        rel < 0.10,
        "degraded sensitivity {} deviates {:.1}% from full {} (bound 10%)",
        sens[1],
        rel * 100.0,
        sens[0]
    );
}

#[test]
fn degraded_results_are_tagged_and_cheaper() {
    // Force brownout by filling the queue: four arrivals at tick 0 into
    // a queue of 4 with one service slot. The first dispatch leaves 3
    // of 4 queued, at the 3/4 watermark, so it browns out; the later
    // ones leave 2, 1 and 0 queued and run at full resolution.
    let config = GatewayConfig {
        queue_capacity: 4,
        service_slots: 1,
        ..GatewayConfig::default()
    };
    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let gateway = Gateway::new(config, runtime);
    let reqs: Vec<Request> = (0..4)
        .map(|i| Request::new(i, "ward", our_glucose_sensor(), i, 0, 64))
        .collect();
    let report = gateway.run(&reqs);
    assert_eq!(report.browned_out_ids(), vec![0]);
    assert_eq!(report.counters.browned_out, 1);
    for o in &report.outcomes {
        let Disposition::Executed {
            quality,
            dispatched_tick,
            done_tick,
            ..
        } = &o.disposition
        else {
            panic!("request {} did not execute", o.id);
        };
        // Degraded glucose: (30 + 12·3)·8 = 528 units ⇒ 3 ticks at 256;
        // full: (30 + 25·3)·8 = 840 units ⇒ 4 ticks.
        let (want_quality, want_ticks) = if o.id == 0 {
            (Quality::Degraded, 3)
        } else {
            (Quality::Full, 4)
        };
        assert_eq!(*quality, want_quality, "request {}", o.id);
        assert_eq!(done_tick - dispatched_tick, want_ticks, "request {}", o.id);
    }
}

#[test]
fn quiet_traffic_passes_through_untouched() {
    // The robustness layer must be invisible when there is no
    // overload: no rejections, no brownouts, no trips.
    let report = {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let gateway = Gateway::new(GatewayConfig::default(), runtime);
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::new(i, "clinic", our_glucose_sensor(), i, i * 10, 100))
            .collect();
        gateway.run(&reqs)
    };
    assert_eq!(report.executed_ids().len(), 6);
    assert_eq!(report.counters, bios_gateway::GatewayCounters::default());
    assert!(report.clean_drain());
}
