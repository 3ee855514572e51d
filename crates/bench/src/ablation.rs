//! Ablation studies: decompose the design choices DESIGN.md calls out —
//! surface modification, readout electronics, and post-filtering — into
//! their individual contributions to the figures of merit.

use bios_analytics::report::TextTable;
use bios_analytics::LinearRangeOptions;
use bios_core::protocol::{CalibrationProtocol, Chronoamperometry};
use bios_core::sensor::{Biosensor, Technique};
use bios_core::Analyte;
use bios_enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
use bios_instrument::filter::FilterSpec;
use bios_instrument::ReadoutChain;
use bios_nanomaterial::{ElectrodeStock, SurfaceModification};
use bios_units::{ConcentrationRange, SurfaceLoading};

/// A fixed reference film so that only the studied factor varies.
fn reference_film() -> EnzymeFilm {
    EnzymeFilm::builder()
        .loading(SurfaceLoading::from_pico_mol_per_square_cm(8.0))
        .retained_activity(1.0)
        .km_shift(1.4)
        .build()
}

fn sensor_with(modification: SurfaceModification) -> Biosensor {
    Biosensor::builder("ablation glucose sensor", Analyte::Glucose)
        .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
        .modification(modification)
        .oxidase(
            Oxidase::stock(OxidaseKind::GlucoseOxidase),
            reference_film(),
        )
        .technique(Technique::paper_chronoamperometry())
        .build()
}

/// Ablation 1 — surface modification: same enzyme film and electrode,
/// different nanostructuring. Shows how much of the paper's sensitivity
/// comes from the CNT film's collection efficiency alone.
#[must_use]
pub fn render_modification_ablation() -> String {
    let mut t = TextTable::new(vec![
        "Modification",
        "collection η",
        "ET gain",
        "model sensitivity",
    ]);
    for modification in [
        SurfaceModification::bare(),
        SurfaceModification::cnt_paste(),
        SurfaceModification::titanate_nanotube(),
        SurfaceModification::mwcnt_sol_gel(),
        SurfaceModification::cnt_mat(),
        SurfaceModification::mwcnt_au_film(),
        SurfaceModification::mwcnt_butyric_acid(),
        SurfaceModification::mwcnt_chloroform(),
        SurfaceModification::mwcnt_nafion(),
        SurfaceModification::n_doped_cnt_nafion(),
    ] {
        let sensor = sensor_with(modification.clone());
        t.add_row(vec![
            modification.name().to_owned(),
            format!("{:.2}", modification.collection_efficiency()),
            format!("{:.0}×", modification.electron_transfer_gain()),
            sensor.model_sensitivity().to_string(),
        ]);
    }
    format!(
        "Ablation 1 — surface modification (fixed film, fixed electrode)\n{}",
        t.render()
    )
}

/// Ablation 2 — readout electronics: same sensor, three readout chains.
/// Quantifies the §2.5 integration argument as a detection-limit ratio.
///
/// # Errors
///
/// Propagates sweep-construction and calibration-analysis failures.
pub fn render_readout_ablation(seed: u64) -> Result<String, bios_core::CoreError> {
    let sensor = sensor_with(SurfaceModification::mwcnt_nafion());
    let sweep = ConcentrationRange::from_milli_molar(0.0, 1.0)?;
    let chains: [(&str, ReadoutChain); 3] = [
        ("benchtop", ReadoutChain::benchtop(seed)),
        ("integrated CMOS", ReadoutChain::integrated_cmos(seed)),
        ("low-cost reader", ReadoutChain::low_cost(seed)),
    ];
    let mut t = TextTable::new(vec!["Readout", "noise RMS", "LOD", "R²"]);
    for (name, chain) in chains {
        let mut chain = chain.auto_ranged_for(sensor.faradaic_current(sweep.high()) * 1.3);
        let noise = chain.noise_rms();
        let curve = Chronoamperometry::default().calibrate_over(&sensor, &mut chain, &sweep, 15);
        let summary = curve.summary(&LinearRangeOptions::default())?;
        t.add_row(vec![
            name.to_owned(),
            noise.to_string(),
            format!("{:.3} µM", summary.detection_limit.as_micro_molar()),
            format!("{:.5}", summary.r_squared),
        ]);
    }
    Ok(format!(
        "Ablation 2 — readout electronics (fixed MWCNT/Nafion sensor)\n{}",
        t.render()
    ))
}

/// Ablation 3 — digital post-filter: blank noise after each filter,
/// i.e. how much LOD the DSP stage buys.
#[must_use]
pub fn render_filter_ablation(seed: u64) -> String {
    let mut t = TextTable::new(vec!["Filter", "blank σ"]);
    for (name, filter) in [
        ("none", FilterSpec::None),
        ("moving average (5)", FilterSpec::MovingAverage(5)),
        ("moving average (9)", FilterSpec::MovingAverage(9)),
        ("Savitzky-Golay (7)", FilterSpec::SavitzkyGolay(7)),
        ("exponential (α=0.2)", FilterSpec::Exponential(0.2)),
    ] {
        let mut chain = ReadoutChain::benchtop(seed).with_filter(filter);
        let trace = vec![bios_units::Amperes::ZERO; 400];
        let filtered = chain.digitize_trace(&trace);
        let mean: f64 = filtered.iter().map(|i| i.as_amps()).sum::<f64>() / filtered.len() as f64;
        let var: f64 = filtered
            .iter()
            .map(|i| (i.as_amps() - mean).powi(2))
            .sum::<f64>()
            / (filtered.len() - 1) as f64;
        t.add_row(vec![
            name.to_owned(),
            format!("{:.1} pA", var.sqrt() * 1e12),
        ]);
    }
    format!(
        "Ablation 3 — digital post-filter (benchtop chain blanks)\n{}",
        t.render()
    )
}

/// Ablation 4 — linear-range detector tolerance: how the detected range
/// of the paper's glucose sensor responds to the linearity criterion,
/// relative to the published 0–1 mM.
#[must_use]
pub fn render_tolerance_ablation(seed: u64) -> String {
    use bios_core::catalog;

    let entry = catalog::our_glucose_sensor();
    let sensor = entry.build_sensor();
    let mut chain = entry.build_readout(seed);
    let standards = entry.sweep().linspace(entry.sweep_points());
    let curve = Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards);

    let mut t = TextTable::new(vec!["tolerance", "detected range", "S (µA·mM⁻¹·cm⁻²)"]);
    for tol in [0.02, 0.05, 0.08, 0.12, 0.20] {
        let options = LinearRangeOptions {
            tolerance: tol,
            ..LinearRangeOptions::default()
        };
        match curve.linear_range(&options) {
            Ok((range, fit)) => t.add_row(vec![
                format!("{:.0}%", tol * 100.0),
                range.to_string(),
                format!(
                    "{:.2}",
                    fit.slope() / sensor.electrode().area().as_square_cm()
                ),
            ]),
            Err(e) => t.add_row(vec![
                format!("{:.0}%", tol * 100.0),
                e.to_string(),
                "–".into(),
            ]),
        }
    }
    format!(
        "Ablation 4 — linearity tolerance (our glucose sensor, paper range 0–1 mM)\n{}",
        t.render()
    )
}

/// Ablation 5 — seed stability: the paper's glucose sensor calibrated
/// across many noise seeds through the fleet runtime, exposing the
/// Monte-Carlo spread hiding behind every single-seed table row.
#[must_use]
pub fn render_seed_ablation(seed0: u64, replicates: usize) -> String {
    use bios_core::catalog;
    use bios_runtime::{Fleet, Runtime, RuntimeConfig};

    let runtime = Runtime::new(RuntimeConfig::from_env());
    let fleet = Fleet::builder("seed-stability")
        .sensor(catalog::our_glucose_sensor())
        .seeds(seed0..seed0 + replicates as u64)
        .build();
    let report = runtime.run(&fleet);

    let stats = |values: &[f64]| -> (f64, f64) {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / (values.len().max(2) - 1) as f64;
        (mean, var.sqrt())
    };
    let sensitivities: Vec<f64> = report
        .successes()
        .map(|(_, o)| {
            o.summary
                .sensitivity
                .as_micro_amps_per_milli_molar_square_cm()
        })
        .collect();
    let lods: Vec<f64> = report
        .successes()
        .map(|(_, o)| o.summary.detection_limit.as_micro_molar())
        .collect();
    let r2s: Vec<f64> = report
        .successes()
        .map(|(_, o)| o.summary.r_squared)
        .collect();

    let mut t = TextTable::new(vec!["figure of merit", "mean", "SD"]);
    let (m, s) = stats(&sensitivities);
    t.add_row(vec![
        "sensitivity (µA·mM⁻¹·cm⁻²)".into(),
        format!("{m:.2}"),
        format!("{s:.3}"),
    ]);
    let (m, s) = stats(&lods);
    t.add_row(vec![
        "LOD (µM)".into(),
        format!("{m:.2}"),
        format!("{s:.3}"),
    ]);
    let (m, s) = stats(&r2s);
    t.add_row(vec!["R²".into(), format!("{m:.5}"), format!("{s:.6}")]);
    format!(
        "Ablation 5 — seed stability (our glucose sensor, {} seeds on {} workers, \
         {} failures)\n{}",
        replicates,
        report.workers,
        report.failures().count(),
        t.render()
    )
}

/// Ablation 6 — chaos: the glucose family calibrated under
/// [`bios_faults::FaultPlan::chaos`] plans of increasing intensity.
/// For each ramp step the table reports how many faults were injected,
/// how the fleet triaged (completed/degraded/failed), how many of the
/// surviving faulted channels the rolling-residual drift detector
/// flags against the healthy reference, and how far sensitivity and
/// LOD degrade. Intensity 0 is the armed-but-harmless overhead
/// baseline: it must match the healthy row exactly.
#[must_use]
pub fn render_chaos_ablation(seed: u64) -> String {
    use bios_analytics::DriftDetector;
    use bios_core::catalog;
    use bios_faults::FaultPlan;
    use bios_runtime::{Fleet, Runtime, RuntimeConfig};

    let seeds = seed..seed + 4;
    let sensors = catalog::glucose_sensors;
    let runtime = Runtime::new(RuntimeConfig::from_env().with_cache(false));
    let healthy = runtime.run(
        &Fleet::builder("chaos-reference")
            .sensors(sensors())
            .seeds(seeds.clone())
            .build(),
    );
    let reference_mean = |f: &dyn Fn(&bios_core::catalog::CalibrationOutcome) -> f64| -> f64 {
        let values: Vec<f64> = healthy.successes().map(|(_, o)| f(o)).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    let sens_of = |o: &bios_core::catalog::CalibrationOutcome| {
        o.summary
            .sensitivity
            .as_micro_amps_per_milli_molar_square_cm()
    };
    let lod_of =
        |o: &bios_core::catalog::CalibrationOutcome| o.summary.detection_limit.as_micro_molar();
    let healthy_sens = reference_mean(&sens_of);
    let healthy_lod = reference_mean(&lod_of);

    let detector = DriftDetector::default();
    let mut t = TextTable::new(vec![
        "intensity",
        "injected",
        "triage (ok/deg/fail)",
        "drift detected",
        "S ratio",
        "LOD ratio",
    ]);
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = FaultPlan::chaos(seed, intensity);
        let fleet = Fleet::builder("chaos-ramp")
            .sensors(sensors())
            .seeds(seeds.clone())
            .fault_plan(plan.clone())
            .build();
        let report = runtime.run(&fleet);
        let injected: u32 = report.results.iter().map(|r| r.injected.total()).sum();
        let outcome = report.outcome_summary();
        // Drift check: each surviving faulted channel against its own
        // healthy calibration (same sensor, same seed). Fleet outcomes
        // are summary-only, so both curves are recalibrated here.
        let mut faulted_survivors = 0usize;
        let mut detected = 0usize;
        for (job, result) in fleet.jobs().iter().zip(&report.results) {
            if result.outcome.is_err() || result.injected.total() == 0 {
                continue;
            }
            faulted_survivors += 1;
            let (Ok(reference), Ok(observed)) = (
                job.entry.run_calibration(job.seed),
                job.entry.run_calibration_with(job.seed, Some(&plan)),
            ) else {
                continue;
            };
            if detector
                .assess(&reference.curve, &observed.curve)
                .is_ok_and(|a| a.drifted)
            {
                detected += 1;
            }
        }
        let ratio =
            |f: &dyn Fn(&bios_core::catalog::CalibrationOutcome) -> f64, baseline: f64| -> String {
                let values: Vec<f64> = report.successes().map(|(_, o)| f(o)).collect();
                if values.is_empty() || baseline == 0.0 {
                    "–".into()
                } else {
                    format!(
                        "{:.2}",
                        values.iter().sum::<f64>() / values.len() as f64 / baseline
                    )
                }
            };
        t.add_row(vec![
            format!("{intensity:.2}"),
            format!("{injected}"),
            format!(
                "{}/{}/{}",
                outcome.completed, outcome.degraded, outcome.failed
            ),
            format!("{detected}/{faulted_survivors}"),
            ratio(&sens_of, healthy_sens),
            ratio(&lod_of, healthy_lod),
        ]);
    }
    format!(
        "Ablation 6 — chaos ramp (glucose family × 4 seeds, seeded fault plans; \
         drift detector window {}, threshold {}σ)\n{}",
        detector.window(),
        detector.threshold(),
        t.render()
    )
}

/// Ablation 7: ramp `FaultKind::WorkerStall` probability and show the
/// watchdog converting silent livelocks into the deterministic
/// `JobError::Deadline` while the fleet completes. The armed runtime
/// (real stalls, cancelled cooperatively) must render the byte-identical
/// digest of the unarmed one (stalls short-circuited synchronously).
pub fn render_stall_ablation(seed: u64) -> String {
    use std::time::Duration;

    use bios_core::catalog;
    use bios_faults::{FaultKind, FaultPlan};
    use bios_runtime::{Fleet, JobError, Runtime, RuntimeConfig};

    let base = RuntimeConfig::from_env()
        .with_cache(false)
        .with_retry_backoff(Duration::from_micros(10));
    let mut t = TextTable::new(vec![
        "p(stall)",
        "deadline kills",
        "workers retired",
        "triage (ok/deg/fail)",
        "armed == unarmed",
    ]);
    for probability in [0.0, 0.25, 0.5, 1.0] {
        let plan = FaultPlan::builder("stall-ramp", seed)
            .spec(FaultKind::WorkerStall, probability, 1.0)
            .build();
        let fleet = Fleet::builder("stall-ramp")
            .sensors(catalog::glucose_sensors())
            .seeds(seed..seed + 2)
            .fault_plan(plan)
            .build();
        let unarmed = Runtime::new(base);
        let reference = unarmed.run_sequential(&fleet);
        let armed = Runtime::new(base.with_job_deadline(Duration::from_millis(20)));
        let report = armed.run(&fleet);
        let outcome = report.outcome_summary();
        let kills = armed.metrics().deadline_kills;
        let retired = armed.metrics().stalled_workers;
        debug_assert_eq!(
            report
                .failures()
                .filter(|(_, e)| matches!(e, JobError::Deadline))
                .count() as u64,
            kills
        );
        t.add_row(vec![
            format!("{probability:.2}"),
            format!("{kills}"),
            format!("{retired}"),
            format!(
                "{}/{}/{}",
                outcome.completed, outcome.degraded, outcome.failed
            ),
            if report.summaries_digest() == reference.summaries_digest() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    format!(
        "Ablation 7 — worker-stall ramp (glucose family × 2 seeds, 20 ms soft \
         deadline; armed watchdog cancels livelocked solvers cooperatively)\n{}",
        t.render()
    )
}

/// Ablation 8: ramp `FaultKind::TrafficBurst` intensity and show the
/// gateway's overload posture shifting from "everything executes at
/// full quality" through rate limiting and brownouts to explicit queue
/// rejections. Every row is a pure function of (seed, intensity) —
/// logical ticks, no wall clock — so the table is byte-stable across
/// machines and worker counts.
#[must_use]
pub fn render_overload_ablation(seed: u64) -> String {
    use bios_core::catalog;
    use bios_faults::{FaultKind, FaultPlan};
    use bios_gateway::{Gateway, GatewayConfig, TokenBucket};
    use bios_runtime::{Runtime, RuntimeConfig};

    let config = GatewayConfig {
        queue_capacity: 8,
        service_slots: 2,
        bucket_capacity_milli: 5 * TokenBucket::WHOLE_TOKEN,
        bucket_refill_milli_per_tick: TokenBucket::WHOLE_TOKEN,
        ..GatewayConfig::default()
    };
    let mut t = TextTable::new(vec![
        "burst intensity",
        "span (ticks)",
        "executed",
        "degraded",
        "rate limited",
        "queue full",
        "shed",
    ]);
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let runtime = Runtime::new(RuntimeConfig::from_env().with_cache(false));
        let gateway = Gateway::new(config.clone(), runtime);
        let plan = FaultPlan::builder("overload-ramp", seed)
            .spec(FaultKind::TrafficBurst, 0.3 * intensity, intensity)
            .build();
        let pairs: Vec<(bios_core::catalog::CatalogEntry, u64)> = (0..32)
            .map(|i| (catalog::our_glucose_sensor(), seed + i))
            .collect();
        let trace = gateway.trace_from_plan(&plan, &pairs, "ramp", 3);
        let span = trace.iter().map(|r| r.arrival_tick).max().unwrap_or(0);
        let report = gateway.run(&trace);
        let c = report.counters;
        t.add_row(vec![
            format!("{intensity:.2}"),
            format!("{span}"),
            format!("{}", report.executed_ids().len()),
            format!("{}", c.browned_out),
            format!("{}", c.rate_limited),
            format!("{}", c.admission_rejected),
            format!("{}", c.deadline_shed),
        ]);
    }
    format!(
        "Ablation 8 — traffic-burst ramp (glucose × 32 requests through the \
         gateway; bounded queue of 8, 2 service slots, 1 token/tick buckets)\n{}",
        t.render()
    )
}

/// Ablation 9: ramp film-aging intensity through the longitudinal
/// stream engine and show the closed monitoring loop engaging — drift
/// injected into more patients, the per-patient monitors detecting it,
/// recalibrations admitted through the gateway, and epochs swapping to
/// restore tracking accuracy (MARD). Every row is a pure function of
/// (seed, intensity): logical ticks, seeded cohorts, no wall clock.
#[must_use]
pub fn render_stream_ablation(seed: u64) -> String {
    use bios_faults::{FaultKind, FaultPlan};
    use bios_gateway::{Gateway, GatewayConfig};
    use bios_runtime::{Runtime, RuntimeConfig};
    use bios_stream::{StreamConfig, StreamEngine};

    let mut t = TextTable::new(vec![
        "aging intensity",
        "drifted",
        "detected",
        "mean latency",
        "recals",
        "swaps",
        "MARD",
    ]);
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let aging = FaultPlan::builder("stream-ramp", seed)
            .spec(FaultKind::FilmDenaturation, 0.6 * intensity, intensity)
            .build();
        let config = StreamConfig::new(48, 144, seed).with_aging(aging);
        let runtime = Runtime::new(RuntimeConfig::from_env().with_cache(false));
        let engine = StreamEngine::new(config, Gateway::new(GatewayConfig::default(), runtime));
        let report = engine.run();
        t.add_row(vec![
            format!("{intensity:.2}"),
            format!("{}", report.drift_injected),
            format!("{}", report.drift_detected),
            format!("{:.1}", report.mean_detection_latency()),
            format!("{}", report.recal_enqueued),
            format!("{}", report.epoch_swaps),
            format!("{:.4}", report.mean_mard),
        ]);
    }
    format!(
        "Ablation 9 — film-aging ramp (48-patient cohort × 144 ticks through the \
         stream engine; online drift monitors, gateway-admitted recalibrations)\n{}",
        t.render()
    )
}

/// Ablation 10: shard count × tenant-hotspot skew vs isolation. A
/// seeded hotspot plan inflates some wards' request volume; the same
/// merged trace then runs (a) **without bulkheads** — every tenant
/// multiplexed through one shared gateway batch, where the hot wards
/// drain the shared token bucket and queue — and (b) **with
/// bulkheads** — through [`bios_shard::ShardedGateway`], where every
/// tenant has its own admission state on its home shard. The column to
/// read is the victim: a never-hot ward whose p99 logical latency
/// inflates with skew in the shared run and stays flat under
/// bulkheads, byte-identically at any shard count.
#[must_use]
pub fn render_shard_ablation(seed: u64) -> String {
    use bios_faults::{FaultKind, FaultPlan};
    use bios_gateway::{Disposition, Gateway, GatewayConfig, TokenBucket};
    use bios_runtime::{Runtime, RuntimeConfig};
    use bios_shard::{tenant_trace, ShardConfig, ShardedGateway};

    // Queueing contention is the effect under study: two service
    // slots and a deep queue (so hot-tenant load shows up as waiting
    // time, not rejections), with tokens plentiful enough that the
    // rate limiter stays out of the picture.
    let gateway_config = GatewayConfig {
        queue_capacity: 256,
        service_slots: 2,
        bucket_capacity_milli: 256 * TokenBucket::WHOLE_TOKEN,
        bucket_refill_milli_per_tick: 16 * TokenBucket::WHOLE_TOKEN,
        ..GatewayConfig::default()
    };
    let tenants = 6;
    // Nearest-rank p99 of one tenant's logical latencies in a shared
    // gateway report (the sharded side gets this from TenantStats).
    let victim_p99 = |outcomes: &[bios_gateway::RequestOutcome], tenant: &str| -> u64 {
        let mut lat: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.tenant == tenant)
            .filter_map(|o| match &o.disposition {
                Disposition::Executed { done_tick, .. } => {
                    Some(done_tick.saturating_sub(o.arrival_tick))
                }
                Disposition::Rejected(_) => None,
            })
            .collect();
        lat.sort_unstable();
        if lat.is_empty() {
            return 0;
        }
        let rank = ((0.99 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    };

    let mut t = TextTable::new(vec![
        "skew intensity",
        "requests",
        "hot wards",
        "victim",
        "shared p99",
        "bulkhead p99 (4 shards)",
        "bulkhead p99 (8 shards)",
        "digest 4=8",
    ]);
    for intensity in [0.0, 0.5, 1.0] {
        let skew = FaultPlan::builder("shard-skew", seed)
            .spec(FaultKind::TenantHotspot, 0.5, intensity)
            .build();
        let trace = tenant_trace(tenants, 8, 6, 96, Some(&skew));
        // Hot-set membership is intensity-independent (same seed,
        // same probability), so picking the victim against the
        // full-intensity plan keeps it stable across rows.
        let membership = FaultPlan::builder("shard-skew", seed)
            .spec(FaultKind::TenantHotspot, 0.5, 1.0)
            .build();
        let wards: Vec<String> = (0..tenants).map(|i| format!("ward-{i:02}")).collect();
        let hot = wards.iter().filter(|w| skew.hotspot_factor(w) > 1).count();
        let victim = wards
            .iter()
            .find(|w| membership.hotspot_factor(w) == 1)
            .cloned()
            .unwrap_or_else(|| "ward-00".to_string());

        // (a) No bulkheads: one shared session multiplexes everyone.
        let mut merged = trace.clone();
        merged.sort_by_key(|r| (r.arrival_tick, r.id));
        let runtime = Runtime::new(RuntimeConfig::from_env().with_cache(false));
        let shared = Gateway::new(gateway_config.clone(), runtime).run(&merged);

        // (b) Bulkheads: per-tenant sessions on per-shard runtimes.
        let sharded = |shards: usize| {
            let config = ShardConfig {
                shards,
                gateway: gateway_config.clone(),
                runtime: RuntimeConfig::from_env().with_cache(false),
                ..ShardConfig::default()
            };
            ShardedGateway::new(config).run(&trace)
        };
        let four = sharded(4);
        let eight = sharded(8);
        let p99_of =
            |report: &bios_shard::ShardedReport| report.tenant(&victim).map_or(0, |s| s.p99());
        t.add_row(vec![
            format!("{intensity:.2}"),
            format!("{}", trace.len()),
            format!("{hot}"),
            victim.clone(),
            format!("{}", victim_p99(&shared.outcomes, &victim)),
            format!("{}", p99_of(&four)),
            format!("{}", p99_of(&eight)),
            if four.digest() == eight.digest() {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    format!(
        "Ablation 10 — tenant-hotspot skew vs isolation ({tenants} wards, 8 requests \
         each before skew; 2 service slots behind a deep queue, so contention shows \
         up as waiting time). Shared = one multiplexed gateway, bulkhead = \
         bios-shard per-tenant sessions\n{}",
        t.render()
    )
}

/// Ablation 11: ramp silent-corruption intensity through the
/// redundancy screen. A `FaultKind::SilentCorruption` plan armed on
/// every ward perturbs what offender replica lanes *observe* (the
/// committed physics never changes); the triple-replica vote at full
/// sampling must out-vote every realized corruption. The columns to
/// read together are caught vs escaped — the catch rate — and the
/// digest column: because the vote validates the committed value
/// instead of replacing it, the armed digest is byte-equal to the
/// healthy baseline on every row, no matter how hard the ramp fires.
#[must_use]
pub fn render_quorum_ablation(seed: u64) -> String {
    use bios_faults::{FaultKind, FaultPlan};
    use bios_quorum::QuorumConfig;
    use bios_shard::{tenant_trace, ShardChaos, ShardConfig, ShardedGateway};

    let tenants = 6;
    let trace = tenant_trace(tenants, 8, 2, 96, None);
    let run = |chaos: &ShardChaos| {
        ShardedGateway::new(
            ShardConfig::default()
                .with_shards(4)
                .with_workers_per_shard(2),
        )
        .run_with(&trace, chaos)
    };
    let baseline = run(&ShardChaos::none());

    // The offender gate is a pure coin per (plan seed, lane): with 3
    // replica lanes roughly one seed in eight arms a plan whose whole
    // roster happens to be honest, which would render an all-zero
    // table. Advance deterministically to the first plan seed whose
    // roster contains an offender so the ramp always has something to
    // catch (pure in `seed`, usually zero or one probe).
    let roster_has_offender = |s: u64| {
        let probe = FaultPlan::builder("quorum-ramp", s)
            .spec(FaultKind::SilentCorruption, 1.0, 1.0)
            .build();
        (0..3u64).any(|lane| probe.silent_corruption("probe", 0, lane).is_some())
    };
    let plan_seed = (seed..seed.saturating_add(64))
        .find(|s| roster_has_offender(*s))
        .unwrap_or(seed);

    let mut t = TextTable::new(vec![
        "intensity",
        "votes",
        "injected",
        "caught",
        "escaped",
        "disagreements",
        "false suspects",
        "quarantined",
        "digest unchanged",
    ]);
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = FaultPlan::builder("quorum-ramp", plan_seed)
            .spec(FaultKind::SilentCorruption, 0.6 * intensity, intensity)
            .build();
        let mut chaos = ShardChaos::none().with_quorum(QuorumConfig {
            sampling: 1.0,
            ..QuorumConfig::default()
        });
        for ward in 0..tenants {
            chaos = chaos.with_tenant_plan(&format!("ward-{ward:02}"), plan.clone());
        }
        let report = run(&chaos);
        let q = report.quorum.unwrap_or_default();
        t.add_row(vec![
            format!("{intensity:.2}"),
            format!("{}", q.votes),
            format!("{}", q.injected),
            format!("{}", q.caught),
            format!("{}", q.escaped),
            format!("{}", q.disagreements),
            format!("{}", q.false_suspects),
            format!("{}", q.quarantined),
            if report.digest() == baseline.digest() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    format!(
        "Ablation 11 — silent-corruption ramp ({tenants} wards × 8 requests through \
         the 4-shard × 2-worker gateway; triple-replica vote, full sampling). A \
         caught corruption loses its vote and strikes its lane; the committed value \
         never moves, so the armed digest stays byte-equal to the healthy baseline\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modification_ablation_orders_bare_last() {
        let s = render_modification_ablation();
        // Bare must appear and MWCNT/Nafion must produce a higher model
        // sensitivity than bare (structural check on the rendering).
        assert!(s.contains("bare"));
        assert!(s.contains("MWCNT/Nafion"));
        let bare = sensor_with(SurfaceModification::bare()).model_sensitivity();
        let cnt = sensor_with(SurfaceModification::mwcnt_nafion()).model_sensitivity();
        assert!(
            cnt.as_micro_amps_per_milli_molar_square_cm()
                > 3.0 * bare.as_micro_amps_per_milli_molar_square_cm()
        );
    }

    #[test]
    fn readout_ablation_shows_integration_benefit() {
        let s = render_readout_ablation(3).expect("readout ablation renders");
        assert!(s.contains("integrated CMOS"));
        assert!(s.contains("low-cost"));
    }

    #[test]
    fn tolerance_ablation_widens_range_monotonically() {
        let s = render_tolerance_ablation(5);
        assert!(s.contains("2%"));
        assert!(s.contains("20%"));
    }

    #[test]
    fn filter_ablation_reduces_sigma() {
        let s = render_filter_ablation(3);
        assert!(s.contains("none"));
        assert!(s.contains("moving average (9)"));
    }

    #[test]
    fn seed_ablation_reports_spread() {
        let s = render_seed_ablation(0, 8);
        assert!(s.contains("8 seeds"));
        assert!(s.contains("0 failures"));
        assert!(s.contains("sensitivity"));
    }

    #[test]
    fn stall_ablation_kills_deadlines_and_stays_deterministic() {
        let s = render_stall_ablation(11);
        let row = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        let zero = row("0.00");
        assert_eq!(zero[1], "0", "no kills without stalls: {zero:?}");
        let full = row("1.00");
        assert_ne!(full[1], "0", "p=1 must kill deadlines: {full:?}");
        assert!(
            !s.contains("NO"),
            "armed and unarmed digests must agree:\n{s}"
        );
    }

    #[test]
    fn chaos_ablation_ramps_and_detects() {
        let s = render_chaos_ablation(42);
        let fields = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // The zero-intensity row is the harmless baseline: nothing
        // injected, everything completed, unit ratios.
        let zero = fields("0.00");
        assert_eq!(zero[1], "0", "no faults at i=0: {zero:?}");
        assert_eq!(zero[4], "1.00", "unit S ratio at i=0: {zero:?}");
        assert_eq!(zero[5], "1.00", "unit LOD ratio at i=0: {zero:?}");
        // The full-intensity row must inject faults into the fleet.
        let full = fields("1.00");
        assert_ne!(full[1], "0", "i=1 must inject faults: {full:?}");
        // The drift detector compares full curves: point-less ones
        // would read 0/n on every row.
        for (prefix, drift) in [
            ("0.00", "0/0"),
            ("0.25", "9/17"),
            ("0.50", "10/15"),
            ("0.75", "12/15"),
            ("1.00", "9/11"),
        ] {
            let row = fields(prefix);
            assert_eq!(row[3], drift, "drift column at i={prefix}: {row:?}");
        }
    }

    #[test]
    fn overload_ablation_ramps_from_calm_to_shedding() {
        let s = render_overload_ablation(7);
        let fields = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // Zero intensity is a smooth trickle: everything executes,
        // nothing is limited, degraded, or dropped.
        let zero = fields("0.00");
        assert_eq!(zero[2], "32", "calm traffic all executes: {zero:?}");
        assert_eq!(zero[3], "0", "no brownouts when calm: {zero:?}");
        assert_eq!(zero[4], "0", "no rate limiting when calm: {zero:?}");
        assert_eq!(zero[5], "0", "no queue overflow when calm: {zero:?}");
        // Full intensity compresses the trace; the span shrinks and at
        // least one shedding mechanism must engage.
        let full = fields("1.00");
        let span_zero: u64 = zero[1].parse().unwrap_or(0);
        let span_full: u64 = full[1].parse().unwrap_or(u64::MAX);
        assert!(
            span_full < span_zero,
            "bursts must compress the trace: {span_full} vs {span_zero}"
        );
        let pressure: u64 = full[3..7]
            .iter()
            .filter_map(|f| f.parse::<u64>().ok())
            .sum();
        assert_ne!(pressure, 0, "full bursts must trigger overload: {full:?}");
        // Determinism: the table is a pure function of the seed.
        assert_eq!(s, render_overload_ablation(7));
    }

    #[test]
    fn stream_ablation_ramps_from_stable_to_recalibrating() {
        let s = render_stream_ablation(7);
        let fields = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // Zero intensity is a healthy cohort: nothing drifts, no monitor
        // trips, no recalibrations are ever enqueued.
        let zero = fields("0.00");
        assert_eq!(zero[1], "0", "no drift at i=0: {zero:?}");
        assert_eq!(zero[2], "0", "no detections at i=0: {zero:?}");
        assert_eq!(zero[4], "0", "no recals at i=0: {zero:?}");
        assert_eq!(zero[5], "0", "no swaps at i=0: {zero:?}");
        // Full intensity must close the whole loop: drift in, detections
        // out, recalibrations through the gateway, epochs swapped.
        let full = fields("1.00");
        assert_ne!(full[1], "0", "i=1 must inject drift: {full:?}");
        assert_ne!(full[2], "0", "i=1 must detect drift: {full:?}");
        assert_ne!(full[5], "0", "i=1 must swap epochs: {full:?}");
        // Determinism: the table is a pure function of the seed.
        assert_eq!(s, render_stream_ablation(7));
    }

    #[test]
    fn shard_ablation_isolates_the_victim_from_hotspot_skew() {
        let s = render_shard_ablation(21);
        let fields = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        let zero = fields("0.00");
        let full = fields("1.00");
        // Full skew must actually inflate the hot wards' volume.
        let req_zero: u64 = zero[1].parse().unwrap_or(0);
        let req_full: u64 = full[1].parse().unwrap_or(0);
        assert!(
            req_full > req_zero,
            "skew must inflate the trace: {req_full} vs {req_zero}"
        );
        // The bulkhead column is flat: the victim's p99 is identical
        // whether its neighbors are calm or white-hot, and identical
        // at 4 and 8 shards.
        assert_eq!(zero[5], full[5], "bulkhead p99 moved under skew:\n{s}");
        assert_eq!(
            full[5], full[6],
            "bulkhead p99 depends on shard count:\n{s}"
        );
        assert!(
            !s.contains("NO"),
            "4-shard and 8-shard digests must agree:\n{s}"
        );
        // Determinism: the table is a pure function of the seed.
        assert_eq!(s, render_shard_ablation(21));
    }

    #[test]
    fn quorum_ablation_catches_everything_without_moving_the_digest() {
        let s = render_quorum_ablation(0xC0DE);
        let fields = |prefix: &str| -> Vec<String> {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} row in:\n{s}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // Zero intensity is the armed-but-harmless baseline: the screen
        // votes on every job yet nothing fires, nothing is struck.
        let zero = fields("0.00");
        assert_ne!(zero[1], "0", "the screen must vote at i=0: {zero:?}");
        assert_eq!(zero[2], "0", "no corruption at i=0: {zero:?}");
        assert_eq!(zero[6], "0", "no false suspects at i=0: {zero:?}");
        assert_eq!(zero[7], "0", "no quarantines at i=0: {zero:?}");
        // Full intensity must fire and every realized corruption must
        // lose its vote — caught == injected, zero escapes.
        let full = fields("1.00");
        assert_ne!(full[2], "0", "i=1 must inject corruption: {full:?}");
        assert_eq!(full[2], full[3], "caught must equal injected: {full:?}");
        assert_eq!(full[4], "0", "nothing may escape the vote: {full:?}");
        assert!(
            !s.contains("NO"),
            "arming the screen may never move the digest:\n{s}"
        );
        // Determinism: the table is a pure function of the seed.
        assert_eq!(s, render_quorum_ablation(0xC0DE));
    }
}
