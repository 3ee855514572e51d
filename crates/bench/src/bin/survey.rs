//! Prints the §2 classification-survey statistics from the literature
//! registry, then benchmarks the fleet runtime (full catalog × several
//! seeds, sequential vs pooled) and writes the measurements to
//! `BENCH_runtime.json`.
//!
//! Usage: `cargo run -p bios-bench --release --bin survey [-- --workers N]`

// A CLI binary reports on stdout by design.
#![allow(clippy::print_stdout)]

use std::io::Write;

use bios_core::catalog;
use bios_core::catalog::CatalogEntry;
use bios_faults::{FaultKind, FaultPlan};
use bios_gateway::{Gateway, GatewayConfig};
use bios_quorum::QuorumConfig;
use bios_runtime::{Fleet, Runtime, RuntimeConfig};
use bios_shard::{tenant_trace, ShardChaos, ShardConfig, ShardedGateway};
use bios_stream::{StreamConfig, StreamEngine};

fn main() {
    bios_bench::silence_injected_panics();
    print!("{}", bios_bench::render_survey());

    let mut config = RuntimeConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            config = config.with_workers(bios_bench::parse_flag_or_exit(
                args.next(),
                "--workers",
                "a positive integer",
            ));
        }
    }

    // The benchmark fleet: every catalog sensor (Table 2 rows plus the
    // multi-panel entries) across several replicate seeds.
    let mut sensors = catalog::all_table2();
    sensors.extend(catalog::multi_panel_sensors());
    let fleet = Fleet::builder("survey-bench")
        .sensors(sensors)
        .seeds(0..6)
        .build();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let physical_cores = bios_bench::physical_cores();
    // The oversubscription caveat is printed at most once per run —
    // several blocks below (cold speedup, the shard sweep) can each
    // exceed the machine, and repeating the same warning per
    // configuration buries the signal.
    let mut oversubscription_warned = false;
    let warn_oversubscribed = |total_workers: usize, warned: &mut bool| {
        if !*warned {
            println!(
                "  warning: speedup_valid: false — {total_workers} workers on {cores} \
                 available cores ({physical_cores} physical); wall-clock ratios measure \
                 oversubscription, not the runtime"
            );
            *warned = true;
        }
    };
    let sequential = Runtime::new(RuntimeConfig::default().with_workers(1).with_cache(false))
        .run_sequential(&fleet);
    let runtime = Runtime::new(config);
    let concurrent = runtime.run(&fleet);
    assert_eq!(
        sequential.summaries_digest(),
        concurrent.summaries_digest(),
        "fleet results must not depend on the worker count"
    );
    // Second pass over the same fleet: the steady state of repeated
    // catalog/bench runs, served from the memo cache.
    let cached = runtime.run(&fleet);

    // Robustness overhead: the same fleet uncached, healthy vs armed
    // with a zero-intensity chaos plan (the fault path exists but
    // realizes nothing — its cost must be noise-level) vs a full
    // chaos run that actually injects, retries, and panics.
    let mut sensors = catalog::all_table2();
    sensors.extend(catalog::multi_panel_sensors());
    let overhead_runtime = Runtime::new(config.with_cache(false));
    let unarmed_fleet = Fleet::builder("overhead-unarmed")
        .sensors(sensors.clone())
        .seeds(100..103)
        .build();
    let armed_zero_fleet = Fleet::builder("overhead-armed-zero")
        .sensors(sensors.clone())
        .seeds(100..103)
        .fault_plan(FaultPlan::chaos(7, 0.0))
        .build();
    let chaos_fleet = Fleet::builder("chaos")
        .sensors(sensors)
        .seeds(100..103)
        .fault_plan(FaultPlan::chaos(7, 0.75))
        .build();
    let unarmed = overhead_runtime.run(&unarmed_fleet);
    let armed_zero = overhead_runtime.run(&armed_zero_fleet);
    assert_eq!(
        unarmed.summaries_digest(),
        armed_zero.summaries_digest(),
        "a zero-intensity plan must not perturb the physics"
    );
    // Best-of-N wall times: these fleets finish in milliseconds, where a
    // single scheduler hiccup dwarfs the effect being measured.
    let mut unarmed_secs = unarmed.elapsed.as_secs_f64();
    let mut armed_secs = armed_zero.elapsed.as_secs_f64();
    for _ in 0..4 {
        unarmed_secs = unarmed_secs.min(overhead_runtime.run(&unarmed_fleet).elapsed.as_secs_f64());
        armed_secs = armed_secs.min(
            overhead_runtime
                .run(&armed_zero_fleet)
                .elapsed
                .as_secs_f64(),
        );
    }
    let chaos_runtime = Runtime::new(config.with_cache(false));
    let chaos = chaos_runtime.run(&chaos_fleet);
    let armed_overhead = armed_secs / unarmed_secs.max(1e-12) - 1.0;

    let speedup = sequential.elapsed.as_secs_f64() / concurrent.elapsed.as_secs_f64();
    let warm_speedup = sequential.elapsed.as_secs_f64() / cached.elapsed.as_secs_f64();
    // A pool wider than the machine cannot speed anything up: the
    // sequential/concurrent ratio then measures oversubscription, not
    // the runtime. Mark the measurement instead of publishing a bare
    // sub-1.0 "speedup" that reads like a regression.
    let speedup_valid = cores >= concurrent.workers;
    let metrics = runtime.metrics();
    println!(
        "\nFleet runtime benchmark ({} jobs, {} cores, {} physical):",
        fleet.len(),
        cores,
        physical_cores
    );
    println!(
        "  sequential: {:?} ({:.1} jobs/s)",
        sequential.elapsed,
        sequential.throughput_jobs_per_sec()
    );
    println!(
        "  {} workers, cold: {:?} ({:.1} jobs/s, {:.2}x)",
        concurrent.workers,
        concurrent.elapsed,
        concurrent.throughput_jobs_per_sec(),
        speedup
    );
    if !speedup_valid {
        warn_oversubscribed(concurrent.workers, &mut oversubscription_warned);
    }
    println!(
        "  {} workers, warm cache: {:?} ({:.1} jobs/s, {:.2}x, {} of {} jobs from cache)",
        cached.workers,
        cached.elapsed,
        cached.throughput_jobs_per_sec(),
        warm_speedup,
        cached.cache_hits(),
        fleet.len()
    );
    let chaos_outcome = chaos.outcome_summary();
    let chaos_metrics = chaos_runtime.metrics();
    println!(
        "  armed-but-harmless plan overhead: {:+.1}% (digest-identical to unarmed)",
        armed_overhead * 100.0
    );
    println!(
        "  chaos fleet (intensity 0.75): {chaos_outcome}, {} faults injected, {} retries",
        chaos_metrics.faults_injected, chaos_metrics.retries
    );

    // Overload robustness: a bursty trace through the gateway. The
    // shed/trip/brownout counts are deterministic (logical ticks, not
    // wall clock), so this block is byte-stable across runs and
    // machines.
    let gateway_runtime = Runtime::new(config.with_cache(false));
    let gateway = Gateway::new(GatewayConfig::default(), gateway_runtime);
    let burst_plan = FaultPlan::builder("survey-overload", 0xB10C)
        .spec(FaultKind::TrafficBurst, 0.6, 1.0)
        .build();
    let pairs: Vec<(CatalogEntry, u64)> = (0..48)
        .map(|i| (catalog::our_glucose_sensor(), i))
        .collect();
    let trace = gateway.trace_from_plan(&burst_plan, &pairs, "survey", 1);
    let overload = gateway.run(&trace);
    let gc = overload.counters;
    println!(
        "  overload gateway ({} requests, bursty): {} executed ({} degraded), {}",
        trace.len(),
        overload.executed_ids().len(),
        gc.browned_out,
        gc
    );

    // Continuous-monitoring stream: a seeded longitudinal cohort with
    // aging films, online drift detection, and gateway-admitted
    // recalibrations. Counts and latencies are deterministic (logical
    // ticks, seeded streams), so this block is byte-stable too.
    let stream_seed = 0x57AE_A11E;
    let stream_runtime = Runtime::new(config.with_cache(false));
    let stream_engine = StreamEngine::new(
        StreamConfig::new(64, 96, stream_seed),
        Gateway::new(GatewayConfig::default(), stream_runtime),
    );
    let stream = stream_engine.run();
    println!(
        "  stream cohort ({} patients x {} ticks): {} drifted, {} detected (mean latency {:.1} ticks), {} epochs swapped, MARD {:.4}",
        stream.patients,
        stream.horizon_ticks,
        stream.drift_injected,
        stream.drift_detected,
        stream.mean_detection_latency(),
        stream.epoch_swaps,
        stream.mean_mard
    );

    // Sharded fleet-of-fleets: the same multi-tenant trace at several
    // (shard count × workers per shard) layouts. The digest is pinned
    // byte-identical across layouts (the `gate shard` contract); the
    // per-layout wall times and steal counts land in the JSON below.
    let shard_trace = tenant_trace(8, 6, 2, 96, None);
    let shard_layouts = [(1usize, 1usize), (4, 2), (8, 2)];
    let mut shard_rows = Vec::new();
    let mut shard_digest = None;
    let mut shard_digests_agree = true;
    println!(
        "  sharded gateway ({} tenants, {} requests):",
        8,
        shard_trace.len()
    );
    for (shards, workers_per_shard) in shard_layouts {
        if shards * workers_per_shard > cores {
            warn_oversubscribed(shards * workers_per_shard, &mut oversubscription_warned);
        }
        let sharded = ShardedGateway::new(
            ShardConfig::default()
                .with_shards(shards)
                .with_workers_per_shard(workers_per_shard),
        );
        let started = std::time::Instant::now();
        let report = sharded.run(&shard_trace);
        let secs = started.elapsed().as_secs_f64();
        let fnv = report.digest_fnv();
        let stable = *shard_digest.get_or_insert(fnv) == fnv;
        shard_digests_agree &= stable;
        println!(
            "    {shards} shards x {workers_per_shard} workers: {} executed, {} steals, \
             drained t{}, {:.3}s, digest_fnv=0x{fnv:016x}{}",
            report.executed(),
            report.steals(),
            report.drained_tick,
            secs,
            if stable { "" } else { " (DIGEST DIVERGED)" }
        );
        shard_rows.push(format!(
            "{{\"shards\": {shards}, \"workers_per_shard\": {workers_per_shard}, \
             \"executed\": {}, \"steals\": {}, \"drained_tick\": {}, \
             \"secs\": {secs:.6}, \"digest_fnv\": \"0x{fnv:016x}\"}}",
            report.executed(),
            report.steals(),
            report.drained_tick,
        ));
    }

    // Redundancy screen: the same trace with silent corruption armed
    // on every tenant and the quorum screen voting on every
    // completion. Verdicts, catches, and quarantines are deterministic
    // (logical lanes, seeded deltas); the wall-clock delta against the
    // unarmed run on the same (4×2) layout prices the vote itself.
    let quorum_plan = FaultPlan::builder("survey-quorum", 0xC0DE)
        .spec(FaultKind::SilentCorruption, 0.45, 0.8)
        .build();
    let mut quorum_chaos = ShardChaos::none().with_quorum(QuorumConfig {
        sampling: 1.0,
        ..QuorumConfig::default()
    });
    for ward in 0..8 {
        quorum_chaos =
            quorum_chaos.with_tenant_plan(&format!("ward-{ward:02}"), quorum_plan.clone());
    }
    let quorum_gateway = ShardedGateway::new(
        ShardConfig::default()
            .with_shards(4)
            .with_workers_per_shard(2),
    );
    let mut quorum_unarmed_secs = f64::INFINITY;
    let mut quorum_armed_secs = f64::INFINITY;
    let mut quorum_summary = None;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let plain = quorum_gateway.run(&shard_trace);
        quorum_unarmed_secs = quorum_unarmed_secs.min(started.elapsed().as_secs_f64());
        let started = std::time::Instant::now();
        let screened = quorum_gateway.run_with(&shard_trace, &quorum_chaos);
        quorum_armed_secs = quorum_armed_secs.min(started.elapsed().as_secs_f64());
        assert_eq!(
            plain.digest(),
            screened.digest(),
            "arming the redundancy screen must never move the digest"
        );
        quorum_summary = screened.quorum;
    }
    let quorum = quorum_summary.unwrap_or_default();
    let vote_overhead_us =
        (quorum_armed_secs - quorum_unarmed_secs).max(0.0) * 1.0e6 / quorum.votes.max(1) as f64;
    println!(
        "  quorum screen (4 shards x 2 workers, corruption armed): {} votes, \
         {} disagreements, {}/{} caught ({:.1}%), {} lanes quarantined, \
         {:.1}µs vote overhead/job, digest unchanged",
        quorum.votes,
        quorum.disagreements,
        quorum.caught,
        quorum.injected,
        quorum.catch_rate() * 100.0,
        quorum.quarantined,
        vote_overhead_us
    );

    // Static-analysis timing: the semantic audit (DESIGN.md §16) over
    // the whole tree, first pass populating the per-file facts cache
    // and a second pass riding it, so the report carries both the cold
    // cost and the warm hit rate check.sh depends on.
    let mut audit_files = 0usize;
    let mut audit_findings = 0usize;
    let mut audit_waivers = 0usize;
    let mut audit_by_family = String::from("{}");
    let mut audit_pass_secs = 0.0f64;
    let mut audit_warm_secs = 0.0f64;
    let mut audit_hit_rate = 0.0f64;
    let audit_root = std::env::current_dir()
        .ok()
        .and_then(|d| bios_audit::walk::find_root(&d));
    if let Some(root) = audit_root {
        let audit_config = bios_audit::Config::default();
        let started = std::time::Instant::now();
        let first = bios_audit::audit_workspace(&root, &audit_config, true);
        audit_pass_secs = started.elapsed().as_secs_f64();
        let started = std::time::Instant::now();
        let second = bios_audit::audit_workspace(&root, &audit_config, true);
        audit_warm_secs = started.elapsed().as_secs_f64();
        if let (Ok(first), Ok(second)) = (first, second) {
            audit_files = second.files_scanned;
            audit_findings = second.findings.len();
            audit_waivers = second.waivers.len();
            audit_hit_rate = second.cache.hit_rate();
            let mut counts = std::collections::BTreeMap::new();
            for f in &first.findings {
                *counts.entry(f.rule.family()).or_insert(0usize) += 1;
            }
            audit_by_family = format!(
                "{{{}}}",
                ["D", "P", "F", "U", "G", "L", "W"]
                    .iter()
                    .map(|fam| format!("\"{fam}\": {}", counts.get(fam).copied().unwrap_or(0)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!(
                "  semantic audit: {} files, {} findings, {} waivers, \
                 {:.3}s first pass, {:.3}s warm pass ({:.0}% facts-cache hits)",
                audit_files,
                audit_findings,
                audit_waivers,
                audit_pass_secs,
                audit_warm_secs,
                audit_hit_rate * 100.0
            );
        }
    }

    // Storage torture (DESIGN.md §17): a compact campaign — both
    // crash sweeps (every op index of the monolithic and sharded
    // reference runs) plus a reduced mixed block — so the JSON
    // carries the trichotomy counts; `gate torture` runs the full
    // campaign under scripts/check.sh.
    let torture = bios_bench::torture::run_torture(40).unwrap_or_else(|e| {
        eprintln!("warning: storage torture reference run failed ({e}); reporting zeros");
        bios_bench::torture::TortureReport::default()
    });
    println!(
        "  storage torture: {} schedules ({} crash points): {} recovered, \
         {} degraded, {} typed errors, {} panics, {} divergences",
        torture.schedules,
        torture.crash_points,
        torture.recoveries,
        torture.degradations,
        torture.typed_errors,
        torture.panics,
        torture.divergences
    );

    // The JSON is emitted with a fixed, documented key order (schema
    // first, then sizing, timing, derived ratios, nested blocks) so
    // diffs between runs are line-stable; bump `schema_version` whenever
    // a key is added, removed, or reordered.
    let json = format!(
        "{{\n  \"schema_version\": 8,\n  \
         \"workers\": {},\n  \"available_cores\": {},\n  \"physical_cores\": {},\n  \
         \"jobs\": {},\n  \
         \"sequential_secs\": {:.6},\n  \"concurrent_secs\": {:.6},\n  \
         \"warm_cache_secs\": {:.6},\n  \"speedup\": {:.3},\n  \
         \"speedup_valid\": {},\n  \
         \"warm_cache_speedup\": {:.3},\n  \
         \"throughput_jobs_per_sec\": {:.3},\n  \"cache_hit_rate\": {:.4},\n  \
         \"armed_harmless_overhead\": {:.4},\n  \
         \"chaos\": {{\"intensity\": 0.75, \"completed\": {}, \"degraded\": {}, \
         \"failed\": {}, \"metrics\": {}}},\n  \
         \"gateway\": {{\"requests\": {}, \"executed\": {}, \"drained_tick\": {}, \
         \"admission_rejected\": {}, \"rate_limited\": {}, \"breaker_trips\": {}, \
         \"breaker_half_open_probes\": {}, \"browned_out\": {}, \"deadline_shed\": {}}},\n  \
         \"stream\": {{\"patients\": {}, \"horizon_ticks\": {}, \"drift_injected\": {}, \
         \"drift_detected\": {}, \"false_trips\": {}, \"detection_latency_mean_ticks\": {:.3}, \
         \"detection_latency_max_ticks\": {}, \"recal_enqueued\": {}, \"recal_completed\": {}, \
         \"recal_rejected\": {}, \"recal_degraded\": {}, \"epoch_swaps\": {}, \
         \"mean_mard\": {:.6}, \"drained_tick\": {}}},\n  \
         \"shard\": {{\"tenants\": 8, \"requests\": {}, \"digests_agree\": {}, \
         \"layouts\": [{}]}},\n  \
         \"quorum\": {{\"replicas\": 3, \"sampling\": 1.0, \"covered\": {}, \
         \"votes\": {}, \"escalations\": {}, \"disagreements\": {}, \"injected\": {}, \
         \"caught\": {}, \"catch_rate\": {:.4}, \"escaped\": {}, \
         \"lanes_quarantined\": {}, \"unarmed_secs\": {:.6}, \"armed_secs\": {:.6}, \
         \"vote_overhead_us_per_job\": {:.3}}},\n  \
         \"audit\": {{\"files\": {}, \"findings\": {}, \"waivers\": {}, \
         \"findings_by_family\": {}, \"first_pass_secs\": {:.6}, \
         \"warm_pass_secs\": {:.6}, \"cache_hit_rate\": {:.4}}},\n  \
         \"torture\": {{\"schedules\": {}, \"crash_points\": {}, \
         \"recoveries\": {}, \"degradations\": {}, \"typed_errors\": {}, \
         \"panics\": {}, \"divergences\": {}}},\n  \
         \"metrics\": {}\n}}\n",
        concurrent.workers,
        cores,
        physical_cores,
        fleet.len(),
        sequential.elapsed.as_secs_f64(),
        concurrent.elapsed.as_secs_f64(),
        cached.elapsed.as_secs_f64(),
        speedup,
        speedup_valid,
        warm_speedup,
        cached.throughput_jobs_per_sec(),
        metrics.cache_hit_rate(),
        armed_overhead,
        chaos_outcome.completed,
        chaos_outcome.degraded,
        chaos_outcome.failed,
        chaos_metrics.to_json(),
        trace.len(),
        overload.executed_ids().len(),
        overload.drained_tick,
        gc.admission_rejected,
        gc.rate_limited,
        gc.breaker_trips,
        gc.breaker_half_open_probes,
        gc.browned_out,
        gc.deadline_shed,
        stream.patients,
        stream.horizon_ticks,
        stream.drift_injected,
        stream.drift_detected,
        stream.false_trips,
        stream.mean_detection_latency(),
        stream.max_detection_latency(),
        stream.recal_enqueued,
        stream.recal_completed,
        stream.recal_rejected,
        stream.recal_degraded,
        stream.epoch_swaps,
        stream.mean_mard,
        stream.drained_tick,
        shard_trace.len(),
        shard_digests_agree,
        shard_rows.join(", "),
        quorum.covered,
        quorum.votes,
        quorum.escalations,
        quorum.disagreements,
        quorum.injected,
        quorum.caught,
        quorum.catch_rate(),
        quorum.escaped,
        quorum.quarantined,
        quorum_unarmed_secs,
        quorum_armed_secs,
        vote_overhead_us,
        audit_files,
        audit_findings,
        audit_waivers,
        audit_by_family,
        audit_pass_secs,
        audit_warm_secs,
        audit_hit_rate,
        torture.schedules,
        torture.crash_points,
        torture.recoveries,
        torture.degradations,
        torture.typed_errors,
        torture.panics,
        torture.divergences,
        metrics.to_json(),
    );
    let path = "BENCH_runtime.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
