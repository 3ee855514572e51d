//! The calibration campaign workloads (`catalog-cold`, `catalog-warm`)
//! and the job replay every traced run shares: one job decomposed into
//! the public calls `Runtime` makes for it — protocol fingerprint,
//! cache probe, sensor and readout-chain build, the calibrate
//! (`digitize`) loop, the linear-range fit, cache insert, seal — plus
//! the journal appends and seal of `Runtime::run_journaled`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Duration;

use bios_analytics::LinearRangeOptions;
use bios_core::catalog::{self, CalibrationOutcome, CatalogEntry};
use bios_core::protocol::{CalibrationProtocol, Chronoamperometry, CyclicVoltammetry};
use bios_core::sensor::Technique;
use bios_faults::FaultTally;
use bios_recover::journal::{Disposition, JournalWriter, Record, RunHeader};
use bios_runtime::{
    CacheKey, Fleet, JobError, JobResult, ResultCache, Runtime, RuntimeConfig, DEFAULT_CAPACITY,
};

use crate::span::{SelfTime, Tracer};
use crate::stats::{mix, timed};
use crate::WORKERS;
use crate::{repeated_setup, timed_passes, Check, Measured, Options, PassWork, Scale, Traced};

/// Every catalog entry: the Table 2 rows plus the multi-panel sensors.
#[must_use]
pub fn entries() -> Vec<CatalogEntry> {
    let mut entries = catalog::all_table2();
    entries.extend(catalog::multi_panel_sensors());
    entries
}

/// Campaign sizes, in seeds per catalog entry.
struct Sizes {
    /// Cold-path cache capacity (entries).
    capacity: usize,
    /// Seeds of the set-up pass that fills the cold cache past capacity.
    fill_seeds: u64,
    /// Seeds per timed cold pass.
    pass_seeds: u64,
    /// Seeds of the cache-resident warm fleet.
    warm_seeds: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 23 entries: 4600 fill jobs overflow the 4096-entry cache, a
        // cold pass is 1104 jobs, and the 2944-job warm fleet stays below
        // every cache shard's 256-entry bound (the hit-ratio check would
        // catch an eviction).
        Scale::Full => Sizes {
            capacity: DEFAULT_CAPACITY,
            fill_seeds: 200,
            pass_seeds: 48,
            warm_seeds: 128,
        },
        Scale::Tiny => Sizes {
            capacity: 32,
            fill_seeds: 3,
            pass_seeds: 1,
            warm_seeds: 1,
        },
    }
}

/// First job seed of a workload's seed space, derived from the CLI seed.
fn seed_base(opts: &Options) -> u64 {
    mix(opts.seed, opts.workload as u64) >> 24
}

/// The catalog crossed with `seeds`.
#[must_use]
pub fn fleet(name: &str, entries: &[CatalogEntry], seeds: Range<u64>) -> Fleet {
    Fleet::builder(name)
        .sensors(entries.iter().cloned())
        .seeds(seeds)
        .build()
}

/// The canonical digest of replayed results, byte-compatible with
/// `FleetReport::summaries_digest`.
#[must_use]
pub fn digest(results: &[JobResult]) -> String {
    results
        .iter()
        .map(|r| r.digest_line() + "\n")
        .collect::<String>()
}

/// Counts one replay accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Jobs replayed.
    pub jobs: u64,
    /// Jobs that ran the physics (cache misses).
    pub physics_jobs: u64,
    /// ADC samples those jobs digitized (`calibration_workload`).
    pub samples: u64,
    /// Cache probes that hit.
    pub hits: u64,
    /// Jobs that returned an error.
    pub errors: u64,
}

impl ReplayCounts {
    fn add(&mut self, o: ReplayCounts) {
        self.jobs += o.jobs;
        self.physics_jobs += o.physics_jobs;
        self.samples += o.samples;
        self.hits += o.hits;
        self.errors += o.errors;
    }
}

/// The physics of one cache miss, exactly as
/// `CatalogEntry::run_calibration` performs it on the healthy path.
fn calibrate(
    t: &mut Tracer,
    req: u64,
    entry: &CatalogEntry,
    seed: u64,
) -> Result<CalibrationOutcome, JobError> {
    let sensor = t.span("core.sensor_build", req, |_| entry.build_sensor());
    let mut chain = t.span("core.readout_build", req, |_| entry.build_readout(seed));
    let standards = entry.sweep().linspace(entry.sweep_points());
    let curve = t.span("core.calibrate", req, |_| match sensor.technique() {
        Technique::Chronoamperometry { .. } => {
            Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards)
        }
        _ => CyclicVoltammetry::default().calibrate(&sensor, &mut chain, &standards),
    });
    let summary = t.span("analytics.fit", req, |_| {
        curve.summary(&LinearRangeOptions::default())
    });
    summary
        .map(|summary| CalibrationOutcome { summary, curve })
        .map_err(|e| JobError::Calibration(e.into()))
}

/// Replays `fleet` job by job through the runtime's public pieces on
/// `cache`, one `runtime.job` span per job (request id = job index).
pub fn replay(
    t: &mut Tracer,
    fleet: &Fleet,
    cache: &ResultCache,
) -> (Vec<JobResult>, ReplayCounts) {
    let mut counts = ReplayCounts::default();
    let results = fleet
        .jobs()
        .iter()
        .map(|job| {
            let req = job.index as u64;
            let entry = &job.entry;
            counts.jobs += 1;
            t.span("runtime.job", req, |t| {
                let protocol = t.span("core.fingerprint", req, |_| entry.protocol_fingerprint());
                let key = CacheKey {
                    sensor: entry.id().to_owned(),
                    protocol,
                    plan: 0,
                    seed: job.seed,
                };
                let hit = t.span("runtime.cache_get", req, |_| cache.get(&key));
                let from_cache = hit.is_some();
                let outcome = match hit {
                    Some(outcome) => {
                        counts.hits += 1;
                        Ok(outcome)
                    }
                    None => {
                        counts.physics_jobs += 1;
                        counts.samples += entry.calibration_workload();
                        calibrate(t, req, entry, job.seed).map(|outcome| {
                            t.span("runtime.cache_insert", req, |_| cache.insert(key, outcome))
                        })
                    }
                };
                counts.errors += u64::from(outcome.is_err());
                t.span("runtime.seal", req, |_| {
                    JobResult {
                        index: job.index,
                        sensor: entry.id().to_owned(),
                        seed: job.seed,
                        wall: Duration::ZERO,
                        from_cache,
                        attempts: u32::from(!from_cache),
                        injected: FaultTally::default(),
                        outcome,
                        integrity: 0,
                    }
                    .sealed()
                })
            })
        })
        .collect();
    (results, counts)
}

fn disposition(result: &JobResult) -> Disposition {
    match &result.outcome {
        Err(_) => Disposition::Failed,
        Ok(_) if result.is_degraded() => Disposition::Degraded,
        Ok(_) => Disposition::Completed,
    }
}

/// Journals `results` the way `Runtime::run_journaled` does — header,
/// one `JobDone` record per job, then the sealing record and sync — and
/// returns `(bytes, records)` written.
///
/// # Errors
///
/// Journal IO failures, as text.
pub(crate) fn journal(
    t: &mut Tracer,
    fleet: &Fleet,
    results: &[JobResult],
    path: &Path,
) -> Result<(u64, u64), String> {
    let fail = |e: bios_recover::JournalError| format!("journal {}: {e}", path.display());
    let mut writer = t
        .span("recover.create", 0, |_| {
            let header = RunHeader {
                fleet: fleet.name().to_owned(),
                fingerprint: fleet.fingerprint(),
                jobs: fleet.len() as u64,
            };
            JournalWriter::create(path, &header)
        })
        .map_err(fail)?;
    for r in results {
        let req = r.index as u64;
        t.span("recover.append", req, |_| {
            let record =
                Record::job_done(req, disposition(r), u64::from(r.attempts), r.digest_line());
            writer.append(&record)
        })
        .map_err(fail)?;
    }
    t.span("recover.seal", 0, |_| {
        let sum = bios_recover::fnv1a(digest(results).as_bytes());
        writer.seal(results.len() as u64, sum)
    })
    .map_err(fail)?;
    Ok((writer.bytes_written(), writer.records_written()))
}

fn pool_config(workers: usize, capacity: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(workers)
        .with_cache_capacity(capacity)
}

fn job_errors(results: &[JobResult]) -> u64 {
    results.iter().filter(|r| r.outcome.is_err()).count() as u64
}

/// `catalog-cold`: the full catalog × fresh seeds per pass through
/// `Runtime::run_journaled`, on 2 workers whose cache set-up filled
/// past capacity — every job misses and every insert evicts.
///
/// # Errors
///
/// Set-up, journal, or IO failures.
pub(crate) fn measure_cold(opts: &Options) -> Result<Measured, String> {
    let sizes = sizes(opts.scale);
    let entries = entries();
    let base = seed_base(opts);
    let fill_end = base + sizes.fill_seeds;
    let (runtime, setup_s) = repeated_setup(|| {
        let runtime = Runtime::new(pool_config(WORKERS, sizes.capacity));
        let fill = runtime.run(&fleet("cold-fill", &entries, base..fill_end));
        match job_errors(&fill.results) {
            0 => Ok(runtime),
            n => Err(format!("{n} fill jobs failed")),
        }
    })?;
    let path = opts.temp_path("catalog-cold")?;
    let before = runtime.metrics();
    let mut last = None;
    let passes = timed_passes(opts.seconds, |p| {
        let start = fill_end + p as u64 * sizes.pass_seeds;
        let fleet = fleet("catalog-cold", &entries, start..start + sizes.pass_seeds);
        let (report, wall) = timed(|| runtime.run_journaled(&fleet, &path));
        let report = report.map_err(|e| format!("journaled pass failed: {e}"))?;
        let n = fleet.len() as u64;
        let work = PassWork {
            jobs: n,
            requests: n,
            job_errors: job_errors(&report.results),
            refused: 0,
        };
        last = Some((fleet, report));
        Ok((wall, work))
    })?;
    let work = passes.total;
    let after = runtime.metrics();
    let (fleet, report) = last.ok_or("no pass ran")?;
    let evictions = after.cache_evictions - before.cache_evictions;
    let hits = after.cache_hits - before.cache_hits;
    let expected = report.summaries_digest();
    let resumed = runtime
        .resume(&fleet, &path)
        .map_err(|e| format!("resume of the sealed journal failed: {e}"))?;
    let (replayed, _) = replay(
        &mut Tracer::new(false),
        &fleet,
        &ResultCache::with_capacity(sizes.capacity),
    );
    std::fs::remove_file(&path).ok();
    let checks = vec![
        Check::new(
            "replay digest equals Runtime::run digest",
            digest(&replayed) == expected,
            format!("{} jobs", replayed.len()),
        ),
        Check::new(
            "sealed journal replays to the same digest",
            resumed.summaries_digest() == expected && resumed.executed_jobs == 0,
            format!("{} resumed", resumed.resumed_jobs),
        ),
        Check::new(
            "cache evicts",
            evictions > 0,
            format!("{evictions} evictions / {} jobs", work.jobs),
        ),
        Check::new("no cache hits", hits == 0, format!("{hits} hits")),
        Check::new(
            "no job errors",
            work.job_errors == 0,
            format!("{} errors", work.job_errors),
        ),
    ];
    Ok(Measured {
        setup_s,
        passes,
        pool: "2 workers",
        checks,
        extra: Vec::new(),
    })
}

/// `catalog-warm`: a fleet smaller than the cache, filled during
/// set-up and replayed at a 100 % hit rate on 2 workers.
///
/// # Errors
///
/// Set-up failures.
pub(crate) fn measure_warm(opts: &Options) -> Result<Measured, String> {
    let sizes = sizes(opts.scale);
    let entries = entries();
    let base = seed_base(opts);
    let ((runtime, fleet, filled), setup_s) = repeated_setup(|| {
        let runtime = Runtime::new(pool_config(WORKERS, DEFAULT_CAPACITY));
        let fleet = fleet("catalog-warm", &entries, base..base + sizes.warm_seeds);
        let fill = runtime.run(&fleet);
        match job_errors(&fill.results) {
            0 => Ok((runtime, fleet, fill.summaries_digest())),
            n => Err(format!("{n} fill jobs failed")),
        }
    })?;
    let before = runtime.metrics();
    let mut last = None;
    let passes = timed_passes(opts.seconds, |_| {
        let (report, wall) = timed(|| runtime.run(&fleet));
        let n = fleet.len() as u64;
        let work = PassWork {
            jobs: n,
            requests: n,
            job_errors: job_errors(&report.results),
            refused: 0,
        };
        last = Some(report);
        Ok((wall, work))
    })?;
    let work = passes.total;
    let after = runtime.metrics();
    let evictions = after.cache_evictions - before.cache_evictions;
    let hits = after.cache_hits - before.cache_hits;
    let report = last.ok_or("no pass ran")?;
    let served = report.summaries_digest();
    let (replayed, _) = replay(
        &mut Tracer::new(false),
        &fleet,
        &ResultCache::with_capacity(DEFAULT_CAPACITY),
    );
    let checks = vec![
        Check::new(
            "replay digest equals Runtime::run digest",
            digest(&replayed) == served,
            format!("{} jobs", replayed.len()),
        ),
        Check::new(
            "cache serves the values set-up computed",
            served == filled,
            format!("{} jobs", fleet.len()),
        ),
        Check::new(
            "hit ratio is exactly 1",
            hits == work.jobs,
            format!("{hits} hits / {} jobs", work.jobs),
        ),
        Check::new("no evictions", evictions == 0, format!("{evictions}")),
        Check::new(
            "no job errors",
            work.job_errors == 0,
            format!("{} errors", work.job_errors),
        ),
    ];
    Ok(Measured {
        setup_s,
        passes,
        pool: "2 workers",
        checks,
        extra: Vec::new(),
    })
}

/// What [`trace_jobs`] replays.
pub(crate) struct JobSpec<'a> {
    /// Cache capacity of the replay cache and the reference runtime.
    pub capacity: usize,
    /// Set-up fleet run through both caches before measuring, and
    /// whether its replay is traced (the warm campaign's physics happens
    /// only there).
    pub prefill: Option<(Fleet, bool)>,
    /// Whether the workload journals (the reference run is then
    /// `run_journaled`, and the journal counts as path work).
    pub journaled: bool,
    /// Rebuild both caches before each iteration (fleets that repeat
    /// identical jobs and must miss every time).
    pub fresh_caches: bool,
    /// Fleet for the `k`-th replay (two per iteration: untraced, then
    /// reference + traced).
    pub fleet: Box<dyn FnMut(u64) -> Fleet + 'a>,
}

/// Accumulated output of [`trace_jobs`].
#[derive(Debug, Default)]
pub(crate) struct JobTrace {
    /// Self time per span name over every traced replay.
    pub times: BTreeMap<&'static str, SelfTime>,
    /// Counts over the timed traced replays.
    pub counts: ReplayCounts,
    /// Counts over every traced replay, a traced prefill included —
    /// the base of the per-sample and per-job physics figures.
    pub traced_physics: ReplayCounts,
    /// Cache evictions during the timed traced replays.
    pub evictions: u64,
    /// Journal bytes and records of the traced replays.
    pub journal_bytes: u64,
    /// See `journal_bytes`.
    pub journal_records: u64,
    /// Summed reference `Runtime` wall, s, and the jobs it ran.
    pub runtime_s: f64,
    /// Summed untraced replay wall that the reference run also did, s.
    pub replay_work_s: f64,
    /// Jobs behind `runtime_s` / `replay_work_s`.
    pub overhead_jobs: u64,
    /// Summed traced / untraced replay walls (journal included), s.
    pub traced_s: f64,
    /// See `traced_s`.
    pub untraced_s: f64,
    /// Replays whose digest differed from the reference run's.
    pub digest_mismatches: u64,
    /// Iterations run.
    pub iterations: u64,
}

/// The job layer's traced run: alternates an untraced replay, a
/// single-worker reference `Runtime` run, and a traced replay of the
/// reference's fleet, until `seconds` pass (at least one iteration).
/// The traced replay's digest must equal the reference run's.
///
/// # Errors
///
/// Journal IO failures.
pub(crate) fn trace_jobs(
    opts: &Options,
    mut spec: JobSpec<'_>,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<JobTrace, String> {
    let mut out = JobTrace::default();
    let caches = || {
        (
            ResultCache::with_capacity(spec.capacity),
            Runtime::new(pool_config(1, spec.capacity)),
        )
    };
    let (mut cache, mut reference) = caches();
    let mut quiet = Tracer::new(false);
    if let Some((fill, traced)) = &spec.prefill {
        let t = if *traced { &mut *tracer } else { &mut quiet };
        t.clear();
        let (results, counts) = replay(t, fill, &cache);
        if *traced {
            out.traced_physics.add(counts);
            t.fold_self_times(&mut out.times);
        }
        if job_errors(&results) > 0 {
            return Err("prefill jobs failed".to_owned());
        }
        let _ = reference.run(fill);
    }
    let journal_path = opts.temp_path("replay-journal")?;
    let reference_path = opts.temp_path("reference-journal")?;
    let started = std::time::Instant::now();
    let mut k = 0u64;
    while out.iterations == 0 || started.elapsed().as_secs_f64() < seconds {
        if spec.fresh_caches {
            (cache, reference) = caches();
        }
        // Untraced: the same replay with the recorder off.
        let fleet_u = (spec.fleet)(k);
        let ((results_u, _), replay_wall) = timed(|| replay(&mut quiet, &fleet_u, &cache));
        let (journaled, journal_wall) =
            timed(|| journal(&mut quiet, &fleet_u, &results_u, &journal_path));
        journaled?;
        out.untraced_s += (replay_wall + journal_wall).as_secs_f64();
        // Reference: what the serving path really costs per job.
        if spec.fresh_caches {
            (cache, reference) = caches();
        }
        let fleet_r = (spec.fleet)(k + 1);
        let (report, runtime_wall) = timed(|| {
            if spec.journaled {
                reference.run_journaled(&fleet_r, &reference_path)
            } else {
                Ok(reference.run(&fleet_r))
            }
        });
        let report = report.map_err(|e| format!("reference run failed: {e}"))?;
        out.runtime_s += runtime_wall.as_secs_f64();
        out.replay_work_s += replay_wall.as_secs_f64()
            + if spec.journaled {
                journal_wall.as_secs_f64()
            } else {
                0.0
            };
        out.overhead_jobs += fleet_r.len() as u64;
        // Traced: the reference's fleet, spans on.
        tracer.clear();
        let evictions_before = cache.evictions();
        let ((results, counts), traced_replay) = timed(|| replay(tracer, &fleet_r, &cache));
        let (bytes, traced_journal) = timed(|| journal(tracer, &fleet_r, &results, &journal_path));
        let (bytes, records) = bytes?;
        out.traced_s += (traced_replay + traced_journal).as_secs_f64();
        out.evictions += cache.evictions() - evictions_before;
        out.counts.add(counts);
        out.traced_physics.add(counts);
        out.journal_bytes += bytes;
        out.journal_records += records;
        out.digest_mismatches += u64::from(digest(&results) != report.summaries_digest());
        tracer.fold_self_times(&mut out.times);
        out.iterations += 1;
        k += 2;
    }
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&reference_path).ok();
    Ok(out)
}

impl JobTrace {
    /// The job-path per-layer metrics. `journal_source` labels the
    /// `recover.*` rows (the journal is on the path only for
    /// `catalog-cold`).
    #[must_use]
    pub fn metrics(
        &self,
        source: &'static str,
        journal_source: &'static str,
    ) -> Vec<(&'static str, f64, &'static str, &'static str)> {
        let us = |name: &str| {
            self.times
                .get(name)
                .copied()
                .unwrap_or_default()
                .us_per_call()
        };
        let calibrate_ns = self.times.get("core.calibrate").map_or(0, |s| s.self_ns) as f64;
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        vec![
            ("core.fingerprint_us", us("core.fingerprint"), "us", source),
            (
                "runtime.cache_get_us",
                us("runtime.cache_get"),
                "us",
                source,
            ),
            ("runtime.seal_us", us("runtime.seal"), "us", source),
            (
                "runtime.overhead_us_per_job",
                (self.runtime_s - self.replay_work_s) * 1e6 / self.overhead_jobs.max(1) as f64,
                "us",
                source,
            ),
            (
                "core.sensor_build_us",
                us("core.sensor_build"),
                "us",
                source,
            ),
            (
                "core.readout_build_us",
                us("core.readout_build"),
                "us",
                source,
            ),
            ("core.calibrate_us", us("core.calibrate"), "us", source),
            ("analytics.fit_us", us("analytics.fit"), "us", source),
            (
                "core.samples_per_job",
                per(
                    self.traced_physics.samples,
                    self.traced_physics.physics_jobs,
                ),
                "count",
                source,
            ),
            (
                "instrument.ns_per_sample",
                calibrate_ns / self.traced_physics.samples.max(1) as f64,
                "ns",
                source,
            ),
            (
                "runtime.cache_insert_us",
                us("runtime.cache_insert"),
                "us",
                source,
            ),
            (
                "runtime.cache_evictions",
                per(self.evictions, self.counts.jobs),
                "count",
                source,
            ),
            (
                "runtime.cache_hit_ratio",
                per(self.counts.hits, self.counts.jobs),
                "ratio",
                source,
            ),
            (
                "recover.append_us",
                us("recover.append"),
                "us",
                journal_source,
            ),
            (
                "recover.seal_ms",
                us("recover.seal") / 1e3,
                "ms",
                journal_source,
            ),
            (
                "recover.bytes_per_record",
                per(self.journal_bytes, self.journal_records),
                "B",
                journal_source,
            ),
        ]
    }

    /// Turns the job trace into a [`Traced`] with the parity check.
    #[must_use]
    pub fn into_traced(
        self,
        metrics: Vec<(&'static str, f64, &'static str, &'static str)>,
        mut checks: Vec<Check>,
        tracer: &Tracer,
        opts: &Options,
    ) -> Traced {
        checks.insert(
            0,
            Check::new(
                "traced replay digest equals Runtime::run digest",
                self.digest_mismatches == 0 && self.iterations > 0,
                format!(
                    "{} of {} replays differ",
                    self.digest_mismatches, self.iterations
                ),
            ),
        );
        checks.push(Check::new(
            "no replayed job errors",
            self.counts.errors == 0,
            format!("{} errors", self.counts.errors),
        ));
        Traced {
            metrics,
            span_dump: dump_spans(tracer, opts),
            self_times: self.times,
            traced_s: self.traced_s,
            untraced_s: self.untraced_s,
            attempted: self.counts.jobs,
            failed: self.counts.errors,
            checks,
        }
    }
}

/// Writes the tracer's spans (the last traced replay) to the output
/// directory; `None` when that fails — the dump is a by-product.
fn dump_spans(tracer: &Tracer, opts: &Options) -> Option<std::path::PathBuf> {
    std::fs::create_dir_all(&opts.out_dir).ok()?;
    let path = opts
        .out_dir
        .join(format!("spans-{}.tsv", opts.workload.name()));
    tracer.dump(&path).ok().map(|()| path)
}

/// The catalog workloads' traced run.
///
/// # Errors
///
/// Journal IO failures.
pub(crate) fn trace(opts: &Options, cold: bool) -> Result<Traced, String> {
    let sizes = sizes(opts.scale);
    let entries = entries();
    let base = seed_base(opts);
    let mut tracer = Tracer::new(true);
    let spec = if cold {
        let start = base + sizes.fill_seeds;
        let pass = sizes.pass_seeds;
        JobSpec {
            capacity: sizes.capacity,
            prefill: Some((fleet("cold-fill", &entries, base..start), false)),
            journaled: true,
            fresh_caches: false,
            fleet: Box::new(move |k| {
                let from = start + k * pass;
                fleet("catalog-cold", &entries, from..from + pass)
            }),
        }
    } else {
        let warm = fleet("catalog-warm", &entries, base..base + sizes.warm_seeds);
        JobSpec {
            capacity: DEFAULT_CAPACITY,
            prefill: Some((warm.clone(), true)),
            journaled: false,
            fresh_caches: false,
            fleet: Box::new(move |_| warm.clone()),
        }
    };
    let jobs = trace_jobs(opts, spec, opts.seconds, &mut tracer)?;
    let journal_source = if cold { "workload" } else { "probe" };
    let mut checks = Vec::new();
    if cold {
        checks.push(Check::new(
            "cache evicts during the replay",
            jobs.evictions > 0,
            format!("{} evictions", jobs.evictions),
        ));
    } else {
        checks.push(Check::new(
            "replay hit ratio is exactly 1 after set-up",
            jobs.counts.hits == jobs.counts.jobs,
            format!("{} hits / {} jobs", jobs.counts.hits, jobs.counts.jobs),
        ));
    }
    let metrics = jobs.metrics("workload", journal_source);
    Ok(jobs.into_traced(metrics, checks, &tracer, opts))
}
