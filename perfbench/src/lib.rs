//! The repository benchmark.
//!
//! Four seeded workloads drive the platform through its public API the
//! way a user would — a calibration campaign that misses the memo cache
//! (`catalog-cold`), the same campaign served from it (`catalog-warm`),
//! a multi-tenant ward trace through the sharded gateway
//! (`ward-serving`), and a monitored cohort's day (`cohort-day`). An
//! untraced run times whole passes and reports the end-to-end metrics;
//! a separate traced run replays each workload's jobs through the same
//! public functions the serving path calls, wrapped in in-memory spans
//! ([`span`]), and reports per-layer self times. See `README.md`.
//!
//! Sized for two logical CPUs: load comes from one process and one
//! driving thread, and pools are 2 workers or 2 shards × 1 worker.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod catalog;
mod cohort;
pub mod report;
pub mod span;
pub mod stats;
mod ward;

/// Worker threads in every pool the workloads build.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Catalog × fresh seeds through `Runtime::run_journaled`, cache
    /// full so every job misses and every insert evicts.
    CatalogCold,
    /// A cache-resident fleet replayed at a 100 % hit rate.
    CatalogWarm,
    /// A hotspot/burst tenant trace through `ShardedGateway::run_with`.
    WardServing,
    /// A generated cohort's 288-tick day through `StreamEngine`.
    CohortDay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CatalogCold,
        Workload::CatalogWarm,
        Workload::WardServing,
        Workload::CohortDay,
    ];

    /// The CLI / `BENCHMARK.json` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogCold => "catalog-cold",
            Workload::CatalogWarm => "catalog-warm",
            Workload::WardServing => "ward-serving",
            Workload::CohortDay => "cohort-day",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures at.
    Full,
    /// Smallest sizes on which every check still holds.
    Tiny,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced per-layer run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for temp journals and the span dump; created on demand.
    pub out_dir: PathBuf,
}

impl Options {
    /// A temp-file path unique to this process under [`Options::out_dir`].
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures as text.
    pub fn temp_path(&self, stem: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.out_dir.display()))?;
        Ok(self
            .out_dir
            .join(format!("{stem}-{}.tmp", std::process::id())))
    }
}

/// Work one timed pass accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassWork {
    /// Calibration jobs the pass executed or served.
    pub jobs: u64,
    /// Requests (or jobs) driven to a terminal disposition.
    pub requests: u64,
    /// Jobs that returned an error.
    pub job_errors: u64,
    /// Requests the admission layer refused (a correct, checked
    /// disposition — not a failure).
    pub refused: u64,
}

impl PassWork {
    fn add(&mut self, other: PassWork) {
        self.jobs += other.jobs;
        self.requests += other.requests;
        self.job_errors += other.job_errors;
        self.refused += other.refused;
    }
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// A check that holds when `ok`.
    #[must_use]
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_owned(),
            ok,
            detail,
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub passes: Passes,
    /// Pool layout, e.g. `2 workers`.
    pub pool: &'static str,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Workload-specific figures printed beside the metrics:
    /// `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Per-layer metrics `(name, value, unit, source)`; `source` says
    /// whether the number comes from this workload or from a probe.
    pub metrics: Vec<(&'static str, f64, &'static str, &'static str)>,
    /// Self time per span name, over every traced replay.
    pub self_times: BTreeMap<&'static str, span::SelfTime>,
    /// Summed wall of the traced replays, s.
    pub traced_s: f64,
    /// Summed wall of the same replays with the recorder off, s.
    pub untraced_s: f64,
    /// Jobs or requests replayed with tracing on.
    pub attempted: u64,
    /// Replayed jobs that returned an error.
    pub failed: u64,
    /// Output checks (replay parity and mechanism checks).
    pub checks: Vec<Check>,
    /// Where the span dump was written.
    pub span_dump: Option<PathBuf>,
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each state before the
/// next build, and returns the last state with every set-up's wall
/// time.
///
/// # Errors
///
/// The first set-up error.
pub(crate) fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        state = Some(built);
    }
    state
        .map(|s| (s, times))
        .ok_or_else(|| "no set-up ran".to_owned())
}

/// The timed passes of one run.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// Wall time of each pass, s.
    pub walls: Vec<f64>,
    /// Work of each pass.
    pub works: Vec<PassWork>,
    /// Work summed over the passes.
    pub total: PassWork,
    /// Whether the hypervisor stole CPU time while each pass ran.
    pub disturbed: Vec<bool>,
    /// Length of the measured window, s.
    pub window_s: f64,
}

impl Passes {
    /// Indices of the passes the timing statistics use: those the
    /// hypervisor left alone, unless they are under half of all passes
    /// (a run stolen from throughout), then every pass. On a shared
    /// host this keeps another guest's load out of the numbers, so they
    /// measure the program rather than the host's scheduler.
    #[must_use]
    pub fn steady(&self) -> Vec<usize> {
        let calm: Vec<usize> = (0..self.walls.len())
            .filter(|&i| !self.disturbed[i])
            .collect();
        if calm.len() * 2 >= self.walls.len() {
            calm
        } else {
            (0..self.walls.len()).collect()
        }
    }
}

/// Runs timed passes until `seconds` of wall time have gone by (at
/// least one). `pass` prepares its inputs, times only the call under
/// test, and returns that wall time with the work it did.
///
/// # Errors
///
/// The first pass error.
pub(crate) fn timed_passes(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<(Duration, PassWork), String>,
) -> Result<Passes, String> {
    let t0 = Instant::now();
    let mut out = Passes::default();
    while out.walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let stolen = stats::steal_ticks();
        let (wall, work) = pass(out.walls.len())?;
        out.disturbed.push(stats::steal_ticks() > stolen);
        out.walls.push(wall.as_secs_f64());
        out.works.push(work);
        out.total.add(work);
    }
    out.window_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs the selected workload untraced.
///
/// # Errors
///
/// A workload that could not run at all (set-up or IO failure).
pub fn measure(opts: &Options) -> Result<Measured, String> {
    match opts.workload {
        Workload::CatalogCold => catalog::measure_cold(opts),
        Workload::CatalogWarm => catalog::measure_warm(opts),
        Workload::WardServing => ward::measure(opts),
        Workload::CohortDay => cohort::measure(opts),
    }
}

/// Runs the selected workload's traced replay, then probes the layers
/// its path does not cross so every per-layer metric is measured.
///
/// # Errors
///
/// A replay that could not run at all.
pub fn trace(opts: &Options) -> Result<Traced, String> {
    let mut traced = match opts.workload {
        Workload::CatalogCold => catalog::trace(opts, true)?,
        Workload::CatalogWarm => catalog::trace(opts, false)?,
        Workload::WardServing => ward::trace(opts)?,
        Workload::CohortDay => cohort::trace(opts)?,
    };
    let probe = Options {
        scale: Scale::Tiny,
        ..opts.clone()
    };
    if opts.workload != Workload::WardServing {
        ward::probe(&probe, &mut traced)?;
    }
    if opts.workload != Workload::CohortDay {
        cohort::probe(&probe, &mut traced)?;
    }
    Ok(traced)
}
