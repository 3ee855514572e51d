//! The digest gate: every determinism scenario of the platform as one
//! row of a table. A row names a scenario, the layouts it runs in
//! (worker counts, shard layouts, a quarantined shard, an armed
//! corruption drill, a crash and resume), the golden FNV-1a digest
//! every layout must reproduce, and the mechanism checks proving the
//! scenario actually exercised what it claims to. Goldens live in the
//! table below, so any digest drift shows up as a diff of this file.
//!
//! ```text
//! gate            # every row
//! gate shard      # one row: crash, overload, stream, stream-provisioned,
//!                 # shard, quorum, torture
//! ```
//!
//! Exit status is non-zero when two layouts of a row disagree, a
//! digest differs from its golden, or a mechanism check is false; each
//! failure names its scenario and layout.

// A CLI gate reports on stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use bios_bench::torture;
use bios_core::catalog::{self, CatalogEntry};
use bios_faults::{FaultKind, FaultPlan};
use bios_gateway::{BreakerConfig, Gateway, GatewayConfig, Request, TokenBucket};
use bios_quorum::QuorumConfig;
use bios_recover::{fnv1a, RealIo};
use bios_runtime::{Fleet, JournalOptions, MetricsSnapshot, Runtime, RuntimeConfig};
use bios_shard::{tenant_trace, ShardChaos, ShardConfig, ShardedGateway, ShardedReport};
use bios_stream::{StreamConfig, StreamEngine, StreamReport};

/// One gate scenario: every layout must reproduce `golden` and pass
/// every mechanism check its run reports.
struct Row {
    scenario: &'static str,
    golden: u64,
    layouts: &'static [Layout],
    run: fn(Layout) -> Result<Run, String>,
}

/// The gate table. Goldens are spelled as the gate prints them
/// (`digest_fnv=0x…`), so a search for a printed digest finds its row.
const ROWS: &[Row] = &[
    Row {
        scenario: "crash",
        golden: 0xc64d40d94bc43f8d,
        layouts: &[workers(4, Mode::Plain), workers(8, Mode::CrashResume)],
        run: crash,
    },
    Row {
        scenario: "overload",
        golden: 0xe994ee45fb217b81,
        layouts: &[workers(1, Mode::Plain), workers(8, Mode::Plain)],
        run: overload,
    },
    Row {
        scenario: "stream",
        golden: 0x52edf2ac22ed2154,
        layouts: &[workers(1, Mode::Plain), workers(8, Mode::Plain)],
        run: stream,
    },
    Row {
        scenario: "stream-provisioned",
        golden: 0xe1bb99004743e4b3,
        layouts: &[workers(1, Mode::Plain), workers(8, Mode::Plain)],
        run: stream_provisioned,
    },
    Row {
        scenario: "shard",
        golden: 0x315892f686320e05,
        layouts: &[
            sharded(1, 1, Mode::Plain),
            sharded(4, 2, Mode::Plain),
            sharded(8, 8, Mode::Plain),
            sharded(4, 2, Mode::Quarantine),
        ],
        run: shard,
    },
    // Arming the screen may never move a byte: the armed and unarmed
    // runs share the shard row's golden.
    Row {
        scenario: "quorum",
        golden: 0x315892f686320e05,
        layouts: &[
            sharded(1, 1, Mode::Armed),
            sharded(4, 2, Mode::Armed),
            sharded(8, 8, Mode::Armed),
            sharded(4, 2, Mode::Plain),
        ],
        run: quorum,
    },
    // The torture harness sizes its own runtimes (2 workers); the
    // layout only labels the row.
    Row {
        scenario: "torture",
        golden: 0xe23e1ffbb36fbada,
        layouts: &[workers(2, Mode::Plain)],
        run: torture,
    },
];

/// Where and how one layout of a scenario runs. `shards == 0` means
/// an unsharded runtime or gateway.
#[derive(Debug, Clone, Copy)]
struct Layout {
    shards: usize,
    workers: usize,
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    /// One shard is lost at tick 1 and its tenants redistributed.
    Quarantine,
    /// Silent corruption on every tenant, the quorum screen voting.
    Armed,
    /// A child process aborts after 5 durable records; the journal is
    /// then resumed in-process at the layout's worker count.
    CrashResume,
}

const fn workers(workers: usize, mode: Mode) -> Layout {
    Layout {
        shards: 0,
        workers,
        mode,
    }
}

const fn sharded(shards: usize, workers: usize, mode: Mode) -> Layout {
    Layout {
        shards,
        workers,
        mode,
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shards == 0 {
            let plural = if self.workers == 1 { "" } else { "s" };
            write!(f, "{} worker{plural}", self.workers)?;
        } else {
            write!(f, "{}x{}", self.shards, self.workers)?;
        }
        match self.mode {
            Mode::Plain => Ok(()),
            Mode::Quarantine => f.write_str(" quarantined"),
            Mode::Armed => f.write_str(" armed"),
            Mode::CrashResume => f.write_str(" crash+resume"),
        }
    }
}

/// What one layout produced.
struct Run {
    digest: u64,
    /// Mechanism counts, printed beside the digest.
    counts: String,
    /// `(mechanism, held)` — every one must hold.
    checks: Vec<(&'static str, bool)>,
}

/// Judges one row: every run must have succeeded, passed its checks,
/// and matched both the other layouts and the golden. Returns one
/// message per failure, each naming the scenario.
fn judge(scenario: &str, golden: u64, runs: &[(String, Result<Run, String>)]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut first: Option<(&str, u64)> = None;
    for (layout, run) in runs {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                failures.push(format!("{scenario} [{layout}]: run failed: {e}"));
                continue;
            }
        };
        for (mechanism, held) in &run.checks {
            if !held {
                failures.push(format!("{scenario} [{layout}]: check failed: {mechanism}"));
            }
        }
        match first {
            None => first = Some((layout, run.digest)),
            Some((other, digest)) if digest != run.digest => failures.push(format!(
                "{scenario}: layouts disagree: [{other}] 0x{digest:016x} vs [{layout}] 0x{:016x}",
                run.digest
            )),
            Some(_) => {}
        }
        if run.digest != golden {
            failures.push(format!(
                "{scenario} [{layout}]: digest 0x{:016x} differs from golden 0x{golden:016x}",
                run.digest
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    bios_bench::silence_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, journal] = args.as_slice() {
        if flag == CRASH_CHILD {
            return crash_child(Path::new(journal));
        }
    }
    let rows: Vec<&Row> = match args.as_slice() {
        [] => ROWS.iter().collect(),
        [name] => ROWS
            .iter()
            .filter(|r| r.scenario == name.as_str())
            .collect(),
        _ => Vec::new(),
    };
    if rows.is_empty() {
        let names: Vec<&str> = ROWS.iter().map(|r| r.scenario).collect();
        eprintln!("usage: gate [{}]", names.join(" | "));
        return ExitCode::from(2);
    }

    let mut failures = Vec::new();
    for row in rows {
        println!("==> {} (golden 0x{:016x})", row.scenario, row.golden);
        let mut runs = Vec::new();
        for &layout in row.layouts {
            let label = layout.to_string();
            let run = (row.run)(layout);
            match &run {
                Ok(r) => println!(
                    "    {label:<22} digest_fnv=0x{:016x}  {}",
                    r.digest, r.counts
                ),
                Err(e) => println!("    {label:<22} error: {e}"),
            }
            runs.push((label, run));
        }
        failures.extend(judge(row.scenario, row.golden, &runs));
    }
    if failures.is_empty() {
        println!("gate: every layout matched its golden and every mechanism fired");
        return ExitCode::SUCCESS;
    }
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    ExitCode::FAILURE
}

// ---- crash: a killed journaled fleet resumes byte-identically ----

/// Re-executes this binary as `gate <CRASH_CHILD> <journal>`: the child
/// runs the crash fleet and aborts after [`CRASH_AFTER`] durable
/// records, exactly as `kill -9` would. Not a user-facing scenario.
const CRASH_CHILD: &str = "__crash-child";
const CRASH_AFTER: u64 = 5;

fn crash_fleet() -> Fleet {
    let plan = FaultPlan::builder("crash-gate", 0x9A7E)
        .spec(FaultKind::TransientGlitch, 0.6, 0.4)
        .spec(FaultKind::WorkerPanic, 0.2, 1.0)
        .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
        .build();
    Fleet::builder("crash-gate")
        .sensors(catalog::all_table2())
        .seeds(0..3)
        .fault_plan(plan)
        .build()
}

fn crash_runtime(workers: usize) -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(workers)
            .with_cache(false)
            .with_retry_backoff(Duration::from_micros(10)),
    )
}

fn crash_child(journal: &Path) -> ExitCode {
    let options = JournalOptions {
        crash_after_jobs: Some(CRASH_AFTER),
    };
    // Aborts the process mid-fleet. Returning at all means it never
    // crashed, which the parent's resumed/executed checks catch.
    match crash_runtime(4).run_journaled_on(&RealIo, &crash_fleet(), journal, options) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("journaled run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn crash(layout: Layout) -> Result<Run, String> {
    let fleet = crash_fleet();
    // Unique to this process and layout; removed after the run.
    let journal = std::env::temp_dir().join(format!(
        "bios-gate-{}-{}.journal",
        std::process::id(),
        layout.workers
    ));
    let _ = std::fs::remove_file(&journal);
    let run = if layout.mode == Mode::CrashResume {
        crash_and_resume(&fleet, &journal, layout.workers)
    } else {
        crash_runtime(layout.workers)
            .run_journaled_on(&RealIo, &fleet, &journal, JournalOptions::default())
            .map(|report| Run {
                digest: fnv1a(report.summaries_digest().as_bytes()),
                counts: format!("{} jobs ({})", fleet.len(), report.outcome_summary()),
                checks: Vec::new(),
            })
            .map_err(|e| format!("journaled run failed: {e}"))
    };
    let _ = std::fs::remove_file(&journal);
    run
}

fn crash_and_resume(fleet: &Fleet, journal: &Path, workers: usize) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the gate binary: {e}"))?;
    let status = Command::new(exe)
        .arg(CRASH_CHILD)
        .arg(journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn the crash child: {e}"))?;
    let report = crash_runtime(workers)
        .resume(fleet, journal)
        .map_err(|e| format!("resume failed: {e}"))?;
    Ok(Run {
        digest: report.digest_fnv(),
        counts: format!(
            "child {status}, resumed {} of {}, executed {} ({})",
            report.resumed_jobs, report.total_jobs, report.executed_jobs, report.outcome
        ),
        checks: vec![
            ("crash child died", !status.success()),
            ("resumed_jobs == 5", report.resumed_jobs == 5),
            ("executed_jobs == 49", report.executed_jobs == 49),
        ],
    })
}

// ---- overload: a bursty trace sheds, browns out, and breaks, boundedly ----

/// Two tenants, a healthy glucose family, and a poisoned lactate
/// family (two sweep points are below the analytics three-standard
/// minimum, so its calibrations fail deterministically), arrivals
/// compressed by a `TrafficBurst` spec.
fn overload_trace(gateway: &Gateway) -> Vec<Request> {
    let plan = FaultPlan::builder("overload-gate", 0x6A7E)
        .spec(FaultKind::TrafficBurst, 0.12, 0.9)
        .build();
    let poisoned = catalog::our_lactate_sensor().with_sweep_points(2);
    let pairs: Vec<(CatalogEntry, u64)> = (0..48)
        .map(|i| {
            if i % 4 == 3 {
                (poisoned.clone(), i)
            } else {
                (catalog::our_glucose_sensor(), i)
            }
        })
        .collect();
    let mut trace = gateway.trace_from_plan(&plan, &pairs, "ward-a", 3);
    for (i, req) in trace.iter_mut().enumerate() {
        if i % 3 == 0 {
            req.tenant = "ward-b".to_string();
        }
    }
    trace
}

fn overload(layout: Layout) -> Result<Run, String> {
    let config = GatewayConfig {
        queue_capacity: 6,
        service_slots: 3,
        default_deadline_ticks: 48,
        bucket_capacity_milli: 5 * TokenBucket::WHOLE_TOKEN,
        bucket_refill_milli_per_tick: TokenBucket::WHOLE_TOKEN,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown_ticks: 6,
            probe_quota: 1,
        },
        ..GatewayConfig::default()
    };
    let gateway = Gateway::new(config, Runtime::with_workers(layout.workers));
    let trace = overload_trace(&gateway);
    let total = trace.len() as u64;
    let report = gateway.run(&trace);
    let c = report.counters;
    let m = gateway.metrics();
    let executed = report.executed_ids().len() as u64;
    Ok(Run {
        digest: fnv1a(report.digest().as_bytes()),
        counts: format!(
            "{executed}/{total} executed, drained at {}; {c}",
            report.drained_tick
        ),
        checks: vec![
            ("rate limiter fired", c.rate_limited > 0),
            ("bounded queue overflowed", c.admission_rejected > 0),
            ("brownout engaged", c.browned_out > 0),
            ("poisoned family tripped", c.breaker_trips > 0),
            ("half executed", executed * 2 >= total),
            ("not all rejected", c.total_rejected() < total),
            ("clean drain", report.clean_drain()),
            (
                "metered gateway counters == report.counters",
                [
                    m.admission_rejected,
                    m.rate_limited,
                    m.breaker_trips,
                    m.breaker_half_open_probes,
                    m.browned_out,
                    m.deadline_shed,
                ] == [
                    c.admission_rejected,
                    c.rate_limited,
                    c.breaker_trips,
                    c.breaker_half_open_probes,
                    c.browned_out,
                    c.deadline_shed,
                ],
            ),
        ],
    })
}

// ---- stream: a day of an aging cohort through drift-detect/recalibrate ----

fn stream(layout: Layout) -> Result<Run, String> {
    // Wider intake than the default front door, yet a shared aging
    // cohort trips monitors in bursts that still overflow it: most
    // offered recalibrations are refused as `admission_rejected` and
    // retried after the backoff. The row pins the stream loop's
    // determinism, not recalibration capacity; the counts line prints
    // the refusals so the shortfall stays visible.
    let r = stream_day(layout.workers, 8, None);
    Ok(Run {
        digest: fnv1a(r.digest().as_bytes()),
        counts: stream_counts(&r),
        checks: vec![
            ("bootstrap_failed == 0", r.bootstrap_failed == 0),
            ("drift injected", r.drift_injected > 0),
            ("drift detected", r.drift_detected > 0),
            ("epochs swapped", r.epoch_swaps > 0),
            ("detected <= injected", r.drift_detected <= r.drift_injected),
            ("false_trips == 0", r.false_trips == 0),
            ("recal_degraded == 0", r.recal_degraded == 0),
            (
                "enqueued == completed + failed + rejected",
                r.recal_enqueued == r.recal_completed + r.recal_failed + r.recal_rejected,
            ),
        ],
    })
}

/// The stream row's cohort (1000 patients, one 288-tick day) behind a
/// queue of 64 and `slots` service slots; `max_recalibrations`
/// overrides the per-patient cap.
fn stream_day(workers: usize, slots: usize, max_recalibrations: Option<u32>) -> StreamReport {
    let config = GatewayConfig {
        queue_capacity: 64,
        service_slots: slots,
        ..GatewayConfig::default()
    };
    let mut stream = StreamConfig::new(1000, 288, 0x57AE_A11E);
    if let Some(max) = max_recalibrations {
        stream = stream.with_max_recalibrations(max);
    }
    StreamEngine::new(stream, Gateway::new(config, Runtime::with_workers(workers))).run()
}

fn stream_counts(r: &StreamReport) -> String {
    format!(
        "{}x{} ticks: drifted={} detected={} swapped={} false_trips={} enqueued={} \
         completed={} rejected={} degraded={} failed={} mean_mard={:.4} {}",
        r.patients,
        r.horizon_ticks,
        r.drift_injected,
        r.drift_detected,
        r.epoch_swaps,
        r.false_trips,
        r.recal_enqueued,
        r.recal_completed,
        r.recal_rejected,
        r.recal_degraded,
        r.recal_failed,
        r.mean_mard,
        r.gateway
    )
}

// ---- stream-provisioned: enough analyzer capacity restores accuracy ----

fn stream_provisioned(layout: Layout) -> Result<Run, String> {
    // The stream row's cohort with 32 service slots, enough that no
    // recalibration is refused. Its MARD must beat both the 8-slot
    // row, which refuses most recalibrations, and a control that never
    // recalibrates: recalibration is what restores accuracy.
    let r = stream_day(layout.workers, 32, None);
    let starved = stream_day(layout.workers, 8, None);
    let control = stream_day(layout.workers, 32, Some(0));
    Ok(Run {
        digest: fnv1a(r.digest().as_bytes()),
        counts: format!(
            "{} starved_mard={:.4} control_mard={:.4}",
            stream_counts(&r),
            starved.mean_mard,
            control.mean_mard
        ),
        checks: vec![
            ("recal_rejected == 0", r.recal_rejected == 0),
            ("epochs swapped", r.epoch_swaps > 0),
            (
                "mean_mard < 8-slot mean_mard",
                r.mean_mard < starved.mean_mard,
            ),
            (
                "mean_mard < no-recalibration mean_mard",
                r.mean_mard < control.mean_mard,
            ),
        ],
    })
}

// ---- shard and quorum: placement and voting never move a byte ----

/// 8 wards x 6 requests with tight arrivals, shared by both rows.
fn run_sharded(
    layout: Layout,
    chaos: &ShardChaos,
) -> (ShardedGateway, ShardedReport, Vec<(&'static str, bool)>) {
    let trace = tenant_trace(8, 6, 2, 96, None);
    let sharded = ShardedGateway::new(
        ShardConfig::default()
            .with_shards(layout.shards)
            .with_workers_per_shard(layout.workers),
    );
    let report = sharded.run_with(&trace, chaos);
    let checks = vec![
        ("something executed", report.executed() > 0),
        (
            "every request terminal",
            report.outcomes.len() == trace.len(),
        ),
    ];
    (sharded, report, checks)
}

fn shard(layout: Layout) -> Result<Run, String> {
    let quarantine = layout.mode == Mode::Quarantine;
    // ward-00's home shard is lost at tick 1; its tenants must
    // redistribute without moving the digest.
    let chaos = if quarantine {
        let home = bios_shard::home_shard("ward-00", layout.shards);
        ShardChaos::none().with_shard_loss_at(home, 1)
    } else {
        ShardChaos::none()
    };
    let (_, report, mut checks) = run_sharded(layout, &chaos);
    let redistributed: u64 = report.placement.iter().map(|p| p.redistributions_in).sum();
    let quarantined = report.quarantined_shards().len();
    if layout.shards > 1 {
        // The load-aware rule must actually move work somewhere in
        // this trace, or the golden proves nothing about stealing.
        checks.push(("steals > 0", report.steals() > 0));
    }
    if quarantine {
        checks.push(("a shard quarantined", quarantined > 0));
        checks.push(("its tenants redistributed", redistributed > 0));
    }
    Ok(Run {
        digest: report.digest_fnv(),
        counts: format!(
            "{} executed, {} steals, {quarantined} quarantined, {redistributed} redistributed",
            report.executed(),
            report.steals()
        ),
        checks,
    })
}

fn quorum(layout: Layout) -> Result<Run, String> {
    let armed = layout.mode == Mode::Armed;
    let mut chaos = ShardChaos::none();
    if armed {
        let plan = FaultPlan::builder("quorum drill", 0xC0DE)
            .spec(FaultKind::SilentCorruption, 0.45, 0.8)
            .build();
        chaos = chaos.with_quorum(QuorumConfig {
            sampling: 1.0,
            ..QuorumConfig::default()
        });
        for ward in 0..8 {
            chaos = chaos.with_tenant_plan(&format!("ward-{ward:02}"), plan.clone());
        }
    }
    let (sharded, report, mut checks) = run_sharded(layout, &chaos);
    // What the shards' runtimes metered, summed. `corruption_caught`
    // has no mirror: integrity hops bump it beside the screen's votes.
    let metered = |count: fn(&MetricsSnapshot) -> u64| -> u64 {
        (0..sharded.shards())
            .filter_map(|i| sharded.gateway(i))
            .map(|g| count(&g.metrics()))
            .sum()
    };
    let counts = match (&report.quorum, armed) {
        (Some(q), true) => {
            checks.extend([
                ("screen voted", q.votes > 0),
                ("corruption drill fired", q.injected > 0),
                ("a vote disagreed", q.disagreements > 0),
                ("catch rate >= 0.99", q.catch_rate() >= 0.99),
                ("escaped == 0", q.escaped == 0),
                ("repeat offenders quarantined", q.quarantined > 0),
                (
                    "metered quorum_votes == votes",
                    metered(|m| m.quorum_votes) == q.votes,
                ),
                (
                    "metered disagreements == disagreements",
                    metered(|m| m.disagreements) == q.disagreements,
                ),
                (
                    "metered suspects_quarantined == quarantined",
                    metered(|m| m.suspects_quarantined) == q.quarantined,
                ),
            ]);
            format!(
                "{} votes, {} disagreements, {}/{} caught, {} escaped, {} lanes quarantined",
                q.votes, q.disagreements, q.caught, q.injected, q.escaped, q.quarantined
            )
        }
        (None, true) => {
            checks.push(("armed run carries a quorum summary", false));
            "no quorum summary".to_string()
        }
        (q, false) => {
            checks.push(("unarmed run carries no quorum summary", q.is_none()));
            format!("{} executed, unarmed", report.executed())
        }
    };
    Ok(Run {
        digest: report.digest_fnv(),
        counts,
        checks,
    })
}

// ---- torture: hundreds of storage-fault schedules land in the trichotomy ----

/// Randomized mixed-fault schedules on top of the two crash sweeps;
/// together they clear the 200-schedule floor.
const MIXED_SCHEDULES: u64 = 240;

fn torture(_: Layout) -> Result<Run, String> {
    let fleet = torture::torture_fleet();
    let golden = torture::golden_digest(&fleet);
    let ops = torture::reference_op_count(&fleet, &golden)?;
    let sweep = torture::crash_sweep(&fleet, &golden, ops);
    let sharded = torture::sharded_crash_sweep(&fleet, &golden)?;
    let mut total = sweep;
    total.merge(&sharded);
    let mixed = torture::mixed_campaign(&fleet, &golden, MIXED_SCHEDULES, 0x70B7);
    total.merge(&mixed);
    Ok(Run {
        digest: fnv1a(golden.as_bytes()),
        counts: format!(
            "schedules={} crash_points={}+{} recoveries={} degradations={} typed_errors={} \
             panics={} divergences={}",
            total.schedules,
            sweep.crash_points,
            sharded.crash_points,
            total.recoveries,
            total.degradations,
            total.typed_errors,
            total.panics,
            total.divergences
        ),
        // The exact counts are a pure function of the storage op
        // sequence of the journaled runs (which sets the crash points
        // and where each schedule lands) and of the seeded fault
        // scripts; a journal change that moves either moves them.
        checks: vec![
            ("monolithic crash_points == 41", sweep.crash_points == 41),
            ("sharded crash_points == 51", sharded.crash_points == 51),
            ("recoveries == 260", total.recoveries == 260),
            ("degradations == 59", total.degradations == 59),
            ("typed_errors == 13", total.typed_errors == 13),
            (
                "monolithic sweep recovered 100%",
                sweep.recoveries == sweep.schedules,
            ),
            (
                "sharded sweep recovered 100%",
                sharded.recoveries == sharded.schedules,
            ),
            ("panics == 0", total.panics == 0),
            ("divergences == 0", total.divergences == 0),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(digest: u64, held: bool) -> Result<Run, String> {
        Ok(Run {
            digest,
            counts: String::new(),
            checks: vec![("the mechanism fired", held)],
        })
    }

    fn judged(runs: Vec<(&str, Result<Run, String>)>) -> Vec<String> {
        let runs: Vec<(String, Result<Run, String>)> =
            runs.into_iter().map(|(l, r)| (l.to_string(), r)).collect();
        judge("demo", 0xABCD, &runs)
    }

    #[test]
    fn matching_layouts_with_fired_mechanisms_pass() {
        assert!(judged(vec![("1x1", run(0xABCD, true)), ("8x8", run(0xABCD, true))]).is_empty());
    }

    #[test]
    fn disagreeing_layouts_fail_naming_the_scenario() {
        let failures = judged(vec![("1x1", run(0xABCD, true)), ("8x8", run(0xABCE, true))]);
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("demo:") && f.contains("layouts disagree")),
            "{failures:?}"
        );
    }

    #[test]
    fn a_wrong_golden_fails_naming_the_scenario() {
        let failures = judged(vec![("1x1", run(0x1234, true)), ("8x8", run(0x1234, true))]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures
                .iter()
                .all(|f| f.starts_with("demo [") && f.contains("differs from golden")),
            "{failures:?}"
        );
    }

    #[test]
    fn a_false_mechanism_check_fails_naming_the_scenario() {
        let failures = judged(vec![
            ("1x1", run(0xABCD, true)),
            ("8x8", run(0xABCD, false)),
        ]);
        assert_eq!(
            failures,
            vec!["demo [8x8]: check failed: the mechanism fired".to_string()]
        );
    }

    #[test]
    fn a_failed_run_fails_naming_the_scenario() {
        let failures = judged(vec![("1x1", Err("disk on fire".to_string()))]);
        assert_eq!(
            failures,
            vec!["demo [1x1]: run failed: disk on fire".to_string()]
        );
    }
}
