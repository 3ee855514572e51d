//! # bios-bench
//!
//! The experiment harness: regenerates every table of the paper's
//! evaluation from end-to-end simulation and scores the result against
//! the published numbers.
//!
//! Binaries:
//!
//! * `table1` — Table 1, features of the seven developed biosensors.
//! * `table2` — Table 2, the full sensitivity / linear-range / LOD
//!   comparison (optionally one block: `glucose`, `lactate`,
//!   `glutamate`, `cyp`).
//! * `survey` — the §2 classification registry statistics.
//! * `gate` — the CI digest gate: every determinism scenario as one
//!   table row of layouts, an inline golden digest, and mechanism
//!   checks (`gate [scenario]`).
//!
//! Performance is measured by the standalone `perfbench` package, not
//! here.

#![warn(missing_docs)]

pub mod ablation;
pub mod torture;

/// Installs a panic hook that swallows the backtrace spam from
/// injected `WorkerPanic` faults (they unwind inside `catch_unwind`
/// and are part of normal chaos-run output) while leaving every other
/// panic's report intact. Call once at the top of a binary that runs
/// armed fleets.
pub fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| info.payload().downcast_ref::<String>().cloned());
        if !message.is_some_and(|m| m.contains("injected worker panic")) {
            default_hook(info);
        }
    }));
}

/// Parses the value of a required CLI flag, printing a usage message to
/// stderr and exiting with status 2 when it is missing or malformed.
/// Binaries use this instead of `.expect()` so bad arguments produce a
/// one-line diagnostic rather than a panic backtrace.
pub fn parse_flag_or_exit<T: std::str::FromStr>(
    value: Option<String>,
    flag: &str,
    what: &str,
) -> T {
    match value.as_deref().map(str::parse) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs {what}");
            std::process::exit(2);
        }
    }
}

/// Best-effort physical core count: on Linux, the number of distinct
/// `(physical id, core id)` pairs in `/proc/cpuinfo` (which collapses
/// SMT siblings); elsewhere — or when the file is unreadable or
/// carries no topology — the logical
/// [`std::thread::available_parallelism`]. Benchmarks record this next
/// to the logical count so shard-scaling numbers stay interpretable on
/// a 1-core container where no speedup is physically possible.
#[must_use]
pub fn physical_cores() -> usize {
    let logical = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical;
    };
    let mut cores = std::collections::BTreeSet::new();
    let (mut physical_id, mut core_id) = (None::<u64>, None::<u64>);
    for line in cpuinfo.lines() {
        let mut parts = line.splitn(2, ':');
        let key = parts.next().unwrap_or("").trim();
        let value = parts.next().unwrap_or("").trim();
        match key {
            "physical id" => physical_id = value.parse().ok(),
            "core id" => core_id = value.parse().ok(),
            // A blank line ends one processor stanza.
            "" => {
                if let (Some(p), Some(c)) = (physical_id.take(), core_id.take()) {
                    cores.insert((p, c));
                }
            }
            _ => {}
        }
    }
    if let (Some(p), Some(c)) = (physical_id, core_id) {
        cores.insert((p, c));
    }
    if cores.is_empty() {
        logical
    } else {
        cores.len().min(logical)
    }
}

use bios_analytics::report::{format_percent, TextTable};
use bios_analytics::CalibrationSummary;
use bios_core::catalog::{self, CatalogEntry};
use bios_core::classification::{SensorRegistry, Transduction};
use bios_core::CoreError;
use bios_runtime::{Fleet, JobError, Runtime};

/// One Table 2 row compared paper-vs-simulation.
#[derive(Debug, Clone)]
pub struct RowComparison {
    /// The catalog entry.
    pub entry: CatalogEntry,
    /// Measured figures of merit from the simulated calibration.
    pub measured: CalibrationSummary,
}

impl RowComparison {
    /// Relative sensitivity error vs the paper.
    #[must_use]
    pub fn sensitivity_error(&self) -> f64 {
        let paper = self.entry.paper().sensitivity;
        (self
            .measured
            .sensitivity
            .as_micro_amps_per_milli_molar_square_cm()
            - paper.as_micro_amps_per_milli_molar_square_cm())
            / paper.as_micro_amps_per_milli_molar_square_cm()
    }
}

/// A calibrated block of Table 2 (one analyte).
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Block title ("GLUCOSE", …).
    pub title: String,
    /// Rows in paper order.
    pub rows: Vec<RowComparison>,
}

impl BlockReport {
    /// Runs every sensor of `entries` through its calibration protocol.
    ///
    /// # Errors
    ///
    /// Propagates the first calibration failure.
    pub fn run(
        title: &str,
        entries: Vec<CatalogEntry>,
        seed: u64,
    ) -> Result<BlockReport, CoreError> {
        let rows = entries
            .into_iter()
            .map(|entry| {
                let outcome = entry.run_calibration(seed)?;
                Ok(RowComparison {
                    entry,
                    measured: outcome.summary,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(BlockReport {
            title: title.to_owned(),
            rows,
        })
    }

    /// Runs the block through the fleet runtime: jobs fan out across
    /// the runtime's workers and repeat runs hit its memo cache. Keeps
    /// the [`BlockReport::run`] contract by failing on the first job
    /// error; drive [`Runtime::run`] directly when per-job error
    /// aggregation is wanted.
    ///
    /// # Errors
    ///
    /// Returns the first per-job error (calibration failure or worker
    /// panic).
    pub fn run_on(
        runtime: &Runtime,
        title: &str,
        entries: Vec<CatalogEntry>,
        seed: u64,
    ) -> Result<BlockReport, JobError> {
        let fleet = Fleet::builder(title)
            .sensors(entries.iter().cloned())
            .seed(seed)
            .build();
        let report = runtime.run(&fleet);
        let rows = entries
            .into_iter()
            .zip(report.results)
            .map(|(entry, result)| {
                result.outcome.map(|outcome| RowComparison {
                    entry,
                    measured: outcome.summary,
                })
            })
            .collect::<Result<Vec<_>, JobError>>()?;
        Ok(BlockReport {
            title: title.to_owned(),
            rows,
        })
    }

    /// Whether the simulated sensitivity ordering matches the paper's
    /// ordering within the block — the comparative claim that matters.
    #[must_use]
    pub fn ordering_preserved(&self) -> bool {
        let mut paper: Vec<(usize, f64)> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    i,
                    r.entry
                        .paper()
                        .sensitivity
                        .as_micro_amps_per_milli_molar_square_cm(),
                )
            })
            .collect();
        let mut measured: Vec<(usize, f64)> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    i,
                    r.measured
                        .sensitivity
                        .as_micro_amps_per_milli_molar_square_cm(),
                )
            })
            .collect();
        paper.sort_by(|a, b| a.1.total_cmp(&b.1));
        measured.sort_by(|a, b| a.1.total_cmp(&b.1));
        paper
            .iter()
            .zip(&measured)
            .all(|((pi, _), (mi, _))| pi == mi)
    }

    /// Renders the block as a paper-style text table with error columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Modification",
            "S paper",
            "S sim",
            "ΔS",
            "Range paper",
            "Range sim",
            "LOD paper",
            "LOD sim",
        ]);
        for row in &self.rows {
            let paper = row.entry.paper();
            t.add_row(vec![
                format!(
                    "{}{}",
                    row.entry.label(),
                    row.entry
                        .citation()
                        .map(|c| format!(" {c}"))
                        .unwrap_or_default()
                ),
                format!(
                    "{:.2}",
                    paper.sensitivity.as_micro_amps_per_milli_molar_square_cm()
                ),
                format!(
                    "{:.2}",
                    row.measured
                        .sensitivity
                        .as_micro_amps_per_milli_molar_square_cm()
                ),
                format_percent(row.sensitivity_error()),
                paper.linear_range.to_string(),
                row.measured.linear_range.to_string(),
                paper.detection_limit.map_or("–".to_owned(), |l| {
                    format!("{:.2} µM", l.as_micro_molar())
                }),
                format!("{:.2} µM", row.measured.detection_limit.as_micro_molar()),
            ]);
        }
        format!(
            "{}\n{}ordering preserved: {}\n",
            self.title,
            t.render(),
            if self.ordering_preserved() {
                "yes"
            } else {
                "NO"
            }
        )
    }
}

/// The four Table 2 blocks in paper order.
#[must_use]
pub fn table2_blocks() -> Vec<(&'static str, Vec<CatalogEntry>)> {
    vec![
        ("GLUCOSE", catalog::glucose_sensors()),
        ("LACTATE", catalog::lactate_sensors()),
        ("GLUTAMATE", catalog::glutamate_sensors()),
        ("CYP450 DRUG SENSORS", catalog::cyp_sensors()),
    ]
}

/// Renders Table 1 (targets, probes, techniques of the seven developed
/// sensors).
#[must_use]
pub fn render_table1() -> String {
    let mut t = TextTable::new(vec!["Target", "Probe", "Technique"]);
    for entry in catalog::table1() {
        let sensor = entry.build_sensor();
        t.add_row(vec![
            entry.analyte().name().to_uppercase(),
            sensor.chemistry().probe_name(),
            sensor.technique().label().to_owned(),
        ]);
    }
    format!(
        "Table 1: Features of different metabolite biosensors.\n{}",
        t.render()
    )
}

/// Renders the §2 survey statistics from the classification registry,
/// including the paper's own seven devices classified into their own
/// taxonomy.
#[must_use]
pub fn render_survey() -> String {
    let reg = SensorRegistry::with_paper_platform();
    let mut t = TextTable::new(vec!["Transduction", "Devices"]);
    for tx in [
        Transduction::Amperometric,
        Transduction::Potentiometric,
        Transduction::FieldEffect,
        Transduction::ImpedimetricCapacitive,
        Transduction::ImpedimetricFaradic,
        Transduction::Optical,
        Transduction::SurfacePlasmonResonance,
        Transduction::Piezoelectric,
    ] {
        t.add_row(vec![
            tx.to_string(),
            reg.by_transduction(tx).len().to_string(),
        ]);
    }
    format!(
        "Section 2 survey registry: {} devices, {:.0}% nanomaterial-enhanced,\n{} electrochemical.\n\n{}",
        reg.len(),
        reg.nanotech_fraction() * 100.0,
        reg.electrochemical().len(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_seven_targets() {
        let s = render_table1();
        for target in [
            "GLUCOSE",
            "LACTATE",
            "GLUTAMATE",
            "ARACHIDONIC ACID",
            "FTORAFUR",
            "CYCLOPHOSPHAMIDE",
            "IFOSFAMIDE",
        ] {
            assert!(s.contains(target), "missing {target} in:\n{s}");
        }
        assert!(s.contains("Chronoamperometry"));
        assert!(s.contains("Cyclic voltammetry"));
        assert!(s.contains("CYP2B6"));
    }

    #[test]
    fn glucose_block_reproduces_ordering() {
        let block = BlockReport::run("GLUCOSE", catalog::glucose_sensors(), 42).unwrap();
        assert_eq!(block.rows.len(), 5);
        assert!(block.ordering_preserved(), "{}", block.render());
        // Our sensor wins the block, as the paper claims.
        let ours = block.rows.last().unwrap();
        assert!(ours.entry.is_ours());
        for other in &block.rows[..4] {
            assert!(ours.measured.sensitivity > other.measured.sensitivity);
        }
    }

    #[test]
    fn sensitivity_errors_are_small() {
        let block = BlockReport::run("GLUCOSE", catalog::glucose_sensors(), 7).unwrap();
        for row in &block.rows {
            assert!(
                row.sensitivity_error().abs() < 0.25,
                "{}: {}",
                row.entry.id(),
                row.sensitivity_error()
            );
        }
    }

    #[test]
    fn survey_renders() {
        let s = render_survey();
        assert!(s.contains("amperometric"));
        assert!(s.contains("devices"));
    }

    #[test]
    fn fleet_block_matches_sequential_block() {
        let runtime = Runtime::with_workers(4);
        let fleet = BlockReport::run_on(&runtime, "GLUCOSE", catalog::glucose_sensors(), 42)
            .expect("fleet block runs");
        let sequential =
            BlockReport::run("GLUCOSE", catalog::glucose_sensors(), 42).expect("block runs");
        assert_eq!(fleet.render(), sequential.render());
    }

    #[test]
    fn table2_on_runtime_matches_sequential() {
        let runtime = Runtime::with_workers(4);
        let fleet: Vec<String> = table2_blocks()
            .into_iter()
            .map(|(title, entries)| {
                BlockReport::run_on(&runtime, title, entries, 42)
                    .expect("fleet block runs")
                    .render()
            })
            .collect();
        let sequential: Vec<String> = table2_blocks()
            .into_iter()
            .map(|(title, entries)| {
                BlockReport::run(title, entries, 42)
                    .expect("block runs")
                    .render()
            })
            .collect();
        assert_eq!(fleet, sequential);
    }
}
