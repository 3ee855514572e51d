//! `biosim` — command-line front end to the sensor catalog.
//!
//! ```console
//! biosim list                         # all catalog sensors with paper figures
//! biosim show glucose/ours            # one sensor's construction in detail
//! biosim calibrate glucose/ours       # run a full simulated calibration
//! biosim calibrate lactate/goran2011 --seed 7
//! biosim measure cyp/cyclophosphamide 40   # simulate measuring 40 µM
//! ```

// A CLI binary reports on stdout by design.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use biosim::analytics::report::TextTable;
use biosim::core::catalog::{self, CatalogEntry};
use biosim::core::quantify::{Quantification, Quantifier};
use biosim::prelude::*;

fn all_entries() -> Vec<CatalogEntry> {
    let mut v = catalog::all_table2();
    v.extend(catalog::multi_panel_sensors());
    v
}

fn find(id: &str) -> Option<CatalogEntry> {
    all_entries().into_iter().find(|e| e.id() == id)
}

fn parse_seed(args: &[String]) -> u64 {
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn cmd_list() -> ExitCode {
    let mut t = TextTable::new(vec!["id", "analyte", "S (µA·mM⁻¹·cm⁻²)", "range", "LOD"]);
    for e in all_entries() {
        let paper = e.paper();
        t.add_row(vec![
            e.id().to_owned(),
            e.analyte().to_string(),
            format!(
                "{:.2}",
                paper.sensitivity.as_micro_amps_per_milli_molar_square_cm()
            ),
            paper.linear_range.to_string(),
            paper.detection_limit.map_or("–".to_owned(), |l| {
                format!("{:.2} µM", l.as_micro_molar())
            }),
        ]);
    }
    print!("{}", t.render());
    ExitCode::SUCCESS
}

fn cmd_show(id: &str) -> ExitCode {
    let Some(e) = find(id) else {
        eprintln!("unknown sensor id '{id}' — try `biosim list`");
        return ExitCode::FAILURE;
    };
    let sensor = e.build_sensor();
    println!("id:           {}", e.id());
    println!("label:        {}", e.label());
    if let Some(c) = e.citation() {
        println!("citation:     {c}");
    }
    println!("analyte:      {}", e.analyte());
    println!(
        "electrode:    {} {} (Working)",
        sensor.electrode().material(),
        sensor.electrode().area()
    );
    println!("modification: {}", sensor.modification());
    println!("probe:        {}", sensor.chemistry().probe_name());
    println!("technique:    {}", sensor.technique().label());
    println!(
        "film loading: {}",
        sensor.chemistry().film().effective_loading()
    );
    println!("model S:      {}", sensor.model_sensitivity());
    println!("model range:  up to {}", sensor.model_linear_limit());
    println!("paper S:      {}", e.paper().sensitivity);
    println!(
        "sweep:        {} over {} standards",
        e.sweep(),
        e.sweep_points()
    );
    ExitCode::SUCCESS
}

fn cmd_calibrate(id: &str, seed: u64) -> ExitCode {
    let Some(e) = find(id) else {
        eprintln!("unknown sensor id '{id}' — try `biosim list`");
        return ExitCode::FAILURE;
    };
    match e.run_calibration(seed) {
        Ok(outcome) => {
            let s = outcome.summary;
            println!("sensor:       {}", e.label());
            println!("seed:         {seed}");
            println!("sensitivity:  {}", s.sensitivity);
            println!("linear range: {}", s.linear_range);
            println!("LOD:          {}", s.detection_limit);
            println!("R²:           {:.5}", s.r_squared);
            println!(
                "vs paper:     ΔS {:+.1}%",
                (s.sensitivity.as_micro_amps_per_milli_molar_square_cm()
                    / e.paper()
                        .sensitivity
                        .as_micro_amps_per_milli_molar_square_cm()
                    - 1.0)
                    * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("calibration failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_measure(id: &str, micro_molar: f64, seed: u64) -> ExitCode {
    let Some(e) = find(id) else {
        eprintln!("unknown sensor id '{id}' — try `biosim list`");
        return ExitCode::FAILURE;
    };
    let outcome = match e.run_calibration(seed) {
        Ok(o) => o,
        Err(err) => {
            eprintln!("calibration failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let sensor = e.build_sensor();
    let q = Quantifier::from_calibration(&outcome.summary, sensor.electrode().area());
    let truth = Molar::from_micro_molar(micro_molar);
    let mut chain = e.build_readout(seed.wrapping_add(1));
    let current = chain.digitize(sensor.faradaic_current(truth));
    println!("true level:   {:.2} µM", micro_molar);
    println!("channel read: {current}");
    match q.quantify(current) {
        Quantification::Level(c) => {
            println!(
                "quantified:   {:.2} µM ({:+.1}%)",
                c.as_micro_molar(),
                (c.as_micro_molar() / micro_molar - 1.0) * 100.0
            );
        }
        Quantification::BelowDetection { limit } => {
            println!("quantified:   below detection ({limit})");
        }
        Quantification::AboveRange { range_top } => {
            println!("quantified:   above linear range (top {range_top})");
            if let Some(d) = q.suggested_dilution(current) {
                println!("suggestion:   dilute {d:.1}× and re-measure");
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  biosim list\n  biosim show <id>\n  biosim calibrate <id> [--seed N]\n  \
         biosim measure <id> <µM> [--seed N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_seed(&args);
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("show") => match args.get(1) {
            Some(id) => cmd_show(id),
            None => usage(),
        },
        Some("calibrate") => match args.get(1) {
            Some(id) => cmd_calibrate(id, seed),
            None => usage(),
        },
        Some("measure") => match (args.get(1), args.get(2).and_then(|v| v.parse().ok())) {
            (Some(id), Some(level)) => cmd_measure(id, level, seed),
            _ => usage(),
        },
        _ => usage(),
    }
}
