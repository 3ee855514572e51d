//! Tiny-size smoke runs of every workload in both modes, the job
//! replay's parity with `Runtime::run`, and agreement between the
//! names the program prints and the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use bios_runtime::{ResultCache, Runtime, RuntimeConfig};
use perfbench::span::Tracer;
use perfbench::{catalog, report, Options, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

/// Every metric appears in the last line with its unit.
fn assert_json_names(last: &str, metrics: &[report::Metric]) {
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, value, unit) in metrics {
        assert!(value.is_finite(), "{name} = {value}");
        let needle = format!("\"{name}\": {{\"value\": ");
        assert!(last.contains(&needle), "{name} missing from {last}");
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

fn failed_checks(checks: &[perfbench::Check]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{} ({})", c.name, c.detail))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for workload in Workload::ALL {
        let opts = tiny(workload, false);
        let measured = perfbench::measure(&opts).expect("workload runs");
        assert!(
            failed_checks(&measured.checks).is_empty(),
            "{}: {:?}",
            workload.name(),
            failed_checks(&measured.checks)
        );
        let (text, correct) = report::render_measured(&opts, &measured);
        assert!(correct);
        let metrics = report::end_to_end(&measured);
        assert_eq!(metrics.len(), 6);
        assert!(metrics.iter().all(|(_, v, _)| *v > 0.0), "{metrics:?}");
        assert_json_names(text.lines().last().unwrap_or_default(), &metrics);
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for workload in Workload::ALL {
        let opts = tiny(workload, true);
        let traced = perfbench::trace(&opts).expect("traced replay runs");
        assert!(
            failed_checks(&traced.checks).is_empty(),
            "{}: {:?}",
            workload.name(),
            failed_checks(&traced.checks)
        );
        let (text, correct) = report::render_traced(&opts, &traced);
        assert!(correct);
        let metrics = report::per_layer(&traced);
        assert_eq!(metrics.len(), 34, "{}", workload.name());
        assert_json_names(text.lines().last().unwrap_or_default(), &metrics);
        let dump = traced.span_dump.expect("span dump written");
        let spans = std::fs::read_to_string(dump).expect("dump readable");
        assert!(spans.lines().count() > 1);
    }
}

#[test]
fn job_replay_reproduces_the_runtime_digest() {
    let entries = catalog::entries();
    let fleet = catalog::fleet("parity", &entries, 40..42);
    let expected = Runtime::new(RuntimeConfig::default().with_workers(2))
        .run(&fleet)
        .summaries_digest();
    let cache = ResultCache::new();
    let (cold, counts) = catalog::replay(&mut Tracer::new(true), &fleet, &cache);
    assert_eq!(catalog::digest(&cold), expected);
    assert_eq!(counts.physics_jobs, fleet.len() as u64);
    // A second replay is served from the cache and still agrees.
    let (warm, counts) = catalog::replay(&mut Tracer::new(false), &fleet, &cache);
    assert_eq!(catalog::digest(&warm), expected);
    assert_eq!(counts.hits, fleet.len() as u64);
}

#[test]
fn benchmark_json_names_what_the_program_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let declared = json.matches("\"name\":").count();
    let opts = tiny(Workload::CatalogWarm, false);
    let measured = perfbench::measure(&opts).expect("workload runs");
    let traced = perfbench::trace(&tiny(Workload::CatalogWarm, true)).expect("traced");
    let printed: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(report::end_to_end(&measured).iter().map(|m| m.0))
        .chain(report::per_layer(&traced).iter().map(|m| m.0))
        .collect();
    for name in &printed {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    assert_eq!(declared, printed.len());
}
