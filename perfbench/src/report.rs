//! Rendering: human-readable lines (run metadata, checks, metric
//! tables) followed by the one-line JSON result, which is always the
//! last line of standard output.

use std::fmt::Write;

use crate::stats::{median, nproc, peak_rss_mb, tail, tail_percentile};
use crate::{Check, Measured, Options, PassWork, Traced};

/// One metric of the final JSON line.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
/// order.
#[must_use]
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    // Rates are medians of per-pass rates: a burst of contention that
    // stalls a few passes moves them no more than it moves the median
    // pass time.
    let steady = m.passes.steady();
    let walls: Vec<f64> = steady.iter().map(|&i| m.passes.walls[i]).collect();
    let rate = |count: fn(&PassWork) -> u64| {
        let rates: Vec<f64> = steady
            .iter()
            .map(|&i| count(&m.passes.works[i]) as f64 / m.passes.walls[i])
            .collect();
        median(&rates)
    };
    vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("jobs_per_s", rate(|w| w.jobs), "1/s"),
        ("requests_per_s", rate(|w| w.requests), "1/s"),
        ("pass_ms_p50", median(&walls) * 1e3, "ms"),
        ("pass_ms_tail", tail(&walls).1 * 1e3, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The tracing overhead, percent of the untraced replay wall.
#[must_use]
pub fn overhead_pct(t: &Traced) -> f64 {
    (t.traced_s / t.untraced_s - 1.0) * 100.0
}

/// The per-layer metrics of a traced run, the tracing overhead last.
#[must_use]
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    t.metrics
        .iter()
        .map(|&(name, value, unit, _)| (name, value, unit))
        .chain([("trace.overhead_pct", overhead_pct(t), "%")])
        .collect()
}

/// The final JSON line.
#[must_use]
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_owned()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

fn check_lines(out: &mut String, checks: &[Check]) -> bool {
    for c in checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "check {verdict} {} ({})", c.name, c.detail);
    }
    checks.iter().all(|c| c.ok)
}

/// The run metadata every result carries: how it was produced.
fn metadata(opts: &Options, pool: &str, fields: &str) -> String {
    format!(
        "run {{\"workload\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \"nproc\": {}, \
         \"physical_cores\": {}, \"pool\": \"{pool}\", {fields}}}",
        opts.workload.name(),
        if opts.trace { "traced" } else { "untraced" },
        opts.seed,
        nproc(),
        bios_bench::physical_cores(),
    )
}

/// Renders an untraced run; returns the text and whether every check
/// held.
#[must_use]
pub fn render_measured(opts: &Options, m: &Measured) -> (String, bool) {
    let mut out = String::new();
    let w = m.passes.total;
    let steady = m.passes.steady().len();
    let _ = writeln!(
        out,
        "{}",
        metadata(
            opts,
            m.pool,
            &format!(
                "\"setup_s\": [{}], \"passes\": {}, \"steady_passes\": {steady}, \
                 \"run_seconds\": {:.3}, \"attempted\": {}, \
                 \"succeeded\": {}, \"failed\": {}, \"refused\": {}, \"failed_share\": {}",
                m.setup_s
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                m.passes.walls.len(),
                m.passes.window_s,
                w.requests,
                w.requests - w.job_errors - w.refused,
                w.job_errors,
                w.refused,
                (w.job_errors + w.refused) as f64 / w.requests.max(1) as f64,
            )
        )
    );
    let correct = check_lines(&mut out, &m.checks);
    let metrics = end_to_end(m);
    for (name, value, unit) in &metrics {
        let note = if *name == "pass_ms_tail" {
            let percentile = tail_percentile(steady);
            format!("  (p{percentile} of {steady} steady passes)")
        } else {
            String::new()
        };
        let _ = writeln!(out, "metric {name:<16} {value:>14.4} {unit}{note}");
    }
    for (name, value, unit) in &m.extra {
        let _ = writeln!(out, "extra  {name:<16} {value:>14.4} {unit}");
    }
    out.push_str(&json_line(correct, w.requests, w.job_errors, &metrics));
    out.push('\n');
    (out, correct)
}

/// Renders a traced run; returns the text and whether every check held.
#[must_use]
pub fn render_traced(opts: &Options, t: &Traced) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        metadata(
            opts,
            "replay on 1 driving thread",
            &format!(
                "\"attempted\": {}, \"failed\": {}, \"traced_s\": {:.4}, \"untraced_s\": {:.4}",
                t.attempted, t.failed, t.traced_s, t.untraced_s
            )
        )
    );
    let correct = check_lines(&mut out, &t.checks);
    let _ = writeln!(
        out,
        "self time per span (self = span minus its child spans):\n  {:<24} {:>9} {:>12} {:>12}",
        "span", "calls", "self us/call", "total ms"
    );
    for (name, s) in &t.self_times {
        let _ = writeln!(
            out,
            "  {name:<24} {:>9} {:>12.3} {:>12.3}",
            s.calls,
            s.us_per_call(),
            s.total_ns as f64 / 1e6
        );
    }
    let _ = writeln!(out, "per-layer metrics:");
    for (name, value, unit, source) in &t.metrics {
        let _ = writeln!(out, "  {name:<30} {value:>14.4} {unit:<6} {source}");
    }
    let _ = writeln!(
        out,
        "tracing overhead: {:+.2}% ({:.4} s traced vs {:.4} s untraced replay)",
        overhead_pct(t),
        t.traced_s,
        t.untraced_s
    );
    if let Some(path) = &t.span_dump {
        let _ = writeln!(out, "span dump: {}", path.display());
    }
    out.push_str(&json_line(correct, t.attempted, t.failed, &per_layer(t)));
    out.push('\n');
    (out, correct)
}
