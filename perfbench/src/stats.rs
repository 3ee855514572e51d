//! Order statistics over pass timings, process memory, and run
//! metadata helpers.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles the tail is read at, highest first. The ladder stops at
/// p95: a full-length run has a few hundred passes, so p95 always
/// qualifies while p99 would flip in and out with machine speed. It
/// stops above p50, which is reported on its own.
const TAIL_LADDER: [u32; 3] = [95, 90, 75];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile of [`TAIL_LADDER`]
/// with at least [`TAIL_MIN_BEYOND`] samples beyond it, as
/// `(percentile, value)`. With fewer than 40 samples no percentile
/// qualifies and the maximum is reported as percentile 100.
#[must_use]
pub fn tail(values: &[f64]) -> (u32, f64) {
    let sorted = sorted(values);
    let p = tail_percentile(sorted.len());
    // Nearest-rank percentile: the sample at rank ⌈p·n/100⌉.
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    (p, sorted.get(rank - 1).copied().unwrap_or(0.0))
}

/// The percentile [`tail`] reads for `n` samples.
#[must_use]
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_MIN_BEYOND)
        .unwrap_or(100)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine so far, in
/// clock ticks (the `steal` column of `/proc/stat`); 0 where
/// unavailable.
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// SplitMix64 finalizer: decorrelates the CLI seed into the seeds each
/// workload derives its inputs from.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    bios_prng::SplitMix64::new(seed).derive(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1 beyond, p95 leaves 5, p90 leaves exactly 10.
        assert_eq!(tail(&v), (90, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (95, 950.0));
        assert_eq!(tail(&[5.0, 7.0]), (100, 7.0));
    }
}
