//! Digital post-filters for sampled current traces.

/// Centered moving-average smoother.
///
/// # Examples
///
/// ```
/// use bios_instrument::filter::moving_average;
///
/// let noisy = vec![1.0, 3.0, 1.0, 3.0, 1.0];
/// let smooth = moving_average(&noisy, 3);
/// assert!((smooth[2] - 7.0 / 3.0).abs() < 1e-12);
/// assert_eq!(smooth.len(), noisy.len());
/// ```
///
/// # Panics
///
/// Panics if `window` is even or zero.
#[must_use]
pub fn moving_average(samples: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    let n = samples.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Single-pole exponential (IIR) smoother with coefficient `alpha` ∈ (0, 1]:
/// `y[k] = α·x[k] + (1−α)·y[k−1]`.
///
/// # Panics
///
/// Panics unless `0 < alpha ≤ 1`.
#[must_use]
pub fn exponential(samples: &[f64], alpha: f64) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
    let mut out = Vec::with_capacity(samples.len());
    let mut y = match samples.first() {
        Some(&x) => x,
        None => return out,
    };
    for &x in samples {
        y = alpha * x + (1.0 - alpha) * y;
        out.push(y);
    }
    out
}

/// Savitzky–Golay quadratic smoothing, window of 5, 7, or 9 points.
///
/// Preserves peak heights far better than a plain moving average — the
/// property that matters when the voltammetric peak *is* the measurement.
///
/// # Panics
///
/// Panics unless `window ∈ {5, 7, 9}`.
#[must_use]
pub fn savitzky_golay(samples: &[f64], window: usize) -> Vec<f64> {
    // Classic quadratic/cubic SG convolution coefficients.
    let (coeffs, norm): (&[f64], f64) = match window {
        5 => (&[-3.0, 12.0, 17.0, 12.0, -3.0], 35.0),
        7 => (&[-2.0, 3.0, 6.0, 7.0, 6.0, 3.0, -2.0], 21.0),
        9 => (
            &[-21.0, 14.0, 39.0, 54.0, 59.0, 54.0, 39.0, 14.0, -21.0],
            231.0,
        ),
        // bios-audit: allow(P-panic) — documented contract: window ∈ {5, 7, 9}
        _ => panic!("window must be 5, 7, or 9"),
    };
    let half = window / 2;
    let n = samples.len();
    (0..n)
        .map(|i| {
            if i < half || i + half >= n {
                samples[i] // passthrough at the edges
            } else {
                coeffs
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| c * samples[i + j - half])
                    .sum::<f64>()
                    / norm
            }
        })
        .collect()
}

/// Configuration of the post-filter applied by a readout chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterSpec {
    /// No filtering.
    None,
    /// Centered moving average of the given odd window.
    MovingAverage(usize),
    /// Savitzky–Golay quadratic of window 5, 7, or 9.
    SavitzkyGolay(usize),
    /// Exponential smoothing with coefficient α.
    Exponential(f64),
}

impl FilterSpec {
    /// Applies the filter to a sample slice.
    #[must_use]
    pub fn apply(&self, samples: &[f64]) -> Vec<f64> {
        match *self {
            FilterSpec::None => samples.to_vec(),
            FilterSpec::MovingAverage(w) => moving_average(samples, w),
            FilterSpec::SavitzkyGolay(w) => savitzky_golay(samples, w),
            FilterSpec::Exponential(a) => exponential(samples, a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_flattens_alternation() {
        let x = vec![0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0];
        let y = moving_average(&x, 3);
        for v in &y[1..6] {
            assert!((v - y[2]).abs() < 0.7);
        }
    }

    #[test]
    fn moving_average_preserves_constant() {
        let x = vec![5.0; 20];
        for v in moving_average(&x, 5) {
            assert!((v - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_converges_to_step() {
        let mut x = vec![0.0; 5];
        x.extend(vec![1.0; 100]);
        let y = exponential(&x, 0.2);
        assert!((y.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn savitzky_golay_preserves_quadratic_exactly() {
        // SG of quadratic order reproduces quadratics exactly away from
        // the edges.
        let x: Vec<f64> = (0..30).map(|i| (i as f64 - 15.0).powi(2)).collect();
        for w in [5, 7, 9] {
            let y = savitzky_golay(&x, w);
            for i in w / 2..30 - w / 2 {
                assert!((y[i] - x[i]).abs() < 1e-9, "window {w}, index {i}");
            }
        }
    }

    #[test]
    fn savitzky_golay_beats_moving_average_on_peaks() {
        // A Gaussian peak: SG should preserve the apex better.
        let x: Vec<f64> = (0..61)
            .map(|i| (-((i as f64 - 30.0) / 4.0).powi(2)).exp())
            .collect();
        let sg = savitzky_golay(&x, 7);
        let ma = moving_average(&x, 7);
        let apex = 30;
        assert!((sg[apex] - 1.0).abs() < (ma[apex] - 1.0).abs());
    }

    #[test]
    fn filter_spec_dispatch() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(FilterSpec::None.apply(&x), x);
        assert_eq!(FilterSpec::MovingAverage(3).apply(&x).len(), x.len());
        assert_eq!(FilterSpec::SavitzkyGolay(5).apply(&x).len(), x.len());
        assert_eq!(FilterSpec::Exponential(0.5).apply(&x).len(), x.len());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_window_rejected() {
        let _ = moving_average(&[1.0, 2.0], 2);
    }
}
