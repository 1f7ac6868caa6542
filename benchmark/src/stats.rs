//! Order statistics for the timing samples.

/// Nearest-rank percentile (`p` in percent): the smallest sample such that
/// at least `p` % of the samples are at or below it. Panics on an empty
/// slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `p`-th percentile's rank. A tail percentile
/// is only reported as meaningful with at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Samples a tail percentile needs beyond it (the choosing-metrics rule).
pub const MIN_BEYOND: usize = 10;

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median over consecutive batches of `batch` samples of the batch mean (a
/// trailing partial batch is dropped; with fewer than `batch` samples the
/// whole slice is one batch).
///
/// The reactor's `run_on` returns on the bootstrap thread's 24 ms receive
/// tick, so single-solve wall times are multiples of 24 ms and their median
/// flips between neighbouring multiples from run to run. Timing a few
/// back-to-back solves as one sample averages the tick out while staying a
/// median (one rare multi-second wedge still moves nothing).
pub fn batched_median(samples: &[f64], batch: usize) -> f64 {
    assert!(batch >= 1 && !samples.is_empty());
    if samples.len() < batch {
        return mean(samples);
    }
    let means: Vec<f64> = samples.chunks_exact(batch).map(mean).collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        // Order of the input does not matter, duplicates are fine.
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 5 samples: p90 → rank ceil(4.5) = 5.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 5.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), MIN_BEYOND);
        assert!(samples_beyond(99, 90.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(20, 50.0), MIN_BEYOND);
        assert_eq!(samples_beyond(5, 90.0), 0);
    }

    #[test]
    fn batched_median_averages_within_batches_and_ignores_one_wedge() {
        // Quantized samples alternating between two ticks: every batch of 4
        // has the same mean, so the estimate sits between the ticks.
        let ticks = [0.168, 0.192, 0.192, 0.168, 0.192, 0.168, 0.168, 0.192];
        assert!((batched_median(&ticks, 4) - 0.18).abs() < 1e-12);
        // A 5 s wedge lands in one batch and cannot move the median.
        let mut wedged = vec![0.2; 40];
        wedged[17] = 5.0;
        assert_eq!(batched_median(&wedged, 4), 0.2);
        // Trailing partial batch is dropped; short input is one batch.
        assert_eq!(batched_median(&[1.0, 1.0, 9.0], 2), 1.0);
        assert_eq!(batched_median(&[1.0, 3.0], 4), 2.0);
    }
}
