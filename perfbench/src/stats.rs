//! Timing statistics: medians and the honest tail percentile.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it (capped at
//! p99), with the sample count. With fewer than `2 ×` that many samples
//! no percentile above the median qualifies, and the tail is the
//! maximum.

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median and tail of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// The tail value, see [`tail_level`].
    pub tail: f64,
    /// Which percentile `tail` is, as a fraction (1.0 = the maximum).
    pub tail_level: f64,
}

/// The highest percentile level, as a fraction capped at 0.99 and
/// rounded down to a whole percent, that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `1.0` (the maximum)
/// when no level at or above the median does.
#[must_use]
pub fn tail_level(n: usize) -> f64 {
    if n < 2 * TAIL_MIN_BEYOND {
        return 1.0;
    }
    let beyond = TAIL_MIN_BEYOND as f64 / n as f64;
    let level = ((1.0 - beyond) * 100.0).floor() / 100.0;
    level.min(0.99)
}

/// Nearest-rank quantile of sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Summarizes samples (all zeros for none).
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            median: 0.0,
            tail: 0.0,
            tail_level: 1.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    let level = tail_level(n);
    Summary {
        n,
        median,
        tail: quantile(&sorted, level),
        tail_level: level,
    }
}

/// Returns the median host seconds of one call of `f` over `reps`
/// samples, each timing a batch of calls that lasts at least
/// `min_batch_s` (so sub-millisecond work is not timed one call at a
/// time). The batches that size the batch, and one more full batch,
/// run untimed as a warm-up.
pub fn median_time(reps: usize, min_batch_s: f64, mut f: impl FnMut()) -> f64 {
    let mut run = |batch: usize| {
        let started = std::time::Instant::now();
        for _ in 0..batch {
            f();
        }
        started.elapsed().as_secs_f64()
    };
    let mut batch = 1usize;
    while run(batch) < min_batch_s {
        batch = batch.saturating_mul(2);
    }
    run(batch);
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| run(batch) / batch as f64)
        .collect();
    median(&samples)
}

/// Timed set-up batches per run; the median is reported.
pub const SETUP_REPS: usize = 15;

/// Shortest timed set-up batch, seconds.
pub const SETUP_MIN_BATCH_S: f64 = 0.05;

/// Median host seconds of one set-up call `f`, over [`SETUP_REPS`]
/// batches of at least [`SETUP_MIN_BATCH_S`] (see [`median_time`]).
pub fn setup_seconds(f: impl FnMut()) -> f64 {
    median_time(SETUP_REPS, SETUP_MIN_BATCH_S, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_leaves_ten_samples_beyond() {
        assert_eq!(tail_level(5), 1.0);
        assert_eq!(tail_level(19), 1.0);
        assert_eq!(tail_level(20), 0.5);
        assert_eq!(tail_level(100), 0.9);
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(100_000), 0.99);
        for n in [20, 37, 100, 555, 1000, 5000] {
            let beyond = n - (tail_level(n) * n as f64).ceil() as usize;
            assert!(beyond >= TAIL_MIN_BEYOND, "n = {n}: {beyond} beyond");
        }
    }

    #[test]
    fn summaries_of_small_sets() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.tail, s.tail_level), (3, 2.0, 3.0, 1.0));
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
        assert_eq!(summarize(&[]).n, 0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.median, 500.5);
    }
}
