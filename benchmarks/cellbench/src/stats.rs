//! Exact order statistics over raw samples. Nothing here buckets: a
//! percentile is a value that was measured.

/// Median, quartiles and count of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method), which is what the benchmark's acceptance
/// check uses; with fewer than two samples all three equal the sample.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize: no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; like Python, the
        // interval is clamped to the data but the interpolation is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Median of the samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The `p`-th percentile (0 < p ≤ 100) by nearest rank: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile: no samples");
    let v = sorted(samples);
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// Nearest rank of the `p`-th percentile among `n` samples: the least
/// `r` with `r / n ≥ p / 100`. The epsilon keeps `99.9 % of 1000` at
/// 999 where the floating-point product lands a hair above it.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile levels this crate reports, ascending.
pub const LEVELS: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`LEVELS`] that still has at least [`MIN_BEYOND`]
/// samples strictly beyond its rank among `n` samples, or `None` when
/// not even the median does.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LEVELS
        .iter()
        .copied()
        .rfind(|p| n.saturating_sub(rank(*p, n)) >= MIN_BEYOND)
}

/// `percentile(samples, p)` if `p` is reportable for this many samples
/// (see [`highest_reportable`]), else `None`.
pub fn percentile_if_reportable(samples: &[f64], p: f64) -> Option<f64> {
    match highest_reportable(samples.len()) {
        Some(top) if p <= top => Some(percentile(samples, p)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((summarize(&[90.0, 100.0, 110.0, 120.0]).spread() - 0.2380952).abs() < 1e-6);
    }

    #[test]
    fn percentiles_are_measured_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
