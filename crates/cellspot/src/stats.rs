//! Small statistics toolkit: empirical CDFs (optionally weighted),
//! quantiles, and concentration measures used across the analyses.

/// An empirical CDF over `f64` samples, optionally weighted.
///
/// Construction sorts once; evaluation is a binary search. Weighted CDFs
/// are what the paper plots when it weights subnets by their demand
/// (Fig. 2's "IPv4 Demand" curve vs. "IPv4 Subnets").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ecdf {
    /// Sample values, ascending.
    values: Vec<f64>,
    /// Cumulative weight up to and including each value, normalized to 1.
    cumulative: Vec<f64>,
}

impl Ecdf {
    /// Unweighted CDF from samples.
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        Self::weighted(samples.into_iter().map(|v| (v, 1.0)))
    }

    /// Weighted CDF from `(value, weight)` pairs; non-positive weights are
    /// dropped.
    pub fn weighted(samples: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut pairs: Vec<(f64, f64)> = samples
            .into_iter()
            .filter(|(v, w)| *w > 0.0 && v.is_finite())
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("values are finite"));
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let mut values = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (v, w) in pairs {
            acc += w;
            values.push(v);
            cumulative.push(if total > 0.0 { acc / total } else { 0.0 });
        }
        Ecdf { values, cumulative }
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        // partition_point: first index with value > x.
        let idx = self.values.partition_point(|v| *v <= x);
        if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        }
    }

    /// The `q`-quantile (`q` in \[0,1\]), by inverse CDF; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = self.cumulative.partition_point(|c| *c < q);
        Some(self.values[idx.min(self.values.len() - 1)])
    }

    /// Sample the CDF at `n+1` evenly spaced x positions over `[lo, hi]`,
    /// producing a plottable series.
    pub fn series(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(1);
        (0..=n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / n as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Fraction of the total carried by the `k` largest values.
pub fn top_k_share(values: &[f64], k: usize) -> f64 {
    let total: f64 = values.iter().sum();
    if total <= 0.0 || k == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("values are finite"));
    sorted.iter().take(k).sum::<f64>() / total
}

/// Smallest number of values whose sum reaches `share` of the total.
pub fn count_for_share(values: &[f64], share: f64) -> usize {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("values are finite"));
    let target = total * share.clamp(0.0, 1.0);
    let mut acc = 0.0;
    for (i, v) in sorted.iter().enumerate() {
        acc += v;
        if acc >= target {
            return i + 1;
        }
    }
    sorted.len()
}

/// Gini coefficient of a non-negative distribution (0 = perfectly even,
/// → 1 = fully concentrated). Used by the concentration ablations.
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| *x >= 0.0).collect();
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let cdf = Ecdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.eval(0.5) - 0.0).abs() < 1e-12);
        assert!((cdf.eval(1.0) - 0.25).abs() < 1e-12);
        assert!((cdf.eval(2.5) - 0.5).abs() < 1e-12);
        assert!((cdf.eval(99.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_weighted() {
        let cdf = Ecdf::weighted([(0.0, 9.0), (1.0, 1.0)]);
        assert!((cdf.eval(0.0) - 0.9).abs() < 1e-12);
        assert!((cdf.eval(1.0) - 1.0).abs() < 1e-12);
        // Zero/negative weights dropped.
        let cdf = Ecdf::weighted([(0.0, 0.0), (1.0, -2.0)]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.eval(5.0), 0.0);
    }

    #[test]
    fn quantiles() {
        let cdf = Ecdf::new((1..=100).map(|i| i as f64));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(Ecdf::new([]).quantile(0.5), None);
    }

    #[test]
    fn series_is_monotone() {
        let cdf = Ecdf::new([0.1, 0.5, 0.9]);
        let s = cdf.series(0.0, 1.0, 10);
        assert_eq!(s.len(), 11);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn top_k_and_count_for_share() {
        let v = [50.0, 30.0, 10.0, 5.0, 5.0];
        assert!((top_k_share(&v, 2) - 0.8).abs() < 1e-12);
        assert_eq!(count_for_share(&v, 0.8), 2);
        assert_eq!(count_for_share(&v, 1.0), 5);
        assert_eq!(count_for_share(&[], 0.5), 0);
        assert_eq!(top_k_share(&v, 0), 0.0);
    }

    #[test]
    fn gini_extremes() {
        assert!((gini(&[1.0, 1.0, 1.0, 1.0]) - 0.0).abs() < 1e-9);
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(concentrated > 0.7, "gini {concentrated}");
        assert_eq!(gini(&[]), 0.0);
    }
}
