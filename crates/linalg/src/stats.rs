//! Scalar statistics, histograms, and distribution-distance measures used
//! throughout the drift detectors and the statistics-extraction pipeline.

use crate::kernels;

/// Arithmetic mean; `0.0` on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    kernels::sum(xs) / xs.len() as f64
}

/// Population variance; `0.0` on empty input.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    kernels::sq_dev_sum(xs, m) / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample skewness (Fisher-Pearson); `0.0` for fewer than 3 samples or zero
/// variance.
pub fn skewness(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s <= 0.0 {
        return 0.0;
    }
    let n = xs.len() as f64;
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n
}

/// Linear-interpolation quantile for `q` in `[0, 1]`; `0.0` on empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Five-number summary (min, q1, median, q3, max) used by the Figure 3
/// box-plot reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Computes a five-number summary; all-zero on empty input.
pub fn five_number(xs: &[f64]) -> FiveNumber {
    FiveNumber {
        min: quantile(xs, 0.0),
        q1: quantile(xs, 0.25),
        median: quantile(xs, 0.5),
        q3: quantile(xs, 0.75),
        max: quantile(xs, 1.0),
    }
}

/// An equal-width histogram over a fixed range, exposed as a probability
/// distribution (counts normalised to sum 1).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub lo: f64,
    /// Exclusive upper bound of the last bin (values above clamp to it).
    pub hi: f64,
    /// Raw bin counts.
    pub counts: Vec<usize>,
    /// Total number of observations.
    pub total: usize,
}

impl Histogram {
    /// Builds a histogram of `xs` with `bins` equal-width bins over
    /// `[lo, hi]`. Out-of-range values clamp to the edge bins; non-finite
    /// values are skipped.
    pub fn new(xs: &[f64], bins: usize, lo: f64, hi: f64) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        let mut counts = vec![0usize; bins];
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut total = 0usize;
        for &x in xs {
            if !x.is_finite() {
                continue;
            }
            let frac = ((x - lo) / span).clamp(0.0, 1.0);
            let mut b = (frac * bins as f64) as usize;
            if b >= bins {
                b = bins - 1;
            }
            counts[b] += 1;
            total += 1;
        }
        Histogram {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Builds a histogram over the data's own min/max range.
    pub fn from_data(xs: &[f64], bins: usize) -> Histogram {
        let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !lo.is_finite() || !hi.is_finite() {
            return Histogram::new(&[], bins, 0.0, 1.0);
        }
        Histogram::new(xs, bins, lo, if hi > lo { hi } else { lo + 1.0 })
    }

    /// Probability mass per bin.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Hellinger distance between two probability vectors (in `[0, 1]` for
/// normalised inputs). Used by the HDDDM drift detector.
pub fn hellinger(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "hellinger requires equal-length inputs");
    let s: f64 = p
        .iter()
        .zip(q)
        .map(|(&a, &b)| {
            let d = a.max(0.0).sqrt() - b.max(0.0).sqrt();
            d * d
        })
        .sum();
    (s / 2.0).sqrt()
}

/// Smoothed Kullback-Leibler divergence `KL(p || q)` between probability
/// vectors, with Laplace smoothing so empty bins do not produce infinities.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "kl requires equal-length inputs");
    let eps = 1e-9;
    let norm_p: f64 = p.iter().map(|x| x + eps).sum();
    let norm_q: f64 = q.iter().map(|x| x + eps).sum();
    p.iter()
        .zip(q)
        .map(|(&a, &b)| {
            let pa = (a + eps) / norm_p;
            let qb = (b + eps) / norm_q;
            pa * (pa / qb).ln()
        })
        .sum()
}

/// Two-sample Kolmogorov-Smirnov statistic (sup distance between empirical
/// CDFs).
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    ks_statistic_sorted(&sa, &sb)
}

/// [`ks_statistic`] of two samples already sorted ascending by
/// [`f64::total_cmp`] (`0.0` when either is empty). That order is total,
/// so a caller may sort each sample once and reuse it across calls: the
/// statistic is bit-identical to [`ks_statistic`] on the unsorted inputs.
pub fn ks_statistic_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    let (na, nb) = (sa.len(), sb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let x = sa[i].min(sb[j]);
        while i < na && sa[i] <= x {
            i += 1;
        }
        while j < nb && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na as f64;
        let fb = j as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

/// Asymptotic two-sample KS p-value via the Kolmogorov distribution
/// `Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)`.
pub fn ks_p_value(d: f64, na: usize, nb: usize) -> f64 {
    if na == 0 || nb == 0 {
        return 1.0;
    }
    let n_eff = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let lambda = (n_eff.sqrt() + 0.12 + 0.11 / n_eff.sqrt()) * d;
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = 2.0 * (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    sum.clamp(0.0, 1.0)
}

/// Pearson correlation coefficient; `0.0` when either input is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal-length inputs");
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quantiles_of_known_sequence() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
    }

    #[test]
    fn five_number_is_ordered() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let f = five_number(&xs);
        assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
    }

    #[test]
    fn histogram_counts_and_clamping() {
        let h = Histogram::new(&[0.0, 0.5, 1.0, 2.0, -5.0], 2, 0.0, 1.0);
        // -5 clamps into first bin, 1.0 and 2.0 clamp into last.
        assert_eq!(h.total, 5);
        assert_eq!(h.counts, vec![2, 3]);
        let p = h.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_skips_nan() {
        let h = Histogram::new(&[0.1, f64::NAN, 0.9], 2, 0.0, 1.0);
        assert_eq!(h.total, 2);
    }

    #[test]
    fn hellinger_identity_and_disjoint() {
        let p = [0.5, 0.5, 0.0];
        let q = [0.0, 0.0, 1.0];
        assert!(hellinger(&p, &p).abs() < 1e-12);
        assert!((hellinger(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-6);
        assert!(kl_divergence(&p, &[0.5, 0.25, 0.25]) > 0.0);
    }

    #[test]
    fn ks_statistic_same_and_shifted() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 1000.0).collect();
        assert!(ks_statistic(&a, &a) < 1e-12);
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_p_value_extremes() {
        // Identical large samples: p near 1. Fully separated: p near 0.
        assert!(ks_p_value(0.01, 1000, 1000) > 0.9);
        assert!(ks_p_value(1.0, 1000, 1000) < 1e-6);
    }

    #[test]
    fn pearson_correlations() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| 3.0 * x + 1.0).collect();
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &vec![5.0; 50]), 0.0);
    }

    #[test]
    fn skewness_signs() {
        // Right-skewed: long tail to the right.
        let right = [1.0, 1.0, 1.0, 1.0, 10.0];
        let left = [10.0, 10.0, 10.0, 10.0, 1.0];
        assert!(skewness(&right) > 0.0);
        assert!(skewness(&left) < 0.0);
        assert_eq!(skewness(&[1.0, 1.0, 1.0]), 0.0);
    }
}
