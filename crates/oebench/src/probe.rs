//! Lightweight probe models used by the concept-drift stage of the
//! statistics pipeline (§4.3): following the paper (which follows the
//! Menelaus examples), classification streams are probed with Gaussian
//! Naive Bayes and regression streams with a linear model; the probes'
//! error streams feed the concept-drift detectors, and the probe is
//! retrained on recent data whenever a drift fires.

use oeb_linalg::{ridge_regression, Matrix};

/// Gaussian Naive Bayes classifier.
#[derive(Debug, Clone)]
pub struct GaussianNb {
    n_classes: usize,
    /// Per-class log priors.
    log_priors: Vec<f64>,
    /// Per-class per-feature (mean, variance, ln variance).
    stats: Vec<Vec<(f64, f64, f64)>>,
}

impl GaussianNb {
    /// Fits the classifier; rows with NaN cells contribute only their
    /// finite features.
    pub fn fit(xs: &Matrix, ys: &[f64], n_classes: usize) -> GaussianNb {
        assert!(n_classes > 0);
        assert_eq!(xs.rows(), ys.len());
        let d = xs.cols();
        let mut counts = vec![0.0f64; n_classes];
        let mut sums = vec![vec![0.0f64; d]; n_classes];
        let mut sq_sums = vec![vec![0.0f64; d]; n_classes];
        let mut feat_counts = vec![vec![0.0f64; d]; n_classes];
        for r in 0..xs.rows() {
            let c = (ys[r] as usize).min(n_classes - 1);
            counts[c] += 1.0;
            for (f, &x) in xs.row(r).iter().enumerate() {
                if x.is_finite() {
                    sums[c][f] += x;
                    sq_sums[c][f] += x * x;
                    feat_counts[c][f] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum::<f64>().max(1.0);
        let log_priors = counts
            .iter()
            .map(|&c| ((c + 1.0) / (total + n_classes as f64)).ln())
            .collect();
        let stats = (0..n_classes)
            .map(|c| {
                (0..d)
                    .map(|f| {
                        let n = feat_counts[c][f];
                        let (mean, var) = if n < 1.0 {
                            (0.0, 1.0)
                        } else {
                            let mean = sums[c][f] / n;
                            (mean, (sq_sums[c][f] / n - mean * mean).max(1e-9))
                        };
                        (mean, var, var.ln())
                    })
                    .collect()
            })
            .collect();
        GaussianNb {
            n_classes,
            log_priors,
            stats,
        }
    }

    /// Predicted class of a sample (NaN features are skipped).
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.n_classes {
            let mut score = self.log_priors[c];
            for (f, &v) in x.iter().enumerate() {
                if !v.is_finite() {
                    continue;
                }
                let (mean, var, ln_var) = self.stats[c][f];
                score += -0.5 * ((v - mean) * (v - mean) / var + ln_var);
            }
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }
}

/// Ridge linear-regression probe with intercept.
#[derive(Debug, Clone)]
pub struct LinearProbe {
    /// Weights, last entry is the intercept.
    weights: Vec<f64>,
}

impl LinearProbe {
    /// Fits on `(xs, ys)` with mild ridge regularisation; NaN features are
    /// treated as 0 (the harness imputes before probing, so this is only a
    /// safety net).
    pub fn fit(xs: &Matrix, ys: &[f64]) -> LinearProbe {
        assert_eq!(xs.rows(), ys.len());
        let width = xs.cols() + 1;
        let mut design = Vec::with_capacity(xs.rows() * width);
        for r in 0..xs.rows() {
            design.extend(
                xs.row(r)
                    .iter()
                    .map(|&x| if x.is_finite() { x } else { 0.0 }),
            );
            design.push(1.0);
        }
        let weights = ridge_regression(&Matrix::from_vec(xs.rows(), width, design), ys, 1e-3)
            .unwrap_or_else(|| vec![0.0; width]);
        LinearProbe { weights }
    }

    /// Predicted value.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut out = *self.weights.last().expect("intercept present");
        for (w, &v) in self.weights.iter().zip(x) {
            out += w * if v.is_finite() { v } else { 0.0 };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nb_separates_two_gaussians() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let c = i % 2;
                vec![c as f64 * 6.0 + (i % 5) as f64 * 0.1]
            })
            .collect();
        let ys: Vec<f64> = (0..200).map(|i| (i % 2) as f64).collect();
        let xs = Matrix::from_rows(&rows);
        let nb = GaussianNb::fit(&xs, &ys, 2);
        assert_eq!(nb.predict(&[0.2]), 0);
        assert_eq!(nb.predict(&[6.1]), 1);
    }

    #[test]
    fn nb_uses_priors_for_uninformative_features() {
        // 90% class 0; a useless constant feature.
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![1.0]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 90 { 0.0 } else { 1.0 }).collect();
        let nb = GaussianNb::fit(&Matrix::from_rows(&rows), &ys, 2);
        assert_eq!(nb.predict(&[1.0]), 0);
    }

    #[test]
    fn nb_skips_nan_features() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 2) as f64 * 4.0, 0.5]).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let nb = GaussianNb::fit(&Matrix::from_rows(&rows), &ys, 2);
        assert_eq!(nb.predict(&[4.0, f64::NAN]), 1);
    }

    #[test]
    fn linear_probe_recovers_coefficients() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 7) as f64, (i % 11) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 3.0).collect();
        let probe = LinearProbe::fit(&Matrix::from_rows(&rows), &ys);
        let pred = probe.predict(&[3.0, 5.0]);
        assert!((pred - 4.0).abs() < 0.05, "pred {pred}");
    }

    #[test]
    fn linear_probe_tolerates_nan() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let probe = LinearProbe::fit(&Matrix::from_rows(&rows), &ys);
        assert!(probe.predict(&[f64::NAN]).is_finite());
    }
}
