//! HDDDM — Hellinger Distance Drift Detection Method, Ditzler & Polikar,
//! CIDUE 2011.
//!
//! A multi-dimensional batch detector: each incoming window is compared to
//! a growing baseline via the average per-feature Hellinger distance
//! between histograms. The change in distance between consecutive windows
//! is tested against an adaptive threshold (mean + gamma * std of the
//! historical changes). On drift the baseline resets to the new window.

use crate::state::{BatchDriftDetector, DriftState};
use oeb_linalg::{hellinger, Histogram, Matrix};

/// Histogram resolution used for the per-feature Hellinger distances.
const BINS: usize = 16;

/// HDDDM detector.
#[derive(Debug, Clone)]
pub struct Hdddm {
    /// Threshold multiplier for drift (original paper: gamma in [0.5, 2]).
    pub gamma: f64,
    /// Threshold multiplier for the warning zone (must be < gamma).
    pub warn_gamma: f64,
    /// Every window since the last reset, one vector per column.
    baseline: Option<Vec<Vec<f64>>>,
    prev_distance: Option<f64>,
    /// Historical |epsilon| changes since the last reset.
    diffs: Vec<f64>,
}

impl Hdddm {
    /// Creates an HDDDM detector with the given drift multiplier.
    pub fn new(gamma: f64) -> Hdddm {
        Hdddm {
            gamma,
            warn_gamma: gamma * 0.5,
            baseline: None,
            prev_distance: None,
            diffs: Vec::new(),
        }
    }

    /// Average per-feature Hellinger distance between two column sets.
    fn distance(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        let d = a.len().min(b.len());
        if d == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (ca, cb) in a.iter().zip(b) {
            // Shared range so the histograms are comparable.
            let (lo, hi) = ca
                .iter()
                .chain(cb)
                .copied()
                .filter(|x| x.is_finite())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x), hi.max(x))
                });
            if !lo.is_finite() {
                // No finite value in either column.
                continue;
            }
            let hi = if hi > lo { hi } else { lo + 1.0 };
            let ha = Histogram::new(ca, BINS, lo, hi);
            let hb = Histogram::new(cb, BINS, lo, hi);
            total += hellinger(&ha.probabilities(), &hb.probabilities());
        }
        total / d as f64
    }
}

/// The columns of `m`, each as one contiguous vector.
fn columns(m: &Matrix) -> Vec<Vec<f64>> {
    let mut cols = vec![Vec::with_capacity(m.rows()); m.cols()];
    for r in 0..m.rows() {
        for (col, &x) in cols.iter_mut().zip(m.row(r)) {
            col.push(x);
        }
    }
    cols
}

impl Default for Hdddm {
    fn default() -> Self {
        Hdddm::new(1.5)
    }
}

impl BatchDriftDetector for Hdddm {
    fn update(&mut self, window: &Matrix) -> DriftState {
        let window = columns(window);
        let Some(baseline) = &mut self.baseline else {
            self.baseline = Some(window);
            return DriftState::Stable;
        };
        let dist = Self::distance(baseline, &window);
        let state = match self.prev_distance {
            None => DriftState::Stable,
            Some(prev) => {
                let eps = (dist - prev).abs();
                if self.diffs.len() >= 2 {
                    let mean = oeb_linalg::mean(&self.diffs);
                    // Floor the deviation so a run of near-identical
                    // distances cannot make the threshold collapse.
                    let std = oeb_linalg::std_dev(&self.diffs).max(0.25 * mean + 1e-4);
                    if eps > mean + self.gamma * std {
                        DriftState::Drift
                    } else if eps > mean + self.warn_gamma * std {
                        DriftState::Warning
                    } else {
                        DriftState::Stable
                    }
                } else {
                    DriftState::Stable
                }
            }
        };
        if state.is_drift() {
            // Reset the baseline to the drifted window.
            *baseline = window;
            self.prev_distance = None;
            self.diffs.clear();
        } else {
            if let Some(prev) = self.prev_distance {
                self.diffs.push((dist - prev).abs());
            }
            self.prev_distance = Some(dist);
            for (base, col) in baseline.iter_mut().zip(&window) {
                base.extend_from_slice(col);
            }
        }
        state
    }

    fn reset(&mut self) {
        self.baseline = None;
        self.prev_distance = None;
        self.diffs.clear();
    }

    fn name(&self) -> &'static str {
        "HDDDM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn window(rng: &mut StdRng, shift: f64, n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>() + shift).collect())
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn quiet_on_stationary_windows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut det = Hdddm::default();
        let mut drifts = 0;
        for _ in 0..25 {
            if det.update(&window(&mut rng, 0.0, 200, 4)).is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts <= 2, "{drifts} false drifts");
    }

    #[test]
    fn fires_on_abrupt_shift() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = Hdddm::default();
        for _ in 0..10 {
            det.update(&window(&mut rng, 0.0, 200, 4));
        }
        let mut fired = false;
        for _ in 0..3 {
            if det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {
                fired = true;
                break;
            }
        }
        assert!(fired, "HDDDM missed an abrupt shift");
    }

    #[test]
    fn baseline_resets_after_drift() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = Hdddm::default();
        for _ in 0..10 {
            det.update(&window(&mut rng, 0.0, 200, 4));
        }
        // Force the drift.
        while !det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {}
        // The new regime becomes the baseline: staying there is stable.
        let mut post_drifts = 0;
        for _ in 0..10 {
            if det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {
                post_drifts += 1;
            }
        }
        assert!(
            post_drifts <= 1,
            "{post_drifts} drifts after baseline reset"
        );
    }

    #[test]
    fn distance_is_zero_for_identical_windows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let cols = columns(&m);
        assert_eq!(cols, [vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]]);
        assert!(Hdddm::distance(&cols, &cols) < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut det = Hdddm::default();
        det.update(&window(&mut rng, 0.0, 50, 2));
        det.reset();
        assert!(det.baseline.is_none());
    }
}
