//! Kolmogorov–Smirnov batch drift detector.
//!
//! A 1-D two-sample KS test between the current window and a reference
//! window, with drift declared at `p < alpha` (the paper uses
//! `p = 0.05`). On drift the reference slides to the current window, so
//! the detector tracks regime changes rather than cumulative divergence.

use crate::state::DriftState;
use oeb_linalg::{ks_p_value, ks_statistic_sorted};

/// Per-column KS drift detector.
#[derive(Debug, Clone)]
pub struct KsDetector {
    /// Significance level for drift (paper default 0.05).
    pub alpha: f64,
    /// The reference window's finite values, sorted by `total_cmp`.
    reference: Option<Vec<f64>>,
}

impl KsDetector {
    /// Creates a KS detector at significance `alpha`.
    pub fn new(alpha: f64) -> KsDetector {
        assert!(alpha > 0.0 && alpha < 1.0);
        KsDetector {
            alpha,
            reference: None,
        }
    }

    /// Feeds the next window of one column (non-finite values are
    /// ignored). The first window becomes the reference.
    ///
    /// Each window is sorted once and kept sorted as the reference.
    /// `total_cmp` orders every finite value, so the sort has exactly one
    /// result, and [`ks_statistic_sorted`] returns the same bits as
    /// `ks_statistic` on the unsorted windows.
    pub fn update(&mut self, column: &[f64]) -> DriftState {
        let mut clean: Vec<f64> = column.iter().copied().filter(|x| x.is_finite()).collect();
        clean.sort_unstable_by(f64::total_cmp);
        match &self.reference {
            None => {
                self.reference = Some(clean);
                DriftState::Stable
            }
            Some(reference) => {
                if reference.is_empty() || clean.is_empty() {
                    self.reference = Some(clean);
                    return DriftState::Stable;
                }
                let d = ks_statistic_sorted(reference, &clean);
                let p = ks_p_value(d, reference.len(), clean.len());
                if p < self.alpha {
                    self.reference = Some(clean);
                    DriftState::Drift
                } else {
                    DriftState::Stable
                }
            }
        }
    }

    /// Clears the reference.
    pub fn reset(&mut self) {
        self.reference = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_linalg::ks_statistic;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The replaced detector: keeps the reference unsorted, and
    /// `ks_statistic` sorts copies of both sides on every window.
    #[derive(Default)]
    struct UnsortedKs {
        reference: Option<Vec<f64>>,
    }

    impl UnsortedKs {
        fn update(&mut self, alpha: f64, column: &[f64]) -> DriftState {
            let clean: Vec<f64> = column.iter().copied().filter(|x| x.is_finite()).collect();
            match &self.reference {
                None => {
                    self.reference = Some(clean);
                    DriftState::Stable
                }
                Some(reference) => {
                    if reference.is_empty() || clean.is_empty() {
                        self.reference = Some(clean);
                        return DriftState::Stable;
                    }
                    let d = ks_statistic(reference, &clean);
                    let p = ks_p_value(d, reference.len(), clean.len());
                    if p < alpha {
                        self.reference = Some(clean);
                        DriftState::Drift
                    } else {
                        DriftState::Stable
                    }
                }
            }
        }
    }

    /// Windows of 0-80 values around a level that moves between
    /// windows, with ties, both zeros, and NaN/inf cells.
    fn windows() -> impl Strategy<Value = Vec<Vec<f64>>> {
        let cell = prop_oneof![
            6 => -1.0..1.0f64,
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => (0u8..3).prop_map(f64::from),
            1 => prop_oneof![Just(f64::NAN), Just(f64::INFINITY)],
        ];
        prop::collection::vec((0u8..4, prop::collection::vec(cell, 0..80)), 1..16).prop_map(|ws| {
            ws.into_iter()
                .map(|(level, w)| w.into_iter().map(|x| x + f64::from(level)).collect())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_reference_matches_the_unsorted_detector(
            ws in windows(),
            alpha in prop_oneof![Just(0.05), Just(0.3)],
        ) {
            let mut det = KsDetector::new(alpha);
            let mut reference = UnsortedKs::default();
            for w in &ws {
                prop_assert_eq!(det.update(w), reference.update(alpha, w));
            }
        }
    }

    fn uniform_window(rng: &mut StdRng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n).map(|_| lo + rng.gen::<f64>() * (hi - lo)).collect()
    }

    #[test]
    fn stable_on_identical_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut det = KsDetector::new(0.01);
        let mut drifts = 0;
        for _ in 0..30 {
            let w = uniform_window(&mut rng, 0.0, 1.0, 300);
            if det.update(&w).is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts <= 1, "{drifts} false drifts");
    }

    #[test]
    fn detects_shifted_distribution() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = KsDetector::new(0.05);
        det.update(&uniform_window(&mut rng, 0.0, 1.0, 500));
        let state = det.update(&uniform_window(&mut rng, 0.5, 1.5, 500));
        assert!(state.is_drift());
    }

    #[test]
    fn reference_slides_after_drift() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = KsDetector::new(0.05);
        det.update(&uniform_window(&mut rng, 0.0, 1.0, 500));
        assert!(det
            .update(&uniform_window(&mut rng, 2.0, 3.0, 500))
            .is_drift());
        // The new regime is now the reference: no further drift.
        assert!(!det
            .update(&uniform_window(&mut rng, 2.0, 3.0, 500))
            .is_drift());
    }

    #[test]
    fn nan_values_are_ignored() {
        let mut det = KsDetector::new(0.05);
        let mut w: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        w[10] = f64::NAN;
        det.update(&w);
        let w2: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        assert!(!det.update(&w2).is_drift());
    }

    #[test]
    fn empty_windows_are_tolerated() {
        let mut det = KsDetector::new(0.05);
        assert_eq!(det.update(&[]), DriftState::Stable);
        assert_eq!(det.update(&[1.0, 2.0]), DriftState::Stable);
    }
}
