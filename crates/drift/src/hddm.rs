//! HDDM-A — Frías-Blanco et al., TKDE 2015: drift detection via
//! Hoeffding's inequality on the difference between a cumulative average
//! and the minimum cumulative average seen so far. A 1-D streaming
//! data-drift detector (the paper's Table 8 lists HDDM as a 1-D numeric
//! data-drift method).

use crate::state::{ConceptDriftDetector, DriftState};

/// HDDM with the A-test (averages). Input values are expected in `[0, 1]`;
/// callers feeding raw data should normalise first (the statistics
/// pipeline squashes each column through a tanh before streaming it in).
#[derive(Debug, Clone)]
pub struct HddmA {
    /// `ln(1 / drift_confidence)`, the log factor of every drift bound
    /// (drift confidence e.g. 0.001).
    ln_inv_drift: f64,
    /// `ln(1 / warning_confidence)` (warning confidence e.g. 0.005).
    ln_inv_warning: f64,
    n: usize,
    sum: f64,
    /// Cut point statistics: the minimum (mean + bound) prefix.
    n_min: usize,
    sum_min: f64,
    bound_min: f64,
}

impl HddmA {
    /// Creates a detector with the paper-standard confidences.
    pub fn new(drift_confidence: f64, warning_confidence: f64) -> HddmA {
        assert!(drift_confidence < warning_confidence);
        HddmA {
            ln_inv_drift: (1.0 / drift_confidence).ln(),
            ln_inv_warning: (1.0 / warning_confidence).ln(),
            n: 0,
            sum: 0.0,
            n_min: 0,
            sum_min: 0.0,
            bound_min: f64::INFINITY,
        }
    }
}

impl Default for HddmA {
    fn default() -> Self {
        HddmA::new(0.001, 0.005)
    }
}

impl ConceptDriftDetector for HddmA {
    fn update(&mut self, value: f64) -> DriftState {
        let value = value.clamp(0.0, 1.0);
        self.n += 1;
        self.sum += value;

        let n = self.n as f64;
        let mean = self.sum / n;
        // Hoeffding bound on the prefix mean.
        let bound = ((1.0 / (2.0 * n)) * self.ln_inv_drift).sqrt();

        // Track the prefix with the smallest upper bound on its mean.
        if self.n_min == 0 || mean + bound < self.sum_min / self.n_min as f64 + self.bound_min {
            self.n_min = self.n;
            self.sum_min = self.sum;
            self.bound_min = bound;
        }

        if self.n_min == self.n || self.n - self.n_min < 5 {
            return DriftState::Stable;
        }

        // Compare the post-minimum segment mean against the prefix mean.
        let n_rest = (self.n - self.n_min) as f64;
        let mean_min = self.sum_min / self.n_min as f64;
        let mean_rest = (self.sum - self.sum_min) / n_rest;
        let m = 1.0 / (1.0 / self.n_min as f64 + 1.0 / n_rest);

        let eps_drift = ((1.0 / (2.0 * m)) * self.ln_inv_drift).sqrt();
        let eps_warn = ((1.0 / (2.0 * m)) * self.ln_inv_warning).sqrt();
        let diff = (mean_rest - mean_min).abs();

        if diff > eps_drift {
            let state = DriftState::Drift;
            self.reset();
            state
        } else if diff > eps_warn {
            DriftState::Warning
        } else {
            DriftState::Stable
        }
    }

    fn reset(&mut self) {
        self.n = 0;
        self.sum = 0.0;
        self.n_min = 0;
        self.sum_min = 0.0;
        self.bound_min = f64::INFINITY;
    }

    fn name(&self) -> &'static str {
        "HDDM-A"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The replaced update: three `ln` calls per value, and a drift
    /// rebuilds the detector from its two confidences.
    fn update_reference(
        det: &mut HddmA,
        drift_confidence: f64,
        warning_confidence: f64,
        value: f64,
    ) -> DriftState {
        let hoeffding_bound =
            |n: f64, confidence: f64| ((1.0 / (2.0 * n)) * (1.0 / confidence).ln()).sqrt();
        let value = value.clamp(0.0, 1.0);
        det.n += 1;
        det.sum += value;

        let n = det.n as f64;
        let mean = det.sum / n;
        let bound = hoeffding_bound(n, drift_confidence);
        if det.n_min == 0 || mean + bound < det.sum_min / det.n_min as f64 + det.bound_min {
            det.n_min = det.n;
            det.sum_min = det.sum;
            det.bound_min = bound;
        }
        if det.n_min == det.n || det.n - det.n_min < 5 {
            return DriftState::Stable;
        }
        let n_rest = (det.n - det.n_min) as f64;
        let mean_min = det.sum_min / det.n_min as f64;
        let mean_rest = (det.sum - det.sum_min) / n_rest;
        let m = 1.0 / (1.0 / det.n_min as f64 + 1.0 / n_rest);

        let eps_drift = ((1.0 / (2.0 * m)) * (1.0 / drift_confidence).ln()).sqrt();
        let eps_warn = ((1.0 / (2.0 * m)) * (1.0 / warning_confidence).ln()).sqrt();
        let diff = (mean_rest - mean_min).abs();
        if diff > eps_drift {
            *det = HddmA::new(drift_confidence, warning_confidence);
            DriftState::Drift
        } else if diff > eps_warn {
            DriftState::Warning
        } else {
            DriftState::Stable
        }
    }

    /// [0, 1] streams in segments of Bernoulli draws at a rate that
    /// jumps between segments, with constant runs mixed in.
    fn unit_stream() -> impl Strategy<Value = Vec<f64>> {
        let segment = (0.0..1.0f64, any::<bool>(), 1usize..500, any::<u64>());
        prop::collection::vec(segment, 1..8).prop_map(|segments| {
            let mut out = Vec::new();
            for (rate, binary, len, seed) in segments {
                let mut x = seed;
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                    let bit = f64::from(u8::from(u < rate));
                    out.push(if binary { bit } else { rate });
                }
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn stored_logs_match_the_per_value_logs(
            stream in unit_stream(),
            (drift, warning) in prop_oneof![Just((0.001, 0.005)), Just((0.05, 0.2))],
        ) {
            let mut det = HddmA::new(drift, warning);
            let mut reference = HddmA::new(drift, warning);
            for (i, &v) in stream.iter().enumerate() {
                let expected = update_reference(&mut reference, drift, warning, v);
                prop_assert_eq!(det.update(v), expected, "value {}", i);
            }
        }
    }

    #[test]
    fn quiet_on_stationary_bernoulli() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut det = HddmA::default();
        let mut drifts = 0;
        for _ in 0..5000 {
            let v = if rng.gen::<f64>() < 0.3 { 1.0 } else { 0.0 };
            if det.update(v).is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts <= 1, "{drifts} false drifts");
    }

    #[test]
    fn detects_mean_shift() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut det = HddmA::default();
        for _ in 0..2000 {
            let v = if rng.gen::<f64>() < 0.2 { 1.0 } else { 0.0 };
            det.update(v);
        }
        let mut fired = false;
        for _ in 0..2000 {
            let v = if rng.gen::<f64>() < 0.7 { 1.0 } else { 0.0 };
            if det.update(v).is_drift() {
                fired = true;
                break;
            }
        }
        assert!(fired, "HDDM-A missed a 0.2 -> 0.7 shift");
    }

    #[test]
    fn detects_continuous_mean_shift() {
        let mut det = HddmA::default();
        for i in 0..1000 {
            det.update(0.3 + 0.01 * ((i % 7) as f64 - 3.0) / 3.0);
        }
        let mut fired = false;
        for i in 0..1000 {
            if det
                .update(0.8 + 0.01 * ((i % 7) as f64 - 3.0) / 3.0)
                .is_drift()
            {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut det = HddmA::default();
        for _ in 0..100 {
            det.update(0.5);
        }
        det.reset();
        assert_eq!(det.n, 0);
        assert_eq!(format!("{det:?}"), format!("{:?}", HddmA::default()));
    }
}
