//! CDBD — Confidence Distribution Batch Detection, Lindstrom, Mac Namee &
//! Delany, Evolving Systems 2013.
//!
//! A 1-D batch detector originally applied to classifier confidence
//! scores: the KL divergence between each incoming batch's score
//! distribution and the reference batch is compared to an adaptive
//! threshold (mean + k * std of past divergences).

use crate::state::DriftState;
use oeb_linalg::{kl_divergence, Histogram};

/// CDBD detector over a stream of 1-D batches.
#[derive(Debug, Clone)]
pub struct Cdbd {
    /// Threshold multiplier (drift at mean + k*std of past divergences).
    pub k: f64,
    bins: usize,
    reference: Option<Vec<f64>>,
    divergences: Vec<f64>,
}

impl Cdbd {
    /// Creates a CDBD detector with threshold multiplier `k`.
    pub fn new(k: f64) -> Cdbd {
        Cdbd {
            k,
            bins: 16,
            reference: None,
            divergences: Vec::new(),
        }
    }
}

impl Default for Cdbd {
    fn default() -> Self {
        Cdbd::new(2.0)
    }
}

impl Cdbd {
    /// Feeds the next batch of one column (non-finite values are
    /// ignored). The first batch becomes the reference, and so does the
    /// next non-empty batch while the reference is empty; adopting a
    /// reference returns `Stable`. An empty batch is skipped.
    pub fn update(&mut self, batch: &[f64]) -> DriftState {
        let clean: Vec<f64> = batch.iter().copied().filter(|x| x.is_finite()).collect();
        let reference = match &self.reference {
            Some(reference) if !reference.is_empty() => reference,
            _ => {
                self.reference = Some(clean);
                return DriftState::Stable;
            }
        };
        if clean.is_empty() {
            return DriftState::Stable;
        }
        // Histograms over the combined range.
        let lo = reference
            .iter()
            .chain(clean.iter())
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = reference
            .iter()
            .chain(clean.iter())
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let h_ref = Histogram::new(reference, self.bins, lo, hi);
        let h_new = Histogram::new(&clean, self.bins, lo, hi);
        let div = kl_divergence(&h_ref.probabilities(), &h_new.probabilities());

        let state = if self.divergences.len() >= 2 {
            let mean = oeb_linalg::mean(&self.divergences);
            // Floor the deviation so near-identical history does not make
            // the detector hypersensitive to sampling noise.
            let std = oeb_linalg::std_dev(&self.divergences).max(0.25 * mean + 1e-3);
            if div > mean + self.k * std {
                DriftState::Drift
            } else if div > mean + 0.5 * self.k * std {
                DriftState::Warning
            } else {
                DriftState::Stable
            }
        } else {
            DriftState::Stable
        };

        if state.is_drift() {
            // Reset: the drifted batch becomes the new reference.
            self.reference = Some(clean);
            self.divergences.clear();
        } else {
            self.divergences.push(div);
        }
        state
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.reference = None;
        self.divergences.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch(rng: &mut StdRng, shift: f64, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen::<f64>() + shift).collect()
    }

    #[test]
    fn quiet_on_stationary_batches() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut det = Cdbd::default();
        let mut drifts = 0;
        for _ in 0..25 {
            if det.update(&batch(&mut rng, 0.0, 300)).is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts <= 2, "{drifts} false drifts");
    }

    #[test]
    fn fires_on_shifted_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = Cdbd::default();
        for _ in 0..8 {
            det.update(&batch(&mut rng, 0.0, 300));
        }
        let mut fired = false;
        for _ in 0..3 {
            if det.update(&batch(&mut rng, 2.0, 300)).is_drift() {
                fired = true;
                break;
            }
        }
        assert!(fired, "CDBD missed a large shift");
    }

    #[test]
    fn resets_reference_after_drift() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = Cdbd::default();
        for _ in 0..8 {
            det.update(&batch(&mut rng, 0.0, 300));
        }
        while !det.update(&batch(&mut rng, 2.0, 300)).is_drift() {}
        let mut post = 0;
        for _ in 0..10 {
            if det.update(&batch(&mut rng, 2.0, 300)).is_drift() {
                post += 1;
            }
        }
        assert!(post <= 1, "{post} drifts after reset");
    }

    #[test]
    fn tolerates_empty_and_nan_batches() {
        let mut det = Cdbd::default();
        assert_eq!(det.update(&[]), DriftState::Stable);
        assert_eq!(det.update(&[f64::NAN, 1.0]), DriftState::Stable);
        assert_eq!(det.update(&[1.0, 2.0]), DriftState::Stable);
    }

    #[test]
    fn empty_first_batch_matches_a_fresh_detector() {
        // One all-NaN batch, then 10 stationary and 10 shifted batches:
        // the blinded detector must adopt the first non-empty batch as
        // its reference and from then on agree with a fresh detector.
        let mut seed = 53u64;
        let batches: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                (0..300)
                    .map(|_| {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let u = (seed >> 11) as f64 / (1u64 << 53) as f64;
                        u + if i < 10 { 0.0 } else { 3.0 }
                    })
                    .collect()
            })
            .collect();
        let mut fresh = Cdbd::default();
        let mut blinded = Cdbd::default();
        assert_eq!(blinded.update(&[f64::NAN; 300]), DriftState::Stable);
        let mut drifts = 0;
        for b in &batches {
            let expect = fresh.update(b);
            assert_eq!(blinded.update(b), expect);
            drifts += usize::from(expect.is_drift());
        }
        assert!(drifts >= 1, "the shift never fired; test is vacuous");
    }
}
