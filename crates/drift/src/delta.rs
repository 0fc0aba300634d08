//! Delta (incremental) variants of the batch drift detectors.
//!
//! The batch detectors ([`KsDetector`](crate::KsDetector),
//! [`Cdbd`](crate::Cdbd), [`Hdddm`](crate::Hdddm)) re-sort, re-bin, or
//! re-concatenate their reference data on every window. The variants
//! here consume windows as maintained [`EcdfMultiset`]s — the caller
//! slides one multiset per column across the stream with
//! `O(changed · log u)` absorb/retract work — and derive the identical
//! decisions from the counts.
//!
//! ## Exactness contract
//!
//! Each delta detector emits a **bit-identical** [`DriftState`] sequence
//! to its batch counterpart fed the same windows (the equivalence tests
//! pin this on messy seeded streams):
//!
//! * KS: [`ks_between`] reproduces `ks_statistic` bit for bit, and the
//!   reference-sliding rules (first window, empty sides, `p < alpha`)
//!   are copied verbatim from [`KsDetector::update`](crate::KsDetector).
//! * CDBD: combined-range KL between 16-bin histograms; the multiset
//!   histogram matches `Histogram::new` bitwise, and the adaptive
//!   threshold (mean + k·std with the deviation floor) runs over the
//!   same divergence history.
//! * HDDDM: mean per-feature Hellinger distance against a growing
//!   baseline. The baseline lives as per-column multisets, so the
//!   append step is `O(support · log u)` instead of the batch path's
//!   full matrix rebuild — the asymptotic win of this module.

use crate::hdddm::BINS;
use crate::state::DriftState;
use oeb_linalg::{hellinger, kl_divergence, ks_between, ks_p_value, EcdfMultiset};

/// Per-column KS drift detector over maintained multisets.
///
/// Bit-identical decision sequence to [`crate::KsDetector`].
#[derive(Debug, Clone)]
pub struct KsDeltaDetector {
    /// Significance level for drift (paper default 0.05).
    pub alpha: f64,
    reference: Option<EcdfMultiset>,
}

impl KsDeltaDetector {
    /// Creates a KS delta detector at significance `alpha`.
    pub fn new(alpha: f64) -> KsDeltaDetector {
        assert!(alpha > 0.0 && alpha < 1.0);
        KsDeltaDetector {
            alpha,
            reference: None,
        }
    }

    /// Feeds the next window of one column as a multiset (non-finite
    /// values never enter a multiset, mirroring the batch `is_finite`
    /// filter). The first window becomes the reference.
    pub fn update(&mut self, window: &EcdfMultiset) -> DriftState {
        match &self.reference {
            None => {
                self.reference = Some(window.clone());
                DriftState::Stable
            }
            Some(reference) => {
                if reference.is_empty() || window.is_empty() {
                    self.reference = Some(window.clone());
                    return DriftState::Stable;
                }
                let d = ks_between(reference, window);
                let p = ks_p_value(d, reference.len(), window.len());
                if p < self.alpha {
                    self.reference = Some(window.clone());
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

/// Shared-range bounds of two multisets — the
/// `fold(f64::INFINITY, f64::min)` / max chain of the batch detectors
/// collapsed onto the maintained min/max. Returns `None` when both
/// sides are empty.
fn combined_range(a: &EcdfMultiset, b: &EcdfMultiset) -> Option<(f64, f64)> {
    let lo = match (a.min(), b.min()) {
        (Some(x), Some(y)) => x.min(y),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => return None,
    };
    let hi = match (a.max(), b.max()) {
        (Some(x), Some(y)) => x.max(y),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => return None,
    };
    Some((lo, hi))
}

/// CDBD over maintained multisets — bit-identical decision sequence to
/// [`crate::Cdbd`].
#[derive(Debug, Clone)]
pub struct CdbdDelta {
    /// Threshold multiplier (drift at mean + k*std of past divergences).
    pub k: f64,
    bins: usize,
    reference: Option<EcdfMultiset>,
    divergences: Vec<f64>,
}

impl CdbdDelta {
    /// Creates a CDBD delta detector with threshold multiplier `k`.
    pub fn new(k: f64) -> CdbdDelta {
        CdbdDelta {
            k,
            bins: 16,
            reference: None,
            divergences: Vec::new(),
        }
    }

    /// Feeds the next batch of one column as a multiset. The first batch
    /// becomes the reference, and so does the next non-empty batch while
    /// the reference is empty; adopting a reference returns `Stable`.
    pub fn update(&mut self, batch: &EcdfMultiset) -> DriftState {
        let reference = match &self.reference {
            Some(reference) if !reference.is_empty() => reference,
            _ => {
                self.reference = Some(batch.clone());
                return DriftState::Stable;
            }
        };
        if batch.is_empty() {
            // Batch semantics: an empty batch is skipped without touching
            // the reference or the divergence history.
            return DriftState::Stable;
        }
        let Some((lo, hi)) = combined_range(reference, batch) else {
            return DriftState::Stable;
        };
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let h_ref = reference.histogram(self.bins, lo, hi);
        let h_new = batch.histogram(self.bins, lo, hi);
        let div = kl_divergence(&h_ref.probabilities(), &h_new.probabilities());

        let state = if self.divergences.len() >= 2 {
            let mean = oeb_linalg::mean(&self.divergences);
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
            self.reference = Some(batch.clone());
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

impl Default for CdbdDelta {
    fn default() -> Self {
        CdbdDelta::new(2.0)
    }
}

/// HDDDM over per-column maintained multisets — bit-identical decision
/// sequence to [`crate::Hdddm`], with the baseline held as multisets so
/// appending a stable window costs `O(d · support · log u)` instead of
/// re-materialising the whole baseline matrix.
#[derive(Debug, Clone)]
pub struct HdddmDelta {
    /// Threshold multiplier for drift (original paper: gamma in [0.5, 2]).
    pub gamma: f64,
    /// Threshold multiplier for the warning zone (must be < gamma).
    pub warn_gamma: f64,
    baseline: Option<Vec<EcdfMultiset>>,
    prev_distance: Option<f64>,
    diffs: Vec<f64>,
}

impl HdddmDelta {
    /// Creates an HDDDM delta detector with the given drift multiplier.
    pub fn new(gamma: f64) -> HdddmDelta {
        HdddmDelta {
            gamma,
            warn_gamma: gamma * 0.5,
            baseline: None,
            prev_distance: None,
            diffs: Vec::new(),
        }
    }

    /// Average per-feature Hellinger distance between two column sets.
    fn distance(a: &[EcdfMultiset], b: &[EcdfMultiset]) -> f64 {
        let d = a.len().min(b.len());
        if d == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for c in 0..d {
            let Some((lo, hi)) = combined_range(&a[c], &b[c]) else {
                continue;
            };
            let hi = if hi > lo { hi } else { lo + 1.0 };
            let ha = a[c].histogram(BINS, lo, hi);
            let hb = b[c].histogram(BINS, lo, hi);
            total += hellinger(&ha.probabilities(), &hb.probabilities());
        }
        total / d as f64
    }

    /// Feeds the next window as one multiset per column.
    pub fn update(&mut self, window: &[EcdfMultiset]) -> DriftState {
        let Some(baseline) = &self.baseline else {
            self.baseline = Some(window.to_vec());
            return DriftState::Stable;
        };
        let dist = Self::distance(baseline, window);
        let state = match self.prev_distance {
            None => DriftState::Stable,
            Some(prev) => {
                let eps = (dist - prev).abs();
                if self.diffs.len() >= 2 {
                    let mean = oeb_linalg::mean(&self.diffs);
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
            self.baseline = Some(window.to_vec());
            self.prev_distance = None;
            self.diffs.clear();
        } else {
            if let Some(prev) = self.prev_distance {
                self.diffs.push((dist - prev).abs());
            }
            self.prev_distance = Some(dist);
            if let Some(base) = &mut self.baseline {
                for (bc, wc) in base.iter_mut().zip(window) {
                    bc.absorb_all(wc);
                }
            }
        }
        state
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.baseline = None;
        self.prev_distance = None;
        self.diffs.clear();
    }
}

impl Default for HdddmDelta {
    fn default() -> Self {
        HdddmDelta::new(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BatchDriftDetector;
    use crate::{Cdbd, Hdddm, KsDetector};
    use oeb_linalg::{EcdfUniverse, Matrix};
    use std::sync::Arc;

    /// Deterministic LCG stream with NaN/inf/±0.0 pollution and a mean
    /// shift per regime block.
    fn messy_stream(n: usize, shift: f64, seed: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match *seed % 17 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -0.0,
                    3 => (k % 3) as f64 + shift,
                    _ => ((*seed >> 11) as f64 / (1u64 << 53) as f64) + shift,
                }
            })
            .collect()
    }

    fn shifting_windows(n_windows: usize, rows: usize, seed: &mut u64) -> Vec<Vec<f64>> {
        (0..n_windows)
            .map(|w| {
                // Regime shifts at windows 7 and 14.
                let shift = match w {
                    0..=6 => 0.0,
                    7..=13 => 2.5,
                    _ => -1.5,
                };
                messy_stream(rows, shift, seed)
            })
            .collect()
    }

    fn universe_of(windows: &[Vec<f64>]) -> Arc<EcdfUniverse> {
        Arc::new(EcdfUniverse::from_values(windows.iter().flatten().copied()))
    }

    fn multiset_of(universe: &Arc<EcdfUniverse>, xs: &[f64]) -> EcdfMultiset {
        let mut ms = EcdfMultiset::new(Arc::clone(universe));
        for &x in xs {
            ms.insert(x);
        }
        ms
    }

    #[test]
    fn ks_delta_matches_batch_state_sequence() {
        let mut seed = 41u64;
        let windows = shifting_windows(21, 120, &mut seed);
        let universe = universe_of(&windows);
        let mut batch = KsDetector::new(0.05);
        let mut delta = KsDeltaDetector::new(0.05);
        let mut drifts = 0;
        for w in &windows {
            let expect = batch.update(w);
            let got = delta.update(&multiset_of(&universe, w));
            assert_eq!(got, expect);
            if got.is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts >= 1, "stream never drifted; test is vacuous");
    }

    #[test]
    fn ks_delta_empty_window_slides_reference() {
        let universe = Arc::new(EcdfUniverse::from_values([1.0, 2.0, 3.0]));
        let mut batch = KsDetector::new(0.05);
        let mut delta = KsDeltaDetector::new(0.05);
        let empty: Vec<f64> = vec![f64::NAN];
        let full = vec![1.0, 2.0, 3.0];
        for w in [&empty, &full, &empty, &full] {
            assert_eq!(delta.update(&multiset_of(&universe, w)), batch.update(w));
        }
    }

    #[test]
    fn cdbd_delta_matches_batch_state_sequence() {
        let mut seed = 43u64;
        let windows = shifting_windows(21, 150, &mut seed);
        let universe = universe_of(&windows);
        let mut batch = Cdbd::default();
        let mut delta = CdbdDelta::default();
        let mut drifts = 0;
        for w in &windows {
            let expect = batch.update(w);
            let got = delta.update(&multiset_of(&universe, w));
            assert_eq!(got, expect);
            if got.is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts >= 1, "stream never drifted; test is vacuous");
    }

    #[test]
    fn cdbd_delta_keeps_reference_on_empty_batch() {
        let universe = Arc::new(EcdfUniverse::from_values([1.0, 2.0]));
        let mut batch = Cdbd::default();
        let mut delta = CdbdDelta::default();
        for w in [
            vec![1.0, 2.0],
            vec![f64::NAN],
            vec![2.0, 2.0],
            vec![1.0, 1.0],
        ] {
            assert_eq!(delta.update(&multiset_of(&universe, &w)), batch.update(&w));
        }
    }

    #[test]
    fn cdbd_empty_first_batch_matches_a_fresh_detector_in_both_engines() {
        // One all-NaN batch, then 10 stationary and 10 shifted batches.
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
        let universe = universe_of(&batches);
        let blank = vec![f64::NAN; 300];
        let mut fresh = Cdbd::default();
        let mut batch = Cdbd::default();
        let mut delta = CdbdDelta::default();
        assert_eq!(batch.update(&blank), DriftState::Stable);
        assert_eq!(
            delta.update(&multiset_of(&universe, &blank)),
            DriftState::Stable
        );
        let mut drifts = 0;
        for b in &batches {
            let expect = fresh.update(b);
            assert_eq!(batch.update(b), expect);
            assert_eq!(delta.update(&multiset_of(&universe, b)), expect);
            drifts += usize::from(expect.is_drift());
        }
        assert!(drifts >= 1, "the shift never fired; test is vacuous");
    }

    #[test]
    // Indexing by (column, window) keeps the transpose explicit.
    #[allow(clippy::needless_range_loop)]
    fn hdddm_delta_matches_batch_state_sequence() {
        let mut seed = 47u64;
        let d = 3;
        // One messy shifted stream per column, re-cut into windows.
        let per_col: Vec<Vec<Vec<f64>>> = (0..d)
            .map(|_| shifting_windows(21, 90, &mut seed))
            .collect();
        let universes: Vec<Arc<EcdfUniverse>> = per_col.iter().map(|w| universe_of(w)).collect();
        let mut batch = Hdddm::default();
        let mut delta = HdddmDelta::default();
        let mut drifts = 0;
        for w in 0..21 {
            let rows: Vec<Vec<f64>> = (0..90)
                .map(|r| (0..d).map(|c| per_col[c][w][r]).collect())
                .collect();
            let expect = batch.update(&Matrix::from_rows(&rows));
            let cols: Vec<EcdfMultiset> = (0..d)
                .map(|c| multiset_of(&universes[c], &per_col[c][w]))
                .collect();
            let got = delta.update(&cols);
            assert_eq!(got, expect, "window {w}");
            if got.is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts >= 1, "stream never drifted; test is vacuous");
    }

    #[test]
    fn resets_clear_state() {
        let universe = Arc::new(EcdfUniverse::from_values([1.0, 2.0]));
        let ms = multiset_of(&universe, &[1.0, 2.0]);
        let mut ks = KsDeltaDetector::new(0.05);
        ks.update(&ms);
        ks.reset();
        assert!(ks.reference.is_none());
        let mut cdbd = CdbdDelta::default();
        cdbd.update(&ms);
        cdbd.reset();
        assert!(cdbd.reference.is_none());
        let mut hd = HdddmDelta::default();
        hd.update(std::slice::from_ref(&ms));
        hd.reset();
        assert!(hd.baseline.is_none());
    }
}
