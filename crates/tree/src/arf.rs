//! Adaptive Random Forest — Gomes et al., Machine Learning 2017.
//!
//! An ensemble of Hoeffding trees, each trained with Poisson(6) online
//! bagging on a random feature subspace and monitored by its own ADWIN
//! drift detector on the prediction-error stream. A warning spawns a
//! background tree; a confirmed drift swaps it in. Classification only —
//! the paper reports N/A for ARF on regression streams, and so does this
//! implementation by construction.

use crate::hoeffding::{HoeffdingConfig, HoeffdingTree};
use oeb_drift::{Adwin, ConceptDriftDetector};
use oeb_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// ARF hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ArfConfig {
    /// Ensemble size (the paper's default is 5).
    pub n_trees: usize,
    /// Poisson rate for online bagging (standard 6.0).
    pub lambda: f64,
    /// ADWIN delta for the drift detector.
    pub drift_delta: f64,
    /// ADWIN delta for the (more sensitive) warning detector.
    pub warning_delta: f64,
    /// Base-tree configuration.
    pub tree: HoeffdingConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArfConfig {
    fn default() -> Self {
        ArfConfig {
            n_trees: 5,
            lambda: 6.0,
            drift_delta: 0.00001,
            warning_delta: 0.0001,
            tree: HoeffdingConfig::default(),
            seed: 0x617266, // "arf"
        }
    }
}

/// One ensemble member: the foreground tree, its drift and warning
/// detectors, and the background tree grown since the last warning.
struct ArfMember {
    tree: HoeffdingTree,
    drift: Adwin,
    warning: Adwin,
    background: Option<HoeffdingTree>,
}

impl ArfMember {
    /// Online-bagging training step: trains the foreground tree (and the
    /// background tree when present) `k` times on the sample. Consumes no
    /// randomness — `k` comes from [`AdaptiveRandomForest::pre_pass_member`].
    fn bagged_train(&mut self, x: &[f64], y: usize, k: usize) {
        for _ in 0..k {
            self.tree.learn_one(x, y);
            if let Some(bg) = &mut self.background {
                bg.learn_one(x, y);
            }
        }
    }
}

/// The Adaptive Random Forest classifier.
pub struct AdaptiveRandomForest {
    members: Vec<ArfMember>,
    n_features: usize,
    n_classes: usize,
    config: ArfConfig,
    rng: StdRng,
    /// Count of tree replacements triggered by drift.
    pub n_resets: usize,
    /// Vote buffer reused across [`AdaptiveRandomForest::predict`] calls.
    vote_scratch: RefCell<Vec<f64>>,
}

impl AdaptiveRandomForest {
    /// Creates an ARF for `n_features` inputs and `n_classes` labels.
    pub fn new(n_features: usize, n_classes: usize, config: ArfConfig) -> AdaptiveRandomForest {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let members = (0..config.n_trees)
            .map(|_| ArfMember {
                tree: new_subspace_tree(n_features, n_classes, &config, &mut rng),
                drift: Adwin::new(config.drift_delta),
                warning: Adwin::new(config.warning_delta),
                background: None,
            })
            .collect();
        AdaptiveRandomForest {
            members,
            n_features,
            n_classes,
            config,
            rng,
            n_resets: 0,
            vote_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Accuracy-weighted vote (ARF's default voting scheme): each member
    /// votes with weight `1 - recent error rate`, the recent error rate
    /// being the mean of its ADWIN window.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes = self.vote_scratch.borrow_mut();
        self.predict_into(x, &mut votes)
    }

    /// [`AdaptiveRandomForest::predict`] voting into a caller-provided
    /// buffer (cleared and resized here), avoiding the per-call vote
    /// allocation of the historical path.
    pub fn predict_into(&self, x: &[f64], votes: &mut Vec<f64>) -> usize {
        votes.clear();
        votes.resize(self.n_classes, 0.0);
        for m in &self.members {
            let weight = (1.0 - m.drift.mean()).max(0.01);
            votes[m.tree.predict(x).min(self.n_classes - 1)] += weight;
        }
        let mut best = 0;
        for (c, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = c;
            }
        }
        best
    }

    /// Per-member randomness pre-pass for one sample: error monitoring,
    /// warning/drift handling (either of which may consume RNG to draw a
    /// background/replacement subspace) and the Poisson bag count,
    /// returned for [`ArfMember::bagged_train`].
    fn pre_pass_member(&mut self, m: &mut ArfMember, x: &[f64], y: usize) -> usize {
        let y = y.min(self.n_classes - 1);
        let n_features = self.n_features;
        let n_classes = self.n_classes;
        let config = self.config;
        // Monitor the member's error before training on the sample.
        // ADWIN cuts on any mean change; only a cut that leaves the
        // window at a *higher* error is a drift (cuts on improving
        // error are the tree learning, not the concept changing).
        let err = f64::from(m.tree.predict(x) != y);
        let warn_pre = m.warning.mean();
        let warning_fired = m.warning.update(err).is_drift() && m.warning.mean() > warn_pre;
        let drift_pre = m.drift.mean();
        let drift_fired = m.drift.update(err).is_drift() && m.drift.mean() > drift_pre;

        if warning_fired && m.background.is_none() {
            m.background = Some(new_subspace_tree(
                n_features,
                n_classes,
                &config,
                &mut self.rng,
            ));
        }
        if drift_fired {
            // Promote the background tree (or start fresh).
            let replacement = m.background.take().unwrap_or_else(|| {
                new_subspace_tree(n_features, n_classes, &config, &mut self.rng)
            });
            m.tree = replacement;
            m.drift.reset();
            m.warning.reset();
            self.n_resets += 1;
        }

        // Online bagging: train k ~ Poisson(lambda) times.
        poisson(config.lambda, &mut self.rng)
    }

    /// Learns one labelled sample with per-member Poisson bagging and
    /// drift monitoring.
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        let mut members = std::mem::take(&mut self.members);
        for m in &mut members {
            let k = self.pre_pass_member(m, x, y);
            m.bagged_train(x, y.min(self.n_classes - 1), k);
        }
        self.members = members;
    }

    /// Learns a whole window sample-by-sample.
    pub fn learn_window(&mut self, xs: &Matrix, ys: &[f64]) {
        for r in 0..xs.rows() {
            self.learn_one(xs.row(r), ys[r] as usize);
        }
    }

    /// Approximate model size in bytes: all foreground and background
    /// trees plus the detector state (ADWIN buckets are small and counted
    /// at a flat estimate).
    pub fn memory_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|m| {
                m.tree.memory_bytes()
                    + m.background
                        .as_ref()
                        .map(HoeffdingTree::memory_bytes)
                        .unwrap_or(0)
                    + 2 * 512
            })
            .sum()
    }

    /// Ensemble size.
    pub fn n_trees(&self) -> usize {
        self.members.len()
    }
}

fn new_subspace_tree(
    n_features: usize,
    n_classes: usize,
    config: &ArfConfig,
    rng: &mut StdRng,
) -> HoeffdingTree {
    // Random subspace of round(sqrt(d)) + 1 features, ARF's default.
    let k = ((n_features as f64).sqrt().round() as usize + 1).clamp(1, n_features);
    let mut features: Vec<usize> = (0..n_features).collect();
    features.shuffle(rng);
    features.truncate(k);
    HoeffdingTree::new(n_features, n_classes, config.tree).with_feature_subset(features)
}

/// Knuth's Poisson sampler (fine for lambda = 6).
fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 64 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(concept: usize, n: usize) -> Vec<(Vec<f64>, usize)> {
        (0..n)
            .map(|i| {
                let x0 = (i % 100) as f64;
                let x1 = ((i * 7) % 100) as f64;
                let y = match concept {
                    0 => usize::from(x0 >= 50.0),
                    _ => usize::from(x0 < 50.0),
                };
                (vec![x0, x1, (i % 3) as f64], y)
            })
            .collect()
    }

    #[test]
    fn learns_a_stationary_concept() {
        let mut arf = AdaptiveRandomForest::new(3, 2, ArfConfig::default());
        for (x, y) in stream(0, 4000) {
            arf.learn_one(&x, y);
        }
        let correct = stream(0, 300)
            .iter()
            .filter(|(x, y)| arf.predict(x) == *y)
            .count();
        assert!(correct > 260, "accuracy {correct}/300");
    }

    #[test]
    fn recovers_after_concept_flip() {
        let mut arf = AdaptiveRandomForest::new(3, 2, ArfConfig::default());
        for (x, y) in stream(0, 4000) {
            arf.learn_one(&x, y);
        }
        for (x, y) in stream(1, 6000) {
            arf.learn_one(&x, y);
        }
        assert!(arf.n_resets > 0, "no drift-triggered resets");
        let correct = stream(1, 300)
            .iter()
            .filter(|(x, y)| arf.predict(x) == *y)
            .count();
        assert!(correct > 240, "post-drift accuracy {correct}/300");
    }

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(6.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn ensemble_size_and_memory() {
        let arf = AdaptiveRandomForest::new(4, 3, ArfConfig::default());
        assert_eq!(arf.n_trees(), 5);
        assert!(arf.memory_bytes() > 0);
    }

    #[test]
    fn untrained_forest_predicts_a_valid_class() {
        let arf = AdaptiveRandomForest::new(4, 3, ArfConfig::default());
        assert!(arf.predict(&[0.0, 0.0, 0.0, 0.0]) < 3);
    }
}
