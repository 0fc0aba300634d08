//! Incremental Hoeffding tree (VFDT) for streaming classification —
//! Domingos & Hulten, KDD 2000 — with Gaussian numeric attribute
//! observers. This is the base learner inside the Adaptive Random Forest
//! (§4.5 of the paper).

use oeb_linalg::Matrix;
use oeb_trace::Counter;

/// Grace-period split evaluations performed across all trees.
static SPLIT_CHECKS: Counter = Counter::new("train.hoeffding.split_checks");

/// Online Gaussian estimator (Welford).
#[derive(Debug, Clone, Default)]
struct Gaussian {
    n: f64,
    mean: f64,
    m2: f64,
}

impl Gaussian {
    fn update(&mut self, x: f64) {
        self.n += 1.0;
        let d = x - self.mean;
        self.mean += d / self.n;
        self.m2 += d * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.n < 2.0 {
            return 0.0;
        }
        (self.m2 / self.n).max(0.0).sqrt()
    }

    /// P(X <= x) under the fitted Gaussian.
    #[cfg(test)]
    fn cdf(&self, x: f64) -> f64 {
        cdf_with(self.mean, self.std(), x)
    }
}

/// P(X <= x) under a Gaussian with mean `mean` and standard deviation
/// `s`. Split evaluation caches `std()` once per (feature, class) and
/// passes it here for each of the eight candidate thresholds; the test
/// reference evaluator recomputes it per threshold, with the same
/// arithmetic, so both paths produce the same bits.
fn cdf_with(mean: f64, s: f64, x: f64) -> f64 {
    if s <= 1e-12 {
        return if x >= mean { 1.0 } else { 0.0 };
    }
    0.5 * (1.0 + erf((x - mean) / (s * std::f64::consts::SQRT_2)))
}

/// Abramowitz–Stegun rational approximation of erf (|error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Maintained per-leaf class-count aggregates: the running total, the
/// presence count (classes with a nonzero count), and the incrementally
/// tracked majority class.
///
/// Exactness contract (each piece is asserted bitwise by
/// `leaf_totals_snapshot_matches_batch_rescan`):
/// * `total` — counts only ever grow by `1.0`, so both the running
///   total and any left-to-right re-sum are exact integer arithmetic
///   below 2^53 and produce identical bits;
/// * `majority` — maintained with the first-argmax rule (a class takes
///   over only when strictly greater, or on an exact tie with a lower
///   index), matching a full rescan;
/// * `present` — exact integer bookkeeping on zero transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafTotals {
    counts: Vec<f64>,
    total: f64,
    majority: usize,
    present: usize,
}

impl LeafTotals {
    /// Empty aggregate over `n_classes` classes.
    pub fn new(n_classes: usize) -> LeafTotals {
        LeafTotals {
            counts: vec![0.0; n_classes],
            total: 0.0,
            majority: 0,
            present: 0,
        }
    }

    /// Per-class counts.
    #[inline]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Total observations, maintained incrementally (bit-identical to
    /// re-summing the counts: exact integers below 2^53).
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Majority class (first on ties), maintained incrementally.
    #[inline]
    pub fn majority(&self) -> usize {
        self.majority
    }

    /// True when at most one class has been observed. A pure leaf's
    /// split evaluation provably returns no gain (see
    /// `LeafStats::best_splits`), so callers may skip it entirely.
    #[inline]
    pub fn is_pure(&self) -> bool {
        self.present <= 1
    }

    fn absorb_class(&mut self, y: usize) {
        // oeb-lint: allow(float-eq) -- counts are exact integers
        if self.counts[y] == 0.0 {
            self.present += 1;
        }
        self.counts[y] += 1.0;
        self.total += 1.0;
        // First-argmax maintenance: `y` takes the majority only when it
        // strictly exceeds the incumbent, or ties it from a lower index —
        // exactly the order a left-to-right rescan would prefer.
        if y != self.majority {
            let (cy, cm) = (self.counts[y], self.counts[self.majority]);
            if cy > cm || (cy == cm && y < self.majority) {
                self.majority = y;
            }
        }
    }
}

/// First-index argmax over the counts (the historical majority rule):
/// the rescan the tests check [`LeafTotals::majority`] against.
#[cfg(test)]
fn rescan_majority(counts: &[f64]) -> usize {
    let mut best = 0;
    for (c, &v) in counts.iter().enumerate() {
        if v > counts[best] {
            best = c;
        }
    }
    best
}

/// Reused buffers for split evaluation: the per-class `(n, mean, std)`
/// cache of the current feature and the projected left/right count
/// vectors (the historical path allocated both per candidate threshold).
#[derive(Debug, Clone, Default)]
struct SplitScratch {
    per_class: Vec<(f64, f64, f64)>,
    left: Vec<f64>,
    right: Vec<f64>,
}

/// Statistics held at a learning leaf.
#[derive(Debug, Clone)]
struct LeafStats {
    /// Maintained class-count aggregates (counts, total, majority).
    totals: LeafTotals,
    /// Flattened Gaussian observers: `observers[feature * n_classes + class]`.
    /// One contiguous allocation per leaf instead of one per feature, and
    /// the per-sample update walks it with a constant stride.
    observers: Vec<Gaussian>,
    n_classes: usize,
    n_since_check: usize,
}

impl LeafStats {
    fn new(n_features: usize, n_classes: usize) -> LeafStats {
        LeafStats {
            totals: LeafTotals::new(n_classes),
            observers: vec![Gaussian::default(); n_features * n_classes],
            n_classes,
            n_since_check: 0,
        }
    }

    /// Fused per-sample update: class counts, majority and observer row
    /// in one pass. Bit-identical to the historical nested-Vec loop —
    /// same Welford updates on the same `(feature, class)` cells in the
    /// same order.
    fn learn(&mut self, x: &[f64], y: usize) {
        self.totals.absorb_class(y);
        for (g, &xv) in self
            .observers
            .iter_mut()
            .skip(y)
            .step_by(self.n_classes)
            .zip(x.iter())
        {
            if xv.is_finite() {
                g.update(xv);
            }
        }
        self.n_since_check += 1;
    }

    fn majority(&self) -> usize {
        self.totals.majority()
    }

    fn entropy(counts: &[f64]) -> f64 {
        let total: f64 = counts.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        counts
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                let p = c / total;
                -p * p.log2()
            })
            .sum()
    }

    /// Best (gain, feature, threshold) and the runner-up gain over the
    /// allowed features, using the Gaussian class-conditional
    /// approximation to form candidate splits.
    ///
    /// The runner-up is the best gain of a *different* feature — the
    /// Hoeffding test decides between split attributes, and comparing a
    /// feature against its own neighbouring thresholds would make
    /// `best - second` vanish for every informative attribute.
    ///
    /// This is the maintained-aggregate fast path. Three exact rewrites
    /// of the historical evaluation (kept as the test-only
    /// `best_splits_reference`) make it bit-identical to that
    /// evaluation, as `fast_split_eval_matches_reference_bitwise`
    /// asserts:
    /// * **pure-leaf skip** — with at most one observed class the parent
    ///   entropy is `-0.0` and every admissible child entropy term is
    ///   `nl * -0.0 = -0.0`, so every candidate gain is exactly
    ///   `-0.0 - (-0.0) = +0.0`, never `> 0.0`: the historical scan
    ///   returns `(0.0, 0, 0.0, 0.0)` bit-for-bit, which is returned
    ///   directly;
    /// * **maintained total** — exact integer bookkeeping (see
    ///   [`LeafTotals`]);
    /// * **cached std and reused buffers** — `std()` is a pure function
    ///   of the observer, so caching it per (feature, class) and reusing
    ///   zero-filled left/right vectors replays the identical arithmetic
    ///   without the per-threshold allocations.
    fn best_splits(&self, allowed: &[usize], scratch: &mut SplitScratch) -> (f64, usize, f64, f64) {
        if self.totals.is_pure() {
            return (0.0, 0, 0.0, 0.0);
        }
        let counts = self.totals.counts();
        let parent = Self::entropy(counts);
        let total = self.totals.total();
        let n_classes = self.n_classes;
        let mut best = (0.0, 0, 0.0);
        let mut second = 0.0;
        for &f in allowed {
            let obs = &self.observers[f * n_classes..(f + 1) * n_classes];
            // Cache (n, mean, std) per class; std() is recomputed once
            // instead of once per threshold.
            scratch.per_class.clear();
            scratch
                .per_class
                .extend(obs.iter().map(|g| (g.n, g.mean, g.std())));
            // Candidate thresholds spanning the per-class means ± stds.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &(n, mean, std) in &scratch.per_class {
                if n > 0.0 {
                    lo = lo.min(mean - 3.0 * std);
                    hi = hi.max(mean + 3.0 * std);
                }
            }
            if hi <= lo {
                continue;
            }
            // Best gain over this feature's candidate thresholds.
            let mut feature_best = (0.0f64, 0.0f64);
            for t in 1..=8 {
                let thr = lo + (hi - lo) * t as f64 / 9.0;
                scratch.left.clear();
                scratch.left.resize(n_classes, 0.0);
                scratch.right.clear();
                scratch.right.resize(n_classes, 0.0);
                for (c, &(n, mean, std)) in scratch.per_class.iter().enumerate() {
                    if n <= 0.0 {
                        continue;
                    }
                    let p_left = cdf_with(mean, std, thr);
                    scratch.left[c] = counts[c] * p_left;
                    scratch.right[c] = counts[c] * (1.0 - p_left);
                }
                let nl: f64 = scratch.left.iter().sum();
                let nr: f64 = scratch.right.iter().sum();
                if nl < 1.0 || nr < 1.0 {
                    continue;
                }
                let child = (nl * Self::entropy(&scratch.left)
                    + nr * Self::entropy(&scratch.right))
                    / total;
                let gain = parent - child;
                if gain > feature_best.0 {
                    feature_best = (gain, thr);
                }
            }
            if feature_best.0 > best.0 {
                second = best.0;
                best = (feature_best.0, f, feature_best.1);
            } else if feature_best.0 > second {
                second = feature_best.0;
            }
        }
        (best.0, best.1, best.2, second)
    }

    /// The historical split evaluation, retained verbatim (adapted only
    /// to the flattened observer layout, which iterates the same cells
    /// in the same order): re-sums the total, recomputes every std per
    /// threshold, and allocates fresh left/right vectors — the bitwise
    /// reference for [`LeafStats::best_splits`].
    #[cfg(test)]
    fn best_splits_reference(&self, allowed: &[usize]) -> (f64, usize, f64, f64) {
        let counts = self.totals.counts();
        let parent = Self::entropy(counts);
        let total: f64 = counts.iter().sum();
        let n_classes = self.n_classes;
        let mut best = (0.0, 0, 0.0);
        let mut second = 0.0;
        for &f in allowed {
            let obs = &self.observers[f * n_classes..(f + 1) * n_classes];
            // Candidate thresholds spanning the per-class means ± stds.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for g in obs {
                if g.n > 0.0 {
                    lo = lo.min(g.mean - 3.0 * g.std());
                    hi = hi.max(g.mean + 3.0 * g.std());
                }
            }
            if hi <= lo {
                continue;
            }
            // Best gain over this feature's candidate thresholds.
            let mut feature_best = (0.0f64, 0.0f64);
            for t in 1..=8 {
                let thr = lo + (hi - lo) * t as f64 / 9.0;
                let mut left = vec![0.0; counts.len()];
                let mut right = vec![0.0; counts.len()];
                for (c, g) in obs.iter().enumerate() {
                    if g.n <= 0.0 {
                        continue;
                    }
                    let p_left = g.cdf(thr);
                    left[c] = counts[c] * p_left;
                    right[c] = counts[c] * (1.0 - p_left);
                }
                let nl: f64 = left.iter().sum();
                let nr: f64 = right.iter().sum();
                if nl < 1.0 || nr < 1.0 {
                    continue;
                }
                let child = (nl * Self::entropy(&left) + nr * Self::entropy(&right)) / total;
                let gain = parent - child;
                if gain > feature_best.0 {
                    feature_best = (gain, thr);
                }
            }
            if feature_best.0 > best.0 {
                second = best.0;
                best = (feature_best.0, f, feature_best.1);
            } else if feature_best.0 > second {
                second = feature_best.0;
            }
        }
        (best.0, best.1, best.2, second)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(LeafStats),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Hoeffding-tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct HoeffdingConfig {
    /// Split-attempt period at each leaf.
    pub grace_period: usize,
    /// Hoeffding bound confidence.
    pub delta: f64,
    /// Tie threshold: split anyway when the bound shrinks below this.
    pub tie_threshold: f64,
    /// Maximum depth (leaves stop splitting beyond it).
    pub max_depth: usize,
}

impl Default for HoeffdingConfig {
    fn default() -> Self {
        HoeffdingConfig {
            grace_period: 200,
            delta: 1e-6,
            tie_threshold: 0.05,
            max_depth: 20,
        }
    }
}

/// An incremental Hoeffding tree classifier.
#[derive(Debug, Clone)]
pub struct HoeffdingTree {
    root: Node,
    n_features: usize,
    n_classes: usize,
    config: HoeffdingConfig,
    /// `Some(features)`: only consider this feature subset for splits
    /// (ARF's per-tree random subspace).
    allowed_features: Option<Vec<usize>>,
    n_nodes: usize,
    /// Split-evaluation buffers reused across grace-period checks.
    scratch: SplitScratch,
}

impl HoeffdingTree {
    /// Creates an empty tree.
    pub fn new(n_features: usize, n_classes: usize, config: HoeffdingConfig) -> HoeffdingTree {
        HoeffdingTree {
            root: Node::Leaf(LeafStats::new(n_features, n_classes)),
            n_features,
            n_classes,
            config,
            allowed_features: None,
            n_nodes: 1,
            scratch: SplitScratch::default(),
        }
    }

    /// Restricts split candidates to a feature subset (for ARF).
    pub fn with_feature_subset(mut self, features: Vec<usize>) -> HoeffdingTree {
        self.allowed_features = Some(features);
        self
    }

    /// Number of tree nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Approximate model size in bytes: split nodes plus leaf estimator
    /// tables.
    pub fn memory_bytes(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf(stats) => stats.n_classes * 8 + stats.observers.len() * 24,
                Node::Split { left, right, .. } => 40 + walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// Predicted class for a sample (majority class of its leaf).
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(stats) => return stats.majority(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = x[*feature];
                    node = if v.is_finite() && v <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Learns one labelled sample, growing the tree when the Hoeffding
    /// bound certifies the best split.
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        debug_assert_eq!(x.len(), self.n_features);
        let y = y.min(self.n_classes - 1);
        let config = self.config;
        let n_classes = self.n_classes;
        let n_features = self.n_features;
        // Disjoint field borrows: the leaf walk holds `root` mutably while
        // split evaluation borrows the reusable `scratch`.
        let Self {
            root,
            scratch,
            allowed_features,
            ..
        } = self;
        let default_allowed: Vec<usize>;
        let allowed: &[usize] = match allowed_features {
            Some(f) => f,
            None => {
                default_allowed = (0..n_features).collect();
                &default_allowed
            }
        };

        let mut node = root;
        let mut depth = 0;
        let mut new_nodes = 0usize;
        loop {
            match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = x[*feature];
                    node = if v.is_finite() && v <= *threshold {
                        left
                    } else {
                        right
                    };
                    depth += 1;
                }
                Node::Leaf(stats) => {
                    stats.learn(x, y);
                    if stats.n_since_check >= config.grace_period && depth < config.max_depth {
                        stats.n_since_check = 0;
                        SPLIT_CHECKS.incr();
                        let (best_gain, feature, threshold, second_gain) =
                            stats.best_splits(allowed, scratch);
                        let n = stats.totals.total();
                        // Hoeffding bound with range R = log2(#classes).
                        let range = (n_classes as f64).log2().max(1.0);
                        let eps = (range * range * (1.0 / config.delta).ln() / (2.0 * n)).sqrt();
                        if best_gain > 0.0
                            && (best_gain - second_gain > eps || eps < config.tie_threshold)
                        {
                            *node = Node::Split {
                                feature,
                                threshold,
                                left: Box::new(Node::Leaf(LeafStats::new(n_features, n_classes))),
                                right: Box::new(Node::Leaf(LeafStats::new(n_features, n_classes))),
                            };
                            new_nodes = 2;
                        }
                    }
                    break;
                }
            }
        }
        self.n_nodes += new_nodes;
    }

    /// Evaluates split candidates at the root leaf on the fast
    /// (maintained-aggregate) or retained reference path. Returns `None`
    /// once the root has split. Test hook for the bitwise comparison of
    /// the two evaluators.
    #[cfg(test)]
    fn root_split_eval(&mut self, reference: bool) -> Option<(f64, usize, f64, f64)> {
        let Self {
            root,
            scratch,
            allowed_features,
            ..
        } = self;
        let default_allowed: Vec<usize>;
        let allowed: &[usize] = match allowed_features {
            Some(f) => f,
            None => {
                default_allowed = (0..self.n_features).collect();
                &default_allowed
            }
        };
        match root {
            Node::Leaf(stats) => Some(if reference {
                stats.best_splits_reference(allowed)
            } else {
                stats.best_splits(allowed, scratch)
            }),
            Node::Split { .. } => None,
        }
    }

    /// Learns a whole window sample-by-sample.
    pub fn learn_window(&mut self, xs: &Matrix, ys: &[f64]) {
        for r in 0..xs.rows() {
            self.learn_one(xs.row(r), ys[r] as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold_stream(n: usize) -> Vec<(Vec<f64>, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64;
                let y = usize::from(x >= 50.0);
                (vec![x, (i % 7) as f64], y)
            })
            .collect()
    }

    #[test]
    fn learns_a_threshold_concept() {
        let mut tree = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        for (x, y) in threshold_stream(5000) {
            tree.learn_one(&x, y);
        }
        assert!(tree.n_nodes() > 1, "tree never split");
        let correct = threshold_stream(200)
            .iter()
            .filter(|(x, y)| tree.predict(x) == *y)
            .count();
        assert!(correct > 180, "accuracy {correct}/200");
    }

    #[test]
    fn prediction_before_any_data_is_class_zero() {
        let tree = HoeffdingTree::new(3, 4, HoeffdingConfig::default());
        assert_eq!(tree.predict(&[1.0, 2.0, 3.0]), 0);
    }

    #[test]
    fn feature_subset_restricts_splits() {
        // Class depends only on feature 0; a tree restricted to feature 1
        // cannot do better than majority.
        let mut restricted =
            HoeffdingTree::new(2, 2, HoeffdingConfig::default()).with_feature_subset(vec![1]);
        let mut free = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        for (x, y) in threshold_stream(5000) {
            restricted.learn_one(&x, y);
            free.learn_one(&x, y);
        }
        let acc = |t: &HoeffdingTree| {
            threshold_stream(200)
                .iter()
                .filter(|(x, y)| t.predict(x) == *y)
                .count()
        };
        assert!(acc(&free) > acc(&restricted));
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-4);
    }

    #[test]
    fn gaussian_estimator_tracks_moments() {
        let mut g = Gaussian::default();
        for i in 0..1000 {
            g.update((i % 10) as f64);
        }
        assert!((g.mean - 4.5).abs() < 1e-9);
        assert!((g.std() - 2.872).abs() < 0.01);
        assert!((g.cdf(4.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn max_depth_caps_growth() {
        let mut tree = HoeffdingTree::new(
            2,
            2,
            HoeffdingConfig {
                max_depth: 1,
                grace_period: 50,
                ..Default::default()
            },
        );
        for (x, y) in threshold_stream(10_000) {
            tree.learn_one(&x, y);
        }
        assert!(tree.n_nodes() <= 3, "nodes = {}", tree.n_nodes());
    }

    #[test]
    fn handles_nan_features() {
        let mut tree = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        for (mut x, y) in threshold_stream(1000) {
            if y == 0 {
                x[1] = f64::NAN;
            }
            tree.learn_one(&x, y);
        }
        let p = tree.predict(&[f64::NAN, f64::NAN]);
        assert!(p < 2);
    }

    /// The [`LeafTotals`] maintained aggregates (total / majority /
    /// presence / counts) must match a batch rescan of the absorbed
    /// labels bitwise after every sample. The label draw drifts from
    /// class to class, so the majority changes hands, including on ties
    /// won by a lower index.
    #[test]
    fn leaf_totals_snapshot_matches_batch_rescan() {
        let n_classes = 5;
        let mut totals = LeafTotals::new(n_classes);
        let mut labels: Vec<usize> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = (state >> 33) as usize;
            let y = if draw.is_multiple_of(3) {
                n_classes - 1 - (step / 400) % n_classes
            } else {
                draw % n_classes
            };
            totals.absorb_class(y);
            labels.push(y);
            // Batch rescan of every absorbed label.
            let mut counts = vec![0.0f64; n_classes];
            for &label in &labels {
                counts[label] += 1.0;
            }
            let total: f64 = counts.iter().sum();
            let present = counts.iter().filter(|&&c| c > 0.0).count();
            assert_eq!(
                totals.total().to_bits(),
                total.to_bits(),
                "total diverged at step {step}"
            );
            assert_eq!(
                totals.majority(),
                rescan_majority(&counts),
                "majority diverged at step {step}"
            );
            assert_eq!(totals.present, present, "presence diverged at step {step}");
            for (c, (&a, &b)) in totals.counts().iter().zip(&counts).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "count {c} diverged at step {step}"
                );
            }
        }
    }

    /// The maintained-aggregate split evaluation must be bit-identical
    /// to the retained reference on leaves fed arbitrary streams —
    /// including pure leaves (fast-path early return) and leaves with
    /// NaN features (observers skipped).
    #[test]
    fn fast_split_eval_matches_reference_bitwise() {
        let mut state = 0xdeadbeefcafef00du64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for (n_features, n_classes, rows, pure) in [
            (1usize, 2usize, 0usize, false),
            (2, 2, 500, true), // single observed class: pure-leaf skip
            (3, 4, 300, false),
            (6, 3, 1200, false),
            (4, 2, 2500, false),
        ] {
            let cfg = HoeffdingConfig {
                grace_period: usize::MAX, // keep the root a leaf
                ..Default::default()
            };
            let mut tree = HoeffdingTree::new(n_features, n_classes, cfg);
            for _ in 0..rows {
                let x: Vec<f64> = (0..n_features)
                    .map(|_| match next(11) {
                        0 => f64::NAN,
                        v => v as f64 + next(100) as f64 / 100.0,
                    })
                    .collect();
                let y = if pure {
                    1
                } else {
                    next(n_classes as u64) as usize
                };
                tree.learn_one(&x, y);
            }
            let fast = tree.root_split_eval(false).unwrap();
            let reference = tree.root_split_eval(true).unwrap();
            assert_eq!(fast.0.to_bits(), reference.0.to_bits(), "best gain");
            assert_eq!(fast.1, reference.1, "split feature");
            assert_eq!(fast.2.to_bits(), reference.2.to_bits(), "threshold");
            assert_eq!(fast.3.to_bits(), reference.3.to_bits(), "runner-up gain");
        }
    }
}
