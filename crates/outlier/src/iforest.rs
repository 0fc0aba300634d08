//! Isolation Forest — Liu, Ting & Zhou, ICDM 2008.
//!
//! Anomalies are isolated by fewer random axis-aligned splits than normal
//! points. Each tree is built on a random subsample; the anomaly score is
//! `2^(-E[h(x)] / c(psi))` where `h` is the path length and `c` the
//! average unsuccessful-search length of a BST.

use oeb_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A node of an isolation tree. A tree is one `Vec` of nodes in build
/// order (the root first); children are indices into it.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// External node, holding `c(size)` of the `size` training samples
    /// it covers.
    Leaf { adjust: f64 },
    /// Internal split.
    Split {
        dim: usize,
        at: f64,
        left: usize,
        right: usize,
    },
}

/// Average path length of an unsuccessful BST search over `n` items —
/// the normalising constant `c(n)` from the paper.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (n - 1.0) / n
}

/// Configuration for [`IsolationForest::fit`].
#[derive(Debug, Clone, Copy)]
pub struct IForestConfig {
    /// Number of trees (paper default 100).
    pub n_trees: usize,
    /// Subsample size per tree (paper default 256).
    pub subsample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IForestConfig {
    fn default() -> Self {
        IForestConfig {
            n_trees: 100,
            subsample: 256,
            seed: 0x69666f72, // "ifor"
        }
    }
}

/// A fitted isolation forest.
#[derive(Debug, Clone)]
pub struct IsolationForest {
    trees: Vec<Vec<Node>>,
    /// Normalising constant for the subsample size used.
    c_psi: f64,
}

impl IsolationForest {
    /// Fits a forest on `data` (rows = samples). Non-finite cells compare
    /// as "right of every split", which keeps them isolatable without
    /// poisoning split selection. Without columns there is nothing to
    /// split on: every tree is one leaf and every row scores 0.5.
    pub fn fit(data: &Matrix, config: &IForestConfig) -> IsolationForest {
        assert!(data.rows() > 0, "cannot fit on an empty matrix");
        let n_rows = data.rows();
        let psi = config.subsample.min(n_rows);
        let mut builder = TreeBuilder {
            columns: data.transpose(),
            max_depth: (psi as f64).log2().ceil() as usize + 1,
            rng: StdRng::seed_from_u64(config.seed),
        };
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut sample = Vec::with_capacity(psi);
        for _ in 0..config.n_trees {
            sample.clear();
            sample.extend((0..psi).map(|_| builder.rng.gen_range(0..n_rows)));
            let mut nodes = Vec::new();
            builder.grow(&mut nodes, &mut sample, 0);
            trees.push(nodes);
        }
        IsolationForest {
            trees,
            c_psi: c_factor(psi),
        }
    }

    /// Path length of a sample in one tree, with the subtree-size
    /// adjustment at external nodes.
    fn path_length(tree: &[Node], row: &[f64]) -> f64 {
        let mut depth = 0.0;
        let mut at_node = 0;
        loop {
            match tree[at_node] {
                Node::Leaf { adjust } => return depth + adjust,
                Node::Split {
                    dim,
                    at,
                    left,
                    right,
                } => {
                    let x = row[dim];
                    at_node = if x.is_finite() && x < at { left } else { right };
                    depth += 1.0;
                }
            }
        }
    }

    /// Anomaly score in `(0, 1)`: near 1 = anomalous, near 0.5 or below =
    /// normal.
    pub fn score(&self, row: &[f64]) -> f64 {
        if self.c_psi <= 0.0 {
            return 0.5;
        }
        let mean_path: f64 = self
            .trees
            .iter()
            .map(|t| Self::path_length(t, row))
            .sum::<f64>()
            / self.trees.len().max(1) as f64;
        2f64.powf(-mean_path / self.c_psi)
    }

    /// Scores every row of a matrix.
    pub fn score_all(&self, data: &Matrix) -> Vec<f64> {
        (0..data.rows()).map(|r| self.score(data.row(r))).collect()
    }
}

/// Index of the highest-scoring row, NaN-tolerantly: NaN scores are
/// skipped rather than compared (a NaN score means the detector saw a
/// fully degenerate row, not a record-setting outlier), and equal
/// scores break toward the last occurrence (`max_by` semantics).
/// Returns `None` when no finite score exists.
pub fn top_score_index(scores: &[f64]) -> Option<usize> {
    scores
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_nan())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Grows isolation trees over one window held column-major (`columns`
/// is the transpose of the data), so a split scans one contiguous column.
struct TreeBuilder {
    columns: Matrix,
    max_depth: usize,
    rng: StdRng,
}

impl TreeBuilder {
    /// Grows the subtree over the rows in `idx` onto `nodes` and returns
    /// its root's index. The random draws come in depth-first,
    /// left-before-right order.
    fn grow(&mut self, nodes: &mut Vec<Node>, idx: &mut [usize], depth: usize) -> usize {
        let id = nodes.len();
        let split = if idx.len() <= 1 || depth >= self.max_depth {
            None
        } else {
            self.split(idx)
        };
        let Some((dim, at, n_left)) = split else {
            nodes.push(Node::Leaf {
                adjust: c_factor(idx.len()),
            });
            return id;
        };
        // Placeholder, replaced once both children have their indices.
        nodes.push(Node::Leaf { adjust: 0.0 });
        let (left_idx, right_idx) = idx.split_at_mut(n_left);
        let left = self.grow(nodes, left_idx, depth + 1);
        let right = self.grow(nodes, right_idx, depth + 1);
        nodes[id] = Node::Split {
            dim,
            at,
            left,
            right,
        };
        id
    }

    /// Picks a random dimension with spread and a random cut inside it,
    /// giving up after a few attempts. On success the rows of `idx` left
    /// of the cut are moved to its front (in place: split bounds and
    /// membership do not depend on row order), and `(dim, at, n_left)`
    /// is returned.
    fn split(&mut self, idx: &mut [usize]) -> Option<(usize, f64, usize)> {
        let n_cols = self.columns.rows();
        if n_cols == 0 {
            return None;
        }
        for _ in 0..8 {
            let dim = self.rng.gen_range(0..n_cols);
            let col = self.columns.row(dim);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in idx.iter() {
                let x = col[r];
                if x.is_finite() {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
            if hi <= lo {
                continue;
            }
            let at = lo + self.rng.gen::<f64>() * (hi - lo);
            let mut n_left = 0;
            for i in 0..idx.len() {
                let x = col[idx[i]];
                if x.is_finite() && x < at {
                    idx.swap(i, n_left);
                    n_left += 1;
                }
            }
            if n_left > 0 && n_left < idx.len() {
                return Some((dim, at, n_left));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::edge_matrix;
    use proptest::prelude::*;

    /// A node of the replaced boxed tree.
    enum BoxedNode {
        Leaf {
            size: usize,
        },
        Split {
            dim: usize,
            at: f64,
            left: Box<BoxedNode>,
            right: Box<BoxedNode>,
        },
    }

    /// The replaced builder: boxed nodes, two fresh index vectors per
    /// split, strided reads of the row-major window.
    fn build_boxed(
        data: &Matrix,
        idx: &[usize],
        depth: usize,
        max_depth: usize,
        rng: &mut StdRng,
    ) -> BoxedNode {
        if idx.len() <= 1 || depth >= max_depth {
            return BoxedNode::Leaf { size: idx.len() };
        }
        for _ in 0..8 {
            let dim = rng.gen_range(0..data.cols());
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in idx {
                let x = data[(r, dim)];
                if x.is_finite() {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
            if hi <= lo {
                continue;
            }
            let at = lo + rng.gen::<f64>() * (hi - lo);
            let (left, right): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&r| data[(r, dim)].is_finite() && data[(r, dim)] < at);
            if left.is_empty() || right.is_empty() {
                continue;
            }
            return BoxedNode::Split {
                dim,
                at,
                left: Box::new(build_boxed(data, &left, depth + 1, max_depth, rng)),
                right: Box::new(build_boxed(data, &right, depth + 1, max_depth, rng)),
            };
        }
        BoxedNode::Leaf { size: idx.len() }
    }

    fn path_length_boxed(node: &BoxedNode, row: &[f64]) -> f64 {
        let mut depth = 0.0;
        let mut node = node;
        loop {
            match node {
                BoxedNode::Leaf { size } => return depth + c_factor(*size),
                BoxedNode::Split {
                    dim,
                    at,
                    left,
                    right,
                } => {
                    let x = row[*dim];
                    node = if x.is_finite() && x < *at {
                        left
                    } else {
                        right
                    };
                    depth += 1.0;
                }
            }
        }
    }

    /// Fits and scores every row with the replaced boxed forest.
    fn score_all_boxed(data: &Matrix, config: &IForestConfig) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let psi = config.subsample.min(data.rows());
        let max_depth = (psi as f64).log2().ceil() as usize + 1;
        let trees: Vec<BoxedNode> = (0..config.n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..psi).map(|_| rng.gen_range(0..data.rows())).collect();
                build_boxed(data, &sample, 0, max_depth, &mut rng)
            })
            .collect();
        let c_psi = c_factor(psi);
        (0..data.rows())
            .map(|r| {
                if c_psi <= 0.0 {
                    return 0.5;
                }
                let mean_path: f64 = trees
                    .iter()
                    .map(|t| path_length_boxed(t, data.row(r)))
                    .sum::<f64>()
                    / trees.len().max(1) as f64;
                2f64.powf(-mean_path / c_psi)
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn flat_forest_matches_the_boxed_builder(
            m in (1usize..4).prop_flat_map(edge_matrix),
            n_trees in 1usize..12,
            subsample in 1usize..48,
            seed in 0u64..1000,
        ) {
            let config = IForestConfig { n_trees, subsample, seed };
            let forest = IsolationForest::fit(&m, &config);
            prop_assert_eq!(bits(&forest.score_all(&m)), bits(&score_all_boxed(&m, &config)));
        }
    }

    /// Regression: with no column to split on, `fit` drew a dimension
    /// from an empty range and panicked.
    #[test]
    fn zero_column_matrix_scores_one_half() {
        let data = Matrix::zeros(40, 0);
        let forest = IsolationForest::fit(&data, &IForestConfig::default());
        for s in forest.score_all(&data) {
            assert!((s - 0.5).abs() < 1e-12, "score {s}");
        }
    }

    fn cluster_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let a = i as f64 * 0.021;
                vec![a.sin(), a.cos(), (a * 1.3).sin()]
            })
            .collect();
        rows.push(vec![50.0, -40.0, 60.0]);
        Matrix::from_rows(&rows)
    }

    #[test]
    fn isolated_point_scores_highest() {
        let data = cluster_with_outlier();
        let forest = IsolationForest::fit(&data, &IForestConfig::default());
        let scores = forest.score_all(&data);
        let argmax = top_score_index(&scores).expect("scores are finite");
        assert_eq!(argmax, 300, "outlier row should score highest");
        assert!(scores[300] > 0.6, "outlier score {}", scores[300]);
    }

    /// Regression: the old argmax used `partial_cmp(..).unwrap()` and
    /// panicked the moment a NaN score appeared (e.g. a fully-degenerate
    /// row under fault injection). NaN must be skipped, not fatal.
    #[test]
    fn top_score_index_tolerates_nan() {
        assert_eq!(top_score_index(&[0.2, f64::NAN, 0.9, 0.4]), Some(2));
        assert_eq!(top_score_index(&[f64::NAN, 0.1]), Some(1));
        assert_eq!(top_score_index(&[f64::NAN, f64::NAN]), None);
        assert_eq!(top_score_index(&[]), None);
    }

    #[test]
    fn normal_points_score_moderately() {
        let data = cluster_with_outlier();
        let forest = IsolationForest::fit(&data, &IForestConfig::default());
        let s = forest.score(&[0.5, 0.5, 0.5]);
        assert!(s < 0.6, "inlier score {s}");
    }

    #[test]
    fn c_factor_growth() {
        assert_eq!(c_factor(1), 0.0);
        assert!(c_factor(256) > c_factor(16));
        // c(n) ~ 2 ln(n-1) + 2*gamma - 2: spot check around n=256.
        assert!((c_factor(256) - 10.24).abs() < 0.3, "{}", c_factor(256));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = cluster_with_outlier();
        let cfg = IForestConfig {
            seed: 42,
            ..Default::default()
        };
        let f1 = IsolationForest::fit(&data, &cfg);
        let f2 = IsolationForest::fit(&data, &cfg);
        assert_eq!(f1.score_all(&data), f2.score_all(&data));
    }

    #[test]
    fn handles_nan_cells() {
        let data = cluster_with_outlier();
        let forest = IsolationForest::fit(&data, &IForestConfig::default());
        let s = forest.score(&[f64::NAN, 0.0, 0.0]);
        assert!(s.is_finite());
    }

    #[test]
    fn constant_data_scores_uniformly() {
        let data = Matrix::from_rows(&vec![vec![3.0, 3.0]; 100]);
        let forest = IsolationForest::fit(&data, &IForestConfig::default());
        let scores = forest.score_all(&data);
        let first = scores[0];
        assert!(scores.iter().all(|&s| (s - first).abs() < 1e-9));
    }
}
