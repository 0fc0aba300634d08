//! kdq-tree drift detection — Dasu et al., Interface 2006.
//!
//! Builds a kdq-tree partition (a k-d tree with cyclic split dimensions
//! and midpoint splits, stopping at a minimum cell count) over a reference
//! window, then measures the KL divergence between the reference and the
//! current window's leaf-occupancy distributions. The drift threshold is
//! calibrated by bootstrap: resample pairs from the pooled data and take a
//! high quantile of the resulting divergences.

use crate::state::{BatchDriftDetector, DriftState};
use oeb_linalg::{kl_divergence, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One node of the kdq-tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Leaf id used to index occupancy vectors.
        id: usize,
    },
    Split {
        dim: usize,
        at: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// The fitted partition.
#[derive(Debug, Clone)]
struct KdqPartition {
    root: Node,
    n_leaves: usize,
}

impl KdqPartition {
    /// Builds the partition over `data` with cyclic dimension splits at
    /// bounding-box midpoints, stopping at `min_count` points or depth 12.
    fn build(data: &Matrix, min_count: usize) -> KdqPartition {
        let idx: Vec<usize> = (0..data.rows()).collect();
        let d = data.cols();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for r in 0..data.rows() {
            for (c, &x) in data.row(r).iter().enumerate() {
                if x.is_finite() {
                    lo[c] = lo[c].min(x);
                    hi[c] = hi[c].max(x);
                }
            }
        }
        let mut n_leaves = 0;
        let root = Self::split(data, &idx, 0, &lo, &hi, min_count, 12, &mut n_leaves);
        KdqPartition { root, n_leaves }
    }

    #[allow(clippy::too_many_arguments)]
    fn split(
        data: &Matrix,
        idx: &[usize],
        depth: usize,
        lo: &[f64],
        hi: &[f64],
        min_count: usize,
        max_depth: usize,
        n_leaves: &mut usize,
    ) -> Node {
        let d = data.cols();
        if idx.len() <= min_count || depth >= max_depth || d == 0 {
            let id = *n_leaves;
            *n_leaves += 1;
            return Node::Leaf { id };
        }
        let dim = depth % d;
        if !(hi[dim] - lo[dim]).is_finite() || hi[dim] - lo[dim] < 1e-12 {
            let id = *n_leaves;
            *n_leaves += 1;
            return Node::Leaf { id };
        }
        let at = (lo[dim] + hi[dim]) / 2.0;
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&r| data[(r, dim)].is_finite() && data[(r, dim)] <= at);
        if left_idx.is_empty() || right_idx.is_empty() {
            let id = *n_leaves;
            *n_leaves += 1;
            return Node::Leaf { id };
        }
        let mut hi_left = hi.to_vec();
        hi_left[dim] = at;
        let mut lo_right = lo.to_vec();
        lo_right[dim] = at;
        Node::Split {
            dim,
            at,
            left: Box::new(Self::split(
                data,
                &left_idx,
                depth + 1,
                lo,
                &hi_left,
                min_count,
                max_depth,
                n_leaves,
            )),
            right: Box::new(Self::split(
                data,
                &right_idx,
                depth + 1,
                &lo_right,
                hi,
                min_count,
                max_depth,
                n_leaves,
            )),
        }
    }

    /// Leaf id of a point.
    fn leaf_of(&self, row: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { id } => return *id,
                Node::Split {
                    dim,
                    at,
                    left,
                    right,
                } => {
                    node = if row[*dim].is_finite() && row[*dim] <= *at {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Leaf-occupancy counts of the rows whose leaf ids `leaves` yields. The
/// counts are integers, so the order rows arrive in cannot change them.
fn fill_counts(counts: &mut [f64], leaves: impl Iterator<Item = usize>) {
    counts.fill(0.0);
    for leaf in leaves {
        counts[leaf] += 1.0;
    }
}

/// kdq-tree batch drift detector.
#[derive(Debug, Clone)]
pub struct KdqTreeDetector {
    /// Minimum points per leaf.
    pub min_leaf: usize,
    /// Bootstrap resamples used to calibrate the drift threshold.
    pub bootstrap: usize,
    /// Quantile of the bootstrap divergence distribution (e.g. 0.99).
    pub quantile: f64,
    seed: u64,
    reference: Option<Matrix>,
}

impl KdqTreeDetector {
    /// Creates a detector with the given leaf size and bootstrap settings.
    pub fn new(min_leaf: usize, bootstrap: usize, quantile: f64, seed: u64) -> KdqTreeDetector {
        KdqTreeDetector {
            min_leaf,
            bootstrap,
            quantile,
            seed,
            reference: None,
        }
    }

    /// `KL(reference || window)` over the reference's partition, and the
    /// divergences of `self.bootstrap` pairs resampled from the pooled
    /// rows at the original sizes.
    ///
    /// The partition is fixed for the whole call, so each pooled row's
    /// leaf is found once (reference rows first, then window rows) and
    /// every occupancy vector is filled by leaf id.
    fn divergences(&self, reference: &Matrix, window: &Matrix) -> (f64, Vec<f64>) {
        let partition = KdqPartition::build(reference, self.min_leaf);
        let (n_ref, n_new) = (reference.rows(), window.rows());
        let leaves: Vec<usize> = (0..n_ref)
            .map(|r| partition.leaf_of(reference.row(r)))
            .chain((0..n_new).map(|r| partition.leaf_of(window.row(r))))
            .collect();
        let mut a = vec![0.0; partition.n_leaves];
        let mut b = vec![0.0; partition.n_leaves];
        fill_counts(&mut a, leaves[..n_ref].iter().copied());
        fill_counts(&mut b, leaves[n_ref..].iter().copied());
        let observed = kl_divergence(&a, &b);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let pooled = leaves.len();
        let mut divergences = Vec::with_capacity(self.bootstrap);
        for _ in 0..self.bootstrap {
            fill_counts(&mut a, (0..n_ref).map(|_| leaves[rng.gen_range(0..pooled)]));
            fill_counts(&mut b, (0..n_new).map(|_| leaves[rng.gen_range(0..pooled)]));
            divergences.push(kl_divergence(&a, &b));
        }
        (observed, divergences)
    }
}

impl Default for KdqTreeDetector {
    fn default() -> Self {
        // 0x6b6471 = ASCII "kdq".
        KdqTreeDetector::new(32, 40, 0.99, 0x6b_64_71)
    }
}

impl BatchDriftDetector for KdqTreeDetector {
    fn update(&mut self, window: &Matrix) -> DriftState {
        let Some(reference) = self.reference.take() else {
            self.reference = Some(window.clone());
            return DriftState::Stable;
        };
        // Partition on the reference; measure KL(ref || window) against a
        // bootstrap of pooled pseudo-window pairs.
        let (observed, divergences) = self.divergences(&reference, window);
        let threshold = oeb_linalg::quantile(&divergences, self.quantile);
        let warn_threshold = oeb_linalg::quantile(&divergences, self.quantile * 0.95);

        let state = if observed > threshold {
            DriftState::Drift
        } else if observed > warn_threshold {
            DriftState::Warning
        } else {
            DriftState::Stable
        };
        // Slide the reference to the current window.
        self.reference = Some(window.clone());
        state
    }

    fn reset(&mut self) {
        self.reference = None;
    }

    fn name(&self) -> &'static str {
        "kdq-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Leaf-occupancy counts of every row of `data`, walking the tree per
    /// row (the replaced implementation).
    fn occupancy(partition: &KdqPartition, data: &Matrix) -> Vec<f64> {
        let mut counts = vec![0.0; partition.n_leaves];
        for r in 0..data.rows() {
            counts[partition.leaf_of(data.row(r))] += 1.0;
        }
        counts
    }

    /// The replaced divergence computation: every bootstrap resample
    /// clones its rows into a fresh matrix and walks the tree per row.
    fn divergences_reference(
        det: &KdqTreeDetector,
        reference: &Matrix,
        window: &Matrix,
    ) -> (f64, Vec<f64>) {
        let partition = KdqPartition::build(reference, det.min_leaf);
        let observed = kl_divergence(
            &occupancy(&partition, reference),
            &occupancy(&partition, window),
        );
        let mut rng = StdRng::seed_from_u64(det.seed);
        let pooled: Vec<Vec<f64>> = (0..reference.rows())
            .map(|r| reference.row(r).to_vec())
            .chain((0..window.rows()).map(|r| window.row(r).to_vec()))
            .collect();
        let mut divergences = Vec::with_capacity(det.bootstrap);
        for _ in 0..det.bootstrap {
            let a: Vec<Vec<f64>> = (0..reference.rows())
                .map(|_| pooled[rng.gen_range(0..pooled.len())].clone())
                .collect();
            let b: Vec<Vec<f64>> = (0..window.rows())
                .map(|_| pooled[rng.gen_range(0..pooled.len())].clone())
                .collect();
            divergences.push(kl_divergence(
                &occupancy(&partition, &Matrix::from_rows(&a)),
                &occupancy(&partition, &Matrix::from_rows(&b)),
            ));
        }
        (observed, divergences)
    }

    fn bits(observed: f64, divergences: &[f64]) -> Vec<u64> {
        std::iter::once(observed)
            .chain(divergences.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// `cols`-wide matrices at the partition's edges: 1-3 rows or up to
    /// 90, columns that are constant, 0/1, all-NaN, or continuous with
    /// some NaN cells, and sometimes every row copied from the first few.
    fn edge_matrix(cols: usize) -> impl Strategy<Value = Matrix> {
        prop_oneof![1 => 1usize..4, 3 => 4usize..90].prop_flat_map(move |rows| {
            (
                prop::collection::vec(0u8..5, cols),
                prop::collection::vec((-50.0..50.0f64, 0u8..6), rows * cols),
                prop_oneof![3 => Just(rows), 1 => 1usize..4],
            )
                .prop_map(move |(kinds, cells, distinct)| {
                    let mut data = vec![0.0; rows * cols];
                    for r in 0..rows {
                        for (c, &kind) in kinds.iter().enumerate() {
                            // Repeated rows copy row `r % distinct`.
                            let (x, coin) = cells[(r % distinct) * cols + c];
                            data[r * cols + c] = match kind {
                                0 => 5.0,
                                1 => f64::from(u8::from(x > 0.0)),
                                2 => f64::NAN,
                                _ if coin == 0 => f64::NAN,
                                _ => x,
                            };
                        }
                    }
                    Matrix::from_vec(rows, cols, data)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn divergences_match_the_row_cloning_bootstrap(
            (reference, window) in (1usize..4).prop_flat_map(|d| (edge_matrix(d), edge_matrix(d))),
            min_leaf in 1usize..12,
            seed in 0u64..1000,
        ) {
            let det = KdqTreeDetector::new(min_leaf, 12, 0.99, seed);
            let (observed, divergences) = det.divergences(&reference, &window);
            let (ref_observed, ref_divergences) = divergences_reference(&det, &reference, &window);
            prop_assert_eq!(bits(observed, &divergences), bits(ref_observed, &ref_divergences));
        }
    }

    fn gaussian_window(rng: &mut StdRng, mean: f64, n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let u1: f64 = rng.gen::<f64>().max(1e-12);
                        let u2: f64 = rng.gen();
                        mean + (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    })
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn partition_occupancy_sums_to_row_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = gaussian_window(&mut rng, 0.0, 500, 3);
        let p = KdqPartition::build(&w, 32);
        let occ = occupancy(&p, &w);
        assert!((occ.iter().sum::<f64>() - 500.0).abs() < 1e-9);
        assert!(p.n_leaves > 1);
    }

    #[test]
    fn quiet_on_same_distribution() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = KdqTreeDetector::new(32, 40, 0.99, 99);
        let mut drifts = 0;
        for _ in 0..12 {
            if det
                .update(&gaussian_window(&mut rng, 0.0, 400, 3))
                .is_drift()
            {
                drifts += 1;
            }
        }
        assert!(drifts <= 1, "{drifts} false drifts");
    }

    #[test]
    fn detects_mean_shift() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = KdqTreeDetector::new(32, 40, 0.99, 7);
        det.update(&gaussian_window(&mut rng, 0.0, 400, 3));
        let state = det.update(&gaussian_window(&mut rng, 2.5, 400, 3));
        assert!(state.is_drift());
    }

    #[test]
    fn constant_data_does_not_panic() {
        let mut det = KdqTreeDetector::default();
        let w = Matrix::from_rows(&vec![vec![1.0, 1.0]; 100]);
        det.update(&w);
        let s = det.update(&w);
        assert!(!s.is_drift());
    }
}
