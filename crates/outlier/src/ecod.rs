//! ECOD — Empirical-Cumulative-distribution-based Outlier Detection,
//! Li et al., TKDE 2022.
//!
//! ECOD is parameter-free: for every dimension it estimates left- and
//! right-tail probabilities from the empirical CDF, aggregates the
//! negative log tail probabilities across dimensions (choosing the tail
//! per-dimension by the data's skewness for the "auto" variant), and
//! scores each sample by the largest of the three aggregates. Higher
//! scores mean more outlying.

use oeb_linalg::{skewness, Matrix};

/// A fitted ECOD model.
#[derive(Debug, Clone)]
pub struct Ecod {
    /// Sorted finite values per dimension (the ECDF support).
    sorted: Vec<Vec<f64>>,
    /// Per-dimension skewness of the training data.
    skew: Vec<f64>,
    /// Negative log tail probabilities, one table per distinct column
    /// length `len`: entry `k` is `-ln((k + 1) / (len + 2))`, the smoothed
    /// tail probability of `k` support values ECOD uses so probabilities
    /// never hit zero. An empty column's table is `[-ln(1)]`.
    tails: Vec<Vec<f64>>,
    /// Index into `tails` per dimension.
    tail_of: Vec<usize>,
}

impl Ecod {
    /// Fits ECOD on a training matrix (rows = samples). Non-finite cells
    /// are ignored per-dimension.
    pub fn fit(data: &Matrix) -> Ecod {
        let sorted: Vec<Vec<f64>> = (0..data.cols())
            .map(|c| {
                let mut col: Vec<f64> = data.col(c).into_iter().filter(|x| x.is_finite()).collect();
                col.sort_by(f64::total_cmp);
                col
            })
            .collect();
        let skew = sorted.iter().map(|col| skewness(col)).collect();
        let mut tails: Vec<Vec<f64>> = Vec::new();
        let tail_of = sorted
            .iter()
            .map(|col| {
                // A column of `len` values has a table of `len + 1`.
                let len = col.len();
                tails
                    .iter()
                    .position(|t| t.len() == len + 1)
                    .unwrap_or_else(|| {
                        tails.push(if len == 0 {
                            vec![-(1f64.ln())]
                        } else {
                            (0..=len)
                                .map(|k| -((k as f64 + 1.0) / (len as f64 + 2.0)).ln())
                                .collect()
                        });
                        tails.len() - 1
                    })
            })
            .collect();
        Ecod {
            sorted,
            skew,
            tails,
            tail_of,
        }
    }

    /// Outlier score of a single sample (higher = more outlying).
    /// Missing (non-finite) cells contribute nothing.
    pub fn score(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.sorted.len(), "dimension mismatch");
        let mut s_left = 0.0;
        let mut s_right = 0.0;
        let mut s_auto = 0.0;
        for (c, &x) in row.iter().enumerate() {
            if !x.is_finite() {
                continue;
            }
            let col = &self.sorted[c];
            let tail = &self.tails[self.tail_of[c]];
            // Left tail `P(X <= x)`, right tail `P(X >= x)`.
            let l = tail[col.partition_point(|&v| v <= x)];
            let r = tail[col.len() - col.partition_point(|&v| v < x)];
            s_left += l;
            s_right += r;
            s_auto += if self.skew[c] < 0.0 { l } else { r };
        }
        s_left.max(s_right).max(s_auto)
    }

    /// Scores every row of a matrix.
    pub fn score_all(&self, data: &Matrix) -> Vec<f64> {
        (0..data.rows()).map(|r| self.score(data.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::edge_matrix;
    use proptest::prelude::*;

    /// The replaced score: two `ln` calls per scored cell.
    fn score_per_cell_ln(model: &Ecod, row: &[f64]) -> f64 {
        let mut s_left = 0.0;
        let mut s_right = 0.0;
        let mut s_auto = 0.0;
        for (c, &x) in row.iter().enumerate() {
            if !x.is_finite() {
                continue;
            }
            let col = &model.sorted[c];
            let (left, right) = if col.is_empty() {
                (1.0, 1.0)
            } else {
                let rank = col.partition_point(|&v| v <= x);
                let geq = col.len() - col.partition_point(|&v| v < x);
                let n = col.len() as f64 + 2.0;
                ((rank as f64 + 1.0) / n, (geq as f64 + 1.0) / n)
            };
            let l = -left.ln();
            let r = -right.ln();
            s_left += l;
            s_right += r;
            s_auto += if model.skew[c] < 0.0 { l } else { r };
        }
        s_left.max(s_right).max(s_auto)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn table_scores_match_per_cell_ln(
            (train, probe) in (1usize..4).prop_flat_map(|d| (edge_matrix(d), edge_matrix(d))),
        ) {
            // Score the training rows and rows the model has not seen.
            let model = Ecod::fit(&train);
            for row in (0..train.rows()).map(|r| train.row(r)).chain((0..probe.rows()).map(|r| probe.row(r))) {
                prop_assert_eq!(model.score(row).to_bits(), score_per_cell_ln(&model, row).to_bits());
            }
        }
    }

    fn ring_data() -> Matrix {
        // Dense cluster near the origin.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = i as f64 * 0.03;
                vec![a.sin() * 0.5, a.cos() * 0.5]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn outlier_scores_higher_than_inliers() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let inlier = model.score(&[0.1, 0.2]);
        let outlier = model.score(&[8.0, -7.0]);
        assert!(
            outlier > inlier * 2.0,
            "outlier {outlier} vs inlier {inlier}"
        );
    }

    #[test]
    fn score_increases_with_tail_distance() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let near = model.score(&[1.0, 0.0]);
        let far = model.score(&[3.0, 0.0]);
        let very_far = model.score(&[10.0, 0.0]);
        assert!(near <= far && far <= very_far, "{near} {far} {very_far}");
    }

    #[test]
    fn both_tails_are_detected() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let base = model.score(&[0.0, 0.0]);
        assert!(model.score(&[5.0, 0.0]) > base);
        assert!(model.score(&[-5.0, 0.0]) > base);
    }

    #[test]
    fn missing_cells_are_skipped() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let s = model.score(&[f64::NAN, 0.3]);
        assert!(s.is_finite());
    }

    #[test]
    fn handles_training_data_with_nan_columns() {
        let data = Matrix::from_rows(&[
            vec![1.0, f64::NAN],
            vec![2.0, f64::NAN],
            vec![3.0, f64::NAN],
        ]);
        let model = Ecod::fit(&data);
        assert!(model.score(&[2.0, 5.0]).is_finite());
    }

    #[test]
    fn scores_are_deterministic() {
        let data = ring_data();
        let m1 = Ecod::fit(&data);
        let m2 = Ecod::fit(&data);
        assert_eq!(m1.score_all(&data), m2.score_all(&data));
    }
}
