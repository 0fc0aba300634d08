//! Principal Component Analysis via the covariance eigendecomposition.
//!
//! The OEBench pipeline uses PCA in two places: the representative-dataset
//! selection step (§4.4 of the paper — each open-environment feature group is
//! reduced to three dimensions before clustering) and the PCA-CD drift
//! detector (projection onto the first two principal components).

use crate::eigen::symmetric_eigen;
use crate::matrix::Matrix;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means removed before projection.
    pub mean: Vec<f64>,
    /// Projection matrix: one principal component per column (d x k).
    pub components: Matrix,
    /// Variance explained by each retained component.
    pub explained_variance: Vec<f64>,
    /// Fraction of total variance explained by each retained component.
    pub explained_ratio: Vec<f64>,
}

impl Pca {
    /// Fits a PCA retaining `k` components on a data matrix with one sample
    /// per row and finite entries (see [`Matrix::covariance`]).
    ///
    /// `k` is clamped to the number of input columns. A degenerate input
    /// (zero variance) yields zero components and zero projections rather
    /// than NaNs.
    pub fn fit(data: &Matrix, k: usize) -> Pca {
        let d = data.cols();
        let k = k.min(d);
        let cov = data.covariance();
        let eig = symmetric_eigen(&cov);
        let total: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();

        let mut components = Matrix::zeros(d, k);
        let mut explained = Vec::with_capacity(k);
        for j in 0..k {
            for i in 0..d {
                components[(i, j)] = eig.vectors[(i, j)];
            }
            explained.push(eig.values[j].max(0.0));
        }
        let ratio = explained
            .iter()
            .map(|&v| if total > 0.0 { v / total } else { 0.0 })
            .collect();
        Pca {
            mean: data.col_means(),
            components,
            explained_variance: explained,
            explained_ratio: ratio,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Projects a single sample into the component space.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(
            row.len(),
            self.mean.len(),
            "pca transform dimension mismatch"
        );
        let centered: Vec<f64> = row.iter().zip(&self.mean).map(|(x, m)| x - m).collect();
        (0..self.n_components())
            .map(|j| {
                centered
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x * self.components[(i, j)])
                    .sum()
            })
            .collect()
    }

    /// Projects every row of a data matrix; returns an `n x k` matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(data.rows(), self.n_components());
        for r in 0..data.rows() {
            let proj = self.transform_row(data.row(r));
            out.row_mut(r).copy_from_slice(&proj);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    #[test]
    fn first_component_captures_dominant_direction() {
        // Points spread along (1, 1) with tiny noise in the orthogonal axis.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + noise, t - noise]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 2);
        let c0 = pca.components.col(0);
        // Direction approximately (1,1)/sqrt(2).
        assert!((c0[0].abs() - c0[1].abs()).abs() < 1e-3);
        assert!(pca.explained_ratio[0] > 0.99);
    }

    #[test]
    fn transform_of_mean_is_origin() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 1.0, 0.0],
            vec![3.0, 3.0, 3.0],
        ]);
        let pca = Pca::fit(&data, 2);
        let mean = data.col_means();
        let proj = pca.transform_row(&mean);
        for p in proj {
            assert!(p.abs() < 1e-9);
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64;
                vec![t, 2.0 * t + (i % 3) as f64, (i % 7) as f64]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let d = dot(&pca.components.col(i), &pca.components.col(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn k_is_clamped_to_dimension() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn constant_data_projects_to_zero() {
        let data = Matrix::from_rows(&vec![vec![5.0, 5.0]; 10]);
        let pca = Pca::fit(&data, 2);
        let proj = pca.transform(&data);
        assert!(proj.as_slice().iter().all(|x| x.abs() < 1e-9));
        assert!(pca.explained_ratio.iter().all(|&r| r == 0.0));
    }
}
