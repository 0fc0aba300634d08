//! # oeb-linalg
//!
//! Dense linear algebra and statistics kernels for the OEBench
//! reproduction: matrices, a Jacobi eigensolver, PCA, K-Means++, exact
//! t-SNE, and the distribution-distance measures (Hellinger, KL,
//! Kolmogorov-Smirnov) that the drift detectors build on.
//!
//! Everything is implemented from scratch on `f64` with deterministic,
//! seedable randomness; dataset dimensionality in this benchmark is small
//! (≤ a few hundred features), so simple dense algorithms are the right
//! tool.

// Index loops over parallel numeric buffers are clearer than iterator
// chains in these kernels.
#![allow(clippy::needless_range_loop)]

pub mod eigen;
pub mod kernels;
pub mod kmeans;
pub mod matrix;
pub mod pca;
pub mod solve;
pub mod stats;
pub mod tsne;

pub use eigen::{symmetric_eigen, Eigen};
pub use kernels::{axpy, dot_from, dot_sub_from, scale_add};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use matrix::{dot, euclidean, norm, sq_dist, Matrix};
pub use pca::Pca;
pub use solve::{ridge_regression, solve};
pub use stats::{
    five_number, hellinger, kl_divergence, ks_p_value, ks_statistic, ks_statistic_sorted, mean,
    pearson, quantile, skewness, std_dev, variance, FiveNumber, Histogram,
};
pub use tsne::{tsne, TsneConfig};
