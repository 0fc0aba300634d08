//! # oeb-preprocess
//!
//! The preprocessing stage of the OEBench pipeline (§4.3 of the paper):
//! one-hot encoding of categorical fields, first-window standardisation,
//! and the four missing-value imputers compared in §6.6 (KNN, regression,
//! mean, zero).

pub mod encode;
pub mod impute;
pub mod scale;

pub use encode::OneHotEncoder;
pub use impute::{Imputer, KnnImputer, MeanImputer, RegressionImputer, ZeroImputer};
pub use scale::{StandardScaler, TargetScaler};
