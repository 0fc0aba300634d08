//! # oeb-tree
//!
//! Tree-based stream learners for the OEBench reproduction:
//! [`cart::DecisionTree`] (CART with Gini/variance splits and
//! missing-value routing), [`gbdt::Gbdt`] (gradient boosting, squared
//! error and multiclass softmax), [`hoeffding::HoeffdingTree`]
//! (incremental VFDT with Gaussian attribute observers), and
//! [`arf::AdaptiveRandomForest`] (Poisson-bagged Hoeffding trees with
//! per-tree ADWIN drift monitoring and background-tree replacement).

// Index loops over parallel numeric buffers are clearer than iterator
// chains in these kernels.
#![allow(clippy::needless_range_loop)]

pub mod arf;
pub mod cart;
pub mod gbdt;
pub mod hoeffding;

pub use arf::{AdaptiveRandomForest, ArfConfig};
pub use cart::{DecisionTree, FeaturePresort, TreeConfig, TreeTask};
pub use gbdt::{Gbdt, GbdtConfig};
pub use hoeffding::{HoeffdingConfig, HoeffdingTree};
