//! # oeb-drift
//!
//! The drift-detector suite of the OEBench reproduction (§4.3 and
//! Appendix A.2 of the paper), implemented from the original papers:
//!
//! * **Data drift** (distribution of X): [`ks::KsDetector`] (1-D KS test),
//!   [`hdddm::Hdddm`] (multi-D Hellinger), [`kdqtree::KdqTreeDetector`]
//!   (multi-D KL over a kdq-tree partition), [`cdbd::Cdbd`] (1-D
//!   confidence-distribution divergence), [`pcacd::PcaCd`] (multi-D PCA +
//!   Page–Hinkley), [`adwin::Adwin`] (1-D streaming adaptive window),
//!   [`hddm::HddmA`] (1-D streaming Hoeffding bounds).
//! * **Concept drift** (the X→Y mapping): [`ddm::Ddm`], [`ddm::Eddm`],
//!   ADWIN on the accuracy stream (again [`adwin::Adwin`]), [`ecdd::Ecdd`]
//!   (EWMA charts), and
//!   [`perm::perm_test`] — the only one applicable to regression.

pub mod adwin;
pub mod cdbd;
pub mod ddm;
pub mod ecdd;
pub mod hdddm;
pub mod hddm;
pub mod kdqtree;
pub mod ks;
pub mod pcacd;
pub mod perm;
pub mod state;

pub use adwin::Adwin;
pub use cdbd::Cdbd;
pub use ddm::{Ddm, Eddm};
pub use ecdd::Ecdd;
pub use hdddm::Hdddm;
pub use hddm::HddmA;
pub use kdqtree::KdqTreeDetector;
pub use ks::KsDetector;
pub use pcacd::{PageHinkley, PcaCd};
pub use perm::{perm_test, PermConfig, PermOutcome};
pub use state::{BatchDriftDetector, ConceptDriftDetector, DriftState};
