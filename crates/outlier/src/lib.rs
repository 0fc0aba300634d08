//! # oeb-outlier
//!
//! The two outlier detectors the paper selects from ADBench (§4.3):
//! [`ecod::Ecod`] (empirical-CDF tail probabilities, parameter-free) and
//! [`iforest::IsolationForest`] (random-split isolation trees), plus the
//! paper's 3-sigma window-level flagging rule in [`flag`].

pub mod ecod;
pub mod flag;
pub mod iforest;

pub use ecod::Ecod;
pub use flag::{anomaly_ratio, flag_by_sigma};
pub use iforest::{top_score_index, IForestConfig, IsolationForest};

/// Matrices for the equivalence tests of the detector kernels.
#[cfg(test)]
mod test_data {
    use oeb_linalg::Matrix;
    use proptest::prelude::*;

    /// `cols`-wide matrices at the detectors' edges: 1-3 rows or up to
    /// 40, columns that are constant, 0/1, all-NaN, or continuous with
    /// some NaN cells, and sometimes every row copied from the first few.
    pub(crate) fn edge_matrix(cols: usize) -> impl Strategy<Value = Matrix> {
        prop_oneof![1 => 1usize..4, 3 => 4usize..40].prop_flat_map(move |rows| {
            (
                prop::collection::vec(0u8..5, cols),
                prop::collection::vec((-100.0..100.0f64, 0u8..6), rows * cols),
                prop_oneof![3 => Just(rows), 1 => 1usize..4],
            )
                .prop_map(move |(kinds, cells, distinct)| {
                    let mut data = vec![0.0; rows * cols];
                    for r in 0..rows {
                        for (c, &kind) in kinds.iter().enumerate() {
                            // Repeated rows copy row `r % distinct`.
                            let (x, coin) = cells[(r % distinct) * cols + c];
                            data[r * cols + c] = match kind {
                                0 => 7.0,
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
}
