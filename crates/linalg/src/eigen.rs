//! Jacobi eigenvalue decomposition for real symmetric matrices.
//!
//! The benchmark only needs eigendecompositions of covariance matrices
//! (for PCA) whose dimension is the number of dataset features — at most a
//! few hundred — so the classic cyclic Jacobi rotation method is more than
//! fast enough and numerically very robust.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition: `values[i]` corresponds to the
/// unit-norm eigenvector stored in column `i` of `vectors`, sorted by
/// descending eigenvalue.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, aligned with `values`.
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix using cyclic Jacobi
/// rotations.
///
/// A matrix with a NaN or infinite off-diagonal entry has no usable
/// decomposition: every rotation touching it spreads NaN, so the sweeps
/// never converge and all 100 run, ending in all-NaN values and vectors.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen(m: &Matrix) -> Eigen {
    assert_eq!(
        m.rows(),
        m.cols(),
        "eigendecomposition requires a square matrix"
    );
    let n = m.rows();
    let mut a = m.clone();
    // The eigenvectors, transposed: row `i` of `vt` is column `i` of V, so
    // a rotation of V's columns p and q updates two contiguous rows.
    let mut vt = Matrix::identity(n);

    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let off = off_diagonal_norm(&a);
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let (c, s) = rotation(a[(p, p)], a[(q, q)], apq);

                // Apply the rotation G(p, q, theta) as A <- G^T A G: columns
                // p and q first, then rows p and q, which read the
                // column-updated entries. A is not treated as symmetric:
                // after a rotation the (p, q) block need not be bitwise
                // symmetric, and later rotations read both halves.
                for row in a.as_mut_slice().chunks_exact_mut(n) {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                rotate_rows(&mut a, p, q, c, s);
                rotate_rows(&mut vt, p, q, c, s);
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[(i, i)], i)).collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));

    let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for (r, &x) in vt.row(old_col).iter().enumerate() {
            vectors[(r, new_col)] = x;
        }
    }
    Eigen { values, vectors }
}

/// The Jacobi rotation `(cos, sin)` that zeroes `a[(p, q)]`, computed
/// through the stable form of the rotation angle.
fn rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        1.0 / (theta - (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, t * c)
}

/// Rotates two distinct rows of `m` in place: `(row_p, row_q) <-
/// (c·row_p − s·row_q, s·row_p + c·row_q)`.
fn rotate_rows(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (row_p, row_q) = m.rows_pair_mut(p, q);
    for (xp, xq) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let (vp, vq) = (*xp, *xq);
        *xp = c * vp - s * vq;
        *xq = s * vp + c * vq;
    }
}

fn off_diagonal_norm(a: &Matrix) -> f64 {
    let mut s = 0.0;
    for p in 0..a.rows() {
        for &x in &a.row(p)[p + 1..] {
            s += x * x;
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;
    use proptest::prelude::*;

    /// The replaced decomposition: strided, indexed updates of A's
    /// columns p and q, then its rows, then V's columns.
    fn symmetric_eigen_reference(m: &Matrix) -> Eigen {
        let n = m.rows();
        let mut a = m.clone();
        let mut v = Matrix::identity(n);

        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let off = off_diagonal_norm_reference(&a);
            if off < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[(i, i)], i)).collect();
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0));

        let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_col)] = v[(r, old_col)];
            }
        }
        Eigen { values, vectors }
    }

    fn off_diagonal_norm_reference(a: &Matrix) -> f64 {
        let n = a.rows();
        let mut s = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                s += a[(p, q)] * a[(p, q)];
            }
        }
        s.sqrt()
    }

    fn bits(e: &Eigen) -> (Vec<u64>, Vec<u64>) {
        (
            e.values.iter().map(|x| x.to_bits()).collect(),
            e.vectors.as_slice().iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// Copies the upper triangle onto the lower one.
    fn symmetrize(mut m: Matrix) -> Matrix {
        for i in 0..m.rows() {
            for j in 0..i {
                m[(i, j)] = m[(j, i)];
            }
        }
        m
    }

    /// An `n x n` symmetric matrix whose off-diagonal entries are exact
    /// zeros with probability `zero_pct / 100`, scaled by `scale`.
    fn random_symmetric(
        n: std::ops::Range<usize>,
        zero_pct: u64,
        scale: f64,
    ) -> impl Strategy<Value = Matrix> {
        n.prop_flat_map(move |n| {
            prop::collection::vec((-10.0..10.0f64, 0u64..100), n * n).prop_map(move |cells| {
                let data = cells
                    .iter()
                    .enumerate()
                    .map(|(k, &(x, coin))| {
                        if k / n != k % n && coin < zero_pct {
                            0.0
                        } else {
                            x * scale
                        }
                    })
                    .collect();
                symmetrize(Matrix::from_vec(n, n, data))
            })
        })
    }

    /// Sample covariances of `rows < cols` data: rank-deficient, with
    /// `cols - rows + 1` zero eigenvalues up to rounding.
    fn short_covariance() -> impl Strategy<Value = Matrix> {
        (2usize..41).prop_flat_map(|cols| {
            (1usize..cols).prop_flat_map(move |rows| {
                prop::collection::vec(-5.0..5.0f64, rows * cols)
                    .prop_map(move |data| Matrix::from_vec(rows, cols, data).covariance())
            })
        })
    }

    /// `Q diag(λ) Qᵀ` for a Householder reflector `Q`, with each λ drawn
    /// from a pool of three values so eigenvalues repeat.
    fn repeated_eigenvalues() -> impl Strategy<Value = Matrix> {
        (2usize..30).prop_flat_map(|n| {
            (
                prop::collection::vec(-1.0..1.0f64, n),
                prop::collection::vec(0usize..3, n),
                prop::collection::vec(-4.0..4.0f64, 3),
            )
                .prop_map(move |(h, picks, pool)| {
                    let hh: f64 = h.iter().map(|x| x * x).sum::<f64>().max(1e-12);
                    let mut m = Matrix::zeros(n, n);
                    for i in 0..n {
                        for j in 0..n {
                            // (I - 2hhᵀ/hᵀh) diag(λ) (I - 2hhᵀ/hᵀh), entry (i, j).
                            let mut x = 0.0;
                            for k in 0..n {
                                let qik = f64::from(u8::from(i == k)) - 2.0 * h[i] * h[k] / hh;
                                let qjk = f64::from(u8::from(j == k)) - 2.0 * h[j] * h[k] / hh;
                                x += qik * pool[picks[k]] * qjk;
                            }
                            m[(i, j)] = x;
                        }
                    }
                    symmetrize(m)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dense_symmetric_matches_the_strided_reference(
            // At 1e200 the off-diagonal norm overflows to infinity while
            // every entry stays finite.
            m in prop_oneof![
                3 => random_symmetric(1..41, 0, 1.0),
                1 => random_symmetric(2..12, 0, 1e200),
                1 => random_symmetric(2..12, 0, 1e-305),
            ],
        ) {
            prop_assert_eq!(bits(&symmetric_eigen(&m)), bits(&symmetric_eigen_reference(&m)));
        }

        #[test]
        fn sparse_symmetric_matches_the_strided_reference(
            m in random_symmetric(2..41, 70, 1.0),
        ) {
            prop_assert_eq!(bits(&symmetric_eigen(&m)), bits(&symmetric_eigen_reference(&m)));
        }

        #[test]
        fn rank_deficient_covariance_matches_the_strided_reference(m in short_covariance()) {
            prop_assert_eq!(bits(&symmetric_eigen(&m)), bits(&symmetric_eigen_reference(&m)));
        }

        #[test]
        fn repeated_eigenvalues_match_the_strided_reference(m in repeated_eigenvalues()) {
            prop_assert_eq!(bits(&symmetric_eigen(&m)), bits(&symmetric_eigen_reference(&m)));
        }

        #[test]
        fn non_finite_off_diagonal_ends_all_nan_like_the_reference(
            (m, i, j, kind) in (2usize..24).prop_flat_map(|n| {
                (random_symmetric(n..n + 1, 20, 1.0), 0..n, 0..n - 1, 0u8..3)
            }),
        ) {
            // A pair (i, j) off the diagonal: j skips over i.
            let j = if j >= i { j + 1 } else { j };
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][usize::from(kind)];
            let mut m = m;
            m[(i, j)] = bad;
            m[(j, i)] = bad;
            for e in [symmetric_eigen(&m), symmetric_eigen_reference(&m)] {
                prop_assert!(e.values.iter().all(|x| x.is_nan()));
                prop_assert!(e.vectors.as_slice().iter().all(|x| x.is_nan()));
            }
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_its_entries() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 0)] = 3.0;
        m[(1, 1)] = 1.0;
        m[(2, 2)] = 2.0;
        let e = symmetric_eigen(&m);
        assert!(close(e.values[0], 3.0));
        assert!(close(e.values[1], 2.0));
        assert!(close(e.values[2], 1.0));
    }

    #[test]
    fn two_by_two_known_decomposition() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&m);
        assert!(close(e.values[0], 3.0));
        assert!(close(e.values[1], 1.0));
        // Leading eigenvector proportional to (1, 1)/sqrt(2).
        let v0 = e.vectors.col(0);
        assert!(close(v0[0].abs(), v0[1].abs()));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]);
        let e = symmetric_eigen(&m);
        for i in 0..3 {
            for j in 0..3 {
                let vi = e.vectors.col(i);
                let vj = e.vectors.col(j);
                let d = dot(&vi, &vj);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-8, "columns {i},{j} dot = {d}");
            }
        }
    }

    #[test]
    fn reconstruction_av_equals_lambda_v() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.0],
            vec![1.0, 0.0, 3.0],
        ]);
        let e = symmetric_eigen(&m);
        for i in 0..3 {
            let v = e.vectors.col(i);
            let av = m.matvec(&v);
            for (x, y) in av.iter().zip(&v) {
                assert!((x - e.values[i] * y).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.3, 0.1],
            vec![0.3, 2.0, 0.4],
            vec![0.1, 0.4, 3.0],
        ]);
        let e = symmetric_eigen(&m);
        let trace = 1.0 + 2.0 + 3.0;
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }
}
