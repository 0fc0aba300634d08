//! Dense linear system solving via Gaussian elimination with partial
//! pivoting, plus a ridge-regression least-squares helper used by the
//! regression imputer and the PERM concept-drift probe.

use crate::kernels;
use crate::matrix::Matrix;

/// Solves `a * x = b` for square `a` using Gaussian elimination with
/// partial pivoting. Returns `None` when the system is singular (pivot
/// below 1e-12).
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "solve requires a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = m[(col, col)].abs();
        for r in (col + 1)..n {
            let v = m[(r, col)].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            let (a_row, b_row) = m.rows_pair_mut(col, pivot);
            a_row.swap_with_slice(b_row);
            rhs.swap(col, pivot);
        }
        // Eliminate below. `y -= f * x` is `y += (-f) * x` bit-for-bit
        // (negation is exact), so the fused axpy kernel preserves the
        // historical update chain.
        let diag = m[(col, col)];
        for r in (col + 1)..n {
            let factor = m[(r, col)] / diag;
            // oeb-lint: allow(float-eq) -- exact-zero skip: elimination is a no-op only at 0.0
            if factor == 0.0 {
                continue;
            }
            let (prow, trow) = m.rows_pair_mut(col, r);
            kernels::axpy(-factor, &prow[col..], &mut trow[col..]);
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution: the sequential subtraction chain from rhs[col].
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let s = kernels::dot_sub_from(rhs[col], &m.row(col)[col + 1..], &x[col + 1..]);
        x[col] = s / m[(col, col)];
    }
    Some(x)
}

/// Ridge least squares: finds `w` minimising `||X w - y||^2 + lambda ||w||^2`
/// via the normal equations. `X` has one sample per row and finite entries
/// (its `XᵀX` is [`Matrix::gram`]); an intercept column is *not* added
/// automatically.
///
/// Returns `None` only if the regularised system is singular, which cannot
/// happen for `lambda > 0`.
pub fn ridge_regression(x: &Matrix, y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(x.rows(), y.len(), "sample count mismatch");
    let mut gram = x.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let xty = x.transpose().matvec(y);
    solve(&gram, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ridge_recovers_linear_coefficients() {
        // y = 3a - 2b, plenty of samples, tiny lambda.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let w = ridge_regression(&x, &y, 1e-9).unwrap();
        assert!((w[0] - 3.0).abs() < 1e-6);
        assert!((w[1] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let small = ridge_regression(&x, &y, 1e-9).unwrap()[0];
        let big = ridge_regression(&x, &y, 1e6).unwrap()[0];
        assert!(big.abs() < small.abs());
    }
}
