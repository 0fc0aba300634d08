//! Dense row-major matrix of `f64` with the small set of operations the
//! benchmark pipeline needs (products, transposes, row/column views).
//!
//! The benchmark operates on datasets with at most a few thousand columns,
//! so a simple contiguous `Vec<f64>` layout is the right representation.
//! Hot arithmetic (products, dot products, distances) is delegated to the
//! [`crate::kernels`] module, whose blocked/unrolled loops are bit-identical
//! to the naive reference loops they replaced.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`. The default value is the empty
/// `0 x 0` matrix (the natural seed for scratch buffers that are
/// reshaped with [`Matrix::reset_zeroed`] before use).
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reshapes in place to `rows x cols`, reusing the allocation, and
    /// zeroes every entry. The scratch-buffer primitive for batched
    /// kernels that reuse one matrix across differently-sized batches.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow two distinct rows at once (for row elimination and
    /// swaps without cloning either row).
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn rows_pair_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(
            a != b && a < self.rows && b < self.rows,
            "rows_pair_mut needs two distinct in-range rows, got {a} and {b} of {}",
            self.rows
        );
        let cols = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * cols);
            (&mut lo[a * cols..(a + 1) * cols], &mut hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * cols);
            (&mut hi[..cols], &mut lo[b * cols..(b + 1) * cols])
        }
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::matmul_into(self, other, &mut out);
        out
    }

    /// Matrix product into a preallocated output (see
    /// [`crate::kernels::matmul_into`]).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_into(self, other, out);
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Matrix–vector product into a reused output buffer.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        crate::kernels::matvec_into(self, v, out);
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Mean of each column.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            crate::kernels::add_assign(&mut means, self.row(r));
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Population standard deviation of each column.
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        for r in 0..self.rows {
            for ((v, &m), &x) in vars.iter_mut().zip(&means).zip(self.row(r)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = (self.rows.max(1)) as f64;
        vars.iter().map(|v| (v / n).sqrt()).collect()
    }

    /// Subtracts the column means in place; returns the means.
    pub fn center_columns(&mut self) -> Vec<f64> {
        let means = self.col_means();
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            crate::kernels::sub_assign(row, &means);
        }
        means
    }

    /// Sample covariance matrix (`(X - mean)^T (X - mean) / (n - 1)`).
    pub fn covariance(&self) -> Matrix {
        let mut centered = self.clone();
        centered.center_columns();
        let mut cov = centered.transpose().matmul(&centered);
        let denom = if self.rows > 1 { self.rows - 1 } else { 1 } as f64;
        cov.scale(1.0 / denom);
        cov
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;
    /// Consuming scalar multiply: scales the buffer in place instead of
    /// cloning it first (callers that need to keep the original can
    /// `clone()` explicitly).
    fn mul(mut self, s: f64) -> Matrix {
        self.scale(s);
        self
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dot(a, b)
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::sq_dist(a, b)
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(m.matvec(&v), v);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_means_and_stds() {
        let a = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(a.col_means(), vec![2.0, 10.0]);
        let stds = a.col_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert!(stds[1].abs() < 1e-12);
    }

    #[test]
    fn center_columns_zeroes_means() {
        let mut a = Matrix::from_rows(&[vec![1.0, 4.0], vec![3.0, 8.0], vec![5.0, 0.0]]);
        a.center_columns();
        for m in a.col_means() {
            assert!(m.abs() < 1e-12);
        }
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let cov = a.covariance();
        // var(x) = 1, cov(x, 2x) = 2, var(2x) = 4 (sample variance).
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn consuming_scalar_mul_scales_in_place() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 4.0]]);
        let ptr = a.as_slice().as_ptr();
        let scaled = a * 2.0;
        // The buffer is reused, not cloned.
        assert_eq!(scaled.as_slice().as_ptr(), ptr);
        assert_eq!(scaled.row(0), &[2.0, -4.0]);
        assert_eq!(scaled.row(1), &[1.0, 8.0]);
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let mut out = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 2.0]]);
        let sum = &a + &b;
        let back = &sum - &b;
        assert_eq!(back, a);
    }
}
