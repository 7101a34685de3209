//! Row-major dense `f32` matrix.

use crate::error::LinalgError;
use crate::vector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
///
/// Rows are the natural unit in this workspace (a row is a word vector, a
/// tweet vector, or an author vector), so the storage layout keeps each row
/// contiguous and [`Matrix::row`] returns a plain slice with no stride
/// arithmetic for callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(
                format!("{rows}x{cols}"),
                format!("buffer of {}", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows. All rows must share the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty("rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch(
                    format!("row of {cols}"),
                    format!("row of {}", r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Uniform random matrix in `[-bound, bound]` — the classic word2vec
    /// initialization uses `bound = 0.5 / dim`.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, bound: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Matrix { rows, cols, data }
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

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consume into the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterate over rows as slices.
    ///
    /// A zero-width matrix still yields one (empty) slice per row, so row
    /// counts stay consistent for callers — `chunks_exact(0)` would panic.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t.data[j * self.rows + i] = v;
            }
        }
        t
    }

    /// `self * other`.
    ///
    /// Straightforward ikj-ordered triple loop — cache friendly for
    /// row-major operands and fast enough for the small matrices (≤ a few
    /// thousand on a side) this workspace produces.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(
                format!("{}x{}", self.rows, self.cols),
                format!("{}x{}", other.rows, other.cols),
            ));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue; // the co-occurrence matrices here are sparse
                }
                let b_row = other.row(k);
                let out_row = out.row_mut(i);
                vector::axpy(aik, b_row, out_row);
            }
        }
        Ok(out)
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn matmul_transpose_self(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch(
                format!("{}x{} (transposed)", self.cols, self.rows),
                format!("{}x{}", other.rows, other.cols),
            ));
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &ai) in a_row.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                vector::axpy(ai, b_row, out.row_mut(i));
            }
        }
        Ok(out)
    }

    /// L2-normalize every row in place (zero rows are left untouched).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            vector::normalize(self.row_mut(i));
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        vector::l2_norm(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::ShapeMismatch(..))
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(err, Err(LinalgError::ShapeMismatch(..))));
        let err = Matrix::from_rows(&[]);
        assert!(matches!(err, Err(LinalgError::Empty(_))));
    }

    #[test]
    fn row_access_and_set() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.row(1), &[5.0, 0.0]);
        m.row_mut(0)[1] = 7.0;
        assert_eq!(m.get(0, 1), 7.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transpose_self_agrees_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 2, 1.0, &mut rng);
        let fast = a.matmul_transpose_self(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let mut m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        m.normalize_rows();
        assert!((soulmate_row_norm(&m, 0) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    fn soulmate_row_norm(m: &Matrix, i: usize) -> f32 {
        crate::vector::l2_norm(m.row(i))
    }

    #[test]
    fn random_uniform_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Matrix::random_uniform(10, 10, 0.25, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.25));
        let mut rng2 = StdRng::seed_from_u64(42);
        let m2 = Matrix::random_uniform(10, 10, 0.25, &mut rng2);
        assert_eq!(m, m2);
    }

    #[test]
    fn iter_rows_yields_all() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[5.0, 6.0]);
    }

    #[test]
    fn iter_rows_zero_width_matrix_does_not_panic() {
        let m = Matrix::zeros(4, 0);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.is_empty()));
    }
}
