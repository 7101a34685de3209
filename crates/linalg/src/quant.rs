//! Per-row scalar i8 quantization of dense `f32` rows.
//!
//! Snapshot format v3 (DESIGN.md §16) stores the big author/content/
//! concept matrices as one signed byte per value instead of four: each row
//! is scaled by its own `max_abs / 127` factor, rounded to the nearest
//! integer and clamped to `[-127, 127]`. Alongside the bytes the quantizer
//! caches two `f32` per row:
//!
//! * the **dequantization scale** (`max_abs / 127`, `0.0` for an all-zero
//!   row) — a value is reconstructed as `q · scale`;
//! * the **exact L2 norm of the original row** — so consumers that need
//!   cosine semantics can divide by the true norm instead of the (slightly
//!   off) norm of the reconstruction.
//!
//! Quantization is fully deterministic: the same input rows always
//! produce the same bytes, scales and norms (there is no stochastic
//! rounding), which is what makes quantized snapshot writes reproducible
//! byte for byte.
//!
//! qi8 is a storage encoding only: the snapshot reader dequantizes every
//! qi8 section back to `f32` rows at load, and the serving engine scores
//! those rows exactly like the rows of an `f32` file. Nothing scores i8
//! rows directly.

use crate::chunked::RowSource;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::l2_norm;

/// The symmetric i8 quantization range: values map onto `[-127, 127]`
/// (`-128` is never produced, keeping the range symmetric so negating a
/// row negates its quantization exactly).
pub const QUANT_MAX: f32 = 127.0;

/// Append `row`'s i8 codes to `data` and return its dequantization scale.
fn quantize_row(row: &[f32], data: &mut Vec<i8>) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    // A zero row quantizes to zero bytes with scale 0.0 — dequantization
    // reproduces it exactly.
    if max_abs == 0.0 {
        data.extend(std::iter::repeat_n(0i8, row.len()));
        return 0.0;
    }
    let inv = QUANT_MAX / max_abs;
    for &v in row {
        let q = (v * inv).round().clamp(-QUANT_MAX, QUANT_MAX);
        // q is rounded and clamped to [-127.0, 127.0], so the cast to i8
        // is exact and never truncates.
        data.push(q as i8);
    }
    max_abs / QUANT_MAX
}

/// A row-major matrix of per-row scalar-quantized i8 values with cached
/// dequantization scales and exact original-row norms.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRows {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    norms: Vec<f32>,
}

impl QuantizedRows {
    /// Quantize every row of `m` with its own symmetric scale.
    ///
    /// Deterministic: identical inputs yield identical bytes, scales and
    /// norms.
    pub fn quantize<R: RowSource + ?Sized>(m: &R) -> QuantizedRows {
        let (rows, cols) = (m.rows(), m.cols());
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut norms = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = m.row(i);
            norms.push(l2_norm(row));
            scales.push(quantize_row(row, &mut data));
        }
        QuantizedRows {
            rows,
            cols,
            data,
            scales,
            norms,
        }
    }

    /// Rebuild from raw parts (the binary snapshot reader's entry point).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when the buffer or per-row vectors
    /// do not match `rows × cols`, or a scale/norm is negative or
    /// non-finite (a corrupted section must not survive into serving).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
        norms: Vec<f32>,
    ) -> Result<QuantizedRows, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(
                format!("{rows}x{cols}"),
                format!("i8 buffer of {}", data.len()),
            ));
        }
        if scales.len() != rows || norms.len() != rows {
            return Err(LinalgError::ShapeMismatch(
                format!("{rows} rows"),
                format!("{} scales / {} norms", scales.len(), norms.len()),
            ));
        }
        if scales
            .iter()
            .chain(&norms)
            .any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(LinalgError::ShapeMismatch(
                "finite non-negative scales/norms".to_string(),
                "corrupted quantization sidecar".to_string(),
            ));
        }
        Ok(QuantizedRows {
            rows,
            cols,
            data,
            scales,
            norms,
        })
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

    /// Quantized row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range (callers guarantee `i < rows`, as
    /// with [`Matrix::row`]).
    #[inline]
    // Row slicing is in-bounds for i < rows by construction (data holds
    // exactly rows·cols bytes, checked in both constructors).
    #[allow(clippy::indexing_slicing)]
    pub fn row(&self, i: usize) -> &[i8] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Dequantization scale of row `i` (`0.0` for an all-zero row).
    #[inline]
    pub fn scale(&self, i: usize) -> f32 {
        self.scales.get(i).copied().unwrap_or(0.0)
    }

    /// All per-row dequantization scales.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// All cached exact original-row norms.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// The flat row-major i8 buffer.
    #[inline]
    pub fn as_bytes(&self) -> &[i8] {
        &self.data
    }

    /// Reconstruct the `f32` matrix (`value = q · scale`). The result
    /// differs from the original by at most `scale / 2` per entry.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let scale = self.scale(i);
            let dst = out.row_mut(i);
            for (d, &q) in dst.iter_mut().zip(self.row(i)) {
                *d = f32::from(q) * scale;
            }
        }
        out
    }
}

/// Mean-centered per-row i8 quantization: the column-wise mean row `μ` is
/// stored exactly in `f32` and each row's **residual** `row − μ` is
/// quantized with [`QuantizedRows::quantize`]. A value is reconstructed as
/// `μ_c + q · scale`.
///
/// Why center first: embedding-derived rows often share one dominant
/// direction (author content vectors cluster around the corpus mean), so
/// the discriminative signal lives in a band far narrower than the rows'
/// absolute magnitude. Plain per-row quantization spends its 127 levels on
/// the shared component and drowns the signal in rounding noise; centering
/// makes the per-row scale proportional to the *residual* magnitude, so
/// the relative error on the part that actually distinguishes rows stays
/// at the ~1/254 level regardless of how clustered the matrix is.
///
/// The cached [`QuantizedRows::norms`] are the exact L2 norms of the
/// **original** rows (not the residuals), preserving the cosine-semantics
/// contract of the plain quantizer. Deterministic like the plain
/// quantizer: identical inputs yield identical means, bytes, scales and
/// norms.
#[derive(Debug, Clone, PartialEq)]
pub struct CenteredQuantizedRows {
    mean: Vec<f32>,
    rows: QuantizedRows,
}

impl CenteredQuantizedRows {
    /// Center `m` by its column-wise mean row and quantize the residuals.
    /// Each residual is formed in one reused scratch row, so no centered
    /// copy of `m` is ever held.
    pub fn quantize<R: RowSource + ?Sized>(m: &R) -> CenteredQuantizedRows {
        let (rows, cols) = (m.rows(), m.cols());
        let mut mean = vec![0.0f32; cols];
        if rows > 0 {
            for i in 0..rows {
                for (acc, &v) in mean.iter_mut().zip(m.row(i)) {
                    *acc += v;
                }
            }
            let inv = 1.0 / rows as f32;
            for acc in &mut mean {
                *acc *= inv;
            }
        }
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        // The exact norms of the original rows, not of the residuals.
        let mut norms = Vec::with_capacity(rows);
        let mut residual = vec![0.0f32; cols];
        for i in 0..rows {
            let row = m.row(i);
            norms.push(l2_norm(row));
            for ((d, &v), &mu) in residual.iter_mut().zip(row).zip(&mean) {
                *d = v - mu;
            }
            scales.push(quantize_row(&residual, &mut data));
        }
        CenteredQuantizedRows {
            mean,
            rows: QuantizedRows {
                rows,
                cols,
                data,
                scales,
                norms,
            },
        }
    }

    /// Rebuild from raw parts (the binary snapshot reader's entry point).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `mean` does not match the
    /// quantized column count or carries a non-finite value.
    pub fn from_parts(
        mean: Vec<f32>,
        rows: QuantizedRows,
    ) -> Result<CenteredQuantizedRows, LinalgError> {
        if mean.len() != rows.cols() {
            return Err(LinalgError::ShapeMismatch(
                format!("{} columns", rows.cols()),
                format!("mean row of {}", mean.len()),
            ));
        }
        if mean.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::ShapeMismatch(
                "finite mean row".to_string(),
                "corrupted quantization mean".to_string(),
            ));
        }
        Ok(CenteredQuantizedRows { mean, rows })
    }

    /// The exact column-wise mean row `μ`.
    #[inline]
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The quantized residual rows (norms are the exact *original*-row
    /// norms, see the type docs).
    #[inline]
    pub fn rows(&self) -> &QuantizedRows {
        &self.rows
    }

    /// Reconstruct the `f32` matrix (`value = μ_c + q · scale`). The
    /// result differs from the original by at most `scale / 2` per entry,
    /// where `scale` is the row's *residual* scale.
    pub fn dequantize(&self) -> Matrix {
        let mut out = self.rows.dequantize();
        for i in 0..out.rows() {
            for (v, &mu) in out.row_mut(i).iter_mut().zip(&self.mean) {
                *v += mu;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded_by_half_scale() {
        let m = random_matrix(50, 33, 7);
        let q = QuantizedRows::quantize(&m);
        let back = q.dequantize();
        for i in 0..m.rows() {
            let bound = q.scale(i) * 0.5 + f32::EPSILON;
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() <= bound, "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantize_is_deterministic() {
        let m = random_matrix(20, 17, 3);
        let a = QuantizedRows::quantize(&m);
        let b = QuantizedRows::quantize(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rows_quantize_to_zero_with_zero_scale() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0, 0.0], vec![1.0, -2.0, 0.5]]).unwrap();
        let q = QuantizedRows::quantize(&m);
        assert_eq!(q.scale(0), 0.0);
        assert_eq!(q.norms()[0], 0.0);
        assert!(q.row(0).iter().all(|&v| v == 0));
        assert_eq!(q.dequantize().row(0), &[0.0, 0.0, 0.0]);
        // Extremes hit ±127 exactly and never -128.
        assert_eq!(q.row(1)[1], -127);
        assert!(q.row(1).iter().all(|&v| v >= -127));
    }

    #[test]
    fn norms_are_exact_original_norms() {
        let m = random_matrix(10, 24, 11);
        let q = QuantizedRows::quantize(&m);
        for i in 0..m.rows() {
            assert_eq!(
                q.norms()[i].to_bits(),
                crate::vector::l2_norm(m.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn from_parts_validates_shapes_and_values() {
        let ok = QuantizedRows::from_parts(2, 2, vec![1, 2, 3, 4], vec![0.1, 0.2], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        assert!(
            QuantizedRows::from_parts(2, 2, vec![1, 2, 3], vec![0.1, 0.2], vec![1.0, 2.0]).is_err()
        );
        assert!(
            QuantizedRows::from_parts(2, 2, vec![1, 2, 3, 4], vec![0.1], vec![1.0, 2.0]).is_err()
        );
        assert!(QuantizedRows::from_parts(
            2,
            2,
            vec![1, 2, 3, 4],
            vec![0.1, f32::NAN],
            vec![1.0, 2.0]
        )
        .is_err());
        assert!(
            QuantizedRows::from_parts(2, 2, vec![1, 2, 3, 4], vec![0.1, 0.2], vec![-1.0, 2.0])
                .is_err()
        );
    }

    #[test]
    fn parts_roundtrip_preserves_everything() {
        let m = random_matrix(6, 9, 5);
        let q = QuantizedRows::quantize(&m);
        let q2 = QuantizedRows::from_parts(
            q.rows(),
            q.cols(),
            q.as_bytes().to_vec(),
            q.scales().to_vec(),
            q.norms().to_vec(),
        )
        .unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn centered_roundtrip_error_is_bounded_by_half_residual_scale() {
        let m = random_matrix(40, 24, 13);
        let c = CenteredQuantizedRows::quantize(&m);
        let back = c.dequantize();
        for i in 0..m.rows() {
            let bound = c.rows().scale(i) * 0.5 + 1e-6;
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() <= bound, "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn centering_beats_plain_quantization_on_clustered_rows() {
        // Rows = one dominant shared direction + a tiny discriminative
        // residual — the regime author content matrices live in. The
        // centered reconstruction must be an order of magnitude closer.
        let mut rng = StdRng::seed_from_u64(42);
        let base = Matrix::random_uniform(1, 32, 1.0, &mut rng);
        let noise = Matrix::random_uniform(24, 32, 0.005, &mut rng);
        let mut rows = Vec::new();
        for i in 0..noise.rows() {
            let row: Vec<f32> = base
                .row(0)
                .iter()
                .zip(noise.row(i))
                .map(|(&b, &n)| b + n)
                .collect();
            rows.push(row);
        }
        let m = Matrix::from_rows(&rows).unwrap();
        let err = |rec: &Matrix| -> f32 {
            m.as_slice()
                .iter()
                .zip(rec.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let plain = err(&QuantizedRows::quantize(&m).dequantize());
        let centered = err(&CenteredQuantizedRows::quantize(&m).dequantize());
        assert!(
            centered * 10.0 < plain,
            "centered {centered} not 10x better than plain {plain}"
        );
    }

    #[test]
    fn centered_keeps_exact_original_norms_and_is_deterministic() {
        let m = random_matrix(12, 9, 21);
        let a = CenteredQuantizedRows::quantize(&m);
        let b = CenteredQuantizedRows::quantize(&m);
        assert_eq!(a, b);
        for i in 0..m.rows() {
            assert_eq!(
                a.rows().norms()[i].to_bits(),
                crate::vector::l2_norm(m.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn centered_from_parts_validates_mean() {
        let m = random_matrix(3, 4, 2);
        let c = CenteredQuantizedRows::quantize(&m);
        let q = c.rows().clone();
        assert!(CenteredQuantizedRows::from_parts(c.mean().to_vec(), q.clone()).is_ok());
        assert!(CenteredQuantizedRows::from_parts(vec![0.0; 3], q.clone()).is_err());
        assert!(CenteredQuantizedRows::from_parts(vec![0.0, 0.0, f32::NAN, 0.0], q).is_err());
    }

    #[test]
    fn centered_empty_matrix_roundtrips() {
        let m = Matrix::zeros(0, 0);
        let c = CenteredQuantizedRows::quantize(&m);
        assert!(c.mean().is_empty());
        let back = c.dequantize();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.cols(), 0);
    }
}
