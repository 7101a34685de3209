//! Append-only row store whose copies share every full chunk.
//!
//! A served model grows one author row per ingest, and each ingest
//! publishes a new generation while the previous one keeps answering the
//! requests already holding it. With a flat [`Matrix`] every generation
//! owns a private copy of all `n` rows, so each ingest allocates, copies
//! and later frees `O(n·d)` floats per matrix. [`ChunkedRows`] keeps the
//! rows in fixed [`TILE`]-row chunks behind `Arc`s instead:
//!
//! * `clone` bumps one reference count per chunk and copies no row;
//! * [`ChunkedRows::push_row`] appends in place when the tail chunk is
//!   not shared, and otherwise copies only that tail (at most
//!   `TILE − 1` rows) — every full chunk stays shared for good;
//! * [`ChunkedRows::dots`] / [`ChunkedRows::dots_at`] score query rows
//!   against the store chunk by chunk, each entry the same [`dot`] over
//!   the same two slices as [`crate::gram_rect_blocked`] over the flat
//!   matrix, so the scores are bit-identical.
//!
//! Rows that never grow (everything `fit` computes) stay in [`Matrix`].
//! [`RowSource`] is the read-only view both offer, for the few callers
//! that accept either.

use crate::error::LinalgError;
use crate::kernels::{record_gram_metrics, TILE};
use crate::matrix::Matrix;
use crate::vector::dot;
use std::sync::Arc;

/// Read access to a row-major set of equal-length `f32` rows.
pub trait RowSource: std::fmt::Debug + Sync {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Row length.
    fn cols(&self) -> usize;
    /// Row `i` (panics when `i >= rows()`).
    fn row(&self, i: usize) -> &[f32];
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn row(&self, i: usize) -> &[f32] {
        Matrix::row(self, i)
    }
}

impl RowSource for ChunkedRows {
    fn rows(&self) -> usize {
        ChunkedRows::rows(self)
    }
    fn cols(&self) -> usize {
        ChunkedRows::cols(self)
    }
    fn row(&self, i: usize) -> &[f32] {
        ChunkedRows::row(self, i)
    }
}

/// Rows in append-only [`TILE`]-row chunks shared between copies (see
/// the module docs). Chunk `c` holds rows `c·TILE ..`; every chunk but
/// the last is full.
#[derive(Debug, Clone)]
pub struct ChunkedRows {
    rows: usize,
    cols: usize,
    chunks: Vec<Arc<Vec<f32>>>,
}

impl ChunkedRows {
    /// An empty store of `cols`-wide rows.
    pub fn new(cols: usize) -> ChunkedRows {
        ChunkedRows {
            rows: 0,
            cols,
            chunks: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), LinalgError> {
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(
                format!("row of {}", self.cols),
                format!("row of {}", row.len()),
            ));
        }
        self.append(row);
        Ok(())
    }

    /// [`ChunkedRows::push_row`] for a row already known to fit.
    fn append(&mut self, row: &[f32]) {
        let tail_open = !self.rows.is_multiple_of(TILE);
        match self.chunks.last_mut().filter(|_| tail_open) {
            Some(tail) => match Arc::get_mut(tail) {
                Some(own) => own.extend_from_slice(row),
                None => {
                    // Another copy still reads this tail: take a private
                    // copy of its rows (fewer than TILE) and grow that.
                    let mut chunk = Vec::with_capacity(TILE * self.cols);
                    chunk.extend_from_slice(tail);
                    chunk.extend_from_slice(row);
                    *tail = Arc::new(chunk);
                }
            },
            None => {
                let mut chunk = Vec::with_capacity(TILE * self.cols);
                chunk.extend_from_slice(row);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.rows += 1;
    }

    /// A store of `rows` rows of width `cols` from its chunks, in row
    /// order: every chunk but the last holds [`TILE`] rows, the last the
    /// rest (`rows.div_ceil(TILE)` chunks in all). A chunk allocated with
    /// room for [`TILE`] rows lets the tail grow in place on push.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when the chunk count or a chunk's
    /// length disagrees with `rows` and `cols`.
    pub fn from_chunks(
        rows: usize,
        cols: usize,
        chunks: Vec<Vec<f32>>,
    ) -> Result<ChunkedRows, LinalgError> {
        let mismatch = |want: String, got: String| Err(LinalgError::ShapeMismatch(want, got));
        if chunks.len() != rows.div_ceil(TILE) {
            return mismatch(
                format!("{} chunks of {rows} rows", rows.div_ceil(TILE)),
                format!("{} chunks", chunks.len()),
            );
        }
        for (c, chunk) in chunks.iter().enumerate() {
            let want = TILE.min(rows - c * TILE) * cols;
            if chunk.len() != want {
                return mismatch(
                    format!("chunk {c} of {want} values"),
                    format!("{} values", chunk.len()),
                );
            }
        }
        Ok(ChunkedRows {
            rows,
            cols,
            chunks: chunks.into_iter().map(Arc::new).collect(),
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// When `i` lies past the last chunk (debug builds: `i >= rows()`).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {i} of {}", self.rows);
        let start = (i % TILE) * self.cols;
        &self.chunks[i / TILE][start..start + self.cols]
    }

    /// Iterate over the rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The chunks, in row order: `TILE` rows each, the last possibly
    /// fewer. Two stores holding the same `Arc` share those rows.
    pub fn chunks(&self) -> &[Arc<Vec<f32>>] {
        &self.chunks
    }

    /// Copy the rows into one flat matrix — an `O(n·d)` build, for
    /// one-off consumers of a dense matrix (encoders, quantization).
    pub fn to_matrix(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for chunk in &self.chunks {
            data.extend_from_slice(chunk);
        }
        Matrix::from_vec(self.rows, self.cols, data)
            .unwrap_or_else(|_| unreachable!("every chunk holds whole rows"))
    }

    /// `out[q][j] = dot(queries[q], self.row(j))` for every row `j`. Each
    /// chunk is read once and dotted with every query while it is cache
    /// resident. Bit-identical to [`crate::gram_rect_blocked`] of the
    /// queries against [`ChunkedRows::to_matrix`].
    pub fn dots(&self, queries: &[&[f32]]) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = queries
            .iter()
            .map(|_| Vec::with_capacity(self.rows))
            .collect();
        for chunk in &self.chunks {
            for (q, scores) in queries.iter().zip(out.iter_mut()) {
                debug_assert_eq!(q.len(), self.cols, "ChunkedRows::dots: dim mismatch");
                scores.extend(chunk.chunks_exact(self.cols.max(1)).map(|row| dot(q, row)));
            }
        }
        if self.cols == 0 {
            // Zero-width rows hold no floats: each score is the empty dot.
            for scores in &mut out {
                scores.resize(self.rows, 0.0);
            }
        }
        record_gram_metrics(
            "kernels.gram_rect",
            queries.len(),
            (queries.len().div_ceil(TILE) * self.chunks.len()) as u64,
        );
        out
    }

    /// `out[q][j] = dot(queries[q], self.row(ids[j]))` — [`ChunkedRows::dots`]
    /// over a row subset (ids in any order, repeats allowed), read in
    /// place with no gather copy. Bit-identical to gathering the rows
    /// into a matrix and calling [`crate::gram_rect_blocked`].
    ///
    /// # Panics
    /// When an id is out of range.
    pub fn dots_at(&self, queries: &[&[f32]], ids: &[u32]) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = queries
            .iter()
            .map(|_| Vec::with_capacity(ids.len()))
            .collect();
        for block in ids.chunks(TILE) {
            for (q, scores) in queries.iter().zip(out.iter_mut()) {
                debug_assert_eq!(q.len(), self.cols, "ChunkedRows::dots_at: dim mismatch");
                // u32 widens losslessly into usize on every supported target.
                scores.extend(block.iter().map(|&id| dot(q, self.row(id as usize))));
            }
        }
        record_gram_metrics(
            // Distinct from `kernels.gram_rect` so the serving path's
            // stage-2 candidate re-rank stays separately observable.
            "kernels.gram_rect_rows",
            queries.len(),
            (queries.len().div_ceil(TILE) * ids.len().div_ceil(TILE)) as u64,
        );
        out
    }
}

impl From<&Matrix> for ChunkedRows {
    fn from(m: &Matrix) -> ChunkedRows {
        let mut out = ChunkedRows::new(m.cols());
        for row in m.iter_rows() {
            out.append(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gram_rect_blocked;
    use soulmate_check::check;

    fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn push_row_rejects_wrong_width() {
        let mut s = ChunkedRows::new(3);
        assert!(matches!(
            s.push_row(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch(..))
        ));
        assert_eq!(s.rows(), 0);
    }

    #[test]
    fn zero_width_rows_still_count() {
        let mut s = ChunkedRows::new(0);
        for _ in 0..TILE + 1 {
            s.push_row(&[]).unwrap();
        }
        assert_eq!(s.rows(), TILE + 1);
        assert_eq!(s.chunks().len(), 2);
        assert!(s.iter_rows().all(<[f32]>::is_empty));
        assert_eq!(s.to_matrix().rows(), TILE + 1);
        assert_eq!(s.dots(&[&[]]), vec![vec![0.0; TILE + 1]]);
    }

    #[test]
    fn from_chunks_matches_pushed_rows_and_checks_shape() {
        for rows in [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5] {
            for cols in [0, 1, 3] {
                let mut pushed = ChunkedRows::new(cols);
                for i in 0..rows {
                    let row: Vec<f32> = (0..cols).map(|j| (i * cols + j) as f32).collect();
                    pushed.push_row(&row).unwrap();
                }
                let chunks: Vec<Vec<f32>> = pushed.chunks().iter().map(|c| c.to_vec()).collect();
                let built = ChunkedRows::from_chunks(rows, cols, chunks).unwrap();
                assert_eq!((built.rows(), built.cols()), (rows, cols));
                assert_eq!(built.to_matrix(), pushed.to_matrix());
            }
        }
        // One chunk too few, one too many, a short tail, a long head.
        let chunk = |n: usize| vec![0.0f32; n * 2];
        for (rows, chunks) in [
            (TILE + 1, vec![chunk(TILE)]),
            (TILE, vec![chunk(TILE), chunk(0)]),
            (TILE + 2, vec![chunk(TILE), chunk(1)]),
            (TILE + 1, vec![chunk(TILE + 1), chunk(0)]),
        ] {
            assert!(matches!(
                ChunkedRows::from_chunks(rows, 2, chunks),
                Err(LinalgError::ShapeMismatch(..))
            ));
        }
    }

    #[test]
    fn dots_at_of_no_ids_is_empty_per_query() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let s = ChunkedRows::from(&m);
        assert_eq!(s.dots_at(&[&[1.0, 0.0], &[0.0, 1.0]], &[]), vec![vec![]; 2]);
    }

    #[test]
    fn scoring_records_block_metrics_under_their_own_names() {
        let mut s = ChunkedRows::new(3);
        for i in 0..130 {
            s.push_row(&[i as f32, 1.0, -1.0]).unwrap();
        }
        let q: &[f32] = &[1.0, 0.5, 0.25];
        let obs = soulmate_obs::global();
        // Other tests record into the same global registry concurrently,
        // so assert monotone growth by at least this call's contribution.
        // One query against 130 rows → 3 chunks → 3 tiles.
        let rect_tiles = obs.counter("kernels.gram_rect.tiles");
        let _ = s.dots(&[q]);
        assert!(obs.counter("kernels.gram_rect.tiles") >= rect_tiles + 3);
        // The row-subset scorer records under its own name, so the
        // serving path's stage-2 re-rank never blends into gram_rect.
        let rows_calls = obs.counter("kernels.gram_rect_rows.calls");
        let _ = s.dots_at(&[q], &[0, 64, 129]);
        assert!(obs.counter("kernels.gram_rect_rows.calls") > rows_calls);
    }

    /// The store against a flat matrix built from the same pushes, with
    /// clones taken in between: rows, iteration, materialization and both
    /// scoring routines agree bit for bit, the full chunks of every clone
    /// are shared, and a push after a clone leaves the clone as it was.
    #[test]
    fn prop_chunked_rows_match_flat_matrix() {
        check(64, |g| {
            let cols = g.usize(0..9);
            // Row counts cluster on the chunk boundaries.
            let rows = match g.usize(0..6) {
                0 => 63,
                1 => 64,
                2 => 65,
                3 => 127,
                4 => 128,
                _ => g.usize(0..200),
            };
            let data = g.vec(rows * cols, |g| g.f32(-4.0..4.0));
            let clone_every = g.usize(1..40);

            let mut store = ChunkedRows::new(cols);
            let mut snapshots: Vec<(ChunkedRows, usize)> = Vec::new();
            for i in 0..rows {
                if i % clone_every == 0 {
                    snapshots.push((store.clone(), i));
                }
                store.push_row(&data[i * cols..(i + 1) * cols]).unwrap();
            }
            let flat = Matrix::from_vec(rows, cols, data.clone()).unwrap();

            assert_eq!((store.rows(), store.cols()), (rows, cols));
            assert_eq!(store.chunks().len(), rows.div_ceil(TILE));
            for i in 0..rows {
                assert_eq!(store.row(i), flat.row(i), "row {i}");
            }
            assert!(store.iter_rows().eq(flat.iter_rows()));
            assert_eq!(store.to_matrix(), flat);

            for (clone, len) in &snapshots {
                // Pushes after the clone never reached it.
                assert_eq!(clone.rows(), *len);
                assert_eq!(clone.to_matrix().as_slice(), &data[..len * cols]);
                // Its full chunks are the store's own.
                for c in 0..len / TILE {
                    assert!(Arc::ptr_eq(&clone.chunks()[c], &store.chunks()[c]));
                }
            }

            let n_queries = g.usize(1..5);
            let queries = g.vec(n_queries, |g| g.vec(cols, |g| g.f32(-2.0..2.0)));
            let query_rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            let q = Matrix::from_rows(&queries).unwrap();
            assert_eq!(
                bits(&store.dots(&query_rows)),
                bits(&gram_rect_blocked(&q, &flat))
            );

            let ids: Vec<u32> = if rows == 0 {
                Vec::new()
            } else {
                g.vec(0..90, |g| g.u32(0..rows as u32))
            };
            let gathered: Vec<f32> = ids
                .iter()
                .flat_map(|&id| flat.row(id as usize).to_vec())
                .collect();
            let gathered = Matrix::from_vec(ids.len(), cols, gathered).unwrap();
            assert_eq!(
                bits(&store.dots_at(&query_rows, &ids)),
                bits(&gram_rect_blocked(&q, &gathered))
            );
        });
    }

    #[test]
    fn push_copies_only_a_shared_tail() {
        let mut a = ChunkedRows::new(2);
        for i in 0..TILE + 3 {
            a.push_row(&[i as f32, 0.0]).unwrap();
        }
        let b = a.clone();
        a.push_row(&[-1.0, -1.0]).unwrap();
        // The full chunk is still shared; the tail was copied once.
        assert!(Arc::ptr_eq(&a.chunks()[0], &b.chunks()[0]));
        assert!(!Arc::ptr_eq(&a.chunks()[1], &b.chunks()[1]));
        assert_eq!(Arc::strong_count(&a.chunks()[1]), 1);
        let tail = Arc::as_ptr(&a.chunks()[1]);
        // An unshared tail grows in place.
        a.push_row(&[-2.0, -2.0]).unwrap();
        assert_eq!(Arc::as_ptr(&a.chunks()[1]), tail);
        assert_eq!(b.rows(), TILE + 3);
        assert_eq!(a.row(TILE + 4), &[-2.0, -2.0]);
    }
}
