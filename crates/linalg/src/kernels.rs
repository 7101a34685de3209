//! Blocked, norm-cached similarity kernels for the O(n²·d) paths.
//!
//! Every quadratic stage of the pipeline — author content/concept
//! similarity (Eq 17), the DBSCAN/K-medoids distance matrices (§4.1.4) and
//! the per-slab 3CosAdd scoring behind the TCBOW Ã weights (Eqs 6–12) —
//! reduces to pairwise dot products over dense `f32` rows. Calling
//! [`crate::vector::cosine`] per pair recomputes both L2 norms on every
//! call (each row's norm is computed n times inside an n² loop) and walks
//! memory with no reuse. This module provides the kernel layer those paths
//! route through instead:
//!
//! * [`NormalizedRows`] — row norms computed **once**, rows pre-scaled to
//!   unit length, so a cosine becomes a single dot product;
//! * [`gram_blocked`] / [`gram_blocked_par`] — symmetric `A·Aᵀ` computed in
//!   [`TILE`]-row tiles (both tiles of a pair stay resident in L1/L2 while
//!   they interact) with a scoped-thread driver that stripes tile-rows and
//!   only computes the upper triangle;
//! * [`gram_rect_blocked`] — the rectangular `A·Bᵀ` variant;
//! * [`top1_cosine_batch`] — batched nearest-neighbor search for analogy
//!   queries: a whole question set is scored against the pre-normalized
//!   vocabulary tile by tile instead of per-query linear scans.
//!
//! ## Norm-caching contract
//!
//! A zero row has no direction: its unit row stays all-zero and its cached
//! norm is `0.0`, so every dot product against it is `0.0`. Callers that
//! need cosine semantics (`similarity_matrix`, `CosineDistance`) therefore
//! get the conventional "no information" value for free, and
//! [`top1_cosine_batch`] never returns a zero-norm candidate. Dot products
//! of unit rows may exceed ±1 by a few ULPs; callers that hand the values
//! to `acos`/threshold logic must clamp (the kernels do not, because a Gram
//! matrix of *raw* rows is also a valid use).

use crate::matrix::Matrix;
use crate::vector::{dot, l2_norm, scale};

/// Rows per cache tile. A 64-row tile of `d = 200` `f32` columns is 50 KB,
/// so a pair of interacting tiles fits comfortably in a 256 KB L2; at the
/// paper's default `d = 50` a pair fits in a 32 KB L1.
pub const TILE: usize = 64;

/// A matrix view whose rows have been scaled to unit L2 norm exactly once,
/// with the original norms cached alongside.
///
/// Zero rows are left all-zero and keep norm `0.0` (see the module docs for
/// the contract downstream kernels rely on).
#[derive(Debug, Clone)]
pub struct NormalizedRows {
    unit: Matrix,
    norms: Vec<f32>,
}

impl NormalizedRows {
    /// Normalize every row of `m`, computing each norm once.
    pub fn from_matrix(m: &Matrix) -> NormalizedRows {
        let mut unit = m.clone();
        let mut norms = Vec::with_capacity(unit.rows());
        for i in 0..unit.rows() {
            let row = unit.row_mut(i);
            let n = l2_norm(row);
            if n > 0.0 {
                scale(row, 1.0 / n);
            }
            norms.push(n);
        }
        NormalizedRows { unit, norms }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.unit.rows()
    }

    /// True when the view covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.unit.rows() == 0
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.unit.cols()
    }

    /// The original (pre-normalization) L2 norm of row `i`.
    #[inline]
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// All original row norms.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Row `i` scaled to unit length (all-zero if the original row was).
    #[inline]
    pub fn unit_row(&self, i: usize) -> &[f32] {
        self.unit.row(i)
    }

    /// The matrix of unit rows.
    #[inline]
    pub fn unit_matrix(&self) -> &Matrix {
        &self.unit
    }

    /// Cosine similarity between rows `i` and `j` — a single cached-norm
    /// dot product, clamped to the valid range.
    #[inline]
    pub fn cosine(&self, i: usize, j: usize) -> f32 {
        dot(self.unit_row(i), self.unit_row(j)).clamp(-1.0, 1.0)
    }
}

/// Upper-triangle Gram rows for the row block `[i0, i1)` of `a`:
/// `row[i][j] = dot(a_i, a_j)` for `j >= i` (entries below the diagonal are
/// left `0.0` for the caller to mirror). The column dimension is swept in
/// [`TILE`]-row tiles so the tile of `a` being dotted against stays cache
/// resident while every row of the block interacts with it.
///
/// Both the sequential and the parallel Gram drivers funnel through this
/// routine, so their outputs agree bitwise row for row.
fn gram_upper_block(a: &Matrix, i0: usize, i1: usize) -> Vec<(usize, Vec<f32>)> {
    let n = a.rows();
    let mut rows: Vec<(usize, Vec<f32>)> = (i0..i1)
        .map(|i| {
            let mut row = vec![0.0f32; n];
            row[i] = dot(a.row(i), a.row(i));
            (i, row)
        })
        .collect();
    let mut j0 = i0;
    while j0 < n {
        let j1 = (j0 + TILE).min(n);
        for (i, row) in rows.iter_mut() {
            let ai = a.row(*i);
            for j in j0.max(*i + 1)..j1 {
                row[j] = dot(ai, a.row(j));
            }
        }
        j0 = j1;
    }
    rows
}

/// Mirror the strictly-upper triangle of a full square into the lower one.
fn mirror_lower(rows: &mut [Vec<f32>]) {
    let n = rows.len();
    for i in 0..n {
        for j in (i + 1)..n {
            rows[j][i] = rows[i][j];
        }
    }
}

/// Full symmetric Gram matrix `G = A·Aᵀ` (`G[i][j] = dot(a_i, a_j)`),
/// cache-blocked, computing only the upper triangle and mirroring.
///
/// Feed it [`NormalizedRows::unit_matrix`] to get a cosine similarity
/// matrix without a single norm recomputation.
pub fn gram_blocked(a: &Matrix) -> Vec<Vec<f32>> {
    let n = a.rows();
    let mut out: Vec<Vec<f32>> = Vec::with_capacity(n);
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + TILE).min(n);
        out.extend(gram_upper_block(a, i0, i1).into_iter().map(|(_, r)| r));
        i0 = i1;
    }
    mirror_lower(&mut out);
    record_gram_metrics(&GRAM, n, upper_tile_count(n));
    out
}

/// Number of `(tile_row, tile_col)` interactions an upper-triangle Gram
/// sweep over `n` rows performs.
fn upper_tile_count(n: usize) -> u64 {
    let t = n.div_ceil(TILE) as u64;
    t * (t + 1) / 2
}

/// The `<family>.calls`, `.rows` and `.tiles` counter names one Gram
/// kernel family records under, spelled out at compile time so a scoring
/// call formats no names.
pub(crate) struct GramMetrics {
    calls: &'static str,
    rows: &'static str,
    tiles: &'static str,
}

macro_rules! gram_metrics {
    ($family:literal) => {
        GramMetrics {
            calls: concat!($family, ".calls"),
            rows: concat!($family, ".rows"),
            tiles: concat!($family, ".tiles"),
        }
    };
}

/// [`gram_blocked`].
const GRAM: GramMetrics = gram_metrics!("kernels.gram");
/// [`gram_blocked_par`].
const GRAM_PAR: GramMetrics = gram_metrics!("kernels.gram_par");
/// [`gram_rect_blocked`] and [`crate::ChunkedRows::dots`].
pub(crate) const GRAM_RECT: GramMetrics = gram_metrics!("kernels.gram_rect");
/// [`crate::ChunkedRows::dots_at`]: apart from `kernels.gram_rect` so the
/// serving path's stage-2 candidate re-rank stays separately observable.
pub(crate) const GRAM_RECT_ROWS: GramMetrics = gram_metrics!("kernels.gram_rect_rows");

/// One-lock-per-counter metrics batch for a Gram kernel invocation — the
/// counters are aggregated outside the hot tile loops so instrumentation
/// cost stays O(1) per call, not O(tiles).
pub(crate) fn record_gram_metrics(names: &GramMetrics, rows: usize, tiles: u64) {
    let obs = soulmate_obs::global();
    obs.incr(names.calls, 1);
    obs.incr(names.rows, rows as u64);
    obs.incr(names.tiles, tiles);
}

/// Parallel [`gram_blocked`]: tile-rows are striped round-robin across
/// `threads` scoped workers (stripes, not contiguous chunks, so the
/// triangular workload balances — tile-row `k` has `n - k·TILE` columns of
/// work left). Output is identical to the sequential kernel row for row.
pub fn gram_blocked_par(a: &Matrix, threads: usize) -> Vec<Vec<f32>> {
    let n = a.rows();
    let n_tiles = n.div_ceil(TILE);
    let threads = threads.max(1).min(n_tiles.max(1));
    if threads <= 1 {
        return gram_blocked(a);
    }
    let mut collected: Vec<(usize, Vec<f32>)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, Vec<f32>)> = Vec::new();
                let mut tile = t;
                while tile * TILE < n {
                    let i0 = tile * TILE;
                    let i1 = (i0 + TILE).min(n);
                    out.extend(gram_upper_block(a, i0, i1));
                    tile += threads;
                }
                out
            }));
        }
        for h in handles {
            collected.extend(h.join().expect("gram worker panicked"));
        }
    });
    collected.sort_by_key(|(i, _)| *i);
    let mut out: Vec<Vec<f32>> = collected.into_iter().map(|(_, r)| r).collect();
    mirror_lower(&mut out);
    record_gram_metrics(&GRAM_PAR, n, upper_tile_count(n));
    out
}

/// Rectangular Gram `A·Bᵀ` (`out[i][j] = dot(a_i, b_j)`), cache-blocked
/// over both operands.
///
/// # Panics
/// Panics in debug builds when the column counts differ.
pub fn gram_rect_blocked(a: &Matrix, b: &Matrix) -> Vec<Vec<f32>> {
    debug_assert_eq!(a.cols(), b.cols(), "gram_rect_blocked: dim mismatch");
    let (na, nb) = (a.rows(), b.rows());
    let mut out: Vec<Vec<f32>> = (0..na).map(|_| vec![0.0f32; nb]).collect();
    let mut i0 = 0;
    while i0 < na {
        let i1 = (i0 + TILE).min(na);
        let mut j0 = 0;
        while j0 < nb {
            let j1 = (j0 + TILE).min(nb);
            for i in i0..i1 {
                let ai = a.row(i);
                let row = &mut out[i];
                for j in j0..j1 {
                    row[j] = dot(ai, b.row(j));
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
    record_gram_metrics(
        &GRAM_RECT,
        na,
        (na.div_ceil(TILE) * nb.div_ceil(TILE)) as u64,
    );
    out
}

/// Row pairs `(query, vocab)` below which [`top1_cosine_batch`] stays
/// sequential — the scan is too small to amortize thread spawns.
const TOP1_PARALLEL_PAIRS: usize = 1 << 16;

/// Batched cosine nearest-neighbor search: for every query row, the index
/// and score of the vocabulary row maximizing `dot(query, v̂)` over the
/// pre-normalized vocabulary.
///
/// Queries are taken as raw direction vectors — normalizing a query scales
/// every candidate's score equally and cannot change the argmax, so the
/// returned score is cosine times the query's norm. Zero-norm vocabulary
/// rows never win (their unit row is all-zero and is skipped outright);
/// `excluded(query_idx, vocab_idx)` masks additional candidates per query
/// (3CosAdd masks the three question words). Ties break toward the lowest
/// vocabulary index. A query with every candidate masked yields `None`.
///
/// The vocabulary is swept in [`TILE`]-row tiles in the outer loop so each
/// tile is loaded into cache once per query block rather than once per
/// query; large batches additionally stripe the query rows across scoped
/// threads.
pub fn top1_cosine_batch(
    queries: &Matrix,
    vocab: &NormalizedRows,
    excluded: &(dyn Fn(usize, usize) -> bool + Sync),
) -> Vec<Option<(usize, f32)>> {
    let nq = queries.rows();
    let nv = vocab.len();
    let mut best: Vec<Option<(usize, f32)>> = vec![None; nq];
    if nq == 0 || nv == 0 {
        return best;
    }
    let threads = if nq * nv >= TOP1_PARALLEL_PAIRS {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(nq)
    } else {
        1
    };
    let chunk = nq.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (t, best_chunk) in best.chunks_mut(chunk).enumerate() {
            let q_base = t * chunk;
            handles.push(scope.spawn(move || {
                let mut v0 = 0;
                while v0 < nv {
                    let v1 = (v0 + TILE).min(nv);
                    for (dq, slot) in best_chunk.iter_mut().enumerate() {
                        let q = q_base + dq;
                        let qrow = queries.row(q);
                        for v in v0..v1 {
                            if vocab.norm(v) == 0.0 || excluded(q, v) {
                                continue;
                            }
                            let s = dot(qrow, vocab.unit_row(v));
                            if slot.is_none_or(|(_, bs)| s > bs) {
                                *slot = Some((v, s));
                            }
                        }
                    }
                    v0 = v1;
                }
            }));
        }
        for h in handles {
            h.join().expect("top1 worker panicked");
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use soulmate_check::{assume, check};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn normalized_rows_unit_norms_and_zero_rows() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let nr = NormalizedRows::from_matrix(&m);
        assert_eq!(nr.len(), 3);
        assert_eq!(nr.dim(), 2);
        assert!((nr.norm(0) - 5.0).abs() < 1e-6);
        assert_eq!(nr.norm(1), 0.0);
        assert_eq!(nr.unit_row(1), &[0.0, 0.0]);
        assert!((l2_norm(nr.unit_row(0)) - 1.0).abs() < 1e-6);
        assert!((nr.cosine(0, 2) - cosine(m.row(0), m.row(2))).abs() < 1e-6);
    }

    #[test]
    fn gram_blocked_matches_per_pair_dots() {
        // 150 rows spans two tile-rows plus a partial third.
        let m = random_matrix(150, 17, 1);
        let g = gram_blocked(&m);
        for i in 0..150 {
            for j in 0..150 {
                let want = dot(m.row(i), m.row(j));
                assert!(
                    (g[i][j] - want).abs() <= 1e-4 * (1.0 + want.abs()),
                    "G[{i}][{j}] = {} want {want}",
                    g[i][j]
                );
            }
        }
    }

    #[test]
    fn gram_parallel_matches_sequential_bitwise() {
        let m = random_matrix(200, 13, 2);
        let seq = gram_blocked(&m);
        for threads in [1usize, 2, 3, 8, 64] {
            let par = gram_blocked_par(&m, threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn gram_handles_degenerate_shapes() {
        assert!(gram_blocked(&Matrix::zeros(0, 4)).is_empty());
        let one = gram_blocked(&Matrix::from_rows(&[vec![2.0, 0.0]]).unwrap());
        assert_eq!(one, vec![vec![4.0]]);
        assert!(gram_blocked_par(&Matrix::zeros(0, 4), 8).is_empty());
    }

    #[test]
    fn gram_calls_record_block_metrics() {
        let obs = soulmate_obs::global();
        let before = obs.counter("kernels.gram.tiles");
        let calls_before = obs.counter("kernels.gram.calls");
        let m = random_matrix(130, 5, 9);
        let _ = gram_blocked(&m);
        // 130 rows → 3 tile-rows → 3·4/2 = 6 upper-triangle interactions.
        // Other tests record into the same global registry concurrently,
        // so assert monotone growth by at least this call's contribution.
        assert!(obs.counter("kernels.gram.tiles") >= before + 6);
        assert!(obs.counter("kernels.gram.calls") > calls_before);
        let rect_before = obs.counter("kernels.gram_rect.tiles");
        let _ = gram_rect_blocked(&m, &m);
        assert!(obs.counter("kernels.gram_rect.tiles") >= rect_before + 9);
    }

    #[test]
    fn gram_rect_matches_per_pair_dots() {
        let a = random_matrix(70, 9, 3);
        let b = random_matrix(130, 9, 4);
        let g = gram_rect_blocked(&a, &b);
        assert_eq!(g.len(), 70);
        assert_eq!(g[0].len(), 130);
        for i in [0usize, 13, 63, 64, 69] {
            for j in [0usize, 1, 63, 64, 127, 129] {
                let want = dot(a.row(i), b.row(j));
                assert!((g[i][j] - want).abs() <= 1e-4 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn top1_matches_linear_scan() {
        let vocab_m = random_matrix(300, 8, 5);
        let queries = random_matrix(40, 8, 6);
        let vocab = NormalizedRows::from_matrix(&vocab_m);
        let got = top1_cosine_batch(&queries, &vocab, &|q, v| (q + v) % 7 == 0);
        assert_eq!(got.len(), 40);
        for q in 0..queries.rows() {
            let mut want: Option<(usize, f32)> = None;
            for v in 0..vocab.len() {
                if vocab.norm(v) == 0.0 || (q + v) % 7 == 0 {
                    continue;
                }
                let s = dot(queries.row(q), vocab.unit_row(v));
                if want.is_none_or(|(_, bs)| s > bs) {
                    want = Some((v, s));
                }
            }
            assert_eq!(got[q].map(|(v, _)| v), want.map(|(v, _)| v), "query {q}");
        }
    }

    #[test]
    fn top1_skips_zero_rows_and_full_masks() {
        let vocab_m = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let vocab = NormalizedRows::from_matrix(&vocab_m);
        let queries = Matrix::from_rows(&[vec![1.0, 0.1], vec![1.0, 0.1]]).unwrap();
        // Query 0 may use every word; query 1 masks them all.
        let got = top1_cosine_batch(&queries, &vocab, &|q, _| q == 1);
        assert_eq!(got[0].map(|(v, _)| v), Some(1));
        assert_eq!(got[1], None);
        // An empty query set is fine.
        assert!(top1_cosine_batch(&Matrix::zeros(0, 2), &vocab, &|_, _| false).is_empty());
    }

    #[test]
    fn top1_ties_break_to_lowest_index() {
        // Words 1 and 2 are identical; the lower index must win.
        let vocab_m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let vocab = NormalizedRows::from_matrix(&vocab_m);
        let queries = Matrix::from_rows(&[vec![2.0, 0.0]]).unwrap();
        let got = top1_cosine_batch(&queries, &vocab, &|_, _| false);
        assert_eq!(got[0].map(|(v, _)| v), Some(1));
    }

    #[test]
    fn prop_gram_blocked_matches_cosine() {
        check(256, |g| {
            let flat = g.vec(1..200, |g| g.f32(-10.0..10.0));
            let cols = g.usize(1..8);

            // Reshape the flat pool into a rows x cols matrix.
            let rows = flat.len() / cols;
            assume(rows > 0)?;
            let m = Matrix::from_vec(rows, cols, flat[..rows * cols].to_vec()).unwrap();
            let nr = NormalizedRows::from_matrix(&m);
            let g = gram_blocked(nr.unit_matrix());
            for i in 0..rows {
                for j in 0..rows {
                    let want = cosine(m.row(i), m.row(j));
                    assert!(
                        (g[i][j].clamp(-1.0, 1.0) - want).abs() < 1e-4,
                        "({i}, {j}): {} vs {want}",
                        g[i][j]
                    );
                }
            }

            Some(())
        });
    }

    #[test]
    fn prop_gram_par_equals_seq() {
        check(256, |g| {
            let flat = g.vec(8..160, |g| g.f32(-5.0..5.0));
            let threads = g.usize(1..9);

            let cols = 4;
            let rows = flat.len() / cols;
            let m = Matrix::from_vec(rows, cols, flat[..rows * cols].to_vec()).unwrap();
            assert_eq!(gram_blocked(&m), gram_blocked_par(&m, threads));
        });
    }
}
