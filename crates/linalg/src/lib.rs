//! Minimal dense linear-algebra kernels used across the SoulMate workspace.
//!
//! The paper's pipeline needs only a handful of primitives — dot products,
//! cosine similarity, vector accumulation, row-major matrices, a softmax and
//! a truncated SVD — so this crate implements exactly those from scratch
//! instead of pulling in a full linear-algebra dependency. The [`kernels`]
//! module adds the blocked, norm-cached layer the O(n²·d) similarity paths
//! route through (see its docs for the contract).
//!
//! All kernels operate on `f32` slices: the embedding matrices dominate
//! memory and single precision halves the footprint with no observable
//! effect on the paper's metrics.

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// Index-based loops are used deliberately where two mirrored cells of a
// symmetric matrix (or several parallel arrays) are written per step —
// iterator rewrites obscure those invariants.
#![allow(clippy::needless_range_loop)]

pub mod chunked;
pub mod error;
pub mod kernels;
pub mod matrix;
pub mod quant;
pub mod sparse;
pub mod svd;
pub mod vector;

pub use chunked::{ChunkedRows, RowSource};
pub use error::LinalgError;
pub use kernels::{
    dot_i8, gram_blocked, gram_blocked_par, gram_rect_blocked, gram_rect_i8_blocked,
    top1_cosine_batch, NormalizedRows, TILE,
};
pub use matrix::Matrix;
pub use quant::{CenteredQuantizedRows, QuantizedRows, QUANT_MAX};
pub use sparse::SparseMatrix;
pub use svd::{truncated_svd, truncated_svd_sparse, Svd};
pub use vector::{
    add_assign, axpy, cosine, dot, euclidean, l2_norm, mean_of, normalize, scale, softmax_in_place,
    squared_euclidean, sub_assign, sum_of,
};
