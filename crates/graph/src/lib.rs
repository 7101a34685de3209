//! The authors' weighted graph and the stack-wise maximum-spanning-tree
//! graph cut (Problem 3; Section 4.2.2, Algorithm 1).
//!
//! * [`WeightedGraph`] — undirected weighted graph over dense node ids,
//!   buildable from a full similarity matrix with threshold
//!   sparsification;
//! * [`swmst()`] — the paper's SW-MST (Algorithm 1): edges pushed onto a
//!   stack in ascending weight order, popped (descending) and accumulated
//!   until every node is covered; the resulting forest's connected
//!   components are the linked-author subgraphs;
//! * [`swmst_from_sorted`] — the pop loop alone, for callers that keep an
//!   edge list already in [`stack_pop_order`] (the CLI's `subgraphs` runs
//!   it over a snapshot's cached backbone);
//! * [`kruskal_max_forest`] — the classical maximum-spanning-forest
//!   reference (used to cross-check SW-MST and in the ablation bench);
//! * [`SpanningForest`] — shared result type with component extraction and
//!   the query-subgraph lookup of Definition 7.

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// Index-based loops are used deliberately where two mirrored cells of a
// symmetric matrix (or several parallel arrays) are written per step —
// iterator rewrites obscure those invariants.
#![allow(clippy::needless_range_loop)]
// The no-panic guarantee of the serving path (DESIGN.md §12): production
// code in this crate must return typed errors, never panic. Tests are
// exempt; justified exceptions carry local `#[allow]`s with proof comments.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod error;
pub mod forest;
pub mod graph;
pub mod kruskal;
pub mod swmst;
pub mod unionfind;

pub use error::GraphError;
pub use forest::SpanningForest;
pub use graph::{Edge, WeightedGraph};
pub use kruskal::kruskal_max_forest;
pub use swmst::{stack_pop_order, swmst, swmst_from_sorted, swmst_literal};
pub use unionfind::UnionFind;
