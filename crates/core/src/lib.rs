//! The SoulMate framework core — the paper's contribution assembled from
//! the workspace substrates.
//!
//! **Offline phase** (Section 4.1): [`tcbow`] trains one CBOW model per
//! temporal slab and fuses them — via analogy-accuracy-weighted level and
//! depth attributes (Eqs 6–12) — into collective word vectors `V^C`;
//! [`tweetvec`] composes tweet vectors (Eq 13); [`concepts`] clusters tweet
//! vectors into latent concepts and derives tweet concept vectors (Eq 15);
//! [`authorvec`] aggregates tweets into author content/concept vectors
//! (Eq 16, Fig 7); [`similarity`] builds `X^Content` / `X^Concept` and
//! fuses them with α (Eq 17); [`baselines`] implements every comparison
//! method of Section 5.1.1.
//!
//! **Online phase** (Section 4.2): [`online`] inserts a (possibly
//! cold-start) query author, updates the similarity matrices, and extracts
//! the query author's subgraph with SW-MST; [`engine::QueryEngine`] serves
//! the same answers with the query-independent work (row normalization,
//! graph sparsification, edge sorting) precomputed once per model; a
//! rebuild [`online::Trigger`] schedules periodic offline refreshes.
//!
//! [`pipeline::Pipeline`] orchestrates the whole offline phase from a raw
//! dataset.

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// Index-based loops are used deliberately where two mirrored cells of a
// symmetric matrix (or several parallel arrays) are written per step —
// iterator rewrites obscure those invariants.
#![allow(clippy::needless_range_loop)]
// The no-panic guarantee of the serving path (DESIGN.md §12): production
// code in this crate must return typed `CoreError`s, never panic. Tests
// are exempt; the few justified exceptions carry local `#[allow]`s with
// proof comments.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod authorvec;
pub mod baselines;
pub mod concepts;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod online;
pub mod pipeline;
pub mod similarity;
pub mod snapshot;
pub mod tcbow;
pub mod tweetvec;

pub use authorvec::{author_concept_vectors, author_content_vectors, AuthorCombiner};
pub use baselines::{author_similarity, Method};
pub use concepts::{
    discover_concepts, discover_concepts_weighted, ConceptConfig, ConceptModel, ConceptSpace,
};
pub use engine::{CachedCut, EngineMode, QueryEngine};
pub use error::CoreError;
pub use ingest::{EngineCell, EngineGeneration, IngestBatch, IngestOutcome, RefitManager};
pub use online::{link_query, QueryModel, QueryOutcome, Trigger};
pub use pipeline::{Pipeline, PipelineConfig};
pub use similarity::{fuse_similarities, similarity_matrix, similarity_matrix_parallel};
pub use snapshot::binary::{BinaryInfo, SectionInfo, BINARY_MAGIC, BINARY_VERSION};
pub use snapshot::PipelineSnapshot;
pub use tcbow::{SlabModel, TcbowConfig, TemporalEmbedding};
pub use tweetvec::{tweet_vectors, Combiner};

// The retrieval knobs travel with the engine API that consumes them.
pub use soulmate_retrieval::{IvfConfig, IvfIndex};
