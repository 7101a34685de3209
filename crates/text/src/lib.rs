//! Microblog text processing for the SoulMate pipeline.
//!
//! Short-text contents are "noisy, ambiguous, and do not follow the
//! grammatical rules" (paper, Challenge 1); this crate provides the
//! normalization layer that every other component consumes:
//!
//! * [`tokenize_with`] — a microblog-aware tokenizer (URLs, @mentions,
//!   #hashtags, elongated words, punctuation) that hands each token to a
//!   closure as a `&str`, with no per-token allocation: ASCII words take
//!   one byte loop, other words the Unicode char path ([`tokenize`]
//!   collects the same tokens as `String`s);
//! * [`Vocabulary`] — string interning with frequency-based pruning;
//! * [`SparseVector`] — sorted sparse term vectors with cosine/dot kernels;
//! * [`tfidf`] — standard document TF-IDF plus the paper's *modified*
//!   TF-IDF over temporal splits (Eq. 1);
//! * [`enrich`] — the top-ζ similar-word content enrichment used by the
//!   `Temporal Collective` and `CBOW Enriched` baselines (Section 4.1.2).

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// Index-based loops are used deliberately where two mirrored cells of a
// symmetric matrix (or several parallel arrays) are written per step —
// iterator rewrites obscure those invariants.
#![allow(clippy::needless_range_loop)]

pub mod enrich;
pub mod error;
pub mod sparse;
pub mod stopwords;
pub mod tfidf;
pub mod token;
pub mod vocab;

pub use enrich::{enrich_tokens, SimilarWords};
pub use error::TextError;
pub use sparse::SparseVector;
pub use stopwords::is_stopword;
pub use tfidf::{jaccard, modified_split_tfidf, DocumentTfIdf};
pub use token::{tokenize, tokenize_with, TokenizerConfig};
pub use vocab::{Vocabulary, WordId};
