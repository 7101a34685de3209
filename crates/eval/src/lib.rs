//! Evaluation harness for the SoulMate reproduction.
//!
//! The paper's effectiveness numbers all flow through a panel of five
//! human experts voting 0–3 on tweet pairs. We cannot convene Australians,
//! but the synthetic corpus carries ground truth, so [`experts`] simulates
//! the panel: the *textual* facet of a vote comes from surface token
//! overlap, the *conceptual* facet from the generator's planted concept
//! labels, and per-expert noise models annotator disagreement. Votes
//! aggregate exactly as the paper does (average, then floor).
//!
//! On top of the panel sit the paper's three benchmark protocols:
//!
//! * [`protocol::subgraph_precision`] — Table 5 (50 seed authors → top-5
//!   MSTs ≥ 5 nodes → top-10 tweet pairs → score-2/score-3 precision);
//! * [`protocol::weighted_precision`] — Tables 6 & 7 and Figs 10/11
//!   (top author pairs → top tweet pairs → `P_Textual` / `P_Conceptual`);
//! * [`protocol::cluster_quality`] — the Fig 10 threshold-selection
//!   protocol (top pairs per tweet cluster under ζ-enrichment).
//!
//! [`render`] prints paper-style fixed-width tables.

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// Index-based loops are used deliberately where two mirrored cells of a
// symmetric matrix (or several parallel arrays) are written per step —
// iterator rewrites obscure those invariants.
#![allow(clippy::needless_range_loop)]

pub mod community;
pub mod error;
pub mod experts;
pub mod precision;
pub mod protocol;
pub mod render;
pub mod retrieval;

pub use community::{
    adjusted_rand_index, community_precision_at_k, normalized_mutual_information,
    partition_from_components,
};
pub use error::EvalError;
pub use experts::{ExpertPanel, PanelConfig};
pub use precision::ScoreCounts;
pub use protocol::{
    cluster_quality, subgraph_precision, weighted_precision, SubgraphPrecision, SubgraphProtocol,
};
pub use render::TextTable;
pub use retrieval::{
    generation_agreement, recall_at_k, recall_sweep, GenerationAgreementReport, RecallReport,
};
