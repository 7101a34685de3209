//! Recall@k harness for the IVF candidate retriever.
//!
//! The two-stage retrieval path (`soulmate-retrieval` + an
//! `EngineMode::Ivf` engine) trades exactness for per-query cost: a
//! candidate that never leaves the probed inverted lists can never be
//! linked. This module quantifies that trade directly — for each query it
//! takes the **exact** engine's top-k authors (the ranking the paper's
//! online phase is defined by) and measures what fraction survive into
//! the IVF candidate set:
//!
//! ```text
//! recall@k(nprobe) = |topk_exact ∩ candidates(nprobe)| / k
//! ```
//!
//! averaged over the query set. Because stage 2 re-ranks candidates with
//! bit-identical exact scores, candidate-set recall *is* end-to-end
//! ranking recall: an author in the candidate set is scored exactly as
//! the exact engine scores it.
//!
//! [`recall_sweep`] runs the measurement across a ladder of `nprobe`
//! values — the recall/speed knob — producing the table DESIGN.md §14 and
//! the README quote.

use crate::error::EvalError;
use soulmate_core::{CoreError, EngineMode, QueryEngine, QueryOutcome};
use soulmate_corpus::Timestamp;

/// Recall of the candidate retriever at one probe width.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallReport {
    /// Probe width measured (`0` = the index default).
    pub nprobe: usize,
    /// Ranking depth `k` of the ground-truth top-k.
    pub k: usize,
    /// Queries evaluated.
    pub n_queries: usize,
    /// Mean fraction of the exact top-k present in the candidate set.
    pub recall_at_k: f64,
    /// Mean candidate-set size (the per-query exact-scoring cost).
    pub mean_candidates: f64,
    /// Mean candidate fraction of the author set (1.0 = exhaustive —
    /// sub-linearity requires this to shrink as `n` grows).
    pub mean_candidate_fraction: f64,
}

/// The exact engine's top-`k` author ids for one similarity row:
/// similarity descending, ties to the lower id — the same total order the
/// graph ranking uses.
fn exact_top_k(similarities: &[f32], k: usize) -> Vec<u32> {
    let mut ranked: Vec<(f32, u32)> = similarities
        .iter()
        .enumerate()
        // i indexes a similarity row whose author ids are u32 — it fits.
        .map(|(i, &s)| (s, i as u32))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(_, id)| id).collect()
}

/// `engine`'s build answering `queries` under `mode`, whatever plan
/// `engine` itself serves — under [`EngineMode::Exact`], the ground truth
/// every recall is measured against.
fn outcomes_under(
    engine: &QueryEngine<'_>,
    mode: EngineMode,
    queries: &[Vec<(Timestamp, String)>],
) -> Result<Vec<QueryOutcome>, EvalError> {
    engine
        .with_mode(mode)
        .link_query_authors(queries)
        .map_err(|e| EvalError::Invalid(e.to_string()))
}

/// Measure candidate-set recall@`k` of `engine`'s attached IVF index at
/// one probe width, over a query set (each entry a query author's
/// tweets).
///
/// # Errors
/// [`EvalError::Invalid`] when the engine has no index attached or a
/// query fails to vectorize; [`EvalError::InsufficientData`] for an empty
/// query set or `k = 0`.
pub fn recall_at_k(
    engine: &QueryEngine<'_>,
    queries: &[Vec<(Timestamp, String)>],
    k: usize,
    nprobe: usize,
) -> Result<RecallReport, EvalError> {
    if queries.is_empty() {
        return Err(EvalError::InsufficientData("no queries".into()));
    }
    if k == 0 {
        return Err(EvalError::InsufficientData("k must be positive".into()));
    }
    let n = engine.n_authors();
    let k = k.min(n);
    let core = |e: CoreError| EvalError::Invalid(e.to_string());
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut candidates = 0usize;
    let exact = outcomes_under(engine, EngineMode::Exact, queries)?;
    for (tweets, exact) in queries.iter().zip(&exact) {
        let cands = engine
            .candidate_ids(tweets, nprobe)
            .map_err(core)?
            .ok_or_else(|| EvalError::Invalid("engine has no retrieval index attached".into()))?;
        for id in exact_top_k(&exact.similarities, k) {
            total += 1;
            if cands.binary_search(&id).is_ok() {
                hits += 1;
            }
        }
        candidates += cands.len();
    }
    Ok(RecallReport {
        nprobe,
        k,
        n_queries: queries.len(),
        recall_at_k: hits as f64 / total.max(1) as f64,
        mean_candidates: candidates as f64 / queries.len() as f64,
        mean_candidate_fraction: candidates as f64 / (queries.len() * n.max(1)) as f64,
    })
}

/// Ranking agreement between two engine generations over one query set.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationAgreementReport {
    /// Ranking depth `k` compared.
    pub k: usize,
    /// Queries evaluated.
    pub n_queries: usize,
    /// Mean fraction of the reference (refit) top-k also present in the
    /// stale generation's top-k.
    pub agreement_at_k: f64,
    /// Worst per-query agreement — the staleness bound a deployment
    /// actually cares about.
    pub min_agreement: f64,
}

/// Measure top-`k` ranking agreement of a **stale** generation (one or
/// more frozen-embedding delta ingests, DESIGN.md §17) against the
/// **refit** generation over the same grown corpus. Both engines must
/// serve the same author set; authors are matched by index. Agreement
/// of 1.0 means delta staleness changed no top-k membership for this
/// query set; the gap to 1.0 is the price paid for skipping the refit.
///
/// # Errors
/// [`EvalError::Invalid`] when the engines disagree on author count or a
/// query fails to vectorize; [`EvalError::InsufficientData`] for an
/// empty query set or `k = 0`.
pub fn generation_agreement(
    stale: &QueryEngine<'_>,
    refit: &QueryEngine<'_>,
    queries: &[Vec<(Timestamp, String)>],
    k: usize,
) -> Result<GenerationAgreementReport, EvalError> {
    if queries.is_empty() {
        return Err(EvalError::InsufficientData("no queries".into()));
    }
    if k == 0 {
        return Err(EvalError::InsufficientData("k must be positive".into()));
    }
    if stale.n_authors() != refit.n_authors() {
        return Err(EvalError::Invalid(format!(
            "generation author sets differ: stale serves {}, refit serves {}",
            stale.n_authors(),
            refit.n_authors()
        )));
    }
    let k = k.min(stale.n_authors());
    let mut sum = 0.0f64;
    let mut min = 1.0f64;
    let stale_out = outcomes_under(stale, EngineMode::Exact, queries)?;
    let refit_out = outcomes_under(refit, EngineMode::Exact, queries)?;
    for (s, r) in stale_out.iter().zip(&refit_out) {
        let stale_top = exact_top_k(&s.similarities, k);
        let mut hits = 0usize;
        for id in exact_top_k(&r.similarities, k) {
            if stale_top.contains(&id) {
                hits += 1;
            }
        }
        let agreement = hits as f64 / k as f64;
        sum += agreement;
        min = min.min(agreement);
    }
    Ok(GenerationAgreementReport {
        k,
        n_queries: queries.len(),
        agreement_at_k: sum / queries.len() as f64,
        min_agreement: min,
    })
}

/// [`recall_at_k`] across a ladder of probe widths — the recall/speed
/// curve. Reports are index-aligned with `nprobes`.
///
/// # Errors
/// Same conditions as [`recall_at_k`].
pub fn recall_sweep(
    engine: &QueryEngine<'_>,
    queries: &[Vec<(Timestamp, String)>],
    k: usize,
    nprobes: &[usize],
) -> Result<Vec<RecallReport>, EvalError> {
    nprobes
        .iter()
        .map(|&nprobe| recall_at_k(engine, queries, k, nprobe))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_core::{IvfConfig, Pipeline, PipelineConfig};
    use soulmate_corpus::{generate, GeneratorConfig};

    fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
        let d = generate(&GeneratorConfig {
            n_authors: 24,
            n_communities: 4,
            n_concepts: 5,
            entities_per_concept: 8,
            mean_tweets_per_author: 25,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        (d, p)
    }

    fn queries_of(d: &soulmate_corpus::Dataset, authors: &[u32]) -> Vec<Vec<(Timestamp, String)>> {
        authors
            .iter()
            .map(|&a| {
                d.tweets
                    .iter()
                    .filter(|t| t.author == a)
                    .take(6)
                    .map(|t| (t.timestamp, t.text.clone()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn exhaustive_probe_has_perfect_recall() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine
            .build_index(&IvfConfig {
                n_centroids: 4,
                ..IvfConfig::default()
            })
            .unwrap();
        let queries = queries_of(&d, &[1, 7, 13]);
        let k_centroids = engine.index().unwrap().n_centroids();
        let report = recall_at_k(&engine, &queries, 10, k_centroids).unwrap();
        assert_eq!(report.recall_at_k, 1.0);
        assert_eq!(report.mean_candidate_fraction, 1.0);
        assert_eq!(report.n_queries, 3);
    }

    #[test]
    fn sweep_is_monotone_toward_exhaustive() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine
            .build_index(&IvfConfig {
                n_centroids: 6,
                keep_fraction: 1.0,
                ..IvfConfig::default()
            })
            .unwrap();
        let queries = queries_of(&d, &[0, 5, 11, 17, 23]);
        let reports = recall_sweep(&engine, &queries, 5, &[1, 3, 6]).unwrap();
        assert_eq!(reports.len(), 3);
        // Probing more centroids can only widen the candidate union.
        assert!(reports[0].mean_candidates <= reports[1].mean_candidates);
        assert!(reports[1].mean_candidates <= reports[2].mean_candidates);
        assert!(reports[0].recall_at_k <= reports[2].recall_at_k + 1e-12);
        assert_eq!(reports[2].recall_at_k, 1.0, "nprobe = n_centroids");
    }

    #[test]
    fn engine_without_index_is_an_invalid_input() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        let queries = queries_of(&d, &[2]);
        assert!(matches!(
            recall_at_k(&engine, &queries, 5, 1),
            Err(EvalError::Invalid(_))
        ));
        assert!(matches!(
            recall_at_k(&engine, &[], 5, 1),
            Err(EvalError::InsufficientData(_))
        ));
    }

    #[test]
    fn identical_generations_agree_perfectly() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        let queries = queries_of(&d, &[1, 7, 13]);
        let report = generation_agreement(&engine, &engine, &queries, 10).unwrap();
        assert_eq!(report.agreement_at_k, 1.0);
        assert_eq!(report.min_agreement, 1.0);
        assert_eq!(report.n_queries, 3);
        assert_eq!(report.k, 10);
    }

    #[test]
    fn stale_delta_generation_mostly_agrees_with_refit() {
        use soulmate_core::{EngineGeneration, IngestBatch, PipelineConfig};
        let (mut d, p) = fitted();
        let handles: Vec<String> = d.authors.iter().map(|a| a.handle.clone()).collect();
        let snap = p.snapshot(&handles);
        let batch = IngestBatch {
            handle: "late-arrival".to_string(),
            tweets: d
                .tweets
                .iter()
                .filter(|t| t.author == 3)
                .take(6)
                .map(|t| (t.timestamp, t.text.clone()))
                .collect(),
        };
        let gen0 = EngineGeneration::from_snapshot(snap, EngineMode::Exact).unwrap();
        let (stale, _) = gen0.ingest(std::slice::from_ref(&batch)).unwrap();
        // Grow the dataset the same way and refit from scratch.
        let author_id = d.authors.len() as u32;
        d.authors.push(soulmate_corpus::Author {
            id: author_id,
            handle: batch.handle.clone(),
        });
        for (ts, text) in &batch.tweets {
            let tweet_id = d.tweets.len() as u32;
            d.tweets.push(soulmate_corpus::Tweet {
                id: tweet_id,
                author: author_id,
                timestamp: *ts,
                text: text.clone(),
                popularity: 0,
            });
        }
        let refit = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        let refit_engine = refit.query_engine(EngineMode::Exact).unwrap();
        let queries = queries_of(&d, &[0, 5, 11, 17, 23]);
        let stale_engine = stale.engine();
        let report = generation_agreement(&stale_engine, &refit_engine, &queries, 5).unwrap();
        // One frozen-embedding insert barely perturbs a 25-author
        // ranking; a collapse below half would mean the delta path is
        // not tracking the refit at all.
        assert!(
            report.agreement_at_k >= 0.5,
            "agreement {}",
            report.agreement_at_k
        );
        assert!(report.min_agreement <= report.agreement_at_k);
    }

    #[test]
    fn generation_agreement_rejects_mismatched_author_sets() {
        use soulmate_core::{EngineGeneration, IngestBatch};
        let (d, p) = fitted();
        let handles: Vec<String> = d.authors.iter().map(|a| a.handle.clone()).collect();
        let snap = p.snapshot(&handles);
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        let gen0 = EngineGeneration::from_snapshot(snap, EngineMode::Exact).unwrap();
        let (grown, _) = gen0
            .ingest(&[IngestBatch {
                handle: "extra".to_string(),
                tweets: d
                    .tweets
                    .iter()
                    .filter(|t| t.author == 0)
                    .take(5)
                    .map(|t| (t.timestamp, t.text.clone()))
                    .collect(),
            }])
            .unwrap();
        let grown_engine = grown.engine();
        let queries = queries_of(&d, &[2]);
        assert!(matches!(
            generation_agreement(&grown_engine, &engine, &queries, 5),
            Err(EvalError::Invalid(_))
        ));
        assert!(matches!(
            generation_agreement(&engine, &engine, &[], 5),
            Err(EvalError::InsufficientData(_))
        ));
    }
}
