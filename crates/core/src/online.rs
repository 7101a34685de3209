//! The online phase (Section 4.2): query-author inclusion, subgraph
//! extraction, and the rebuild trigger.
//!
//! A query author — possibly cold-start with a handful of tweets — is
//! vectorized against the *precomputed* collective embedding and concept
//! centroids ("this step is not time-consuming as the language model is
//! already generated in the offline phase"), the similarity matrices gain
//! one row/column, and SW-MST over the extended graph yields the subgraph
//! `g̃_q` containing the query author.

use crate::error::CoreError;
use crate::pipeline::Pipeline;
use crate::tweetvec::{tweet_vector, Combiner};
use soulmate_corpus::Timestamp;
use soulmate_embedding::Embedding;
use soulmate_graph::{swmst, WeightedGraph};
use soulmate_linalg::{dot, euclidean, l2_norm, scale, sub_assign, RowSource};
use soulmate_text::{tokenize_with, TokenizerConfig, Vocabulary};

/// Result of linking a query author.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query author's node index in the extended graph (`n_authors`).
    pub query_index: usize,
    /// Nodes of the subgraph containing the query author (includes the
    /// query index itself).
    pub subgraph: Vec<usize>,
    /// Mean edge weight within the query subgraph.
    pub subgraph_avg_weight: f32,
    /// The query author's content vector.
    pub content_vector: Vec<f32>,
    /// The query author's concept vector.
    pub concept_vector: Vec<f32>,
    /// Fused similarity of the query author to every existing author.
    pub similarities: Vec<f32>,
}

/// Everything the online phase needs, borrowed from either a fitted
/// [`Pipeline`] or a persisted [`crate::snapshot::PipelineSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct QueryModel<'a> {
    /// Offline vocabulary.
    pub vocab: &'a Vocabulary,
    /// Tokenizer settings matching the offline encode.
    pub tokenizer: &'a TokenizerConfig,
    /// Collective word vectors `V^C`.
    pub collective: &'a Embedding,
    /// Concept centroids in tweet-vector space.
    pub centroids: &'a [Vec<f32>],
    /// Author content vectors (row per author): a fitted pipeline's
    /// `Matrix`, or a snapshot's `ChunkedRows` that ingest grows.
    pub author_content: &'a dyn RowSource,
    /// Author concept vectors (row per author).
    pub author_concept: &'a dyn RowSource,
    /// Population means of the concept profiles; both the query and the
    /// stored author profiles are centered by these before cosine.
    pub concept_means: &'a [f32],
    /// Off-diagonal (mean, std) of the offline `X^Concept` — query concept
    /// similarities are standardized by these before fusing.
    pub concept_stats: (f32, f32),
    /// Off-diagonal (mean, std) of the offline `X^Content`.
    pub content_stats: (f32, f32),
    /// Concept impact ratio α.
    pub alpha: f32,
    /// Word→tweet combiner (Eq 13).
    pub tweet_combiner: Combiner,
    /// Graph sparsification: minimum similarity.
    pub graph_min_sim: f32,
}

/// The query author's raw and similarity-ready vectors, shared between the
/// legacy [`link_query`] path and the amortized
/// [`crate::engine::QueryEngine`] so both compute the exact same
/// similarity row (bit for bit) from the same tweets.
#[derive(Debug, Clone)]
pub(crate) struct QueryVectors {
    /// Raw content vector (average tweet vector).
    pub content: Vec<f32>,
    /// Raw concept vector (average centroid-distance profile, Eq 15).
    pub concept: Vec<f32>,
    /// `content` scaled to unit L2 norm (all-zero when degenerate) — the
    /// query-side counterpart of the engine's unit author rows.
    pub content_unit: Vec<f32>,
    /// `concept` centered by the offline population means, then
    /// unit-scaled.
    pub concept_centered_unit: Vec<f32>,
}

impl QueryModel<'_> {
    /// Vectorize a query author's tweets against the model (Section
    /// 4.2.1): the raw content vector (mean tweet vector) and concept
    /// vector (mean centroid-distance profile) that every `/link`, every
    /// `/ingest` and every ingest delta computes before scoring.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when the tweet list is empty or no tweet
    /// yields any in-vocabulary token.
    pub fn vectorize(
        &self,
        tweets: &[(Timestamp, String)],
    ) -> Result<(Vec<f32>, Vec<f32>), CoreError> {
        vectorize_query(self, tweets).map(|q| (q.content, q.concept))
    }
}

/// Scale to unit L2 norm exactly like
/// [`soulmate_linalg::NormalizedRows::from_matrix`] does (zero/degenerate
/// rows stay untouched). The engine's unit author rows are built with it
/// too, so an author row and a query row with equal raw vectors are
/// bitwise equal.
pub(crate) fn unit_scaled(mut v: Vec<f32>) -> Vec<f32> {
    let n = l2_norm(&v);
    if n > 0.0 {
        scale(&mut v, 1.0 / n);
    }
    v
}

/// Tokenize, encode, and vectorize a query author's tweets against the
/// offline model (Section 4.2.1).
///
/// # Errors
/// [`CoreError::Invalid`] when the tweet list is empty or no tweet yields
/// any in-vocabulary token.
pub(crate) fn vectorize_query(
    model: &QueryModel<'_>,
    tweets: &[(Timestamp, String)],
) -> Result<QueryVectors, CoreError> {
    if tweets.is_empty() {
        return Err(CoreError::Invalid("query author has no tweets".into()));
    }
    // Encode with the *existing* vocabulary; OOV tokens drop out. Each
    // token is looked up as the tokenizer emits it, never owned.
    let docs: Vec<Vec<u32>> = tweets
        .iter()
        .map(|(_, text)| {
            let mut ids = Vec::new();
            tokenize_with(text, model.tokenizer, |token| {
                ids.extend(model.vocab.id(token));
            });
            ids
        })
        .collect();
    if docs.iter().all(Vec::is_empty) {
        return Err(CoreError::Invalid(
            "no in-vocabulary tokens in the query author's tweets".into(),
        ));
    }

    // Tweet vectors from the precomputed collective embedding
    // (Section 4.2.1), then content vector by averaging.
    let tvecs: Vec<Vec<f32>> = docs
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| tweet_vector(d, model.collective, model.tweet_combiner))
        .collect();
    let dim = model.collective.dim();
    let content = Combiner::Avg.combine(tvecs.iter().map(Vec::as_slice), dim);

    // Concept vector: average distance profile to the centroids (Eq 15).
    let concept_dim = model.centroids.len();
    let concept_rows: Vec<Vec<f32>> = tvecs
        .iter()
        .map(|tv| model.centroids.iter().map(|c| euclidean(tv, c)).collect())
        .collect();
    let concept = Combiner::Avg.combine(concept_rows.iter().map(Vec::as_slice), concept_dim);

    // Concept profiles are centered by the offline population means before
    // cosine (matching `concept_similarity_matrix`).
    let mut concept_centered = concept.clone();
    sub_assign(&mut concept_centered, model.concept_means);

    let content_unit = unit_scaled(content.clone());
    let concept_centered_unit = unit_scaled(concept_centered);
    Ok(QueryVectors {
        content,
        concept,
        content_unit,
        concept_centered_unit,
    })
}

/// Fuse per-author unit-row dot products into the query's similarity row
/// (Eq 17): clamp to the cosine range, z-score by the offline off-diagonal
/// stats, then α-blend. Both the legacy path and the engine feed their
/// dots through this one function so the outputs agree bit for bit.
pub(crate) fn fused_row_from_dots(
    model: &QueryModel<'_>,
    content_dots: &[f32],
    concept_dots: &[f32],
) -> Vec<f32> {
    content_dots
        .iter()
        .zip(concept_dots)
        .map(|(&ct, &cc)| {
            let s_content = (ct.clamp(-1.0, 1.0) - model.content_stats.0) / model.content_stats.1;
            let s_concept = (cc.clamp(-1.0, 1.0) - model.concept_stats.0) / model.concept_stats.1;
            model.alpha * s_concept + (1.0 - model.alpha) * s_content
        })
        .collect()
}

/// `dot(query, unit(row_a − center))` for every author row `a`: the
/// cosine against each author, each row centered (when `center` is given)
/// and unit-scaled in one reused scratch row.
fn unit_dots(query: &[f32], rows: &dyn RowSource, center: Option<&[f32]>) -> Vec<f32> {
    let mut row = Vec::with_capacity(rows.cols());
    (0..rows.rows())
        .map(|a| {
            row.clear();
            row.extend_from_slice(rows.row(a));
            if let Some(means) = center {
                sub_assign(&mut row, means);
            }
            // `unit_scaled` scales in place and hands the buffer back.
            row = unit_scaled(std::mem::take(&mut row));
            dot(query, &row)
        })
        .collect()
}

/// Include a query author against a [`QueryModel`] and its dense fused
/// similarity matrix `x_total` (`X^Total-α`, e.g. [`Pipeline::x_total`])
/// and extract their subgraph (Problems 2 & 3, online side).
///
/// This is the straightforward reference implementation — the bit-parity
/// oracle the engine is tested against, and the last reader of a dense
/// `X^Total` on the online side: it re-normalizes the author matrices,
/// clones the full `x_total`, and re-runs the graph cut from scratch on
/// every call. [`crate::engine::QueryEngine`] serves the same answers
/// with all of that amortized into its cached cut, which snapshots
/// persist instead of the matrix.
///
/// # Errors
/// [`CoreError::Invalid`] when no tweet yields any in-vocabulary token
/// (the author cannot be represented at all); [`CoreError::Graph`] when
/// `x_total` is not `n × n`.
pub fn link_query(
    model: &QueryModel<'_>,
    x_total: &[Vec<f32>],
    tweets: &[(Timestamp, String)],
) -> Result<QueryOutcome, CoreError> {
    let q = vectorize_query(model, tweets)?;

    // Similarity of the query author to every existing author: one
    // unit-row dot per matrix (the cosine), fused per Eq 17. Concept rows
    // are centered by the population means first.
    let n = model.author_content.rows();
    let content_dots = unit_dots(&q.content_unit, model.author_content, None);
    let concept_dots = unit_dots(
        &q.concept_centered_unit,
        model.author_concept,
        Some(model.concept_means),
    );
    let similarities = fused_row_from_dots(model, &content_dots, &concept_dots);
    let content_vector = q.content;
    let concept_vector = q.concept;

    // Extend X^Total with the query row/column and cut the graph.
    let mut extended: Vec<Vec<f32>> = x_total
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.push(similarities.get(i).copied().unwrap_or(f32::NAN));
            r
        })
        .collect();
    let mut qrow = similarities.clone();
    qrow.push(1.0);
    extended.push(qrow);

    let graph = WeightedGraph::from_similarity(&extended, model.graph_min_sim)?;
    let forest = swmst(&graph);
    let query_index = n;
    let subgraph = forest
        .query_subgraph(query_index)
        .ok_or(CoreError::Internal("query node exists in forest"))?;
    let subgraph_avg_weight = forest.component_avg_weight(&subgraph);

    Ok(QueryOutcome {
        query_index,
        subgraph,
        subgraph_avg_weight,
        content_vector,
        concept_vector,
        similarities,
    })
}

impl Pipeline {
    /// The [`QueryModel`] view over this fitted pipeline.
    pub fn query_model(&self) -> QueryModel<'_> {
        QueryModel {
            vocab: &self.corpus.vocab,
            tokenizer: &self.config.tokenizer,
            collective: &self.collective,
            centroids: &self.concepts.centroids,
            author_content: &self.author_content,
            author_concept: &self.author_concept,
            concept_means: &self.concept_means,
            concept_stats: self.concept_stats,
            content_stats: self.content_stats,
            alpha: self.config.alpha,
            tweet_combiner: self.config.tweet_combiner,
            graph_min_sim: self.config.graph_min_sim,
        }
    }
}

/// The offline-rebuild trigger (Section 4.2.1): "Trigger follows frequent
/// intervals to continuously rebuild the slabs and subsequently construct
/// the vector representations."
///
/// Counts arriving tweets and fires once `interval` have accumulated.
/// [`crate::ingest::RefitManager::absorb`] drives it on every ingested
/// batch, and a firing schedules a full background
/// [`crate::ingest::RefitManager::refit`] over the grown dataset whose
/// result is hot-swapped into serving through an
/// [`crate::ingest::EngineCell`] — the trigger interval is therefore the
/// frozen-embedding staleness bound of the delta-ingest path.
#[derive(Debug, Clone)]
pub struct Trigger {
    interval: usize,
    pending: usize,
    fired: usize,
}

impl Trigger {
    /// Fire after every `interval` new tweets (`interval == 0` never
    /// fires).
    pub fn new(interval: usize) -> Trigger {
        Trigger {
            interval,
            pending: 0,
            fired: 0,
        }
    }

    /// Record `n` newly arrived tweets; returns `true` when a rebuild is
    /// due.
    ///
    /// A batch can span several intervals: every completed interval counts
    /// as a firing, and the overshoot carries over as the new pending
    /// count (it is *not* discarded — a burst of `2·interval` tweets must
    /// not silently lose the second interval's worth of arrivals).
    pub fn notify(&mut self, n: usize) -> bool {
        if self.interval == 0 {
            return false;
        }
        self.pending += n;
        let fires = self.pending / self.interval;
        if fires == 0 {
            return false;
        }
        self.pending %= self.interval;
        self.fired += fires;
        true
    }

    /// Tweets accumulated since the last firing.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// How many rebuilds have been signalled.
    pub fn times_fired(&self) -> usize {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use soulmate_corpus::{generate, GeneratorConfig};

    fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
        let d = generate(&GeneratorConfig {
            n_authors: 20,
            n_communities: 4,
            n_concepts: 6,
            entities_per_concept: 10,
            mean_tweets_per_author: 30,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        (d, p)
    }

    #[test]
    fn query_author_joins_a_subgraph() {
        let (d, p) = fitted();
        // Borrow a few real tweets from author 0 as the "query author".
        let tweets: Vec<(Timestamp, String)> = d
            .tweets
            .iter()
            .filter(|t| t.author == 0)
            .take(8)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let out = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        assert_eq!(out.query_index, 20);
        assert!(out.subgraph.contains(&20));
        assert_eq!(out.similarities.len(), 20);
        assert!(out.similarities.iter().all(|s| s.is_finite()));
        assert_eq!(out.content_vector.len(), p.collective.dim());
        assert_eq!(out.concept_vector.len(), p.concepts.n_concepts());
    }

    #[test]
    fn query_clone_of_author_is_most_similar_to_it() {
        let (d, p) = fitted();
        // Feed author 3's full history: the query should resemble author 3
        // more than the average author.
        let tweets: Vec<(Timestamp, String)> = d
            .tweets
            .iter()
            .filter(|t| t.author == 3)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let out = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let s3 = out.similarities[3];
        let avg: f32 = out.similarities.iter().sum::<f32>() / out.similarities.len() as f32;
        assert!(s3 > avg, "self-similarity {s3} not above average {avg}");
    }

    #[test]
    fn cold_start_single_tweet_works() {
        let (d, p) = fitted();
        let tweet = d.tweets[0].clone();
        let out = link_query(
            &p.query_model(),
            &p.x_total,
            &[(tweet.timestamp, tweet.text)],
        )
        .unwrap();
        assert!(!out.subgraph.is_empty());
    }

    #[test]
    fn rejects_empty_and_oov_queries() {
        let (_, p) = fitted();
        assert!(link_query(&p.query_model(), &p.x_total, &[]).is_err());
        let gibberish = vec![(Timestamp(0), "qqqqxyzzzz wwwwqqq".to_string())];
        assert!(link_query(&p.query_model(), &p.x_total, &gibberish).is_err());
    }

    #[test]
    fn trigger_fires_on_interval() {
        let mut t = Trigger::new(10);
        assert!(!t.notify(4));
        assert_eq!(t.pending(), 4);
        assert!(!t.notify(5));
        assert!(t.notify(1));
        assert_eq!(t.pending(), 0);
        assert_eq!(t.times_fired(), 1);
        // A burst spanning several intervals fires once per interval and
        // carries the overshoot instead of discarding it.
        assert!(t.notify(25));
        assert_eq!(t.times_fired(), 3);
        assert_eq!(t.pending(), 5);
        assert!(t.notify(5));
        assert_eq!(t.times_fired(), 4);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn trigger_overshoot_carries_across_batches() {
        let mut t = Trigger::new(4);
        assert!(t.notify(7)); // 1 fire, 3 pending
        assert_eq!(t.times_fired(), 1);
        assert_eq!(t.pending(), 3);
        assert!(t.notify(1)); // the carried 3 + 1 completes the interval
        assert_eq!(t.times_fired(), 2);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn all_oov_author_does_not_panic_the_serving_path() {
        // Author 0's entire history tokenizes to nothing (URLs and
        // stopwords only), so their content row is all-zero. The zero-norm
        // cosine convention (0.0, never NaN) plus the total-order graph
        // sorts must carry that author through fit and link without a
        // panic.
        let d = generate(&GeneratorConfig {
            n_authors: 12,
            n_communities: 3,
            n_concepts: 4,
            entities_per_concept: 8,
            mean_tweets_per_author: 20,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let mut d = d;
        for t in d.tweets.iter_mut().filter(|t| t.author == 0) {
            t.text = "https://example.com/x the and of".to_string();
        }
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        let tweets: Vec<(Timestamp, String)> = d
            .tweets
            .iter()
            .filter(|t| t.author == 1)
            .take(6)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let out = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        assert!(out.similarities.iter().all(|s| s.is_finite()));
        assert!(!out.subgraph.is_empty());
    }

    #[test]
    fn zero_interval_never_fires() {
        let mut t = Trigger::new(0);
        assert!(!t.notify(1_000_000));
        assert_eq!(t.times_fired(), 0);
    }
}
