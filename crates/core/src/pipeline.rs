//! The offline phase, end to end (Fig 2, left side).
//!
//! [`Pipeline::fit`] runs these stages, each under a `stage.fit.<name>`
//! span: `encode` → `analogy_suite` → `tcbow` (per-slab CBOW) →
//! `collective` → `tweet_vectors` → `concepts` → `author_vectors` →
//! `similarity` (`X^Content`, `X^Concept`) → `fusion` (`X^Total-α`, Eq 17).
//! It keeps only what the model serves: the two per-view matrices are
//! dropped once fused, and the plain-CBOW comparator of the baselines is
//! trained on demand by [`Pipeline::plain_cbow`]. The fitted pipeline then
//! builds the authors' weighted graph and extracts subgraphs with SW-MST,
//! and serves the online phase (see [`crate::online`]).

use crate::authorvec::{author_concept_vectors, author_content_vectors, AuthorCombiner};
use crate::baselines::BaselineContext;
use crate::concepts::{discover_concepts, ConceptConfig, ConceptSpace};
use crate::error::CoreError;
use crate::similarity::{
    concept_similarity_matrix, fuse_similarities, offdiagonal_stats, similarity_matrix,
    standardize_offdiagonal,
};
use crate::tcbow::{TcbowConfig, TemporalEmbedding};
use crate::tweetvec::{tweet_vectors, Combiner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use soulmate_corpus::{build_analogy_suite, Dataset, EncodedCorpus};
use soulmate_embedding::{train_cbow, Embedding};
use soulmate_graph::{swmst, SpanningForest, WeightedGraph};
use soulmate_linalg::Matrix;
use soulmate_obs::span;
use soulmate_text::TokenizerConfig;

/// Offline-phase configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Tokenizer settings applied to raw tweets.
    pub tokenizer: TokenizerConfig,
    /// Vocabulary pruning threshold (word2vec-style min count).
    pub min_count: u64,
    /// TCBOW (per-slab embedding) settings.
    pub tcbow: TcbowConfig,
    /// Size of the analogy suite used to weight slabs.
    pub analogy_questions: usize,
    /// How word vectors combine into tweet vectors (Eq 13).
    pub tweet_combiner: Combiner,
    /// How tweet vectors aggregate into author content vectors (Eq 16 /
    /// Fig 7).
    pub author_combiner: AuthorCombiner,
    /// Concept discovery settings.
    pub concept: ConceptConfig,
    /// Concept impact ratio α of Eq 17 (paper optimum 0.6).
    pub alpha: f32,
    /// Graph sparsification, the graph's one rule: authors share an edge
    /// when their fused similarity is finite and at least this value
    /// (DESIGN.md §10). The fused score is the α-blend of two
    /// off-diagonal z-scores (Eq 17), so the default −1.0 is not "keep
    /// everything": on `fast()` fits of 120 and 400 synthetic authors it
    /// drops 11–13 % of author pairs (no author lost every edge). Use
    /// `f32::NEG_INFINITY` for the paper's fully connected graph.
    pub graph_min_sim: f32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            tokenizer: TokenizerConfig::default(),
            min_count: 3,
            tcbow: TcbowConfig::default(),
            analogy_questions: 2000,
            tweet_combiner: Combiner::Avg,
            author_combiner: AuthorCombiner::Avg,
            concept: ConceptConfig::default(),
            alpha: 0.6,
            graph_min_sim: -1.0,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests and examples (small embedding, one
    /// facet level, few epochs).
    pub fn fast() -> Self {
        use soulmate_embedding::CbowConfig;
        use soulmate_temporal::{Facet, HierarchyConfig};
        PipelineConfig {
            min_count: 3,
            tcbow: TcbowConfig {
                cbow: CbowConfig {
                    dim: 16,
                    window: 3,
                    epochs: 3,
                    lr: 0.05,
                    ..Default::default()
                },
                hierarchy: HierarchyConfig {
                    // 0.4 reproduces the weekday/weekend split on
                    // synthetic-corpus similarity scales (see Table 3).
                    facets: vec![Facet::DayOfWeek, Facet::Hour],
                    thresholds: vec![0.4, 0.3],
                },
                seed: 42,
                threads: 4,
            },
            analogy_questions: 200,
            concept: ConceptConfig {
                model: crate::concepts::ConceptModel::KMedoids { k: 8 },
                max_sample: 600,
                seed: 42,
            },
            ..Default::default()
        }
    }
}

/// A fitted SoulMate pipeline: every offline artifact of Fig 2.
#[derive(Debug)]
pub struct Pipeline {
    /// The configuration the pipeline was fitted with.
    pub config: PipelineConfig,
    /// The encoded corpus (vocabulary + interned tweets).
    pub corpus: EncodedCorpus,
    /// The multi-aspect temporal embedding (per-slab models).
    pub temporal: TemporalEmbedding,
    /// Collective word vectors `V^C` (Eq 12).
    pub collective: Embedding,
    /// Tweet vectors (Eq 13), row per tweet.
    pub tweet_vectors: Matrix,
    /// Owner of each tweet row.
    pub tweet_author: Vec<u32>,
    /// Discovered concept space.
    pub concepts: ConceptSpace,
    /// Author content vectors, row per author.
    pub author_content: Matrix,
    /// Author concept vectors, row per author.
    pub author_concept: Matrix,
    /// Population means of the concept profiles (centering offsets for
    /// online queries).
    pub concept_means: Vec<f32>,
    /// Off-diagonal (mean, std) of `X^Concept`, for online standardization.
    pub concept_stats: (f32, f32),
    /// Off-diagonal (mean, std) of `X^Content`, for online standardization.
    pub content_stats: (f32, f32),
    /// `X^Total-α` fused similarity matrix (Eq 17).
    pub x_total: Vec<Vec<f32>>,
}

impl Pipeline {
    /// Run the full offline phase on a dataset.
    ///
    /// # Errors
    /// Propagates failures from every stage ([`CoreError`]).
    pub fn fit(dataset: &Dataset, config: PipelineConfig) -> Result<Pipeline, CoreError> {
        let obs = soulmate_obs::global();
        let _fit = span!(obs, "fit");
        obs.incr("fit.runs", 1);

        let corpus = {
            let _t = span!(obs, "encode");
            dataset.encode(&config.tokenizer, config.min_count)
        };
        if corpus.vocab.is_empty() {
            return Err(CoreError::Invalid(
                "vocabulary is empty after pruning".into(),
            ));
        }
        obs.set_gauge("fit.vocab_size", corpus.vocab.len() as f64);
        obs.set_gauge("fit.n_authors", corpus.n_authors as f64);
        obs.set_gauge("fit.n_tweets", corpus.tweets.len() as f64);
        let questions = {
            let _t = span!(obs, "analogy_suite");
            build_analogy_suite(
                &dataset.ground_truth.lexicon,
                &corpus.vocab,
                config.analogy_questions,
                config.tcbow.seed,
            )
        };

        // Temporal embedding (one CBOW per slab) and its collective fusion.
        let temporal = {
            let _t = span!(obs, "tcbow");
            TemporalEmbedding::train(&corpus, &questions, &config.tcbow)?
        };
        let collective = {
            let _t = span!(obs, "collective");
            temporal.collective_embedding()
        };

        // Tweet vectors and concepts.
        let docs = corpus.documents();
        let tvecs = {
            let _t = span!(obs, "tweet_vectors");
            tweet_vectors(&docs, &collective, config.tweet_combiner)
        };
        let (concepts, tweet_concept_vectors) = {
            let _t = span!(obs, "concepts");
            let concepts = discover_concepts(&tvecs, &config.concept)?;
            let tcv = concepts.concept_vectors(&tvecs);
            (concepts, tcv)
        };

        // Author vectors.
        let _authors = span!(obs, "author_vectors");
        let tweet_author: Vec<u32> = corpus.tweets.iter().map(|t| t.author).collect();
        let author_content = author_content_vectors(
            &tvecs,
            &tweet_author,
            corpus.n_authors,
            config.author_combiner,
        );
        let author_concept =
            author_concept_vectors(&tweet_concept_vectors, &tweet_author, corpus.n_authors);
        drop(_authors);

        // Similarity matrices and fusion. Concept profiles are centered
        // against the author population before cosine (see
        // `concept_similarity_matrix`); the means are kept for online
        // queries.
        let _sim = span!(obs, "similarity");
        let x_content = similarity_matrix(&author_content);
        let (x_concept, concept_means) = concept_similarity_matrix(&author_concept);
        // Standardize both views onto a common scale before Eq 17: the
        // centered concept cosines and the compressed content cosines have
        // very different spreads, and α only blends meaningfully when
        // neither scale dominates. The stats are kept for online queries.
        let concept_stats = offdiagonal_stats(&x_concept);
        let content_stats = offdiagonal_stats(&x_content);
        drop(_sim);
        let x_total = {
            let _t = span!(obs, "fusion");
            fuse_similarities(
                &standardize_offdiagonal(&x_concept, concept_stats.0, concept_stats.1),
                &standardize_offdiagonal(&x_content, content_stats.0, content_stats.1),
                config.alpha,
            )?
        };

        Ok(Pipeline {
            config,
            corpus,
            temporal,
            collective,
            tweet_vectors: tvecs,
            tweet_author,
            concepts,
            author_content,
            author_concept,
            concept_means,
            concept_stats,
            content_stats,
            x_total,
        })
    }

    /// Number of authors.
    pub fn n_authors(&self) -> usize {
        self.corpus.n_authors
    }

    /// Build the authors' weighted graph from a similarity matrix under
    /// the configured sparsification.
    pub fn author_graph(&self, sim: &[Vec<f32>]) -> Result<WeightedGraph, CoreError> {
        Ok(WeightedGraph::from_similarity(
            sim,
            self.config.graph_min_sim,
        )?)
    }

    /// Extract the linked-author subgraphs (SW-MST over `X^Total-α`).
    pub fn subgraphs(&self) -> Result<SpanningForest, CoreError> {
        let g = self.author_graph(&self.x_total)?;
        Ok(swmst(&g))
    }

    /// Subgraphs under an arbitrary similarity matrix (used to evaluate
    /// each baseline with the identical graph cut, per Section 5.2.2).
    pub fn subgraphs_for(&self, sim: &[Vec<f32>]) -> Result<SpanningForest, CoreError> {
        let g = self.author_graph(sim)?;
        Ok(swmst(&g))
    }

    /// Plain (non-temporal) CBOW over the whole corpus: the comparator of
    /// the baselines and experiments, which no serving path reads. It has
    /// its own RNG stream, so every call returns the same vectors.
    ///
    /// # Errors
    /// Propagates CBOW training failures ([`CoreError`]).
    pub fn plain_cbow(&self) -> Result<Embedding, CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.tcbow.seed ^ 0x5eed);
        Ok(train_cbow(
            &self.corpus.documents(),
            self.corpus.vocab.len(),
            &self.config.tcbow.cbow,
            &mut rng,
        )?)
    }

    /// The context baselines need: the fitted author vectors and fusion
    /// stats, borrowed, plus a freshly trained [`Pipeline::plain_cbow`].
    ///
    /// # Errors
    /// Propagates CBOW training failures ([`CoreError`]).
    pub fn baseline_context(&self) -> Result<BaselineContext<'_>, CoreError> {
        Ok(BaselineContext {
            corpus: &self.corpus,
            collective: &self.collective,
            cbow: self.plain_cbow()?,
            author_content: &self.author_content,
            author_concept: &self.author_concept,
            concept_stats: self.concept_stats,
            content_stats: self.content_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_corpus::{generate, GeneratorConfig};

    fn small_dataset() -> Dataset {
        generate(&GeneratorConfig {
            n_authors: 24,
            n_communities: 4,
            n_concepts: 6,
            entities_per_concept: 10,
            mean_tweets_per_author: 30,
            ..GeneratorConfig::small()
        })
        .unwrap()
    }

    fn fitted() -> (Dataset, Pipeline) {
        let d = small_dataset();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        (d, p)
    }

    #[test]
    fn fit_produces_consistent_shapes() {
        let (d, p) = fitted();
        let n = d.n_authors();
        assert_eq!(p.n_authors(), n);
        assert_eq!(p.tweet_vectors.rows(), p.corpus.tweets.len());
        assert_eq!(p.author_concept.cols(), p.concepts.n_concepts());
        assert_eq!(p.author_content.rows(), n);
        assert_eq!(p.author_concept.rows(), n);
        assert_eq!(p.x_total.len(), n);
        assert!(p.x_total.iter().all(|r| r.len() == n));
    }

    #[test]
    fn same_community_authors_more_similar_in_x_total() {
        let (d, p) = fitted();
        let communities = &d.ground_truth.author_community;
        let n = d.n_authors();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if communities[i] == communities[j] {
                    same.push(p.x_total[i][j]);
                } else {
                    diff.push(p.x_total[i][j]);
                }
            }
        }
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            avg(&same) > avg(&diff),
            "community signal missing: same={} diff={}",
            avg(&same),
            avg(&diff)
        );
    }

    #[test]
    fn subgraphs_cover_all_authors() {
        let (_, p) = fitted();
        let forest = p.subgraphs().unwrap();
        let covered: usize = forest.components().iter().map(Vec::len).sum();
        assert_eq!(covered, p.n_authors());
    }

    #[test]
    fn subgraph_members_share_communities_more_than_random() {
        let (d, p) = fitted();
        let forest = p.subgraphs().unwrap();
        let communities = &d.ground_truth.author_community;
        // Purity of multi-member components vs the global baseline rate.
        let mut same_pairs = 0usize;
        let mut total_pairs = 0usize;
        for comp in forest.components() {
            for (i, &a) in comp.iter().enumerate() {
                for &b in &comp[i + 1..] {
                    total_pairs += 1;
                    if communities[a] == communities[b] {
                        same_pairs += 1;
                    }
                }
            }
        }
        if total_pairs == 0 {
            return; // degenerate all-singleton forest: nothing to assert
        }
        let purity = same_pairs as f32 / total_pairs as f32;
        // 4 communities → random pairing purity ≈ 0.25.
        assert!(
            purity > 0.3,
            "subgraph community purity {purity} not above chance"
        );
    }

    #[test]
    fn fit_fails_on_overpruned_vocab() {
        let d = small_dataset();
        let cfg = PipelineConfig {
            min_count: 1_000_000,
            ..PipelineConfig::fast()
        };
        assert!(Pipeline::fit(&d, cfg).is_err());
    }

    #[test]
    fn on_demand_comparator_is_deterministic_and_context_serves_every_method() {
        use crate::baselines::{author_similarity, Method};
        let (_, p) = fitted();
        let bits = |e: &Embedding| -> Vec<u32> {
            e.matrix().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&p.plain_cbow().unwrap()),
            bits(&p.plain_cbow().unwrap())
        );
        let ctx = p.baseline_context().unwrap();
        let n = p.n_authors();
        for method in [
            Method::SoulMateConcept,
            Method::SoulMateContent,
            Method::SoulMateJoint { alpha: 0.6 },
            Method::TemporalCollective { zeta: 3 },
            Method::CbowEnriched { zeta: 3 },
            Method::DocumentVector,
            Method::ExactMatching,
        ] {
            let sim = author_similarity(&ctx, method).unwrap();
            assert_eq!(sim.len(), n, "{}", method.name());
            assert!(sim.iter().all(|r| r.len() == n), "{}", method.name());
        }
    }
}
