//! TCBOW — the multi-aspect temporal-textual embedding (Section 4.1.3).
//!
//! One CBOW model is trained per temporal slab (every slab of every level
//! of the facet hierarchy), scored with the word-analogy test, and the
//! per-slab models are fused two ways:
//!
//! * **pair similarity** (Eqs 6–9): the level attribute sums
//!   accuracy-weighted per-slab cosines within one facet; the depth
//!   attribute recurses into child facets; Eq 9 combines both over all
//!   facets. Rows of this function form the `|V| x |V|` matrix `B^TCBOW`.
//! * **collective vectors** (Eqs 10–12): the same level/depth weighting
//!   applied to the slab *vectors* themselves, producing the
//!   `|V| x d` collective embedding `V^C` — the paper's preferred
//!   lower-dimensional form (accuracy 0.861 vs 0.881 at a fraction of the
//!   dimensionality, Section 5.2.2).
//!
//! Slab models are independent, so training fans out across threads.

use crate::error::CoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soulmate_corpus::{AnalogyQuestion, EncodedCorpus};
use soulmate_embedding::{evaluate_analogy, train_cbow, CbowConfig, Embedding};
use soulmate_linalg::{axpy, cosine, Matrix};
use soulmate_temporal::{HierarchyConfig, SlabIndex};
use soulmate_text::WordId;

/// TCBOW configuration.
#[derive(Debug, Clone)]
pub struct TcbowConfig {
    /// Per-slab CBOW hyper-parameters.
    pub cbow: CbowConfig,
    /// The temporal facet hierarchy and HAC thresholds.
    pub hierarchy: HierarchyConfig,
    /// Base seed; each slab trains with a seed derived from
    /// `(seed, level, slab)` so results are reproducible and
    /// order-independent.
    pub seed: u64,
    /// Train slab models on this many threads (1 = sequential).
    pub threads: usize,
}

impl Default for TcbowConfig {
    fn default() -> Self {
        TcbowConfig {
            cbow: CbowConfig::default(),
            hierarchy: HierarchyConfig::day_hour(),
            seed: 42,
            threads: 4,
        }
    }
}

/// One trained per-slab model.
#[derive(Debug)]
pub struct SlabModel {
    /// Hierarchy level of the slab.
    pub level: usize,
    /// Slab id within the level.
    pub slab: usize,
    /// The slab's CBOW embedding over the global vocabulary.
    pub embedding: Embedding,
    /// Raw analogy accuracy `A` of the slab model.
    pub accuracy: f32,
    /// Accuracy normalized within the level (`Ã`, summing to 1 per level).
    pub norm_accuracy: f32,
}

/// The fitted multi-aspect temporal embedding.
#[derive(Debug)]
pub struct TemporalEmbedding {
    slab_index: SlabIndex,
    /// Models grouped by level: `models[level][slab]`.
    models: Vec<Vec<SlabModel>>,
    dim: usize,
    vocab_size: usize,
}

impl TemporalEmbedding {
    /// Train one CBOW per slab of the hierarchy and score it on
    /// `questions`.
    ///
    /// # Errors
    /// Propagates temporal construction and CBOW training failures; a slab
    /// whose tweet subset is too small to train falls back to a zero
    /// accuracy model rather than failing the whole fit.
    pub fn train(
        corpus: &EncodedCorpus,
        questions: &[AnalogyQuestion],
        config: &TcbowConfig,
    ) -> Result<Self, CoreError> {
        let slab_index = SlabIndex::build(corpus, &config.hierarchy)?;
        let vocab_size = corpus.vocab.len();
        if vocab_size == 0 {
            return Err(CoreError::Invalid("empty vocabulary".into()));
        }
        let qtuples: Vec<(WordId, WordId, WordId, WordId)> = questions
            .iter()
            .map(|q| (q.a, q.b, q.c, q.expected))
            .collect();

        // Collect training jobs: (level, slab, docs).
        let mut jobs: Vec<(usize, usize, Vec<&[WordId]>)> = Vec::new();
        for level in 0..slab_index.n_levels() {
            for slab in 0..slab_index.level(level).len() {
                let docs: Vec<&[WordId]> = corpus
                    .tweets
                    .iter()
                    .filter(|t| slab_index.slab_of(level, t.timestamp) == Some(slab))
                    .map(|t| t.words.as_slice())
                    .collect();
                jobs.push((level, slab, docs));
            }
        }

        // Train slabs in parallel; each job owns a derived RNG. Worker
        // threads don't inherit the caller's stage-timer stack, so
        // per-slab wall times are recorded under fixed histogram names
        // (one sample per slab, plus a per-level breakdown).
        let obs = soulmate_obs::global();
        obs.set_gauge("tcbow.n_slabs", jobs.len() as f64);
        obs.set_gauge("tcbow.n_levels", slab_index.n_levels() as f64);
        let threads = config.threads.max(1).min(jobs.len().max(1));
        let results: Result<Vec<(usize, usize, Embedding, f32)>, CoreError> =
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for chunk in jobs.chunks(jobs.len().div_ceil(threads)) {
                    let cbow = config.cbow.clone();
                    let qtuples = &qtuples;
                    let seed = config.seed;
                    handles.push(scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|(level, slab, docs)| {
                                let start = std::time::Instant::now();
                                let mut rng = StdRng::seed_from_u64(
                                    seed ^ ((*level as u64) << 32) ^ (*slab as u64),
                                );
                                let embedding = match train_cbow(docs, vocab_size, &cbow, &mut rng)
                                {
                                    Ok(e) => e,
                                    // A slab with too little text gets a blank
                                    // model; its zero accuracy weight silences
                                    // it in the fusion.
                                    Err(_) => {
                                        Embedding::from_matrix(Matrix::zeros(vocab_size, cbow.dim))
                                    }
                                };
                                let accuracy = evaluate_analogy(&embedding, qtuples);
                                let secs = start.elapsed().as_secs_f64();
                                obs.record("tcbow.slab_train.seconds", secs);
                                obs.record(&format!("tcbow.level{level}.slab_train.seconds"), secs);
                                obs.incr("tcbow.slabs_trained", 1);
                                (*level, *slab, embedding, accuracy)
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                let mut results = Vec::new();
                for h in handles {
                    // A panicking trainer thread (a bug, not bad input)
                    // surfaces as a typed error instead of poisoning the
                    // caller with a propagated panic.
                    match h.join() {
                        Ok(chunk_results) => results.extend(chunk_results),
                        Err(_) => return Err(CoreError::Internal("slab trainer thread panicked")),
                    }
                }
                Ok(results)
            });
        let results = results?;

        // Group by level, moving each slab's embedding (no copy), and
        // normalize accuracies within each level.
        let mut models: Vec<Vec<SlabModel>> =
            (0..slab_index.n_levels()).map(|_| Vec::new()).collect();
        for (level, slab, embedding, accuracy) in results {
            models
                .get_mut(level)
                .ok_or(CoreError::Internal("slab level within the slab index"))?
                .push(SlabModel {
                    level,
                    slab,
                    embedding,
                    accuracy,
                    norm_accuracy: 0.0,
                });
        }
        for level_models in &mut models {
            level_models.sort_by_key(|m| m.slab);
            let total: f32 = level_models.iter().map(|m| m.accuracy).sum();
            let n = level_models.len().max(1) as f32;
            for m in level_models.iter_mut() {
                m.norm_accuracy = if total > 0.0 {
                    m.accuracy / total
                } else {
                    1.0 / n
                };
            }
        }

        Ok(TemporalEmbedding {
            slab_index,
            models,
            dim: config.cbow.dim,
            vocab_size,
        })
    }

    /// The slab hierarchy the models were trained on.
    pub fn slab_index(&self) -> &SlabIndex {
        &self.slab_index
    }

    /// Models of one level, ordered by slab id (empty for an out-of-range
    /// level).
    pub fn level_models(&self, level: usize) -> &[SlabModel] {
        self.models.get(level).map_or(&[], Vec::as_slice)
    }

    /// Number of hierarchy levels.
    pub fn n_levels(&self) -> usize {
        self.models.len()
    }

    /// Hidden-layer dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size `|V|`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Level similarity (Eq 6): accuracy-weighted sum of per-slab cosines
    /// of the word pair within one facet level.
    pub fn level_similarity(&self, level: usize, i: WordId, j: WordId) -> f32 {
        self.models
            .get(level)
            .into_iter()
            .flatten()
            .map(|m| m.norm_accuracy * m.embedding.cosine(i, j))
            .sum()
    }

    /// Depth similarity (Eq 8): the level sum at `level` plus the depth of
    /// its child level, recursively to the leaves.
    pub fn depth_similarity(&self, level: usize, i: WordId, j: WordId) -> f32 {
        let own = self.level_similarity(level, i, j);
        if level + 1 < self.models.len() {
            own + self.depth_similarity(level + 1, i, j)
        } else {
            own
        }
    }

    /// Combined pair similarity (Eq 9): `Σ_l level(l) + depth(l)`.
    ///
    /// Note the paper's formulation intentionally re-counts deeper levels
    /// (depth(l) already contains every level below `l`), weighting leaf
    /// facets more heavily.
    pub fn pair_similarity(&self, i: WordId, j: WordId) -> f32 {
        (0..self.models.len())
            .map(|l| self.level_similarity(l, i, j) + self.depth_similarity(l, i, j))
            .sum()
    }

    /// One row of the `B^TCBOW` matrix: combined similarity of `i` to every
    /// vocabulary word.
    pub fn tcbow_row(&self, i: WordId) -> Vec<f32> {
        (0..self.vocab_size as WordId)
            .map(|j| self.pair_similarity(i, j))
            .collect()
    }

    /// Collective level vector (Eq 10): accuracy-weighted sum of the
    /// word's slab vectors within one level.
    pub fn collective_level_vector(&self, level: usize, i: WordId) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        for m in self.models.get(level).into_iter().flatten() {
            axpy(m.norm_accuracy, m.embedding.vector(i), &mut v);
        }
        v
    }

    /// Collective depth vector (Eq 11): level vector plus the child's depth
    /// vector, recursively.
    pub fn collective_depth_vector(&self, level: usize, i: WordId) -> Vec<f32> {
        let mut v = self.collective_level_vector(level, i);
        if level + 1 < self.models.len() {
            let child = self.collective_depth_vector(level + 1, i);
            axpy(1.0, &child, &mut v);
        }
        v
    }

    /// The collective word vector `v_i^C` (Eq 12).
    pub fn collective_vector(&self, i: WordId) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        for l in 0..self.models.len() {
            let lv = self.collective_level_vector(l, i);
            axpy(1.0, &lv, &mut v);
            let dv = self.collective_depth_vector(l, i);
            axpy(1.0, &dv, &mut v);
        }
        v
    }

    /// The full collective embedding `V^C` (`|V| x d`).
    pub fn collective_embedding(&self) -> Embedding {
        let mut m = Matrix::zeros(self.vocab_size, self.dim);
        for i in 0..self.vocab_size {
            let v = self.collective_vector(i as WordId);
            m.row_mut(i).copy_from_slice(&v);
        }
        Embedding::from_matrix(m)
    }

    /// The full `B^TCBOW` embedding (`|V| x |V|` similarity rows). The
    /// paper notes this is more accurate but prohibitively wide; exposed
    /// for the ablation experiment. Cost is O(|V|² · slabs · d).
    pub fn tcbow_embedding(&self) -> Embedding {
        let mut m = Matrix::zeros(self.vocab_size, self.vocab_size);
        for i in 0..self.vocab_size {
            let row = self.tcbow_row(i as WordId);
            m.row_mut(i).copy_from_slice(&row);
        }
        Embedding::from_matrix(m)
    }

    /// Ablation: collective embedding using only the *level* attribute
    /// (Eq 10 summed over facets, no depth recursion) — isolates how much
    /// the hierarchy-aware depth weighting contributes.
    pub fn collective_embedding_level_only(&self) -> Embedding {
        let mut m = Matrix::zeros(self.vocab_size, self.dim);
        for i in 0..self.vocab_size {
            let mut v = vec![0.0f32; self.dim];
            for l in 0..self.models.len() {
                let lv = self.collective_level_vector(l, i as WordId);
                axpy(1.0, &lv, &mut v);
            }
            m.row_mut(i).copy_from_slice(&v);
        }
        Embedding::from_matrix(m)
    }

    /// Ablation: a copy of this temporal embedding with *uniform* slab
    /// weights (Ã = 1/n per level) instead of analogy-accuracy weights —
    /// isolates the contribution of accuracy weighting in Eqs 6–12.
    pub fn with_uniform_weights(&self) -> TemporalEmbedding {
        let models = self
            .models
            .iter()
            .map(|level_models| {
                let n = level_models.len().max(1) as f32;
                level_models
                    .iter()
                    .map(|m| SlabModel {
                        level: m.level,
                        slab: m.slab,
                        embedding: m.embedding.clone(),
                        accuracy: m.accuracy,
                        norm_accuracy: 1.0 / n,
                    })
                    .collect()
            })
            .collect();
        TemporalEmbedding {
            slab_index: self.slab_index.clone(),
            models,
            dim: self.dim,
            vocab_size: self.vocab_size,
        }
    }

    /// Consistency check used by tests and ablations: Eq 9 computed from
    /// the definition matches the sum of the exposed attributes.
    pub fn pair_similarity_reference(&self, i: WordId, j: WordId) -> f32 {
        let mut total = 0.0;
        for (l, level_models) in self.models.iter().enumerate() {
            for m in level_models {
                // level term once per facet...
                total += m.norm_accuracy * m.embedding.cosine(i, j);
            }
            // ...plus depth: every level from l downward.
            for deeper in self.models.iter().skip(l) {
                for m in deeper {
                    total += m.norm_accuracy * m.embedding.cosine(i, j);
                }
            }
        }
        total
    }
}

/// Cosine similarity between two collective vectors — convenience for
/// callers mixing word-level and composed vectors.
pub fn collective_cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_corpus::{build_analogy_suite, generate, GeneratorConfig};
    use soulmate_temporal::Facet;
    use soulmate_text::TokenizerConfig;

    fn fit() -> (soulmate_corpus::Dataset, EncodedCorpus, TemporalEmbedding) {
        let d = generate(&GeneratorConfig {
            n_authors: 30,
            n_communities: 3,
            n_concepts: 6,
            entities_per_concept: 10,
            mean_tweets_per_author: 40,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let enc = d.encode(&TokenizerConfig::default(), 3);
        let questions = build_analogy_suite(&d.ground_truth.lexicon, &enc.vocab, 150, 3);
        let config = TcbowConfig {
            cbow: CbowConfig {
                dim: 16,
                window: 3,
                epochs: 3,
                lr: 0.05,
                ..Default::default()
            },
            hierarchy: HierarchyConfig {
                facets: vec![Facet::DayOfWeek, Facet::Hour],
                thresholds: vec![0.59, 0.3],
            },
            seed: 7,
            threads: 4,
        };
        let te = TemporalEmbedding::train(&enc, &questions, &config).unwrap();
        (d, enc, te)
    }

    #[test]
    fn trains_one_model_per_slab() {
        let (_, _, te) = fit();
        assert_eq!(te.n_levels(), 2);
        for level in 0..2 {
            assert_eq!(
                te.level_models(level).len(),
                te.slab_index().level(level).len()
            );
            // Normalized accuracies sum to 1 within each level.
            let total: f32 = te.level_models(level).iter().map(|m| m.norm_accuracy).sum();
            assert!((total - 1.0).abs() < 1e-4, "level {level} sums to {total}");
        }
    }

    #[test]
    fn pair_similarity_matches_reference_expansion() {
        let (_, enc, te) = fit();
        let n = enc.vocab.len() as u32;
        for (i, j) in [(0u32, 1u32), (2, 5), (1, n - 1)] {
            let fast = te.pair_similarity(i, j);
            let slow = te.pair_similarity_reference(i, j);
            assert!(
                (fast - slow).abs() < 1e-4,
                "mismatch at ({i},{j}): {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn pair_similarity_is_symmetric_and_self_maximal() {
        let (_, _, te) = fit();
        let s01 = te.pair_similarity(0, 1);
        let s10 = te.pair_similarity(1, 0);
        assert!((s01 - s10).abs() < 1e-4);
        // Self-similarity: every cosine term is 1, so it equals the sum of
        // all (level + depth) weights — the maximum attainable.
        let s00 = te.pair_similarity(0, 0);
        assert!(s00 >= s01 - 1e-4);
    }

    #[test]
    fn collective_vectors_have_embedding_dim() {
        let (_, enc, te) = fit();
        let v = te.collective_vector(0);
        assert_eq!(v.len(), 16);
        let emb = te.collective_embedding();
        assert_eq!(emb.len(), enc.vocab.len());
        assert_eq!(emb.dim(), 16);
        assert!(emb.matrix().as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn collective_embedding_groups_concept_words() {
        let (d, enc, te) = fit();
        let emb = te.collective_embedding();
        let lex = &d.ground_truth.lexicon;
        let ids: Vec<u32> = lex.concepts[0]
            .base_forms
            .iter()
            .filter_map(|w| enc.vocab.id(w))
            .take(5)
            .collect();
        let oids: Vec<u32> = lex.concepts[3]
            .base_forms
            .iter()
            .filter_map(|w| enc.vocab.id(w))
            .take(5)
            .collect();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                intra.push(emb.cosine(a, b));
            }
            for &b in &oids {
                inter.push(emb.cosine(a, b));
            }
        }
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            avg(&intra) > avg(&inter),
            "collective vectors lost concept structure: intra={} inter={}",
            avg(&intra),
            avg(&inter)
        );
    }

    #[test]
    fn training_is_deterministic_and_thread_count_invariant() {
        let d = generate(&GeneratorConfig {
            n_authors: 15,
            n_communities: 3,
            n_concepts: 4,
            entities_per_concept: 8,
            mean_tweets_per_author: 20,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let enc = d.encode(&TokenizerConfig::default(), 3);
        let questions = build_analogy_suite(&d.ground_truth.lexicon, &enc.vocab, 50, 3);
        let base = TcbowConfig {
            cbow: CbowConfig {
                dim: 8,
                epochs: 2,
                ..Default::default()
            },
            hierarchy: HierarchyConfig::single(Facet::Season, 0.5),
            seed: 3,
            threads: 1,
        };
        let a = TemporalEmbedding::train(&enc, &questions, &base).unwrap();
        let b = TemporalEmbedding::train(&enc, &questions, &TcbowConfig { threads: 4, ..base })
            .unwrap();
        assert_eq!(a.collective_vector(0), b.collective_vector(0));
        assert_eq!(a.level_models(0)[0].accuracy, b.level_models(0)[0].accuracy);
    }

    #[test]
    fn degenerate_time_distribution_still_fits() {
        // Every tweet at Monday 09:00: six day splits and twenty-three
        // hour splits are empty. Empty slabs fall back to blank models
        // with zero accuracy, and the fit must still succeed.
        let mut d = generate(&GeneratorConfig {
            n_authors: 10,
            n_communities: 2,
            n_concepts: 4,
            entities_per_concept: 8,
            mean_tweets_per_author: 20,
            ..GeneratorConfig::small()
        })
        .unwrap();
        for t in &mut d.tweets {
            t.timestamp = soulmate_corpus::Timestamp::from_parts(0, 9, 0);
        }
        let enc = d.encode(&TokenizerConfig::default(), 2);
        let questions = build_analogy_suite(&d.ground_truth.lexicon, &enc.vocab, 50, 1);
        let config = TcbowConfig {
            cbow: CbowConfig {
                dim: 8,
                epochs: 1,
                ..Default::default()
            },
            hierarchy: HierarchyConfig {
                facets: vec![Facet::DayOfWeek, Facet::Hour],
                thresholds: vec![0.5, 0.5],
            },
            seed: 1,
            threads: 2,
        };
        let te = TemporalEmbedding::train(&enc, &questions, &config).unwrap();
        let emb = te.collective_embedding();
        assert!(emb.matrix().as_slice().iter().all(|v| v.is_finite()));
        // At least one slab (the active one) trains.
        let trained = te
            .level_models(0)
            .iter()
            .any(|m| m.accuracy > 0.0 || m.embedding.matrix().as_slice().iter().any(|v| *v != 0.0));
        assert!(trained, "no slab actually trained");
    }

    #[test]
    fn uniform_weight_ablation_changes_fusion() {
        let (_, _, te) = fit();
        let uniform = te.with_uniform_weights();
        for level in 0..uniform.n_levels() {
            let n = uniform.level_models(level).len() as f32;
            for m in uniform.level_models(level) {
                assert!((m.norm_accuracy - 1.0 / n).abs() < 1e-6);
            }
        }
        // If the real accuracies are not uniform, the collective vectors
        // must differ somewhere.
        let skewed = te
            .level_models(0)
            .iter()
            .any(|m| (m.norm_accuracy - 1.0 / te.level_models(0).len() as f32).abs() > 1e-3);
        if skewed {
            let a = te.collective_vector(1);
            let b = uniform.collective_vector(1);
            assert_ne!(a, b, "uniform ablation should change vectors");
        }
    }

    #[test]
    fn level_only_embedding_differs_from_full() {
        let (_, enc, te) = fit();
        let full = te.collective_embedding();
        let level_only = te.collective_embedding_level_only();
        assert_eq!(level_only.len(), enc.vocab.len());
        // Depth adds the child levels again, so the vectors must differ
        // (in norm at minimum) for a two-level hierarchy.
        assert_ne!(full.matrix().as_slice(), level_only.matrix().as_slice());
    }

    #[test]
    fn three_level_hierarchy_recursion_works() {
        // Season ▸ day ▸ hour: the depth recursion (Eqs 8/11) must walk
        // more than two levels, and Eq 9's re-weighting gives deeper
        // facets strictly more weight (level l is counted l+2 times).
        let d = generate(&GeneratorConfig {
            n_authors: 16,
            n_communities: 4,
            n_concepts: 4,
            entities_per_concept: 8,
            mean_tweets_per_author: 25,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let enc = d.encode(&TokenizerConfig::default(), 3);
        let questions = build_analogy_suite(&d.ground_truth.lexicon, &enc.vocab, 50, 2);
        let config = TcbowConfig {
            cbow: CbowConfig {
                dim: 8,
                epochs: 1,
                ..Default::default()
            },
            hierarchy: HierarchyConfig {
                facets: vec![Facet::Season, Facet::DayOfWeek, Facet::Hour],
                thresholds: vec![0.5, 0.4, 0.2],
            },
            seed: 9,
            threads: 4,
        };
        let te = TemporalEmbedding::train(&enc, &questions, &config).unwrap();
        assert_eq!(te.n_levels(), 3);
        // Reference expansion must still match the recursive computation.
        for (i, j) in [(0u32, 1u32), (3, 7)] {
            let fast = te.pair_similarity(i, j);
            let slow = te.pair_similarity_reference(i, j);
            assert!((fast - slow).abs() < 1e-4, "{fast} vs {slow}");
        }
        // Eq 9 weighting: self-similarity equals sum over levels of
        // (level index weights): level 0 → 2x, level 1 → 3x, level 2 → 4x
        // of each level's total normalized weight (1.0 per level).
        let s00 = te.pair_similarity(0, 0);
        // Per-level normalized weights sum to 1, cosines to self are 1
        // except blank (zero-norm) slabs where cosine = 0; so the bound is
        // <= 2 + 3 + 4 = 9 with equality when no slab is blank.
        assert!(
            s00 <= 9.0 + 1e-3,
            "self-similarity {s00} exceeds Eq 9 bound"
        );
        assert!(s00 > 0.0);
        let emb = te.collective_embedding();
        assert!(emb.matrix().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_vocab_rejected() {
        let d = generate(&GeneratorConfig {
            n_authors: 5,
            n_communities: 1,
            mean_tweets_per_author: 4,
            ..GeneratorConfig::small()
        })
        .unwrap();
        // min_count so high everything is pruned.
        let enc = d.encode(&TokenizerConfig::default(), 1_000_000);
        let r = TemporalEmbedding::train(&enc, &[], &TcbowConfig::default());
        assert!(r.is_err());
    }
}
