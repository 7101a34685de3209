//! Benches for the online serving path: the legacy per-query
//! rebuild (`link_query`: clone `X^Total` into an `(n+1)²` matrix,
//! re-sparsify, re-sort, SW-MST) against the amortized [`QueryEngine`]
//! (pre-normalized author rows + cached forest backbone, per-query
//! kernel row + output-sensitive cut).
//!
//! Grid: n ∈ {256, 1024, 4096} authors — bracketing the paper's
//! 4 000-author regime — with d = 40 content dimensions and 8 concepts,
//! under the threshold `soulmate fit` uses. The engine build (the
//! one-time cost a legacy query used to pay every call) is timed
//! separately. Recorded numbers live in `BENCH_online.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soulmate_bench::timing::Group;
use soulmate_core::similarity::{
    column_means, concept_similarity_matrix, fuse_similarities, offdiagonal_stats,
    similarity_matrix, standardize_offdiagonal,
};
use soulmate_core::{link_query, CachedCut, Combiner, QueryEngine, QueryModel};
use soulmate_corpus::Timestamp;
use soulmate_embedding::Embedding;
use soulmate_linalg::Matrix;
use soulmate_text::{TokenizerConfig, Vocabulary};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 40;
const N_CONCEPTS: usize = 8;
const VOCAB: usize = 400;
const ALPHA: f32 = 0.6;
/// `PipelineConfig::default().graph_min_sim`.
const MIN_SIM: f32 = -1.0;

/// Owned serving-model state (what a fitted pipeline or loaded snapshot
/// holds), built synthetically so the n = 4096 grid point doesn't require
/// minutes of offline fitting.
struct ServingModel {
    vocab: Vocabulary,
    tokenizer: TokenizerConfig,
    collective: Embedding,
    centroids: Vec<Vec<f32>>,
    author_content: Matrix,
    author_concept: Matrix,
    concept_means: Vec<f32>,
    concept_stats: (f32, f32),
    content_stats: (f32, f32),
    x_total: Vec<Vec<f32>>,
}

impl ServingModel {
    fn model(&self) -> QueryModel<'_> {
        QueryModel {
            vocab: &self.vocab,
            tokenizer: &self.tokenizer,
            collective: &self.collective,
            centroids: &self.centroids,
            author_content: &self.author_content,
            author_concept: &self.author_concept,
            concept_means: &self.concept_means,
            concept_stats: self.concept_stats,
            content_stats: self.content_stats,
            alpha: ALPHA,
            tweet_combiner: Combiner::Avg,
            graph_min_sim: MIN_SIM,
        }
    }

    /// An engine over the model, its cut built from `x_total` the way
    /// `Pipeline::query_engine` builds it.
    fn engine(&self) -> QueryEngine<'_> {
        let cut = CachedCut::new(&self.x_total, MIN_SIM).unwrap();
        QueryEngine::new(self.model(), Arc::new(cut)).unwrap()
    }
}

/// Synthetic vocabulary words that survive the tokenizer (no stopwords,
/// no long character runs, ≥ 2 chars, not all digits).
fn vocab_word(i: usize) -> String {
    let a = (b'a' + (i / 26 % 26) as u8) as char;
    let b = (b'a' + (i % 26) as u8) as char;
    format!("zq{a}{b}")
}

fn build_model(n: usize, seed: u64) -> ServingModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vocab = Vocabulary::new();
    for i in 0..VOCAB {
        vocab.observe(&vocab_word(i));
    }
    let collective = Embedding::from_matrix(Matrix::random_uniform(VOCAB, DIM, 1.0, &mut rng));
    let centroid_m = Matrix::random_uniform(N_CONCEPTS, DIM, 1.0, &mut rng);
    let centroids: Vec<Vec<f32>> = (0..N_CONCEPTS)
        .map(|i| centroid_m.row(i).to_vec())
        .collect();
    let author_content = Matrix::random_uniform(n, DIM, 1.0, &mut rng);
    let author_concept = Matrix::random_uniform(n, N_CONCEPTS, 1.0, &mut rng);

    // The offline fusion pipeline, exactly as `Pipeline::fit` runs it.
    let content_sim = similarity_matrix(&author_content);
    let (concept_sim, _) = concept_similarity_matrix(&author_concept);
    let concept_means = column_means(&author_concept);
    let content_stats = offdiagonal_stats(&content_sim);
    let concept_stats = offdiagonal_stats(&concept_sim);
    let content_z = standardize_offdiagonal(&content_sim, content_stats.0, content_stats.1);
    let concept_z = standardize_offdiagonal(&concept_sim, concept_stats.0, concept_stats.1);
    let x_total = fuse_similarities(&concept_z, &content_z, ALPHA).expect("valid fusion");

    ServingModel {
        vocab,
        tokenizer: TokenizerConfig::default(),
        collective,
        centroids,
        author_content,
        author_concept,
        concept_means,
        concept_stats,
        content_stats,
        x_total,
    }
}

/// A query author: `tweets` tweets of 8 in-vocabulary words each.
fn build_query(rng: &mut StdRng, tweets: usize) -> Vec<(Timestamp, String)> {
    (0..tweets)
        .map(|i| {
            let words: Vec<String> = (0..8)
                .map(|_| vocab_word(rng.gen_range(0..VOCAB)))
                .collect();
            (Timestamp(i as u32), words.join(" "))
        })
        .collect()
}

fn bench_online() {
    let mut group = Group::new("online");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        let serving = build_model(n, 7 + n as u64);
        let model = serving.model();
        let mut rng = StdRng::seed_from_u64(99);
        let tweets = build_query(&mut rng, 5);
        let batch: Vec<Vec<(Timestamp, String)>> =
            (0..8).map(|_| build_query(&mut rng, 5)).collect();

        // The legacy path: full extend + rebuild + re-sort per query.
        group.bench(format!("legacy_link_query/{n}"), || {
            black_box(link_query(&model, &serving.x_total, &tweets).unwrap())
        });

        // One-time engine build (normalize rows, backbone, sort).
        group.bench(format!("engine_build/{n}"), || black_box(serving.engine()));

        // The amortized serve.
        let engine = serving.engine();
        let query = [tweets.clone()];
        group.bench(format!("engine_link_query/{n}"), || {
            black_box(engine.link_query_authors(&query).unwrap())
        });

        // Batched serve: 8 queries, two Gram calls, one engine.
        group.bench(format!("engine_batch8/{n}"), || {
            black_box(engine.link_query_authors(&batch).unwrap())
        });
    }
}

fn main() {
    bench_online();
}
