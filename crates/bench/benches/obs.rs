//! Benches for the observability layer: the cost of the
//! metric primitives themselves, and the end-to-end cost they add to the
//! instrumented serving path.
//!
//! The acceptance bar for `soulmate-obs` is *negligible overhead*. The
//! gate is computed, not compared across processes: a served
//! single-query `/link` makes a fixed, counted set of registry calls
//! ([`LINK_REGISTRY_CALLS`]: ten counter increments and three histogram
//! records), `link_registry_calls` replays exactly that set on the global
//! registry, and its time as a share of the instrumented
//! `engine_link_query` at n = 1024 must stay under 2 %.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soulmate_bench::timing::Group;
use soulmate_core::similarity::{
    column_means, concept_similarity_matrix, fuse_similarities, offdiagonal_stats,
    similarity_matrix, standardize_offdiagonal,
};
use soulmate_core::{CachedCut, Combiner, QueryEngine, QueryModel};
use soulmate_corpus::Timestamp;
use soulmate_embedding::Embedding;
use soulmate_linalg::Matrix;
use soulmate_obs::{span, MetricsRegistry};
use soulmate_text::{TokenizerConfig, Vocabulary};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 40;
const N_CONCEPTS: usize = 8;
const VOCAB: usize = 400;
const ALPHA: f32 = 0.6;
/// `PipelineConfig::default().graph_min_sim`, as in `benches/online.rs`.
const MIN_SIM: f32 = -1.0;

/// Owned serving-model state, synthetic (mirrors `benches/online.rs`).
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

/// Every registry call one served single-query `/link` makes on the
/// exact plan, in order, as `(name, is_histogram)`: the server's request
/// count and batch size, the two `ChunkedRows::dots` scoring calls
/// (content, then concept), the engine's per-query timer and count, the
/// cut's examined edges, then the status count and the request timer.
const LINK_REGISTRY_CALLS: [(&str, bool); 13] = [
    ("serve.requests", false),
    ("serve.batch.size", true),
    ("kernels.gram_rect.calls", false),
    ("kernels.gram_rect.rows", false),
    ("kernels.gram_rect.tiles", false),
    ("kernels.gram_rect.calls", false),
    ("kernels.gram_rect.rows", false),
    ("kernels.gram_rect.tiles", false),
    ("engine.edges_examined", false),
    ("engine.query.seconds", true),
    ("engine.queries", false),
    ("serve.responses.2xx", false),
    ("serve.request.seconds", true),
];

/// Cost of the registry primitives in isolation: what one counter bump,
/// one histogram sample and one timed span actually cost, and what one
/// served `/link`'s registry calls cost together.
fn bench_primitives() {
    let mut group = Group::new("obs_primitives");
    let reg = MetricsRegistry::new();

    group.bench("counter_incr", || reg.incr(black_box("bench.counter"), 1));
    let mut x = 0.0f64;
    group.bench("histogram_record", || {
        x += 1e-7;
        reg.record(black_box("bench.histogram"), x);
    });
    group.bench("stage_timer_span", || {
        let _t = span!(&reg, "bench_span");
        black_box(&_t);
    });
    let obs = soulmate_obs::global();
    group.bench("global_counter_incr", || {
        obs.incr(black_box("bench.global.counter"), 1)
    });
    group.bench("link_registry_calls", || {
        for (name, is_histogram) in black_box(LINK_REGISTRY_CALLS) {
            if is_histogram {
                obs.record(name, 1e-5);
            } else {
                obs.incr(name, 1);
            }
        }
    });
}

/// The instrumented serving path end to end: the denominator of the
/// registry-share gate.
fn bench_instrumented_engine() {
    let mut group = Group::new("obs_engine");
    group.sample_size(10);
    let n = 1024usize;
    let serving = build_model(n, 7 + n as u64);
    let mut rng = StdRng::seed_from_u64(99);
    let query = [build_query(&mut rng, 5)];
    let engine = serving.engine();
    group.bench(format!("engine_link_query/{n}"), || {
        black_box(engine.link_query_authors(&query).unwrap())
    });
}

fn main() {
    bench_primitives();
    bench_instrumented_engine();
}
