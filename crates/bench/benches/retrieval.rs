//! Benches for two-stage IVF candidate retrieval: the exact
//! per-query serve (`EngineMode::Exact`: score all n authors) against the
//! IVF serve (`EngineMode::Ivf`: probe the coarse index, truncated-dim
//! prefilter, exact-score the surviving candidates), over one build.
//!
//! Grid: n ∈ {1024, 4096, 16384} authors with d = 300 content dimensions
//! (word2vec scale, as the paper's embeddings) and 32 concepts. The exact
//! path is Θ(n·d) per query; the IVF path scans nprobe/k of the inverted
//! lists (defaulting to k/8) and keeps a quarter of what it scans, so its
//! per-query cost is sublinear in n at a fixed probe fraction and the gap
//! widens with n. The one-time index build is timed separately, over a
//! cut built once per grid point. Recorded numbers live in
//! `BENCH_retrieval.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soulmate_bench::timing::Group;
use soulmate_core::{CachedCut, Combiner, EngineMode, IvfConfig, QueryEngine, QueryModel};
use soulmate_corpus::Timestamp;
use soulmate_embedding::Embedding;
use soulmate_linalg::Matrix;
use soulmate_text::{TokenizerConfig, Vocabulary};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 300;
const N_CONCEPTS: usize = 32;
const VOCAB: usize = 400;
const ALPHA: f32 = 0.6;
const MIN_SIM: f32 = 2.5;
/// Similarity between paired authors in the synthetic `x_total`: above
/// `MIN_SIM`, so every pair is a graph edge, while fused query scores
/// (cosines z-scored with unit stats stay in [-2, 2]ish) stay below it.
const PAIR_SIM: f32 = 3.0;

/// Owned serving-model state, synthesized directly (no offline fit, no
/// O(n²·d) similarity matrices) so the n = 16384 grid point stays cheap
/// to set up: author vectors are community centers plus noise, and the
/// cut comes from an `x_total` that pairs each author with one strong
/// partner. The pairs give the cut a backbone of `n / 2` edges while
/// keeping it cheap enough that the measurement isolates the
/// candidate-scoring cost the two paths differ in.
struct ServingModel {
    vocab: Vocabulary,
    tokenizer: TokenizerConfig,
    collective: Embedding,
    centroids: Vec<Vec<f32>>,
    author_content: Matrix,
    author_concept: Matrix,
    concept_means: Vec<f32>,
    /// Built once from [`paired_x_total`], whose dense matrix is dropped
    /// right after, so no timed call rebuilds or holds it.
    cut: Arc<CachedCut>,
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
            concept_stats: (0.0, 1.0),
            content_stats: (0.0, 1.0),
            alpha: ALPHA,
            tweet_combiner: Combiner::Avg,
            graph_min_sim: MIN_SIM,
        }
    }

    /// An engine over the model and its shared cut.
    fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(self.model(), Arc::clone(&self.cut)).unwrap()
    }
}

/// Synthetic vocabulary words that survive the tokenizer (no stopwords,
/// no long character runs, ≥ 2 chars, not all digits).
fn vocab_word(i: usize) -> String {
    let a = (b'a' + (i / 26 % 26) as u8) as char;
    let b = (b'a' + (i % 26) as u8) as char;
    format!("zq{a}{b}")
}

/// Rows clustered around `sqrt(n)`-ish community centers so the coarse
/// k-medoids quantizer has real structure to find.
fn clustered_matrix(n: usize, dim: usize, communities: usize, rng: &mut StdRng) -> Matrix {
    let centers = Matrix::random_uniform(communities, dim, 1.0, rng);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let c = centers.row(i % communities);
        let row: Vec<f32> = c.iter().map(|&v| v + rng.gen_range(-0.3..0.3)).collect();
        rows.push(row);
    }
    Matrix::from_rows(&rows).expect("uniform row dims")
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
    let communities = (n as f32).sqrt() as usize;
    let author_content = clustered_matrix(n, DIM, communities.max(4), &mut rng);
    let author_concept = clustered_matrix(n, N_CONCEPTS, communities.max(4), &mut rng);
    let concept_means = vec![0.0; N_CONCEPTS];
    // The cut the way `Pipeline::query_engine` builds it, from the dense
    // matrix (about 1 GB at n = 16384), which is dropped here.
    let cut = Arc::new(CachedCut::new(&paired_x_total(n), MIN_SIM).unwrap());

    ServingModel {
        vocab,
        tokenizer: TokenizerConfig::default(),
        collective,
        centroids,
        author_content,
        author_concept,
        concept_means,
        cut,
    }
}

/// `x_total` with author `i` tied to partner `i ^ 1` at [`PAIR_SIM`] and
/// every other entry 0. The backbone is the `n / 2` pair edges, and no
/// fused query score clears `MIN_SIM`, so the query earns no edge: its
/// cut is the same O(n) pass on both serving paths (the pop loop runs to
/// exhaustion and the query's component is the query alone).
fn paired_x_total(n: usize) -> Vec<Vec<f32>> {
    let mut x: Vec<Vec<f32>> = vec![vec![0.0; n]; n];
    for (i, row) in x.iter_mut().enumerate() {
        if let Some(partner) = row.get_mut(i ^ 1) {
            *partner = PAIR_SIM;
        }
    }
    x
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

fn bench_retrieval() {
    let mut group = Group::new("retrieval");
    group.sample_size(10);
    for &n in &[1024usize, 4096, 16384] {
        let serving = build_model(n, 7 + n as u64);
        let mut rng = StdRng::seed_from_u64(99);
        let query = [build_query(&mut rng, 3)];

        // One-time coarse index build (k-medoids + truncated projection)
        // plus the engine's unit rows, over the prebuilt cut.
        group.bench(format!("ivf_build/{n}"), || {
            let mut engine = serving.engine();
            engine.build_index(&IvfConfig::default()).unwrap();
            black_box(engine.index().is_some())
        });

        let mut engine = serving.engine();
        engine.build_index(&IvfConfig::default()).unwrap();

        // The exact serve: every author scored, Θ(n·d) per query.
        group.bench(format!("exact_link_query/{n}"), || {
            black_box(engine.link_query_authors(&query).unwrap())
        });

        // The IVF serve at the index's default probe width (k/8 lists).
        let ivf = engine.with_mode(EngineMode::Ivf { nprobe: 0 });
        group.bench(format!("ivf_link_query/{n}"), || {
            black_box(ivf.link_query_authors(&query).unwrap())
        });

        // A narrow probe: the latency end of the recall/speed knob.
        let ivf_np2 = engine.with_mode(EngineMode::Ivf { nprobe: 2 });
        group.bench(format!("ivf_link_query_np2/{n}"), || {
            black_box(ivf_np2.link_query_authors(&query).unwrap())
        });
    }
}

fn main() {
    bench_retrieval();
}
