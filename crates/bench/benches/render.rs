//! Bench for the `/link` response renderer: `render_outcomes` over one
//! outcome whose similarity row has n ∈ {512, 2048, 8192} entries, the
//! row sizes of the `link-512` and `link-2k` benchmark workloads and
//! one beyond.
//!
//! The row is seeded and shaped like a fused score row: standardized
//! similarities (Eq. 17 z-scores, mostly within ±3), next to a
//! 100-dimensional content vector, a 32-concept vector and a 20-node
//! subgraph. Each bench line is the time of one render (one response
//! body); dividing by the printed float count gives ns per float.
//! Recorded numbers live in `BENCH_render.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soulmate_bench::timing::Group;
use soulmate_core::QueryOutcome;
use std::hint::black_box;

const CONTENT_DIM: usize = 100;
const N_CONCEPTS: usize = 32;
const SUBGRAPH: usize = 20;

/// One outcome over `n` authors, drawn from `seed`.
fn outcome(n: usize, seed: u64) -> QueryOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    // A sum of four uniforms is close to normal: z-scores within ±3.
    let z = |rng: &mut StdRng| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>() * 0.87;
    QueryOutcome {
        query_index: n,
        subgraph: (0..SUBGRAPH).map(|_| rng.gen_range(0..n)).collect(),
        subgraph_avg_weight: z(&mut rng),
        content_vector: (0..CONTENT_DIM)
            .map(|_| rng.gen_range(-0.3f32..0.3))
            .collect(),
        concept_vector: (0..N_CONCEPTS)
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect(),
        similarities: (0..n).map(|_| z(&mut rng)).collect(),
    }
}

fn main() {
    let mut group = Group::new("render");
    for n in [512, 2048, 8192] {
        let outcomes = [outcome(n, 7)];
        let floats = 1 + n + CONTENT_DIM + N_CONCEPTS;
        let bytes = soulmate_serve::render_outcomes(&outcomes).len();
        println!("render/outcome_n{n} floats={floats} bytes={bytes}");
        group.bench(format!("outcome_n{n}"), || {
            soulmate_serve::render_outcomes(black_box(&outcomes))
        });
    }
}
