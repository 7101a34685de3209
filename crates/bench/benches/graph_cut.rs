//! Benches: SW-MST vs the literal Algorithm 1 vs classical
//! Kruskal across graph sizes (the DESIGN.md §5 ablation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soulmate_bench::timing::Group;
use soulmate_graph::swmst::swmst_literal;
use soulmate_graph::{kruskal_max_forest, swmst, WeightedGraph};

fn dense_graph(n: usize, seed: u64) -> WeightedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = WeightedGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j, rng.gen_range(0.0..1.0)).unwrap();
        }
    }
    g
}

fn graph_cut() {
    let mut group = Group::new("graph_cut");
    for &n in &[50usize, 150, 400] {
        let g = dense_graph(n, 7);
        group.bench(format!("swmst/{n}"), || swmst(&g));
        group.bench(format!("swmst_literal/{n}"), || swmst_literal(&g));
        group.bench(format!("kruskal/{n}"), || kruskal_max_forest(&g));
    }
}

fn graph_construction() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 300usize;
    let sim: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let mut group = Group::new("graph_construction");
    group.bench("full_similarity_graph", || {
        WeightedGraph::from_similarity(&sim, -1.0).unwrap()
    });
}

fn main() {
    graph_cut();
    graph_construction();
}
