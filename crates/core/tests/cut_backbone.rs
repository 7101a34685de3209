//! Parity of the cached cut's backbone with the full sparsified graph.
//!
//! `CachedCut` keeps only the base graph's maximum spanning forest plus
//! its sub-threshold top-k lifelines. These tests pin that choice down
//! against the definitions it replaces, over a seeded grid with heavy
//! ties (quarter-step weights), NaN / ±inf and −0.0 entries:
//!
//! * the stored edges are exactly `kruskal_max_forest(from_similarity(x))`
//!   ∪ the edges that fail the threshold, in SW-MST pop order;
//! * every dense and sparse query cut equals extend-and-rebuild, the
//!   sparse one with its candidates ascending and reversed;
//! * a chain of `insert_author` calls stays equal to `CachedCut::new`
//!   over the grown matrix at every step.
//!
//! Std-only: the generator is an in-file SplitMix64, so the file runs
//! without any property-testing crate.

use soulmate_core::engine::CachedCut;
use soulmate_graph::{
    kruskal_max_forest, stack_pop_order, swmst, Edge, SpanningForest, WeightedGraph,
};

/// SplitMix64: small, seedable, and good enough to spread test cases.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// at these sizes).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A quarter step in `[-2, 2]`, so ties are common.
    fn quarter(&mut self) -> f32 {
        let steps = i8::try_from(self.below(17)).unwrap_or(0) - 8;
        f32::from(steps) / 4.0
    }

    /// A similarity entry: mostly a quarter step, sometimes one of the
    /// values the total-order and finiteness paths special-case.
    fn weight(&mut self) -> f32 {
        match self.below(40) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => f32::from_bits(0xFFC0_0000), // negative NaN
            _ => self.quarter(),
        }
    }
}

/// A symmetric `n × n` matrix with a unit diagonal.
// Indexed loops: each step writes two mirrored cells.
#[allow(clippy::needless_range_loop)]
fn matrix(rng: &mut SplitMix64, n: usize) -> Vec<Vec<f32>> {
    let mut x = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        x[i][i] = 1.0;
        for j in (i + 1)..n {
            let w = rng.weight();
            x[i][j] = w;
            x[j][i] = w;
        }
    }
    x
}

/// `x` grown by one row/column whose off-diagonal entries are `sims`.
fn extend(x: &[Vec<f32>], sims: &[f32]) -> Vec<Vec<f32>> {
    let mut grown: Vec<Vec<f32>> = x
        .iter()
        .zip(sims)
        .map(|(row, &s)| {
            let mut r = row.clone();
            r.push(s);
            r
        })
        .collect();
    let mut last = sims.to_vec();
    last.push(1.0);
    grown.push(last);
    grown
}

/// Edges as `(u, v, weight bits)`, so −0.0 and 0.0 stay distinct.
fn bits(edges: &[Edge]) -> Vec<(usize, usize, u32)> {
    edges.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect()
}

/// The edges `from_similarity` keeps only as top-k lifelines.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn fails_threshold(w: f32, min_sim: f32) -> bool {
    !(w >= min_sim)
}

/// What the backbone must be: the maximum spanning forest of the
/// sparsified graph plus every edge that fails the threshold, deduped and
/// in pop order.
fn reference_backbone(x: &[Vec<f32>], min_sim: f32, top_k: usize) -> Vec<Edge> {
    let graph = WeightedGraph::from_similarity(x, min_sim, top_k).unwrap();
    let mut edges = kruskal_max_forest(&graph).edges().to_vec();
    edges.extend(
        graph
            .edges()
            .iter()
            .filter(|e| fails_threshold(e.w, min_sim)),
    );
    edges.sort_by(stack_pop_order);
    edges.dedup_by(|a, b| (a.u, a.v) == (b.u, b.v));
    edges
}

/// The legacy cut: extend the matrix, rebuild, fully sort, SW-MST.
fn reference_cut(x: &[Vec<f32>], sims: &[f32], min_sim: f32, top_k: usize) -> SpanningForest {
    let graph = WeightedGraph::from_similarity(&extend(x, sims), min_sim, top_k).unwrap();
    swmst(&graph)
}

/// Thresholds to sweep. At −inf every score but NaN clears the
/// threshold, −inf included, so only the finiteness filter keeps a
/// non-candidate without a query edge.
fn min_sims(rng: &mut SplitMix64) -> [f32; 4] {
    [-2.0, rng.quarter(), 2.0, f32::NEG_INFINITY]
}

#[test]
fn stored_edges_are_the_forest_plus_sub_threshold_lifelines() {
    let mut rng = SplitMix64(0x5eed_0001);
    for n in 1..=40 {
        for top_k in 0..=5 {
            let x = matrix(&mut rng, n);
            for min_sim in min_sims(&mut rng) {
                let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
                let want = reference_backbone(&x, min_sim, top_k);
                assert_eq!(
                    bits(&want),
                    bits(cut.base_edges()),
                    "n={n} k={top_k} min_sim={min_sim}"
                );
                assert!(cut.base_edges().len() <= n.saturating_sub(1) + n * top_k);
            }
        }
    }
}

#[test]
fn query_cuts_match_extend_and_rebuild() {
    let mut rng = SplitMix64(0x5eed_0002);
    for n in 1..=40 {
        for top_k in 0..=5 {
            let x = matrix(&mut rng, n);
            for min_sim in min_sims(&mut rng) {
                let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
                let sims: Vec<f32> = (0..n).map(|_| rng.weight()).collect();
                let want = reference_cut(&x, &sims, min_sim, top_k);
                let ctx = format!("n={n} k={top_k} min_sim={min_sim}");

                let got = cut.cut_with_query_component(&sims).unwrap().0;
                assert_eq!(bits(want.edges()), bits(got.edges()), "{ctx}");
                let (forest, component) = cut.cut_with_query_component(&sims).unwrap();
                assert_eq!(bits(want.edges()), bits(forest.edges()), "{ctx}");
                assert_eq!(want.query_subgraph(n), Some(component), "{ctx}");

                // Sparse rows: a random candidate subset, everyone else at
                // the implicit -inf the candidate path promises.
                let candidates: Vec<u32> = (0..n)
                    .filter(|_| rng.below(3) != 0)
                    .map(|i| u32::try_from(i).unwrap())
                    .collect();
                let cand_sims: Vec<f32> = candidates.iter().map(|_| rng.weight()).collect();
                let mut dense = vec![f32::NEG_INFINITY; n];
                for (&id, &s) in candidates.iter().zip(&cand_sims) {
                    dense[id as usize] = s;
                }
                let want = reference_cut(&x, &dense, min_sim, top_k);
                let (forest, component) = cut
                    .cut_with_candidates_component(&candidates, &cand_sims)
                    .unwrap();
                assert_eq!(bits(want.edges()), bits(forest.edges()), "sparse {ctx}");
                assert_eq!(
                    want.query_subgraph(n),
                    Some(component.clone()),
                    "sparse {ctx}"
                );

                // The same candidates in descending order take the dense
                // scatter fallback and must cut identically.
                let reversed: Vec<u32> = candidates.iter().rev().copied().collect();
                let reversed_sims: Vec<f32> = cand_sims.iter().rev().copied().collect();
                let (rev_forest, rev_component) = cut
                    .cut_with_candidates_component(&reversed, &reversed_sims)
                    .unwrap();
                assert_eq!(
                    bits(forest.edges()),
                    bits(rev_forest.edges()),
                    "reversed {ctx}"
                );
                assert_eq!(component, rev_component, "reversed {ctx}");
            }
        }
    }
}

#[test]
fn displaced_forest_edge_is_replaced_by_a_stored_lifeline() {
    // Nothing clears min_sim = 1.0 off the diagonal, so every base edge is
    // a top-2 lifeline. The query enters the top-2 of nodes 1, 4 and 5 and
    // displaces (1, 3), (0, 4) and (2, 5), at least one of them a base
    // forest edge; the cut of the grown graph then reconnects through
    // (2, 3), a lifeline that is *not* in the base forest. A cut that kept
    // only the base forest would miss it.
    let x = vec![
        vec![1.0, 0.875, -0.375, 0.875, 0.75, -0.125],
        vec![0.875, 1.0, -0.5, 0.0, -0.125, -1.0],
        vec![-0.375, -0.5, 1.0, 0.75, 0.875, 0.125],
        vec![0.875, 0.0, 0.75, 1.0, 0.375, 0.375],
        vec![0.75, -0.125, 0.875, 0.375, 1.0, -1.0],
        vec![-0.125, -1.0, 0.125, 0.375, -1.0, 1.0],
    ];
    let sims = [0.5, 0.375, 0.375, 0.5, 1.0, 0.5];
    let (min_sim, top_k) = (1.0, 2);
    let lifeline = (2, 3);

    let base = WeightedGraph::from_similarity(&x, min_sim, top_k).unwrap();
    let base_forest = kruskal_max_forest(&base);
    let grown = WeightedGraph::from_similarity(&extend(&x, &sims), min_sim, top_k).unwrap();
    let pair = |e: &Edge| (e.u, e.v);
    let displaced: Vec<Edge> = base
        .edges()
        .iter()
        .filter(|e| !grown.edges().iter().any(|g| pair(g) == pair(e)))
        .copied()
        .collect();
    assert!(
        displaced.iter().any(|d| base_forest.edges().contains(d)),
        "the query must displace a base forest edge"
    );
    assert!(!base_forest.edges().iter().any(|e| pair(e) == lifeline));

    let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
    assert!(cut.base_edges().iter().any(|e| pair(e) == lifeline));
    let want = reference_cut(&x, &sims, min_sim, top_k);
    assert!(want.edges().iter().any(|e| pair(e) == lifeline));
    let got = cut.cut_with_query_component(&sims).unwrap().0;
    assert_eq!(bits(want.edges()), bits(got.edges()));
    assert_eq!(want.components(), got.components());
}

#[test]
fn insert_chain_matches_rebuild_at_every_step() {
    let mut rng = SplitMix64(0x5eed_0003);
    for (min_sim, top_k) in [(0.5f32, 0usize), (-2.0, 0), (1.0, 1), (0.25, 3), (10.0, 5)] {
        let mut x = matrix(&mut rng, 3);
        let mut cut = CachedCut::new(&x, min_sim, top_k).unwrap();
        for step in 0..100 {
            let n = x.len();
            let sims: Vec<f32> = (0..n).map(|_| rng.weight()).collect();
            x = extend(&x, &sims);
            cut.insert_author(&sims).unwrap();

            let ctx = format!("min_sim={min_sim} k={top_k} step={step}");
            let rebuilt = CachedCut::new(&x, min_sim, top_k).unwrap();
            assert_eq!(rebuilt.n_authors(), cut.n_authors(), "{ctx}");
            assert_eq!(bits(rebuilt.base_edges()), bits(cut.base_edges()), "{ctx}");
            assert_eq!(
                bits(&reference_backbone(&x, min_sim, top_k)),
                bits(cut.base_edges()),
                "{ctx}"
            );
            // Same top-k caches too: a probe query cuts identically.
            let probe: Vec<f32> = (0..=n).map(|_| rng.weight()).collect();
            assert_eq!(
                bits(rebuilt.cut_with_query_component(&probe).unwrap().0.edges()),
                bits(cut.cut_with_query_component(&probe).unwrap().0.edges()),
                "{ctx}"
            );
        }
    }
}
