//! Stack-Wise Maximum Spanning Tree — the paper's Algorithm 1, implemented
//! faithfully.
//!
//! The algorithm pushes every edge onto a stack in *ascending* weight order
//! (weakest at the bottom), then pops — strongest first — appending each
//! popped edge to `L'` and its endpoints to `N'`, until every node of the
//! input graph has been covered. The components of the resulting `G'` are
//! the highly-correlated author subgraphs, each spanned by its strongest
//! edges.
//!
//! Two departures from the pseudocode, both forced by real inputs and
//! documented in DESIGN.md §5:
//!
//! 1. the pseudocode loops `while N'' ≠ ∅` — on a graph with isolated
//!    nodes the stack empties first, so we also stop on stack exhaustion
//!    (isolated nodes become singleton subgraphs);
//! 2. since the pseudocode performs no cycle check, a popped edge may join
//!    two already-covered nodes; we keep it only when it merges two
//!    components or covers a new node, which preserves the pseudocode's
//!    node-coverage semantics while keeping `G'` a forest (the "maximum
//!    spanning trees" the paper extracts from it). The
//!    [`swmst_literal`] variant keeps *every* popped edge for comparison.

use crate::forest::SpanningForest;
use crate::graph::{Edge, WeightedGraph};
use crate::unionfind::UnionFind;
use std::cmp::Ordering;

/// The order in which Algorithm 1 pops edges off its stack: weight
/// descending, ties broken by `(u, v)` ascending so results are
/// deterministic. Weights compare by [`f32::total_cmp`], so a NaN weight
/// (possible when a caller builds [`Edge`] values directly from unchecked
/// similarity data) sorts instead of panicking: positive NaN ranks above
/// every finite weight, negative NaN below.
///
/// A slice sorted by this comparator can be fed straight to
/// [`swmst_from_sorted`].
pub fn stack_pop_order(a: &Edge, b: &Edge) -> Ordering {
    b.w.total_cmp(&a.w).then(a.u.cmp(&b.u)).then(a.v.cmp(&b.v))
}

/// SW-MST over edges already in [`stack_pop_order`] (strongest first): the
/// pop loop of Algorithm 1 without the O(E log E) sort.
///
/// This is the entry point for callers that keep a sorted edge list alive
/// across runs — the CLI's `subgraphs` command runs it over a snapshot's
/// cached backbone (the base graph's maximum spanning forest) instead of
/// re-sorting the whole graph. The iterator is consumed lazily, so early
/// termination (full node coverage) skips the weak tail entirely.
///
/// Feeding edges out of order silently produces a different (non-SW-MST)
/// forest; order is the caller's contract. Edges with an endpoint outside
/// `0..n` (possible only for hand-built edge lists — [`WeightedGraph`]
/// validates on insert) are dropped rather than panicking.
// Indexing below is in-bounds by the explicit `u/v < n` guard on every
// edge before it is touched.
#[allow(clippy::indexing_slicing)]
pub fn swmst_from_sorted<I>(n: usize, edges: I) -> SpanningForest
where
    I: IntoIterator<Item = Edge>,
{
    let mut edges = edges.into_iter();
    let mut covered = vec![false; n];
    let mut n_covered = 0usize;
    let mut uf = UnionFind::new(n);
    let mut selected = Vec::new();

    while n_covered < n {
        let Some(edge) = edges.next() else {
            break; // isolated nodes remain — singleton subgraphs
        };
        if edge.u >= n || edge.v >= n {
            continue; // out-of-range endpoint: drop, never panic
        }
        let new_u = !covered[edge.u];
        let new_v = !covered[edge.v];
        // Keep the edge when it extends coverage or bridges two trees;
        // a pure intra-tree edge would close a cycle.
        if new_u || new_v || !uf.connected(edge.u, edge.v) {
            uf.union(edge.u, edge.v);
            selected.push(edge);
            if new_u {
                covered[edge.u] = true;
                n_covered += 1;
            }
            if new_v {
                covered[edge.v] = true;
                n_covered += 1;
            }
        }
    }
    SpanningForest::new(n, selected)
}

/// Run SW-MST on `graph`; returns the spanning forest `G'`.
///
/// Ties in edge weight are broken by `(u, v)` order so results are
/// deterministic.
///
/// # Examples
/// ```
/// use soulmate_graph::{swmst, WeightedGraph};
///
/// // Two tight pairs and a weak bridge: the cut keeps the pairs apart.
/// let mut g = WeightedGraph::new(4);
/// g.add_edge(0, 1, 0.9).unwrap();
/// g.add_edge(2, 3, 0.8).unwrap();
/// g.add_edge(1, 2, 0.1).unwrap();
/// let forest = swmst(&g);
/// assert_eq!(forest.components(), vec![vec![0, 1], vec![2, 3]]);
/// ```
pub fn swmst(graph: &WeightedGraph) -> SpanningForest {
    let mut edges: Vec<Edge> = graph.edges().to_vec();
    edges.sort_by(stack_pop_order);
    swmst_from_sorted(graph.n_nodes(), edges)
}

/// The literal Algorithm 1: every popped edge is appended to `L'` (no
/// cycle check), stopping once all nodes are covered. `G'` may then contain
/// cycles; exposed for the fidelity comparison in the ablation bench.
pub fn swmst_literal(graph: &WeightedGraph) -> SpanningForest {
    let n = graph.n_nodes();
    let mut edges: Vec<Edge> = graph.edges().to_vec();
    edges.sort_by(stack_pop_order);
    let mut covered = vec![false; n];
    let mut n_covered = 0usize;
    let mut selected = Vec::new();
    let mut popped = edges.into_iter();
    while n_covered < n {
        let Some(edge) = popped.next() else { break };
        selected.push(edge);
        for node in [edge.u, edge.v] {
            // `get_mut` rather than indexing: graph edges are validated on
            // insert, but the coverage walk stays total regardless.
            if let Some(c) = covered.get_mut(node) {
                if !*c {
                    *c = true;
                    n_covered += 1;
                }
            }
        }
    }
    SpanningForest::new(n, selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal_max_forest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use soulmate_check::check;

    /// Two dense communities with weak cross-links.
    fn two_communities() -> WeightedGraph {
        let mut g = WeightedGraph::new(6);
        // Community A: 0,1,2 strongly tied.
        g.add_edge(0, 1, 0.9).unwrap();
        g.add_edge(1, 2, 0.8).unwrap();
        g.add_edge(0, 2, 0.85).unwrap();
        // Community B: 3,4,5.
        g.add_edge(3, 4, 0.9).unwrap();
        g.add_edge(4, 5, 0.8).unwrap();
        g.add_edge(3, 5, 0.85).unwrap();
        // Weak bridge.
        g.add_edge(2, 3, 0.1).unwrap();
        g
    }

    #[test]
    fn covers_all_nodes() {
        let f = swmst(&two_communities());
        let all: usize = f.components().iter().map(Vec::len).sum();
        assert_eq!(all, 6);
    }

    #[test]
    fn strong_edges_selected_first() {
        let f = swmst(&two_communities());
        // The four strongest edges (0.9, 0.9, 0.85, 0.85) cover all six
        // nodes, so the weak 0.1 bridge is never popped into the forest.
        assert!(f.edges().iter().all(|e| e.w > 0.5));
        assert_eq!(f.components().len(), 2);
    }

    #[test]
    fn forest_is_acyclic() {
        let f = swmst(&two_communities());
        // A forest over c components of n nodes has n - c edges.
        assert_eq!(f.edges().len(), 6 - f.components().len());
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0).unwrap();
        let f = swmst(&g);
        let comps = f.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn empty_graph_is_all_singletons() {
        let g = WeightedGraph::new(3);
        let f = swmst(&g);
        assert_eq!(f.components().len(), 3);
        assert!(f.edges().is_empty());
    }

    #[test]
    fn deterministic_under_ties() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(2, 3, 0.5).unwrap();
        g.add_edge(1, 2, 0.5).unwrap();
        let f1 = swmst(&g);
        let f2 = swmst(&g);
        assert_eq!(f1.edges(), f2.edges());
    }

    #[test]
    fn literal_variant_may_keep_cycles_but_still_covers() {
        let f = swmst_literal(&two_communities());
        let all: usize = f.components().iter().map(Vec::len).sum();
        assert_eq!(all, 6);
        // Literal keeps every popped edge; with the strongest 4 edges the
        // coverage completes, possibly including a cycle (0-1,0-2,1-2).
        assert!(f.edges().len() >= swmst(&two_communities()).edges().len());
    }

    #[test]
    fn swmst_is_prefix_of_kruskal_selection() {
        // SW-MST is Kruskal's greedy with early termination at node
        // coverage: its selected edges must be a prefix of Kruskal's
        // selection order, and it can only stop with at least as many
        // (tighter) components.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(2..12);
            let mut g = WeightedGraph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    g.add_edge(i, j, rng.gen_range(0.0..1.0)).unwrap();
                }
            }
            let a = swmst(&g);
            let b = kruskal_max_forest(&g);
            assert!(a.edges().len() <= b.edges().len());
            for (ea, eb) in a.edges().iter().zip(b.edges()) {
                assert_eq!(ea, eb, "swmst diverged from kruskal order");
            }
            assert!(a.components().len() >= b.components().len());
        }
    }

    #[test]
    fn from_sorted_matches_swmst_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..14);
            let mut g = WeightedGraph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.6) {
                        g.add_edge(i, j, rng.gen_range(0.0..1.0)).unwrap();
                    }
                }
            }
            let mut sorted = g.edges().to_vec();
            sorted.sort_by(stack_pop_order);
            let a = swmst(&g);
            let b = swmst_from_sorted(n, sorted);
            assert_eq!(a.edges(), b.edges());
        }
    }

    #[test]
    fn from_sorted_handles_empty_and_nodeless_inputs() {
        let f = swmst_from_sorted(3, Vec::new());
        assert_eq!(f.components().len(), 3);
        let f = swmst_from_sorted(0, Vec::new());
        assert!(f.components().is_empty());
    }

    #[test]
    fn stack_pop_order_tolerates_nan_weights() {
        // Edges built directly (bypassing add_edge validation) may carry
        // NaN; the total order must sort them instead of panicking, with
        // positive NaN strongest.
        let mut edges = [
            Edge { u: 0, v: 1, w: 0.5 },
            Edge {
                u: 1,
                v: 2,
                w: f32::NAN,
            },
            Edge { u: 2, v: 3, w: 0.9 },
        ];
        edges.sort_by(stack_pop_order);
        assert!(edges[0].w.is_nan());
        assert_eq!(edges[1].w, 0.9);
        assert_eq!(edges[2].w, 0.5);
    }

    #[test]
    fn prop_swmst_is_forest_and_covers() {
        check(256, |g| {
            let edges = g.vec(0..40, |g| (g.usize(0..10), g.usize(0..10), g.f32(0.0..1.0)));

            let mut g = WeightedGraph::new(10);
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge(a, b, w).unwrap();
                }
            }
            let f = swmst(&g);
            let comps = f.components();
            let covered: usize = comps.iter().map(Vec::len).sum();
            assert_eq!(covered, 10);
            // Forest invariant: |E| = n - #components.
            assert_eq!(f.edges().len(), 10 - comps.len());
        });
    }

    /// On a connected graph SW-MST stops exactly at full coverage: its
    /// selected edges touch every node, and without the last one they do
    /// not. (It is Kruskal cut short there, so it may stop before n − 1
    /// edges, as `strong_edges_selected_first` shows.)
    #[test]
    fn prop_swmst_stops_exactly_at_full_coverage() {
        check(256, |g| {
            let n = g.usize(2..12);
            // A random spanning tree keeps the graph connected; extra
            // random edges give the pop loop choices to make.
            let tree: Vec<(usize, usize, f32)> = (1..n)
                .map(|v| (g.usize(0..v), v, g.f32(0.0..1.0)))
                .collect();
            let extra = g.vec(0..30, |g| (g.usize(0..n), g.usize(0..n), g.f32(0.0..1.0)));

            let mut graph = WeightedGraph::new(n);
            for (a, b, w) in tree.into_iter().chain(extra) {
                if a != b {
                    graph.add_edge(a, b, w).unwrap();
                }
            }
            let covered = |edges: &[Edge]| -> usize {
                let mut seen = vec![false; n];
                for e in edges {
                    seen[e.u] = true;
                    seen[e.v] = true;
                }
                seen.iter().filter(|&&c| c).count()
            };
            let f = swmst(&graph);
            let edges = f.edges();
            assert!(!edges.is_empty() && edges.len() < n);
            assert_eq!(covered(edges), n, "the selection covers every node");
            assert!(
                covered(&edges[..edges.len() - 1]) < n,
                "the last selected edge completes the cover"
            );
        });
    }

    #[test]
    fn prop_swmst_prefix_of_kruskal() {
        check(256, |g| {
            let edges = g.vec(1..30, |g| (g.usize(0..8), g.usize(0..8), g.f32(0.0..1.0)));

            let mut g = WeightedGraph::new(8);
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge(a, b, w).unwrap();
                }
            }
            let a = swmst(&g);
            let b = kruskal_max_forest(&g);
            assert!(a.edges().len() <= b.edges().len());
            for (ea, eb) in a.edges().iter().zip(b.edges()) {
                assert_eq!(ea, eb);
            }
        });
    }
}
