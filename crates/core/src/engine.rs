//! Amortized online serving: the [`QueryEngine`].
//!
//! [`crate::online::link_query`] answers one query correctly but pays the
//! whole offline bill again on every call: it re-normalizes both author
//! matrices (O(n·d)), clones the full `X^Total` into an extended
//! `(n+1)²` matrix, rebuilds the thresholded graph from scratch and
//! re-sorts every edge before running the SW-MST pop loop. None of that
//! depends on the query. The engine hoists it all into a one-time build
//! per fitted [`Pipeline`] / loaded [`PipelineSnapshot`]:
//!
//! * author content rows and mean-centered concept rows are pre-scaled to
//!   unit norm once, into [`ChunkedRows`] that a delta ingest grows by
//!   sharing every full chunk, so a query's similarity row is one
//!   chunk-wise scoring call ([`ChunkedRows::dots`]) instead of a scalar
//!   cosine loop that recomputes every author norm;
//! * the cut keeps a **backbone** of the thresholded base graph — its
//!   maximum spanning forest, at most `n − 1` edges, sorted in SW-MST
//!   [`stack_pop_order`] ([`CachedCut`]). A query contributes at most `n`
//!   new edges and pays only for the edges SW-MST pops and the subgraph
//!   it returns: an index of each node's first backbone edge and of the
//!   forest's adjacency gives the loop's stop point, the popped query
//!   edges, the query's component and the forest edges inside it, without
//!   walking the backbone — no `(n+1)²` clone, no graph rebuild and no
//!   `O(E log E)` re-sort.
//!
//! The served answers are **identical** to the legacy path, bit for bit:
//! both compute the similarity row through the same `vectorize_query` /
//! unit-row dot / `fused_row_from_dots` sequence (in `online`), and the
//! pop loop is Kruskal's algorithm under the strict total order
//! [`stack_pop_order`], so it selects the same edges over any edge set
//! that contains the extended graph's unique maximum spanning forest —
//! which the backbone plus the query's edges does (DESIGN.md §10). Both
//! query row shapes — a dense row
//! ([`CachedCut::cut_with_query_component`]) and a candidate list
//! ([`CachedCut::cut_with_candidates_component`]) — take the same cut,
//! and an insert ([`CachedCut::insert_author`]) is Kruskal over the
//! backbone plus the new author's edges.

use crate::error::CoreError;
use crate::online::{
    fused_row_from_dots, unit_scaled, vectorize_query, QueryModel, QueryOutcome, QueryVectors,
};
use crate::pipeline::Pipeline;
use crate::snapshot::PipelineSnapshot;
use soulmate_corpus::Timestamp;
use soulmate_graph::{stack_pop_order, Edge, GraphError, SpanningForest, UnionFind};
use soulmate_linalg::kernels::gram_rect_i8_blocked;
use soulmate_linalg::{
    dot, sub_assign, CenteredQuantizedRows, ChunkedRows, Matrix, QuantizedRows, RowSource,
};
use soulmate_retrieval::{Candidates, IvfConfig, IvfIndex};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Most edges a backbone over `n` nodes can hold: a spanning forest has
/// at most `n − 1`.
pub(crate) fn max_backbone_edges(n: usize) -> usize {
    n.saturating_sub(1)
}

/// Can a cut over `n` authors index its forest? [`ForestIndex`] stores
/// node ids and backbone indices as `u32`; its largest entry is the
/// adjacency offset `2·(n − 1)`, and an insert adds one node.
fn fits_forest_index(n: usize) -> bool {
    u32::try_from(n.saturating_mul(2)).is_ok()
}

/// Does edge `a` pop strictly before edge `b` in [`stack_pop_order`]?
fn pops_before(a: &Edge, b: &Edge) -> bool {
    stack_pop_order(a, b) == Ordering::Less
}

/// The one graph rule of `WeightedGraph::from_similarity`: nodes `u` and
/// `v` share an edge when their similarity `w` is finite and clears the
/// threshold. Anything else (including every NaN) is no edge.
fn graph_edge(u: usize, v: usize, w: f32, min_sim: f32) -> Option<Edge> {
    (w.is_finite() && w >= min_sim).then_some(Edge { u, v, w })
}

/// A query's similarity row in one of its two shapes. Dense (`ids` is
/// `None`): `sims[i]` scores node `i`. Candidate: `sims[j]` scores node
/// `ids[j]`, the ids strictly ascending, and every other node stands for
/// similarity `-inf`.
#[derive(Debug, Clone, Copy)]
struct QueryRow<'s> {
    ids: Option<&'s [u32]>,
    sims: &'s [f32],
}

impl<'s> QueryRow<'s> {
    /// The scored nodes as `(id, similarity)`, in ascending id order.
    fn scored(self) -> impl Iterator<Item = (usize, f32)> + Clone + 's {
        let ids = self.ids;
        self.sims.iter().copied().enumerate().map(move |(pos, s)| {
            let id = match ids.and_then(|ids| ids.get(pos)) {
                // u32 widens losslessly into usize on every supported target.
                Some(&id) => id as usize,
                None => pos,
            };
            (id, s)
        })
    }

    /// Node `node`'s score, `None` for an unscored node (`-inf`).
    fn score_of(self, node: usize) -> Option<f32> {
        match self.ids {
            None => self.sims.get(node).copied(),
            Some(ids) => {
                let id = u32::try_from(node).ok()?;
                self.sims.get(ids.binary_search(&id).ok()?).copied()
            }
        }
    }
}

/// What the SW-MST pop loop does for one query, found without walking
/// the backbone (DESIGN.md §10).
#[derive(Debug)]
struct ForestCut {
    /// The query's component, ascending (the query node, `n`, last).
    component: Vec<usize>,
    /// The forest edges inside the component, in pop order.
    kept: Vec<Edge>,
    /// The loop pops the backbone prefix `[0, popped_base)`.
    popped_base: usize,
    /// Indices of the popped backbone edges inside the component,
    /// ascending.
    component_base: Vec<usize>,
}

impl ForestCut {
    /// Mean weight of the forest edges inside the component (0 for a
    /// lone query node): the same `f32` sum, in the same order, as
    /// [`SpanningForest::component_avg_weight`] over the full forest.
    fn avg_weight(&self) -> f32 {
        if self.kept.is_empty() {
            return 0.0;
        }
        self.kept.iter().map(|e| e.w).sum::<f32>() / self.kept.len() as f32
    }
}

/// Derived from the backbone on the cut's first query and never
/// persisted: when each node is first covered, and the forest's
/// adjacency. Ids and indices are stored as `u32`.
#[derive(Debug, Clone)]
struct ForestIndex {
    /// `(node, backbone index of its first edge)` for every node the
    /// backbone covers, in ascending cover index.
    cover_order: Vec<(u32, u32)>,
    /// Nodes with no backbone edge.
    isolated: Vec<u32>,
    /// Node `i`'s `(neighbour, backbone index)` pairs are
    /// `adj[adj_start[i]..adj_start[i + 1]]`, in ascending backbone index.
    adj_start: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl ForestIndex {
    /// Index a forest backbone over `n` nodes in O(n).
    // Every endpoint is < n (checked by every cut builder) and
    // `adj_start` has n + 1 entries; each adjacency slot is written once.
    // The builders also check `fits_forest_index(n)`, and a forest has at
    // most n − 1 edges, so every id, index and offset below fits u32.
    #[allow(clippy::indexing_slicing)]
    fn new(n: usize, edges: &[Edge]) -> ForestIndex {
        let mut cover_order = Vec::with_capacity(n);
        let mut adj_start = vec![0u32; n + 1];
        for (idx, e) in edges.iter().enumerate() {
            for x in [e.u, e.v] {
                if adj_start[x] == 0 {
                    // Node ids and edge indices fit u32 (see above).
                    cover_order.push((x as u32, idx as u32));
                }
                adj_start[x] += 1;
            }
        }
        // Running ends, then filled backwards: each end walks down to its
        // node's start, and every node's pairs come out ascending.
        let mut isolated = Vec::new();
        let mut end = 0;
        for (i, slot) in adj_start.iter_mut().enumerate() {
            if *slot == 0 && i < n {
                // i < n fits u32 (see above).
                isolated.push(i as u32);
            }
            end += *slot;
            *slot = end;
        }
        let mut adj = vec![(0, 0); 2 * edges.len()];
        for (idx, e) in edges.iter().enumerate().rev() {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                adj_start[x] -= 1;
                // Node ids and edge indices fit u32 (see above).
                adj[adj_start[x] as usize] = (y as u32, idx as u32);
            }
        }
        ForestIndex {
            cover_order,
            isolated,
            adj_start,
            adj,
        }
    }

    /// Node `x`'s `(neighbour, backbone index)` pairs.
    fn neighbours(&self, x: usize) -> &[(u32, u32)] {
        // u32 widens losslessly into usize on every supported target.
        let at = |i: usize| self.adj_start.get(i).map(|&a| a as usize);
        let start = at(x).unwrap_or(0);
        let end = at(x + 1).unwrap_or(start);
        self.adj.get(start..end).unwrap_or(&[])
    }
}

/// The query-independent part of the online graph cut, precomputed once.
///
/// Holds the **backbone** of the thresholded base graph of `X^Total` —
/// its maximum spanning forest under [`stack_pop_order`], at most `n − 1`
/// edges instead of the graph's `O(n²)` — sorted in SW-MST pop order.
/// Given a query's similarity row,
/// [`CachedCut::cut_with_query_component`] produces the same
/// [`SpanningForest`] as rebuilding + re-sorting the extended `(n+1)²`
/// graph, without sorting or walking more than the popped edges and the
/// query's component; DESIGN.md §10 proves it.
///
/// The cut is self-contained — neither queries nor
/// [`CachedCut::insert_author`] read `X^Total` — and it is what a
/// snapshot persists in place of the `n²` matrix. [`CachedCut::new`] is
/// the one builder from a dense matrix.
#[derive(Debug, Clone)]
pub struct CachedCut {
    n: usize,
    min_sim: f32,
    /// The backbone, in [`stack_pop_order`].
    base_edges: Vec<Edge>,
    /// The cut's index, built by the first query (see
    /// [`CachedCut::forest_index`]). An insert resets it, so an ingest does
    /// not index a cut that a later insert of the same batch, or the next
    /// ingest, replaces before it serves a query.
    forest: OnceLock<ForestIndex>,
}

impl CachedCut {
    /// Build the backbone of `sim`'s thresholded graph once, in `O(n²)`
    /// time and `O(n)` memory beyond the result, without materializing
    /// the graph's edge list.
    ///
    /// # Errors
    /// [`CoreError::Graph`] when `sim` is ragged, [`CoreError::Invalid`]
    /// when it has too many rows for the cut's `u32` index.
    pub fn new(sim: &[Vec<f32>], min_similarity: f32) -> Result<CachedCut, CoreError> {
        let n = sim.len();
        if let Some(row) = sim.iter().find(|row| row.len() != n) {
            return Err(GraphError::NotSquare {
                rows: n,
                cols: row.len(),
            }
            .into());
        }
        if !fits_forest_index(n) {
            return Err(CoreError::Invalid(format!(
                "{n} authors exceed the cut's u32 index"
            )));
        }
        Ok(CachedCut::assemble(
            n,
            min_similarity,
            backbone(sim, min_similarity),
        ))
    }

    /// A cut from its parts, not yet indexed.
    fn assemble(n: usize, min_sim: f32, base_edges: Vec<Edge>) -> CachedCut {
        CachedCut {
            n,
            min_sim,
            base_edges,
            forest: OnceLock::new(),
        }
    }

    /// A cut over no authors.
    pub(crate) fn empty(min_similarity: f32) -> CachedCut {
        CachedCut::assemble(0, min_similarity, Vec::new())
    }

    /// Reassemble a persisted cut over `n` authors from its backbone in
    /// pop order. Checks everything the query and insert paths index or
    /// rely on, so a cut that passes serves without a panic: `n` fits the
    /// cut's `u32` index, and the backbone has at most `n − 1` edges, each
    /// `u < v < n` with a finite weight, strictly in [`stack_pop_order`],
    /// closing no cycle (so no pair twice).
    ///
    /// # Errors
    /// [`CoreError::Schema`] naming the first violation.
    pub(crate) fn from_parts(
        n: usize,
        min_similarity: f32,
        base_edges: Vec<Edge>,
    ) -> Result<CachedCut, CoreError> {
        let schema = |msg: String| Err(CoreError::Schema(msg));
        if !fits_forest_index(n) {
            return schema(format!("{n} authors exceed the cut's u32 index"));
        }
        let max_edges = max_backbone_edges(n);
        if base_edges.len() > max_edges {
            return schema(format!(
                "backbone has {} edges, more than n-1 = {max_edges}",
                base_edges.len()
            ));
        }
        let mut uf = UnionFind::new(n);
        let mut prev: Option<&Edge> = None;
        for (i, e) in base_edges.iter().enumerate() {
            if e.u >= n || e.v >= n {
                return schema(format!(
                    "backbone edge {i} ({}, {}) has an endpoint out of range (n = {n})",
                    e.u, e.v
                ));
            }
            if e.u == e.v {
                return schema(format!("backbone edge {i} is a self-loop on {}", e.u));
            }
            if e.u > e.v {
                return schema(format!(
                    "backbone edge {i} ({}, {}) is not stored as u < v",
                    e.u, e.v
                ));
            }
            if !e.w.is_finite() {
                return schema(format!("backbone edge {i} weight {} is not finite", e.w));
            }
            if prev.is_some_and(|p| !pops_before(p, e)) {
                return schema(format!("backbone edge {i} is out of pop order"));
            }
            if !uf.union(e.u, e.v) {
                return schema(format!(
                    "backbone edge {i} ({}, {}) closes a cycle, but the backbone is a forest",
                    e.u, e.v
                ));
            }
            prev = Some(e);
        }
        Ok(CachedCut::assemble(n, min_similarity, base_edges))
    }

    /// The cut's index, built on first use in O(n).
    fn forest_index(&self) -> &ForestIndex {
        self.forest
            .get_or_init(|| ForestIndex::new(self.n, &self.base_edges))
    }

    /// Number of base (non-query) nodes.
    pub fn n_authors(&self) -> usize {
        self.n
    }

    /// The threshold the cut was built with.
    pub(crate) fn min_similarity(&self) -> f32 {
        self.min_sim
    }

    /// The cached backbone, in [`stack_pop_order`]: the base graph's
    /// maximum spanning forest (at most `n − 1` edges), not every edge.
    pub fn base_edges(&self) -> &[Edge] {
        &self.base_edges
    }

    /// Cut the graph extended by one query node whose similarity row is
    /// `sims` — equivalent to `from_similarity` + full sort + SW-MST over
    /// the `(n+1)²` matrix, without materializing it — and return the
    /// forest together with the component containing the query node.
    ///
    /// The query node's index in the returned forest is `n_authors()`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims.len() != self.n_authors()` —
    /// a mis-sized row would silently link the wrong authors, so it is
    /// rejected (not panicked on) before any index is touched.
    pub fn cut_with_query_component(
        &self,
        sims: &[f32],
    ) -> Result<(SpanningForest, Vec<usize>), CoreError> {
        Ok(self.forest_and_component(self.dense_row(sims)?))
    }

    /// [`CachedCut::cut_with_query_component`] for a *sparse* similarity
    /// row: only the authors in `candidates` carry a score, given in
    /// `cand_sims` index-aligned with `candidates`. Every other author is
    /// treated as having similarity `-inf` to the query — it never
    /// receives a query edge (non-finite weights are dropped), which is
    /// exactly the contract the retrieval paths want for non-candidates.
    ///
    /// Passing every author id reproduces the dense cut bit for bit — the
    /// `nprobe == n_centroids` parity tests pin that down. Strictly
    /// ascending ids, which both retrievers emit, cost time in proportion
    /// to the candidate count; unsorted or duplicated ids (last write
    /// wins) are scattered into a dense row first.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when the two slices disagree in length or a
    /// candidate id is out of range.
    pub fn cut_with_candidates_component(
        &self,
        candidates: &[u32],
        cand_sims: &[f32],
    ) -> Result<(SpanningForest, Vec<usize>), CoreError> {
        let mut scattered = Vec::new();
        Ok(self.forest_and_component(self.candidate_row(candidates, cand_sims, &mut scattered)?))
    }

    /// What the engine serves for a dense row: the query node's component
    /// and the mean weight of the forest edges inside it — the answer of
    /// [`CachedCut::cut_with_query_component`] without the rest of the
    /// forest.
    ///
    /// # Errors
    /// As [`CachedCut::cut_with_query_component`].
    pub(crate) fn query_subgraph(&self, sims: &[f32]) -> Result<(Vec<usize>, f32), CoreError> {
        Ok(self.subgraph(self.dense_row(sims)?))
    }

    /// [`CachedCut::query_subgraph`] for a candidate row.
    ///
    /// # Errors
    /// As [`CachedCut::cut_with_candidates_component`].
    pub(crate) fn candidates_subgraph(
        &self,
        candidates: &[u32],
        cand_sims: &[f32],
    ) -> Result<(Vec<usize>, f32), CoreError> {
        let mut scattered = Vec::new();
        Ok(self.subgraph(self.candidate_row(candidates, cand_sims, &mut scattered)?))
    }

    /// A dense similarity row, length-checked.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims` is not length `n`.
    fn dense_row<'s>(&self, sims: &'s [f32]) -> Result<QueryRow<'s>, CoreError> {
        if sims.len() != self.n {
            return Err(CoreError::Invalid(format!(
                "similarity row length {} != author count {}",
                sims.len(),
                self.n
            )));
        }
        Ok(QueryRow { ids: None, sims })
    }

    /// A candidate row, checked; unsorted or duplicated ids are scattered
    /// into `scattered` as a dense `-inf` row instead.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when the two slices disagree in length or a
    /// candidate id is out of range.
    fn candidate_row<'s>(
        &self,
        candidates: &'s [u32],
        cand_sims: &'s [f32],
        scattered: &'s mut Vec<f32>,
    ) -> Result<QueryRow<'s>, CoreError> {
        if candidates.len() != cand_sims.len() {
            return Err(CoreError::Invalid(format!(
                "{} candidate ids but {} scores",
                candidates.len(),
                cand_sims.len()
            )));
        }
        // u32 widens losslessly into usize on every supported target.
        if let Some(&id) = candidates.iter().find(|&&id| id as usize >= self.n) {
            return Err(CoreError::Invalid(format!(
                "candidate id {id} out of range (n = {})",
                self.n
            )));
        }
        if candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Ok(QueryRow {
                ids: Some(candidates),
                sims: cand_sims,
            });
        }
        *scattered = vec![f32::NEG_INFINITY; self.n];
        for (&id, &s) in candidates.iter().zip(cand_sims) {
            // Same lossless u32 -> usize widening as above.
            if let Some(slot) = scattered.get_mut(id as usize) {
                *slot = s;
            }
        }
        Ok(QueryRow {
            ids: None,
            sims: scattered,
        })
    }

    /// The query's full forest and its component.
    fn forest_and_component(&self, row: QueryRow<'_>) -> (SpanningForest, Vec<usize>) {
        let cut = self.forest_cut(row);
        (self.full_forest(&cut), cut.component)
    }

    /// The query's component and the mean weight of the forest edges
    /// inside it.
    fn subgraph(&self, row: QueryRow<'_>) -> (Vec<usize>, f32) {
        let cut = self.forest_cut(row);
        let avg = cut.avg_weight();
        (cut.component, avg)
    }

    /// The output-sensitive cut (DESIGN.md §10): where the pop loop stops,
    /// the query edges it pops, the query's component and the forest
    /// edges inside it. Costs one pass over the scored nodes plus time in
    /// the popped query edges and the component; the backbone outside the
    /// component is never walked.
    // Node ids are < n (row ids, backbone endpoints) or the query node n,
    // `slot` has n + 1 entries, and backbone indices come from this
    // backbone's own index.
    #[allow(clippy::indexing_slicing)]
    fn forest_cut(&self, row: QueryRow<'_>) -> ForestCut {
        let n = self.n;
        let base = &self.base_edges;
        let index = self.forest_index();
        let edge_of = |u: usize, w: f32| graph_edge(u, n, w, self.min_sim);
        let query_edge = |i: usize| row.score_of(i).and_then(|s| edge_of(i, s));
        let later = |t: Option<Edge>, e: Edge| match t {
            Some(t) if pops_before(&e, &t) => t,
            _ => e,
        };

        // 1. Stop point: the loop stops at the edge that covers the last
        //    node, and a node is first covered by the earlier of its first
        //    backbone edge and its query edge. `exhausted` marks a node with
        //    neither: the loop then runs every edge.
        let mut stop: Option<Edge> = None;
        let mut exhausted = false;
        for &i in &index.isolated {
            // Index entries are u32, which widens losslessly into usize.
            match query_edge(i as usize) {
                Some(q) => stop = Some(later(stop, q)),
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        if !exhausted {
            // Latest-covered nodes first. Once a node's cover edge pops no
            // later than the stop so far, no node left can move it.
            for &(i, c) in index.cover_order.iter().rev() {
                // Index entries are u32, which widens losslessly into usize.
                let (i, cover) = (i as usize, base[c as usize]);
                if stop.is_some_and(|t| !pops_before(&t, &cover)) {
                    break;
                }
                match query_edge(i) {
                    Some(q) if pops_before(&q, &cover) => stop = Some(later(stop, q)),
                    _ => {
                        stop = Some(later(stop, cover));
                        break;
                    }
                }
            }
        }

        // 2. The popped query edges: those at or before the stop point.
        //    The query node is first covered by its strongest edge; when
        //    that pops after the stop point, it is the stop point and the
        //    only popped query edge.
        let mut strongest: Option<Edge> = None;
        let mut popped = Vec::new();
        for (i, s) in row.scored() {
            let Some(q) = edge_of(i, s) else { continue };
            if strongest.is_none_or(|t| pops_before(&q, &t)) {
                strongest = Some(q);
            }
            if exhausted || stop.is_some_and(|t| !pops_before(&t, &q)) {
                popped.push(q);
            }
        }
        let stop = match (stop, strongest) {
            _ if exhausted => None,
            (_, None) => None, // the query node is never covered
            (Some(t), Some(top)) if !pops_before(&t, &top) => Some(t),
            (_, Some(top)) => {
                popped.push(top);
                Some(top)
            }
        };
        // Every query edge ends at node n: the keys are unique.
        popped.sort_unstable_by(stack_pop_order);
        let popped_base = stop.map_or(base.len(), |t| {
            base.partition_point(|b| !pops_before(&t, b))
        });

        // 3. The component: the query plus everything the popped backbone
        //    edges reach from the popped query edges' endpoints.
        const UNSEEN: usize = usize::MAX;
        let mut slot = vec![UNSEEN; n + 1];
        let mut queue = Vec::new();
        for q in &popped {
            if slot[q.u] == UNSEEN {
                slot[q.u] = 0;
                queue.push(q.u);
            }
        }
        let mut component_base = Vec::new();
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            for &(y, idx) in index.neighbours(x) {
                // Index entries are u32, which widens losslessly into usize.
                let (y, idx) = (y as usize, idx as usize);
                if idx >= popped_base {
                    break; // ascending: the rest are never popped
                }
                if x < y {
                    component_base.push(idx); // each edge once
                }
                if slot[y] == UNSEEN {
                    slot[y] = 0;
                    queue.push(y);
                }
            }
        }
        // The component in ascending order, the query node last, and each
        // member's slot set to its position: one sequential pass over the
        // slots, which costs no more than sorting the queue when the
        // component is small and far less when it spans most of the graph.
        let mut component = Vec::with_capacity(queue.len() + 1);
        for (x, s) in slot.iter_mut().enumerate() {
            if *s != UNSEEN || x == n {
                *s = component.len();
                component.push(x);
            }
        }
        component_base.sort_unstable();

        // 4. Kruskal over the component's popped edges in pop order: the
        //    loop's keep rule, `new_u || new_v || !connected`, is
        //    `!connected` here, and no popped edge leaves the component.
        let mut uf = UnionFind::new(component.len());
        let kept = merge_pop_order(
            component_base.iter().map(|&i| base[i]),
            popped.iter().copied(),
        )
        .filter(|e| uf.union(slot[e.u], slot[e.v]))
        .collect();
        soulmate_obs::global().incr(
            "engine.edges_examined",
            (component_base.len() + popped.len()) as u64,
        );
        ForestCut {
            component,
            kept,
            popped_base,
            component_base,
        }
    }

    /// The whole forest a [`ForestCut`] stands for: the popped backbone
    /// outside the component, which the loop keeps whole because it is a
    /// forest, merged with the kept edges inside the component.
    fn full_forest(&self, cut: &ForestCut) -> SpanningForest {
        let mut inside = cut.component_base.iter().copied().peekable();
        let outside = self
            .base_edges
            .iter()
            .take(cut.popped_base)
            .enumerate()
            .filter(move |&(i, _)| inside.next_if_eq(&i).is_none())
            .map(|(_, &e)| e);
        let edges = merge_pop_order(outside, cut.kept.iter().copied()).collect();
        SpanningForest::new(self.n + 1, edges)
    }

    /// Permanently admit one new author into the cached cut: Kruskal's
    /// algorithm run to completion over the backbone merged with the new
    /// author's edges, which keeps exactly the grown graph's maximum
    /// spanning forest (DESIGN.md §10). The result is bit-identical to
    /// [`CachedCut::new`] over the grown `(n+1)²` similarity matrix
    /// (pinned by a property test), in `O(n log n)` instead of `O(n²)`,
    /// and reads no base matrix.
    ///
    /// `sims` is the new author's similarity to each existing author. The
    /// new author's node index is the pre-insert `n_authors()`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims` is not length `n` or the grown
    /// cut would not fit its `u32` index.
    pub fn insert_author(&mut self, sims: &[f32]) -> Result<(), CoreError> {
        *self = self.with_author(sims)?;
        Ok(())
    }

    /// [`CachedCut::insert_author`] into a new cut, leaving this one as it
    /// is.
    ///
    /// # Errors
    /// As [`CachedCut::insert_author`].
    pub(crate) fn with_author(&self, sims: &[f32]) -> Result<CachedCut, CoreError> {
        let n = self.n;
        let row = self.dense_row(sims)?;
        if !fits_forest_index(n + 1) {
            return Err(CoreError::Invalid(format!(
                "{} authors exceed the cut's u32 index",
                n + 1
            )));
        }
        let mut q_edges: Vec<Edge> = row
            .scored()
            .filter_map(|(i, s)| graph_edge(i, n, s, self.min_sim))
            .collect();
        // Every query edge ends at node n: the keys are unique.
        q_edges.sort_unstable_by(stack_pop_order);
        let mut uf = UnionFind::new(n + 1);
        let base_edges = merge_pop_order(self.base_edges.iter().copied(), q_edges.into_iter())
            .filter(|e| uf.union(e.u, e.v))
            .collect();
        Ok(CachedCut::assemble(n + 1, self.min_sim, base_edges))
    }
}

/// The ranking order of a node's `(neighbour, similarity)` entries:
/// similarity descending under the total order, ties by ascending id — a
/// strict order, so a ranked prefix is deterministic.
fn rank_order(a: &(usize, f32), b: &(usize, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The first `r` entries of `row` under [`rank_order`], in rank order.
/// The order is strict, so selecting the top-`r` partition and sorting
/// only that prefix gives the full sort's prefix in `O(len + r log r)`.
fn top_ranked(mut row: Vec<(usize, f32)>, r: usize) -> Vec<(usize, f32)> {
    if row.len() > r {
        if let Some(last) = r.checked_sub(1) {
            row.select_nth_unstable_by(last, rank_order);
        }
        row.truncate(r);
    }
    row.sort_unstable_by(rank_order);
    row
}

/// Two runs of distinct edges, each in [`stack_pop_order`], interleaved
/// in one pass: the full sort of their union. Holding each run's head by
/// value, rather than behind two `Peekable`s, made an insert's merge and
/// Kruskal pass about 20 % faster at n = 2048.
fn merge_pop_order(
    mut a: impl Iterator<Item = Edge>,
    mut b: impl Iterator<Item = Edge>,
) -> impl Iterator<Item = Edge> {
    let (mut x, mut y) = (a.next(), b.next());
    std::iter::from_fn(move || match (x, y) {
        (Some(ex), Some(ey)) if pops_before(&ey, &ex) => {
            y = b.next();
            Some(ey)
        }
        (Some(ex), _) => {
            x = a.next();
            Some(ex)
        }
        (None, ey) => {
            y = b.next();
            ey
        }
    })
}

/// The backbone of `WeightedGraph::from_similarity(sim, min_sim)` without
/// building that graph: its maximum spanning forest under
/// [`stack_pop_order`] (unique, because the order is strict), sorted in
/// pop order.
///
/// The forest comes from dense Prim over the matrix, `O(n²)` time and
/// `O(n)` memory: a node's frontier key is its strongest edge into the
/// tree; when no outside node has one, the next tree of the forest
/// starts. Edge `(a, b)`, `a < b`, weighs `sim[a][b]` and exists by
/// [`graph_edge`].
// `sim` is verified square (n×n) by the caller and every node id below
// comes from `0..n`, so no index can go out of bounds.
#[allow(clippy::indexing_slicing)]
fn backbone(sim: &[Vec<f32>], min_sim: f32) -> Vec<Edge> {
    let n = sim.len();
    let edge = |x: usize, y: usize| -> Option<Edge> {
        let (u, v) = (x.min(y), x.max(y));
        graph_edge(u, v, sim[u][v], min_sim)
    };
    // Does `a` pop before the incumbent key `b`?
    let stronger = |a: &Edge, b: &Option<Edge>| match b {
        Some(b) => pops_before(a, b),
        None => true,
    };

    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut key: Vec<Option<Edge>> = vec![None; n];
    let mut outside: Vec<usize> = (0..n).collect();
    while !outside.is_empty() {
        let mut pick = 0;
        for pos in 1..outside.len() {
            if let Some(e) = &key[outside[pos]] {
                if stronger(e, &key[outside[pick]]) {
                    pick = pos;
                }
            }
        }
        let u = outside.swap_remove(pick);
        if let Some(e) = key[u] {
            edges.push(e);
        }
        for &v in &outside {
            if let Some(e) = edge(u, v) {
                if stronger(&e, &key[v]) {
                    key[v] = Some(e);
                }
            }
        }
    }
    edges.sort_unstable_by(stack_pop_order);
    edges
}

/// One similarity channel of the i8 fast path: the engine's unit rows,
/// mean-centered and residual-quantized, plus the exact `f32` cross terms
/// that reassemble a full cosine from a residual-only integer dot.
///
/// With `μ` the mean unit row, `r_a = â − μ` and `r_q = q̂ − μ`:
///
/// ```text
/// dot(q̂, â) = dot(r_q, r_a) + dot(q̂, μ) + dot(â, μ) − dot(μ, μ)
/// ```
///
/// Only the residual·residual term is approximated in i8 — its per-row
/// scales are proportional to the *residual* magnitude, so the stage-1
/// ranking error stays at the ~1/254 level even when every author's unit
/// row clusters around one dominant direction (exactly the regime where
/// quantizing the raw rows would drown the z-scored content channel in
/// rounding noise). The other three terms are exact: `corr[a] = dot(â, μ)`
/// is precomputed per author, `dot(q̂, μ)` costs O(d) per query.
#[derive(Debug, Clone)]
struct QuantChannel {
    /// Mean-centered residual-quantized unit rows.
    quant: CenteredQuantizedRows,
    /// Exact `dot(unit_row_a, mean)` per author.
    corr: Vec<f32>,
    /// Exact `dot(mean, mean)`.
    mean_sq: f32,
}

impl QuantChannel {
    /// Quantize one unit-row matrix and precompute its exact cross terms.
    fn build(unit: &ChunkedRows) -> QuantChannel {
        let quant = CenteredQuantizedRows::quantize(unit);
        let corr = unit.iter_rows().map(|row| dot(row, quant.mean())).collect();
        let mean_sq = dot(quant.mean(), quant.mean());
        QuantChannel {
            quant,
            corr,
            mean_sq,
        }
    }

    /// Approximate `dot(query_row, unit_row_a)` for every query × author
    /// pair: residual·residual in i8 via [`gram_rect_i8_blocked`], exact
    /// cross terms added back per the type-level identity.
    ///
    /// # Errors
    /// [`CoreError::Internal`] when the query rows are ragged (vectorized
    /// rows always share the model dimension).
    fn approx_dots(&self, queries: &Matrix) -> Result<Vec<Vec<f32>>, CoreError> {
        let mut residuals = Vec::with_capacity(queries.rows());
        let mut query_corr = Vec::with_capacity(queries.rows());
        for row in queries.iter_rows() {
            query_corr.push(dot(row, self.quant.mean()));
            residuals.push(
                row.iter()
                    .zip(self.quant.mean())
                    .map(|(&v, &mu)| v - mu)
                    .collect::<Vec<f32>>(),
            );
        }
        let residuals = Matrix::from_rows(&residuals)
            .map_err(|_| CoreError::Internal("query rows share one dim"))?;
        let mut grid =
            gram_rect_i8_blocked(&QuantizedRows::quantize(&residuals), self.quant.rows());
        for (row, &cq) in grid.iter_mut().zip(&query_corr) {
            let shift = cq - self.mean_sq;
            for (v, &ca) in row.iter_mut().zip(&self.corr) {
                *v += shift + ca;
            }
        }
        Ok(grid)
    }
}

/// i8-quantized mirrors of the engine's unit row matrices, built once by
/// [`QueryEngine::enable_quant`]. Stage 1 of the quantized path scores
/// queries against these in integer arithmetic; the exact `f32` unit
/// matrices stay resident for the stage-2 re-rank.
#[derive(Debug, Clone)]
pub(crate) struct QuantState {
    /// Quantized unit content rows.
    content: QuantChannel,
    /// Quantized unit (mean-centered) concept rows.
    concept: QuantChannel,
}

/// Number of top approximate candidates the quantized path re-ranks
/// exactly when the caller passes `rerank = 0`.
pub const DEFAULT_QUANT_RERANK: usize = 128;

/// The per-path metric names [`QueryEngine::serve_candidates`] reports
/// under — the IVF and quantized retrievers share the stage-2 machinery
/// but must stay separately observable.
struct CandidateMetrics {
    stage2_seconds: &'static str,
    queries: &'static str,
    candidates: &'static str,
    candidate_fraction: &'static str,
    query_seconds: &'static str,
}

const IVF_METRICS: CandidateMetrics = CandidateMetrics {
    stage2_seconds: "engine.ivf.stage2.seconds",
    queries: "engine.ivf.queries",
    candidates: "engine.ivf.candidates",
    candidate_fraction: "engine.ivf.candidate_fraction",
    query_seconds: "engine.ivf.query.seconds",
};

const QUANT_METRICS: CandidateMetrics = CandidateMetrics {
    stage2_seconds: "engine.quant.stage2.seconds",
    queries: "engine.quant.queries",
    candidates: "engine.quant.candidates",
    candidate_fraction: "engine.quant.candidate_fraction",
    query_seconds: "engine.quant.query.seconds",
};

/// The retrieval plan an engine serves queries with: which candidate
/// stage picks the authors that get an exact score before the cut.
///
/// The mode is a property of the *deployment*, not of one generation:
/// [`crate::ingest::EngineGeneration::ingest`] and
/// [`crate::ingest::RefitManager::refit`] both propagate it, so a
/// quantized server stays quantized across swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Score every author exactly.
    Exact,
    /// IVF candidate retrieval: probe `nprobe` centroids (`0` = the index
    /// default) and exact-score only the candidates. Without an attached
    /// index (e.g. after a delta ingest detached it) queries are served
    /// exactly and counted in `engine.ivf.fallbacks`.
    Ivf { nprobe: usize },
    /// i8 stage-1 scoring of every author, then an exact re-score of the
    /// top `rerank` (`0` = [`DEFAULT_QUANT_RERANK`]). Without the i8
    /// state queries are served exactly and counted in
    /// `engine.quant.fallbacks`.
    Quant { rerank: usize },
}

/// Precomputed online serving state over a [`QueryModel`] and its
/// [`CachedCut`].
///
/// Build once per fitted [`Pipeline`] (whose cut costs `O(n²)` — the same
/// work one legacy query paid) or loaded [`PipelineSnapshot`] (which
/// carries its cut, so the build is `O(n·d)`), then serve every query in
/// `O(n·d + n log n)` with answers identical to
/// [`crate::online::link_query`].
#[derive(Debug, Clone)]
pub struct QueryEngine<'a> {
    model: QueryModel<'a>,
    parts: EngineParts,
}

/// The engine's model-independent derived state, every piece behind an
/// [`Arc`] so an owned generation ([`crate::ingest::EngineGeneration`])
/// can hand out borrowed [`QueryEngine`] views without rebuilding or
/// cloning the `O(n·d)` / `O(n)` structures per request — cloning
/// `EngineParts` is five reference-count bumps.
#[derive(Debug, Clone)]
pub(crate) struct EngineParts {
    /// Author content rows scaled to unit norm.
    pub(crate) content_rows: Arc<ChunkedRows>,
    /// Author concept rows centered by the population means, then scaled
    /// to unit norm.
    pub(crate) concept_rows: Arc<ChunkedRows>,
    pub(crate) cut: Arc<CachedCut>,
    /// Optional sub-linear candidate retriever. `None` = the IVF plan
    /// serves the exact path (and counts the fallback).
    pub(crate) index: Option<Arc<IvfIndex>>,
    /// Optional i8 fast path. `None` = the quantized plan serves the
    /// exact path (and counts the fallback).
    pub(crate) quant: Option<Arc<QuantState>>,
    /// The plan [`QueryEngine::link_query_authors`] serves.
    pub(crate) mode: EngineMode,
}

impl<'a> QueryEngine<'a> {
    /// Precompute the normalized author rows and serve them with `cut`,
    /// the model's cached graph cut. The engine serves
    /// [`EngineMode::Exact`] until [`QueryEngine::with_mode`] picks
    /// another plan.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when the cut and the author matrices
    /// disagree on the author count, [`CoreError::Linalg`] when a
    /// [`soulmate_linalg::RowSource`] hands out a row of the wrong width.
    pub fn new(model: QueryModel<'a>, cut: Arc<CachedCut>) -> Result<QueryEngine<'a>, CoreError> {
        let obs = soulmate_obs::global();
        let start = std::time::Instant::now();
        let n = model.author_content.rows();
        if cut.n_authors() != n || model.author_concept.rows() != n {
            return Err(CoreError::Invalid(format!(
                "cut over {} authors, author matrices with {n} and {} rows",
                cut.n_authors(),
                model.author_concept.rows()
            )));
        }
        let content_rows = unit_rows(model.author_content, None)?;
        let concept_rows = unit_rows(model.author_concept, Some(model.concept_means))?;
        obs.record_duration("engine.build.seconds", start.elapsed());
        obs.incr("engine.builds", 1);
        obs.set_gauge("engine.n_authors", cut.n_authors() as f64);
        Ok(QueryEngine {
            model,
            parts: EngineParts {
                content_rows: Arc::new(content_rows),
                concept_rows: Arc::new(concept_rows),
                cut,
                index: None,
                quant: None,
                mode: EngineMode::Exact,
            },
        })
    }

    /// Reassemble an engine from a model plus previously derived parts —
    /// the cheap (reference-count-only) path [`crate::ingest`] uses to
    /// hand out a per-request engine view over an owned generation.
    pub(crate) fn from_parts(model: QueryModel<'a>, parts: EngineParts) -> QueryEngine<'a> {
        QueryEngine { model, parts }
    }

    /// The engine's shared derived state (see [`EngineParts`]).
    pub(crate) fn parts(&self) -> &EngineParts {
        &self.parts
    }

    /// The model this engine serves.
    pub fn model(&self) -> &QueryModel<'a> {
        &self.model
    }

    /// The cached query-independent graph cut.
    pub fn cut(&self) -> &CachedCut {
        &self.parts.cut
    }

    /// Number of authors in the served model.
    pub fn n_authors(&self) -> usize {
        self.parts.cut.n_authors()
    }

    /// The plan [`QueryEngine::link_query_authors`] serves.
    pub fn mode(&self) -> EngineMode {
        self.parts.mode
    }

    /// The same engine serving another plan — a few reference-count
    /// bumps, so one build can compare exact, IVF and quantized answers.
    /// The plan's structure must already be built
    /// ([`QueryEngine::build_index`] / [`QueryEngine::enable_quant`]);
    /// without it queries fall back to the exact path.
    pub fn with_mode(&self, mode: EngineMode) -> QueryEngine<'a> {
        let mut engine = self.clone();
        engine.parts.mode = mode;
        engine
    }

    /// Link a batch of query authors under the engine's plan
    /// ([`QueryEngine::mode`]) — the one query method. The exact plan
    /// gives the same answers as [`crate::online::link_query`], amortized:
    /// the similarity rows of the whole batch are computed with two
    /// chunk-wise scoring calls ([`ChunkedRows::dots`]), then each query
    /// is cut against the cached backbone independently. The IVF and quantized
    /// plans pick each query's candidates first and score only those
    /// exactly.
    ///
    /// Outcomes are index-aligned with `queries`, and each is
    /// bit-identical to serving its query alone.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when any query has no tweets or no
    /// in-vocabulary token (the batch fails as a whole so outcomes never
    /// silently skip an index).
    pub fn link_query_authors(
        &self,
        queries: &[Vec<(Timestamp, String)>],
    ) -> Result<Vec<QueryOutcome>, CoreError> {
        let qvecs = queries
            .iter()
            .map(|tweets| vectorize_query(&self.model, tweets))
            .collect::<Result<Vec<_>, _>>()?;
        match self.parts.mode {
            EngineMode::Exact => self.serve(qvecs),
            EngineMode::Ivf { nprobe } => self.serve_ivf(qvecs, nprobe),
            EngineMode::Quant { rerank } => self.serve_quant(qvecs, rerank),
        }
    }

    /// Serve pre-vectorized queries. The only failure modes left at this
    /// point are internal-invariant violations (vectorized rows always
    /// share the model dimension; the cut always contains the query node),
    /// surfaced as [`CoreError::Internal`] rather than panics.
    fn serve(&self, qvecs: Vec<QueryVectors>) -> Result<Vec<QueryOutcome>, CoreError> {
        if qvecs.is_empty() {
            return Ok(Vec::new());
        }
        // out[q][a] = dot(query_unit_row, author_unit_row) — entry for
        // entry the same dot calls the legacy per-author loop makes.
        let (content_q, concept_q) = query_unit_rows(&qvecs);
        let content_dots = self.parts.content_rows.dots(&content_q);
        let concept_dots = self.parts.concept_rows.dots(&concept_q);

        let obs = soulmate_obs::global();
        let query_index = self.parts.cut.n_authors();
        let mut outcomes = Vec::with_capacity(qvecs.len());
        for (qi, q) in qvecs.into_iter().enumerate() {
            let start = std::time::Instant::now();
            let (content_row, concept_row) = content_dots
                .get(qi)
                .zip(concept_dots.get(qi))
                .ok_or(CoreError::Internal("one dot row per query"))?;
            let similarities = fused_row_from_dots(&self.model, content_row, concept_row);
            let cut = self.parts.cut.query_subgraph(&similarities)?;
            outcomes.push(outcome(q, query_index, similarities, cut));
            obs.record_duration("engine.query.seconds", start.elapsed());
            obs.incr("engine.queries", 1);
        }
        Ok(outcomes)
    }

    /// Feature-space dimensionality the retrieval index routes in: the
    /// concatenation of the content and (centered) concept unit rows.
    pub fn retrieval_dim(&self) -> usize {
        self.parts.content_rows.cols() + self.parts.concept_rows.cols()
    }

    /// The author feature matrix the IVF index is built over: row `a` is
    /// `[(1-α)/σ_content · ĉ_a  |  α/σ_concept · p̂_a]` where `ĉ_a` / `p̂_a`
    /// are the unit content / centered-concept rows. A query probes with
    /// the plain concatenation of its own unit vectors, so the probe dot
    /// equals the fused score (Eq 17) up to a per-query constant shift
    /// (the z-score means) and the ±1 cosine clamp — both
    /// ranking-preserving — which makes "nearest centroid" in this space
    /// agree with the order the exact engine ranks authors in.
    ///
    /// # Errors
    /// [`CoreError::Linalg`] when the rows are ragged (cannot happen for
    /// an engine built by [`QueryEngine::new`]).
    pub fn retrieval_features(&self) -> Result<Matrix, CoreError> {
        let (w_content, w_concept) = fusion_weights(&self.model);
        let n = self.parts.cut.n_authors();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
        for a in 0..n {
            let mut row = Vec::with_capacity(self.retrieval_dim());
            row.extend(
                self.parts
                    .content_rows
                    .row(a)
                    .iter()
                    .map(|&v| v * w_content),
            );
            row.extend(
                self.parts
                    .concept_rows
                    .row(a)
                    .iter()
                    .map(|&v| v * w_concept),
            );
            rows.push(row);
        }
        Ok(Matrix::from_rows(&rows)?)
    }

    /// Build (or rebuild) the IVF candidate index over
    /// [`QueryEngine::retrieval_features`] and attach it to this engine.
    ///
    /// # Errors
    /// [`CoreError::Retrieval`] when the index cannot be built (empty
    /// model, unusable configuration).
    pub fn build_index(&mut self, config: &IvfConfig) -> Result<(), CoreError> {
        let features = self.retrieval_features()?;
        self.parts.index = Some(Arc::new(IvfIndex::build(&features, config)?));
        Ok(())
    }

    /// The attached retrieval index, if any.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.parts.index.as_deref()
    }

    /// Probe the attached index for one query's candidate author set
    /// without serving the query — `Ok(None)` when no index is attached.
    /// The recall@k harness in `soulmate-eval` measures exactly this set
    /// against the exact engine's top-k ranking.
    ///
    /// # Errors
    /// Same vectorization conditions as
    /// [`QueryEngine::link_query_authors`], plus [`CoreError::Retrieval`]
    /// if the probe itself fails.
    pub fn candidate_ids(
        &self,
        tweets: &[(Timestamp, String)],
        nprobe: usize,
    ) -> Result<Option<Vec<u32>>, CoreError> {
        let Some(index) = &self.parts.index else {
            return Ok(None);
        };
        let q = vectorize_query(&self.model, tweets)?;
        Ok(Some(index.probe(&probe_vector(&q), nprobe)?.ids))
    }

    /// Serve pre-vectorized queries through the IVF two-stage path
    /// ([`EngineMode::Ivf`]).
    ///
    /// Stage 1 probes `nprobe` centroids (`0` = the index default) per
    /// query; stage 2 exact-scores the union of all candidate sets (one
    /// scoring call per matrix, not one per query) through the same `dot`
    /// / [`fused_row_from_dots`] sequence as [`QueryEngine::serve`]
    /// (so a candidate's score is bit-identical to its exact-path score)
    /// and cuts each query against the cached backbone like
    /// [`CachedCut::cut_with_candidates_component`], every non-candidate scored as
    /// "no edge" (reported as `0.0` in [`QueryOutcome::similarities`]).
    /// Exhaustive probes (`nprobe >= n_centroids`) reuse the full unit
    /// matrices, making the whole outcome bit-identical to the exact path.
    ///
    /// A missing index or any probe failure downgrades the whole batch to
    /// the exact path (counted in `engine.ivf.fallbacks`) — retrieval is
    /// an optimization, never a reason to fail a query.
    fn serve_ivf(
        &self,
        qvecs: Vec<QueryVectors>,
        nprobe: usize,
    ) -> Result<Vec<QueryOutcome>, CoreError> {
        if qvecs.is_empty() {
            return Ok(Vec::new());
        }
        let obs = soulmate_obs::global();
        let Some(index) = &self.parts.index else {
            obs.incr("engine.ivf.fallbacks", 1);
            return self.serve(qvecs);
        };

        // ---- Stage 1: probe the coarse index per query. ----
        let probe_start = std::time::Instant::now();
        let mut candidate_sets: Vec<Candidates> = Vec::with_capacity(qvecs.len());
        for q in &qvecs {
            match index.probe(&probe_vector(q), nprobe) {
                Ok(c) => candidate_sets.push(c),
                Err(_) => {
                    // The index disagrees with the model (foreign dims).
                    // `build_index` over this engine's own features makes
                    // this unreachable, but an optimization must never
                    // fail a query: downgrade.
                    obs.incr("engine.ivf.fallbacks", 1);
                    return self.serve(qvecs);
                }
            }
        }
        obs.record_duration("engine.ivf.probe.seconds", probe_start.elapsed());

        let sets: Vec<Vec<u32>> = candidate_sets.into_iter().map(|c| c.ids).collect();
        self.serve_candidates(qvecs, sets, &IVF_METRICS)
    }

    /// Stage 2 shared by the IVF and quantized retrievers: exact-score
    /// every query against the union of all candidate sets (one
    /// [`ChunkedRows::dots_at`] call per matrix, not one per query) and
    /// cut each query against the cached backbone like
    /// [`CachedCut::cut_with_candidates_component`]. A candidate's
    /// reported score is bit-identical to its exact-path score — stage 1
    /// only ever decides *which* authors get scored. When the union covers
    /// every author, every author gets its exact-path score, so the whole
    /// outcome is bit-identical to [`QueryEngine::serve`].
    // Indexing is in-bounds by construction: both candidate producers (the
    // IVF probe, built by `build_index` over these rows, and the quantized
    // top-R selection over 0..n) emit author ids < n; `pos_of` has n
    // entries written for every union member before any read;
    // `fused_union` has one entry per union member.
    #[allow(clippy::indexing_slicing)]
    fn serve_candidates(
        &self,
        qvecs: Vec<QueryVectors>,
        candidate_sets: Vec<Vec<u32>>,
        metrics: &CandidateMetrics,
    ) -> Result<Vec<QueryOutcome>, CoreError> {
        let obs = soulmate_obs::global();
        let n = self.parts.cut.n_authors();

        // Union of every query's candidates, ascending; `pos_of[id]` maps
        // an author id to its row in the stage-2 submatrices.
        let mut in_union = vec![false; n];
        for ids in &candidate_sets {
            for &id in ids {
                // u32 widens losslessly into usize on supported targets.
                in_union[id as usize] = true;
            }
        }
        let mut union_ids: Vec<u32> = Vec::new();
        let mut pos_of: Vec<u32> = vec![u32::MAX; n];
        for (id, &hit) in in_union.iter().enumerate() {
            if hit {
                // union_ids.len() stays below n, which fits u32.
                pos_of[id] = union_ids.len() as u32;
                // id < n <= u32::MAX: enumerate over a length-n vec.
                union_ids.push(id as u32);
            }
        }

        // ---- Stage 2: exact-score the union, one scoring call per
        // matrix. The rows are read in place through the store (no
        // gather copy), each score the same dot the exact path takes. ----
        let stage2_start = std::time::Instant::now();
        let (content_q, concept_q) = query_unit_rows(&qvecs);
        let content_dots = self.parts.content_rows.dots_at(&content_q, &union_ids);
        let concept_dots = self.parts.concept_rows.dots_at(&concept_q, &union_ids);
        obs.record_duration(metrics.stage2_seconds, stage2_start.elapsed());

        let query_index = n;
        let mut outcomes = Vec::with_capacity(qvecs.len());
        for (qi, q) in qvecs.into_iter().enumerate() {
            let start = std::time::Instant::now();
            let ids = &candidate_sets[qi];
            let (content_row, concept_row) = content_dots
                .get(qi)
                .zip(concept_dots.get(qi))
                .ok_or(CoreError::Internal("one dot row per query"))?;
            // Fused scores over the union rows, then scatter this query's
            // own candidates: non-candidates report 0.0 ("not scored") in
            // the outcome but are -inf ("no edge") for the cut.
            let fused_union = fused_row_from_dots(&self.model, content_row, concept_row);
            let mut similarities = vec![0.0f32; n];
            let mut cand_sims: Vec<f32> = Vec::with_capacity(ids.len());
            for &id in ids {
                // u32 widens losslessly into usize on supported targets.
                let s = fused_union[pos_of[id as usize] as usize];
                // Same lossless u32 -> usize widening as the line above.
                similarities[id as usize] = s;
                cand_sims.push(s);
            }
            let cut = self.parts.cut.candidates_subgraph(ids, &cand_sims)?;
            outcomes.push(outcome(q, query_index, similarities, cut));
            obs.incr(metrics.queries, 1);
            obs.record(metrics.candidates, ids.len() as f64);
            obs.record(
                metrics.candidate_fraction,
                ids.len() as f64 / n.max(1) as f64,
            );
            obs.record_duration(metrics.query_seconds, start.elapsed());
        }
        Ok(outcomes)
    }

    /// Build the i8 fast path: quantize this engine's unit content and
    /// centered-concept rows ([`QuantizedRows`], one byte per value plus a
    /// per-row scale and exact norm). The exact `f32` matrices stay
    /// resident — stage 2 of the [`EngineMode::Quant`] plan re-ranks the
    /// top candidates through them, so a reported candidate score is
    /// always the exact one. Quantization is deterministic, so two engines
    /// over the same model build identical state.
    pub fn enable_quant(&mut self) {
        let obs = soulmate_obs::global();
        let start = std::time::Instant::now();
        self.parts.quant = Some(Arc::new(QuantState {
            content: QuantChannel::build(&self.parts.content_rows),
            concept: QuantChannel::build(&self.parts.concept_rows),
        }));
        obs.record_duration("engine.quant.build.seconds", start.elapsed());
        obs.incr("engine.quant.builds", 1);
    }

    /// Is the i8 fast path built?
    pub fn quant_enabled(&self) -> bool {
        self.parts.quant.is_some()
    }

    /// Serve pre-vectorized queries through the quantized two-stage path
    /// ([`EngineMode::Quant`]): one i8 Gram call per matrix scores the
    /// whole batch (stage 1), each query keeps its `rerank` highest
    /// approximate fused scores (`0` = [`DEFAULT_QUANT_RERANK`]), and the
    /// shared [`QueryEngine::serve_candidates`] stage exact-scores and
    /// cuts them. Quantization error can only change *which* authors are
    /// scored, never a reported score; non-candidates report `0.0` ("not
    /// scored") exactly like the IVF retriever, and `rerank >= n_authors()`
    /// makes the whole outcome bit-identical to the exact path. Without
    /// [`QueryEngine::enable_quant`] this serves the exact path and bumps
    /// `engine.quant.fallbacks`.
    fn serve_quant(
        &self,
        qvecs: Vec<QueryVectors>,
        rerank: usize,
    ) -> Result<Vec<QueryOutcome>, CoreError> {
        if qvecs.is_empty() {
            return Ok(Vec::new());
        }
        let obs = soulmate_obs::global();
        let n = self.parts.cut.n_authors();
        // u32::MAX widens losslessly into usize on every supported target;
        // candidate ids are u32, so a larger model serves exactly.
        let oversize = n > u32::MAX as usize;
        let Some(quant) = self.parts.quant.as_ref().filter(|_| !oversize) else {
            obs.incr("engine.quant.fallbacks", 1);
            return self.serve(qvecs);
        };
        let r = if rerank == 0 {
            DEFAULT_QUANT_RERANK
        } else {
            rerank
        }
        .min(n);

        // ---- Stage 1: approximate fused scores in i8. Query unit rows
        // are residual-quantized against each channel's author mean; the
        // residual·residual term runs in integer arithmetic and the exact
        // cross terms are added back (see [`QuantChannel`]). ----
        let stage1_start = std::time::Instant::now();
        let content_q: Vec<Vec<f32>> = qvecs.iter().map(|q| q.content_unit.clone()).collect();
        let concept_q: Vec<Vec<f32>> = qvecs
            .iter()
            .map(|q| q.concept_centered_unit.clone())
            .collect();
        let content_q = Matrix::from_rows(&content_q)
            .map_err(|_| CoreError::Internal("query content rows share one dim"))?;
        let concept_q = Matrix::from_rows(&concept_q)
            .map_err(|_| CoreError::Internal("query concept rows share one dim"))?;
        let content_approx = quant.content.approx_dots(&content_q)?;
        let concept_approx = quant.concept.approx_dots(&concept_q)?;
        obs.record_duration("engine.quant.stage1.seconds", stage1_start.elapsed());

        // Per query: the top-`r` author ids by approximate fused score
        // under [`rank_order`] (strict, so the selection is
        // deterministic), emitted ascending for the sparse cut's fast
        // path.
        let mut candidate_sets: Vec<Vec<u32>> = Vec::with_capacity(qvecs.len());
        for qi in 0..qvecs.len() {
            let (content_row, concept_row) = content_approx
                .get(qi)
                .zip(concept_approx.get(qi))
                .ok_or(CoreError::Internal("one approx row per query"))?;
            let fused = fused_row_from_dots(&self.model, content_row, concept_row);
            let top = top_ranked(fused.into_iter().enumerate().collect(), r);
            // id < n <= u32::MAX (guarded above): value-preserving cast.
            let mut ids: Vec<u32> = top.into_iter().map(|(id, _)| id as u32).collect();
            ids.sort_unstable();
            candidate_sets.push(ids);
        }
        self.serve_candidates(qvecs, candidate_sets, &QUANT_METRICS)
    }
}

/// The α-blend / z-score scale factors baked into the author side of the
/// retrieval feature space. The stds are validated positive on every
/// snapshot load; a hand-built model with a degenerate std falls back to
/// an unscaled blend (ranking still sane, never a division by zero).
fn fusion_weights(model: &QueryModel<'_>) -> (f32, f32) {
    let guard = |std: f32| {
        if std.is_finite() && std > 0.0 {
            std
        } else {
            1.0
        }
    };
    (
        (1.0 - model.alpha) / guard(model.content_stats.1),
        model.alpha / guard(model.concept_stats.1),
    )
}

/// One query's outcome: its vectors, its reported similarity row and its
/// cut — the query node's component and the mean weight of the forest
/// edges inside it.
fn outcome(
    q: QueryVectors,
    query_index: usize,
    similarities: Vec<f32>,
    (subgraph, subgraph_avg_weight): (Vec<usize>, f32),
) -> QueryOutcome {
    QueryOutcome {
        query_index,
        subgraph_avg_weight,
        subgraph,
        content_vector: q.content,
        concept_vector: q.concept,
        similarities,
    }
}

/// Every row of `rows`, first centered by `center` when given, scaled to
/// unit norm with the query path's [`unit_scaled`] — so an author's unit
/// row is bitwise the query-side unit vector of the same raw vector, and
/// a delta ingest can append the query vectors it already has.
///
/// # Errors
/// [`CoreError::Linalg`] when a row is not `rows.cols()` wide.
fn unit_rows(rows: &dyn RowSource, center: Option<&[f32]>) -> Result<ChunkedRows, CoreError> {
    let mut out = ChunkedRows::new(rows.cols());
    let mut row = Vec::with_capacity(rows.cols());
    for a in 0..rows.rows() {
        row.clear();
        row.extend_from_slice(rows.row(a));
        if let Some(means) = center {
            sub_assign(&mut row, means);
        }
        // `unit_scaled` scales in place and hands the buffer back.
        row = unit_scaled(row);
        out.push_row(&row)?;
    }
    Ok(out)
}

/// The batch's unit content and centered-unit concept rows, borrowed for
/// the scoring calls.
fn query_unit_rows(qvecs: &[QueryVectors]) -> (Vec<&[f32]>, Vec<&[f32]>) {
    qvecs
        .iter()
        .map(|q| {
            (
                q.content_unit.as_slice(),
                q.concept_centered_unit.as_slice(),
            )
        })
        .unzip()
}

/// The probe-side vector for the retrieval feature space: the plain
/// concatenation of the query's unit content and centered-unit concept
/// vectors (the blend weights live on the author side, see
/// [`QueryEngine::retrieval_features`]).
fn probe_vector(q: &QueryVectors) -> Vec<f32> {
    let mut v = Vec::with_capacity(q.content_unit.len() + q.concept_centered_unit.len());
    v.extend_from_slice(&q.content_unit);
    v.extend_from_slice(&q.concept_centered_unit);
    v
}

/// Build the amortized serving engine over `model` and its `cut`,
/// serving `mode`: the IVF plan builds an index from the model's own
/// matrices with [`IvfConfig::default`], the quantized plan builds the
/// i8 state. (Custom index configurations go through
/// [`QueryEngine::build_index`] and [`QueryEngine::with_mode`].)
fn plan_engine(
    model: QueryModel<'_>,
    cut: Arc<CachedCut>,
    mode: EngineMode,
) -> Result<QueryEngine<'_>, CoreError> {
    let mut engine = QueryEngine::new(model, cut)?;
    match mode {
        EngineMode::Exact => {}
        EngineMode::Ivf { .. } => engine.build_index(&IvfConfig::default())?,
        EngineMode::Quant { .. } => engine.enable_quant(),
    }
    engine.parts.mode = mode;
    Ok(engine)
}

impl Pipeline {
    /// Build the amortized serving engine over this fitted pipeline,
    /// serving `mode` (see [`PipelineSnapshot::query_engine`]): the cut
    /// is built from `x_total` here, in `O(n²)`.
    ///
    /// # Errors
    /// [`CoreError`] when the fused similarity matrix is ragged (cannot
    /// happen for a pipeline fitted by [`Pipeline::fit`]) or the index
    /// cannot be built.
    pub fn query_engine(&self, mode: EngineMode) -> Result<QueryEngine<'_>, CoreError> {
        let cut = CachedCut::new(&self.x_total, self.config.graph_min_sim)?;
        plan_engine(self.query_model(), Arc::new(cut), mode)
    }
}

impl PipelineSnapshot {
    /// Build the amortized serving engine over this loaded snapshot,
    /// serving `mode`, sharing the snapshot's cut: the IVF plan builds an
    /// index from the snapshot's own matrices with [`IvfConfig::default`],
    /// the quantized plan builds the i8 state. (Custom index
    /// configurations go through [`QueryEngine::build_index`] and
    /// [`QueryEngine::with_mode`].)
    ///
    /// # Errors
    /// [`CoreError`] when the cut does not cover the snapshot's authors (a
    /// validated snapshot's always does) or the index cannot be built.
    pub fn query_engine(&self, mode: EngineMode) -> Result<QueryEngine<'_>, CoreError> {
        plan_engine(self.query_model(), Arc::clone(&self.cut), mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::link_query;
    use crate::pipeline::PipelineConfig;
    use soulmate_check::{assume, check};
    use soulmate_corpus::{generate, GeneratorConfig};
    use soulmate_graph::{swmst, WeightedGraph};

    /// The legacy reference: extend the matrix, rebuild the graph, full
    /// sort, SW-MST.
    fn reference_cut(x_total: &[Vec<f32>], sims: &[f32], min_sim: f32) -> SpanningForest {
        let mut extended: Vec<Vec<f32>> = x_total
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut r = row.clone();
                r.push(sims[i]);
                r
            })
            .collect();
        let mut qrow = sims.to_vec();
        qrow.push(1.0);
        extended.push(qrow);
        let graph = WeightedGraph::from_similarity(&extended, min_sim).unwrap();
        swmst(&graph)
    }

    fn assert_cut_matches(x: &[Vec<f32>], sims: &[f32], min_sim: f32) {
        let want = reference_cut(x, sims, min_sim);
        let cut = CachedCut::new(x, min_sim).unwrap();
        let got = cut.cut_with_query_component(sims).unwrap().0;
        assert_eq!(
            want.edges(),
            got.edges(),
            "forest mismatch: min_sim={min_sim} sims={sims:?}"
        );
        assert_eq!(want.components(), got.components());
    }

    #[test]
    fn cached_cut_hand_picked_edge_cases() {
        let sym = |rows: &[&[f32]]| -> Vec<Vec<f32>> { rows.iter().map(|r| r.to_vec()).collect() };
        // Single author.
        assert_cut_matches(&sym(&[&[1.0]]), &[0.7], 0.5);
        assert_cut_matches(&sym(&[&[1.0]]), &[f32::NAN], 0.5);
        // Two authors: nothing clears the threshold, then the query does.
        let x2 = sym(&[&[1.0, 0.3], &[0.3, 1.0]]);
        assert_cut_matches(&x2, &[0.9, 0.1], 10.0);
        assert_cut_matches(&x2, &[0.9, 0.1], 0.25);
        // Query weaker than everything.
        assert_cut_matches(&x2, &[-5.0, -5.0], 0.25);
        // Ties everywhere: the pop order's endpoint tie-break must agree
        // with the rebuild.
        let flat = sym(&[
            &[1.0, 0.5, 0.5, 0.5],
            &[0.5, 1.0, 0.5, 0.5],
            &[0.5, 0.5, 1.0, 0.5],
            &[0.5, 0.5, 0.5, 1.0],
        ]);
        assert_cut_matches(&flat, &[0.5, 0.5, 0.5, 0.5], 0.5);
        assert_cut_matches(&flat, &[0.5, 0.6, 0.4, 0.5], 0.45);
        // All-NaN query row: every query edge is dropped.
        let nan_sims = [f32::NAN, f32::NAN, f32::NAN, f32::NAN];
        assert_cut_matches(&flat, &nan_sims, 0.4);
        // Query stronger than everything.
        assert_cut_matches(&flat, &[9.0, 9.0, 9.0, 9.0], 0.4);
    }

    #[test]
    fn cut_with_query_rejects_wrong_row_length() {
        // Regression: this used to assert! and take the server down; a
        // mis-sized row is now a typed error.
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let cut = CachedCut::new(&x, 0.0).unwrap();
        let err = cut.cut_with_query_component(&[0.5]).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
        assert!(err.to_string().contains("similarity row length"));
        assert!(cut.cut_with_query_component(&[0.5, 0.5, 0.5]).is_err());
    }

    /// A symmetric `n × n` matrix with a unit diagonal whose entries are
    /// quarter steps (so ties are common), the extreme quarter NaN to
    /// exercise the total-order paths, plus a similarity row of length
    /// `n` and a quarter-step threshold.
    fn quarter_case(g: &mut soulmate_check::Gen, n: usize) -> (Vec<Vec<f32>>, Vec<f32>, f32) {
        let flat = g.vec(110, |g| g.f32(-2.0..2.0));
        let min_sim_raw = g.f32(-2.0..2.0);
        let quant = |v: f32| -> f32 {
            let q = (v * 4.0).round() / 4.0;
            if q > 1.75 {
                f32::NAN
            } else {
                q
            }
        };
        let mut x = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            x[i][i] = 1.0;
            for j in (i + 1)..n {
                let v = quant(flat[i * n + j]);
                x[i][j] = v;
                x[j][i] = v;
            }
        }
        let sims: Vec<f32> = (0..n).map(|i| quant(flat[n * n + i])).collect();
        (x, sims, (min_sim_raw * 4.0).round() / 4.0)
    }

    /// The cached cut must reproduce the full pipeline — extend, rebuild,
    /// re-sort, SW-MST — exactly: same forest edges, same components,
    /// across random matrices with heavy ties (quantized weights) and
    /// occasional NaN entries.
    #[test]
    fn prop_cached_cut_matches_full_rebuild() {
        check(96, |g| {
            let n = g.usize(1..9);
            let (x, sims, min_sim) = quarter_case(g, n);
            let want = reference_cut(&x, &sims, min_sim);
            let cut = CachedCut::new(&x, min_sim).unwrap();
            let got = cut.cut_with_query_component(&sims).unwrap().0;
            assert_eq!(want.edges(), got.edges());
            assert_eq!(want.components(), got.components());
        });
    }

    /// `insert_author` must leave the cut in *exactly* the state
    /// `CachedCut::new` builds over the grown `(n+1)²` matrix — same
    /// sorted backbone, weights bitwise — so a delta-updated engine and a
    /// refit engine serve identical queries. Ties and NaNs are exercised
    /// on purpose.
    #[test]
    fn prop_insert_author_matches_rebuilt_cut() {
        check(96, |g| {
            let n = g.usize(1..9);
            let (x, sims, min_sim) = quarter_case(g, n);
            // The grown symmetric matrix the rebuild sees.
            let mut grown: Vec<Vec<f32>> = x
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let mut r = row.clone();
                    r.push(sims[i]);
                    r
                })
                .collect();
            let mut qrow = sims.clone();
            qrow.push(1.0);
            grown.push(qrow);

            let mut cut = CachedCut::new(&x, min_sim).unwrap();
            cut.insert_author(&sims).unwrap();
            let want = CachedCut::new(&grown, min_sim).unwrap();
            assert_same_cut(&want, &cut);
        });
    }

    /// The sparse candidate cut must match scattering the same
    /// candidates into a dense `-inf` row, including -inf/NaN candidate
    /// scores and the fused component extraction.
    #[test]
    fn prop_sparse_candidate_cut_matches_dense_scatter() {
        check(96, |g| {
            let n = g.usize(2..9);
            let (x, row, min_sim) = quarter_case(g, n);
            let mask = g.u16(0..512);
            let specials = g.u8(0..8);

            let candidates: Vec<u32> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| i as u32)
                .collect();
            let mut cand_sims: Vec<f32> = row[..candidates.len()].to_vec();
            // Sprinkle the values the total order special-cases.
            if specials & 1 != 0 {
                if let Some(s) = cand_sims.first_mut() {
                    *s = f32::NEG_INFINITY;
                }
            }
            if specials & 2 != 0 {
                if let Some(s) = cand_sims.last_mut() {
                    *s = f32::NAN;
                }
            }
            if specials & 4 != 0 {
                let mid = cand_sims.len() / 2;
                if let Some(s) = cand_sims.get_mut(mid) {
                    *s = f32::from_bits(0xFFC0_0000); // negative NaN
                }
            }

            let mut dense = vec![f32::NEG_INFINITY; n];
            for (&id, &s) in candidates.iter().zip(&cand_sims) {
                dense[id as usize] = s;
            }
            let cut = CachedCut::new(&x, min_sim).unwrap();
            let want = cut.cut_with_query_component(&dense).unwrap().0;
            let (forest, component) = cut
                .cut_with_candidates_component(&candidates, &cand_sims)
                .unwrap();
            assert_eq!(want.edges(), forest.edges());
            assert_eq!(Some(component), want.query_subgraph(n));
        });
    }

    /// A similarity with heavy ties (quarter steps) and, now and then,
    /// one of the values the total order special-cases.
    fn tied_or_special(g: &mut soulmate_check::Gen) -> f32 {
        match g.u8(0..20) {
            0 => f32::NAN,
            1 => f32::from_bits(0xFFC0_0000), // negative NaN
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => -0.0,
            _ => (g.f32(-2.0..2.0) * 4.0).round() / 4.0,
        }
    }

    /// The output-sensitive cut must give exactly what the full rebuild —
    /// `from_similarity` plus SW-MST over the extended `(n+1)²` matrix —
    /// gives: the same forest edges (weights bitwise), the same component
    /// and the same `subgraph_avg_weight` bits, for dense and candidate
    /// rows, on cuts built directly, grown by `insert_author` /
    /// `with_author` chains and reassembled by `from_parts`.
    #[test]
    fn prop_forest_cut_matches_full_rebuild() {
        check(1200, |g| {
            let n = g.usize(0..12);
            let min_sim = match g.u8(0..8) {
                0 => f32::NEG_INFINITY,
                1 => f32::NAN,
                _ => (g.f32(-2.0..2.0) * 4.0).round() / 4.0,
            };
            let mut x = vec![vec![1.0f32; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = tied_or_special(g);
                    x[i][j] = v;
                    x[j][i] = v;
                }
            }
            // Build over the first rows, then grow the rest in.
            let built = n - g.usize(0..=n);
            let head: Vec<Vec<f32>> = x[..built].iter().map(|r| r[..built].to_vec()).collect();
            let mut cut = CachedCut::new(&head, min_sim).unwrap();
            for (i, row) in x.iter().enumerate().skip(built) {
                if g.u8(0..2) == 0 {
                    cut.insert_author(&row[..i]).unwrap();
                } else {
                    cut = cut.with_author(&row[..i]).unwrap();
                }
            }
            if g.u8(0..2) == 0 {
                cut = CachedCut::from_parts(n, min_sim, cut.base_edges.clone()).unwrap();
            }

            let sims: Vec<f32> = (0..n).map(|_| tied_or_special(g)).collect();
            let mask = g.u16(0..4096);
            let candidates: Vec<u32> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| i as u32)
                .collect();
            let cand_sims: Vec<f32> = candidates.iter().map(|&c| sims[c as usize]).collect();
            // The candidate row as the rebuild sees it: -inf elsewhere.
            let mut scattered = vec![f32::NEG_INFINITY; n];
            for &c in &candidates {
                scattered[c as usize] = sims[c as usize];
            }

            let edge_bits = |f: &SpanningForest| -> Vec<(usize, usize, u32)> {
                f.edges()
                    .iter()
                    .map(|e| (e.u, e.v, e.w.to_bits()))
                    .collect()
            };
            let got = [
                (
                    &sims,
                    cut.cut_with_query_component(&sims).unwrap(),
                    cut.query_subgraph(&sims).unwrap(),
                ),
                (
                    &scattered,
                    cut.cut_with_candidates_component(&candidates, &cand_sims)
                        .unwrap(),
                    cut.candidates_subgraph(&candidates, &cand_sims).unwrap(),
                ),
            ];
            for (row, (forest, component), (subgraph, avg)) in got {
                let want_forest = reference_cut(&x, row, min_sim);
                let want_component = want_forest.query_subgraph(n).unwrap();
                assert_eq!(edge_bits(&want_forest), edge_bits(&forest));
                assert_eq!(want_component, component);
                assert_eq!(want_component, subgraph);
                let want_avg = want_forest.component_avg_weight(&want_component);
                assert_eq!(want_avg.to_bits(), avg.to_bits());
            }
        });
    }

    #[test]
    fn sequential_inserts_match_rebuilds_at_every_step() {
        // Grow a cut three authors at a time and compare against a full
        // rebuild after every insert — covers backbones that contain
        // previously-inserted node indices.
        let x = vec![
            vec![1.0, 0.5, -0.25],
            vec![0.5, 1.0, 0.75],
            vec![-0.25, 0.75, 1.0],
        ];
        let new_rows = [
            vec![0.5, 0.8, 0.1],
            vec![0.9, 0.5, 0.5, 0.6],
            vec![0.75, -0.5, 0.75, 0.2, 0.75],
        ];
        for min_sim in [0.6f32, 10.0, 0.0, 0.25] {
            let mut cut = CachedCut::new(&x, min_sim).unwrap();
            let mut grown = x.clone();
            for sims in &new_rows {
                let n = grown.len();
                assert_eq!(sims.len(), n);
                for (row, &s) in grown.iter_mut().zip(sims.iter()) {
                    row.push(s);
                }
                let mut qrow = sims.clone();
                qrow.push(1.0);
                grown.push(qrow);
                cut.insert_author(sims).unwrap();
                let want = CachedCut::new(&grown, min_sim).unwrap();
                assert_same_cut(&want, &cut);
            }
        }
    }

    #[test]
    fn insert_author_rejects_bad_shapes() {
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let mut cut = CachedCut::new(&x, 0.0).unwrap();
        // Wrong sims length, short and long.
        for sims in [&[0.5][..], &[0.5, 0.5, 0.5]] {
            assert!(matches!(
                cut.insert_author(sims),
                Err(CoreError::Invalid(_))
            ));
        }
        assert_eq!(cut.n_authors(), 2, "a rejected insert leaves the cut alone");
    }

    /// A cut reassembled from its own parts — what a schema-3 snapshot
    /// persists — is the cut, field for field.
    #[test]
    fn from_parts_reassembles_the_cut() {
        let x = vec![
            vec![1.0, 0.5, -0.25, 0.75],
            vec![0.5, 1.0, 0.75, 0.5],
            vec![-0.25, 0.75, 1.0, 0.0],
            vec![0.75, 0.5, 0.0, 1.0],
        ];
        for min_sim in [0.6f32, 10.0, -1.0] {
            let cut = CachedCut::new(&x, min_sim).unwrap();
            let back = CachedCut::from_parts(4, min_sim, cut.base_edges.clone()).unwrap();
            assert_same_cut(&cut, &back);
        }
    }

    /// The backbone is a forest whose ids fit the index: a cycle, or a
    /// node count whose adjacency offsets pass `u32`, is a typed error
    /// before anything is sized from `n`.
    #[test]
    fn from_parts_rejects_cycles_and_oversized_node_counts() {
        let e = |u, v, w| Edge { u, v, w };
        let triangle = vec![e(0, 1, 0.9), e(1, 2, 0.8), e(0, 2, 0.7)];
        let err = CachedCut::from_parts(4, 0.0, triangle).unwrap_err();
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("cycle")),
            "{err:?}"
        );
        let past_u32 = (u32::MAX as usize) / 2 + 1;
        let err = CachedCut::from_parts(past_u32, 0.0, Vec::new()).unwrap_err();
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("u32")),
            "{err:?}"
        );
    }

    /// Every field of two cuts agrees, floats bitwise.
    fn assert_same_cut(want: &CachedCut, got: &CachedCut) {
        let bits = |c: &CachedCut| -> Vec<(usize, usize, u32)> {
            c.base_edges
                .iter()
                .map(|e| (e.u, e.v, e.w.to_bits()))
                .collect()
        };
        assert_eq!(want.n, got.n);
        assert_eq!(want.min_sim.to_bits(), got.min_sim.to_bits());
        assert_eq!(bits(want), bits(got));
    }

    #[test]
    fn unsorted_or_duplicate_candidates_take_the_scatter_path() {
        // The public contract allows unsorted / duplicated ids (last write
        // wins); those inputs must produce the same forest as the
        // equivalent dense row even though the fast path declines them.
        let x = vec![
            vec![1.0, 0.6, 0.2],
            vec![0.6, 1.0, 0.4],
            vec![0.2, 0.4, 1.0],
        ];
        let cut = CachedCut::new(&x, 0.3).unwrap();
        let mut dense = vec![f32::NEG_INFINITY; 3];
        dense[0] = 0.1;
        dense[2] = 0.7;
        let want = cut.cut_with_query_component(&dense).unwrap().0;
        let unsorted = cut
            .cut_with_candidates_component(&[2, 0], &[0.7, 0.1])
            .unwrap()
            .0;
        assert_eq!(want.edges(), unsorted.edges());
        let duplicated = cut
            .cut_with_candidates_component(&[0, 2, 2], &[0.1, 0.5, 0.7])
            .unwrap()
            .0;
        assert_eq!(want.edges(), duplicated.edges());
    }

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

    fn author_tweets(
        d: &soulmate_corpus::Dataset,
        author: u32,
        take: usize,
    ) -> Vec<(Timestamp, String)> {
        d.tweets
            .iter()
            .filter(|t| t.author == author)
            .take(take)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect()
    }

    /// One query through the single query method, under `engine`'s plan.
    fn link_one(engine: &QueryEngine<'_>, tweets: &[(Timestamp, String)]) -> QueryOutcome {
        engine
            .link_query_authors(&[tweets.to_vec()])
            .unwrap()
            .remove(0)
    }

    #[test]
    fn engine_matches_legacy_link_query_bit_for_bit() {
        let (d, p) = fitted();
        let model = p.query_model();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        assert_eq!(engine.n_authors(), p.n_authors());
        for author in [0u32, 3, 7, 11] {
            let tweets = author_tweets(&d, author, 8);
            let legacy = link_query(&model, &p.x_total, &tweets).unwrap();
            let fast = link_one(&engine, &tweets);
            assert_eq!(legacy.query_index, fast.query_index);
            assert_eq!(legacy.similarities, fast.similarities, "author {author}");
            assert_eq!(legacy.subgraph, fast.subgraph, "author {author}");
            assert_eq!(legacy.subgraph_avg_weight, fast.subgraph_avg_weight);
            assert_eq!(legacy.content_vector, fast.content_vector);
            assert_eq!(legacy.concept_vector, fast.concept_vector);
        }
        // Cold start: a single tweet.
        let t = d.tweets[0].clone();
        let single = vec![(t.timestamp, t.text)];
        let legacy = link_query(&model, &p.x_total, &single).unwrap();
        let fast = link_one(&engine, &single);
        assert_eq!(legacy.similarities, fast.similarities);
        assert_eq!(legacy.subgraph, fast.subgraph);
    }

    #[test]
    fn engine_matches_legacy_on_degenerate_two_author_corpus() {
        let d = generate(&GeneratorConfig {
            n_authors: 2,
            n_communities: 1,
            n_concepts: 2,
            entities_per_concept: 6,
            mean_tweets_per_author: 15,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        let tweets = author_tweets(&d, 1, 5);
        let legacy = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let fast = link_one(&engine, &tweets);
        assert_eq!(legacy.similarities, fast.similarities);
        assert_eq!(legacy.subgraph, fast.subgraph);
        assert_eq!(legacy.subgraph_avg_weight, fast.subgraph_avg_weight);
    }

    #[test]
    fn batched_queries_match_individual_answers() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        let queries: Vec<Vec<(Timestamp, String)>> = vec![
            author_tweets(&d, 1, 6),
            author_tweets(&d, 5, 4),
            author_tweets(&d, 9, 10),
        ];
        let batch = engine.link_query_authors(&queries).unwrap();
        assert_eq!(batch.len(), 3);
        for (q, out) in queries.iter().zip(&batch) {
            let single = link_one(&engine, q);
            assert_eq!(single.similarities, out.similarities);
            assert_eq!(single.subgraph, out.subgraph);
            assert_eq!(single.subgraph_avg_weight, out.subgraph_avg_weight);
        }
        // Empty batch is fine; an invalid member fails the whole batch.
        assert!(engine.link_query_authors(&[]).unwrap().is_empty());
        assert!(engine
            .link_query_authors(&[author_tweets(&d, 1, 3), Vec::new()])
            .is_err());
    }

    #[test]
    fn with_mode_switches_the_plan_over_one_build() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Quant { rerank: 3 }).unwrap();
        assert_eq!(engine.mode(), EngineMode::Quant { rerank: 3 });
        let exact = engine.with_mode(EngineMode::Exact);
        assert_eq!(exact.mode(), EngineMode::Exact);
        // The view shares the build: no second cut, no second i8 state.
        assert!(Arc::ptr_eq(&engine.parts.cut, &exact.parts.cut));
        assert!(exact.quant_enabled());
        let tweets = author_tweets(&d, 6, 6);
        let want = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let got = link_one(&exact, &tweets);
        assert_eq!(want.similarities, got.similarities);
        assert_eq!(want.subgraph, got.subgraph);
        // The quantized plan really is a different one: 3 scored authors.
        let quant = link_one(&engine, &tweets);
        assert!(quant.similarities.iter().filter(|&&s| s != 0.0).count() <= 3);
    }

    #[test]
    fn cut_with_candidates_full_set_matches_dense_row() {
        let x = vec![
            vec![1.0, 0.6, 0.2],
            vec![0.6, 1.0, 0.4],
            vec![0.2, 0.4, 1.0],
        ];
        let cut = CachedCut::new(&x, 0.3).unwrap();
        let sims = [0.7f32, 0.1, 0.5];
        let dense = cut.cut_with_query_component(&sims).unwrap().0;
        let sparse = cut
            .cut_with_candidates_component(&[0, 1, 2], &sims)
            .unwrap()
            .0;
        assert_eq!(dense.edges(), sparse.edges());
        assert_eq!(dense.components(), sparse.components());
        // A strict subset keeps only candidate edges: author 1 cannot be
        // linked to the query when it is not a candidate.
        let partial = cut
            .cut_with_candidates_component(&[0, 2], &[0.7, 0.5])
            .unwrap()
            .0;
        let q = cut.n_authors();
        assert!(partial
            .edges()
            .iter()
            .all(|e| !((e.u == q && e.v == 1) || (e.v == q && e.u == 1))));
    }

    #[test]
    fn cut_with_candidates_rejects_bad_input() {
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let cut = CachedCut::new(&x, 0.0).unwrap();
        assert!(matches!(
            cut.cut_with_candidates_component(&[0], &[0.5, 0.5]),
            Err(CoreError::Invalid(_))
        ));
        assert!(matches!(
            cut.cut_with_candidates_component(&[7], &[0.5]),
            Err(CoreError::Invalid(_))
        ));
        // Empty candidate set is legal: the query joins as an isolated
        // node.
        let forest = cut.cut_with_candidates_component(&[], &[]).unwrap().0;
        assert_eq!(forest.query_subgraph(2), Some(vec![2]));
    }

    #[test]
    fn ivf_exhaustive_probe_matches_exact_engine_bit_for_bit() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine
            .build_index(&IvfConfig {
                n_centroids: 4,
                ..IvfConfig::default()
            })
            .unwrap();
        let k = engine.index().unwrap().n_centroids();
        // nprobe = n_centroids triggers the exhaustive contract.
        let ivf_engine = engine.with_mode(EngineMode::Ivf { nprobe: k });
        for author in [0u32, 5, 13, 19] {
            let tweets = author_tweets(&d, author, 6);
            let exact = link_one(&engine, &tweets);
            let ivf = link_one(&ivf_engine, &tweets);
            assert_eq!(exact.similarities, ivf.similarities, "author {author}");
            assert_eq!(exact.subgraph, ivf.subgraph, "author {author}");
            assert_eq!(exact.subgraph_avg_weight, ivf.subgraph_avg_weight);
            assert_eq!(exact.content_vector, ivf.content_vector);
            assert_eq!(exact.concept_vector, ivf.concept_vector);
        }
    }

    #[test]
    fn ivf_batch_matches_per_query_bit_for_bit() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine
            .build_index(&IvfConfig {
                n_centroids: 5,
                keep_fraction: 0.8,
                min_candidates: 2,
                ..IvfConfig::default()
            })
            .unwrap();
        let queries: Vec<Vec<(Timestamp, String)>> = vec![
            author_tweets(&d, 2, 6),
            author_tweets(&d, 8, 4),
            author_tweets(&d, 17, 9),
        ];
        // A narrow probe makes the batch union a strict superset of each
        // query's own candidates — the parity below proves the shared
        // stage-2 Gram call scores rows identically to the per-query one.
        for nprobe in [1usize, 2, 0] {
            let engine = engine.with_mode(EngineMode::Ivf { nprobe });
            let batch = engine.link_query_authors(&queries).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (q, out) in queries.iter().zip(&batch) {
                let single = link_one(&engine, q);
                assert_eq!(single.similarities, out.similarities, "nprobe {nprobe}");
                assert_eq!(single.subgraph, out.subgraph, "nprobe {nprobe}");
                assert_eq!(single.subgraph_avg_weight, out.subgraph_avg_weight);
            }
        }
        // Empty batch is fine; an invalid member fails the whole batch.
        let engine = engine.with_mode(EngineMode::Ivf { nprobe: 1 });
        assert!(engine.link_query_authors(&[]).unwrap().is_empty());
        assert!(engine
            .link_query_authors(&[author_tweets(&d, 1, 3), Vec::new()])
            .is_err());
    }

    #[test]
    fn ivf_without_index_falls_back_to_exact() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        assert!(engine.index().is_none());
        let tweets = author_tweets(&d, 3, 5);
        let before = soulmate_obs::global().counter("engine.ivf.fallbacks");
        let ivf = link_one(&engine.with_mode(EngineMode::Ivf { nprobe: 2 }), &tweets);
        let exact = link_one(&engine, &tweets);
        assert_eq!(exact.similarities, ivf.similarities);
        assert_eq!(exact.subgraph, ivf.subgraph);
        assert!(soulmate_obs::global().counter("engine.ivf.fallbacks") > before);
    }

    #[test]
    fn ivf_narrow_probe_reports_unscored_authors_as_zero() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine
            .build_index(&IvfConfig {
                n_centroids: 6,
                keep_fraction: 0.5,
                min_candidates: 2,
                ..IvfConfig::default()
            })
            .unwrap();
        let tweets = author_tweets(&d, 7, 6);
        let ivf = link_one(&engine.with_mode(EngineMode::Ivf { nprobe: 1 }), &tweets);
        let exact = link_one(&engine, &tweets);
        // Scored candidates agree bitwise with the exact row; the rest
        // are reported as the documented 0.0 sentinel.
        let mut scored = 0usize;
        for (i, (&got, &want)) in ivf.similarities.iter().zip(&exact.similarities).enumerate() {
            if got != 0.0 {
                assert_eq!(got, want, "candidate {i} diverges from exact score");
                scored += 1;
            }
        }
        assert!(scored > 0, "narrow probe scored nothing");
        assert!(
            scored < engine.n_authors() || exact.similarities.contains(&0.0),
            "nprobe=1 with 6 centroids should prune someone"
        );
    }

    #[test]
    fn quant_full_rerank_matches_exact_engine_bit_for_bit() {
        let (d, p) = fitted();
        let mut engine = p.query_engine(EngineMode::Exact).unwrap();
        engine.enable_quant();
        assert!(engine.quant_enabled());
        let n = engine.n_authors();
        // rerank >= n triggers the full-re-rank contract: every author is
        // a candidate, so the whole outcome must be bit-identical.
        let quant_engine = engine.with_mode(EngineMode::Quant { rerank: n });
        for author in [0u32, 5, 13, 19] {
            let tweets = author_tweets(&d, author, 6);
            let exact = link_one(&engine, &tweets);
            let quant = link_one(&quant_engine, &tweets);
            assert_eq!(exact.similarities, quant.similarities, "author {author}");
            assert_eq!(exact.subgraph, quant.subgraph, "author {author}");
            assert_eq!(exact.subgraph_avg_weight, quant.subgraph_avg_weight);
            assert_eq!(exact.content_vector, quant.content_vector);
            assert_eq!(exact.concept_vector, quant.concept_vector);
        }
    }

    #[test]
    fn quant_rerank_contract_scores_candidates_exactly() {
        let (d, p) = fitted();
        let rerank = 4;
        let engine = p.query_engine(EngineMode::Quant { rerank }).unwrap();
        let n = engine.n_authors();
        assert!(rerank < n, "fixture must force a partial re-rank");
        let tweets = author_tweets(&d, 7, 6);
        let exact = link_one(&engine.with_mode(EngineMode::Exact), &tweets);
        let quant = link_one(&engine, &tweets);
        // Every scored candidate carries its exact-path score, bit for
        // bit — quantization only ever decides *which* authors are scored.
        let mut scored = 0usize;
        for (i, (&got, &want)) in quant
            .similarities
            .iter()
            .zip(&exact.similarities)
            .enumerate()
        {
            if got != 0.0 {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "candidate {i} diverges from exact score"
                );
                scored += 1;
            }
        }
        assert!(scored > 0, "quantized path scored nothing");
        assert!(scored <= rerank, "more candidates than rerank budget");
        // The exact top-1 author must survive stage 1 on this fixture —
        // i8 error is far smaller than the fixture's score gaps.
        let top1 = exact
            .similarities
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            quant.similarities[top1] != 0.0,
            "exact top-1 author {top1} missing from quantized candidates"
        );
    }

    #[test]
    fn quant_batch_matches_per_query_bit_for_bit() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Quant { rerank: 0 }).unwrap();
        let queries: Vec<Vec<(Timestamp, String)>> = vec![
            author_tweets(&d, 2, 6),
            author_tweets(&d, 8, 4),
            author_tweets(&d, 17, 9),
        ];
        // A small rerank makes the batch union a strict superset of each
        // query's own candidates — parity proves the shared stage-2 Gram
        // call scores rows identically to the per-query one.
        for rerank in [3usize, 8, 0] {
            let engine = engine.with_mode(EngineMode::Quant { rerank });
            let batch = engine.link_query_authors(&queries).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (q, out) in queries.iter().zip(&batch) {
                let single = link_one(&engine, q);
                assert_eq!(single.similarities, out.similarities, "rerank {rerank}");
                assert_eq!(single.subgraph, out.subgraph, "rerank {rerank}");
                assert_eq!(single.subgraph_avg_weight, out.subgraph_avg_weight);
            }
        }
        // Empty batch is fine; an invalid member fails the whole batch.
        let engine = engine.with_mode(EngineMode::Quant { rerank: 1 });
        assert!(engine.link_query_authors(&[]).unwrap().is_empty());
        assert!(engine
            .link_query_authors(&[author_tweets(&d, 1, 3), Vec::new()])
            .is_err());
    }

    #[test]
    fn quant_without_state_falls_back_to_exact() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Exact).unwrap();
        assert!(!engine.quant_enabled());
        let tweets = author_tweets(&d, 3, 5);
        let before = soulmate_obs::global().counter("engine.quant.fallbacks");
        let quant = link_one(&engine.with_mode(EngineMode::Quant { rerank: 8 }), &tweets);
        let exact = link_one(&engine, &tweets);
        assert_eq!(exact.similarities, quant.similarities);
        assert_eq!(exact.subgraph, quant.subgraph);
        assert!(soulmate_obs::global().counter("engine.quant.fallbacks") > before);
    }

    #[test]
    fn quant_recall_at_10_is_high_on_fixture() {
        let (d, p) = fitted();
        let engine = p.query_engine(EngineMode::Quant { rerank: 0 }).unwrap();
        let n = engine.n_authors();
        let k = 10.min(n);
        // A small margin over k: the quantized top-(k+5) must recover the
        // exact top-k, i.e. i8 error may shuffle ranks only locally.
        let quant_engine = engine.with_mode(EngineMode::Quant {
            rerank: (k + 5).min(n),
        });
        let exact_engine = engine.with_mode(EngineMode::Exact);
        let mut hits = 0usize;
        let mut total = 0usize;
        for author in 0..20u32 {
            let tweets = author_tweets(&d, author, 6);
            let exact = link_one(&exact_engine, &tweets);
            let quant = link_one(&quant_engine, &tweets);
            let mut ranked: Vec<usize> = (0..n).collect();
            ranked.sort_by(|&a, &b| exact.similarities[b].total_cmp(&exact.similarities[a]));
            for &id in ranked.iter().take(k) {
                total += 1;
                if quant.similarities[id] != 0.0 {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(
            recall >= 0.99,
            "quantized recall@{k} {recall} below the 0.99 floor"
        );
    }

    /// The exhaustive-probe contract, property-tested: for any query
    /// and any centroid count, `nprobe = n_centroids` must be
    /// edge-for-edge identical to the exact engine.
    #[test]
    fn prop_ivf_exhaustive_is_edge_for_edge_exact() {
        check(12, |g| {
            let author = g.u32(0..20);
            let take = g.usize(1..10);
            let k = g.usize(2..9);
            let seed = g.u64(0..1000);

            let (d, p) = fitted_shared();
            let tweets = author_tweets(d, author, take);
            assume(!tweets.is_empty())?;
            let mut engine = p.query_engine(EngineMode::Exact).unwrap();
            engine
                .build_index(&IvfConfig {
                    n_centroids: k,
                    seed,
                    ..IvfConfig::default()
                })
                .unwrap();
            let exact = link_one(&engine, &tweets);
            let k_built = engine.index().unwrap().n_centroids();
            let ivf = link_one(
                &engine.with_mode(EngineMode::Ivf { nprobe: k_built }),
                &tweets,
            );
            assert_eq!(&exact.similarities, &ivf.similarities);
            assert_eq!(&exact.subgraph, &ivf.subgraph);
            assert_eq!(exact.subgraph_avg_weight, ivf.subgraph_avg_weight);

            Some(())
        });
    }

    static FIT_SHARED: std::sync::OnceLock<(soulmate_corpus::Dataset, Pipeline)> =
        std::sync::OnceLock::new();

    /// One fitted model shared across property-test cases — fitting dominates
    /// the case body by orders of magnitude.
    fn fitted_shared() -> &'static (soulmate_corpus::Dataset, Pipeline) {
        FIT_SHARED.get_or_init(fitted)
    }

    #[test]
    fn snapshot_roundtrip_engine_matches_pipeline_engine() {
        let (d, p) = fitted();
        let snap = p.snapshot(&[]);
        let mut path = std::env::temp_dir();
        path.push(format!("soulmate-engine-test-{}.bin", std::process::id()));
        snap.save_binary(&path, false).unwrap();
        let loaded = PipelineSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let engine = loaded.query_engine(EngineMode::Exact).unwrap();
        let tweets = author_tweets(&d, 4, 7);
        let from_pipeline = link_one(&p.query_engine(EngineMode::Exact).unwrap(), &tweets);
        let from_snapshot = link_one(&engine, &tweets);
        assert_eq!(from_pipeline.similarities, from_snapshot.similarities);
        assert_eq!(from_pipeline.subgraph, from_snapshot.subgraph);
        assert_eq!(
            from_pipeline.subgraph_avg_weight,
            from_snapshot.subgraph_avg_weight
        );
    }
}
