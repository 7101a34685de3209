//! Amortized online serving: the [`QueryEngine`].
//!
//! [`crate::online::link_query`] answers one query correctly but pays the
//! whole offline bill again on every call: it re-normalizes both author
//! matrices (O(n·d)), clones the full `X^Total` into an extended
//! `(n+1)²` matrix, rebuilds the sparsified graph from scratch and
//! re-sorts every edge before running the SW-MST pop loop. None of that
//! depends on the query. The engine hoists it all into a one-time build
//! per fitted [`Pipeline`] / loaded [`PipelineSnapshot`]:
//!
//! * author content rows and mean-centered concept rows are pre-scaled to
//!   unit norm once, into [`ChunkedRows`] that a delta ingest grows by
//!   sharing every full chunk, so a query's similarity row is one
//!   chunk-wise scoring call ([`ChunkedRows::dots`]) instead of a scalar
//!   cosine loop that recomputes every author norm;
//! * the cut keeps a **backbone** of the sparsified base graph — its
//!   maximum spanning forest plus the sub-threshold top-k lifelines, at
//!   most `(n−1) + n·k` edges — already sorted in SW-MST
//!   [`stack_pop_order`], together with each node's top-k ranking prefix
//!   ([`CachedCut`]). A query contributes at most `n` new edges; they are
//!   merged into the backbone (two sorted runs, one pass) and the pop
//!   loop runs over the merge — no `(n+1)²` clone, no graph rebuild, no
//!   `O(E log E)` re-sort, and no scan of the `O(n²)` edges the forest
//!   makes redundant.
//!
//! The served answers are **identical** to the legacy path, bit for bit:
//! both compute the similarity row through the same
//! [`crate::online::vectorize_query`] / unit-row dot /
//! [`crate::online::fused_row_from_dots`] sequence, and the pop loop is
//! Kruskal's algorithm under the strict total order [`stack_pop_order`],
//! so it selects the same edges over any edge set that contains the
//! extended graph's unique maximum spanning forest — which the merged
//! backbone does (DESIGN.md §10). The displacement logic in
//! [`CachedCut::cut_with_query`] reproduces exactly which base edges
//! `WeightedGraph::from_similarity` would *drop* when the query pushes a
//! node's weakest top-k lifeline out of its ranking.

use crate::error::CoreError;
use crate::online::{
    fused_row_from_dots, unit_scaled, vectorize_query, QueryModel, QueryOutcome, QueryVectors,
};
use crate::pipeline::Pipeline;
use crate::snapshot::PipelineSnapshot;
use soulmate_corpus::Timestamp;
use soulmate_graph::{
    stack_pop_order, swmst_from_sorted, swmst_from_sorted_with_component, Edge, GraphError,
    SpanningForest, UnionFind,
};
use soulmate_linalg::kernels::gram_rect_i8_blocked;
use soulmate_linalg::{
    dot, sub_assign, CenteredQuantizedRows, ChunkedRows, Matrix, QuantizedRows, RowSource,
};
use soulmate_retrieval::{Candidates, IvfConfig, IvfIndex};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// A node's cached top-k view of the base similarity matrix.
#[derive(Debug, Clone)]
struct TopKCache {
    /// The node's `top_k` strongest neighbours, strongest first (fewer
    /// when the node has fewer neighbours). Ordered by the same stable
    /// total-order sort `from_similarity` uses, so ties keep ascending
    /// index.
    prefix: Vec<usize>,
    /// The node's similarity to each `prefix` entry, index-aligned: all
    /// `insert_author` reads of the base matrix, so the cut needs none.
    sims: Vec<f32>,
    /// Similarity of the rank-`top_k` neighbour (`prefix[top_k - 1]`),
    /// `None` when the node has fewer than `top_k` neighbours. A query
    /// must rank *strictly above* this value to enter the node's top-k.
    kth_sim: Option<f32>,
}

impl TopKCache {
    /// A ranked prefix and its similarities, with the rank-`top_k` entry
    /// read off the end (`top_k > 0`).
    fn new(prefix: Vec<usize>, sims: Vec<f32>, top_k: usize) -> TopKCache {
        let kth_sim = top_k.checked_sub(1).and_then(|k| sims.get(k)).copied();
        TopKCache {
            prefix,
            sims,
            kth_sim,
        }
    }
}

/// Nodes whose rank-k similarity is negative NaN (see
/// `CachedCut::neg_nan_kth`).
fn neg_nan_kth(topk: &[TopKCache]) -> Vec<usize> {
    topk.iter()
        .enumerate()
        .filter(|(_, t)| {
            matches!(t.kth_sim, Some(kth)
                if f32::NEG_INFINITY.total_cmp(&kth) == Ordering::Greater)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Most edges a backbone over `n` nodes with `top_k` lifelines per node
/// can hold: a spanning forest plus every node's prefix.
pub(crate) fn max_backbone_edges(n: usize, top_k: usize) -> usize {
    n.saturating_sub(1).saturating_add(n.saturating_mul(top_k))
}

/// A query's edit to the cached base graph: the base edges the query's
/// arrival removes (as `(u, v)` pairs, `u < v`) and the query edges it
/// adds, pre-sorted in SW-MST pop order.
type QueryEdit = (HashSet<(usize, usize)>, Vec<Edge>);

/// The query-independent part of the online graph cut, precomputed once.
///
/// Holds the **backbone** of the sparsified base graph of `X^Total` —
/// its maximum spanning forest under [`stack_pop_order`] plus every base
/// edge that fails the threshold (kept only as a top-k lifeline) — sorted
/// in SW-MST pop order, plus each node's top-k ranking prefix. That is at
/// most `(n−1) + n·k` edges instead of the graph's `O(n²)`. Given a
/// query's similarity row, [`CachedCut::cut_with_query`] produces the same
/// [`SpanningForest`] as rebuilding + re-sorting the extended `(n+1)²`
/// graph, in `O(n log n + n·k)` instead of `O(n² + E log E)`; DESIGN.md
/// §10 proves the backbone suffices.
///
/// The cut is self-contained — the prefixes carry their similarities, so
/// neither queries nor [`CachedCut::insert_author`] read `X^Total` — and
/// it is what a snapshot persists in place of the `n²` matrix.
/// [`CachedCut::new`] is the one builder from a dense matrix.
#[derive(Debug, Clone)]
pub struct CachedCut {
    n: usize,
    min_sim: f32,
    top_k: usize,
    /// The backbone, in [`stack_pop_order`].
    base_edges: Vec<Edge>,
    topk: Vec<TopKCache>,
    /// Nodes whose rank-k similarity is *negative NaN* — the only value a
    /// non-candidate's implicit `-inf` score still ranks strictly above in
    /// the total order. The sparse candidate path must visit these nodes
    /// even when they are not candidates to stay bit-identical to the
    /// dense scatter; for any sane similarity matrix the list is empty.
    neg_nan_kth: Vec<usize>,
}

impl CachedCut {
    /// Rank `sim`'s rows and build the backbone once — everything the
    /// per-query merge needs — in `O(n²)` time and `O(n·k)` memory beyond
    /// the result, without materializing the sparsified edge list.
    ///
    /// # Errors
    /// [`CoreError::Graph`] when `sim` is ragged.
    // Indexing is in-bounds by construction: every row is verified to
    // have length n before any index below runs, and `neighbours` holds
    // indices < n.
    #[allow(clippy::indexing_slicing)]
    pub fn new(
        sim: &[Vec<f32>],
        min_similarity: f32,
        top_k: usize,
    ) -> Result<CachedCut, CoreError> {
        let n = sim.len();
        if let Some(row) = sim.iter().find(|row| row.len() != n) {
            return Err(GraphError::NotSquare {
                rows: n,
                cols: row.len(),
            }
            .into());
        }
        let mut topk = Vec::new();
        if top_k > 0 {
            topk.reserve(n);
            for i in 0..n {
                let mut neighbours: Vec<usize> = (0..n).filter(|&j| j != i).collect();
                // Must mirror `from_similarity` exactly: similarity
                // descending under the total order, ties by ascending
                // index — the same ranking its stable sort produces, but
                // the tie-break makes keys unique, so selecting the top-k
                // partition and sorting only that prefix replaces the
                // O(n log n) full row sort with O(n + k log k).
                let cmp = |&a: &usize, &b: &usize| sim[i][b].total_cmp(&sim[i][a]).then(a.cmp(&b));
                select_top_k(&mut neighbours, top_k, cmp);
                neighbours.sort_by(cmp);
                let sims = neighbours.iter().map(|&j| sim[i][j]).collect();
                topk.push(TopKCache::new(neighbours, sims, top_k));
            }
        }
        let base_edges = backbone(sim, min_similarity, &topk);
        Ok(CachedCut {
            n,
            min_sim: min_similarity,
            top_k,
            base_edges,
            neg_nan_kth: neg_nan_kth(&topk),
            topk,
        })
    }

    /// A cut over no authors.
    pub(crate) fn empty(min_similarity: f32, top_k: usize) -> CachedCut {
        CachedCut {
            n: 0,
            min_sim: min_similarity,
            top_k,
            base_edges: Vec::new(),
            topk: Vec::new(),
            neg_nan_kth: Vec::new(),
        }
    }

    /// Reassemble a persisted cut over `n` authors: the backbone in pop
    /// order and one ranked `(ids, similarities)` prefix per node. Checks
    /// everything the query and insert paths index or rely on, so a cut
    /// that passes serves without a panic:
    ///
    /// * at most `(n−1) + n·k` edges, each `u < v < n`, finite weight,
    ///   strictly in [`stack_pop_order`], no pair twice;
    /// * `n` prefixes of length `min(k, n−1)`, ids `< n`, distinct and
    ///   not the node itself, finite similarities in ranking order
    ///   (similarity descending, ties by ascending id).
    ///
    /// # Errors
    /// [`CoreError::Schema`] naming the first violation.
    pub(crate) fn from_parts(
        n: usize,
        min_similarity: f32,
        top_k: usize,
        base_edges: Vec<Edge>,
        prefixes: Vec<(Vec<usize>, Vec<f32>)>,
    ) -> Result<CachedCut, CoreError> {
        let schema = |msg: String| Err(CoreError::Schema(msg));
        let max_edges = max_backbone_edges(n, top_k);
        if base_edges.len() > max_edges {
            return schema(format!(
                "backbone has {} edges, more than (n-1)+n*k = {max_edges}",
                base_edges.len()
            ));
        }
        let mut pairs = HashSet::with_capacity(base_edges.len());
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
            if !pairs.insert((e.u, e.v)) {
                return schema(format!(
                    "backbone edge {i} ({}, {}) is duplicated",
                    e.u, e.v
                ));
            }
            if prev.is_some_and(|p| stack_pop_order(p, e) != Ordering::Less) {
                return schema(format!("backbone edge {i} is out of pop order"));
            }
            prev = Some(e);
        }
        if prefixes.len() != n {
            return schema(format!("{} top-k prefixes for {n} authors", prefixes.len()));
        }
        let want_len = top_k.min(n.saturating_sub(1));
        let mut topk = Vec::with_capacity(if top_k > 0 { n } else { 0 });
        for (node, (ids, sims)) in prefixes.into_iter().enumerate() {
            if ids.len() > top_k {
                return schema(format!(
                    "top-k prefix of node {node} has {} entries, longer than top_k = {top_k}",
                    ids.len()
                ));
            }
            if ids.len() != want_len || sims.len() != ids.len() {
                return schema(format!(
                    "top-k prefix of node {node} has {} ids and {} similarities, expected {want_len}",
                    ids.len(),
                    sims.len()
                ));
            }
            if let Some(&id) = ids.iter().find(|&&id| id >= n || id == node) {
                return schema(format!(
                    "top-k prefix of node {node} names node {id} (n = {n})"
                ));
            }
            if let Some(s) = sims.iter().find(|s| !s.is_finite()) {
                return schema(format!(
                    "top-k prefix of node {node} has non-finite similarity {s}"
                ));
            }
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != ids.len() {
                return schema(format!("top-k prefix of node {node} repeats an id"));
            }
            let in_order = ids.windows(2).zip(sims.windows(2)).all(|pair| match pair {
                ([a, b], [sa, sb]) => sb.total_cmp(sa).then(a.cmp(b)) == Ordering::Less,
                _ => true,
            });
            if !in_order {
                return schema(format!("top-k prefix of node {node} is out of rank order"));
            }
            if top_k > 0 {
                topk.push(TopKCache::new(ids, sims, top_k));
            }
        }
        Ok(CachedCut {
            n,
            min_sim: min_similarity,
            top_k,
            base_edges,
            neg_nan_kth: neg_nan_kth(&topk),
            topk,
        })
    }

    /// Number of base (non-query) nodes.
    pub fn n_authors(&self) -> usize {
        self.n
    }

    /// The sparsification threshold the cut was built with.
    pub(crate) fn min_similarity(&self) -> f32 {
        self.min_sim
    }

    /// The per-node lifeline count the cut was built with.
    pub(crate) fn top_k(&self) -> usize {
        self.top_k
    }

    /// Node `i`'s ranked top-k neighbours and its similarity to each
    /// (both empty when `top_k == 0`).
    pub(crate) fn prefix(&self, i: usize) -> (&[usize], &[f32]) {
        self.topk
            .get(i)
            .map_or((&[], &[]), |t| (t.prefix.as_slice(), t.sims.as_slice()))
    }

    /// The cached backbone, in [`stack_pop_order`]: the base graph's
    /// maximum spanning forest plus its sub-threshold top-k lifelines
    /// (about `n − 1` edges when `top_k == 0`), not every sparsified edge.
    pub fn base_edges(&self) -> &[Edge] {
        &self.base_edges
    }

    /// Does the query (similarity `qsim` to node `i`) enter `i`'s top-k
    /// ranking? In the extended matrix the query row is appended *last*,
    /// so under the stable ranking sort it must beat the current rank-k
    /// neighbour strictly; with fewer than k neighbours it enters freely.
    // `topk` has one entry per node; callers pass i < self.n.
    #[allow(clippy::indexing_slicing)]
    fn query_enters_topk(&self, i: usize, qsim: f32) -> bool {
        match self.topk[i].kth_sim {
            None => true,
            Some(kth) => qsim.total_cmp(&kth) == Ordering::Greater,
        }
    }

    /// Cut the graph extended by one query node whose similarity row is
    /// `sims` — equivalent to `from_similarity` + full sort + SW-MST over
    /// the `(n+1)²` matrix, without materializing it.
    ///
    /// The query node's index in the returned forest is `n_authors()`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims.len() != self.n_authors()` —
    /// a mis-sized row would silently link the wrong authors, so it is
    /// rejected (not panicked on) before any index is touched.
    pub fn cut_with_query(&self, sims: &[f32]) -> Result<SpanningForest, CoreError> {
        let (removed, q_edges) = self.query_edit_dense(sims)?;
        Ok(swmst_from_sorted(
            self.n + 1,
            self.merged_iter(removed, q_edges),
        ))
    }

    /// [`CachedCut::cut_with_query`] fused with the query-subgraph lookup:
    /// returns the forest *and* the component containing the query node,
    /// extracted from the SW-MST pass itself instead of a second
    /// union-find sweep over the selected edges.
    ///
    /// # Errors
    /// Same conditions as [`CachedCut::cut_with_query`].
    pub fn cut_with_query_component(
        &self,
        sims: &[f32],
    ) -> Result<(SpanningForest, Vec<usize>), CoreError> {
        let (removed, q_edges) = self.query_edit_dense(sims)?;
        let (forest, component) = swmst_from_sorted_with_component(
            self.n + 1,
            self.merged_iter(removed, q_edges),
            self.n,
        );
        let component = component.ok_or(CoreError::Internal("query node exists in forest"))?;
        Ok((forest, component))
    }

    /// The query's edit to the cached base graph: the base edges its
    /// arrival removes and the query edges it adds, computed from a dense
    /// similarity row (steps 1–2 of the merge derivation in DESIGN.md §10).
    // With the length check done, every index below is < n (`sims`, `topk`,
    // `q_keep` all have exactly n entries; `prefix` holds node ids < n).
    #[allow(clippy::indexing_slicing)]
    fn query_edit_dense(&self, sims: &[f32]) -> Result<QueryEdit, CoreError> {
        if sims.len() != self.n {
            return Err(CoreError::Invalid(format!(
                "similarity row length {} != author count {}",
                sims.len(),
                self.n
            )));
        }
        let n = self.n;
        let k = self.top_k;

        // 1. Base edges the query *removes*: when the query enters node
        //    i's top-k ranking, i's old rank-k neighbour b falls out, and
        //    the edge (i, b) dies unless the threshold or b's own top-k
        //    still holds it.
        let mut removed: HashSet<(usize, usize)> = HashSet::new();
        if k > 0 {
            for i in 0..n {
                let Some(kth) = self.topk[i].kth_sim else {
                    continue; // fewer than k neighbours: nothing falls out
                };
                if sims[i].total_cmp(&kth) != Ordering::Greater {
                    continue; // query does not enter i's top-k
                }
                let b = self.topk[i].prefix[k - 1];
                if kth >= self.min_sim {
                    continue; // edge survives on the threshold rule
                }
                // Is i still in b's top-k once the query is present?
                let retained = match self.topk[b].prefix.iter().position(|&x| x == i) {
                    Some(r) if r < k - 1 => true,
                    Some(r) if r == k - 1 => !self.query_enters_topk(b, sims[b]),
                    _ => false,
                };
                if !retained {
                    removed.insert((i.min(b), i.max(b)));
                }
            }
        }

        // 2. Query edges, by the same threshold / top-k / finiteness rules
        //    `from_similarity` applies to the extended matrix.
        let mut q_keep = vec![false; n];
        for i in 0..n {
            if sims[i] >= self.min_sim {
                q_keep[i] = true;
            }
        }
        if k > 0 {
            for i in 0..n {
                if self.query_enters_topk(i, sims[i]) {
                    q_keep[i] = true;
                }
            }
            // The query's own top-k lifelines: the first k under (score
            // desc, index asc) — the stable descending sort's order, whose
            // top-k set a tie-broken selection picks without sorting.
            let mut ranked: Vec<usize> = (0..n).collect();
            select_top_k(&mut ranked, k, |&a, &b| {
                sims[b].total_cmp(&sims[a]).then(a.cmp(&b))
            });
            for &i in &ranked {
                q_keep[i] = true;
            }
        }
        let mut q_edges: Vec<Edge> = (0..n)
            .filter(|&i| q_keep[i] && sims[i].is_finite())
            .map(|i| Edge {
                u: i,
                v: n,
                w: sims[i],
            })
            .collect();
        // Every query edge ends at node n, so the keys are unique and an
        // unstable sort gives the stable sort's order.
        q_edges.sort_unstable_by(stack_pop_order);
        Ok((removed, q_edges))
    }

    /// Step 3 of the merge derivation for a query: the surviving backbone
    /// edges and the query edges interleaved by [`merge_edit`], with the
    /// per-query merge counters recorded. Lazy on purpose — the SW-MST pop
    /// loop terminates at full node coverage, so the weak tail is never
    /// touched, and no merged edge list is materialized per query.
    fn merged_iter(
        &self,
        removed: HashSet<(usize, usize)>,
        q_edges: Vec<Edge>,
    ) -> impl Iterator<Item = Edge> + '_ {
        let obs = soulmate_obs::global();
        // A removed pair is some node's cached rank-k edge that fails the
        // threshold, which the backbone stores as a lifeline unless its
        // weight was non-finite — so this count is exact for finite
        // matrices and an undercount only in the NaN-weight corner, without
        // consuming the lazy iterator.
        obs.incr(
            "engine.edges_merged",
            ((self.base_edges.len() + q_edges.len()).saturating_sub(removed.len())) as u64,
        );
        obs.incr("engine.topk_displaced", removed.len() as u64);
        merge_edit(&self.base_edges, removed, q_edges)
    }

    /// [`CachedCut::cut_with_query`] for a *sparse* similarity row: only
    /// the authors in `candidates` (ascending ids) carry a score, given in
    /// `cand_sims` index-aligned with `candidates`. Every other author is
    /// treated as having similarity `-inf` to the query — it can never
    /// clear the threshold, never enter a top-k ranking and never receive
    /// a query edge (non-finite weights are dropped), which is exactly the
    /// contract the IVF retrieval path wants for non-candidates.
    ///
    /// Passing every author id reproduces
    /// [`CachedCut::cut_with_query`] bit for bit (the scattered row *is*
    /// the dense row) — that equivalence is what the `nprobe ==
    /// n_centroids` parity tests pin down.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when the two slices disagree in length or a
    /// candidate id is out of range.
    pub fn cut_with_candidates(
        &self,
        candidates: &[u32],
        cand_sims: &[f32],
    ) -> Result<SpanningForest, CoreError> {
        let (removed, q_edges) = self.query_edit_candidates(candidates, cand_sims)?;
        Ok(swmst_from_sorted(
            self.n + 1,
            self.merged_iter(removed, q_edges),
        ))
    }

    /// [`CachedCut::cut_with_candidates`] fused with the query-subgraph
    /// lookup, mirroring [`CachedCut::cut_with_query_component`].
    ///
    /// # Errors
    /// Same conditions as [`CachedCut::cut_with_candidates`].
    pub fn cut_with_candidates_component(
        &self,
        candidates: &[u32],
        cand_sims: &[f32],
    ) -> Result<(SpanningForest, Vec<usize>), CoreError> {
        let (removed, q_edges) = self.query_edit_candidates(candidates, cand_sims)?;
        let (forest, component) = swmst_from_sorted_with_component(
            self.n + 1,
            self.merged_iter(removed, q_edges),
            self.n,
        );
        let component = component.ok_or(CoreError::Internal("query node exists in forest"))?;
        Ok((forest, component))
    }

    /// The query's edit to the base graph from a *sparse* similarity row,
    /// touching only the candidate set instead of scattering into a dense
    /// length-n row. Bit-identical to scattering `-inf` non-candidates
    /// through [`CachedCut::query_edit_dense`] because a `-inf` score
    /// never clears the threshold, never ranks strictly above a node's
    /// finite rank-k similarity (the negative-NaN exceptions are
    /// precomputed in `neg_nan_kth` and visited explicitly), and any query
    /// edge it could still earn carries a non-finite weight, which the
    /// edge filter drops.
    ///
    /// Callers with unsorted or duplicated candidate ids (allowed by the
    /// public contract, last write wins) take the dense scatter path; the
    /// retrieval probe always emits strictly ascending ids.
    // After the range validation every candidate id is < n, so `topk`,
    // `prefix` (node ids < n) and the position-aligned `keep`/`cand_sims`
    // indexing below are in-bounds.
    #[allow(clippy::indexing_slicing)]
    fn query_edit_candidates(
        &self,
        candidates: &[u32],
        cand_sims: &[f32],
    ) -> Result<QueryEdit, CoreError> {
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
        let ascending = candidates.windows(2).all(|w| w[0] < w[1]);
        // u32::MAX widens losslessly into usize on every supported target.
        if !ascending || self.n > u32::MAX as usize {
            // Arbitrary caller input (or node ids beyond u32): scatter into
            // the dense row and reuse the reference path unchanged.
            let mut sims = vec![f32::NEG_INFINITY; self.n];
            for (&id, &s) in candidates.iter().zip(cand_sims) {
                // Validated above: id < n, so the index is in-bounds.
                sims[id as usize] = s;
            }
            return self.query_edit_dense(&sims);
        }

        let k = self.top_k;
        // A node's score under the scattered row: its candidate score, or
        // the implicit -inf. Ids are strictly ascending, so binary search.
        let sim_of = |node: usize| -> f32 {
            // node < n <= u32::MAX by the guard above, so the cast is
            // value-preserving.
            match candidates.binary_search(&(node as u32)) {
                Ok(pos) => cand_sims[pos],
                Err(_) => f32::NEG_INFINITY,
            }
        };

        // Step 1 — removals. Only nodes whose score ranks strictly above
        // their cached rank-k similarity can displace a base edge: every
        // candidate, plus the (pathological) negative-NaN-kth nodes whose
        // implicit -inf still wins the total-order comparison.
        let mut removed: HashSet<(usize, usize)> = HashSet::new();
        let removal_check = |i: usize, score: f32, removed: &mut HashSet<(usize, usize)>| {
            let Some(kth) = self.topk[i].kth_sim else {
                return; // fewer than k neighbours: nothing falls out
            };
            if score.total_cmp(&kth) != Ordering::Greater {
                return; // query does not enter i's top-k
            }
            let b = self.topk[i].prefix[k - 1];
            if kth >= self.min_sim {
                return; // edge survives on the threshold rule
            }
            let retained = match self.topk[b].prefix.iter().position(|&x| x == i) {
                Some(r) if r < k - 1 => true,
                Some(r) if r == k - 1 => !self.query_enters_topk(b, sim_of(b)),
                _ => false,
            };
            if !retained {
                removed.insert((i.min(b), i.max(b)));
            }
        };
        if k > 0 {
            for (pos, &id) in candidates.iter().enumerate() {
                // u32 widens losslessly into usize on supported targets.
                removal_check(id as usize, cand_sims[pos], &mut removed);
            }
            for &i in &self.neg_nan_kth {
                // Candidates were already visited with their real score.
                // i < n <= u32::MAX: value-preserving cast.
                if candidates.binary_search(&(i as u32)).is_err() {
                    removal_check(i, f32::NEG_INFINITY, &mut removed);
                }
            }
        }

        // Step 2 — query edges. Non-candidates can only earn non-finite
        // edge weights (dropped by the filter below), so only candidate
        // positions need the threshold / top-k / lifeline marks.
        let mut keep = vec![false; candidates.len()];
        for (pos, &s) in cand_sims.iter().enumerate() {
            if s >= self.min_sim {
                keep[pos] = true;
            }
        }
        if k > 0 {
            for (pos, &id) in candidates.iter().enumerate() {
                // u32 widens losslessly into usize on supported targets.
                if self.query_enters_topk(id as usize, cand_sims[pos]) {
                    keep[pos] = true;
                }
            }
            // The query's own top-k lifelines: in the dense ranking every
            // score strictly above -inf precedes the -inf block, and ties
            // inside it keep ascending id (stable sort over ascending
            // ids), so the first min(k, |above|) of this ordering is
            // exactly the dense take(k) restricted to scores that can
            // yield finite edges.
            let mut above: Vec<usize> = (0..candidates.len())
                .filter(|&pos| cand_sims[pos].total_cmp(&f32::NEG_INFINITY) == Ordering::Greater)
                .collect();
            select_top_k(&mut above, k, |&a, &b| {
                cand_sims[b].total_cmp(&cand_sims[a]).then(a.cmp(&b))
            });
            for &pos in &above {
                keep[pos] = true;
            }
        }
        let mut q_edges: Vec<Edge> = (0..candidates.len())
            .filter(|&pos| keep[pos] && cand_sims[pos].is_finite())
            .map(|pos| Edge {
                // Validated above: candidate ids are < n.
                u: candidates[pos] as usize,
                v: self.n,
                w: cand_sims[pos],
            })
            .collect();
        q_edges.sort_unstable_by(stack_pop_order);
        Ok((removed, q_edges))
    }

    /// Permanently admit one new author into the cached cut: the exact
    /// edit [`CachedCut::cut_with_query`] computes *per query* — remove
    /// the displaced base edges, merge in the new author's edges — applied
    /// in place, plus the top-k bookkeeping a transient query never needs
    /// (inserting the new index into each displaced node's ranking prefix
    /// and building the new node's own prefix). The grown backbone is
    /// Kruskal's algorithm run to completion over the merge — its tree
    /// edges, plus every sub-threshold edge (the grown graph's lifelines).
    /// The result is bit-identical to [`CachedCut::new`] over the grown
    /// `(n+1)²` similarity matrix (pinned by a property test), in
    /// `O(n·k + n log n)` instead of `O(n²)`, and reads no base matrix:
    /// the prefixes carry every similarity the ranking update compares.
    ///
    /// `sims` is the new author's similarity to each existing author. The
    /// new author's node index is the pre-insert `n_authors()`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims` is not length `n`.
    pub fn insert_author(&mut self, sims: &[f32]) -> Result<(), CoreError> {
        self.base_edges = self.grown_backbone(sims)?;
        self.admit_prefixes(sims);
        Ok(())
    }

    /// [`CachedCut::insert_author`] into a new cut, leaving this one as it
    /// is: the grown backbone is built from this cut's, so only the
    /// prefixes (which the insert edits) are copied.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims` is not length `n`.
    pub(crate) fn with_author(&self, sims: &[f32]) -> Result<CachedCut, CoreError> {
        let mut grown = CachedCut {
            n: self.n,
            min_sim: self.min_sim,
            top_k: self.top_k,
            base_edges: self.grown_backbone(sims)?,
            topk: self.topk.clone(),
            neg_nan_kth: Vec::new(),
        };
        grown.admit_prefixes(sims);
        Ok(grown)
    }

    /// The backbone over this cut's nodes plus one new node whose
    /// similarity row is `sims`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `sims` is not length `n`.
    fn grown_backbone(&self, sims: &[f32]) -> Result<Vec<Edge>, CoreError> {
        // Validates sims.len() == n and computes the graph edit under
        // exactly the rules `from_similarity` would apply to the grown
        // matrix — the same derivation the per-query path runs.
        let (removed, q_edges) = self.query_edit_dense(sims)?;

        // The merge contains the grown graph's maximum spanning forest
        // (DESIGN.md §10), so Kruskal over it — no early stop — selects
        // exactly that forest; its sub-threshold edges are exactly the
        // grown graph's lifelines. Both stay in pop order.
        let min_sim = self.min_sim;
        let mut uf = UnionFind::new(self.n + 1);
        Ok(merge_edit(&self.base_edges, removed, q_edges)
            .filter(|e| {
                let tree_edge = uf.union(e.u, e.v);
                tree_edge || !clears_threshold(e.w, min_sim)
            })
            .collect())
    }

    /// The top-k half of an insert, after the backbone: add node `n`
    /// (similarity row `sims`, length-checked by
    /// [`CachedCut::grown_backbone`]) to every ranking it enters and give
    /// it its own prefix.
    // `sims` and `topk` have n entries and prefixes hold node ids < n.
    #[allow(clippy::indexing_slicing)]
    fn admit_prefixes(&mut self, sims: &[f32]) {
        let n = self.n;
        let k = self.top_k;
        if k > 0 {
            // Existing nodes: the new index enters node i's ranking
            // exactly when it ranks strictly above i's rank-k neighbour
            // (ties lose — the new index is larger than every existing
            // one, and the ranking breaks ties by ascending index).
            for i in 0..n {
                if !self.query_enters_topk(i, sims[i]) {
                    continue;
                }
                let cache = &mut self.topk[i];
                // Position under (similarity desc, index asc): after every
                // neighbour that ranks >= the new score (equal similarity
                // means the existing, smaller index wins).
                let pos = cache
                    .sims
                    .partition_point(|s| s.total_cmp(&sims[i]) != Ordering::Less);
                cache.prefix.insert(pos, n);
                cache.prefix.truncate(k);
                cache.sims.insert(pos, sims[i]);
                cache.sims.truncate(k);
                cache.kth_sim = cache.sims.get(k - 1).copied();
            }
            // The new node's own prefix, built the way `CachedCut::new`
            // builds every row: similarity descending, ties by ascending
            // index (the new node's row is `sims` itself).
            let mut neighbours: Vec<usize> = (0..n).collect();
            let cmp = |&a: &usize, &b: &usize| sims[b].total_cmp(&sims[a]).then(a.cmp(&b));
            select_top_k(&mut neighbours, k, cmp);
            neighbours.sort_by(cmp);
            let own_sims = neighbours.iter().map(|&j| sims[j]).collect();
            self.topk.push(TopKCache::new(neighbours, own_sims, k));
        }

        self.n = n + 1;
        // Rank-k similarities changed for every displaced node and one
        // node was added: recompute the (for any sane matrix, empty)
        // negative-NaN corner list in one O(n) sweep.
        self.neg_nan_kth = neg_nan_kth(&self.topk);
    }
}

/// The sparsification threshold rule of `WeightedGraph::from_similarity`.
/// Anything it rejects (including every NaN) is in the graph only as
/// some node's top-k lifeline.
fn clears_threshold(w: f32, min_sim: f32) -> bool {
    w >= min_sim
}

/// Reduce `items` to its first `k` under the strict order `cmp`, in no
/// particular order — an `O(len)` selection instead of a full sort, and
/// the identical set because `cmp` has no ties.
fn select_top_k<T>(items: &mut Vec<T>, k: usize, cmp: impl FnMut(&T, &T) -> Ordering) {
    if items.len() > k {
        if let Some(kth) = k.checked_sub(1) {
            items.select_nth_unstable_by(kth, cmp);
        }
        items.truncate(k);
    }
}

/// Step 3 of the merge derivation, shared by queries and inserts: the
/// backbone edges not in `removed` and `q_edges` interleaved in
/// [`stack_pop_order`]. Both runs are sorted under the same total order,
/// so the merge equals the full re-sort of their union.
fn merge_edit(
    base: &[Edge],
    removed: HashSet<(usize, usize)>,
    q_edges: Vec<Edge>,
) -> impl Iterator<Item = Edge> + '_ {
    let mut base_iter = base
        .iter()
        .filter(move |e| removed.is_empty() || !removed.contains(&(e.u, e.v)))
        .peekable();
    let mut q_iter = q_edges.into_iter().peekable();
    std::iter::from_fn(move || match (base_iter.peek(), q_iter.peek()) {
        (Some(&b), Some(q)) => {
            if stack_pop_order(q, b) == Ordering::Less {
                q_iter.next()
            } else {
                base_iter.next().copied()
            }
        }
        (Some(_), None) => base_iter.next().copied(),
        (None, _) => q_iter.next(),
    })
}

/// The backbone of `WeightedGraph::from_similarity(sim, min_sim, k)`
/// without building that graph: its maximum spanning forest under
/// [`stack_pop_order`] (unique, because the order is strict) plus every
/// edge it keeps only as a top-k lifeline, sorted in pop order.
///
/// The forest comes from dense Prim over the matrix, `O(n²)` time and
/// `O(n)` memory: a node's frontier key is its strongest kept edge into
/// the tree; when no outside node has one, the next tree of the forest
/// starts. Edge `(a, b)`, `a < b`, is kept exactly when `from_similarity`
/// keeps it: `sim[a][b]` is finite and clears the threshold, or `b` is in
/// `a`'s top-k, or `a` in `b`'s — read in O(1) off the cached rank-k
/// entry (`topk` is empty when `k == 0`).
// `sim` is verified square (n×n) by the caller, `topk` is empty or has n
// entries, and every node id below comes from `0..n` or a prefix of ids
// < n, so no index can go out of bounds.
#[allow(clippy::indexing_slicing)]
fn backbone(sim: &[Vec<f32>], min_sim: f32, topk: &[TopKCache]) -> Vec<Edge> {
    let n = sim.len();
    // Does j rank at or above i's rank-k neighbour under (similarity
    // desc, index asc)? With fewer than k neighbours every one is in.
    let in_topk = |i: usize, j: usize| -> bool {
        let Some(t) = topk.get(i) else {
            return false;
        };
        match (t.kth_sim, t.prefix.last()) {
            (Some(kth), Some(&kth_node)) => match sim[i][j].total_cmp(&kth) {
                Ordering::Greater => true,
                Ordering::Equal => j <= kth_node,
                Ordering::Less => false,
            },
            _ => true,
        }
    };
    let kept = |x: usize, y: usize| -> Option<Edge> {
        let (u, v) = (x.min(y), x.max(y));
        let w = sim[u][v];
        (w.is_finite() && (clears_threshold(w, min_sim) || in_topk(u, v) || in_topk(v, u)))
            .then_some(Edge { u, v, w })
    };
    // Does `a` pop before the incumbent key `b`?
    let stronger = |a: &Edge, b: &Option<Edge>| match b {
        Some(b) => stack_pop_order(a, b) == Ordering::Less,
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
            if let Some(e) = kept(u, v) {
                if stronger(&e, &key[v]) {
                    key[v] = Some(e);
                }
            }
        }
    }
    for (i, t) in topk.iter().enumerate() {
        for &j in &t.prefix {
            let (u, v) = (i.min(j), i.max(j));
            let w = sim[u][v];
            if w.is_finite() && !clears_threshold(w, min_sim) {
                edges.push(Edge { u, v, w });
            }
        }
    }
    // A forest edge may also be a lifeline, and a lifeline may come from
    // both endpoints' prefixes; equal pairs sort adjacent.
    edges.sort_unstable_by(stack_pop_order);
    edges.dedup_by(|a, b| (a.u, a.v) == (b.u, b.v));
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
/// cloning the `O(n·d)` / `O(n·k)` structures per request — cloning
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
    /// merges into the cached cut independently. The IVF and quantized
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
            let (forest, subgraph) = self.parts.cut.cut_with_query_component(&similarities)?;
            let subgraph_avg_weight = forest.component_avg_weight(&subgraph);
            obs.record_duration("engine.query.seconds", start.elapsed());
            obs.incr("engine.queries", 1);
            outcomes.push(QueryOutcome {
                query_index,
                subgraph,
                subgraph_avg_weight,
                content_vector: q.content,
                concept_vector: q.concept,
                similarities,
            });
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
    /// and merges each query into the cached cut via
    /// [`CachedCut::cut_with_candidates`], every non-candidate scored as
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
    /// merge each query into the cached cut via
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
            let (forest, subgraph) = self
                .parts
                .cut
                .cut_with_candidates_component(ids, &cand_sims)?;
            let subgraph_avg_weight = forest.component_avg_weight(&subgraph);
            obs.incr(metrics.queries, 1);
            obs.record(metrics.candidates, ids.len() as f64);
            obs.record(
                metrics.candidate_fraction,
                ids.len() as f64 / n.max(1) as f64,
            );
            obs.record_duration(metrics.query_seconds, start.elapsed());
            outcomes.push(QueryOutcome {
                query_index,
                subgraph,
                subgraph_avg_weight,
                content_vector: q.content,
                concept_vector: q.concept,
                similarities,
            });
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
    // Indexing is in-bounds by construction: `fused` has one entry per
    // author (the i8 Gram rows span all n authors) and the selected ids
    // are drawn from 0..n.
    #[allow(clippy::indexing_slicing)]
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

        // Per query: top-`r` author ids by approximate fused score
        // (descending, ties by ascending id — a total order, so the
        // selection is deterministic), emitted ascending for the sparse
        // cut's fast path.
        let mut candidate_sets: Vec<Vec<u32>> = Vec::with_capacity(qvecs.len());
        for qi in 0..qvecs.len() {
            let (content_row, concept_row) = content_approx
                .get(qi)
                .zip(concept_approx.get(qi))
                .ok_or(CoreError::Internal("one approx row per query"))?;
            let fused = fused_row_from_dots(&self.model, content_row, concept_row);
            let mut ids: Vec<usize> = (0..n).collect();
            let cmp = |&a: &usize, &b: &usize| fused[b].total_cmp(&fused[a]).then(a.cmp(&b));
            if ids.len() > r {
                // r >= 1 whenever n >= 1 (rerank 0 maps to the default).
                ids.select_nth_unstable_by(r - 1, cmp);
                ids.truncate(r);
            }
            ids.sort_unstable();
            // id < n <= u32::MAX (guarded above): value-preserving cast.
            candidate_sets.push(ids.into_iter().map(|id| id as u32).collect());
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
        let cut = CachedCut::new(
            &self.x_total,
            self.config.graph_min_sim,
            self.config.graph_top_k,
        )?;
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
    fn reference_cut(
        x_total: &[Vec<f32>],
        sims: &[f32],
        min_sim: f32,
        top_k: usize,
    ) -> SpanningForest {
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
        let graph = WeightedGraph::from_similarity(&extended, min_sim, top_k).unwrap();
        swmst(&graph)
    }

    fn assert_cut_matches(x: &[Vec<f32>], sims: &[f32], min_sim: f32, k: usize) {
        let want = reference_cut(x, sims, min_sim, k);
        let cut = CachedCut::new(x, min_sim, k).unwrap();
        let got = cut.cut_with_query(sims).unwrap();
        assert_eq!(
            want.edges(),
            got.edges(),
            "forest mismatch: min_sim={min_sim} k={k} sims={sims:?}"
        );
        assert_eq!(want.components(), got.components());
    }

    #[test]
    fn cached_cut_hand_picked_edge_cases() {
        let sym = |rows: &[&[f32]]| -> Vec<Vec<f32>> { rows.iter().map(|r| r.to_vec()).collect() };
        // Single author.
        assert_cut_matches(&sym(&[&[1.0]]), &[0.7], 0.5, 2);
        assert_cut_matches(&sym(&[&[1.0]]), &[f32::NAN], 0.5, 2);
        // Two authors, query displaces the only lifeline.
        let x2 = sym(&[&[1.0, 0.3], &[0.3, 1.0]]);
        assert_cut_matches(&x2, &[0.9, 0.1], 10.0, 1);
        // Query weaker than everything.
        assert_cut_matches(&x2, &[-5.0, -5.0], 10.0, 1);
        // Threshold-only sparsification (k = 0).
        assert_cut_matches(&x2, &[0.9, 0.1], 0.25, 0);
        // Ties everywhere: stable ranking must agree with the rebuild.
        let flat = sym(&[
            &[1.0, 0.5, 0.5, 0.5],
            &[0.5, 1.0, 0.5, 0.5],
            &[0.5, 0.5, 1.0, 0.5],
            &[0.5, 0.5, 0.5, 1.0],
        ]);
        assert_cut_matches(&flat, &[0.5, 0.5, 0.5, 0.5], 10.0, 2);
        assert_cut_matches(&flat, &[0.5, 0.6, 0.4, 0.5], 10.0, 1);
        // All-NaN query row: every query edge is dropped.
        let nan_sims = [f32::NAN, f32::NAN, f32::NAN, f32::NAN];
        assert_cut_matches(&flat, &nan_sims, 0.4, 2);
        // Query stronger than everything: displaces every ranking.
        assert_cut_matches(&flat, &[9.0, 9.0, 9.0, 9.0], 10.0, 1);
    }

    #[test]
    fn cut_with_query_rejects_wrong_row_length() {
        // Regression: this used to assert! and take the server down; a
        // mis-sized row is now a typed error.
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let cut = CachedCut::new(&x, 0.0, 1).unwrap();
        let err = cut.cut_with_query(&[0.5]).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
        assert!(err.to_string().contains("similarity row length"));
        assert!(cut.cut_with_query(&[0.5, 0.5, 0.5]).is_err());
    }

    /// The amortized merge must reproduce the full extend + rebuild +
    /// re-sort + SW-MST pipeline exactly — same forest edges, same
    /// components — across random matrices with heavy ties (quantized
    /// weights) and occasional NaN entries.
    #[test]
    fn prop_cached_cut_matches_full_rebuild() {
        check(96, |g| {
            let n = g.usize(1..9);
            let flat = g.vec(110, |g| g.f32(-2.0..2.0));
            let top_k = g.usize(0..5);
            let min_sim_raw = g.f32(-2.0..2.0);

            // Quantize to quarter steps so ties are common; the extreme
            // quarter becomes NaN to exercise the total-order paths.
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
            let min_sim = (min_sim_raw * 4.0).round() / 4.0;

            let want = reference_cut(&x, &sims, min_sim, top_k);
            let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
            let got = cut.cut_with_query(&sims).unwrap();
            assert_eq!(want.edges(), got.edges());
            assert_eq!(want.components(), got.components());
        });
    }

    /// `insert_author` must leave the cut in *exactly* the state
    /// `CachedCut::new` builds over the grown `(n+1)²` matrix — same
    /// sorted edge stack, same top-k prefixes and rank-k
    /// similarities (bitwise), same negative-NaN corner list — so a
    /// delta-updated engine and a refit engine serve identical
    /// queries. Ties and NaNs are exercised on purpose.
    #[test]
    fn prop_insert_author_matches_rebuilt_cut() {
        check(96, |g| {
            let n = g.usize(1..9);
            let flat = g.vec(110, |g| g.f32(-2.0..2.0));
            let top_k = g.usize(0..5);
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
            let min_sim = (min_sim_raw * 4.0).round() / 4.0;

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

            let mut cut = CachedCut::new(&x, min_sim, top_k).unwrap();
            cut.insert_author(&sims).unwrap();
            let want = CachedCut::new(&grown, min_sim, top_k).unwrap();
            assert_same_cut(&want, &cut);
        });
    }

    /// The sparse candidate edit must match scattering the same
    /// candidates into a dense `-inf` row — both paths share the
    /// merge, so comparing forests pins the edit computation itself,
    /// including -inf/NaN candidate scores and the fused component
    /// extraction.
    #[test]
    fn prop_sparse_candidate_cut_matches_dense_scatter() {
        check(96, |g| {
            let n = g.usize(2..9);
            let flat = g.vec(110, |g| g.f32(-2.0..2.0));
            let top_k = g.usize(0..5);
            let min_sim_raw = g.f32(-2.0..2.0);
            let mask = g.u16(0..512);
            let specials = g.u8(0..8);

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
            let min_sim = (min_sim_raw * 4.0).round() / 4.0;

            let candidates: Vec<u32> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| i as u32)
                .collect();
            let mut cand_sims: Vec<f32> = (0..candidates.len())
                .map(|pos| quant(flat[n * n + pos]))
                .collect();
            // Sprinkle the values the sparse path special-cases.
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
            let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
            let want = cut.cut_with_query(&dense).unwrap();
            let got = cut.cut_with_candidates(&candidates, &cand_sims).unwrap();
            assert_eq!(want.edges(), got.edges());

            let (forest, component) = cut
                .cut_with_candidates_component(&candidates, &cand_sims)
                .unwrap();
            assert_eq!(want.edges(), forest.edges());
            assert_eq!(Some(component), want.query_subgraph(n));
        });
    }

    #[test]
    fn sequential_inserts_match_rebuilds_at_every_step() {
        // Grow a cut three authors at a time and compare against a full
        // rebuild after every insert — covers prefixes that contain
        // previously-inserted node indices and repeated displacement.
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
        for (min_sim, top_k) in [(0.6f32, 2usize), (10.0, 1), (0.0, 0), (0.25, 3)] {
            let mut cut = CachedCut::new(&x, min_sim, top_k).unwrap();
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
                let want = CachedCut::new(&grown, min_sim, top_k).unwrap();
                assert_same_cut(&want, &cut);
            }
        }
    }

    #[test]
    fn insert_author_rejects_bad_shapes() {
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let mut cut = CachedCut::new(&x, 0.0, 1).unwrap();
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
        for (min_sim, top_k) in [(0.6f32, 0usize), (0.6, 2), (10.0, 1), (-1.0, 5)] {
            let cut = CachedCut::new(&x, min_sim, top_k).unwrap();
            let prefixes = (0..cut.n_authors())
                .map(|i| {
                    let (ids, sims) = cut.prefix(i);
                    (ids.to_vec(), sims.to_vec())
                })
                .collect();
            let back =
                CachedCut::from_parts(4, min_sim, top_k, cut.base_edges.clone(), prefixes).unwrap();
            assert_same_cut(&cut, &back);
        }
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
        assert_eq!(want.top_k, got.top_k);
        assert_eq!(bits(want), bits(got));
        assert_eq!(want.topk.len(), got.topk.len());
        for (w, g) in want.topk.iter().zip(&got.topk) {
            assert_eq!(w.prefix, g.prefix);
            let sim_bits = |t: &TopKCache| t.sims.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(sim_bits(w), sim_bits(g));
            assert_eq!(w.kth_sim.map(f32::to_bits), g.kth_sim.map(f32::to_bits));
        }
        assert_eq!(want.neg_nan_kth, got.neg_nan_kth);
    }

    #[test]
    fn sparse_cut_visits_negative_nan_kth_nodes() {
        // Node 0's rank-2 similarity is *negative NaN* — the one value a
        // non-candidate's implicit -inf still outranks, so the sparse path
        // must visit node 0 even though it is not a candidate, or it would
        // miss the displacement the dense scatter computes.
        let neg_nan = f32::from_bits(0xFFC0_0000);
        let x = vec![
            vec![1.0, 0.8, neg_nan],
            vec![0.8, 1.0, 0.0],
            vec![neg_nan, 0.0, 1.0],
        ];
        let cut = CachedCut::new(&x, 0.5, 2).unwrap();
        let candidates = [1u32];
        let cand_sims = [0.9f32];
        let mut dense = vec![f32::NEG_INFINITY; 3];
        dense[1] = 0.9;
        let want = cut.cut_with_query(&dense).unwrap();
        let got = cut.cut_with_candidates(&candidates, &cand_sims).unwrap();
        assert_eq!(want.edges(), got.edges());
        assert_eq!(want.components(), got.components());
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
        let cut = CachedCut::new(&x, 0.3, 1).unwrap();
        let mut dense = vec![f32::NEG_INFINITY; 3];
        dense[0] = 0.1;
        dense[2] = 0.7;
        let want = cut.cut_with_query(&dense).unwrap();
        let unsorted = cut.cut_with_candidates(&[2, 0], &[0.7, 0.1]).unwrap();
        assert_eq!(want.edges(), unsorted.edges());
        let duplicated = cut
            .cut_with_candidates(&[0, 2, 2], &[0.1, 0.5, 0.7])
            .unwrap();
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
        let cut = CachedCut::new(&x, 0.3, 2).unwrap();
        let sims = [0.7f32, 0.1, 0.5];
        let dense = cut.cut_with_query(&sims).unwrap();
        let sparse = cut.cut_with_candidates(&[0, 1, 2], &sims).unwrap();
        assert_eq!(dense.edges(), sparse.edges());
        assert_eq!(dense.components(), sparse.components());
        // A strict subset keeps only candidate edges: author 1 cannot be
        // linked to the query when it is not a candidate.
        let partial = cut.cut_with_candidates(&[0, 2], &[0.7, 0.5]).unwrap();
        let q = cut.n_authors();
        assert!(partial
            .edges()
            .iter()
            .all(|e| !((e.u == q && e.v == 1) || (e.v == q && e.u == 1))));
    }

    #[test]
    fn cut_with_candidates_rejects_bad_input() {
        let x = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let cut = CachedCut::new(&x, 0.0, 1).unwrap();
        assert!(matches!(
            cut.cut_with_candidates(&[0], &[0.5, 0.5]),
            Err(CoreError::Invalid(_))
        ));
        assert!(matches!(
            cut.cut_with_candidates(&[7], &[0.5]),
            Err(CoreError::Invalid(_))
        ));
        // Empty candidate set is legal: the query joins as an isolated
        // node.
        let forest = cut.cut_with_candidates(&[], &[]).unwrap();
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
            scored < engine.n_authors() || exact.similarities.iter().any(|&s| s == 0.0),
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
