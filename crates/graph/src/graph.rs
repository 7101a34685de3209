//! The authors' weighted graph (paper Definition 6).

use crate::error::GraphError;

/// One undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Similarity weight.
    pub w: f32,
}

/// An undirected weighted graph over dense node ids `0..n`.
///
/// The author-linking pipeline builds it from an `n x n` similarity matrix;
/// [`WeightedGraph::from_similarity`] sparsifies by a similarity
/// threshold, since a fully connected 400-node graph has ~80 K edges of
/// which the weak majority only slow the spanning-tree cut down.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<Edge>,
}

impl WeightedGraph {
    /// An empty graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Add an undirected edge.
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfRange`] for bad endpoints (self-loops are
    /// rejected the same way), [`GraphError::NonFiniteWeight`] for NaN/inf.
    pub fn add_edge(&mut self, a: usize, b: usize, w: f32) -> Result<(), GraphError> {
        if a >= self.n || b >= self.n || a == b {
            return Err(GraphError::NodeOutOfRange {
                node: a.max(b),
                n: self.n,
            });
        }
        if !w.is_finite() {
            return Err(GraphError::NonFiniteWeight(w));
        }
        self.edges.push(Edge {
            u: a.min(b),
            v: a.max(b),
            w,
        });
        Ok(())
    }

    /// Build from a full symmetric similarity matrix (`sim[i][j]`, read
    /// from the upper triangle).
    ///
    /// Keeps edge `(i, j)` when `sim[i][j]` is finite and
    /// `sim[i][j] >= min_similarity`. A NaN similarity (all-OOV author)
    /// never clears the threshold, and an infinite one is dropped, so
    /// every weight in the graph is finite.
    ///
    /// # Errors
    /// [`GraphError::NotSquare`] when the matrix is ragged.
    pub fn from_similarity(sim: &[Vec<f32>], min_similarity: f32) -> Result<Self, GraphError> {
        let n = sim.len();
        if let Some(row) = sim.iter().find(|row| row.len() != n) {
            return Err(GraphError::NotSquare {
                rows: n,
                cols: row.len(),
            });
        }
        let mut g = WeightedGraph::new(n);
        for (i, row) in sim.iter().enumerate() {
            for (j, &w) in row.iter().enumerate().skip(i + 1) {
                if w.is_finite() && w >= min_similarity {
                    g.edges.push(Edge { u: i, v: j, w });
                }
            }
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Mean edge weight (0 for an edgeless graph).
    pub fn avg_weight(&self) -> f32 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.iter().map(|e| e.w).sum::<f32>() / self.edges.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_validates() {
        let mut g = WeightedGraph::new(3);
        assert!(g.add_edge(0, 1, 0.5).is_ok());
        assert!(g.add_edge(0, 3, 0.5).is_err());
        assert!(g.add_edge(1, 1, 0.5).is_err());
        assert!(g.add_edge(0, 2, f32::NAN).is_err());
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn edges_are_normalized_to_u_less_than_v() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(2, 0, 1.0).unwrap();
        assert_eq!(g.edges()[0].u, 0);
        assert_eq!(g.edges()[0].v, 2);
    }

    fn sim3() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.9, 0.1],
            vec![0.9, 1.0, 0.2],
            vec![0.1, 0.2, 1.0],
        ]
    }

    #[test]
    fn from_similarity_threshold_only() {
        let g = WeightedGraph::from_similarity(&sim3(), 0.5).unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edges()[0], Edge { u: 0, v: 1, w: 0.9 });
    }

    #[test]
    fn from_similarity_rejects_ragged() {
        let bad = vec![vec![1.0, 0.5], vec![0.5]];
        assert!(matches!(
            WeightedGraph::from_similarity(&bad, 0.0),
            Err(GraphError::NotSquare { .. })
        ));
    }

    #[test]
    fn avg_weight() {
        let mut g = WeightedGraph::new(3);
        assert_eq!(g.avg_weight(), 0.0);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 3.0).unwrap();
        assert_eq!(g.avg_weight(), 2.0);
    }

    #[test]
    fn from_similarity_tolerates_nan_rows() {
        // An author with no usable content can produce a NaN similarity
        // row; its edges must be dropped, even under a -inf threshold.
        let sim = vec![
            vec![1.0, f32::NAN, 0.4],
            vec![f32::NAN, 1.0, f32::NAN],
            vec![0.4, f32::NAN, 1.0],
        ];
        let g = WeightedGraph::from_similarity(&sim, f32::NEG_INFINITY).unwrap();
        assert!(g.edges().iter().all(|e| e.w.is_finite()));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edges()[0], Edge { u: 0, v: 2, w: 0.4 });
    }

    #[test]
    fn zero_threshold_full_graph() {
        let g = WeightedGraph::from_similarity(&sim3(), f32::NEG_INFINITY).unwrap();
        assert_eq!(g.n_edges(), 3);
    }
}
