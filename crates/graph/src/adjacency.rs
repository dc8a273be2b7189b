//! The adjacency seam every graph representation implements.
//!
//! The parallel traversal engine (`bga-parallel`) and its five kernels do
//! not care *how* neighbour lists are stored — only that each vertex can
//! hand out its sorted neighbours, its degree, and that the chunkers can
//! balance work on degree prefix sums. [`AdjacencySource`] (and its
//! weighted sibling [`WeightedAdjacencySource`]) capture exactly that
//! surface, so the same generic kernel entry points run on the plain
//! [`CsrGraph`] `Vec` layout and on the group-varint
//! [`crate::compressed::CompressedCsrGraph`] without a line of duplicated
//! traversal code.
//!
//! Two properties matter for bit-identical results across
//! representations:
//!
//! * [`AdjacencySource::neighbor_cursor`] must yield the neighbours in the
//!   same (sorted, duplicate-preserving) order as [`CsrGraph::neighbors`],
//!   so every kernel observes the same edge sequence.
//! * [`AdjacencySource::degree_prefix`] must return the exact CSR offsets
//!   prefix (`prefix[v]` = edge slots owned by vertices `0..v`), so the
//!   edge-balanced chunkers produce the same ranges on either
//!   representation. `CsrGraph` borrows its offsets array for free; the
//!   compressed form materialises the prefix from its per-vertex degrees.

use crate::csr::{CsrGraph, VertexId};
use crate::weighted::{EdgeWeight, WeightedCsrGraph};
use std::borrow::Cow;

/// Memory footprint of one graph representation, reported in run trace
/// headers and by `bga trace report`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphFootprint {
    /// Representation name (`"csr"` or `"compressed"`).
    pub representation: &'static str,
    /// Bytes holding the adjacency payload (the `Vec<u32>` adjacency
    /// array, or the group-varint byte stream including its padding).
    pub adjacency_bytes: u64,
    /// Bytes holding the offsets structure (the `Vec<usize>` offsets
    /// array, or the compressed form's `u32` block start and `u32` degree
    /// per vertex, 8 bytes each).
    pub index_bytes: u64,
    /// Bytes the plain `Vec` CSR layout of the same graph occupies —
    /// the baseline the compression ratio is measured against.
    pub csr_bytes: u64,
}

impl GraphFootprint {
    /// Total bytes of this representation (payload + index).
    pub fn total_bytes(&self) -> u64 {
        self.adjacency_bytes + self.index_bytes
    }

    /// Compression ratio versus the plain CSR layout (`> 1` means this
    /// representation is smaller; 1.0 for CSR itself).
    pub fn ratio(&self) -> f64 {
        self.csr_bytes as f64 / (self.total_bytes().max(1)) as f64
    }
}

/// Bytes the plain CSR layout uses for a graph of `n` vertices and `m`
/// directed edge slots: a `u32` per slot plus a `usize` offset per vertex
/// (and the trailing sentinel).
pub(crate) fn csr_layout_bytes(n: usize, m: usize) -> u64 {
    (m * std::mem::size_of::<VertexId>() + (n + 1) * std::mem::size_of::<usize>()) as u64
}

/// An unweighted adjacency structure the traversal engine can run on.
///
/// Implementations must be cheap to query concurrently (`Sync`, interior
/// immutability) and must satisfy the ordering/prefix contracts in the
/// module docs.
pub trait AdjacencySource: Sync {
    /// Iterator over one vertex's neighbours, sorted ascending (duplicates
    /// preserved) — the same sequence [`CsrGraph::neighbors`] yields.
    type Cursor<'a>: Iterator<Item = VertexId> + 'a
    where
        Self: 'a;

    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edge slots.
    fn num_edge_slots(&self) -> usize;

    /// Whether the graph was constructed as undirected.
    fn is_undirected(&self) -> bool;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Cursor over the neighbours of `v`.
    fn neighbor_cursor(&self, v: VertexId) -> Self::Cursor<'_>;

    /// The degree prefix sums `prefix[v]` = edge slots owned by vertices
    /// `0..v` (length `|V| + 1`): exactly the CSR offsets array. Borrowed
    /// where the representation already stores it, materialised otherwise.
    fn degree_prefix(&self) -> Cow<'_, [usize]>;

    /// Memory footprint of this representation.
    fn footprint(&self) -> GraphFootprint;
}

impl AdjacencySource for CsrGraph {
    type Cursor<'a> = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edge_slots(&self) -> usize {
        CsrGraph::num_edge_slots(self)
    }

    #[inline]
    fn is_undirected(&self) -> bool {
        CsrGraph::is_undirected(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbor_cursor(&self, v: VertexId) -> Self::Cursor<'_> {
        self.neighbors(v).iter().copied()
    }

    #[inline]
    fn degree_prefix(&self) -> Cow<'_, [usize]> {
        Cow::Borrowed(self.offsets())
    }

    fn footprint(&self) -> GraphFootprint {
        let csr_bytes = csr_layout_bytes(self.num_vertices(), self.num_edge_slots());
        GraphFootprint {
            representation: "csr",
            adjacency_bytes: (self.num_edge_slots() * std::mem::size_of::<VertexId>()) as u64,
            index_bytes: ((self.num_vertices() + 1) * std::mem::size_of::<usize>()) as u64,
            csr_bytes,
        }
    }
}

/// A weighted adjacency structure the bucket-synchronous engine can run
/// on; the same contracts as [`AdjacencySource`], with cursors yielding
/// `(neighbour, weight)` pairs.
pub trait WeightedAdjacencySource: Sync {
    /// Iterator over one vertex's `(neighbour, weight)` pairs, neighbour
    /// order as in [`AdjacencySource::neighbor_cursor`].
    type WeightedCursor<'a>: Iterator<Item = (VertexId, EdgeWeight)> + 'a
    where
        Self: 'a;

    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edge slots.
    fn num_edge_slots(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Cursor over the `(neighbour, weight)` pairs of `v`.
    fn weighted_neighbor_cursor(&self, v: VertexId) -> Self::WeightedCursor<'_>;

    /// The largest edge weight, or `None` for an edgeless graph.
    fn max_weight(&self) -> Option<EdgeWeight>;

    /// Memory footprint of this representation.
    fn footprint(&self) -> GraphFootprint;
}

/// `(neighbour, weight)` cursor over the parallel slice pair of a
/// [`WeightedCsrGraph`].
pub type WeightedSliceCursor<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, VertexId>>,
    std::iter::Copied<std::slice::Iter<'a, EdgeWeight>>,
>;

impl WeightedAdjacencySource for WeightedCsrGraph {
    type WeightedCursor<'a> = WeightedSliceCursor<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        WeightedCsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edge_slots(&self) -> usize {
        self.csr().num_edge_slots()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.csr().degree(v)
    }

    #[inline]
    fn weighted_neighbor_cursor(&self, v: VertexId) -> Self::WeightedCursor<'_> {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    #[inline]
    fn max_weight(&self) -> Option<EdgeWeight> {
        WeightedCsrGraph::max_weight(self)
    }

    fn footprint(&self) -> GraphFootprint {
        let n = self.num_vertices();
        let m = self.csr().num_edge_slots();
        // Weighted CSR baseline: adjacency + parallel weights array.
        let weight_bytes = (m * std::mem::size_of::<EdgeWeight>()) as u64;
        GraphFootprint {
            representation: "csr",
            adjacency_bytes: (m * std::mem::size_of::<VertexId>()) as u64 + weight_bytes,
            index_bytes: ((n + 1) * std::mem::size_of::<usize>()) as u64,
            csr_bytes: csr_layout_bytes(n, m) + weight_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, star_graph};
    use crate::weighted::uniform_weights;

    #[test]
    fn csr_cursor_matches_the_neighbor_slice() {
        let g = barabasi_albert(300, 3, 7);
        for v in g.vertices() {
            let via_cursor: Vec<VertexId> = g.neighbor_cursor(v).collect();
            assert_eq!(via_cursor, g.neighbors(v));
            assert_eq!(AdjacencySource::degree(&g, v), g.neighbors(v).len());
        }
        assert_eq!(g.degree_prefix().as_ref(), g.offsets());
        assert!(matches!(g.degree_prefix(), Cow::Borrowed(_)));
    }

    #[test]
    fn weighted_cursor_matches_neighbors_weighted() {
        let g = uniform_weights(&star_graph(40), 16, 3);
        for v in g.csr().vertices() {
            let via_cursor: Vec<(VertexId, EdgeWeight)> = g.weighted_neighbor_cursor(v).collect();
            let via_slices: Vec<(VertexId, EdgeWeight)> = g.neighbors_weighted(v).collect();
            assert_eq!(via_cursor, via_slices);
        }
        assert_eq!(
            WeightedAdjacencySource::max_weight(&g),
            g.weights().iter().copied().max()
        );
    }

    #[test]
    fn csr_footprint_is_the_baseline() {
        let g = star_graph(100);
        let fp = g.footprint();
        assert_eq!(fp.representation, "csr");
        assert_eq!(fp.adjacency_bytes, (g.num_edge_slots() * 4) as u64);
        assert_eq!(fp.index_bytes, ((g.num_vertices() + 1) * 8) as u64);
        assert_eq!(fp.total_bytes(), fp.csr_bytes);
        assert!((fp.ratio() - 1.0).abs() < 1e-12);
    }
}
