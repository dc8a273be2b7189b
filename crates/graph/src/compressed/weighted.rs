//! Weighted companion of [`CompressedCsrGraph`]: interleaved
//! `(delta, weight)` values per edge in the same group-varint blocks.
//!
//! Each vertex's block carries two values per edge — the neighbour delta
//! (zig-zag for the first, raw gap after) immediately followed by its
//! weight — under one control-byte run:
//!
//! ```text
//! values(v) = delta_0 w_0  gap_1 w_1  …  gap_{d-1} w_{d-1}
//! block(v)  = ctrl[⌈2d/4⌉]  data[..]
//! ```
//!
//! A gap and its weight always share a control byte, so the cursor's
//! eager lookahead decodes exactly the pair a weighted relaxation
//! consumes. The maximum edge weight is computed once at construction
//! because the bucket-synchronous engine sizes its bucket range from it.
//!
//! [`CompressedCsrGraph`]: super::CompressedCsrGraph

use super::varint::{control_bytes, decode_first, decode_value, encode_first};
use super::Blocks;
use crate::adjacency::{csr_layout_bytes, GraphFootprint, WeightedAdjacencySource};
use crate::csr::VertexId;
use crate::weighted::{EdgeWeight, WeightedCsrGraph};

/// A weighted graph with group-varint compressed adjacency, weights
/// interleaved with the neighbour deltas. Built in memory from a
/// [`WeightedCsrGraph`]; the `bga-csr-v2` on-disk format covers only the
/// unweighted representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedWeightedGraph {
    blocks: Blocks,
    num_vertices: usize,
    num_edge_slots: usize,
    max_weight: Option<EdgeWeight>,
}

impl CompressedWeightedGraph {
    /// Compresses a [`WeightedCsrGraph`], preserving neighbour order and
    /// per-edge weights exactly.
    pub fn from_weighted(graph: &WeightedCsrGraph) -> Self {
        let blocks = Blocks::encode(graph.num_vertices(), 2, |v, values| {
            let mut prev = None;
            for (w, weight) in graph.neighbors_weighted(v) {
                values.push(match prev {
                    None => encode_first(v, w),
                    Some(p) => w - p,
                });
                values.push(weight);
                prev = Some(w);
            }
        });
        CompressedWeightedGraph {
            blocks,
            num_vertices: graph.num_vertices(),
            num_edge_slots: graph.csr().num_edge_slots(),
            max_weight: graph.max_weight(),
        }
    }

    /// Decompresses back to the parallel-array layout.
    pub fn to_weighted(&self) -> WeightedCsrGraph {
        let mut adjacency = Vec::with_capacity(self.num_edge_slots);
        let mut weights = Vec::with_capacity(self.num_edge_slots);
        for v in 0..self.num_vertices {
            for (w, weight) in self.weighted_neighbor_cursor(v as VertexId) {
                adjacency.push(w);
                weights.push(weight);
            }
        }
        let csr =
            crate::csr::CsrGraph::from_raw_parts(self.blocks.degree_prefix(), adjacency, true)
                .expect("a compressed weighted graph always decompresses to a valid CSR");
        WeightedCsrGraph::from_parts(csr, weights).expect("decompressed weights always validate")
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edge slots.
    pub fn num_edge_slots(&self) -> usize {
        self.num_edge_slots
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.blocks.degrees[v as usize] as usize
    }

    /// The largest edge weight, or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<EdgeWeight> {
        self.max_weight
    }

    /// Branch-avoiding cursor over the `(neighbour, weight)` pairs of `v`.
    #[inline]
    pub fn weighted_neighbor_cursor(&self, v: VertexId) -> WeightedNeighborCursor<'_> {
        WeightedNeighborCursor::new(self, v)
    }
}

impl WeightedAdjacencySource for CompressedWeightedGraph {
    type WeightedCursor<'a> = WeightedNeighborCursor<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edge_slots(&self) -> usize {
        self.num_edge_slots
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CompressedWeightedGraph::degree(self, v)
    }

    #[inline]
    fn weighted_neighbor_cursor(&self, v: VertexId) -> Self::WeightedCursor<'_> {
        CompressedWeightedGraph::weighted_neighbor_cursor(self, v)
    }

    #[inline]
    fn max_weight(&self) -> Option<EdgeWeight> {
        self.max_weight
    }

    fn footprint(&self) -> GraphFootprint {
        let weight_bytes = (self.num_edge_slots * std::mem::size_of::<EdgeWeight>()) as u64;
        GraphFootprint {
            representation: "compressed",
            adjacency_bytes: self.blocks.bytes.len() as u64,
            index_bytes: self.blocks.index_bytes(),
            csr_bytes: csr_layout_bytes(self.num_vertices, self.num_edge_slots) + weight_bytes,
        }
    }
}

/// Iterator over one vertex's `(neighbour, weight)` pairs with the same
/// eager-lookahead, branch-avoiding decode scheme as
/// [`super::NeighborCursor`].
#[derive(Clone, Debug)]
pub struct WeightedNeighborCursor<'a> {
    bytes: &'a [u8],
    ctrl: usize,
    data: usize,
    /// Index of the next gap within the block (always even).
    slot: usize,
    remaining: usize,
    next_val: VertexId,
    next_weight: EdgeWeight,
}

impl<'a> WeightedNeighborCursor<'a> {
    #[inline]
    fn new(graph: &'a CompressedWeightedGraph, v: VertexId) -> Self {
        let bytes = &graph.blocks.bytes;
        let (ctrl, degree) = graph.blocks.locate(v);
        let data = ctrl + control_bytes(2 * degree);
        // SAFETY: by the `Blocks` invariant, `ctrl` and `data` lie at or
        // before the payload end (for an empty block both are its start),
        // so both control bytes are in bounds and the two loads end within
        // the PADDING_BYTES = 8 zeros after it.
        let (code, len) = unsafe { decode_value(bytes, ctrl, 0, data) };
        let (weight, weight_len) = unsafe { decode_value(bytes, ctrl, 1, data + len) };
        WeightedNeighborCursor {
            bytes,
            ctrl,
            data: data + len + weight_len,
            slot: 2,
            remaining: degree,
            next_val: decode_first(v, code),
            next_weight: weight,
        }
    }
}

impl Iterator for WeightedNeighborCursor<'_> {
    type Item = (VertexId, EdgeWeight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, EdgeWeight)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let current = (self.next_val, self.next_weight);
        // Eager lookahead over the (gap, weight) pair; past the last edge
        // this reads the next block or the padding, never yielded.
        // SAFETY: `slot <= 2 * degree`. Below it the pair lies inside the
        // block. At it the shared control byte is at most the block's first
        // data byte and the two loads start at the block end and at most 4
        // bytes later, ending within the PADDING_BYTES = 8 zeros after the
        // payload (the `Blocks` invariant).
        let (gap, len) = unsafe { decode_value(self.bytes, self.ctrl, self.slot, self.data) };
        self.data += len;
        let (weight, len) =
            unsafe { decode_value(self.bytes, self.ctrl, self.slot + 1, self.data) };
        self.data += len;
        self.slot += 2;
        self.next_val = self.next_val.wrapping_add(gap);
        self.next_weight = weight;
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for WeightedNeighborCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, path_graph, star_graph};
    use crate::weighted::{uniform_weights, unit_weights};

    #[test]
    fn weighted_compression_round_trips() {
        for weighted in [
            unit_weights(&path_graph(1)),
            unit_weights(&star_graph(30)),
            uniform_weights(&barabasi_albert(400, 3, 5), 64, 7),
        ] {
            let compressed = CompressedWeightedGraph::from_weighted(&weighted);
            assert_eq!(compressed.num_vertices(), weighted.num_vertices());
            assert_eq!(compressed.num_edge_slots(), weighted.csr().num_edge_slots());
            assert_eq!(compressed.max_weight(), weighted.max_weight());
            assert_eq!(compressed.to_weighted(), weighted);
        }
    }

    #[test]
    fn weighted_cursors_match_the_parallel_arrays() {
        let weighted = uniform_weights(&barabasi_albert(300, 4, 2), 100, 13);
        let compressed = CompressedWeightedGraph::from_weighted(&weighted);
        for v in weighted.csr().vertices() {
            let pairs: Vec<(VertexId, EdgeWeight)> =
                compressed.weighted_neighbor_cursor(v).collect();
            let reference: Vec<(VertexId, EdgeWeight)> = weighted.neighbors_weighted(v).collect();
            assert_eq!(pairs, reference, "vertex {v}");
            assert_eq!(compressed.degree(v), weighted.csr().degree(v));
        }
    }

    #[test]
    fn weighted_footprint_reports_the_weighted_baseline() {
        let weighted = uniform_weights(&barabasi_albert(1000, 6, 4), 32, 5);
        let compressed = CompressedWeightedGraph::from_weighted(&weighted);
        let fp = WeightedAdjacencySource::footprint(&compressed);
        let baseline = WeightedAdjacencySource::footprint(&weighted);
        assert_eq!(fp.representation, "compressed");
        assert_eq!(fp.csr_bytes, baseline.csr_bytes);
        assert!(fp.total_bytes() < fp.csr_bytes);
    }
}
