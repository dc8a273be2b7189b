//! Group-varint compressed CSR: the second graph representation.
//!
//! [`CompressedCsrGraph`] stores each vertex's sorted neighbour list as
//! one block of the split control/data codec in [`varint`]:
//!
//! ```text
//! values(v) = zigzag32(first - v)   (wrapping mod 2³², if degree > 0)
//!             gap * (degree - 1)      (gap = w[i] - w[i-1])
//! block(v)  = ctrl[⌈degree/4⌉]  data[..]
//! ```
//!
//! The first neighbour is zig-zag encoded relative to the source vertex —
//! locality in real graphs makes that delta small — and subsequent gaps
//! are non-negative (a zero gap encodes the duplicate neighbours
//! [`CsrGraph`] permits). Each control byte holds four 2-bit length codes
//! (1–4 bytes per value); the data bytes follow. A degree-0 vertex owns
//! an empty block.
//!
//! In place of the `Vec<usize>` offsets array, a `u32` block start and a
//! `u32` degree per vertex (8 B/vertex) locate each block, so `degree()`
//! is one load and `degree_prefix()` a prefix sum. The decode path
//! ([`varint::decode_value`] via [`NeighborCursor`]) is branch-avoiding:
//! each value's length comes from its control byte, never from its own
//! bytes, and the cursor decodes one value ahead so `next()` never takes
//! a data-dependent branch on the byte stream.
//!
//! [`CsrGraph`]: crate::csr::CsrGraph

pub mod varint;
mod weighted;

pub use weighted::CompressedWeightedGraph;

use crate::adjacency::{csr_layout_bytes, AdjacencySource, GraphFootprint};
use crate::csr::{CsrGraph, VertexId};
use std::borrow::Cow;
use varint::{
    control_bytes, decode_block_checked, decode_first, decode_value, encode_block, encode_first,
    PADDING_BYTES,
};

/// Every vertex's block back to back, plus the per-vertex index. Shared
/// by the unweighted and the weighted compressed graphs, which differ in
/// how many values one edge contributes.
///
/// Invariant, which the cursors' unchecked decodes rely on: vertex `v`'s
/// block starts at `starts[v]`, holds `degrees[v]` edges' values, and
/// ends at or before the payload end, after which `bytes` carries
/// [`PADDING_BYTES`] zeros. Only [`Blocks::encode`] and
/// [`CompressedCsrGraph::from_parts`], after checking every block, build
/// one, and nothing mutates one.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blocks {
    /// The blocks, plus [`PADDING_BYTES`] trailing zeros so the cursors'
    /// 4-byte loads stay in bounds.
    bytes: Vec<u8>,
    /// Byte offset of each vertex's block.
    starts: Vec<u32>,
    /// Edge slots of each vertex.
    degrees: Vec<u32>,
}

impl Blocks {
    /// Encodes `n` blocks; `fill(v, values)` pushes vertex `v`'s values,
    /// `values_per_edge` of them per edge slot.
    fn encode(
        n: usize,
        values_per_edge: usize,
        mut fill: impl FnMut(VertexId, &mut Vec<u32>),
    ) -> Self {
        let mut bytes = Vec::new();
        let mut starts = Vec::with_capacity(n);
        let mut degrees = Vec::with_capacity(n);
        let mut values = Vec::new();
        for v in 0..n {
            values.clear();
            fill(v as VertexId, &mut values);
            starts.push(
                u32::try_from(bytes.len())
                    .expect("compressed payload exceeds the u32 block-start range"),
            );
            degrees
                .push(u32::try_from(values.len() / values_per_edge).expect("degree exceeds u32"));
            encode_block(&values, &mut bytes);
        }
        bytes.extend_from_slice(&[0u8; PADDING_BYTES]);
        Blocks {
            bytes,
            starts,
            degrees,
        }
    }

    /// The blocks without the decoder padding.
    fn payload(&self) -> &[u8] {
        &self.bytes[..self.bytes.len() - PADDING_BYTES]
    }

    /// Bytes of the per-vertex start and degree arrays.
    fn index_bytes(&self) -> u64 {
        (4 * (self.starts.len() + self.degrees.len())) as u64
    }

    /// Where vertex `v`'s block starts and how many edge slots it holds.
    #[inline(always)]
    fn locate(&self, v: VertexId) -> (usize, usize) {
        (
            self.starts[v as usize] as usize,
            self.degrees[v as usize] as usize,
        )
    }

    /// The CSR offsets: a prefix sum over the degrees.
    fn degree_prefix(&self) -> Vec<usize> {
        let mut prefix = Vec::with_capacity(self.degrees.len() + 1);
        prefix.push(0usize);
        let mut total = 0usize;
        for &degree in &self.degrees {
            total += degree as usize;
            prefix.push(total);
        }
        prefix
    }
}

/// A CSR graph with group-varint compressed adjacency and a per-vertex
/// block index. Construct with [`CompressedCsrGraph::from_csr`] or load a
/// validated byte stream with [`CompressedCsrGraph::from_parts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedCsrGraph {
    blocks: Blocks,
    num_vertices: usize,
    num_edge_slots: usize,
    undirected: bool,
}

impl CompressedCsrGraph {
    /// Compresses a [`CsrGraph`]. The encoding is lossless: neighbour
    /// order (including duplicates) is preserved exactly.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let blocks = Blocks::encode(graph.num_vertices(), 1, |v, values| {
            if let Some((&first, rest)) = graph.neighbors(v).split_first() {
                values.push(encode_first(v, first));
                let mut prev = first;
                for &w in rest {
                    values.push(w - prev);
                    prev = w;
                }
            }
        });
        CompressedCsrGraph {
            blocks,
            num_vertices: graph.num_vertices(),
            num_edge_slots: graph.num_edge_slots(),
            undirected: graph.is_undirected(),
        }
    }

    /// Reassembles a graph from its serialized parts (the per-vertex
    /// degrees and the payload without decoder padding), validating the
    /// whole stream: the degrees must add up to `num_edge_slots`, every
    /// block must be canonical (no stray length codes, no run past the
    /// payload, minimal lengths), neighbours must be in range, and no
    /// bytes may follow the last block. The block starts are derived on
    /// the way. Malformed streams are rejected here once so the hot
    /// decode path stays unchecked, and a stream that loads re-encodes to
    /// the same bytes.
    pub fn from_parts(
        num_vertices: usize,
        num_edge_slots: usize,
        undirected: bool,
        degrees: Vec<u32>,
        payload: Vec<u8>,
    ) -> Result<Self, String> {
        if degrees.len() != num_vertices {
            return Err(format!(
                "{} degrees for {num_vertices} vertices",
                degrees.len()
            ));
        }
        if num_vertices > VertexId::MAX as usize + 1 {
            return Err(format!(
                "{num_vertices} vertices overflow the u32 vertex ids"
            ));
        }
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        if total != num_edge_slots as u64 {
            return Err(format!(
                "degrees sum to {total} edge slots, header claims {num_edge_slots}"
            ));
        }

        let mut starts = Vec::with_capacity(num_vertices);
        let mut values = Vec::new();
        let mut pos = 0usize;
        for (v, &degree) in degrees.iter().enumerate() {
            starts.push(
                u32::try_from(pos)
                    .map_err(|_| format!("vertex {v}: block starts past the u32 range"))?,
            );
            values.clear();
            pos = decode_block_checked(&payload, pos, degree as usize, &mut values)
                .map_err(|e| format!("vertex {v}: {e}"))?;
            if let Some((&code, gaps)) = values.split_first() {
                // Gaps are non-negative, so the last neighbour is the largest.
                let last = gaps
                    .iter()
                    .fold(u64::from(decode_first(v as VertexId, code)), |w, &gap| {
                        w.saturating_add(u64::from(gap))
                    });
                if last >= num_vertices as u64 {
                    return Err(format!("vertex {v}: neighbour {last} out of range"));
                }
            }
        }
        if pos != payload.len() {
            return Err(format!(
                "payload has {} trailing bytes past the last block",
                payload.len() - pos
            ));
        }

        let mut bytes = payload;
        bytes.extend_from_slice(&[0u8; PADDING_BYTES]);
        Ok(CompressedCsrGraph {
            blocks: Blocks {
                bytes,
                starts,
                degrees,
            },
            num_vertices,
            num_edge_slots,
            undirected,
        })
    }

    /// Decompresses back to the `Vec` CSR layout.
    pub fn to_csr(&self) -> CsrGraph {
        let mut adjacency = Vec::with_capacity(self.num_edge_slots);
        for v in 0..self.num_vertices {
            adjacency.extend(self.neighbor_cursor(v as VertexId));
        }
        CsrGraph::from_raw_parts(self.blocks.degree_prefix(), adjacency, self.undirected)
            .expect("a validated compressed graph always decompresses to a valid CSR")
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edge slots.
    pub fn num_edge_slots(&self) -> usize {
        self.num_edge_slots
    }

    /// Whether the graph was constructed as undirected.
    pub fn is_undirected(&self) -> bool {
        self.undirected
    }

    /// Out-degree of `v`, read from the index.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.blocks.degrees[v as usize] as usize
    }

    /// Branch-avoiding cursor over the neighbours of `v`.
    #[inline]
    pub fn neighbor_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        NeighborCursor::new(self, v)
    }

    /// The compressed payload, without the decoder padding — what the
    /// on-disk format serializes.
    pub fn payload(&self) -> &[u8] {
        self.blocks.payload()
    }

    /// Every vertex's degree — what the on-disk format serializes next to
    /// the payload (the block starts follow from the two).
    pub fn degrees(&self) -> &[u32] {
        &self.blocks.degrees
    }
}

impl AdjacencySource for CompressedCsrGraph {
    type Cursor<'a> = NeighborCursor<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edge_slots(&self) -> usize {
        self.num_edge_slots
    }

    #[inline]
    fn is_undirected(&self) -> bool {
        self.undirected
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CompressedCsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbor_cursor(&self, v: VertexId) -> Self::Cursor<'_> {
        CompressedCsrGraph::neighbor_cursor(self, v)
    }

    fn degree_prefix(&self) -> Cow<'_, [usize]> {
        Cow::Owned(self.blocks.degree_prefix())
    }

    fn footprint(&self) -> GraphFootprint {
        GraphFootprint {
            representation: "compressed",
            adjacency_bytes: self.blocks.bytes.len() as u64,
            index_bytes: self.blocks.index_bytes(),
            csr_bytes: csr_layout_bytes(self.num_vertices, self.num_edge_slots),
        }
    }
}

/// Iterator over one vertex's neighbours, decoding its block with the
/// branch-avoiding control-byte decoder.
///
/// The cursor keeps one decoded value of lookahead: `next()` returns the
/// stored value and eagerly decodes the following gap, so the hot loop is
/// pure arithmetic — the only branch is the loop-termination count check,
/// which every iterator shares. The eager decode after the final element
/// reads a control byte inside the block (or the first data byte) and
/// data at the block end, in the next block or the stream padding; the
/// result is discarded.
#[derive(Clone, Debug)]
pub struct NeighborCursor<'a> {
    bytes: &'a [u8],
    /// The block's first control byte.
    ctrl: usize,
    /// Data position of the value the lookahead decodes next.
    data: usize,
    /// Index of that value within the block.
    slot: usize,
    remaining: usize,
    next_val: VertexId,
}

impl<'a> NeighborCursor<'a> {
    #[inline]
    fn new(graph: &'a CompressedCsrGraph, v: VertexId) -> Self {
        let bytes = &graph.blocks.bytes;
        let (ctrl, degree) = graph.blocks.locate(v);
        let data = ctrl + control_bytes(degree);
        // SAFETY: by the `Blocks` invariant, `ctrl` and `data` lie at or
        // before the payload end (for an empty block both are its start),
        // and PADDING_BYTES >= 4 bytes follow the payload.
        let (code, len) = unsafe { decode_value(bytes, ctrl, 0, data) };
        NeighborCursor {
            bytes,
            ctrl,
            data: data + len,
            slot: 1,
            remaining: degree,
            next_val: decode_first(v, code),
        }
    }
}

impl Iterator for NeighborCursor<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let current = self.next_val;
        // Eager lookahead: decode the next gap unconditionally. Past the
        // last neighbour the value is never yielded.
        // SAFETY: `slot <= degree`. Below `degree` the value lies inside
        // the block. At `degree` its control byte is at most the block's
        // first data byte and its data starts at the block end, both at or
        // before the payload end, which PADDING_BYTES >= 4 bytes follow
        // (the `Blocks` invariant).
        let (gap, len) = unsafe { decode_value(self.bytes, self.ctrl, self.slot, self.data) };
        self.data += len;
        self.slot += 1;
        self.next_val = self.next_val.wrapping_add(gap);
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for NeighborCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, complete_graph, path_graph, star_graph};

    fn round_trip_cases() -> Vec<CsrGraph> {
        vec![
            CsrGraph::empty(0),
            path_graph(1),
            path_graph(2),
            star_graph(50),
            complete_graph(12),
            barabasi_albert(500, 4, 9),
            // Duplicate neighbours (zero gaps) and a self-loop.
            CsrGraph::from_raw_parts(vec![0, 3, 4, 4], vec![0, 1, 1, 2], false).unwrap(),
        ]
    }

    fn reload(graph: &CompressedCsrGraph, payload: Vec<u8>) -> Result<CompressedCsrGraph, String> {
        CompressedCsrGraph::from_parts(
            graph.num_vertices(),
            graph.num_edge_slots(),
            graph.is_undirected(),
            graph.degrees().to_vec(),
            payload,
        )
    }

    #[test]
    fn compression_round_trips_every_case() {
        for csr in round_trip_cases() {
            let compressed = CompressedCsrGraph::from_csr(&csr);
            assert_eq!(compressed.num_vertices(), csr.num_vertices());
            assert_eq!(compressed.num_edge_slots(), csr.num_edge_slots());
            assert_eq!(compressed.is_undirected(), csr.is_undirected());
            assert_eq!(compressed.to_csr(), csr);
        }
    }

    #[test]
    fn cursors_and_degrees_match_the_csr() {
        let csr = barabasi_albert(400, 3, 5);
        let compressed = CompressedCsrGraph::from_csr(&csr);
        for v in csr.vertices() {
            assert_eq!(compressed.degree(v), csr.degree(v));
            let neighbors: Vec<VertexId> = compressed.neighbor_cursor(v).collect();
            assert_eq!(neighbors, csr.neighbors(v), "vertex {v}");
            assert_eq!(compressed.neighbor_cursor(v).len(), csr.degree(v));
        }
        assert_eq!(
            AdjacencySource::degree_prefix(&compressed).as_ref(),
            csr.offsets()
        );
    }

    #[test]
    fn serialized_parts_round_trip_through_validation() {
        for csr in round_trip_cases() {
            let compressed = CompressedCsrGraph::from_csr(&csr);
            let rebuilt =
                reload(&compressed, compressed.payload().to_vec()).expect("valid parts must load");
            assert_eq!(rebuilt, compressed);
            // Canonical form: re-encoding what loaded gives the same bytes.
            let reencoded = CompressedCsrGraph::from_csr(&rebuilt.to_csr());
            assert_eq!(reencoded.payload(), compressed.payload());
        }
    }

    #[test]
    fn footprint_shrinks_a_real_graph() {
        let csr = barabasi_albert(2000, 8, 3);
        let compressed = CompressedCsrGraph::from_csr(&csr);
        let fp = AdjacencySource::footprint(&compressed);
        assert_eq!(fp.representation, "compressed");
        assert_eq!(fp.csr_bytes, AdjacencySource::footprint(&csr).csr_bytes);
        assert_eq!(fp.index_bytes, 8 * csr.num_vertices() as u64);
        assert!(
            fp.total_bytes() < fp.csr_bytes,
            "{} compressed bytes vs {} csr bytes",
            fp.total_bytes(),
            fp.csr_bytes
        );
        assert!(fp.ratio() > 1.0);
    }

    #[test]
    fn corrupt_parts_are_rejected() {
        let good = CompressedCsrGraph::from_csr(&star_graph(20));
        let n = good.num_vertices();
        let m = good.num_edge_slots();
        let payload = good.payload().to_vec();
        let degrees = good.degrees().to_vec();
        let load = |n, m, degrees: &[u32], payload: &[u8]| {
            CompressedCsrGraph::from_parts(n, m, true, degrees.to_vec(), payload.to_vec())
        };

        // Truncated payload.
        assert!(load(n, m, &degrees, &payload[..payload.len() - 1]).is_err());
        // Wrong edge count in the header.
        assert!(load(n, m + 1, &degrees, &payload).is_err());
        // Wrong vertex count.
        assert!(load(n + 1, m, &degrees, &payload).is_err());
        // Degrees that move edges between vertices: the block boundaries
        // no longer line up.
        let mut shifted = degrees.clone();
        shifted[0] -= 1;
        shifted[1] += 1;
        assert!(load(n, m, &shifted, &payload).is_err());
        // A neighbour past the last vertex.
        let far = CompressedCsrGraph::from_csr(&path_graph(2));
        let mut payload2 = far.payload().to_vec();
        payload2[1] = 4; // zigzag(2): vertex 0's first neighbour is 2
        assert!(reload(&far, payload2).unwrap_err().contains("out of range"));
        // Flipped payload bytes never panic.
        for i in 0..payload.len() {
            let mut corrupt = payload.clone();
            corrupt[i] ^= 0x81;
            let _ = load(n, m, &degrees, &corrupt);
        }
    }

    /// Path 0–1 encodes as `[0x00, 0x02]` (one 1-byte value, zigzag(+1))
    /// then `[0x00, 0x01]` (zigzag(-1)).
    fn path2() -> CompressedCsrGraph {
        let graph = CompressedCsrGraph::from_csr(&path_graph(2));
        assert_eq!(graph.payload(), &[0x00, 0x02, 0x00, 0x01]);
        graph
    }

    #[test]
    fn nonzero_unused_control_slots_are_rejected() {
        let graph = path2();
        let err = reload(&graph, vec![0b0100, 0x02, 0x00, 0x01]).unwrap_err();
        assert!(
            err.contains("vertex 0") && err.contains("unused control slot"),
            "{err}"
        );
    }

    #[test]
    fn data_runs_past_the_payload_end_are_rejected() {
        let graph = path2();
        let err = reload(&graph, vec![0x00, 0x02, 0b11, 0x01]).unwrap_err();
        assert!(
            err.contains("vertex 1") && err.contains("past the payload end"),
            "{err}"
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let graph = path2();
        let err = reload(&graph, vec![0x00, 0x02, 0x00, 0x01, 0x00]).unwrap_err();
        assert!(err.contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn non_minimal_lengths_are_rejected() {
        let graph = path2();
        let err = reload(&graph, vec![0b01, 0x02, 0x00, 0x00, 0x01]).unwrap_err();
        assert!(err.contains("vertex 0") && err.contains("minimal"), "{err}");
    }

    #[test]
    fn empty_graph_compresses_to_nothing() {
        let compressed = CompressedCsrGraph::from_csr(&CsrGraph::empty(0));
        assert_eq!(compressed.payload(), &[] as &[u8]);
        assert_eq!(compressed.degrees().len(), 0);
        assert_eq!(AdjacencySource::degree_prefix(&compressed).as_ref(), &[0]);
    }
}
