//! Property-based round-trip tests for the compressed CSR subsystem:
//! group-varint primitives over every `u32` value and the wrapping
//! zig-zag first-neighbour code over the full `(source, first)` `u32`
//! domain (covering a first neighbour of `u32::MAX` relative to source 0
//! and vice versa), arbitrary sorted adjacency — including self loops
//! (self-delta 0) and duplicate neighbours (gap 0) that `GraphBuilder`
//! would normalise away — through compression and back, and the
//! `bga-csr-v2` binary format.

use bga_graph::compressed::varint::{
    control_bytes, decode_first, decode_value, encode_block, encode_first, encoded_len,
    zigzag_decode, zigzag_encode, PADDING_BYTES,
};
use bga_graph::generators::barabasi_albert;
use bga_graph::io::{read_compressed_binary_bytes, write_compressed_binary_bytes};
use bga_graph::{AdjacencySource, CompressedCsrGraph, CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Strategy: a random simple undirected graph given as (n, edge list).
fn arbitrary_graph() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (1usize..50).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        let edges =
            prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..max_edges.min(120));
        (Just(n), edges)
    })
}

/// Strategy: raw sorted adjacency with self loops and duplicates allowed —
/// shapes the builder normalises away but the format must still carry
/// (self-delta 0, gap 0).
fn arbitrary_raw_adjacency() -> impl Strategy<Value = (Vec<usize>, Vec<VertexId>)> {
    (1usize..30).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n as VertexId, 0..8), n..n + 1).prop_map(
            move |mut lists| {
                let mut offsets = vec![0usize];
                let mut adjacency = Vec::new();
                for list in &mut lists {
                    list.sort_unstable();
                    adjacency.extend_from_slice(list);
                    offsets.push(adjacency.len());
                }
                (offsets, adjacency)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The control-byte decoder inverts the block encoder for every `u32`
    /// value (shifted right by a random amount so every length class is
    /// drawn), and the wrapping zig-zag first-neighbour code inverts over
    /// every `(source, first)` pair of `u32`s.
    #[test]
    fn varint_primitives_round_trip(
        raw in 0u32..=u32::MAX,
        shift in 0u32..32,
        source in 0u32..=u32::MAX,
        first in 0u32..=u32::MAX,
    ) {
        let value = raw >> shift;
        let mut bytes = Vec::new();
        encode_block(&[value, value], &mut bytes);
        let len = encoded_len(value);
        prop_assert_eq!(bytes.len(), control_bytes(2) + 2 * len);
        bytes.resize(bytes.len() + PADDING_BYTES, 0);
        let data = control_bytes(2);
        // SAFETY: both data loads end inside the PADDING_BYTES zeros.
        let decoded = unsafe {
            [decode_value(&bytes, 0, 0, data), decode_value(&bytes, 0, 1, data + len)]
        };
        prop_assert_eq!(decoded, [(value, len), (value, len)]);
        prop_assert_eq!(decode_first(source, encode_first(source, first)), first);
    }

    /// Zig-zag coding inverts over the full `i32` range the wrapping
    /// first-neighbour delta can take.
    #[test]
    fn zigzag_round_trips(bits in 0u32..=u32::MAX) {
        let delta = bits as i32;
        prop_assert_eq!(zigzag_decode(zigzag_encode(delta)), delta);
    }

    /// Compressing an arbitrary builder graph and decoding it back — via
    /// both the cursor and the bulk `to_csr` — reproduces the original
    /// exactly, and the footprint bookkeeping stays consistent.
    #[test]
    fn builder_graphs_round_trip((n, edges) in arbitrary_graph()) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        let cg = CompressedCsrGraph::from_csr(&g);
        prop_assert_eq!(cg.num_vertices(), g.num_vertices());
        prop_assert_eq!(cg.num_edge_slots(), g.num_edge_slots());
        for v in 0..n as VertexId {
            let decoded: Vec<VertexId> = cg.neighbor_cursor(v).collect();
            prop_assert_eq!(decoded.as_slice(), g.neighbors(v));
        }
        prop_assert_eq!(&cg.to_csr(), &g);
        // Footprint bookkeeping: adjacency covers the payload (plus the
        // fixed decoder padding), the index covers its per-vertex degrees
        // (plus block starts), and csr_bytes prices the Vec layout exactly.
        let fp = cg.footprint();
        prop_assert!(fp.adjacency_bytes as usize >= cg.payload().len());
        prop_assert!(fp.index_bytes as usize >= cg.degrees().len() * 4);
        prop_assert_eq!(
            fp.csr_bytes,
            4 * g.num_edge_slots() as u64 + 8 * (g.num_vertices() as u64 + 1)
        );
    }

    /// Raw sorted adjacency with self loops (self-delta 0) and duplicate
    /// neighbours (gap 0) survives compression bit-for-bit.
    #[test]
    fn degenerate_adjacency_round_trips((offsets, adjacency) in arbitrary_raw_adjacency()) {
        let g = CsrGraph::from_raw_parts(offsets, adjacency, false).unwrap();
        let cg = CompressedCsrGraph::from_csr(&g);
        for v in 0..g.num_vertices() as VertexId {
            let decoded: Vec<VertexId> = cg.neighbor_cursor(v).collect();
            prop_assert_eq!(decoded.as_slice(), g.neighbors(v));
        }
        prop_assert_eq!(&cg.to_csr(), &g);
    }

    /// The bga-csr-v2 binary layer is lossless over arbitrary graphs.
    #[test]
    fn binary_format_round_trips((n, edges) in arbitrary_graph()) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        let cg = CompressedCsrGraph::from_csr(&g);
        let bytes = write_compressed_binary_bytes(&cg);
        let back = read_compressed_binary_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.to_csr(), &g);
        prop_assert_eq!(back.payload(), cg.payload());
        prop_assert_eq!(back.degrees(), cg.degrees());
    }
}

/// Deterministic gap edge cases: a self loop at vertex 0 (zig-zag delta
/// 0), a duplicate pair (gap 0), and the extreme first-delta in both
/// directions exercised through a real (small) graph whose first
/// neighbour is maximally far from its source.
#[test]
fn hand_picked_gap_edge_cases() {
    // Self loop and duplicate slots via raw parts.
    let g = CsrGraph::from_raw_parts(vec![0, 3, 4], vec![0, 1, 1, 0], false).unwrap();
    let cg = CompressedCsrGraph::from_csr(&g);
    assert_eq!(cg.neighbor_cursor(0).collect::<Vec<_>>(), vec![0, 1, 1]);
    assert_eq!(cg.neighbor_cursor(1).collect::<Vec<_>>(), vec![0]);
    assert_eq!(cg.to_csr(), g);

    // A star whose leaves all point far below / above the hub: large
    // negative and positive first deltas in one structure.
    let star = barabasi_albert(200, 1, 7);
    let compressed = CompressedCsrGraph::from_csr(&star);
    assert_eq!(compressed.to_csr(), star);

    // Degree-zero vertices own empty blocks.
    let empty = CsrGraph::empty(5);
    let cempty = CompressedCsrGraph::from_csr(&empty);
    assert_eq!(cempty.payload(), &[] as &[u8]);
    assert_eq!(cempty.degrees(), &[0, 0, 0, 0, 0]);
    assert_eq!(cempty.to_csr(), empty);
}

/// Valid `bga-csr-v2` files the loader fuzz mutates: an odd vertex count
/// (degree padding), an even one, and raw adjacency with a self loop and
/// duplicate slots.
fn fuzz_seed_files() -> Vec<Vec<u8>> {
    [
        barabasi_albert(301, 3, 5),
        GraphBuilder::undirected(30)
            .add_edges((0..29).map(|v| (v, v + 1)))
            .build(),
        CsrGraph::from_raw_parts(vec![0, 3, 4, 4], vec![0, 1, 1, 2], false).unwrap(),
    ]
    .iter()
    .map(|g| write_compressed_binary_bytes(&CompressedCsrGraph::from_csr(g)))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Bit flips anywhere in a valid file, then a truncation, never make
    /// the loader panic, and whatever still loads is a well-formed graph:
    /// in-range, sorted neighbours whose counts sum to `num_edge_slots`.
    /// (Single-bit flips in low payload bits keep a few percent of the
    /// cases loadable, so the well-formedness checks do run.)
    #[test]
    fn mutated_files_never_panic_the_loader(
        seed in 0usize..3,
        flips in prop::collection::vec((0usize..1 << 16, 0u32..8), 1..4),
        cut in 0usize..1 << 16,
    ) {
        let mut bytes = fuzz_seed_files().swap_remove(seed);
        let len = bytes.len();
        for (pos, bit) in flips {
            bytes[pos % len] ^= 1 << bit;
        }
        // Keep the whole file in half of the cases.
        if cut % 2 == 1 {
            bytes.truncate(cut % len);
        }
        if let Ok(graph) = read_compressed_binary_bytes(&bytes) {
            let n = graph.num_vertices();
            let mut slots = 0;
            for v in 0..n as VertexId {
                let neighbors: Vec<VertexId> = graph.neighbor_cursor(v).collect();
                prop_assert_eq!(neighbors.len(), graph.degree(v));
                prop_assert!(neighbors.windows(2).all(|pair| pair[0] <= pair[1]));
                prop_assert!(neighbors.iter().all(|&w| (w as usize) < n));
                slots += neighbors.len();
            }
            prop_assert_eq!(slots, graph.num_edge_slots());
        }
    }
}
