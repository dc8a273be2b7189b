//! # bga-graph
//!
//! Graph data structures, generators and I/O for the *Branch-Avoiding Graph
//! Algorithms* (SPAA 2015) reproduction.
//!
//! The crate provides:
//!
//! * [`CsrGraph`] — the compressed-sparse-row adjacency structure every
//!   kernel in the workspace iterates over, plus [`GraphBuilder`] for
//!   constructing it from edge lists.
//! * [`generators`] — seeded synthetic graph generators covering both
//!   structural families the paper evaluates (FEM meshes and power-law
//!   social/collaboration networks) and the classic shapes used in tests.
//! * [`io`] — edge-list and METIS/DIMACS-10 readers and writers, so the
//!   paper's original graphs can be dropped in when available.
//! * [`weighted`] — [`WeightedCsrGraph`]: per-edge `u32` weights parallel
//!   to the adjacency array, a weighted builder, and the
//!   [`uniform_weights`]/[`unit_weights`] lifts that turn any generator
//!   output into a weighted graph.
//! * [`compressed`] — [`CompressedCsrGraph`] and
//!   [`CompressedWeightedGraph`]: group-varint adjacency (one control
//!   byte of 2-bit lengths per four values) with a branch-avoiding
//!   decoder and a per-vertex start/degree index, about half the size of
//!   the `Vec` layout on the bench suite.
//! * [`adjacency`] — the [`AdjacencySource`]/[`WeightedAdjacencySource`]
//!   seam both representations implement, so the parallel kernels run on
//!   either one through the same generic entry points.
//! * [`properties`] — reference implementations (union-find connected
//!   components, queue BFS, Bellman-Ford weighted distances,
//!   pseudo-diameter) used as ground truth.
//! * [`suite`] — synthetic stand-ins for the five Table-2 graphs.
//!
//! ```
//! use bga_graph::{GraphBuilder, properties};
//!
//! let g = GraphBuilder::undirected(4)
//!     .add_edges([(0, 1), (1, 2), (2, 3)])
//!     .build();
//! assert_eq!(properties::connected_component_count(&g), 1);
//! assert_eq!(properties::bfs_distances_reference(&g, 0), vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adjacency;
pub mod builder;
pub mod compressed;
pub mod csr;
pub mod degree;
pub mod generators;
pub mod io;
pub mod properties;
pub mod suite;
pub mod transform;
pub mod weighted;

pub use adjacency::{AdjacencySource, GraphFootprint, WeightedAdjacencySource};
pub use builder::{from_directed_edge_list, from_edge_list, GraphBuilder};
pub use compressed::{CompressedCsrGraph, CompressedWeightedGraph, NeighborCursor};
pub use csr::{CsrError, CsrGraph, EdgeIndex, VertexId};
pub use degree::{degree_histogram, degree_stats, DegreeStats};
pub use suite::{benchmark_suite, SuiteGraph, SuiteGraphId, SuiteScale};
pub use weighted::{
    uniform_weights, unit_weights, EdgeWeight, WeightedCsrGraph, WeightedGraphBuilder,
};
