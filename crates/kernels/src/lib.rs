//! # bga-kernels
//!
//! The graph kernels of the *Branch-Avoiding Graph Algorithms* (SPAA 2015)
//! reproduction: branch-based and branch-avoiding Shiloach-Vishkin
//! connected components (paper Algorithms 2 and 3), branch-based and
//! branch-avoiding top-down BFS (Algorithms 4 and 5), baselines and
//! extension kernels.
//!
//! The SV sweep ([`cc::sv`]) and the top-down expansion ([`bfs::topdown`])
//! are each written once, against the [`bga_branchsim::Machine`] seam and
//! generic over the discipline. On the zero-cost [`bga_branchsim::Uncounted`]
//! machine they are the plain timed kernels; on
//! [`bga_branchsim::ExecMachine`] they are the instrumented kernels that
//! produce the exact per-iteration / per-level counter series the paper's
//! figures plot. The timed program is the counted program.
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_kernels::cc::{sv_branch_avoiding, sv_branch_based};
//! use bga_kernels::bfs::{bfs_branch_avoiding, bfs_branch_based};
//!
//! let g = grid_2d(10, 10, MeshStencil::VonNeumann);
//!
//! // Both SV variants compute identical components.
//! assert_eq!(
//!     sv_branch_based(&g).as_slice(),
//!     sv_branch_avoiding(&g).as_slice()
//! );
//!
//! // Both BFS variants compute identical distances.
//! assert_eq!(
//!     bfs_branch_based(&g, 0).distances(),
//!     bfs_branch_avoiding(&g, 0).distances()
//! );
//! ```
//!
//! The instrumented variants return [`stats::RunCounters`] with one
//! [`stats::StepCounters`] per SV sweep / BFS level:
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_kernels::cc::{sv_branch_avoiding_instrumented, sv_branch_based_instrumented};
//!
//! let g = grid_2d(10, 10, MeshStencil::VonNeumann);
//! let based = sv_branch_based_instrumented(&g);
//! let avoiding = sv_branch_avoiding_instrumented(&g);
//! // The branch-based kernel executes roughly twice the branches (Fig. 4).
//! assert!(based.counters.total().branches > avoiding.counters.total().branches);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod select;
pub mod sssp;
pub mod stats;

pub use bfs::{bfs_branch_avoiding, bfs_branch_based, BfsResult};
pub use cc::{sv_branch_avoiding, sv_branch_based, ComponentLabels};
pub use kcore::{kcore_peeling, CoreDecomposition};
pub use sssp::{sssp_delta_stepping, sssp_dijkstra, sssp_unit_delta_stepping, SsspResult};
pub use stats::{RunCounters, StepCounters};
