//! # bga-perfmodel
//!
//! Analytical performance models for the *Branch-Avoiding Graph Algorithms*
//! reproduction: the misprediction lower/upper bounds of the paper's
//! Sections 4-5 (Figure 9), the modelled-time conversion that regenerates
//! the time-per-iteration figures (Figures 3 and 6) on the Table-1 machine
//! models, and the Pearson-correlation analysis of Figure 10.
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_graph::transform::relabel_random;
//! use bga_kernels::cc::{sv_branch_avoiding_instrumented, sv_branch_based_instrumented};
//! use bga_branchsim::machine_model::haswell;
//! use bga_perfmodel::timing::modeled_speedup;
//!
//! let g = relabel_random(&grid_2d(16, 16, MeshStencil::Moore), 42);
//! let based = sv_branch_based_instrumented(&g);
//! let avoiding = sv_branch_avoiding_instrumented(&g);
//! // On a deep out-of-order pipeline the branch-avoiding SV is the faster
//! // variant overall (paper Figure 3).
//! let speedup = modeled_speedup(&based.counters, &avoiding.counters, &haswell()).unwrap();
//! assert!(speedup > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod bounds;
pub mod correlation;
pub mod timing;

pub use advisor::{AdvisorConfig, ChosenVariant, PhaseSample, VariantAdvisor, VariantDecision};
pub use bounds::{
    bfs_misprediction_lower_bound, bfs_misprediction_upper_bound, sv_misprediction_lower_bound,
};
pub use correlation::{correlation_matrix, pearson, samples_per_edge, Metric};
pub use timing::{modeled_speedup, time_run, TimedRun};
