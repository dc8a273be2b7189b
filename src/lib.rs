//! # branch-avoiding-graphs
//!
//! Umbrella crate for the reproduction of **"Branch-Avoiding Graph
//! Algorithms"** (Green, Dukhan, Vuduc — SPAA 2015). It re-exports the
//! library crates of the workspace so applications can depend on a single
//! crate:
//!
//! * [`graph`] ([`bga_graph`]) — CSR graphs, generators, I/O, the Table-2
//!   benchmark suite.
//! * [`branchsim`] ([`bga_branchsim`]) — branch-predictor simulators, the
//!   instrumented execution machine and the Table-1 machine cost models.
//! * [`kernels`] ([`bga_kernels`]) — branch-based and branch-avoiding
//!   Shiloach-Vishkin connected components and top-down BFS, baselines,
//!   extensions (Brandes betweenness, k-core bucket peeling, unit-weight
//!   delta-stepping SSSP) and instrumented variants.
//! * [`perfmodel`] ([`bga_perfmodel`]) — misprediction bounds, modelled-time
//!   conversion and correlation analysis.
//! * [`obs`] ([`bga_obs`]) — the structured tracing layer: `bga-trace-v1`
//!   events, the [`bga_obs::TraceSink`] seam the parallel engine loops
//!   emit through (compiled out entirely with the no-op sink), a
//!   dependency-free JSONL writer/parser, stream validation and the
//!   shared table renderer behind the CLI's `--instrumented` and
//!   `trace report` output.
//! * [`parallel`] ([`bga_parallel`]) — multi-threaded kernels on one
//!   traversal engine: Shiloach-Vishkin with one writer per label,
//!   level-synchronous parallel BFS (top-down and direction-optimizing
//!   over a shared bitmap frontier), parallel Brandes betweenness
//!   centrality, k-core peeling over atomic degree counters, unit-weight
//!   SSSP on the level loop and weighted delta-stepping SSSP on the
//!   bucket loop, all on a persistent worker pool with edge-balanced
//!   chunking — all behind one request API ([`bga_parallel::request`] /
//!   [`bga_parallel::RunConfig`]).
//! * [`serve`] ([`bga_serve`]) — the long-running TCP query server: one
//!   immutable snapshot, concurrent distance / path / component / core /
//!   betweenness-rank queries over newline-delimited `bga-serve-v1`
//!   JSON, with an LRU result cache and per-query deadlines.
//!
//! ```
//! use branch_avoiding_graphs::prelude::*;
//!
//! // Build a graph, run both SV variants, compare their branch behaviour.
//! let graph = generators::grid_2d(20, 20, generators::MeshStencil::Moore);
//! let based = sv_branch_based_instrumented(&graph);
//! let avoiding = sv_branch_avoiding_instrumented(&graph);
//! assert!(based.labels.same_partition(&avoiding.labels));
//! assert!(
//!     based.counters.total().branch_mispredictions
//!         >= avoiding.counters.total().branch_mispredictions
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use bga_branchsim as branchsim;
pub use bga_graph as graph;
pub use bga_kernels as kernels;
pub use bga_obs as obs;
pub use bga_parallel as parallel;
pub use bga_perfmodel as perfmodel;
pub use bga_serve as serve;

/// Convenient re-exports of the items most applications need.
pub mod prelude {
    pub use bga_branchsim::{
        all_machine_models, BranchSite, ExecMachine, Machine, MachineModel, PerfCounters,
        TwoBitPredictor, Uncounted,
    };
    pub use bga_graph::generators;
    pub use bga_graph::properties;
    pub use bga_graph::suite::{benchmark_suite, SuiteGraphId, SuiteScale};
    pub use bga_graph::{
        uniform_weights, unit_weights, CsrGraph, EdgeWeight, GraphBuilder, VertexId,
        WeightedCsrGraph, WeightedGraphBuilder,
    };
    pub use bga_kernels::bc::{
        betweenness_centrality, betweenness_centrality_branch_avoiding,
        betweenness_centrality_sources,
    };
    pub use bga_kernels::bfs::{
        bfs_branch_avoiding, bfs_branch_avoiding_instrumented, bfs_branch_based,
        bfs_branch_based_instrumented,
        direction_optimizing::{bfs_direction_optimizing, DirectionConfig},
        BfsResult, Bitmap,
    };
    pub use bga_kernels::cc::{
        sv_branch_avoiding, sv_branch_avoiding_instrumented, sv_branch_based,
        sv_branch_based_instrumented, sv_hybrid, ComponentLabels, HybridConfig,
    };
    pub use bga_kernels::kcore::{kcore_peeling, CoreDecomposition};
    pub use bga_kernels::sssp::{
        sssp_delta_stepping, sssp_dijkstra, sssp_unit_delta_stepping,
        sssp_unit_delta_stepping_with_delta, SsspResult,
    };
    pub use bga_obs::{
        parse_trace, validate_trace, JsonlSink, MemorySink, NoopSink, PhaseCounters, PhaseEvent,
        PhaseKind, TraceEvent, TraceReport, TraceSink, TRACE_SCHEMA,
    };
    pub use bga_parallel::request::{
        run, run_betweenness, run_bfs, run_components, run_kcore, run_sssp_unit, run_sssp_weighted,
        KernelOutput, KernelRequest, RequestError,
    };
    pub use bga_parallel::{
        BfsStrategy, BucketLoop, CancelToken, InterruptReason, LevelLoop, PoolConfig, PoolMetrics,
        PoolMonitor, RunConfig, RunOutcome, SweepLoop, TraversalState, Variant, WorkerPool,
    };
    pub use bga_perfmodel::timing::{modeled_speedup, time_run};
    pub use bga_serve::{ServeOptions, Server};
}
