//! # bga-parallel
//!
//! Multi-threaded branch-avoiding kernels for the *Branch-Avoiding Graph
//! Algorithms* (SPAA 2015) reproduction, on a shared traversal engine.
//! Where a kernel writes only the vertices its chunk owns
//! (Shiloach-Vishkin), it runs the paper's sequential loop bodies with
//! plain `Relaxed` loads and stores; where it writes to neighbours (BFS,
//! BC, SSSP, k-core), the branch-avoiding update is an unconditional
//! atomic *priority write* (`fetch_min`, `fetch_sub`):
//!
//! * [`engine`] — the reusable core every kernel is a client of:
//!   [`TraversalState`] (atomic distances, optional σ counts), the
//!   [`LevelLoop`] level-synchronous driver (queue↔bitmap frontier
//!   flipping, direction switching, chunk dispatch over [`Execute`]),
//!   the [`BucketLoop`] bucket-synchronous driver for weighted
//!   delta-stepping (bucket-indexed frontiers, light/heavy passes,
//!   deterministic settled-bucket bounds) and the [`SweepLoop`] fixpoint
//!   driver for label propagation, all running each phase through one
//!   phase step that owns tally merging, tracing and the
//!   [`PhaseHooks`] boundary.
//! * [`sv`] — parallel Shiloach-Vishkin connected components: the paper's
//!   Algorithms 2 and 3 per chunk, a data-dependent branch and a store
//!   per update vs a conditional-move `min` per edge and one store per
//!   vertex, with no atomic read-modify-write in either.
//! * [`bfs`] — parallel level-synchronous BFS: top-down with per-thread
//!   frontier buffers and a branch-avoiding `fetch_min` distance update,
//!   plus direction-optimizing BFS whose bottom-up levels pull from a
//!   shared atomic bitmap frontier. Its two top-down level kernels also
//!   serve unit-weight SSSP and Brandes' forward phase.
//! * [`bc`] — parallel Brandes betweenness centrality: the forward phase
//!   is the BFS level kernels with `SIGMA` set, each frontier vertex
//!   pulling its shortest-path count from the level above it and storing
//!   it once (no atomic read-modify-write on σ), then a reverse
//!   level-sweep dependency accumulation over the recorded level
//!   boundaries. Undirected graphs only.
//! * [`kcore`] — parallel k-core decomposition by concurrent peeling over
//!   atomic degree counters: branch-avoiding unconditional `fetch_sub`
//!   with a predicated next-frontier enqueue vs a branch-based
//!   test-and-CAS decrement, driven by per-`k` seed sweeps plus cascade
//!   rounds over the same chunking seams.
//! * [`sssp`] — parallel SSSP in both weight regimes: weighted
//!   delta-stepping on the engine's bucket loop (light/heavy edge split at
//!   `Δ`, unconditional `fetch_min` relaxation with a predicated enqueue
//!   vs branch-based test-and-CAS), and the unit-weight degeneration on
//!   the level loop (bucket `i` *is* level `i` on unit weights), reusing
//!   the BFS relaxation kernels and the queue↔bitmap frontier flip.
//! * [`pool`] — the execution layer underneath: a persistent
//!   [`WorkerPool`] whose workers are handed edge-balanced chunks through
//!   an atomic claim counter (spawned once per run; between batches an
//!   idle worker spins for up to [`pool::SPIN_BOUND`], then parks on a
//!   condvar), with the old per-sweep `std::thread::scope` behaviour
//!   kept as [`ScopedExecutor`] for benchmarking. No dependencies beyond
//!   `std`.
//! * [`cancel`] — cooperative cancellation: a [`CancelToken`] (shared
//!   flag, optional monotonic deadline, optional phase budget) checked by
//!   every engine loop at phase boundaries, and the structured
//!   [`RunOutcome`] every run reports. Interruption is cheap
//!   *because* the kernels are branch-avoiding: monotone idempotent
//!   updates leave partial state valid and resumable.
//! * [`fault`] — deterministic fault injection for the robustness suite
//!   ([`FaultPlan`], the `BGA_FAULT` spec), behind a `TALLY`-style const
//!   seam that compiles out of release builds.
//! * [`bitmap`] — concurrent helpers for the `Bitmap` frontier shared with
//!   `bga_kernels::bfs::frontier` (branchless `fetch_or` insertion, one
//!   `AtomicU64` word per 64 vertices).
//! * [`counters`] — per-thread [`bga_kernels::stats::StepCounters`] tallies
//!   that merge into the existing [`bga_kernels::stats::RunCounters`], so
//!   instrumented parallel runs feed the same figures/report machinery as
//!   the sequential kernels.
//!
//! Every kernel is driven through one front door: the [`request`] module.
//! A [`request::RunConfig`] carries the run-shaping knobs (thread count
//! or a borrowed executor via [`request::RunConfig::on`], grain override,
//! instrumentation, an optional [`bga_obs::TraceSink`], an optional
//! [`CancelToken`]) and each kernel has a single typed entry point
//! (`request::run_bfs`, `request::run_components`, ...) over a single
//! driver, plus the dynamic [`request::run`] dispatch over a
//! [`request::KernelRequest`]. Counters are populated iff the config is
//! instrumented or traced; a cancel token alone changes nothing but the
//! phase-boundary check.
//!
//! Every engine loop has one `run(.., sink, cancel)` on [`LevelLoop`],
//! [`SweepLoop`] and [`BucketLoop`], carrying a [`bga_obs::TraceSink`]
//! seam and an optional [`CancelToken`]; a traced request emits the full
//! `bga-trace-v1` event stream — run header, one structured event per
//! phase, worker-pool batch metrics from a monitored pool
//! ([`pool::PoolMonitor`]) and a totals trailer. The sink is a const
//! generic switch like the chunk methods' `TALLY`: instantiated with
//! [`bga_obs::NoopSink`], every emission site compiles out and the run is
//! bit-identical to one that never heard of tracing.
//!
//! Results are deterministic where it matters: SV labels, BFS distances
//! and betweenness scores are identical to the sequential kernels for
//! every thread count (the BFS discovery *order* within a top-down level
//! may vary across runs; betweenness scores are bit-identical across
//! thread counts and match the sequential kernel up to floating-point
//! reassociation).
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_kernels::cc::sv_branch_avoiding;
//! use bga_parallel::request::{run_bfs, run_components, BfsStrategy, RunConfig, Variant};
//!
//! let g = grid_2d(16, 16, MeshStencil::VonNeumann);
//! // Identical labels to the sequential kernel, at any thread count.
//! let (cc, _) = run_components(&g, Variant::BranchAvoiding, &RunConfig::new().threads(4));
//! assert_eq!(cc.labels.as_slice(), sv_branch_avoiding(&g).as_slice());
//! // threads == 0 means "use every available core".
//! let strategy = BfsStrategy::Plain(Variant::BranchAvoiding);
//! let (bfs, _) = run_bfs(&g, 0, strategy, &RunConfig::new());
//! assert_eq!(bfs.result.reached_count(), g.num_vertices());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auto;
pub mod bc;
pub mod bfs;
pub mod bitmap;
pub mod cancel;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod kcore;
pub mod pool;
pub mod request;
pub mod sssp;
pub mod sv;
mod trace;

pub use auto::{AutoSwitch, SwitchNotice};
pub use request::{BfsStrategy, KernelOutput, KernelRequest, RequestError, RunConfig, Variant};

pub use bc::{BcVariant, ParBcRun};
pub use bfs::{Direction, ParDirBfsRun};
pub use bitmap::{bitmap_from_frontier, par_fill_bitmap, Bitmap};
pub use cancel::{CancelToken, InterruptReason, RunOutcome};
pub use counters::{merge_thread_steps, ThreadTally};
pub use engine::{
    BucketCtx, BucketKernel, BucketLoop, BucketRun, EdgeClass, LevelCtx, LevelKernel, LevelLoop,
    LevelRun, PhaseHooks, SweepKernel, SweepLoop, SweepRun, TraversalState,
};
pub use fault::{parse_fault_spec, FaultPlan, FAULT_ENV_VAR, FAULT_INJECTION};
pub use kcore::{KcoreVariant, ParKcoreRun};
pub use pool::{
    edge_balanced_ranges, resolve_threads, run_chunks, BatchRecord, Execute, PoolConfig, PoolError,
    PoolMetrics, PoolMonitor, ScopedExecutor, WorkerPool, GRAIN_ENV_VAR, PARALLEL_GRAIN,
};
pub use sssp::{BranchAvoidingRelax, BranchBasedRelax, ParSsspRun, ParWssspRun, SsspVariant};
pub use sv::ParSvRun;
