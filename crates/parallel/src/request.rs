//! The unified kernel-invocation API: one request + one config, one
//! `run` per kernel.
//!
//! Every way a run can be shaped is data on a [`RunConfig`], and every
//! kernel has exactly one driver behind its entry point — the same
//! program whichever way the run is observed:
//!
//! * [`RunConfig`] — *how* to run. Two axes are types, resolved at
//!   compile time so a default config instantiates exactly the plain
//!   kernels on a plain pool: the [`TraceSink`] ([`RunConfig::traced`];
//!   `TraceSink::ENABLED` is a `const`, deliberately not dyn-compatible)
//!   and the executor ([`RunConfig::on`] borrows the caller's
//!   [`Execute`], otherwise the run builds its own [`WorkerPool`] — see
//!   [`ExecutorAxis`]). Worker count, grain override, instrumentation
//!   and the optional [`CancelToken`] are runtime data.
//! * **The tally rule.** Counters are populated iff
//!   [`RunConfig::instrumented`]`(true)` or a sink is attached; a cancel
//!   token alone does not tally, monitor the pool or build a trace header
//!   — a cancellable run is the plain run plus one check per phase
//!   boundary.
//! * [`KernelRequest`] — *what* to run: kernel, variant and its
//!   kernel-specific arguments (root, delta, source set), an owned value
//!   a server can parse off the wire and hold in a queue.
//! * `run_*` — one typed entry per kernel ([`run_components`],
//!   [`run_bfs`], [`run_kcore`], [`run_betweenness`], [`run_sssp_unit`],
//!   [`run_sssp_weighted`]), plus the dynamic [`run`] that serves a
//!   [`KernelRequest`] against any [`AdjacencySource`] and returns a
//!   [`KernelOutput`]. [`run_components_resumed`],
//!   [`run_sssp_weighted_resumed`], [`run_bfs_with_state`], [`run_bfs_on`]
//!   and [`run_bfs_reusing`] are one-line wrappers that hand the same
//!   driver a starting state or an executor.
//!
//! [`Variant::Auto`] adds runtime selection on top: the run samples its
//! first phases instrumented and the [`bga_perfmodel::advisor`] picks the
//! discipline for the rest.
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_parallel::request::{run_bfs, BfsStrategy, RunConfig, Variant};
//! use bga_parallel::WorkerPool;
//!
//! let g = grid_2d(16, 16, MeshStencil::VonNeumann);
//! let strategy = BfsStrategy::Plain(Variant::BranchAvoiding);
//! // The run builds (and drops) its own four-thread pool ...
//! let (run, outcome) = run_bfs(&g, 0, strategy, &RunConfig::new().threads(4));
//! assert!(outcome.is_completed());
//! assert_eq!(run.result.reached_count(), g.num_vertices());
//! // ... or borrows a long-lived one.
//! let pool = WorkerPool::new(4);
//! let (again, _) = run_bfs(&g, 0, strategy, &RunConfig::new().on(&pool));
//! assert_eq!(again.result.distances(), run.result.distances());
//! ```

use crate::bc::ParBcRun;
use crate::bfs::ParDirBfsRun;
use crate::cancel::{CancelToken, RunOutcome};
use crate::engine::TraversalState;
use crate::kcore::ParKcoreRun;
use crate::pool::{parse_grain_override, Execute, WorkerPool, GRAIN_ENV_VAR, PARALLEL_GRAIN};
use crate::sssp::{ParSsspRun, ParWssspRun};
use crate::sv::ParSvRun;
use bga_graph::{AdjacencySource, VertexId, WeightedAdjacencySource};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::cc::ComponentLabels;
use bga_obs::{NoopSink, TraceSink};

/// Which per-edge hooking discipline a kernel runs with — the axis the
/// paper contrasts. One enum for every kernel (the per-kernel aliases
/// `SsspVariant`, `KcoreVariant` and `BcVariant` all name this type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Data-dependent test guarding a compare-and-swap claim.
    BranchBased,
    /// No data-dependent branch per edge: Shiloach-Vishkin folds labels
    /// with a conditional-move `min` and stores once per vertex; the
    /// neighbour-writing kernels issue an unconditional priority write
    /// (`fetch_min`/`fetch_sub`) with a predicated, branch-free claim.
    BranchAvoiding,
    /// Adaptive: sample the first phases branch-based with tallying on,
    /// feed the perf model's variant advisor, and hot-switch to the
    /// predicted-best discipline at the next phase boundary (see
    /// [`crate::auto::AutoSwitch`]). Results are bit-identical to both
    /// static variants — the disciplines share the same monotone atomic
    /// state.
    Auto,
}

impl Variant {
    /// The serialized name trace headers and the CLI use.
    pub fn as_str(self) -> &'static str {
        match self {
            Variant::BranchBased => "branch-based",
            Variant::BranchAvoiding => "branch-avoiding",
            Variant::Auto => "auto",
        }
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "branch-based" | "branchy" => Ok(Variant::BranchBased),
            "branch-avoiding" | "avoiding" => Ok(Variant::BranchAvoiding),
            "auto" => Ok(Variant::Auto),
            other => Err(format!(
                "unknown variant '{other}' (expected 'branch-based', 'branch-avoiding' or 'auto')"
            )),
        }
    }
}

/// Which BFS expansion strategy a request runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BfsStrategy {
    /// Strictly top-down expansion in the given hooking discipline.
    Plain(Variant),
    /// Direction-optimizing expansion (branch-avoiding hooking) with the
    /// given switching thresholds.
    DirectionOptimizing(DirectionConfig),
}

impl BfsStrategy {
    /// The serialized strategy name trace headers carry.
    pub fn as_str(&self) -> &'static str {
        match self {
            BfsStrategy::Plain(v) => v.as_str(),
            BfsStrategy::DirectionOptimizing(_) => "direction-optimizing",
        }
    }
}

/// The executor axis of a [`RunConfig`], carried in its type so the
/// kernels are instantiated over the concrete [`Execute`] they fan out
/// on: [`OwnPool`] (the default — the run builds a [`WorkerPool`] and
/// drops it when it ends) or `&E` (set by [`RunConfig::on`] — the run
/// borrows the caller's executor and leaves it alone).
pub trait ExecutorAxis: Copy {
    /// The executor type the kernels are instantiated over.
    type Exec: Execute;

    /// Whether the run builds (and owns) its pool.
    const OWN_POOL: bool;

    /// The executor the run fans out on: the pool the run built (`own`,
    /// present exactly when [`ExecutorAxis::OWN_POOL`]) or the caller's.
    fn executor<'s>(&'s self, own: Option<&'s WorkerPool>) -> &'s Self::Exec;
}

/// The default [`ExecutorAxis`]: the run builds its own [`WorkerPool`] of
/// [`RunConfig::threads`] workers.
#[derive(Clone, Copy, Debug)]
pub struct OwnPool;

impl ExecutorAxis for OwnPool {
    type Exec = WorkerPool;
    const OWN_POOL: bool = true;

    fn executor<'s>(&'s self, own: Option<&'s WorkerPool>) -> &'s WorkerPool {
        own.expect("an own-pool run builds its pool before it resolves the executor")
    }
}

impl<E: Execute> ExecutorAxis for &E {
    type Exec = E;
    const OWN_POOL: bool = false;

    fn executor<'s>(&'s self, _own: Option<&'s WorkerPool>) -> &'s E {
        self
    }
}

/// How to run a kernel, as one builder.
///
/// The defaults are the fast path: a pool of all cores built for the run,
/// environment grain, no instrumentation, no trace, no cancellation. The
/// [`TraceSink`] and the executor are type parameters (a sink's
/// [`TraceSink::ENABLED`] is a `const` the kernels compile against; the
/// executor is the [`Execute`] the loops are instantiated over), so
/// [`RunConfig::traced`] and [`RunConfig::on`] rebind the config's type;
/// everything else is runtime data.
///
/// Per-phase counters are populated iff [`RunConfig::instrumented`]`(true)`
/// or a sink is attached. A [`CancelToken`] alone does not tally: a
/// cancellable run executes the plain kernels and only adds the
/// phase-boundary check.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig<'a, S: TraceSink = NoopSink, X: ExecutorAxis = OwnPool> {
    pub(crate) threads: usize,
    pub(crate) grain: Option<usize>,
    pub(crate) instrumented: bool,
    pub(crate) sink: &'a S,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) exec: X,
}

impl RunConfig<'static, NoopSink, OwnPool> {
    /// The default configuration: every available core, grain from the
    /// environment, plain uninstrumented kernels.
    pub fn new() -> Self {
        RunConfig {
            threads: 0,
            grain: None,
            instrumented: false,
            sink: &NoopSink,
            cancel: None,
            exec: OwnPool,
        }
    }
}

impl Default for RunConfig<'static, NoopSink, OwnPool> {
    fn default() -> Self {
        RunConfig::new()
    }
}

impl<'a, S: TraceSink, X: ExecutorAxis> RunConfig<'a, S, X> {
    /// Worker-thread count of the pool the run builds; `0` (the default)
    /// uses every available core. Ignored after [`RunConfig::on`] — the
    /// caller's executor has its own parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the fan-out grain (minimum weight units before a
    /// sweep/level dispatches to the executor) instead of reading
    /// [`crate::pool::GRAIN_ENV_VAR`].
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain);
        self
    }

    /// Tally per-operation counters (loads, stores, branches) into the
    /// run's [`bga_kernels::stats::RunCounters`]. Off by default — the
    /// tally is a `const` seam that compiles out of plain runs.
    pub fn instrumented(mut self, instrumented: bool) -> Self {
        self.instrumented = instrumented;
        self
    }

    /// Attaches a [`TraceSink`] that receives the run's `bga-trace-v1`
    /// event stream; rebinds the config's sink type. A traced run always
    /// tallies (phase counters are real) and, when it builds its own
    /// pool, monitors it (the stream carries the pool's batch records).
    pub fn traced<T: TraceSink>(self, sink: &'a T) -> RunConfig<'a, T, X> {
        RunConfig {
            threads: self.threads,
            grain: self.grain,
            instrumented: self.instrumented,
            sink,
            cancel: self.cancel,
            exec: self.exec,
        }
    }

    /// Attaches a [`CancelToken`] checked at every phase boundary; the
    /// run reports how it ended through its [`RunOutcome`]. Nothing else
    /// about the run changes.
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs on the caller's executor instead of building a pool; rebinds
    /// the config's executor type. The seam long-lived callers (`bga
    /// serve`'s resident pool), the benchmarks and the forced-fan-out
    /// tests use. A traced run on a borrowed executor carries no
    /// `pool-batch` records: the pool's monitor, if any, is the caller's.
    pub fn on<E: Execute>(self, exec: &'a E) -> RunConfig<'a, S, &'a E> {
        RunConfig {
            threads: self.threads,
            grain: self.grain,
            instrumented: self.instrumented,
            sink: self.sink,
            cancel: self.cancel,
            exec,
        }
    }

    /// The fan-out grain this run will use.
    pub(crate) fn resolved_grain(&self) -> usize {
        self.grain.unwrap_or_else(|| {
            parse_grain_override(std::env::var(GRAIN_ENV_VAR).ok().as_deref())
                .unwrap_or(PARALLEL_GRAIN)
        })
    }
}

/// What to run: kernel, variant and kernel-specific arguments. An owned,
/// queueable value — the unit of work `bga serve` parses off the wire —
/// dispatched by [`run`].
#[derive(Clone, Debug, PartialEq)]
pub enum KernelRequest {
    /// Shiloach-Vishkin connected components.
    Components {
        /// Hooking discipline.
        variant: Variant,
    },
    /// Level-synchronous BFS from `root`.
    Bfs {
        /// Traversal root.
        root: VertexId,
        /// Expansion strategy.
        strategy: BfsStrategy,
    },
    /// K-core decomposition by concurrent peeling.
    Kcore {
        /// Peeling discipline.
        variant: Variant,
    },
    /// Brandes betweenness centrality. With `sources: None` this is the
    /// exact halved all-pairs accumulation; with an explicit source set
    /// it is the raw un-halved partial accumulation sampled-source
    /// approximations scale.
    Betweenness {
        /// Forward-phase discipline.
        variant: Variant,
        /// Explicit source subset, or `None` for all vertices.
        sources: Option<Vec<VertexId>>,
    },
    /// Unit-weight SSSP (level-loop degeneration) from `root`.
    SsspUnit {
        /// Traversal source.
        root: VertexId,
        /// Relaxation discipline.
        variant: Variant,
    },
    /// Weighted delta-stepping SSSP from `root` with bucket width
    /// `delta`. Needs a [`WeightedAdjacencySource`]; the unweighted
    /// [`run`] dispatch refuses it with [`RequestError::RequiresWeights`].
    SsspWeighted {
        /// Traversal source.
        root: VertexId,
        /// Bucket width.
        delta: u32,
        /// Relaxation discipline.
        variant: Variant,
    },
}

impl KernelRequest {
    /// The kernel's serialized name (`cc`, `bfs`, `kcore`, `bc`, `sssp`,
    /// `sssp-weighted`) — the same names trace headers carry.
    pub fn kernel_name(&self) -> &'static str {
        match self {
            KernelRequest::Components { .. } => "cc",
            KernelRequest::Bfs { .. } => "bfs",
            KernelRequest::Kcore { .. } => "kcore",
            KernelRequest::Betweenness { .. } => "bc",
            KernelRequest::SsspUnit { .. } => "sssp",
            KernelRequest::SsspWeighted { .. } => "sssp-weighted",
        }
    }
}

/// A finished kernel run, one arm per [`KernelRequest`] arm.
#[derive(Clone, Debug)]
pub enum KernelOutput {
    /// Connected-components run.
    Components(ParSvRun),
    /// BFS run (directions per level; counters when instrumented).
    Bfs(ParDirBfsRun),
    /// K-core run.
    Kcore(ParKcoreRun),
    /// Betweenness run.
    Betweenness(ParBcRun),
    /// Unit-weight SSSP run.
    SsspUnit(ParSsspRun),
    /// Weighted SSSP run.
    SsspWeighted(ParWssspRun),
}

/// Why a [`KernelRequest`] could not be dispatched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// A weighted kernel was requested against an unweighted adjacency
    /// source; use [`run_sssp_weighted`] with a
    /// [`WeightedAdjacencySource`].
    RequiresWeights,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::RequiresWeights => {
                write!(f, "request requires an edge-weighted graph")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Parallel Shiloach-Vishkin connected components under `config`.
pub fn run_components<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParSvRun, RunOutcome) {
    crate::sv::run_request(graph, variant, None, config)
}

/// Resumes connected components from partial labels (typically the state
/// an interrupted run returned): sweeps continue lowering the given
/// labels instead of the identity and converge to the same fixpoint.
///
/// # Panics
///
/// When `labels` does not have one entry per vertex, or a label is above
/// its vertex id (SV labels only fall from the identity, so no run could
/// have produced it).
pub fn run_components_resumed<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    labels: &ComponentLabels,
    config: &RunConfig<'_, S, X>,
) -> (ParSvRun, RunOutcome) {
    assert_eq!(
        labels.len(),
        graph.num_vertices(),
        "resume labels sized for a different graph"
    );
    if let Some((v, &label)) = (0u32..).zip(labels.as_slice()).find(|&(v, &l)| l > v) {
        panic!("resume label {label} of vertex {v} is above its vertex id");
    }
    crate::sv::run_request(graph, variant, Some(labels), config)
}

/// Parallel BFS from `root` under `config`.
pub fn run_bfs<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    config: &RunConfig<'_, S, X>,
) -> (ParDirBfsRun, RunOutcome) {
    crate::bfs::run_request(graph, root, strategy, None, config)
}

/// [`run_bfs`] in a caller-held [`TraversalState`] allocation: the state
/// is reset in place before the traversal and the distances are
/// snapshotted out, so a long-lived caller (the `bga serve` query loop)
/// answers repeated BFS queries without reallocating the atomic arrays.
/// The state must be sized for `graph`.
pub fn run_bfs_with_state<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    state: &mut TraversalState,
    config: &RunConfig<'_, S, X>,
) -> (ParDirBfsRun, RunOutcome) {
    crate::bfs::run_request(graph, root, strategy, Some(state), config)
}

/// [`run_bfs`] on an explicit executor and grain — shorthand for
/// `RunConfig::new().on(exec).grain(grain)`, kept for the benchmarks.
pub fn run_bfs_on<G: AdjacencySource, E: Execute>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    exec: &E,
    grain: usize,
) -> ParDirBfsRun {
    run_bfs(
        graph,
        root,
        strategy,
        &RunConfig::new().on(exec).grain(grain),
    )
    .0
}

/// [`run_bfs_with_state`] on an explicit executor and grain, kept for the
/// benchmarks.
pub fn run_bfs_reusing<G: AdjacencySource, E: Execute>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    exec: &E,
    grain: usize,
    state: &mut TraversalState,
) -> ParDirBfsRun {
    let config = RunConfig::new().on(exec).grain(grain);
    run_bfs_with_state(graph, root, strategy, state, &config).0
}

/// Parallel k-core decomposition under `config`.
pub fn run_kcore<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParKcoreRun, RunOutcome) {
    crate::kcore::run_request(graph, variant, config)
}

/// Parallel Brandes betweenness centrality under `config`. With
/// `sources: None` the scores are the exact halved all-pairs
/// accumulation; with an explicit source set they are the raw un-halved
/// partial accumulation (see [`ParBcRun`] for the partial-result
/// semantics under cancellation).
pub fn run_betweenness<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    sources: Option<&[VertexId]>,
    config: &RunConfig<'_, S, X>,
) -> (ParBcRun, RunOutcome) {
    crate::bc::run_request(graph, variant, sources, config)
}

/// Parallel unit-weight SSSP from `root` under `config`.
pub fn run_sssp_unit<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    root: VertexId,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParSsspRun, RunOutcome) {
    crate::sssp::run_unit_request(graph, root, variant, config)
}

/// Parallel weighted delta-stepping SSSP from `root` under `config`.
pub fn run_sssp_weighted<W: WeightedAdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &W,
    root: VertexId,
    delta: u32,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParWssspRun, RunOutcome) {
    crate::sssp::run_weighted_request(graph, root, delta, variant, None, config)
}

/// Resumes weighted delta-stepping from the partial distances an
/// interrupted run returned; bit-identical to an uninterrupted run.
pub fn run_sssp_weighted_resumed<W: WeightedAdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &W,
    root: VertexId,
    delta: u32,
    variant: Variant,
    distances: &[u32],
    config: &RunConfig<'_, S, X>,
) -> (ParWssspRun, RunOutcome) {
    crate::sssp::run_weighted_request(graph, root, delta, variant, Some(distances), config)
}

/// Dispatches a [`KernelRequest`] against an unweighted adjacency source
/// — the single entry the `bga serve` scheduler multiplexes over.
/// Weighted requests need weights the source does not carry and are
/// refused with [`RequestError::RequiresWeights`]; serve them through
/// [`run_sssp_weighted`].
pub fn run<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    request: &KernelRequest,
    config: &RunConfig<'_, S, X>,
) -> Result<(KernelOutput, RunOutcome), RequestError> {
    Ok(match request {
        KernelRequest::Components { variant } => {
            let (run, outcome) = run_components(graph, *variant, config);
            (KernelOutput::Components(run), outcome)
        }
        KernelRequest::Bfs { root, strategy } => {
            let (run, outcome) = run_bfs(graph, *root, *strategy, config);
            (KernelOutput::Bfs(run), outcome)
        }
        KernelRequest::Kcore { variant } => {
            let (run, outcome) = run_kcore(graph, *variant, config);
            (KernelOutput::Kcore(run), outcome)
        }
        KernelRequest::Betweenness { variant, sources } => {
            let (run, outcome) = run_betweenness(graph, *variant, sources.as_deref(), config);
            (KernelOutput::Betweenness(run), outcome)
        }
        KernelRequest::SsspUnit { root, variant } => {
            let (run, outcome) = run_sssp_unit(graph, *root, *variant, config);
            (KernelOutput::SsspUnit(run), outcome)
        }
        KernelRequest::SsspWeighted { .. } => return Err(RequestError::RequiresWeights),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{barabasi_albert, grid_2d, MeshStencil};

    #[test]
    fn variant_parses_and_serializes() {
        assert_eq!("branch-avoiding".parse(), Ok(Variant::BranchAvoiding));
        assert_eq!("branch-based".parse(), Ok(Variant::BranchBased));
        assert_eq!("auto".parse(), Ok(Variant::Auto));
        assert_eq!(Variant::BranchAvoiding.as_str(), "branch-avoiding");
        assert_eq!(Variant::Auto.as_str(), "auto");
        assert!("sideways".parse::<Variant>().is_err());
    }

    #[test]
    fn dynamic_dispatch_matches_typed_runs() {
        let g = barabasi_albert(400, 3, 11);
        let cfg = RunConfig::new().threads(2);
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let (typed, _) = run_components(&g, variant, &cfg);
            match run(&g, &KernelRequest::Components { variant }, &cfg).unwrap() {
                (KernelOutput::Components(run), outcome) => {
                    assert!(outcome.is_completed());
                    assert_eq!(run.labels.as_slice(), typed.labels.as_slice());
                }
                other => panic!("wrong output arm: {other:?}"),
            }
        }
        let request = KernelRequest::Bfs {
            root: 0,
            strategy: BfsStrategy::Plain(Variant::BranchAvoiding),
        };
        match run(&g, &request, &cfg).unwrap() {
            (KernelOutput::Bfs(run), outcome) => {
                assert!(outcome.is_completed());
                assert_eq!(run.result.reached_count(), g.num_vertices());
            }
            other => panic!("wrong output arm: {other:?}"),
        }
    }

    #[test]
    fn weighted_requests_are_refused_on_unweighted_sources() {
        let g = grid_2d(4, 4, MeshStencil::VonNeumann);
        let request = KernelRequest::SsspWeighted {
            root: 0,
            delta: 4,
            variant: Variant::BranchAvoiding,
        };
        assert_eq!(
            run(&g, &request, &RunConfig::new()).unwrap_err(),
            RequestError::RequiresWeights
        );
    }

    #[test]
    #[should_panic(expected = "resume labels sized for a different graph")]
    fn resume_rejects_labels_of_another_length() {
        let g = bga_graph::generators::path_graph(10);
        let labels = ComponentLabels::new((0..9).collect());
        run_components_resumed(&g, Variant::BranchAvoiding, &labels, &RunConfig::new());
    }

    #[test]
    #[should_panic(expected = "is above its vertex id")]
    fn resume_rejects_labels_above_their_vertex() {
        let g = bga_graph::GraphBuilder::undirected(4)
            .add_edges([(0, 1), (2, 3)])
            .build();
        let labels = ComponentLabels::new(vec![99; 4]);
        run_components_resumed(&g, Variant::BranchAvoiding, &labels, &RunConfig::new());
    }

    #[test]
    fn grain_override_forces_fan_out_without_env() {
        let g = grid_2d(12, 12, MeshStencil::VonNeumann);
        let cfg = RunConfig::new().threads(2).grain(1);
        let (run, outcome) = run_bfs(&g, 0, BfsStrategy::Plain(Variant::BranchAvoiding), &cfg);
        assert!(outcome.is_completed());
        assert_eq!(run.result.reached_count(), g.num_vertices());
    }
}
