//! Parallel level-synchronous BFS: top-down, and direction-optimizing.
//!
//! All variants are thin clients of the traversal engine
//! ([`crate::engine`]): the [`LevelLoop`] owns frontier flipping, direction
//! switching, chunk dispatch and tally merging, and the two kernels below
//! supply only the per-edge claim discipline, reproducing the paper's
//! Algorithms 4 and 5 in the concurrent setting:
//!
//! * [`BranchBasedLevel`] — test `distance == INFINITY`, then claim the
//!   vertex with a `compare_exchange`; both the test and the CAS are
//!   data-dependent branches.
//! * [`BranchAvoidingLevel`] — a single `fetch_min(next_level)` per edge;
//!   the candidate is written into the chunk's buffer unconditionally and
//!   the buffer length advances by the branch-free
//!   `(prev > next_level) as usize`, the same "write past the end" trick
//!   the sequential branch-avoiding kernel uses.
//!
//! The same kernels serve unit-weight SSSP and, with `SIGMA`, Brandes'
//! forward phase, where each frontier vertex also pulls its σ (see
//! [`crate::bc`]); only the top-down step pulls.
//!
//! `BfsStrategy::DirectionOptimizing` runs the branch-avoiding kernel
//! under a [`DirectionConfig`] that lets the engine switch to *bottom-up* levels
//! over a shared bitmap frontier — the direction-switching regime of
//! Beamer et al. that the paper evaluates branch-avoidance against. Every
//! chunk method takes a `TALLY` const parameter: with it, the chunk
//! accounts its loads/stores/branches into a
//! [`crate::counters::ThreadTally`] (including the bottom-up levels),
//! without it the tally code compiles out entirely.
//!
//! Distances only ever step from `INFINITY` to the unique BFS level of a
//! vertex, and within a level every contender writes the same value, so
//! **distances are deterministic and identical to the sequential kernels
//! for every thread count**. The discovery *order* inside a top-down level
//! depends on which worker wins a race and is therefore not stable across
//! runs with more than one thread (it is still a valid BFS order);
//! bottom-up levels discover in ascending vertex order.

use crate::auto::AutoSwitch;
use crate::cancel::{CancelToken, RunOutcome};
use crate::counters::ThreadTally;
use crate::engine::{LevelCtx, LevelKernel, LevelLoop, LevelRun, PhaseHooks, TraversalState};
use crate::pool::Execute;
use crate::request::{BfsStrategy, ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::{AdjacencySource, VertexId};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::bfs::{BfsResult, INFINITY};
use bga_kernels::stats::RunCounters;
use bga_obs::{TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;

pub use crate::engine::Direction;

/// Result of a parallel direction-optimizing BFS run.
#[derive(Clone, Debug)]
pub struct ParDirBfsRun {
    /// Distances and discovery order.
    pub result: BfsResult,
    /// Direction of each expansion step (one per level whose frontier was
    /// non-empty, starting with the root's own expansion).
    pub directions: Vec<Direction>,
    /// Per-level counters (top-down *and* bottom-up levels) — populated
    /// only on instrumented or traced runs, empty otherwise.
    pub counters: RunCounters,
    /// Worker count the run actually used.
    pub threads: usize,
}

impl ParDirBfsRun {
    /// Number of levels that ran bottom-up.
    pub fn bottom_up_levels(&self) -> usize {
        self.directions
            .iter()
            .filter(|&&d| d == Direction::BottomUp)
            .count()
    }
}

/// Top-down expansion claiming vertices with a data-dependent test plus a
/// CAS (paper Algorithm 4 in the concurrent setting); its bottom-up step
/// is the shared bitmap claim. With `SIGMA` (on a σ-carrying state) a
/// second data-dependent test finds the parents σ is pulled from. With
/// `TALLY`, every operation is accounted into the chunk's [`ThreadTally`].
pub struct BranchBasedLevel<const SIGMA: bool>;

impl<const SIGMA: bool> PhaseHooks for BranchBasedLevel<SIGMA> {}

impl<G: AdjacencySource, const SIGMA: bool> LevelKernel<G> for BranchBasedLevel<SIGMA> {
    fn top_down_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        _chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        let distances = ctx.state.distances();
        let next_level = ctx.next_level;
        // The frontier's parents sit two levels above the one discovered.
        let sigma = ctx.state.sigma().filter(|_| SIGMA).unwrap_or_default();
        let parent_level = next_level.wrapping_sub(2);
        let mut local = Vec::new();
        for &v in &frontier[range] {
            let mut paths = 0u64;
            if TALLY {
                tally.vertices += 1;
                tally.branches += 1; // frontier-loop bound
            }
            for w in ctx.graph.neighbor_cursor(v) {
                if TALLY {
                    tally.edges += 1;
                    tally.loads += 1;
                    tally.branches += 2; // neighbour-loop bound + visited test
                    tally.data_branches += 1;
                }
                // Data-dependent test, then claim the vertex with a CAS;
                // exactly one contender per vertex succeeds.
                let dw = distances[w as usize].load(Relaxed);
                if dw == INFINITY {
                    if TALLY {
                        tally.loads += 1;
                        tally.branches += 1;
                        tally.data_branches += 1;
                    }
                    if distances[w as usize]
                        .compare_exchange(INFINITY, next_level, Relaxed, Relaxed)
                        .is_ok()
                    {
                        if TALLY {
                            tally.stores += 2; // distance + queue slot
                            tally.updates += 1;
                        }
                        local.push(w);
                    }
                } else if SIGMA && dw == parent_level {
                    paths = paths.wrapping_add(sigma[w as usize].load(Relaxed));
                    if TALLY {
                        tally.loads += 1; // σ(w)
                    }
                }
                if SIGMA && TALLY && dw != INFINITY {
                    tally.branches += 1; // parent test
                    tally.data_branches += 1;
                }
            }
            // v's chunk is σ(v)'s only writer; the root keeps σ = 1.
            if SIGMA && next_level > 1 {
                sigma[v as usize].store(paths, Relaxed);
                if TALLY {
                    tally.stores += 1; // σ(v)
                }
            }
        }
        local
    }
}

/// Top-down expansion with one `fetch_min` per edge and branch-free
/// buffer advancement (paper Algorithm 5 in the concurrent setting); its
/// bottom-up step is the shared bitmap claim. With `SIGMA` (on a
/// σ-carrying state) the value `fetch_min` returns selects each σ addend
/// by a multiply. With `TALLY`, every operation is accounted into the
/// chunk's [`ThreadTally`].
pub struct BranchAvoidingLevel<const SIGMA: bool>;

impl<const SIGMA: bool> PhaseHooks for BranchAvoidingLevel<SIGMA> {}

impl<G: AdjacencySource, const SIGMA: bool> LevelKernel<G> for BranchAvoidingLevel<SIGMA> {
    fn top_down_chunk<const TALLY: bool>(
        &self,
        ctx: &LevelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        let distances = ctx.state.distances();
        let next_level = ctx.next_level;
        // The frontier's parents sit two levels above the one discovered.
        let sigma = ctx.state.sigma().filter(|_| SIGMA).unwrap_or_default();
        let parent_level = next_level.wrapping_sub(2);
        // One slot per potential discovery plus the overflow slot the
        // unconditional write of a non-discovery lands in. A chunk can
        // discover at most min(chunk edges, |V|) vertices, so cap the
        // zero-initialization at |V| rather than memsetting one word per
        // edge on dense chunks.
        let mut buffer = vec![0 as VertexId; chunk_edges.min(ctx.graph.num_vertices()) + 1];
        let mut len = 0usize;
        for &v in &frontier[range] {
            let mut paths = 0u64;
            if TALLY {
                tally.vertices += 1;
                tally.branches += 1; // frontier-loop bound
            }
            for w in ctx.graph.neighbor_cursor(v) {
                // The priority write: unconditional atomic minimum.
                let prev = distances[w as usize].fetch_min(next_level, Relaxed);
                // Unconditional candidate write; the slot is claimed by
                // the branch-free length increment iff this edge won the
                // discovery (exactly one fetch_min per vertex observes a
                // previous value above the level being written).
                buffer[len] = w;
                len += usize::from(prev > next_level);
                if SIGMA {
                    let addend = u64::from(prev == parent_level) * sigma[w as usize].load(Relaxed);
                    paths = paths.wrapping_add(addend);
                }
                if TALLY {
                    tally.edges += 1;
                    // fetch_min = load + predicated min + store; the queue
                    // slot write is unconditional; length advance is an add.
                    tally.loads += 1;
                    tally.stores += 2;
                    tally.conditional_moves += 2;
                    tally.branches += 1; // neighbour-loop bound only
                    tally.updates += u64::from(prev > next_level);
                    tally.loads += u64::from(SIGMA); // σ(w)
                    tally.conditional_moves += u64::from(SIGMA); // σ addend
                }
            }
            // v's chunk is σ(v)'s only writer; the root keeps σ = 1.
            if SIGMA && next_level > 1 {
                sigma[v as usize].store(paths, Relaxed);
                if TALLY {
                    tally.stores += 1; // σ(v)
                }
            }
        }
        buffer.truncate(len);
        buffer
    }
}

/// Runs `variant`'s level kernel on `level_loop`; BFS and unit-weight
/// SSSP share it. [`Variant::Auto`] samples early levels branch-based,
/// then hot-switches to the advisor's pick.
pub(crate) fn traverse<G: AdjacencySource, E: Execute, S: TraceSink>(
    level_loop: &LevelLoop<'_, G, E>,
    state: &TraversalState,
    root: VertexId,
    variant: Variant,
    sink: &S,
    cancel: Option<&CancelToken>,
) -> (LevelRun, RunOutcome) {
    let (based, avoiding) = (BranchBasedLevel::<false>, BranchAvoidingLevel::<false>);
    match variant {
        Variant::BranchAvoiding => level_loop.run(state, root, &avoiding, sink, cancel),
        Variant::BranchBased => level_loop.run(state, root, &based, sink, cancel),
        Variant::Auto => {
            level_loop.run(state, root, &AutoSwitch::new(based, avoiding), sink, cancel)
        }
    }
}

/// The one driver behind [`crate::request::run_bfs`] and its
/// state-reusing forms. With `reuse` the traversal runs in the caller's
/// [`TraversalState`] — reset in place before, distances snapshotted out
/// after — so a long-lived caller (the `bga serve` query loop) keeps one
/// atomic-array allocation across traversals instead of allocating per
/// query; without it the run allocates a state and consumes it.
pub(crate) fn run_request<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    reuse: Option<&mut TraversalState>,
    config: &RunConfig<'_, S, X>,
) -> (ParDirBfsRun, RunOutcome) {
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "bfs".to_string(),
        variant: strategy.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: None,
        root: Some(root),
        footprint: Some(run_footprint(graph.footprint())),
    });
    // The direction schedule and discipline the strategy pins: always
    // top-down for the plain disciplines; the configured thresholds and
    // the branch-avoiding kernel when direction-optimizing.
    let (directions, variant) = match strategy {
        BfsStrategy::Plain(variant) => (DirectionConfig::always_top_down(), variant),
        BfsStrategy::DirectionOptimizing(config) => (config, Variant::BranchAvoiding),
    };
    let level_loop = LevelLoop::new(graph, scope.exec(), scope.grain, scope.tally, directions);
    let (sink, cancel) = (scope.sink(), scope.cancel);
    let run_in = |state: &TraversalState| traverse(&level_loop, state, root, variant, sink, cancel);
    let ((run, outcome), distances) = match reuse {
        Some(state) => {
            assert_eq!(
                state.len(),
                graph.num_vertices(),
                "traversal state sized for a different graph"
            );
            state.reset();
            let done = run_in(state);
            let distances = state.distances().iter().map(|d| d.load(Relaxed)).collect();
            (done, distances)
        }
        None => {
            let state = TraversalState::new(graph.num_vertices());
            (run_in(&state), state.into_distances())
        }
    };
    scope.close(&outcome);
    let result = ParDirBfsRun {
        result: BfsResult::new(distances, run.order),
        directions: run.directions,
        counters: run.counters,
        threads: scope.threads(),
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use bga_graph::generators::{
        barabasi_albert, complete_graph, grid_2d, path_graph, star_graph, MeshStencil,
    };
    use bga_graph::properties::bfs_distances_reference;
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_kernels::bfs::direction_optimizing::bfs_direction_optimizing;
    use bga_kernels::bfs::frontier::check_bfs_invariants;

    fn shapes() -> Vec<CsrGraph> {
        vec![
            GraphBuilder::undirected(1).build(),
            GraphBuilder::undirected(6)
                .add_edges([(0, 1), (1, 2), (3, 4)])
                .build(),
            path_graph(60),
            star_graph(40),
            complete_graph(12),
            grid_2d(11, 7, MeshStencil::Moore),
            barabasi_albert(500, 3, 13),
            // Above PARALLEL_GRAIN, so per-level chunking fans out for real.
            barabasi_albert(3_000, 4, 13),
        ]
    }

    fn bfs<G: AdjacencySource>(
        g: &G,
        root: VertexId,
        threads: usize,
        variant: Variant,
    ) -> BfsResult {
        run_request(
            g,
            root,
            BfsStrategy::Plain(variant),
            None,
            &RunConfig::new().threads(threads),
        )
        .0
        .result
    }

    fn dir_bfs<G: AdjacencySource>(
        g: &G,
        root: VertexId,
        threads: usize,
        config: DirectionConfig,
    ) -> ParDirBfsRun {
        run_request(
            g,
            root,
            BfsStrategy::DirectionOptimizing(config),
            None,
            &RunConfig::new().threads(threads),
        )
        .0
    }

    fn instrumented<G: AdjacencySource>(
        g: &G,
        root: VertexId,
        threads: usize,
        strategy: BfsStrategy,
    ) -> ParDirBfsRun {
        run_request(
            g,
            root,
            strategy,
            None,
            &RunConfig::new().threads(threads).instrumented(true),
        )
        .0
    }

    #[test]
    fn distances_match_reference_for_every_thread_count() {
        for g in &shapes() {
            for root in [0u32, (g.num_vertices() as u32).saturating_sub(1)] {
                let expected = bfs_distances_reference(g, root);
                for threads in [1, 2, 3, 8] {
                    assert_eq!(
                        bfs(g, root, threads, Variant::BranchBased).distances(),
                        &expected[..],
                        "branch-based, {threads} threads, root {root}"
                    );
                    assert_eq!(
                        bfs(g, root, threads, Variant::BranchAvoiding).distances(),
                        &expected[..],
                        "branch-avoiding, {threads} threads, root {root}"
                    );
                    assert_eq!(
                        dir_bfs(g, root, threads, DirectionConfig::default())
                            .result
                            .distances(),
                        &expected[..],
                        "direction-optimizing, {threads} threads, root {root}"
                    );
                }
            }
        }
    }

    #[test]
    fn direction_optimizing_matches_sequential_levels_and_directions() {
        for g in &shapes() {
            let seq = bfs_direction_optimizing(g, 0, DirectionConfig::default());
            for threads in [1, 2, 8] {
                let par = dir_bfs(g, 0, threads, DirectionConfig::default());
                assert_eq!(par.result.distances(), seq.distances(), "{threads} threads");
                assert_eq!(par.result.level_count(), seq.level_count());
                // One expansion step per level with a non-empty frontier.
                assert_eq!(par.directions.len(), par.result.level_count());
                // Uninstrumented runs carry no counter steps.
                assert_eq!(par.counters.num_steps(), 0);
            }
        }
    }

    #[test]
    fn pinned_direction_configs_are_honoured() {
        let g = barabasi_albert(800, 4, 11);
        let expected = bfs_distances_reference(&g, 0);
        let top = dir_bfs(&g, 0, 4, DirectionConfig::always_top_down());
        assert_eq!(top.bottom_up_levels(), 0);
        assert_eq!(top.result.distances(), &expected[..]);
        let bottom = dir_bfs(&g, 0, 4, DirectionConfig::always_bottom_up());
        assert_eq!(bottom.bottom_up_levels(), bottom.directions.len());
        assert!(bottom.bottom_up_levels() > 0);
        assert_eq!(bottom.result.distances(), &expected[..]);
        // The default heuristic actually mixes directions on a power-law
        // graph: its explosive second level crosses the 5% threshold.
        let auto = dir_bfs(&g, 0, 4, DirectionConfig::default());
        assert!(auto.bottom_up_levels() > 0);
        assert!(auto.bottom_up_levels() < auto.directions.len());
        assert_eq!(auto.threads, 4);
    }

    #[test]
    fn bottom_up_discovery_order_is_level_monotone_and_duplicate_free() {
        let g = grid_2d(20, 20, MeshStencil::VonNeumann);
        for threads in [1, 2, 8] {
            let run = dir_bfs(&g, 0, threads, DirectionConfig::always_bottom_up());
            assert!(check_bfs_invariants(&g, 0, &run.result).is_ok());
            let order = run.result.visit_order();
            assert_eq!(order.len(), run.result.reached_count());
            for pair in order.windows(2) {
                assert!(run.result.distance(pair[0]) <= run.result.distance(pair[1]));
            }
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), order.len());
        }
    }

    #[test]
    fn discovery_order_is_a_valid_bfs_order() {
        let g = grid_2d(9, 9, MeshStencil::VonNeumann);
        for threads in [1, 2, 8] {
            for result in [
                bfs(&g, 0, threads, Variant::BranchBased),
                bfs(&g, 0, threads, Variant::BranchAvoiding),
            ] {
                assert!(check_bfs_invariants(&g, 0, &result).is_ok());
                let order = result.visit_order();
                assert_eq!(order.len(), result.reached_count());
                // Level-monotone visit order, root first.
                assert_eq!(order[0], 0);
                for pair in order.windows(2) {
                    assert!(result.distance(pair[0]) <= result.distance(pair[1]));
                }
                // No duplicates.
                let mut sorted = order.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), order.len());
            }
        }
    }

    #[test]
    fn out_of_range_root_reaches_nothing() {
        let g = path_graph(5);
        for threads in [1, 4] {
            assert_eq!(
                bfs(&g, 99, threads, Variant::BranchBased).reached_count(),
                0
            );
            assert_eq!(
                bfs(&g, 99, threads, Variant::BranchAvoiding).reached_count(),
                0
            );
            assert_eq!(
                dir_bfs(&g, 99, threads, DirectionConfig::default())
                    .result
                    .reached_count(),
                0
            );
            let instr = instrumented(&g, 99, threads, BfsStrategy::Plain(Variant::BranchBased));
            assert_eq!(instr.counters.num_steps(), 0);
        }
    }

    #[test]
    fn pool_and_scoped_executors_agree() {
        use crate::pool::{ScopedExecutor, WorkerPool};
        let g = barabasi_albert(1_500, 3, 19);
        let expected = bfs_distances_reference(&g, 0);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain of 1 forces fan-out on every level, even tiny ones.
        for grain in [1, 64, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            let avoiding = BfsStrategy::Plain(Variant::BranchAvoiding);
            let run = run_request(&g, 0, avoiding, None, &on_pool).0;
            assert_eq!(run.result.distances(), &expected[..]);
            let based = BfsStrategy::Plain(Variant::BranchBased);
            let run = run_request(&g, 0, based, None, &on_scoped).0;
            assert_eq!(run.result.distances(), &expected[..]);
            let diropt = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
            let run = run_request(&g, 0, diropt, None, &on_pool).0;
            assert_eq!(run.result.distances(), &expected[..]);
        }
    }

    #[test]
    fn instrumented_levels_cover_the_whole_traversal() {
        let g = barabasi_albert(800, 3, 7);
        for threads in [1, 2, 8] {
            let run = instrumented(&g, 0, threads, BfsStrategy::Plain(Variant::BranchBased));
            let total_vertices: u64 = run
                .counters
                .steps
                .iter()
                .map(|s| s.vertices_processed)
                .sum();
            assert_eq!(total_vertices as usize, run.result.reached_count());
            let expected_edges: usize = run.result.visit_order().iter().map(|&v| g.degree(v)).sum();
            assert_eq!(
                run.counters.total_edges_traversed() as usize,
                expected_edges
            );
            assert_eq!(run.counters.num_steps(), run.result.level_count());
        }
    }

    #[test]
    fn instrumented_bottom_up_levels_report_real_tallies() {
        let g = barabasi_albert(800, 4, 11);
        for threads in [1, 2, 8] {
            let run = instrumented(
                &g,
                0,
                threads,
                BfsStrategy::DirectionOptimizing(DirectionConfig::always_bottom_up()),
            );
            assert!(run.bottom_up_levels() > 0);
            assert_eq!(run.counters.num_steps(), run.directions.len());
            // Every discovery beyond the root was tallied by some level,
            // and bottom-up levels account the neighbour probes they made.
            let updates: u64 = run.counters.steps.iter().map(|s| s.updates).sum();
            assert_eq!(updates as usize, run.result.reached_count() - 1);
            for (step, direction) in run.counters.steps.iter().zip(&run.directions) {
                if *direction == Direction::BottomUp && step.updates > 0 {
                    assert!(step.edges_traversed > 0, "empty bottom-up tally");
                    assert!(step.counters.loads > 0);
                    assert!(step.counters.stores >= 2 * step.updates);
                }
            }
            // The auto heuristic mixes directions on this graph and still
            // tallies every level.
            let auto = instrumented(
                &g,
                0,
                threads,
                BfsStrategy::DirectionOptimizing(DirectionConfig::default()),
            );
            assert!(auto.bottom_up_levels() > 0);
            assert_eq!(auto.counters.num_steps(), auto.directions.len());
            let auto_updates: u64 = auto.counters.steps.iter().map(|s| s.updates).sum();
            assert_eq!(auto_updates as usize, auto.result.reached_count() - 1);
        }
    }

    #[test]
    fn branch_contrast_survives_parallelism() {
        let g = grid_2d(45, 45, MeshStencil::Moore);
        let based = instrumented(&g, 0, 4, BfsStrategy::Plain(Variant::BranchBased));
        let avoiding = instrumented(&g, 0, 4, BfsStrategy::Plain(Variant::BranchAvoiding));
        assert_eq!(based.result.distances(), avoiding.result.distances());
        let b = based.counters.total();
        let a = avoiding.counters.total();
        // The avoiding kernel trades the per-edge branch for per-edge stores.
        assert!(b.branches > a.branches);
        assert!(a.stores > b.stores);
        assert!(b.branch_mispredictions > 0);
        assert_eq!(a.branch_mispredictions, 0);
    }

    #[test]
    fn phase_budget_cuts_bfs_at_an_exact_level() {
        // On a path, level k discovers exactly vertex k, so a budget of 5
        // phases leaves distances 0..=5 final and everything beyond
        // untouched — the partial state the cancellation API promises.
        let g = path_graph(40);
        let token = CancelToken::new().with_phase_budget(5);
        let (run, outcome) = run_request(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchAvoiding),
            None,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert_eq!(
            outcome.reason(),
            Some(crate::cancel::InterruptReason::PhaseBudgetExhausted)
        );
        for (v, &d) in run.result.distances().iter().enumerate() {
            if v <= 5 {
                assert_eq!(d, v as u32);
            } else {
                assert_eq!(d, INFINITY);
            }
        }
        assert_eq!(run.result.visit_order(), &[0, 1, 2, 3, 4, 5]);

        let (based, based_outcome) = run_request(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchBased),
            None,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert!(!based_outcome.is_completed());
        assert_eq!(based.result.distances(), run.result.distances());
    }

    #[test]
    fn uncancelled_bfs_tokens_complete_and_match_the_plain_run() {
        let g = barabasi_albert(500, 3, 13);
        let token = CancelToken::new();
        let (run, outcome) = run_request(
            &g,
            0,
            BfsStrategy::DirectionOptimizing(DirectionConfig::default()),
            None,
            &RunConfig::new().threads(4).cancel(&token),
        );
        assert!(outcome.is_completed());
        let reference = dir_bfs(&g, 0, 4, DirectionConfig::default());
        assert_eq!(run.result.distances(), reference.result.distances());

        let pre_cancelled = CancelToken::new();
        pre_cancelled.cancel();
        let (cut, cut_outcome) = run_request(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchAvoiding),
            None,
            &RunConfig::new().threads(2).cancel(&pre_cancelled),
        );
        assert_eq!(
            cut_outcome.reason(),
            Some(crate::cancel::InterruptReason::Cancelled)
        );
        // Only the root was seeded before the first phase boundary check.
        assert_eq!(cut.result.reached_count(), 1);
        assert_eq!(cut.result.distances()[0], 0);
    }

    #[test]
    fn auto_variant_matches_the_static_distances() {
        let g = barabasi_albert(2_000, 3, 17);
        let expected = bfs_distances_reference(&g, 0);
        for threads in [1, 2, 8] {
            let (run, outcome) = run_request(
                &g,
                0,
                BfsStrategy::Plain(Variant::Auto),
                None,
                &RunConfig::new().threads(threads).grain(1),
            );
            assert!(outcome.is_completed());
            assert_eq!(run.result.distances(), &expected[..], "{threads} threads");
        }
        // Instrumented auto tallies every level, even post-decision ones.
        let instr = instrumented(&g, 0, 2, BfsStrategy::Plain(Variant::Auto));
        assert_eq!(instr.result.distances(), &expected[..]);
        assert_eq!(instr.counters.num_steps(), instr.result.level_count());
        // A plain auto run only tallies the sampled prefix.
        let plain = run_request(
            &g,
            0,
            BfsStrategy::Plain(Variant::Auto),
            None,
            &RunConfig::new().threads(2),
        )
        .0;
        assert!(plain.counters.num_steps() < plain.result.level_count());
    }
}
