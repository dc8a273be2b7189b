//! Parallel SSSP: weighted delta-stepping on the engine's bucket loop,
//! and the unit-weight degeneration on its level loop.
//!
//! **Weighted** — the real thing. [`crate::request::run_sssp_weighted`]
//! runs
//! [`crate::engine::BucketLoop`]: bucket-indexed frontiers, light-edge
//! phases re-relaxed until the bucket drains, one deferred heavy pass per
//! settled bucket. The per-edge relaxation discipline is the paper's
//! contrast, realised as [`crate::engine::BucketKernel`]s whose chunk
//! method is const-generic over `TALLY`:
//!
//! * [`SsspVariant::BranchAvoiding`] ([`BranchAvoidingRelax`]) — one
//!   unconditional `fetch_min` per edge. The edge-class split is a
//!   predicated mask (an edge of the wrong class relaxes with `INFINITY`,
//!   a guaranteed no-op) and the discovery enqueue is the branch-free
//!   "write past the end" advance, so the inner loop has no
//!   data-dependent branch at all.
//! * [`SsspVariant::BranchBased`] ([`BranchBasedRelax`]) — test the
//!   distance, then claim with a `compare_exchange` retry loop; both the
//!   test and the CAS are data-dependent branches.
//!
//! Distances are bit-identical to the sequential
//! [`bga_kernels::sssp::sssp_dijkstra`] and
//! [`bga_kernels::sssp::sssp_delta_stepping`] references for every thread
//! count, executor, grain, `Δ` and discipline; the phase structure is
//! deterministic across thread counts (frontiers are snapshots — see the
//! bucket-loop docs).
//!
//! **Unit-weight** — on unit weights delta-stepping's buckets collapse
//! into BFS levels (see [`bga_kernels::sssp`]): bucket `i` *is* distance
//! level `i` and every bucket settles in one phase.
//! [`crate::request::run_sssp_unit`] therefore rides
//! [`crate::engine::LevelLoop`] — keeping the queue↔bitmap
//! frontier flip and α/β direction switching — and reuses the BFS level
//! kernels verbatim; its reported phase count equals the sequential Δ = 1
//! phase count.

use crate::auto::AutoSwitch;
use crate::bfs::traverse;
use crate::cancel::RunOutcome;
use crate::counters::ThreadTally;
use crate::engine::{
    BucketCtx, BucketKernel, BucketLoop, Direction, EdgeClass, LevelLoop, PhaseHooks,
    TraversalState,
};
use crate::request::{ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::{AdjacencySource, VertexId, WeightedAdjacencySource};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::bfs::INFINITY;
use bga_kernels::sssp::SsspResult;
use bga_kernels::stats::RunCounters;
use bga_obs::{TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;

/// Which per-edge relaxation discipline a parallel SSSP run uses. Both
/// settle identical distances; they differ only in the instruction mix,
/// mirroring the BFS pair. An alias of the unified
/// [`crate::request::Variant`].
pub use crate::request::Variant as SsspVariant;

/// Result of an instrumented parallel unit-weight SSSP run.
#[derive(Clone, Debug)]
pub struct ParSsspRun {
    /// Distances and phase count (identical to the sequential reference).
    pub result: SsspResult,
    /// Direction each settling phase ran in (top-down queue expansion or
    /// bottom-up bitmap pull).
    pub directions: Vec<Direction>,
    /// Per-phase counters merged across worker threads — populated only
    /// on instrumented or traced runs, empty otherwise.
    pub counters: RunCounters,
    /// Worker count the run actually used.
    pub threads: usize,
}

impl ParSsspRun {
    /// Number of settling phases that ran bottom-up over the bitmap.
    pub fn bottom_up_phases(&self) -> usize {
        self.directions
            .iter()
            .filter(|&&d| d == Direction::BottomUp)
            .count()
    }
}

/// The one unit-weight driver behind [`crate::request::run_sssp_unit`]:
/// the BFS level kernels under the default direction schedule.
pub(crate) fn run_unit_request<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    source: VertexId,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParSsspRun, RunOutcome) {
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "sssp".to_string(),
        variant: variant.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: None,
        root: Some(source),
        footprint: Some(run_footprint(graph.footprint())),
    });
    let state = TraversalState::new(graph.num_vertices());
    let directions = DirectionConfig::default();
    let level_loop = LevelLoop::new(graph, scope.exec(), scope.grain, scope.tally, directions);
    let (sink, cancel) = (scope.sink(), scope.cancel);
    let (run, outcome) = traverse(&level_loop, &state, source, variant, sink, cancel);
    scope.close(&outcome);
    let result = ParSsspRun {
        result: SsspResult::new(state.into_distances(), run.directions.len()),
        directions: run.directions,
        counters: run.counters,
        threads: scope.threads(),
    };
    (result, outcome)
}

/// Branch-avoiding weighted relaxation: one unconditional `fetch_min` per
/// edge with the masked edge-class select and the predicated discovery
/// enqueue — no data-dependent branch in the inner loop. With `TALLY`,
/// every operation is accounted into the chunk's [`ThreadTally`].
pub struct BranchAvoidingRelax;

impl PhaseHooks for BranchAvoidingRelax {}

impl<W: WeightedAdjacencySource> BucketKernel<W> for BranchAvoidingRelax {
    fn relax_chunk<const TALLY: bool>(
        &self,
        ctx: &BucketCtx<'_, W>,
        frontier: &[(VertexId, u32)],
        range: Range<usize>,
        chunk_edges: usize,
        class: EdgeClass,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        let distances = ctx.state.distances();
        let delta = ctx.delta;
        // One slot per potential claim plus the overflow slot the
        // unconditional write of a non-claim lands in. Unlike BFS, a chunk
        // can claim the same vertex more than once (repeated improvements
        // through different edges), so the bound is the chunk's edge
        // count, not `|V|`.
        let mut buffer = vec![0 as VertexId; chunk_edges + 1];
        let mut len = 0usize;
        for &(v, dv) in &frontier[range] {
            if TALLY {
                tally.vertices += 1;
                tally.branches += 1; // frontier-loop bound
            }
            for (w, wt) in ctx.graph.weighted_neighbor_cursor(v) {
                // Predicated class select: an edge of the wrong class
                // relaxes with INFINITY, which `fetch_min` ignores.
                let wanted = (wt <= delta) == (class == EdgeClass::Light);
                let candidate = if wanted {
                    dv.saturating_add(wt)
                } else {
                    INFINITY
                };
                // The priority write: unconditional atomic minimum.
                let prev = distances[w as usize].fetch_min(candidate, Relaxed);
                // Unconditional candidate write; the slot is claimed by
                // the branch-free length increment iff this edge improved
                // the distance.
                buffer[len] = w;
                len += usize::from(prev > candidate);
                if TALLY {
                    tally.edges += 1;
                    // fetch_min = load + predicated min + store; the class
                    // select is another predicated move; the queue slot
                    // write is unconditional; length advance is an add.
                    tally.loads += 1;
                    tally.stores += 2;
                    tally.conditional_moves += 3;
                    tally.branches += 1; // neighbour-loop bound only
                    tally.updates += u64::from(prev > candidate);
                }
            }
        }
        buffer.truncate(len);
        buffer
    }
}

/// Branch-based weighted relaxation: test the distance, then claim it
/// with a `compare_exchange` retry loop (the weighted generalisation of
/// the BFS test-and-CAS — a single CAS no longer suffices because a
/// weighted cell can improve several times). With `TALLY`, every
/// operation is accounted into the chunk's [`ThreadTally`].
pub struct BranchBasedRelax;

impl PhaseHooks for BranchBasedRelax {}

impl<W: WeightedAdjacencySource> BucketKernel<W> for BranchBasedRelax {
    fn relax_chunk<const TALLY: bool>(
        &self,
        ctx: &BucketCtx<'_, W>,
        frontier: &[(VertexId, u32)],
        range: Range<usize>,
        _chunk_edges: usize,
        class: EdgeClass,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        let distances = ctx.state.distances();
        let delta = ctx.delta;
        let mut local = Vec::new();
        for &(v, dv) in &frontier[range] {
            if TALLY {
                tally.vertices += 1;
                tally.branches += 1; // frontier-loop bound
            }
            for (w, wt) in ctx.graph.weighted_neighbor_cursor(v) {
                if TALLY {
                    tally.edges += 1;
                    tally.loads += 1;
                    tally.branches += 2; // neighbour-loop bound + class test
                    tally.data_branches += 1;
                }
                // Data-dependent class test, then the distance test.
                if (wt <= delta) != (class == EdgeClass::Light) {
                    continue;
                }
                let candidate = dv.saturating_add(wt);
                if TALLY {
                    tally.loads += 1;
                    tally.branches += 1; // improvement test
                    tally.data_branches += 1;
                }
                let mut cur = distances[w as usize].load(Relaxed);
                while candidate < cur {
                    if TALLY {
                        tally.loads += 1;
                        tally.branches += 1; // CAS outcome
                        tally.data_branches += 1;
                    }
                    match distances[w as usize].compare_exchange(cur, candidate, Relaxed, Relaxed) {
                        Ok(_) => {
                            if TALLY {
                                tally.stores += 2; // distance + queue slot
                                tally.updates += 1;
                            }
                            local.push(w);
                            break;
                        }
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
        local
    }
}

/// Result of an instrumented parallel weighted SSSP run.
#[derive(Clone, Debug)]
pub struct ParWssspRun {
    /// Distances and total phase count (light phases + improving heavy
    /// passes), deterministic across thread counts.
    pub result: SsspResult,
    /// Number of buckets that settled at least one vertex.
    pub buckets_settled: usize,
    /// How many of the phases were heavy passes.
    pub heavy_phases: usize,
    /// Per-phase counters merged across worker threads — populated only
    /// on instrumented or traced runs, empty otherwise.
    pub counters: RunCounters,
    /// Worker count the run actually used.
    pub threads: usize,
}

/// The one weighted driver behind [`crate::request::run_sssp_weighted`]
/// and its resumed form. With `initial` distances the bucket loop
/// re-files every finite-distance vertex and converges from that
/// upper-bound state instead of starting at the source.
pub(crate) fn run_weighted_request<W: WeightedAdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &W,
    source: VertexId,
    delta: u32,
    variant: Variant,
    initial: Option<&[u32]>,
    config: &RunConfig<'_, S, X>,
) -> (ParWssspRun, RunOutcome) {
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "sssp-weighted".to_string(),
        variant: variant.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: Some(delta),
        root: Some(source),
        footprint: Some(run_footprint(graph.footprint())),
    });
    let resume = initial.is_some();
    let state = match initial {
        Some(distances) => TraversalState::from_distances(distances),
        None => TraversalState::new(graph.num_vertices()),
    };
    let bucket_loop = BucketLoop::new(graph, scope.exec(), scope.grain, scope.tally, delta);
    let (sink, cancel) = (scope.sink(), scope.cancel);
    let (run, outcome) = match variant {
        Variant::BranchAvoiding => {
            bucket_loop.run(&state, source, &BranchAvoidingRelax, sink, cancel, resume)
        }
        Variant::BranchBased => {
            bucket_loop.run(&state, source, &BranchBasedRelax, sink, cancel, resume)
        }
        // Samples early bucket passes branch-based, then hot-switches to
        // the advisor's pick.
        Variant::Auto => {
            let auto = AutoSwitch::new(BranchBasedRelax, BranchAvoidingRelax);
            bucket_loop.run(&state, source, &auto, sink, cancel, resume)
        }
    };
    scope.close(&outcome);
    let result = ParWssspRun {
        result: SsspResult::new(state.into_distances(), run.phases),
        buckets_settled: run.bucket_bounds.len(),
        heavy_phases: run.heavy_phases,
        counters: run.counters,
        threads: scope.threads(),
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::pool::{ScopedExecutor, WorkerPool};
    use bga_graph::generators::{
        barabasi_albert, complete_graph, grid_2d, path_graph, star_graph, MeshStencil,
    };
    use bga_graph::properties::bfs_distances_reference;
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_kernels::sssp::sssp_unit_delta_stepping;

    fn shapes() -> Vec<CsrGraph> {
        vec![
            GraphBuilder::undirected(1).build(),
            GraphBuilder::undirected(6)
                .add_edges([(0, 1), (1, 2), (3, 4)])
                .build(),
            path_graph(50),
            star_graph(35),
            complete_graph(10),
            grid_2d(12, 8, MeshStencil::Moore),
            barabasi_albert(600, 3, 17),
            // Above PARALLEL_GRAIN, so per-phase chunking fans out for real.
            barabasi_albert(4_000, 4, 29),
        ]
    }

    fn unit<G: AdjacencySource>(g: &G, source: VertexId, threads: usize) -> SsspResult {
        run_unit_request(
            g,
            source,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(threads),
        )
        .0
        .result
    }

    fn unit_variant<G: AdjacencySource>(
        g: &G,
        source: VertexId,
        threads: usize,
        variant: Variant,
    ) -> SsspResult {
        run_unit_request(g, source, variant, &RunConfig::new().threads(threads))
            .0
            .result
    }

    fn unit_instrumented<G: AdjacencySource>(
        g: &G,
        source: VertexId,
        threads: usize,
        variant: Variant,
    ) -> ParSsspRun {
        run_unit_request(
            g,
            source,
            variant,
            &RunConfig::new().threads(threads).instrumented(true),
        )
        .0
    }

    fn weighted<W: WeightedAdjacencySource>(
        w: &W,
        source: VertexId,
        delta: u32,
        threads: usize,
        variant: Variant,
    ) -> SsspResult {
        run_weighted_request(
            w,
            source,
            delta,
            variant,
            None,
            &RunConfig::new().threads(threads),
        )
        .0
        .result
    }

    fn weighted_instrumented<W: WeightedAdjacencySource>(
        w: &W,
        source: VertexId,
        delta: u32,
        threads: usize,
        variant: Variant,
    ) -> ParWssspRun {
        run_weighted_request(
            w,
            source,
            delta,
            variant,
            None,
            &RunConfig::new().threads(threads).instrumented(true),
        )
        .0
    }

    #[test]
    fn distances_and_phases_match_the_sequential_reference() {
        for g in &shapes() {
            for source in [0u32, (g.num_vertices() as u32).saturating_sub(1)] {
                let seq = sssp_unit_delta_stepping(g, source);
                assert_eq!(seq.distances(), &bfs_distances_reference(g, source)[..]);
                for threads in [1, 2, 8] {
                    for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
                        let par = unit_variant(g, source, threads, variant);
                        assert_eq!(
                            par.distances(),
                            seq.distances(),
                            "{variant:?}, {threads} threads, source {source}"
                        );
                        assert_eq!(
                            par.phases(),
                            seq.phases(),
                            "{variant:?}, {threads} threads, source {source}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn executors_and_grains_agree() {
        let g = barabasi_albert(1_500, 3, 19);
        let expected = sssp_unit_delta_stepping(&g, 0);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain 1 forces every settling phase to fan out.
        for grain in [1, 64, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
                let run = run_unit_request(&g, 0, variant, &on_pool).0.result;
                assert_eq!(run.distances(), expected.distances());
                assert_eq!(run.phases(), expected.phases());
            }
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            let run = run_unit_request(&g, 0, Variant::BranchAvoiding, &on_scoped).0;
            assert_eq!(run.result.distances(), expected.distances());
        }
    }

    #[test]
    fn direction_flip_engages_on_explosive_frontiers() {
        // A star's second phase covers every remaining vertex at once,
        // which crosses the default bottom-up threshold — the SSSP client
        // inherits the engine's frontier flip, not just top-down levels.
        let g = star_graph(2_000);
        let run = unit_instrumented(&g, 0, 2, Variant::BranchAvoiding);
        assert!(run.bottom_up_phases() > 0);
        assert_eq!(run.result.max_distance(), Some(1));
        assert_eq!(run.result.reached_count(), 2_000);
    }

    #[test]
    fn instrumented_phases_cover_the_whole_settlement() {
        let g = barabasi_albert(800, 3, 7);
        for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
            for threads in [1, 2, 8] {
                let run = unit_instrumented(&g, 0, threads, variant);
                assert_eq!(run.threads, threads);
                assert_eq!(run.counters.num_steps(), run.directions.len());
                assert_eq!(run.result.phases(), run.directions.len());
                // Every settled vertex beyond the source was claimed by
                // exactly one phase's relaxations.
                let updates: u64 = run.counters.steps.iter().map(|s| s.updates).sum();
                assert_eq!(updates as usize, run.result.reached_count() - 1);
            }
        }
    }

    #[test]
    fn out_of_range_source_reaches_nothing() {
        let g = path_graph(5);
        for threads in [1, 4] {
            let run = unit(&g, 99, threads);
            assert_eq!(run.reached_count(), 0);
            assert_eq!(run.phases(), 0);
            assert_eq!(run.max_distance(), None);
        }
    }

    #[test]
    fn branch_contrast_survives_parallelism() {
        // A long thin mesh keeps every frontier under the bottom-up
        // threshold, so both runs stay on the top-down kernels whose
        // instruction mix is the contrast under test.
        let g = grid_2d(100, 16, MeshStencil::VonNeumann);
        let based = unit_instrumented(&g, 0, 4, Variant::BranchBased);
        let avoiding = unit_instrumented(&g, 0, 4, Variant::BranchAvoiding);
        assert_eq!(based.result.distances(), avoiding.result.distances());
        let b = based.counters.total();
        let a = avoiding.counters.total();
        assert!(b.branches > a.branches);
        assert!(a.stores > b.stores);
        assert!(b.branch_mispredictions > 0);
        assert_eq!(a.branch_mispredictions, 0);
    }

    // ---- weighted (bucket-loop) client ----

    use bga_graph::weighted::{uniform_weights, unit_weights};
    use bga_kernels::sssp::{sssp_delta_stepping, sssp_dijkstra};

    #[test]
    fn weighted_distances_match_dijkstra_for_every_delta_and_thread_count() {
        for (seed, g) in shapes().iter().enumerate() {
            let wg = uniform_weights(g, 24, seed as u64);
            for source in [0u32, (g.num_vertices() as u32).saturating_sub(1)] {
                let expected = sssp_dijkstra(&wg, source);
                for delta in [1u32, 4, 32] {
                    assert_eq!(
                        sssp_delta_stepping(&wg, source, delta).distances(),
                        expected.distances(),
                        "sequential delta-stepping diverged, delta {delta}"
                    );
                    for threads in [1, 2, 8] {
                        for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
                            let par = weighted(&wg, source, delta, threads, variant);
                            assert_eq!(
                                par.distances(),
                                expected.distances(),
                                "{variant:?}, delta {delta}, {threads} threads, source {source}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_phase_structure_is_deterministic_across_thread_counts() {
        let wg = uniform_weights(&barabasi_albert(1_200, 3, 23), 20, 7);
        for delta in [1u32, 4, 32] {
            for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
                let reference = weighted_instrumented(&wg, 0, delta, 1, variant);
                for threads in [2, 8] {
                    let run = weighted_instrumented(&wg, 0, delta, threads, variant);
                    assert_eq!(run.result.phases(), reference.result.phases());
                    assert_eq!(run.buckets_settled, reference.buckets_settled);
                    assert_eq!(run.heavy_phases, reference.heavy_phases);
                    assert_eq!(run.result.distances(), reference.result.distances());
                }
            }
        }
    }

    #[test]
    fn weighted_executors_and_grains_agree() {
        let wg = uniform_weights(&barabasi_albert(1_500, 3, 19), 16, 3);
        let expected = sssp_dijkstra(&wg, 0);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain 1 forces every relaxation pass to fan out.
        for grain in [1, 64, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
                let run = run_weighted_request(&wg, 0, 4, variant, None, &on_pool).0;
                assert_eq!(run.result.distances(), expected.distances());
            }
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            let run = run_weighted_request(&wg, 0, 4, Variant::BranchAvoiding, None, &on_scoped).0;
            assert_eq!(run.result.distances(), expected.distances());
        }
    }

    #[test]
    fn unit_weighted_graph_reduces_to_the_unit_client() {
        let g = barabasi_albert(600, 3, 17);
        let wg = unit_weights(&g);
        let unit = unit(&g, 0, 4);
        let weighted = weighted(&wg, 0, 1, 4, Variant::BranchAvoiding);
        assert_eq!(weighted.distances(), unit.distances());
        // Δ = 1 on unit weights: buckets are levels, no heavy edges, one
        // phase per bucket.
        let run = weighted_instrumented(&wg, 0, 1, 2, Variant::BranchAvoiding);
        assert_eq!(run.heavy_phases, 0);
        assert_eq!(run.result.phases(), run.buckets_settled);
        assert_eq!(run.result.phases(), unit.phases());
    }

    #[test]
    fn weighted_heavy_passes_engage_when_delta_splits_the_weights() {
        // Weights 1..=24 with Δ = 4: plenty of heavy edges, and they must
        // actually run as deferred passes.
        let wg = uniform_weights(&barabasi_albert(800, 3, 7), 24, 7);
        let run = weighted_instrumented(&wg, 0, 4, 2, Variant::BranchAvoiding);
        assert!(run.heavy_phases > 0, "expected deferred heavy passes");
        assert!(run.result.phases() > run.heavy_phases);
        // Instrumented counters cover every pass.
        assert!(run.counters.num_steps() > 0);
        assert_eq!(run.threads, 2);
    }

    #[test]
    fn weighted_branch_contrast_survives_parallelism() {
        let wg = uniform_weights(&grid_2d(60, 16, MeshStencil::VonNeumann), 8, 5);
        let based = weighted_instrumented(&wg, 0, 3, 4, Variant::BranchBased);
        let avoiding = weighted_instrumented(&wg, 0, 3, 4, Variant::BranchAvoiding);
        assert_eq!(based.result.distances(), avoiding.result.distances());
        let b = based.counters.total();
        let a = avoiding.counters.total();
        // The avoiding kernel trades data-dependent branches for stores
        // and predicated moves.
        assert!(b.branches > a.branches);
        assert!(a.stores > b.stores);
        assert!(b.branch_mispredictions > 0);
        assert_eq!(a.branch_mispredictions, 0);
    }

    #[test]
    fn weighted_huge_weights_do_not_blow_up_the_bucket_structure() {
        use bga_graph::weighted::WeightedGraphBuilder;
        // The bucket loop's pending queues are sparse; a billion-weight
        // edge must complete instantly instead of materialising a billion
        // empty buckets.
        let g = WeightedGraphBuilder::undirected(3)
            .add_edges([(0, 1, 1_000_000_000), (1, 2, 3)])
            .build();
        for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
            let run = weighted(&g, 0, 1, 2, variant);
            assert_eq!(run.distances(), &[0, 1_000_000_000, 1_000_000_003]);
        }
    }

    #[test]
    fn unit_phase_budget_cuts_at_an_exact_level() {
        use crate::cancel::InterruptReason;
        let g = path_graph(40);
        let token = CancelToken::new().with_phase_budget(6);
        let (run, outcome) = run_unit_request(
            &g,
            0,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert_eq!(
            outcome.reason(),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        for (v, &d) in run.result.distances().iter().enumerate() {
            if v <= 6 {
                assert_eq!(d, v as u32);
            } else {
                assert_eq!(d, INFINITY);
            }
        }
    }

    #[test]
    fn weighted_interrupted_runs_resume_bit_identical() {
        let wg = uniform_weights(&barabasi_albert(700, 3, 11), 20, 9);
        let expected = sssp_dijkstra(&wg, 0);
        for variant in [SsspVariant::BranchBased, SsspVariant::BranchAvoiding] {
            let token = CancelToken::new().with_phase_budget(3);
            let (partial, outcome) = run_weighted_request(
                &wg,
                0,
                4,
                variant,
                None,
                &RunConfig::new().threads(2).cancel(&token),
            );
            assert!(!outcome.is_completed(), "{variant:?} run was not cut");
            // Partial distances are valid monotone upper bounds.
            for (v, &d) in partial.result.distances().iter().enumerate() {
                assert!(d >= expected.distances()[v], "vertex {v} below optimum");
            }
            assert_ne!(partial.result.distances(), expected.distances());
            let resumed = run_weighted_request(
                &wg,
                0,
                4,
                variant,
                Some(partial.result.distances()),
                &RunConfig::new().threads(2),
            )
            .0;
            assert_eq!(resumed.result.distances(), expected.distances());
        }
        // Resuming from scratch (all INFINITY except the source's own
        // zero after seeding) degenerates to a plain run.
        let from_scratch = run_weighted_request(
            &wg,
            0,
            4,
            Variant::BranchAvoiding,
            Some(&vec![INFINITY; wg.num_vertices()]),
            &RunConfig::new().threads(2),
        )
        .0;
        assert_eq!(from_scratch.result.distances(), expected.distances());
    }

    #[test]
    fn weighted_uncancelled_tokens_complete_and_match() {
        let wg = uniform_weights(&barabasi_albert(600, 3, 17), 16, 3);
        let token = CancelToken::new();
        let (run, outcome) = run_weighted_request(
            &wg,
            0,
            4,
            Variant::BranchAvoiding,
            None,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert!(outcome.is_completed());
        assert_eq!(run.result.distances(), sssp_dijkstra(&wg, 0).distances());
    }

    #[test]
    fn weighted_out_of_range_source_and_degenerate_graphs() {
        use bga_graph::GraphBuilder;
        let wg = unit_weights(&path_graph(5));
        for threads in [1, 4] {
            let run = weighted(&wg, 99, 2, threads, Variant::BranchAvoiding);
            assert_eq!(run.reached_count(), 0);
            assert_eq!(run.phases(), 0);
        }
        let empty = unit_weights(&GraphBuilder::undirected(0).build());
        let run = weighted(&empty, 0, 1, 2, Variant::BranchAvoiding);
        assert_eq!(run.distances().len(), 0);
        assert_eq!(run.phases(), 0);
    }

    #[test]
    fn auto_variant_matches_the_static_distances() {
        let g = barabasi_albert(2_000, 3, 13);
        let wg = uniform_weights(&g, 12, 5);
        let expected_unit = unit(&g, 0, 2);
        let expected_weighted = sssp_dijkstra(&wg, 0);
        for threads in [1, 2, 8] {
            let unit_auto = run_unit_request(
                &g,
                0,
                Variant::Auto,
                &RunConfig::new().threads(threads).grain(1),
            )
            .0;
            assert_eq!(
                unit_auto.result.distances(),
                expected_unit.distances(),
                "unit auto, {threads} threads"
            );
            let weighted_auto = run_weighted_request(
                &wg,
                0,
                4,
                Variant::Auto,
                None,
                &RunConfig::new().threads(threads).grain(1),
            )
            .0;
            assert_eq!(
                weighted_auto.result.distances(),
                expected_weighted.distances(),
                "weighted auto, {threads} threads"
            );
        }
        // Instrumented auto tallies every dispatch (same step count as a
        // static instrumented run); plain auto only the sampled prefix.
        let instr_static = weighted_instrumented(&wg, 0, 4, 2, Variant::BranchAvoiding);
        let instr = weighted_instrumented(&wg, 0, 4, 2, Variant::Auto);
        assert_eq!(instr.result.distances(), expected_weighted.distances());
        assert_eq!(
            instr.counters.num_steps(),
            instr_static.counters.num_steps()
        );
        let plain = run_weighted_request(&wg, 0, 4, Variant::Auto, None, &RunConfig::new()).0;
        assert!(plain.counters.num_steps() < instr.counters.num_steps());
    }
}
