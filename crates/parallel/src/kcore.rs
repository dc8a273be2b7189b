//! Parallel k-core decomposition by concurrent peeling.
//!
//! Peeling is traversal-shaped in exactly the way the paper cares about:
//! the inner step is "decrement a neighbour's degree counter and test a
//! threshold", which is a branch per edge in the textbook form and a
//! *priority decrement* in the branch-avoiding form. The two variants
//! reproduce the SV/BFS contrast on atomic degree counters:
//!
//! * [`KcoreVariant::BranchAvoiding`] — per edge, one unconditional
//!   `fetch_sub(1)` on the neighbour's degree plus a *predicated enqueue*:
//!   the neighbour is written into the chunk's buffer unconditionally and
//!   the buffer length advances by the branch-free
//!   `(prev == k + 1) as usize` — exactly one decrement per vertex
//!   observes the crossing from `k + 1` to `k`, so the next frontier is
//!   duplicate-free without any test.
//! * [`KcoreVariant::BranchBased`] — per edge, a data-dependent test
//!   (`degree > k`?) guarding a `compare_exchange_weak` decrement loop,
//!   with a second branch on the crossing to enqueue — the CAS discipline
//!   of the branch-based SV hook.
//!
//! The driver is the sweep-until-fixpoint shape of the engine's
//! `SweepLoop`, specialised to peeling rounds: for each `k` a chunked
//! *seed sweep* over the vertex range collects every still-unpeeled
//! vertex whose degree has fallen to ≤ `k` (a branch-free predicated
//! collect), then *cascade rounds* expand the frontier — peel its
//! vertices (store `core = k`), decrement their neighbours, enqueue the
//! crossers — until the frontier empties, at which point every remaining
//! vertex has degree > `k` (the fixpoint) and `k` advances. The seed
//! sweep also reports the minimum unpeeled degree, so a `k` that would
//! peel nothing is jumped over in one step rather than swept value by
//! value (a complete graph peels in two sweeps, not `n`). Seed sweeps and
//! cascade rounds are engine phases: they chunk with the same
//! [`balanced_prefix_ranges`] chunkers as the level loop and run through
//! the same phase step, which fans them out over the run's executor and
//! tallies, traces and hands them to the adaptive variant like any other.
//!
//! The removal cascade at a fixed `k` is confluent — the set peeled at
//! each `k` does not depend on the order the cascade discovers it — so
//! **core numbers are deterministic and identical to the sequential
//! [`bga_kernels::kcore::kcore_peeling`] for every thread count, grain
//! and executor**. The frontier *order* inside a cascade round depends on
//! which worker wins the crossing decrement and is not stable across
//! runs; only the membership is. The two variants leave different residual
//! values in the (discarded) degree counters of already-peeled vertices —
//! the branch-avoiding kernel keeps decrementing them, the branch-based
//! kernel skips them — but active vertices see identical degrees in both.

use crate::auto::AutoSwitch;
use crate::cancel::RunOutcome;
use crate::counters::ThreadTally;
use crate::engine::{chunk_bodies, frontier_degree_prefix, PhaseHooks, Phases};
use crate::pool::{balanced_prefix_ranges, effective_chunks_with_grain, even_ranges, Execute};
use crate::request::{ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::{AdjacencySource, VertexId};
use bga_kernels::kcore::CoreDecomposition;
use bga_kernels::stats::RunCounters;
use bga_obs::{PhaseKind, TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Core value of a vertex that has not been peeled yet.
const UNPEELED: u32 = u32::MAX;

/// Which per-edge peeling discipline a parallel k-core run uses. Both
/// produce identical core numbers; they differ only in the instruction
/// mix, mirroring the SV pair. An alias of the unified
/// [`crate::request::Variant`].
pub use crate::request::Variant as KcoreVariant;

/// Result of an instrumented parallel k-core run.
#[derive(Clone, Debug)]
pub struct ParKcoreRun {
    /// Core numbers (identical to the sequential peeling's).
    pub cores: CoreDecomposition,
    /// Per-dispatch counters (seed sweeps and cascade rounds) merged
    /// across worker threads.
    pub counters: RunCounters,
    /// Worker count the run actually used.
    pub threads: usize,
    /// Number of cascade rounds across all `k` (frontier expansions).
    pub rounds: usize,
}

/// Read-only per-dispatch context handed to [`PeelControl`] chunks.
pub(crate) struct PeelCtx<'a, G> {
    graph: &'a G,
    /// Remaining degree of every vertex.
    degree: &'a [AtomicU32],
    /// Core number of every peeled vertex, `UNPEELED` otherwise.
    core: &'a [AtomicU32],
    /// The core value being peeled.
    k: u32,
}

/// Seed sweep chunk: collect every still-unpeeled vertex in `range` whose
/// degree has fallen to ≤ `k`, with a branch-free predicated collect
/// (unconditional slot write, arithmetic length advance). Also reports
/// the minimum unpeeled degree in the range (`u32::MAX` when none), which
/// lets the driver jump `k` over empty peel rounds instead of sweeping
/// every intermediate value.
fn seed_chunk<G, const TALLY: bool>(
    ctx: &PeelCtx<'_, G>,
    range: Range<usize>,
    tally: &mut ThreadTally,
) -> (Vec<VertexId>, u32) {
    let (degree, core, k) = (ctx.degree, ctx.core, ctx.k);
    let mut buffer = vec![0 as VertexId; range.len() + 1];
    let mut len = 0usize;
    let mut min_degree = u32::MAX;
    for v in range {
        let unpeeled = core[v].load(Relaxed) == UNPEELED;
        let d = degree[v].load(Relaxed);
        buffer[len] = v as VertexId;
        len += usize::from(unpeeled & (d <= k));
        // Branch-free min over the unpeeled degrees (peeled counters keep
        // decaying and must not drag the minimum down).
        min_degree = min_degree.min(if unpeeled { d } else { u32::MAX });
        if TALLY {
            tally.loads += 2;
            tally.stores += 1; // unconditional slot write
            tally.conditional_moves += 2; // predicated length advance + min
            tally.branches += 1; // loop bound only
        }
    }
    buffer.truncate(len);
    (buffer, min_degree)
}

/// Branch-avoiding cascade chunk: peel `frontier[range]` at `k`, issue one
/// unconditional `fetch_sub` per edge, and claim next-frontier slots with
/// the branch-free `(prev == k + 1)` length advance. Exactly one decrement
/// per vertex observes the crossing, so the concatenated discoveries are
/// duplicate-free.
fn cascade_chunk_avoiding<G: AdjacencySource, const TALLY: bool>(
    ctx: &PeelCtx<'_, G>,
    frontier: &[VertexId],
    range: Range<usize>,
    chunk_edges: usize,
    tally: &mut ThreadTally,
) -> Vec<VertexId> {
    let (graph, degree, core, k) = (ctx.graph, ctx.degree, ctx.core, ctx.k);
    // One slot per potential crossing plus the overflow slot the
    // unconditional write of a non-crossing lands in.
    let mut buffer = vec![0 as VertexId; chunk_edges.min(graph.num_vertices()) + 1];
    let mut len = 0usize;
    for &v in &frontier[range] {
        // Each frontier vertex belongs to exactly one chunk: the core
        // store is race-free.
        core[v as usize].store(k, Relaxed);
        if TALLY {
            tally.vertices += 1;
            tally.updates += 1;
            tally.stores += 1;
            tally.branches += 1; // frontier-loop bound
        }
        for u in graph.neighbor_cursor(v) {
            // The priority decrement: unconditional atomic fetch_sub.
            let prev = degree[u as usize].fetch_sub(1, Relaxed);
            // Unconditional candidate write; the slot is claimed iff this
            // decrement crossed the k threshold.
            buffer[len] = u;
            len += usize::from(prev == k + 1);
            if TALLY {
                tally.edges += 1;
                // fetch_sub = load + sub + store; the queue slot write is
                // unconditional; length advance is predicated arithmetic.
                tally.loads += 1;
                tally.stores += 2;
                tally.conditional_moves += 1;
                tally.branches += 1; // neighbour-loop bound only
            }
        }
    }
    buffer.truncate(len);
    buffer
}

/// Branch-based cascade chunk: peel `frontier[range]` at `k`, and for
/// every edge test the neighbour's degree before claiming the decrement
/// with a CAS loop; the winner of the `k + 1 → k` transition enqueues.
fn cascade_chunk_based<G: AdjacencySource, const TALLY: bool>(
    ctx: &PeelCtx<'_, G>,
    frontier: &[VertexId],
    range: Range<usize>,
    tally: &mut ThreadTally,
) -> Vec<VertexId> {
    let (graph, degree, core, k) = (ctx.graph, ctx.degree, ctx.core, ctx.k);
    let mut local = Vec::new();
    for &v in &frontier[range] {
        core[v as usize].store(k, Relaxed);
        if TALLY {
            tally.vertices += 1;
            tally.updates += 1;
            tally.stores += 1;
            tally.branches += 1; // frontier-loop bound
        }
        for u in graph.neighbor_cursor(v) {
            if TALLY {
                tally.edges += 1;
                tally.loads += 1;
                tally.branches += 2; // neighbour-loop bound + threshold test
                tally.data_branches += 1;
            }
            let mut d = degree[u as usize].load(Relaxed);
            loop {
                // Data-dependent test: already at or below the threshold
                // (peeled, queued, or doomed) — skip the decrement.
                if d <= k {
                    break;
                }
                if TALLY {
                    tally.loads += 1;
                }
                match degree[u as usize].compare_exchange_weak(d, d - 1, Relaxed, Relaxed) {
                    Ok(_) => {
                        if TALLY {
                            tally.stores += 1;
                            tally.branches += 1; // crossing test
                            tally.data_branches += 1;
                        }
                        // Exactly one CAS wins the k + 1 → k transition.
                        if d == k + 1 {
                            if TALLY {
                                tally.stores += 1; // queue slot
                            }
                            local.push(u);
                        }
                        break;
                    }
                    Err(current) => {
                        if TALLY {
                            tally.branches += 1; // CAS retry test
                            tally.data_branches += 1;
                        }
                        d = current;
                    }
                }
            }
        }
    }
    local
}

/// The per-dispatch discipline [`peel_on`] runs under: the seed and
/// cascade chunk kernels, plus the phase-boundary hooks
/// [`Variant::Auto`]'s [`AutoSwitch`] hot-switches through. With `TALLY`
/// a chunk accounts its operations into `tally`.
pub(crate) trait PeelControl<G: AdjacencySource>: PhaseHooks {
    /// Seed-sweep chunk over a vertex range.
    fn seed<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> (Vec<VertexId>, u32);

    /// Cascade chunk over a frontier slice; `chunk_edges` is the number
    /// of adjacency slots the chunk owns.
    fn cascade<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId>;
}

/// A fixed peeling discipline: `AVOIDING` picks the cascade chunk.
struct StaticPeel<const AVOIDING: bool>;

impl<const AVOIDING: bool> PhaseHooks for StaticPeel<AVOIDING> {}

impl<G: AdjacencySource, const AVOIDING: bool> PeelControl<G> for StaticPeel<AVOIDING> {
    fn seed<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        range: Range<usize>,
        tally: &mut ThreadTally,
    ) -> (Vec<VertexId>, u32) {
        // The seed sweep is variant-free: a branch-free predicated
        // collect either way.
        seed_chunk::<G, TALLY>(ctx, range, tally)
    }

    fn cascade<const TALLY: bool>(
        &self,
        ctx: &PeelCtx<'_, G>,
        frontier: &[VertexId],
        range: Range<usize>,
        chunk_edges: usize,
        tally: &mut ThreadTally,
    ) -> Vec<VertexId> {
        if AVOIDING {
            cascade_chunk_avoiding::<G, TALLY>(ctx, frontier, range, chunk_edges, tally)
        } else {
            cascade_chunk_based::<G, TALLY>(ctx, frontier, range, tally)
        }
    }
}

/// The peeling driver: seed sweep + cascade rounds per `k`, on the run's
/// executor. Returns core numbers, the cascade-round count and the
/// per-dispatch counter series of the tallied dispatches. A
/// [`TraceSink`] observes the peel schedule: one [`PhaseKind::Seed`]
/// phase per seed sweep (frontier = scan domain, discovered = seeds
/// collected) and one [`PhaseKind::Cascade`] phase per cascade round
/// (frontier = discovered = vertices peeled this round), each carrying
/// the merged dispatch counters and wall clock. With a
/// [`bga_obs::NoopSink`] the emission sites compile out entirely.
fn peel_on<G, P, S, X>(
    graph: &G,
    scope: &RunScope<'_, S, X>,
    control: &P,
) -> (CoreDecomposition, usize, RunCounters, RunOutcome)
where
    G: AdjacencySource,
    P: PeelControl<G>,
    S: TraceSink,
    X: ExecutorAxis,
{
    let n = graph.num_vertices();
    let (exec, grain) = (scope.exec(), scope.grain);
    let threads = exec.parallelism();
    let degree: Vec<AtomicU32> = (0..n)
        .map(|v| AtomicU32::new(graph.degree(v as VertexId) as u32))
        .collect();
    let core: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNPEELED)).collect();
    let mut phases = Phases::new(exec, scope.tally, scope.sink(), scope.cancel, 0);
    let mut peeled = 0usize;
    let mut k = 0u32;
    let mut rounds = 0usize;
    let mut outcome = RunOutcome::Completed;
    'peel: while peeled < n {
        // Cancellation seam: between peel dispatches (seed sweeps and
        // cascade rounds), so an interrupted run leaves every vertex
        // peeled so far with its final core number and everything else
        // still marked unpeeled.
        if let Some(stop) = phases.stop() {
            outcome = stop;
            break 'peel;
        }
        let ctx = &PeelCtx {
            graph,
            degree: &degree,
            core: &core,
            k,
        };
        // Seed sweep for this k: every chunk scans a vertex range; the
        // fixpoint of the previous k guarantees seeds have degree == k.
        let seed_ranges = even_ranges(n, effective_chunks_with_grain(n, threads, grain));
        let bodies = chunk_bodies!(|range, tally| TALLY => {
            control.seed::<TALLY>(ctx, range, tally)
        });
        let seeds = phases.step(control, seed_ranges, bodies, |seeds, _| {
            let discovered = seeds.iter().map(|(found, _)| found.len()).sum();
            (PhaseKind::Seed, None, n, discovered, None)
        });
        let min_unpeeled = seeds.iter().map(|&(_, min)| min).min().unwrap_or(u32::MAX);
        let mut frontier: Vec<VertexId> = seeds.into_iter().flat_map(|(found, _)| found).collect();
        if frontier.is_empty() {
            // Nothing peels at this k. Unpeeled vertices remain (the loop
            // guard saw peeled < n), so jump straight to their smallest
            // degree — on a graph with a dense inner core this replaces
            // degeneracy-many empty whole-graph sweeps with one.
            debug_assert!(min_unpeeled > k && min_unpeeled < u32::MAX);
            k = min_unpeeled;
            continue;
        }
        while !frontier.is_empty() {
            if let Some(stop) = phases.stop() {
                outcome = stop;
                break 'peel;
            }
            rounds += 1;
            peeled += frontier.len();
            let prefix = &frontier_degree_prefix(graph, &frontier);
            let chunks = effective_chunks_with_grain(*prefix.last().unwrap_or(&0), threads, grain);
            let ranges = balanced_prefix_ranges(prefix, chunks);
            let queue = &frontier;
            let bodies = chunk_bodies!(|range, tally| TALLY => {
                let chunk_edges = prefix[range.end] - prefix[range.start];
                control.cascade::<TALLY>(ctx, queue, range, chunk_edges, tally)
            });
            let found = phases.step(control, ranges, bodies, |_, _| {
                (PhaseKind::Cascade, None, queue.len(), queue.len(), None)
            });
            frontier = found.into_iter().flatten().collect();
        }
        k += 1;
    }
    let cores = CoreDecomposition::new(core.into_iter().map(AtomicU32::into_inner).collect());
    (cores, rounds, phases.counters(), outcome)
}

/// The one driver behind [`crate::request::run_kcore`]: picks the peel
/// discipline and hands it to [`peel_on`] under the run's [`RunScope`].
pub(crate) fn run_request<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    config: &RunConfig<'_, S, X>,
) -> (ParKcoreRun, RunOutcome) {
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "kcore".to_string(),
        variant: variant.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: None,
        root: None,
        footprint: Some(run_footprint(graph.footprint())),
    });
    let (cores, rounds, counters, outcome) = match variant {
        Variant::BranchAvoiding => peel_on(graph, &scope, &StaticPeel::<true>),
        Variant::BranchBased => peel_on(graph, &scope, &StaticPeel::<false>),
        Variant::Auto => {
            let auto = AutoSwitch::new(StaticPeel::<false>, StaticPeel::<true>);
            peel_on(graph, &scope, &auto)
        }
    };
    scope.close(&outcome);
    let result = ParKcoreRun {
        cores,
        counters,
        threads: scope.threads(),
        rounds,
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::pool::{ScopedExecutor, WorkerPool};
    use bga_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, erdos_renyi_gnm, grid_2d, path_graph,
        star_graph, MeshStencil,
    };
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_kernels::kcore::kcore_peeling;

    fn shapes() -> Vec<CsrGraph> {
        vec![
            GraphBuilder::undirected(0).build(),
            GraphBuilder::undirected(1).build(),
            GraphBuilder::undirected(5).build(), // all isolated
            GraphBuilder::undirected(7)
                .add_edges([(0, 1), (1, 2), (3, 4), (5, 6)])
                .build(),
            path_graph(40),
            cycle_graph(17),
            star_graph(30),
            complete_graph(9),
            grid_2d(11, 9, MeshStencil::Moore),
            erdos_renyi_gnm(300, 900, 5),
            barabasi_albert(500, 3, 13),
            // Above PARALLEL_GRAIN, so chunking fans out for real.
            barabasi_albert(5_000, 4, 23),
        ]
    }

    fn run<G: AdjacencySource>(g: &G, threads: usize, variant: Variant) -> ParKcoreRun {
        run_request(g, variant, &RunConfig::new().threads(threads)).0
    }

    fn instrumented<G: AdjacencySource>(g: &G, threads: usize, variant: Variant) -> ParKcoreRun {
        run_request(
            g,
            variant,
            &RunConfig::new().threads(threads).instrumented(true),
        )
        .0
    }

    #[test]
    fn cores_match_sequential_peeling_for_every_thread_count() {
        for g in &shapes() {
            let expected = kcore_peeling(g);
            for threads in [1, 2, 3, 8] {
                for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                    assert_eq!(
                        run(g, threads, variant).cores.as_slice(),
                        expected.as_slice(),
                        "{variant:?}, {threads} threads, {} vertices",
                        g.num_vertices()
                    );
                }
            }
        }
    }

    #[test]
    fn executors_and_grains_agree() {
        let g = barabasi_albert(2_000, 3, 31);
        let expected = kcore_peeling(&g);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain 1 forces every seed sweep and cascade round to fan out.
        for grain in [1, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let pool_run = run_request(&g, variant, &on_pool).0;
                let scoped_run = run_request(&g, variant, &on_scoped).0;
                assert_eq!(pool_run.cores.as_slice(), expected.as_slice());
                assert_eq!(scoped_run.cores.as_slice(), expected.as_slice());
                // Cascade structure is deterministic, not just the values.
                assert_eq!(
                    pool_run.rounds, scoped_run.rounds,
                    "{variant:?} grain {grain}"
                );
            }
        }
    }

    #[test]
    fn cascade_rounds_track_the_peel_structure() {
        // A path peels from both ends inwards: ~n/2 cascade rounds at k=1.
        let g = path_graph(20);
        let r = run(&g, 2, Variant::BranchAvoiding);
        assert!(r.cores.as_slice().iter().all(|&c| c == 1));
        assert_eq!(r.rounds, 10);
        // A complete graph peels in one round once k reaches n - 1.
        let g = complete_graph(8);
        let r = run(&g, 2, Variant::BranchAvoiding);
        assert!(r.cores.as_slice().iter().all(|&c| c == 7));
        assert_eq!(r.rounds, 1);
        // The empty graph peels nothing in zero rounds.
        let g = GraphBuilder::undirected(0).build();
        let r = run(&g, 2, Variant::BranchAvoiding);
        assert!(r.cores.is_empty());
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn empty_peel_rounds_are_jumped_not_swept() {
        // A complete graph peels nothing until k = n - 1: the driver must
        // jump there off the first sweep's minimum-degree report instead
        // of sweeping every intermediate k. Dispatches: the empty k = 0
        // sweep, the k = 31 seed sweep, one cascade round.
        let g = complete_graph(32);
        let run = instrumented(&g, 2, Variant::BranchAvoiding);
        assert!(run.cores.as_slice().iter().all(|&c| c == 31));
        assert_eq!(run.rounds, 1);
        assert_eq!(run.counters.num_steps(), 3);
    }

    #[test]
    fn instrumented_runs_account_the_peel() {
        let g = barabasi_albert(2_000, 3, 7);
        for threads in [1, 2, 8] {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let run = instrumented(&g, threads, variant);
                assert_eq!(run.threads, threads);
                assert_eq!(run.cores.as_slice(), kcore_peeling(&g).as_slice());
                assert!(run.rounds > 0);
                // Every vertex is peeled exactly once across all rounds.
                let peeled: u64 = run.counters.steps.iter().map(|s| s.updates).sum();
                assert_eq!(peeled as usize, g.num_vertices());
                // Every adjacency slot is traversed exactly once (each
                // vertex expands its full neighbour list when peeled).
                assert_eq!(
                    run.counters.total_edges_traversed() as usize,
                    g.num_edge_slots(),
                    "{variant:?}"
                );
            }
        }
    }

    #[test]
    fn branch_contrast_survives_parallelism() {
        // The branch-based peel executes a data-dependent branch per edge
        // that the branch-avoiding peel replaces with a fetch_sub, so it
        // must report strictly more branches and a non-zero misprediction
        // bound, while the avoiding peel reports more stores and real
        // predicated-operation counts.
        let g = erdos_renyi_gnm(1_500, 4_500, 21);
        let based = instrumented(&g, 4, Variant::BranchBased);
        let avoiding = instrumented(&g, 4, Variant::BranchAvoiding);
        assert_eq!(based.cores.as_slice(), avoiding.cores.as_slice());
        let b = based.counters.total();
        let a = avoiding.counters.total();
        assert!(b.branches > a.branches, "{} <= {}", b.branches, a.branches);
        assert!(b.branch_mispredictions > 0);
        assert_eq!(a.branch_mispredictions, 0);
        assert!(a.stores > b.stores, "{} <= {}", a.stores, b.stores);
        assert!(a.conditional_moves > 0);
    }

    #[test]
    fn interrupted_peels_keep_final_cores_for_the_peeled_prefix() {
        use crate::cancel::InterruptReason;
        // A path peels at k = 1 over ~n/2 cascade rounds, so a small
        // dispatch budget cuts mid-cascade with a real peeled prefix.
        let g = path_graph(40);
        let expected = kcore_peeling(&g);
        let token = CancelToken::new().with_phase_budget(4);
        let (run, outcome) = run_request(
            &g,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert_eq!(
            outcome.reason(),
            Some(InterruptReason::PhaseBudgetExhausted)
        );
        let peeled: Vec<usize> = (0..g.num_vertices())
            .filter(|&v| run.cores.as_slice()[v] != u32::MAX)
            .collect();
        assert!(!peeled.is_empty(), "budget 4 should peel something");
        assert!(
            peeled.len() < g.num_vertices(),
            "budget 4 should not finish"
        );
        // Every peeled vertex already carries its final core number.
        for &v in &peeled {
            assert_eq!(run.cores.as_slice()[v], expected.as_slice()[v]);
        }
    }

    #[test]
    fn uncancelled_kcore_tokens_complete_and_match() {
        let g = barabasi_albert(500, 3, 13);
        let token = CancelToken::new();
        let (run, outcome) = run_request(
            &g,
            Variant::BranchBased,
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert!(outcome.is_completed());
        assert_eq!(run.cores.as_slice(), kcore_peeling(&g).as_slice());
    }

    #[test]
    fn degeneracy_and_histogram_survive_the_parallel_path() {
        let g = barabasi_albert(400, 3, 3);
        let seq = kcore_peeling(&g);
        let par = run(&g, 4, Variant::BranchAvoiding).cores;
        assert_eq!(par.degeneracy(), seq.degeneracy());
        assert_eq!(par.histogram(), seq.histogram());
        assert_eq!(par.k_core_size(2), seq.k_core_size(2));
    }

    #[test]
    fn auto_variant_matches_the_static_cores() {
        let g = barabasi_albert(2_000, 3, 5);
        let expected = kcore_peeling(&g);
        for threads in [1, 2, 8] {
            let auto = run_request(
                &g,
                Variant::Auto,
                &RunConfig::new().threads(threads).grain(1),
            )
            .0;
            assert_eq!(
                auto.cores.as_slice(),
                expected.as_slice(),
                "{threads} threads"
            );
            // The cascade structure is deterministic too, not just cores.
            assert_eq!(auto.rounds, run(&g, threads, Variant::BranchBased).rounds);
        }
        // Instrumented auto tallies every dispatch; plain auto only the
        // sampled prefix.
        let instr = instrumented(&g, 2, Variant::Auto);
        assert_eq!(instr.cores.as_slice(), expected.as_slice());
        assert_eq!(
            instr.counters.num_steps(),
            instrumented(&g, 2, Variant::BranchBased)
                .counters
                .num_steps()
        );
        let plain = run(&g, 2, Variant::Auto);
        assert!(plain.counters.num_steps() > 0);
        assert!(plain.counters.num_steps() < instr.counters.num_steps());
    }
}
