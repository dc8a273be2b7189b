//! Parallel Brandes betweenness centrality on the traversal engine.
//!
//! Brandes' algorithm is a sequence of BFS traversals (one per source)
//! plus a dependency back-sweep — exactly the shape the engine
//! ([`crate::engine`]) was extracted for. The forward phase of each
//! source is the top-down BFS itself: the BFS level kernels
//! [`BranchBasedLevel`] / [`BranchAvoidingLevel`] (the paper's Algorithms
//! 4 and 5) with `SIGMA` set. In the adjacency scan that discovers the
//! next level, each frontier vertex `v` also *pulls* σ(v), the sum of σ
//! over its neighbours one level above it, and `v`'s chunk stores it once.
//! Every σ it reads was stored one level earlier, so σ needs no atomic
//! read-modify-write; the engine expands every frontier, the last one
//! included, so every reached vertex gets its σ. Bottom-up levels do not
//! pull, so the forward phase runs under
//! [`DirectionConfig::always_top_down`]. The pull reads `v`'s own
//! adjacency, so the graph must be undirected:
//! [`crate::request::run_betweenness`] refuses a directed one.
//!
//! σ is summed in wrapping 64-bit integers, so the forward phase is exact
//! (modulo 2^64) and deterministic at every thread count. The dependency
//! accumulation then walks the recorded level boundaries
//! ([`crate::engine::LevelRun::level_bounds`]) in reverse; each level's vertices *pull* their dependency from the
//! finished level below, so every δ is written by exactly one chunk —
//! race-free without floating-point atomics — and computed from a fixed
//! neighbour order, which makes the final scores **bit-identical across
//! thread counts and executors**. Against the sequential
//! [`bga_kernels::bc::betweenness_centrality`] (whose back-phase *pushes*
//! in reverse BFS order) scores agree to floating-point reassociation,
//! verified within a 1e-9 relative tolerance by the cross-validation
//! tests at 1, 2 and 8 threads.
//!
//! **Normalization.** Full runs use the standard undirected convention:
//! every unordered pair is counted from both endpoints and the total is
//! halved. On a disconnected graph shortest paths exist only *within* a
//! component, so scores are effectively normalised per component.
//! Sampled-source runs (an explicit source set on
//! [`crate::request::run_betweenness`]) return the raw, un-halved
//! accumulation over the given sources — the quantity sampled-source
//! approximations scale — and are cross-validated against
//! [`bga_kernels::bc::betweenness_centrality_sources`].

use crate::auto::AutoSwitch;
use crate::bfs::{BranchAvoidingLevel, BranchBasedLevel};
use crate::cancel::RunOutcome;
use crate::engine::{frontier_degree_prefix, LevelLoop, LevelRun, TraversalState};
use crate::pool::{balanced_prefix_ranges, effective_chunks_with_grain, Execute};
use crate::request::{ExecutorAxis, RunConfig, Variant};
use crate::trace::{run_footprint, RunScope};
use bga_graph::{AdjacencySource, VertexId};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_obs::{TraceEvent, TraceSink};
use std::sync::atomic::Ordering::Relaxed;

/// Which forward-phase hooking discipline a parallel betweenness run uses.
/// Both produce identical σ counts and (bit-identical) scores; they differ
/// only in the per-edge instruction mix, mirroring the SV pair. An alias
/// of the unified [`crate::request::Variant`].
pub use crate::request::Variant as BcVariant;

/// Result of a parallel betweenness run through the request API.
#[derive(Clone, Debug)]
pub struct ParBcRun {
    /// Per-vertex centrality scores. Full runs (no explicit source set)
    /// use the standard halved undirected convention; sampled-source runs
    /// return the raw un-halved accumulation.
    pub scores: Vec<f64>,
    /// Number of sources whose contribution is fully accumulated — equal
    /// to the source count on a completed run, the exact prefix on an
    /// interrupted one.
    pub sources_done: usize,
    /// Worker count the run actually used.
    pub threads: usize,
}

/// Pull-style dependency accumulation for one finished source: walk the
/// recorded level boundaries deepest-first; every vertex of a level reads
/// the finished δ of its children one level down, so δ writes are
/// disjoint per chunk and the per-vertex sum has a fixed order.
fn accumulate_dependencies<G: AdjacencySource, E: Execute>(
    graph: &G,
    exec: &E,
    grain: usize,
    run: &LevelRun,
    state: &TraversalState,
    delta: &mut [f64],
    centrality: &mut [f64],
) {
    let (order, level_bounds) = (&run.order, &run.level_bounds);
    let levels = level_bounds.len();
    if levels < 2 {
        return;
    }
    for d in delta.iter_mut() {
        *d = 0.0;
    }
    let distances = state.distances();
    let sigma = state.sigma().expect("BC traversal state carries sigma");
    let threads = exec.parallelism();
    // The deepest level's δ is zero by definition, so start one above it.
    for level in (1..levels - 1).rev() {
        let members = &order[level_bounds[level].clone()];
        let prefix = frontier_degree_prefix(graph, members);
        let chunks = effective_chunks_with_grain(*prefix.last().unwrap_or(&0), threads, grain);
        let ranges = balanced_prefix_ranges(&prefix, chunks);
        let child_level = level as u32 + 1;
        let delta_ref: &[f64] = delta;
        let buffers: Vec<Vec<f64>> = exec.run(ranges, move |_chunk, range| {
            members[range]
                .iter()
                .map(|&w| {
                    let sigma_w = sigma[w as usize].load(Relaxed) as f64;
                    let mut acc = 0.0f64;
                    for x in graph.neighbor_cursor(w) {
                        // Pull from the children one level deeper; their δ
                        // was finished by the previous iteration's barrier.
                        if distances[x as usize].load(Relaxed) == child_level {
                            acc += sigma_w * (1.0 + delta_ref[x as usize])
                                / sigma[x as usize].load(Relaxed) as f64;
                        }
                    }
                    acc
                })
                .collect()
        });
        // Disjoint per-vertex results, written back on the submitting
        // thread in level order.
        let mut index = 0usize;
        for buffer in buffers {
            for value in buffer {
                let w = members[index] as usize;
                delta[w] = value;
                centrality[w] += value;
                index += 1;
            }
        }
    }
}

/// The one driver behind [`crate::request::run_betweenness`].
/// `sources: None` means the full accumulation over every vertex with
/// the standard halved undirected convention; `Some` returns the raw
/// un-halved sums over the given set. The forward kernels tally under the
/// same rule as every other kernel (instrumented or traced), in every
/// variant, so a traced run's phase counters are real.
///
/// The token is checked at every forward level boundary against the
/// run's total: each source's traversal numbers its phases after the
/// sources before it. A source whose traversal is interrupted
/// contributes nothing, so the returned scores are always the *exact*
/// accumulation over the first `sources_done` sources.
pub(crate) fn run_request<G: AdjacencySource, S: TraceSink, X: ExecutorAxis>(
    graph: &G,
    variant: Variant,
    sources: Option<&[VertexId]>,
    config: &RunConfig<'_, S, X>,
) -> (ParBcRun, RunOutcome) {
    assert!(
        graph.is_undirected(),
        "betweenness centrality needs an undirected graph"
    );
    let all: Vec<VertexId>;
    let source_list: &[VertexId] = match sources {
        Some(list) => list,
        None => {
            all = (0..graph.num_vertices() as VertexId).collect();
            &all
        }
    };
    let scope = RunScope::open(config, |threads, grain| TraceEvent::RunStart {
        kernel: "bc".to_string(),
        variant: variant.as_str().to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edge_slots(),
        threads,
        grain,
        delta: None,
        root: match source_list {
            [only] => Some(*only),
            _ => None,
        },
        footprint: Some(run_footprint(graph.footprint())),
    });
    let n = graph.num_vertices();
    let mut centrality = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut state = TraversalState::with_sigma(n);
    let (exec, grain, token, sink) = (scope.exec(), scope.grain, scope.cancel, scope.sink());
    let level_loop = LevelLoop::new(
        graph,
        exec,
        grain,
        scope.tally,
        DirectionConfig::always_top_down(),
    );
    let mut sources_done = 0usize;
    // Forward levels run so far: where the next source's phases start.
    let mut total_phases = 0usize;
    let mut outcome = RunOutcome::Completed;
    // Shared across sources: the advisor samples the first source's
    // levels, and every later source runs the chosen static discipline.
    let auto = AutoSwitch::new(BranchBasedLevel::<true>, BranchAvoidingLevel::<true>);
    for &source in source_list {
        if (source as usize) >= n {
            sources_done += 1;
            continue;
        }
        state.reset();
        let level_loop = level_loop.starting_at(total_phases);
        let (run, forward_outcome) = match variant {
            BcVariant::BranchAvoiding => {
                level_loop.run(&state, source, &BranchAvoidingLevel::<true>, sink, token)
            }
            BcVariant::BranchBased => {
                level_loop.run(&state, source, &BranchBasedLevel::<true>, sink, token)
            }
            BcVariant::Auto => level_loop.run(&state, source, &auto, sink, token),
        };
        if !forward_outcome.is_completed() {
            outcome = forward_outcome;
            break;
        }
        total_phases += run.directions.len();
        accumulate_dependencies(
            graph,
            exec,
            grain,
            &run,
            &state,
            &mut delta,
            &mut centrality,
        );
        sources_done += 1;
    }
    scope.close(&outcome);
    if sources.is_none() {
        // Each undirected pair was counted twice (once per endpoint).
        for c in &mut centrality {
            *c /= 2.0;
        }
    }
    let result = ParBcRun {
        scores: centrality,
        sources_done,
        threads: scope.threads(),
    };
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use bga_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, grid_2d, path_graph, star_graph, MeshStencil,
    };
    use bga_graph::{CsrGraph, GraphBuilder};
    use bga_kernels::bc::{betweenness_centrality, betweenness_centrality_sources};

    /// 1e-9 tolerance, scaled by magnitude: sequential and parallel runs
    /// sum the same dependencies in different orders, so agreement is up
    /// to floating-point reassociation.
    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let tolerance = 1e-9 * x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() < tolerance, "vertex {i}: {x} vs {y}");
        }
    }

    fn shapes() -> Vec<CsrGraph> {
        vec![
            GraphBuilder::undirected(0).build(),
            GraphBuilder::undirected(1).build(),
            GraphBuilder::undirected(5)
                .add_edges([(0, 1), (2, 3)])
                .build(), // disconnected
            path_graph(9),
            star_graph(20),
            cycle_graph(15),
            complete_graph(8),
            grid_2d(7, 6, MeshStencil::VonNeumann),
            barabasi_albert(150, 2, 4),
        ]
    }

    fn full_scores<G: AdjacencySource>(g: &G, threads: usize, variant: Variant) -> Vec<f64> {
        run_request(g, variant, None, &RunConfig::new().threads(threads))
            .0
            .scores
    }

    fn sampled_scores<G: AdjacencySource>(
        g: &G,
        sources: &[VertexId],
        threads: usize,
        variant: Variant,
    ) -> Vec<f64> {
        run_request(
            g,
            variant,
            Some(sources),
            &RunConfig::new().threads(threads),
        )
        .0
        .scores
    }

    #[test]
    fn full_scores_match_sequential_brandes_at_every_thread_count() {
        for g in &shapes() {
            let expected = betweenness_centrality(g);
            for threads in [1, 2, 8] {
                for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                    let scores = full_scores(g, threads, variant);
                    assert_close(&scores, &expected);
                }
            }
        }
    }

    #[test]
    fn scores_are_bit_identical_across_threads_and_variants() {
        let g = barabasi_albert(300, 3, 7);
        let reference = full_scores(&g, 1, Variant::BranchAvoiding);
        for threads in [2, 3, 8] {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let scores = full_scores(&g, threads, variant);
                for (a, b) in reference.iter().zip(scores.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, {variant:?}");
                }
            }
        }
    }

    #[test]
    fn sampled_sources_match_the_sequential_partial_accumulation() {
        let g = barabasi_albert(400, 2, 11);
        let sources = [0u32, 7, 123, 399];
        let expected = betweenness_centrality_sources(&g, &sources);
        for threads in [1, 2, 8] {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let scores = sampled_scores(&g, &sources, threads, variant);
                assert_close(&scores, &expected);
            }
        }
        // Out-of-range sources are ignored, not a panic.
        let none = sampled_scores(&g, &[9_999], 2, Variant::BranchAvoiding);
        assert!(none.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn executors_and_grains_agree() {
        use crate::pool::{ScopedExecutor, WorkerPool};
        let g = grid_2d(9, 8, MeshStencil::Moore);
        let expected = betweenness_centrality(&g);
        let pool = WorkerPool::new(4);
        let scoped = ScopedExecutor::new(4);
        // Grain 1 forces every level and back-sweep slice to fan out.
        for grain in [1, 4096] {
            let on_pool = RunConfig::new().on(&pool).grain(grain);
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                assert_close(
                    &run_request(&g, variant, None, &on_pool).0.scores,
                    &expected,
                );
            }
            let on_scoped = RunConfig::new().on(&scoped).grain(grain);
            let run = run_request(&g, Variant::BranchAvoiding, None, &on_scoped).0;
            assert_close(&run.scores, &expected);
        }
    }

    #[test]
    fn star_centre_carries_all_paths() {
        let g = star_graph(6);
        let scores = full_scores(&g, 4, Variant::BranchAvoiding);
        // Centre lies on every one of the C(5,2) = 10 leaf pairs' paths.
        assert!((scores[0] - 10.0).abs() < 1e-9);
        for score in &scores[1..6] {
            assert!(score.abs() < 1e-9);
        }
    }

    #[test]
    fn interrupted_accumulations_are_exact_over_the_source_prefix() {
        use crate::cancel::InterruptReason;
        // A global phase budget stops the run once that many forward
        // levels have completed across all sources. Both budgets land
        // mid-source: the cut source contributes nothing, so the surviving
        // scores must be exactly the accumulation over the completed
        // prefix.
        let cases = [
            (
                barabasi_albert(200, 2, 9),
                (0..40).collect::<Vec<VertexId>>(),
                12,
            ),
            (grid_2d(40, 3, MeshStencil::VonNeumann), vec![0, 1, 2], 60),
        ];
        for (g, sources, budget) in &cases {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let token = CancelToken::new().with_phase_budget(*budget);
                let (run, outcome) = run_request(
                    g,
                    variant,
                    Some(sources),
                    &RunConfig::new().threads(2).cancel(&token),
                );
                assert_eq!(
                    outcome,
                    RunOutcome::Interrupted {
                        reason: InterruptReason::PhaseBudgetExhausted,
                        phases_done: *budget,
                    },
                    "{variant:?}, budget {budget}"
                );
                let done = run.sources_done;
                assert!(done > 0 && done < sources.len(), "done = {done}");
                let expected = betweenness_centrality_sources(g, &sources[..done]);
                assert_close(&run.scores, &expected);
            }
        }
    }

    #[test]
    fn uncancelled_bc_tokens_complete_and_match() {
        let g = grid_2d(7, 6, MeshStencil::VonNeumann);
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let token = CancelToken::new();
        let (run, outcome) = run_request(
            &g,
            Variant::BranchBased,
            Some(&sources),
            &RunConfig::new().threads(2).cancel(&token),
        );
        assert!(outcome.is_completed());
        assert_eq!(run.sources_done, sources.len());
        assert_close(&run.scores, &betweenness_centrality_sources(&g, &sources));
    }

    #[test]
    fn disconnected_components_accumulate_independently() {
        // Two paths of three: the middles carry exactly their component's
        // single straddling pair — the per-component normalization.
        let g = GraphBuilder::undirected(6)
            .add_edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .build();
        let scores = full_scores(&g, 2, Variant::BranchAvoiding);
        assert_close(&scores, &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn multigraphs_count_parallel_edges_and_ignore_self_loops() {
        // Each parallel edge is one more shortest path, counted from the
        // parent's side by a push and from the child's side by the pull;
        // a self-loop never joins two levels.
        let g = GraphBuilder::undirected(6)
            .keep_duplicates(true)
            .keep_self_loops(true)
            .add_edges([(0, 1), (0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
            .add_edges([(2, 5), (2, 5), (4, 5), (2, 2), (3, 3)])
            .build();
        let sources = [0, 5, 2];
        let expected = betweenness_centrality_sources(&g, &sources);
        for threads in [1, 2, 8] {
            let config = RunConfig::new().threads(threads).grain(1);
            for variant in [Variant::BranchBased, Variant::BranchAvoiding, Variant::Auto] {
                let run = run_request(&g, variant, Some(&sources), &config).0;
                assert_close(&run.scores, &expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "undirected graph")]
    fn directed_graphs_are_refused() {
        // σ(1) would be pulled from 1's out-neighbours, which miss 0.
        let g = GraphBuilder::directed(3)
            .add_edges([(0, 1), (1, 2)])
            .build();
        run_request(&g, Variant::BranchAvoiding, None, &RunConfig::new());
    }

    #[test]
    fn auto_variant_matches_the_static_scores() {
        let g = barabasi_albert(300, 3, 7);
        // Both static disciplines are bit-identical, so the advisor's
        // choice cannot show: auto must reproduce the exact same bits.
        let reference = full_scores(&g, 1, Variant::BranchAvoiding);
        for threads in [1, 2, 8] {
            let scores = run_request(
                &g,
                Variant::Auto,
                None,
                &RunConfig::new().threads(threads).grain(1),
            )
            .0
            .scores;
            for (a, b) in reference.iter().zip(scores.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
        // Sampled sources go through the monitored driver when cancellable.
        let sources = [0u32, 7, 123, 299];
        let token = CancelToken::new();
        let (run, outcome) = run_request(
            &g,
            Variant::Auto,
            Some(&sources),
            &RunConfig::new().threads(2).grain(1).cancel(&token),
        );
        assert!(outcome.is_completed());
        assert_eq!(run.sources_done, sources.len());
        assert_close(&run.scores, &betweenness_centrality_sources(&g, &sources));
    }
}
