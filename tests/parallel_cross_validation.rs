//! Integration tests for the `bga-parallel` subsystem: parallel SV labels,
//! parallel BFS distances, parallel Brandes betweenness scores, parallel
//! k-core numbers and parallel SSSP distances (unit-weight on the level
//! loop, weighted delta-stepping on the bucket loop, the latter under the
//! `wsssp_` prefix the CI grain-1 filter selects) must be identical to the
//! sequential kernels and the reference implementations — on the Table-2
//! suite stand-ins and on randomly relabelled generator graphs —
//! deterministically, for thread counts 1, 2 and 8.

use branch_avoiding_graphs::graph::generators::{barabasi_albert, erdos_renyi_gnm};
use branch_avoiding_graphs::graph::properties::bellman_ford_reference;
use branch_avoiding_graphs::graph::properties::{
    bfs_distances_reference, connected_components_union_find,
};
use branch_avoiding_graphs::graph::suite::{benchmark_suite, SuiteScale};
use branch_avoiding_graphs::graph::transform::relabel_random;
use branch_avoiding_graphs::graph::transform::relabel_random_weighted;
use branch_avoiding_graphs::graph::weighted::{uniform_weights, unit_weights, WeightedCsrGraph};
use branch_avoiding_graphs::graph::CsrGraph;
use branch_avoiding_graphs::kernels::bc::{betweenness_centrality, betweenness_centrality_sources};
use branch_avoiding_graphs::kernels::bfs::direction_optimizing::{
    bfs_direction_optimizing, DirectionConfig,
};
use branch_avoiding_graphs::kernels::bfs::BfsResult;
use branch_avoiding_graphs::kernels::bfs::{bfs_branch_avoiding, bfs_branch_based};
use branch_avoiding_graphs::kernels::cc::ComponentLabels;
use branch_avoiding_graphs::kernels::cc::{sv_branch_avoiding, sv_branch_based};
use branch_avoiding_graphs::kernels::kcore::kcore_peeling;
use branch_avoiding_graphs::kernels::kcore::CoreDecomposition;
use branch_avoiding_graphs::kernels::sssp::SsspResult;
use branch_avoiding_graphs::kernels::sssp::{
    sssp_delta_stepping, sssp_dijkstra, sssp_unit_delta_stepping,
    sssp_unit_delta_stepping_with_delta,
};
use branch_avoiding_graphs::parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore, run_sssp_unit, run_sssp_weighted,
};
use branch_avoiding_graphs::parallel::{BfsStrategy, ParDirBfsRun, RunConfig, Variant};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn config(threads: usize) -> RunConfig<'static> {
    RunConfig::new().threads(threads)
}

fn instrumented(threads: usize) -> RunConfig<'static> {
    RunConfig::new().threads(threads).instrumented(true)
}

fn par_sv(g: &CsrGraph, threads: usize, variant: Variant) -> ComponentLabels {
    run_components(g, variant, &config(threads)).0.labels
}

fn par_bfs(g: &CsrGraph, root: u32, threads: usize, variant: Variant) -> BfsResult {
    run_bfs(g, root, BfsStrategy::Plain(variant), &config(threads))
        .0
        .result
}

fn par_dir_bfs(g: &CsrGraph, root: u32, threads: usize, config_: DirectionConfig) -> ParDirBfsRun {
    run_bfs(
        g,
        root,
        BfsStrategy::DirectionOptimizing(config_),
        &config(threads),
    )
    .0
}

fn par_kcore(g: &CsrGraph, threads: usize, variant: Variant) -> CoreDecomposition {
    run_kcore(g, variant, &config(threads)).0.cores
}

fn par_sssp(g: &CsrGraph, source: u32, threads: usize, variant: Variant) -> SsspResult {
    run_sssp_unit(g, source, variant, &config(threads)).0.result
}

fn par_wsssp(
    g: &WeightedCsrGraph,
    source: u32,
    delta: u32,
    threads: usize,
    variant: Variant,
) -> SsspResult {
    run_sssp_weighted(g, source, delta, variant, &config(threads))
        .0
        .result
}

fn par_bc(g: &CsrGraph, sources: Option<&[u32]>, threads: usize, variant: Variant) -> Vec<f64> {
    run_betweenness(g, variant, sources, &config(threads))
        .0
        .scores
}

fn assert_parallel_sv_matches_sequential(graph: &CsrGraph) {
    let expected = sv_branch_based(graph);
    assert_eq!(
        expected.as_slice(),
        sv_branch_avoiding(graph).as_slice(),
        "sequential variants disagree — broken precondition"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(
            par_sv(graph, threads, Variant::BranchBased).as_slice(),
            expected.as_slice(),
            "parallel branch-based SV diverged at {threads} threads"
        );
        assert_eq!(
            par_sv(graph, threads, Variant::BranchAvoiding).as_slice(),
            expected.as_slice(),
            "parallel branch-avoiding SV diverged at {threads} threads"
        );
    }
}

fn assert_parallel_bfs_matches_sequential(graph: &CsrGraph, root: u32) {
    let expected = bfs_distances_reference(graph, root);
    assert_eq!(bfs_branch_based(graph, root).distances(), &expected[..]);
    assert_eq!(bfs_branch_avoiding(graph, root).distances(), &expected[..]);
    let seq_diropt = bfs_direction_optimizing(graph, root, DirectionConfig::default());
    assert_eq!(seq_diropt.distances(), &expected[..]);
    for threads in THREAD_COUNTS {
        assert_eq!(
            par_bfs(graph, root, threads, Variant::BranchBased).distances(),
            &expected[..],
            "parallel branch-based BFS diverged at {threads} threads"
        );
        assert_eq!(
            par_bfs(graph, root, threads, Variant::BranchAvoiding).distances(),
            &expected[..],
            "parallel branch-avoiding BFS diverged at {threads} threads"
        );
        assert_eq!(
            par_dir_bfs(graph, root, threads, DirectionConfig::default())
                .result
                .distances(),
            seq_diropt.distances(),
            "parallel direction-optimizing BFS diverged at {threads} threads"
        );
    }
}

#[test]
fn suite_graphs_cross_validate_at_every_thread_count() {
    for sg in benchmark_suite(SuiteScale::Small, 42) {
        assert_parallel_sv_matches_sequential(&sg.graph);
        assert_parallel_bfs_matches_sequential(&sg.graph, 0);
        // Partition sanity against the union-find reference.
        let expected = connected_components_union_find(&sg.graph);
        assert_eq!(
            par_sv(&sg.graph, 8, Variant::BranchAvoiding).canonical(),
            expected
        );
    }
}

/// 1e-9 tolerance, scaled by magnitude: sequential (push-style) and
/// parallel (pull-style) back-sweeps sum the same dependencies in
/// different orders, so agreement is up to floating-point reassociation.
fn assert_scores_close(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let tolerance = 1e-9 * x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() < tolerance,
            "{context}: vertex {i}: {x} vs {y}"
        );
    }
}

#[test]
fn bc_suite_graphs_cross_validate_at_every_thread_count() {
    // Full all-sources Brandes on the suite stand-ins is quadratic in the
    // graph size, so the suite check accumulates a fixed source sample and
    // compares against the sequential partial accumulation; full-run
    // equivalence is covered on generator graphs below.
    let sources = [0u32, 3, 101];
    for sg in benchmark_suite(SuiteScale::Small, 42) {
        let expected = betweenness_centrality_sources(&sg.graph, &sources);
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let scores = par_bc(&sg.graph, Some(&sources), threads, variant);
                assert_scores_close(
                    &scores,
                    &expected,
                    &format!("{} at {threads} threads, {variant:?}", sg.name()),
                );
            }
        }
    }
}

#[test]
fn bc_full_scores_match_sequential_brandes() {
    let graphs = [
        relabel_random(&barabasi_albert(250, 2, 5), 3),
        relabel_random(&erdos_renyi_gnm(180, 420, 17), 8), // has isolated vertices
    ];
    for g in &graphs {
        let expected = betweenness_centrality(g);
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let scores = par_bc(g, None, threads, variant);
                assert_scores_close(
                    &scores,
                    &expected,
                    &format!("{threads} threads, {variant:?}"),
                );
            }
        }
    }
}

#[test]
fn bc_scores_are_bit_deterministic_across_threads() {
    // The pull-style back-sweep computes every dependency from a fixed
    // neighbour order, so scores are bit-identical across thread counts,
    // executors and repeats — not merely within tolerance.
    let g = relabel_random(&barabasi_albert(500, 3, 29), 12);
    let sources: Vec<u32> = (0..16).collect();
    let reference = par_bc(&g, Some(&sources), 1, Variant::BranchAvoiding);
    for threads in THREAD_COUNTS {
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let scores = par_bc(&g, Some(&sources), threads, variant);
            for (a, b) in reference.iter().zip(scores.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, {variant:?}");
            }
        }
    }
}

fn assert_parallel_kcore_matches_sequential(graph: &CsrGraph) {
    let expected = kcore_peeling(graph);
    for threads in THREAD_COUNTS {
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            assert_eq!(
                par_kcore(graph, threads, variant).as_slice(),
                expected.as_slice(),
                "parallel {variant:?} k-core diverged at {threads} threads"
            );
        }
    }
}

fn assert_parallel_sssp_matches_sequential(graph: &CsrGraph, source: u32) {
    let expected = sssp_unit_delta_stepping(graph, source);
    assert_eq!(
        expected.distances(),
        &bfs_distances_reference(graph, source)[..],
        "sequential delta-stepping diverged from the BFS reference"
    );
    for threads in THREAD_COUNTS {
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let par = par_sssp(graph, source, threads, variant);
            assert_eq!(
                par.distances(),
                expected.distances(),
                "parallel {variant:?} SSSP diverged at {threads} threads"
            );
            assert_eq!(
                par.phases(),
                expected.phases(),
                "phase count diverged at {threads} threads ({variant:?})"
            );
        }
    }
}

#[test]
fn kcore_suite_graphs_cross_validate_at_every_thread_count() {
    for sg in benchmark_suite(SuiteScale::Small, 42) {
        assert_parallel_kcore_matches_sequential(&sg.graph);
    }
}

#[test]
fn kcore_engine_edge_cases() {
    use branch_avoiding_graphs::graph::GraphBuilder;
    // Empty graph, single vertex, isolated vertices only, and several
    // disconnected components of different degeneracies.
    let shapes = vec![
        GraphBuilder::undirected(0).build(),
        GraphBuilder::undirected(1).build(),
        GraphBuilder::undirected(6).build(),
        GraphBuilder::undirected(10)
            .add_edges([
                (0, 1),
                (1, 2),
                (2, 0), // triangle: coreness 2
                (3, 4), // edge: coreness 1
                (5, 6),
                (6, 7),
                (7, 5),
                (5, 8),
            ])
            .build(),
    ];
    for g in &shapes {
        assert_parallel_kcore_matches_sequential(g);
    }
    // Spot-check the disconnected decomposition directly.
    let cores = par_kcore(&shapes[3], 2, Variant::BranchAvoiding);
    assert_eq!(cores.as_slice(), &[2, 2, 2, 1, 1, 2, 2, 2, 1, 0]);
}

#[test]
fn kcore_runs_are_deterministic_across_repeats() {
    let g = relabel_random(&barabasi_albert(3_000, 3, 37), 6);
    for threads in THREAD_COUNTS {
        let first = par_kcore(&g, threads, Variant::BranchAvoiding);
        for _ in 0..3 {
            assert_eq!(
                par_kcore(&g, threads, Variant::BranchAvoiding).as_slice(),
                first.as_slice()
            );
        }
    }
}

#[test]
fn sssp_suite_graphs_cross_validate_at_every_thread_count() {
    for sg in benchmark_suite(SuiteScale::Small, 42) {
        assert_parallel_sssp_matches_sequential(&sg.graph, 0);
    }
}

#[test]
fn sssp_engine_edge_cases() {
    use branch_avoiding_graphs::graph::GraphBuilder;
    let shapes = vec![
        GraphBuilder::undirected(1).build(),
        GraphBuilder::undirected(5).build(), // all isolated
        GraphBuilder::undirected(8)
            .add_edges([(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)])
            .build(), // disconnected components
    ];
    for g in &shapes {
        for source in 0..g.num_vertices() as u32 {
            assert_parallel_sssp_matches_sequential(g, source);
        }
    }
    // Out-of-range sources settle nothing at every thread count, like the
    // sequential reference and the BFS kernels.
    let g = &shapes[2];
    assert_eq!(sssp_unit_delta_stepping(g, 99).reached_count(), 0);
    for threads in THREAD_COUNTS {
        let run = par_sssp(g, 99, threads, Variant::BranchAvoiding);
        assert_eq!(run.reached_count(), 0);
        assert_eq!(run.phases(), 0);
    }
    // Empty graph: nothing to settle, no phases.
    let empty = GraphBuilder::undirected(0).build();
    let run = par_sssp(&empty, 0, 2, Variant::BranchAvoiding);
    assert_eq!(run.distances().len(), 0);
    assert_eq!(run.phases(), 0);
}

/// Δ widths the weighted cross-validation sweeps: degenerate (1), a real
/// light/heavy split (4) and all-light (32, the maximum uniform weight).
const WSSSP_DELTAS: [u32; 3] = [1, 4, 32];

fn assert_parallel_wsssp_matches_dijkstra(graph: &WeightedCsrGraph, source: u32) {
    let expected = sssp_dijkstra(graph, source);
    assert_eq!(
        expected.distances(),
        &bellman_ford_reference(graph, source)[..],
        "Dijkstra diverged from the Bellman-Ford ground truth"
    );
    for delta in WSSSP_DELTAS {
        assert_eq!(
            sssp_delta_stepping(graph, source, delta).distances(),
            expected.distances(),
            "sequential weighted delta-stepping diverged at delta {delta}"
        );
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                let par = par_wsssp(graph, source, delta, threads, variant);
                assert_eq!(
                    par.distances(),
                    expected.distances(),
                    "parallel {variant:?} weighted SSSP diverged at {threads} threads, \
                     delta {delta}"
                );
            }
        }
    }
}

#[test]
fn wsssp_suite_graphs_cross_validate_at_every_thread_count() {
    for sg in benchmark_suite(SuiteScale::Small, 42) {
        // The `bga sssp --weights uniform` assignment: 1..=32, seed 42.
        let wg = uniform_weights(&sg.graph, 32, 42);
        assert_parallel_wsssp_matches_dijkstra(&wg, 0);
    }
}

#[test]
fn wsssp_engine_edge_cases() {
    use branch_avoiding_graphs::graph::GraphBuilder;
    let shapes = vec![
        unit_weights(&GraphBuilder::undirected(0).build()), // empty graph
        unit_weights(&GraphBuilder::undirected(1).build()), // single vertex
        unit_weights(&GraphBuilder::undirected(5).build()), // all isolated
        // Disconnected weighted components.
        uniform_weights(
            &GraphBuilder::undirected(8)
                .add_edges([(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)])
                .build(),
            16,
            3,
        ),
    ];
    for g in &shapes {
        for source in 0..g.num_vertices() as u32 {
            assert_parallel_wsssp_matches_dijkstra(g, source);
        }
    }
    // Out-of-range sources settle nothing at every thread count.
    let g = &shapes[3];
    assert_eq!(sssp_dijkstra(g, 99).reached_count(), 0);
    for threads in THREAD_COUNTS {
        let run = par_wsssp(g, 99, 4, threads, Variant::BranchAvoiding);
        assert_eq!(run.reached_count(), 0);
        assert_eq!(run.phases(), 0);
    }
    // Zero weights are forbidden at every construction seam.
    assert!(WeightedCsrGraph::from_parts(
        GraphBuilder::undirected(2).add_edge(0, 1).build(),
        vec![0, 0]
    )
    .is_err());
    assert!(
        branch_avoiding_graphs::graph::io::read_weighted_edge_list_str("0 1 0\n").is_err(),
        "weighted edge-list reader must reject zero weights"
    );
    assert!(
        branch_avoiding_graphs::graph::io::read_weighted_metis_str("2 1 1\n2 0\n1 0\n").is_err(),
        "weighted METIS reader must reject zero weights"
    );
}

#[test]
fn wsssp_phase_structure_is_deterministic_across_threads_and_repeats() {
    let wg = relabel_random_weighted(&uniform_weights(&barabasi_albert(2_000, 3, 13), 24, 5), 8);
    for delta in WSSSP_DELTAS {
        let reference =
            run_sssp_weighted(&wg, 0, delta, Variant::BranchAvoiding, &instrumented(1)).0;
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                for _ in 0..2 {
                    let run = run_sssp_weighted(&wg, 0, delta, variant, &instrumented(threads)).0;
                    assert_eq!(
                        run.result.distances(),
                        reference.result.distances(),
                        "{variant:?} at {threads} threads, delta {delta}"
                    );
                    assert_eq!(run.result.phases(), reference.result.phases());
                    assert_eq!(run.buckets_settled, reference.buckets_settled);
                    assert_eq!(run.heavy_phases, reference.heavy_phases);
                }
            }
        }
    }
}

#[test]
fn parallel_runs_are_deterministic_across_repeats() {
    let g = relabel_random(&barabasi_albert(3_000, 3, 11), 4);
    for threads in THREAD_COUNTS {
        let first_sv = par_sv(&g, threads, Variant::BranchAvoiding);
        let first_bfs = par_bfs(&g, 0, threads, Variant::BranchAvoiding);
        for _ in 0..3 {
            assert_eq!(
                par_sv(&g, threads, Variant::BranchAvoiding).as_slice(),
                first_sv.as_slice()
            );
            assert_eq!(
                par_bfs(&g, 0, threads, Variant::BranchAvoiding).distances(),
                first_bfs.distances()
            );
        }
    }
}

#[test]
fn direction_optimizing_strategies_cross_validate() {
    // Every pinned strategy and the auto heuristic produce reference
    // distances at every thread count, and the auto heuristic picks the
    // same per-level directions as the sequential kernel (frontier sizes
    // are deterministic, so switching is too).
    let g = relabel_random(&barabasi_albert(2_500, 4, 31), 9);
    let expected = bfs_distances_reference(&g, 0);
    for config in [
        DirectionConfig::default(),
        DirectionConfig::always_top_down(),
        DirectionConfig::always_bottom_up(),
    ] {
        let seq = bfs_direction_optimizing(&g, 0, config);
        assert_eq!(seq.distances(), &expected[..]);
        for threads in THREAD_COUNTS {
            let par = par_dir_bfs(&g, 0, threads, config);
            assert_eq!(
                par.result.distances(),
                &expected[..],
                "diverged at {threads} threads with {config:?}"
            );
            assert_eq!(par.result.level_count(), seq.level_count());
        }
    }
    // The default thresholds actually exercise both directions on this
    // power-law graph — otherwise the test above proves less than it says.
    let run = par_dir_bfs(&g, 0, 2, DirectionConfig::default());
    assert!(run.bottom_up_levels() > 0);
    assert!(run.bottom_up_levels() < run.directions.len());
}

#[test]
fn instrumented_parallel_counters_merge_consistently() {
    let g = relabel_random(&barabasi_albert(2_000, 3, 9), 1);
    for threads in THREAD_COUNTS {
        let sv = run_components(&g, Variant::BranchAvoiding, &instrumented(threads)).0;
        // Every sweep touches every edge slot exactly once, regardless of
        // how the work was chunked across threads.
        for step in &sv.counters.steps {
            assert_eq!(step.edges_traversed as usize, g.num_edge_slots());
        }
        assert_eq!(sv.labels.canonical(), connected_components_union_find(&g));

        let sv_based = run_components(&g, Variant::BranchBased, &instrumented(threads)).0;
        assert_eq!(sv_based.labels.as_slice(), sv.labels.as_slice());
        // The concurrent contrast the paper predicts: branch-based executes
        // strictly more branches, branch-avoiding strictly more stores.
        let based_totals = sv_based.counters.total();
        let avoiding_totals = sv.counters.total();
        assert!(based_totals.branches > avoiding_totals.branches);
        assert!(avoiding_totals.stores > based_totals.stores);

        let bfs = run_bfs(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchBased),
            &instrumented(threads),
        )
        .0;
        let per_level_vertices: u64 = bfs
            .counters
            .steps
            .iter()
            .map(|s| s.vertices_processed)
            .sum();
        assert_eq!(per_level_vertices as usize, bfs.result.reached_count());
        assert_eq!(bfs.counters.num_steps(), bfs.result.level_count());

        let bfs_avoiding = run_bfs(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchAvoiding),
            &instrumented(threads),
        )
        .0;
        assert_eq!(bfs_avoiding.result.distances(), bfs.result.distances());
    }
}

/// `Variant::Auto` is runtime *selection*, not a third algorithm: every
/// kernel samples a branch-based prefix, switches (or stays) at a phase
/// boundary, and must land on exactly the results both static disciplines
/// produce. Grain 1 maximises interleavings; threads 1, 2 and 8 cover the
/// sequential-degenerate, contended and oversubscribed regimes.
#[test]
fn auto_variant_is_bit_identical_to_the_static_variants() {
    let g = relabel_random(&barabasi_albert(600, 3, 7), 5);
    let wg = uniform_weights(&g, 24, 11);
    let sources: Vec<u32> = (0..6).collect();
    let grain1 = |threads: usize| config(threads).grain(1);
    for threads in THREAD_COUNTS {
        let auto_sv = run_components(&g, Variant::Auto, &grain1(threads)).0.labels;
        let auto_bfs = run_bfs(&g, 0, BfsStrategy::Plain(Variant::Auto), &grain1(threads))
            .0
            .result;
        let auto_kcore = run_kcore(&g, Variant::Auto, &grain1(threads)).0.cores;
        let auto_sssp = run_sssp_unit(&g, 0, Variant::Auto, &grain1(threads))
            .0
            .result;
        let auto_wsssp = run_sssp_weighted(&wg, 0, 4, Variant::Auto, &grain1(threads))
            .0
            .result;
        let auto_bc = run_betweenness(&g, Variant::Auto, Some(&sources), &grain1(threads))
            .0
            .scores;
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let context = format!("auto vs {variant:?} at {threads} threads");
            assert_eq!(
                auto_sv.as_slice(),
                run_components(&g, variant, &grain1(threads))
                    .0
                    .labels
                    .as_slice(),
                "cc: {context}"
            );
            assert_eq!(
                auto_bfs.distances(),
                run_bfs(&g, 0, BfsStrategy::Plain(variant), &grain1(threads))
                    .0
                    .result
                    .distances(),
                "bfs: {context}"
            );
            assert_eq!(
                auto_kcore.as_slice(),
                run_kcore(&g, variant, &grain1(threads)).0.cores.as_slice(),
                "kcore: {context}"
            );
            assert_eq!(
                auto_sssp.distances(),
                run_sssp_unit(&g, 0, variant, &grain1(threads))
                    .0
                    .result
                    .distances(),
                "sssp: {context}"
            );
            assert_eq!(
                auto_wsssp.distances(),
                run_sssp_weighted(&wg, 0, 4, variant, &grain1(threads))
                    .0
                    .result
                    .distances(),
                "wsssp: {context}"
            );
            // The pull-style back-sweep is bit-deterministic, so auto bc
            // scores match to the bit, not merely within tolerance.
            let static_bc = run_betweenness(&g, variant, Some(&sources), &grain1(threads))
                .0
                .scores;
            for (i, (a, b)) in auto_bc.iter().zip(static_bc.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "bc vertex {i}: {context}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The advisor's crossover rule is pure integer arithmetic: the same
    /// tally stream always yields the same single decision, emitted on
    /// exactly the configured phase, and the choice agrees with the
    /// closed-form rule applied to the accumulated prefix.
    #[test]
    fn advisor_decisions_are_a_pure_function_of_the_tally_stream(
        stream in proptest::collection::vec((0u64..1u64 << 40, 0u64..1u64 << 40), 1..12),
        sample_phases in 1usize..6,
    ) {
        use branch_avoiding_graphs::perfmodel::advisor::{
            branch_avoiding_wins, predicted_mispredictions, AdvisorConfig, ChosenVariant,
            VariantAdvisor,
        };
        let config = AdvisorConfig { sample_phases, ..AdvisorConfig::default() };
        let feed = || {
            let mut advisor = VariantAdvisor::new(config);
            let mut decisions = Vec::new();
            for (index, (edges, updates)) in stream.iter().enumerate() {
                if let Some(decision) = advisor.record_phase(*edges, *updates) {
                    decisions.push((index, decision));
                }
            }
            decisions
        };
        let first = feed();
        prop_assert_eq!(&first, &feed(), "same stream, different decisions");
        if stream.len() >= sample_phases {
            prop_assert_eq!(first.len(), 1, "decision must fire exactly once");
            let (index, decision) = first[0];
            prop_assert_eq!(index, sample_phases - 1, "decision fired on the wrong phase");
            let edges: u64 = stream[..sample_phases].iter().map(|(e, _)| e).sum();
            let updates: u64 = stream[..sample_phases].iter().map(|(_, u)| u).sum();
            prop_assert_eq!(decision.edges, edges);
            prop_assert_eq!(decision.updates, updates);
            prop_assert_eq!(
                decision.mispredictions,
                predicted_mispredictions(edges, updates)
            );
            let expected = if branch_avoiding_wins(
                edges,
                updates,
                config.miss_cost,
                config.atomic_cost,
            ) {
                ChosenVariant::BranchAvoiding
            } else {
                ChosenVariant::BranchBased
            };
            prop_assert_eq!(decision.choice, expected);
        } else {
            prop_assert!(first.is_empty(), "decided before the sampling window filled");
        }
    }

    /// Random sparse graphs with randomly permuted labels: parallel SV and
    /// BFS agree with the sequential kernels at 1, 2 and 8 threads.
    #[test]
    fn random_relabelled_graphs_cross_validate(
        n in 2usize..150,
        edge_factor in 0usize..5,
        seed in 0u64..1_000,
        relabel_seed in 0u64..1_000,
        root_pick in 0usize..1_000,
    ) {
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = relabel_random(&erdos_renyi_gnm(n, m, seed), relabel_seed);
        assert_parallel_sv_matches_sequential(&g);
        assert_parallel_bfs_matches_sequential(&g, (root_pick % n) as u32);
    }

    /// Engine seam check: a `LevelLoop` driven directly with the public
    /// branch-avoiding kernel — grain 1, every direction policy — equals
    /// the sequential BFS on randomly relabelled generator graphs, and its
    /// recorded level bounds tile the discovery order level by level.
    #[test]
    fn engine_driven_bfs_equals_sequential_bfs(
        n in 2usize..120,
        edge_factor in 0usize..5,
        seed in 0u64..500,
        relabel_seed in 0u64..500,
    ) {
        use branch_avoiding_graphs::obs::NoopSink;
        use branch_avoiding_graphs::parallel::bfs::BranchAvoidingLevel;
        use branch_avoiding_graphs::parallel::{LevelLoop, TraversalState, WorkerPool};
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = relabel_random(&erdos_renyi_gnm(n, m, seed), relabel_seed);
        let expected = bfs_distances_reference(&g, 0);
        let pool = WorkerPool::new(4);
        for config in [
            DirectionConfig::default(),
            DirectionConfig::always_top_down(),
            DirectionConfig::always_bottom_up(),
        ] {
            let state = TraversalState::new(g.num_vertices());
            let (run, _) = LevelLoop::new(&g, &pool, 1, false, config).run(
                &state,
                0,
                &BranchAvoidingLevel::<false>,
                &NoopSink,
                None,
            );
            let distances = state.into_distances();
            prop_assert_eq!(&distances[..], &expected[..]);
            let mut covered = 0usize;
            for (level, bound) in run.level_bounds.iter().enumerate() {
                prop_assert_eq!(bound.start, covered);
                covered = bound.end;
                for &v in &run.order[bound.clone()] {
                    prop_assert_eq!(distances[v as usize], level as u32);
                }
            }
            prop_assert_eq!(covered, run.order.len());
            // The boundaries the engine records live are exactly the ones
            // `BfsResult::level_bounds` recovers from the finished result.
            let result = branch_avoiding_graphs::kernels::bfs::BfsResult::new(
                distances,
                run.order.clone(),
            );
            prop_assert_eq!(result.level_bounds(), run.level_bounds);
        }
    }

    /// Random sparse graphs with randomly permuted labels: parallel k-core
    /// numbers (both peel disciplines) agree with sequential bucket
    /// peeling at 1, 2 and 8 threads.
    #[test]
    fn kcore_random_relabelled_graphs_cross_validate(
        n in 1usize..120,
        edge_factor in 0usize..6,
        seed in 0u64..1_000,
        relabel_seed in 0u64..1_000,
    ) {
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = relabel_random(&erdos_renyi_gnm(n, m, seed), relabel_seed);
        let expected = kcore_peeling(&g);
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                prop_assert_eq!(
                    par_kcore(&g, threads, variant).as_slice(),
                    expected.as_slice(),
                    "{:?} at {} threads", variant, threads
                );
            }
        }
    }

    /// Random sparse graphs with randomly permuted labels: sequential
    /// delta-stepping settles reference distances for every bucket width,
    /// and the parallel client agrees at 1, 2 and 8 threads in both
    /// relaxation disciplines.
    #[test]
    fn sssp_random_relabelled_graphs_cross_validate(
        n in 1usize..120,
        edge_factor in 0usize..6,
        seed in 0u64..1_000,
        relabel_seed in 0u64..1_000,
        root_pick in 0usize..1_000,
    ) {
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = relabel_random(&erdos_renyi_gnm(n, m, seed), relabel_seed);
        let source = (root_pick % n) as u32;
        let expected = bfs_distances_reference(&g, source);
        for delta in [1u32, 2, 5] {
            prop_assert_eq!(
                sssp_unit_delta_stepping_with_delta(&g, source, delta).distances(),
                &expected[..],
                "sequential delta {} diverged", delta
            );
        }
        for threads in THREAD_COUNTS {
            for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                prop_assert_eq!(
                    par_sssp(&g, source, threads, variant).distances(),
                    &expected[..],
                    "{:?} at {} threads", variant, threads
                );
            }
        }
    }

    /// Random sparse graphs with random positive weights and randomly
    /// permuted labels: sequential weighted delta-stepping settles
    /// Dijkstra's distances for every bucket width, and the parallel
    /// bucket-loop client agrees at 1, 2 and 8 threads in both relaxation
    /// disciplines.
    #[test]
    fn wsssp_random_relabelled_graphs_cross_validate(
        n in 1usize..100,
        edge_factor in 0usize..6,
        seed in 0u64..1_000,
        weight_seed in 0u64..1_000,
        relabel_seed in 0u64..1_000,
        root_pick in 0usize..1_000,
    ) {
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = relabel_random_weighted(
            &uniform_weights(&erdos_renyi_gnm(n, m, seed), 24, weight_seed),
            relabel_seed,
        );
        let source = (root_pick % n) as u32;
        let expected = sssp_dijkstra(&g, source);
        prop_assert_eq!(
            expected.distances(),
            &bellman_ford_reference(&g, source)[..],
            "Dijkstra diverged from Bellman-Ford"
        );
        for delta in WSSSP_DELTAS {
            prop_assert_eq!(
                sssp_delta_stepping(&g, source, delta).distances(),
                expected.distances(),
                "sequential delta {} diverged", delta
            );
            for threads in THREAD_COUNTS {
                for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
                    prop_assert_eq!(
                        par_wsssp(&g, source, delta, threads, variant)
                            .distances(),
                        expected.distances(),
                        "{:?} at {} threads, delta {}", variant, threads, delta
                    );
                }
            }
        }
    }

    /// The parallel branch-avoiding BFS queue never holds duplicates.
    #[test]
    fn parallel_branch_avoiding_queue_is_duplicate_free(
        n in 2usize..120,
        edge_factor in 1usize..5,
        seed in 0u64..500,
    ) {
        let m = (n * edge_factor / 2).min(n * (n - 1) / 2);
        let g = erdos_renyi_gnm(n, m, seed);
        for threads in THREAD_COUNTS {
            let result = par_bfs(&g, 0, threads, Variant::BranchAvoiding);
            let mut order = result.visit_order().to_vec();
            let reached = result.reached_count();
            order.sort_unstable();
            order.dedup();
            prop_assert_eq!(order.len(), reached);
        }
    }
}
