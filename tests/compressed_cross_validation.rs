//! Representation cross-validation: every parallel kernel — SV connected
//! components, BFS, Brandes betweenness, k-core peeling, and SSSP in both
//! the unit (level-loop) and weighted (bucket-loop) forms — must produce
//! bit-identical results on the delta-varint [`CompressedCsrGraph`] and
//! the plain `Vec` CSR, at 1, 2 and 8 worker threads. Every run shares one
//! pool through `RunConfig::on` and pins the chunking grain to 1, the
//! adversarial schedule where every vertex is its own chunk (the CI step
//! additionally runs the whole suite under `BGA_PARALLEL_GRAIN=1`).

use branch_avoiding_graphs::graph::generators::{barabasi_albert, erdos_renyi_gnm};
use branch_avoiding_graphs::graph::suite::{benchmark_suite, SuiteScale};
use branch_avoiding_graphs::graph::weighted::uniform_weights;
use branch_avoiding_graphs::graph::{CompressedCsrGraph, CompressedWeightedGraph, CsrGraph};
use branch_avoiding_graphs::parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore, run_sssp_unit, run_sssp_weighted,
};
use branch_avoiding_graphs::parallel::{BfsStrategy, RunConfig, Variant, WorkerPool};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const GRAIN: usize = 1;
const DELTA: u32 = 4;

/// Runs all five kernels on both representations under one pool and
/// asserts bit-identity of every result vector.
fn assert_representations_agree(name: &str, graph: &CsrGraph) {
    let compressed = CompressedCsrGraph::from_csr(graph);
    let weighted = uniform_weights(graph, 32, 42);
    let compressed_weighted = CompressedWeightedGraph::from_weighted(&weighted);
    let sources: Vec<u32> = (0..4u32.min(graph.num_vertices() as u32)).collect();
    for threads in THREAD_COUNTS {
        let pool = WorkerPool::new(threads);
        let on_pool = RunConfig::new().on(&pool).grain(GRAIN);
        // SV connected components, both hooking disciplines.
        let csr_labels = run_components(graph, Variant::BranchBased, &on_pool)
            .0
            .labels;
        let zip_labels = run_components(&compressed, Variant::BranchBased, &on_pool)
            .0
            .labels;
        assert_eq!(
            csr_labels.as_slice(),
            zip_labels.as_slice(),
            "{name}: branch-based SV diverged at {threads} threads"
        );
        let csr_labels = run_components(graph, Variant::BranchAvoiding, &on_pool)
            .0
            .labels;
        let zip_labels = run_components(&compressed, Variant::BranchAvoiding, &on_pool)
            .0
            .labels;
        assert_eq!(
            csr_labels.as_slice(),
            zip_labels.as_slice(),
            "{name}: branch-avoiding SV diverged at {threads} threads"
        );
        // BFS, both disciplines.
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let strategy = BfsStrategy::Plain(variant);
            assert_eq!(
                run_bfs(graph, 0, strategy, &on_pool).0.result.distances(),
                run_bfs(&compressed, 0, strategy, &on_pool)
                    .0
                    .result
                    .distances(),
                "{name}: {variant:?} BFS diverged at {threads} threads"
            );
        }
        // Brandes betweenness over a fixed source sample. f64 accumulation
        // order is fixed by the engine's deterministic level schedule, so
        // the scores must match bit-for-bit, not just approximately.
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let csr_scores = run_betweenness(graph, variant, Some(&sources), &on_pool)
                .0
                .scores;
            let zip_scores = run_betweenness(&compressed, variant, Some(&sources), &on_pool)
                .0
                .scores;
            assert_eq!(
                csr_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                zip_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{name}: {variant:?} betweenness diverged at {threads} threads"
            );
        }
        // k-core peeling, both decrement disciplines.
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            let csr_cores = run_kcore(graph, variant, &on_pool).0.cores;
            let zip_cores = run_kcore(&compressed, variant, &on_pool).0.cores;
            assert_eq!(
                csr_cores.as_slice(),
                zip_cores.as_slice(),
                "{name}: {variant:?} k-core diverged at {threads} threads"
            );
        }
        // Unit SSSP on the level loop and weighted delta-stepping on the
        // bucket loop, both relaxation disciplines.
        for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
            assert_eq!(
                run_sssp_unit(graph, 0, variant, &on_pool)
                    .0
                    .result
                    .distances(),
                run_sssp_unit(&compressed, 0, variant, &on_pool)
                    .0
                    .result
                    .distances(),
                "{name}: {variant:?} unit SSSP diverged at {threads} threads"
            );
            assert_eq!(
                run_sssp_weighted(&weighted, 0, DELTA, variant, &on_pool)
                    .0
                    .result
                    .distances(),
                run_sssp_weighted(&compressed_weighted, 0, DELTA, variant, &on_pool)
                    .0
                    .result
                    .distances(),
                "{name}: {variant:?} weighted SSSP diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn suite_graphs_agree_across_representations() {
    for sg in &benchmark_suite(SuiteScale::Small, 42) {
        assert_representations_agree(sg.name(), &sg.graph);
    }
}

#[test]
fn generator_graphs_agree_across_representations() {
    assert_representations_agree("ba-600", &barabasi_albert(600, 3, 9));
    assert_representations_agree("gnm-400", &erdos_renyi_gnm(400, 1200, 5));
    assert_representations_agree("empty-16", &CsrGraph::empty(16));
}
