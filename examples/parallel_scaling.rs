//! Strong-scaling demo for the parallel branch-avoiding kernels.
//!
//! Generates a mid-sized power-law graph and a mesh, runs both parallel SV
//! disciplines (Algorithm 2's branch vs Algorithm 3's register `min`, one
//! writer per label in both; Algorithm 3 on the compressed graph too),
//! both parallel BFS variants (on the compressed graph too) and sampled-
//! source Brandes betweenness in both variants and on both graph types at
//! increasing thread counts, and prints per-configuration timings plus the
//! speedup over the single-threaded run. Results are verified against the
//! sequential kernels on every configuration, so the printed numbers are
//! always numbers for *correct* runs. The binary links the sequential
//! kernels, the parallel SV kernel and every top-down BFS level body
//! (BFS's and Brandes') on both graph types, which is what the
//! disassembly audit reads.
//!
//! Run with: `cargo run --release --example parallel_scaling`

use branch_avoiding_graphs::graph::generators::{barabasi_albert, grid_2d, MeshStencil};
use branch_avoiding_graphs::graph::transform::relabel_random;
use branch_avoiding_graphs::graph::{AdjacencySource, CompressedCsrGraph, CsrGraph, VertexId};
use branch_avoiding_graphs::kernels::bc::betweenness_centrality_sources;
use branch_avoiding_graphs::kernels::bfs::direction_optimizing::DirectionConfig;
use branch_avoiding_graphs::kernels::bfs::{bfs_branch_avoiding, bfs_branch_based};
use branch_avoiding_graphs::kernels::cc::{sv_branch_avoiding, sv_branch_based};
use branch_avoiding_graphs::parallel::request::{run_betweenness, run_bfs, run_components};
use branch_avoiding_graphs::parallel::{resolve_threads, BfsStrategy, RunConfig, Variant};
use std::time::Instant;

fn cfg(threads: usize) -> RunConfig<'static> {
    RunConfig::new().threads(threads)
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Parallel sampled-source Brandes scores of `graph`, asserted equal to
/// the sequential accumulation within a 1e-9 relative tolerance (the two
/// sum dependencies in different orders).
fn checked_betweenness<G: AdjacencySource>(
    graph: &G,
    sources: &[VertexId],
    variant: Variant,
    threads: usize,
    expected: &[f64],
) {
    let scores = run_betweenness(graph, variant, Some(sources), &cfg(threads))
        .0
        .scores;
    assert_eq!(scores.len(), expected.len());
    for (v, (x, y)) in scores.iter().zip(expected).enumerate() {
        let tolerance = 1e-9 * x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() < tolerance, "vertex {v}: {x} vs {y}");
    }
}

fn main() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        (
            "power-law (BA, 60k)",
            relabel_random(&barabasi_albert(60_000, 4, 42), 7),
        ),
        (
            "mesh (Moore 260x260)",
            relabel_random(&grid_2d(260, 260, MeshStencil::Moore), 7),
        ),
    ];
    let thread_counts = [1usize, 2, 4, 8];
    println!("machine reports {} available cores\n", resolve_threads(0));

    for (name, graph) in &graphs {
        println!(
            "{name}: {} vertices, {} edge slots",
            graph.num_vertices(),
            graph.num_edge_slots()
        );
        let seq_labels = sv_branch_based(graph);
        let seq_avoiding_labels = sv_branch_avoiding(graph);
        let seq_distances = bfs_branch_based(graph, 0);
        let seq_avoiding_distances = bfs_branch_avoiding(graph, 0);

        println!(
            "  {:<26} {:>8} {:>12} {:>9}",
            "kernel", "threads", "time(ms)", "speedup"
        );
        let report = |kernel: &str, threads: usize, ms: f64, base: f64| {
            println!(
                "  {:<26} {:>8} {:>12.2} {:>8.2}x",
                kernel,
                threads,
                ms,
                base / ms.max(f64::MIN_POSITIVE)
            );
        };

        let mut sv_based_base = 0.0;
        let mut sv_avoid_base = 0.0;
        let mut bfs_based_base = 0.0;
        let mut bfs_avoid_base = 0.0;
        for &threads in &thread_counts {
            let (labels, ms) = time_ms(|| {
                run_components(graph, Variant::BranchBased, &cfg(threads))
                    .0
                    .labels
            });
            assert_eq!(labels.as_slice(), seq_labels.as_slice());
            if threads == 1 {
                sv_based_base = ms;
            }
            report("sv branch (Alg. 2)", threads, ms, sv_based_base);
        }
        for &threads in &thread_counts {
            let (labels, ms) = time_ms(|| {
                run_components(graph, Variant::BranchAvoiding, &cfg(threads))
                    .0
                    .labels
            });
            assert_eq!(labels.as_slice(), seq_avoiding_labels.as_slice());
            if threads == 1 {
                sv_avoid_base = ms;
            }
            report("sv cmov min (Alg. 3)", threads, ms, sv_avoid_base);
        }
        let compressed = CompressedCsrGraph::from_csr(graph);
        let mut sv_compressed_base = 0.0;
        for &threads in &thread_counts {
            let (labels, ms) = time_ms(|| {
                run_components(&compressed, Variant::BranchAvoiding, &cfg(threads))
                    .0
                    .labels
            });
            assert_eq!(labels.as_slice(), seq_avoiding_labels.as_slice());
            if threads == 1 {
                sv_compressed_base = ms;
            }
            report("sv cmov min, compressed", threads, ms, sv_compressed_base);
        }
        for &threads in &thread_counts {
            let (result, ms) = time_ms(|| {
                let strategy = BfsStrategy::Plain(Variant::BranchBased);
                run_bfs(graph, 0, strategy, &cfg(threads)).0.result
            });
            assert_eq!(result.distances(), seq_distances.distances());
            if threads == 1 {
                bfs_based_base = ms;
            }
            report("bfs CAS (branchy)", threads, ms, bfs_based_base);
        }
        for &threads in &thread_counts {
            let (result, ms) = time_ms(|| {
                let strategy = BfsStrategy::Plain(Variant::BranchAvoiding);
                run_bfs(graph, 0, strategy, &cfg(threads)).0.result
            });
            assert_eq!(result.distances(), seq_avoiding_distances.distances());
            if threads == 1 {
                bfs_avoid_base = ms;
            }
            report("bfs fetch-min (avoiding)", threads, ms, bfs_avoid_base);
        }
        let mut bfs_diropt_base = 0.0;
        for &threads in &thread_counts {
            let (result, ms) = time_ms(|| {
                let strategy = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
                run_bfs(graph, 0, strategy, &cfg(threads)).0.result
            });
            assert_eq!(result.distances(), seq_distances.distances());
            if threads == 1 {
                bfs_diropt_base = ms;
            }
            report("bfs direction-optimizing", threads, ms, bfs_diropt_base);
        }
        for (kernel, variant, expected) in [
            ("bfs CAS, compressed", Variant::BranchBased, &seq_distances),
            (
                "bfs fetch-min, compressed",
                Variant::BranchAvoiding,
                &seq_avoiding_distances,
            ),
        ] {
            let mut base = 0.0;
            for &threads in &thread_counts {
                let (result, ms) = time_ms(|| {
                    let strategy = BfsStrategy::Plain(variant);
                    run_bfs(&compressed, 0, strategy, &cfg(threads)).0.result
                });
                assert_eq!(result.distances(), expected.distances());
                if threads == 1 {
                    base = ms;
                }
                report(kernel, threads, ms, base);
            }
        }
        let sources: Vec<VertexId> = (0..4).collect();
        let seq_scores = betweenness_centrality_sources(graph, &sources);
        for (kernel, variant, on_compressed) in [
            ("bc CAS, 4 sources", Variant::BranchBased, false),
            ("bc fetch-min, 4 sources", Variant::BranchAvoiding, false),
            ("bc CAS, compressed", Variant::BranchBased, true),
            ("bc fetch-min, compressed", Variant::BranchAvoiding, true),
        ] {
            let mut base = 0.0;
            for &threads in &thread_counts {
                let ((), ms) = time_ms(|| {
                    if on_compressed {
                        checked_betweenness(&compressed, &sources, variant, threads, &seq_scores)
                    } else {
                        checked_betweenness(graph, &sources, variant, threads, &seq_scores)
                    }
                });
                if threads == 1 {
                    base = ms;
                }
                report(kernel, threads, ms, base);
            }
        }
        println!();
    }
    println!(
        "all parallel results matched the sequential kernels (exactly; Brandes scores within 1e-9)"
    );
}
