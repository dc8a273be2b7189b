//! Strong-scaling demo for the parallel branch-avoiding kernels.
//!
//! Generates a mid-sized power-law graph and a mesh, runs both parallel SV
//! disciplines (Algorithm 2's branch vs Algorithm 3's register `min`, one
//! writer per label in both; Algorithm 3 on the compressed graph too) and
//! both parallel BFS variants at increasing thread counts, and prints
//! per-configuration timings plus the speedup over the single-threaded run.
//! Results are verified against the sequential kernel of the same
//! discipline on every configuration, so the printed numbers are always
//! numbers for *correct* runs. The binary links the sequential kernels and
//! the parallel SV kernel on both graph types, which is what the SV
//! disassembly audit reads.
//!
//! Run with: `cargo run --release --example parallel_scaling`

use branch_avoiding_graphs::graph::generators::{barabasi_albert, grid_2d, MeshStencil};
use branch_avoiding_graphs::graph::transform::relabel_random;
use branch_avoiding_graphs::graph::{CompressedCsrGraph, CsrGraph};
use branch_avoiding_graphs::kernels::bfs::direction_optimizing::DirectionConfig;
use branch_avoiding_graphs::kernels::bfs::{bfs_branch_avoiding, bfs_branch_based};
use branch_avoiding_graphs::kernels::cc::{sv_branch_avoiding, sv_branch_based};
use branch_avoiding_graphs::parallel::request::{run_bfs, run_components};
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
        println!();
    }
    println!("all parallel results matched the sequential kernels exactly");
}
