//! Criterion wall-clock benches for the parallel kernels: branch-based
//! (Algorithm 2) vs branch-avoiding (Algorithm 3) Shiloach-Vishkin, parallel
//! top-down and direction-optimizing BFS across thread counts,
//! sampled-source Brandes betweenness, k-core peeling, unit-weight SSSP
//! and weighted delta-stepping SSSP in both hooking disciplines, and the
//! persistent-pool vs per-sweep
//! `thread::scope` contrast on a high-diameter graph. This is the
//! strong-scaling companion to `bga experiment scaling` — the relative
//! ordering across hooking disciplines and the per-thread-count trend are
//! the point, not absolute numbers.

use bga_graph::generators::{grid_2d, MeshStencil};
use bga_graph::suite::{benchmark_suite, SuiteScale};
use bga_graph::{uniform_weights, CompressedCsrGraph, CompressedWeightedGraph};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_parallel::request::{
    run_betweenness, run_bfs, run_bfs_on, run_components, run_kcore, run_sssp_unit,
    run_sssp_weighted,
};
use bga_parallel::{BfsStrategy, RunConfig, ScopedExecutor, Variant, WorkerPool};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(threads: usize) -> RunConfig<'static> {
    RunConfig::new().threads(threads)
}

fn bench_parallel_sv(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_sv");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: the power-law graph, where edge-balanced
    // chunking matters most.
    let sg = &suite[2];
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_components(g, Variant::BranchBased, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_components(g, Variant::BranchAvoiding, &cfg(threads))),
        );
    }
    group.finish();
}

fn bench_parallel_bfs(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_bfs");
    group.sample_size(10);
    // ldoor stand-in: the long-diameter mesh, many small frontiers.
    let sg = &suite[4];
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| {
                    run_bfs(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchBased),
                        &cfg(threads),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| {
                    run_bfs(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchAvoiding),
                        &cfg(threads),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direction_optimizing", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| {
                    let strategy = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
                    run_bfs(g, 0, strategy, &cfg(threads))
                })
            },
        );
    }
    group.finish();
}

/// Parallel Brandes betweenness over a fixed source sample: each source is
/// a full engine-driven BFS plus a reverse level sweep, so this measures
/// the traversal engine end to end (forward fan-out, level-bound
/// recording, pull-style dependency accumulation) in both hooking
/// disciplines.
fn bench_parallel_bc(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_bc");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: short diameter, explosive levels.
    let sg = &suite[2];
    let sources: Vec<u32> = (0..8).collect();
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| run_betweenness(g, Variant::BranchBased, Some(&sources), &cfg(threads)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| {
                    run_betweenness(g, Variant::BranchAvoiding, Some(&sources), &cfg(threads))
                })
            },
        );
    }
    group.finish();
}

/// Parallel k-core peeling: per-`k` seed sweeps plus cascade rounds over
/// atomic degree counters, in both decrement disciplines (unconditional
/// `fetch_sub` + predicated enqueue vs test-and-CAS). The power-law graph
/// has the deep core structure where the cascade actually iterates.
fn bench_parallel_kcore(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_kcore");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: skewed degrees, non-trivial degeneracy.
    let sg = &suite[2];
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_kcore(g, Variant::BranchBased, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_kcore(g, Variant::BranchAvoiding, &cfg(threads))),
        );
    }
    group.finish();
}

/// Parallel unit-weight SSSP (delta-stepping degenerated onto the level
/// loop) in both relaxation disciplines, on the long-diameter mesh where
/// the engine runs many settling phases.
fn bench_parallel_sssp(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_sssp");
    group.sample_size(10);
    // ldoor stand-in: many small buckets, the frontier-flip regime.
    let sg = &suite[4];
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_sssp_unit(g, 0, Variant::BranchBased, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_sssp_unit(g, 0, Variant::BranchAvoiding, &cfg(threads))),
        );
    }
    group.finish();
}

/// Parallel weighted delta-stepping SSSP on the engine's bucket loop, in
/// both relaxation disciplines. Seeded uniform weights in 1..=32 with
/// Δ = 4 exercise the full machinery — light phases re-relaxed within a
/// bucket plus deferred heavy passes — on the power-law graph whose
/// skewed frontiers stress the per-pass chunker.
fn bench_parallel_sssp_weighted(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_sssp_weighted");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: skewed degrees, short weighted diameter.
    let sg = &suite[2];
    let wg = uniform_weights(&sg.graph, 32, 42);
    let delta = 4;
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("branch_based", format!("{}x{threads}", sg.name())),
            &wg,
            |b, g| b.iter(|| run_sssp_weighted(g, 0, delta, Variant::BranchBased, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("branch_avoiding", format!("{}x{threads}", sg.name())),
            &wg,
            |b, g| {
                b.iter(|| run_sssp_weighted(g, 0, delta, Variant::BranchAvoiding, &cfg(threads)))
            },
        );
    }
    group.finish();
}

/// The compressed-representation contrast: raw decode throughput of the
/// branch-avoiding group-varint cursor (a full adjacency sweep summing
/// every decoded neighbour), then BFS and unit SSSP on the group-varint
/// [`CompressedCsrGraph`] against the same kernels on the `Vec` CSR, plus
/// the weighted bucket loop on [`CompressedWeightedGraph`]. The
/// csr-vs-compressed gap at matched thread counts is the decode overhead
/// the compression ratio buys back in adjacency bandwidth.
fn bench_parallel_compressed(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_compressed");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: skewed degrees, where gap coding pays most.
    let sg = &suite[2];
    let cg = CompressedCsrGraph::from_csr(&sg.graph);
    let wg = uniform_weights(&sg.graph, 32, 42);
    let cwg = CompressedWeightedGraph::from_weighted(&wg);
    let delta = 4;
    // Sequential full-sweep decode: every adjacency list walked once.
    group.bench_with_input(BenchmarkId::new("decode_sweep", sg.name()), &cg, |b, g| {
        b.iter(|| {
            let mut sum = 0u64;
            for v in 0..g.num_vertices() as u32 {
                for w in g.neighbor_cursor(v) {
                    sum = sum.wrapping_add(w as u64);
                }
            }
            sum
        })
    });
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("bfs_csr", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| {
                b.iter(|| {
                    run_bfs(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchAvoiding),
                        &cfg(threads),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("bfs_compressed", format!("{}x{threads}", sg.name())),
            &cg,
            |b, g| {
                b.iter(|| {
                    run_bfs(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchAvoiding),
                        &cfg(threads),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sssp_csr", format!("{}x{threads}", sg.name())),
            &sg.graph,
            |b, g| b.iter(|| run_sssp_unit(g, 0, Variant::BranchAvoiding, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("sssp_compressed", format!("{}x{threads}", sg.name())),
            &cg,
            |b, g| b.iter(|| run_sssp_unit(g, 0, Variant::BranchAvoiding, &cfg(threads))),
        );
        group.bench_with_input(
            BenchmarkId::new(
                "sssp_weighted_compressed",
                format!("{}x{threads}", sg.name()),
            ),
            &cwg,
            |b, g| {
                b.iter(|| run_sssp_weighted(g, 0, delta, Variant::BranchAvoiding, &cfg(threads)))
            },
        );
    }
    group.finish();
}

/// The adaptive-selection ablation: `Variant::Auto` against both static
/// disciplines on the kernels where the crossover matters. Auto pays the
/// tally instrumentation for the first few sampled phases and then runs
/// the predicted-best static variant un-instrumented, so each `auto` row
/// should land within a few percent of the better of its two static
/// neighbours — that gap is the cost of runtime selection.
fn bench_parallel_auto(c: &mut Criterion) {
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut group = c.benchmark_group("parallel_auto");
    group.sample_size(10);
    // coAuthorsDBLP stand-in: skewed degrees, the regime where the
    // advisor's misprediction-bound crossover is non-trivial.
    let sg = &suite[2];
    let variants = [
        ("branch_based", Variant::BranchBased),
        ("branch_avoiding", Variant::BranchAvoiding),
        ("auto", Variant::Auto),
    ];
    for threads in [2usize, 8] {
        for (name, variant) in variants {
            group.bench_with_input(
                BenchmarkId::new(&format!("cc_{name}"), format!("{}x{threads}", sg.name())),
                &sg.graph,
                |b, g| b.iter(|| run_components(g, variant, &cfg(threads))),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("bfs_{name}"), format!("{}x{threads}", sg.name())),
                &sg.graph,
                |b, g| b.iter(|| run_bfs(g, 0, BfsStrategy::Plain(variant), &cfg(threads))),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("sssp_{name}"), format!("{}x{threads}", sg.name())),
                &sg.graph,
                |b, g| b.iter(|| run_sssp_unit(g, 0, variant, &cfg(threads))),
            );
        }
    }
    group.finish();
}

/// The spawn-overhead contrast the persistent pool exists for: BFS over a
/// high-diameter mesh is hundreds of levels with tiny frontiers, so the
/// per-level cost of standing up workers dominates. A small grain forces
/// every level to fan out; the pool then pays one condvar wake per level
/// where the scoped executor pays `threads - 1` thread spawns + joins. On
/// the `pool` rows should beat the matching `thread_scope` rows clearly —
/// even on a single-core runner, since thread spawn/join cost is
/// core-count independent (the explicit thread counts below fan out
/// regardless of how many cores the host reports).
fn bench_small_frontier_pool_vs_scope(c: &mut Criterion) {
    // ~100x60 VonNeumann mesh, diameter ≈ 160: frontiers of a few dozen
    // vertices for ~160 levels.
    let graph = grid_2d(100, 60, MeshStencil::VonNeumann);
    let mut group = c.benchmark_group("small_frontier_bfs");
    group.sample_size(10);
    // Force per-level fan-out even on tiny frontiers, so the hand-off
    // mechanism itself is what gets measured.
    let grain = 64;
    for threads in [2usize, 4, 8] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("pool", format!("mesh100x60x{threads}")),
            &graph,
            |b, g| {
                b.iter(|| {
                    run_bfs_on(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchAvoiding),
                        &pool,
                        grain,
                    )
                })
            },
        );
        let scoped = ScopedExecutor::new(threads);
        group.bench_with_input(
            BenchmarkId::new("thread_scope", format!("mesh100x60x{threads}")),
            &graph,
            |b, g| {
                b.iter(|| {
                    run_bfs_on(
                        g,
                        0,
                        BfsStrategy::Plain(Variant::BranchAvoiding),
                        &scoped,
                        grain,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_sv,
    bench_parallel_bfs,
    bench_parallel_bc,
    bench_parallel_kcore,
    bench_parallel_sssp,
    bench_parallel_sssp_weighted,
    bench_parallel_compressed,
    bench_parallel_auto,
    bench_small_frontier_pool_vs_scope
);
criterion_main!(benches);
