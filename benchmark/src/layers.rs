//! Per-layer measurements of the traced run: each layer of the program
//! (layer = crate or module) is timed from outside through its public
//! items, or read from what it already emits (`PoolMonitor`, `MemorySink`
//! phase events, instrumented counters).

use crate::metrics::Metrics;
use crate::span::Recorder;
use crate::stats::median;
use crate::workload::{build_graph, GraphSpec, Inputs, SSSP_DELTA};
use bga_graph::io::{read_compressed_binary_bytes, write_compressed_binary_bytes};
use bga_graph::{AdjacencySource, CompressedCsrGraph};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::bfs::{
    bfs_branch_avoiding, bfs_branch_avoiding_instrumented, bfs_branch_based,
    bfs_branch_based_instrumented,
};
use bga_kernels::cc::sv_branchless::sv_branch_avoiding_with_stats;
use bga_kernels::cc::{
    sv_branch_avoiding_instrumented, sv_branch_based, sv_branch_based_instrumented,
};
use bga_kernels::stats::RunCounters;
use bga_obs::{
    MemorySink, QueryKind, QueryPayload, QueryStatus, ServeRequest, ServeResponse, TraceEvent,
    TraceSink,
};
use bga_parallel::request::{
    self, run_betweenness, run_bfs, run_bfs_on, run_bfs_reusing, run_components, run_kcore,
    run_sssp_unit, run_sssp_weighted, BfsStrategy, KernelRequest, RunConfig, Variant,
};
use bga_parallel::{
    CancelToken, Execute, PoolMonitor, ScopedExecutor, TraversalState, WorkerPool, PARALLEL_GRAIN,
};
use std::hint::black_box;
use std::time::Instant;

const AVOIDING: BfsStrategy = BfsStrategy::Plain(Variant::BranchAvoiding);

/// Wall time of `f` in milliseconds.
fn millis_of<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64() * 1e3, out)
}

/// Median wall time in milliseconds of `reps` calls of `f`.
fn median_millis<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| millis_of(|| black_box(f())).0).collect();
    median(&samples)
}

/// Median microseconds of `reps` calls of `call`, each on an argument
/// `prepare` builds outside the timer.
fn median_micros<P, T>(
    reps: usize,
    mut prepare: impl FnMut() -> P,
    mut call: impl FnMut(P) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let argument = prepare();
            millis_of(|| black_box(call(argument))).0 * 1e3
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of `f`, timed in `samples` blocks of
/// `block` calls so the clock reads do not dominate a call of a few
/// nanoseconds.
fn median_nanos_per_call(samples: usize, block: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..block {
                f();
            }
            started.elapsed().as_nanos() as f64 / block as f64
        })
        .collect();
    median(&per_call)
}

/// Medians of two alternatives measured in alternating order, so both see
/// the same drift: `(first, second)` in milliseconds.
fn paired_medians<A, B>(
    pairs: usize,
    mut first: impl FnMut() -> A,
    mut second: impl FnMut() -> B,
) -> (f64, f64) {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for pair in 0..pairs {
        if pair % 2 == 0 {
            a.push(millis_of(|| black_box(first())).0);
            b.push(millis_of(|| black_box(second())).0);
        } else {
            b.push(millis_of(|| black_box(second())).0);
            a.push(millis_of(|| black_box(first())).0);
        }
    }
    (median(&a), median(&b))
}

fn percent_over(value: f64, base: f64) -> f64 {
    (value / base - 1.0) * 100.0
}

/// How many repetitions the microbenchmarks make; the quick run divides
/// the long loops down.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Repetitions of a whole-graph measurement.
    pub graph_reps: usize,
    /// Empty pool batches timed.
    pub pool_batches: usize,
    /// Scoped-thread batches and pool spawns timed.
    pub spawns: usize,
    /// Request calls on the 1 k-vertex graph, per alternative.
    pub dispatches: usize,
}

impl Effort {
    /// The full run's effort, or a tenth of it for the quick run.
    pub fn new(quick: bool) -> Self {
        if quick {
            Effort {
                graph_reps: 1,
                pool_batches: 2_000,
                spawns: 50,
                dispatches: 100,
            }
        } else {
            Effort {
                graph_reps: 3,
                pool_batches: 20_000,
                spawns: 300,
                dispatches: 1_000,
            }
        }
    }
}

/// What the traced batch passes already measured, which several layer
/// metrics are ratios against: medians in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct BatchMedians {
    /// `cc_based_ms`.
    pub cc_based: f64,
    /// `cc_avoiding_ms`.
    pub cc_avoiding: f64,
    /// `bfs_based_ms`.
    pub bfs_based: f64,
    /// `bfs_avoiding_ms`.
    pub bfs_avoiding: f64,
    /// `sssp_ms`.
    pub sssp: f64,
}

/// `graph`: raw scan, varint decode, compression, footprint, `.bgacsr` read.
fn graph_layer(inputs: &Inputs, effort: Effort, out: &mut Metrics) {
    let graph = &inputs.graph;
    let compressed = &inputs.compressed;
    let slots = graph.num_edge_slots() as f64;
    let vertices = graph.num_vertices() as u32;
    let reps = effort.graph_reps + 2;
    let scan = median_millis(reps, || {
        (0..vertices).fold(0u32, |sum, v| {
            graph
                .neighbors(v)
                .iter()
                .fold(sum, |s, &u| s.wrapping_add(u))
        })
    });
    let decode = median_millis(reps, || {
        (0..vertices).fold(0u32, |sum, v| {
            compressed
                .neighbor_cursor(v)
                .fold(sum, |s, u| s.wrapping_add(u))
        })
    });
    out.push("graph.scan_ns_per_edge", scan * 1e6 / slots, "ns");
    out.push("graph.decode_ns_per_edge", decode * 1e6 / slots, "ns");
    out.push(
        "graph.compress_ms",
        median_millis(effort.graph_reps, || CompressedCsrGraph::from_csr(graph)),
        "ms",
    );
    // Computed from the representations' sizes, not measured traffic.
    let raw_bytes = AdjacencySource::footprint(graph).total_bytes() as f64;
    let compressed_bytes = AdjacencySource::footprint(compressed).total_bytes() as f64;
    out.push("graph.bytes_per_edge_raw", raw_bytes / slots, "B/edge");
    out.push(
        "graph.bytes_per_edge_compressed",
        compressed_bytes / slots,
        "B/edge",
    );
    let file = write_compressed_binary_bytes(compressed);
    out.push(
        "graph.bgacsr_read_ms",
        median_millis(effort.graph_reps, || {
            read_compressed_binary_bytes(&file).expect("a file this harness just wrote")
        }),
        "ms",
    );
}

fn mispredictions(counters: &RunCounters) -> f64 {
    counters.total().branch_mispredictions as f64
}

/// `kernels` and `branchsim`: the sequential Algorithms 2–5 — the
/// single-thread baseline — and the simulated misprediction counts of
/// their instrumented twins. Returns `(sv_avoiding_ms, bfs_avoiding_ms)`.
fn kernels_layer(inputs: &Inputs, effort: Effort, out: &mut Metrics) -> (f64, f64) {
    let graph = &inputs.graph;
    let root = inputs.root;
    let reps = effort.graph_reps;
    let sv_avoiding = median_millis(reps, || sv_branch_avoiding_with_stats(graph));
    let bfs_avoiding = median_millis(reps, || bfs_branch_avoiding(graph, root));
    out.push(
        "kernels.sv_based_ms",
        median_millis(reps, || sv_branch_based(graph)),
        "ms",
    );
    out.push("kernels.sv_avoiding_ms", sv_avoiding, "ms");
    out.push(
        "kernels.bfs_based_ms",
        median_millis(reps, || bfs_branch_based(graph, root)),
        "ms",
    );
    out.push("kernels.bfs_avoiding_ms", bfs_avoiding, "ms");
    out.push(
        "kernels.sv_sweeps",
        sv_branch_avoiding_with_stats(graph).1 as f64,
        "count",
    );
    out.push(
        "kernels.bfs_levels",
        bfs_branch_avoiding(graph, root).level_count() as f64,
        "count",
    );
    let (sv_instrumented, sv_based) = millis_of(|| sv_branch_based_instrumented(graph));
    let (bfs_instrumented, bfs_based) = millis_of(|| bfs_branch_based_instrumented(graph, root));
    out.push("kernels.sv_instrumented_ms", sv_instrumented, "ms");
    out.push("kernels.bfs_instrumented_ms", bfs_instrumented, "ms");
    let sv_avoiding_run = sv_branch_avoiding_instrumented(graph);
    let bfs_avoiding_run = bfs_branch_avoiding_instrumented(graph, root);
    out.push(
        "branchsim.sv_based_mispredicts",
        mispredictions(&sv_based.counters),
        "count",
    );
    out.push(
        "branchsim.sv_avoiding_mispredicts",
        mispredictions(&sv_avoiding_run.counters),
        "count",
    );
    out.push(
        "branchsim.bfs_based_mispredicts",
        mispredictions(&bfs_based.counters),
        "count",
    );
    out.push(
        "branchsim.bfs_avoiding_mispredicts",
        mispredictions(&bfs_avoiding_run.counters),
        "count",
    );
    (sv_avoiding, bfs_avoiding)
}

/// `parallel.pool`: what one batch costs with nothing in it, and what a
/// monitored BFS asks of the pool.
fn pool_layer(inputs: &Inputs, threads: usize, effort: Effort, out: &mut Metrics) {
    let empty_ranges = || (0..threads).map(|i| i..i + 1).collect::<Vec<_>>();
    let pool = WorkerPool::new(threads);
    let empty_batch = median_micros(effort.pool_batches, empty_ranges, |ranges| {
        pool.run(ranges, |_, _| ())
    });
    out.push("pool.empty_batch_us", empty_batch, "us");
    drop(pool);
    let scoped = ScopedExecutor::new(threads);
    let scoped_batch = median_micros(effort.spawns, empty_ranges, |ranges| {
        scoped.run(ranges, |_, _| ())
    });
    out.push("pool.scoped_batch_us", scoped_batch, "us");
    let spawn = median_micros(effort.spawns, || (), |()| drop(WorkerPool::new(threads)));
    out.push("pool.spawn_us", spawn, "us");

    let monitor = PoolMonitor::new();
    let monitored = WorkerPool::with_monitor(threads, std::sync::Arc::clone(&monitor));
    black_box(run_bfs_on(
        &inputs.graph,
        inputs.root,
        AVOIDING,
        &monitored,
        PARALLEL_GRAIN,
    ));
    drop(monitored);
    let observed = monitor.take_metrics();
    let worst = observed
        .batches
        .iter()
        .map(|b| b.imbalance())
        .fold(1.0, f64::max);
    out.push("pool.batches", observed.batches.len() as f64, "count");
    out.push("pool.parks", observed.parks as f64, "count");
    out.push("pool.wakes", observed.wakes as f64, "count");
    out.push("pool.max_imbalance", worst, "ratio");
}

/// Phase count and the share of the run's wall clock spent inside phase
/// dispatch, from a `MemorySink` run's events.
fn phases_of(events: &[TraceEvent]) -> (f64, f64) {
    let mut phases = 0u64;
    let mut phase_ns = 0u64;
    let mut run_ns = 0u64;
    for event in events {
        match event {
            TraceEvent::Phase(phase) => {
                phases += 1;
                phase_ns += phase.wall_ns;
            }
            TraceEvent::RunEnd { wall_ns, .. } => run_ns = *wall_ns,
            _ => {}
        }
    }
    (phases as f64, phase_ns as f64 / run_ns.max(1) as f64)
}

/// `parallel.engine`: per-phase cost of the three loops, state
/// allocation, and what the trace and cancel seams cost when attached.
fn engine_layer(
    inputs: &Inputs,
    threads: usize,
    batch: BatchMedians,
    effort: Effort,
    out: &mut Metrics,
) {
    let graph = &inputs.graph;
    let root = inputs.root;
    let config = RunConfig::new().threads(threads);
    let sink = MemorySink::new();
    let traced = config.traced(&sink);
    black_box(run_bfs(graph, root, AVOIDING, &traced));
    let (bfs_phases, bfs_share) = phases_of(&sink.take());
    black_box(run_components(graph, Variant::BranchAvoiding, &traced));
    let (cc_phases, _) = phases_of(&sink.take());
    black_box(run_sssp_weighted(
        &inputs.weighted,
        root,
        SSSP_DELTA,
        Variant::BranchAvoiding,
        &traced,
    ));
    let (sssp_phases, _) = phases_of(&sink.take());
    out.push(
        "engine.level_us_per_phase",
        batch.bfs_avoiding * 1e3 / bfs_phases,
        "us",
    );
    out.push(
        "engine.sweep_ms_per_sweep",
        batch.cc_avoiding / cc_phases,
        "ms",
    );
    out.push(
        "engine.bucket_us_per_phase",
        batch.sssp * 1e3 / sssp_phases,
        "us",
    );
    out.push("engine.phases_bfs", bfs_phases, "count");
    out.push("engine.phases_cc", cc_phases, "count");
    out.push("engine.phases_sssp", sssp_phases, "count");
    out.push("engine.phase_wall_share", bfs_share, "ratio");
    out.push(
        "engine.state_alloc_ms",
        median_millis(effort.graph_reps + 2, || {
            let mut state = TraversalState::new(graph.num_vertices());
            state.reset();
            state
        }),
        "ms",
    );
    let pairs = 2 * effort.graph_reps + 1;
    let (plain, with_sink) = paired_medians(
        pairs,
        || run_bfs(graph, root, AVOIDING, &config),
        || {
            let run = run_bfs(graph, root, AVOIDING, &traced);
            sink.take();
            run
        },
    );
    out.push(
        "engine.traced_overhead_pct",
        percent_over(with_sink, plain),
        "%",
    );
    let token = CancelToken::new();
    let cancellable = config.cancel(&token);
    let (plain, with_token) = paired_medians(
        pairs,
        || run_bfs(graph, root, AVOIDING, &config),
        || run_bfs(graph, root, AVOIDING, &cancellable),
    );
    out.push(
        "engine.cancellable_overhead_pct",
        percent_over(with_token, plain),
        "%",
    );
}

/// Updates per edge test of an instrumented run — the x axis of the
/// paper's Figures 3 and 6.
fn update_ratio(counters: &RunCounters) -> f64 {
    let updates: u64 = counters.steps.iter().map(|s| s.updates).sum();
    updates as f64 / counters.total_edges_traversed().max(1) as f64
}

/// What the variant advisor chose on an `auto` run: 1 branch-avoiding,
/// 0 branch-based, -1 when the run ended before the sampling window did.
fn auto_choice(events: &[TraceEvent]) -> f64 {
    events
        .iter()
        .find_map(|event| match event {
            TraceEvent::Decision(decision) => {
                Some(f64::from(u8::from(decision.variant == "branch-avoiding")))
            }
            _ => None,
        })
        .unwrap_or(-1.0)
}

/// The parallel kernels beyond the end-to-end op list: `auto`,
/// direction-optimizing, the branch-based twins, one thread, and the
/// ratios against the sequential baseline.
fn parallel_layer(
    inputs: &Inputs,
    threads: usize,
    batch: BatchMedians,
    sequential: (f64, f64),
    effort: Effort,
    out: &mut Metrics,
) {
    let graph = &inputs.graph;
    let root = inputs.root;
    let reps = effort.graph_reps;
    let config = RunConfig::new().threads(threads);
    let one = RunConfig::new().threads(1);
    let auto_bfs = BfsStrategy::Plain(Variant::Auto);
    let cc_auto = median_millis(reps, || run_components(graph, Variant::Auto, &config));
    let bfs_auto = median_millis(reps, || run_bfs(graph, root, auto_bfs, &config));
    out.push("parallel.cc_auto_ms", cc_auto, "ms");
    out.push("parallel.bfs_auto_ms", bfs_auto, "ms");
    let diropt = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
    out.push(
        "parallel.bfs_diropt_ms",
        median_millis(reps, || run_bfs(graph, root, diropt, &config)),
        "ms",
    );
    out.push(
        "parallel.kcore_based_ms",
        median_millis(reps, || run_kcore(graph, Variant::BranchBased, &config)),
        "ms",
    );
    out.push(
        "parallel.sssp_based_ms",
        median_millis(reps, || {
            run_sssp_weighted(
                &inputs.weighted,
                root,
                SSSP_DELTA,
                Variant::BranchBased,
                &config,
            )
        }),
        "ms",
    );
    out.push(
        "parallel.sssp_unit_ms",
        median_millis(reps, || {
            run_sssp_unit(graph, root, Variant::BranchAvoiding, &config)
        }),
        "ms",
    );
    out.push(
        "parallel.bc_based_ms",
        median_millis(reps, || {
            run_betweenness(
                graph,
                Variant::BranchBased,
                Some(&inputs.bc_sources),
                &config,
            )
        }),
        "ms",
    );
    out.push(
        "parallel.cc_t1_ms",
        median_millis(reps, || {
            run_components(graph, Variant::BranchAvoiding, &one)
        }),
        "ms",
    );
    out.push(
        "parallel.bfs_t1_ms",
        median_millis(reps, || run_bfs(graph, root, AVOIDING, &one)),
        "ms",
    );
    out.push(
        "parallel.cc_vs_seq",
        batch.cc_avoiding / sequential.0,
        "ratio",
    );
    out.push(
        "parallel.bfs_vs_seq",
        batch.bfs_avoiding / sequential.1,
        "ratio",
    );

    let instrumented = one.instrumented(true);
    let (bfs_run, _) = run_bfs(graph, root, AVOIDING, &instrumented);
    let (cc_run, _) = run_components(graph, Variant::BranchAvoiding, &instrumented);
    let reached_slots: usize = (0..graph.num_vertices() as u32)
        .filter(|&v| bfs_run.result.distance(v) != bga_kernels::bfs::INFINITY)
        .map(|v| graph.degree(v))
        .sum();
    // Graph500-style: edge slots of the solved component per second of
    // the whole solution, in millions.
    out.push(
        "parallel.cc_mteps",
        graph.num_edge_slots() as f64 / batch.cc_avoiding / 1e3,
        "Medges/s",
    );
    out.push(
        "parallel.bfs_mteps",
        reached_slots as f64 / batch.bfs_avoiding / 1e3,
        "Medges/s",
    );
    out.push(
        "parallel.cc_update_ratio",
        update_ratio(&cc_run.counters),
        "ratio",
    );
    out.push(
        "parallel.bfs_update_ratio",
        update_ratio(&bfs_run.counters),
        "ratio",
    );
    out.push(
        "parallel.auto_regret_cc",
        cc_auto / batch.cc_based.min(batch.cc_avoiding),
        "ratio",
    );
    out.push(
        "parallel.auto_regret_bfs",
        bfs_auto / batch.bfs_based.min(batch.bfs_avoiding),
        "ratio",
    );
    let sink = MemorySink::new();
    let traced = config.traced(&sink);
    black_box(run_components(graph, Variant::Auto, &traced));
    out.push(
        "parallel.auto_choice_cc",
        auto_choice(&sink.take()),
        "is_avoiding",
    );
    black_box(run_bfs(graph, root, auto_bfs, &traced));
    out.push(
        "parallel.auto_choice_bfs",
        auto_choice(&sink.take()),
        "is_avoiding",
    );
}

/// `parallel.request`: what the front door adds over calling the loop on
/// a pool that already exists, on a graph small enough for it to show.
fn request_layer(seed: u64, threads: usize, effort: Effort, out: &mut Metrics) {
    let small = build_graph(GraphSpec::Rmat { scale: 10 }, seed);
    let config = RunConfig::new().threads(threads);
    let pool = WorkerPool::new(threads);
    let dynamic = KernelRequest::Bfs {
        root: 0,
        strategy: AVOIDING,
    };
    let mut typed = Vec::new();
    let mut on_pool = Vec::new();
    let mut dispatched = Vec::new();
    for _ in 0..effort.dispatches {
        typed.push(millis_of(|| black_box(run_bfs(&small, 0, AVOIDING, &config))).0);
        on_pool.push(
            millis_of(|| black_box(run_bfs_on(&small, 0, AVOIDING, &pool, PARALLEL_GRAIN))).0,
        );
        dispatched.push(millis_of(|| black_box(request::run(&small, &dynamic, &config))).0);
    }
    let typed = median(&typed);
    out.push(
        "request.dispatch_us",
        (typed - median(&on_pool)) * 1e3,
        "us",
    );
    out.push(
        "request.dyn_dispatch_us",
        (median(&dispatched) - typed) * 1e3,
        "us",
    );
}

/// `obs`: the wire codec and the in-memory trace sink, per call.
fn obs_layer(effort: Effort, out: &mut Metrics) {
    let samples = 20;
    let block = effort.dispatches;
    let line = ServeRequest::Query {
        kind: QueryKind::Distance {
            root: 12_345,
            target: 54_321,
        },
        variant: None,
        timeout_ms: None,
    }
    .to_json_line();
    let response_of = |payload| ServeResponse::Query {
        status: QueryStatus::Ok,
        payload,
        cached: true,
        micros: 7,
    };
    let distance = response_of(QueryPayload::Distance(Some(4)));
    let path = response_of(QueryPayload::Path(Some(vec![
        12_345, 9, 431, 77_000, 54_321,
    ])));
    out.push(
        "obs.parse_request_ns",
        median_nanos_per_call(samples, block, || {
            black_box(ServeRequest::parse_line(black_box(&line)).is_ok());
        }),
        "ns",
    );
    out.push(
        "obs.serialise_distance_ns",
        median_nanos_per_call(samples, block, || {
            black_box(black_box(&distance).to_json_line());
        }),
        "ns",
    );
    out.push(
        "obs.serialise_path_ns",
        median_nanos_per_call(samples, block, || {
            black_box(black_box(&path).to_json_line());
        }),
        "ns",
    );
    let sink = MemorySink::new();
    let per_event = median_nanos_per_call(samples, block, || {
        sink.emit(TraceEvent::PoolSummary {
            batches: 3,
            parks: 1,
            wakes: 2,
        });
    });
    black_box(sink.take());
    out.push("obs.memory_sink_event_ns", per_event, "ns");
}

/// One uncontended BFS the way the server runs it — `run_bfs_reusing` on
/// a resident pool and state, one caller — in microseconds: the base
/// `serve.lock_wait_p50_us` is measured against.
pub fn solo_bfs_us(inputs: &Inputs, threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let mut state = TraversalState::new(inputs.graph.num_vertices());
    let roots = inputs.cold_roots.iter().chain(&inputs.root_pool).take(9);
    let samples: Vec<f64> = roots
        .map(|&root| {
            millis_of(|| {
                black_box(run_bfs_reusing(
                    &inputs.graph,
                    root,
                    AVOIDING,
                    &pool,
                    PARALLEL_GRAIN,
                    &mut state,
                ))
            })
            .0 * 1e3
        })
        .collect();
    median(&samples)
}

/// Runs every layer's microbenchmarks, one span per layer.
pub fn measure_layers(
    inputs: &Inputs,
    seed: u64,
    threads: usize,
    batch: BatchMedians,
    effort: Effort,
    recorder: &mut Recorder,
    out: &mut Metrics,
) {
    recorder.scope("graph", 0, |_| graph_layer(inputs, effort, out));
    let sequential = recorder.scope("kernels", 0, |_| kernels_layer(inputs, effort, out));
    recorder.scope("parallel.pool", 0, |_| {
        pool_layer(inputs, threads, effort, out)
    });
    recorder.scope("parallel.engine", 0, |_| {
        engine_layer(inputs, threads, batch, effort, out)
    });
    recorder.scope("parallel", 0, |_| {
        parallel_layer(inputs, threads, batch, sequential, effort, out)
    });
    recorder.scope("parallel.request", 0, |_| {
        request_layer(seed, threads, effort, out)
    });
    recorder.scope("obs", 0, |_| obs_layer(effort, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_obs::{DecisionEvent, PhaseCounters, PhaseEvent, PhaseKind};

    fn phase(wall_ns: u64) -> TraceEvent {
        TraceEvent::Phase(PhaseEvent {
            index: 0,
            kind: PhaseKind::TopDown,
            bucket: None,
            frontier: 1,
            discovered: 1,
            changed: None,
            counters: PhaseCounters::default(),
            wall_ns,
        })
    }

    #[test]
    fn phase_share_is_phase_time_over_run_time() {
        let events = vec![
            phase(300),
            phase(500),
            TraceEvent::RunEnd {
                phases: 2,
                totals: PhaseCounters::default(),
                wall_ns: 1_000,
                interrupted: None,
            },
        ];
        assert_eq!(phases_of(&events), (2.0, 0.8));
    }

    #[test]
    fn the_auto_choice_comes_from_the_decision_event() {
        let decision = |variant: &str| {
            TraceEvent::Decision(DecisionEvent {
                phase: 2,
                variant: variant.to_string(),
                switched: true,
                sampled: 3,
                edges: 10,
                updates: 1,
                mispredictions: 2,
            })
        };
        assert_eq!(auto_choice(&[phase(1), decision("branch-avoiding")]), 1.0);
        assert_eq!(auto_choice(&[decision("branch-based")]), 0.0);
        assert_eq!(auto_choice(&[phase(1)]), -1.0);
    }

    #[test]
    fn paired_medians_keep_the_two_series_apart() {
        let mut calls = Vec::new();
        let calls_cell = std::cell::RefCell::new(&mut calls);
        paired_medians(
            3,
            || calls_cell.borrow_mut().push('a'),
            || calls_cell.borrow_mut().push('b'),
        );
        assert_eq!(calls, vec!['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!(percent_over(110.0, 100.0).round(), 10.0);
    }
}
