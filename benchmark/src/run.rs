//! One run of one workload: set-up (several times, for a steady
//! `setup_s`), the correctness pass, the measured batch passes and serve
//! loop, the after-run checks, and the metrics of the untraced or the
//! traced kind.

use crate::batch::{run_paired_passes, run_passes, BatchSamples, Op, References};
use crate::layers::{measure_layers, solo_bfs_us, BatchMedians, Effort};
use crate::metrics::{Metrics, RunResult};
use crate::serving::{closed_loop, drive, wrong_answers, Client, ServerHandle, Tally, Until};
use crate::span::Recorder;
use crate::stats::{highest_supported_percentile, iqr, median};
use crate::workload::{build_inputs, Inputs, QueryStream, Rng, Workload};
use bga_obs::QueryKind;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Traversal roots the warm-up sends one query for: enough to fill the
/// server's default 16-entry cache.
const WARM_ROOTS: usize = 16;
/// Queries per kind in the per-kind latency probe.
const KIND_PROBE: u64 = 32;
/// Cold-root queries per connection in the lock-wait probe.
const MISS_PROBE: usize = 16;
/// Cold-root queries in the deadline-path probe.
const DEADLINE_PROBE: usize = 8;
/// The per-kind probe's metrics, in [`Tally::per_kind`] order.
const KIND_P50: [&str; 4] = [
    "serve.distance_p50_us",
    "serve.path_p50_us",
    "serve.component_p50_us",
    "serve.core_p50_us",
];
/// For loops over finite streams, which end when the streams do.
const NO_DEADLINE: Duration = Duration::from_secs(3600);
/// A `timeout_ms` that never fires: it only selects the bounded path.
const NEVER_MS: u64 = 600_000;

/// How one run is to be made.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Pool threads and client connections (`T = C`).
    pub threads: usize,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Smoke-run effort.
    pub quick: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// A set-up workload: inputs generated, server bound and warm.
struct Stage {
    inputs: Inputs,
    server: ServerHandle,
    warm: Tally,
}

/// Generates the inputs, binds the server and warms it up: the first
/// `component` and `core` computations and one traversal per root until
/// the cache is full.
fn set_up(spec: &RunSpec) -> Result<Stage, String> {
    let inputs = build_inputs(&spec.workload, spec.seed);
    let server = ServerHandle::start(inputs.graph.clone(), spec.threads)?;
    let mut client =
        Client::connect(server.addr()).map_err(|e| format!("cannot connect to the server: {e}"))?;
    let any = inputs.root;
    let warm_up = [
        QueryKind::Component { vertex: any },
        QueryKind::Core { vertex: any },
    ]
    .into_iter()
    .chain(
        inputs
            .root_pool
            .iter()
            .take(WARM_ROOTS)
            .map(|&root| QueryKind::Distance { root, target: any }),
    );
    let warm = drive(&mut client, warm_up, Until::Count(u64::MAX), None, None, 0);
    Ok(Stage {
        inputs,
        server,
        warm,
    })
}

/// Sets up [`SETUP_REPS`] times, tearing the earlier stages down outside
/// the timer, and returns the last stage with every set-up's seconds.
fn set_up_repeatedly(spec: &RunSpec) -> Result<(Stage, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut stage = None;
    for _ in 0..SETUP_REPS {
        if let Some(Stage { server, .. }) = stage.take() {
            ServerHandle::stop(server)?;
        }
        let started = Instant::now();
        stage = Some(set_up(spec)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((stage.expect("SETUP_REPS is at least one"), seconds))
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kilobytes| kilobytes / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn streams<'a>(spec: &RunSpec, inputs: &'a Inputs, connections: usize) -> Vec<QueryStream<'a>> {
    (0..connections)
        .map(|c| QueryStream::new(inputs, spec.workload.mix, spec.seed, c))
        .collect()
}

fn micros(nanos: f64) -> f64 {
    nanos / 1e3
}

/// Prints the sample count and spread behind each timing to stderr, where
/// the result line's reader does not look.
fn describe(samples: &BatchSamples, loop_tally: &Tally) {
    for (op, millis) in Op::ALL.iter().zip(&samples.millis) {
        eprintln!(
            "  {:<18} median {:>10.3} ms  iqr {:>8.3}  n {}",
            op.metric(),
            median(millis),
            iqr(millis),
            millis.len()
        );
    }
    let n = loop_tally.rtt.len();
    eprintln!(
        "  {:<18} n {}  highest percentile with ten samples beyond it: {:?}",
        "query_*_us",
        n,
        highest_supported_percentile(n)
    );
}

/// The untraced run: end-to-end metrics.
fn run_untraced(spec: &RunSpec) -> Result<RunResult, String> {
    let (stage, setup_seconds) = set_up_repeatedly(spec)?;
    let Stage {
        inputs,
        server,
        warm,
    } = stage;
    let references = References::compute(&inputs);
    let batch_budget = Duration::from_secs_f64(spec.seconds * spec.workload.batch_share);
    let serve_budget = Duration::from_secs_f64(spec.seconds * (1.0 - spec.workload.batch_share));
    let samples = run_passes(&inputs, &references, spec.threads, batch_budget, 3);
    let outcome = closed_loop(
        server.addr(),
        streams(spec, &inputs, spec.threads),
        serve_budget,
        None,
    );
    server.stop()?;
    let outcome = outcome?;
    let wrong = wrong_answers(&outcome.tally.kept, &inputs, &references)
        + wrong_answers(&warm.kept, &inputs, &references);
    describe(&samples, &outcome.tally);

    let mut metrics = Metrics::new();
    for op in Op::ALL {
        metrics.push(op.metric(), samples.median_of(op), "ms");
    }
    metrics.push("qps", outcome.qps(), "1/s");
    metrics.push(
        "query_p50_us",
        micros(outcome.tally.rtt.percentile(50.0)),
        "us",
    );
    metrics.push(
        "query_p95_us",
        micros(outcome.tally.rtt.percentile(95.0)),
        "us",
    );
    metrics.push("setup_s", median(&setup_seconds), "s");
    metrics.push("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(RunResult {
        attempted: samples.attempted + warm.attempted + outcome.tally.attempted,
        failed: samples.failed + warm.failed + outcome.tally.failed + wrong,
        metrics,
    })
}

/// Sends `count` queries of one kind on a fresh connection and returns
/// the tally.
fn probe(
    server: &ServerHandle,
    queries: impl Iterator<Item = QueryKind>,
    count: u64,
    timeout_ms: Option<u64>,
) -> Result<Tally, String> {
    let mut client =
        Client::connect(server.addr()).map_err(|e| format!("cannot connect a probe: {e}"))?;
    Ok(drive(
        &mut client,
        queries,
        Until::Count(count),
        timeout_ms,
        None,
        0,
    ))
}

/// An endless stream of queries of one kind (an index into
/// [`Tally::per_kind`]):
/// roots from the workload's pool, every other vertex uniform.
fn kind_queries(kind: usize, inputs: &Inputs, seed: u64) -> impl Iterator<Item = QueryKind> + '_ {
    let mut rng = Rng::new(seed, 50 + kind as u64);
    std::iter::repeat_with(move || {
        let root = inputs.root_pool[rng.below(inputs.root_pool.len())];
        let any = rng.below(inputs.graph.num_vertices()) as u32;
        match kind {
            0 => QueryKind::Distance { root, target: any },
            1 => QueryKind::Path { root, target: any },
            2 => QueryKind::Component { vertex: any },
            _ => QueryKind::Core { vertex: any },
        }
    })
}

fn distance_queries<'a>(
    roots: &'a [u32],
    target: u32,
) -> impl Iterator<Item = QueryKind> + Send + 'a {
    roots
        .iter()
        .map(move |&root| QueryKind::Distance { root, target })
}

/// What [`serve_layer`] hands back besides its metrics.
struct Served {
    /// Every query the layer sent, for the run's attempted and failed
    /// counts and the after-run check.
    tally: Tally,
    /// Median round trip of the loop's spanned queries over that of its
    /// bare ones, minus one.
    trace_overhead: f64,
}

/// The `serve` layer: the traced closed loop, then the single-connection
/// loop and the probes.
fn serve_layer(
    spec: &RunSpec,
    inputs: &Inputs,
    server: &ServerHandle,
    recorder: &mut Recorder,
    out: &mut Metrics,
) -> Result<Served, String> {
    let stats_of = |server: &ServerHandle| {
        Client::connect(server.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("cannot read the server's stats: {e}"))
    };
    let serve_share = 1.0 - spec.workload.batch_share;
    let loop_budget = Duration::from_secs_f64(spec.seconds * serve_share * 0.5);
    let solo_budget = Duration::from_secs_f64(spec.seconds * serve_share * 0.2);

    let before = stats_of(server)?;
    let traced = closed_loop(
        server.addr(),
        streams(spec, inputs, spec.threads),
        loop_budget,
        Some(recorder),
    )?;
    let after = stats_of(server)?;
    let single = closed_loop(server.addr(), streams(spec, inputs, 1), solo_budget, None)?;

    let mut all = Tally::default();
    let mut kind_p50 = [0.0; 4];
    for (kind, p50) in kind_p50.iter_mut().enumerate() {
        let tally = probe(
            server,
            kind_queries(kind, inputs, spec.seed),
            KIND_PROBE,
            None,
        )?;
        *p50 = micros(tally.per_kind[kind].percentile(50.0));
        all.merge(tally);
    }

    // Queries that must miss: cold roots, each used once, a disjoint slice
    // per connection — all connections at once, so misses queue for the
    // pool lock the way the workload's own misses do.
    let target = inputs.root;
    let cold = &inputs.cold_roots;
    let per_connection = MISS_PROBE.min(cold.len() / (spec.threads + 1));
    let miss_streams: Vec<_> = (0..spec.threads)
        .map(|c| distance_queries(&cold[c * per_connection..(c + 1) * per_connection], target))
        .collect();
    let contended = closed_loop(server.addr(), miss_streams, NO_DEADLINE, None)?;
    let bounded_roots = &cold[spec.threads * per_connection..];
    let bounded_roots = &bounded_roots[..DEADLINE_PROBE.min(bounded_roots.len())];
    let bounded = probe(
        server,
        distance_queries(bounded_roots, target),
        u64::MAX,
        Some(NEVER_MS),
    )?;
    let solo = solo_bfs_us(inputs, spec.threads);

    let tally = &traced.tally;
    out.push(
        "serve.service_p50_us",
        micros(tally.service.percentile(50.0)),
        "us",
    );
    out.push(
        "serve.service_p99_us",
        micros(tally.service.percentile(99.0)),
        "us",
    );
    out.push(
        "serve.wire_overhead_p50_us",
        micros(tally.wire.percentile(50.0)),
        "us",
    );
    out.push("serve.solo_bfs_us", solo, "us");
    out.push(
        "serve.lock_wait_p50_us",
        micros(contended.tally.service_miss.percentile(50.0)) - solo,
        "us",
    );
    out.push("serve.rtt_p99_us", micros(tally.rtt.percentile(99.0)), "us");
    out.push(
        "serve.rtt_p999_us",
        micros(tally.rtt.percentile(99.9)),
        "us",
    );
    out.push("serve.cache_hit_ratio", tally.hit_ratio(), "ratio");
    out.push("serve.qps_c1", single.qps(), "1/s");
    for (name, p50) in KIND_P50.into_iter().zip(kind_p50) {
        out.push(name, p50, "us");
    }
    out.push(
        "serve.deadline_p50_us",
        micros(bounded.service_miss.percentile(50.0)),
        "us",
    );
    out.push(
        "serve.pool_batches",
        (after.pool_batches - before.pool_batches) as f64,
        "count",
    );
    out.push(
        "serve.pool_parks",
        (after.pool_parks - before.pool_parks) as f64,
        "count",
    );
    eprintln!(
        "  serve loop: n {}  highest percentile with ten samples beyond it: {:?}",
        tally.rtt.len(),
        highest_supported_percentile(tally.rtt.len())
    );

    // Spans sit outside the timed calls, so the spanned queries and their
    // bare twins should read the same.
    let trace_overhead = if tally.rtt_spanned.is_empty() || tally.rtt_bare.is_empty() {
        0.0
    } else {
        tally.rtt_spanned.percentile(50.0) / tally.rtt_bare.percentile(50.0) - 1.0
    };

    all.merge(traced.tally);
    all.merge(single.tally);
    all.merge(contended.tally);
    all.merge(bounded);
    Ok(Served {
        tally: all,
        trace_overhead,
    })
}

/// The traced run: per-layer metrics, and the spans written out.
fn run_traced(spec: &RunSpec) -> Result<RunResult, String> {
    let mut recorder = Recorder::new();
    let Stage {
        inputs,
        server,
        warm,
    } = recorder.scope("harness.set_up", 0, |_| set_up(spec))?;
    let references = recorder.scope("harness.references", 0, |_| References::compute(&inputs));
    let batch_budget = Duration::from_secs_f64(spec.seconds * spec.workload.batch_share * 0.5);
    let (spanned, plain) = recorder.scope("harness.batch", 0, |r| {
        run_paired_passes(&inputs, &references, spec.threads, batch_budget, 2, r)
    });
    let batch = BatchMedians {
        cc_based: plain.median_of(Op::CcBased),
        cc_avoiding: plain.median_of(Op::CcAvoiding),
        bfs_based: plain.median_of(Op::BfsBased),
        bfs_avoiding: plain.median_of(Op::BfsAvoiding),
        sssp: plain.median_of(Op::Sssp),
    };

    let mut layered = Metrics::new();
    let effort = Effort::new(spec.quick);
    measure_layers(
        &inputs,
        spec.seed,
        spec.threads,
        batch,
        effort,
        &mut recorder,
        &mut layered,
    );
    let serve_span = recorder.enter("harness.serve", 0);
    let served = serve_layer(spec, &inputs, &server, &mut recorder, &mut layered);
    recorder.exit(serve_span);
    server.stop()?;
    let served = served?;
    let wrong = recorder.scope("harness.check_answers", 0, |_| {
        wrong_answers(&served.tally.kept, &inputs, &references)
            + wrong_answers(&warm.kept, &inputs, &references)
    });

    // Paired passes saw the same drift, so the ratio of their totals is
    // the cost of the spans; the serve loop's spanned queries and their bare twins give the same for
    // queries. The workload's time split weighs the two.
    let ratios: Vec<f64> = (0..spanned.passes().min(plain.passes()))
        .map(|pass| spanned.pass_total(pass) / plain.pass_total(pass) - 1.0)
        .collect();
    let share = spec.workload.batch_share;
    let overhead = share * median(&ratios) + (1.0 - share) * served.trace_overhead;
    let mut metrics = layered;
    metrics.push("trace_overhead_pct", overhead * 100.0, "%");

    fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", spec.out_dir.display()))?;
    let path = spec
        .out_dir
        .join(format!("trace-{}.jsonl", spec.workload.name));
    let file =
        fs::File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    recorder
        .write_jsonl(BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (name, nanos) in recorder.self_time_by_name_ns() {
        eprintln!("  self time {:<34} {:>12.3} ms", name, nanos as f64 / 1e6);
    }

    Ok(RunResult {
        attempted: spanned.attempted + plain.attempted + warm.attempted + served.tally.attempted,
        failed: spanned.failed + plain.failed + warm.failed + served.tally.failed + wrong,
        metrics,
    })
}

/// Makes the run `spec` describes.
pub fn run_workload(spec: &RunSpec) -> Result<RunResult, String> {
    if spec.trace {
        run_traced(spec)
    } else {
        run_untraced(spec)
    }
}
