//! Integration tests for the structured tracing layer: the `bga-trace-v1`
//! JSONL stream round-trips through the parser byte-for-byte, real traced
//! runs pass stream validation (and tampered streams do not), and the
//! event sequences the engine emits are deterministic — fully so for the
//! level-synchronous BFS across thread counts, structurally so for the
//! bucket loop across executors and grains (raw claim counters may vary
//! with interleaving; phase structure may not).

use branch_avoiding_graphs::parallel::{BranchAvoidingRelax, Execute, ScopedExecutor};
use branch_avoiding_graphs::prelude::*;

// ---------------------------------------------------------------------------
// JSONL round-trip + validation on real traced runs
// ---------------------------------------------------------------------------

/// Serializes a traced run into a JSONL byte stream, then checks that
/// parsing and re-serializing reproduces the stream exactly and that the
/// validator accepts it. Returns the parsed events and the report.
fn round_trip(run: impl FnOnce(&JsonlSink<Vec<u8>>)) -> (Vec<TraceEvent>, TraceReport) {
    let sink = JsonlSink::new(Vec::new());
    run(&sink);
    let bytes = sink.finish().expect("in-memory sink cannot fail");
    let text = String::from_utf8(bytes).expect("trace streams are UTF-8");
    let events = parse_trace(&text).expect("traced run emitted an unparsable stream");
    let reserialized: Vec<String> = events.iter().map(TraceEvent::to_json_line).collect();
    let original: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(original, reserialized, "round trip is not byte-identical");
    let report = validate_trace(&events).expect("traced run emitted an invalid stream");
    (events, report)
}

#[test]
fn traced_runs_round_trip_and_validate() {
    let g = generators::grid_2d(16, 16, generators::MeshStencil::Moore);

    let (_, report) = round_trip(|sink| {
        run_components(
            &g,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(2).traced(sink),
        );
    });
    assert_eq!(report.kernel, "cc");
    assert_eq!(report.variant, "branch-avoiding");
    assert_eq!(report.vertices, g.num_vertices());
    assert_eq!(report.edges, g.num_edge_slots());
    assert!(!report.phases.is_empty());

    let (_, report) = round_trip(|sink| {
        run_kcore(
            &g,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(2).traced(sink),
        );
    });
    assert_eq!(report.kernel, "kcore");
    assert!(report.phases.iter().any(|p| p.kind == PhaseKind::Seed));

    let wg = uniform_weights(&g, 12, 7);
    let (_, report) = round_trip(|sink| {
        run_sssp_weighted(
            &wg,
            0,
            4,
            Variant::BranchAvoiding,
            &RunConfig::new().threads(2).traced(sink),
        );
    });
    assert_eq!(report.kernel, "sssp-weighted");
    assert_eq!(report.delta, Some(4));
    assert_eq!(report.root, Some(0));
    assert!(report
        .phases
        .iter()
        .all(|p| p.kind == PhaseKind::Light || p.kind == PhaseKind::Heavy));
    // Run-end totals equal the sum of the per-phase counters (the
    // validator enforces this; pin it here against a real stream too).
    let summed = report
        .phases
        .iter()
        .fold(PhaseCounters::default(), |acc, p| acc + p.counters);
    assert_eq!(report.totals, summed);
}

/// A run cancelled mid-traversal still emits a complete, validating
/// `bga-trace-v1` document: header, one phase per completed sweep, and a
/// trailer whose `interrupted` field carries the reason — the same stream
/// `bga trace validate` accepts from a `--timeout-ms`-expired CLI run.
#[test]
fn interrupted_traced_runs_still_round_trip_and_validate() {
    use branch_avoiding_graphs::parallel::CancelToken;
    let g = generators::grid_2d(16, 16, generators::MeshStencil::VonNeumann);
    let token = CancelToken::new().with_phase_budget(1);
    let (events, report) = round_trip(|sink| {
        let config = RunConfig::new().threads(2).traced(sink).cancel(&token);
        let (_, outcome) = run_components(&g, Variant::BranchAvoiding, &config);
        assert!(!outcome.is_completed(), "a 16x16 grid needs several sweeps");
    });
    match events.last() {
        Some(TraceEvent::RunEnd {
            phases,
            interrupted,
            ..
        }) => {
            assert_eq!(*phases, 1, "budget 1 allows exactly one sweep");
            assert_eq!(interrupted.as_deref(), Some("phase-budget"));
        }
        other => panic!("trailer is not a run-end event: {other:?}"),
    }
    assert_eq!(report.interrupted.as_deref(), Some("phase-budget"));
    assert_eq!(report.phases.len(), 1);
}

/// A traced betweenness run tallies in every variant, not just `auto`:
/// each forward level's edge tests are real phase counters, and the edge
/// total — one test per adjacency slot of every reached vertex, per
/// source — is the same whichever discipline ran.
#[test]
fn traced_betweenness_tallies_in_every_variant() {
    let g = generators::grid_2d(12, 12, generators::MeshStencil::Moore);
    let sources = [0u32, 77];
    let traced_edges = |variant: Variant| {
        let (_, report) = round_trip(|sink| {
            let config = RunConfig::new().threads(2).traced(sink);
            let (run, _) = run_betweenness(&g, variant, Some(&sources), &config);
            assert_eq!(run.sources_done, sources.len());
        });
        assert_eq!(report.kernel, "bc");
        report.phases.iter().map(|p| p.counters.edges).sum::<u64>()
    };
    let auto = traced_edges(Variant::Auto);
    assert_eq!(auto, (sources.len() * g.num_edge_slots()) as u64);
    for variant in [Variant::BranchBased, Variant::BranchAvoiding] {
        assert_eq!(traced_edges(variant), auto, "{variant:?}");
    }
}

#[test]
fn tampered_streams_are_rejected() {
    let g = generators::grid_2d(8, 8, generators::MeshStencil::VonNeumann);
    let sink = MemorySink::new();
    run_bfs(
        &g,
        0,
        BfsStrategy::Plain(Variant::BranchAvoiding),
        &RunConfig::new().threads(2).traced(&sink),
    );
    let events = sink.take();
    assert!(validate_trace(&events).is_ok());

    // Missing trailer.
    assert!(validate_trace(&events[..events.len() - 1]).is_err());
    // Missing header.
    assert!(validate_trace(&events[1..]).is_err());
    // Duplicated header.
    let mut doubled = events.clone();
    doubled.insert(1, events[0].clone());
    assert!(validate_trace(&doubled).is_err());
    // A gap in the phase indices.
    let mut gapped = events.clone();
    let second_phase = gapped
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, TraceEvent::Phase(_)))
        .nth(1)
        .map(|(i, _)| i)
        .expect("a 2-level BFS has at least two phases");
    gapped.remove(second_phase);
    assert!(validate_trace(&gapped).is_err());
    // Totals that no longer sum.
    let mut cooked = events.clone();
    let last = cooked.len() - 1;
    if let TraceEvent::RunEnd { totals, .. } = &mut cooked[last] {
        totals.edges += 1;
    } else {
        panic!("trailer is not a run-end event");
    }
    assert!(validate_trace(&cooked).is_err());
}

// ---------------------------------------------------------------------------
// Determinism of emitted event sequences
// ---------------------------------------------------------------------------

/// Strips the fields that legitimately vary between runs — wall clocks,
/// pool scheduling events and the resolved thread/grain configuration —
/// leaving the event content that must be identical for identical inputs.
fn normalized(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events
        .into_iter()
        .filter_map(|event| match event {
            TraceEvent::PoolBatch { .. } | TraceEvent::PoolSummary { .. } => None,
            // A degradation warning is load-bearing: a healthy run emits
            // none, so one showing up SHOULD fail the determinism check.
            warning @ TraceEvent::Warning { .. } => Some(warning),
            TraceEvent::RunStart {
                kernel,
                variant,
                vertices,
                edges,
                delta,
                root,
                footprint,
                ..
            } => Some(TraceEvent::RunStart {
                kernel,
                variant,
                vertices,
                edges,
                threads: 0,
                grain: 0,
                delta,
                root,
                footprint,
            }),
            TraceEvent::Phase(mut phase) => {
                phase.wall_ns = 0;
                Some(TraceEvent::Phase(phase))
            }
            // Advisor decisions are deterministic functions of the phase
            // tallies, so they must replay identically too.
            decision @ TraceEvent::Decision(_) => Some(decision),
            TraceEvent::RunEnd {
                phases,
                totals,
                interrupted,
                ..
            } => Some(TraceEvent::RunEnd {
                phases,
                totals,
                wall_ns: 0,
                interrupted,
            }),
        })
        .collect()
}

/// The branch-avoiding BFS tallies unconditionally per edge and counts a
/// discovery only on a successful `fetch_min` claim, so its *full* event
/// stream — frontier sizes, discovered counts and every counter — is a
/// pure function of the graph, independent of thread count and chunking.
#[test]
fn bfs_event_stream_is_deterministic_across_thread_counts() {
    let g = generators::barabasi_albert(2_000, 3, 9);
    let trace_at = |threads: usize| {
        let sink = MemorySink::new();
        let run = run_bfs(
            &g,
            0,
            BfsStrategy::Plain(Variant::BranchAvoiding),
            &RunConfig::new().threads(threads).traced(&sink),
        )
        .0;
        (normalized(sink.take()), run.result)
    };
    let (reference_events, reference_result) = trace_at(1);
    assert!(!reference_events.is_empty());
    for threads in [2, 4] {
        let (events, result) = trace_at(threads);
        assert_eq!(
            result.distances(),
            reference_result.distances(),
            "{threads} threads changed the distances"
        );
        assert_eq!(
            events, reference_events,
            "{threads} threads changed the normalized event stream"
        );
    }
    // Repeats at a fixed thread count are exact too.
    let (repeat, _) = trace_at(2);
    let (again, _) = trace_at(2);
    assert_eq!(repeat, again);
}

/// Structural fields of one bucket-loop phase event: everything except
/// the counters (duplicate-claim tallies may vary with interleaving) and
/// the wall clock.
type PhaseShape = (usize, PhaseKind, Option<usize>, usize, usize, Option<bool>);

fn bucket_phase_shapes<E: Execute>(
    wg: &WeightedCsrGraph,
    exec: &E,
    grain: usize,
) -> Vec<PhaseShape> {
    let sink = MemorySink::new();
    let state = TraversalState::new(wg.num_vertices());
    BucketLoop::new(wg, exec, grain, false, 4).run(
        &state,
        0,
        &BranchAvoidingRelax,
        &sink,
        None,
        false,
    );
    sink.take()
        .into_iter()
        .map(|event| match event {
            TraceEvent::Phase(p) => (
                p.index,
                p.kind,
                p.bucket,
                p.frontier,
                p.discovered,
                p.changed,
            ),
            other => panic!("bucket loop emitted a non-phase event: {other:?}"),
        })
        .collect()
}

/// The bucket loop's phase schedule — pass order, kinds, bucket tags,
/// frontier snapshots and distinct-improvement counts — is deterministic
/// across executors, thread counts and grains, because each pass's
/// improved set is a pure function of its frontier snapshot.
#[test]
fn bucket_phase_structure_is_deterministic_across_executors_and_grains() {
    let wg = uniform_weights(&generators::barabasi_albert(900, 3, 31), 20, 9);
    let pool2 = WorkerPool::new(2);
    let reference = bucket_phase_shapes(&wg, &pool2, 64);
    assert!(!reference.is_empty());
    for grain in [1usize, 64, 1_000_000] {
        assert_eq!(
            bucket_phase_shapes(&wg, &pool2, grain),
            reference,
            "grain {grain} on the worker pool changed the phase structure"
        );
        assert_eq!(
            bucket_phase_shapes(&wg, &ScopedExecutor::new(2), grain),
            reference,
            "grain {grain} on the scoped executor changed the phase structure"
        );
    }
    let pool4 = WorkerPool::new(4);
    assert_eq!(
        bucket_phase_shapes(&wg, &pool4, 1),
        reference,
        "4 worker threads changed the phase structure"
    );
}
