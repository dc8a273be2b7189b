//! Pins the parallel kernels' observable output: the trace events and the
//! instrumented counter series of every kernel and variant on one thread,
//! where chunk order (and with it every tally) is deterministic.
//!
//! A refactor of the engine loops, the kernels or the adaptive variant
//! must leave every hash unchanged: the phase structure, the per-phase
//! counters, which phases tally on an uninstrumented auto run and where
//! the advisor decides are all part of the output.

use bga_graph::generators::{barabasi_albert, grid_2d, MeshStencil};
use bga_graph::transform::relabel_random;
use bga_graph::weighted::uniform_weights;
use bga_graph::CsrGraph;
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::stats::RunCounters;
use bga_obs::{MemorySink, PhaseKind, TraceEvent, TraceSink};
use bga_parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore, run_sssp_unit, run_sssp_weighted,
    BfsStrategy, RunConfig, Variant,
};
use bga_parallel::PARALLEL_GRAIN;

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &byte in bytes {
            self.word(byte as u64);
        }
    }
}

/// Hashes every phase and decision event, leaving out the wall clock.
/// Returns the number of events hashed as well.
fn hash_events(events: &[TraceEvent], hash: &mut Fnv) -> usize {
    let mut hashed = 0;
    for event in events {
        match event {
            TraceEvent::Phase(p) => {
                hash.word(1);
                hash.bytes(format!("{:?}", p.kind).as_bytes());
                let c = p.counters;
                for word in [
                    p.index as u64,
                    p.bucket.map_or(u64::MAX, |b| b as u64),
                    p.frontier as u64,
                    p.discovered as u64,
                    p.changed.map_or(2, u64::from),
                    c.instructions,
                    c.branches,
                    c.mispredictions,
                    c.loads,
                    c.stores,
                    c.conditional_moves,
                    c.edges,
                    c.vertices,
                    c.updates,
                ] {
                    hash.word(word);
                }
            }
            TraceEvent::Decision(d) => {
                hash.word(2);
                hash.bytes(d.variant.as_bytes());
                for word in [
                    d.phase as u64,
                    u64::from(d.switched),
                    d.sampled as u64,
                    d.edges,
                    d.updates,
                    d.mispredictions,
                ] {
                    hash.word(word);
                }
            }
            _ => continue,
        }
        hashed += 1;
    }
    hashed
}

/// Hashes every field of every step of a counter series.
fn hash_counters(run: &RunCounters, hash: &mut Fnv) {
    hash.word(run.steps.len() as u64);
    for s in &run.steps {
        let c = s.counters;
        for word in [
            s.step as u64,
            c.instructions,
            c.branches,
            c.branch_mispredictions,
            c.loads,
            c.stores,
            c.conditional_moves,
            s.edges_traversed,
            s.vertices_processed,
            s.updates,
        ] {
            hash.word(word);
        }
    }
}

/// One kernel invocation under `config`, reduced to the counter series it
/// returns (Brandes returns none; its scores and source count stand in).
fn run_kernel<S: TraceSink>(
    kernel: &str,
    variant: Variant,
    g: &CsrGraph,
    config: &RunConfig<'_, S>,
    hash: &mut Fnv,
) {
    match kernel {
        "cc" => hash_counters(&run_components(g, variant, config).0.counters, hash),
        "bfs" => {
            let strategy = BfsStrategy::Plain(variant);
            hash_counters(&run_bfs(g, 0, strategy, config).0.counters, hash)
        }
        "bfs-diropt" => {
            let strategy = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
            hash_counters(&run_bfs(g, 0, strategy, config).0.counters, hash)
        }
        "sssp-unit" => hash_counters(&run_sssp_unit(g, 0, variant, config).0.counters, hash),
        "sssp-weighted" => {
            let wg = uniform_weights(g, 16, 3);
            let run = run_sssp_weighted(&wg, 0, 4, variant, config).0;
            hash_counters(&run.counters, hash)
        }
        "bc" => {
            let run = run_betweenness(g, variant, Some(&[0, 1]), config).0;
            hash.word(run.sources_done as u64);
            for score in run.scores {
                hash.word(score.to_bits());
            }
        }
        "kcore" => hash_counters(&run_kcore(g, variant, config).0.counters, hash),
        other => unreachable!("unknown kernel {other}"),
    }
}

#[test]
fn parallel_trace_output_is_pinned() {
    let graphs = [
        barabasi_albert(300, 3, 5),
        relabel_random(&grid_2d(16, 12, MeshStencil::Moore), 7),
    ];
    let variants = [Variant::BranchBased, Variant::BranchAvoiding, Variant::Auto];
    let mut rows: Vec<(String, usize, u64, u64)> = Vec::new();
    for kernel in [
        "cc",
        "bfs",
        "bfs-diropt",
        "sssp-unit",
        "sssp-weighted",
        "bc",
        "kcore",
    ] {
        // Direction-optimizing BFS has one discipline of its own.
        let kernel_variants = if kernel == "bfs-diropt" {
            &variants[1..2]
        } else {
            &variants[..]
        };
        for &variant in kernel_variants {
            let (mut trace, mut counters) = (Fnv::new(), Fnv::new());
            let mut events = 0;
            for g in &graphs {
                for grain in [1, PARALLEL_GRAIN] {
                    let base = RunConfig::new().threads(1).grain(grain);
                    // Traced: every phase and decision event.
                    let sink = MemorySink::new();
                    let traced = base.traced(&sink);
                    run_kernel(kernel, variant, g, &traced, &mut Fnv::new());
                    let trace_events = sink.take();
                    if kernel == "bfs-diropt" {
                        let bottom_up = trace_events.iter().any(
                            |e| matches!(e, TraceEvent::Phase(p) if p.kind == PhaseKind::BottomUp),
                        );
                        assert!(
                            bottom_up,
                            "bfs-diropt at grain {grain} never went bottom-up"
                        );
                    }
                    events += hash_events(&trace_events, &mut trace);
                    // Instrumented: the full counter series.
                    let instrumented = base.instrumented(true);
                    run_kernel(kernel, variant, g, &instrumented, &mut counters);
                    // Plain: only an adaptive run's sampled prefix tallies.
                    run_kernel(kernel, variant, g, &base, &mut counters);
                }
            }
            rows.push((
                format!("{kernel}/{}", variant.as_str()),
                events,
                trace.0,
                counters.0,
            ));
        }
    }
    // `bfs-diropt/branch-avoiding` and `sssp-unit/branch-avoiding` share
    // their hashes: unit-weight SSSP runs the same level kernels under the
    // same default `DirectionConfig`, bottom-up levels included (asserted
    // above), so both emit the same phases and counters.
    #[rustfmt::skip]
    let expected: &[(&str, usize, u64, u64)] = &[
        ("cc/branch-based", 14, 0x8534948bdf1bf54d, 0xe0a3d841234e2b9d),
        ("cc/branch-avoiding", 14, 0xf15a5b811802be75, 0x84b22a63d287b98d),
        ("cc/auto", 16, 0x0b54ac93682ba869, 0x7591446d3d871575),
        ("bfs/branch-based", 26, 0x3934d913b668b6cd, 0x05c3a180c779e52d),
        ("bfs/branch-avoiding", 26, 0x8edc4609915cb161, 0x0c0344cb7b198ae9),
        ("bfs/auto", 30, 0x5bb04de4dd3f7185, 0x5cc30c7176f7a581),
        ("bfs-diropt/branch-avoiding", 26, 0x9ca85c934cd8331d, 0x90f24061585e7b2d),
        ("sssp-unit/branch-based", 26, 0x8fb3afb7ad7e2abd, 0x6a7d923635ba987d),
        ("sssp-unit/branch-avoiding", 26, 0x9ca85c934cd8331d, 0x90f24061585e7b2d),
        ("sssp-unit/auto", 30, 0x2241cf7934b62c21, 0x9f5193c5ddc86a61),
        ("sssp-weighted/branch-based", 116, 0x81c0aa12ac147139, 0x286a1da5456e6375),
        ("sssp-weighted/branch-avoiding", 116, 0x7dcf75f46883f441, 0x541eafec5528724d),
        ("sssp-weighted/auto", 120, 0x3df4996767dadf51, 0xe8925ed402e6bdd9),
        ("bc/branch-based", 64, 0x0360952be2409e61, 0xdd37b9eda29e9055),
        ("bc/branch-avoiding", 64, 0x6b3e6fc3a3d29e51, 0xdd37b9eda29e9055),
        ("bc/auto", 68, 0x82465a0d7ff94695, 0xdd37b9eda29e9055),
        ("kcore/branch-based", 78, 0xd04b072fe03befa5, 0x2ea4bb8c852adced),
        ("kcore/branch-avoiding", 78, 0x6c3ccd84d724a985, 0xc5efba94691901c5),
        ("kcore/auto", 82, 0x1cc77be8e09dcf49, 0x76dab0c65619131d),
    ];
    assert_eq!(rows.len(), expected.len());
    for (got, &(name, events, trace, counters)) in rows.iter().zip(expected) {
        assert_eq!(got.0, name);
        assert_eq!((got.1, got.2, got.3), (events, trace, counters), "{name}");
    }
}
