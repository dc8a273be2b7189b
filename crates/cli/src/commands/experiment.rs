//! `bga experiment`: quick textual versions of the paper's tables, a suite
//! summary, and the strong-scaling experiment for the parallel kernels
//! (`scaling --json` emits the rows as the JSON document CI archives as
//! `BENCH_pr.json`). The full per-figure harnesses live in `bga-bench`.

use bga_branchsim::all_machine_models;
use bga_graph::properties::connected_component_count;
use bga_graph::suite::{benchmark_suite, suite_table, SuiteScale};
use bga_graph::{uniform_weights, CompressedCsrGraph, CompressedWeightedGraph};
use bga_kernels::bfs::bfs_branch_based_instrumented;
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::cc::{sv_branch_avoiding_instrumented, sv_branch_based_instrumented};
use bga_parallel::request::{
    run_betweenness, run_bfs, run_components, run_kcore, run_sssp_unit, run_sssp_weighted,
};
use bga_parallel::{resolve_threads, BfsStrategy, RunConfig, Variant};
use bga_perfmodel::timing::modeled_speedup;
use std::time::Instant;

/// Experiment names, for the help/error text.
pub const EXPERIMENTS: &str = "table1, table2, suite-summary, scaling";

/// Thread counts the scaling experiment sweeps.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// How many BFS sources the scaling experiment's betweenness rows
/// accumulate (full all-sources Brandes would dwarf every other row).
const BC_SCALING_SOURCES: usize = 4;

/// Bucket width of the weighted SSSP scaling rows. With weights drawn
/// from `1..=32`, Δ = 4 genuinely splits light from heavy edges, so the
/// rows measure the full bucket loop (light phases + deferred heavy
/// passes), not a degenerate configuration.
const WEIGHTED_SSSP_DELTA: u32 = 4;

/// Weight range and seed of the weighted scaling rows (the `bga sssp
/// --weights uniform` defaults).
const WEIGHTED_SSSP_MAX_WEIGHT: u32 = 32;
const WEIGHTED_SSSP_SEED: u64 = 42;

/// Runs the `experiment` subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(|s| s.as_str()) {
        Some("table1") => {
            println!(
                "{:<12} {:<10} {:<22} {:>6}  {:>5} {:>6} {:>6}",
                "uarch", "isa", "processor", "GHz", "L1KiB", "L2KiB", "L3KiB"
            );
            for m in all_machine_models() {
                println!(
                    "{:<12} {:<10} {:<22} {:>6.1}  {:>5} {:>6} {:>6}",
                    m.name,
                    match m.isa {
                        bga_branchsim::machine_model::Isa::Arm => "ARM v7-A",
                        bga_branchsim::machine_model::Isa::X86_64 => "x86-64",
                    },
                    m.processor,
                    m.frequency_ghz,
                    m.l1_kib,
                    m.l2_kib,
                    m.l3_kib
                );
            }
            Ok(())
        }
        Some("table2") => {
            let suite = benchmark_suite(SuiteScale::Small, 42);
            println!(
                "{:<15} {:<14} {:>12} {:>12} {:>10} {:>10}",
                "graph", "type", "paper |V|", "paper |E|", "standin|V|", "standin|E|"
            );
            for row in suite_table(&suite) {
                println!(
                    "{:<15} {:<14} {:>12} {:>12} {:>10} {:>10}",
                    row.name,
                    row.graph_type,
                    row.paper_vertices,
                    row.paper_edges,
                    row.standin_vertices,
                    row.standin_edges
                );
            }
            Ok(())
        }
        Some("suite-summary") => {
            let suite = benchmark_suite(SuiteScale::Small, 42);
            println!(
                "{:<15} {:>10} {:>12} {:>20} {:>22}",
                "graph", "sv-sweeps", "bfs-levels", "sv-speedup(Haswell)", "sv-speedup(Bonnell)"
            );
            let machines = all_machine_models();
            let haswell = machines
                .iter()
                .find(|m| m.name == "Haswell")
                .expect("exists");
            let bonnell = machines
                .iter()
                .find(|m| m.name == "Bonnell")
                .expect("exists");

            // Each suite graph is analysed independently, so fan the five of
            // them out over scoped threads; joining the handles in spawn
            // order keeps the rows ordered and turns a worker panic into a
            // clean CLI error instead of aborting the process.
            let rows: Vec<std::thread::Result<String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = suite
                    .iter()
                    .map(|sg| {
                        scope.spawn(move || {
                            let based = sv_branch_based_instrumented(&sg.graph);
                            let avoiding = sv_branch_avoiding_instrumented(&sg.graph);
                            let bfs = bfs_branch_based_instrumented(&sg.graph, 0);
                            let s_h = modeled_speedup(&based.counters, &avoiding.counters, haswell)
                                .unwrap_or(f64::NAN);
                            let s_b = modeled_speedup(&based.counters, &avoiding.counters, bonnell)
                                .unwrap_or(f64::NAN);
                            format!(
                                "{:<15} {:>10} {:>12} {:>20.3} {:>22.3}",
                                sg.name(),
                                based.iterations(),
                                bfs.levels(),
                                s_h,
                                s_b
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for row in rows {
                let line = row.map_err(|_| "a suite-analysis thread panicked".to_string())?;
                println!("{line}");
            }
            Ok(())
        }
        Some("scaling") => {
            let json = args.iter().any(|a| a == "--json");
            run_scaling(json);
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown experiment {other:?} (expected one of: {EXPERIMENTS})"
        )),
        None => Err(format!("experiment needs a name ({EXPERIMENTS})")),
    }
}

/// One measured configuration of the scaling sweep.
struct ScalingRow {
    graph: &'static str,
    kernel: &'static str,
    variant: &'static str,
    threads: usize,
    time_ms: f64,
    speedup: f64,
}

/// Sweeps one kernel over [`SCALING_THREADS`], timing each configuration
/// and computing its speedup over the kernel's own single-thread run.
fn sweep_kernel(
    rows: &mut Vec<ScalingRow>,
    graph: &'static str,
    kernel: &'static str,
    variant: &'static str,
    mut run: impl FnMut(usize),
) {
    let mut single_thread_ms = None;
    for threads in SCALING_THREADS {
        let start = Instant::now();
        run(threads);
        let time_ms = start.elapsed().as_secs_f64() * 1e3;
        let baseline = *single_thread_ms.get_or_insert(time_ms);
        rows.push(ScalingRow {
            graph,
            kernel,
            variant,
            threads,
            time_ms,
            speedup: baseline / time_ms.max(f64::MIN_POSITIVE),
        });
    }
}

/// Strong-scaling sweep: the parallel SV variants (including the runtime
/// `auto` selection ablation), direction-optimizing
/// BFS, sampled-source Brandes betweenness, k-core peeling, unit-weight
/// SSSP (static and `auto`) and weighted delta-stepping SSSP on every
/// suite graph at 1, 2, 4
/// and 8 worker threads — plus the BFS and SSSP sweeps repeated on the
/// group-varint compressed representation so decode overhead is a tracked
/// quantity — with
/// per-thread-count wall-clock timings and the speedup of each
/// configuration over its own single-thread run. With `json` the rows are
/// emitted as a single JSON document (the `BENCH_pr.json` CI artifact)
/// instead of the table.
fn run_scaling(json: bool) {
    let single_core = resolve_threads(0) == 1;
    // On a single-core host every configuration runs the same one worker,
    // so "speedup" is pool overhead, not scaling. Say so up front — naming
    // the kernels the warning applies to — instead of silently reporting
    // ≈1.0x. In JSON mode the flag rides along in the document.
    if single_core && !json {
        println!(
            "warning: single available core — the cc sv, bfs dir-opt, \
             bc, kcore and sssp speedups below measure pool overhead, \
             not strong scaling; rerun on a multicore host for \
             meaningful numbers"
        );
    }
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let mut rows = Vec::new();
    let mut skip_notes = Vec::new();
    let config_for = |threads: usize| RunConfig::new().threads(threads);
    for sg in &suite {
        for sv_variant in [Variant::BranchBased, Variant::BranchAvoiding, Variant::Auto] {
            sweep_kernel(&mut rows, sg.name(), "cc", sv_variant.as_str(), |threads| {
                let (run, _) = run_components(&sg.graph, sv_variant, &config_for(threads));
                // Guard against a miscompiled/misbehaving run: the label
                // set must stay consistent across thread counts.
                assert_eq!(run.labels.len(), sg.graph.num_vertices());
            });
        }
        // Direction-optimizing BFS: the frontier-shape regime where the
        // persistent pool and bitmap frontiers matter.
        let dir_opt = BfsStrategy::DirectionOptimizing(DirectionConfig::default());
        sweep_kernel(&mut rows, sg.name(), "bfs", "dir-opt", |threads| {
            let (run, _) = run_bfs(&sg.graph, 0, dir_opt, &config_for(threads));
            assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
        });
        // Brandes betweenness over a fixed source sample.
        if let Some(note) = bc_scaling_skip_note(connected_component_count(&sg.graph)) {
            skip_notes.push((sg.name(), note));
        } else {
            let sources: Vec<u32> =
                (0..BC_SCALING_SOURCES.min(sg.graph.num_vertices()) as u32).collect();
            sweep_kernel(&mut rows, sg.name(), "bc", "branch-avoiding", |threads| {
                let (run, _) = run_betweenness(
                    &sg.graph,
                    Variant::BranchAvoiding,
                    Some(&sources),
                    &config_for(threads),
                );
                assert_eq!(run.scores.len(), sg.graph.num_vertices());
            });
        }
        // k-core peeling over atomic degree counters.
        sweep_kernel(
            &mut rows,
            sg.name(),
            "kcore",
            "branch-avoiding",
            |threads| {
                let (run, _) = run_kcore(&sg.graph, Variant::BranchAvoiding, &config_for(threads));
                assert_eq!(run.cores.len(), sg.graph.num_vertices());
            },
        );
        // Unit-weight SSSP on the engine's level loop, plus the adaptive
        // ablation row: `auto` should track the better static discipline
        // within a few percent (the runtime-selection overhead).
        for sssp_variant in [Variant::BranchAvoiding, Variant::Auto] {
            sweep_kernel(
                &mut rows,
                sg.name(),
                "sssp",
                sssp_variant.as_str(),
                |threads| {
                    let (run, _) = run_sssp_unit(&sg.graph, 0, sssp_variant, &config_for(threads));
                    assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
                },
            );
        }
        // Weighted delta-stepping SSSP on the engine's bucket loop, over
        // seeded uniform weights (the `--weights uniform` assignment).
        let wg = uniform_weights(&sg.graph, WEIGHTED_SSSP_MAX_WEIGHT, WEIGHTED_SSSP_SEED);
        sweep_kernel(&mut rows, sg.name(), "sssp", "weighted", |threads| {
            let (run, _) = run_sssp_weighted(
                &wg,
                0,
                WEIGHTED_SSSP_DELTA,
                Variant::BranchAvoiding,
                &config_for(threads),
            );
            assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
        });
        // The same traversals on the group-varint compressed representation:
        // the time_ms delta against the rows above is the decode overhead
        // `bga bench compare` tracks across snapshots.
        let cg = CompressedCsrGraph::from_csr(&sg.graph);
        sweep_kernel(
            &mut rows,
            sg.name(),
            "bfs",
            "dir-opt-compressed",
            |threads| {
                let (run, _) = run_bfs(&cg, 0, dir_opt, &config_for(threads));
                assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
            },
        );
        sweep_kernel(&mut rows, sg.name(), "sssp", "compressed", |threads| {
            let (run, _) = run_sssp_unit(&cg, 0, Variant::BranchAvoiding, &config_for(threads));
            assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
        });
        let cwg = CompressedWeightedGraph::from_weighted(&wg);
        sweep_kernel(
            &mut rows,
            sg.name(),
            "sssp",
            "weighted-compressed",
            |threads| {
                let (run, _) = run_sssp_weighted(
                    &cwg,
                    0,
                    WEIGHTED_SSSP_DELTA,
                    Variant::BranchAvoiding,
                    &config_for(threads),
                );
                assert_eq!(run.result.distances().len(), sg.graph.num_vertices());
            },
        );
    }
    // Contrast check mirroring the paper's message: identical results from
    // both hooking disciplines (runs in both output modes).
    let g = &suite[0].graph;
    let (based, _) = run_components(g, Variant::BranchBased, &config_for(0));
    let (avoiding, _) = run_components(g, Variant::BranchAvoiding, &config_for(0));
    let based = based.labels;
    assert_eq!(based.as_slice(), avoiding.labels.as_slice());

    if json {
        println!("{}", render_scaling_json(single_core, &rows, &skip_notes));
        return;
    }
    println!(
        "{:<15} {:<22} {:>8} {:>12} {:>10}",
        "graph", "kernel", "threads", "time(ms)", "speedup"
    );
    for row in &rows {
        println!(
            "{:<15} {:<22} {:>8} {:>12.3} {:>9.2}x",
            row.graph,
            format!("{}/{}", row.kernel, row.variant),
            row.threads,
            row.time_ms,
            row.speedup
        );
    }
    for (graph, note) in &skip_notes {
        println!("{graph:<15} {:<22} {note}", "bc/branch-avoiding");
    }
    println!(
        "check: branch-based and branch-avoiding SV agree on {} ({} components)",
        suite[0].name(),
        based.component_count()
    );
}

/// Renders the scaling rows as the `BENCH_pr.json` document: a schema tag
/// (`bga-scaling-v2` — v2 added the weighted SSSP rows; `bga bench
/// compare` accepts both v1 and v2), the thread counts swept, the
/// single-core-host flag, one object per measured configuration, and one
/// object per deliberately skipped sweep
/// (so a trend consumer can tell "skipped by design" from "rows went
/// missing"). Hand-rolled (the workspace is offline, no serde); every
/// value is a number, a bool or a known-safe ASCII name — except the skip
/// reasons, which are escaped.
fn render_scaling_json(
    single_core: bool,
    rows: &[ScalingRow],
    skip_notes: &[(&str, String)],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bga-scaling-v2\",\n");
    out.push_str(&format!(
        "  \"threads_swept\": [{}],\n",
        SCALING_THREADS.map(|t| t.to_string()).join(", ")
    ));
    out.push_str(&format!("  \"single_core_host\": {single_core},\n"));
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let comma = if index + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"graph\": \"{}\", \"kernel\": \"{}\", \"variant\": \"{}\", \
             \"threads\": {}, \"time_ms\": {:.3}, \"speedup\": {:.3}}}{comma}\n",
            row.graph, row.kernel, row.variant, row.threads, row.time_ms, row.speedup
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"skipped\": [\n");
    for (index, (graph, reason)) in skip_notes.iter().enumerate() {
        let comma = if index + 1 < skip_notes.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"graph\": \"{graph}\", \"kernel\": \"bc\", \"reason\": \"{}\"}}{comma}\n",
            json_escape(reason)
        ));
    }
    out.push_str("  ]\n}");
    out
}

/// Minimal JSON string escaping for the free-text skip reasons.
fn json_escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            other => std::iter::once(other).collect(),
        })
        .collect()
}

/// Why the scaling experiment's betweenness rows are skipped for a graph
/// with this many connected components, or `None` when they should run.
/// Betweenness only counts vertex pairs *within* a component (there are
/// no shortest paths across components), so on a disconnected graph a
/// small source sample would mix per-component normalizations into one
/// misleading column.
fn bc_scaling_skip_note(components: usize) -> Option<String> {
    (components > 1).then(|| {
        format!(
            "skipped: graph has {components} components; sampled-source \
             betweenness normalises per component"
        )
    })
}

/// Sequential-vs-parallel sanity check used by the tests: both execution
/// modes must produce identical labels on a suite graph.
#[cfg(test)]
fn parallel_matches_sequential() -> bool {
    use bga_kernels::cc::{sv_branch_avoiding, sv_branch_based};
    let suite = benchmark_suite(SuiteScale::Small, 42);
    let g = &suite[2].graph; // coAuthorsDBLP stand-in
    let seq = sv_branch_based(g);
    let seq_avoiding = sv_branch_avoiding(g);
    let config = RunConfig::new().threads(2);
    let (par, _) = run_components(g, Variant::BranchBased, &config);
    let (par_avoiding, _) = run_components(g, Variant::BranchAvoiding, &config);
    seq.as_slice() == par.labels.as_slice()
        && seq_avoiding.as_slice() == par_avoiding.labels.as_slice()
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_experiments_run() {
        assert!(super::run(&["table1".to_string()]).is_ok());
        assert!(super::run(&["table2".to_string()]).is_ok());
        assert!(super::run(&["bogus".to_string()]).is_err());
        assert!(super::run(&[]).is_err());
    }

    #[test]
    fn error_text_lists_the_scaling_experiment() {
        let err = super::run(&["bogus".to_string()]).unwrap_err();
        assert!(err.contains("scaling"), "error text was {err:?}");
        let err = super::run(&[]).unwrap_err();
        assert!(err.contains("scaling"), "error text was {err:?}");
    }

    #[test]
    fn scaling_inputs_agree_across_execution_modes() {
        assert!(super::parallel_matches_sequential());
    }

    #[test]
    fn scaling_json_document_carries_every_kernel_family() {
        let mut rows: Vec<super::ScalingRow> = ["cc", "bfs", "bc", "kcore", "sssp"]
            .iter()
            .map(|kernel| super::ScalingRow {
                graph: "audikw1",
                kernel,
                variant: "branch-avoiding",
                threads: 2,
                time_ms: 1.5,
                speedup: 1.9,
            })
            .collect();
        rows.push(super::ScalingRow {
            graph: "audikw1",
            kernel: "sssp",
            variant: "weighted",
            threads: 2,
            time_ms: 1.5,
            speedup: 1.9,
        });
        rows.push(super::ScalingRow {
            graph: "audikw1",
            kernel: "sssp",
            variant: "compressed",
            threads: 2,
            time_ms: 1.7,
            speedup: 1.8,
        });
        let skips = vec![(
            "auto",
            "graph has 3 components; \"per component\"".to_string(),
        )];
        let doc = super::render_scaling_json(true, &rows, &skips);
        assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
        assert!(doc.contains("\"schema\": \"bga-scaling-v2\""));
        assert!(doc.contains("\"variant\": \"weighted\""));
        assert!(doc.contains("\"variant\": \"compressed\""));
        assert!(doc.contains("\"single_core_host\": true"));
        assert!(doc.contains("\"threads_swept\": [1, 2, 4, 8]"));
        for kernel in ["cc", "bfs", "bc", "kcore", "sssp"] {
            assert!(
                doc.contains(&format!("\"kernel\": \"{kernel}\"")),
                "missing {kernel} row in {doc}"
            );
        }
        assert!(doc.contains("\"time_ms\": 1.500"));
        assert!(doc.contains("\"speedup\": 1.900"));
        // No trailing comma after the last row.
        assert!(!doc.contains("}},\n  ]"));
        // Deliberate skips are recorded (with quotes escaped), not dropped.
        assert!(doc.contains("\"skipped\": ["));
        assert!(doc.contains(
            "{\"graph\": \"auto\", \"kernel\": \"bc\", \
             \"reason\": \"graph has 3 components; \\\"per component\\\"\"}"
        ));
        // An empty sweep is still a well-formed document.
        let empty = super::render_scaling_json(false, &[], &[]);
        assert!(empty.contains("\"rows\": [\n  ],"));
        assert!(empty.contains("\"skipped\": [\n  ]"));
    }

    #[test]
    fn bc_rows_are_skipped_exactly_for_disconnected_graphs() {
        assert!(super::bc_scaling_skip_note(1).is_none());
        let note = super::bc_scaling_skip_note(3).unwrap();
        assert!(note.contains("3 components"), "{note:?}");
        assert!(note.contains("per component"), "{note:?}");
    }
}
