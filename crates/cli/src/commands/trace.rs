//! `bga trace`: work with `bga-trace-v1` JSONL documents.
//!
//! The kernel subcommands write one with `--threads N --trace out.jsonl`.
//! `bga trace report <file>` renders the run header, the per-phase table,
//! the worker-pool metrics and the paper's misprediction-bound crossover
//! summary; `bga trace validate <file>` checks the stream invariants
//! (run-start header, consecutive phase indices, totals that sum) and is
//! the CI smoke gate for the traced paths.

use bga_obs::{parse_trace, phase_table, validate_trace, JsonlSink, TraceReport};
use bga_perfmodel::bounds::{
    bfs_misprediction_lower_bound, bfs_misprediction_upper_bound, ratio_to_bound,
    sv_misprediction_lower_bound,
};
use std::fs;
use std::fs::File;
use std::io::{BufWriter, Write};

/// The sink the kernel commands write `--trace` files through.
pub(super) type FileSink = JsonlSink<BufWriter<File>>;

/// Parses `--trace FILE`: `None` when the flag is absent. A bare
/// `--trace` with no path is an error, not a silently untraced run.
pub(super) fn parse_trace_path(args: &[String]) -> Result<Option<&str>, String> {
    super::common_args::parse_flag(args, "--trace", Ok)
}

/// Opens `path` for writing and wraps it in a [`JsonlSink`].
pub(super) fn open_trace_sink(path: &str) -> Result<FileSink, String> {
    let file = File::create(path).map_err(|e| format!("cannot create trace file {path}: {e}"))?;
    Ok(JsonlSink::new(BufWriter::new(file)))
}

/// Finishes a `--trace` sink, surfacing any write error the sink
/// swallowed mid-run.
pub(super) fn finish_trace_sink(path: &str, sink: FileSink) -> Result<(), String> {
    sink.finish()
        .and_then(|mut writer| writer.flush())
        .map_err(|e| format!("writing trace file {path}: {e}"))
}

/// Runs the `trace` subcommand family.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(|s| s.as_str()) {
        Some("report") => report(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some(other) => Err(format!(
            "unknown trace action {other:?} (expected report or validate)"
        )),
        None => {
            Err("trace needs an action (report <trace.jsonl> | validate <trace.jsonl>)".to_string())
        }
    }
}

/// Reads, parses and validates a trace document.
fn load_report(path: &str) -> Result<TraceReport, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    validate_trace(&events).map_err(|e| format!("{path}: {e}"))
}

fn validate(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("trace validate needs exactly one file: <trace.jsonl>".to_string());
    };
    let report = load_report(path)?;
    println!(
        "{path}: ok ({}/{}, {} phases, {} pool batches, totals consistent)",
        report.kernel,
        report.variant,
        report.phases.len(),
        report.pool_batches
    );
    Ok(())
}

fn report(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("trace report needs exactly one file: <trace.jsonl>".to_string());
    };
    let report = load_report(path)?;
    println!("kernel: {} ({})", report.kernel, report.variant);
    println!(
        "graph: {} vertices, {} edge slots",
        report.vertices, report.edges
    );
    if let Some(fp) = &report.footprint {
        println!(
            "footprint: {} representation, {} adjacency + {} index = {} bytes \
             ({:.2}x vs raw CSR)",
            fp.representation,
            fp.adjacency_bytes,
            fp.index_bytes,
            fp.total_bytes(),
            fp.ratio()
        );
    }
    print!("threads: {}; grain: {}", report.threads, report.grain);
    if let Some(delta) = report.delta {
        print!("; delta: {delta}");
    }
    if let Some(root) = report.root {
        print!("; root: {root}");
    }
    println!();
    println!(
        "phases: {}; wall clock: {:.3} ms",
        report.phases.len(),
        report.wall_ns as f64 / 1e6
    );
    print!("{}", phase_table(&report.phases).render());
    if let Some(decision) = &report.decision {
        println!(
            "advisor: chose {} after phase {} ({}; sampled {} phases: \
             {} edges, {} updates, misprediction bound {})",
            decision.variant,
            decision.phase,
            if decision.switched {
                "switched"
            } else {
                "stayed"
            },
            decision.sampled,
            decision.edges,
            decision.updates,
            decision.mispredictions,
        );
    }
    if let Some(pool) = report.pool {
        println!(
            "pool: {} batches, {} parks, {} wakes; max imbalance {:.2}",
            pool.batches, pool.parks, pool.wakes, report.max_imbalance
        );
    }
    print_bound_summary(&report);
    Ok(())
}

/// The variant-crossover summary: measured mispredictions against the
/// paper's analytical bounds (Sections 4-5). A branch-avoiding run sits
/// near the lower bound — the mispredictions no discipline can avoid —
/// while a branch-based run pays up to the upper bound; the gap, priced
/// against the conditional moves the avoiding variant issues instead, is
/// what decides the crossover.
fn print_bound_summary(report: &TraceReport) {
    let measured = report.totals.mispredictions;
    let cmovs = report.totals.conditional_moves;
    match report.kernel.as_str() {
        // Level-synchronous traversals: the BFS bounds apply, with |V̂| =
        // the root plus every per-level discovery.
        "bfs" | "sssp" => {
            let found = 1 + report
                .phases
                .iter()
                .map(|phase| phase.discovered)
                .sum::<usize>();
            let lower = bfs_misprediction_lower_bound(found);
            let upper = bfs_misprediction_upper_bound(found);
            println!("misprediction bounds (BFS model, {found} vertices found):");
            println!(
                "  measured: {measured} ({:.2}x the lower bound)",
                ratio_to_bound(measured, lower)
            );
            println!("  lower bound: {lower}; branch-based upper bound: {upper}");
            println!(
                "  crossover: branch-avoiding trades up to {} avoidable mispredictions \
                 for {cmovs} conditional moves",
                upper.saturating_sub(lower)
            );
        }
        "cc" => {
            let sweeps = report.phases.len();
            let lower = sv_misprediction_lower_bound(report.vertices, sweeps);
            println!("misprediction bounds (SV model, {sweeps} sweeps):");
            println!(
                "  measured: {measured} ({:.2}x the lower bound)",
                ratio_to_bound(measured, lower)
            );
            println!("  lower bound: {lower}");
            println!(
                "  crossover: branch-avoiding replaces the hook's data-dependent \
                 branch with {cmovs} conditional moves"
            );
        }
        other => {
            println!(
                "misprediction bounds: no analytical bound for kernel {other:?} \
                 (measured {measured}, conditional moves {cmovs})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{grid_2d, MeshStencil};
    use bga_parallel::request::{run_bfs, run_components, run_sssp_unit};
    use bga_parallel::{BfsStrategy, RunConfig, Variant};

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bga_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    /// Runs a real traced kernel into a byte buffer and lands it on disk.
    fn real_trace(name: &str, kernel: &str) -> std::path::PathBuf {
        let graph = grid_2d(8, 8, MeshStencil::VonNeumann);
        let sink = JsonlSink::new(Vec::new());
        let config = RunConfig::new().threads(2).traced(&sink);
        match kernel {
            "cc" => {
                run_components(&graph, Variant::BranchBased, &config);
            }
            "bfs" => {
                run_bfs(
                    &graph,
                    0,
                    BfsStrategy::Plain(Variant::BranchAvoiding),
                    &config,
                );
            }
            "sssp" => {
                run_sssp_unit(&graph, 0, Variant::BranchAvoiding, &config);
            }
            other => panic!("no traced fixture for {other}"),
        }
        write_temp(name, &sink.finish().unwrap())
    }

    #[test]
    fn validates_and_reports_real_traces() {
        for kernel in ["cc", "bfs", "sssp"] {
            let path = real_trace(&format!("{kernel}.jsonl"), kernel);
            let args = |action: &str| strings(&[action, path.to_str().unwrap()]);
            assert!(run(&args("validate")).is_ok(), "{kernel} validate failed");
            assert!(run(&args("report")).is_ok(), "{kernel} report failed");
        }
    }

    #[test]
    fn auto_traces_report_the_advisor_decision() {
        let graph = grid_2d(8, 8, MeshStencil::VonNeumann);
        let sink = JsonlSink::new(Vec::new());
        let config = RunConfig::new().threads(2).traced(&sink);
        run_bfs(&graph, 0, BfsStrategy::Plain(Variant::Auto), &config);
        let path = write_temp("auto.jsonl", &sink.finish().unwrap());
        let report = load_report(path.to_str().unwrap()).unwrap();
        let decision = report.decision.expect("auto run emits a decision event");
        assert!(decision.sampled > 0);
        assert!(!decision.variant.is_empty());
        let args = |action: &str| strings(&[action, path.to_str().unwrap()]);
        assert!(run(&args("validate")).is_ok());
        assert!(run(&args("report")).is_ok());
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let path = real_trace("whole.jsonl", "cc");
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the run-end trailer: validation must fail.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let truncated = write_temp("truncated.jsonl", lines.join("\n").as_bytes());
        let err = run(&strings(&["validate", truncated.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("run-end"), "{err}");
        // Garbage lines name their line number.
        let garbled = write_temp("garbled.jsonl", b"not json\n");
        let err = run(&strings(&["report", garbled.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn bad_usage_fails_loudly() {
        assert!(run(&[]).is_err());
        assert!(run(&strings(&["render", "x.jsonl"])).is_err());
        assert!(run(&strings(&["report"])).is_err());
        assert!(run(&strings(&["validate", "a.jsonl", "b.jsonl"])).is_err());
        assert!(run(&strings(&["validate", "/no/such/file.jsonl"])).is_err());
    }

    #[test]
    fn trace_flag_parsing() {
        assert_eq!(
            parse_trace_path(&strings(&["g", "--trace", "out.jsonl"])).unwrap(),
            Some("out.jsonl")
        );
        assert_eq!(parse_trace_path(&strings(&["g"])).unwrap(), None);
        assert!(parse_trace_path(&strings(&["g", "--trace"])).is_err());
    }
}
