//! `bga cc|bfs|bc|kcore|sssp`: one command for the five kernels.
//!
//! An [`Invocation`] is the shared [`CommonArgs`] plus the kernel's own
//! flags, checked against the kernel's [`Row`] before the graph loads.
//! Without `--threads` it runs the kernel's sequential reference; with
//! `--threads N` it is one [`request::run`] call, or [`run_sssp_weighted`]
//! for weighted SSSP. Either way the result is a [`KernelOutput`], so one
//! timer, one trace sink, one deadline check and one printer per output
//! arm serve all five kernels.

use super::common_args::{flag_value, number, parse_flag, parse_number, reject_first, CommonArgs};
use super::graph_input::{footprint_line, KernelGraph};
use super::trace::{finish_trace_sink, open_trace_sink};
use super::CliError;
use bga_graph::properties::largest_component;
use bga_graph::{CsrGraph, VertexId};
use bga_kernels::bfs::direction_optimizing::{bfs_direction_optimizing, DirectionConfig};
use bga_kernels::bfs::frontier::check_bfs_invariants;
use bga_kernels::{bc, bfs, cc, sssp, CoreDecomposition, RunCounters, SsspResult};
use bga_obs::{step_table, TraceSink};
use bga_parallel::request::{self, run_sssp_weighted};
use bga_parallel::{resolve_threads, BfsStrategy, KernelOutput, KernelRequest, RunConfig};
use bga_parallel::{ParBcRun, ParDirBfsRun, ParKcoreRun, ParSvRun, ParWssspRun};
use bga_parallel::{RunOutcome, Variant};
use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Cc,
    Bfs,
    Bc,
    Kcore,
    Sssp,
}

/// The `--variant` values one execution path accepts.
#[derive(Clone, Copy)]
enum Vocabulary {
    /// Any spelling [`Variant`] parses, aliases included.
    Engine,
    /// Exactly these names: the sequential cc and bfs kernels.
    Names(&'static str),
    /// A fixed reference, named here, that takes no `--variant`.
    Reference(&'static str),
}

/// What differs between the kernel commands.
struct Row {
    kernel: Kernel,
    name: &'static str,
    default_variant: &'static str,
    sequential: Vocabulary,
    parallel: Vocabulary,
    /// What the summary calls `--root`; `None` for kernels without one.
    root: Option<&'static str>,
}

use Vocabulary::{Engine, Names, Reference};

#[rustfmt::skip]
const ROWS: [Row; 5] = [
    Row { kernel: Kernel::Cc, name: "cc", default_variant: "branch-avoiding", root: None,
          sequential: Names("branch-based branch-avoiding hybrid union-find bfs"), parallel: Engine },
    Row { kernel: Kernel::Bfs, name: "bfs", default_variant: "branch-based", root: Some("root"),
          sequential: Names("branch-based branch-avoiding bottom-up direction-optimizing"),
          parallel: Names("branch-based branch-avoiding auto direction-optimizing") },
    Row { kernel: Kernel::Bc, name: "bc", default_variant: "branch-avoiding", root: None,
          sequential: Engine, parallel: Engine },
    Row { kernel: Kernel::Kcore, name: "kcore", default_variant: "branch-avoiding", root: None,
          sequential: Reference("peeling"), parallel: Engine },
    Row { kernel: Kernel::Sssp, name: "sssp", default_variant: "branch-avoiding",
          root: Some("source"), sequential: Reference("delta-stepping"), parallel: Engine },
];

/// One kernel invocation, parsed and cross-checked before the graph loads.
struct Invocation<'a> {
    row: &'static Row,
    graph: &'a str,
    common: CommonArgs<'a>,
    /// The `--variant` that runs (the row's default when absent).
    variant: &'a str,
    /// `--root`; `None` picks a vertex of the largest component.
    root: Option<VertexId>,
    /// bfs `--strategy`: the direction policy it names.
    strategy: Option<DirectionConfig>,
    /// bc `--sources K`: accumulate from the first `K` vertices only.
    sources: Option<usize>,
    /// sssp `--delta`, the bucket width.
    delta: u32,
    /// sssp `--weights`: `unit`, `uniform` or `file`.
    weights: &'a str,
}

impl<'a> Invocation<'a> {
    fn parse(row: &'static Row, args: &'a [String]) -> Result<Self, String> {
        let graph = args.first().ok_or(format!("{} needs a graph", row.name))?;
        // A kernel reads its own flags only; like any unknown flag, the
        // other kernels' flags are ignored.
        let own = |kernel| if row.kernel == kernel { args } else { &[] };
        let rooted = if row.root.is_some() { args } else { &[] };
        let strategy = parse_flag(own(Kernel::Bfs), "--strategy", |text| match text {
            "auto" => Ok(DirectionConfig::default()),
            "top-down" => Ok(DirectionConfig::always_top_down()),
            "bottom-up" => Ok(DirectionConfig::always_bottom_up()),
            _ => Err("--strategy is auto, top-down or bottom-up".to_string()),
        })?;
        let common = CommonArgs::parse(args)?;
        // `--strategy` implies the direction-optimizing traversal.
        let default = strategy.map_or(row.default_variant, |_| "direction-optimizing");
        let inv = Invocation {
            row,
            graph,
            variant: common.variant.unwrap_or(default),
            common,
            // A bare `--root` keeps the default root.
            root: flag_value(rooted, "--root")
                .map(|text| number("--root", text))
                .transpose()?,
            strategy,
            sources: parse_number(own(Kernel::Bc), "--sources")?,
            delta: parse_number(own(Kernel::Sssp), "--delta")?.unwrap_or(1),
            weights: parse_flag(own(Kernel::Sssp), "--weights", Ok)?.unwrap_or("unit"),
        };
        inv.check()?;
        Ok(inv)
    }

    /// Enforces the kernel rules the flags alone cannot: which variants
    /// each path runs, and which flags need which others.
    fn check(&self) -> Result<(), String> {
        let (row, variant, common) = (self.row, self.variant, &self.common);
        let (parallel, instrumented) = (common.threads.is_some(), common.instrumented);
        let explicit = common.variant.map(str::parse::<Variant>);
        let counted = matches!(variant, "branch-based" | "branch-avoiding");
        let (weights, sources) = (self.weights, self.sources.is_some());
        let bc = row.kernel == Kernel::Bc;
        #[rustfmt::skip]
        let rules = [
            (!matches!(weights, "unit" | "uniform" | "file"), "--weights is unit, uniform or file"),
            (self.strategy.is_some() && variant != "direction-optimizing",
             "--strategy applies to direction-optimizing only"),
            (instrumented && bc, "bc has no --instrumented counters; use --trace FILE"),
            (bc && common.token.is_some() && !sources,
             "--timeout-ms requires --sources K (the cancellable sampled accumulation)"),
            (!parallel && sources && explicit == Some(Ok(Variant::BranchAvoiding)),
             "sequential --sources runs branch-based only; add --threads N"),
            (self.delta == 0, "--delta must be ≥ 1"),
            (parallel && weights == "unit" && self.delta != 1,
             "--delta needs --weights uniform|file on --threads N (the unit-weight client is \
              the Δ = 1 level loop)"),
            (!parallel && variant == "auto", "--variant auto requires --threads N (it samples engine phases)"),
            (instrumented && !parallel && !(counted && matches!(row.sequential, Names(_))),
             "--instrumented without --threads N counts branch-based or branch-avoiding cc and bfs only"),
        ];
        reject_first(&rules)?;
        let (mode, vocabulary) = match parallel {
            true => ("--threads N", row.parallel),
            false => ("sequential", row.sequential),
        };
        let expected = match vocabulary {
            Engine if variant.parse::<Variant>().is_err() => {
                "branch-based, branch-avoiding or auto"
            }
            Names(names) if !names.split(' ').any(|name| name == variant) => names,
            Reference(reference) if explicit.is_some() => {
                return Err(format!("the sequential run is the {reference} reference"));
            }
            _ => return Ok(()),
        };
        let name = row.name;
        Err(format!("{mode} {name} runs {expected}, not {variant:?}"))
    }

    /// The parallel run: [`request::run`], or [`run_sssp_weighted`] for
    /// the weighted SSSP `request::run` refuses. `check` admitted only
    /// engine variants and bfs's direction-optimizing traversal.
    fn dispatch<S: TraceSink>(
        &self,
        graph: &KernelGraph,
        root: VertexId,
        config: &RunConfig<'_, S>,
    ) -> (KernelOutput, RunOutcome) {
        let parsed = self.variant.parse::<Variant>();
        if let (KernelGraph::Weighted(wg), Ok(variant)) = (graph, &parsed) {
            let (run, outcome) = run_sssp_weighted(wg, root, self.delta, *variant, config);
            return (KernelOutput::SsspWeighted(run), outcome);
        }
        let request = match (self.row.kernel, parsed) {
            (Kernel::Bfs, parsed) => {
                let optimizing =
                    BfsStrategy::DirectionOptimizing(self.strategy.unwrap_or_default());
                let strategy = parsed.map_or(optimizing, BfsStrategy::Plain);
                KernelRequest::Bfs { root, strategy }
            }
            (_, Err(_)) => unreachable!("check admits engine variants only"),
            (Kernel::Cc, Ok(variant)) => KernelRequest::Components { variant },
            (Kernel::Kcore, Ok(variant)) => KernelRequest::Kcore { variant },
            (Kernel::Sssp, Ok(variant)) => KernelRequest::SsspUnit { root, variant },
            (Kernel::Bc, Ok(variant)) => {
                let sources = self.sources.map(|k| sample_sources(graph.csr(), k));
                KernelRequest::Betweenness { variant, sources }
            }
        };
        request::run(graph.csr(), &request, config).expect("only weighted SSSP needs weights")
    }

    /// The sequential reference `check` admitted, as the output of the
    /// parallel kernel it is the reference for. Only instrumented cc and
    /// bfs fill counters, and cc's sweep count is its number of counted
    /// steps; bookkeeping the references do not keep (directions, rounds,
    /// buckets) stays zero, and is printed for parallel runs only.
    fn reference(&self, graph: &KernelGraph, root: VertexId) -> KernelOutput {
        let (g, variant, counted) = (graph.csr(), self.variant, self.common.instrumented);
        let (counters, threads) = (RunCounters::default(), 1);
        match self.row.kernel {
            Kernel::Cc => {
                let split = |run: cc::SvRun| (run.labels, run.counters);
                let (labels, counters) = match variant {
                    "branch-based" if counted => split(cc::sv_branch_based_instrumented(g)),
                    _ if counted => split(cc::sv_branch_avoiding_instrumented(g)),
                    "branch-based" => (cc::sv_branch_based(g), counters),
                    "branch-avoiding" => (cc::sv_branch_avoiding(g), counters),
                    "hybrid" => (cc::sv_hybrid(g, cc::HybridConfig::default()), counters),
                    "union-find" => (cc::baseline::cc_union_find(g), counters),
                    _ => (cc::baseline::cc_bfs(g), counters),
                };
                KernelOutput::Components(ParSvRun {
                    labels,
                    sweeps: counters.num_steps(),
                    counters,
                    threads,
                })
            }
            Kernel::Bfs => {
                let split = |run: bfs::BfsRun| (run.result, run.counters);
                let (result, counters) = match variant {
                    "branch-based" if counted => split(bfs::bfs_branch_based_instrumented(g, root)),
                    _ if counted => split(bfs::bfs_branch_avoiding_instrumented(g, root)),
                    "branch-based" => (bfs::bfs_branch_based(g, root), counters),
                    "branch-avoiding" => (bfs::bfs_branch_avoiding(g, root), counters),
                    "bottom-up" => (bfs::bottom_up::bfs_bottom_up(g, root), counters),
                    _ => {
                        let config = self.strategy.unwrap_or_default();
                        (bfs_direction_optimizing(g, root, config), counters)
                    }
                };
                KernelOutput::Bfs(ParDirBfsRun {
                    result,
                    directions: Vec::new(),
                    counters,
                    threads,
                })
            }
            Kernel::Bc => KernelOutput::Betweenness(ParBcRun {
                scores: match self.sources {
                    Some(k) => bc::betweenness_centrality_sources(g, &sample_sources(g, k)),
                    None if variant.parse() == Ok(Variant::BranchBased) => {
                        bc::betweenness_centrality(g)
                    }
                    None => bc::betweenness_centrality_branch_avoiding(g),
                },
                sources_done: 0,
                threads,
            }),
            Kernel::Kcore => KernelOutput::Kcore(ParKcoreRun {
                cores: bga_kernels::kcore_peeling(g),
                counters,
                threads,
                rounds: 0,
            }),
            Kernel::Sssp => KernelOutput::SsspWeighted(ParWssspRun {
                result: match graph {
                    KernelGraph::Weighted(wg) => sssp::sssp_delta_stepping(wg, root, self.delta),
                    _ => sssp::sssp_unit_delta_stepping_with_delta(g, root, self.delta),
                },
                buckets_settled: 0,
                heavy_phases: 0,
                counters,
                threads,
            }),
        }
    }
}

/// Runs kernel subcommand `name` (one of [`ROWS`]), printing to stdout.
pub(super) fn run(name: &str, args: &[String]) -> Result<(), CliError> {
    execute(name, args, &mut io::stdout().lock())
}

fn execute(name: &str, args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let row = ROWS.iter().find(|row| row.name == name);
    let inv = Invocation::parse(row.expect("a kernel name"), args)?;
    let graph = KernelGraph::load(inv.graph, inv.weights)?;
    let csr = graph.csr();
    let vertices = csr.num_vertices();
    write!(out, "graph: {vertices} vertices, {} edges", csr.num_edges())?;
    // Kernels without a root ignore it.
    let mut root = 0;
    if let Some(label) = inv.row.root {
        let largest = || largest_component(csr).first().copied().unwrap_or(0);
        root = inv.root.unwrap_or_else(largest);
        write!(out, "; {label}: {root}")?;
    }
    writeln!(out)?;
    if let Some(line) = graph.weights_line(inv.weights) {
        writeln!(out, "{line}")?;
    }
    // Report the resolved worker count before the timed region so the
    // stdout write does not bias sequential-vs-parallel wall clocks.
    if let Some(threads) = inv.common.threads {
        writeln!(out, "threads: {}", resolve_threads(threads))?;
    }
    let config = inv.common.run_config();
    let start = Instant::now();
    let (output, outcome) = match (inv.common.threads, inv.common.trace_path) {
        (None, _) => (inv.reference(&graph, root), RunOutcome::Completed),
        (Some(_), None) => inv.dispatch(&graph, root, &config),
        (Some(_), Some(path)) => {
            let sink = open_trace_sink(path)?;
            let run = inv.dispatch(&graph, root, &config.traced(&sink));
            finish_trace_sink(path, sink)?;
            writeln!(out, "trace written: {path}")?;
            run
        }
    };
    let elapsed = start.elapsed();
    // An interrupted traversal is a valid prefix, not a full BFS.
    if let (KernelOutput::Bfs(run), true) = (&output, outcome.is_completed()) {
        check_bfs_invariants(csr, root, &run.result)?;
    }
    match print_summary(out, &inv, vertices, &output, outcome.is_completed())? {
        Some((counters, step)) if inv.common.instrumented => {
            writeln!(out, "{}", footprint_line(&graph.footprint()))?;
            writeln!(out, "totals: {}", counters.total())?;
            write!(out, "{}", step_table(step, &counters.steps).render())?;
        }
        _ if inv.common.trace_path.is_none() => {
            writeln!(out, "wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3)?
        }
        _ => {}
    }
    super::check_deadline(&outcome)
}

/// Prints `output`'s summary lines; returns its per-step counters (filled
/// on instrumented runs) and their step-table label.
fn print_summary<'o>(
    out: &mut impl Write,
    inv: &Invocation,
    vertices: usize,
    output: &'o KernelOutput,
    completed: bool,
) -> io::Result<Option<(&'o RunCounters, &'static str)>> {
    let parallel = inv.common.threads.is_some();
    let observed = inv.common.instrumented || inv.common.trace_path.is_some();
    let variant = match (inv.row.sequential, parallel) {
        (Reference(reference), false) => reference,
        (_, false) if inv.sources.is_some() => "branch-based",
        _ => inv.variant,
    };
    writeln!(out, "variant: {variant}")?;
    Ok(match output {
        KernelOutput::Components(run) => {
            writeln!(out, "components: {}", run.labels.component_count())?;
            let largest = run.labels.largest_component_size();
            writeln!(out, "largest component: {largest}")?;
            if observed {
                writeln!(out, "iterations: {}", run.sweeps)?;
            }
            Some((&run.counters, "iteration"))
        }
        KernelOutput::Bfs(run) => {
            writeln!(out, "reached: {} vertices", run.result.reached_count())?;
            writeln!(out, "levels: {}", run.result.level_count())?;
            writeln!(out, "level sizes: {:?}", run.result.level_sizes())?;
            if parallel && inv.variant == "direction-optimizing" {
                let bottom_up = run.bottom_up_levels();
                let top_down = run.directions.len() - bottom_up;
                let levels = format!("{top_down} top-down, {bottom_up} bottom-up levels");
                writeln!(out, "directions: {levels}")?;
            }
            Some((&run.counters, "level"))
        }
        KernelOutput::Betweenness(run) => {
            match inv.sources {
                Some(k) => {
                    let k = k.min(vertices);
                    let partial = "(partial, un-normalized accumulation)";
                    writeln!(out, "sources: {k} of {vertices} {partial}")?
                }
                None => writeln!(out, "sources: all {vertices} (normalized scores)")?,
            }
            let total: f64 = run.scores.iter().sum();
            writeln!(out, "total centrality: {total:.3}")?;
            for (rank, (v, score)) in top_vertices(&run.scores, 5).into_iter().enumerate() {
                writeln!(out, "  #{:<2} vertex {v:>8}  score {score:.3}", rank + 1)?;
            }
            if inv.common.token.is_some() {
                writeln!(out, "sources completed: {}", run.sources_done)?;
            }
            None
        }
        KernelOutput::Kcore(run) => {
            print_cores(out, &run.cores, completed)?;
            if parallel {
                writeln!(out, "cascade rounds: {}", run.rounds)?;
            }
            Some((&run.counters, "dispatch"))
        }
        KernelOutput::SsspUnit(run) => {
            print_sssp(out, &run.result)?;
            if observed {
                let bottom_up = run.bottom_up_phases();
                let top_down = run.directions.len() - bottom_up;
                let phases = format!("{top_down} top-down, {bottom_up} bottom-up phases");
                writeln!(out, "directions: {phases}")?;
            }
            Some((&run.counters, "phase"))
        }
        KernelOutput::SsspWeighted(run) => {
            print_sssp(out, &run.result)?;
            writeln!(out, "delta: {}", inv.delta)?;
            if observed {
                let (buckets, heavy) = (run.buckets_settled, run.heavy_phases);
                writeln!(out, "buckets settled: {buckets}; heavy phases: {heavy}")?;
            }
            Some((&run.counters, "pass"))
        }
    })
}

/// A completed peel prints the core structure; an interrupted one the
/// peeled prefix — unpeeled vertices still carry the `u32::MAX` "not yet
/// peeled" marker, so the degeneracy/histogram view would be meaningless.
fn print_cores(out: &mut impl Write, cores: &CoreDecomposition, completed: bool) -> io::Result<()> {
    let n = cores.len();
    if !completed {
        let peeled = cores.as_slice().iter().filter(|&&c| c != u32::MAX).count();
        let rest = "(final core numbers; the rest interrupted)";
        return writeln!(out, "peeled: {peeled} of {n} vertices {rest}");
    }
    let k = cores.degeneracy();
    writeln!(out, "degeneracy: {k}")?;
    let histogram = cores.histogram();
    write!(out, "coreness histogram:")?;
    for (k, count) in histogram.iter().take(8).enumerate() {
        write!(out, " {k}:{count}")?;
    }
    writeln!(out, "{}", if histogram.len() > 8 { " …" } else { "" })?;
    let innermost = cores.k_core_size(k);
    writeln!(out, "innermost core: {innermost} vertices at k = {k}")
}

fn print_sssp(out: &mut impl Write, result: &SsspResult) -> io::Result<()> {
    writeln!(out, "settled: {} vertices", result.reached_count())?;
    match result.max_distance() {
        Some(d) => writeln!(out, "max distance: {d}")?,
        None => writeln!(out, "max distance: (nothing settled)")?,
    }
    writeln!(out, "relaxation phases: {}", result.phases())
}

/// The first `k` vertices as a source sample (clamped to the graph).
fn sample_sources(graph: &CsrGraph, k: usize) -> Vec<VertexId> {
    (0..graph.num_vertices().min(k) as VertexId).collect()
}

/// The `k` highest-scoring vertices, ties broken by vertex id.
/// `total_cmp` rather than `partial_cmp` so a NaN score (possible when a
/// wrapped σ hits zero on a dense mesh, see the kernels' module doc)
/// sorts instead of panicking.
fn top_vertices(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// How an invocation ends.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) enum End {
        Ok,
        /// [`CliError::DeadlineExpired`]: exit code 124.
        Deadline,
        /// [`CliError::Message`]: a usage or input error.
        Usage,
    }
    use End::{Deadline, Ok as Done, Usage};

    /// One invocation: `bga <command>`, how it must end, and the
    /// expectations (see [`holds`]) its stdout and trace must meet.
    pub(crate) type Row = (&'static str, End, &'static [&'static [&'static str]]);

    /// Scratch files a row names by placeholder: `TRACE` is a trace
    /// path, `EDGES` a tiny weighted edge list. Each [`check`] call gets
    /// its own directory, so tests running in parallel never share one.
    struct Scratch {
        trace: PathBuf,
        edges: PathBuf,
    }

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("bga_cli_kernel_{}_{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let edges = dir.join("tiny.edges");
            std::fs::write(&edges, "0 1 5\n1 2 3\n2 3 9\n").unwrap();
            let trace = dir.join("run.jsonl");
            Scratch { trace, edges }
        }

        /// Runs `bga <command>`: how it ended, and its stdout.
        fn bga(&self, command: &str) -> (End, String) {
            let args: Vec<String> = command
                .split_whitespace()
                .map(|arg| match arg {
                    "TRACE" => self.trace.to_str().unwrap().to_string(),
                    "EDGES" => self.edges.to_str().unwrap().to_string(),
                    arg => arg.replace("G", "cond-mat-2005"),
                })
                .collect();
            std::fs::remove_file(&self.trace).ok();
            let mut out = Vec::new();
            let end = match execute(&args[0], &args[1..], &mut out) {
                Result::Ok(()) => Done,
                Err(CliError::DeadlineExpired) => Deadline,
                Err(CliError::Message(_)) => Usage,
            };
            (end, String::from_utf8(out).unwrap())
        }
    }

    /// Checks one expectation against a run's stdout (and trace file):
    /// `line` must appear exactly, `prefix*` must start some line,
    /// `!prefix*` must start none, and `trace:text` must occur in the
    /// `--trace` file.
    fn holds(expect: &str, stdout: &str, trace: &PathBuf) -> bool {
        if let Some(text) = expect.strip_prefix("trace:") {
            return std::fs::read_to_string(trace).is_ok_and(|t| t.contains(text));
        }
        let (absent, expect) = match expect.strip_prefix('!') {
            Some(rest) => (true, rest),
            None => (false, expect),
        };
        let found = match expect.strip_suffix('*') {
            Some(prefix) => stdout.lines().any(|line| line.starts_with(prefix)),
            None => stdout.lines().any(|line| line == expect),
        };
        found != absent
    }

    /// Runs every row and asserts how it ends and what it prints.
    pub(crate) fn check(rows: &[Row]) {
        let scratch = Scratch::new();
        for &(command, end, expects) in rows {
            let (ended, stdout) = scratch.bga(command);
            assert_eq!(ended, end, "bga {command}\n{stdout}");
            for expect in expects.iter().copied().flatten() {
                assert!(
                    holds(expect, &stdout, &scratch.trace),
                    "bga {command}: {expect:?} does not hold\n{stdout}"
                );
            }
        }
    }

    // The summary lines cond-mat-2005 (4096 vertices, 24391 edges) gives.
    const CC: &[&str] = &["components: 1", "largest component: 4096"];
    const BFS: &[&str] = &[
        "reached: 4096 vertices",
        "levels: 7",
        "level sizes: [1, 14, 84, 472, 2296, 1226, 3]",
    ];
    const BC16: &[&str] = &[
        "sources: 16 of 4096 (partial, un-normalized accumulation)",
        "total centrality: 204744.000",
        "  #1  vertex     1381  score 2074.584",
        "  #5  vertex      217  score 1142.202",
    ];
    const KCORE: &[&str] = &[
        "degeneracy: 8",
        "coreness histogram: 0:0 1:0 2:0 3:6 4:10 5:37 6:117 7:595 …",
        "innermost core: 3331 vertices at k = 8",
    ];
    const SSSP: &[&str] = &[
        "settled: 4096 vertices",
        "max distance: 6",
        "relaxation phases: 7",
    ];
    /// A timed run without `--trace`, and the instrumented replacement.
    const TIMED: &[&str] = &["wall clock: *", "!totals: *"];
    const COUNTED: &[&str] = &[
        "footprint: csr representation, *",
        "totals: *",
        "!wall clock: *",
    ];
    const TRACED: &[&str] = &["trace written: *", "!wall clock: *", "trace:bga-trace-v1"];
    const INTERRUPTED: &[&str] = &["trace written: *", "trace:\"interrupted\""];

    /// Every kernel × {sequential, `--threads 2`, `--threads 2
    /// --instrumented`, `--threads 2 --timeout-ms 0`}. Each kernel's own
    /// variants and flags, and the invocations it rejects, are the row
    /// groups below, run as `commands::<kernel>::tests::<group>`. `G`
    /// stands for the built-in cond-mat-2005 graph.
    #[rustfmt::skip]
    const MATRIX: &[Row] = &[
        ("cc G", Done, &[CC, TIMED, &["variant: branch-avoiding", "!threads: *", "!iterations: *"]]),
        ("cc G --threads 2", Done, &[CC, TIMED, &["threads: 2", "variant: branch-avoiding", "!iterations: *"]]),
        ("cc G --threads 2 --instrumented", Done, &[CC, COUNTED, &["iterations: *", "iteration   instr*"]]),
        ("cc G --threads 2 --timeout-ms 0", Deadline, &[&["components: 4096", "largest component: 1"]]),
        ("bfs G", Done, &[BFS, TIMED, &["graph: 4096 vertices, 24391 edges; root: 0", "variant: branch-based"]]),
        ("bfs G --threads 2", Done, &[BFS, TIMED, &["threads: 2", "variant: branch-based", "!directions: *"]]),
        ("bfs G --threads 2 --instrumented", Done, &[BFS, COUNTED, &["level   instr*"]]),
        ("bfs G --threads 2 --timeout-ms 0", Deadline, &[&["reached: 1 vertices", "level sizes: [1]"]]),
        // bc, on a 16-source sample
        ("bc G --sources 16", Done, &[BC16, TIMED, &["variant: branch-based", "!sources completed: *"]]),
        ("bc G --sources 16 --threads 2", Done, &[BC16, TIMED, &["variant: branch-avoiding"]]),
        ("bc G --sources 16 --threads 2 --instrumented", Usage, &[]),
        ("bc G --sources 16 --threads 2 --timeout-ms 0", Deadline,
         &[&["total centrality: 0.000", "sources completed: 0"]]),
        ("kcore G", Done, &[KCORE, TIMED, &["variant: peeling", "!cascade rounds: *"]]),
        ("kcore G --threads 2", Done, &[KCORE, TIMED, &["variant: branch-avoiding", "cascade rounds: *"]]),
        ("kcore G --threads 2 --instrumented", Done, &[KCORE, COUNTED, &["dispatch  instr*"]]),
        ("kcore G --threads 2 --timeout-ms 0", Deadline,
         &[&["peeled: 0 of 4096 vertices (final core numbers; the rest interrupted)", "cascade rounds: 0"]]),
        ("sssp G", Done, &[SSSP, TIMED, &["graph: 4096 vertices, 24391 edges; source: 0", "variant: delta-stepping",
                                          "delta: 1"]]),
        ("sssp G --threads 2", Done, &[SSSP, TIMED, &["variant: branch-avoiding", "!delta: *", "!directions: *"]]),
        ("sssp G --threads 2 --instrumented", Done, &[SSSP, COUNTED, &["directions: *", "phase   instr*"]]),
        ("sssp G --threads 2 --timeout-ms 0", Deadline, &[&["settled: 1 vertices", "max distance: 0"]]),
    ];

    #[rustfmt::skip]
    pub(crate) mod cc {
        use super::*;

        pub(crate) const RUNS: &[Row] = &[
            ("cc G --instrumented", Done, &[CC, COUNTED, &["iterations: 4", "iteration   instr*"]]),
            ("cc G --variant branch-based --instrumented", Done, &[CC, COUNTED, &["variant: branch-based"]]),
            ("cc G --variant union-find", Done, &[CC, &["variant: union-find"]]),
            ("cc G --variant hybrid", Done, &[CC, &["variant: hybrid"]]),
            ("cc G --variant bfs", Done, &[CC, &["variant: bfs"]]),
            ("cc", Usage, &[]),
            ("cc G --variant nope", Usage, &[]),
            ("cc G --variant hybrid --instrumented", Usage, &[]),
        ];
        pub(crate) const THREADS: &[Row] = &[
            ("cc G --variant branch-based --threads 2", Done, &[CC, &["variant: branch-based"]]),
            ("cc G --variant branch-avoiding --threads 2", Done, &[CC, &["variant: branch-avoiding"]]),
            ("cc G --variant auto --threads 2", Done, &[CC, &["variant: auto"]]),
            ("cc G --variant branch-based --threads 2 --instrumented", Done, &[CC, COUNTED]),
            ("cc G --variant auto --threads 2 --instrumented", Done, &[CC, COUNTED]),
            ("cc G --variant hybrid --threads 2", Usage, &[]),
            ("cc G --threads two", Usage, &[]),
            ("cc G --threads", Usage, &[]),
            ("cc G --variant auto", Usage, &[]),
        ];
        pub(crate) const TRACE: &[Row] = &[
            ("cc G --threads 2 --trace TRACE", Done, &[CC, TRACED, &["iterations: *"]]),
            ("cc G --trace TRACE", Usage, &[]),
            ("cc G --threads 2 --trace", Usage, &[]),
            ("cc G --threads 2 --instrumented --trace TRACE", Usage, &[]),
        ];
        pub(crate) const TIMEOUT: &[Row] = &[
            ("cc G --threads 2 --timeout-ms 60000", Done, &[CC]),
            ("cc G --threads 2 --timeout-ms 0 --trace TRACE", Deadline, &[INTERRUPTED]),
            ("cc G --timeout-ms 5", Usage, &[]),
            ("cc G --threads 2 --timeout-ms", Usage, &[]),
            ("cc G --threads 2 --timeout-ms abc", Usage, &[]),
            ("cc G --threads 2 --instrumented --timeout-ms 5", Usage, &[]),
        ];
    }

    #[rustfmt::skip]
    pub(crate) mod bfs {
        use super::*;

        pub(crate) const RUNS: &[Row] = &[
            ("bfs G --root 7", Done, &[&["reached: 4096 vertices", "graph: 4096 vertices, 24391 edges; root: 7"]]),
            ("bfs G --root", Done, &[BFS, &["graph: 4096 vertices, 24391 edges; root: 0"]]),
            ("bfs G --variant branch-avoiding", Done, &[BFS, &["variant: branch-avoiding"]]),
            ("bfs G --variant bottom-up", Done, &[BFS, &["variant: bottom-up"]]),
            ("bfs G --variant direction-optimizing", Done, &[BFS, &["!directions: *"]]),
            ("bfs G --variant branch-avoiding --instrumented", Done, &[BFS, COUNTED, &["level   instr*"]]),
            ("bfs", Usage, &[]),
            ("bfs G --variant nope", Usage, &[]),
            ("bfs G --root abc", Usage, &[]),
        ];
        pub(crate) const THREADS: &[Row] = &[
            ("bfs G --variant branch-avoiding --threads 2", Done, &[BFS]),
            ("bfs G --variant auto --threads 2", Done, &[BFS, &["variant: auto"]]),
            ("bfs G --variant direction-optimizing --threads 2", Done, &[BFS, &["directions: *"]]),
            ("bfs G --variant branch-avoiding --threads 2 --instrumented", Done, &[BFS, COUNTED]),
            ("bfs G --variant auto", Usage, &[]),
            ("bfs G --variant avoiding --threads 2", Usage, &[]),
            ("bfs G --variant bottom-up --threads 2", Usage, &[]),
            ("bfs G --variant bottom-up --instrumented", Usage, &[]),
        ];
        pub(crate) const TRACE: &[Row] = &[
            ("bfs G --variant branch-based --threads 2 --trace TRACE", Done, &[BFS, TRACED]),
            ("bfs G --variant branch-avoiding --threads 2 --trace TRACE", Done, &[BFS, TRACED]),
            ("bfs G --variant direction-optimizing --threads 2 --trace TRACE", Done, &[BFS, TRACED]),
            ("bfs G --trace TRACE", Usage, &[]),
            ("bfs G --threads 2 --instrumented --trace TRACE", Usage, &[]),
            ("bfs G --variant bottom-up --threads 2 --trace TRACE", Usage, &[]),
        ];
        pub(crate) const TIMEOUT: &[Row] = &[
            ("bfs G --variant direction-optimizing --threads 2 --timeout-ms 60000", Done, &[BFS]),
            ("bfs G --variant branch-based --threads 2 --timeout-ms 60000", Done, &[BFS]),
            ("bfs G --variant branch-avoiding --threads 2 --timeout-ms 60000", Done, &[BFS]),
            ("bfs G --variant branch-avoiding --threads 2 --timeout-ms 0", Deadline, &[&["reached: 1 vertices"]]),
            ("bfs G --variant direction-optimizing --threads 2 --timeout-ms 0", Deadline, &[&["reached: 1 vertices"]]),
            ("bfs G --threads 2 --timeout-ms 0 --trace TRACE", Deadline, &[INTERRUPTED]),
            ("bfs G --timeout-ms 5", Usage, &[]),
            ("bfs G --threads 2 --instrumented --timeout-ms 5", Usage, &[]),
        ];
        pub(crate) const STRATEGY: &[Row] = &[
            ("bfs G --threads 8 --strategy auto", Done, &[BFS, &["variant: direction-optimizing", "directions: *"]]),
            ("bfs G --threads 8 --strategy top-down", Done, &[BFS, &["directions: 7 top-down, 0 bottom-up levels"]]),
            ("bfs G --threads 8 --strategy bottom-up", Done, &[BFS, &["directions: 0 top-down, 7 bottom-up levels"]]),
            ("bfs G --strategy bottom-up", Done, &[BFS, &["variant: direction-optimizing"]]),
            ("bfs G --threads 2 --strategy bottom-up --instrumented", Done, &[BFS, COUNTED]),
            ("bfs G --variant direction-optimizing --instrumented", Usage, &[]),
            ("bfs G --strategy sideways", Usage, &[]),
            ("bfs G --strategy", Usage, &[]),
            ("bfs G --variant branch-based --strategy auto", Usage, &[]),
        ];
    }

    #[rustfmt::skip]
    pub(crate) mod bc {
        use super::*;

        pub(crate) const RUNS: &[Row] = &[
            ("bc G --variant branch-based --sources 16", Done, &[BC16, &["variant: branch-based"]]),
            ("bc G --sources 4", Done, &[&["sources: 4 of 4096 (partial, un-normalized accumulation)"]]),
            ("bc G --variant branch-based --sources 16 --threads 2", Done, &[BC16, &["variant: branch-based"]]),
            ("bc G --variant auto --sources 16 --threads 2", Done, &[BC16, &["variant: auto"]]),
            ("bc G --variant auto", Usage, &[]),
            ("bc G --variant branch-avoiding --sources 4", Usage, &[]),
        ];
        pub(crate) const TRACE: &[Row] = &[
            ("bc G --sources 4 --threads 2 --trace TRACE", Done, &[TRACED]),
            ("bc G --trace TRACE", Usage, &[]),
            ("bc G --threads 2 --trace", Usage, &[]),
        ];
        pub(crate) const TIMEOUT: &[Row] = &[
            ("bc G --sources 16 --threads 2 --timeout-ms 60000", Done, &[BC16, &["sources completed: 16"]]),
            ("bc G --sources 5000 --threads 2 --timeout-ms 0", Deadline,
             &[&["sources: 4096 of 4096 (partial, un-normalized accumulation)"]]),
            ("bc G --sources 8 --threads 2 --timeout-ms 0 --trace TRACE", Deadline, &[INTERRUPTED]),
            ("bc G --threads 2 --timeout-ms 5", Usage, &[]),
            ("bc G --sources 4 --timeout-ms 5", Usage, &[]),
        ];
        pub(crate) const BAD_USAGE: &[Row] = &[
            ("bc", Usage, &[]),
            ("bc G --variant sideways", Usage, &[]),
            ("bc G --sources", Usage, &[]),
            ("bc G --sources two", Usage, &[]),
            ("bc G --threads x", Usage, &[]),
            ("bc G --instrumented", Usage, &[]),
        ];
    }

    #[rustfmt::skip]
    pub(crate) mod kcore {
        use super::*;

        pub(crate) const RUNS: &[Row] = &[
            ("kcore G --variant branch-based --threads 2", Done, &[KCORE, &["variant: branch-based"]]),
            ("kcore G --variant auto --threads 2", Done, &[KCORE, &["variant: auto"]]),
        ];
        pub(crate) const TRACE: &[Row] = &[
            ("kcore G --threads 2 --trace TRACE", Done, &[KCORE, TRACED]),
            ("kcore G --trace TRACE", Usage, &[]),
            ("kcore G --threads 2 --instrumented --trace TRACE", Usage, &[]),
        ];
        pub(crate) const TIMEOUT: &[Row] = &[
            ("kcore G --threads 2 --timeout-ms 60000", Done, &[KCORE]),
            ("kcore G --threads 2 --timeout-ms 0 --trace TRACE", Deadline, &[INTERRUPTED]),
            ("kcore G --timeout-ms 5", Usage, &[]),
            ("kcore G --threads 2 --instrumented --timeout-ms 5", Usage, &[]),
        ];
        pub(crate) const BAD_USAGE: &[Row] = &[
            ("kcore", Usage, &[]),
            ("kcore G --variant sideways --threads 2", Usage, &[]),
            ("kcore G --variant branch-avoiding", Usage, &[]),
            ("kcore G --variant auto", Usage, &[]),
            ("kcore G --instrumented", Usage, &[]),
            ("kcore G --threads", Usage, &[]),
            ("kcore G --threads x", Usage, &[]),
        ];
    }

    #[rustfmt::skip]
    pub(crate) mod sssp {
        use super::*;

        pub(crate) const RUNS: &[Row] = &[
            ("sssp G --delta 4", Done, &[&["settled: 4096 vertices", "delta: 4"]]),
            ("sssp G --root 7", Done, &[&["graph: 4096 vertices, 24391 edges; source: 7"]]),
            ("sssp G --variant branch-based --threads 2", Done, &[SSSP, &["variant: branch-based"]]),
            ("sssp G --variant auto --threads 2", Done, &[SSSP, &["variant: auto"]]),
            ("sssp G --delta 1 --threads 2", Done, &[SSSP]),
        ];
        pub(crate) const WEIGHTED: &[Row] = &[
            ("sssp G --weights uniform", Done,
             &[&["weights: uniform 1..=32 (seed 42), max 32", "variant: delta-stepping", "delta: 1"]]),
            ("sssp G --weights uniform --delta 4", Done, &[&["settled: 4096 vertices", "delta: 4"]]),
            ("sssp G --weights uniform --variant branch-based --threads 2 --delta 4", Done,
             &[&["settled: 4096 vertices", "delta: 4", "!buckets settled: *"]]),
            ("sssp G --weights uniform --variant branch-avoiding --threads 2 --delta 4", Done,
             &[&["settled: 4096 vertices", "delta: 4"]]),
            ("sssp G --weights uniform --threads 2 --instrumented", Done,
             &[COUNTED, &["buckets settled: *", "pass  instr*"]]),
            ("sssp EDGES --weights file --root 0", Done,
             &[&["weights: from file, max 9", "settled: 4 vertices", "max distance: 17"]]),
            ("sssp EDGES --weights file --threads 2 --delta 4", Done, &[&["settled: 4 vertices", "max distance: 17"]]),
        ];
        pub(crate) const TRACE: &[Row] = &[
            ("sssp G --threads 2 --trace TRACE", Done, &[SSSP, TRACED, &["directions: *"]]),
            ("sssp G --weights uniform --delta 4 --threads 2 --trace TRACE", Done,
             &[TRACED, &["buckets settled: *", "trace:\"delta\""]]),
            ("sssp G --trace TRACE", Usage, &[]),
            ("sssp G --threads 2 --instrumented --trace TRACE", Usage, &[]),
        ];
        pub(crate) const TIMEOUT: &[Row] = &[
            ("sssp G --threads 2 --timeout-ms 60000", Done, &[SSSP]),
            ("sssp G --threads 2 --timeout-ms 60000 --weights uniform --delta 4", Done, &[&["settled: 4096 vertices"]]),
            ("sssp G --threads 2 --timeout-ms 0 --weights uniform --delta 4", Deadline, &[&["delta: 4"]]),
            ("sssp G --weights uniform --threads 2 --timeout-ms 0 --trace TRACE", Deadline, &[INTERRUPTED]),
            ("sssp G --timeout-ms 5", Usage, &[]),
            ("sssp G --threads 2 --instrumented --timeout-ms 5", Usage, &[]),
        ];
        pub(crate) const BAD_USAGE: &[Row] = &[
            ("sssp", Usage, &[]),
            ("sssp G --variant sideways --threads 2", Usage, &[]),
            ("sssp G --variant branch-avoiding", Usage, &[]),
            ("sssp G --weights uniform --variant branch-avoiding", Usage, &[]),
            ("sssp G --instrumented", Usage, &[]),
            ("sssp G --root abc", Usage, &[]),
            ("sssp G --delta", Usage, &[]),
            ("sssp G --delta nope", Usage, &[]),
            ("sssp G --delta 0", Usage, &[]),
            ("sssp G --delta 2 --threads 2", Usage, &[]),
            ("sssp G --weights", Usage, &[]),
            ("sssp G --weights sideways", Usage, &[]),
            ("sssp G --weights file", Usage, &[]),
        ];
    }

    #[test]
    fn kernel_invocations() {
        check(MATRIX);
    }

    #[test]
    fn top_vertices_ranks_by_score_then_id() {
        let ranked = top_vertices(&[0.5, 2.0, 2.0, 0.0], 3);
        assert_eq!(ranked, vec![(1, 2.0), (2, 2.0), (0, 0.5)]);
    }
}
