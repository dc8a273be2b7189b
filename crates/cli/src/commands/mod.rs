//! Subcommand dispatch for the `bga` binary.

mod common_args;
mod generate;
mod graph_convert;
mod graph_input;
mod kernel;
mod query;
mod serve;
mod trace;

use bga_parallel::RunOutcome;

/// Process exit code for a `--timeout-ms` expiry (124, matching
/// coreutils `timeout`), distinct from the generic failure code so
/// scripts can tell "ran out of time" from "bad usage".
pub const TIMEOUT_EXIT_CODE: u8 = 124;

/// How a `bga` invocation failed.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Argument or runtime error; `main` prints it with the usage text.
    Message(String),
    /// A `--timeout-ms` deadline expired mid-run; `main` maps it to
    /// [`TIMEOUT_EXIT_CODE`] without the usage text (the arguments were
    /// fine — the run was just slower than the budget).
    DeadlineExpired,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Message(message)
    }
}

impl From<std::io::Error> for CliError {
    fn from(error: std::io::Error) -> Self {
        CliError::Message(format!("writing output: {error}"))
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Message(message.to_string())
    }
}

/// Folds a cancellable run's outcome into the command result. The CLI
/// only ever arms deadlines, so any interruption is a timeout: report
/// how far the run got (the partial summary above it is valid monotone
/// state) and surface the dedicated exit code.
pub(crate) fn check_deadline(outcome: &RunOutcome) -> Result<(), CliError> {
    match outcome {
        RunOutcome::Completed => Ok(()),
        RunOutcome::Interrupted { phases_done, .. } => {
            eprintln!(
                "timeout: deadline expired after {phases_done} completed engine phases \
                 (partial results above are valid monotone bounds)"
            );
            Err(CliError::DeadlineExpired)
        }
    }
}

/// Usage text printed on argument errors.
pub const USAGE: &str = "usage:
  bga generate <path|cycle|star|complete|tree|gnp|gnm|ba|ws|grid2d|grid3d|rmat> <args..> [--seed S] <out.metis>
  bga <cc|bfs|bc|kcore|sssp> <graph> [--variant V] [--threads N] [--instrumented] [--trace FILE] [--timeout-ms T] [kernel flags]
  bga trace <report|validate> <trace.jsonl>
  bga graph convert <in> <out>
  bga serve <graph> [--addr HOST:PORT] [--threads N] [--cache N] [--compressed]
  bga query <addr> <distance|path --root R --target T | component|core|bc-rank --vertex V | stats | shutdown> [--variant V] [--timeout-ms T]

<graph> is a METIS (.metis/.graph), edge-list, or bga-csr-v2 group-varint
binary (.bgacsr) file, or a built-in suite name: audikw1, auto,
coAuthorsDBLP, cond-mat-2005, ldoor. bga graph convert translates between
the three formats (target picked by the output extension; converting to
.bgacsr prints the compression footprint).

The kernel subcommands share their flags. Without --threads a sequential
reference runs; --threads N runs the parallel kernel on a persistent
N-worker pool (N = 0 uses every core), with results identical to the
reference. --instrumented prints the per-step counter table. --trace and
--timeout-ms need --threads; --instrumented excludes both. --variant auto
(--threads only) picks the discipline at run time from sampled phases.

  cc     sequential: branch-based, branch-avoiding*, hybrid, union-find, bfs
         --threads:  branch-based, branch-avoiding*, auto
  bfs    sequential: branch-based*, branch-avoiding, bottom-up, direction-optimizing
         --threads:  branch-based*, branch-avoiding, auto, direction-optimizing
         flags:      --root R, --strategy auto|top-down|bottom-up
  bc     sequential: branch-based, branch-avoiding*
         --threads:  branch-based, branch-avoiding*, auto
         flags:      --sources K
  kcore  sequential: the peeling reference (no --variant)
         --threads:  branch-based, branch-avoiding*, auto
  sssp   sequential: the delta-stepping reference (no --variant)
         --threads:  branch-based, branch-avoiding*, auto
         flags:      --root R, --delta D, --weights unit|uniform|file
  (* = default --variant)

--strategy pins the direction policy of the direction-optimizing traversal
(auto = the α/β frontier heuristic) and implies that variant. bga bc runs
Brandes betweenness centrality; --sources K accumulates from the first K
vertices, reports un-normalized partial sums, and runs branch-based only
without --threads. --instrumented does not apply to bc; use --trace. bga sssp
settles shortest paths by delta-stepping: --weights unit (default) is the
BFS-degenerate unit case, uniform assigns seeded weights 1..=32, file keeps
the graph file's own weights (u v w edge lists, edge-weighted METIS);
--delta D picks the bucket width, and with --threads it needs uniform or
file weights.

--trace FILE (parallel runs only) writes the run's bga-trace-v1 JSONL
event stream — run header, one structured event per engine phase,
worker-pool batch metrics, totals trailer — and bga trace report renders
it (per-phase table, pool imbalance, the paper's misprediction-bound
crossover summary); bga trace validate checks the stream invariants and
gates the CI smoke step.
--timeout-ms T (parallel runs only; bga bc needs --sources) arms a
wall-clock deadline checked at every engine phase boundary: an expired
run stops promptly, prints the valid partial summary it reached (every
distance/label/core bound is a correct monotone bound), marks a --trace
stream as interrupted, and exits with code 124.
bga serve loads <graph> once into an immutable snapshot (--compressed
serves the group-varint CSR) and answers distance / path / component /
core / bc-rank queries concurrently over newline-delimited bga-serve-v1
JSON on TCP, memoizing complete traversals in an LRU (--cache N entries)
and answering over-deadline queries (timeout_ms in the request) with a
partial response; bga query is the one-shot scripted client — it prints
the server's raw JSON response line on stdout.";

/// Routes the raw argument list to the subcommand implementations.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    match command.as_str() {
        "generate" => generate::run(rest).map_err(CliError::from),
        "cc" | "bfs" | "bc" | "kcore" | "sssp" => kernel::run(command, rest),
        "trace" => trace::run(rest).map_err(CliError::from),
        "graph" => graph_convert::run(rest).map_err(CliError::from),
        "serve" => serve::run(rest).map_err(CliError::from),
        "query" => query::run(rest).map_err(CliError::from),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::{dispatch, CliError, USAGE};

    fn unknown(name: &str) -> bool {
        let result = dispatch(&[name.to_string()]);
        matches!(result, Err(CliError::Message(m)) if m.starts_with("unknown subcommand"))
    }

    #[test]
    fn usage_names_exactly_the_dispatched_subcommands() {
        let names: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("  bga "))
            .filter_map(|line| line.split_whitespace().next())
            .flat_map(|word| {
                word.trim_start_matches('<')
                    .trim_end_matches('>')
                    .split('|')
            })
            .collect();
        let expected = [
            "generate", "cc", "bfs", "bc", "kcore", "sssp", "trace", "graph", "serve", "query",
        ];
        assert_eq!(names, expected);
        for name in names {
            assert!(
                !unknown(name),
                "USAGE names {name:?} but dispatch rejects it"
            );
        }
        assert!(unknown("experiment"));
        assert!(unknown("bench"));
    }
}

/// Declares each kernel subcommand's tests under `commands::<kernel>::tests`,
/// one test per row group of the shared kernel command's invocation table.
#[cfg(test)]
macro_rules! kernel_tests {
    ($($kernel:ident { $($test:ident: $rows:ident),* $(,)? })*) => {$(
        mod $kernel {
            mod tests {
                use crate::commands::kernel::tests::{check, $kernel::*};
                $(
                    #[test]
                    fn $test() {
                        check($rows);
                    }
                )*
            }
        }
    )*};
}

#[cfg(test)]
kernel_tests! {
    cc {
        runs_on_a_builtin_graph: RUNS,
        threads_flag_selects_the_parallel_kernels: THREADS,
        trace_flag_writes_a_jsonl_document: TRACE,
        timeout_flag_bounds_the_parallel_run: TIMEOUT,
    }
    bfs {
        runs_every_uninstrumented_variant_on_a_builtin_graph: RUNS,
        threads_flag_selects_the_parallel_kernels: THREADS,
        trace_flag_writes_a_jsonl_document: TRACE,
        timeout_flag_bounds_the_parallel_run: TIMEOUT,
        strategy_flag_drives_the_direction_optimizing_traversal: STRATEGY,
    }
    bc {
        runs_sequential_and_parallel_variants_on_a_builtin_graph: RUNS,
        trace_flag_writes_a_jsonl_document: TRACE,
        timeout_flag_bounds_the_sampled_accumulation: TIMEOUT,
        bad_usage_fails_loudly: BAD_USAGE,
    }
    kcore {
        runs_sequential_and_parallel_on_a_builtin_graph: RUNS,
        trace_flag_writes_a_jsonl_document: TRACE,
        timeout_flag_bounds_the_parallel_peel: TIMEOUT,
        bad_usage_fails_loudly: BAD_USAGE,
    }
    sssp {
        runs_sequential_and_parallel_on_a_builtin_graph: RUNS,
        runs_weighted_modes: WEIGHTED,
        trace_flag_writes_a_jsonl_document: TRACE,
        timeout_flag_bounds_both_parallel_clients: TIMEOUT,
        bad_usage_fails_loudly: BAD_USAGE,
    }
}
