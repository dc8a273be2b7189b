//! `bga` — command-line interface to the Branch-Avoiding Graph Algorithms
//! reproduction.
//!
//! The subcommands (`generate`, the kernels `cc`, `bfs`, `bc`, `kcore` and
//! `sssp`, `trace`, `graph`, `serve` and `query`) and their flags are
//! listed in `commands::USAGE`, which `bga help` prints; `commands::dispatch`
//! routes exactly those names, and a unit test there keeps the two in step.
//! The paper's figures and tables are the `bga-bench` binaries, and the
//! wall-clock benchmark is `benchmark/`.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The command already reported how far it got; the arguments were
        // fine, so no usage text — just the dedicated exit code.
        Err(commands::CliError::DeadlineExpired) => ExitCode::from(commands::TIMEOUT_EXIT_CODE),
        Err(commands::CliError::Message(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
