//! The repo benchmark: end-to-end and per-layer measurements of the
//! branch-avoiding-graphs workspace, taken from outside through public
//! items. See `README.md` beside this package and `BENCHMARK.json` at the
//! repo root; `run.sh` builds this binary and passes its arguments on.
//!
//! Three modes:
//!
//! * `--workload W --seed S --seconds N --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object.
//! * no `--workload` — every workload, each in its own child process
//!   (so `peak_rss_mb` is per workload), untraced then traced; prints
//!   `workload metric value unit` rows and writes one JSON document.
//! * `--agree A.json B.json` — compares two such documents against the
//!   bounds in `BENCHMARK.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
mod layers;
mod metrics;
mod run;
mod serving;
mod span;
mod stats;
mod suite;
mod workload;

use run::{run_workload, RunSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{find_workload, workloads};

/// Never more pool threads or connections than this, whatever the host.
const MAX_THREADS: usize = 4;
/// Seconds one run measures for when `--seconds` is not given; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// Seconds of the smoke run.
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
              [--threads T] [--quick] [--out FILE]
       run.sh --agree A.json B.json
workloads: batch_powerlaw batch_mesh serve_miss serve_hot (all of them when none is named)";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    threads: Option<usize>,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    spec: PathBuf,
    agree: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        threads: None,
        quick: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        agree: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--threads" => {
                let threads: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                parsed.threads = Some(threads);
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--spec" => parsed.spec = PathBuf::from(value("a file")?),
            "--agree" => {
                let first = PathBuf::from(value("two result documents")?);
                let second = PathBuf::from(value("two result documents")?);
                parsed.agree = Some((first, second));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// `T = C = min(nproc, 4)` unless `--threads` says otherwise; asking for
/// more threads than cores is refused, because every timing would then
/// measure the scheduler.
fn resolve_threads(requested: Option<usize>) -> Result<usize, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match requested {
        None => Ok(cores.min(MAX_THREADS)),
        Some(threads) if threads <= cores => Ok(threads),
        Some(threads) => Err(format!(
            "--threads {threads} exceeds the {cores} cores of this host (nproc < T)"
        )),
    }
}

fn main_with(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    if let Some((first, second)) = &args.agree {
        return suite::agree(&args.spec, first, second);
    }
    let threads = resolve_threads(args.threads)?;
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let Some(name) = &args.workload else {
        let names: Vec<&str> = workloads(args.quick).iter().map(|w| w.name).collect();
        return suite::run_all(&names, &args, threads, seconds);
    };
    let workload = find_workload(name, args.quick)
        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds,
        threads,
        trace: args.trace,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    eprintln!(
        "{} seed {} seconds {} threads {} trace {}",
        workload.name,
        spec.seed,
        seconds,
        threads,
        u8::from(spec.trace)
    );
    let result = run_workload(&spec)?;
    println!("{}", result.to_json_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed",
            workload.name, result.failed, result.attempted
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    main_with(&args).unwrap_or_else(|message| {
        eprintln!("bga-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_arguments_parse() {
        let parsed = parse_args(&args(
            "--workload serve_hot --seed 42 --seconds 16 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve_hot"));
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.seconds, Some(16.0));
        assert!(parsed.trace);
        assert!(!parsed.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seconds 61")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--threads 0")).is_err());
        assert!(parse_args(&args("--agree only-one.json")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn more_threads_than_cores_is_refused() {
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(resolve_threads(None).unwrap(), cores.min(MAX_THREADS));
        assert_eq!(resolve_threads(Some(1)).unwrap(), 1);
        assert!(resolve_threads(Some(cores + 1))
            .unwrap_err()
            .contains("nproc"));
    }
}
