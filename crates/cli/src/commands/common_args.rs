//! The shared flags of the kernel subcommands (`--variant`,
//! `--threads N`, `--instrumented`, `--trace FILE`, `--timeout-ms T`) and
//! their exclusivity matrix: only parallel runs are traced or cancellable,
//! and `--instrumented` excludes both `--trace` (the trace carries the
//! counters) and `--timeout-ms` (the instrumented paths have no
//! cancellation seam). Also the flag-lookup helpers every subcommand uses.

use bga_obs::NoopSink;
use bga_parallel::{CancelToken, RunConfig};
use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// Looks up the value following `flag`, if any.
pub(super) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Parses the value following `flag` with `parse`: `None` when the flag
/// is absent. A bare flag with no value is an error, never a silent
/// fall-back to the default.
pub(super) fn parse_flag<'a, T>(
    args: &'a [String],
    flag: &str,
    parse: impl FnOnce(&'a str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None if args.iter().any(|a| a == flag) => Err(format!("{flag} requires a value")),
        None => Ok(None),
        Some(text) => parse(text).map(Some),
    }
}

/// Parses `text`, the value of `flag`, as a number.
pub(super) fn number<T: FromStr<Err: Display>>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|e| format!("invalid {flag} value {text:?}: {e}"))
}

/// [`parse_flag`] for a numeric value.
pub(super) fn parse_number<T: FromStr<Err: Display>>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    parse_flag(args, flag, |text| number(flag, text))
}

/// Fails with the message of the first rule whose condition holds.
pub(super) fn reject_first(rules: &[(bool, &str)]) -> Result<(), String> {
    match rules.iter().find(|(broken, _)| *broken) {
        Some((_, message)) => Err(message.to_string()),
        None => Ok(()),
    }
}

/// The execution flags every kernel subcommand shares, parsed and
/// cross-checked. The variant stays a raw string: each kernel has its own
/// vocabulary.
pub(super) struct CommonArgs<'a> {
    /// Raw `--variant` value, if given.
    pub variant: Option<&'a str>,
    /// `--threads N` (`0` = all cores); `None` selects the sequential
    /// reference kernels.
    pub threads: Option<usize>,
    /// `--instrumented`: tally per-operation counters.
    pub instrumented: bool,
    /// `--trace FILE`: write the run's `bga-trace-v1` stream here.
    pub trace_path: Option<&'a str>,
    /// An armed deadline token when `--timeout-ms` was given. The
    /// deadline starts at parse time — deliberately before graph
    /// loading, so the budget covers the whole invocation the way a
    /// supervisor's timeout would.
    pub token: Option<CancelToken>,
}

impl<'a> CommonArgs<'a> {
    /// Parses the shared flags and enforces the exclusivity matrix.
    pub(super) fn parse(args: &'a [String]) -> Result<Self, String> {
        let variant = parse_flag(args, "--variant", Ok)?;
        let threads = parse_number(args, "--threads")?;
        let instrumented = args.iter().any(|a| a == "--instrumented");
        let trace_path = super::trace::parse_trace_path(args)?;
        let timeout = parse_number(args, "--timeout-ms")?;
        let (parallel, traced, timed) =
            (threads.is_some(), trace_path.is_some(), timeout.is_some());
        #[rustfmt::skip]
        let matrix = [
            (traced && !parallel, "--trace requires --threads N (only parallel runs are traced)"),
            (traced && instrumented, "--trace and --instrumented are exclusive (the trace carries the counters)"),
            (timed && !parallel, "--timeout-ms requires --threads N (only parallel runs are cancellable)"),
            (timed && instrumented, "--timeout-ms and --instrumented are exclusive (the instrumented \
                                     paths have no cancellation seam)"),
        ];
        reject_first(&matrix)?;
        let token =
            timeout.map(|ms| CancelToken::new().with_deadline_in(Duration::from_millis(ms)));
        Ok(CommonArgs {
            variant,
            threads,
            instrumented,
            trace_path,
            token,
        })
    }

    /// The request-API configuration these flags describe (threads,
    /// instrumentation, deadline). Attach a trace sink on top with
    /// [`RunConfig::traced`] when [`CommonArgs::trace_path`] is set.
    pub(super) fn run_config(&self) -> RunConfig<'_, NoopSink> {
        let config = RunConfig::new().threads(self.threads.unwrap_or(0));
        let config = config.instrumented(self.instrumented);
        match &self.token {
            Some(token) => config.cancel(token),
            None => config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_shared_flags() {
        let args = strings(&[
            "g",
            "--variant",
            "branch-based",
            "--threads",
            "4",
            "--instrumented",
        ]);
        let common = CommonArgs::parse(&args).unwrap();
        assert_eq!(common.variant, Some("branch-based"));
        assert_eq!(common.threads, Some(4));
        assert!(common.instrumented);
        assert!(common.trace_path.is_none());
        assert!(common.token.is_none());

        let bare_args = strings(&["g"]);
        let bare = CommonArgs::parse(&bare_args).unwrap();
        assert_eq!(bare.variant, None);
        assert_eq!(bare.threads, None);
        assert!(!bare.instrumented);
    }

    /// Pins the full exclusivity matrix: which flag combinations parse
    /// and which are usage errors, with the wording each error carries.
    #[test]
    fn exclusivity_matrix() {
        let ok = [
            &["g"][..],
            &["g", "--threads", "2"][..],
            &["g", "--instrumented"][..],
            &["g", "--threads", "2", "--instrumented"][..],
            &["g", "--threads", "2", "--trace", "t.jsonl"][..],
            &["g", "--threads", "2", "--timeout-ms", "50"][..],
            &[
                "g",
                "--threads",
                "2",
                "--trace",
                "t.jsonl",
                "--timeout-ms",
                "50",
            ][..],
        ];
        for case in ok {
            assert!(CommonArgs::parse(&strings(case)).is_ok(), "{case:?}");
        }
        let err = [
            (
                &["g", "--trace", "t.jsonl"][..],
                "--trace requires --threads N",
            ),
            (
                &["g", "--instrumented", "--trace", "t.jsonl"][..],
                "--trace requires --threads N",
            ),
            (
                &[
                    "g",
                    "--threads",
                    "2",
                    "--instrumented",
                    "--trace",
                    "t.jsonl",
                ][..],
                "--trace and --instrumented are exclusive",
            ),
            (
                &["g", "--timeout-ms", "50"][..],
                "--timeout-ms requires --threads N",
            ),
            (
                &[
                    "g",
                    "--threads",
                    "2",
                    "--instrumented",
                    "--timeout-ms",
                    "50",
                ][..],
                "--timeout-ms and --instrumented are exclusive",
            ),
        ];
        for (case, needle) in err {
            let message = CommonArgs::parse(&strings(case)).err().unwrap();
            assert!(message.contains(needle), "{case:?} -> {message:?}");
        }
    }

    #[test]
    fn bare_and_malformed_values_are_loud() {
        for case in [
            &["g", "--variant"][..],
            &["g", "--threads"][..],
            &["g", "--threads", "two"][..],
            &["g", "--trace"][..],
            &["g", "--threads", "2", "--timeout-ms"][..],
            &["g", "--threads", "2", "--timeout-ms", "abc"][..],
        ] {
            assert!(CommonArgs::parse(&strings(case)).is_err(), "{case:?}");
        }
    }

    #[test]
    fn run_config_carries_the_flags() {
        let args = strings(&["g", "--threads", "3", "--timeout-ms", "60000"]);
        let common = CommonArgs::parse(&args).unwrap();
        assert!(common.token.is_some());
        // The config is exercised end to end by the command tests; here
        // just check it builds with the deadline attached.
        let _config = common.run_config();
    }

    #[test]
    fn deadline_starts_at_parse_time() {
        let args = strings(&["g", "--threads", "2", "--timeout-ms", "0"]);
        let common = CommonArgs::parse(&args).unwrap();
        // A zero budget has already expired by the first phase boundary.
        assert!(common.token.as_ref().unwrap().should_stop(0).is_some());
    }
}
