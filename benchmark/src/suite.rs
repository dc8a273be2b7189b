//! The whole-suite command — every workload in its own child process,
//! untraced then traced, gathered into one JSON document — and the
//! comparison of two such documents against `BENCHMARK.json`'s bounds.

use crate::Args;
use bga_obs::json::{object, Json};
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of the result document.
const SCHEMA: &str = "bga-benchmark-v1";

/// Runs one workload in a child process and returns its parsed result
/// line. The child's standard error passes through.
fn run_child(
    name: &str,
    trace: bool,
    args: &Args,
    threads: usize,
    seconds: f64,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| {
        format!(
            "{name} (trace {}) printed no result: {}",
            u8::from(trace),
            output.status
        )
    })?;
    Json::parse(last).map_err(|e| format!("{name} printed a malformed result: {e}"))
}

/// Prints a result's metrics as `workload metric value unit` rows.
fn print_rows(name: &str, result: &Json) {
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        return;
    };
    for (metric, fields) in metrics {
        let value = fields
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = fields.get("unit").and_then(Json::as_str).unwrap_or("?");
        println!("{name} {metric} {value} {unit}");
    }
}

/// Runs every workload, untraced then traced, prints every metric and
/// writes the result document.
pub fn run_all(
    names: &[&str],
    args: &Args,
    threads: usize,
    seconds: f64,
) -> Result<ExitCode, String> {
    let mut per_workload = Vec::new();
    let mut all_correct = true;
    for &name in names {
        let mut sections = Vec::new();
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let result = run_child(name, trace, args, threads, seconds)?;
            print_rows(name, &result);
            let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            println!("{name} {section}.attempted {attempted} count");
            println!("{name} {section}.failed {failed} count");
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            sections.push((section, result));
        }
        per_workload.push((name, object(sections)));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let env_or_unknown =
        |key: &str| Json::String(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()));
    let host = object(vec![
        ("nproc", Json::Number(cores as f64)),
        ("threads", Json::Number(threads as f64)),
        ("connections", Json::Number(threads as f64)),
        ("rustc", env_or_unknown("BGA_BENCH_RUSTC")),
        ("commit", env_or_unknown("BGA_BENCH_COMMIT")),
    ]);
    let document = object(vec![
        ("schema", Json::String(SCHEMA.to_string())),
        ("host", host),
        ("seed", Json::Number(args.seed as f64)),
        ("seconds", Json::Number(seconds)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", object(per_workload)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("result-seed{}.json", args.seed)));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(&path, format!("{document}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload had failed operations");
        ExitCode::FAILURE
    })
}

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// The workload names and end-to-end rules of a `BENCHMARK.json`.
fn rules_of(spec: &Json) -> Result<(Vec<String>, Vec<Rule>), String> {
    let names = spec
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let rules = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?
        .iter()
        .map(|metric| {
            Ok(Rule {
                name: metric
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("an end_to_end metric has no name")?
                    .to_string(),
                lower_is_better: metric.get("better").and_then(Json::as_str) == Some("lower"),
                bound: metric
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric has no bound")?,
            })
        })
        .collect::<Result<Vec<Rule>, String>>()?;
    Ok((names, rules))
}

/// The share of `base` by which `value` is worse than it.
fn worse_by(rule: &Rule, base: f64, value: f64) -> f64 {
    if rule.lower_is_better {
        (value - base) / base
    } else {
        (base - value) / base
    }
}

/// Every `(workload, metric)` on which two documents of the same commit
/// disagree: either value worse than the other by more than the bound.
/// A value missing from either side disagrees too.
fn disagreements(spec: &Json, first: &Json, second: &Json) -> Result<Vec<String>, String> {
    let (names, rules) = rules_of(spec)?;
    let value_of = |document: &Json, workload: &str, metric: &str| {
        document
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut found = Vec::new();
    for workload in &names {
        for rule in &rules {
            let pair = (
                value_of(first, workload, &rule.name),
                value_of(second, workload, &rule.name),
            );
            let (Some(a), Some(b)) = pair else {
                found.push(format!("{workload} {}: missing from a document", rule.name));
                continue;
            };
            let gap = worse_by(rule, a, b).max(worse_by(rule, b, a));
            if gap > rule.bound {
                found.push(format!(
                    "{workload} {}: {a} vs {b} differ by {:.1} %, bound {:.1} %",
                    rule.name,
                    gap * 100.0,
                    rule.bound * 100.0
                ));
            }
        }
    }
    Ok(found)
}

/// `--agree A.json B.json`: prints every pair outside its bound and
/// fails when there is one.
pub fn agree(spec: &Path, first: &Path, second: &Path) -> Result<ExitCode, String> {
    let found = disagreements(&read_json(spec)?, &read_json(first)?, &read_json(second)?)?;
    for line in &found {
        println!("{line}");
    }
    if found.is_empty() {
        println!("every end-to-end metric of every workload agrees within its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}
        ]
    }"#;

    fn document(lat: f64, qps: f64) -> Json {
        let text = format!(
            r#"{{"workloads": {{"w": {{"end_to_end": {{"metrics": {{
                "lat": {{"value": {lat}, "unit": "ms"}},
                "qps": {{"value": {qps}, "unit": "1/s"}}}}}}}}}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn documents_within_the_bounds_agree() {
        let spec = Json::parse(SPEC).unwrap();
        assert!(
            disagreements(&spec, &document(10.0, 100.0), &document(10.9, 95.0))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn a_gap_beyond_the_bound_is_reported_in_either_order() {
        let spec = Json::parse(SPEC).unwrap();
        let slow = document(11.5, 100.0);
        let fast = document(10.0, 100.0);
        for (a, b) in [(&slow, &fast), (&fast, &slow)] {
            let found = disagreements(&spec, a, b).unwrap();
            assert_eq!(found.len(), 1);
            assert!(found[0].starts_with("w lat:"), "{found:?}");
        }
        let starved = document(10.0, 80.0);
        let found = disagreements(&spec, &fast, &starved).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("w qps:"));
    }

    #[test]
    fn a_missing_metric_disagrees() {
        let spec = Json::parse(SPEC).unwrap();
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(
            disagreements(&spec, &empty, &document(1.0, 1.0))
                .unwrap()
                .len(),
            2
        );
    }
}
