//! `bga bench compare`: diff a new `bga experiment scaling --json`
//! document (the `BENCH_pr.json` CI artifacts) against one or more
//! baseline snapshots and flag wall-clock regressions.
//!
//! CI caches the last few scaling documents; comparing the current run
//! against the *median* of that window turns the snapshots into a trend
//! that one noisy run cannot whipsaw — a single unlucky baseline neither
//! masks a real regression nor invents one. The comparison is row-by-row
//! on the `(graph, kernel, variant, threads)` key: a row whose `time_ms`
//! grew beyond the threshold (default 10%) over the baseline median is a
//! regression, one that shrank beyond it an improvement, and rows present
//! on only one side are listed so schema growth (new kernels) is visible
//! rather than silent. CI runners are shared machines, so the step is
//! wired *non-blocking* — pass `--fail-on-regression` to turn regressions
//! into a non-zero exit.
//!
//! Documents with schema `bga-scaling-v1` (PR 4) and `bga-scaling-v2`
//! (adds the weighted SSSP rows) are both accepted; they are read with
//! the workspace's one dependency-free JSON reader, [`bga_obs::json`]
//! (the workspace builds offline, so there is no serde to lean on).
//!
//! Baselines come out of a best-effort CI cache, so a missing, empty or
//! unparseable baseline file is skipped with a warning and the median is
//! taken over the remaining documents; the comparison only fails when no
//! baseline loads at all (or when the *new* document — the artifact under
//! test — is broken).

use bga_obs::json::Json;
use std::fs;

/// Regression threshold in percent when `--threshold` is absent.
const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Schemas this comparator understands.
const KNOWN_SCHEMAS: [&str; 2] = ["bga-scaling-v1", "bga-scaling-v2"];

/// Runs the `bench` subcommand family (currently just `compare`).
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(|s| s.as_str()) {
        Some("compare") => compare(&args[1..]),
        Some(other) => Err(format!("unknown bench action {other:?} (expected compare)")),
        None => Err(
            "bench needs an action (compare <old1.json> [<old2.json>...] <new.json>)".to_string(),
        ),
    }
}

fn compare(args: &[String]) -> Result<(), String> {
    // Positional scan that skips flags and their values (--threshold takes
    // one, --fail-on-regression takes none).
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threshold" {
            let _ = iter.next();
        } else if !arg.starts_with("--") {
            positional.push(arg);
        }
    }
    let Some((new_path, old_paths)) = positional.split_last().filter(|(_, olds)| !olds.is_empty())
    else {
        return Err(
            "bench compare needs at least two files: <old1.json> [<old2.json>...] <new.json>"
                .to_string(),
        );
    };
    let threshold = match super::common_args::flag_value(args, "--threshold") {
        None if args.iter().any(|a| a == "--threshold") => {
            return Err("--threshold requires a percentage value".to_string())
        }
        None => DEFAULT_THRESHOLD_PCT,
        Some(text) => {
            let value = text
                .parse::<f64>()
                .map_err(|e| format!("invalid --threshold value {text:?}: {e}"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err("--threshold must be a positive percentage".to_string());
            }
            value
        }
    };
    let fail_on_regression = args.iter().any(|a| a == "--fail-on-regression");

    // Baselines are a cached CI window, so a missing, empty or garbled
    // snapshot is an expected hazard, not a usage error: skip it with a
    // warning and compare against the median of whatever remains. Only
    // when *no* baseline loads is there nothing to compare against. The
    // new document is the artifact under test and still fails loudly.
    let mut old_docs: Vec<(&String, ScalingDocument)> = Vec::new();
    for path in old_paths {
        match load_scaling_document(path) {
            Ok(doc) => old_docs.push((path, doc)),
            Err(e) => eprintln!("warning: skipping baseline {e}"),
        }
    }
    if old_docs.is_empty() {
        return Err(format!(
            "none of the {} baseline document(s) could be loaded",
            old_paths.len()
        ));
    }
    let new_doc = load_scaling_document(new_path)?;
    println!(
        "comparing median of {} baseline(s) -> {} ({}), threshold {threshold}%",
        old_docs.len(),
        new_path,
        new_doc.schema
    );
    for (path, doc) in &old_docs {
        println!(
            "  baseline {} ({}, {} rows)",
            path,
            doc.schema,
            doc.rows.len()
        );
    }
    if new_doc.single_core_host || old_docs.iter().any(|(_, doc)| doc.single_core_host) {
        // Diagnostics go to stderr like the baseline-skip warning above:
        // scripts pipe this command's stdout as the comparison report.
        eprintln!(
            "note: at least one document was measured on a single-core host; \
             times are pool overhead, not scaling"
        );
    }

    // Per-key baseline: the median time over every baseline document that
    // carries the key (at most one row per document).
    let baseline_time = |key: (&str, &str, &str, u64)| -> Option<f64> {
        let mut samples: Vec<f64> = old_docs
            .iter()
            .filter_map(|(_, doc)| doc.rows.iter().find(|row| row.key() == key))
            .map(|row| row.time_ms)
            .collect();
        (!samples.is_empty()).then(|| median(&mut samples))
    };

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut compared = 0usize;
    for row in &new_doc.rows {
        let Some(old_time) = baseline_time(row.key()) else {
            println!("  new row (no baseline): {}", row.describe());
            continue;
        };
        compared += 1;
        if old_time <= 0.0 {
            continue;
        }
        let pct = (row.time_ms - old_time) / old_time * 100.0;
        if pct > threshold {
            regressions += 1;
            println!(
                "  REGRESSION {}: median {:.3} ms -> {:.3} ms (+{pct:.1}%)",
                row.describe(),
                old_time,
                row.time_ms
            );
        } else if pct < -threshold {
            improvements += 1;
            println!(
                "  improvement {}: median {:.3} ms -> {:.3} ms ({pct:.1}%)",
                row.describe(),
                old_time,
                row.time_ms
            );
        }
    }
    let mut removed: Vec<&BenchRow> = Vec::new();
    for (_, doc) in &old_docs {
        for row in &doc.rows {
            let seen = removed.iter().any(|prior| prior.key() == row.key());
            if !seen
                && !new_doc
                    .rows
                    .iter()
                    .any(|candidate| candidate.key() == row.key())
            {
                removed.push(row);
            }
        }
    }
    for row in removed {
        println!("  removed row (was in a baseline): {}", row.describe());
    }
    println!(
        "compared {compared} rows: {regressions} regression(s), \
         {improvements} improvement(s) beyond {threshold}%"
    );
    if regressions > 0 && fail_on_regression {
        return Err(format!(
            "{regressions} row(s) regressed by more than {threshold}%"
        ));
    }
    Ok(())
}

/// Median of a non-empty sample; even-sized samples average the middle
/// pair. Sorts in place.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One measured configuration out of a scaling document.
#[derive(Debug, Clone, PartialEq)]
struct BenchRow {
    graph: String,
    kernel: String,
    variant: String,
    threads: u64,
    time_ms: f64,
}

impl BenchRow {
    fn key(&self) -> (&str, &str, &str, u64) {
        (&self.graph, &self.kernel, &self.variant, self.threads)
    }

    fn describe(&self) -> String {
        format!(
            "{} {}/{} @{} threads",
            self.graph, self.kernel, self.variant, self.threads
        )
    }
}

/// A parsed scaling document: schema tag, host flag, rows.
struct ScalingDocument {
    schema: String,
    single_core_host: bool,
    rows: Vec<BenchRow>,
}

fn load_scaling_document(path: &str) -> Result<ScalingDocument, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_scaling_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// Extracts the fields the comparator needs from a scaling JSON document.
fn parse_scaling_document(text: &str) -> Result<ScalingDocument, String> {
    let value = Json::parse(text)?;
    let schema = value
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("document has no \"schema\" string")?
        .to_string();
    if !KNOWN_SCHEMAS.contains(&schema.as_str()) {
        return Err(format!(
            "unknown schema {schema:?} (expected one of {KNOWN_SCHEMAS:?})"
        ));
    }
    let single_core_host = value
        .get("single_core_host")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let rows_value = value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("document has no \"rows\" array")?;
    let mut rows = Vec::with_capacity(rows_value.len());
    for (index, row) in rows_value.iter().enumerate() {
        let field_str = |name: &str| {
            row.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("row {index} has no {name:?} string"))
        };
        let field_num = |name: &str| {
            row.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("row {index} has no {name:?} number"))
        };
        rows.push(BenchRow {
            graph: field_str("graph")?,
            kernel: field_str("kernel")?,
            variant: field_str("variant")?,
            threads: field_num("threads")? as u64,
            time_ms: field_num("time_ms")?,
        });
    }
    Ok(ScalingDocument {
        schema,
        single_core_host,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(schema: &str, rows: &[(&str, &str, &str, u64, f64)]) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"{schema}\",\n  \"threads_swept\": [1, 2],\n  \
             \"single_core_host\": false,\n  \"rows\": [\n"
        );
        for (index, (graph, kernel, variant, threads, time_ms)) in rows.iter().enumerate() {
            let comma = if index + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"graph\": \"{graph}\", \"kernel\": \"{kernel}\", \
                 \"variant\": \"{variant}\", \"threads\": {threads}, \
                 \"time_ms\": {time_ms}, \"speedup\": 1.0}}{comma}\n"
            ));
        }
        out.push_str("  ],\n  \"skipped\": []\n}");
        out
    }

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bga_bench_compare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn document_parser_validates_schema_and_rows() {
        let parsed = parse_scaling_document(&doc(
            "bga-scaling-v1",
            &[("auto", "cc", "branch-based", 4, 2.0)],
        ))
        .unwrap();
        assert_eq!(parsed.schema, "bga-scaling-v1");
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].key(), ("auto", "cc", "branch-based", 4));
        // Unknown schema and missing fields are loud errors.
        assert!(parse_scaling_document(&doc("bga-scaling-v99", &[])).is_err());
        assert!(parse_scaling_document("{\"rows\": []}").is_err());
        assert!(parse_scaling_document(
            "{\"schema\": \"bga-scaling-v1\", \"rows\": [{\"graph\": \"x\"}]}"
        )
        .is_err());
    }

    #[test]
    fn compare_flags_regressions_and_respects_the_threshold() {
        let old = write_temp(
            "old.json",
            &doc(
                "bga-scaling-v1",
                &[
                    ("audikw1", "cc", "branch-based", 1, 10.0),
                    ("audikw1", "cc", "branch-based", 2, 10.0),
                ],
            ),
        );
        let new = write_temp(
            "new.json",
            &doc(
                "bga-scaling-v2",
                &[
                    ("audikw1", "cc", "branch-based", 1, 10.5), // +5%: fine
                    ("audikw1", "cc", "branch-based", 2, 15.0), // +50%: regression
                    ("audikw1", "sssp", "weighted", 2, 3.0),    // new row
                ],
            ),
        );
        let args = strings(&["compare", old.to_str().unwrap(), new.to_str().unwrap()]);
        // Non-blocking by default.
        assert!(run(&args).is_ok());
        // --fail-on-regression turns the regression into an error.
        let mut failing = args.clone();
        failing.push("--fail-on-regression".to_string());
        let err = run(&failing).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A huge threshold silences it again.
        let mut relaxed = failing.clone();
        relaxed.extend(strings(&["--threshold", "100"]));
        assert!(run(&relaxed).is_ok());
    }

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn compare_uses_the_median_of_multiple_baselines() {
        let row = |t: f64| doc("bga-scaling-v1", &[("g", "cc", "branch-based", 1, t)]);
        // Three baselines: 10, 100 (a noisy outlier), 11. Median = 11.
        let b1 = write_temp("median_b1.json", &row(10.0));
        let b2 = write_temp("median_b2.json", &row(100.0));
        let b3 = write_temp("median_b3.json", &row(11.0));
        let paths = |new: &std::path::Path| {
            let mut v = strings(&["compare"]);
            for p in [&b1, &b2, &b3] {
                v.push(p.to_str().unwrap().to_string());
            }
            v.push(new.to_str().unwrap().to_string());
            v.push("--fail-on-regression".to_string());
            v
        };
        // +4.5% over the median: fine, even though the mean would say -59%.
        let ok = write_temp("median_ok.json", &row(11.5));
        assert!(run(&paths(&ok)).is_ok());
        // +50% over the median: a regression the outlier cannot mask.
        let bad = write_temp("median_bad.json", &row(16.5));
        assert!(run(&paths(&bad)).is_err());
    }

    #[test]
    fn broken_baselines_are_skipped_not_fatal() {
        let row = |t: f64| doc("bga-scaling-v1", &[("g", "cc", "branch-based", 1, t)]);
        let good1 = write_temp("degrade_good1.json", &row(10.0));
        let good2 = write_temp("degrade_good2.json", &row(12.0));
        let empty = write_temp("degrade_empty.json", "");
        let garbled = write_temp("degrade_garbled.json", "{\"schema\": ");
        let new = write_temp("degrade_new.json", &row(11.0));
        // Missing, empty and unparseable baselines all degrade to the
        // median of the two that load (11.0 -> no regression).
        let args: Vec<String> = strings(&[
            "compare",
            good1.to_str().unwrap(),
            "/no/such/baseline.json",
            empty.to_str().unwrap(),
            garbled.to_str().unwrap(),
            good2.to_str().unwrap(),
            new.to_str().unwrap(),
            "--fail-on-regression",
        ]);
        assert!(run(&args).is_ok());
        // With every baseline broken there is nothing to compare against.
        let hopeless = strings(&[
            "compare",
            "/no/such/baseline.json",
            empty.to_str().unwrap(),
            new.to_str().unwrap(),
        ]);
        let err = run(&hopeless).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // A broken *new* document is still a hard error.
        let broken_new = strings(&[
            "compare",
            good1.to_str().unwrap(),
            garbled.to_str().unwrap(),
        ]);
        assert!(run(&broken_new).is_err());
    }

    #[test]
    fn compare_bad_usage_is_loud() {
        assert!(run(&strings(&[])).is_err());
        assert!(run(&strings(&["diff", "a", "b"])).is_err());
        assert!(run(&strings(&["compare", "only-one.json"])).is_err());
        assert!(run(&strings(&["compare", "/no/a.json", "/no/b.json"])).is_err());
        let good = write_temp("good.json", &doc("bga-scaling-v1", &[]));
        let args = |extra: &[&str]| {
            let mut v = strings(&["compare", good.to_str().unwrap(), good.to_str().unwrap()]);
            v.extend(strings(extra));
            v
        };
        assert!(run(&args(&["--threshold"])).is_err());
        assert!(run(&args(&["--threshold", "abc"])).is_err());
        assert!(run(&args(&["--threshold", "-5"])).is_err());
        // Comparing a document against itself is a clean no-op.
        assert!(run(&args(&[])).is_ok());
    }
}
