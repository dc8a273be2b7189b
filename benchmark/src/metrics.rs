//! Named metric values and the result line a run prints.

use bga_obs::json::{object, Json};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in reporting order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// An empty list.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Operations started: batch op executions plus serve queries.
    pub attempted: u64,
    /// Operations whose output was wrong, refused or missing.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
}

impl RunResult {
    /// Whether every operation produced the right output and every metric
    /// is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. A value that is not a finite
    /// number is written as 0 and makes the run incorrect.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let fields = vec![
                    ("value", Json::Number(value)),
                    ("unit", Json::String(m.unit.to_string())),
                ];
                (m.name, object(fields))
            })
            .collect();
        object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", object(metrics)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips_with_every_digit() {
        let mut metrics = Metrics::new();
        metrics.push("qps", 1234.567891234, "1/s");
        metrics.push("setup_s", 0.8127, "s");
        let result = RunResult {
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = result.to_json_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
        let qps = parsed.get("metrics").and_then(|m| m.get("qps")).unwrap();
        assert_eq!(
            qps.get("value").and_then(Json::as_f64),
            Some(1234.567891234)
        );
        assert_eq!(qps.get("unit").and_then(Json::as_str), Some("1/s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failed_op_or_a_non_number_makes_the_run_incorrect() {
        let mut metrics = Metrics::new();
        metrics.push("qps", f64::NAN, "1/s");
        let broken = RunResult {
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(!broken.correct());
        assert!(Json::parse(&broken.to_json_line()).is_ok());
        let failed = RunResult {
            attempted: 2,
            failed: 1,
            metrics: Metrics::new(),
        };
        assert!(!failed.correct());
    }
}
