//! What one benchmark run reports: named metric values, the failure
//! account, and the two renderings (the contract's result line and the
//! fuller `results.json` record).

use crate::json::Json;
use crate::manifest::{unit_of, MetricDef};
use crate::stats::Quartiles;

/// The outcome of one `(workload, seed, trace)` run.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Reported values, in declaration order.
    metrics: Vec<(&'static str, f64)>,
    /// Repetitions whose outputs were checked / that failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons: failed output checks, non-finite metrics,
    /// a metric set that differs from the declared one.
    pub failures: Vec<String>,
    /// Quartiles behind each per-repetition timing (for `results.json`).
    pub quartiles: Vec<(&'static str, Quartiles)>,
    /// Exact counts and context that are not metrics (for `results.json`).
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            quartiles: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. A non-finite value has no JSON spelling and no
    /// meaning: it is reported as 0 and fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() {
            value
        } else {
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
            0.0
        };
        self.metrics.push((name, value));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn metrics(&self) -> &[(&'static str, f64)] {
        &self.metrics
    }

    /// Fail the run unless the reported names are exactly the declared
    /// ones, each once.
    pub fn check_names<'a>(&mut self, declared: impl Iterator<Item = &'a MetricDef>) {
        let declared: Vec<&str> = declared.map(|d| d.name).collect();
        for d in &declared {
            let n = self.metrics.iter().filter(|(m, _)| m == d).count();
            if n != 1 {
                self.failures
                    .push(format!("declared metric {d} reported {n} times"));
            }
        }
        for (m, _) in &self.metrics {
            if !declared.contains(m) {
                self.failures
                    .push(format!("undeclared metric {m} reported"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, v)| {
            let unit = unit_of(name).unwrap_or("");
            (
                *name,
                Json::obj([("value", Json::num(*v)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The `results.json` record: the result line's content plus the
    /// quartiles, exact counts and failure reasons.
    pub fn record(&self) -> Json {
        let quartiles = self.quartiles.iter().map(|(name, q)| {
            (
                *name,
                Json::obj([
                    ("min", Json::num(q.min)),
                    ("p25", Json::num(q.p25)),
                    ("p50", Json::num(q.p50)),
                    ("p75", Json::num(q.p75)),
                    ("n", Json::Int(q.n as u64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Int(self.seed)),
            ("trace", Json::Int(u64::from(self.traced))),
            ("result", self.result_line()),
            ("quartiles", Json::obj(quartiles)),
            (
                "notes",
                Json::obj(self.notes.iter().map(|(k, v)| (*k, v.clone()))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::END_TO_END;

    #[test]
    fn non_finite_metric_fails_the_run_and_prints_zero() {
        let mut o = Outcome::new("w", 1, false);
        o.attempted = 3;
        o.set("wall_s", 1.5);
        assert!(o.correct());
        o.set("cpu_s", f64::NAN);
        assert!(!o.correct());
        let line = o.result_line().compact();
        assert!(line.starts_with(r#"{"correct":false,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"},"cpu_s":{"value":0,"unit":"s"}}"#), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"));
    }

    #[test]
    fn name_check_works_in_both_directions() {
        let mut o = Outcome::new("w", 1, false);
        o.attempted = 1;
        for (d, _) in &END_TO_END {
            o.set(d.name, 1.0);
        }
        o.check_names(END_TO_END.iter().map(|(d, _)| d));
        assert!(o.correct(), "{:?}", o.failures);

        o.set("extra", 1.0);
        o.check_names(END_TO_END.iter().map(|(d, _)| d));
        assert_eq!(o.failures, ["undeclared metric extra reported"]);

        let mut o = Outcome::new("w", 1, false);
        o.attempted = 1;
        o.set("wall_s", 1.0);
        o.check_names(END_TO_END.iter().map(|(d, _)| d));
        assert_eq!(o.failures.len(), END_TO_END.len() - 1);
    }
}
