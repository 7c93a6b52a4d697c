//! The run record and the one-line result that ends every run.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were shed, or returned wrong bits.
    pub failed: u64,
    /// Failed correctness gates and workload-shape checks.
    pub problems: Vec<String>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Extra `(key, JSON value)` pairs for the run record only.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a record-only number.
    pub fn note(&mut self, key: &str, value: f64) {
        self.record.push((key.into(), num(value)));
    }

    /// Add a record-only string.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.record.push((key.into(), quote(value)));
    }

    /// Fail the run with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(why());
        }
    }

    /// Report the traced phase's `mb_s` and the untraced-over-traced
    /// ratio (1.0 = tracing costs nothing).
    pub fn trace_overhead(&mut self, untraced_mb_s: f64, traced_mb_s: f64) {
        self.metric("trace.mb_s", traced_mb_s, "MB/s");
        self.metric("trace.overhead_ratio", untraced_mb_s / traced_mb_s, "ratio");
    }

    /// Give every metric of `all` that the run did not measure the value
    /// 0, name them in the record, and order the metrics as `all` lists
    /// them. A traced run reports every per-layer metric; the layers a
    /// workload's operation never calls read 0.
    pub fn complete(&mut self, all: &[(&'static str, &'static str)]) {
        let mut missing = Vec::new();
        let mut ordered = Vec::with_capacity(all.len());
        for &(name, unit) in all {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => {
                    missing.push(quote(name));
                    ordered.push(Metric { name, value: 0.0, unit });
                }
            }
        }
        assert!(self.metrics.is_empty(), "unlisted metrics {:?}", self.metrics);
        self.metrics = ordered;
        self.record.push(("not_exercised".into(), format!("[{}]", missing.join(", "))));
    }

    /// Every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(x.name),
                num(x.value),
                quote(x.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The run record: environment, every metric, and the notes.
    pub fn record_line(&self, env: &[(String, String)]) -> String {
        let mut fields: Vec<String> =
            env.iter().chain(&self.record).map(|(k, v)| format!("{}: {v}", quote(k))).collect();
        for x in &self.metrics {
            fields.push(format!("{}: {}", quote(x.name), num(x.value)));
        }
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        fields.push(format!("\"problems\": [{}]", problems.join(", ")));
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment every run records: `nproc`, build profile, compiler,
/// commit (when the checkout is a git repository) and seed.
pub fn environment(workload: &str, seed: u64, trace: bool) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload".into(), quote(workload)),
        ("seed".into(), seed.to_string()),
        ("trace".into(), trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("profile".into(), quote(profile)),
        ("rustc".into(), quote(env!("PERFBENCH_RUSTC"))),
        ("commit".into(), quote(&commit)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("mb_s", 12.5, "MB/s");
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"mb_s\": {\"value\": 12.5, \"unit\": \"MB/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "shape \"x\"".into());
        assert!(!o.correct());
        assert!(o.record_line(&[]).contains("\"problems\": [\"shape \\\"x\\\"\"]"));
    }
}
