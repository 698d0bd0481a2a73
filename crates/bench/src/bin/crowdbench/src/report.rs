//! Metrics and the result line.
//!
//! The last line of a run's standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Result files that
//! `--out` writes hold the same object plus the run's settings and each
//! metric's sample count; `compare` reads them back.

use std::fmt::Write as _;

use crowdkit_trace::json::write_json_string;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every job passed every check.
    pub correct: bool,
    /// Jobs run, including the thread-count check job.
    pub attempted: u64,
    /// Jobs that errored or failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// Median reference-kernel time over the timed loop, in ms; loop wall
    /// times were scaled by `speed::NOMINAL_MS` over it, and each set-up
    /// by the kernel run right after it.
    pub ref_ms: f64,
}

/// A finite number as JSON (non-finite values cannot occur in a result;
/// they are written as `null` so the line stays valid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl RunResult {
    /// The result object. `settings` are extra leading `(key, raw JSON)`
    /// members; `samples` adds each metric's sample count.
    pub fn to_json(&self, settings: &[(&str, String)], samples: bool) -> String {
        let mut s = String::from("{");
        for (k, v) in settings {
            write_json_string(k, &mut s);
            let _ = write!(s, ": {v}, ");
        }
        let _ = write!(
            s,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_json_string(m.name, &mut s);
            let _ = write!(s, ": {{\"value\": {}, \"unit\": ", num(m.value));
            write_json_string(m.unit, &mut s);
            if samples {
                let _ = write!(s, ", \"samples\": {}", m.samples);
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut s = format!(
            "  reference kernel {:.4} ms (nominal {} ms): loop times scaled by {:.4}\n",
            self.ref_ms,
            crate::speed::NOMINAL_MS,
            crate::speed::NOMINAL_MS / self.ref_ms
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<24} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            let _ = writeln!(s, "  FAIL {p}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.8127, "s", 5)],
            problems: Vec::new(),
            ref_ms: 2.0,
        };
        assert_eq!(
            r.to_json(&[], false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = crowdkit_trace::json::parse(&r.to_json(&[("seed", "7".into())], true))
            .expect("valid JSON");
        assert_eq!(parsed.get("seed").and_then(|v| v.as_u64()), Some(7));
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup
                .and_then(|m| m.get("samples"))
                .and_then(|v| v.as_u64()),
            Some(5)
        );
    }
}
