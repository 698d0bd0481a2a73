//! Run reports: the cost / latency / quality triangle per run.
//!
//! An [`ExperimentReport`] is distilled from a [`MemoryRecorder`] after an
//! instrumented run: crowd cost (questions asked, currency spent), latency
//! (simulated makespan, answer-latency quantiles, waves), inference effort
//! (EM iterations, convergence), and whatever quality metrics the
//! experiment reported via [`crate::quality`]. A [`RunReport`] bundles one
//! report per experiment plus suite-level totals and renders as JSON —
//! the `RUNREPORT.json` the experiment harness writes.

use std::fmt::Write as _;

use crate::event::{write_json_string, FieldValue};
use crate::recorder::MemoryRecorder;

/// Appends `"name":` to a JSON object body under construction.
fn json_key(out: &mut String, name: &str) {
    write_json_string(name, out);
    out.push(':');
}

/// Appends a finite-guarded float literal.
fn json_f64(out: &mut String, value: f64) {
    FieldValue::F64(value).write_json(out);
}

/// Crowd-cost figures for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct CostReport {
    /// Crowd answers delivered across all platform batches.
    pub questions: u64,
    /// Currency spent on those answers.
    pub spend: f64,
    /// Batches stopped early by budget exhaustion.
    pub budget_stops: u64,
}

/// Latency figures for one run, in simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct LatencyReport {
    /// Total simulated clock advance across batches (sum of makespans).
    pub sim_makespan: f64,
    /// Sum of individual answer latencies — the sequential counterfactual;
    /// `sim_makespan / latency_sum` is the batching speedup.
    pub latency_sum: f64,
    /// Median individual answer latency.
    pub p50: f64,
    /// 95th-percentile individual answer latency.
    pub p95: f64,
    /// Assignment-driver waves executed.
    pub waves: u64,
}

/// Truth-inference effort figures for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct InferenceReport {
    /// Inference runs executed.
    pub runs: u64,
    /// EM iterations summed over those runs.
    pub iterations: u64,
    /// Runs that reached their convergence tolerance.
    pub converged: u64,
}

/// Decision-provenance figures for one run, distilled from the `prov.run`
/// summaries every inference run emits under provenance capture (see
/// [`crate::prov`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct ProvenanceReport {
    /// Inference runs that emitted a lineage summary.
    pub runs: u64,
    /// Tasks whose posterior margin fell below the contested threshold,
    /// summed over runs.
    pub contested: u64,
    /// Label flips across EM iterations, summed over runs.
    pub flips: u64,
    /// Mean of the per-run mean posterior margins (0.0 with no runs).
    pub margin_mean: f64,
}

/// The distilled telemetry of one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct ExperimentReport {
    /// Experiment id (e.g. `"e01_truth_accuracy"`).
    pub id: String,
    /// One-line description of the experiment.
    pub description: String,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: u64,
    /// Crowd cost.
    pub cost: CostReport,
    /// Crowd latency.
    pub latency: LatencyReport,
    /// Truth-inference effort.
    pub inference: InferenceReport,
    /// Decision-provenance summary (contested tasks, label flips).
    pub provenance: ProvenanceReport,
    /// `(metric, mean value)` pairs reported via [`crate::quality`], in
    /// metric order.
    pub quality: Vec<(String, f64)>,
    /// `(event key, count)` for every event key seen, in key order.
    pub event_counts: Vec<(String, u64)>,
}

impl ExperimentReport {
    /// Distils a report from the aggregates a [`MemoryRecorder`]
    /// accumulated during the run. `wall_ms` is supplied by the harness.
    pub fn from_recorder(
        id: impl Into<String>,
        description: impl Into<String>,
        wall_ms: u64,
        rec: &MemoryRecorder,
    ) -> Self {
        let cost = CostReport {
            questions: rec.field_sum("platform.batch", "delivered") as u64,
            spend: rec.field_sum("platform.batch", "spend"),
            budget_stops: rec.field_sum("platform.batch", "budget_stopped") as u64,
        };
        let (p50, p95) = rec
            .histogram("platform.latency")
            .map_or((0.0, 0.0), |h| (h.quantile(0.5), h.quantile(0.95)));
        let latency = LatencyReport {
            sim_makespan: rec.field_sum("platform.batch", "makespan"),
            latency_sum: rec.field_sum("platform.batch", "latency_sum"),
            p50,
            p95,
            waves: rec.count("assign.wave"),
        };
        let inference = InferenceReport {
            runs: rec.count("truth.run"),
            iterations: rec.field_sum("truth.run", "iters") as u64,
            converged: rec.field_sum("truth.run", "converged") as u64,
        };
        let prov_runs = rec.count("prov.run");
        let provenance = ProvenanceReport {
            runs: prov_runs,
            contested: rec.field_sum("prov.run", "contested") as u64,
            flips: rec.field_sum("prov.run", "flips") as u64,
            margin_mean: if prov_runs > 0 {
                rec.field_sum("prov.run", "margin_mean") / prov_runs as f64
            } else {
                0.0
            },
        };
        let quality = rec.group_means("exp.quality", "value");
        let event_counts = rec
            .event_counts()
            .into_iter()
            .map(|(k, n)| (k.to_owned(), n))
            .collect();
        Self {
            id: id.into(),
            description: description.into(),
            wall_ms,
            cost,
            latency,
            inference,
            provenance,
            quality,
            event_counts,
        }
    }

    /// Renders the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        json_key(&mut out, "id");
        write_json_string(&self.id, &mut out);
        out.push(',');
        json_key(&mut out, "description");
        write_json_string(&self.description, &mut out);
        let _ = write!(out, ",\"wall_ms\":{}", self.wall_ms);
        let _ = write!(
            out,
            ",\"cost\":{{\"questions\":{},\"spend\":",
            self.cost.questions
        );
        json_f64(&mut out, self.cost.spend);
        let _ = write!(out, ",\"budget_stops\":{}}}", self.cost.budget_stops);
        out.push_str(",\"latency\":{\"sim_makespan\":");
        json_f64(&mut out, self.latency.sim_makespan);
        out.push_str(",\"latency_sum\":");
        json_f64(&mut out, self.latency.latency_sum);
        out.push_str(",\"p50\":");
        json_f64(&mut out, self.latency.p50);
        out.push_str(",\"p95\":");
        json_f64(&mut out, self.latency.p95);
        let _ = write!(out, ",\"waves\":{}}}", self.latency.waves);
        let _ = write!(
            out,
            ",\"inference\":{{\"runs\":{},\"iterations\":{},\"converged\":{}}}",
            self.inference.runs, self.inference.iterations, self.inference.converged
        );
        let _ = write!(
            out,
            ",\"provenance\":{{\"runs\":{},\"contested\":{},\"flips\":{},\"margin_mean\":",
            self.provenance.runs, self.provenance.contested, self.provenance.flips
        );
        json_f64(&mut out, self.provenance.margin_mean);
        out.push('}');
        out.push_str(",\"quality\":{");
        for (i, (metric, value)) in self.quality.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_key(&mut out, metric);
            json_f64(&mut out, *value);
        }
        out.push_str("},\"events\":{");
        for (i, (key, count)) in self.event_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_key(&mut out, key);
            let _ = write!(out, "{count}");
        }
        out.push_str("}}");
        out
    }
}

/// A suite-level report: one [`ExperimentReport`] per experiment plus
/// totals.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "a distilled report is pure data; dropping it discards the run's telemetry"]
pub struct RunReport {
    /// Per-experiment reports, in registry order.
    pub experiments: Vec<ExperimentReport>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total crowd questions across all experiments.
    #[must_use]
    pub fn total_questions(&self) -> u64 {
        self.experiments.iter().map(|e| e.cost.questions).sum()
    }

    /// Total crowd spend across all experiments.
    #[must_use]
    pub fn total_spend(&self) -> f64 {
        self.experiments.iter().map(|e| e.cost.spend).sum()
    }

    /// Total wall-clock milliseconds across all experiments.
    #[must_use]
    pub fn total_wall_ms(&self) -> u64 {
        self.experiments.iter().map(|e| e.wall_ms).sum()
    }

    /// Renders the full report as pretty-enough JSON (one experiment per
    /// line) — the `RUNREPORT.json` format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"experiments\": {},\n  \"total_questions\": {},\n  \"total_spend\": ",
            self.experiments.len(),
            self.total_questions()
        );
        json_f64(&mut out, self.total_spend());
        let _ = write!(out, ",\n  \"total_wall_ms\": {},", self.total_wall_ms());
        out.push_str("\n  \"runs\": [");
        for (i, exp) in self.experiments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&exp.to_json());
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::Recorder;

    fn sample_recorder() -> MemoryRecorder {
        let rec = MemoryRecorder::new();
        rec.record(
            Event::new("platform.batch")
                .u64("delivered", 10)
                .f64("spend", 1.5)
                .f64("makespan", 30.0)
                .f64("latency_sum", 120.0)
                .u64("budget_stopped", 1),
        );
        rec.record(Event::new("assign.wave").u64("wave", 0));
        rec.record(
            Event::new("truth.run")
                .str("algo", "ds")
                .u64("iters", 12)
                .u64("converged", 1),
        );
        rec.record(
            Event::new("exp.quality")
                .str("metric", "accuracy")
                .f64("value", 0.9),
        );
        rec.record(
            Event::new("prov.run")
                .str("algo", "ds")
                .u64("tasks", 20)
                .u64("contested", 3)
                .u64("flips", 5)
                .f64("margin_mean", 0.8),
        );
        rec.sample("platform.latency", &[12.0]);
        rec
    }

    #[test]
    fn report_distils_cost_latency_quality() {
        let rec = sample_recorder();
        let rep = ExperimentReport::from_recorder("e99", "demo", 42, &rec);
        assert_eq!(rep.cost.questions, 10);
        assert_eq!(rep.cost.spend, 1.5);
        assert_eq!(rep.cost.budget_stops, 1);
        assert_eq!(rep.latency.sim_makespan, 30.0);
        assert_eq!(rep.latency.latency_sum, 120.0);
        assert_eq!(rep.latency.waves, 1);
        assert!(rep.latency.p50 > 0.0);
        assert_eq!(rep.inference.runs, 1);
        assert_eq!(rep.inference.iterations, 12);
        assert_eq!(rep.inference.converged, 1);
        assert_eq!(rep.provenance.runs, 1);
        assert_eq!(rep.provenance.contested, 3);
        assert_eq!(rep.provenance.flips, 5);
        assert_eq!(rep.provenance.margin_mean, 0.8);
        assert_eq!(rep.quality, vec![("accuracy".to_owned(), 0.9)]);
        assert!(rep
            .event_counts
            .iter()
            .any(|(k, n)| k == "truth.run" && *n == 1));
    }

    #[test]
    fn run_report_json_is_wellformed_enough() {
        let rec = sample_recorder();
        let mut run = RunReport::new();
        run.experiments
            .push(ExperimentReport::from_recorder("e99", "demo", 42, &rec));
        let json = run.to_json();
        assert!(json.contains("\"experiments\": 1"));
        assert!(json.contains("\"total_questions\": 10"));
        assert!(json.contains("\"id\":\"e99\""));
        assert!(json.contains("\"accuracy\":0.9"));
        assert!(json.contains("\"provenance\":{\"runs\":1,\"contested\":3"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_renders() {
        let json = RunReport::new().to_json();
        assert!(json.contains("\"experiments\": 0"));
        assert!(json.contains("\"runs\": ["));
    }
}
