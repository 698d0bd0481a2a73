//! Run diff: divergence localization and metric-delta reporting.
//!
//! The determinism contract says two runs of the same workload produce
//! byte-identical deterministic event streams — at any thread count. When
//! they don't (the DET001/DET002 bug class), the debugging primitive is
//! *where did they first disagree*: [`first_divergence`] walks both
//! streams in lockstep over the deterministic projection of each event
//! (key, simulated timestamp, non-wall fields) and reports the first
//! mismatch with both line numbers, the event keys, and the first
//! differing field.
//!
//! Orthogonally, [`metric_deltas`] compares the quality / spend / latency
//! triangle per experiment between the two runs — the SIGMOD'17 tutorial's
//! three trade-off axes — against configurable relative thresholds, so a
//! semantic regression fails CI even when the streams are *expected* to
//! differ (different seeds, different commits).

use std::fmt::Write as _;

use crate::replay::{replay, ExperimentSpan};
use crate::stream::LoadedStream;

/// The first point where two streams' deterministic events disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index of the first divergent event (same in both streams).
    pub index: usize,
    /// 1-based line number of the event in stream A (0 when A ended).
    pub line_a: u32,
    /// 1-based line number of the event in stream B (0 when B ended).
    pub line_b: u32,
    /// Event key in stream A (empty when A ended).
    pub key_a: String,
    /// Event key in stream B (empty when B ended).
    pub key_b: String,
    /// Human-readable account of what differed.
    pub detail: String,
}

impl Divergence {
    /// One-paragraph rendering of the divergence.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "first divergent event: index {}", self.index);
        match (self.key_a.is_empty(), self.key_b.is_empty()) {
            (true, false) => {
                let _ = writeln!(
                    out,
                    "  stream A ends here; stream B continues at line {} with key `{}`",
                    self.line_b, self.key_b
                );
            }
            (false, true) => {
                let _ = writeln!(
                    out,
                    "  stream B ends here; stream A continues at line {} with key `{}`",
                    self.line_a, self.key_a
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  A line {} key `{}` | B line {} key `{}`",
                    self.line_a, self.key_a, self.line_b, self.key_b
                );
            }
        }
        let _ = writeln!(out, "  {}", self.detail);
        out
    }
}

/// Finds the first event where the deterministic projections of `a` and
/// `b` differ, or `None` when the streams are identical on every
/// deterministic field (wall data and headers are ignored).
pub fn first_divergence(a: &LoadedStream, b: &LoadedStream) -> Option<Divergence> {
    let n = a.events.len().min(b.events.len());
    for i in 0..n {
        let (ea, eb) = (&a.events[i], &b.events[i]);
        let (ja, jb) = (ea.det_json(), eb.det_json());
        if ja != jb {
            let detail = if ea.key != eb.key {
                format!("keys differ: `{}` vs `{}`", ea.key, eb.key)
            } else if ea.sim != eb.sim {
                format!(
                    "sim timestamps differ: {} vs {}",
                    ea.sim.as_deref().unwrap_or("(none)"),
                    eb.sim.as_deref().unwrap_or("(none)")
                )
            } else {
                first_field_difference(ea, eb)
            };
            return Some(Divergence {
                index: i,
                line_a: ea.line,
                line_b: eb.line,
                key_a: ea.key.clone(),
                key_b: eb.key.clone(),
                detail,
            });
        }
    }
    if a.events.len() != b.events.len() {
        let (ea, eb) = (a.events.get(n), b.events.get(n));
        return Some(Divergence {
            index: n,
            line_a: ea.map_or(0, |e| e.line),
            line_b: eb.map_or(0, |e| e.line),
            key_a: ea.map_or(String::new(), |e| e.key.clone()),
            key_b: eb.map_or(String::new(), |e| e.key.clone()),
            detail: format!(
                "stream lengths differ: {} vs {} events",
                a.events.len(),
                b.events.len()
            ),
        });
    }
    None
}

/// Pinpoints the first deterministic field two same-key events disagree
/// on.
fn first_field_difference(
    ea: &crate::stream::OwnedEvent,
    eb: &crate::stream::OwnedEvent,
) -> String {
    let fa: Vec<_> = ea.det_fields().collect();
    let fb: Vec<_> = eb.det_fields().collect();
    for (x, y) in fa.iter().zip(&fb) {
        if x.0 != y.0 {
            return format!("field names differ: `{}` vs `{}`", x.0, y.0);
        }
        if x.1 != y.1 {
            return format!(
                "field `{}` differs: {} vs {}",
                x.0,
                x.1.to_string_compact(),
                y.1.to_string_compact()
            );
        }
    }
    format!(
        "field counts differ: {} vs {} deterministic fields",
        fa.len(),
        fb.len()
    )
}

/// Relative thresholds for the metric-delta gate. `None` disables the
/// axis; values are fractions (0.05 = 5%).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaThresholds {
    /// Max tolerated relative drop in any quality metric (quality is
    /// one-sided: improvements never breach).
    pub quality: Option<f64>,
    /// Max tolerated relative increase in spend (one-sided: savings never
    /// breach).
    pub spend: Option<f64>,
    /// Max tolerated relative increase in simulated makespan (one-sided).
    pub latency: Option<f64>,
}

impl DeltaThresholds {
    /// True when no axis is gated.
    pub fn is_empty(&self) -> bool {
        self.quality.is_none() && self.spend.is_none() && self.latency.is_none()
    }
}

/// One experiment's metric deltas between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Experiment id.
    pub id: String,
    /// `(metric, a, b, relative delta)` per quality metric present in
    /// either run.
    pub quality: Vec<(String, f64, f64, f64)>,
    /// Spend in run A / run B and the relative delta.
    pub spend: (f64, f64, f64),
    /// Simulated makespan in run A / run B and the relative delta.
    pub latency: (f64, f64, f64),
    /// Axes that breached their thresholds (`"quality:accuracy"`,
    /// `"spend"`, `"latency"`).
    pub breaches: Vec<String>,
}

/// Relative change from `a` to `b`: `(b - a) / |a|`, with the 0/0 case
/// reading as "no change" and a from-zero jump as a full-scale change.
fn rel_delta(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        0.0
    } else if a == 0.0 {
        f64::INFINITY * b.signum()
    } else {
        (b - a) / a.abs()
    }
}

/// Computes per-experiment deltas between two replayed runs, pairing
/// experiments by id (experiments present in only one run are compared
/// against an empty span). Returns the deltas and whether any configured
/// threshold was breached.
pub fn metric_deltas(
    a: &LoadedStream,
    b: &LoadedStream,
    thresholds: &DeltaThresholds,
) -> (Vec<MetricDelta>, bool) {
    let ra = replay(a);
    let rb = replay(b);
    let empty = ExperimentSpan::default();
    // Pair by id, preserving run A's order, then run-B-only experiments.
    let mut ids: Vec<&str> = ra.experiments.iter().map(|e| e.id.as_str()).collect();
    for e in &rb.experiments {
        if !ids.contains(&e.id.as_str()) {
            ids.push(&e.id);
        }
    }
    let mut any_breach = false;
    let mut deltas = Vec::with_capacity(ids.len());
    for id in ids {
        let ea = ra.experiments.iter().find(|e| e.id == id).unwrap_or(&empty);
        let eb = rb.experiments.iter().find(|e| e.id == id).unwrap_or(&empty);
        let mut breaches = Vec::new();
        let mut quality = Vec::new();
        let mut metrics: Vec<&str> = ea.quality.iter().map(|(m, _)| m.as_str()).collect();
        for (m, _) in &eb.quality {
            if !metrics.contains(&m.as_str()) {
                metrics.push(m);
            }
        }
        for metric in metrics {
            let qa = lookup(&ea.quality, metric);
            let qb = lookup(&eb.quality, metric);
            let d = rel_delta(qa, qb);
            if let Some(tol) = thresholds.quality {
                // Quality regressions are drops: breach on d < -tol.
                if d < -tol {
                    any_breach = true;
                    breaches.push(format!("quality:{metric}"));
                }
            }
            quality.push((metric.to_owned(), qa, qb, d));
        }
        let spend_d = rel_delta(ea.spend, eb.spend);
        if let Some(tol) = thresholds.spend {
            if spend_d > tol {
                any_breach = true;
                breaches.push("spend".to_owned());
            }
        }
        let latency_d = rel_delta(ea.makespan, eb.makespan);
        if let Some(tol) = thresholds.latency {
            if latency_d > tol {
                any_breach = true;
                breaches.push("latency".to_owned());
            }
        }
        deltas.push(MetricDelta {
            id: id.to_owned(),
            quality,
            spend: (ea.spend, eb.spend, spend_d),
            latency: (ea.makespan, eb.makespan, latency_d),
            breaches,
        });
    }
    (deltas, any_breach)
}

fn lookup(pairs: &[(String, f64)], metric: &str) -> f64 {
    pairs
        .iter()
        .find(|(m, _)| m == metric)
        .map_or(0.0, |(_, v)| *v)
}

/// Renders the delta table: one row per experiment, breaches flagged.
pub fn render_deltas(deltas: &[MetricDelta]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>12} {:>9}  {:>12} {:>12} {:>9}  quality",
        "exp", "spend A", "spend B", "Δ%", "makespan A", "makespan B", "Δ%"
    );
    for d in deltas {
        let _ = write!(
            out,
            "{:<6} {:>12.2} {:>12.2} {:>8.2}%  {:>12.2} {:>12.2} {:>8.2}% ",
            d.id,
            d.spend.0,
            d.spend.1,
            d.spend.2 * 100.0,
            d.latency.0,
            d.latency.1,
            d.latency.2 * 100.0,
        );
        for (metric, qa, qb, dd) in &d.quality {
            let _ = write!(out, " {metric} {qa:.4}→{qb:.4} ({:+.2}%)", dd * 100.0);
        }
        if !d.breaches.is_empty() {
            let _ = write!(out, "  BREACH[{}]", d.breaches.join(","));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    fn stream(lines: &[&str]) -> LoadedStream {
        let mut text = String::new();
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        parse_stream(&text).unwrap()
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a = stream(&["{\"key\":\"k\",\"sim\":1,\"n\":2}"]);
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn wall_fields_do_not_cause_divergence() {
        let a = stream(&["{\"key\":\"k\",\"wall_ns\":1,\"n\":2,\"t_ns\":100}"]);
        let b = stream(&["{\"key\":\"k\",\"wall_ns\":9,\"n\":2,\"t_ns\":999}"]);
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn field_level_divergence_is_localized() {
        let a = stream(&["{\"key\":\"k\",\"n\":2}", "{\"key\":\"x\",\"v\":1.5}"]);
        let b = stream(&["{\"key\":\"k\",\"n\":2}", "{\"key\":\"x\",\"v\":2.5}"]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!((d.line_a, d.line_b), (2, 2));
        assert_eq!(d.key_a, "x");
        assert!(
            d.detail.contains("field `v` differs: 1.5 vs 2.5"),
            "{}",
            d.detail
        );
        assert!(d.render().contains("line 2"));
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = stream(&["{\"key\":\"k\"}"]);
        let b = stream(&["{\"key\":\"k\"}", "{\"key\":\"extra\"}"]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.key_b, "extra");
        assert!(d.key_a.is_empty());
        assert!(d.render().contains("stream A ends here"));
    }

    #[test]
    fn key_divergence_reports_both_keys() {
        let a = stream(&["{\"key\":\"p\"}"]);
        let b = stream(&["{\"key\":\"q\"}"]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert!(d.detail.contains("`p` vs `q`"));
    }

    fn run(quality: f64, spend: f64, makespan: f64) -> LoadedStream {
        stream(&[
            "{\"key\":\"exp.begin\",\"id\":\"e1\"}",
            &format!(
                "{{\"key\":\"platform.batch\",\"sim\":{makespan},\"requests\":4,\
\"delivered\":4,\"spend\":{spend},\"makespan\":{makespan},\"latency_sum\":9,\
\"budget_stopped\":0,\"no_worker\":0}}"
            ),
            &format!("{{\"key\":\"exp.quality\",\"metric\":\"accuracy\",\"value\":{quality}}}"),
            "{\"key\":\"exp.end\",\"id\":\"e1\"}",
        ])
    }

    #[test]
    fn deltas_flag_only_configured_breaches() {
        let a = run(0.9, 10.0, 50.0);
        let b = run(0.8, 10.4, 80.0); // −11% quality, +4% spend, +60% latency
        let (deltas, breach) = metric_deltas(&a, &b, &DeltaThresholds::default());
        assert!(!breach, "no thresholds configured");
        assert_eq!(deltas.len(), 1);
        assert!((deltas[0].quality[0].3 - (-1.0 / 9.0)).abs() < 1e-9);

        let t = DeltaThresholds {
            quality: Some(0.05),
            spend: Some(0.05),
            latency: Some(0.05),
        };
        let (deltas, breach) = metric_deltas(&a, &b, &t);
        assert!(breach);
        assert_eq!(
            deltas[0].breaches,
            vec!["quality:accuracy".to_owned(), "latency".to_owned()],
            "spend is within 5%"
        );
        assert!(render_deltas(&deltas).contains("BREACH[quality:accuracy,latency]"));
    }

    #[test]
    fn improvements_never_breach_one_sided_gates() {
        let a = run(0.8, 10.0, 50.0);
        let b = run(0.95, 5.0, 20.0);
        let t = DeltaThresholds {
            quality: Some(0.01),
            spend: Some(0.01),
            latency: Some(0.01),
        };
        let (_, breach) = metric_deltas(&a, &b, &t);
        assert!(!breach);
    }
}
