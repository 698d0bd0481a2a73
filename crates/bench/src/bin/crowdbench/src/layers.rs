//! The per-layer rollup of a traced run.
//!
//! Times and counts are means per traced job, so runs of different length
//! compare. Percentiles are over single calls. A layer that does no work
//! on a workload reports 0.

use std::collections::BTreeMap;

use crowdkit_obs::MemoryRecorder;

use crate::report::Metric;
use crate::stats::{percentile, sorted};
use crate::trace::{self_times, Tracer};

/// Durations and summed self time of every span with one name.
#[derive(Default)]
struct Calls {
    durs_ns: Vec<f64>,
    self_ns: f64,
}

/// Per-layer metrics from the spans and counters of `tracer`, the obs
/// events of the traced jobs (`events`, with GLAD's in `glad`), and the
/// job times of the traced and untraced jobs of the same run. Times are
/// multiplied by `scale`, the run's machine-speed factor.
pub fn rollup(
    tracer: &Tracer,
    events: &MemoryRecorder,
    glad: &MemoryRecorder,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    scale: f64,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let mut calls: BTreeMap<&str, Calls> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
        let c = calls.entry(s.name).or_default();
        c.durs_ns.push(s.dur_ns() as f64);
        c.self_ns += self_ns as f64;
    }
    let waves = spans
        .iter()
        .filter(|s| s.name == "sim" && s.parent.is_some_and(|p| spans[p].name == "assign"))
        .count();

    let n = traced_ms.len();
    let jobs = n.max(1) as f64;
    let empty = Calls::default();
    let get = |name: &str| calls.get(name).unwrap_or(&empty);
    let busy_ns = |name: &str| get(name).durs_ns.iter().fold(0.0, |a, b| a + b);
    let self_ns = |names: &[&str]| names.iter().fold(0.0, |a, x| a + get(x).self_ns);
    let pct_ns = |name: &str, p: f64| percentile(&sorted(&get(name).durs_ns), p).unwrap_or(0.0);
    let calls_of = |name: &str| get(name).durs_ns.len();
    let counter = |name: &str| tracer.counter(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let events_total: u64 = events
        .event_counts()
        .iter()
        .chain(glad.event_counts().iter())
        .map(|(_, c)| c)
        .sum();
    let median = |ms: &[f64]| percentile(&sorted(ms), 50.0).unwrap_or(0.0);

    let per_job = |name: &'static str, unit: &'static str, total: f64| {
        Metric::new(name, total / jobs, unit, n)
    };
    let per_call = |name: &'static str, unit: &'static str, span: &str, value: f64| {
        Metric::new(name, value, unit, calls_of(span))
    };
    let mut m = vec![
        per_job("sim.busy_ms", "ms", busy_ns("sim") / 1e6),
        per_job("sim.calls", "count", calls_of("sim") as f64),
        per_job("sim.answers", "count", counter("sim.answers")),
        per_call(
            "sim.ns_per_answer",
            "ns",
            "sim",
            ratio(busy_ns("sim"), counter("sim.answers")),
        ),
        per_call("sim.call_p50_us", "us", "sim", pct_ns("sim", 50.0) / 1e3),
        per_call("sim.call_p99_us", "us", "sim", pct_ns("sim", 99.0) / 1e3),
        per_job("sim.shortfalls", "count", counter("sim.shortfalls")),
        per_job(
            "sim.plan_ms",
            "ms",
            events.field_sum("platform.batch", "plan_ns") / 1e6,
        ),
        per_job(
            "sim.exec_ms",
            "ms",
            events.field_sum("platform.batch", "exec_ns") / 1e6,
        ),
        per_job("assign.self_ms", "ms", self_ns(&["assign"]) / 1e6),
        per_job("assign.waves", "count", waves as f64),
        per_job("assign.questions", "count", counter("assign.questions")),
        per_call(
            "assign.ns_per_decision",
            "ns",
            "assign",
            ratio(self_ns(&["assign"]), counter("assign.questions")),
        ),
        per_job("core.csr_ms", "ms", busy_ns("core.csr") / 1e6),
    ];
    for (algo, busy, iters, per_iter) in [
        (
            "truth.mv",
            "truth.mv.busy_ms",
            "truth.mv.iters",
            "truth.mv.ns_per_iter",
        ),
        (
            "truth.ds",
            "truth.ds.busy_ms",
            "truth.ds.iters",
            "truth.ds.ns_per_iter",
        ),
        (
            "truth.glad",
            "truth.glad.busy_ms",
            "truth.glad.iters",
            "truth.glad.ns_per_iter",
        ),
    ] {
        m.push(per_job(busy, "ms", busy_ns(algo) / 1e6));
        m.push(per_job(iters, "count", counter(iters)));
        m.push(per_call(
            per_iter,
            "ns",
            algo,
            ratio(busy_ns(algo), counter(iters)),
        ));
    }
    let sql_queries = [
        "sql.fill",
        "sql.filter",
        "sql.cached",
        "sql.join",
        "sql.topk",
    ];
    m.extend([
        per_job(
            "truth.glad.e_step_ms",
            "ms",
            glad.field_sum("truth.iter", "e_ns") / 1e6,
        ),
        per_job(
            "truth.glad.m_step_ms",
            "ms",
            glad.field_sum("truth.iter", "m_ns") / 1e6,
        ),
        per_call(
            "truth.ds.call_p50_us",
            "us",
            "truth.ds",
            pct_ns("truth.ds", 50.0) / 1e3,
        ),
        per_job("sql.ddl_ms", "ms", busy_ns("sql.ddl") / 1e6),
        per_job("sql.self_ms", "ms", self_ns(&sql_queries) / 1e6),
        per_call(
            "sql.plan_us",
            "us",
            "sql.plan",
            pct_ns("sql.plan", 50.0) / 1e3,
        ),
        per_call(
            "sql.fill_p50_ms",
            "ms",
            "sql.fill",
            pct_ns("sql.fill", 50.0) / 1e6,
        ),
        per_call(
            "sql.join_p50_ms",
            "ms",
            "sql.join",
            pct_ns("sql.join", 50.0) / 1e6,
        ),
        per_call(
            "sql.topk_p50_ms",
            "ms",
            "sql.topk",
            pct_ns("sql.topk", 50.0) / 1e6,
        ),
        per_call(
            "sql.cached_p50_ms",
            "ms",
            "sql.cached",
            pct_ns("sql.cached", 50.0) / 1e6,
        ),
        per_job("sql.questions", "count", counter("sql.questions")),
        per_job("sql.rounds", "count", counter("sql.rounds")),
        per_call(
            "sql.spend_pred_ratio",
            "ratio",
            "sql.fill",
            ratio(counter("sql.spend"), counter("sql.predicted_spend")),
        ),
        per_job(
            "ops.self_ms",
            "ms",
            self_ns(&["ops.filter", "ops.join", "ops.topk"]) / 1e6,
        ),
        per_call(
            "ops.filter_p50_ms",
            "ms",
            "ops.filter",
            pct_ns("ops.filter", 50.0) / 1e6,
        ),
        per_call(
            "ops.join_p50_ms",
            "ms",
            "ops.join",
            pct_ns("ops.join", 50.0) / 1e6,
        ),
        per_call(
            "ops.topk_p50_ms",
            "ms",
            "ops.topk",
            pct_ns("ops.topk", 50.0) / 1e6,
        ),
        per_job("datalog.self_ms", "ms", self_ns(&["datalog"]) / 1e6),
        per_job("datalog.fetches", "count", counter("datalog.fetches")),
        per_job("datalog.cache_hits", "count", counter("datalog.cache_hits")),
        Metric::new(
            "trace.overhead",
            ratio(median(traced_ms), median(untraced_ms)) - 1.0,
            "ratio",
            n.min(untraced_ms.len()),
        ),
        per_job("obs.events", "count", events_total as f64),
    ]);
    for x in &mut m {
        if matches!(x.unit, "ms" | "us" | "ns") {
            x.value *= scale;
        }
    }
    m
}
