//! Snapshots, deltas, and the `metrics.snapshot` event exporter.
//!
//! A [`Snapshot`] is a point-in-time copy of every metric in a
//! [`Registry`], taken in one fixed, hand-written order (the same order
//! every time, on every platform — the metric sequence is part of the
//! serialized contract). [`SnapshotExporter`] diffs consecutive snapshots
//! and emits one `metrics.snapshot` obs [`Event`] per *changed* metric;
//! unchanged metrics are suppressed entirely, and a cycle in which
//! nothing changed emits nothing and does not advance the sequence
//! number.
//!
//! ## Event schema
//!
//! Every event carries `seq` (1-based emit-cycle number), `metric` (the
//! dotted name) and `kind`; the remaining fields depend on the kind:
//!
//! * `counter` — `delta` and `total` (deterministic).
//! * `gauge` — `value` (deterministic).
//! * `hist_det` — `count`/`sum` deltas plus one `b<i>` field per bucket
//!   that grew (all deterministic).
//! * `hist_wall` — deterministic `count` delta only; `sum_ns` delta and
//!   cumulative `p50_ns`/`p95_ns`/`p99_ns`/`max_ns` quantile bounds ride in
//!   wall-segregated fields, which deterministic sinks drop. This is the
//!   PR 3 convention: wall data exists in the stream but never in the
//!   diffable projection.

use crate::Event;

use super::primitives::{Clock, HistData, N_BUCKETS};
use super::registry::{AlgoMetrics, Registry};

/// Static names for histogram bucket fields (`Event` field names must be
/// `&'static str`). Index i names the log2 bucket i.
pub const BUCKET_NAMES: [&str; N_BUCKETS] = [
    "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10", "b11", "b12", "b13", "b14",
    "b15", "b16", "b17", "b18", "b19", "b20", "b21", "b22", "b23", "b24", "b25", "b26", "b27",
    "b28", "b29", "b30", "b31", "b32", "b33", "b34", "b35", "b36", "b37", "b38", "b39", "b40",
    "b41", "b42", "b43", "b44", "b45", "b46", "b47", "b48", "b49", "b50", "b51", "b52", "b53",
    "b54", "b55", "b56", "b57", "b58", "b59", "b60", "b61", "b62", "b63", "b64",
];

/// The captured value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Merged histogram state plus its clock tag (boxed: the bucket array
    /// dwarfs the other variants).
    Hist(Clock, Box<HistData>),
}

/// A point-in-time copy of every metric, in the registry's fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, always the same names in the same order.
    pub metrics: Vec<(&'static str, MetricValue)>,
}

impl Registry {
    /// Captures every metric in the registry's canonical order.
    pub fn snapshot(&self) -> Snapshot {
        let mut m: Vec<(&'static str, MetricValue)> = Vec::with_capacity(40);
        let c = |v: u64| MetricValue::Counter(v);
        let g = |v: i64| MetricValue::Gauge(v);

        let p = &self.platform;
        m.push(("platform.tasks_queued", c(p.tasks_queued.value())));
        m.push(("platform.tasks_assigned", c(p.tasks_assigned.value())));
        m.push(("platform.tasks_answered", c(p.tasks_answered.value())));
        m.push(("platform.batches", c(p.batches.value())));
        m.push(("platform.budget_stopped", c(p.budget_stopped.value())));
        m.push(("platform.no_worker", c(p.no_worker.value())));
        m.push(("platform.spend_micros", c(p.spend_micros.value())));
        m.push(("platform.open_batch_depth", g(p.open_batch_depth.value())));
        m.push((
            "platform.batch_ns",
            MetricValue::Hist(p.batch_ns.clock(), Box::new(p.batch_ns.merged())),
        ));

        let a = &self.assign;
        m.push(("assign.waves", c(a.waves.value())));
        m.push(("assign.questions", c(a.questions.value())));
        m.push(("assign.exhausted", c(a.exhausted.value())));
        m.push((
            "assign.wave_size",
            MetricValue::Hist(a.wave_size.clock(), Box::new(a.wave_size.merged())),
        ));

        let t = &self.truth;
        let algos: [(&'static str, &'static str, &'static str, &AlgoMetrics); 4] = [
            ("truth.ds.iters", "truth.ds.runs", "truth.ds.sweep_ns", &t.ds),
            ("truth.zc.iters", "truth.zc.runs", "truth.zc.sweep_ns", &t.zc),
            (
                "truth.glad.iters",
                "truth.glad.runs",
                "truth.glad.sweep_ns",
                &t.glad,
            ),
            (
                "truth.kos.iters",
                "truth.kos.runs",
                "truth.kos.sweep_ns",
                &t.kos,
            ),
        ];
        for (iters_name, runs_name, sweep_name, algo) in algos {
            m.push((iters_name, c(algo.iters.value())));
            m.push((runs_name, c(algo.runs.value())));
            m.push((
                sweep_name,
                MetricValue::Hist(algo.sweep_ns.clock(), Box::new(algo.sweep_ns.merged())),
            ));
        }
        m.push(("truth.freezes", c(t.freezes.value())));
        m.push(("truth.active_tasks", g(t.active_tasks.value())));
        m.push(("truth.frozen_tasks", g(t.frozen_tasks.value())));

        let s = &self.sql;
        m.push(("sql.queries", c(s.queries.value())));
        m.push(("sql.rows_out", c(s.rows_out.value())));
        m.push(("sql.crowd_questions", c(s.crowd_questions.value())));
        m.push(("sql.spend_micros", c(s.spend_micros.value())));
        m.push(("sql.nodes", c(s.nodes.value())));
        m.push((
            "sql.node_rows",
            MetricValue::Hist(s.node_rows.clock(), Box::new(s.node_rows.merged())),
        ));

        Snapshot { metrics: m }
    }
}

/// Builds the `metrics.snapshot` events for the change from `prev` to
/// `cur` (`prev = None` means "all zeros": the first cycle reports totals
/// as deltas). Unchanged metrics produce no event; the returned list is
/// empty when nothing changed at all.
pub fn delta_events(
    prev: Option<&Snapshot>,
    cur: &Snapshot,
    seq: u64,
    sim_time: Option<f64>,
) -> Vec<Event> {
    let mut out = Vec::new();
    for (i, (name, cur_v)) in cur.metrics.iter().enumerate() {
        let prev_v = prev.map(|p| &p.metrics[i].1);
        if let Some(p) = prev {
            debug_assert_eq!(p.metrics[i].0, *name, "snapshot orders must match");
        }
        let base = || {
            let e = Event::new("metrics.snapshot");
            let e = match sim_time {
                Some(t) => e.at(t),
                None => e,
            };
            e.u64("seq", seq).str("metric", *name)
        };
        match (cur_v, prev_v) {
            (MetricValue::Counter(cur_c), prev_v) => {
                let prev_c = match prev_v {
                    Some(MetricValue::Counter(p)) => *p,
                    _ => 0,
                };
                let delta = cur_c.saturating_sub(prev_c);
                if delta > 0 {
                    out.push(
                        base()
                            .str("kind", "counter")
                            .u64("delta", delta)
                            .u64("total", *cur_c),
                    );
                }
            }
            (MetricValue::Gauge(cur_g), prev_v) => {
                let prev_g = match prev_v {
                    Some(MetricValue::Gauge(p)) => *p,
                    _ => 0,
                };
                if *cur_g != prev_g {
                    out.push(base().str("kind", "gauge").i64("value", *cur_g));
                }
            }
            (MetricValue::Hist(clock, cur_h), prev_v) => {
                let zero = HistData {
                    count: 0,
                    sum: 0,
                    buckets: [0u64; N_BUCKETS],
                };
                let prev_h = match prev_v {
                    Some(MetricValue::Hist(_, p)) => p.as_ref(),
                    _ => &zero,
                };
                let d_count = cur_h.count.saturating_sub(prev_h.count);
                if d_count == 0 {
                    continue;
                }
                let d_sum = cur_h.sum.saturating_sub(prev_h.sum);
                match clock {
                    Clock::Det => {
                        let mut e = base()
                            .str("kind", "hist_det")
                            .u64("count", d_count)
                            .u64("sum", d_sum);
                        for (bi, (&c, &p)) in
                            cur_h.buckets.iter().zip(prev_h.buckets.iter()).enumerate()
                        {
                            let d = c.saturating_sub(p);
                            if d > 0 {
                                e = e.u64(BUCKET_NAMES[bi], d);
                            }
                        }
                        out.push(e);
                    }
                    Clock::Wall => {
                        // Only the sample count is deterministic; the
                        // timing payload rides in wall fields, which
                        // deterministic sinks drop.
                        out.push(
                            base()
                                .str("kind", "hist_wall")
                                .u64("count", d_count)
                                .wall("sum_ns", d_sum)
                                .wall("p50_ns", cur_h.quantile_bound(0.5))
                                .wall("p95_ns", cur_h.quantile_bound(0.95))
                                .wall("p99_ns", cur_h.quantile_bound(0.99))
                                .wall("max_ns", cur_h.max_bound()),
                        );
                    }
                }
            }
        }
    }
    out
}

/// Emits periodic `metrics.snapshot` deltas into the active obs recorder.
///
/// Holds the previous snapshot; each [`emit`](Self::emit) call snapshots
/// the registry, diffs against the previous state, and records one event
/// per changed metric. Empty deltas are fully suppressed (no events, no
/// sequence advance), so an idle period costs nothing in the stream.
#[derive(Default)]
pub struct SnapshotExporter {
    last: Option<Snapshot>,
    seq: u64,
}

impl SnapshotExporter {
    /// An exporter whose first emit reports all non-zero metrics from zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots `reg`, records one `metrics.snapshot` event per changed
    /// metric into this thread's obs recorder, and returns how many
    /// events were emitted (0 for a fully suppressed empty delta).
    pub fn emit(&mut self, reg: &Registry, sim_time: Option<f64>) -> usize {
        let cur = reg.snapshot();
        let events = delta_events(self.last.as_ref(), &cur, self.seq + 1, sim_time);
        let n = events.len();
        if n > 0 {
            self.seq += 1;
            for e in events {
                crate::record(e);
            }
        }
        self.last = Some(cur);
        n
    }

    /// The sequence number of the most recent non-empty emit (0 if none).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_recorder, FieldValue, JsonlRecorder, MemoryRecorder};
    use std::sync::Arc;

    fn field_u64(e: &Event, name: &str) -> Option<u64> {
        match e.field(name) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    #[test]
    fn snapshot_order_is_stable() {
        let r = Registry::new();
        let a = r.snapshot();
        let b = r.snapshot();
        assert_eq!(a, b);
        let names: Vec<_> = a.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "platform.tasks_queued");
        assert!(names.contains(&"truth.glad.sweep_ns"));
        assert!(names.contains(&"sql.node_rows"));
        // No duplicate names.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn counter_delta_and_total() {
        let r = Registry::new();
        r.assign.questions.add(5);
        let s1 = r.snapshot();
        let ev = delta_events(None, &s1, 1, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(field_u64(&ev[0], "delta"), Some(5));
        assert_eq!(field_u64(&ev[0], "total"), Some(5));

        r.assign.questions.add(2);
        let s2 = r.snapshot();
        let ev = delta_events(Some(&s1), &s2, 2, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(field_u64(&ev[0], "delta"), Some(2));
        assert_eq!(field_u64(&ev[0], "total"), Some(7));
    }

    #[test]
    fn empty_delta_is_fully_suppressed() {
        let r = Registry::new();
        r.truth.ds.iters.inc();
        let mut exp = SnapshotExporter::new();
        let rec = Arc::new(MemoryRecorder::new());
        with_recorder(rec.clone(), || {
            assert_eq!(exp.emit(&r, None), 1);
            assert_eq!(exp.seq(), 1);
            // Nothing changed: no events, seq does not advance.
            assert_eq!(exp.emit(&r, None), 0);
            assert_eq!(exp.seq(), 1);
            r.truth.ds.iters.inc();
            assert_eq!(exp.emit(&r, None), 1);
            assert_eq!(exp.seq(), 2);
        });
        assert_eq!(rec.count("metrics.snapshot"), 2);
    }

    #[test]
    fn det_histogram_emits_bucket_deltas() {
        let r = Registry::new();
        r.assign.wave_size.record(3); // bucket 2
        r.assign.wave_size.record(8); // bucket 4
        let s1 = r.snapshot();
        let ev = delta_events(None, &s1, 1, None);
        assert_eq!(ev.len(), 1);
        let e = &ev[0];
        assert_eq!(field_u64(e, "count"), Some(2));
        assert_eq!(field_u64(e, "sum"), Some(11));
        assert_eq!(field_u64(e, "b2"), Some(1));
        assert_eq!(field_u64(e, "b4"), Some(1));
        assert!(e.field("b3").is_none(), "empty buckets are omitted");

        // Second window only reports the new sample.
        r.assign.wave_size.record(3);
        let s2 = r.snapshot();
        let ev = delta_events(Some(&s1), &s2, 2, None);
        assert_eq!(field_u64(&ev[0], "count"), Some(1));
        assert_eq!(field_u64(&ev[0], "b2"), Some(1));
        assert!(ev[0].field("b4").is_none());
    }

    #[test]
    fn wall_histogram_keeps_timings_out_of_det_fields() {
        let r = Registry::new();
        r.truth.ds.sweep_ns.record(1234);
        let ev = delta_events(None, &r.snapshot(), 1, None);
        assert_eq!(ev.len(), 1);
        let e = &ev[0];
        assert_eq!(field_u64(e, "count"), Some(1));
        assert!(e.field("sum").is_none(), "no det sum for wall histograms");
        assert!(
            e.fields.iter().all(|(n, _)| !n.ends_with("_ns")),
            "no det field may carry the wall naming suffix"
        );
        let wall: Vec<_> = e.wall_fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(wall, vec!["sum_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"]);
        // Deterministic serialization hides the timing payload entirely
        // (the metric *name* keeps its _ns suffix; no *field name* does).
        let json = e.to_json(false);
        assert!(!json.contains("_ns\":"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn gauge_reports_value_on_change_only() {
        let r = Registry::new();
        let s0 = r.snapshot();
        r.truth.active_tasks.set(42);
        let s1 = r.snapshot();
        let ev = delta_events(Some(&s0), &s1, 1, None);
        assert_eq!(ev.len(), 1);
        match ev[0].field("value") {
            Some(FieldValue::I64(42)) => {}
            other => panic!("expected gauge value 42, got {other:?}"),
        }
        // Same value again: suppressed.
        assert!(delta_events(Some(&s1), &r.snapshot(), 2, None).is_empty());
    }

    #[test]
    fn exporter_stream_is_deterministic_json() {
        let run = || {
            let r = Registry::new();
            let rec = Arc::new(JsonlRecorder::in_memory().with_wall(false));
            with_recorder(rec.clone(), || {
                r.platform.tasks_queued.add(7);
                r.truth.ds.iters.add(3);
                r.truth.ds.sweep_ns.record(999); // wall data: dropped below
                let mut exp = SnapshotExporter::new();
                exp.emit(&r, Some(1.5));
            });
            rec.take_bytes()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run(), "same updates, byte-identical stream");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("\"metric\":\"platform.tasks_queued\""));
        assert!(!text.contains("_ns\":"), "no wall fields in det projection");
    }
}
