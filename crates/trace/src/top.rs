//! Rendering `metrics.snapshot` events as a live per-subsystem table.
//!
//! The metrics layer (`crowdkit_obs::metrics`) periodically exports registry
//! deltas as `metrics.snapshot` events: one event per *changed* metric,
//! tagged with its dotted name (`platform.spend_micros`), its kind
//! (`counter` / `gauge` / `hist_det` / `hist_wall`) and the delta payload.
//! This module folds those deltas back into totals and renders them the
//! way `top(1)` renders processes: one table per subsystem (the name
//! prefix before the first `.`), latest values, histogram summaries.
//!
//! ## Accumulation semantics
//!
//! A suite run contains *many* independent registries (one per
//! experiment), each reporting its own deltas from zero. Summing counter
//! and histogram deltas therefore yields the correct run-wide total;
//! gauges are point-in-time readings, so the view keeps the last value
//! seen (and that is what "latest snapshot" means for a gauge).
//!
//! Wall-clock quantile fields (`p50_ns`, …) appear only in streams
//! captured with wall data; deterministic captures carry the sample
//! counts alone, and the renderer degrades to counts-only for them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crowdkit_obs::metrics::{bucket_bound, N_BUCKETS};

use crate::stream::{LoadedStream, OwnedEvent};

/// Accumulated state of one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesState {
    /// Monotonic counter: summed deltas and the event count.
    Counter {
        /// Sum of all `delta` fields (the run-wide total).
        total: u64,
    },
    /// Gauge: the last reported value.
    Gauge {
        /// Latest `value` field.
        value: i64,
    },
    /// Deterministic histogram: summed count/sum/bucket deltas.
    HistDet {
        /// Total samples.
        count: u64,
        /// Sum of sample values.
        sum: u64,
        /// Accumulated log2 bucket counts.
        buckets: Box<[u64; N_BUCKETS]>,
    },
    /// Wall-clock histogram: summed sample count, plus the latest wall
    /// quantile bounds when the stream was captured with wall data.
    HistWall {
        /// Total samples.
        count: u64,
        /// Latest `p50_ns` (cumulative quantile bound), if present.
        p50_ns: Option<u64>,
        /// Latest `p95_ns`, if present.
        p95_ns: Option<u64>,
        /// Latest `p99_ns`, if present.
        p99_ns: Option<u64>,
        /// Latest `max_ns`, if present.
        max_ns: Option<u64>,
    },
}

/// The folded-up metrics view of a stream.
#[derive(Debug, Clone, Default)]
pub struct MetricsView {
    /// Per-series accumulated state, keyed by dotted metric name
    /// (BTreeMap: stable render order).
    pub series: BTreeMap<String, SeriesState>,
    /// Total `metrics.snapshot` events folded in.
    pub events: u64,
    /// Highest `seq` seen (per-registry sequence; suite streams interleave
    /// several registries, so this is "latest cycle", not a global count).
    pub last_seq: u64,
}

/// True when this event is a metrics snapshot delta.
pub fn is_snapshot(e: &OwnedEvent) -> bool {
    e.key == "metrics.snapshot"
}

/// Folds every `metrics.snapshot` event of `stream` into a [`MetricsView`].
/// Unknown kinds and malformed events are skipped, not errors: the viewer
/// must tolerate streams from newer writers.
pub fn collect(stream: &LoadedStream) -> MetricsView {
    let mut view = MetricsView::default();
    for e in stream.events.iter().filter(|e| is_snapshot(e)) {
        let Some(name) = e.field_str("metric") else {
            continue;
        };
        let Some(kind) = e.field_str("kind") else {
            continue;
        };
        view.events += 1;
        if let Some(seq) = e.field_u64("seq") {
            view.last_seq = view.last_seq.max(seq);
        }
        match kind {
            "counter" => {
                let delta = e.field_u64("delta").unwrap_or(0);
                match view.series.get_mut(name) {
                    Some(SeriesState::Counter { total }) => *total += delta,
                    _ => {
                        view.series
                            .insert(name.to_owned(), SeriesState::Counter { total: delta });
                    }
                }
            }
            "gauge" => {
                let value = e
                    .fields
                    .iter()
                    .find(|(n, _)| n == "value")
                    .and_then(|(_, v)| v.as_i64())
                    .unwrap_or(0);
                view.series
                    .insert(name.to_owned(), SeriesState::Gauge { value });
            }
            "hist_det" => {
                let d_count = e.field_u64("count").unwrap_or(0);
                let d_sum = e.field_u64("sum").unwrap_or(0);
                let entry = view
                    .series
                    .entry(name.to_owned())
                    .or_insert_with(|| SeriesState::HistDet {
                        count: 0,
                        sum: 0,
                        buckets: Box::new([0u64; N_BUCKETS]),
                    });
                if let SeriesState::HistDet {
                    count,
                    sum,
                    buckets,
                } = entry
                {
                    *count += d_count;
                    *sum += d_sum;
                    for (n, v) in &e.fields {
                        if let Some(ix) = n.strip_prefix('b').and_then(|s| s.parse::<usize>().ok())
                        {
                            if ix < N_BUCKETS {
                                buckets[ix] += v.as_u64().unwrap_or(0);
                            }
                        }
                    }
                }
            }
            "hist_wall" => {
                let d_count = e.field_u64("count").unwrap_or(0);
                let entry = view
                    .series
                    .entry(name.to_owned())
                    .or_insert_with(|| SeriesState::HistWall {
                        count: 0,
                        p50_ns: None,
                        p95_ns: None,
                        p99_ns: None,
                        max_ns: None,
                    });
                if let SeriesState::HistWall {
                    count,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    max_ns,
                } = entry
                {
                    *count += d_count;
                    // Wall quantiles are cumulative per registry; keep the
                    // latest reading (absent in deterministic captures).
                    *p50_ns = e.wall_field("p50_ns").or(*p50_ns);
                    *p95_ns = e.wall_field("p95_ns").or(*p95_ns);
                    *p99_ns = e.wall_field("p99_ns").or(*p99_ns);
                    *max_ns = e.wall_field("max_ns").or(*max_ns);
                }
            }
            _ => {}
        }
    }
    view
}

/// Quantile bound over accumulated log2 buckets (mirrors the write-side
/// maths in `crowdkit_obs::metrics`).
fn bucket_quantile(buckets: &[u64; N_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(N_BUCKETS - 1)
}

impl MetricsView {
    /// Renders the view as per-subsystem tables (subsystem = name prefix
    /// before the first `.`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metrics snapshot — {} series from {} events (last seq {})",
            self.series.len(),
            self.events,
            self.last_seq
        );
        if self.series.is_empty() {
            out.push_str("(no metrics.snapshot events in this stream)\n");
            return out;
        }
        let mut last_subsystem = "";
        for (name, state) in &self.series {
            let subsystem = name.split('.').next().unwrap_or(name);
            if subsystem != last_subsystem {
                let _ = writeln!(out, "\n[{subsystem}]");
                last_subsystem = subsystem;
            }
            let rendered = match state {
                SeriesState::Counter { total } => format!("{total}"),
                SeriesState::Gauge { value } => format!("{value} (gauge)"),
                SeriesState::HistDet {
                    count,
                    sum,
                    buckets,
                } => {
                    let mean = if *count > 0 {
                        *sum as f64 / *count as f64
                    } else {
                        0.0
                    };
                    format!(
                        "n={count} mean={mean:.1} p50<={} p95<={} max<={}",
                        bucket_quantile(buckets, *count, 0.5),
                        bucket_quantile(buckets, *count, 0.95),
                        buckets
                            .iter()
                            .rposition(|&c| c > 0)
                            .map_or(0, bucket_bound),
                    )
                }
                SeriesState::HistWall {
                    count,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    max_ns,
                } => match (p50_ns, p95_ns, max_ns) {
                    (Some(p50), Some(p95), Some(max)) => {
                        // p99 arrived in a later stream schema; render it
                        // only when the stream carried it.
                        let p99 = p99_ns.map_or(String::new(), |p| format!(" p99<={p}ns"));
                        format!("n={count} p50<={p50}ns p95<={p95}ns{p99} max<={max}ns")
                    }
                    _ => format!("n={count} (wall timings not captured)"),
                },
            };
            let _ = writeln!(out, "  {name:<28} {rendered}");
        }
        out
    }
}

/// One `metrics.snapshot` observation of a single series, for
/// `crowdtrace metrics --series`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// 1-based line number in the stream.
    pub line: u32,
    /// Registry-local emit-cycle number.
    pub seq: u64,
    /// Simulated timestamp, when the event carried one.
    pub sim: Option<f64>,
    /// The event's deterministic payload rendered as `k=v` pairs
    /// (excluding `seq`/`metric`/`kind`).
    pub payload: String,
}

/// Extracts the time series of one metric from a stream, in stream order.
pub fn series(stream: &LoadedStream, name: &str) -> Vec<SeriesPoint> {
    stream
        .events
        .iter()
        .filter(|e| is_snapshot(e) && e.field_str("metric") == Some(name))
        .map(|e| {
            let mut payload = String::new();
            for (n, v) in &e.fields {
                if matches!(n.as_str(), "seq" | "metric" | "kind") {
                    continue;
                }
                if !payload.is_empty() {
                    payload.push(' ');
                }
                let _ = write!(payload, "{n}={}", v.to_string_compact());
            }
            SeriesPoint {
                line: e.line,
                seq: e.field_u64("seq").unwrap_or(0),
                sim: e.sim_f64(),
                payload,
            }
        })
        .collect()
}

/// The sorted list of series names present in a stream.
pub fn series_names(stream: &LoadedStream) -> Vec<String> {
    let mut names: Vec<String> = stream
        .events
        .iter()
        .filter(|e| is_snapshot(e))
        .filter_map(|e| e.field_str("metric").map(str::to_owned))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    fn stream_of(lines: &[&str]) -> LoadedStream {
        parse_stream(&lines.join("\n")).expect("valid stream")
    }

    #[test]
    fn counters_sum_across_registries() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","seq":1,"metric":"assign.questions","kind":"counter","delta":5,"total":5}"#,
            r#"{"key":"metrics.snapshot","seq":1,"metric":"assign.questions","kind":"counter","delta":3,"total":3}"#,
        ]);
        let v = collect(&s);
        assert_eq!(v.events, 2);
        assert_eq!(
            v.series.get("assign.questions"),
            Some(&SeriesState::Counter { total: 8 })
        );
    }

    #[test]
    fn gauges_keep_last_value() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","seq":1,"metric":"truth.active_tasks","kind":"gauge","value":100}"#,
            r#"{"key":"metrics.snapshot","seq":2,"metric":"truth.active_tasks","kind":"gauge","value":-7}"#,
        ]);
        let v = collect(&s);
        assert_eq!(
            v.series.get("truth.active_tasks"),
            Some(&SeriesState::Gauge { value: -7 })
        );
        assert_eq!(v.last_seq, 2);
    }

    #[test]
    fn det_histograms_accumulate_buckets() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","seq":1,"metric":"assign.wave_size","kind":"hist_det","count":2,"sum":11,"b2":1,"b4":1}"#,
            r#"{"key":"metrics.snapshot","seq":2,"metric":"assign.wave_size","kind":"hist_det","count":1,"sum":3,"b2":1}"#,
        ]);
        let v = collect(&s);
        match v.series.get("assign.wave_size") {
            Some(SeriesState::HistDet {
                count,
                sum,
                buckets,
            }) => {
                assert_eq!((*count, *sum), (3, 14));
                assert_eq!(buckets[2], 2);
                assert_eq!(buckets[4], 1);
            }
            other => panic!("unexpected state {other:?}"),
        }
        let rendered = v.render();
        assert!(rendered.contains("[assign]"));
        assert!(rendered.contains("assign.wave_size"));
        assert!(rendered.contains("n=3"));
    }

    #[test]
    fn wall_histograms_degrade_without_wall_data() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","seq":1,"metric":"truth.ds.sweep_ns","kind":"hist_wall","count":4}"#,
        ]);
        let v = collect(&s);
        assert_eq!(
            v.series.get("truth.ds.sweep_ns"),
            Some(&SeriesState::HistWall {
                count: 4,
                p50_ns: None,
                p95_ns: None,
                p99_ns: None,
                max_ns: None
            })
        );
        assert!(v.render().contains("wall timings not captured"));
    }

    #[test]
    fn wall_histograms_pick_up_wall_quantiles() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","wall_ns":1,"seq":1,"metric":"truth.ds.sweep_ns","kind":"hist_wall","count":4,"sum_ns":100,"p50_ns":15,"p95_ns":31,"p99_ns":63,"max_ns":63}"#,
        ]);
        let v = collect(&s);
        assert_eq!(
            v.series.get("truth.ds.sweep_ns"),
            Some(&SeriesState::HistWall {
                count: 4,
                p50_ns: Some(15),
                p95_ns: Some(31),
                p99_ns: Some(63),
                max_ns: Some(63)
            })
        );
        let rendered = v.render();
        assert!(rendered.contains("p95<=31ns"));
        assert!(rendered.contains("p99<=63ns"));
    }

    #[test]
    fn wall_histograms_render_without_p99_from_older_streams() {
        // Streams recorded before p99 landed lack the field; the render
        // degrades to the old three-quantile line.
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","wall_ns":1,"seq":1,"metric":"truth.ds.sweep_ns","kind":"hist_wall","count":4,"sum_ns":100,"p50_ns":15,"p95_ns":31,"max_ns":31}"#,
        ]);
        let rendered = collect(&s).render();
        assert!(rendered.contains("p95<=31ns max<=31ns"));
        assert!(!rendered.contains("p99"));
    }

    #[test]
    fn series_extraction_orders_and_filters() {
        let s = stream_of(&[
            r#"{"key":"metrics.snapshot","seq":1,"metric":"sql.queries","kind":"counter","delta":1,"total":1}"#,
            r#"{"key":"other.event","n":1}"#,
            r#"{"key":"metrics.snapshot","sim":2.5,"seq":2,"metric":"sql.queries","kind":"counter","delta":4,"total":5}"#,
        ]);
        let pts = series(&s, "sql.queries");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].seq, 1);
        assert_eq!(pts[1].sim, Some(2.5));
        assert_eq!(pts[1].payload, "delta=4 total=5");
        assert_eq!(series_names(&s), vec!["sql.queries".to_owned()]);
        assert!(series(&s, "nope").is_empty());
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        let s = stream_of(&[r#"{"key":"platform.batch","requests":1}"#]);
        let v = collect(&s);
        assert_eq!(v.events, 0);
        assert!(v.render().contains("no metrics.snapshot events"));
    }
}
