//! Recorder hierarchy: where events go.
//!
//! Everything implements [`Recorder`]. The instrumented layers take the
//! active recorder from [`crate::scope`] and emit into it; which
//! concrete recorder that is decides the cost:
//!
//! * [`NullRecorder`] — the default. `enabled()` is `false`, so
//!   instrumentation sites skip event construction entirely; the residual
//!   cost is one thread-local read and a branch.
//! * [`MemoryRecorder`] — aggregates in memory: per-key event counts,
//!   per-`(key, field)` sums, per-group sums for the events' string
//!   fields, and log-scale histograms for [`sample`](Recorder::sample)
//!   calls. `detail()` is `false`, so per-assignment events are skipped
//!   and only wave/run summaries land.
//! * [`JsonlRecorder`] — writes one JSON object per event to a buffer or
//!   file, the replayable run log. `detail()` is `true`.
//! * [`Tee`] — fans out to two recorders (e.g. aggregate + JSONL); a
//!   detail event goes only to the sides that want detail.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{Event, FieldValue};
use crate::histogram::LogHistogram;

/// A destination for telemetry events and latency samples.
///
/// Implementations must be thread-safe: instrumented layers run under the
/// worker pool and may record from any thread. Determinism is the *caller's*
/// contract — layers emit events only from sequential, fixed-order code
/// paths — so recorders never need to sort.
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants events at all. Instrumentation sites
    /// check this before building an [`Event`], so a disabled recorder
    /// costs one branch.
    fn enabled(&self) -> bool;

    /// Whether this recorder wants high-volume detail events (e.g. one
    /// event per crowd assignment). Defaults to [`enabled`](Self::enabled);
    /// aggregating recorders override it to `false`.
    fn detail(&self) -> bool {
        self.enabled()
    }

    /// Records one structured event.
    fn record(&self, event: Event);

    /// Records a run of scalar latency-style samples under `key` in one
    /// call, so a batch pays for one lookup, not one per value.
    fn sample(&self, key: &'static str, values: &[f64]);
}

impl<R: Recorder + ?Sized> Recorder for Arc<R> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn detail(&self) -> bool {
        (**self).detail()
    }

    fn record(&self, event: Event) {
        (**self).record(event);
    }

    fn sample(&self, key: &'static str, values: &[f64]) {
        (**self).sample(key, values);
    }
}

/// The do-nothing recorder; the default scope's.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}

    fn sample(&self, _key: &'static str, _values: &[f64]) {}
}

/// What the events of one key added up to.
#[derive(Default)]
struct KeyStats {
    count: u64,
    /// The running sum of every numeric and wall field, in the order the
    /// fields first arrived.
    sums: Vec<(&'static str, f64)>,
    groups: Vec<Group>,
}

/// The events of one key that carried the same string values.
struct Group {
    values: Vec<String>,
    count: u64,
    /// The running sum of every numeric field, as in [`KeyStats::sums`].
    sums: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct MemoryState {
    keys: BTreeMap<&'static str, KeyStats>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

/// Adds `v` to the running sum of `name`, starting it at zero the first
/// time `name` arrives.
fn add(sums: &mut Vec<(&'static str, f64)>, name: &'static str, v: f64) {
    let i = match sums.iter().position(|(n, _)| *n == name) {
        Some(i) => i,
        None => {
            sums.push((name, 0.0));
            sums.len() - 1
        }
    };
    sums[i].1 += v;
}

/// The running sum of `name` in `sums`, if it arrived.
fn sum_of(sums: &[(&'static str, f64)], name: &str) -> Option<f64> {
    sums.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
}

/// The string values of `fields`, in field order.
fn strings<'a>(fields: &'a [(&'static str, FieldValue)]) -> impl Iterator<Item = &'a str> {
    fields.iter().filter_map(|(_, v)| match v {
        FieldValue::Str(s) => Some(s.as_str()),
        _ => None,
    })
}

/// In-memory aggregating recorder: counts events by key, sums every
/// numeric and wall field per key and per string-field group, and buckets
/// [`sample`](Recorder::sample) calls into log-scale histograms, all under
/// one lock. Cheap enough to leave on for whole experiment suites; skips
/// per-assignment detail events.
#[derive(Default)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
}

impl MemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded under `key`.
    pub fn count(&self, key: &str) -> u64 {
        self.state.lock().keys.get(key).map_or(0, |s| s.count)
    }

    /// Sum of field `field` across all `key` events, added in arrival order
    /// (0 when absent). Wall fields sum like numeric ones.
    pub fn field_sum(&self, key: &str, field: &str) -> f64 {
        let state = self.state.lock();
        state
            .keys
            .get(key)
            .and_then(|s| sum_of(&s.sums, field))
            .unwrap_or(0.0)
    }

    /// The histogram accumulated for sample key `key`, if any samples
    /// arrived.
    pub fn histogram(&self, key: &str) -> Option<LogHistogram> {
        self.state.lock().histograms.get(key).cloned()
    }

    /// All event keys seen, in lexicographic order, with counts.
    pub fn event_counts(&self) -> Vec<(&'static str, u64)> {
        self.state
            .lock()
            .keys
            .iter()
            .map(|(k, s)| (*k, s.count))
            .collect()
    }

    /// The mean of numeric field `field` in each group of `key` events it
    /// arrived in — the group's sum of it over the group's event count — as
    /// `(label, mean)` in label order. An event's group is the values of
    /// its string fields and its label those values `:`-joined (a
    /// `sql.node` event with `node = "CrowdFilter"` is in group
    /// `"CrowdFilter"`); events with no string field are in none.
    pub fn group_means(&self, key: &str, field: &str) -> Vec<(String, f64)> {
        let state = self.state.lock();
        let Some(stats) = state.keys.get(key) else {
            return Vec::new();
        };
        let mut means: Vec<(String, f64)> = stats
            .groups
            .iter()
            .filter_map(|g| Some((g.values.join(":"), sum_of(&g.sums, field)? / g.count as f64)))
            .collect();
        means.sort_by(|a, b| a.0.cmp(&b.0));
        means
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn detail(&self) -> bool {
        false
    }

    fn record(&self, event: Event) {
        let mut state = self.state.lock();
        let stats = state.keys.entry(event.key).or_default();
        stats.count += 1;
        let mut grouped = false;
        for (name, value) in &event.fields {
            match value {
                FieldValue::Str(_) => grouped = true,
                v => add(&mut stats.sums, name, v.as_f64()),
            }
        }
        for (name, ns) in &event.wall_fields {
            add(&mut stats.sums, name, *ns as f64);
        }
        if !grouped {
            return;
        }
        let same = |g: &Group| {
            g.values
                .iter()
                .map(String::as_str)
                .eq(strings(&event.fields))
        };
        let i = match stats.groups.iter().position(same) {
            Some(i) => i,
            None => {
                stats.groups.push(Group {
                    values: strings(&event.fields).map(str::to_owned).collect(),
                    count: 0,
                    sums: Vec::new(),
                });
                stats.groups.len() - 1
            }
        };
        let group = &mut stats.groups[i];
        group.count += 1;
        for (name, value) in &event.fields {
            if !matches!(value, FieldValue::Str(_)) {
                add(&mut group.sums, name, value.as_f64());
            }
        }
    }

    fn sample(&self, key: &'static str, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        let hist = state.histograms.entry(key).or_default();
        for &v in values {
            hist.record(v);
        }
    }
}

enum Sink {
    Memory(Mutex<Vec<u8>>),
    File(Mutex<FileSink>),
}

/// A buffered log file and the first I/O error a write to it hit.
struct FileSink {
    out: BufWriter<File>,
    error: Option<io::Error>,
}

/// Line-per-event JSON recorder: the replayable run log.
///
/// With [`with_wall(false)`](JsonlRecorder::with_wall) the stream contains
/// only deterministic fields, so two runs of the same workload diff clean
/// byte for byte — at any thread count.
pub struct JsonlRecorder {
    sink: Sink,
    include_wall: bool,
}

impl JsonlRecorder {
    /// A recorder buffering lines in memory; read back with
    /// [`take_bytes`](JsonlRecorder::take_bytes).
    pub fn in_memory() -> Self {
        Self {
            sink: Sink::Memory(Mutex::new(Vec::new())),
            include_wall: true,
        }
    }

    /// A recorder streaming lines to `path` (truncating any existing file).
    /// Call [`flush`](JsonlRecorder::flush) at the end: it reports whether
    /// every line reached the file.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            sink: Sink::File(Mutex::new(FileSink {
                out: BufWriter::new(file),
                error: None,
            })),
            include_wall: true,
        })
    }

    /// Sets whether wall-clock data (`wall_ns` and wall fields) is written.
    /// Turn it off for determinism-diffable streams.
    pub fn with_wall(mut self, include_wall: bool) -> Self {
        self.include_wall = include_wall;
        self
    }

    /// Appends one line. After a file write fails the log has a gap, so
    /// the error is kept and no later line is written.
    fn write_line(&self, line: &str) {
        match &self.sink {
            Sink::Memory(buf) => buf.lock().extend_from_slice(line.as_bytes()),
            Sink::File(f) => {
                let mut f = f.lock();
                if f.error.is_none() {
                    f.error = f.out.write_all(line.as_bytes()).err();
                }
            }
        }
    }

    /// Writes the versioned stream header as one line. Call before any
    /// event lands so the header stays the first line of the stream —
    /// loaders ([`crowdkit-trace`]) validate it there.
    ///
    /// [`crowdkit-trace`]: https://docs.rs/crowdkit-trace
    pub fn write_header(&self, header: &crate::header::StreamHeader) {
        let mut line = header.to_json();
        line.push('\n');
        self.write_line(&line);
    }

    /// Drains and returns the buffered bytes of an in-memory sink; a file
    /// sink buffers none.
    pub fn take_bytes(&self) -> Vec<u8> {
        match &self.sink {
            Sink::Memory(buf) => std::mem::take(&mut *buf.lock()),
            Sink::File(_) => Vec::new(),
        }
    }

    /// Flushes a file sink and returns the first error any write or flush
    /// to it hit, on this call and every later one; `Ok` for memory sinks.
    pub fn flush(&self) -> io::Result<()> {
        let Sink::File(f) = &self.sink else {
            return Ok(());
        };
        let mut f = f.lock();
        if f.error.is_none() {
            f.error = f.out.flush().err();
        }
        match &f.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut line = event.to_json(self.include_wall);
        line.push('\n');
        self.write_line(&line);
    }

    fn sample(&self, _key: &'static str, _values: &[f64]) {
        // Samples are aggregate-only; the JSONL stream carries events.
    }
}

/// Fans every event and sample out to two recorders. An event marked
/// [`detail`](Event::detail) goes only to the sides whose
/// [`Recorder::detail`] is true, so an aggregating side sees the same
/// events whether or not the other side captures detail.
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn detail(&self) -> bool {
        self.0.detail() || self.1.detail()
    }

    fn record(&self, event: Event) {
        let wants = |r: &dyn Recorder| {
            if event.is_detail {
                r.detail()
            } else {
                r.enabled()
            }
        };
        match (wants(&self.0), wants(&self.1)) {
            (true, true) => {
                self.1.record(event.clone());
                self.0.record(event);
            }
            (true, false) => self.0.record(event),
            (false, true) => self.1.record(event),
            (false, false) => {}
        }
    }

    fn sample(&self, key: &'static str, values: &[f64]) {
        self.0.sample(key, values);
        self.1.sample(key, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let r = NullRecorder;
        assert!(!r.enabled());
        assert!(!r.detail());
        r.record(Event::new("x"));
        r.sample("y", &[1.0]);
    }

    #[test]
    fn memory_recorder_aggregates_counts_and_fields() {
        let r = MemoryRecorder::new();
        r.record(Event::new("a.b").u64("n", 3).f64("x", 1.5).wall("t_ns", 7));
        r.record(Event::new("a.b").u64("n", 5).f64("x", 0.5).wall("t_ns", 4));
        r.record(Event::new("c.d"));
        assert_eq!(r.count("a.b"), 2);
        assert_eq!(r.count("c.d"), 1);
        assert_eq!(r.count("missing"), 0);
        assert_eq!(r.field_sum("a.b", "n"), 8.0);
        assert_eq!(r.field_sum("a.b", "x"), 2.0);
        assert_eq!(r.field_sum("a.b", "t_ns"), 11.0, "wall fields sum too");
        assert_eq!(r.field_sum("a.b", "missing"), 0.0);
        assert_eq!(r.field_sum("missing", "n"), 0.0);
        assert_eq!(r.event_counts(), vec![("a.b", 2), ("c.d", 1)]);
    }

    #[test]
    fn memory_recorder_sums_in_arrival_order() {
        // Float addition does not associate: only a left fold in arrival
        // order gives these bits.
        let values = [1e16, 1.0, -1e16, 0.1, 3.0];
        let r = MemoryRecorder::new();
        for v in values {
            r.record(Event::new("k").str("g", "a").f64("x", v));
        }
        let folded = values.iter().fold(0.0, |acc, v| acc + v);
        assert_ne!(folded, values.iter().rev().fold(0.0, |acc, v| acc + v));
        assert_eq!(r.field_sum("k", "x").to_bits(), folded.to_bits());
        let means = r.group_means("k", "x");
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].1.to_bits(), (folded / 5.0).to_bits());
    }

    #[test]
    fn memory_recorder_groups_by_string_fields() {
        let r = MemoryRecorder::new();
        r.record(
            Event::new("exp.quality")
                .str("metric", "f1")
                .f64("value", 0.5),
        );
        r.record(
            Event::new("exp.quality")
                .str("metric", "accuracy")
                .f64("value", 0.8),
        );
        r.record(
            Event::new("exp.quality")
                .str("metric", "accuracy")
                .f64("value", 0.9),
        );
        let means = r.group_means("exp.quality", "value");
        let labels: Vec<&str> = means.iter().map(|(g, _)| g.as_str()).collect();
        assert_eq!(labels, ["accuracy", "f1"], "label order, not arrival");
        assert!((means[0].1 - 0.85).abs() < 1e-12);
        assert_eq!(means[1].1, 0.5);
        assert!(r.group_means("exp.quality", "missing").is_empty());
        assert!(r.group_means("missing", "value").is_empty());
        // The per-key sum still sees every event.
        assert_eq!(r.count("exp.quality"), 3);
        assert!((r.field_sum("exp.quality", "value") - 2.2).abs() < 1e-12);

        // Several string fields make one group, labelled by their values
        // joined with `:`; an event without one is in no group.
        r.record(
            Event::new("sql.node")
                .str("node", "Join")
                .str("side", "l")
                .u64("rows", 2),
        );
        r.record(
            Event::new("sql.node")
                .str("node", "Join")
                .str("side", "l")
                .u64("rows", 4),
        );
        r.record(Event::new("sql.node").str("node", "Join").u64("rows", 9));
        r.record(Event::new("sql.node").u64("rows", 100));
        assert_eq!(
            r.group_means("sql.node", "rows"),
            vec![("Join".to_owned(), 9.0), ("Join:l".to_owned(), 3.0)]
        );
        assert_eq!(r.field_sum("sql.node", "rows"), 115.0);
    }

    #[test]
    fn memory_recorder_histograms_samples() {
        let r = MemoryRecorder::new();
        r.sample("lat", &[1.0]);
        r.sample("lat", &[2.0, 4.0]);
        r.sample("empty", &[]);
        assert_eq!(r.histogram("lat").unwrap().count(), 3);
        assert!(r.histogram("empty").is_none());
        assert!(r.histogram("other").is_none());
    }

    #[test]
    fn jsonl_memory_sink_roundtrip() {
        let r = JsonlRecorder::in_memory().with_wall(false);
        r.record(Event::new("k").at(1.0).u64("n", 2));
        r.record(Event::new("k2"));
        let text = String::from_utf8(r.take_bytes()).unwrap();
        assert_eq!(
            text,
            "{\"key\":\"k\",\"sim\":1,\"n\":2}\n{\"key\":\"k2\"}\n"
        );
        assert!(r.take_bytes().is_empty());
    }

    #[test]
    fn jsonl_header_is_the_first_line() {
        let r = JsonlRecorder::in_memory().with_wall(false);
        r.write_header(&crate::header::StreamHeader::new("deadbee", 42, 4, "unit"));
        r.record(Event::new("k"));
        let text = String::from_utf8(r.take_bytes()).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("{\"stream\":\"crowdkit-obs\",\"schema\":1,"));
        assert!(header.contains("\"seed\":42"));
        assert_eq!(lines.next(), Some("{\"key\":\"k\"}"));
    }

    #[test]
    fn tee_duplicates_events() {
        let tee = Tee(MemoryRecorder::new(), MemoryRecorder::new());
        tee.record(Event::new("k").u64("n", 1));
        tee.sample("s", &[3.0]);
        assert_eq!(tee.0.count("k"), 1);
        assert_eq!(tee.1.count("k"), 1);
        assert_eq!(tee.0.histogram("s").unwrap().count(), 1);
        assert!(!tee.detail(), "two aggregators should not request detail");
    }

    #[test]
    fn tee_passes_detail_events_only_to_detail_sides() {
        let tee = Tee(
            JsonlRecorder::in_memory().with_wall(false),
            MemoryRecorder::new(),
        );
        assert!(tee.detail());
        tee.record(Event::new("summary").u64("n", 1));
        tee.record(Event::new("per_task").u64("n", 1).detail());
        assert_eq!(tee.1.count("summary"), 1);
        assert_eq!(tee.1.count("per_task"), 0, "the aggregator skips detail");
        let text = String::from_utf8(tee.0.take_bytes()).unwrap();
        assert_eq!(
            text,
            "{\"key\":\"summary\",\"n\":1}\n{\"key\":\"per_task\",\"n\":1}\n"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_fails_the_flush() {
        let r = JsonlRecorder::to_file("/dev/full").expect("/dev/full opens for writing");
        r.write_header(&crate::header::StreamHeader::new("deadbee", 1, 1, "unit"));
        r.record(Event::new("k").u64("n", 1));
        assert!(r.flush().is_err(), "a full device loses the log");
        assert!(r.flush().is_err(), "the first error stays");
        assert!(JsonlRecorder::in_memory().flush().is_ok());
    }
}
