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
//!   per-`(key, field)` sum/min/max, and log-scale histograms for
//!   [`sample`](Recorder::sample) calls. `detail()` is `false`, so
//!   per-assignment events are skipped and only wave/run summaries land.
//! * [`JsonlRecorder`] — writes one JSON object per event to a buffer or
//!   file, the replayable run log. `detail()` is `true`.
//! * [`Tee`] — fans out to two recorders (e.g. aggregate + JSONL); a
//!   detail event goes only to the sides that want detail.
//! * [`ShardBuffers`] — N ordered shards, each buffering events from one
//!   logical stream (e.g. one experiment); flushing replays shards in index
//!   order so a parallel harness still yields one fixed-order stream.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::Event;
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

/// Sum/min/max/count aggregate of one numeric field across events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Number of events carrying the field.
    pub count: u64,
    /// Sum of the field across those events.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl FieldStats {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for FieldStats {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

#[derive(Default)]
struct MemoryState {
    event_counts: BTreeMap<&'static str, u64>,
    field_stats: BTreeMap<(&'static str, &'static str), FieldStats>,
    grouped: BTreeMap<(&'static str, String, &'static str), FieldStats>,
}

/// In-memory aggregating recorder: counts events by key, aggregates every
/// numeric field, and buckets [`sample`](Recorder::sample) calls into
/// log-scale histograms. Cheap enough to leave on for whole experiment
/// suites; skips per-assignment detail events.
#[derive(Default)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
    histograms: Mutex<BTreeMap<&'static str, Arc<LogHistogram>>>,
}

impl MemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded under `key`.
    pub fn count(&self, key: &str) -> u64 {
        *self.state.lock().event_counts.get(key).unwrap_or(&0)
    }

    /// Aggregate of field `field` across all `key` events, if any such
    /// event carried it.
    pub fn field_stats(&self, key: &str, field: &str) -> Option<FieldStats> {
        self.state
            .lock()
            .field_stats
            .get(&(key, field))
            .map(|s| FieldStats {
                count: s.count,
                sum: s.sum,
                min: s.min,
                max: s.max,
            })
            .filter(|s| s.count > 0)
    }

    /// Sum of field `field` across all `key` events (0 when absent).
    pub fn field_sum(&self, key: &str, field: &str) -> f64 {
        self.field_stats(key, field).map_or(0.0, |s| s.sum)
    }

    /// The histogram accumulated for sample key `key`, if any samples
    /// arrived.
    pub fn histogram(&self, key: &str) -> Option<Arc<LogHistogram>> {
        self.histograms.lock().get(key).cloned()
    }

    /// All event keys seen, in lexicographic order, with counts.
    pub fn event_counts(&self) -> Vec<(&'static str, u64)> {
        self.state
            .lock()
            .event_counts
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// All `(key, field)` aggregates, in lexicographic order.
    pub fn all_field_stats(&self) -> Vec<((&'static str, &'static str), FieldStats)> {
        self.state
            .lock()
            .field_stats
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// All sample histograms, in lexicographic key order.
    pub fn all_histograms(&self) -> Vec<(&'static str, Arc<LogHistogram>)> {
        self.histograms
            .lock()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// The distinct group labels seen for `key` events, in lexicographic
    /// order. An event's group is the `:`-joined values of its string
    /// fields (e.g. a `sql.node` event with `node = "CrowdFilter"` lands in
    /// group `"CrowdFilter"`); events with no string field are ungrouped.
    pub fn groups(&self, key: &str) -> Vec<String> {
        let state = self.state.lock();
        let mut out: Vec<String> = state
            .grouped
            .keys()
            .filter(|(k, _, _)| *k == key)
            .map(|(_, g, _)| g.clone())
            .collect();
        out.dedup();
        out
    }

    /// Aggregate of numeric field `field` across `key` events in `group`.
    pub fn grouped_field_stats(&self, key: &str, group: &str, field: &str) -> Option<FieldStats> {
        self.state
            .lock()
            .grouped
            .iter()
            .find(|((k, g, f), _)| *k == key && g == group && *f == field)
            .map(|(_, s)| *s)
            .filter(|s| s.count > 0)
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
        *state.event_counts.entry(event.key).or_insert(0) += 1;
        let mut group: Option<String> = None;
        for (name, value) in &event.fields {
            if let crate::event::FieldValue::Str(s) = value {
                match &mut group {
                    None => group = Some(s.clone()),
                    Some(g) => {
                        g.push(':');
                        g.push_str(s);
                    }
                }
                continue;
            }
            state
                .field_stats
                .entry((event.key, name))
                .or_default()
                .observe(value.as_f64());
        }
        if let Some(group) = group {
            for (name, value) in &event.fields {
                if matches!(value, crate::event::FieldValue::Str(_)) {
                    continue;
                }
                state
                    .grouped
                    .entry((event.key, group.clone(), name))
                    .or_default()
                    .observe(value.as_f64());
            }
        }
        for (name, ns) in &event.wall_fields {
            state
                .field_stats
                .entry((event.key, name))
                .or_default()
                .observe(*ns as f64);
        }
    }

    fn sample(&self, key: &'static str, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let mut map = self.histograms.lock();
        let hist = map
            .entry(key)
            .or_insert_with(|| Arc::new(LogHistogram::new()));
        for &v in values {
            hist.record(v);
        }
    }
}

enum Sink {
    Memory(Mutex<Vec<u8>>),
    File(Mutex<BufWriter<File>>),
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
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            sink: Sink::File(Mutex::new(BufWriter::new(file))),
            include_wall: true,
        })
    }

    /// Sets whether wall-clock data (`wall_ns` and wall fields) is written.
    /// Turn it off for determinism-diffable streams.
    pub fn with_wall(mut self, include_wall: bool) -> Self {
        self.include_wall = include_wall;
        self
    }

    /// Writes the versioned stream header as one line. Call before any
    /// event lands so the header stays the first line of the stream —
    /// loaders ([`crowdkit-trace`]) validate it there.
    ///
    /// [`crowdkit-trace`]: https://docs.rs/crowdkit-trace
    pub fn write_header(&self, header: &crate::header::StreamHeader) {
        let mut line = header.to_json();
        line.push('\n');
        match &self.sink {
            Sink::Memory(buf) => buf.lock().extend_from_slice(line.as_bytes()),
            Sink::File(w) => {
                let _ = w.lock().write_all(line.as_bytes());
            }
        }
    }

    /// Drains and returns the buffered bytes (in-memory sink only; empty
    /// for file sinks). Flushes file sinks as a side effect.
    pub fn take_bytes(&self) -> Vec<u8> {
        match &self.sink {
            Sink::Memory(buf) => std::mem::take(&mut *buf.lock()),
            Sink::File(w) => {
                let _ = w.lock().flush();
                Vec::new()
            }
        }
    }

    /// Flushes a file sink; no-op for memory sinks.
    pub fn flush(&self) {
        if let Sink::File(w) = &self.sink {
            let _ = w.lock().flush();
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
        match &self.sink {
            Sink::Memory(buf) => buf.lock().extend_from_slice(line.as_bytes()),
            Sink::File(w) => {
                let _ = w.lock().write_all(line.as_bytes());
            }
        }
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

/// N ordered event buffers. Hand shard `i` to the worker producing stream
/// `i` (via [`shard`](ShardBuffers::shard)); after the workers join,
/// [`flush_to`](ShardBuffers::flush_to) replays the shards in index order,
/// turning parallel production into one fixed-order stream.
pub struct ShardBuffers {
    shards: Arc<Vec<Mutex<Vec<Event>>>>,
    detail: bool,
}

/// A [`Recorder`] handle bound to one shard of a [`ShardBuffers`].
pub struct ShardRecorder {
    shards: Arc<Vec<Mutex<Vec<Event>>>>,
    index: usize,
    detail: bool,
}

impl ShardBuffers {
    /// `n` empty shards. `detail` sets what the shard handles report from
    /// [`Recorder::detail`].
    pub fn new(n: usize, detail: bool) -> Self {
        Self {
            shards: Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect()),
            detail,
        }
    }

    /// The recorder handle for shard `index`.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn shard(&self, index: usize) -> ShardRecorder {
        assert!(index < self.shards.len(), "shard index out of range");
        ShardRecorder {
            shards: self.shards.clone(),
            index,
            detail: self.detail,
        }
    }

    /// Drains every shard into `target`, in shard index order.
    pub fn flush_to(&self, target: &dyn Recorder) {
        for shard in self.shards.iter() {
            for event in shard.lock().drain(..) {
                target.record(event);
            }
        }
    }
}

impl Recorder for ShardRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn detail(&self) -> bool {
        self.detail
    }

    fn record(&self, event: Event) {
        self.shards[self.index].lock().push(event);
    }

    fn sample(&self, _key: &'static str, _values: &[f64]) {
        // Shard buffers carry events only; attach a Tee'd MemoryRecorder
        // when sample aggregation is needed.
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
        r.record(Event::new("a.b").u64("n", 3).f64("x", 1.5));
        r.record(Event::new("a.b").u64("n", 5).f64("x", 0.5));
        r.record(Event::new("c.d"));
        assert_eq!(r.count("a.b"), 2);
        assert_eq!(r.count("c.d"), 1);
        assert_eq!(r.count("missing"), 0);
        let n = r.field_stats("a.b", "n").unwrap();
        assert_eq!(n.count, 2);
        assert_eq!(n.sum, 8.0);
        assert_eq!(n.min, 3.0);
        assert_eq!(n.max, 5.0);
        assert_eq!(n.mean(), 4.0);
        assert_eq!(r.field_sum("a.b", "x"), 2.0);
        assert!(r.field_stats("a.b", "missing").is_none());
    }

    #[test]
    fn memory_recorder_groups_by_string_fields() {
        let r = MemoryRecorder::new();
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
        r.record(
            Event::new("exp.quality")
                .str("metric", "f1")
                .f64("value", 0.5),
        );
        assert_eq!(r.groups("exp.quality"), vec!["accuracy", "f1"]);
        let acc = r
            .grouped_field_stats("exp.quality", "accuracy", "value")
            .unwrap();
        assert_eq!(acc.count, 2);
        assert!((acc.mean() - 0.85).abs() < 1e-12);
        assert!(r
            .grouped_field_stats("exp.quality", "missing", "value")
            .is_none());
        // Ungrouped aggregate still sees every event.
        assert_eq!(r.field_stats("exp.quality", "value").unwrap().count, 3);
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

    #[test]
    fn shard_buffers_flush_in_index_order() {
        let shards = ShardBuffers::new(3, true);
        // Fill out of order, as parallel workers would.
        shards.shard(2).record(Event::new("c"));
        shards.shard(0).record(Event::new("a"));
        shards.shard(1).record(Event::new("b"));
        shards.shard(0).record(Event::new("a2"));
        let out = JsonlRecorder::in_memory().with_wall(false);
        shards.flush_to(&out);
        let text = String::from_utf8(out.take_bytes()).unwrap();
        let keys: Vec<&str> = text.lines().collect();
        assert_eq!(
            keys,
            vec![
                "{\"key\":\"a\"}",
                "{\"key\":\"a2\"}",
                "{\"key\":\"b\"}",
                "{\"key\":\"c\"}"
            ]
        );
    }
}
