//! The structured event model.
//!
//! An [`Event`] is one record in a run's telemetry stream: a static key
//! naming what happened, an optional *simulated*-clock timestamp, a
//! wall-clock timestamp, and two field lists. The split between
//! [`fields`](Event::fields) and [`wall_fields`](Event::wall_fields) is the
//! determinism boundary of the whole subsystem:
//!
//! * `fields` carry only values that are pure functions of the run's seed
//!   and inputs (counts, simulated times, spend, convergence deltas). Two
//!   runs of the same workload — at *any* thread count — produce identical
//!   `key`/`sim_time`/`fields` sequences.
//! * `wall_fields` carry host-side measurements (phase timings in
//!   nanoseconds) that vary run to run. Sinks that care about replayable,
//!   diffable streams drop them (see
//!   [`JsonlRecorder::with_wall`](crate::recorder::JsonlRecorder::with_wall)).
//!
//! An event may also be marked as *detail* ([`Event::detail`]): one of the
//! high-volume per-assignment, per-task or per-worker records that only
//! recorders reporting [`Recorder::detail`](crate::Recorder::detail) want.
//! The mark routes the event; it is never serialized.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// A field value: the closed set of types events may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned counter or id.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A real-valued measurement (simulated seconds, currency units, …).
    F64(f64),
    /// A short label (task kind, algorithm name, predicate).
    Str(String),
}

impl FieldValue {
    /// The value as `f64`, for aggregation (strings aggregate as 0).
    pub fn as_f64(&self) -> f64 {
        match self {
            FieldValue::U64(v) => *v as f64,
            FieldValue::I64(v) => *v as f64,
            FieldValue::F64(v) => *v,
            FieldValue::Str(_) => 0.0,
        }
    }

    /// Appends the value to `out` as a JSON literal. Non-finite floats
    /// become `null` so the line stays valid JSON.
    pub fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// Nanoseconds since the first telemetry event of the process. Wall-clock
/// only — never feed this into anything determinism-sensitive.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A wall-clock stopwatch whose readings are only good for
/// [`Event::wall`] fields.
///
/// This is the sanctioned way for instrumented code to time a phase:
/// `Instant::now()` outside the obs event layer trips the workspace lint
/// (DET002), because ad-hoc wall-clock reads are exactly how
/// nondeterministic values leak into serialized streams. A `WallTimer`
/// keeps the measurement inside the wall-clock-segregated side of the
/// event model by construction.
///
/// ```
/// use crowdkit_obs::{Event, WallTimer};
/// let t = WallTimer::start();
/// let e = Event::new("phase.done").wall("t_ns", t.elapsed_ns());
/// assert_eq!(e.wall_fields.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallTimer(u64);

impl WallTimer {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Self(wall_ns())
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        wall_ns().saturating_sub(self.0)
    }
}

/// One structured telemetry record. Build with the fluent methods:
///
/// ```
/// use crowdkit_obs::Event;
/// let e = Event::new("platform.batch")
///     .at(12.5)
///     .u64("requests", 40)
///     .f64("spend", 120.0);
/// assert_eq!(e.key, "platform.batch");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, `layer.what` (`"platform.batch"`, `"truth.iter"`).
    pub key: &'static str,
    /// Simulated-clock timestamp in seconds, when the emitting layer has a
    /// simulated clock.
    pub sim_time: Option<f64>,
    /// Wall-clock timestamp (nanoseconds since process telemetry epoch).
    pub wall_ns: u64,
    /// Deterministic payload: identical across runs and thread counts.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Host-timing payload (phase durations in ns); excluded from
    /// determinism-sensitive output.
    pub wall_fields: Vec<(&'static str, u64)>,
    /// Whether this is a high-volume detail event; set with
    /// [`detail`](Event::detail). Not serialized.
    pub is_detail: bool,
}

impl Event {
    /// Starts an event with the given key, stamped with the current wall
    /// clock.
    pub fn new(key: &'static str) -> Self {
        Self {
            key,
            sim_time: None,
            wall_ns: wall_ns(),
            fields: Vec::new(),
            wall_fields: Vec::new(),
            is_detail: false,
        }
    }

    /// Marks the event as a detail event, which [`Tee`](crate::Tee) passes
    /// only to recorders whose [`Recorder::detail`](crate::Recorder::detail)
    /// is true.
    pub fn detail(mut self) -> Self {
        self.is_detail = true;
        self
    }

    /// Sets the simulated-clock timestamp.
    pub fn at(mut self, sim_time: f64) -> Self {
        self.sim_time = Some(sim_time);
        self
    }

    /// Adds an unsigned field.
    pub fn u64(mut self, name: &'static str, value: u64) -> Self {
        self.fields.push((name, FieldValue::U64(value)));
        self
    }

    /// Adds a signed field.
    pub fn i64(mut self, name: &'static str, value: i64) -> Self {
        self.fields.push((name, FieldValue::I64(value)));
        self
    }

    /// Adds a real-valued field.
    pub fn f64(mut self, name: &'static str, value: f64) -> Self {
        self.fields.push((name, FieldValue::F64(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((name, FieldValue::Str(value.into())));
        self
    }

    /// Adds a wall-clock timing field (nanoseconds).
    pub fn wall(mut self, name: &'static str, ns: u64) -> Self {
        self.wall_fields.push((name, ns));
        self
    }

    /// Looks up a deterministic field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (no trailing newline).
    /// `include_wall` controls whether `wall_ns` and the wall fields are
    /// written; with it off, the output is a pure function of the run's
    /// seed and inputs.
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"key\":");
        FieldValue::Str(self.key.to_owned()).write_json(&mut out);
        if let Some(t) = self.sim_time {
            out.push_str(",\"sim\":");
            FieldValue::F64(t).write_json(&mut out);
        }
        if include_wall {
            let _ = write!(out, ",\"wall_ns\":{}", self.wall_ns);
        }
        for (name, value) in &self.fields {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            value.write_json(&mut out);
        }
        if include_wall {
            for (name, ns) in &self.wall_fields {
                let _ = write!(out, ",\"{name}\":{ns}");
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_fields_in_order() {
        let e = Event::new("x.y")
            .at(1.5)
            .u64("a", 7)
            .f64("b", 0.25)
            .str("c", "hi")
            .wall("t_ns", 99);
        assert_eq!(e.key, "x.y");
        assert_eq!(e.sim_time, Some(1.5));
        assert_eq!(e.field("a"), Some(&FieldValue::U64(7)));
        assert_eq!(e.fields.len(), 3);
        assert_eq!(e.wall_fields, vec![("t_ns", 99)]);
    }

    #[test]
    fn json_excludes_wall_fields_when_asked() {
        let e = Event::new("k").at(2.0).u64("n", 3).wall("t_ns", 42);
        let with = e.to_json(true);
        let without = e.to_json(false);
        assert!(with.contains("\"wall_ns\":"));
        assert!(with.contains("\"t_ns\":42"));
        assert!(!without.contains("wall"));
        assert!(!without.contains("t_ns"));
        assert_eq!(without, "{\"key\":\"k\",\"sim\":2,\"n\":3}");
    }

    #[test]
    fn the_detail_mark_is_not_serialized() {
        let e = Event::new("k").u64("n", 3);
        let d = e.clone().detail();
        assert!(d.is_detail && !e.is_detail);
        assert_eq!(d.to_json(false), e.to_json(false));
    }

    #[test]
    fn json_escapes_strings_and_guards_nonfinite() {
        let e = Event::new("k")
            .str("s", "a\"b\\c\nd")
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY);
        let j = e.to_json(false);
        assert!(j.contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert!(j.contains("\"nan\":null"));
        assert!(j.contains("\"inf\":null"));
    }

    #[test]
    fn wall_clock_is_monotone() {
        let a = wall_ns();
        let b = wall_ns();
        assert!(b >= a);
    }
}
