//! Loading and re-serializing JSONL event streams.
//!
//! A stream is what [`crowdkit_obs::JsonlRecorder`] writes: an optional
//! [`StreamHeader`] line (first key `"stream"`) followed by one event per
//! line (first key `"key"`). The loader is strict — any malformed line is
//! a [`StreamError`] carrying its 1-based line number — and lossless:
//! [`LoadedStream::to_jsonl`] reproduces the input byte for byte
//! (numbers keep their lexemes, fields keep their order).
//!
//! ## Wall-clock segregation on the read side
//!
//! The obs event model splits deterministic fields from wall-clock fields;
//! in the serialized form that split survives only as a naming convention:
//! the reserved `wall_ns` stamp plus any field whose name ends in `_ns` is
//! wall-clock data (`plan_ns`, `exec_ns`, `m_ns`, `e_ns`, `run_ns`).
//! [`OwnedEvent::det_fields`] filters them out, which is what `crowdtrace
//! diff` compares — so this crate *reads* wall fields (for replay
//! attribution) but never reads the wall clock itself.

use std::fmt;

use crowdkit_obs::{StreamHeader, STREAM_MAGIC, STREAM_SCHEMA_VERSION};

use crate::json::{self, write_json_string, Json};

/// A load failure at a specific line of the stream file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// 1-based line number within the stream.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StreamError {}

/// True when `name` is wall-clock data under the stream's naming
/// convention (the reserved `wall_ns` stamp or a `*_ns` duration field).
pub fn is_wall_field(name: &str) -> bool {
    name == "wall_ns" || name.ends_with("_ns")
}

/// The prefix of `text` up to and including its last newline — what a
/// reader can safely parse while a writer may still be appending. A
/// torn (newline-less) final line is dropped; text with no newline at
/// all yields `""`.
pub fn complete_lines(text: &str) -> &str {
    match text.rfind('\n') {
        Some(end) => &text[..=end],
        None => "",
    }
}

/// One parsed event line.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// 1-based line number in the source stream (headers count).
    pub line: u32,
    /// The event key (`"platform.batch"`, `"truth.iter"`, …).
    pub key: String,
    /// Simulated-clock timestamp lexeme, if the event carried one.
    pub sim: Option<String>,
    /// Wall-clock stamp lexeme, if the stream was captured with wall data.
    pub wall_ns: Option<String>,
    /// Every remaining field, in stream order (deterministic and wall
    /// duration fields interleaved exactly as written).
    pub fields: Vec<(String, Json)>,
}

impl OwnedEvent {
    /// The deterministic fields only — what two comparable runs must agree
    /// on byte for byte.
    pub fn det_fields(&self) -> impl Iterator<Item = &(String, Json)> {
        self.fields.iter().filter(|(n, _)| !is_wall_field(n))
    }

    /// A named deterministic field as `f64`.
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_f64())
    }

    /// A named deterministic field as `u64`.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_u64())
    }

    /// A named string field.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_str())
    }

    /// A named wall duration field (`*_ns`) in nanoseconds.
    pub fn wall_field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(n, _)| n == name && is_wall_field(n))
            .and_then(|(_, v)| v.as_u64())
    }

    /// Sum of every wall duration field on this event.
    pub fn wall_total(&self) -> u64 {
        self.fields
            .iter()
            .filter(|(n, _)| is_wall_field(n))
            .filter_map(|(_, v)| v.as_u64())
            .sum()
    }

    /// The simulated timestamp as `f64`.
    pub fn sim_f64(&self) -> Option<f64> {
        self.sim.as_deref().and_then(|s| s.parse().ok())
    }

    /// Re-renders the event exactly as it appeared in the stream (no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"key\":");
        write_json_string(&self.key, &mut out);
        if let Some(sim) = &self.sim {
            out.push_str(",\"sim\":");
            out.push_str(sim);
        }
        if let Some(wall) = &self.wall_ns {
            out.push_str(",\"wall_ns\":");
            out.push_str(wall);
        }
        for (name, value) in &self.fields {
            out.push(',');
            write_json_string(name, &mut out);
            out.push(':');
            value.write(&mut out);
        }
        out.push('}');
        out
    }

    /// Renders only the deterministic projection of the event — key,
    /// simulated timestamp and deterministic fields. Two streams of the
    /// same workload must agree on this rendering event for event; it is
    /// what divergence localization compares.
    pub fn det_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"key\":");
        write_json_string(&self.key, &mut out);
        if let Some(sim) = &self.sim {
            out.push_str(",\"sim\":");
            out.push_str(sim);
        }
        for (name, value) in self.det_fields() {
            out.push(',');
            write_json_string(name, &mut out);
            out.push(':');
            value.write(&mut out);
        }
        out.push('}');
        out
    }
}

/// A fully loaded stream: optional validated header plus every event, in
/// stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedStream {
    /// The stream header, when the first line carried one.
    pub header: Option<StreamHeader>,
    /// All event lines, in order.
    pub events: Vec<OwnedEvent>,
}

impl LoadedStream {
    /// True when any event carries wall-clock data (captured with
    /// `with_wall(true)`).
    pub fn has_wall_data(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.wall_ns.is_some() || e.fields.iter().any(|(n, _)| is_wall_field(n)))
    }

    /// Serializes the stream back to JSONL, reproducing the loaded bytes
    /// exactly (header first, one event per line, trailing newline per
    /// line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header {
            out.push_str(&h.to_json());
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// Parses a header object (`{"stream":…}`) already known to carry the
/// `stream` discriminant.
fn parse_header(value: &Json, line: u32) -> Result<StreamHeader, StreamError> {
    let err = |message: String| StreamError { line, message };
    let magic = value
        .get("stream")
        .and_then(Json::as_str)
        .ok_or_else(|| err("header `stream` must be a string".into()))?;
    if magic != STREAM_MAGIC {
        return Err(err(format!(
            "unknown stream magic {magic:?} (expected {STREAM_MAGIC:?})"
        )));
    }
    let schema = value
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("header missing numeric `schema`".into()))?;
    if schema == 0 || schema > u64::from(STREAM_SCHEMA_VERSION) {
        return Err(err(format!(
            "unsupported stream schema {schema} (this build reads ≤ {STREAM_SCHEMA_VERSION})"
        )));
    }
    let git_rev = value
        .get("git_rev")
        .and_then(Json::as_str)
        .ok_or_else(|| err("header missing string `git_rev`".into()))?;
    let seed = value
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("header missing numeric `seed`".into()))?;
    let threads = value
        .get("threads")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("header missing numeric `threads`".into()))?;
    let workload = value
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| err("header missing string `workload`".into()))?;
    Ok(StreamHeader {
        schema: schema as u32,
        git_rev: git_rev.to_owned(),
        seed,
        threads: threads as u32,
        workload: workload.to_owned(),
    })
}

/// Converts one parsed line object into an [`OwnedEvent`].
fn parse_event(value: Json, line: u32) -> Result<OwnedEvent, StreamError> {
    let err = |message: String| StreamError { line, message };
    let members = match value {
        Json::Object(members) => members,
        _ => return Err(err("event line is not a JSON object".into())),
    };
    let mut key = None;
    let mut sim = None;
    let mut wall_ns = None;
    let mut fields = Vec::with_capacity(members.len().saturating_sub(1));
    for (idx, (name, value)) in members.into_iter().enumerate() {
        match name.as_str() {
            "key" => {
                if idx != 0 {
                    return Err(err("`key` must be the first member of an event".into()));
                }
                match value {
                    Json::Str(s) => key = Some(s),
                    _ => return Err(err("event `key` must be a string".into())),
                }
            }
            "sim" => match value {
                Json::Num(lexeme) => {
                    if !fields.is_empty() {
                        return Err(err("`sim` must precede payload fields".into()));
                    }
                    sim = Some(lexeme);
                }
                _ => return Err(err("event `sim` must be a number".into())),
            },
            "wall_ns" => match value {
                Json::Num(lexeme) => {
                    if !fields.is_empty() {
                        return Err(err("`wall_ns` must precede payload fields".into()));
                    }
                    wall_ns = Some(lexeme);
                }
                _ => return Err(err("event `wall_ns` must be a number".into())),
            },
            _ => fields.push((name, value)),
        }
    }
    let key = key.ok_or_else(|| err("event line missing `key`".into()))?;
    Ok(OwnedEvent {
        line,
        key,
        sim,
        wall_ns,
        fields,
    })
}

/// Parses a JSONL stream. The header, when present, must be the first
/// line; every other line must be an event. Errors carry the offending
/// 1-based line number.
pub fn parse_stream(text: &str) -> Result<LoadedStream, StreamError> {
    let mut header = None;
    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = (i + 1) as u32;
        if raw.trim().is_empty() {
            continue;
        }
        let value = json::parse(raw).map_err(|e| StreamError {
            line,
            message: format!("invalid JSON ({e})"),
        })?;
        let is_header = value.get("stream").is_some();
        if is_header {
            if i != 0 {
                return Err(StreamError {
                    line,
                    message: "stream header must be the first line".into(),
                });
            }
            header = Some(parse_header(&value, line)?);
        } else {
            events.push(parse_event(value, line)?);
        }
    }
    Ok(LoadedStream { header, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"stream\":\"crowdkit-obs\",\"schema\":1,\"git_rev\":\"abc\",\
\"seed\":7,\"threads\":2,\"workload\":\"unit\"}";

    #[test]
    fn loads_header_and_events() {
        let text = format!(
            "{HEADER}\n{{\"key\":\"truth.iter\",\"algo\":\"ds\",\"iter\":0,\"delta\":0.5,\
\"m_ns\":120,\"e_ns\":80}}\n{{\"key\":\"truth.run\",\"sim\":1.5,\"iters\":3}}\n"
        );
        let s = parse_stream(&text).unwrap();
        let h = s.header.as_ref().unwrap();
        assert_eq!((h.schema, h.seed, h.threads), (1, 7, 2));
        assert_eq!(h.workload, "unit");
        assert_eq!(s.events.len(), 2);
        let e = &s.events[0];
        assert_eq!(e.line, 2);
        assert_eq!(e.key, "truth.iter");
        assert_eq!(e.field_str("algo"), Some("ds"));
        assert_eq!(e.field_f64("delta"), Some(0.5));
        assert_eq!(e.wall_field("m_ns"), Some(120));
        assert_eq!(e.wall_total(), 200);
        assert_eq!(e.det_fields().count(), 3);
        assert_eq!(s.events[1].sim_f64(), Some(1.5));
        assert!(s.has_wall_data());
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let text = format!(
            "{HEADER}\n{{\"key\":\"k\",\"sim\":1,\"wall_ns\":42,\"n\":2,\"x\":-0.5,\
\"s\":\"a\\\"b\",\"t_ns\":99}}\n{{\"key\":\"k2\"}}\n"
        );
        let s = parse_stream(&text).unwrap();
        assert_eq!(s.to_jsonl(), text);
    }

    #[test]
    fn det_projection_strips_wall_data() {
        let s = parse_stream("{\"key\":\"k\",\"sim\":2,\"wall_ns\":9,\"n\":3,\"plan_ns\":5}\n")
            .unwrap();
        assert_eq!(s.events[0].det_json(), "{\"key\":\"k\",\"sim\":2,\"n\":3}");
        assert_eq!(
            s.events[0].to_json(),
            "{\"key\":\"k\",\"sim\":2,\"wall_ns\":9,\"n\":3,\"plan_ns\":5}"
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = format!("{HEADER}\n{{\"key\":\"ok\"}}\n{{\"key\":}}\n");
        let e = parse_stream(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("invalid JSON"));

        let e = parse_stream("{\"nokey\":1}\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("missing `key`"));

        let e = parse_stream(&format!("{{\"key\":\"k\"}}\n{HEADER}\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("first line"));
    }

    #[test]
    fn header_validation_is_strict() {
        let bad_schema = HEADER.replace("\"schema\":1", "\"schema\":99");
        let e = parse_stream(&bad_schema).unwrap_err();
        assert!(e.message.contains("unsupported stream schema"));

        let bad_magic = HEADER.replace("crowdkit-obs", "other");
        let e = parse_stream(&bad_magic).unwrap_err();
        assert!(e.message.contains("unknown stream magic"));

        let missing = "{\"stream\":\"crowdkit-obs\",\"schema\":1}";
        let e = parse_stream(missing).unwrap_err();
        assert!(e.message.contains("git_rev"));
    }

    #[test]
    fn complete_lines_tolerates_torn_tails() {
        // The watch loop's contract: a half-written final line (no
        // trailing newline yet) is cut, everything before it survives.
        assert_eq!(
            complete_lines("{\"key\":\"a\"}\n{\"key\":\"b\",\"n\":"),
            "{\"key\":\"a\"}\n"
        );
        assert_eq!(complete_lines("{\"key\":\"a\"}\n"), "{\"key\":\"a\"}\n");
        assert_eq!(complete_lines("{\"key\":"), "");
        assert_eq!(complete_lines(""), "");
        // The truncated prefix always parses when the full lines did.
        let torn = format!("{HEADER}\n{{\"key\":\"ok\"}}\n{{\"key\":\"half");
        let s = parse_stream(complete_lines(&torn)).unwrap();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].key, "ok");
    }

    #[test]
    fn headerless_streams_load() {
        let s = parse_stream("{\"key\":\"a\"}\n{\"key\":\"b\",\"n\":1}\n").unwrap();
        assert!(s.header.is_none());
        assert_eq!(s.events.len(), 2);
        assert!(!s.has_wall_data());
    }
}
