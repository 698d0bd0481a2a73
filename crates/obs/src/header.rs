//! The versioned stream header.
//!
//! A JSONL run log opens with one header line describing what produced the
//! stream: schema version, git revision, seed, worker-thread count and a
//! workload id. The header is metadata, not an event — consumers
//! ([`crowdkit-trace`]'s loader) validate it on load and use it to decide
//! whether two streams are even comparable (same schema, same workload)
//! before diffing their events.
//!
//! The header line is distinguishable from event lines by its first key:
//! events open with `"key"`, headers with `"stream"`.
//!
//! Determinism note: `git_rev` and `workload` are pure functions of the
//! checkout and the run configuration; `threads` is configuration, not a
//! measurement. Two runs of the same workload at different thread counts
//! differ *only* in the header's `threads` value — their event bodies stay
//! byte-identical, which is exactly the invariant `crowdtrace diff`
//! checks.
//!
//! [`crowdkit-trace`]: https://docs.rs/crowdkit-trace

use std::fmt::Write as _;

use crate::event::write_json_string;

/// The stream schema version this crate writes. Bump when the event JSON
/// layout or the header key set changes incompatibly.
pub const STREAM_SCHEMA_VERSION: u32 = 1;

/// The value of the header's `stream` discriminant key.
pub const STREAM_MAGIC: &str = "crowdkit-obs";

/// Metadata describing one captured run log; serialized as the stream's
/// first line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct StreamHeader {
    /// Stream schema version ([`STREAM_SCHEMA_VERSION`] when written by
    /// this crate).
    pub schema: u32,
    /// Short git revision of the producing checkout (`"unknown"` outside
    /// a checkout).
    pub git_rev: String,
    /// The run's top-level seed (0 for fixed-seed workload suites).
    pub seed: u64,
    /// Worker-thread count the run was configured with.
    pub threads: u32,
    /// Workload identifier (e.g. `"experiments:all"`).
    pub workload: String,
}

impl StreamHeader {
    /// A header for the current schema version.
    pub fn new(
        git_rev: impl Into<String>,
        seed: u64,
        threads: u32,
        workload: impl Into<String>,
    ) -> Self {
        Self {
            schema: STREAM_SCHEMA_VERSION,
            git_rev: git_rev.into(),
            seed,
            threads,
            workload: workload.into(),
        }
    }

    /// Renders the header as one JSON object (no trailing newline), with
    /// a fixed key order so identical metadata yields identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"stream\":\"{STREAM_MAGIC}\",\"schema\":{}",
            self.schema
        );
        out.push_str(",\"git_rev\":");
        write_json_string(&self.git_rev, &mut out);
        let _ = write!(out, ",\"seed\":{},\"threads\":{}", self.seed, self.threads);
        out.push_str(",\"workload\":");
        write_json_string(&self.workload, &mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_renders_with_fixed_key_order() {
        let h = StreamHeader::new("abc1234", 7, 8, "experiments:all");
        assert_eq!(
            h.to_json(),
            "{\"stream\":\"crowdkit-obs\",\"schema\":1,\"git_rev\":\"abc1234\",\
             \"seed\":7,\"threads\":8,\"workload\":\"experiments:all\"}"
        );
    }

    #[test]
    fn header_escapes_string_fields() {
        let h = StreamHeader::new("a\"b", 0, 1, "w\\x");
        let j = h.to_json();
        assert!(j.contains("\"git_rev\":\"a\\\"b\""));
        assert!(j.contains("\"workload\":\"w\\\\x\""));
    }
}
