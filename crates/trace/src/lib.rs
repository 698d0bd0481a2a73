//! `crowdkit-trace` — replay, diff and query tooling over the
//! `crowdkit-obs` event stream.
//!
//! The obs layer records what a run *did* as a JSONL stream whose
//! deterministic fields are a pure function of `(seed, inputs)`. This
//! crate is the read side of that contract:
//!
//! - [`stream`] loads a stream, validates its versioned header, and
//!   reports malformed lines with line numbers;
//! - [`mod@replay`] rebuilds per-experiment span trees attributing simulated
//!   cost and wall time, and emits collapsed-stack (`folded`) profiles;
//! - [`diff`] localizes the first divergent event between two runs and
//!   gates metric deltas against configurable thresholds;
//! - [`top`] folds the events into per-subsystem totals: each key's event
//!   count and field sums, split by `algo`, with wall-time quantiles;
//! - [`prov`] folds `prov.*` decision-lineage events into per-run records
//!   and renders the `why <task>` and `audit` reports.
//!
//! The `crowdtrace` binary fronts all of these as subcommands.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod json;
pub mod prov;
pub mod replay;
pub mod stream;
pub mod top;

pub use diff::{first_divergence, metric_deltas, render_deltas, DeltaThresholds, Divergence};
pub use prov::{render_audit, render_why, ProvView};
pub use replay::{replay, Replay};
pub use stream::{complete_lines, parse_stream, LoadedStream, OwnedEvent, StreamError};
pub use top::{collect, KeyTotals, TopView};
