//! Runtime metrics: live counters, gauges and histograms.
//!
//! Live operational state for the crowdkit stack: how many tasks are
//! queued, how fast budget is burning, how big the EM active set is, how
//! long a sweep takes — the counters, gauges and histograms a service
//! front-end (`crowdkitd`, ROADMAP item 1) needs for admission control
//! and backpressure. Where the event stream records *what happened*, a
//! registry maintains *what is true right now*, cheaply enough to leave on
//! inside the EM hot loops (the CI telemetry overhead gate bounds it).
//!
//! ## Architecture
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free primitives with
//!   cache-line-padded per-thread shards and relaxed atomics; reads merge
//!   shards on demand (see [`primitives`]).
//! * [`Registry`] — a typed struct-of-metrics per subsystem (platform,
//!   assign, truth, sql): hot paths touch fields directly, no string
//!   lookup (see [`registry`]).
//! * [`SnapshotExporter`] — diffs consecutive [`Snapshot`]s and emits
//!   `metrics.snapshot` obs events, wall fields segregated so snapshot
//!   streams stay `crowdtrace diff`-able (see [`snapshot`]).
//!
//! ## Scoping
//!
//! The registry updates land in is the `registry` of the thread's
//! [`Scope`](crate::Scope); with none in scope, metric writes are skipped.
//! The experiment suite runs 17 experiments on concurrent threads;
//! per-experiment registries keep their counters independent, which is
//! what makes `metrics.snapshot` streams byte-identical across thread
//! counts.
//!
//! ```
//! use crowdkit_obs::metrics::Registry;
//!
//! let reg = Registry::new();
//! reg.assign.questions.add(3);
//! assert_eq!(reg.assign.questions.value(), 3);
//! ```

pub mod primitives;
pub mod registry;
pub mod snapshot;

pub use primitives::{
    bucket_bound, bucket_of, Clock, Counter, Gauge, HistData, Histogram, N_BUCKETS, N_SHARDS,
};
pub use registry::{
    to_micros, AlgoMetrics, AssignMetrics, PlatformMetrics, Registry, SqlMetrics, TruthMetrics,
};
pub use snapshot::{delta_events, MetricValue, Snapshot, SnapshotExporter, BUCKET_NAMES};
