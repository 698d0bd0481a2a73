//! # crowdkit-obs — deterministic tracing and decision provenance
//!
//! Structured, near-zero-overhead observability for the crowdkit stack.
//! Every layer (platform simulation, assignment, truth inference, SQL and
//! Datalog execution) emits [`Event`]s describing what it did — wave sizes,
//! budget debits, makespans, per-iteration convergence deltas, per-plan-node
//! crowd fetches — into whichever [`Recorder`] is active, and, under
//! provenance capture, explains its decisions as `prov.*` events (see
//! [`prov`]). The event stream is the only telemetry path: a
//! [`MemoryRecorder`] aggregates it in process, and `crowdtrace top` folds
//! a captured stream offline.
//!
//! ## Determinism contract
//!
//! The event stream (keys, simulated timestamps and deterministic fields)
//! is a pure function of the run's seed and inputs: layers emit only from
//! sequential, fixed-order code paths, never from inside parallel workers,
//! so the stream is byte-identical at any thread count — the same rule the
//! compute kernels follow. Host-side timings ride along in separate
//! wall-clock fields that deterministic sinks omit (see
//! [`JsonlRecorder::with_wall`]).
//!
//! ## The telemetry scope
//!
//! What is observed is decided by one scoped, thread-local [`Scope`]: the
//! recorder events go to, and whether decision provenance is captured. An
//! instrumented operation reads it once with [`scope`] and works from that
//! handle. The default scope — a [`NullRecorder`], no provenance — reduces
//! every instrumentation site to a branch.
//!
//! [`with_scope`] pins a whole scope for a region of work;
//! [`with_recorder`] is the shorthand that swaps only the recorder:
//!
//! ```
//! use std::sync::Arc;
//! use crowdkit_obs as obs;
//!
//! let rec = Arc::new(obs::MemoryRecorder::new());
//! obs::with_recorder(rec.clone(), || {
//!     // Any crowdkit work in here is recorded.
//!     obs::quality("accuracy", 0.93);
//! });
//! assert_eq!(rec.count("exp.quality"), 1);
//!
//! let full = obs::Scope { recorder: rec.clone(), provenance: true };
//! obs::with_scope(full, || {
//!     obs::record(obs::Event::new("assign.wave").u64("requested", 3));
//! });
//! assert_eq!(rec.field_sum("assign.wave", "requested"), 3.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod event;
pub mod header;
pub mod histogram;
pub mod prov;
pub mod recorder;
pub mod report;

pub use event::{wall_ns, write_json_string, Event, FieldValue, WallTimer};
pub use header::{StreamHeader, STREAM_MAGIC, STREAM_SCHEMA_VERSION};
pub use histogram::LogHistogram;
pub use recorder::{JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, Tee};
pub use report::{CostReport, ExperimentReport, InferenceReport, LatencyReport, RunReport};

use std::cell::RefCell;
use std::sync::Arc;

/// What this thread observes: the active telemetry scope.
#[derive(Clone)]
pub struct Scope {
    /// Where events and samples go.
    pub recorder: Arc<dyn Recorder>,
    /// Whether decision provenance (`prov.*` events) is captured. The
    /// events still need an enabled recorder to land.
    pub provenance: bool,
}

impl Default for Scope {
    fn default() -> Self {
        Self {
            recorder: Arc::new(NullRecorder),
            provenance: false,
        }
    }
}

impl Scope {
    /// Whether high-volume per-task/per-worker/per-answer provenance should
    /// be captured: provenance is on *and* the recorder wants detail events.
    pub fn capture_detail(&self) -> bool {
        self.provenance && self.recorder.detail()
    }
}

thread_local! {
    static CURRENT: RefCell<Scope> = RefCell::new(Scope::default());
}

/// The telemetry scope active on this thread.
///
/// Hot paths should call this once per operation and reuse the handle
/// rather than re-resolving per item.
pub fn scope() -> Scope {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previous scope when dropped, so a panic inside
/// [`with_scope`] cannot leak the scope into later work.
struct RestoreGuard {
    previous: Option<Scope>,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

/// Runs `f` with `scope` as this thread's telemetry scope, restoring the
/// previous scope afterwards (including on panic). Scopes nest.
///
/// The scope is per-thread: work `f` hands to other threads sees those
/// threads' own scopes (normally the default). Instrumented layers honour
/// this by emitting events and capturing lineage only from the calling
/// thread's sequential code.
pub fn with_scope<R>(scope: Scope, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), scope));
    let _guard = RestoreGuard {
        previous: Some(previous),
    };
    f()
}

/// Runs `f` with `rec` as this thread's active recorder, keeping the rest
/// of the current scope; see [`with_scope`].
pub fn with_recorder<R>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    with_scope(
        Scope {
            recorder: rec,
            ..scope()
        },
        f,
    )
}

/// Records `event` into the active recorder, if one is enabled.
pub fn record(event: Event) {
    CURRENT.with(|c| {
        let rec = &c.borrow().recorder;
        if rec.enabled() {
            rec.record(event);
        }
    });
}

/// Reports a quality metric (accuracy, F1, rank correlation, …) for the
/// current run as an `exp.quality` event. The per-metric means surface in
/// the run's [`ExperimentReport`].
pub fn quality(metric: &'static str, value: f64) {
    record(
        Event::new("exp.quality")
            .str("metric", metric)
            .f64("value", value),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scope with every signal on: memory recorder and provenance.
    fn full(rec: Arc<dyn Recorder>) -> Scope {
        Scope {
            recorder: rec,
            provenance: true,
        }
    }

    fn is_default(s: &Scope) -> bool {
        !s.recorder.enabled() && !s.provenance
    }

    #[test]
    fn default_scope_is_null() {
        assert!(is_default(&scope()));
        // Recording into the default is a no-op, not a panic.
        record(Event::new("x"));
    }

    #[test]
    fn scopes_and_restores() {
        let rec = Arc::new(MemoryRecorder::new());
        with_scope(full(rec.clone()), || {
            let s = scope();
            assert!(s.recorder.enabled() && s.provenance);
            record(Event::new("k").u64("n", 1));
            quality("acc", 0.5);
        });
        assert!(is_default(&scope()));
        assert_eq!(rec.count("k"), 1);
        assert_eq!(rec.count("exp.quality"), 1);
    }

    #[test]
    fn scopes_nest() {
        let outer = Arc::new(MemoryRecorder::new());
        let inner = Arc::new(MemoryRecorder::new());
        with_scope(full(outer.clone()), || {
            record(Event::new("a"));
            with_recorder(inner.clone(), || {
                record(Event::new("b"));
                // The shorthand swaps only the recorder.
                assert!(scope().provenance);
            });
            with_scope(Scope::default(), || assert!(is_default(&scope())));
            record(Event::new("c"));
        });
        assert_eq!(outer.count("a"), 1);
        assert_eq!(outer.count("c"), 1);
        assert_eq!(outer.count("b"), 0);
        assert_eq!(inner.count("b"), 1);
    }

    #[test]
    fn restores_after_panic() {
        let rec = Arc::new(MemoryRecorder::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(rec.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(is_default(&scope()), "panic must not leak the scope");
    }

    #[test]
    fn panic_in_nested_recorder_restores_the_full_scope() {
        let outer: Arc<dyn Recorder> = Arc::new(MemoryRecorder::new());
        with_scope(full(outer.clone()), || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_recorder(Arc::new(NullRecorder), || {
                    with_scope(Scope::default(), || panic!("boom"))
                });
            }));
            assert!(result.is_err());
            let s = scope();
            assert!(Arc::ptr_eq(&s.recorder, &outer), "recorder restored");
            assert!(s.provenance, "provenance flag restored");
        });
        assert!(is_default(&scope()));
    }

    #[test]
    fn scope_is_thread_local() {
        let rec = Arc::new(MemoryRecorder::new());
        with_scope(full(rec), || {
            let other = std::thread::spawn(|| is_default(&scope()));
            assert!(other.join().unwrap(), "other threads see the default");
            assert!(scope().recorder.enabled());
        });
    }

    #[test]
    fn capture_detail_needs_provenance_and_a_detail_recorder() {
        let with = |recorder: Arc<dyn Recorder>, provenance: bool| Scope {
            recorder,
            provenance,
        };
        let jsonl = || -> Arc<dyn Recorder> { Arc::new(JsonlRecorder::in_memory()) };
        assert!(with(jsonl(), true).capture_detail());
        assert!(!with(jsonl(), false).capture_detail(), "provenance off");
        assert!(!with(Arc::new(NullRecorder), true).capture_detail());
        assert!(
            !with(Arc::new(MemoryRecorder::new()), true).capture_detail(),
            "aggregators skip detail events"
        );
        assert!(!scope().capture_detail());
    }
}
