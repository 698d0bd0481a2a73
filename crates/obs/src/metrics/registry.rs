//! The typed metric registry: one struct per instrumented subsystem.
//!
//! Metrics are plain struct fields, not string-keyed lookups — hot paths
//! touch an atomic directly with zero hashing, and the snapshot layer
//! walks the fields in one fixed, hand-written order so serialized
//! snapshots have a stable metric sequence (a prerequisite for the
//! byte-identical stream contract).
//!
//! The active registry is the `registry` of the thread's
//! [`Scope`](crate::Scope): the experiment suite gives each of its 17
//! concurrent experiments a fresh one so they never pollute each other's
//! counters.

use super::primitives::{Clock, Counter, Gauge, Histogram};

/// Platform-simulation metrics (`sim::platform`).
pub struct PlatformMetrics {
    /// Ask requests accepted into batch planning (or `ask_one` calls).
    pub tasks_queued: Counter,
    /// Worker assignments planned (a task may be assigned several times).
    pub tasks_assigned: Counter,
    /// Answers delivered back to the caller.
    pub tasks_answered: Counter,
    /// Batch executions (`ask_batch` calls with at least one request).
    pub batches: Counter,
    /// Requests dropped because the budget ran out mid-plan.
    pub budget_stopped: Counter,
    /// Requests dropped because no eligible worker existed.
    pub no_worker: Counter,
    /// Cumulative spend in integer micro-currency units (never floats:
    /// sharded float addition would be merge-order-sensitive).
    pub spend_micros: Counter,
    /// Requests in the currently executing batch (0 between batches).
    pub open_batch_depth: Gauge,
    /// Wall time of batch execution (plan + parallel exec + assembly).
    pub batch_ns: Histogram,
}

impl PlatformMetrics {
    fn new() -> Self {
        Self {
            tasks_queued: Counter::new(),
            tasks_assigned: Counter::new(),
            tasks_answered: Counter::new(),
            batches: Counter::new(),
            budget_stopped: Counter::new(),
            no_worker: Counter::new(),
            spend_micros: Counter::new(),
            open_batch_depth: Gauge::new(),
            batch_ns: Histogram::new(Clock::Wall),
        }
    }
}

/// Assignment-driver metrics (`crowdkit-assign`).
pub struct AssignMetrics {
    /// Assignment waves issued.
    pub waves: Counter,
    /// Questions asked across all waves.
    pub questions: Counter,
    /// Tasks whose retry budget was exhausted before quorum.
    pub exhausted: Counter,
    /// Distribution of wave sizes (requests per wave).
    pub wave_size: Histogram,
}

impl AssignMetrics {
    fn new() -> Self {
        Self {
            waves: Counter::new(),
            questions: Counter::new(),
            exhausted: Counter::new(),
            wave_size: Histogram::new(Clock::Det),
        }
    }
}

/// Per-algorithm EM metrics: one instance per truth-inference algorithm.
pub struct AlgoMetrics {
    /// EM iterations (sweeps) executed.
    pub iters: Counter,
    /// Complete inference runs.
    pub runs: Counter,
    /// Wall time per EM sweep (E-step + M-step).
    pub sweep_ns: Histogram,
}

impl AlgoMetrics {
    fn new() -> Self {
        Self {
            iters: Counter::new(),
            runs: Counter::new(),
            sweep_ns: Histogram::new(Clock::Wall),
        }
    }
}

/// Truth-inference metrics (`crowdkit-truth`).
pub struct TruthMetrics {
    /// Dawid–Skene.
    pub ds: AlgoMetrics,
    /// One-coin (ZenCrowd-style).
    pub zc: AlgoMetrics,
    /// GLAD.
    pub glad: AlgoMetrics,
    /// KOS belief propagation.
    pub kos: AlgoMetrics,
    /// Tasks frozen by the sparse incremental E-step.
    pub freezes: Counter,
    /// Active (unfrozen) tasks after the most recent sweep.
    pub active_tasks: Gauge,
    /// Frozen tasks after the most recent sweep.
    pub frozen_tasks: Gauge,
}

impl TruthMetrics {
    fn new() -> Self {
        Self {
            ds: AlgoMetrics::new(),
            zc: AlgoMetrics::new(),
            glad: AlgoMetrics::new(),
            kos: AlgoMetrics::new(),
            freezes: Counter::new(),
            active_tasks: Gauge::new(),
            frozen_tasks: Gauge::new(),
        }
    }

    /// The per-algorithm metrics for an obs algorithm tag (`"ds"`, `"zc"`,
    /// `"glad"`, `"kos"`), or `None` for an unknown tag.
    pub fn algo(&self, tag: &str) -> Option<&AlgoMetrics> {
        match tag {
            "ds" => Some(&self.ds),
            "zc" => Some(&self.zc),
            "glad" => Some(&self.glad),
            "kos" => Some(&self.kos),
            _ => None,
        }
    }
}

/// CrowdSQL Volcano-executor metrics (`crowdkit-sql`).
pub struct SqlMetrics {
    /// Queries executed.
    pub queries: Counter,
    /// Result rows returned to callers.
    pub rows_out: Counter,
    /// Crowd questions issued by plan nodes.
    pub crowd_questions: Counter,
    /// Query spend in integer micro-currency units.
    pub spend_micros: Counter,
    /// Plan nodes evaluated.
    pub nodes: Counter,
    /// Distribution of per-node output cardinalities (cost actuals).
    pub node_rows: Histogram,
}

impl SqlMetrics {
    fn new() -> Self {
        Self {
            queries: Counter::new(),
            rows_out: Counter::new(),
            crowd_questions: Counter::new(),
            spend_micros: Counter::new(),
            nodes: Counter::new(),
            node_rows: Histogram::new(Clock::Det),
        }
    }
}

/// The full metric registry: every subsystem's metrics, allocated flat.
pub struct Registry {
    /// Platform simulation.
    pub platform: PlatformMetrics,
    /// Assignment driver.
    pub assign: AssignMetrics,
    /// Truth inference.
    pub truth: TruthMetrics,
    /// CrowdSQL execution.
    pub sql: SqlMetrics,
}

impl Registry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self {
            platform: PlatformMetrics::new(),
            assign: AssignMetrics::new(),
            truth: TruthMetrics::new(),
            sql: SqlMetrics::new(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Converts a non-negative float currency amount to integer micro-units
/// for counter accumulation (saturating, NaN-safe: non-finite maps to 0).
pub fn to_micros(amount: f64) -> u64 {
    if amount.is_finite() && amount > 0.0 {
        (amount * 1e6).round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_lookup_matches_obs_tags() {
        let t = TruthMetrics::new();
        assert!(t.algo("ds").is_some());
        assert!(t.algo("zc").is_some());
        assert!(t.algo("glad").is_some());
        assert!(t.algo("kos").is_some());
        assert!(t.algo("mv").is_none());
    }

    #[test]
    fn micros_conversion() {
        assert_eq!(to_micros(0.0), 0);
        assert_eq!(to_micros(1.5), 1_500_000);
        assert_eq!(to_micros(0.0000005), 1); // rounds, not truncates
        assert_eq!(to_micros(-1.0), 0);
        assert_eq!(to_micros(f64::NAN), 0);
    }

    #[test]
    fn registry_clocks() {
        let r = Registry::new();
        assert_eq!(r.platform.batch_ns.clock(), Clock::Wall);
        assert_eq!(r.assign.wave_size.clock(), Clock::Det);
        assert_eq!(r.truth.ds.sweep_ns.clock(), Clock::Wall);
        assert_eq!(r.sql.node_rows.clock(), Clock::Det);
    }
}
