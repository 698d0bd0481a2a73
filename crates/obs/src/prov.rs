//! Decision provenance: why a task got its label, and what it cost.
//!
//! While the [`Scope`](crate::Scope) has `provenance` on, the truth
//! inferencers record, per task, the contributing responses, the final
//! per-worker quality/weight at convergence, the posterior margin (top-1
//! vs top-2 probability) and the label flip history across EM iterations;
//! the assignment driver and the CrowdSQL Volcano executor attribute crowd
//! spend down node → task → worker. Everything is emitted as `prov.*`
//! events with sim-clock/deterministic fields only, so provenance streams
//! are byte-identical across thread counts like the rest of the event log.
//! `crowdtrace why <task-id>` and `crowdtrace audit` are the query side.
//!
//! ## Event schema
//!
//! | key          | deterministic fields |
//! |--------------|----------------------|
//! | `prov.task`  | `algo`, `task`, `label`, `margin`, `n`, `votes` ("w3=1,w7=0"), `flips` ("i2:0>1") |
//! | `prov.worker`| `algo`, `worker`, `weight`, `answers`, `agree`, `overruled` |
//! | `prov.run`   | `algo`, `tasks`, `workers`, `contested`, `margin_thr`, `margin_mean`, `flips` |
//! | `prov.spend` | `scope` ("node"/"task"/"worker"), `node` or `task` or `worker`, `spend`, `answers` or `questions` |
//!
//! `prov.task`, `prov.worker` and `prov.spend` are high-volume detail
//! events: they are only emitted when [`Scope::capture_detail`] holds (the
//! recorder reports [`detail()`](crate::Recorder::detail), as the JSONL
//! capture path does) and carry the [`Event::detail`] mark, so a
//! [`Tee`](crate::Tee) keeps them out of its aggregating side. The
//! one-per-inference-run `prov.run` summary also lands in aggregating
//! recorders so contested/low-margin counts reach `RUNREPORT.json`.
//!
//! This module holds the cross-layer cost ledger. Task spend is booked
//! as answers are delivered (the assignment driver and the CrowdSQL round
//! oracle feed a [`SpendLedger`] from their sequential delivery loops)
//! and flushed as `scope:"task"` and `scope:"worker"` rows keyed by
//! external id, in ascending id order. Plan-node attribution
//! (`scope:"node"`) is emitted directly by the Volcano executor, which
//! already tracks per-operator question counts; together the three scopes
//! let `crowdtrace why` answer "what did this task cost and who earned
//! it" and `crowdtrace audit` compute spend-per-correct-label.
//!
//! [`Scope::capture_detail`]: crate::Scope::capture_detail

use std::collections::BTreeMap;

use crate::{Event, Recorder};

/// Accumulates crowd spend by task and by worker for one run.
///
/// Construct only when [`Scope::capture_detail`](crate::Scope::capture_detail)
/// holds (the events are high-volume detail rows); `BTreeMap` keys make
/// the flush order — and therefore the event stream — deterministic
/// regardless of delivery interleaving upstream.
#[derive(Debug, Default)]
pub struct SpendLedger {
    by_task: BTreeMap<u64, (f64, u64)>,
    by_worker: BTreeMap<u64, (f64, u64)>,
}

impl SpendLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books `cost` against external task id `task` and worker id
    /// `worker` (one delivered answer).
    pub fn note(&mut self, task: u64, worker: u64, cost: f64) {
        let t = self.by_task.entry(task).or_insert((0.0, 0));
        t.0 += cost;
        t.1 += 1;
        let w = self.by_worker.entry(worker).or_insert((0.0, 0));
        w.0 += cost;
        w.1 += 1;
    }

    /// True when no answers were booked.
    pub fn is_empty(&self) -> bool {
        self.by_task.is_empty()
    }

    /// Flushes the ledger as `prov.spend` events into `rec`: one
    /// `scope:"task"` row per task then one `scope:"worker"` row per
    /// worker, ascending by external id. Call from sequential code after
    /// the run completes.
    pub fn emit(&self, rec: &dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        for (&task, &(spend, answers)) in &self.by_task {
            rec.record(
                Event::new("prov.spend")
                    .str("scope", "task")
                    .u64("task", task)
                    .f64("spend", spend)
                    .u64("answers", answers)
                    .detail(),
            );
        }
        for (&worker, &(spend, answers)) in &self.by_worker {
            rec.record(
                Event::new("prov.spend")
                    .str("scope", "worker")
                    .u64("worker", worker)
                    .f64("spend", spend)
                    .u64("answers", answers)
                    .detail(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlRecorder, NullRecorder};

    #[test]
    fn ledger_aggregates_and_emits_in_id_order() {
        let mut ledger = SpendLedger::new();
        assert!(ledger.is_empty());
        ledger.note(7, 2, 0.05);
        ledger.note(3, 2, 0.05);
        ledger.note(7, 1, 0.10);
        assert!(!ledger.is_empty());

        let rec = JsonlRecorder::in_memory().with_wall(false);
        ledger.emit(&rec);
        let text = String::from_utf8(rec.take_bytes()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 2);
        assert!(lines[0].contains("\"scope\":\"task\"") && lines[0].contains("\"task\":3"));
        assert!(lines[1].contains("\"task\":7") && lines[1].contains("\"answers\":2"));
        let spend7: f64 = 0.05 + 0.10;
        assert!(lines[1].contains(&format!("\"spend\":{spend7}")));
        assert!(lines[2].contains("\"scope\":\"worker\"") && lines[2].contains("\"worker\":1"));
        assert!(lines[3].contains("\"worker\":2") && lines[3].contains("\"answers\":2"));
    }

    #[test]
    fn emit_into_null_recorder_is_a_no_op() {
        let mut ledger = SpendLedger::new();
        ledger.note(1, 1, 1.0);
        ledger.emit(&NullRecorder);
    }
}
