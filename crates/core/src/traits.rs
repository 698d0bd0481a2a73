//! Extension-point traits wiring the stack together.
//!
//! * [`CrowdOracle`] — how operators and query engines *ask the crowd*.
//!   The platform simulator (`crowdkit-sim`) implements it; tests implement
//!   tiny deterministic oracles.
//! * [`TruthInferencer`] — how noisy answers become one estimated truth per
//!   task. All algorithms in `crowdkit-truth` implement it.
//! * [`StoppingRule`] — when to stop buying more answers for a task.

use crate::answer::Answer;
use crate::ask::{AskOutcome, AskRequest};
use crate::error::Result;
use crate::response::ResponseMatrix;
use crate::task::Task;

/// The interface through which crowd answers are obtained.
///
/// An oracle owns the economics: it debits the budget per answer, picks the
/// responding worker, and timestamps the result. Implementations must be
/// deterministic for a fixed seed so experiments are reproducible.
///
/// # Concurrency model
///
/// All methods take `&self`: an oracle is a *shared service*, like the
/// platform it models, and implementations use interior mutability (the
/// simulator stripes its state behind locks). This lets operators hold one
/// oracle reference across fan-out call sites and lets batch
/// implementations overlap independent assignments. Implementations must
/// keep the determinism contract **per logical call sequence**: the same
/// seed and the same sequence of `ask*` calls produce the same answers,
/// regardless of how many threads the implementation uses internally.
///
/// # Requests, outcomes and partial delivery
///
/// The primary entry points are [`ask`](CrowdOracle::ask) (one
/// [`AskRequest`]) and [`ask_batch`](CrowdOracle::ask_batch) (many, which
/// platforms overlap in latency). Both report delivery through
/// [`AskOutcome`], which makes partial delivery explicit: answers already
/// purchased are always returned (they were paid for) and the
/// [`shortfall`](AskOutcome::shortfall) field records why delivery stopped.
/// [`ask_many`](CrowdOracle::ask_many) remains as a thin convenience that
/// discards the shortfall detail.
pub trait CrowdOracle {
    /// Asks one (implementation-chosen) worker to answer `task`.
    ///
    /// Fails with a resource-exhaustion error when the budget is spent or no
    /// worker is available; callers typically stop gracefully on those.
    fn ask_one(&self, task: &Task) -> Result<Answer>;

    /// Executes one request: asks `redundancy` *distinct* workers.
    ///
    /// The default loops over [`CrowdOracle::ask_one`]; platforms with
    /// smarter assignment (exclusion handling, latency overlap) override
    /// it.
    ///
    /// Errors are only returned when *nothing* was purchased and the error
    /// is not a resource-exhaustion condition. In every other case the
    /// answers bought so far are delivered in the outcome with the stop
    /// reason in [`AskOutcome::shortfall`] — a mid-batch failure must not
    /// discard answers the budget already paid for.
    fn ask(&self, req: &AskRequest<'_>) -> Result<AskOutcome> {
        let want = req.redundancy.max(1);
        let mut answers = Vec::with_capacity(want);
        let mut shortfall = None;
        for _ in 0..want {
            match self.ask_one(req.task) {
                Ok(a) => answers.push(a),
                Err(e) if answers.is_empty() && !e.is_resource_exhaustion() => return Err(e),
                Err(e) => {
                    shortfall = Some(e);
                    break;
                }
            }
        }
        Ok(AskOutcome {
            task: req.task.id,
            requested: want,
            answers,
            shortfall,
        })
    }

    /// Executes a batch of requests, returning one outcome per request in
    /// input order.
    ///
    /// The default runs requests sequentially through
    /// [`CrowdOracle::ask`]; once the budget is drained, later requests
    /// are starved without further platform calls. Platform
    /// implementations override this to overlap the assignments of the
    /// whole batch in (simulated) latency — batching is the dominant
    /// latency lever of crowd execution. Budget, when contended, is always
    /// awarded in request order so batch funding is deterministic.
    fn ask_batch(&self, reqs: &[AskRequest<'_>]) -> Result<Vec<AskOutcome>> {
        let mut outcomes = Vec::with_capacity(reqs.len());
        let mut drained: Option<crate::error::CrowdError> = None;
        for req in reqs {
            if let Some(e) = &drained {
                outcomes.push(AskOutcome::starved(
                    req.task.id,
                    req.redundancy.max(1),
                    e.clone(),
                ));
                continue;
            }
            let out = self.ask(req)?;
            if out.stopped_by_budget() {
                drained = out.shortfall.clone();
            }
            outcomes.push(out);
        }
        Ok(outcomes)
    }

    /// Asks `k` *distinct* workers to answer `task`, without exclusions.
    ///
    /// Convenience over [`CrowdOracle::ask`]. On resource exhaustion
    /// mid-way, returns the answers obtained so far if any, otherwise the
    /// error; use `ask` directly when the caller needs to distinguish
    /// partial from full delivery.
    fn ask_many(&self, task: &Task, k: usize) -> Result<Vec<Answer>> {
        let out = self.ask(&AskRequest::new(task).with_redundancy(k))?;
        match out.shortfall {
            Some(e) if out.answers.is_empty() => Err(e),
            _ => Ok(out.answers),
        }
    }

    /// Remaining budget in units, or `None` if unbounded.
    fn remaining_budget(&self) -> Option<f64>;

    /// Total number of answers delivered so far (for cost reporting).
    fn answers_delivered(&self) -> u64;
}

/// The output of a truth-inference run over a [`ResponseMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Estimated label per dense task index.
    pub labels: Vec<u32>,
    /// Posterior probability distribution per dense task index; each inner
    /// vector has `num_labels` entries summing to 1. Algorithms that do not
    /// produce calibrated posteriors return one-hot or normalized-vote
    /// distributions.
    pub posteriors: Vec<Vec<f64>>,
    /// Estimated per-worker quality in `[0, 1]` per dense worker index
    /// (probability of answering correctly). Algorithms that do not model
    /// workers return `None`.
    pub worker_quality: Option<Vec<f64>>,
    /// Number of iterations the algorithm ran (1 for non-iterative ones).
    pub iterations: usize,
    /// Whether the algorithm converged within its iteration cap.
    pub converged: bool,
}

impl InferenceResult {
    /// The posterior confidence of the chosen label for dense task `t`.
    pub fn confidence(&self, t: usize) -> f64 {
        self.posteriors[t][self.labels[t] as usize]
    }

    /// Dense task indices whose chosen-label confidence is at least `tau`
    /// — the *selective output* of quality control: return only what the
    /// posterior supports, route the rest back for more answers or to
    /// experts. Experiment E15 sweeps the coverage/accuracy trade-off.
    pub fn select_confident(&self, tau: f64) -> Vec<usize> {
        (0..self.labels.len())
            .filter(|&t| self.confidence(t) >= tau)
            .collect()
    }

    /// Fraction of tasks whose confidence clears `tau`.
    pub fn coverage(&self, tau: f64) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.select_confident(tau).len() as f64 / self.labels.len() as f64
    }
}

/// An algorithm that estimates per-task truth from a response matrix.
pub trait TruthInferencer {
    /// Short, stable name used in experiment tables ("mv", "ds", "glad"…).
    fn name(&self) -> &'static str;

    /// Runs inference. Fails on an empty matrix.
    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult>;
}

/// Decides whether a task needs more answers given those collected so far.
///
/// Stopping rules drive the cost/accuracy trade-off in crowd filtering
/// (tutorial: cost control via task pruning and early termination).
pub trait StoppingRule {
    /// Short name for experiment tables.
    fn name(&self) -> &'static str;

    /// Returns `true` if answer collection for this task should stop.
    ///
    /// `votes` are per-label counts for the task so far; implementations
    /// must be monotone in total count reaching `max_answers` (i.e. they
    /// must eventually stop).
    fn should_stop(&self, votes: &[u32], max_answers: u32) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerValue;
    use crate::error::CrowdError;
    use crate::ids::{TaskId, WorkerId};
    use std::cell::Cell;

    /// A tiny oracle that always answers Choice(1) from successive workers,
    /// with a hard cap on total answers.
    struct FixedOracle {
        next_worker: Cell<u64>,
        cap: u64,
        delivered: Cell<u64>,
    }

    impl FixedOracle {
        fn new(cap: u64) -> Self {
            Self {
                next_worker: Cell::new(0),
                cap,
                delivered: Cell::new(0),
            }
        }
    }

    impl CrowdOracle for FixedOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            if self.delivered.get() >= self.cap {
                return Err(CrowdError::BudgetExhausted {
                    requested: 1.0,
                    remaining: 0.0,
                });
            }
            self.delivered.set(self.delivered.get() + 1);
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            Ok(Answer::bare(task.id, w, AnswerValue::Choice(1)))
        }

        fn remaining_budget(&self) -> Option<f64> {
            Some((self.cap - self.delivered.get()) as f64)
        }

        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    #[test]
    fn ask_many_default_collects_k_answers() {
        let o = FixedOracle::new(10);
        let task = Task::binary(TaskId::new(0), "q");
        let answers = o.ask_many(&task, 3).unwrap();
        assert_eq!(answers.len(), 3);
        let workers: Vec<u64> = answers.iter().map(|a| a.worker.raw()).collect();
        assert_eq!(workers, vec![0, 1, 2]);
    }

    #[test]
    fn ask_many_partial_on_exhaustion() {
        let o = FixedOracle::new(2);
        let task = Task::binary(TaskId::new(0), "q");
        let answers = o.ask_many(&task, 5).unwrap();
        assert_eq!(answers.len(), 2, "returns partial results when budget dies");
        // Next call starts already exhausted → propagates the error.
        let err = o.ask_many(&task, 1).unwrap_err();
        assert!(err.is_resource_exhaustion());
    }

    #[test]
    fn ask_reports_shortfall_with_purchased_answers() {
        let o = FixedOracle::new(2);
        let task = Task::binary(TaskId::new(0), "q");
        let req = crate::ask::AskRequest::new(&task).with_redundancy(5);
        let out = o.ask(&req).unwrap();
        assert_eq!(out.delivered(), 2);
        assert_eq!(out.missing(), 3);
        assert!(out.stopped_by_budget());
        assert!(!out.is_complete());
    }

    #[test]
    fn ask_batch_funds_in_request_order_and_starves_the_rest() {
        let o = FixedOracle::new(3);
        let t0 = Task::binary(TaskId::new(0), "a");
        let t1 = Task::binary(TaskId::new(1), "b");
        let t2 = Task::binary(TaskId::new(2), "c");
        let reqs = vec![
            crate::ask::AskRequest::new(&t0).with_redundancy(2),
            crate::ask::AskRequest::new(&t1).with_redundancy(2),
            crate::ask::AskRequest::new(&t2).with_redundancy(2),
        ];
        let outs = o.ask_batch(&reqs).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs[0].is_complete());
        assert_eq!(outs[1].delivered(), 1);
        assert!(outs[1].stopped_by_budget());
        assert_eq!(outs[2].delivered(), 0, "drained budget starves request 3");
        assert!(outs[2].stopped_by_budget());
        assert_eq!(o.answers_delivered(), 3);
    }

    /// A mid-batch non-exhaustion failure keeps already-purchased answers
    /// in the outcome so cost accounting stays consistent — the old
    /// `ask_many` default discarded them.
    #[test]
    fn mid_batch_failure_does_not_discard_purchased_answers() {
        struct FlakyOracle {
            calls: Cell<u64>,
        }
        impl CrowdOracle for FlakyOracle {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                let n = self.calls.get();
                self.calls.set(n + 1);
                if n >= 2 {
                    return Err(CrowdError::Execution("wire fault".into()));
                }
                Ok(Answer::bare(
                    task.id,
                    WorkerId::new(n),
                    AnswerValue::Choice(1),
                ))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                self.calls.get()
            }
        }
        let o = FlakyOracle {
            calls: Cell::new(0),
        };
        let task = Task::binary(TaskId::new(0), "q");
        let out = o
            .ask(&crate::ask::AskRequest::new(&task).with_redundancy(5))
            .unwrap();
        assert_eq!(out.delivered(), 2, "purchased answers survive the failure");
        assert!(matches!(out.shortfall, Some(CrowdError::Execution(_))));
        // A failure before anything was purchased still propagates.
        let err = o.ask(&crate::ask::AskRequest::new(&task)).unwrap_err();
        assert!(matches!(err, CrowdError::Execution(_)));
        // ask_many now returns the partial purchase instead of dropping it.
        let o2 = FlakyOracle {
            calls: Cell::new(0),
        };
        assert_eq!(o2.ask_many(&task, 5).unwrap().len(), 2);
    }

    #[test]
    fn inference_result_confidence_reads_chosen_label() {
        let r = InferenceResult {
            labels: vec![1, 0],
            posteriors: vec![vec![0.2, 0.8], vec![0.6, 0.4]],
            worker_quality: None,
            iterations: 1,
            converged: true,
        };
        assert!((r.confidence(0) - 0.8).abs() < 1e-12);
        assert!((r.confidence(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn selective_output_filters_by_confidence() {
        let r = InferenceResult {
            labels: vec![1, 0, 1],
            posteriors: vec![vec![0.2, 0.8], vec![0.55, 0.45], vec![0.05, 0.95]],
            worker_quality: None,
            iterations: 1,
            converged: true,
        };
        assert_eq!(r.select_confident(0.7), vec![0, 2]);
        assert_eq!(r.select_confident(0.9), vec![2]);
        assert_eq!(r.select_confident(0.0), vec![0, 1, 2]);
        assert!((r.coverage(0.7) - 2.0 / 3.0).abs() < 1e-12);
        let empty = InferenceResult {
            labels: vec![],
            posteriors: vec![],
            worker_quality: None,
            iterations: 1,
            converged: true,
        };
        assert_eq!(empty.coverage(0.5), 0.0);
    }
}
