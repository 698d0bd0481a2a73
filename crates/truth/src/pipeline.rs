//! The collect-then-infer driver shared by examples and experiments.
//!
//! A labeling pipeline does three things: buy `k` answers per task from a
//! [`CrowdOracle`] (optionally stopping early per task via a
//! [`StoppingRule`]), build the [`ResponseMatrix`], and run a
//! [`TruthInferencer`]. The buying is
//! [`crowdkit_assign::run_assignment`]'s wave loop under the
//! [`UntilStopped`] policy, the loop every assignment experiment runs;
//! this module only adds the inference, so every experiment, example and
//! integration test exercises the same code path.

use crowdkit_assign::{run_assignment, UntilStopped};
use crowdkit_core::error::Result;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::Task;
use crowdkit_core::traits::{CrowdOracle, InferenceResult, StoppingRule, TruthInferencer};

/// Outcome of a labeling pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Inference output (dense indices follow the response matrix).
    pub inference: InferenceResult,
    /// The collected response matrix (for id lookups and audits).
    pub matrix: ResponseMatrix,
    /// Total answers purchased.
    pub answers_bought: usize,
}

impl PipelineOutcome {
    /// The estimated label for a task, if it received any answers.
    pub fn label_for(&self, task: &Task) -> Option<u32> {
        self.matrix
            .task_index(task.id)
            .map(|t| self.inference.labels[t])
    }

    /// Estimated labels aligned with `tasks` (None for tasks that got no
    /// answers before the budget died).
    pub fn labels_aligned(&self, tasks: &[Task]) -> Vec<Option<u32>> {
        tasks.iter().map(|t| self.label_for(t)).collect()
    }
}

/// Buys exactly `k` answers per single-choice task (or as many as the
/// budget allows), then runs `inferencer`.
///
/// Tasks that received zero answers (budget exhausted) are absent from the
/// matrix; use [`PipelineOutcome::labels_aligned`] to map back.
pub fn label_tasks<O, I>(
    oracle: &O,
    tasks: &[Task],
    k: usize,
    inferencer: &I,
) -> Result<PipelineOutcome>
where
    O: CrowdOracle + ?Sized,
    I: TruthInferencer + ?Sized,
{
    label_tasks_adaptive(
        oracle,
        tasks,
        &crate::sequential::FixedK { k: k as u32 },
        k as u32,
        inferencer,
    )
}

/// Buys answers per task until `rule` says stop (with a hard cap of
/// `max_answers` per task), then runs `inferencer`.
///
/// Answers are bought round-robin across tasks in waves — the platform
/// round model — so early stopping on easy tasks frees budget for hard
/// ones, which is the entire point of adaptive stopping. Each wave goes to
/// the platform as one batched request, so the still-open tasks of a wave
/// overlap in crowd latency.
///
/// The tasks must be single-choice over one label space; otherwise the
/// call buys nothing and returns
/// [`CrowdError::DimensionMismatch`](crowdkit_core::error::CrowdError::DimensionMismatch),
/// as [`run_assignment`] does.
pub fn label_tasks_adaptive<O, R, I>(
    oracle: &O,
    tasks: &[Task],
    rule: &R,
    max_answers: u32,
    inferencer: &I,
) -> Result<PipelineOutcome>
where
    O: CrowdOracle + ?Sized,
    R: StoppingRule + ?Sized,
    I: TruthInferencer + ?Sized,
{
    let collected = run_assignment(
        oracle,
        tasks,
        &mut UntilStopped(rule),
        usize::MAX,
        max_answers,
    )?;
    Ok(PipelineOutcome {
        inference: inferencer.infer(&collected.matrix)?,
        matrix: collected.matrix,
        answers_bought: collected.questions_asked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mv::MajorityVote;
    use crate::sequential::MajorityMargin;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::error::CrowdError;
    use crowdkit_core::ids::{TaskId, WorkerId};

    /// Oracle whose workers always answer the task's ground truth; spends
    /// one unit per answer against an optional budget.
    struct TruthfulOracle {
        budget: std::cell::RefCell<Budget>,
        next_worker: std::cell::Cell<u64>,
        delivered: std::cell::Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(limit: f64) -> Self {
            Self {
                budget: std::cell::RefCell::new(Budget::new(limit)),
                next_worker: std::cell::Cell::new(0),
                delivered: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            self.delivered.set(self.delivered.get() + 1);
            Ok(Answer::bare(
                task.id,
                w,
                task.truth.clone().expect("test tasks carry truth"),
            ))
        }

        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }

        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    fn tasks(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::binary(TaskId::new(i as u64), format!("t{i}"))
                    .with_truth(AnswerValue::Choice((i % 2) as u32))
            })
            .collect()
    }

    #[test]
    fn fixed_k_pipeline_labels_everything() {
        let ts = tasks(10);
        let oracle = TruthfulOracle::new(1e9);
        let out = label_tasks(&oracle, &ts, 3, &MajorityVote).unwrap();
        assert_eq!(out.answers_bought, 30);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(out.label_for(t), Some((i % 2) as u32));
        }
    }

    #[test]
    fn adaptive_margin_stops_early_on_unanimous_answers() {
        let ts = tasks(10);
        let oracle = TruthfulOracle::new(1e9);
        let rule = MajorityMargin { margin: 2 };
        let out = label_tasks_adaptive(&oracle, &ts, &rule, 10, &MajorityVote).unwrap();
        // Truthful workers agree immediately: 2 answers per task suffice.
        assert_eq!(
            out.answers_bought, 20,
            "margin-2 with unanimity = 2 answers"
        );
        assert_eq!(
            out.labels_aligned(&ts),
            (0..10).map(|i| Some((i % 2) as u32)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn budget_exhaustion_yields_partial_labels() {
        let ts = tasks(10);
        let oracle = TruthfulOracle::new(7.0);
        let out = label_tasks(&oracle, &ts, 3, &MajorityVote).unwrap();
        assert_eq!(out.answers_bought, 7);
        let labelled = out
            .labels_aligned(&ts)
            .iter()
            .filter(|l| l.is_some())
            .count();
        assert_eq!(labelled, 7, "round-robin wave labels first 7 tasks once");
    }

    #[test]
    fn empty_collection_is_an_error() {
        let ts = tasks(3);
        let oracle = TruthfulOracle::new(0.0);
        let err = label_tasks(&oracle, &ts, 3, &MajorityVote).unwrap_err();
        assert!(matches!(err, CrowdError::EmptyInput(_)));
    }
}
