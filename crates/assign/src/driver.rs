//! Executes an assignment policy against a crowd oracle under a question
//! budget.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::{self as obs, prov, Event};

use crate::policy::{AssignState, AssignmentPolicy};

/// The result of a budgeted assignment run.
#[derive(Debug, Clone)]
pub struct AssignmentOutcome {
    /// Collected responses, ready for truth inference.
    pub matrix: ResponseMatrix,
    /// Final per-task vote counts (aligned with the input task slice).
    pub votes: Vec<Vec<u32>>,
    /// Answers actually purchased (≤ `budget_questions`).
    pub questions_asked: usize,
}

/// Runs `policy` over `tasks`, buying at most `budget_questions` answers
/// total and at most `max_per_task` per task.
///
/// All tasks must be single-choice over label spaces of the same size.
/// Collection ends when the budget is spent, the policy returns `None`, or
/// the oracle's own budget/pool is exhausted.
///
/// Assignments are bought in waves: the policy is consulted repeatedly
/// (with in-flight asks visible via [`AssignState::count`]) to build a
/// wave of at most `tasks.len()` independent assignments, which goes to
/// the platform as one batched request. A wave costs one round of crowd
/// latency instead of one per question, and the policy's adaptivity is
/// preserved between waves.
pub fn run_assignment<O, P>(
    oracle: &O,
    tasks: &[Task],
    policy: &mut P,
    budget_questions: usize,
    max_per_task: u32,
) -> Result<AssignmentOutcome>
where
    O: CrowdOracle + ?Sized,
    P: AssignmentPolicy + ?Sized,
{
    let k = tasks
        .iter()
        .filter_map(Task::num_labels)
        .max()
        .unwrap_or(2);
    let mut state = AssignState::new(tasks.len(), k, max_per_task);
    let mut matrix = ResponseMatrix::new(k);
    let mut asked = 0usize;
    let tel = obs::scope();
    let rec = &tel.recorder;
    let mut waves = 0u64;
    // Cost ledger: per-task / per-worker spend attribution, booked from
    // this sequential delivery loop and flushed after the run. Only kept
    // while the scope captures provenance detail.
    let mut ledger = tel.capture_detail().then(prov::SpendLedger::new);

    while asked < budget_questions {
        let wave_cap = (budget_questions - asked).min(tasks.len().max(1));
        let mut wave: Vec<usize> = Vec::with_capacity(wave_cap);
        while wave.len() < wave_cap {
            let Some(t) = policy.next_task(&state) else {
                break;
            };
            state.note_pending(t);
            wave.push(t);
        }
        if wave.is_empty() {
            break;
        }
        let reqs: Vec<AskRequest<'_>> =
            wave.iter().map(|&t| AskRequest::new(&tasks[t])).collect();
        let outcomes = oracle.ask_batch(&reqs)?;
        state.clear_pending();
        let asked_before = asked;
        let mut exhausted = false;
        for (&t, out) in wave.iter().zip(&outcomes) {
            out.check()?;
            exhausted |= out.stopped_by_exhaustion();
            for answer in &out.answers {
                if let Some(label) = answer.value.as_choice() {
                    matrix.push(answer.task, answer.worker, label)?;
                    state.record(t, label);
                    asked += 1;
                    if let Some(ledger) = &mut ledger {
                        ledger.note(answer.task.0, answer.worker.0, answer.cost);
                    }
                }
            }
        }
        if rec.enabled() {
            rec.record(
                Event::new("assign.wave")
                    .u64("wave", waves)
                    .u64("requested", wave.len() as u64)
                    .u64("delivered", (asked - asked_before) as u64)
                    .u64("exhausted", u64::from(exhausted)),
            );
        }
        waves += 1;
        if exhausted {
            break;
        }
    }
    if rec.enabled() {
        rec.record(
            Event::new("assign.run")
                .u64("tasks", tasks.len() as u64)
                .u64("waves", waves)
                .u64("questions", asked as u64),
        );
    }
    if let Some(ledger) = &ledger {
        ledger.emit(&**rec);
    }

    Ok(AssignmentOutcome {
        matrix,
        votes: state.votes,
        questions_asked: asked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EntropyGreedy, RoundRobin};
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::error::CrowdError;
    use crowdkit_core::ids::{TaskId, WorkerId};

    struct TruthfulOracle {
        cap: u64,
        delivered: std::cell::Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(cap: u64) -> Self {
            Self {
                cap,
                delivered: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            if self.delivered.get() >= self.cap {
                return Err(CrowdError::BudgetExhausted {
                    requested: 1.0,
                    remaining: 0.0,
                });
            }
            let w = WorkerId::new(self.delivered.get());
            self.delivered.set(self.delivered.get() + 1);
            Ok(Answer::bare(
                task.id,
                w,
                task.truth.clone().expect("tasks carry truth"),
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some((self.cap - self.delivered.get()) as f64)
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    fn tasks(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::binary(TaskId::new(i as u64), format!("t{i}"))
                    .with_truth(AnswerValue::Choice(1))
            })
            .collect()
    }

    #[test]
    fn budget_caps_total_questions() {
        let ts = tasks(5);
        let oracle = TruthfulOracle::new(1000);
        let out = run_assignment(&oracle, &ts, &mut RoundRobin, 7, 10).unwrap();
        assert_eq!(out.questions_asked, 7);
        assert_eq!(out.matrix.num_observations(), 7);
    }

    #[test]
    fn per_task_cap_is_respected() {
        let ts = tasks(2);
        let oracle = TruthfulOracle::new(1000);
        let out = run_assignment(&oracle, &ts, &mut RoundRobin, 100, 3).unwrap();
        // 2 tasks × cap 3 = 6 questions, then the policy returns None.
        assert_eq!(out.questions_asked, 6);
        assert!(out.votes.iter().all(|v| v.iter().sum::<u32>() == 3));
    }

    #[test]
    fn oracle_exhaustion_ends_gracefully() {
        let ts = tasks(5);
        let oracle = TruthfulOracle::new(3);
        let out = run_assignment(&oracle, &ts, &mut EntropyGreedy, 100, 10).unwrap();
        assert_eq!(out.questions_asked, 3);
    }

    #[test]
    fn votes_align_with_task_slice_order() {
        let ts = tasks(3);
        let oracle = TruthfulOracle::new(1000);
        let out = run_assignment(&oracle, &ts, &mut RoundRobin, 6, 10).unwrap();
        for v in &out.votes {
            assert_eq!(v[1], 2, "each task got two truthful '1' votes");
        }
    }
}
