//! Executes an assignment policy against a crowd oracle under a question
//! budget, one wave at a time: the policy plans a wave in one call, the
//! oracle answers it as one batch, and the votes it brings back are what
//! the next wave is planned from.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
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
/// All tasks must be single-choice over label spaces of the same size;
/// otherwise the run buys nothing and returns
/// [`CrowdError::DimensionMismatch`] naming the first task that is not.
/// Collection ends when the budget is spent, the policy plans an empty
/// wave, or the oracle's own budget/pool is exhausted.
///
/// Assignments are bought in waves: one
/// [`next_wave`](AssignmentPolicy::next_wave) call plans at most
/// `tasks.len()` independent assignments (fewer when less budget is
/// left), which go to the platform as one batched request. A wave costs
/// one round of crowd latency instead of one per question, and the
/// policy's adaptivity is preserved between waves.
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
    let k = label_space(tasks)?;
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
        let cap = (budget_questions - asked).min(tasks.len().max(1));
        // Planning is timed only for an enabled recorder, the only reader.
        let t_plan = rec.enabled().then(obs::WallTimer::start);
        let wave = policy.next_wave(&state, cap);
        let plan_ns = t_plan.map(|t| t.elapsed_ns());
        if wave.is_empty() {
            break;
        }
        let reqs: Vec<AskRequest<'_>> = wave.iter().map(|&t| AskRequest::new(&tasks[t])).collect();
        let outcomes = oracle.ask_batch(&reqs)?;
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
        if let Some(plan_ns) = plan_ns {
            rec.record(
                Event::new("assign.wave")
                    .u64("wave", waves)
                    .u64("requested", wave.len() as u64)
                    .u64("delivered", (asked - asked_before) as u64)
                    .u64("exhausted", u64::from(exhausted))
                    .wall("plan_ns", plan_ns),
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

/// The label-space size `tasks` share (2 when there are none). Any task
/// that is not single-choice, or has a different number of labels than
/// the tasks before it, is a [`CrowdError::DimensionMismatch`]: its
/// answers would be paid for but never counted against its cap, or be
/// scored over the wrong labels.
fn label_space(tasks: &[Task]) -> Result<usize> {
    let mut k = None;
    for task in tasks {
        match (task.num_labels(), k) {
            (Some(n), None) => k = Some(n),
            (Some(n), Some(want)) if n == want => {}
            (Some(n), Some(want)) => {
                return Err(CrowdError::DimensionMismatch(format!(
                    "assignment needs one label space: task {} has {n} labels, the tasks before it {want}",
                    task.id
                )));
            }
            (None, _) => {
                return Err(CrowdError::DimensionMismatch(format!(
                    "assignment needs single-choice tasks: task {} is {}",
                    task.id,
                    task.kind.name()
                )));
            }
        }
    }
    Ok(k.unwrap_or(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EntropyGreedy, RoundRobin};
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_core::label::LabelSpace;
    use crowdkit_core::task::TaskKind;
    use crowdkit_obs::JsonlRecorder;
    use crowdkit_sim::population::mixes;
    use crowdkit_sim::SimulatedCrowd;
    use std::sync::Arc;

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

    /// A run over `tasks` that must fail before buying anything.
    fn assert_rejected(tasks: &[Task], offender: &str) {
        let crowd = SimulatedCrowd::new(mixes::mixed(50, 1), 1);
        let err = run_assignment(&crowd, tasks, &mut RoundRobin, 10, 3).unwrap_err();
        assert!(
            matches!(&err, CrowdError::DimensionMismatch(msg) if msg.contains(offender)),
            "{err}"
        );
        assert_eq!(crowd.answers_delivered(), 0);
        assert_eq!(crowd.budget().spent(), 0.0);
    }

    #[test]
    fn non_choice_tasks_are_rejected_before_anything_is_bought() {
        // A non-choice answer is paid for but cannot count against the
        // cap, so asking would drain the whole 50-worker pool.
        let numeric = Task::new(
            TaskId::new(0),
            TaskKind::Numeric {
                min: 0.0,
                max: 10.0,
            },
            "how many?",
        )
        .with_truth(AnswerValue::Number(5.0));
        assert_rejected(&[numeric], "task t0 is numeric");
    }

    #[test]
    fn mixed_label_spaces_are_rejected_before_anything_is_bought() {
        let three = Task::new(
            TaskId::new(1),
            TaskKind::SingleChoice {
                labels: LabelSpace::anonymous(3),
            },
            "which one?",
        )
        .with_truth(AnswerValue::Choice(2));
        let mut ts = tasks(1);
        ts.push(three);
        assert_rejected(&ts, "task t1 has 3 labels");
    }

    #[test]
    fn wave_events_time_planning_only_with_wall_data() {
        let ts = tasks(4);
        for wall in [true, false] {
            let rec = Arc::new(JsonlRecorder::in_memory().with_wall(wall));
            let oracle = TruthfulOracle::new(1000);
            obs::with_recorder(rec.clone(), || {
                run_assignment(&oracle, &ts, &mut EntropyGreedy, 8, 10)
            })
            .unwrap();
            let log = String::from_utf8(rec.take_bytes()).unwrap();
            let waves: Vec<&str> = log
                .lines()
                .filter(|l| l.starts_with("{\"key\":\"assign.wave\""))
                .collect();
            assert_eq!(waves.len(), 2, "{log}");
            for line in waves {
                assert_eq!(line.contains("\"plan_ns\":"), wall, "{line}");
            }
        }
    }
}
