//! Crowd FILL: completing missing cells of a table.
//!
//! CrowdDB's `CROWD` columns and the CrowdFill line of work let a query
//! reference attributes the database does not have — "the phone number of
//! this restaurant" — and buy them at query time. Each missing cell
//! becomes an open-text task; `k` answers are reconciled by normalized
//! plurality with a confidence score, and unresolved cells (no plurality)
//! are reported rather than guessed. All cells go to the platform as one
//! batch, so independent cells share one round of crowd latency.
//!
//! [`crowd_fill`] is the only place fill answers are bought and
//! reconciled: CrowdSQL's fill operator calls it once per `batch`-sized
//! chunk of cells and the crowd-Datalog resolver once per fetch. The
//! caller makes the tasks, so each keeps its own task ids and ask order.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;

use crate::reconcile::{plurality, Plurality};

/// One task's fill.
#[derive(Debug, Clone, PartialEq)]
pub struct Filled {
    /// The strict plurality winner of the task's answers; `None` when the
    /// top two normalized values tie or no usable answer arrived.
    pub winner: Option<Plurality>,
    /// Answers bought for the task, blank ones included.
    pub answers: usize,
}

/// Buys `k` open-text answers for each task (one batched platform request
/// covering every task) and reconciles each task's answers with
/// [`reconcile::plurality`](crate::reconcile::plurality). Returns one
/// [`Filled`] per task, in input order; a task starved by exhaustion gets
/// no answers and so no winner.
pub fn crowd_fill<O>(oracle: &O, tasks: &[Task], k: u32) -> Result<Vec<Filled>>
where
    O: CrowdOracle + ?Sized,
{
    if tasks.is_empty() {
        return Err(CrowdError::EmptyInput("tasks"));
    }
    let reqs: Vec<AskRequest<'_>> = tasks
        .iter()
        .map(|t| AskRequest::new(t).with_redundancy(k.max(1) as usize))
        .collect();
    oracle
        .ask_batch(&reqs)?
        .iter()
        .map(|out| {
            out.check()?;
            Ok(Filled {
                winner: plurality(&out.answers),
                answers: out.answers.len(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_core::task::TaskKind;
    use std::cell::{Cell, RefCell};

    /// A fill task for `attribute` of `row` whose latent answer is `truth`.
    fn fill_task(id: u64, row: &str, attribute: &str, truth: &str) -> Task {
        Task::new(
            TaskId::new(id),
            TaskKind::Fill {
                attribute: attribute.into(),
            },
            format!("{attribute} of {row}"),
        )
        .with_truth(AnswerValue::Text(truth.into()))
    }

    /// `n` fill tasks whose latent answer is "v".
    fn tasks(n: u64) -> Vec<Task> {
        (0..n)
            .map(|i| fill_task(i, &format!("r{i}"), "x", "v"))
            .collect()
    }

    fn surface(f: &Filled) -> Option<&str> {
        f.winner.as_ref().map(|p| p.surface.as_str())
    }

    /// Oracle answering fill tasks with their truth, with optional per-call
    /// scripted overrides.
    struct ScriptedOracle {
        budget: RefCell<Budget>,
        script: Vec<Option<String>>, // per-call override; None = truth
        call: Cell<usize>,
        delivered: Cell<u64>,
    }

    impl ScriptedOracle {
        fn truthful(limit: f64) -> Self {
            Self::scripted(limit, Vec::new())
        }

        fn scripted(limit: f64, script: Vec<Option<String>>) -> Self {
            Self {
                budget: RefCell::new(Budget::new(limit)),
                script,
                call: Cell::new(0),
                delivered: Cell::new(0),
            }
        }
    }

    impl CrowdOracle for ScriptedOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            let i = self.call.get();
            self.call.set(i + 1);
            self.delivered.set(self.delivered.get() + 1);
            let value = match self.script.get(i).cloned().flatten() {
                Some(text) => AnswerValue::Text(text),
                None => task.truth.clone().unwrap(),
            };
            Ok(Answer::bare(task.id, WorkerId::new(i as u64), value))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    #[test]
    fn unanimous_answers_fill_with_full_support() {
        let ts = vec![
            fill_task(0, "france", "capital", "Paris"),
            fill_task(1, "japan", "capital", "Tokyo"),
        ];
        let oracle = ScriptedOracle::truthful(1e9);
        let out = crowd_fill(&oracle, &ts, 3).unwrap();
        assert_eq!(surface(&out[0]), Some("Paris"));
        assert_eq!(surface(&out[1]), Some("Tokyo"));
        assert_eq!(out[0].winner.as_ref().unwrap().support, 1.0);
        assert_eq!(out.iter().map(|f| f.answers).sum::<usize>(), 6);
    }

    #[test]
    fn blank_answers_are_paid_for_but_not_tallied() {
        let ts = vec![fill_task(0, "france", "capital", "Paris")];
        let oracle = ScriptedOracle::scripted(
            1e9,
            vec![
                Some("  PARIS ".into()),
                Some("   ".into()),
                Some("paris".into()),
                Some("Lyon".into()),
            ],
        );
        let out = crowd_fill(&oracle, &ts, 4).unwrap();
        assert_eq!(out[0].answers, 4, "every delivered answer was purchased");
        let p = out[0].winner.as_ref().unwrap();
        assert_eq!(p.surface, "PARIS", "first seen surface form of the winner");
        assert!(
            (p.support - 2.0 / 3.0).abs() < 1e-12,
            "the blank is not a vote"
        );
        assert_eq!(
            p.tallies,
            vec![("paris".to_owned(), 2), ("lyon".to_owned(), 1)]
        );
    }

    #[test]
    fn ties_are_unresolved_not_guessed() {
        let ts = vec![fill_task(0, "x", "y", "a")];
        let oracle = ScriptedOracle::scripted(1e9, vec![Some("a".into()), Some("b".into())]);
        let out = crowd_fill(&oracle, &ts, 2).unwrap();
        assert_eq!(out[0].winner, None);
        assert_eq!(out[0].answers, 2);
    }

    #[test]
    fn budget_death_marks_remaining_cells_unresolved() {
        let ts = tasks(3);
        let oracle = ScriptedOracle::truthful(4.0);
        let out = crowd_fill(&oracle, &ts, 3).unwrap();
        // Task 0: 3 answers. Task 1: 1 answer (then exhausted, still
        // reconciles from the single answer). Task 2: no winner.
        let answers: Vec<usize> = out.iter().map(|f| f.answers).collect();
        assert_eq!(answers, vec![3, 1, 0]);
        let winners: Vec<Option<&str>> = out.iter().map(surface).collect();
        assert_eq!(winners, vec![Some("v"), Some("v"), None]);
    }

    #[test]
    fn a_cell_without_workers_keeps_the_answers_bought_for_the_rest() {
        /// Truthful, except that no worker is left for task 0.
        struct NoWorkerForFirst(Cell<u64>);
        impl CrowdOracle for NoWorkerForFirst {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                if task.id == TaskId::new(0) {
                    return Err(CrowdError::NoWorkerAvailable);
                }
                let n = self.0.get();
                self.0.set(n + 1);
                Ok(Answer::bare(
                    task.id,
                    WorkerId::new(n),
                    task.truth.clone().unwrap(),
                ))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                self.0.get()
            }
        }
        let oracle = NoWorkerForFirst(Cell::new(0));
        let out = crowd_fill(&oracle, &tasks(2), 3).unwrap();
        assert_eq!(oracle.answers_delivered(), 3);
        assert_eq!(out[1].answers, 3, "every bought answer is counted");
        assert_eq!(surface(&out[1]), Some("v"));
        assert_eq!((out[0].answers, surface(&out[0])), (0, None));
    }

    #[test]
    fn empty_cell_list_is_an_error() {
        let oracle = ScriptedOracle::truthful(10.0);
        assert!(crowd_fill(&oracle, &[], 3).is_err());
    }
}
