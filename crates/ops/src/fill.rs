//! Crowd FILL: completing missing cells of a table.
//!
//! CrowdDB's `CROWD` columns and the CrowdFill line of work let a query
//! reference attributes the database does not have — "the phone number of
//! this restaurant" — and buy them at query time. Each missing cell
//! becomes an open-text task; `k` answers are reconciled by normalized
//! plurality with a confidence score, and unresolved cells (no plurality)
//! are reported rather than guessed. All cells go to the platform as one
//! batch, so independent cells share one round of crowd latency.

use std::collections::HashMap;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::task::{Task, TaskKind};
use crowdkit_core::traits::CrowdOracle;

use crate::reconcile::plurality;

/// A cell to be filled: which row (by caller-chosen key) and attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// Caller's row key (e.g. primary key rendering).
    pub row: String,
    /// Attribute name being filled.
    pub attribute: String,
}

/// One reconciled cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FilledCell {
    /// The winning value, in the trimmed surface form of the plurality
    /// winner's first occurrence.
    pub value: String,
    /// Fraction of answers agreeing with the winner.
    pub support: f64,
    /// All answers received (normalized), with counts.
    pub answers: Vec<(String, u32)>,
}

/// The outcome of a fill run.
#[derive(Debug, Clone, Default)]
pub struct FillOutcome {
    /// Cells successfully reconciled (strict plurality existed).
    pub filled: HashMap<CellRef, FilledCell>,
    /// Cells whose answers tied or that got no answers.
    pub unresolved: Vec<CellRef>,
    /// Crowd answers purchased.
    pub questions_asked: usize,
}

/// Buys `k` open-text answers for each cell (one batched platform request
/// covering every cell) and reconciles them with
/// [`reconcile::plurality`](crate::reconcile::plurality). A cell is
/// `unresolved` when the top two normalized values tie or no usable
/// answer arrived before exhaustion.
///
/// `prompt_for` renders the worker-facing question for a cell; in
/// simulation it also attaches the latent truth.
pub fn crowd_fill<O, F>(
    oracle: &O,
    cells: &[CellRef],
    k: u32,
    mut prompt_for: F,
) -> Result<FillOutcome>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, &CellRef) -> Task,
{
    if cells.is_empty() {
        return Err(CrowdError::EmptyInput("cells"));
    }
    let mut ids = IdGen::new();
    let tasks: Vec<Task> = cells
        .iter()
        .map(|c| prompt_for(ids.next_task(), c))
        .collect();
    for task in &tasks {
        debug_assert!(
            matches!(task.kind, TaskKind::Fill { .. } | TaskKind::OpenText),
            "fill tasks must accept text answers"
        );
    }
    let reqs: Vec<AskRequest<'_>> = tasks
        .iter()
        .map(|t| AskRequest::new(t).with_redundancy(k.max(1) as usize))
        .collect();
    let outcomes = oracle.ask_batch(&reqs)?;

    let mut out = FillOutcome::default();
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        outcome.check()?;
        out.questions_asked += outcome.answers.len();
        // A starved cell has no answers, so no plurality: it is unresolved.
        match plurality(&outcome.answers) {
            Some(p) => {
                out.filled.insert(
                    cell.clone(),
                    FilledCell {
                        value: p.surface,
                        support: p.support,
                        answers: p.tallies,
                    },
                );
            }
            None => out.unresolved.push(cell.clone()),
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::WorkerId;
    use std::cell::{Cell, RefCell};

    fn cell(row: &str, attr: &str) -> CellRef {
        CellRef {
            row: row.into(),
            attribute: attr.into(),
        }
    }

    fn fill_task(id: TaskId, c: &CellRef, truth: &str) -> Task {
        Task::new(
            id,
            TaskKind::Fill {
                attribute: c.attribute.clone(),
            },
            format!("{} of {}", c.attribute, c.row),
        )
        .with_truth(AnswerValue::Text(truth.into()))
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
        let cells = vec![cell("france", "capital"), cell("japan", "capital")];
        let oracle = ScriptedOracle::truthful(1e9);
        let out = crowd_fill(&oracle, &cells, 3, |id, c| {
            fill_task(id, c, if c.row == "france" { "Paris" } else { "Tokyo" })
        })
        .unwrap();
        assert_eq!(out.filled[&cells[0]].value, "Paris");
        assert_eq!(out.filled[&cells[1]].value, "Tokyo");
        assert_eq!(out.filled[&cells[0]].support, 1.0);
        assert!(out.unresolved.is_empty());
        assert_eq!(out.questions_asked, 6);
    }

    #[test]
    fn blank_answers_are_paid_for_but_not_tallied() {
        let cells = vec![cell("france", "capital")];
        let oracle = ScriptedOracle::scripted(
            1e9,
            vec![
                Some("  PARIS ".into()),
                Some("   ".into()),
                Some("paris".into()),
                Some("Lyon".into()),
            ],
        );
        let out = crowd_fill(&oracle, &cells, 4, |id, c| fill_task(id, c, "Paris")).unwrap();
        assert_eq!(
            out.questions_asked, 4,
            "every delivered answer was purchased"
        );
        let f = &out.filled[&cells[0]];
        assert_eq!(f.value, "PARIS", "first seen surface form of the winner");
        assert!(
            (f.support - 2.0 / 3.0).abs() < 1e-12,
            "the blank is not a vote"
        );
        assert_eq!(
            f.answers,
            vec![("paris".to_owned(), 2), ("lyon".to_owned(), 1)]
        );
    }

    #[test]
    fn ties_are_unresolved_not_guessed() {
        let cells = vec![cell("x", "y")];
        let oracle = ScriptedOracle::scripted(1e9, vec![Some("a".into()), Some("b".into())]);
        let out = crowd_fill(&oracle, &cells, 2, |id, c| fill_task(id, c, "a")).unwrap();
        assert!(out.filled.is_empty());
        assert_eq!(out.unresolved, cells);
    }

    #[test]
    fn budget_death_marks_remaining_cells_unresolved() {
        let cells = vec![cell("a", "x"), cell("b", "x"), cell("c", "x")];
        let oracle = ScriptedOracle::truthful(4.0);
        let out = crowd_fill(&oracle, &cells, 3, |id, c| fill_task(id, c, "v")).unwrap();
        // Cell a: 3 answers. Cell b: 1 answer (then exhausted, still
        // reconciles from the single answer). Cell c: unresolved.
        assert!(out.filled.contains_key(&cells[0]));
        assert!(out.filled.contains_key(&cells[1]));
        assert_eq!(out.unresolved, vec![cells[2].clone()]);
        assert_eq!(out.questions_asked, 4);
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
        let cells = vec![cell("a", "x"), cell("b", "x")];
        let oracle = NoWorkerForFirst(Cell::new(0));
        let out = crowd_fill(&oracle, &cells, 3, |id, c| fill_task(id, c, "v")).unwrap();
        assert_eq!(oracle.answers_delivered(), 3);
        assert_eq!(out.questions_asked, 3, "every bought answer is counted");
        assert_eq!(out.filled[&cells[1]].value, "v");
        assert_eq!(out.unresolved, vec![cells[0].clone()]);
    }

    #[test]
    fn empty_cell_list_is_an_error() {
        let oracle = ScriptedOracle::truthful(10.0);
        assert!(crowd_fill(&oracle, &[], 3, |id, c| fill_task(id, c, "v")).is_err());
    }
}
