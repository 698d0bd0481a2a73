//! Crowd selection / filtering.
//!
//! `SELECT * FROM photos WHERE crowd("contains a dog", photo)` — each item
//! becomes a binary task; the operator buys votes per item until a
//! [`StoppingRule`] fires, then keeps items whose majority label is
//! positive. The stopping rule is the cost/accuracy dial: fixed-k spends
//! uniformly, margin and SPRT rules bail out of easy items early
//! (CrowdScreen-style) and spend the savings on contested ones.
//!
//! Votes are purchased in *waves* by [`run_assignment`] under the
//! [`UntilStopped`] policy: each round sends one batched request covering
//! every undecided item, so a platform that overlaps assignments (like
//! the simulator) pays one round of latency per wave instead of one per
//! vote.

use crowdkit_assign::{run_assignment, UntilStopped};
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::task::Task;
use crowdkit_core::traits::{CrowdOracle, StoppingRule};

/// The per-item decision of a filter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterDecision {
    /// Whether the item passed the predicate (majority said yes).
    pub keep: bool,
    /// Votes for "no" (label 0).
    pub no_votes: u32,
    /// Votes for "yes" (label 1).
    pub yes_votes: u32,
}

/// The outcome of filtering a batch of items.
#[derive(Debug, Clone)]
pub struct FilterOutcome {
    /// One decision per input task, in input order. `None` if the item got
    /// no answers before the budget died.
    pub decisions: Vec<Option<FilterDecision>>,
    /// Total answers purchased.
    pub questions_asked: usize,
}

impl FilterOutcome {
    /// Indices of items that passed.
    pub fn kept_indices(&self) -> Vec<usize> {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, Some(d) if d.keep))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Filters `items` (binary tasks: label 1 = keep) against the crowd.
///
/// Votes are purchased in batched waves across all undecided items so
/// early stopping redistributes budget and independent items share one
/// round of crowd latency. Collection halts per item when `rule` fires (or
/// `max_answers` is hit) and entirely when the oracle's budget/pool is
/// exhausted.
///
/// Items must be binary single-choice tasks, and an answer outside the
/// two labels is [`CrowdError::LabelOutOfRange`], as in
/// [`run_assignment`].
pub fn crowd_filter<O, R>(
    oracle: &O,
    items: &[Task],
    rule: &R,
    max_answers: u32,
) -> Result<FilterOutcome>
where
    O: CrowdOracle + ?Sized,
    R: StoppingRule + ?Sized,
{
    if items.iter().any(|t| t.num_labels() != Some(2)) {
        return Err(CrowdError::Unsupported(
            "crowd_filter requires binary single-choice tasks",
        ));
    }
    let collected = run_assignment(
        oracle,
        items,
        &mut UntilStopped(rule),
        usize::MAX,
        max_answers,
    )?;
    let decisions = collected
        .votes
        .iter()
        .map(|v| {
            let (no, yes) = (v[0], v[1]);
            (no + yes > 0).then_some(FilterDecision {
                keep: yes > no,
                no_votes: no,
                yes_votes: yes,
            })
        })
        .collect();

    Ok(FilterOutcome {
        decisions,
        questions_asked: collected.questions_asked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_truth::sequential::{FixedK, MajorityMargin};
    use std::cell::{Cell, RefCell};

    /// Oracle answering the task truth, optionally budget-capped.
    struct TruthfulOracle {
        budget: RefCell<Budget>,
        next_worker: Cell<u64>,
        delivered: Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(limit: f64) -> Self {
            Self {
                budget: RefCell::new(Budget::new(limit)),
                next_worker: Cell::new(0),
                delivered: Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            self.delivered.set(self.delivered.get() + 1);
            Ok(Answer::bare(task.id, w, task.truth.clone().unwrap()))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    fn items(flags: &[bool]) -> Vec<Task> {
        flags
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                Task::binary(TaskId::new(i as u64), format!("item {i}"))
                    .with_truth(AnswerValue::Choice(f as u32))
            })
            .collect()
    }

    #[test]
    fn fixed_k_keeps_positive_items() {
        let ts = items(&[true, false, true]);
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_filter(&oracle, &ts, &FixedK { k: 3 }, 3).unwrap();
        assert_eq!(out.kept_indices(), vec![0, 2]);
        assert_eq!(out.questions_asked, 9);
        let d = out.decisions[0].unwrap();
        assert_eq!((d.no_votes, d.yes_votes), (0, 3));
    }

    #[test]
    fn margin_rule_stops_after_two_unanimous_votes() {
        let ts = items(&[true; 5]);
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_filter(&oracle, &ts, &MajorityMargin { margin: 2 }, 9).unwrap();
        assert_eq!(out.questions_asked, 10, "2 votes × 5 items");
        assert_eq!(out.kept_indices().len(), 5);
    }

    #[test]
    fn budget_exhaustion_leaves_undecided_items() {
        let ts = items(&[true; 4]);
        let oracle = TruthfulOracle::new(2.0);
        let out = crowd_filter(&oracle, &ts, &FixedK { k: 3 }, 3).unwrap();
        assert_eq!(out.questions_asked, 2);
        let undecided = out.decisions.iter().filter(|d| d.is_none()).count();
        assert_eq!(undecided, 2);
    }

    #[test]
    fn a_zero_answer_cap_buys_nothing_and_decides_nothing() {
        let ts = items(&[true, false]);
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_filter(&oracle, &ts, &FixedK { k: 3 }, 0).unwrap();
        assert_eq!(out.questions_asked, 0);
        assert_eq!(oracle.answers_delivered(), 0);
        assert_eq!(out.decisions, vec![None, None]);
    }

    #[test]
    fn an_answer_outside_the_two_labels_is_an_error() {
        /// Answers every item with the label no binary task has.
        struct ThirdLabel;
        impl CrowdOracle for ThirdLabel {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                Ok(Answer::bare(
                    task.id,
                    WorkerId::new(0),
                    AnswerValue::Choice(2),
                ))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                0
            }
        }
        let err = crowd_filter(&ThirdLabel, &items(&[true]), &FixedK { k: 1 }, 1).unwrap_err();
        assert_eq!(err, CrowdError::LabelOutOfRange { label: 2, space: 2 });
    }

    #[test]
    fn rejects_non_binary_tasks() {
        let t =
            vec![Task::multiclass(TaskId::new(0), 3, "which?").with_truth(AnswerValue::Choice(0))];
        let oracle = TruthfulOracle::new(10.0);
        let err = crowd_filter(&oracle, &t, &FixedK { k: 1 }, 1).unwrap_err();
        assert!(matches!(err, CrowdError::Unsupported(_)));
    }

    #[test]
    fn tie_votes_do_not_keep() {
        // Manually construct a decision tie via max_answers = 2 and an
        // oracle that alternates answers.
        struct Alternating {
            n: Cell<u64>,
        }
        impl CrowdOracle for Alternating {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                let n = self.n.get() + 1;
                self.n.set(n);
                Ok(Answer::bare(
                    task.id,
                    WorkerId::new(n),
                    AnswerValue::Choice((n % 2) as u32),
                ))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                self.n.get()
            }
        }
        let ts = items(&[true]);
        let oracle = Alternating { n: Cell::new(0) };
        let out = crowd_filter(&oracle, &ts, &FixedK { k: 2 }, 2).unwrap();
        let d = out.decisions[0].unwrap();
        assert_eq!((d.no_votes, d.yes_votes), (1, 1));
        assert!(!d.keep, "ties are conservative: do not keep");
    }
}
