//! Request/outcome types for the [`CrowdOracle`](crate::traits::CrowdOracle)
//! surface.
//!
//! The redesigned oracle API is built around two values:
//!
//! * [`AskRequest`] — *what to buy*: a task, how many redundant answers
//!   (the `k` of "ask `k` distinct workers"), and which workers must not
//!   be assigned. Built with a fluent builder so call sites read like the
//!   HIT they describe.
//! * [`AskOutcome`] — *what was delivered*: the answers purchased plus an
//!   explicit [`shortfall`](AskOutcome::shortfall) when fewer than
//!   `redundancy` arrived. Partial delivery under budget exhaustion is a
//!   first-class state, not a silently short `Vec` — the failure mode of
//!   the old `ask_many` API, where callers could not distinguish "budget
//!   died after two answers" from "full delivery of two".
//!
//! Batches of requests ([`CrowdOracle::ask_batch`](crate::traits::CrowdOracle::ask_batch))
//! are the unit of concurrency: a platform may overlap the simulated (or
//! real) latency of every assignment in a batch, which is the dominant
//! latency lever of crowd execution (HIT batching, Marcus et al.).

use crate::answer::Answer;
use crate::error::{CrowdError, Result};
use crate::ids::{TaskId, WorkerId};
use crate::task::Task;

/// A single crowd purchase order: one task, `redundancy` distinct workers.
///
/// Borrowing the task keeps batch construction allocation-free in hot
/// operator loops; requests are cheap to build per wave.
#[derive(Debug, Clone)]
pub struct AskRequest<'a> {
    /// The task to pose.
    pub task: &'a Task,
    /// How many distinct workers to ask (≥ 1; 0 is clamped to 1 by
    /// implementations).
    pub redundancy: usize,
    /// Workers that must not be assigned to this request, on top of the
    /// platform's own "never the same worker twice per task" rule.
    /// Honored by implementations that control worker choice (the
    /// platform simulator); the default trait implementation, built on
    /// `ask_one`, cannot steer assignment and treats this as advisory.
    pub exclude: Vec<WorkerId>,
}

impl<'a> AskRequest<'a> {
    /// A request for one answer to `task` with no exclusions.
    pub fn new(task: &'a Task) -> Self {
        Self {
            task,
            redundancy: 1,
            exclude: Vec::new(),
        }
    }

    /// Sets the number of distinct workers to ask.
    pub fn with_redundancy(mut self, k: usize) -> Self {
        self.redundancy = k;
        self
    }

    /// Excludes one worker from assignment.
    pub fn without_worker(mut self, w: WorkerId) -> Self {
        self.exclude.push(w);
        self
    }

    /// Excludes several workers from assignment.
    pub fn without_workers(mut self, ws: impl IntoIterator<Item = WorkerId>) -> Self {
        self.exclude.extend(ws);
        self
    }

    /// Whether `w` is excluded from this request.
    pub fn excludes(&self, w: WorkerId) -> bool {
        self.exclude.contains(&w)
    }
}

/// What a request actually delivered.
///
/// `answers.len() == requested` and `shortfall == None` is full delivery.
/// Anything else is partial: the answers that *were* purchased are always
/// present (they were paid for — discarding them would corrupt cost
/// accounting), and `shortfall` records why delivery stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct AskOutcome {
    /// The task the request was about.
    pub task: TaskId,
    /// The redundancy that was requested.
    pub requested: usize,
    /// Answers actually delivered, in assignment order.
    pub answers: Vec<Answer>,
    /// Why delivery stopped short of `requested`, if it did. Budget
    /// exhaustion and worker-pool exhaustion are the expected variants;
    /// any other error means the platform failed mid-batch after
    /// purchasing `answers`.
    pub shortfall: Option<CrowdError>,
}

impl AskOutcome {
    /// Full delivery of `answers` for a request.
    pub fn complete(task: TaskId, requested: usize, answers: Vec<Answer>) -> Self {
        Self {
            task,
            requested,
            answers,
            shortfall: None,
        }
    }

    /// An outcome that delivered nothing because the platform was already
    /// exhausted when the request's turn came (e.g. an earlier request in
    /// the batch drained the budget).
    pub fn starved(task: TaskId, requested: usize, why: CrowdError) -> Self {
        Self {
            task,
            requested,
            answers: Vec::new(),
            shortfall: Some(why),
        }
    }

    /// Number of answers delivered.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.answers.len()
    }

    /// Number of answers requested but not delivered.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.requested.saturating_sub(self.answers.len())
    }

    /// True when every requested answer arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shortfall.is_none() && self.answers.len() >= self.requested
    }

    /// The one shortfall policy every caller applies: budget or worker-pool
    /// exhaustion is absorbed (the purchased answers stand), any other
    /// shortfall is a platform failure and is returned as the error.
    pub fn check(&self) -> Result<()> {
        match &self.shortfall {
            Some(e) if !e.is_resource_exhaustion() => Err(e.clone()),
            _ => Ok(()),
        }
    }

    /// True when delivery stopped because of budget or worker-pool
    /// exhaustion (the graceful stop conditions callers usually absorb).
    pub fn stopped_by_exhaustion(&self) -> bool {
        matches!(&self.shortfall, Some(e) if e.is_resource_exhaustion())
    }

    /// True when the shortfall is specifically a drained budget — the one
    /// condition that starves every later request in a batch too.
    #[must_use]
    pub fn stopped_by_budget(&self) -> bool {
        matches!(&self.shortfall, Some(CrowdError::BudgetExhausted { .. }))
    }

    /// Consumes the outcome, yielding just the answers.
    pub fn into_answers(self) -> Vec<Answer> {
        self.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerValue;

    fn answer(t: u64, w: u64) -> Answer {
        Answer::bare(TaskId::new(t), WorkerId::new(w), AnswerValue::Choice(1))
    }

    #[test]
    fn builder_accumulates_exclusions_and_redundancy() {
        let task = Task::binary(TaskId::new(7), "q");
        let req = AskRequest::new(&task)
            .with_redundancy(5)
            .without_worker(WorkerId::new(1))
            .without_workers([WorkerId::new(2), WorkerId::new(3)]);
        assert_eq!(req.redundancy, 5);
        assert!(req.excludes(WorkerId::new(1)));
        assert!(req.excludes(WorkerId::new(3)));
        assert!(!req.excludes(WorkerId::new(4)));
    }

    #[test]
    fn outcome_classifies_delivery() {
        let full = AskOutcome::complete(TaskId::new(0), 2, vec![answer(0, 0), answer(0, 1)]);
        assert!(full.is_complete());
        assert_eq!(full.missing(), 0);
        assert!(!full.stopped_by_exhaustion());
        assert!(full.check().is_ok());

        let partial = AskOutcome {
            task: TaskId::new(0),
            requested: 3,
            answers: vec![answer(0, 0)],
            shortfall: Some(CrowdError::BudgetExhausted {
                requested: 1.0,
                remaining: 0.0,
            }),
        };
        assert!(!partial.is_complete());
        assert_eq!(partial.delivered(), 1);
        assert_eq!(partial.missing(), 2);
        assert!(partial.stopped_by_exhaustion());
        assert!(partial.stopped_by_budget());
        assert!(partial.check().is_ok(), "exhaustion is absorbed");

        let no_pool = AskOutcome::starved(TaskId::new(1), 2, CrowdError::NoWorkerAvailable);
        assert!(no_pool.stopped_by_exhaustion());
        assert!(!no_pool.stopped_by_budget());
        assert_eq!(no_pool.delivered(), 0);
        assert!(no_pool.check().is_ok());

        let broken = AskOutcome::starved(TaskId::new(2), 1, CrowdError::Execution("wire".into()));
        assert!(!broken.stopped_by_exhaustion());
        assert!(matches!(broken.check(), Err(CrowdError::Execution(_))));
    }
}
