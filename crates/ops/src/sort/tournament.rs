//! Max / top-k via elimination tournaments.
//!
//! When only the best item(s) matter, buying the full comparison graph is
//! wasteful: a single-elimination bracket finds a max candidate in `n − 1`
//! matches, and repeating it on the survivors yields top-k in
//! `O(n + k log n)` matches — the crowd-max strategy of the Qurk/"crowd
//! max" line of work. Each match takes `votes` crowd judgements and is
//! decided by majority, so per-match noise can be suppressed independently
//! of bracket depth. All matches of a bracket round are independent, so
//! they are submitted as one batch and overlap in crowd latency: a round
//! costs one round-trip, not one per match.

use crowdkit_core::answer::Preference;
use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;

/// Outcome of a tournament run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentOutcome {
    /// The winners, best-first (length = requested `k`, or fewer if the
    /// budget died).
    pub winners: Vec<usize>,
    /// Matches played.
    pub matches: usize,
    /// Crowd answers purchased.
    pub questions_asked: usize,
}

/// Single-elimination max over `items` (indices `0..n`).
///
/// Returns the champion plus cost accounting. If the budget dies mid-way,
/// the current bracket leader is returned (best effort).
pub fn crowd_max<O, F>(
    oracle: &O,
    n: usize,
    votes: u32,
    mut make_task: F,
) -> Result<TournamentOutcome>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    assert!(n >= 1, "max of zero items is undefined");
    let candidates: Vec<usize> = (0..n).collect();
    let mut ids = IdGen::new();
    let (winner, matches, questions) =
        run_bracket(oracle, &mut ids, candidates, votes, &mut make_task)?;
    Ok(TournamentOutcome {
        winners: vec![winner],
        matches,
        questions_asked: questions,
    })
}

/// Top-k by repeated brackets: find the max, remove it, repeat.
pub fn crowd_top_k<O, F>(
    oracle: &O,
    n: usize,
    k: usize,
    votes: u32,
    mut make_task: F,
) -> Result<TournamentOutcome>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut ids = IdGen::new();
    let mut winners = Vec::with_capacity(k);
    let mut matches = 0usize;
    let mut questions = 0usize;
    for _ in 0..k {
        if remaining.is_empty() {
            break;
        }
        if remaining.len() == 1 {
            winners.push(remaining[0]);
            break;
        }
        let before = oracle.answers_delivered();
        let (winner, m, q) =
            run_bracket(oracle, &mut ids, remaining.clone(), votes, &mut make_task)?;
        matches += m;
        questions += q;
        winners.push(winner);
        remaining.retain(|&x| x != winner);
        // If the bracket could not buy a single answer, stop asking.
        if oracle.answers_delivered() == before && m > 0 && q == 0 {
            break;
        }
    }
    Ok(TournamentOutcome {
        winners,
        matches,
        questions_asked: questions,
    })
}

/// Runs one single-elimination bracket, batching each round's matches into
/// a single platform request; returns (champion, matches, questions).
///
/// A match whose outcome delivered no answers (budget dead) is a walkover
/// for the left slot, deterministically. Ties also favour the left slot.
fn run_bracket<O, F>(
    oracle: &O,
    ids: &mut IdGen,
    mut round: Vec<usize>,
    votes: u32,
    make_task: &mut F,
) -> Result<(usize, usize, usize)>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    let mut matches = 0usize;
    let mut questions = 0usize;
    while round.len() > 1 {
        let mut pairs = Vec::with_capacity(round.len() / 2);
        let mut i = 0;
        while i + 1 < round.len() {
            pairs.push((round[i], round[i + 1]));
            i += 2;
        }
        let bye = (i < round.len()).then(|| round[i]);

        let tasks: Vec<Task> = pairs
            .iter()
            .map(|&(a, b)| make_task(ids.next_task(), a, b))
            .collect();
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(votes.max(1) as usize))
            .collect();
        let outcomes = oracle.ask_batch(&reqs)?;

        let mut next = Vec::with_capacity(pairs.len() + 1);
        for (&(a, b), out) in pairs.iter().zip(&outcomes) {
            out.check()?;
            if out.answers.is_empty() {
                // Budget dead: advance `a` by walkover.
                next.push(a);
                continue;
            }
            let mut left = 0u32;
            let mut right = 0u32;
            for answer in &out.answers {
                match answer.value.as_preference() {
                    Some(Preference::Left) => left += 1,
                    Some(Preference::Right) => right += 1,
                    None => {}
                }
            }
            matches += 1;
            questions += out.answers.len();
            next.push(if right > left { b } else { a });
        }
        if let Some(x) = bye {
            next.push(x);
        }
        round = next;
    }
    Ok((round[0], matches, questions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::{ItemId, WorkerId};
    use std::cell::{Cell, RefCell};

    /// Oracle answering pairwise tasks per attached truth.
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
            self.delivered.set(self.delivered.get() + 1);
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            Ok(Answer::bare(task.id, w, task.truth.clone().unwrap()))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    /// Item index IS its latent strength: higher index beats lower.
    fn make_task(id: TaskId, a: usize, b: usize) -> Task {
        let pref = if a > b {
            Preference::Left
        } else {
            Preference::Right
        };
        Task::pairwise(id, ItemId::new(a as u64), ItemId::new(b as u64))
            .with_truth(AnswerValue::Prefer(pref))
    }

    #[test]
    fn crowd_max_finds_the_strongest_item() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_max(&oracle, 16, 1, make_task).unwrap();
        assert_eq!(out.winners, vec![15]);
        assert_eq!(out.matches, 15, "single elimination plays n−1 matches");
        assert_eq!(out.questions_asked, 15);
    }

    #[test]
    fn crowd_max_with_odd_field_and_votes() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_max(&oracle, 7, 3, make_task).unwrap();
        assert_eq!(out.winners, vec![6]);
        assert_eq!(out.matches, 6);
        assert_eq!(out.questions_asked, 18);
    }

    #[test]
    fn top_k_returns_best_first() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_top_k(&oracle, 8, 3, 1, make_task).unwrap();
        assert_eq!(out.winners, vec![7, 6, 5]);
    }

    #[test]
    fn top_k_equals_n_returns_full_order() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_top_k(&oracle, 4, 4, 1, make_task).unwrap();
        assert_eq!(out.winners, vec![3, 2, 1, 0]);
    }

    #[test]
    fn budget_exhaustion_yields_best_effort_champion() {
        // Budget for only 2 of the 3 matches of a 4-item bracket.
        let oracle = TruthfulOracle::new(2.0);
        let out = crowd_max(&oracle, 4, 1, make_task).unwrap();
        assert_eq!(out.winners.len(), 1);
        assert_eq!(out.questions_asked, 2);
        // Finals was a walkover for the left slot (winner of match 1 = 1).
        assert_eq!(out.winners, vec![1]);
    }

    #[test]
    #[should_panic(expected = "1 ≤ k ≤ n")]
    fn top_k_rejects_k_zero() {
        let oracle = TruthfulOracle::new(10.0);
        let _ = crowd_top_k(&oracle, 3, 0, 1, make_task);
    }

    #[test]
    fn single_item_tournament_is_free() {
        let oracle = TruthfulOracle::new(10.0);
        let out = crowd_max(&oracle, 1, 3, make_task).unwrap();
        assert_eq!(out.winners, vec![0]);
        assert_eq!(out.questions_asked, 0);
    }
}
