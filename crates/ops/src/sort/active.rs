//! Active comparison sampling: spend the next comparison where the
//! ranking is least certain.
//!
//! Random pair sampling wastes budget re-confirming pairs whose order is
//! already clear. The active-ranking literature picks the next pair by
//! uncertainty instead; here we use the classic score-gap heuristic:
//! maintain Bradley–Terry strengths over the comparisons so far and, in
//! each round, buy comparisons for the yet-uncompared (or least-compared)
//! pairs whose current strength gap is smallest. Experiment E4 contrasts
//! this with uniform sampling at equal budgets.

use std::collections::HashMap;

use crowdkit_core::answer::Preference;
use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;

use super::rankers::bradley_terry;
use super::ComparisonGraph;

/// Settings for [`active_comparisons`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveConfig {
    /// Crowd votes per selected pair.
    pub votes: u32,
    /// Pairs selected between score refreshes (larger = fewer BTL runs,
    /// less adaptive).
    pub round_size: usize,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        Self {
            votes: 1,
            round_size: 25,
        }
    }
}

/// Buys up to `budget` pair selections (each worth `config.votes` crowd
/// questions) using score-gap-driven selection, and returns the resulting
/// comparison graph.
///
/// Selection is adaptive *between* rounds; the pairs chosen within one
/// round are independent and go to the platform as a single batch, so each
/// round costs one round of crowd latency. Ties in the gap are broken by
/// comparison count (least compared first), then pair order, so runs are
/// deterministic.
pub fn active_comparisons<O, F>(
    oracle: &O,
    n: usize,
    budget: usize,
    config: ActiveConfig,
    mut make_task: F,
) -> Result<ComparisonGraph>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    assert!(n >= 2, "need at least two items to rank");
    let mut graph = ComparisonGraph::new(n);
    let mut ids = IdGen::new();
    let mut compared: HashMap<(usize, usize), u32> = HashMap::new();
    let mut remaining = budget;

    while remaining > 0 {
        // Refresh strengths from everything bought so far. The first round
        // has no data: scores are all equal and selection degenerates to
        // least-compared order, i.e. a covering pass.
        let scores = if graph.total_comparisons() > 0 {
            bradley_terry(&graph, 100, 1e-8)
        } else {
            vec![0.0; n]
        };

        // Rank candidate pairs by (comparison count, |score gap|).
        let mut candidates: Vec<(u32, f64, usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let count = compared.get(&(a, b)).copied().unwrap_or(0);
                let gap = (scores[a] - scores[b]).abs();
                candidates.push((count, gap, a, b));
            }
        }
        candidates.sort_by(|x, y| {
            x.0.cmp(&y.0)
                .then_with(|| x.1.total_cmp(&y.1))
                .then_with(|| (x.2, x.3).cmp(&(y.2, y.3)))
        });

        // Greedily fill the round, bounding how often one item may appear
        // in it. Without the bound, the all-ties first round would pick
        // (0,1), (0,2), … — every pair sharing item 0 — and sparse budgets
        // would never cover the item space. The bound also keeps the
        // round's pairs spread across items, which is what lets them run
        // as one parallel batch of independent questions.
        let round_len = config.round_size.min(remaining);
        let cap = ((2 * round_len).div_ceil(n.max(1))).max(1) as u32;
        let mut used = vec![0u32; n];
        let mut selected: Vec<(usize, usize)> = Vec::with_capacity(round_len);
        for &(_, _, a, b) in &candidates {
            if selected.len() >= round_len {
                break;
            }
            if used[a] < cap && used[b] < cap {
                used[a] += 1;
                used[b] += 1;
                selected.push((a, b));
            }
        }
        // If the degree bound left slots open (small n, large rounds),
        // fill them in plain candidate order.
        if selected.len() < round_len {
            for &(_, _, a, b) in &candidates {
                if selected.len() >= round_len {
                    break;
                }
                if !selected.contains(&(a, b)) {
                    selected.push((a, b));
                }
            }
        }
        if selected.is_empty() {
            break;
        }
        remaining -= selected.len();
        let tasks: Vec<Task> = selected
            .iter()
            .map(|&(a, b)| {
                *compared.entry((a, b)).or_insert(0) += 1;
                make_task(ids.next_task(), a, b)
            })
            .collect();
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(config.votes.max(1) as usize))
            .collect();
        let mut exhausted = false;
        for (&(a, b), out) in selected.iter().zip(oracle.ask_batch(&reqs)?.iter()) {
            out.check()?;
            exhausted |= out.stopped_by_exhaustion();
            for answer in &out.answers {
                match answer.value.as_preference() {
                    Some(Preference::Left) => graph.record(a, b),
                    Some(Preference::Right) => graph.record(b, a),
                    None => {}
                }
            }
        }
        if exhausted {
            break;
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::order_by_scores;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::ids::{ItemId, WorkerId};

    /// Oracle where item index = latent strength, with deterministic
    /// pseudo-noise flipping ~15 % of verdicts.
    struct NoisyOracle {
        calls: std::cell::Cell<u64>,
    }

    impl NoisyOracle {
        fn new() -> Self {
            Self {
                calls: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for NoisyOracle {
        fn ask_one(&self, task: &Task) -> Result<crowdkit_core::answer::Answer> {
            let calls = self.calls.get() + 1;
            self.calls.set(calls);
            let truth = task.truth.clone().unwrap();
            let flip = calls.is_multiple_of(7); // ~14 % deterministic noise
            let value = match truth {
                AnswerValue::Prefer(p) => AnswerValue::Prefer(if flip { p.flip() } else { p }),
                other => other,
            };
            Ok(crowdkit_core::answer::Answer::bare(
                task.id,
                WorkerId::new(calls),
                value,
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            self.calls.get()
        }
    }

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
    fn first_round_covers_uncompared_pairs() {
        let oracle = NoisyOracle::new();
        let g = active_comparisons(
            &oracle,
            10,
            45,
            ActiveConfig {
                votes: 1,
                round_size: 45,
            },
            make_task,
        )
        .unwrap();
        // Budget = the full pair space and a single covering round: every
        // pair compared exactly once.
        assert_eq!(g.distinct_pairs(), 45);
        assert_eq!(g.total_comparisons(), 45);
    }

    #[test]
    fn budget_is_respected_in_crowd_questions() {
        let oracle = NoisyOracle::new();
        let g = active_comparisons(
            &oracle,
            8,
            20,
            ActiveConfig {
                votes: 3,
                round_size: 5,
            },
            make_task,
        )
        .unwrap();
        assert_eq!(g.total_comparisons(), 60, "20 selections × 3 votes");
        assert_eq!(oracle.answers_delivered(), 60);
    }

    #[test]
    fn active_ranking_recovers_order_with_noise() {
        let oracle = NoisyOracle::new();
        let g = active_comparisons(&oracle, 12, 150, ActiveConfig::default(), make_task).unwrap();
        let scores = bradley_terry(&g, 200, 1e-9);
        let order = order_by_scores(&scores);
        // The top item must be found exactly; the full order nearly.
        assert_eq!(order[0], 11, "order {order:?}");
        let tau = crowdkit_core::metrics::kendall_tau(
            &scores,
            &(0..12).map(|i| i as f64).collect::<Vec<_>>(),
        );
        assert!(tau > 0.8, "tau {tau}");
    }

    #[test]
    fn revisits_concentrate_on_close_pairs() {
        // After covering all pairs once, extra budget should go to pairs of
        // adjacent (hard) items, not to 0-vs-11 (easy).
        let oracle = NoisyOracle::new();
        let n = 8;
        let full = n * (n - 1) / 2; // 28
        let g = active_comparisons(
            &oracle,
            n,
            full + 14,
            ActiveConfig {
                votes: 1,
                round_size: 7,
            },
            make_task,
        )
        .unwrap();
        // Extremes compared once; some close pair got a revisit.
        let (easy_a, easy_b) = (0, n - 1);
        let easy = {
            let (x, y) = g.tally(easy_a, easy_b);
            x + y
        };
        assert!(easy <= 2, "easy extreme pair re-bought {easy} times");
        let max_revisits = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .map(|(a, b)| {
                let (x, y) = g.tally(a, b);
                x + y
            })
            .max()
            .unwrap();
        assert!(max_revisits >= 2, "someone got revisited");
    }

    #[test]
    #[should_panic(expected = "at least two items")]
    fn rejects_single_item() {
        let oracle = NoisyOracle::new();
        let _ = active_comparisons(&oracle, 1, 5, ActiveConfig::default(), make_task);
    }
}
