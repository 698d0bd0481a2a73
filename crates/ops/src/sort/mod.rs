//! Crowd sort / top-k / max from noisy pairwise comparisons.
//!
//! Machines cannot order photos by clarity or answers by helpfulness;
//! crowds can, one pairwise comparison at a time (Qurk's sort operator,
//! Marcus et al. 2012). The cost/quality dial is how many of the
//! `n·(n−1)/2` comparisons to buy and how to aggregate them:
//!
//! * [`ComparisonGraph`] — accumulates (possibly contradictory) pairwise
//!   verdicts.
//! * [`collect_comparisons`] — buys comparisons through a
//!   [`CrowdOracle`].
//! * [`rankers`] — Borda, Copeland, Elo, and Bradley–Terry (MM) rank
//!   aggregation.
//! * [`tournament`] — max/top-k via elimination brackets, the cheap
//!   alternative when only the extremes matter.

pub mod active;
pub mod rankers;
pub mod tournament;

use std::collections::BTreeMap;

use crowdkit_core::answer::Preference;
use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Accumulated pairwise verdicts over `n` items.
#[derive(Debug, Clone)]
pub struct ComparisonGraph {
    n: usize,
    /// `(a, b)` with `a < b` → (times `a` won, times `b` won).
    wins: BTreeMap<(usize, usize), (u32, u32)>,
}

impl ComparisonGraph {
    /// An empty graph over `n` items.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "comparisons need at least two items");
        Self {
            n,
            wins: BTreeMap::new(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Records that `winner` beat `loser` once.
    ///
    /// # Panics
    /// Panics if the indices are out of range or equal.
    pub fn record(&mut self, winner: usize, loser: usize) {
        assert!(winner < self.n && loser < self.n && winner != loser);
        let key = (winner.min(loser), winner.max(loser));
        let entry = self.wins.entry(key).or_insert((0, 0));
        if winner == key.0 {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    /// `(a_wins, b_wins)` for the unordered pair `{a, b}` presented as
    /// (wins of `a`, wins of `b`).
    pub fn tally(&self, a: usize, b: usize) -> (u32, u32) {
        let key = (a.min(b), a.max(b));
        let (x, y) = self.wins.get(&key).copied().unwrap_or((0, 0));
        if a == key.0 {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Total comparisons recorded.
    pub fn total_comparisons(&self) -> u32 {
        self.wins.values().map(|(a, b)| a + b).sum()
    }

    /// Number of distinct pairs with at least one comparison.
    pub fn distinct_pairs(&self) -> usize {
        self.wins.len()
    }

    /// Iterates `((a, b), (a_wins, b_wins))` in deterministic (sorted pair)
    /// order — free now that the storage itself is ordered.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), (u32, u32))> + '_ {
        self.wins.iter().map(|(k, v)| (*k, *v))
    }
}

/// Samples `budget` distinct unordered pairs uniformly from the
/// `n·(n−1)/2` pair space, deterministically for the seed. Returns all
/// pairs if `budget` exceeds the space.
pub fn sample_pairs(n: usize, budget: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut all: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    all.shuffle(&mut rng);
    all.truncate(budget);
    all
}

/// Buys `votes` crowd comparisons for each pair in `pairs` and accumulates
/// them into a [`ComparisonGraph`].
///
/// All pairs go to the platform as one batched request (each with
/// redundancy `votes`), so independent comparisons overlap in crowd
/// latency. `make_task` builds the pairwise task for `(a, b)`; an answer
/// of [`Preference::Left`] means `a` won. Stops early (returning the
/// partial graph) when the oracle's budget or pool is exhausted.
pub fn collect_comparisons<O, F>(
    oracle: &O,
    n: usize,
    pairs: &[(usize, usize)],
    votes: u32,
    mut make_task: F,
) -> Result<ComparisonGraph>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    let mut graph = ComparisonGraph::new(n);
    let mut ids = IdGen::new();
    let tasks: Vec<Task> = pairs
        .iter()
        .map(|&(a, b)| make_task(ids.next_task(), a, b))
        .collect();
    let reqs: Vec<AskRequest<'_>> = tasks
        .iter()
        .map(|t| AskRequest::new(t).with_redundancy(votes.max(1) as usize))
        .collect();
    for (&(a, b), outcome) in pairs.iter().zip(oracle.ask_batch(&reqs)?.iter()) {
        outcome.check()?;
        for answer in &outcome.answers {
            if let Some(pref) = answer.value.as_preference() {
                match pref {
                    Preference::Left => graph.record(a, b),
                    Preference::Right => graph.record(b, a),
                }
            }
        }
    }
    Ok(graph)
}

/// Converts scores to a best-first ordering of item indices (ties broken
/// by index for determinism).
pub fn order_by_scores(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]).then_with(|| x.cmp(&y)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_tally_are_symmetric() {
        let mut g = ComparisonGraph::new(3);
        g.record(2, 0);
        g.record(0, 2);
        g.record(2, 0);
        assert_eq!(g.tally(2, 0), (2, 1));
        assert_eq!(g.tally(0, 2), (1, 2));
        assert_eq!(g.total_comparisons(), 3);
        assert_eq!(g.distinct_pairs(), 1);
    }

    #[test]
    #[should_panic]
    fn self_comparison_panics() {
        let mut g = ComparisonGraph::new(3);
        g.record(1, 1);
    }

    #[test]
    fn sample_pairs_distinct_and_bounded() {
        let pairs = sample_pairs(10, 20, 7);
        assert_eq!(pairs.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(a < b && b < 10);
            assert!(seen.insert((a, b)), "pairs must be distinct");
        }
        // Budget above the space returns everything.
        assert_eq!(sample_pairs(4, 100, 0).len(), 6);
        // Determinism.
        assert_eq!(sample_pairs(10, 5, 3), sample_pairs(10, 5, 3));
    }

    #[test]
    fn order_by_scores_descending_with_stable_ties() {
        assert_eq!(order_by_scores(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
        assert_eq!(order_by_scores(&[0.5, 0.5]), vec![0, 1]);
    }

    #[test]
    fn iter_is_deterministic() {
        let mut g = ComparisonGraph::new(4);
        g.record(3, 1);
        g.record(0, 2);
        let keys: Vec<(usize, usize)> = g.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 2), (1, 3)]);
    }
}
