//! Assignment policies.
//!
//! A policy plans a whole wave at once. No answer comes back within a
//! wave, so a task's votes, and with them its score, stay fixed there; a
//! pick changes only the picked task's answer count.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crowdkit_core::metrics::entropy;
use crowdkit_core::traits::StoppingRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The observable state a policy decides from: per-task vote counts plus
/// the per-task answer cap.
#[derive(Debug, Clone)]
pub struct AssignState {
    /// `votes[t][l]` = answers so far labelling task `t` as `l`.
    pub votes: Vec<Vec<u32>>,
    /// Hard per-task cap on answers (platforms bound assignments per HIT).
    pub max_answers_per_task: u32,
}

impl AssignState {
    /// Fresh state for `n_tasks` tasks over `k` labels.
    pub fn new(n_tasks: usize, k: usize, max_answers_per_task: u32) -> Self {
        Self {
            votes: vec![vec![0u32; k]; n_tasks],
            max_answers_per_task,
        }
    }

    /// Total answers task `t` has received.
    pub fn count(&self, t: usize) -> u32 {
        self.votes[t].iter().sum()
    }

    /// Tasks that can still receive answers, in index order.
    pub fn open_tasks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.votes.len()).filter(move |&t| self.count(t) < self.max_answers_per_task)
    }

    /// Records an answer.
    pub fn record(&mut self, t: usize, label: u32) {
        self.votes[t][label as usize] += 1;
    }

    /// Smoothed posterior over labels for task `t` (votes + 1 Laplace).
    pub fn posterior(&self, t: usize) -> Vec<f64> {
        let total: u32 = self.votes[t].iter().sum();
        let k = self.votes[t].len() as f64;
        self.votes[t]
            .iter()
            .map(|&v| (v as f64 + 1.0) / (total as f64 + k))
            .collect()
    }
}

/// Plans which tasks to buy answers for.
pub trait AssignmentPolicy {
    /// Short name for experiment tables.
    fn name(&self) -> &'static str;

    /// The next wave: at most `cap` task indices in ask order, a task
    /// repeated once per answer wanted. No task is taken past
    /// [`AssignState::max_answers_per_task`], counting the wave's own
    /// picks. Shorter than `cap` only when every task reaches its cap
    /// (or the policy decides to stop); empty ends collection.
    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize>;
}

/// A task's place in a wave's heap. The greatest key is picked next: the
/// highest score by `total_cmp`, then the fewest answers, counting the
/// wave's earlier picks, then the smallest index.
#[derive(Debug, Clone, Copy)]
struct Key {
    score: f64,
    count: u32,
    task: usize,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.count.cmp(&self.count))
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// Plans a wave greedily by `score`, which must depend only on a task's
/// votes: each open task is scored once into a max-heap, then the
/// greatest [`Key`] is picked `cap` times, its count rising by one per
/// pick until the task reaches its cap. O(n + w log n) for `n` tasks and
/// a wave of `w`.
fn plan_by_score(state: &AssignState, cap: usize, score: impl Fn(usize) -> f64) -> Vec<usize> {
    let max = state.max_answers_per_task;
    let mut heap: BinaryHeap<Key> = state
        .open_tasks()
        .map(|task| Key {
            score: score(task),
            count: state.count(task),
            task,
        })
        .collect();
    let mut wave = Vec::with_capacity(cap.min(heap.len()));
    while wave.len() < cap {
        let Some(mut top) = heap.peek_mut() else {
            break;
        };
        wave.push(top.task);
        top.count += 1;
        if top.count >= max {
            PeekMut::pop(top);
        }
    }
    wave
}

/// Uniform random among open tasks.
#[derive(Debug)]
pub struct RandomAssign {
    rng: StdRng,
}

impl RandomAssign {
    /// Creates the policy with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AssignmentPolicy for RandomAssign {
    fn name(&self) -> &'static str {
        "random"
    }

    /// Each pick draws uniformly from the open tasks in index order. The
    /// list is built once per wave and a task leaves it when the wave's
    /// picks bring it to its cap.
    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
        let max = state.max_answers_per_task;
        let mut open: Vec<(usize, u32)> = state.open_tasks().map(|t| (t, state.count(t))).collect();
        let mut wave = Vec::with_capacity(cap.min(open.len()));
        while wave.len() < cap && !open.is_empty() {
            let i = self.rng.gen_range(0..open.len());
            let (task, count) = &mut open[i];
            wave.push(*task);
            *count += 1;
            if *count >= max {
                open.remove(i);
            }
        }
        wave
    }
}

/// Evens out redundancy: always the open task with the fewest answers
/// (ties → smallest index).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
        plan_by_score(state, cap, |_| 0.0)
    }
}

/// Uncertainty sampling: the open task with the highest posterior entropy.
///
/// Unanswered tasks have maximal entropy and get served first; once every
/// task has one answer, budget flows to the contested ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyGreedy;

impl AssignmentPolicy for EntropyGreedy {
    fn name(&self) -> &'static str {
        "entropy"
    }

    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
        plan_by_score(state, cap, |t| entropy(&state.posterior(t)))
    }
}

/// Adaptive stopping as a policy: every wave asks each open task once
/// until the [`StoppingRule`] stops it, so easy tasks drop out early and
/// the rest keep being asked together.
///
/// The rule is consulted before every wave, the first included, and a
/// stopped task gets no more answers, so its verdict stays fixed.
#[derive(Debug, Clone, Copy)]
pub struct UntilStopped<'a, R: ?Sized>(pub &'a R);

impl<R: StoppingRule + ?Sized> AssignmentPolicy for UntilStopped<'_, R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    /// The open tasks the rule does not stop on, once each, in index
    /// order, at most `cap` of them.
    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
        let max = state.max_answers_per_task;
        state
            .open_tasks()
            .filter(|&t| !self.0.should_stop(&state.votes[t], max))
            .take(cap)
            .collect()
    }
}

/// QASCA-flavoured expected accuracy gain.
///
/// For each open task compute the current max-posterior `p` and the
/// *expected* max-posterior after one more answer, where the next answer is
/// simulated under the assumed worker accuracy: with probability derived
/// from the current posterior the answer supports each label, and the
/// posterior is updated by Bayes with the one-coin likelihood. The policy
/// buys for the task with the largest expected improvement.
#[derive(Debug, Clone, Copy)]
pub struct ExpectedAccuracyGain {
    /// Assumed worker accuracy (one-coin), e.g. 0.75.
    pub worker_accuracy: f64,
}

impl Default for ExpectedAccuracyGain {
    fn default() -> Self {
        Self {
            worker_accuracy: 0.75,
        }
    }
}

impl ExpectedAccuracyGain {
    /// Expected max-posterior after one more simulated answer on a task
    /// with the given posterior.
    fn expected_after_one(&self, post: &[f64]) -> f64 {
        let k = post.len();
        let p = self.worker_accuracy.clamp(1e-6, 1.0 - 1e-6);
        let wrong = (1.0 - p) / (k as f64 - 1.0).max(1.0);
        let mut expected = 0.0;
        // The next answer is `a` with probability Σ_t post[t]·P(a|t).
        for a in 0..k {
            let mut prob_a = 0.0;
            let mut updated: Vec<f64> = Vec::with_capacity(k);
            for (t, &pt) in post.iter().enumerate() {
                let like = if t == a { p } else { wrong };
                prob_a += pt * like;
                updated.push(pt * like);
            }
            if prob_a <= 0.0 {
                continue;
            }
            let max_updated = updated.iter().cloned().fold(0.0, f64::max) / prob_a;
            expected += prob_a * max_updated;
        }
        expected
    }

    /// Expected gain in max-posterior from one more answer on task `t`.
    fn gain(&self, state: &AssignState, t: usize) -> f64 {
        let post = state.posterior(t);
        let current = post.iter().cloned().fold(0.0, f64::max);
        self.expected_after_one(&post) - current
    }
}

impl AssignmentPolicy for ExpectedAccuracyGain {
    fn name(&self) -> &'static str {
        "expected_gain"
    }

    fn next_wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
        plan_by_score(state, cap, |t| self.gain(state, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_tracks_counts_and_caps() {
        let mut s = AssignState::new(3, 2, 2);
        assert_eq!(s.open_tasks().count(), 3);
        s.record(0, 1);
        s.record(0, 1);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.open_tasks().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn posterior_is_laplace_smoothed() {
        let mut s = AssignState::new(1, 2, 10);
        assert_eq!(s.posterior(0), vec![0.5, 0.5]);
        s.record(0, 1);
        let p = s.posterior(0);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_equalizes() {
        let mut s = AssignState::new(3, 2, 5);
        let mut p = RoundRobin;
        let mut order = Vec::new();
        for _ in 0..6 {
            let t = p.next_wave(&s, 1)[0];
            order.push(t);
            s.record(t, 0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // One wave counts its own picks the same way.
        let s = AssignState::new(3, 2, 5);
        assert_eq!(p.next_wave(&s, 6), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_stops_when_everything_capped() {
        let mut s = AssignState::new(2, 2, 1);
        let mut p = RoundRobin;
        s.record(0, 0);
        s.record(1, 0);
        assert_eq!(p.next_wave(&s, 1), Vec::<usize>::new());
        // A wave stops where the caps do, short of the wave cap.
        let s = AssignState::new(2, 2, 2);
        assert_eq!(p.next_wave(&s, 10), vec![0, 1, 0, 1]);
    }

    #[test]
    fn entropy_greedy_prefers_the_contested_task() {
        let mut s = AssignState::new(2, 2, 10);
        // Task 0: 3-0 (confident). Task 1: 2-2 (contested).
        s.record(0, 0);
        s.record(0, 0);
        s.record(0, 0);
        s.record(1, 0);
        s.record(1, 1);
        s.record(1, 0);
        s.record(1, 1);
        let mut p = EntropyGreedy;
        assert_eq!(p.next_wave(&s, 1), vec![1]);
    }

    #[test]
    fn entropy_greedy_serves_unanswered_tasks_first() {
        let mut s = AssignState::new(3, 2, 10);
        s.record(0, 0);
        s.record(2, 1);
        let mut p = EntropyGreedy;
        assert_eq!(p.next_wave(&s, 1), vec![1], "fresh task has max entropy");
    }

    #[test]
    fn entropy_greedy_wave_repeats_the_best_task_up_to_its_cap() {
        // Scores stay fixed within a wave: the fresh task keeps the highest
        // entropy and takes picks until its cap, then the next most
        // uncertain task does.
        let mut s = AssignState::new(3, 2, 3);
        s.record(0, 0);
        s.record(2, 1);
        s.record(2, 1);
        assert_eq!(EntropyGreedy.next_wave(&s, 5), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn until_stopped_asks_each_unstopped_open_task_once_in_index_order() {
        /// Stops a task once label 1 has a vote.
        struct FirstYes;
        impl StoppingRule for FirstYes {
            fn name(&self) -> &'static str {
                "first_yes"
            }
            fn should_stop(&self, votes: &[u32], _max_answers: u32) -> bool {
                votes[1] > 0
            }
        }
        let mut s = AssignState::new(4, 2, 2);
        s.record(0, 0);
        s.record(0, 0); // at its cap
        s.record(1, 1); // stopped by the rule
        s.record(3, 0);
        let mut p = UntilStopped(&FirstYes);
        assert_eq!(p.name(), "first_yes");
        assert_eq!(p.next_wave(&s, 10), vec![2, 3]);
        assert_eq!(p.next_wave(&s, 1), vec![2], "the wave cap binds");
        assert!(UntilStopped(&FirstYes)
            .next_wave(&AssignState::new(3, 2, 0), 10)
            .is_empty());
    }

    #[test]
    fn expected_gain_prefers_contested_over_settled() {
        let mut s = AssignState::new(2, 2, 10);
        // Task 0 settled 4-0; task 1 split 2-2.
        for _ in 0..4 {
            s.record(0, 0);
        }
        s.record(1, 0);
        s.record(1, 1);
        s.record(1, 0);
        s.record(1, 1);
        let mut p = ExpectedAccuracyGain::default();
        assert_eq!(p.next_wave(&s, 1), vec![1]);
    }

    #[test]
    fn expected_gain_is_nonnegative_math() {
        let p = ExpectedAccuracyGain {
            worker_accuracy: 0.8,
        };
        for post in [vec![0.5, 0.5], vec![0.9, 0.1], vec![0.34, 0.33, 0.33]] {
            let before = post.iter().cloned().fold(0.0, f64::max);
            let after = p.expected_after_one(&post);
            assert!(
                after >= before - 1e-9,
                "one more informative answer cannot reduce expected max-posterior: {before} → {after}"
            );
        }
    }

    #[test]
    fn random_assign_is_deterministic_per_seed_and_respects_caps() {
        let s = AssignState::new(5, 2, 3);
        let pick = |seed: u64| -> Vec<usize> {
            let mut p = RandomAssign::new(seed);
            (0..10).flat_map(|_| p.next_wave(&s, 1)).collect()
        };
        assert_eq!(pick(1), pick(1));
        let mut s2 = AssignState::new(2, 2, 1);
        s2.record(0, 0);
        let mut p = RandomAssign::new(0);
        for _ in 0..10 {
            assert_eq!(p.next_wave(&s2, 1), vec![1], "task 0 is capped");
        }
        // Within a wave, task 1 leaves the open list once it is capped.
        assert_eq!(p.next_wave(&s2, 3), vec![1]);
    }
}
