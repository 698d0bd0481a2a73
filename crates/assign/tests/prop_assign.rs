//! Property-based tests for assignment policies: every policy must pick
//! only open tasks, stop exactly when everything is capped, (for the
//! quality-aware ones) honour its selection criterion, and plan each wave
//! exactly as the per-pick scan it replaced.

use crowdkit_assign::{
    AssignState, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
use crowdkit_core::metrics::entropy;
use proptest::prelude::*;

/// The per-pick scan the wave planner replaced: each pick rescans every
/// task, and the wave's earlier picks count as in-flight answers.
mod reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An [`AssignState`] plus the answers in flight in the current wave.
    pub struct Pending<'a> {
        state: &'a AssignState,
        pending: Vec<u32>,
    }

    impl Pending<'_> {
        fn count(&self, t: usize) -> u32 {
            self.state.count(t) + self.pending[t]
        }

        fn open_tasks(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.state.votes.len())
                .filter(move |&t| self.count(t) < self.state.max_answers_per_task)
        }
    }

    /// One policy's single pick.
    pub enum Policy {
        Random(StdRng),
        RoundRobin,
        Entropy,
        Gain(f64),
    }

    impl Policy {
        /// The references for [`super::policies`], in the same order.
        pub fn all(seed: u64) -> Vec<Policy> {
            vec![
                Policy::Random(StdRng::seed_from_u64(seed)),
                Policy::RoundRobin,
                Policy::Entropy,
                Policy::Gain(ExpectedAccuracyGain::default().worker_accuracy),
            ]
        }

        fn next_task(&mut self, s: &Pending<'_>) -> Option<usize> {
            match self {
                Policy::Random(rng) => {
                    let open: Vec<usize> = s.open_tasks().collect();
                    if open.is_empty() {
                        None
                    } else {
                        Some(open[rng.gen_range(0..open.len())])
                    }
                }
                Policy::RoundRobin => s.open_tasks().min_by_key(|&t| (s.count(t), t)),
                Policy::Entropy => s
                    .open_tasks()
                    .map(|t| (t, entropy(&s.state.posterior(t))))
                    .max_by(|(ta, ea), (tb, eb)| {
                        ea.total_cmp(eb)
                            .then_with(|| s.count(*tb).cmp(&s.count(*ta)))
                            .then_with(|| tb.cmp(ta))
                    })
                    .map(|(t, _)| t),
                Policy::Gain(accuracy) => s
                    .open_tasks()
                    .map(|t| {
                        let post = s.state.posterior(t);
                        let current = post.iter().cloned().fold(0.0, f64::max);
                        let gain = expected_after_one(*accuracy, &post) - current;
                        (t, gain)
                    })
                    .max_by(|(ta, ga), (tb, gb)| {
                        ga.total_cmp(gb)
                            .then_with(|| s.count(*tb).cmp(&s.count(*ta)))
                            .then_with(|| tb.cmp(ta))
                    })
                    .map(|(t, _)| t),
            }
        }

        /// The driver's wave loop: pick until `cap` picks or `None`,
        /// marking each pick in flight.
        pub fn wave(&mut self, state: &AssignState, cap: usize) -> Vec<usize> {
            let mut s = Pending {
                state,
                pending: vec![0; state.votes.len()],
            };
            let mut wave = Vec::new();
            while wave.len() < cap {
                let Some(t) = self.next_task(&s) else {
                    break;
                };
                s.pending[t] += 1;
                wave.push(t);
            }
            wave
        }
    }

    fn expected_after_one(worker_accuracy: f64, post: &[f64]) -> f64 {
        let k = post.len();
        let p = worker_accuracy.clamp(1e-6, 1.0 - 1e-6);
        let wrong = (1.0 - p) / (k as f64 - 1.0).max(1.0);
        let mut expected = 0.0;
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
}

/// Builds a state from arbitrary per-task votes under a common cap.
fn state_from(votes: Vec<(u32, u32)>, cap: u32) -> AssignState {
    let mut s = AssignState::new(votes.len(), 2, cap);
    for (t, (no, yes)) in votes.iter().enumerate() {
        for _ in 0..(*no).min(cap) {
            s.record(t, 0);
        }
        for _ in 0..(*yes).min(cap.saturating_sub(*no)) {
            s.record(t, 1);
        }
    }
    s
}

fn policies(seed: u64) -> Vec<Box<dyn AssignmentPolicy>> {
    vec![
        Box::new(RandomAssign::new(seed)),
        Box::new(RoundRobin),
        Box::new(EntropyGreedy),
        Box::new(ExpectedAccuracyGain::default()),
    ]
}

/// Per-task vote tables over `k` ∈ {2, 3} labels, each task holding 0–5
/// votes per label, with a per-task cap of 1–8 answers.
fn vote_tables() -> impl Strategy<Value = (Vec<Vec<u32>>, u32)> {
    (
        2usize..4,
        prop::collection::vec(prop::collection::vec(0u32..6, 3), 1..12),
        1u32..9,
    )
        .prop_map(|(k, votes, cap)| {
            // Keep each task at or under the cap, as a driver would.
            let votes = votes
                .into_iter()
                .map(|mut v| {
                    v.truncate(k);
                    let mut room = cap;
                    for c in &mut v {
                        *c = (*c).min(room);
                        room -= *c;
                    }
                    v
                })
                .collect();
            (votes, cap)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Policies only ever select open tasks, and return nothing exactly
    /// when every task is at its cap.
    #[test]
    fn policies_respect_caps(
        votes in prop::collection::vec((0u32..6, 0u32..6), 1..12),
        cap in 1u32..8,
        seed in 0u64..100,
    ) {
        let s = state_from(votes, cap);
        let any_open = s.open_tasks().next().is_some();
        for mut p in policies(seed) {
            match p.next_wave(&s, 1)[..] {
                [t] => {
                    prop_assert!(any_open, "{} picked from a fully-capped state", p.name());
                    prop_assert!(t < s.votes.len());
                    prop_assert!(
                        s.count(t) < cap,
                        "{} picked capped task {t}", p.name()
                    );
                }
                [] => prop_assert!(!any_open, "{} gave up with open tasks", p.name()),
                ref wave => prop_assert!(false, "{} overfilled a wave of 1: {wave:?}", p.name()),
            }
        }
    }

    /// EntropyGreedy always picks a task whose posterior entropy is maximal
    /// among open tasks.
    #[test]
    fn entropy_greedy_picks_a_max_entropy_task(
        votes in prop::collection::vec((0u32..5, 0u32..5), 1..10),
    ) {
        let s = state_from(votes, 20);
        let mut p = EntropyGreedy;
        if let Some(&t) = p.next_wave(&s, 1).first() {
            let chosen = entropy(&s.posterior(t));
            for other in s.open_tasks() {
                prop_assert!(
                    chosen >= entropy(&s.posterior(other)) - 1e-9,
                    "task {t} (H={chosen:.4}) is not maximal"
                );
            }
        }
    }

    /// Round-robin keeps the vote counts balanced: after any number of
    /// steps, max and min task counts differ by at most one.
    #[test]
    fn round_robin_balances_counts(n_tasks in 1usize..10, steps in 0usize..40) {
        let mut s = AssignState::new(n_tasks, 2, u32::MAX);
        let mut p = RoundRobin;
        for _ in 0..steps {
            let t = *p.next_wave(&s, 1).first().expect("uncapped tasks stay open");
            s.record(t, 0);
        }
        let counts: Vec<u32> = (0..n_tasks).map(|t| s.count(t)).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced counts {counts:?}");
    }

    /// RandomAssign with the same seed replays the same choices.
    #[test]
    fn random_assign_is_reproducible(
        votes in prop::collection::vec((0u32..4, 0u32..4), 1..8),
        seed in 0u64..50,
    ) {
        let s = state_from(votes, 10);
        let picks = |seed: u64| -> Vec<Vec<usize>> {
            let mut p = RandomAssign::new(seed);
            (0..10).map(|_| p.next_wave(&s, 1)).collect()
        };
        prop_assert_eq!(picks(seed), picks(seed));
    }

    /// Every policy's wave is exactly the sequence the per-pick scan
    /// builds, over three consecutive waves on the same policy objects (so
    /// RandomAssign's stream carries across waves), with votes for each
    /// wave's picks recorded in between.
    #[test]
    fn waves_equal_the_per_pick_scan(
        (votes, cap) in vote_tables(),
        wave_caps in prop::collection::vec(0usize..1_000, 3),
        answers in prop::collection::vec(0u32..3, 64),
        seed in 0u64..100,
    ) {
        let n = votes.len();
        let k = votes[0].len();
        let mut state = AssignState::new(n, k, cap);
        state.votes = votes;
        let mut answers = answers.into_iter().cycle();
        let mut ours = policies(seed);
        let mut refs = reference::Policy::all(seed);
        for &wave_cap in &wave_caps {
            // Wave caps from 1 to n + 3.
            let wave_cap = 1 + wave_cap % (n + 3);
            let mut picked = Vec::new();
            for (p, r) in ours.iter_mut().zip(&mut refs) {
                let wave = p.next_wave(&state, wave_cap);
                prop_assert_eq!(&wave, &r.wave(&state, wave_cap), "{}", p.name());
                picked = wave;
            }
            // The last policy's picks come back answered.
            for t in picked {
                let label = answers.next().unwrap() % k as u32;
                state.record(t, label);
            }
        }
    }

    /// A wave never takes a task past its cap, and it falls short of the
    /// wave cap only when every task's cap is reached.
    #[test]
    fn waves_fill_up_to_the_remaining_room(
        (votes, cap) in vote_tables(),
        wave_cap in 0usize..20,
        seed in 0u64..100,
    ) {
        let n = votes.len();
        let mut state = AssignState::new(n, votes[0].len(), cap);
        state.votes = votes;
        let room: usize = (0..n).map(|t| (cap - state.count(t)) as usize).sum();
        for mut p in policies(seed) {
            let wave = p.next_wave(&state, wave_cap);
            prop_assert_eq!(wave.len(), wave_cap.min(room), "{}", p.name());
            for t in 0..n {
                let picks = wave.iter().filter(|&&w| w == t).count() as u32;
                prop_assert!(state.count(t) + picks <= cap, "{} overfilled task {t}", p.name());
            }
        }
    }
}
