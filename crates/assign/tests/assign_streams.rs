//! Pins seeded assignment runs. Each of the four policies runs through
//! `run_assignment` on a seeded `SimulatedCrowd` over a mixed pool, so
//! answers, and with them the quality-aware scores, vary between tasks.
//! A run is digested over its matrix in push order (task, worker, label),
//! its final votes and `questions_asked`. A change to which task a policy
//! picks, in which order a wave is asked, or when collection stops fails
//! here, not only as shifted experiment numerics.
//!
//! The four cases: the per-task cap binds, the question budget ends
//! mid-wave, the platform's own budget runs dry mid-wave, and a 3-label
//! run.

use crowdkit_assign::{
    run_assignment, AssignmentOutcome, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain,
    RandomAssign, RoundRobin,
};
use crowdkit_core::budget::Budget;
use crowdkit_core::task::Task;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};

/// FNV-1a over everything a run hands back.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(out: &AssignmentOutcome) -> u64 {
    let m = &out.matrix;
    let mut d = Digest::new();
    for o in m.observations() {
        d.u64(m.task_id(o.task).raw());
        d.u64(m.worker_id(o.worker).raw());
        d.u64(u64::from(o.label));
    }
    for v in &out.votes {
        v.iter().for_each(|&c| d.u64(u64::from(c)));
    }
    d.u64(out.questions_asked as u64);
    d.0
}

/// Runs random, round-robin, entropy and expected-gain, each on a fresh
/// platform from `build`, and returns each run's outcome.
fn run_policies(
    build: impl Fn() -> SimulatedCrowd,
    tasks: &[Task],
    budget: usize,
    cap: u32,
    seed: u64,
) -> Vec<AssignmentOutcome> {
    let policies: [Box<dyn AssignmentPolicy>; 4] = [
        Box::new(RandomAssign::new(seed)),
        Box::new(RoundRobin),
        Box::new(EntropyGreedy),
        Box::new(ExpectedAccuracyGain::default()),
    ];
    policies
        .into_iter()
        .map(|mut p| run_assignment(&build(), tasks, &mut *p, budget, cap).expect("assignment"))
        .collect()
}

fn assert_pinned(runs: &[AssignmentOutcome], want: [u64; 4]) {
    let got: Vec<u64> = runs.iter().map(digest).collect();
    assert_eq!(got, want, "digests {got:#X?}");
}

#[test]
fn per_task_cap_binds() {
    // 40 tasks × cap 4 = 160 answers, well under the question budget.
    let tasks = LabelingDataset::binary(40, 21).tasks;
    let build = || SimulatedCrowd::new(mixes::mixed(60, 21), 21);
    let runs = run_policies(build, &tasks, 1_000, 4, 21);
    for out in &runs {
        assert_eq!(out.questions_asked, 160);
        assert!(out.votes.iter().all(|v| v.iter().sum::<u32>() == 4));
    }
    assert_pinned(
        &runs,
        [
            0x7F92_0768_816F_77FC,
            0x71BD_8187_6562_569C,
            0x9EF4_A2E5_64AF_821C,
            0x5E92_FBA4_5555_B71C,
        ],
    );
}

#[test]
fn question_budget_ends_mid_wave() {
    // Waves of 40, 40 and then 17: the budget cuts the third wave short.
    let tasks = LabelingDataset::binary(40, 22).tasks;
    let build = || SimulatedCrowd::new(mixes::mixed(60, 22), 22);
    let runs = run_policies(build, &tasks, 97, 6, 22);
    for out in &runs {
        assert_eq!(out.questions_asked, 97);
    }
    assert_pinned(
        &runs,
        [
            0x1EB0_A0EB_7E4B_A081,
            0x0A96_BEAA_E5BB_9F2B,
            0x89AF_6265_70FA_B62A,
            0x89AF_6265_70FA_B62A,
        ],
    );
}

#[test]
fn oracle_budget_runs_dry_mid_wave() {
    // The platform can pay for 100 answers: two full waves of 40, then a
    // third delivered only in part, in the order the policy asked, and
    // collection stops there.
    let tasks = LabelingDataset::binary(40, 23).tasks;
    let build = || {
        PlatformBuilder::new(mixes::mixed(60, 23))
            .budget(Budget::new(100.0))
            .seed(23)
            .build()
    };
    let runs = run_policies(build, &tasks, 1_000, 8, 23);
    for out in &runs {
        assert_eq!(out.questions_asked, 100);
    }
    assert_pinned(
        &runs,
        [
            0xFB79_5D7C_154F_F41B,
            0x59D5_43A6_5710_9FAF,
            0xA6C1_7563_2AC9_DE2B,
            0xA6C1_7563_2AC9_DE2B,
        ],
    );
}

#[test]
fn three_label_run() {
    let tasks = LabelingDataset::generate(30, 3, 0.5, (0.2, 0.8), 24).tasks;
    let build = || SimulatedCrowd::new(mixes::mixed(60, 24), 24);
    let runs = run_policies(build, &tasks, 130, 7, 24);
    for out in &runs {
        assert_eq!(out.questions_asked, 130);
        assert!(out.votes.iter().all(|v| v.len() == 3));
    }
    assert_pinned(
        &runs,
        [
            0x3FDE_8A76_7685_E830,
            0x488A_EF9D_51D3_2622,
            0xC5AE_8F29_2085_D7CA,
            0xB51F_E858_D27B_73CE,
        ],
    );
}
