// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E8 — Task-assignment policies under fixed budgets.
//!
//! Emulates the QASCA ('15) evaluation table: final label accuracy under
//! identical question budgets for random, uncertainty-greedy, and
//! expected-accuracy-gain assignment. Expected shape: quality-aware
//! policies beat random under tight budgets and converge with it as the
//! budget loosens.

use crowdkit_assign::{
    run_assignment, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::OneCoinEm;

use crate::table::{pct, Table};

const N_TASKS: usize = 200;
const SEEDS: [u64; 5] = [81, 82, 83, 84, 85];

fn accuracy_under_budget(policy_name: &str, budget: usize, seed: u64) -> f64 {
    let data = LabelingDataset::generate(N_TASKS, 2, 0.5, (0.2, 0.8), seed);
    let crowd = SimulatedCrowd::new(mixes::mixed(60, seed), seed);
    let mut random;
    let mut rr = RoundRobin;
    let mut entropy = EntropyGreedy;
    let mut gain = ExpectedAccuracyGain::default();
    let policy: &mut dyn AssignmentPolicy = match policy_name {
        "random" => {
            random = RandomAssign::new(seed);
            &mut random
        }
        "round_robin" => &mut rr,
        "entropy" => &mut entropy,
        _ => &mut gain,
    };
    let out = run_assignment(&crowd, &data.tasks, policy, budget, 25).expect("assignment succeeds");
    let inference = OneCoinEm::default().infer(&out.matrix).expect("non-empty");
    let mut correct = 0usize;
    for (task, &truth) in data.tasks.iter().zip(&data.truths) {
        if let Some(t) = out.matrix.task_index(task.id) {
            if inference.labels[t] == truth {
                correct += 1;
            }
        }
        // Tasks with no answers count as wrong.
    }
    correct as f64 / N_TASKS as f64
}

/// Runs E8.
pub fn run() -> Vec<Table> {
    let budgets = [2 * N_TASKS, 3 * N_TASKS, 5 * N_TASKS];
    let mut t = Table::new(
        format!(
            "E8: assignment policy accuracy under fixed budgets ({N_TASKS} tasks, mixed crowd, mean of {} seeds)",
            SEEDS.len()
        ),
        &["policy", "budget 2n", "budget 3n", "budget 5n"],
    );
    for policy in ["random", "round_robin", "entropy", "expected_gain"] {
        let mut cells = vec![policy.to_owned()];
        for &b in &budgets {
            let avg: f64 = SEEDS
                .iter()
                .map(|&s| accuracy_under_budget(policy, b, s))
                .sum::<f64>()
                / SEEDS.len() as f64;
            obs::quality("accuracy", avg);
            cells.push(pct(avg));
        }
        t.row(cells);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_shape_quality_aware_at_least_matches_random_when_tight() {
        let avg = |p: &str| -> f64 {
            SEEDS
                .iter()
                .map(|&s| accuracy_under_budget(p, 2 * N_TASKS, s))
                .sum::<f64>()
                / SEEDS.len() as f64
        };
        let random = avg("random");
        let gain = avg("expected_gain");
        let entropy = avg("entropy");
        assert!(
            gain >= random - 0.02,
            "expected-gain ({gain:.3}) must not trail random ({random:.3})"
        );
        assert!(
            entropy >= random - 0.02,
            "entropy ({entropy:.3}) must not trail random ({random:.3})"
        );
    }

    #[test]
    fn e8_shape_more_budget_more_accuracy() {
        let tight = accuracy_under_budget("round_robin", 2 * N_TASKS, 81);
        let loose = accuracy_under_budget("round_robin", 5 * N_TASKS, 81);
        assert!(
            loose >= tight,
            "budget 5n ({loose:.3}) ≥ budget 2n ({tight:.3})"
        );
    }
}
