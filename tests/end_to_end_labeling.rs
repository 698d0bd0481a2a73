//! Integration: full labeling pipelines across sim + truth + assign.

use crowdkit::assign::{run_assignment, EntropyGreedy, ExpectedAccuracyGain, RandomAssign};
use crowdkit::core::metrics::accuracy;
use crowdkit::core::traits::TruthInferencer;
use crowdkit::sim::dataset::LabelingDataset;
use crowdkit::sim::population::mixes;
use crowdkit::sim::SimulatedCrowd;
use crowdkit::truth::{pipeline::label_tasks, DawidSkene, MajorityVote, OneCoinEm};

fn run_accuracy<I: TruthInferencer>(
    data: &LabelingDataset,
    pop_size: usize,
    k: usize,
    seed: u64,
    algo: &I,
) -> f64 {
    let crowd = SimulatedCrowd::new(mixes::spam_heavy(pop_size, seed), seed);
    let outcome = label_tasks(&crowd, &data.tasks, k, algo).unwrap();
    let predicted: Vec<u32> = data
        .tasks
        .iter()
        .map(|t| outcome.label_for(t).unwrap())
        .collect();
    accuracy(&predicted, &data.truths)
}

#[test]
fn em_beats_majority_vote_on_spam_heavy_crowds() {
    let data = LabelingDataset::binary(300, 1);
    let mv: f64 = (0..3)
        .map(|s| run_accuracy(&data, 40, 5, s, &MajorityVote))
        .sum::<f64>()
        / 3.0;
    let ds: f64 = (0..3)
        .map(|s| run_accuracy(&data, 40, 5, s, &DawidSkene::default()))
        .sum::<f64>()
        / 3.0;
    assert!(
        ds > mv + 0.05,
        "Dawid–Skene ({ds:.3}) should clearly beat MV ({mv:.3}) under heavy spam"
    );
}

#[test]
fn accuracy_grows_with_redundancy() {
    let data = LabelingDataset::binary(300, 2);
    let low = run_accuracy(&data, 40, 1, 7, &OneCoinEm::default());
    let high = run_accuracy(&data, 40, 9, 7, &OneCoinEm::default());
    assert!(
        high > low,
        "9 votes ({high:.3}) should beat 1 vote ({low:.3})"
    );
}

#[test]
fn reliable_crowds_make_everyone_accurate() {
    let data = LabelingDataset::binary(200, 3);
    let crowd = SimulatedCrowd::new(mixes::reliable(40, 3), 3);
    let outcome = label_tasks(&crowd, &data.tasks, 5, &MajorityVote).unwrap();
    let predicted: Vec<u32> = data
        .tasks
        .iter()
        .map(|t| outcome.label_for(t).unwrap())
        .collect();
    assert!(accuracy(&predicted, &data.truths) > 0.9);
}

#[test]
fn quality_aware_assignment_beats_random_under_tight_budget() {
    // 200 tasks, budget of 600 questions (3 per task on average).
    let data = LabelingDataset::generate(200, 2, 0.5, (0.2, 0.8), 5);
    let algo = OneCoinEm::default();

    let acc = |policy: &mut dyn crowdkit::assign::AssignmentPolicy, seed: u64| -> f64 {
        let crowd = SimulatedCrowd::new(mixes::mixed(50, seed), seed);
        let out = run_assignment(&crowd, &data.tasks, policy, 600, 15).unwrap();
        let inference = algo.infer(&out.matrix).unwrap();
        let mut correct = 0;
        let mut total = 0;
        for (task, &truth) in data.tasks.iter().zip(&data.truths) {
            if let Some(t) = out.matrix.task_index(task.id) {
                total += 1;
                if inference.labels[t] == truth {
                    correct += 1;
                }
            }
        }
        // Unlabelled tasks count as wrong: policies must cover the set.
        correct as f64 / (total.max(data.tasks.len())) as f64
    };

    let runs = 5;
    let random: f64 = (0..runs)
        .map(|s| acc(&mut RandomAssign::new(s), s))
        .sum::<f64>()
        / runs as f64;
    let entropy: f64 = (0..runs).map(|s| acc(&mut EntropyGreedy, s)).sum::<f64>() / runs as f64;
    let gain: f64 = (0..runs)
        .map(|s| acc(&mut ExpectedAccuracyGain::default(), s))
        .sum::<f64>()
        / runs as f64;

    assert!(
        entropy >= random - 0.02,
        "entropy ({entropy:.3}) should not trail random ({random:.3})"
    );
    assert!(
        gain >= random - 0.02,
        "expected-gain ({gain:.3}) should not trail random ({random:.3})"
    );
}

#[test]
fn platform_budget_bounds_total_spend() {
    use crowdkit::core::budget::Budget;
    use crowdkit::sim::PlatformBuilder;

    let data = LabelingDataset::binary(100, 4);
    let pop = mixes::reliable(30, 4);
    let crowd = PlatformBuilder::new(pop).budget(Budget::new(50.0)).build();
    let outcome = label_tasks(&crowd, &data.tasks, 5, &MajorityVote).unwrap();
    assert_eq!(
        outcome.answers_bought, 50,
        "spend equals the budget exactly"
    );
}
