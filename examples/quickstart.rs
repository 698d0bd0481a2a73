//! Quickstart: label 500 binary tasks with a noisy simulated crowd and
//! compare majority vote against the EM family.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use crowdkit::core::metrics::accuracy;
use crowdkit::core::traits::TruthInferencer;
use crowdkit::sim::dataset::LabelingDataset;
use crowdkit::sim::population::mixes;
use crowdkit::sim::SimulatedCrowd;
use crowdkit::truth::{pipeline::label_tasks, DawidSkene, Glad, Kos, MajorityVote, OneCoinEm};

fn main() {
    let seed = 42;
    let n_tasks = 500;
    let redundancy = 5;

    // A spam-heavy crowd: 40 % reliable, 40 % spammers, 20 % adversarial —
    // the regime where modelling workers pays off.
    let data = LabelingDataset::binary(n_tasks, seed);
    println!("labeling {n_tasks} binary tasks, {redundancy} votes each, spam-heavy crowd\n");
    println!(
        "{:<10} {:>9} {:>10} {:>11}",
        "algorithm", "accuracy", "questions", "iterations"
    );

    let algorithms: Vec<Box<dyn TruthInferencer>> = vec![
        Box::new(MajorityVote),
        Box::new(OneCoinEm::default()),
        Box::new(DawidSkene::default()),
        Box::new(Glad::default()),
        Box::new(Kos::default()),
    ];

    for algo in &algorithms {
        // Fresh platform per run so every algorithm sees identical answers.
        let crowd = SimulatedCrowd::new(mixes::spam_heavy(60, seed), seed);
        let outcome = label_tasks(&crowd, &data.tasks, redundancy, algo.as_ref())
            .expect("collection succeeds");
        let predicted: Vec<u32> = data
            .tasks
            .iter()
            .map(|t| outcome.label_for(t).expect("every task labelled"))
            .collect();
        println!(
            "{:<10} {:>8.1}% {:>10} {:>11}",
            algo.name(),
            100.0 * accuracy(&predicted, &data.truths),
            outcome.answers_bought,
            outcome.inference.iterations,
        );
    }

    println!("\nEM-family algorithms model worker quality and shake off the spammers;");
    println!("majority vote counts every spammer vote at face value.");
}
