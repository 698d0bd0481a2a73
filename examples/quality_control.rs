//! Quality control without a worker model: qualification tests and gold
//! questions on a heavily spammed crowd.
//!
//! ```sh
//! cargo run --example quality_control
//! ```

use crowdkit::core::metrics::accuracy;
use crowdkit::sim::dataset::LabelingDataset;
use crowdkit::sim::population::mixes;
use crowdkit::sim::{PlatformBuilder, Qualification, SimulatedCrowd};
use crowdkit::truth::gold::{inject_gold_stride, GoldWeightedVote};
use crowdkit::truth::{pipeline::label_tasks, MajorityVote};

fn main() {
    let seed = 17;
    let n_tasks = 400;
    let k = 5;
    let data = LabelingDataset::binary(n_tasks, seed);

    println!(
        "{n_tasks} binary tasks, {k} votes each, spam-heavy crowd (40% spam, 20% adversarial)\n"
    );

    // Baseline: majority vote on the raw crowd.
    let crowd = SimulatedCrowd::new(mixes::spam_heavy(80, seed), seed);
    let out = label_tasks(&crowd, &data.tasks, k, &MajorityVote).unwrap();
    let score = |out: &crowdkit::truth::pipeline::PipelineOutcome| -> f64 {
        let predicted: Vec<u32> = data
            .tasks
            .iter()
            .map(|t| out.label_for(t).unwrap_or(0))
            .collect();
        accuracy(&predicted, &data.truths)
    };
    println!(
        "raw crowd, majority vote          : {:>5.1}%  ({} answers)",
        100.0 * score(&out),
        out.answers_bought
    );

    // Defence 1: qualification test before workers may take tasks.
    let screened = PlatformBuilder::new(mixes::spam_heavy(80, seed))
        .qualification(Qualification {
            questions: 8,
            pass_fraction: 0.75,
            difficulty: 0.2,
        })
        .seed(seed)
        .build();
    let pool_after = screened.population().len();
    // Screening is the only spend so far, one unit per question.
    let screening_cost = screened.budget().spent();
    let out = label_tasks(&screened, &data.tasks, k, &MajorityVote).unwrap();
    println!(
        "qualification gate + majority vote: {:>5.1}%  ({} answers + {} screening questions, pool 80 → {pool_after})",
        100.0 * score(&out),
        out.answers_bought,
        screening_cost
    );

    // Defence 2: gold questions scored after the fact (no screening cost,
    // but 10% of the tasks are questions we already knew the answer to).
    let ids: Vec<_> = data.tasks.iter().map(|t| t.id).collect();
    let gold = inject_gold_stride(&ids, &data.truths, 10);
    let crowd = SimulatedCrowd::new(mixes::spam_heavy(80, seed), seed);
    let out = label_tasks(&crowd, &data.tasks, k, &GoldWeightedVote::new(gold)).unwrap();
    println!(
        "10% gold + weighted vote          : {:>5.1}%  ({} answers, 40 of them on known-answer tasks)",
        100.0 * score(&out),
        out.answers_bought
    );

    println!("\nboth defences spend a little to learn who to trust — and on spammed");
    println!("crowds that beats counting every vote equally. run `experiments e13`");
    println!("for the full sweep.");
}
