//! Crowd entity resolution end-to-end: blocking → crowd verification →
//! transitivity deduction, with the cost ladder printed at each rung.
//!
//! ```sh
//! cargo run --example entity_resolution
//! ```

use crowdkit::core::answer::AnswerValue;
use crowdkit::core::metrics::pairwise_cluster_f1;
use crowdkit::core::task::Task;
use crowdkit::ops::join::{all_pairs_count, candidate_pairs, crowd_join, AskOrder, JoinConfig};
use crowdkit::sim::dataset::EntityDataset;
use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;

fn main() {
    let seed = 11;
    // 120 entities, up to 4 dirty duplicates each, typo noise.
    let data = EntityDataset::generate(120, 4, 2, seed);
    let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();
    let n = data.records.len();
    println!("{n} records over {} latent entities", data.num_entities);
    println!("full pair space: {} pairs\n", all_pairs_count(n));

    // Rung 1: similarity blocking.
    let candidates = candidate_pairs(&texts, 0.4);
    println!(
        "after blocking (jaccard ≥ 0.4): {} candidate pairs ({:.1}% of the space)",
        candidates.len(),
        100.0 * candidates.len() as f64 / all_pairs_count(n) as f64
    );

    // Rung 2 & 3: crowd verification, with and without transitivity.
    let truth_clusters = data.truth_clusters();
    for (label, use_transitivity) in [("verification only", false), ("with transitivity", true)] {
        let pop = PopulationBuilder::new()
            .reliable(50, 0.85, 0.97)
            .build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let outcome = crowd_join(
            &crowd,
            n,
            &candidates,
            |id, a, b| {
                Task::binary(
                    id,
                    format!("same product? '{}' vs '{}'", texts[a], texts[b]),
                )
                .with_truth(AnswerValue::Choice(data.same_entity(a, b) as u32))
            },
            &JoinConfig {
                votes_per_pair: 3,
                use_transitivity,
                order: AskOrder::SimilarityDesc,
            },
        )
        .expect("join succeeds");

        let pr = pairwise_cluster_f1(&outcome.clusters, &truth_clusters);
        println!(
            "\n{label}:\n  pairs asked      : {}\n  deduced same     : {}\n  deduced different: {}\n  crowd questions  : {}\n  cluster F1       : {:.3}",
            outcome.pairs_asked,
            outcome.deduced_same,
            outcome.deduced_different,
            outcome.questions_asked,
            pr.f1()
        );
    }

    println!("\ntransitivity answers pairs the crowd never sees — same F1, fewer questions.");
}
