//! Crowd sort and top-k: how ranking quality grows with the comparison
//! budget, and how a tournament finds the max for a fraction of the cost.
//!
//! ```sh
//! cargo run --example top_k_ranking
//! ```

use crowdkit::core::metrics::kendall_tau;
use crowdkit::ops::sort::rankers::{borda, bradley_terry, copeland, elo};
use crowdkit::ops::sort::tournament::crowd_max;
use crowdkit::ops::sort::{collect_comparisons, order_by_scores, sample_pairs};
use crowdkit::sim::dataset::RankingDataset;
use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;

fn main() {
    let seed = 3;
    let n = 40;
    let data = RankingDataset::generate(n, seed);
    let full_space = n * (n - 1) / 2;
    println!("{n} items with a latent total order; full pair space = {full_space}\n");

    // True positions → "ranking score" per item (higher = better) so
    // Kendall tau compares against the latent order.
    let true_pos = data.true_positions();
    let truth_scores: Vec<f64> = true_pos.iter().map(|&p| -(p as f64)).collect();

    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9}",
        "budget", "borda", "copeland", "elo", "btl"
    );
    for budget in [50, 150, 400, full_space] {
        let pairs = sample_pairs(n, budget, seed);
        let pop = PopulationBuilder::new().reliable(40, 0.8, 0.95).build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let graph = collect_comparisons(&crowd, n, &pairs, 3, |id, a, b| {
            data.comparison_task(id, a, b)
        })
        .expect("collection succeeds");

        let tau = |scores: Vec<f64>| kendall_tau(&scores, &truth_scores);
        println!(
            "{:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            budget,
            tau(borda(&graph)),
            tau(copeland(&graph)),
            tau(elo(&graph, 32.0, 3)),
            tau(bradley_terry(&graph, 200, 1e-9)),
        );
    }

    // Max via tournament: n−1 matches instead of a full graph.
    let pop = PopulationBuilder::new()
        .reliable(40, 0.85, 0.97)
        .build(seed);
    let crowd = SimulatedCrowd::new(pop, seed);
    let out = crowd_max(&crowd, n, 3, |id, a, b| data.comparison_task(id, a, b))
        .expect("tournament succeeds");
    println!(
        "\ntournament max: item {} (true max {}) in {} matches / {} questions",
        out.winners[0],
        data.true_max(),
        out.matches,
        out.questions_asked
    );

    // Full-sort tau rises with budget; the tournament finds the extreme
    // with ~n matches — the tutorial's "don't sort when you need max".
    let order = order_by_scores(&truth_scores);
    println!("true best-first order starts with: {:?}", &order[..5]);
}
