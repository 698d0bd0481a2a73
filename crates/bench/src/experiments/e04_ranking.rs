// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E4 — Ranking quality vs comparison budget.
//!
//! Emulates the crowdsourced-sort evaluation figures (Qurk's sort '12 and
//! the pairwise-ranking line): Kendall tau of each rank-aggregation method
//! as the number of purchased comparisons grows, plus the tournament-max
//! success rate. Expected shape: tau rises monotonically with budget for
//! every method; with repeated votes Bradley–Terry/Copeland lead Borda at
//! moderate budgets; tournament max succeeds with ~n matches.

use crowdkit_core::metrics::kendall_tau;
use crowdkit_obs as obs;
use crowdkit_ops::sort::active::{active_comparisons, ActiveConfig};
use crowdkit_ops::sort::rankers::{borda, bradley_terry, copeland, elo};
use crowdkit_ops::sort::tournament::crowd_max;
use crowdkit_ops::sort::{collect_comparisons, sample_pairs};
use crowdkit_sim::dataset::RankingDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;

use crate::table::{f3, Table};

const N: usize = 40;
const SEEDS: [u64; 3] = [41, 42, 43];
/// E4c compares two sampling strategies at sparse budgets, where
/// seed-to-seed variance is largest; it averages over more seeds.
const ACTIVE_SEEDS: [u64; 6] = [41, 42, 43, 44, 45, 46];

fn taus_for_budget(budget: usize) -> [f64; 4] {
    let mut sums = [0.0f64; 4];
    for &seed in &SEEDS {
        let data = RankingDataset::generate(N, seed);
        let truth: Vec<f64> = data.true_positions().iter().map(|&p| -(p as f64)).collect();
        let pairs = sample_pairs(N, budget, seed);
        let pop = PopulationBuilder::new().reliable(60, 0.8, 0.95).build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let graph = collect_comparisons(&crowd, N, &pairs, 3, |id, a, b| {
            data.comparison_task(id, a, b)
        })
        .expect("collection succeeds");
        let scores = [
            borda(&graph),
            copeland(&graph),
            elo(&graph, 32.0, 3),
            bradley_terry(&graph, 200, 1e-9),
        ];
        for (i, s) in scores.iter().enumerate() {
            sums[i] += kendall_tau(s, &truth);
        }
    }
    sums.map(|s| s / SEEDS.len() as f64)
}

/// Runs E4.
pub fn run() -> Vec<Table> {
    let full = N * (N - 1) / 2;
    let budgets = [50usize, 150, 400, full];
    let mut t = Table::new(
        format!(
            "E4: Kendall tau vs comparison budget ({N} items, 3 votes/pair, mean of {} seeds)",
            SEEDS.len()
        ),
        &["budget", "borda", "copeland", "elo", "btl"],
    );
    for &b in &budgets {
        let taus = taus_for_budget(b);
        for tau in taus {
            obs::quality("kendall_tau", tau);
        }
        t.row(vec![
            b.to_string(),
            f3(taus[0]),
            f3(taus[1]),
            f3(taus[2]),
            f3(taus[3]),
        ]);
    }

    // Tournament max success rate.
    let mut t2 = Table::new(
        "E4b: tournament max vs full sort (cost to identify the best item)",
        &["method", "questions", "success rate"],
    );
    let mut successes = 0;
    let mut questions = 0;
    let runs = 10;
    for seed in 0..runs {
        let data = RankingDataset::generate(N, seed);
        let pop = PopulationBuilder::new()
            .reliable(60, 0.85, 0.97)
            .build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let out = crowd_max(&crowd, N, 3, |id, a, b| data.comparison_task(id, a, b))
            .expect("tournament succeeds");
        if out.winners[0] == data.true_max() {
            successes += 1;
        }
        questions += out.questions_asked;
    }
    obs::quality("max_success_rate", successes as f64 / runs as f64);
    t2.row(vec![
        "tournament max".into(),
        (questions / runs as usize).to_string(),
        format!("{successes}/{runs}"),
    ]);
    t2.row(vec![
        "full pairwise sort".into(),
        (full * 3).to_string(),
        "—".into(),
    ]);

    // Active (uncertainty-driven) vs uniform pair selection at equal
    // comparison budgets.
    let mut t3 = Table::new(
        format!("E4c: active vs uniform pair selection ({N} items, tau via Bradley–Terry, mean of {} seeds)", ACTIVE_SEEDS.len()),
        &["comparisons", "uniform", "active"],
    );
    for &budget in &[120usize, 240, 480] {
        let (mut uni, mut act) = (0.0, 0.0);
        for &seed in &ACTIVE_SEEDS {
            let data = RankingDataset::generate(N, seed);
            let truth: Vec<f64> = data.true_positions().iter().map(|&p| -(p as f64)).collect();
            // Uniform: distinct random pairs, 2 votes each.
            let pop = PopulationBuilder::new().reliable(80, 0.8, 0.95).build(seed);
            let crowd = SimulatedCrowd::new(pop, seed);
            let pairs = sample_pairs(N, budget / 2, seed);
            let g = collect_comparisons(&crowd, N, &pairs, 2, |id, a, b| {
                data.comparison_task(id, a, b)
            })
            .expect("collection succeeds");
            uni += kendall_tau(&bradley_terry(&g, 200, 1e-9), &truth);
            // Active: gap-driven selections, 2 votes each.
            let pop = PopulationBuilder::new().reliable(80, 0.8, 0.95).build(seed);
            let crowd = SimulatedCrowd::new(pop, seed);
            let g = active_comparisons(
                &crowd,
                N,
                budget / 2,
                ActiveConfig {
                    votes: 2,
                    round_size: 20,
                },
                |id, a, b| data.comparison_task(id, a, b),
            )
            .expect("collection succeeds");
            act += kendall_tau(&bradley_terry(&g, 200, 1e-9), &truth);
        }
        let n = ACTIVE_SEEDS.len() as f64;
        t3.row(vec![budget.to_string(), f3(uni / n), f3(act / n)]);
    }
    vec![t, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_shape_active_sampling_competitive_with_uniform() {
        let tables = run();
        let t3 = &tables[2];
        for row in &t3.rows {
            let uniform: f64 = row[1].parse().unwrap();
            let active: f64 = row[2].parse().unwrap();
            assert!(
                active >= uniform - 0.05,
                "active ({active}) should not trail uniform ({uniform}) at budget {}",
                row[0]
            );
        }
    }

    #[test]
    fn e4_shape_tau_monotone_in_budget() {
        let low = taus_for_budget(60);
        let high = taus_for_budget(N * (N - 1) / 2);
        for i in 0..4 {
            assert!(
                high[i] > low[i],
                "ranker {i}: tau at full budget ({:.3}) must beat tau at 60 ({:.3})",
                high[i],
                low[i]
            );
        }
        assert!(high.iter().all(|&t| t > 0.7), "full budget taus {high:?}");
    }
}
