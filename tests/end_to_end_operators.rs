//! Integration: crowd operators running against the simulated platform.

use crowdkit::core::answer::AnswerValue;
use crowdkit::core::ids::TaskId;
use crowdkit::core::metrics::pairwise_cluster_f1;
use crowdkit::core::task::{Task, TaskKind};
use crowdkit::ops::agg::estimate_count;
use crowdkit::ops::collect::{chao92, crowd_collect};
use crowdkit::ops::filter::crowd_filter;
use crowdkit::ops::join::{candidate_pairs, crowd_join, JoinConfig};
use crowdkit::ops::sort::tournament::crowd_top_k;
use crowdkit::sim::dataset::{
    CollectionPool, CountingDataset, EntityDataset, LabelingDataset, RankingDataset,
};
use crowdkit::sim::population::{mixes, PopulationBuilder};
use crowdkit::sim::SimulatedCrowd;
use crowdkit::truth::sequential::{MajorityMargin, Sprt};

#[test]
fn filter_with_margin_rule_is_cheaper_than_fixed_k_at_similar_accuracy() {
    let data = LabelingDataset::binary(200, 9);
    let run = |rule: &dyn crowdkit::core::traits::StoppingRule| {
        let crowd = SimulatedCrowd::new(mixes::reliable(60, 9), 9);
        let out = crowd_filter(&crowd, &data.tasks, rule, 7).unwrap();
        let correct = out
            .decisions
            .iter()
            .zip(&data.truths)
            .filter(|(d, &t)| matches!(d, Some(d) if d.keep == (t == 1)))
            .count();
        (
            out.questions_asked,
            correct as f64 / data.tasks.len() as f64,
        )
    };
    let (fixed_cost, fixed_acc) = run(&crowdkit::truth::sequential::FixedK { k: 7 });
    let (margin_cost, margin_acc) = run(&MajorityMargin { margin: 2 });
    let (sprt_cost, sprt_acc) = run(&Sprt::default());

    assert!(
        margin_cost < fixed_cost,
        "margin {margin_cost} < fixed {fixed_cost}"
    );
    assert!(
        sprt_cost < fixed_cost,
        "sprt {sprt_cost} < fixed {fixed_cost}"
    );
    assert!(
        margin_acc > fixed_acc - 0.05,
        "margin acc {margin_acc} vs {fixed_acc}"
    );
    assert!(
        sprt_acc > fixed_acc - 0.05,
        "sprt acc {sprt_acc} vs {fixed_acc}"
    );
}

#[test]
fn entity_resolution_pipeline_reaches_high_f1_with_reliable_crowd() {
    let data = EntityDataset::generate(60, 3, 1, 13);
    let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();
    let cands = candidate_pairs(&texts, 0.3);
    let pop = PopulationBuilder::new().reliable(40, 0.92, 0.99).build(13);
    let crowd = SimulatedCrowd::new(pop, 13);
    let out = crowd_join(
        &crowd,
        texts.len(),
        &cands,
        |id, a, b| {
            Task::binary(id, format!("{a} vs {b}"))
                .with_truth(AnswerValue::Choice(data.same_entity(a, b) as u32))
        },
        &JoinConfig::default(),
    )
    .unwrap();
    let pr = pairwise_cluster_f1(&out.clusters, &data.truth_clusters());
    assert!(pr.precision() > 0.9, "precision {}", pr.precision());
    assert!(
        out.deduced_same + out.deduced_different > 0,
        "transitivity fires on duplicate-heavy data"
    );
}

#[test]
fn top_k_recovers_the_true_top_items() {
    let data = RankingDataset::generate(32, 21);
    let pop = PopulationBuilder::new().reliable(60, 0.93, 0.99).build(21);
    let crowd = SimulatedCrowd::new(pop, 21);
    let out = crowd_top_k(&crowd, 32, 3, 3, |id, a, b| data.comparison_task(id, a, b)).unwrap();
    let positions = data.true_positions();
    // The returned champions should all be genuinely near the top.
    for &w in &out.winners {
        assert!(
            positions[w] < 6,
            "winner {w} has true position {} — not near the top",
            positions[w]
        );
    }
    assert_eq!(out.winners.len(), 3);
}

#[test]
fn count_estimation_ci_covers_truth_most_of_the_time() {
    let data = CountingDataset::generate(3000, 0.25, 17);
    let truth = data.true_count() as f64;
    let mut covered = 0;
    let runs = 10;
    for seed in 0..runs {
        let pop = PopulationBuilder::new()
            .reliable(400, 0.95, 1.0)
            .build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let est = estimate_count(&crowd, &data.tasks, 300, 3, 1.96, seed).unwrap();
        if est.ci_low <= truth && truth <= est.ci_high {
            covered += 1;
        }
        assert!((est.estimate - truth).abs() / truth < 0.35);
    }
    assert!(
        covered >= 7,
        "95% CI covered truth only {covered}/{runs} times"
    );
}

#[test]
fn collection_curve_approaches_true_richness() {
    let pool = CollectionPool::generate(40, 0);
    let task = pool.task(TaskId::new(0));
    let pop = PopulationBuilder::new().reliable(500, 0.8, 0.95).build(23);
    let crowd = SimulatedCrowd::new(pop, 23);
    let out = crowd_collect(&crowd, &task, 0.995, 400).unwrap();
    let distinct = out.counts.distinct();
    assert!(
        distinct > 25,
        "after {} answers only {distinct}/40 species observed",
        out.questions_asked
    );
    let est = chao92(&out.counts);
    assert!(
        est >= distinct as f64 && est < 90.0,
        "chao92 {est} should sit between observed ({distinct}) and a sane cap"
    );
}

#[test]
fn collection_task_kind_matches_enumeration() {
    let pool = CollectionPool::generate(5, 0);
    let task = pool.task(TaskId::new(0));
    assert!(matches!(task.kind, TaskKind::Collection));
}
