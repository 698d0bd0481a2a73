// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E3 — Crowd join cost ladder: all-pairs vs blocking vs transitivity.
//!
//! Emulates the CrowdER ('12) and transitivity ('13/'14) cost tables:
//! crowd pairs asked and resulting cluster F1 for each rung of the cost
//! ladder. Expected shape: blocking removes the overwhelming majority of
//! pairs at a small recall cost; transitivity removes a further large
//! fraction at essentially no F1 cost.

use crowdkit_core::answer::AnswerValue;
use crowdkit_core::metrics::pairwise_cluster_f1;
use crowdkit_core::task::Task;
use crowdkit_obs as obs;
use crowdkit_ops::join::{
    all_pairs_count, candidate_pairs, crowd_join, AskOrder, CandidatePair, JoinConfig,
};
use crowdkit_sim::dataset::EntityDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;

use crate::table::{f3, Table};

const ENTITIES: usize = 80;
const SEED: u64 = 31;

fn join_with(
    data: &EntityDataset,
    candidates: &[CandidatePair],
    use_transitivity: bool,
) -> (usize, usize, f64) {
    let pop = PopulationBuilder::new().reliable(60, 0.9, 0.99).build(SEED);
    let crowd = SimulatedCrowd::new(pop, SEED);
    let out = crowd_join(
        &crowd,
        data.records.len(),
        candidates,
        |id, a, b| {
            Task::binary(id, format!("{a} vs {b}"))
                .with_truth(AnswerValue::Choice(data.same_entity(a, b) as u32))
        },
        &JoinConfig {
            votes_per_pair: 3,
            use_transitivity,
            order: AskOrder::SimilarityDesc,
        },
    )
    .expect("join succeeds");
    let f1 = pairwise_cluster_f1(&out.clusters, &data.truth_clusters()).f1();
    obs::quality("cluster_f1", f1);
    (out.pairs_asked, out.questions_asked, f1)
}

/// Runs E3.
pub fn run() -> Vec<Table> {
    let data = EntityDataset::generate(ENTITIES, 4, 2, SEED);
    let n = data.records.len();
    let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();

    // All pairs (at similarity 0 every co-token pair qualifies; truly all
    // pairs would include token-disjoint ones — enumerate them directly).
    let mut everything = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            everything.push(CandidatePair {
                a,
                b,
                similarity: if data.same_entity(a, b) { 0.9 } else { 0.1 },
            });
        }
    }
    let blocked = candidate_pairs(&texts, 0.4);

    let mut t = Table::new(
        format!("E3: crowd join cost ladder ({n} records, {ENTITIES} entities, 3 votes/pair)"),
        &[
            "strategy",
            "candidate pairs",
            "pairs asked",
            "questions",
            "cluster F1",
        ],
    );
    let (asked, q, f1) = join_with(&data, &everything, false);
    t.row(vec![
        "all pairs".into(),
        all_pairs_count(n).to_string(),
        asked.to_string(),
        q.to_string(),
        f3(f1),
    ]);
    let (asked, q, f1) = join_with(&data, &blocked, false);
    t.row(vec![
        "blocking".into(),
        blocked.len().to_string(),
        asked.to_string(),
        q.to_string(),
        f3(f1),
    ]);
    let (asked, q, f1) = join_with(&data, &blocked, true);
    t.row(vec![
        "blocking + transitivity".into(),
        blocked.len().to_string(),
        asked.to_string(),
        q.to_string(),
        f3(f1),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_shape_each_rung_cuts_cost() {
        let data = EntityDataset::generate(30, 3, 1, 5);
        let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();
        let n = texts.len();
        let blocked = candidate_pairs(&texts, 0.3);
        assert!(
            blocked.len() * 4 < all_pairs_count(n),
            "blocking keeps a small fraction: {} of {}",
            blocked.len(),
            all_pairs_count(n)
        );
        let (asked_plain, _, f1_plain) = join_with(&data, &blocked, false);
        let (asked_trans, _, f1_trans) = join_with(&data, &blocked, true);
        assert!(asked_trans <= asked_plain);
        assert!(
            (f1_plain - f1_trans).abs() < 0.1,
            "transitivity should not materially change F1: {f1_plain:.3} vs {f1_trans:.3}"
        );
    }
}
