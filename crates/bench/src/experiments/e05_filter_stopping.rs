// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E5 — Crowd filter cost/accuracy under adaptive stopping.
//!
//! Emulates the CrowdScreen-style cost/accuracy figures: per-item cost and
//! decision accuracy of fixed-redundancy vs margin vs SPRT stopping, as
//! item selectivity varies. Expected shape: adaptive rules spend clearly
//! less than fixed-k at equal (or better) accuracy, with the saving
//! largest when answers are lopsided.

use crowdkit_core::metrics::accuracy;
use crowdkit_core::traits::StoppingRule;
use crowdkit_obs as obs;
use crowdkit_ops::filter::crowd_filter;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::sequential::{FixedK, MajorityMargin, Sprt};

use crate::table::{f3, pct, Table};

const N: usize = 300;
const MAX_ANSWERS: u32 = 9;
const SEEDS: [u64; 3] = [51, 52, 53];

fn run_rule(rule: &dyn StoppingRule, selectivity: f64) -> (f64, f64) {
    let mut cost = 0.0;
    let mut acc = 0.0;
    for &seed in &SEEDS {
        let data = LabelingDataset::generate(N, 2, 1.0 - selectivity, (0.3, 0.6), seed);
        let crowd = SimulatedCrowd::new(mixes::mixed(80, seed), seed);
        let out = crowd_filter(&crowd, &data.tasks, rule, MAX_ANSWERS).expect("filter succeeds");
        let predicted: Vec<u32> = out
            .decisions
            .iter()
            .map(|d| d.map(|d| d.keep as u32).unwrap_or(0))
            .collect();
        acc += accuracy(&predicted, &data.truths);
        cost += out.questions_asked as f64 / N as f64;
    }
    (cost / SEEDS.len() as f64, acc / SEEDS.len() as f64)
}

/// Runs E5.
pub fn run() -> Vec<Table> {
    let rules: Vec<(&str, Box<dyn StoppingRule>)> = vec![
        ("fixed k=5", Box::new(FixedK { k: 5 })),
        ("fixed k=9", Box::new(FixedK { k: 9 })),
        ("margin 2", Box::new(MajorityMargin { margin: 2 })),
        ("margin 3", Box::new(MajorityMargin { margin: 3 })),
        ("sprt (p=.75)", Box::new(Sprt::default())),
    ];
    let mut tables = Vec::new();
    for selectivity in [0.1, 0.3, 0.5] {
        let mut t = Table::new(
            format!(
                "E5: filter stopping rules at selectivity {selectivity} ({N} items, cap {MAX_ANSWERS}, mean of {} seeds)",
                SEEDS.len()
            ),
            &["rule", "answers/item", "accuracy"],
        );
        for (name, rule) in &rules {
            let (cost, acc) = run_rule(rule.as_ref(), selectivity);
            obs::quality("filter_accuracy", acc);
            t.row(vec![name.to_string(), f3(cost), pct(acc)]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_shape_adaptive_cheaper_than_fixed_at_similar_accuracy() {
        let (fixed_cost, fixed_acc) = run_rule(&FixedK { k: 9 }, 0.3);
        let (margin_cost, margin_acc) = run_rule(&MajorityMargin { margin: 3 }, 0.3);
        assert!(
            margin_cost < fixed_cost * 0.8,
            "margin ({margin_cost:.2}) should cost well below fixed-9 ({fixed_cost:.2})"
        );
        assert!(
            margin_acc > fixed_acc - 0.05,
            "accuracy holds: margin {margin_acc:.3} vs fixed {fixed_acc:.3}"
        );
    }
}
