// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E15 — Selective output: the coverage/accuracy trade-off of posterior
//! thresholding.
//!
//! Quality control does not end at inference: a system can return only the
//! tasks whose posterior clears a confidence threshold τ and route the
//! rest to more answers or to experts. Expected shape: accuracy on the
//! returned subset rises with τ while coverage falls. The two posterior
//! styles trade differently: majority-vote "posteriors" are coarse vote
//! fractions, so high τ keeps only unanimous tasks — a tiny but very pure
//! subset — while Dawid–Skene's model posteriors retain far more coverage
//! at a given τ at the price of EM's well-known overconfidence.

use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};

use crate::table::{pct, Table};

const N_TASKS: usize = 400;
const K: usize = 5;
const SEEDS: [u64; 3] = [151, 152, 153];

/// (coverage, accuracy-on-selected) for one algorithm at threshold tau.
fn tradeoff(algo: &dyn TruthInferencer, tau: f64) -> (f64, f64) {
    let mut coverage = 0.0;
    let mut accuracy = 0.0;
    for &seed in &SEEDS {
        let data = LabelingDataset::binary(N_TASKS, seed);
        let crowd = SimulatedCrowd::new(mixes::mixed(60, seed), seed);
        let out = label_tasks(&crowd, &data.tasks, K, algo).expect("collection succeeds");
        let selected = out.inference.select_confident(tau);
        coverage += out.inference.coverage(tau);
        if selected.is_empty() {
            accuracy += 1.0; // vacuous: nothing returned, nothing wrong
            continue;
        }
        let mut correct = 0usize;
        for &t in &selected {
            let task_id = out.matrix.task_id(t);
            let idx = data.tasks.iter().position(|x| x.id == task_id).unwrap();
            if out.inference.labels[t] == data.truths[idx] {
                correct += 1;
            }
        }
        accuracy += correct as f64 / selected.len() as f64;
    }
    (coverage / SEEDS.len() as f64, accuracy / SEEDS.len() as f64)
}

/// Runs E15.
pub fn run() -> Vec<Table> {
    let taus = [0.5, 0.7, 0.9, 0.99];
    let mut t = Table::new(
        format!(
            "E15: selective output — coverage vs accuracy on the returned subset ({N_TASKS} tasks, k={K}, mixed crowd, mean of {} seeds)",
            SEEDS.len()
        ),
        &[
            "τ",
            "mv coverage",
            "mv accuracy",
            "ds coverage",
            "ds accuracy",
        ],
    );
    for &tau in &taus {
        let (mv_cov, mv_acc) = tradeoff(&MajorityVote, tau);
        let (ds_cov, ds_acc) = tradeoff(&DawidSkene::default(), tau);
        obs::quality("coverage", mv_cov);
        obs::quality("coverage", ds_cov);
        obs::quality("selected_accuracy", mv_acc);
        obs::quality("selected_accuracy", ds_acc);
        t.row(vec![
            format!("{tau}"),
            pct(mv_cov),
            pct(mv_acc),
            pct(ds_cov),
            pct(ds_acc),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_shape_higher_threshold_trades_coverage_for_accuracy() {
        let ds = DawidSkene::default();
        let (cov_low, acc_low) = tradeoff(&ds, 0.5);
        let (cov_high, acc_high) = tradeoff(&ds, 0.99);
        assert!(
            cov_high < cov_low,
            "coverage falls: {cov_low:.3} → {cov_high:.3}"
        );
        assert!(
            acc_high > acc_low,
            "accuracy on the kept subset rises: {acc_low:.3} → {acc_high:.3}"
        );
        // EM posteriors are known to be somewhat overconfident, so the
        // τ=0.99 subset is not perfect — but it must be clearly better
        // than the unfiltered output.
        assert!(
            acc_high > 0.85,
            "high-confidence subset is high quality: {acc_high:.3}"
        );
    }

    #[test]
    fn e15_shape_tau_half_returns_everything() {
        // With binary labels the argmax always has posterior ≥ 0.5.
        let (cov, _) = tradeoff(&MajorityVote, 0.5);
        assert!((cov - 1.0).abs() < 1e-9);
    }
}
