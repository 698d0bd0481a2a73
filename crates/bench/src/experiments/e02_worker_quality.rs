// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E2 — Worker-quality estimation error vs answers per worker.
//!
//! Emulates the worker-model evaluation figures of the EM papers: how
//! accurately each algorithm recovers the true per-worker accuracy as
//! workers answer more tasks. Expected shape: estimation MAE falls
//! monotonically with the task count; the confusion-matrix model needs
//! more data than the one-coin model at small counts.

use crowdkit_core::metrics::mae;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, OneCoinEm};

use crate::table::{f3, Table};

const POP: usize = 20;
const K: usize = 4;
const SEEDS: [u64; 3] = [11, 12, 13];

/// MAE between estimated and true worker qualities, given a task count.
fn estimation_error<I: TruthInferencer + ?Sized>(n_tasks: usize, seed: u64, algo: &I) -> f64 {
    let data = LabelingDataset::binary(n_tasks, seed);
    // A spread of one-coin workers so there is real signal to recover.
    let pop = PopulationBuilder::new()
        .reliable(POP, 0.55, 0.98)
        .build(seed);
    let truth_q = pop.true_qualities();
    let crowd = SimulatedCrowd::new(pop, seed);
    let out = label_tasks(&crowd, &data.tasks, K, algo).expect("collection succeeds");
    let est = out
        .inference
        .worker_quality
        .expect("EM algorithms estimate worker quality");
    // Align dense worker indices back to population order. The simulated
    // population hands out dense worker ids from zero, so the raw id IS
    // the population index — `dense_index` checks that assumption instead
    // of silently aliasing if a sparse-id platform ever feeds this path.
    let mut est_aligned = Vec::new();
    let mut true_aligned = Vec::new();
    for (w, &e) in est.iter().enumerate().take(out.matrix.num_workers()) {
        let wid = out.matrix.worker_id(w);
        est_aligned.push(e);
        true_aligned.push(truth_q[wid.dense_index(truth_q.len())]);
    }
    mae(&est_aligned, &true_aligned)
}

/// Runs E2.
pub fn run() -> Vec<Table> {
    let task_counts = [25usize, 50, 100, 200, 400];
    let mut t = Table::new(
        format!("E2: worker-quality estimation MAE vs task count ({POP} workers, k={K}, mean of {} seeds)", SEEDS.len()),
        &["algorithm", "25", "50", "100", "200", "400"],
    );
    let one_coin = OneCoinEm::default();
    let ds = DawidSkene::default();
    for (name, algo) in [
        ("zc", &one_coin as &dyn TruthInferencer),
        ("ds", &ds as &dyn TruthInferencer),
    ] {
        let mut cells = vec![name.to_owned()];
        for &n in &task_counts {
            let avg: f64 = SEEDS
                .iter()
                .map(|&s| estimation_error(n, s, algo))
                .sum::<f64>()
                / SEEDS.len() as f64;
            obs::quality("worker_mae", avg);
            cells.push(f3(avg));
        }
        t.row(cells);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_shape_error_falls_with_more_tasks() {
        let err_small = estimation_error(25, 11, &OneCoinEm::default());
        let err_large = estimation_error(400, 11, &OneCoinEm::default());
        assert!(
            err_large < err_small,
            "more answers per worker must reduce estimation error: {err_small:.3} → {err_large:.3}"
        );
        assert!(
            err_large < 0.08,
            "asymptotic error should be small: {err_large:.3}"
        );
    }
}
