//! Dawid–Skene against an independent implementation: the seed kernel,
//! kept verbatim below, with nested `Vec<Vec<f64>>` state and the E-step
//! in log space. The flat kernel compiles its steps for `k = 2` apart from
//! every other label count, so its labels must equal the seed kernel's on
//! E2's shape (1,000 binary tasks × 9 votes) and on a three-label matrix.

use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};

/// Frozen copy of the seed Dawid–Skene kernel: nested `Vec<Vec<f64>>`
/// state, per-iteration allocations, and `ln` calls in the E-step inner
/// loop. Kept verbatim (modulo visibility, and the diagonal pseudo-answer
/// each confusion row starts with, `DawidSkene::DIAGONAL_PRIOR`) as the
/// baseline the flat kernel is gated against — do not "optimize" this
/// module.
mod seed_ds {
    use crowdkit_core::response::ResponseMatrix;
    use crowdkit_truth::DawidSkene;

    fn normalize(row: &mut [f64]) {
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        } else {
            let u = 1.0 / row.len() as f64;
            row.fill(u);
        }
    }

    fn log_normalize(row: &mut [f64]) {
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for x in row.iter_mut() {
            *x = (*x - max).exp();
        }
        normalize(row);
    }

    /// Seed-layout Dawid–Skene EM; returns the argmax labels.
    pub fn infer(matrix: &ResponseMatrix, max_iters: usize, tol: f64, smoothing: f64) -> Vec<u32> {
        let k = matrix.num_labels();
        let n_workers = matrix.num_workers();

        let mut posteriors = vec![vec![0.0f64; k]; matrix.num_tasks()];
        for o in matrix.observations() {
            posteriors[o.task][o.label as usize] += 1.0;
        }
        for row in &mut posteriors {
            normalize(row);
        }
        let mut priors = vec![1.0 / k as f64; k];
        let mut confusion = vec![vec![vec![0.0f64; k]; k]; n_workers];

        let mut iterations = 0;
        while iterations < max_iters {
            iterations += 1;

            priors.fill(0.0);
            for row in &posteriors {
                for (p, &x) in priors.iter_mut().zip(row) {
                    *p += x;
                }
            }
            normalize(&mut priors);
            for cm in &mut confusion {
                for (t, row) in cm.iter_mut().enumerate() {
                    row.fill(smoothing);
                    row[t] += DawidSkene::DIAGONAL_PRIOR;
                }
            }
            for o in matrix.observations() {
                let post = &posteriors[o.task];
                let cm = &mut confusion[o.worker];
                for (t, &p) in post.iter().enumerate() {
                    cm[t][o.label as usize] += p;
                }
            }
            for cm in &mut confusion {
                for row in cm.iter_mut() {
                    normalize(row);
                }
            }

            let mut next = vec![vec![0.0f64; k]; matrix.num_tasks()];
            for (t, row) in next.iter_mut().enumerate() {
                for (l, x) in row.iter_mut().enumerate() {
                    *x = priors[l].max(1e-300).ln();
                }
                for o in matrix.observations_for_task(t) {
                    let cm = &confusion[o.worker];
                    for (l, x) in row.iter_mut().enumerate() {
                        *x += cm[l][o.label as usize].max(1e-300).ln();
                    }
                }
                log_normalize(row);
            }

            let delta = posteriors
                .iter()
                .zip(&next)
                .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
                .fold(0.0f64, f64::max);
            posteriors = next;
            if delta < tol {
                break;
            }
        }

        posteriors
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(l, _)| l as u32)
                    .unwrap()
            })
            .collect()
    }
}

/// Collects `votes` answers a task for `data` from a mixed crowd of 60
/// workers, as E2 does.
fn collect(data: &LabelingDataset, votes: usize) -> ResponseMatrix {
    let crowd = SimulatedCrowd::new(mixes::mixed(60, 7), 7);
    label_tasks(&crowd, &data.tasks, votes, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

#[test]
fn dawid_skene_labels_equal_the_seed_kernels() {
    let shapes = [
        (LabelingDataset::binary(1000, 7), 9, 2),
        (
            LabelingDataset::generate(600, 3, 1.0 / 3.0, (0.3, 0.7), 7),
            7,
            3,
        ),
    ];
    let cfg = EmConfig::default();
    for (data, votes, k) in shapes {
        let m = collect(&data, votes);
        assert_eq!(m.num_labels(), k);
        let flat = DawidSkene::with_config(cfg)
            .infer(&m)
            .expect("inference succeeds");
        let seed = seed_ds::infer(&m, cfg.max_iters, cfg.tol, cfg.smoothing);
        assert_eq!(
            flat.labels, seed,
            "k = {k}: the flat kernel's labels differ"
        );
    }
}
