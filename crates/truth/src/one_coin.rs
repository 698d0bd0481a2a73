//! One-coin EM (ZenCrowd-style).
//!
//! The simplest probabilistic worker model: worker `w` answers correctly
//! with a single reliability `p_w` and otherwise picks uniformly among the
//! wrong labels. This is the model behind ZenCrowd (Demartini et al., 2012)
//! and most "EM" baselines in crowdsourcing papers. It trades the
//! expressiveness of Dawid–Skene's full confusion matrix for far fewer
//! parameters, which wins when workers answer only a handful of tasks.

//!
//! The kernel mirrors the Dawid–Skene layout: flat posterior tables,
//! per-worker log tables (`ln p_w`, `ln` of the wrong-label share)
//! refreshed once per M-step, reliability estimation sharded over worker
//! ranges and the E-step over task ranges — byte-identical output at any
//! thread count. `config.freeze` enables the sparse incremental E-step
//! shared with the other EM kernels (see [`crate::freeze`]): frozen tasks
//! leave the worklist and fully-frozen workers skip their (bitwise no-op)
//! reliability recompute.

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::par::parallel_items_mut;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crowdkit_obs as obs;

use crate::em::{
    argmax_labels, log_normalize, obs_iter, obs_run, posterior_rows, resolve_threads,
    update_priors, vote_fraction_posteriors, EmConfig, LN_FLOOR,
};
use crate::freeze::ActiveSet;
use crate::lineage::RunLineage;

/// The one-coin EM algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneCoinEm {
    /// Iteration and smoothing settings.
    pub config: EmConfig,
}

impl OneCoinEm {
    /// Creates the algorithm with custom EM settings.
    pub fn with_config(config: EmConfig) -> Self {
        Self { config }
    }
}

impl TruthInferencer for OneCoinEm {
    fn name(&self) -> &'static str {
        "zc"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        if matrix.is_empty() {
            return Err(CrowdError::EmptyInput("response matrix"));
        }
        let k = matrix.num_labels();
        let n_tasks = matrix.num_tasks();
        let n_workers = matrix.num_workers();
        let wrong_share = 1.0 / (k as f64 - 1.0).max(1.0);
        let cfg = self.config;
        let threads = resolve_threads(cfg.threads, matrix.num_observations() * k);
        let (t_off, t_entries) = matrix.task_csr();
        let (w_off, w_entries) = matrix.worker_csr();

        let mut posteriors = vote_fraction_posteriors(matrix);
        let mut aset = ActiveSet::new(cfg.freeze, n_tasks, k, w_off);
        let mut priors = vec![1.0 / k as f64; k];
        let mut log_priors = vec![0.0f64; k];
        let mut reliability = vec![0.8f64; n_workers];
        // Per-worker log pair refreshed each M-step: `ln p_w` and
        // `ln((1 - p_w) · wrong_share)`.
        let mut log_right = vec![0.0f64; n_workers];
        let mut log_wrong = vec![0.0f64; n_workers];

        let tel = obs::scope();
        let obs_on = tel.recorder.enabled();
        let run_start = obs::WallTimer::start();
        // Lineage baseline: the vote-fraction init, i.e. MV's decision.
        let mut lineage = RunLineage::begin(&tel, "zc", &posteriors, k);

        let mut iterations = 0;
        let mut converged = false;
        while iterations < cfg.max_iters {
            iterations += 1;
            let t_m = obs_on.then(obs::WallTimer::start);

            // M-step: p_w = (smoothed) expected fraction of correct
            // answers, sharded over worker ranges; each worker sums its
            // own CSR entries in insertion order.
            update_priors(&posteriors, k, &mut priors);
            for (lp, &p) in log_priors.iter_mut().zip(&priors) {
                *lp = p.max(LN_FLOOR).ln();
            }
            let post = &posteriors;
            let aset_r = &aset;
            parallel_items_mut(&mut reliability, 1, threads, |w0, run| {
                for (i, r) in run.iter_mut().enumerate() {
                    let w = w0 + i;
                    // All of this worker's posterior inputs are pinned:
                    // recomputing reproduces the same bits, so skip.
                    if aset_r.can_skip_worker_update(w) {
                        continue;
                    }
                    let mut correct = cfg.smoothing;
                    let mut total = 2.0 * cfg.smoothing;
                    for &(t, l) in &w_entries[w_off[w] as usize..w_off[w + 1] as usize] {
                        correct += post[t as usize * k + l as usize];
                        total += 1.0;
                    }
                    // Clamp away from 0 and 1 so log-likelihoods stay
                    // finite and a perfectly-agreeing worker cannot zero
                    // out all other labels' mass.
                    *r = (correct / total).clamp(1e-6, 1.0 - 1e-6);
                }
            });
            for w in 0..n_workers {
                let p = reliability[w];
                log_right[w] = p.max(LN_FLOOR).ln();
                log_wrong[w] = ((1.0 - p) * wrong_share).max(LN_FLOOR).ln();
            }

            let m_ns = t_m.map_or(0, |t| t.elapsed_ns());
            let t_e = obs_on.then(obs::WallTimer::start);

            // E-step over the active worklist (all tasks while freezing is
            // off). Per observation the update is a scalar: every label
            // gets the worker's wrong-answer mass, the observed label the
            // right/wrong correction — O(obs + k) per task instead of
            // O(obs · k).
            let log_priors_r = &log_priors;
            let log_right_r = &log_right;
            let log_wrong_r = &log_wrong;
            let out = aset.sweep(&mut posteriors, t_off, t_entries, threads, |t, row| {
                row.copy_from_slice(log_priors_r);
                let mut base = 0.0;
                for &(w, l) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
                    let w = w as usize;
                    base += log_wrong_r[w];
                    row[l as usize] += log_right_r[w] - log_wrong_r[w];
                }
                for x in row.iter_mut() {
                    *x += base;
                }
                log_normalize(row);
            });

            let delta = out.delta;
            if let Some(l) = &mut lineage {
                // Committed table after the sweep — identical bits on the
                // sparse and dense-reference paths, so lineage matches.
                l.observe_iter(iterations, &posteriors);
            }
            if obs_on {
                let e_ns = t_e.map_or(0, |t| t.elapsed_ns());
                obs_iter(&tel, "zc", iterations, delta, m_ns, e_ns);
                aset.observe(&tel, "zc", iterations, &out);
            }
            if delta < cfg.tol {
                converged = true;
                break;
            }
        }
        if let Some(l) = lineage.take() {
            l.finish(&*tel.recorder, matrix, &posteriors, Some(&reliability));
        }
        obs_run(&tel, "zc", matrix, iterations, converged, run_start);

        let labels = argmax_labels(&posteriors, k);
        Ok(InferenceResult {
            labels,
            posteriors: posterior_rows(&posteriors, k),
            worker_quality: Some(reliability),
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::{TaskId, WorkerId};

    fn matrix(rows: &[(u64, u64, u32)], k: usize) -> ResponseMatrix {
        let mut m = ResponseMatrix::new(k);
        for &(t, w, l) in rows {
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
        m
    }

    #[test]
    fn unanimous_answers_converge_confidently() {
        let m = matrix(&[(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)], 2);
        let r = OneCoinEm::default().infer(&m).unwrap();
        assert_eq!(r.labels, vec![1, 0]);
        assert!(r.converged);
        assert!(r.confidence(0) > 0.9);
    }

    #[test]
    fn reliability_separates_good_from_bad_workers() {
        let mut rows = Vec::new();
        for t in 0..30u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth)); // always right
            rows.push((t, 1, truth));
            rows.push((t, 2, truth));
            rows.push((t, 3, 1 - truth)); // always wrong
        }
        let m = matrix(&rows, 2);
        let r = OneCoinEm::default().infer(&m).unwrap();
        let q = r.worker_quality.unwrap();
        let good = m.worker_index(WorkerId::new(0)).unwrap();
        let bad = m.worker_index(WorkerId::new(3)).unwrap();
        assert!(q[good] > 0.9, "good {}", q[good]);
        assert!(q[bad] < 0.1, "bad {}", q[bad]);
        // All truths recovered.
        for t in 0..30u64 {
            let idx = m.task_index(TaskId::new(t)).unwrap();
            assert_eq!(r.labels[idx], (t % 2) as u32);
        }
    }

    #[test]
    fn multiclass_wrong_mass_is_spread() {
        // Single answer: posterior should put p on the chosen label and
        // (1-p)/(k-1) on each other label — i.e. chosen label wins.
        let m = matrix(&[(0, 0, 2)], 4);
        let r = OneCoinEm::default().infer(&m).unwrap();
        assert_eq!(r.labels, vec![2]);
        let row = &r.posteriors[0];
        // Remaining labels share the rest equally.
        assert!((row[0] - row[1]).abs() < 1e-9);
        assert!((row[1] - row[3]).abs() < 1e-9);
        assert!(row[2] > row[0]);
    }

    #[test]
    fn rejects_empty_matrix() {
        let m = ResponseMatrix::new(3);
        assert!(matches!(
            OneCoinEm::default().infer(&m).unwrap_err(),
            CrowdError::EmptyInput(_)
        ));
    }

    #[test]
    fn reliabilities_stay_probabilities() {
        let m = matrix(&[(0, 0, 0), (1, 0, 1), (2, 0, 0), (0, 1, 1)], 2);
        let r = OneCoinEm::default().infer(&m).unwrap();
        for q in r.worker_quality.unwrap() {
            assert!((0.0..=1.0).contains(&q));
        }
    }
}
