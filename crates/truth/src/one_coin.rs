//! One-coin EM (ZenCrowd-style).
//!
//! The simplest probabilistic worker model: worker `w` answers correctly
//! with a single reliability `p_w` and otherwise picks uniformly among the
//! wrong labels. This is the model behind ZenCrowd (Demartini et al., 2012)
//! and most "EM" baselines in crowdsourcing papers. It trades the
//! expressiveness of Dawid–Skene's full confusion matrix for far fewer
//! parameters, which wins when workers answer only a handful of tasks.
//!
//! This module is the model the EM driver ([`crate::em`]) iterates:
//! reliability estimation sharded over worker ranges, then per-worker log
//! pairs (`ln p_w`, `ln` of the wrong-label share) refreshed once per
//! M-step for the E-step — byte-identical output at any thread count.
//! `config.freeze` enables the sparse incremental E-step (see
//! [`crate::freeze`]): frozen tasks leave the worklist and fully-frozen
//! workers skip their (bitwise no-op) reliability recompute.

use crowdkit_core::error::Result;
use crowdkit_core::par::parallel_items_mut;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::{self, Csr, EmConfig, EmModel, Priors, LN_FLOOR};
use crate::freeze::ActiveSet;

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
        let cfg = self.config;
        em::run(
            matrix,
            cfg.max_iters,
            cfg.tol,
            cfg.threads,
            cfg.freeze,
            |cx| {
                let n_workers = cx.num_workers();
                OneCoinModel {
                    smoothing: cfg.smoothing,
                    wrong_share: 1.0 / (cx.k as f64 - 1.0).max(1.0),
                    reliability: vec![0.8; n_workers],
                    log_right: vec![0.0; n_workers],
                    log_wrong: vec![0.0; n_workers],
                }
            },
        )
        .map(|(r, _)| r)
    }
}

/// The one-coin worker model: one reliability per worker.
struct OneCoinModel {
    smoothing: f64,
    /// Each wrong label's share of a wrong answer, `1 / (k − 1)`.
    wrong_share: f64,
    reliability: Vec<f64>,
    /// `ln p_w`, refreshed each M-step.
    log_right: Vec<f64>,
    /// `ln((1 − p_w) · wrong_share)`, refreshed each M-step.
    log_wrong: Vec<f64>,
}

impl EmModel for OneCoinModel {
    const ALGO: &'static str = "zc";

    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet) {
        let k = cx.k;
        let smoothing = self.smoothing;
        // p_w = (smoothed) expected fraction of correct answers, sharded
        // over worker ranges; each worker sums its own CSR entries in
        // insertion order.
        parallel_items_mut(&mut self.reliability, 1, cx.threads, |w0, run| {
            for (i, r) in run.iter_mut().enumerate() {
                let w = w0 + i;
                // All of this worker's posterior inputs are pinned:
                // recomputing reproduces the same bits, so skip.
                if aset.can_skip_worker_update(w) {
                    continue;
                }
                let mut correct = smoothing;
                let mut total = 2.0 * smoothing;
                for &(t, l) in cx.worker(w) {
                    correct += posteriors[t as usize * k + l as usize];
                    total += 1.0;
                }
                // Clamp away from 0 and 1 so log-likelihoods stay finite
                // and a perfectly-agreeing worker cannot zero out all
                // other labels' mass.
                *r = (correct / total).clamp(1e-6, 1.0 - 1e-6);
            }
        });
        for (w, &p) in self.reliability.iter().enumerate() {
            self.log_right[w] = p.max(LN_FLOOR).ln();
            self.log_wrong[w] = ((1.0 - p) * self.wrong_share).max(LN_FLOOR).ln();
        }
    }

    /// From the log priors, per observation a scalar update: every label
    /// gets the worker's wrong-answer mass, the observed label the
    /// right/wrong correction — O(obs + k) per task instead of O(obs · k).
    #[inline]
    fn posterior_row(&self, cx: &Csr<'_>, t: usize, priors: &Priors, row: &mut [f64]) {
        row.copy_from_slice(&priors.ln);
        let mut base = 0.0;
        for &(w, l) in cx.task(t) {
            let w = w as usize;
            base += self.log_wrong[w];
            row[l as usize] += self.log_right[w] - self.log_wrong[w];
        }
        for x in row.iter_mut() {
            *x += base;
        }
        em::log_normalize(row);
    }

    fn worker_quality(&self, _priors: &[f64]) -> Vec<f64> {
        self.reliability.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::error::CrowdError;
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
