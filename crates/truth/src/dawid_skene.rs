//! Dawid–Skene EM: the classical confusion-matrix model (Dawid & Skene,
//! 1979), still the strongest general-purpose categorical truth-inference
//! baseline in published comparisons.
//!
//! Model: each worker `w` has a row-stochastic confusion matrix `π_w`
//! where `π_w[t][l]` is the probability of answering `l` when the truth is
//! `t`; tasks have latent true labels drawn from class priors `ρ`.
//!
//! The EM driver ([`crate::em`]) alternates:
//!
//! * **M-step** — re-estimate `ρ` and every `π_w` from the current soft
//!   posteriors (with Laplace smoothing so sparse workers stay defined);
//! * **E-step** — recompute task posteriors
//!   `P(t | answers) ∝ ρ[t] · Π_answers π_w[t][l]` in log space to avoid
//!   underflow on high-redundancy tasks.
//!
//! This module is the model: the confusion-matrix M-step and the E-step's
//! per-task log-likelihood terms.
//!
//! # Kernel layout
//!
//! Confusion matrices live in one flat `Vec<f64>` with `w·k² + t·k + l`
//! indexing, and each M-step precomputes a **transposed log table**
//! `log π_w[t][l]` stored as `lt[w·k² + l·k + t]` so the E-step inner
//! loop is pure adds over one contiguous `k`-slice per observation (no
//! `ln` calls, no indirection). An observation of worker `w` with label
//! `l` reads only slice `(w, l)`, so the M-step writes only the slices of
//! labels the worker gave, selected by a worker × label mask built once
//! from the worker CSR: `k` logarithms per (worker, label) pair in the
//! data, where a long-tailed crowd's workers mostly gave one label each.
//! The soft-count M-step shards over worker ranges via
//! [`parallel_items_mut`]; each worker writes its own slots from shared
//! read-only state, so results are byte-identical at any thread count.
//!
//! With [`crate::freeze::FreezeConfig`] enabled (`config.freeze`), the
//! E-step goes sparse: converged tasks freeze out of the worklist (their
//! pinned posterior rows keep feeding the M-step), and workers whose tasks
//! have all frozen skip their confusion-matrix recompute — a pure no-op,
//! since recomputing from pinned inputs reproduces the same bits.

use crowdkit_core::error::Result;
use crowdkit_core::par::parallel_items_mut;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::{self, normalize, Csr, EmConfig, EmModel, LN_FLOOR};
use crate::freeze::ActiveSet;

/// The Dawid–Skene EM algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct DawidSkene {
    /// Iteration and smoothing settings.
    pub config: EmConfig,
}

impl DawidSkene {
    /// Creates the algorithm with custom EM settings.
    pub fn with_config(config: EmConfig) -> Self {
        Self { config }
    }

    /// Runs EM and additionally returns the estimated per-worker confusion
    /// matrices (dense worker index → k×k matrix). The plain
    /// [`TruthInferencer::infer`] entry point discards them.
    pub fn infer_full(
        &self,
        matrix: &ResponseMatrix,
    ) -> Result<(InferenceResult, Vec<Vec<Vec<f64>>>)> {
        let cfg = self.config;
        let (result, model) = em::run(
            matrix,
            cfg.max_iters,
            cfg.tol,
            cfg.threads,
            cfg.freeze,
            |cx| {
                let (k, n_workers) = (cx.k, cx.num_workers());
                let mut gave = vec![false; n_workers * k];
                for w in 0..n_workers {
                    for &(_, l) in cx.worker(w) {
                        gave[w * k + l as usize] = true;
                    }
                }
                DsModel {
                    smoothing: cfg.smoothing,
                    confusion: vec![0.0; n_workers * k * k],
                    log_table: vec![0.0; n_workers * k * k],
                    gave,
                }
            },
        )?;
        let k = matrix.num_labels();
        let confusion_rows = model
            .confusion
            .chunks(k * k)
            .map(|cm| cm.chunks(k).map(<[f64]>::to_vec).collect())
            .collect();
        Ok((result, confusion_rows))
    }
}

/// The Dawid–Skene worker model: one confusion matrix per worker.
struct DsModel {
    smoothing: f64,
    /// `confusion[w*k*k + t*k + l] = π_w[t][l]`.
    confusion: Vec<f64>,
    /// Transposed log table: `log_table[w*k*k + l*k + t] = ln π_w[t][l]`,
    /// so the E-step reads one contiguous k-slice per observation. Only
    /// the slices of labels the worker gave are written, since no other
    /// slice is read.
    log_table: Vec<f64>,
    /// `gave[w*k + l]`: worker `w` answered label `l` at least once.
    gave: Vec<bool>,
}

impl EmModel for DsModel {
    const ALGO: &'static str = "ds";

    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet) {
        let k = cx.k;
        let smoothing = self.smoothing;
        // Per-worker confusion soft counts over worker ranges. Each
        // worker's accumulation walks its CSR entries in insertion order,
        // so the float sum order is fixed regardless of sharding.
        parallel_items_mut(&mut self.confusion, k * k, cx.threads, |w0, run| {
            for (i, cm) in run.chunks_mut(k * k).enumerate() {
                let w = w0 + i;
                // Every input to this worker's soft counts is a pinned
                // posterior row: recomputing would reproduce the same
                // bits, so skip (the dense-reference mode recomputes and
                // the equivalence tests verify the claim).
                if aset.can_skip_worker_update(w) {
                    continue;
                }
                cm.fill(smoothing);
                for &(t, l) in cx.worker(w) {
                    let row = &posteriors[t as usize * k..t as usize * k + k];
                    for (truth, &p) in row.iter().enumerate() {
                        cm[truth * k + l as usize] += p;
                    }
                }
                for row in cm.chunks_mut(k) {
                    normalize(row);
                }
            }
        });

        // Log-table transpose, also over worker ranges: all `ln` calls
        // happen here instead of per observation in the E-step, k of them
        // for each label a worker gave (the E-step reads no other slice).
        let (conf, gave) = (&self.confusion, &self.gave);
        parallel_items_mut(&mut self.log_table, k * k, cx.threads, |w0, run| {
            for (i, lt) in run.chunks_mut(k * k).enumerate() {
                let w = w0 + i;
                if aset.can_skip_worker_update(w) {
                    continue;
                }
                let cm = &conf[w * k * k..(w + 1) * k * k];
                for l in (0..k).filter(|&l| gave[w * k + l]) {
                    for t in 0..k {
                        lt[l * k + t] = cm[t * k + l].max(LN_FLOOR).ln();
                    }
                }
            }
        });
    }

    /// Adds one contiguous log-table slice per observation.
    #[inline]
    fn accumulate(&self, cx: &Csr<'_>, t: usize, row: &mut [f64]) {
        let k = cx.k;
        for &(w, l) in cx.task(t) {
            let base = (w as usize * k + l as usize) * k;
            for (x, &add) in row.iter_mut().zip(&self.log_table[base..base + k]) {
                *x += add;
            }
        }
    }

    /// The prior-weighted confusion diagonal: each worker's marginal
    /// probability of a correct answer.
    fn worker_quality(&self, priors: &[f64]) -> Vec<f64> {
        let k = priors.len();
        self.confusion
            .chunks(k * k)
            .map(|cm| (0..k).map(|t| priors[t] * cm[t * k + t]).sum::<f64>())
            .collect()
    }
}

impl TruthInferencer for DawidSkene {
    fn name(&self) -> &'static str {
        "ds"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        self.infer_full(matrix).map(|(r, _)| r)
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
    fn agrees_with_mv_on_clean_unanimous_data() {
        let m = matrix(
            &[
                (0, 0, 1),
                (0, 1, 1),
                (0, 2, 1),
                (1, 0, 0),
                (1, 1, 0),
                (1, 2, 0),
            ],
            2,
        );
        let r = DawidSkene::default().infer(&m).unwrap();
        assert_eq!(r.labels, vec![1, 0]);
        assert!(r.converged);
        assert!(r.confidence(0) > 0.9);
    }

    #[test]
    fn identifies_the_consistent_minority_against_a_spammer_majority() {
        // Workers 0 and 1 agree on every task; workers 2, 3 answer randomly
        // but happen to outvote them on task 9. DS should learn workers 0/1
        // are reliable and follow them.
        let mut rows = Vec::new();
        for t in 0..10u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth));
            rows.push((t, 1, truth));
            // The two noisy workers systematically vote for the opposite on
            // a single task, agreeing with truth elsewhere often enough to
            // look plausible to MV.
            if t == 9 {
                rows.push((t, 2, 1 - truth));
                rows.push((t, 3, 1 - truth));
                rows.push((t, 4, 1 - truth));
            } else {
                rows.push((t, 2, truth));
                rows.push((t, 3, 1 - truth));
            }
        }
        let m = matrix(&rows, 2);
        let r = DawidSkene::default().infer(&m).unwrap();
        // Task 9's truth is 1 (9 % 2); MV over {0,1,2,3,4} would say 0
        // (3 votes of 1-truth=0 vs 2 votes of 1).
        let t9 = m.task_index(TaskId::new(9)).unwrap();
        assert_eq!(r.labels[t9], 1, "DS should trust the consistent pair");
    }

    #[test]
    fn worker_quality_orders_good_above_bad() {
        // Worker 0 always truthful, worker 1 always wrong, over 20 tasks
        // with 3 extra mostly-truthful workers to pin down the truth.
        let mut rows = Vec::new();
        for t in 0..20u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth));
            rows.push((t, 1, 1 - truth));
            rows.push((t, 2, truth));
            rows.push((t, 3, truth));
        }
        let m = matrix(&rows, 2);
        let r = DawidSkene::default().infer(&m).unwrap();
        let q = r.worker_quality.unwrap();
        let w0 = m.worker_index(WorkerId::new(0)).unwrap();
        let w1 = m.worker_index(WorkerId::new(1)).unwrap();
        assert!(q[w0] > 0.9, "good worker quality {}", q[w0]);
        assert!(q[w1] < 0.1, "bad worker quality {}", q[w1]);
    }

    #[test]
    fn posteriors_are_distributions() {
        let m = matrix(&[(0, 0, 0), (0, 1, 1), (1, 0, 2)], 3);
        let r = DawidSkene::default().infer(&m).unwrap();
        for row in &r.posteriors {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row sums to {s}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn rejects_empty_matrix() {
        let m = ResponseMatrix::new(2);
        assert!(DawidSkene::default().infer(&m).is_err());
    }

    #[test]
    fn converges_within_cap_on_moderate_data() {
        let mut rows = Vec::new();
        for t in 0..30u64 {
            for w in 0..5u64 {
                // Deterministic pseudo-noise: worker w is wrong when
                // (t + w) divisible by 4.
                let truth = (t % 3) as u32;
                let l = if (t + w) % 4 == 0 {
                    (truth + 1) % 3
                } else {
                    truth
                };
                rows.push((t, w, l));
            }
        }
        let m = matrix(&rows, 3);
        let r = DawidSkene::default().infer(&m).unwrap();
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        assert!(r.iterations < 100);
    }

    #[test]
    fn infer_full_exposes_row_stochastic_confusions() {
        let m = matrix(&[(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2);
        let (_, confusion) = DawidSkene::default().infer_full(&m).unwrap();
        assert_eq!(confusion.len(), 2);
        for cm in &confusion {
            for row in cm {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }
}
