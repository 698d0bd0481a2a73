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
//!   `P(t | answers) ∝ ρ[t] · Π_answers π_w[t][l]` as that product.
//!
//! This module is the model: the confusion-matrix M-step and the E-step's
//! posterior row.
//!
//! # Kernel layout
//!
//! Confusion matrices live in one flat `Vec<f64>` with `w·k² + t·k + l`
//! indexing. The soft-count M-step shards over worker ranges via
//! [`parallel_items_mut`]; each worker writes its own `k²` slots from
//! shared read-only state, so results are byte-identical at any thread
//! count. The E-step works in probability space, so neither step takes an
//! `exp` or `ln`: a task's row starts from `ρ`, each answer `(w, l)`
//! multiplies in the column `π_w[·][l]` (stride `k`, each entry floored at
//! `em::LN_FLOOR`), and `em::normalize` closes the row. Whenever the row's
//! max falls below `RESCALE_BELOW`, the row is scaled by the power of two
//! that brings the max into `[1, 2)`: exact, and cancelled by the
//! normalization, so a task with thousands of answers never underflows.
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

use crate::em::{self, normalize, Csr, EmConfig, EmModel, Priors, LN_FLOOR};
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
            |cx| DsModel {
                smoothing: cfg.smoothing,
                confusion: vec![0.0; cx.num_workers() * cx.k * cx.k],
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

/// The row max below which the E-step rescales, `2^-24`: one factor of at
/// least `LN_FLOOR` leaves a max above it a normal float (asserted below).
const RESCALE_BELOW: f64 = 1.0 / (1u64 << 24) as f64;
const _: () = assert!(RESCALE_BELOW * LN_FLOOR >= f64::MIN_POSITIVE);

/// The Dawid–Skene worker model: one confusion matrix per worker.
struct DsModel {
    smoothing: f64,
    /// `confusion[w*k*k + t*k + l] = π_w[t][l]`.
    confusion: Vec<f64>,
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
    }

    /// `ρ · Π π_w[·][l]`, rescaled and normalized (see the module docs).
    #[inline]
    fn posterior_row(&self, cx: &Csr<'_>, t: usize, priors: &Priors, row: &mut [f64]) {
        let k = cx.k;
        for (x, &p) in row.iter_mut().zip(&priors.p) {
            *x = p.max(LN_FLOOR);
        }
        for &(w, l) in cx.task(t) {
            let base = w as usize * k * k;
            let column = self.confusion[base + l as usize..base + k * k]
                .iter()
                .step_by(k);
            let mut max = 0.0f64;
            for (x, &pi) in row.iter_mut().zip(column) {
                *x *= pi.max(LN_FLOOR);
                max = max.max(*x);
            }
            if max < RESCALE_BELOW {
                let scale = pow2_to_unit(max);
                for x in row.iter_mut() {
                    *x *= scale;
                }
            }
        }
        normalize(row);
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

/// `2^-e` for `x` in `[2^e, 2^(e+1))`, from the exponent field `e + 1023`
/// of a positive normal `x` (a zero or subnormal `x` gets `2^1023`).
fn pow2_to_unit(x: f64) -> f64 {
    f64::from_bits((2046 - (x.to_bits() >> 52)) << 52)
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
    use crate::em::log_normalize;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use proptest::prelude::*;

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

    /// A model whose worker `w` (dense index, in answer order) has the
    /// `w`-th `k × k` block of the flat `confusions`, over one task holding
    /// one answer of label `labels[w]` from each worker.
    fn one_task(k: usize, confusions: Vec<f64>, labels: &[u32]) -> (ResponseMatrix, DsModel) {
        let rows: Vec<_> = labels.iter().zip(0u64..).map(|(&l, w)| (0, w, l)).collect();
        let model = DsModel {
            smoothing: 0.0,
            confusion: confusions,
        };
        (matrix(&rows, k), model)
    }

    /// The E-step row as it was in log space: the floored log priors, plus
    /// `ln π_w[t][l]` floored at `LN_FLOOR` for each answer, then
    /// `log_normalize`. Returns with it a bound on its own error in any one
    /// label's log sum: each `ln` is off by up to an ulp of its result and
    /// each addition by up to an ulp of the running sum.
    fn reference(model: &DsModel, cx: &Csr<'_>, t: usize, priors: &[f64]) -> (Vec<f64>, f64) {
        let k = cx.k;
        let mut row: Vec<f64> = priors.iter().map(|p| p.max(LN_FLOOR).ln()).collect();
        let mut err: Vec<f64> = row.iter().map(|x| x.abs() * f64::EPSILON).collect();
        for &(w, l) in cx.task(t) {
            for (truth, x) in row.iter_mut().enumerate() {
                let pi = model.confusion[(w as usize * k + truth) * k + l as usize];
                let term = pi.max(LN_FLOOR).ln();
                *x += term;
                err[truth] += (term.abs() + x.abs()) * f64::EPSILON;
            }
        }
        log_normalize(&mut row);
        (row, err.into_iter().fold(0.0, f64::max))
    }

    /// Checks the product-space row against the log-space reference to
    /// 1e-12 plus what the reference's own error can move it: a log term
    /// off by `δ` moves a posterior `p` by at most `2p(1 − p)δ`.
    fn assert_matches_reference(model: &DsModel, cx: &Csr<'_>, priors: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; cx.k];
        let given = Priors {
            p: priors.to_vec(),
            ln: Vec::new(),
        };
        model.posterior_row(cx, 0, &given, &mut row);
        let (want, err) = reference(model, cx, 0, priors);
        for (&got, &p) in row.iter().zip(&want) {
            let tol = 1e-12 + 2.0 * p * (1.0 - p) * err;
            assert!(
                (got - p).abs() <= tol,
                "{row:?} vs reference {want:?} (log error {err:e})"
            );
        }
        row
    }

    /// One task's E-step inputs: `k` from 2 to 6, the class priors, and 1
    /// to 12 answers as (the worker's `k × k` confusion matrix, flat and
    /// row-stochastic, and the label). About a quarter of the priors and
    /// confusion entries sit at or under `LN_FLOOR` (zero included), as
    /// zero smoothing leaves them, except those of one truth `t0`: DS's soft
    /// counts keep mass on a label the task's posterior has not ruled out.
    /// Without such a label the answers could floor the labels against each
    /// other in turn, and a float row cannot hold the `e^-1381` ratios the
    /// log form carries through that.
    #[allow(clippy::type_complexity)]
    fn task_inputs() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>, Vec<u32>)> {
        let cell = || (0u8..4, 1e-3f64..1.0);
        (
            2usize..7,
            0usize..6,
            prop::collection::vec(cell(), 6),
            prop::collection::vec((prop::collection::vec(cell(), 36), 0u32..60), 1..13),
        )
            .prop_map(|(k, t0, prior_cells, answers)| {
                let t0 = t0 % k;
                let floored = |(kind, x): (u8, f64), t: usize| match kind {
                    3 if t != t0 => [0.0, 0.5 * LN_FLOOR, LN_FLOOR][(x * 3.0) as usize % 3],
                    _ => x,
                };
                let mut priors: Vec<f64> = (0..k).map(|t| floored(prior_cells[t], t)).collect();
                normalize(&mut priors);
                let mut confusions = Vec::new();
                for (cells, _) in &answers {
                    for t in 0..k {
                        let start = confusions.len();
                        confusions.extend((0..k).map(|l| floored(cells[t * k + l], t)));
                        normalize(&mut confusions[start..]);
                    }
                }
                let labels = answers.iter().map(|&(_, l)| l % k as u32).collect();
                (k, priors, confusions, labels)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn posterior_row_matches_the_log_space_reference(
            (k, priors, confusions, labels) in task_inputs()
        ) {
            let (m, model) = one_task(k, confusions, &labels);
            assert_matches_reference(&model, &Csr::new(&m, 1), &priors);
        }
    }

    #[test]
    fn a_task_of_thousands_of_small_factors_is_rescaled_not_flattened() {
        // 2,000 answers whose columns come in pairs multiplying every truth
        // by 2e-4, so the posterior is the priors again, while the plain
        // product falls to about 1e-3700, far under the smallest float.
        let (k, n) = (3, 2000);
        let priors = [0.5, 0.3, 0.2];
        let columns = [[0.02, 0.01, 0.04], [0.01, 0.02, 0.005]];
        let labels: Vec<u32> = (0..n).map(|w| (w % k) as u32).collect();
        let mut confusions = vec![0.0; n * k * k];
        for (w, &l) in labels.iter().enumerate() {
            for (t, &pi) in columns[w % 2].iter().enumerate() {
                confusions[(w * k + t) * k + l as usize] = pi;
            }
        }
        let unscaled = (0..k).map(|t| (0..n).fold(priors[t], |x, w| x * columns[w % 2][t]));
        assert!(
            unscaled.into_iter().all(|x| x == 0.0),
            "the plain product must underflow"
        );

        let (m, model) = one_task(k, confusions, &labels);
        let row = assert_matches_reference(&model, &Csr::new(&m, 1), &priors);
        for (&got, &want) in row.iter().zip(&priors) {
            assert!((got - want).abs() < 1e-9, "{row:?} is not the priors");
        }
    }

    #[test]
    fn rescaling_brings_the_max_into_one_to_two() {
        for x in [
            RESCALE_BELOW,
            0.75 * RESCALE_BELOW,
            3e-200,
            RESCALE_BELOW * LN_FLOOR,
        ] {
            let scaled = x * pow2_to_unit(x);
            assert!((1.0..2.0).contains(&scaled), "{x:e} scales to {scaled}");
        }
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
