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
//!   posteriors: a maximum-a-posteriori estimate (Raykar et al., 2010)
//!   under a Dirichlet prior of Laplace `smoothing` on every entry plus
//!   [`DawidSkene::DIAGONAL_PRIOR`] pseudo-answers on each row's diagonal,
//!   so a worker with one or two answers keeps a non-degenerate matrix;
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
//! Both steps are compiled for a label width (`Width`) that a run picks
//! once from the matrix's `k`. A binary matrix runs `Fixed<2>`: a task's
//! row is built in a local `[f64; 2]` and a worker's soft counts in a
//! local `[[f64; 2]; 2]` over posterior rows read as `&[f64; 2]`, each
//! stored in the shared table once. Every other `k` runs `AnyWidth`,
//! which builds both in place in the shared tables. The E-step row is one
//! body for both widths; the M-step keeps the in-place slice kernel as
//! `AnyWidth`'s, because the same body over slices, even with `k` a
//! constant, was no faster than that kernel at `k = 2`. Both widths add
//! and multiply in the same order, so they agree bit for bit (a property
//! test runs `k = 2` matrices through both).
//!
//! With [`crate::freeze::FreezeConfig`] enabled (`config.freeze`), the
//! E-step goes sparse: converged tasks freeze out of the worklist (their
//! pinned posterior rows keep feeding the M-step), and workers whose tasks
//! have all frozen skip their confusion-matrix recompute — a pure no-op,
//! since recomputing from pinned inputs reproduces the same bits (the
//! diagonal prior is a constant, the same for every worker and iteration,
//! so it is one of those inputs).

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
    /// Pseudo-answers each confusion row `π_w[t]` starts with on its
    /// diagonal `π_w[t][t]`, on top of the `smoothing` every entry gets: one
    /// correct answer per true label, the same for every worker. Without
    /// it, a worker who answered once or twice fits a matrix that can only
    /// agree with itself, and EM on low-redundancy inputs runs to its
    /// iteration cap below majority vote. One pseudo-answer is the most
    /// that costs no E1 cell at `k ≥ 5` more than a point (see `DESIGN.md`
    /// §2).
    pub const DIAGONAL_PRIOR: f64 = 1.0;

    /// Creates the algorithm with custom EM settings.
    pub fn with_config(config: EmConfig) -> Self {
        Self { config }
    }

    /// Runs EM and additionally returns the estimated per-worker confusion
    /// matrices (dense worker index → k×k matrix). The plain
    /// [`TruthInferencer::infer`] entry point skips building them.
    pub fn infer_full(
        &self,
        matrix: &ResponseMatrix,
    ) -> Result<(InferenceResult, Vec<Vec<Vec<f64>>>)> {
        let (result, confusion) = self.fit(matrix)?;
        let k = matrix.num_labels();
        let confusion_rows = confusion
            .chunks(k * k)
            .map(|cm| cm.chunks(k).map(<[f64]>::to_vec).collect())
            .collect();
        Ok((result, confusion_rows))
    }

    /// Runs EM at the width the matrix's label count selects and returns
    /// the result with the flat confusion table.
    fn fit(&self, matrix: &ResponseMatrix) -> Result<(InferenceResult, Vec<f64>)> {
        match matrix.num_labels() {
            2 => self.fit_at(matrix, Fixed::<2>),
            k => self.fit_at(matrix, AnyWidth(k)),
        }
    }

    /// Runs EM with both steps compiled for `width`.
    fn fit_at<W: Width>(
        &self,
        matrix: &ResponseMatrix,
        width: W,
    ) -> Result<(InferenceResult, Vec<f64>)> {
        let cfg = self.config;
        let (result, model) = em::run(
            matrix,
            cfg.max_iters,
            cfg.tol,
            cfg.threads,
            cfg.freeze,
            |cx| DsModel {
                width,
                smoothing: cfg.smoothing,
                confusion: vec![0.0; cx.num_workers() * cx.k * cx.k],
            },
        )?;
        Ok((result, model.confusion))
    }
}

/// The label width the Dawid–Skene steps are compiled for, chosen once per
/// run from the matrix (see the module docs).
trait Width: Copy + Sync {
    /// The label count `k`.
    fn k(self) -> usize;

    /// Runs `build` on a `k`-entry row buffer, then stores it in `out`.
    fn row(self, out: &mut [f64], build: impl FnOnce(&mut [f64]));

    /// Fits one worker's row-stochastic `k × k` confusion matrix `cm` from
    /// its `(task, label)` answers: `smoothing`, plus
    /// [`DawidSkene::DIAGONAL_PRIOR`] on the diagonal, plus the answers'
    /// posterior rows, added in answer order, each confusion row then
    /// normalized.
    fn fit_worker(self, cm: &mut [f64], answers: &[(u32, u32)], posteriors: &[f64], smoothing: f64);
}

/// A width known at compile time: a task's row and a worker's counts are
/// fresh local arrays, read and written whole.
#[derive(Debug, Clone, Copy)]
struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    #[inline(always)]
    fn k(self) -> usize {
        K
    }

    #[inline(always)]
    fn row(self, out: &mut [f64], build: impl FnOnce(&mut [f64])) {
        let mut row = [0.0; K];
        build(&mut row);
        out.copy_from_slice(&row);
    }

    #[inline(always)]
    fn fit_worker(
        self,
        cm: &mut [f64],
        answers: &[(u32, u32)],
        posteriors: &[f64],
        smoothing: f64,
    ) {
        let (rows, _) = posteriors.as_chunks::<K>();
        let mut counts = [[smoothing; K]; K];
        for (truth, row) in counts.iter_mut().enumerate() {
            row[truth] += DawidSkene::DIAGONAL_PRIOR;
        }
        for &(t, l) in answers {
            for (truth, &p) in rows[t as usize].iter().enumerate() {
                counts[truth][l as usize] += p;
            }
        }
        for (out, row) in cm.chunks_exact_mut(K).zip(&mut counts) {
            normalize(row);
            out.copy_from_slice(row);
        }
    }
}

/// Any width, read at run time: the steps work in place in the shared
/// tables.
#[derive(Debug, Clone, Copy)]
struct AnyWidth(usize);

impl Width for AnyWidth {
    #[inline(always)]
    fn k(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn row(self, out: &mut [f64], build: impl FnOnce(&mut [f64])) {
        build(out);
    }

    #[inline(always)]
    fn fit_worker(
        self,
        cm: &mut [f64],
        answers: &[(u32, u32)],
        posteriors: &[f64],
        smoothing: f64,
    ) {
        let k = self.0;
        cm.fill(smoothing);
        for truth in 0..k {
            cm[truth * k + truth] += DawidSkene::DIAGONAL_PRIOR;
        }
        for &(t, l) in answers {
            let row = &posteriors[t as usize * k..][..k];
            for (truth, &p) in row.iter().enumerate() {
                cm[truth * k + l as usize] += p;
            }
        }
        for row in cm.chunks_mut(k) {
            normalize(row);
        }
    }
}

/// The row max below which the E-step rescales, `2^-24`: one factor of at
/// least `LN_FLOOR` leaves a max above it a normal float (asserted below).
const RESCALE_BELOW: f64 = 1.0 / (1u64 << 24) as f64;
const _: () = assert!(RESCALE_BELOW * LN_FLOOR >= f64::MIN_POSITIVE);

/// The Dawid–Skene worker model: one confusion matrix per worker.
struct DsModel<W> {
    width: W,
    smoothing: f64,
    /// `confusion[w*k*k + t*k + l] = π_w[t][l]`.
    confusion: Vec<f64>,
}

impl<W: Width> EmModel for DsModel<W> {
    const ALGO: &'static str = "ds";

    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet) {
        let (width, smoothing) = (self.width, self.smoothing);
        let k = width.k();
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
                width.fit_worker(cm, cx.worker(w), posteriors, smoothing);
            }
        });
    }

    /// `ρ · Π π_w[·][l]`, rescaled and normalized (see the module docs).
    #[inline]
    fn posterior_row(&self, cx: &Csr<'_>, t: usize, priors: &Priors, out: &mut [f64]) {
        let k = self.width.k();
        self.width.row(out, |row| {
            for (x, &p) in row.iter_mut().zip(&priors.p) {
                *x = p.max(LN_FLOOR);
            }
            for &(w, l) in cx.task(t) {
                let cm = &self.confusion[w as usize * k * k..][..k * k];
                let mut max = 0.0f64;
                for (x, truth) in row.iter_mut().zip(cm.chunks_exact(k)) {
                    *x *= truth[l as usize].max(LN_FLOOR);
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
        });
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
        self.fit(matrix).map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::log_normalize;
    use crate::freeze::FreezeConfig;
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
    fn one_task(
        k: usize,
        confusions: Vec<f64>,
        labels: &[u32],
    ) -> (ResponseMatrix, DsModel<AnyWidth>) {
        let rows: Vec<_> = labels.iter().zip(0u64..).map(|(&l, w)| (0, w, l)).collect();
        let model = DsModel {
            width: AnyWidth(k),
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
    fn reference(
        model: &DsModel<AnyWidth>,
        cx: &Csr<'_>,
        t: usize,
        priors: &[f64],
    ) -> (Vec<f64>, f64) {
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
    fn assert_matches_reference(
        model: &DsModel<AnyWidth>,
        cx: &Csr<'_>,
        priors: &[f64],
    ) -> Vec<f64> {
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

    /// Binary matrices of up to 40 tasks and 12 workers, some workers
    /// answering a task twice.
    fn binary_matrices() -> impl Strategy<Value = ResponseMatrix> {
        prop::collection::vec((0u64..40, 0u64..12, 0u32..2), 1..240)
            .prop_map(|rows| matrix(&rows, 2))
    }

    /// Every bit a run hands back: posteriors, labels, worker quality,
    /// iteration count, convergence flag and the confusion table.
    fn run_bits(run: (InferenceResult, Vec<f64>)) -> Vec<u64> {
        let (r, confusion) = run;
        let floats = r.posteriors.iter().flatten();
        let floats = floats.chain(r.worker_quality.iter().flatten());
        let mut bits: Vec<u64> = floats.chain(&confusion).map(|x| x.to_bits()).collect();
        bits.extend(r.labels.iter().map(|&l| u64::from(l)));
        bits.extend([r.iterations as u64, u64::from(r.converged)]);
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn binary_and_general_widths_agree_bit_for_bit(
            m in binary_matrices(),
            eps in prop_oneof![Just(1e-4f64), Just(1e-3), Just(1e-2)],
        ) {
            for freeze in [FreezeConfig::disabled(), FreezeConfig::sparse(eps)] {
                let ds = DawidSkene::with_config(EmConfig::default().with_freeze(freeze));
                let binary = ds.fit_at(&m, Fixed::<2>).expect("non-empty matrix");
                let general = ds.fit_at(&m, AnyWidth(2)).expect("non-empty matrix");
                prop_assert_eq!(run_bits(binary), run_bits(general), "freeze {:?}", freeze);
            }
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
