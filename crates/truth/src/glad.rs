//! GLAD: Generative model of Labels, Abilities, and Difficulties
//! (Whitehill et al., 2009), generalized to k labels.
//!
//! Model: worker `w` has ability `α_w ∈ ℝ`; task `t` has inverse
//! difficulty `β_t > 0` (parameterized as `β = e^b` so gradient ascent is
//! unconstrained). The probability that `w` answers `t` correctly is
//! `σ(α_w · β_t)`; wrong answers are uniform over the other `k − 1`
//! labels.
//!
//! Inference is EM, run by the driver in [`crate::em`]: the E-step
//! computes task posteriors exactly as in the one-coin model but with a
//! per-(worker, task) correctness probability; the M-step, this model's
//! `m_step`, runs a few steps of gradient ascent on the
//! expected complete log-likelihood with respect to all `α` and `b`. It is
//! the one place GLAD walks its edges for the gradient: the gradient of
//! `b` accumulates over task ranges (task CSR) and the gradient of `α`
//! over worker ranges (worker CSR), each entity's sum running in fixed
//! insertion order — so results are byte-identical at any thread count.
//!
//! GLAD is the kernel that gains the most from the sparse incremental
//! E-step (`config.freeze`, see [`crate::freeze`]): it runs many more
//! iterations than Dawid–Skene and its per-iteration cost is dominated by
//! per-task work (the E-step plus `gradient_steps` difficulty-gradient
//! sweeps), all of which shrinks with the active set. Freezing pins a
//! frozen task's posterior row *and* its difficulty `b_t`; a worker all
//! of whose tasks froze has its ability `α_w` pinned as part of the same
//! semantics (α's gradient depends on α itself, so skipping its update is
//! a modelling choice, not a cached recompute).
//!
//! Freezing also has a worker-side half unique to GLAD. The α-gradient
//! walk visits every edge of every worker with at least one active task,
//! which would keep the M-step near its dense cost long after most tasks
//! froze. Two mechanisms cut it down:
//!
//! * **Frozen edges fold into a constant.** When a task freezes, each of
//!   its edges' α-gradient terms is evaluated once, at freeze-time α, and
//!   added to a per-worker constant; the live walk starts from that
//!   constant and visits only unfrozen edges.
//! * **Ability pinning.** A worker whose α moves less than `freeze.eps`
//!   across a whole M-step for two consecutive iterations (`PATIENCE`) is
//!   pinned permanently — its gradient walk is skipped and its α held.
//!
//! Both are freezing *semantics*, decided from the (thread-invariant) α
//! trajectory and applied identically on the worklist and dense-reference
//! paths, so the bit-equality property tests cover them.

use crowdkit_core::error::Result;
use crowdkit_core::par::{parallel_active_items_mut, parallel_items_mut};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::{self, Csr, EmModel};
use crate::freeze::{ActiveSet, FreezeConfig, PATIENCE};

/// Settings for [`Glad`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GladConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on posterior movement.
    pub tol: f64,
    /// Gradient-ascent steps per M-step.
    pub gradient_steps: usize,
    /// Gradient-ascent learning rate.
    pub learning_rate: f64,
    /// L2 pull of abilities/difficulties toward their priors (α→1, b→0);
    /// keeps parameters from diverging on tiny datasets.
    pub regularization: f64,
    /// Worker-pool width for the E/M kernels; `0` picks automatically from
    /// the problem size. Results are byte-identical at every setting.
    pub threads: usize,
    /// Per-task convergence freezing (the sparse incremental E-step).
    /// Disabled by default; see [`FreezeConfig`].
    pub freeze: FreezeConfig,
}

impl Default for GladConfig {
    fn default() -> Self {
        Self {
            max_iters: 60,
            tol: 1e-5,
            gradient_steps: 8,
            learning_rate: 0.05,
            regularization: 0.01,
            threads: 0,
            freeze: FreezeConfig::disabled(),
        }
    }
}

impl GladConfig {
    /// Returns a copy pinned to `threads` kernel threads.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// Returns a copy with the given freezing settings.
    pub fn with_freeze(self, freeze: FreezeConfig) -> Self {
        Self { freeze, ..self }
    }
}

/// The GLAD algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Glad {
    /// Iteration/optimization settings.
    pub config: GladConfig,
}

/// Estimated GLAD parameters, exposed by [`Glad::infer_full`].
#[derive(Debug, Clone, PartialEq)]
pub struct GladParams {
    /// Ability per dense worker index.
    pub abilities: Vec<f64>,
    /// Inverse difficulty `β = e^b` per dense task index.
    pub inverse_difficulties: Vec<f64>,
}

impl Glad {
    /// Creates the algorithm with custom settings.
    pub fn with_config(config: GladConfig) -> Self {
        Self { config }
    }

    /// Runs EM and also returns the fitted ability/difficulty parameters.
    pub fn infer_full(&self, matrix: &ResponseMatrix) -> Result<(InferenceResult, GladParams)> {
        let cfg = self.config;
        let (result, model) = em::run(
            matrix,
            cfg.max_iters,
            cfg.tol,
            cfg.threads,
            cfg.freeze,
            |cx| {
                let (n_tasks, n_workers) = (cx.num_tasks(), cx.num_workers());
                GladModel {
                    cfg,
                    wrong_share: 1.0 / (cx.k as f64 - 1.0).max(1.0),
                    alpha: vec![1.0; n_workers],
                    b: vec![0.0; n_tasks],
                    g_alpha: vec![0.0; n_workers],
                    g_b: vec![0.0; n_tasks],
                    g_frozen: vec![0.0; n_workers],
                    alpha_prev: vec![1.0; n_workers],
                    alpha_streak: vec![0; n_workers],
                    alpha_pinned: vec![false; n_workers],
                }
            },
        )?;
        let params = GladParams {
            inverse_difficulties: model.b.iter().map(|&x| x.exp()).collect(),
            abilities: model.alpha,
        };
        Ok((result, params))
    }
}

/// The GLAD worker-and-task model.
struct GladModel {
    cfg: GladConfig,
    /// Each wrong label's share of a wrong answer, `1 / (k − 1)`.
    wrong_share: f64,
    /// Ability per worker.
    alpha: Vec<f64>,
    /// Log inverse difficulty per task (`β = e^b`).
    b: Vec<f64>,
    /// Gradient buffers, reused by every gradient step. With the worklist
    /// live, `g_b` holds one compact slot per active task.
    g_alpha: Vec<f64>,
    g_b: Vec<f64>,
    /// Per worker: the summed α-gradient terms of its frozen edges, each
    /// evaluated once when its task froze.
    g_frozen: Vec<f64>,
    /// Ability pinning: α one M-step ago, the count of consecutive
    /// M-steps it moved less than `eps`, and whether it is pinned.
    alpha_prev: Vec<f64>,
    alpha_streak: Vec<u32>,
    alpha_pinned: Vec<bool>,
}

impl EmModel for GladModel {
    const ALGO: &'static str = "glad";

    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet) {
        let cfg = self.cfg;
        let k = cx.k;
        // Gradient ascent on α and b. Both gradients are read from the
        // pre-update parameters: g_b accumulates over task ranges (task
        // CSR) and g_α over worker ranges (worker CSR), each entity in
        // fixed insertion order, then the sequential updates apply both.
        // With freezing on, b only moves for active tasks and α only for
        // unfrozen, unpinned workers; on the worklist path the b-gradient
        // shards over the active set (the compact slots of g_b),
        // everywhere else over the full range.
        for _ in 0..cfg.gradient_steps {
            let (alpha, b) = (&self.alpha, &self.b);
            let task_gradient = |t: usize| {
                let beta = b[t].exp();
                let mut acc = 0.0;
                for &(w, l) in cx.task(t) {
                    let a = alpha[w as usize];
                    acc += factor(posteriors, k, a, beta, t, l as usize) * a * beta;
                }
                acc
            };
            if aset.use_worklist() {
                parallel_active_items_mut(
                    &mut self.g_b,
                    1,
                    aset.active(),
                    cx.threads,
                    |_, t, g| {
                        g[0] = task_gradient(t);
                    },
                );
            } else {
                parallel_items_mut(&mut self.g_b, 1, cx.threads, |t0, run| {
                    for (i, g) in run.iter_mut().enumerate() {
                        *g = task_gradient(t0 + i);
                    }
                });
            }
            let (pinned, g_frozen) = (&self.alpha_pinned, &self.g_frozen);
            parallel_items_mut(&mut self.g_alpha, 1, cx.threads, |w0, run| {
                for (i, g) in run.iter_mut().enumerate() {
                    let w = w0 + i;
                    // A frozen or ability-pinned worker's α never moves,
                    // so its gradient is never consumed; skip the walk
                    // over its edges.
                    if pinned[w] || aset.can_skip_worker_update(w) {
                        continue;
                    }
                    let a = alpha[w];
                    // Frozen edges contribute their folded terms as one
                    // constant; only live edges pay the transcendental
                    // walk.
                    let mut acc = g_frozen[w];
                    for &(t, l) in cx.worker(w) {
                        let t = t as usize;
                        if aset.task_frozen(t) {
                            continue;
                        }
                        let beta = b[t].exp();
                        acc += factor(posteriors, k, a, beta, t, l as usize) * beta;
                    }
                    *g = acc;
                }
            });
            for (w, a) in self.alpha.iter_mut().enumerate() {
                if self.alpha_pinned[w] || aset.worker_frozen(w) {
                    continue;
                }
                *a += cfg.learning_rate * (self.g_alpha[w] - cfg.regularization * (*a - 1.0));
                *a = a.clamp(-8.0, 8.0);
            }
            if aset.use_worklist() {
                // g_b holds compact per-slot gradients for the active
                // worklist; each update reads only its own slot and
                // parameter, so this matches the full-range update on
                // unfrozen tasks bit for bit.
                for (slot, &t) in aset.active().iter().enumerate() {
                    let bt = &mut self.b[t as usize];
                    *bt += cfg.learning_rate * (self.g_b[slot] - cfg.regularization * *bt);
                    *bt = bt.clamp(-4.0, 4.0);
                }
            } else {
                for (t, bt) in self.b.iter_mut().enumerate() {
                    if aset.task_frozen(t) {
                        continue;
                    }
                    *bt += cfg.learning_rate * (self.g_b[t] - cfg.regularization * *bt);
                    *bt = bt.clamp(-4.0, 4.0);
                }
            }
        }

        // Ability-pinning decisions, sequential in ascending worker order:
        // compare each α against its value one full M-step ago.
        if cfg.freeze.enabled() {
            for w in 0..self.alpha.len() {
                if self.alpha_pinned[w] {
                    continue;
                }
                if (self.alpha[w] - self.alpha_prev[w]).abs() < cfg.freeze.eps {
                    self.alpha_streak[w] += 1;
                    self.alpha_pinned[w] = self.alpha_streak[w] >= PATIENCE;
                } else {
                    self.alpha_streak[w] = 0;
                }
                self.alpha_prev[w] = self.alpha[w];
            }
        }
    }

    /// The one-coin scalar update with a per-edge correctness
    /// probability: each observation contributes a base mass to all
    /// labels and a right/wrong correction to its own.
    #[inline]
    fn accumulate(&self, cx: &Csr<'_>, t: usize, row: &mut [f64]) {
        let beta = self.b[t].exp();
        let mut base = 0.0;
        for &(w, l) in cx.task(t) {
            let s = sigmoid(self.alpha[w as usize] * beta).clamp(1e-9, 1.0 - 1e-9);
            let right = s.ln();
            let wrong = ((1.0 - s) * self.wrong_share).ln();
            base += wrong;
            row[l as usize] += right - wrong;
        }
        for x in row.iter_mut() {
            *x += base;
        }
    }

    /// Adds each newly frozen edge's α-gradient term, evaluated at the
    /// just-pinned posterior and `b` and the current α, to its worker's
    /// constant — in ascending task order, the fixed reduction order.
    fn fold_frozen(&mut self, cx: &Csr<'_>, posteriors: &[f64], tasks: &[u32]) {
        for &t in tasks {
            let t = t as usize;
            let beta = self.b[t].exp();
            for &(w, l) in cx.task(t) {
                let w = w as usize;
                self.g_frozen[w] +=
                    factor(posteriors, cx.k, self.alpha[w], beta, t, l as usize) * beta;
            }
        }
    }

    /// σ(α): the correctness probability on a task of reference difficulty
    /// β = 1.
    fn worker_quality(&self, _priors: &[f64]) -> Vec<f64> {
        self.alpha.iter().map(|&a| sigmoid(a)).collect()
    }
}

/// The per-observation gradient factor:
/// Σ_l T[t][l] · d log P(answer | truth=l) where the derivative of
/// log σ is (1−s)·∂(αβ) and of log(1−s) is −s·∂(αβ).
#[inline]
fn factor(post: &[f64], k: usize, a: f64, beta: f64, t: usize, l: usize) -> f64 {
    let s = sigmoid(a * beta);
    let p_correct = post[t * k + l];
    p_correct * (1.0 - s) - (1.0 - p_correct) * s
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl TruthInferencer for Glad {
    fn name(&self) -> &'static str {
        "glad"
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
    fn recovers_unanimous_truth() {
        let m = matrix(&[(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)], 2);
        let r = Glad::default().infer(&m).unwrap();
        assert_eq!(r.labels, vec![1, 0]);
    }

    #[test]
    fn ability_separates_good_and_bad_workers() {
        let mut rows = Vec::new();
        for t in 0..40u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth));
            rows.push((t, 1, truth));
            rows.push((t, 2, truth));
            rows.push((t, 3, 1 - truth)); // adversary
        }
        let m = matrix(&rows, 2);
        let (r, params) = Glad::default().infer_full(&m).unwrap();
        let good = m.worker_index(WorkerId::new(0)).unwrap();
        let bad = m.worker_index(WorkerId::new(3)).unwrap();
        assert!(
            params.abilities[good] > params.abilities[bad],
            "α_good {} vs α_bad {}",
            params.abilities[good],
            params.abilities[bad]
        );
        assert!(params.abilities[bad] < 0.0, "adversary ability negative");
        let q = r.worker_quality.unwrap();
        assert!(q[good] > 0.5 && q[bad] < 0.5);
    }

    #[test]
    fn contested_tasks_get_lower_inverse_difficulty() {
        // Tasks 0..5: unanimous. Task 5: workers split 2–2.
        let mut rows = Vec::new();
        for t in 0..5u64 {
            for w in 0..4u64 {
                rows.push((t, w, 1u32));
            }
        }
        rows.push((5, 0, 1));
        rows.push((5, 1, 1));
        rows.push((5, 2, 0));
        rows.push((5, 3, 0));
        let m = matrix(&rows, 2);
        let (_, params) = Glad::default().infer_full(&m).unwrap();
        let easy = m.task_index(TaskId::new(0)).unwrap();
        let hard = m.task_index(TaskId::new(5)).unwrap();
        assert!(
            params.inverse_difficulties[easy] > params.inverse_difficulties[hard],
            "β_easy {} vs β_hard {}",
            params.inverse_difficulties[easy],
            params.inverse_difficulties[hard]
        );
    }

    #[test]
    fn posteriors_are_distributions() {
        let m = matrix(&[(0, 0, 0), (0, 1, 1), (1, 1, 2)], 3);
        let r = Glad::default().infer(&m).unwrap();
        for row in &r.posteriors {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_empty_matrix() {
        assert!(Glad::default().infer(&ResponseMatrix::new(2)).is_err());
    }

    #[test]
    fn freezing_preserves_labels_and_worker_ranking() {
        // The ability_separates dataset: three faithful workers, one
        // adversary, 40 well-separated tasks. Freezing (ability pinning
        // and the frozen-edge fold included) is an approximation
        // of the dense trajectory, but on separated data it must land on
        // the same labels and the same good/bad worker ordering.
        let mut rows = Vec::new();
        for t in 0..40u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth));
            rows.push((t, 1, truth));
            rows.push((t, 2, truth));
            rows.push((t, 3, 1 - truth));
        }
        let m = matrix(&rows, 2);
        let dense = Glad::default().infer(&m).unwrap();
        let cfg = GladConfig::default().with_freeze(crate::freeze::FreezeConfig::sparse(1e-3));
        let (sparse, params) = Glad::with_config(cfg).infer_full(&m).unwrap();
        assert_eq!(dense.labels, sparse.labels);
        let good = m.worker_index(WorkerId::new(0)).unwrap();
        let bad = m.worker_index(WorkerId::new(3)).unwrap();
        assert!(params.abilities[good] > params.abilities[bad]);
        assert!(params.abilities[bad] < 0.0);
    }

    #[test]
    fn parameters_stay_bounded() {
        let mut rows = Vec::new();
        for t in 0..10u64 {
            for w in 0..3u64 {
                rows.push((t, w, ((t + w) % 2) as u32));
            }
        }
        let m = matrix(&rows, 2);
        let (_, params) = Glad::default().infer_full(&m).unwrap();
        for &a in &params.abilities {
            assert!((-8.0..=8.0).contains(&a));
        }
        for &bi in &params.inverse_difficulties {
            assert!(bi > 0.0 && bi.is_finite());
        }
    }
}
