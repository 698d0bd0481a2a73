//! GLAD: Generative model of Labels, Abilities, and Difficulties
//! (Whitehill et al., 2009), generalized to k labels.
//!
//! Model: worker `w` has ability `α_w ∈ ℝ`; task `t` has inverse
//! difficulty `β_t > 0` (parameterized as `β = e^b` so gradient ascent is
//! unconstrained). The probability that `w` answers `t` correctly is
//! `σ(α_w · β_t)`; wrong answers are uniform over the other `k − 1`
//! labels.
//!
//! Inference is EM: the E-step computes task posteriors exactly as in the
//! one-coin model but with a per-(worker, task) correctness probability;
//! the M-step runs a few steps of gradient ascent on the expected complete
//! log-likelihood with respect to all `α` and `b`.

//!
//! The kernel follows the flat deterministic-parallel layout shared with
//! the other EM algorithms: flat posterior tables, the gradient of `b`
//! accumulating over task ranges (task CSR) and the gradient of `α` over
//! worker ranges (worker CSR), each entity's sum running in fixed
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
//! Freezing also has a worker-side half unique to GLAD: **ability
//! pinning**. The α-gradient walk visits every edge of every worker with
//! at least one active task (frozen tasks' terms depend on the still-
//! moving α, so they cannot be dropped), which would keep the M-step near
//! its dense cost long after most tasks froze. Instead, a worker whose α
//! moves less than `freeze.eps` across a whole M-step for
//! `freeze.patience` consecutive iterations is pinned permanently — its
//! gradient walk is skipped and its α held. Pinning decisions are a pure
//! function of the (thread-invariant) α trajectory and apply identically
//! on the worklist and dense-reference paths, so the bit-equality
//! property tests cover them.

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::par::{parallel_active_items_mut, parallel_items_mut};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crowdkit_obs as obs;

use crate::em::{
    argmax_labels, log_normalize, obs_iter, obs_run, posterior_rows, resolve_threads,
    update_priors, vote_fraction_posteriors,
};
use crate::freeze::{ActiveSet, FreezeConfig};
use crate::lineage::RunLineage;

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
        let mut alpha = vec![1.0f64; n_workers];
        let mut b = vec![0.0f64; n_tasks]; // β = e^b
        // Gradient buffers, hoisted out of the gradient-step loop.
        let mut g_alpha = vec![0.0f64; n_workers];
        let mut g_b = vec![0.0f64; n_tasks];

        // Ability pinning: freezing's worker-side half. A worker whose α
        // moved less than `freeze.eps` across a whole M-step for
        // `freeze.patience` consecutive iterations has its ability pinned —
        // the α-gradient edge walk (the dominant M-step cost once tasks
        // freeze) is skipped from then on. Pinning is permanent and applies
        // identically on the worklist and dense-reference paths: it is part
        // of the freezing *semantics*, decided from the α trajectory, which
        // is byte-identical at any thread count.
        let freeze_on = cfg.freeze.enabled();
        let a_patience = cfg.freeze.patience.max(1);
        let mut alpha_prev = if freeze_on { alpha.clone() } else { Vec::new() };
        let mut alpha_streak = vec![0u32; if freeze_on { n_workers } else { 0 }];
        let mut alpha_pinned = vec![false; if freeze_on { n_workers } else { 0 }];

        // Frozen-edge gradient cache: when a task freezes, each of its
        // edges' α-gradient terms is evaluated once (at freeze-time α) and
        // folded into a per-worker constant `g_frozen`; the live α walk
        // then visits only unfrozen edges. Thawing subtracts the exact
        // cached per-edge values again. Like ability pinning this is
        // freezing *semantics* — the same formula on the worklist and
        // dense-reference paths — not a bitwise-transparent cache.
        // `edge_cache` is task-CSR-aligned (one f64 per observation,
        // allocated only when freezing is on).
        let mut frozen_seen = vec![false; if freeze_on { n_tasks } else { 0 }];
        let mut g_frozen = vec![0.0f64; if freeze_on { n_workers } else { 0 }];
        let mut edge_cache = vec![0.0f64; if freeze_on { t_entries.len() } else { 0 }];

        // The per-observation gradient factor:
        // Σ_l T[t][l] · d log P(answer | truth=l) where the derivative of
        // log σ is (1−s)·∂(αβ) and of log(1−s) is −s·∂(αβ).
        let factor = |post: &[f64], a: f64, beta: f64, t: usize, l: usize| {
            let s = sigmoid(a * beta);
            let p_correct = post[t * k + l];
            p_correct * (1.0 - s) - (1.0 - p_correct) * s
        };

        let tel = obs::scope();
        let obs_on = tel.recorder.enabled();
        let run_start = obs::WallTimer::start();
        // Lineage baseline: the vote-fraction init, i.e. MV's decision.
        let mut lineage = RunLineage::begin(&tel, "glad", &posteriors, k);

        let mut iterations = 0;
        let mut converged = false;
        while iterations < cfg.max_iters {
            iterations += 1;
            let t_m = obs_on.then(obs::WallTimer::start);
            update_priors(&posteriors, k, &mut priors);
            for (lp, &p) in log_priors.iter_mut().zip(&priors) {
                *lp = p.max(1e-300).ln();
            }

            // M-step: gradient ascent on α and b. Both gradients are read
            // from the pre-update parameters: g_b accumulates over task
            // ranges (task CSR) and g_α over worker ranges (worker CSR),
            // each entity in fixed insertion order, then the sequential
            // updates apply both. With freezing on, b only moves for
            // active tasks and α only for unfrozen workers; on the
            // worklist path the b-gradient shards over the active set (the
            // compact slots of g_b), everywhere else over the full range.
            for _ in 0..cfg.gradient_steps {
                let post = &posteriors;
                let alpha_r = &alpha;
                let b_r = &b;
                let aset_r = &aset;
                let alpha_pinned_r = &alpha_pinned;
                let task_gradient = |t: usize| {
                    let beta = b_r[t].exp();
                    let mut acc = 0.0;
                    for &(w, l) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
                        let a = alpha_r[w as usize];
                        acc += factor(post, a, beta, t, l as usize) * a * beta;
                    }
                    acc
                };
                if aset.use_worklist() {
                    parallel_active_items_mut(&mut g_b, 1, aset.active(), threads, |_, t, g| {
                        g[0] = task_gradient(t);
                    });
                } else {
                    parallel_items_mut(&mut g_b, 1, threads, |t0, run| {
                        for (i, g) in run.iter_mut().enumerate() {
                            *g = task_gradient(t0 + i);
                        }
                    });
                }
                let g_frozen_r = &g_frozen;
                parallel_items_mut(&mut g_alpha, 1, threads, |w0, run| {
                    for (i, g) in run.iter_mut().enumerate() {
                        let w = w0 + i;
                        // A frozen or ability-pinned worker's α never
                        // moves, so its gradient is never consumed; skip
                        // the walk over its edges.
                        if (freeze_on && alpha_pinned_r[w]) || aset_r.can_skip_worker_update(w) {
                            continue;
                        }
                        let a = alpha_r[w];
                        // Frozen edges contribute their freeze-time cached
                        // terms as one constant; only live edges pay the
                        // transcendental walk.
                        let mut acc = if freeze_on { g_frozen_r[w] } else { 0.0 };
                        for &(t, l) in &w_entries[w_off[w] as usize..w_off[w + 1] as usize] {
                            let t = t as usize;
                            if freeze_on && aset_r.task_frozen(t) {
                                continue;
                            }
                            let beta = b_r[t].exp();
                            acc += factor(post, a, beta, t, l as usize) * beta;
                        }
                        *g = acc;
                    }
                });
                for (w, a) in alpha.iter_mut().enumerate() {
                    if (freeze_on && alpha_pinned[w]) || aset.worker_frozen(w) {
                        continue;
                    }
                    *a += cfg.learning_rate * (g_alpha[w] - cfg.regularization * (*a - 1.0));
                    *a = a.clamp(-8.0, 8.0);
                }
                if aset.use_worklist() {
                    // g_b holds compact per-slot gradients for the active
                    // worklist; each update reads only its own slot and
                    // parameter, so this matches the full-range update on
                    // unfrozen tasks bit for bit.
                    for (slot, &t) in aset.active().iter().enumerate() {
                        let t = t as usize;
                        let bt = &mut b[t];
                        *bt += cfg.learning_rate * (g_b[slot] - cfg.regularization * *bt);
                        *bt = bt.clamp(-4.0, 4.0);
                    }
                } else {
                    for (t, bt) in b.iter_mut().enumerate() {
                        if aset.task_frozen(t) {
                            continue;
                        }
                        *bt += cfg.learning_rate * (g_b[t] - cfg.regularization * *bt);
                        *bt = bt.clamp(-4.0, 4.0);
                    }
                }
            }

            // Ability-pinning decisions, sequential in ascending worker
            // order: compare each α against its value one full M-step ago.
            if freeze_on {
                for w in 0..n_workers {
                    if alpha_pinned[w] {
                        continue;
                    }
                    if (alpha[w] - alpha_prev[w]).abs() < cfg.freeze.eps {
                        alpha_streak[w] += 1;
                        if alpha_streak[w] >= a_patience {
                            alpha_pinned[w] = true;
                        }
                    } else {
                        alpha_streak[w] = 0;
                    }
                    alpha_prev[w] = alpha[w];
                }
            }

            let m_ns = t_m.map_or(0, |t| t.elapsed_ns());
            let t_e = obs_on.then(obs::WallTimer::start);

            // E-step over the active worklist (all tasks while freezing is
            // off), with the one-coin scalar-update trick (each
            // observation contributes a base mass to all labels and a
            // right/wrong correction to its own).
            let log_priors_r = &log_priors;
            let alpha_r = &alpha;
            let b_r = &b;
            let out = aset.sweep(&mut posteriors, t_off, t_entries, threads, |t, row| {
                row.copy_from_slice(log_priors_r);
                let beta = b_r[t].exp();
                let mut base = 0.0;
                for &(w, l) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
                    let s = sigmoid(alpha_r[w as usize] * beta).clamp(1e-9, 1.0 - 1e-9);
                    let right = s.ln();
                    let wrong = ((1.0 - s) * wrong_share).ln();
                    base += wrong;
                    row[l as usize] += right - wrong;
                }
                for x in row.iter_mut() {
                    *x += base;
                }
                log_normalize(row);
            });

            // Fold freeze/thaw transitions into the frozen-edge gradient
            // cache, sequentially in ascending task order. Freezing adds
            // each edge's term evaluated at the just-pinned posterior/b and
            // current α; thawing subtracts the exact cached values.
            if freeze_on && (out.froze > 0 || out.thawed > 0) {
                for t in 0..n_tasks {
                    let now = aset.task_frozen(t);
                    if now == frozen_seen[t] {
                        continue;
                    }
                    frozen_seen[t] = now;
                    let beta = b[t].exp();
                    let lo = t_off[t] as usize;
                    for (e, &(w, l)) in t_entries[lo..t_off[t + 1] as usize].iter().enumerate() {
                        let w = w as usize;
                        if now {
                            let c = factor(&posteriors, alpha[w], beta, t, l as usize) * beta;
                            edge_cache[lo + e] = c;
                            g_frozen[w] += c;
                        } else {
                            g_frozen[w] -= edge_cache[lo + e];
                        }
                    }
                }
            }

            let delta = out.delta;
            if let Some(l) = &mut lineage {
                // Committed table after the sweep — identical bits on the
                // sparse and dense-reference paths, so lineage matches.
                l.observe_iter(iterations, &posteriors);
            }
            if obs_on {
                let e_ns = t_e.map_or(0, |t| t.elapsed_ns());
                obs_iter(&tel, "glad", iterations, delta, m_ns, e_ns);
                aset.observe(&tel, "glad", iterations, &out);
            }
            if delta < cfg.tol {
                converged = true;
                break;
            }
        }

        let labels = argmax_labels(&posteriors, k);
        // Scalar worker quality: σ(α) — correctness probability on a task of
        // reference difficulty β = 1.
        let worker_quality: Option<Vec<f64>> = Some(alpha.iter().map(|&a| sigmoid(a)).collect());
        if let Some(l) = lineage.take() {
            l.finish(&*tel.recorder, matrix, &posteriors, worker_quality.as_deref());
        }
        obs_run(&tel, "glad", matrix, iterations, converged, run_start);
        let params = GladParams {
            abilities: alpha,
            inverse_difficulties: b.iter().map(|&x| x.exp()).collect(),
        };
        Ok((
            InferenceResult {
                labels,
                posteriors: posterior_rows(&posteriors, k),
                worker_quality,
                iterations,
                converged,
            },
            params,
        ))
    }
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
        // and the frozen-edge gradient cache included) is an approximation
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
