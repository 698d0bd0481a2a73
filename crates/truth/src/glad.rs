//! GLAD: Generative model of Labels, Abilities, and Difficulties
//! (Whitehill et al., 2009), generalized to k labels.
//!
//! Model: worker `w` has ability `α_w ∈ ℝ`; task `t` has inverse
//! difficulty `β_t > 0` (parameterized as `β = e^b` so every update is
//! unconstrained). The probability that `w` answers `t` correctly is
//! `s = σ(α_w · β_t)`; wrong answers are uniform over the other `k − 1`
//! labels. Gaussian priors `α ~ N(1, 1/λα)` and `b ~ N(0, 1/λb)` keep the
//! parameters finite.
//!
//! Inference is EM, run by [`crate::em`]'s shared loop. In the E-step an
//! answer of label `l` scales `l`'s likelihood by `s` and every other
//! label's by `(1 − s)/(k − 1)`. In log space that is
//! `ln((1 − s)/(k − 1))` on every label of the task, which the row's
//! closing `log_normalize` cancels, plus `ln s − ln((1 − s)/(k − 1))`,
//! which is `αβ + ln(k − 1)`, on `l`; so an answer adds `αβ + ln(k − 1)`
//! to its own label and nothing else, with no `exp`, `ln` or division.
//! `αβ` is clamped to `±ln((1 − 1e-9)/1e-9)`, the log-odds of keeping `s`
//! inside `[1e-9, 1 − 1e-9]`, so no one answer outweighs a billion to one.
//!
//! The M-step, this model's `m_step`, takes one Fisher-scoring step per
//! coordinate on the expected complete log-posterior. With `p` the
//! posterior that an edge's answer is right, each `α_w` moves by its
//! gradient `Σ β(p − s) − λα(α − 1)` over its expected curvature
//! `Σ β²s(1 − s) + λα` at the current `b`; then each `b_t` moves by
//! `Σ αβ(p − s) − λb·b` over `Σ α²β²s(1 − s) + λb` at the new `α`. The
//! curvatures are expectations and positive everywhere (for α the
//! expectation is the exact curvature, so its step is a Newton step);
//! each step lands near its coordinate's optimum instead of creeping
//! toward it at a fixed rate. The M-step walks the edges twice: α over
//! worker ranges (worker CSR), b over task ranges (task CSR), each
//! entity's sums running in fixed insertion order — so results are
//! byte-identical at any thread count. Each task keeps `β = e^b` beside
//! `b`, written by the b step whenever `b` moves, so the α step takes one
//! `exp` per edge (the sigmoid's) and the E-step none.
//!
//! With the sparse incremental E-step on (`config.freeze`, see
//! [`crate::freeze`]), freezing pins a frozen task's posterior row *and*
//! its difficulty `b_t`; a worker all of whose tasks froze has its ability
//! `α_w` pinned as part of the same semantics.
//! A worker whose α moves less than `freeze.eps` across a whole M-step for
//! two consecutive iterations (`PATIENCE`) is pinned too, permanently: its
//! edge walk is skipped and its α held. Both are decided from the
//! (thread-invariant) α trajectory and applied identically on the worklist
//! and dense-reference paths, so the bit-equality property tests cover
//! them.
//!
//! A live worker's α step walks every one of its edges, frozen tasks
//! included, at the current α. Folding frozen edges into a per-worker
//! summary taken when their task froze would skip part of that walk, but
//! the summary goes stale as α moves: held constant it never pulls back
//! and drives abilities onto the ±8 clamp, and even linearized in α it
//! biases abilities enough to cost accuracy against Dawid–Skene (see
//! `tests/glad_converges.rs`).

use crowdkit_core::error::Result;
use crowdkit_core::par::{parallel_active_items_mut, parallel_items_mut};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::{self, Csr, EmModel, Priors};
use crate::freeze::{ActiveSet, FreezeConfig, PATIENCE};

/// Prior precision λα of `α ~ N(1, 1/λα)`. At 1 it holds abilities so
/// close to 1 that on a small matrix the class prior outweighs a task's
/// two unanimous votes.
const ALPHA_PRECISION: f64 = 0.1;

/// Prior precision λb of `b ~ N(0, 1/λb)`. At 0.1 difficulties keep
/// drifting and GLAD needs about 2.5 times the EM iterations.
const B_PRECISION: f64 = 1.0;

/// The most log-odds one answer carries, `ln((1 − 1e-9)/1e-9)`: the logit
/// of the clamp `[1e-9, 1 − 1e-9]` on the correctness probability `s`.
const MAX_LOG_ODDS: f64 = 20.723_265_835_946_41;

/// Settings for [`Glad`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GladConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on posterior movement.
    pub tol: f64,
    /// Worker-pool width for the E/M kernels, which use at most this many
    /// threads (one below the size that pays for a fork, as for
    /// [`EmConfig::threads`](crate::em::EmConfig::threads)); `0` picks
    /// automatically from the problem size. Results are byte-identical at
    /// every setting.
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
            threads: 0,
            freeze: FreezeConfig::disabled(),
        }
    }
}

impl GladConfig {
    /// Returns a copy capped at `threads` kernel threads.
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
            |cx| GladModel::new(cx, cfg.freeze),
        )?;
        let params = GladParams {
            inverse_difficulties: model.difficulty.iter().map(|d| d.beta).collect(),
            abilities: model.alpha,
        };
        Ok((result, params))
    }
}

/// The GLAD worker-and-task model.
struct GladModel {
    freeze: FreezeConfig,
    /// `ln(k − 1)`, what an answer adds to its label's log-odds against
    /// any one wrong label beyond `αβ` (0 at `k ≤ 2`).
    ln_wrong_labels: f64,
    /// Ability per worker.
    alpha: Vec<f64>,
    /// Difficulty per task.
    difficulty: Vec<Difficulty>,
    /// On the worklist path: the new difficulty of each active task, one
    /// compact slot per worklist entry.
    difficulty_active: Vec<Difficulty>,
    /// Ability pinning: α one M-step ago, the count of consecutive
    /// M-steps it moved less than `eps`, and whether it is pinned.
    alpha_prev: Vec<f64>,
    alpha_streak: Vec<u32>,
    alpha_pinned: Vec<bool>,
}

/// A task's log inverse difficulty `b` and its `β = e^b`. The b step
/// writes both whenever `b` moves, so every other reader of `β` (the α
/// step on each edge, the E-step, `infer_full`) takes no `exp` for it.
#[derive(Clone, Copy)]
struct Difficulty {
    b: f64,
    beta: f64,
}

impl Difficulty {
    fn new(b: f64) -> Self {
        Self { b, beta: b.exp() }
    }
}

impl GladModel {
    /// Every ability at the prior mean 1 and every difficulty at `b = 0`.
    fn new(cx: &Csr<'_>, freeze: FreezeConfig) -> Self {
        let (n_tasks, n_workers) = (cx.num_tasks(), cx.num_workers());
        Self {
            freeze,
            ln_wrong_labels: (cx.k as f64 - 1.0).max(1.0).ln(),
            alpha: vec![1.0; n_workers],
            difficulty: vec![Difficulty::new(0.0); n_tasks],
            difficulty_active: vec![Difficulty::new(0.0); n_tasks],
            alpha_prev: vec![1.0; n_workers],
            alpha_streak: vec![0; n_workers],
            alpha_pinned: vec![false; n_workers],
        }
    }
}

impl EmModel for GladModel {
    const ALGO: &'static str = "glad";

    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet) {
        let k = cx.k;
        // α first, at the current b. A worker's step reads only its own
        // α, so the kernel updates α in place. With freezing on, α only
        // moves for unfrozen, unpinned workers.
        let (difficulty, pinned) = (&self.difficulty, &self.alpha_pinned);
        parallel_items_mut(&mut self.alpha, 1, cx.threads, |w0, run| {
            for (i, a) in run.iter_mut().enumerate() {
                let w = w0 + i;
                if pinned[w] || aset.worker_frozen(w) {
                    continue;
                }
                let mut grad = -ALPHA_PRECISION * (*a - 1.0);
                let mut curv = ALPHA_PRECISION;
                for &(t, l) in cx.worker(w) {
                    let beta = difficulty[t as usize].beta;
                    let s = sigmoid(*a * beta);
                    grad += beta * (posteriors[t as usize * k + l as usize] - s);
                    curv += beta * beta * s * (1.0 - s);
                }
                *a = (*a + grad / curv).clamp(-8.0, 8.0);
            }
        });

        // Then b, at the new α, with β = e^b refreshed in the same step.
        // b only moves for active tasks: on the worklist path the kernel
        // shards over the active set into the compact slots of
        // `difficulty_active`, scattered back in ascending task order;
        // everywhere else it updates `difficulty` in place over the full
        // range.
        let alpha = &self.alpha;
        let task_step = |t: usize, Difficulty { b: bt, beta }: Difficulty| {
            let mut grad = -B_PRECISION * bt;
            let mut curv = B_PRECISION;
            for &(w, l) in cx.task(t) {
                let ab = alpha[w as usize] * beta;
                let s = sigmoid(ab);
                grad += ab * (posteriors[t * k + l as usize] - s);
                curv += ab * ab * s * (1.0 - s);
            }
            Difficulty::new((bt + grad / curv).clamp(-4.0, 4.0))
        };
        if aset.use_worklist() {
            let difficulty = &self.difficulty;
            parallel_active_items_mut(
                &mut self.difficulty_active,
                1,
                aset.active(),
                cx.threads,
                |_, t, out| out[0] = task_step(t, difficulty[t]),
            );
            for (&t, &d) in aset.active().iter().zip(&self.difficulty_active) {
                self.difficulty[t as usize] = d;
            }
        } else {
            parallel_items_mut(&mut self.difficulty, 1, cx.threads, |t0, run| {
                for (i, d) in run.iter_mut().enumerate() {
                    if !aset.task_frozen(t0 + i) {
                        *d = task_step(t0 + i, *d);
                    }
                }
            });
        }

        // Ability-pinning decisions, sequential in ascending worker order:
        // compare each α against its value one full M-step ago.
        if self.freeze.enabled() {
            for w in 0..self.alpha.len() {
                if self.alpha_pinned[w] {
                    continue;
                }
                if (self.alpha[w] - self.alpha_prev[w]).abs() < self.freeze.eps {
                    self.alpha_streak[w] += 1;
                    self.alpha_pinned[w] = self.alpha_streak[w] >= PATIENCE;
                } else {
                    self.alpha_streak[w] = 0;
                }
                self.alpha_prev[w] = self.alpha[w];
            }
        }
    }

    /// From the log priors, each answer adds its clamped log-odds `αβ` and
    /// `ln(k − 1)` to the label it gave. The `ln((1 − s)/(k − 1))` every
    /// answer also puts on every label is left out: the same for all of a
    /// task's labels, it cancels in `em::log_normalize`.
    #[inline]
    fn posterior_row(&self, cx: &Csr<'_>, t: usize, priors: &Priors, row: &mut [f64]) {
        row.copy_from_slice(&priors.ln);
        let beta = self.difficulty[t].beta;
        for &(w, l) in cx.task(t) {
            let log_odds = (self.alpha[w as usize] * beta).clamp(-MAX_LOG_ODDS, MAX_LOG_ODDS);
            row[l as usize] += log_odds + self.ln_wrong_labels;
        }
        em::log_normalize(row);
    }

    /// σ(α): the correctness probability on a task of reference difficulty
    /// β = 1.
    fn worker_quality(&self, _priors: &[f64]) -> Vec<f64> {
        self.alpha.iter().map(|&a| sigmoid(a)).collect()
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
    use proptest::prelude::*;

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
        // included) is an approximation
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

    /// The E-step term by term, as it was before it added log-odds:
    /// `ln s − ln((1 − s)/(k − 1))` on each answer's label and
    /// `ln((1 − s)/(k − 1))` on every label, with `s` clamped to
    /// `[1e-9, 1 − 1e-9]`. Returns a bound on its own error in any one
    /// label's sum: `s` carries an absolute rounding error of about `ε`,
    /// which `1 − s` keeps, so `ln(1 − s)` is off by up to about
    /// `ε/(1 − s)` (by 2.8e-8 at the upper clamp, where `1 − fl(1 − 1e-9)`
    /// is 9.99999972e-10 rather than 1e-9); the bound takes twice that
    /// per answer.
    fn reference(model: &GladModel, cx: &Csr<'_>, t: usize, row: &mut [f64]) -> f64 {
        let wrong_share = 1.0 / (cx.k as f64 - 1.0).max(1.0);
        let beta = model.difficulty[t].beta;
        let (mut base, mut err) = (0.0, 0.0);
        for &(w, l) in cx.task(t) {
            let s = sigmoid(model.alpha[w as usize] * beta).clamp(1e-9, 1.0 - 1e-9);
            let right = s.ln();
            let wrong = ((1.0 - s) * wrong_share).ln();
            base += wrong;
            row[l as usize] += right - wrong;
            err += 2.0 * f64::EPSILON / (1.0 - s);
        }
        for x in row.iter_mut() {
            *x += base;
        }
        err
    }

    /// One task's E-step inputs: `k` from 2 to 6, its log priors, its
    /// `b`, and 1 to 12 answers as (the worker's `α`, the label). With
    /// `β = e^b` up to 54.6, `|αβ|` reaches 437, far past the clamp.
    fn task_inputs() -> impl Strategy<Value = (usize, Vec<f64>, f64, Vec<(f64, u32)>)> {
        (
            2usize..7,
            prop::collection::vec(0.01f64..1.0, 6),
            -4.0f64..4.0,
            prop::collection::vec((-8.0f64..8.0, 0u32..60), 1..13),
        )
            .prop_map(|(k, priors, b, answers)| {
                let log_priors = priors[..k].iter().map(|p| p.ln()).collect();
                let answers = answers.iter().map(|&(a, l)| (a, l % k as u32)).collect();
                (k, log_priors, b, answers)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// After `log_normalize`, the E-step's row equals the reference's
        /// to 1e-12 plus what the reference's own error can move it: a
        /// log term off by `δ` moves a posterior `p` by at most
        /// `2p(1 − p)δ`.
        #[test]
        fn accumulate_matches_the_per_edge_reference(
            (k, log_priors, b, answers) in task_inputs()
        ) {
            let rows: Vec<_> = answers
                .iter()
                .zip(0u64..)
                .map(|(&(_, l), w)| (0, w, l))
                .collect();
            let m = matrix(&rows, k);
            let cx = Csr::new(&m, 1);
            let mut model = GladModel::new(&cx, FreezeConfig::disabled());
            model.alpha = answers.iter().map(|&(a, _)| a).collect();
            model.difficulty[0] = Difficulty::new(b);

            let mut row = vec![0.0; k];
            let priors = Priors { p: Vec::new(), ln: log_priors.clone() };
            model.posterior_row(&cx, 0, &priors, &mut row);
            let mut want = log_priors.clone();
            let err = reference(&model, &cx, 0, &mut want);
            em::log_normalize(&mut want);
            for (&got, &p) in row.iter().zip(&want) {
                let tol = 1e-12 + 2.0 * p * (1.0 - p) * err;
                prop_assert!(
                    (got - p).abs() <= tol,
                    "k {} b {} answers {:?}: {:?} vs reference {:?}",
                    k, b, answers, row, want
                );
            }
        }
    }

    #[test]
    fn max_log_odds_is_the_logit_of_the_clamp() {
        let logit = ((1.0 - 1e-9) / 1e-9f64).ln();
        assert!((MAX_LOG_ODDS - logit).abs() < 1e-14, "{logit}");
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
