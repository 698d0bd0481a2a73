//! The EM driver and the machinery shared by the EM-family algorithms.
//!
//! Dawid–Skene, one-coin and GLAD differ only in their worker model, so
//! one loop, `run`, drives all three: it initializes task posteriors
//! from the votes, then alternates the model's M-step with an E-step
//! sweep over the active tasks until posteriors move less than a
//! tolerance. Everything else lives here once — the empty-matrix check,
//! the CSR views, class priors, the freezing worklist
//! (`freeze::ActiveSet`), lineage, the `truth.iter` /
//! `truth.freeze` / `truth.run` telemetry and the assembled
//! `InferenceResult`. A model (`EmModel`) supplies the M-step over the
//! committed posteriors, one task's normalized E-step row from the class
//! priors (Dawid–Skene multiplies probabilities, one-coin and GLAD add
//! logs), and its per-worker quality. `run` is generic over the model, so
//! each model's row is monomorphized into the sweep.
//!
//! # Flat state and deterministic parallelism
//!
//! Posterior tables live in one contiguous `Vec<f64>` (`t * k + l`
//! indexing) rather than `Vec<Vec<f64>>`; the helpers here operate on that
//! flat layout. E-steps parallelize over task ranges and M-step soft
//! counts over worker ranges with
//! [`crowdkit_core::par::parallel_items_mut`], whose fixed contiguous
//! partitioning keeps results byte-identical at any thread count.
//! Cross-entity reductions (priors, convergence deltas) stay sequential in
//! a fixed order — they are `O(n·k)` against the E-step's `O(obs·k)`, so
//! there is nothing to win by sharding them.

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::par::default_threads;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::InferenceResult;
use crowdkit_obs::{self as obs, Event, Scope};

use crate::freeze::{ActiveSet, FreezeConfig};
use crate::lineage::RunLineage;

/// The least a class prior or likelihood factor counts for, so that a
/// zero (zero smoothing) scales a label down and every log stays finite.
pub(crate) const LN_FLOOR: f64 = 1e-300;

/// Normalizes `row` in place to sum to one; falls back to uniform when the
/// total mass is zero (all-zero rows appear with empty smoothing).
pub(crate) fn normalize(row: &mut [f64]) {
    let total: f64 = row.iter().sum();
    if total > 0.0 {
        for x in row.iter_mut() {
            *x /= total;
        }
    } else {
        let u = 1.0 / row.len() as f64;
        for x in row.iter_mut() {
            *x = u;
        }
    }
}

/// Exponentiates and normalizes a log-space row in place, subtracting the
/// max first for numerical stability.
///
/// A max entry becomes exactly `1.0`, which is `exp(0.0)`, without the
/// call, so a row with one max costs `k − 1` calls to `exp`. The rows the
/// E-steps hand in are finite (`LN_FLOOR` keeps every log term finite, and
/// GLAD's log-odds are clamped), and for finite `x`, `x − max` is zero
/// exactly when `x == max`, so the result is the all-`exp` one bit for bit.
pub(crate) fn log_normalize(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for x in row.iter_mut() {
        *x = if *x == max { 1.0 } else { (*x - max).exp() };
    }
    normalize(row);
}

/// Initial task posteriors as one flat `num_tasks * k` buffer: the
/// per-task vote fractions (soft majority vote), which is the standard EM
/// initialization in the Dawid–Skene literature. Runs off the flat CSR
/// task grouping.
pub(crate) fn vote_fraction_posteriors(matrix: &ResponseMatrix) -> Vec<f64> {
    let k = matrix.num_labels();
    let (offsets, entries) = matrix.task_csr();
    let mut post = vec![0.0f64; matrix.num_tasks() * k];
    for (t, row) in post.chunks_mut(k).enumerate() {
        for &(_, l) in &entries[offsets[t] as usize..offsets[t + 1] as usize] {
            row[l as usize] += 1.0;
        }
        normalize(row);
    }
    post
}

/// The argmax label of one posterior row (ties → smallest index, so
/// results are deterministic).
pub(crate) fn argmax(row: &[f64]) -> u32 {
    let mut best = 0usize;
    for (i, &p) in row.iter().enumerate().skip(1) {
        if p > row[best] {
            best = i;
        }
    }
    best as u32
}

/// Picks the [`argmax`] label of each `k`-wide row of a flat posterior
/// table.
pub(crate) fn argmax_labels(posteriors: &[f64], k: usize) -> Vec<u32> {
    posteriors.chunks(k).map(argmax).collect()
}

/// Class priors implied by a flat posterior table:
/// `prior[l] = mean_t posterior[t * k + l]`. Sequential fixed-order sum —
/// part of the deterministic-reduction rule.
pub(crate) fn update_priors(posteriors: &[f64], k: usize, priors: &mut [f64]) {
    let n = (posteriors.len() / k) as f64;
    priors.fill(0.0);
    for row in posteriors.chunks(k) {
        for (l, &p) in row.iter().enumerate() {
            priors[l] += p;
        }
    }
    for p in priors.iter_mut() {
        *p /= n;
    }
}

/// Converts a flat `n * k` posterior table into the row-per-task shape of
/// [`crowdkit_core::traits::InferenceResult`].
pub(crate) fn posterior_rows(flat: &[f64], k: usize) -> Vec<Vec<f64>> {
    flat.chunks(k).map(<[f64]>::to_vec).collect()
}

/// Least per-iteration work (`≈ obs · k` flops) the kernels fork for.
const MIN_PARALLEL_WORK: usize = 64 * 1024;

/// Resolves a configured thread count against the per-iteration work.
/// Below [`MIN_PARALLEL_WORK`] the kernels stay on the calling thread
/// whatever was asked, since a fork would cost more than it saves; at or
/// above it, `0` (auto) picks the shared default pool width and any other
/// value is used, so every explicit width means "at most".
pub(crate) fn resolve_threads(requested: usize, work: usize) -> usize {
    match requested {
        _ if work < MIN_PARALLEL_WORK => 1,
        0 => default_threads(),
        n => n,
    }
}

/// Emits the per-iteration `truth.iter` telemetry event into the run's
/// scope. The convergence `delta` (max posterior change)
/// stands in for the log-likelihood trajectory: every EM loop already
/// computes it, it tracks the same convergence signal, and recording it
/// costs no extra kernel pass. Phase timings ride in wall-clock fields,
/// outside the determinism boundary.
pub(crate) fn obs_iter(
    scope: &Scope,
    algo: &'static str,
    iter: usize,
    delta: f64,
    m_ns: u64,
    e_ns: u64,
) {
    scope.recorder.record(
        Event::new("truth.iter")
            .str("algo", algo)
            .u64("iter", iter as u64)
            .f64("delta", delta)
            .wall("m_ns", m_ns)
            .wall("e_ns", e_ns),
    );
}

/// Emits the `truth.run` summary event every [`TruthInferencer`] run ends
/// with (iterative or not): problem shape, EM effort, convergence.
///
/// [`TruthInferencer`]: crowdkit_core::traits::TruthInferencer
pub(crate) fn obs_run(
    scope: &Scope,
    algo: &'static str,
    matrix: &ResponseMatrix,
    iterations: usize,
    converged: bool,
    start: obs::WallTimer,
) {
    if !scope.recorder.enabled() {
        return;
    }
    scope.recorder.record(
        Event::new("truth.run")
            .str("algo", algo)
            .u64("tasks", matrix.num_tasks() as u64)
            .u64("workers", matrix.num_workers() as u64)
            .u64("observations", matrix.num_observations() as u64)
            .u64("iters", iterations as u64)
            .u64("converged", u64::from(converged))
            .wall("run_ns", start.elapsed_ns()),
    );
}

/// The read-only problem view every model step works from: label count,
/// resolved kernel width and both CSR groupings of the response matrix.
pub(crate) struct Csr<'a> {
    /// Label-space size.
    pub k: usize,
    /// Resolved worker-pool width for the kernels.
    pub threads: usize,
    t_off: &'a [u32],
    t_entries: &'a [(u32, u32)],
    w_off: &'a [u32],
    w_entries: &'a [(u32, u32)],
}

impl<'a> Csr<'a> {
    /// Both groupings of `matrix`, with `threads` resolved by
    /// [`resolve_threads`] against its per-iteration work.
    pub fn new(matrix: &'a ResponseMatrix, threads: usize) -> Self {
        let k = matrix.num_labels();
        let (t_off, t_entries) = matrix.task_csr();
        let (w_off, w_entries) = matrix.worker_csr();
        Self {
            k,
            threads: resolve_threads(threads, matrix.num_observations() * k),
            t_off,
            t_entries,
            w_off,
            w_entries,
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.t_off.len() - 1
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.w_off.len() - 1
    }

    /// Task `t`'s `(worker, label)` observations, in insertion order.
    #[inline]
    pub fn task(&self, t: usize) -> &[(u32, u32)] {
        &self.t_entries[self.t_off[t] as usize..self.t_off[t + 1] as usize]
    }

    /// Worker `w`'s `(task, label)` observations, in insertion order.
    #[inline]
    pub fn worker(&self, w: usize) -> &[(u32, u32)] {
        &self.w_entries[self.w_off[w] as usize..self.w_off[w + 1] as usize]
    }
}

/// The class priors an E-step row starts from, as probabilities `p` and as
/// logs `ln` floored at `LN_FLOOR`.
pub(crate) struct Priors {
    pub p: Vec<f64>,
    pub ln: Vec<f64>,
}

/// A worker model the EM driver ([`run`]) iterates.
pub(crate) trait EmModel: Sync {
    /// Algorithm tag in telemetry and lineage.
    const ALGO: &'static str;

    /// Re-estimates the worker model from the committed posterior table
    /// (flat `tasks × k`). Workers and tasks the active set reports as
    /// frozen may be skipped.
    fn m_step(&mut self, cx: &Csr<'_>, posteriors: &[f64], aset: &ActiveSet);

    /// Writes task `t`'s normalized posterior row from `priors`. Runs on
    /// the kernel threads, so it must be a pure function of its inputs.
    fn posterior_row(&self, cx: &Csr<'_>, t: usize, priors: &Priors, row: &mut [f64]);

    /// Per-worker quality for the result and the lineage, given the class
    /// priors of the last M-step.
    fn worker_quality(&self, priors: &[f64]) -> Vec<f64>;
}

/// Runs EM over `matrix` with the model `init` builds, and returns the
/// result together with the fitted model (so `infer_full` can read its
/// parameters).
///
/// Each iteration runs the model's M-step on the committed posteriors,
/// then an E-step sweep over the active tasks, and stops once the sweep's
/// max posterior change is below `tol` or after `max_iters` iterations.
/// `threads` is resolved by [`resolve_threads`]; `freeze` selects the
/// sparse incremental E-step.
pub(crate) fn run<M: EmModel>(
    matrix: &ResponseMatrix,
    max_iters: usize,
    tol: f64,
    threads: usize,
    freeze: FreezeConfig,
    init: impl FnOnce(&Csr<'_>) -> M,
) -> Result<(InferenceResult, M)> {
    if matrix.is_empty() {
        return Err(CrowdError::EmptyInput("response matrix"));
    }
    let cx = Csr::new(matrix, threads);
    let (k, t_off, t_entries) = (cx.k, cx.t_off, cx.t_entries);
    let mut model = init(&cx);

    // Flat state, allocated once and reused every iteration.
    let mut posteriors = vote_fraction_posteriors(matrix);
    let mut aset = ActiveSet::new(freeze, matrix.num_tasks(), k, cx.w_off);
    let mut priors = Priors {
        p: vec![1.0 / k as f64; k],
        ln: vec![0.0; k],
    };

    let tel = obs::scope();
    let obs_on = tel.recorder.enabled();
    let run_start = obs::WallTimer::start();
    // Lineage baseline: the vote-fraction init, i.e. MV's decision.
    let mut lineage = RunLineage::begin(&tel, M::ALGO, &posteriors, k);

    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iters {
        iterations += 1;
        let t_m = obs_on.then(obs::WallTimer::start);
        update_priors(&posteriors, k, &mut priors.p);
        for (lp, &p) in priors.ln.iter_mut().zip(&priors.p) {
            *lp = p.max(LN_FLOOR).ln();
        }
        model.m_step(&cx, &posteriors, &aset);
        let m_ns = t_m.map_or(0, |t| t.elapsed_ns());
        let t_e = obs_on.then(obs::WallTimer::start);

        // E-step over the active worklist (all tasks while freezing is
        // off): the model writes each row whole from the priors.
        let out = aset.sweep(&mut posteriors, t_off, t_entries, cx.threads, |t, row| {
            model.posterior_row(&cx, t, &priors, row);
        });

        if let Some(l) = &mut lineage {
            // The committed table after the sweep: pinned rows on the
            // sparse path are bit-identical to the dense reference's, so
            // both paths record the same flips.
            l.observe_iter(iterations, &posteriors);
        }
        if obs_on {
            let e_ns = t_e.map_or(0, |t| t.elapsed_ns());
            obs_iter(&tel, M::ALGO, iterations, out.delta, m_ns, e_ns);
            aset.observe(&tel, M::ALGO, iterations, &out);
        }
        if out.delta < tol {
            converged = true;
            break;
        }
    }

    let worker_quality = model.worker_quality(&priors.p);
    if let Some(l) = lineage.take() {
        l.finish(&*tel.recorder, matrix, &posteriors, Some(&worker_quality));
    }
    obs_run(&tel, M::ALGO, matrix, iterations, converged, run_start);
    let result = InferenceResult {
        labels: argmax_labels(&posteriors, k),
        posteriors: posterior_rows(&posteriors, k),
        worker_quality: Some(worker_quality),
        iterations,
        converged,
    };
    Ok((result, model))
}

/// Convergence/iteration settings shared by the EM algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the max posterior change.
    pub tol: f64,
    /// Laplace smoothing mass added when estimating worker parameters;
    /// keeps estimates defined for workers with few answers.
    pub smoothing: f64,
    /// Worker-pool width for the E/M kernels, which use at most this many
    /// threads. `0` (the default) picks automatically from the problem
    /// size; a problem too small to pay for a fork runs on one thread at
    /// any setting. Results are byte-identical at every setting.
    pub threads: usize,
    /// Per-task convergence freezing (the sparse incremental E-step).
    /// Disabled by default, which reproduces the dense kernels bit for
    /// bit; see [`FreezeConfig`].
    pub freeze: FreezeConfig,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            smoothing: 0.01,
            threads: 0,
            freeze: FreezeConfig::disabled(),
        }
    }
}

impl EmConfig {
    /// Returns a copy capped at `threads` kernel threads.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// Returns a copy with the given freezing settings.
    pub fn with_freeze(self, freeze: FreezeConfig) -> Self {
        Self { freeze, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use proptest::prelude::*;

    #[test]
    fn normalize_handles_zero_mass() {
        let mut row = [0.0, 0.0];
        normalize(&mut row);
        assert_eq!(row, [0.5, 0.5]);
        let mut row = [2.0, 6.0];
        normalize(&mut row);
        assert_eq!(row, [0.25, 0.75]);
    }

    #[test]
    fn vote_fractions_reflect_counts() {
        let mut m = ResponseMatrix::new(2);
        m.push(TaskId::new(0), WorkerId::new(0), 1).unwrap();
        m.push(TaskId::new(0), WorkerId::new(1), 1).unwrap();
        m.push(TaskId::new(0), WorkerId::new(2), 0).unwrap();
        let post = vote_fraction_posteriors(&m);
        assert!((post[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_breaks_ties_toward_smaller_index() {
        let labels = argmax_labels(&[0.5, 0.5, 0.1, 0.9], 2);
        assert_eq!(labels, vec![0, 1]);
    }

    #[test]
    fn priors_average_posteriors() {
        let post = [1.0, 0.0, 0.0, 1.0];
        let mut priors = vec![0.0, 0.0];
        update_priors(&post, 2, &mut priors);
        assert_eq!(priors, vec![0.5, 0.5]);
    }

    #[test]
    fn posterior_rows_round_trip() {
        let flat = [0.25, 0.75, 1.0, 0.0];
        assert_eq!(
            posterior_rows(&flat, 2),
            vec![vec![0.25, 0.75], vec![1.0, 0.0]]
        );
    }

    /// Random finite log rows of 2 to 6 labels. A cell of kind 2 sits at
    /// `LN_FLOOR.ln()`, a cell of kind 3 ties the row's max, and the range
    /// is wide enough that some `exp` calls underflow.
    fn log_rows() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u8..4, -750.0f64..50.0), 2..7).prop_map(|cells| {
            let mut row: Vec<f64> = cells
                .iter()
                .map(|&(kind, x)| if kind == 2 { LN_FLOOR.ln() } else { x })
                .collect();
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for (x, &(kind, _)) in row.iter_mut().zip(&cells) {
                if kind == 3 {
                    *x = max;
                }
            }
            row
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn log_normalize_equals_the_all_exp_reference(row in log_rows()) {
            let mut reference = row.clone();
            let max = reference.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for x in reference.iter_mut() {
                *x = (*x - max).exp();
            }
            normalize(&mut reference);
            let mut fast = row.clone();
            log_normalize(&mut fast);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&reference), "row {:?}", row);
        }
    }

    #[test]
    fn widths_are_caps_and_small_problems_stay_sequential() {
        let floor = MIN_PARALLEL_WORK;
        assert_eq!(resolve_threads(3, 10), 1, "tiny problems stay sequential");
        assert_eq!(resolve_threads(3, floor - 1), 1);
        assert_eq!(resolve_threads(3, floor), 3, "explicit width at the floor");
        assert_eq!(resolve_threads(1, usize::MAX), 1);
        assert_eq!(resolve_threads(0, 16), 1);
        assert_eq!(resolve_threads(0, floor), default_threads());
    }
}
