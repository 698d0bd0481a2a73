//! Shared machinery for the EM-family algorithms.
//!
//! All EM variants in this crate share the same skeleton: initialize task
//! posteriors from votes, alternate worker-model M-steps with posterior
//! E-steps, and stop when posteriors move less than a tolerance. This
//! module holds the pieces that are identical across them so each algorithm
//! file contains only its model-specific E/M maths.
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

use crowdkit_core::par::default_threads;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_obs::{self as obs, Event, Scope};

/// Floor applied before `ln` so log-space tables stay finite.
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
pub(crate) fn log_normalize(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for x in row.iter_mut() {
        *x = (*x - max).exp();
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

/// Picks the argmax label of each `k`-wide row of a flat posterior table
/// (ties → smallest index, so results are deterministic).
pub(crate) fn argmax_labels(posteriors: &[f64], k: usize) -> Vec<u32> {
    posteriors
        .chunks(k)
        .map(|row| {
            let mut best = 0usize;
            for (i, &p) in row.iter().enumerate().skip(1) {
                if p > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
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

/// Resolves a configured thread count: `0` means *auto* — use the shared
/// default pool width, but only once the per-iteration work (`≈ obs · k`
/// flops) is large enough that scoped-spawn overhead cannot dominate.
/// Explicit values are honored verbatim so equivalence tests can pin
/// 1/2/8-thread runs.
pub(crate) fn resolve_threads(requested: usize, work: usize) -> usize {
    const AUTO_PAR_MIN_WORK: usize = 64 * 1024;
    match requested {
        0 => {
            if work < AUTO_PAR_MIN_WORK {
                1
            } else {
                default_threads()
            }
        }
        n => n,
    }
}

/// Emits the per-iteration `truth.iter` telemetry event and sweep metrics
/// into the run's scope. The convergence `delta` (max posterior change)
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
    if let Some(am) = scope.registry.as_ref().and_then(|m| m.truth.algo(algo)) {
        am.iters.inc();
        am.sweep_ns.record(m_ns + e_ns);
    }
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
    if let Some(am) = scope.registry.as_ref().and_then(|m| m.truth.algo(algo)) {
        am.runs.inc();
    }
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
    /// Worker-pool width for the E/M kernels. `0` (the default) picks
    /// automatically from the problem size; any explicit value is used
    /// as-is. Results are byte-identical at every setting.
    pub threads: usize,
    /// Per-task convergence freezing (the sparse incremental E-step).
    /// Disabled by default, which reproduces the dense kernels bit for
    /// bit; see [`crate::freeze::FreezeConfig`].
    pub freeze: crate::freeze::FreezeConfig,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            smoothing: 0.01,
            threads: 0,
            freeze: crate::freeze::FreezeConfig::disabled(),
        }
    }
}

impl EmConfig {
    /// Returns a copy pinned to `threads` kernel threads.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// Returns a copy with the given freezing settings.
    pub fn with_freeze(self, freeze: crate::freeze::FreezeConfig) -> Self {
        Self { freeze, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::{TaskId, WorkerId};

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

    #[test]
    fn thread_resolution_honors_explicit_and_clamps_auto() {
        assert_eq!(resolve_threads(3, 10), 3, "explicit wins regardless of size");
        assert_eq!(resolve_threads(1, usize::MAX), 1);
        assert_eq!(resolve_threads(0, 16), 1, "tiny problems stay sequential");
        assert!(resolve_threads(0, 100_000_000) >= 1);
    }
}
