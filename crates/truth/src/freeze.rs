//! Per-task convergence freezing and the active-set worklist.
//!
//! Dense EM spends most of its late iterations recomputing posteriors that
//! no longer move: on the million-scale workload the bulk of tasks settle
//! within a handful of iterations while a small contested frontier keeps
//! the loop alive. This module implements the **incremental (sparse)
//! E-step** that the EM driver in [`crate::em`] runs for the Dawid–Skene,
//! one-coin and GLAD models:
//!
//! * a task whose posterior max-delta stays below `eps` for `PATIENCE`
//!   consecutive iterations is **frozen** for the rest of the run — its
//!   posterior row is pinned, it is dropped from the E-step worklist, and
//!   (for GLAD) its difficulty parameter stops updating;
//! * frozen tasks still contribute their pinned rows to every M-step
//!   (priors and worker models read the full posterior table), so the
//!   M-step needs no correction terms and no reordered reductions;
//! * a worker all of whose tasks are frozen has worker-model inputs that
//!   can no longer change, so its parameter recompute is skipped — for
//!   Dawid–Skene/one-coin this is a pure no-op (recomputing from pinned
//!   inputs reproduces the same bits), for GLAD it is part of the freezing
//!   semantics (its ability is pinned).
//!
//! # Determinism contract
//!
//! Freezing decisions are a pure function of the posterior trajectory,
//! which is byte-identical at any thread count, so the active set itself
//! is deterministic. The worklist shards over active slots via
//! [`parallel_active_items_mut`]; every cross-task reduction (the global
//! delta, streak bookkeeping, worklist rebuild) is sequential in ascending
//! task order. [`FreezeConfig::dense_reference`] runs the *same freezing
//! semantics* with full-range dense sweeps and no worklist machinery —
//! the equivalence property tests pin the two paths bit-identical, which
//! is exactly the guarantee that the active-set optimization changed the
//! cost and nothing else.
//!
//! Telemetry: `truth.freeze` events carry the per-iteration active-set
//! size so `crowdtrace replay --folded` shows where EM time actually goes
//! (see `DESIGN.md` §11).

use crowdkit_core::par::{parallel_active_items_mut, parallel_items_mut};
use crowdkit_obs::{Event, Scope};

/// Consecutive below-`eps` iterations before a task freezes — and, in
/// GLAD, before a settled ability is pinned.
pub(crate) const PATIENCE: u32 = 2;

/// Convergence-freezing settings shared by the EM kernels.
///
/// The default (`eps == 0.0`) disables freezing entirely: no task ever
/// freezes (a max-delta is never `< 0.0`), the worklist stays full, and
/// the kernels reproduce the dense pre-freezing behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezeConfig {
    /// Per-task freeze tolerance on the posterior max-delta. `<= 0.0`
    /// disables freezing.
    pub eps: f64,
    /// Evaluate the identical freezing semantics with full dense sweeps
    /// instead of the active-set worklist. Test/bench aid: the equivalence
    /// property tests compare this path against the worklist path
    /// bit-for-bit.
    pub dense_reference: bool,
}

impl Default for FreezeConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FreezeConfig {
    /// Freezing off: the kernels behave exactly like the dense originals.
    pub const fn disabled() -> Self {
        Self::sparse(0.0)
    }

    /// Freezing on with tolerance `eps`: a task freezes once its posterior
    /// has moved less than `eps` for two iterations in a row.
    pub const fn sparse(eps: f64) -> Self {
        Self {
            eps,
            dense_reference: false,
        }
    }

    /// Returns a copy pinned to the dense-reference evaluation path.
    pub const fn with_dense_reference(self, on: bool) -> Self {
        Self {
            dense_reference: on,
            ..self
        }
    }

    /// True when freezing is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.eps > 0.0
    }
}

/// What one E-step sweep did, for convergence checks and telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepOutcome {
    /// Max posterior change over the committed (unfrozen) rows — the
    /// kernels' convergence delta.
    pub delta: f64,
    /// Tasks newly frozen this iteration.
    pub froze: usize,
    /// Active (unfrozen) tasks after this iteration.
    pub active_len: usize,
    /// Total frozen tasks after this iteration.
    pub frozen_total: usize,
}

/// The shared sparse-EM state: worklist, streaks, pinned flags, and the
/// arena scratch every iteration reuses (no per-iteration allocation).
pub(crate) struct ActiveSet {
    cfg: FreezeConfig,
    k: usize,
    n_tasks: usize,
    /// Unfrozen task indices, ascending. The E-step worklist.
    active: Vec<u32>,
    /// Consecutive below-eps iterations per task.
    streak: Vec<u32>,
    /// Pinned flag per task.
    frozen: Vec<bool>,
    /// Per worker: number of its observations on unfrozen tasks. Zero
    /// means every input to this worker's model is pinned.
    worker_live: Vec<u32>,
    /// Per worker: the M-step recompute is a guaranteed bitwise no-op.
    /// Set one full sweep *after* `worker_live` reaches zero — the sweep
    /// that froze the last task also moved its row, so the next M-step
    /// must recompute once before the cached value is in sync.
    worker_synced: Vec<bool>,
    /// Workers whose live count hit zero this sweep, promoted into
    /// `worker_synced` at the start of the next sweep.
    newly_frozen_workers: Vec<u32>,
    /// Compact per-sweep scratch: one `(row, delta)` slot of width `k + 1`
    /// per computed task. Sized for a full sweep and reused every
    /// iteration.
    scratch: Vec<f64>,
    frozen_total: usize,
}

impl ActiveSet {
    /// Builds the state for `n_tasks` tasks over a `k`-label space;
    /// `w_off` is the worker-CSR offset array (worker degrees seed the
    /// liveness counters).
    pub fn new(cfg: FreezeConfig, n_tasks: usize, k: usize, w_off: &[u32]) -> Self {
        let on = cfg.enabled();
        Self {
            cfg,
            k,
            n_tasks,
            active: (0..n_tasks as u32).collect(),
            streak: vec![0; if on { n_tasks } else { 0 }],
            frozen: vec![false; if on { n_tasks } else { 0 }],
            worker_live: if on {
                w_off.windows(2).map(|w| w[1] - w[0]).collect()
            } else {
                Vec::new()
            },
            worker_synced: vec![false; if on { w_off.len().saturating_sub(1) } else { 0 }],
            newly_frozen_workers: Vec::new(),
            scratch: vec![0.0; n_tasks * (k + 1)],
            frozen_total: 0,
        }
    }

    /// The current worklist (ascending task order).
    #[inline]
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// True when every task is frozen — the run is done. (The kernels
    /// need no explicit check: an empty worklist yields a zero sweep
    /// delta, which trips their normal convergence test.)
    #[cfg(test)]
    pub fn all_frozen(&self) -> bool {
        self.cfg.enabled() && self.frozen_total == self.n_tasks
    }

    /// Whether task `t`'s parameters are pinned (GLAD difficulty, row
    /// updates). Semantics, identical in both evaluation modes.
    #[inline]
    pub fn task_frozen(&self, t: usize) -> bool {
        self.cfg.enabled() && self.frozen[t]
    }

    /// Whether worker `w`'s parameters are pinned because all of its
    /// tasks froze. Semantics, identical in both evaluation modes.
    #[inline]
    pub fn worker_frozen(&self, w: usize) -> bool {
        self.cfg.enabled() && self.worker_live[w] == 0
    }

    /// Whether the kernel may skip recomputing worker `w`'s model this
    /// M-step. Pure machinery: once the worker's posterior rows have been
    /// pinned for a full sweep, the previous M-step already computed from
    /// exactly these rows, so recomputing reproduces the same bits. The
    /// dense-reference path recomputes anyway and the equivalence tests
    /// verify the claim. (The one-sweep delay matters: the sweep that
    /// froze the worker's last task also moved that task's row.)
    #[inline]
    pub fn can_skip_worker_update(&self, w: usize) -> bool {
        self.cfg.enabled() && !self.cfg.dense_reference && self.worker_synced[w]
    }

    /// Whether the worklist path is live (freezing on, not the dense
    /// reference). Kernels use this to choose active-set sharding for
    /// their own per-task side loops (e.g. GLAD's difficulty step).
    #[inline]
    pub fn use_worklist(&self) -> bool {
        self.cfg.enabled() && !self.cfg.dense_reference
    }

    /// Runs one E-step sweep: computes new posterior rows via
    /// `compute(task, row_out)` (a pure function of shared read-only
    /// state), commits them to `posteriors`, and advances the freezing
    /// state machine. Returns the sweep's convergence delta and freeze
    /// counts.
    pub fn sweep<F>(
        &mut self,
        posteriors: &mut [f64],
        t_off: &[u32],
        t_entries: &[(u32, u32)],
        threads: usize,
        compute: F,
    ) -> SweepOutcome
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let k = self.k;
        // Promote workers frozen during the previous sweep: the M-step
        // between that sweep and this one has recomputed their models from
        // the final pinned rows, so from here on a recompute is a bitwise
        // no-op.
        for w in self.newly_frozen_workers.drain(..) {
            self.worker_synced[w as usize] = true;
        }

        // Shard over the worklist only, unless freezing is off (everything
        // is active) or this is the dense reference (full-range sweeps are
        // the point).
        let worklist = self.use_worklist();
        let stride = k + 1;
        let post: &[f64] = posteriors;
        let compute = &compute;
        if worklist {
            parallel_active_items_mut(
                &mut self.scratch,
                stride,
                &self.active,
                threads,
                |_, t, item| {
                    let (row, d) = item.split_at_mut(k);
                    compute(t, row);
                    d[0] = row_delta(row, &post[t * k..t * k + k]);
                },
            );
        } else {
            parallel_items_mut(
                &mut self.scratch[..self.n_tasks * stride],
                stride,
                threads,
                |t0, run| {
                    for (i, item) in run.chunks_mut(stride).enumerate() {
                        let t = t0 + i;
                        let (row, d) = item.split_at_mut(k);
                        compute(t, row);
                        d[0] = row_delta(row, &post[t * k..t * k + k]);
                    }
                },
            );
        }

        // Sequential commit in ascending task order: scatter rows, fold
        // the global delta, advance streaks, freeze. This is the
        // fixed-order reduction the determinism contract requires.
        let mut out = SweepOutcome::default();
        let active = std::mem::take(&mut self.active);
        if worklist {
            for (slot, &t) in active.iter().enumerate() {
                self.commit(slot, t as usize, posteriors, t_off, t_entries, &mut out);
            }
        } else {
            for t in 0..self.n_tasks {
                self.commit(t, t, posteriors, t_off, t_entries, &mut out);
            }
        }
        self.active = active;
        if out.froze > 0 {
            let frozen = &self.frozen;
            self.active.retain(|&t| !frozen[t as usize]);
        }
        out.active_len = self.active.len();
        out.frozen_total = self.frozen_total;
        out
    }

    /// Commits scratch slot `slot`, task `t`'s recomputed row: scatters
    /// it into `posteriors`, folds its delta into `out` and freezes the
    /// task once it has stayed below `eps` for [`PATIENCE`] sweeps.
    fn commit(
        &mut self,
        slot: usize,
        t: usize,
        posteriors: &mut [f64],
        t_off: &[u32],
        t_entries: &[(u32, u32)],
        out: &mut SweepOutcome,
    ) {
        let k = self.k;
        let item = &self.scratch[slot * (k + 1)..(slot + 1) * (k + 1)];
        let enabled = self.cfg.enabled();
        if enabled && self.frozen[t] {
            // Only the dense reference recomputes frozen rows; the pinned
            // value stands.
            return;
        }
        posteriors[t * k..t * k + k].copy_from_slice(&item[..k]);
        out.delta = out.delta.max(item[k]);
        if !enabled {
            return;
        }
        if item[k] >= self.cfg.eps {
            self.streak[t] = 0;
            return;
        }
        self.streak[t] += 1;
        if self.streak[t] < PATIENCE {
            return;
        }
        self.frozen[t] = true;
        self.frozen_total += 1;
        for &(w, _) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
            self.worker_live[w as usize] -= 1;
            if self.worker_live[w as usize] == 0 {
                self.newly_frozen_workers.push(w);
            }
        }
        out.froze += 1;
    }

    /// Emits the `truth.freeze` telemetry for one sweep. Freeze counts and
    /// the active-set size are deterministic fields: the freezing
    /// trajectory is byte-identical across runs and thread counts.
    pub fn observe(&self, scope: &Scope, algo: &'static str, iter: usize, out: &SweepOutcome) {
        if out.froze == 0 {
            return;
        }
        scope.recorder.record(
            Event::new("truth.freeze")
                .str("algo", algo)
                .u64("iter", iter as u64)
                .u64("froze", out.froze as u64)
                .u64("active", out.active_len as u64)
                .u64("frozen_total", out.frozen_total as u64),
        );
    }
}

/// Max absolute difference between one recomputed row and its previous
/// value — the per-task convergence delta.
#[inline]
fn row_delta(new: &[f64], old: &[f64]) -> f64 {
    new.iter()
        .zip(old)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_for(n_tasks: usize, n_workers: usize) -> (Vec<u32>, Vec<(u32, u32)>, Vec<u32>) {
        // One observation per (task, worker) pair: task t answered by
        // worker t % n_workers only.
        let mut t_off = vec![0u32; n_tasks + 1];
        let mut t_entries = Vec::new();
        for t in 0..n_tasks {
            t_entries.push(((t % n_workers) as u32, 0u32));
            t_off[t + 1] = t_off[t] + 1;
        }
        let mut degrees = vec![0u32; n_workers];
        for &(w, _) in &t_entries {
            degrees[w as usize] += 1;
        }
        let mut w_off = vec![0u32; n_workers + 1];
        for w in 0..n_workers {
            w_off[w + 1] = w_off[w] + degrees[w];
        }
        (t_off, t_entries, w_off)
    }

    #[test]
    fn disabled_config_keeps_every_task_active() {
        let (t_off, t_entries, w_off) = csr_for(4, 2);
        let mut aset = ActiveSet::new(FreezeConfig::disabled(), 4, 1, &w_off);
        let mut post = vec![0.0f64; 4];
        for _ in 0..5 {
            let out = aset.sweep(&mut post, &t_off, &t_entries, 1, |_, row| row[0] = 1.0);
            assert_eq!(out.froze, 0);
            assert_eq!(out.active_len, 4);
            assert!(!aset.all_frozen());
        }
        assert_eq!(post, vec![1.0; 4]);
    }

    #[test]
    fn tasks_freeze_after_patience_and_pin_their_rows() {
        let (t_off, t_entries, w_off) = csr_for(3, 3);
        let mut aset = ActiveSet::new(FreezeConfig::sparse(0.5), 3, 1, &w_off);
        let mut post = vec![0.0f64; 3];
        // Task 2 keeps moving by 1.0 (>= eps); tasks 0, 1 settle at 0.1.
        let compute = |t: usize, row: &mut [f64], i: f64| {
            row[0] = if t == 2 { i } else { 0.1 };
        };
        let mut outs = Vec::new();
        for i in 0..4 {
            let c = |t: usize, row: &mut [f64]| compute(t, row, (i + 1) as f64);
            outs.push(aset.sweep(&mut post, &t_off, &t_entries, 1, c));
        }
        // Iter 1: deltas 0.1 under eps → streak 1. Iter 2: streak 2 →
        // tasks 0 and 1 freeze.
        assert_eq!(outs[0].froze, 0);
        assert_eq!(outs[1].froze, 2);
        assert_eq!(outs[1].active_len, 1);
        assert_eq!(aset.active(), &[2]);
        assert!(aset.task_frozen(0) && aset.task_frozen(1) && !aset.task_frozen(2));
        // Workers 0 and 1 only touch frozen tasks now.
        assert!(aset.worker_frozen(0) && aset.worker_frozen(1) && !aset.worker_frozen(2));
        assert!(aset.can_skip_worker_update(0));
        // Frozen rows stay pinned at their freeze-time value while the
        // active task keeps tracking the compute function.
        assert_eq!(post[0], 0.1);
        assert_eq!(post[2], 4.0);
        // Delta only reflects the active frontier.
        assert_eq!(outs[3].delta, 1.0);
    }

    #[test]
    fn dense_reference_tracks_the_same_membership() {
        let (t_off, t_entries, w_off) = csr_for(3, 3);
        let run = |dense: bool| {
            let cfg = FreezeConfig::sparse(0.5).with_dense_reference(dense);
            let mut aset = ActiveSet::new(cfg, 3, 1, &w_off);
            let mut post = vec![0.0f64; 3];
            let mut outs = Vec::new();
            for i in 0..4 {
                let c = |t: usize, row: &mut [f64]| {
                    row[0] = if t == 0 { (i + 1) as f64 } else { 0.2 };
                };
                let out = aset.sweep(&mut post, &t_off, &t_entries, 1, c);
                outs.push((out.delta, out.froze, out.active_len));
            }
            (post, outs)
        };
        let (post_w, outs_w) = run(false);
        let (post_d, outs_d) = run(true);
        // Tasks 1 and 2 settle after sweep 1 and freeze in sweep 2.
        assert_eq!(outs_w[1], (1.0, 2, 1));
        assert_eq!(post_w, post_d, "worklist and dense reference diverged");
        assert_eq!(outs_w, outs_d);
    }
}
