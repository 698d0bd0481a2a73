//! KOS iterative message passing (Karger, Oh & Shah, 2011) for binary
//! tasks.
//!
//! KOS runs belief-propagation-style messages on the bipartite task–worker
//! graph: task→worker messages `x` accumulate how strongly the other
//! workers' (reliability-weighted) votes pull the task toward ±1, and
//! worker→task messages `y` accumulate how consistently the worker agrees
//! with other tasks' current beliefs. It needs no priors and is provably
//! order-optimal for random regular assignment graphs — which is why the
//! tutorial lists it next to the EM family.
//!
//! Labels are encoded ±1 internally; label `1` of a binary
//! [`ResponseMatrix`] maps to `+1`.

//!
//! Messages live on the edges of the bipartite graph, one per observation,
//! in flat edge arrays. Each half-round shards deterministically: entity
//! sums (per task, per worker) accumulate over their CSR edge lists in
//! fixed insertion order, and the per-edge message updates are pure
//! element-wise maps — so results are byte-identical at any thread count.
//! The RMS renormalization stays a sequential fixed-order reduction.

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::par::parallel_items_mut;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::resolve_threads;
use crate::lineage::RunLineage;

/// The KOS message-passing algorithm. Binary tasks only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kos {
    /// Number of message-passing rounds (the paper uses 10–20; estimates
    /// stabilize quickly).
    pub iterations: usize,
    /// Worker-pool width for the message kernels, which use at most this
    /// many threads (one on graphs under 8 Ki edges); `0` picks
    /// automatically from the problem size. Results are byte-identical at
    /// every setting.
    pub threads: usize,
}

impl Default for Kos {
    fn default() -> Self {
        Self {
            iterations: 15,
            threads: 0,
        }
    }
}

impl Kos {
    /// Returns a copy capped at `threads` kernel threads.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }
}

impl TruthInferencer for Kos {
    fn name(&self) -> &'static str {
        "kos"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        if matrix.is_empty() {
            return Err(CrowdError::EmptyInput("response matrix"));
        }
        if matrix.num_labels() != 2 {
            return Err(CrowdError::Unsupported(
                "KOS message passing applies to binary label spaces only",
            ));
        }
        let run_start = crowdkit_obs::WallTimer::start();

        let obs = matrix.observations();
        let n_obs = obs.len();
        let n_tasks = matrix.num_tasks();
        let n_workers = matrix.num_workers();
        let threads = resolve_threads(self.threads, n_obs * 8);
        // Signed votes: label 1 → +1, label 0 → −1.
        let sign: Vec<f64> = obs
            .iter()
            .map(|o| if o.label == 1 { 1.0 } else { -1.0 })
            .collect();

        // Messages live on edges (one per observation).
        // Deterministic non-degenerate init: the canonical choice is
        // y ~ N(1, 1); we use a fixed quasi-random perturbation so results
        // are reproducible without threading an RNG through inference.
        let mut y: Vec<f64> = (0..n_obs)
            .map(|i| 1.0 + 0.1 * ((i as f64 * 0.754_877_666).fract() - 0.5))
            .collect();
        let mut x = vec![0.0f64; n_obs];

        // Flat CSR edge adjacency: for each task/worker, which edge
        // (observation) indices touch it, grouped contiguously with offset
        // arrays — one counting-sort pass, mirroring the response matrix's
        // own u32 layout (the matrix caps observations at `u32::MAX`, so
        // edge indices and offsets both fit).
        let mut t_off = vec![0u32; n_tasks + 1];
        let mut w_off = vec![0u32; n_workers + 1];
        for o in obs {
            t_off[o.task + 1] += 1;
            w_off[o.worker + 1] += 1;
        }
        for i in 1..t_off.len() {
            t_off[i] += t_off[i - 1];
        }
        for i in 1..w_off.len() {
            w_off[i] += w_off[i - 1];
        }
        let mut task_edges = vec![0u32; n_obs];
        let mut worker_edges = vec![0u32; n_obs];
        let mut t_cur = t_off.clone();
        let mut w_cur = w_off.clone();
        for (i, o) in obs.iter().enumerate() {
            task_edges[t_cur[o.task] as usize] = i as u32;
            t_cur[o.task] += 1;
            worker_edges[w_cur[o.worker] as usize] = i as u32;
            w_cur[o.worker] += 1;
        }

        // Each task's signed vote sum: the decision wherever the messages
        // carry nothing.
        let mut votes = vec![0.0f64; n_tasks];
        for (o, &s) in obs.iter().zip(&sign) {
            votes[o.task] += s;
        }
        // Decision: the sign of Σ_w A_{t,w} · y_{w→t}. A task whose sum is
        // exactly 0 falls back to its vote sum, so an exact tie there is
        // MV's tie, label 0. With one answer per task every message is 0
        // after the first round (no other worker on the task to pass one
        // on), so the vote is all such a task has.
        let decisions = |y: &[f64]| -> Vec<f64> {
            let mut d = vec![0.0f64; n_tasks];
            for (i, o) in obs.iter().enumerate() {
                d[o.task] += sign[i] * y[i];
            }
            for (d, &v) in d.iter_mut().zip(&votes) {
                if *d == 0.0 {
                    *d = v;
                }
            }
            d
        };
        // Decision snapshot for lineage capture: the current per-task
        // belief as a flat [P(0), P(1)] table (logistic squash of the
        // decision, matching the final posterior construction below).
        // Only evaluated while provenance capture is on.
        let snapshot = |y: &[f64]| -> Vec<f64> {
            decisions(y)
                .iter()
                .flat_map(|&d| {
                    let p1 = 1.0 / (1.0 + (-d).exp());
                    [1.0 - p1, p1]
                })
                .collect()
        };
        // Lineage baseline: the decision implied by the initial messages.
        let tel = crowdkit_obs::scope();
        let mut lineage = if tel.provenance {
            RunLineage::begin(&tel, "kos", &snapshot(&y), 2)
        } else {
            None
        };

        let mut task_sum = vec![0.0f64; n_tasks];
        let mut worker_sum = vec![0.0f64; n_workers];
        for round in 0..self.iterations {
            // Task → worker: x_{t→w} = Σ_{w'≠w} A_{t,w'} · y_{w'→t}.
            // Entity sums shard over task ranges (each task folds its own
            // edge list in fixed order); the per-edge message update is an
            // element-wise map over edge ranges.
            let y_r = &y;
            let (t_off_r, task_edges_r) = (&t_off, &task_edges);
            parallel_items_mut(&mut task_sum, 1, threads, |t0, run| {
                for (i, s) in run.iter_mut().enumerate() {
                    let t = t0 + i;
                    let mut acc = 0.0;
                    for &e in &task_edges_r[t_off_r[t] as usize..t_off_r[t + 1] as usize] {
                        acc += sign[e as usize] * y_r[e as usize];
                    }
                    *s = acc;
                }
            });
            let task_sum_r = &task_sum;
            parallel_items_mut(&mut x, 1, threads, |e0, run| {
                for (i, xe) in run.iter_mut().enumerate() {
                    let e = e0 + i;
                    *xe = task_sum_r[obs[e].task] - sign[e] * y_r[e];
                }
            });
            // Worker → task: y_{w→t} = Σ_{t'≠t} A_{t',w} · x_{t'→w}.
            let x_r = &x;
            let (w_off_r, worker_edges_r) = (&w_off, &worker_edges);
            parallel_items_mut(&mut worker_sum, 1, threads, |w0, run| {
                for (i, s) in run.iter_mut().enumerate() {
                    let w = w0 + i;
                    let mut acc = 0.0;
                    for &e in &worker_edges_r[w_off_r[w] as usize..w_off_r[w + 1] as usize] {
                        acc += sign[e as usize] * x_r[e as usize];
                    }
                    *s = acc;
                }
            });
            let worker_sum_r = &worker_sum;
            parallel_items_mut(&mut y, 1, threads, |e0, run| {
                for (i, ye) in run.iter_mut().enumerate() {
                    let e = e0 + i;
                    *ye = worker_sum_r[obs[e].worker] - sign[e] * x_r[e];
                }
            });
            // Normalize messages to unit RMS to prevent overflow over many
            // rounds (the decision rule is scale-invariant). Sequential
            // fixed-order reduction: the deterministic-reduction rule.
            let rms = (y.iter().map(|v| v * v).sum::<f64>() / n_obs as f64).sqrt();
            if rms > 0.0 {
                for v in &mut y {
                    *v /= rms;
                }
            }
            if let Some(l) = &mut lineage {
                // Flip timeline per message-passing round, from the
                // post-round decision snapshot.
                l.observe_iter(round + 1, &snapshot(&y));
            }
        }

        let decision = decisions(&y);
        let labels: Vec<u32> = decision.iter().map(|&d| (d > 0.0) as u32).collect();

        // Pseudo-posteriors via a logistic squash of the decision margin
        // (KOS itself outputs only signs; the squash gives downstream code
        // a usable confidence ordering).
        let posteriors: Vec<Vec<f64>> = decision
            .iter()
            .map(|&d| {
                let p1 = 1.0 / (1.0 + (-d).exp());
                vec![1.0 - p1, p1]
            })
            .collect();

        // Worker quality proxy: normalized agreement weight, squashed to
        // [0, 1]. Workers whose votes align with final beliefs score high.
        let mut agree = vec![0.0f64; matrix.num_workers()];
        let mut count = vec![0usize; matrix.num_workers()];
        for (i, o) in obs.iter().enumerate() {
            let task_sign = if decision[o.task] >= 0.0 { 1.0 } else { -1.0 };
            agree[o.worker] += sign[i] * task_sign;
            count[o.worker] += 1;
        }
        let worker_quality: Vec<f64> = agree
            .iter()
            .zip(&count)
            .map(|(&a, &c)| {
                if c == 0 {
                    0.5
                } else {
                    // Agreement rate in [−1, 1] → [0, 1].
                    (a / c as f64 + 1.0) / 2.0
                }
            })
            .collect();

        if let Some(l) = lineage.take() {
            let flat: Vec<f64> = posteriors.iter().flatten().copied().collect();
            l.finish(&*tel.recorder, matrix, &flat, Some(&worker_quality));
        }
        crate::em::obs_run(&tel, "kos", matrix, self.iterations, true, run_start);
        Ok(InferenceResult {
            labels,
            posteriors,
            worker_quality: Some(worker_quality),
            iterations: self.iterations,
            converged: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::{TaskId, WorkerId};

    fn matrix(rows: &[(u64, u64, u32)]) -> ResponseMatrix {
        let mut m = ResponseMatrix::new(2);
        for &(t, w, l) in rows {
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
        m
    }

    #[test]
    fn recovers_unanimous_labels() {
        let m = matrix(&[(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]);
        let r = Kos::default().infer(&m).unwrap();
        assert_eq!(r.labels, vec![1, 0]);
    }

    #[test]
    fn downweights_the_inconsistent_worker() {
        // Workers 0–2 truthful on 20 tasks; worker 3 always opposes. On a
        // task where only workers 0 and 3 voted, KOS should follow worker 0.
        let mut rows = Vec::new();
        for t in 0..20u64 {
            let truth = (t % 2) as u32;
            rows.push((t, 0, truth));
            rows.push((t, 1, truth));
            rows.push((t, 2, truth));
            rows.push((t, 3, 1 - truth));
        }
        rows.push((20, 0, 1));
        rows.push((20, 3, 0));
        let m = matrix(&rows);
        let r = Kos::default().infer(&m).unwrap();
        let t20 = m.task_index(TaskId::new(20)).unwrap();
        assert_eq!(r.labels[t20], 1, "trusts the consistent worker");
        let q = r.worker_quality.unwrap();
        let good = m.worker_index(WorkerId::new(0)).unwrap();
        let bad = m.worker_index(WorkerId::new(3)).unwrap();
        assert!(q[good] > q[bad]);
    }

    #[test]
    fn one_answer_per_task_follows_the_vote() {
        // Every message is 0 once a task has no second worker to pass one
        // on, so each decision falls back to the task's single vote.
        let rows: Vec<(u64, u64, u32)> = (0..12).map(|t| (t, t % 4, (t % 3 == 0) as u32)).collect();
        let m = matrix(&rows);
        let r = Kos::default().infer(&m).unwrap();
        for &(t, _, l) in &rows {
            let t = m.task_index(TaskId::new(t)).unwrap();
            assert_eq!(r.labels[t], l, "task {t} follows its vote");
            assert!(r.posteriors[t][l as usize] > 0.5, "{:?}", r.posteriors[t]);
        }
    }

    #[test]
    fn rejects_non_binary_spaces() {
        let mut m = ResponseMatrix::new(3);
        m.push(TaskId::new(0), WorkerId::new(0), 2).unwrap();
        assert!(matches!(
            Kos::default().infer(&m).unwrap_err(),
            CrowdError::Unsupported(_)
        ));
    }

    #[test]
    fn rejects_empty_matrix() {
        assert!(Kos::default().infer(&ResponseMatrix::new(2)).is_err());
    }

    #[test]
    fn posteriors_match_labels() {
        let m = matrix(&[(0, 0, 1), (0, 1, 1), (0, 2, 0), (1, 0, 0), (1, 1, 0)]);
        let r = Kos::default().infer(&m).unwrap();
        for (t, &l) in r.labels.iter().enumerate() {
            assert!(
                r.posteriors[t][l as usize] >= 0.5,
                "posterior of chosen label below half"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let rows: Vec<(u64, u64, u32)> = (0..15)
            .flat_map(|t| (0..5).map(move |w| (t, w, ((t * w) % 2) as u32)))
            .collect();
        let m1 = matrix(&rows);
        let m2 = matrix(&rows);
        let r1 = Kos::default().infer(&m1).unwrap();
        let r2 = Kos::default().infer(&m2).unwrap();
        assert_eq!(r1.labels, r2.labels);
    }
}
