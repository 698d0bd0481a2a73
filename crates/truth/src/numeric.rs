//! Numeric truth inference: aggregating quantitative crowd estimates.
//!
//! Crowd numeric answers ("how many people are in this photo?") are
//! aggregated with robust statistics rather than votes. This module
//! implements the standard estimators plus an iteratively reweighted
//! scheme that learns per-worker precision — the numeric analogue of the
//! categorical EM family.

use std::collections::BTreeMap;

use crowdkit_core::answer::Answer;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::{TaskId, WorkerId};

/// Grouped numeric observations: per task, the `(worker, value)` pairs.
///
/// Tasks iterate in id order so every aggregate that reduces across tasks
/// or workers is bit-reproducible run to run.
#[derive(Debug, Clone, Default)]
pub struct NumericResponses {
    groups: BTreeMap<TaskId, Vec<(WorkerId, f64)>>,
}

impl NumericResponses {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects numeric answers; non-numeric answers are rejected.
    pub fn from_answers<'a, I>(answers: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Answer>,
    {
        let mut s = Self::new();
        for a in answers {
            let v = a.value.as_number().ok_or(CrowdError::AnswerTypeMismatch {
                expected: "number",
                found: a.value.type_name(),
            })?;
            s.push(a.task, a.worker, v);
        }
        Ok(s)
    }

    /// Adds one observation.
    pub fn push(&mut self, task: TaskId, worker: WorkerId, value: f64) {
        self.groups.entry(task).or_default().push((worker, value));
    }

    /// Number of tasks with at least one observation.
    pub fn num_tasks(&self) -> usize {
        self.groups.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterates `(task, observations)` in task-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &[(WorkerId, f64)])> {
        self.groups.iter().map(|(t, v)| (*t, v.as_slice()))
    }

    /// The observations for one task.
    pub fn get(&self, task: TaskId) -> Option<&[(WorkerId, f64)]> {
        self.groups.get(&task).map(Vec::as_slice)
    }
}

/// Per-task estimates produced by a numeric aggregator.
pub type NumericEstimates = BTreeMap<TaskId, f64>;

/// Mean of each task's values.
pub fn mean_estimates(r: &NumericResponses) -> Result<NumericEstimates> {
    non_empty(r)?;
    Ok(r.iter()
        .map(|(t, obs)| {
            let m = obs.iter().map(|(_, v)| v).sum::<f64>() / obs.len() as f64;
            (t, m)
        })
        .collect())
}

/// Median of each task's values — robust to a minority of spammers.
pub fn median_estimates(r: &NumericResponses) -> Result<NumericEstimates> {
    non_empty(r)?;
    Ok(r.iter()
        .map(|(t, obs)| {
            let mut vals: Vec<f64> = obs.iter().map(|(_, v)| *v).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            let n = vals.len();
            let m = if n % 2 == 1 {
                vals[n / 2]
            } else {
                0.5 * (vals[n / 2 - 1] + vals[n / 2])
            };
            (t, m)
        })
        .collect())
}

/// Trimmed mean: drops the `trim` fraction of observations from each end
/// before averaging (`trim = 0.1` drops the lowest and highest 10 %).
///
/// # Panics
/// Panics if `trim` is not in `[0, 0.5)`.
pub fn trimmed_mean_estimates(r: &NumericResponses, trim: f64) -> Result<NumericEstimates> {
    assert!(
        (0.0..0.5).contains(&trim),
        "trim fraction must be in [0, 0.5)"
    );
    non_empty(r)?;
    Ok(r.iter()
        .map(|(t, obs)| {
            let mut vals: Vec<f64> = obs.iter().map(|(_, v)| *v).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            let drop = (vals.len() as f64 * trim).floor() as usize;
            let kept = &vals[drop..vals.len() - drop];
            // Guaranteed non-empty: drop < len/2 on both sides.
            let m = kept.iter().sum::<f64>() / kept.len() as f64;
            (t, m)
        })
        .collect())
}

/// Result of the iteratively-reweighted estimator.
#[derive(Debug, Clone)]
pub struct ReweightedResult {
    /// Per-task estimates.
    pub estimates: NumericEstimates,
    /// Learned per-worker weights (inverse variance, normalized to mean 1).
    pub worker_weights: BTreeMap<WorkerId, f64>,
    /// Iterations run.
    pub iterations: usize,
}

/// Iteratively reweighted averaging: alternates (a) per-task weighted means
/// and (b) per-worker precision estimates from residuals. Workers whose
/// answers sit close to the consensus get up-weighted; erratic workers are
/// suppressed. This is the numeric analogue of one-coin EM.
pub fn reweighted_estimates(r: &NumericResponses, max_iters: usize) -> Result<ReweightedResult> {
    non_empty(r)?;
    let mut weights: BTreeMap<WorkerId, f64> = BTreeMap::new();
    for (_, obs) in r.iter() {
        for (w, _) in obs {
            weights.insert(*w, 1.0);
        }
    }

    let mut estimates = NumericEstimates::new();
    let mut iterations = 0;
    for _ in 0..max_iters.max(1) {
        iterations += 1;
        // (a) Weighted means.
        let mut next = NumericEstimates::new();
        for (t, obs) in r.iter() {
            let mut num = 0.0;
            let mut den = 0.0;
            for (w, v) in obs {
                let wt = weights[w];
                num += wt * v;
                den += wt;
            }
            next.insert(t, if den > 0.0 { num / den } else { obs[0].1 });
        }

        // (b) Per-worker variance from residuals (floored to avoid infinite
        // precision for workers who happen to match exactly). Ordered maps
        // keep the residual sums and the normalization below in worker-id
        // order, so the learned weights are bit-identical across runs.
        let mut sq: BTreeMap<WorkerId, (f64, usize)> = BTreeMap::new();
        for (t, obs) in r.iter() {
            let est = next[&t];
            for (w, v) in obs {
                let e = sq.entry(*w).or_insert((0.0, 0));
                e.0 += (v - est) * (v - est);
                e.1 += 1;
            }
        }
        let mut raw: BTreeMap<WorkerId, f64> = BTreeMap::new();
        for (w, (ss, n)) in &sq {
            let var = (ss / *n as f64).max(1e-9);
            raw.insert(*w, 1.0 / var);
        }
        // Normalize to mean 1 so weights are comparable across iterations.
        let mean_w = raw.values().sum::<f64>() / raw.len() as f64;
        for v in raw.values_mut() {
            *v /= mean_w;
        }

        let moved = estimates.is_empty()
            || next
                .iter()
                .any(|(t, v)| (estimates.get(t).copied().unwrap_or(f64::MAX) - v).abs() > 1e-9);
        estimates = next;
        weights = raw;
        if !moved {
            break;
        }
    }

    Ok(ReweightedResult {
        estimates,
        worker_weights: weights.into_iter().collect(),
        iterations,
    })
}

fn non_empty(r: &NumericResponses) -> Result<()> {
    if r.is_empty() {
        Err(CrowdError::EmptyInput("numeric responses"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u64) -> TaskId {
        TaskId::new(i)
    }
    fn wid(i: u64) -> WorkerId {
        WorkerId::new(i)
    }

    fn responses(rows: &[(u64, u64, f64)]) -> NumericResponses {
        let mut r = NumericResponses::new();
        for &(t, w, v) in rows {
            r.push(tid(t), wid(w), v);
        }
        r
    }

    #[test]
    fn mean_and_median_basic() {
        let r = responses(&[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 9.0)]);
        assert_eq!(mean_estimates(&r).unwrap()[&tid(0)], 4.0);
        assert_eq!(median_estimates(&r).unwrap()[&tid(0)], 2.0);
    }

    #[test]
    fn median_resists_outliers_better_than_mean() {
        let r = responses(&[(0, 0, 10.0), (0, 1, 10.5), (0, 2, 9.5), (0, 3, 1000.0)]);
        let mean = mean_estimates(&r).unwrap()[&tid(0)];
        let median = median_estimates(&r).unwrap()[&tid(0)];
        assert!((median - 10.25).abs() < 1e-9);
        assert!(mean > 200.0);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let r = responses(&[
            (0, 0, 1.0),
            (0, 1, 10.0),
            (0, 2, 10.0),
            (0, 3, 10.0),
            (0, 4, 100.0),
        ]);
        let t = trimmed_mean_estimates(&r, 0.2).unwrap()[&tid(0)];
        assert_eq!(t, 10.0);
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trimmed_mean_rejects_half_trim() {
        let r = responses(&[(0, 0, 1.0)]);
        let _ = trimmed_mean_estimates(&r, 0.5);
    }

    #[test]
    fn reweighted_downweights_the_noisy_worker() {
        // Worker 0 and 1 precise around truth; worker 2 erratic.
        let mut rows = Vec::new();
        for t in 0..20u64 {
            let truth = t as f64;
            rows.push((t, 0, truth + 0.1));
            rows.push((t, 1, truth - 0.1));
            rows.push((t, 2, truth + if t % 2 == 0 { 15.0 } else { -15.0 }));
        }
        let r = responses(&rows);
        let out = reweighted_estimates(&r, 20).unwrap();
        assert!(out.worker_weights[&wid(0)] > out.worker_weights[&wid(2)] * 10.0);
        // Estimates end up near truth despite the erratic worker.
        for t in 0..20u64 {
            assert!((out.estimates[&tid(t)] - t as f64).abs() < 1.0);
        }
    }

    #[test]
    fn reweighted_beats_plain_mean_with_erratic_workers() {
        let mut rows = Vec::new();
        for t in 0..20u64 {
            let truth = 50.0;
            rows.push((t, 0, truth + 0.5));
            rows.push((t, 1, truth - 0.5));
            rows.push((t, 2, truth + if t % 2 == 0 { 30.0 } else { -30.0 }));
        }
        let r = responses(&rows);
        let means = mean_estimates(&r).unwrap();
        let rew = reweighted_estimates(&r, 20).unwrap();
        let err = |e: &NumericEstimates| -> f64 {
            (0..20u64).map(|t| (e[&tid(t)] - 50.0).abs()).sum::<f64>() / 20.0
        };
        assert!(err(&rew.estimates) < err(&means), "reweighting should help");
    }

    #[test]
    fn from_answers_rejects_non_numeric() {
        use crowdkit_core::answer::{Answer, AnswerValue};
        let a = vec![Answer::bare(tid(0), wid(0), AnswerValue::Choice(1))];
        assert!(NumericResponses::from_answers(&a).is_err());
        let b = vec![Answer::bare(tid(0), wid(0), AnswerValue::Number(3.0))];
        let r = NumericResponses::from_answers(&b).unwrap();
        assert_eq!(r.num_tasks(), 1);
    }

    #[test]
    fn empty_inputs_error() {
        let r = NumericResponses::new();
        assert!(mean_estimates(&r).is_err());
        assert!(median_estimates(&r).is_err());
        assert!(reweighted_estimates(&r, 5).is_err());
    }
}
