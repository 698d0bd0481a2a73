//! Majority vote and weighted majority vote.
//!
//! Majority vote is the baseline every truth-inference comparison includes:
//! no worker model, each answer counts once, argmax wins. Weighted majority
//! vote takes externally supplied worker weights (e.g. from gold-question
//! qualification tests) and counts each answer proportionally.

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::WorkerId;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};
use std::collections::HashMap;

use crate::em::{argmax_labels, normalize, posterior_rows};
use crate::lineage::RunLineage;

/// Unweighted majority vote.
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityVote;

impl TruthInferencer for MajorityVote {
    fn name(&self) -> &'static str {
        "mv"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        if matrix.is_empty() {
            return Err(CrowdError::EmptyInput("response matrix"));
        }
        let run_start = crowdkit_obs::WallTimer::start();
        let k = matrix.num_labels();
        let (offsets, entries) = matrix.task_csr();
        let mut posteriors = vec![0.0f64; matrix.num_tasks() * k];
        for (t, row) in posteriors.chunks_mut(k).enumerate() {
            for &(_, l) in &entries[offsets[t] as usize..offsets[t + 1] as usize] {
                row[l as usize] += 1.0;
            }
            normalize(row);
        }
        let labels = argmax_labels(&posteriors, k);
        // Single-pass: the lineage baseline *is* the final table, so the
        // flip timeline is legitimately empty.
        let tel = crowdkit_obs::scope();
        if let Some(lineage) = RunLineage::begin(&tel, "mv", &posteriors, k) {
            lineage.finish(&*tel.recorder, matrix, &posteriors, None);
        }
        crate::em::obs_run(&tel, "mv", matrix, 1, true, run_start);
        Ok(InferenceResult {
            labels,
            posteriors: posterior_rows(&posteriors, k),
            worker_quality: None,
            iterations: 1,
            converged: true,
        })
    }
}

/// Majority vote with per-worker weights.
///
/// Workers missing from the weight table get [`WeightedMajorityVote::default_weight`].
/// Negative weights are rejected at construction.
#[derive(Debug, Clone)]
pub struct WeightedMajorityVote {
    // Keyed lookups only — never iterated, so hash order is inert (DET001).
    weights: HashMap<WorkerId, f64>,
    /// Weight applied to workers not present in the table.
    pub default_weight: f64,
}

impl WeightedMajorityVote {
    /// Creates a weighted vote from `(worker, weight)` pairs.
    ///
    /// # Panics
    /// Panics if any weight (or the default) is negative or non-finite.
    pub fn new<I>(weights: I, default_weight: f64) -> Self
    where
        I: IntoIterator<Item = (WorkerId, f64)>,
    {
        let weights: HashMap<WorkerId, f64> = weights.into_iter().collect();
        assert!(
            default_weight.is_finite() && default_weight >= 0.0,
            "default weight must be non-negative"
        );
        assert!(
            weights.values().all(|w| w.is_finite() && *w >= 0.0),
            "worker weights must be non-negative"
        );
        Self {
            weights,
            default_weight,
        }
    }

    fn weight(&self, worker: WorkerId) -> f64 {
        self.weights
            .get(&worker)
            .copied()
            .unwrap_or(self.default_weight)
    }
}

impl TruthInferencer for WeightedMajorityVote {
    fn name(&self) -> &'static str {
        "wmv"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        if matrix.is_empty() {
            return Err(CrowdError::EmptyInput("response matrix"));
        }
        let run_start = crowdkit_obs::WallTimer::start();
        let k = matrix.num_labels();
        // Resolve external-id weights to dense indices once, outside the
        // accumulation loop.
        let dense_weights: Vec<f64> = (0..matrix.num_workers())
            .map(|w| self.weight(matrix.worker_id(w)))
            .collect();
        let (offsets, entries) = matrix.task_csr();
        let mut posteriors = vec![0.0f64; matrix.num_tasks() * k];
        for (t, row) in posteriors.chunks_mut(k).enumerate() {
            for &(w, l) in &entries[offsets[t] as usize..offsets[t + 1] as usize] {
                row[l as usize] += dense_weights[w as usize];
            }
            normalize(row);
        }
        let labels = argmax_labels(&posteriors, k);
        let worker_quality: Option<Vec<f64>> = Some(
            (0..matrix.num_workers())
                .map(|w| self.weight(matrix.worker_id(w)).clamp(0.0, 1.0))
                .collect(),
        );
        let tel = crowdkit_obs::scope();
        if let Some(lineage) = RunLineage::begin(&tel, "wmv", &posteriors, k) {
            lineage.finish(
                &*tel.recorder,
                matrix,
                &posteriors,
                worker_quality.as_deref(),
            );
        }
        crate::em::obs_run(&tel, "wmv", matrix, 1, true, run_start);
        Ok(InferenceResult {
            labels,
            posteriors: posterior_rows(&posteriors, k),
            worker_quality,
            iterations: 1,
            converged: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::TaskId;

    fn matrix(rows: &[(u64, u64, u32)], k: usize) -> ResponseMatrix {
        let mut m = ResponseMatrix::new(k);
        for &(t, w, l) in rows {
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
        m
    }

    #[test]
    fn mv_picks_plurality() {
        let m = matrix(&[(0, 0, 1), (0, 1, 1), (0, 2, 0), (1, 0, 0)], 2);
        let r = MajorityVote.infer(&m).unwrap();
        assert_eq!(r.labels, vec![1, 0]);
        assert!((r.posteriors[0][1] - 2.0 / 3.0).abs() < 1e-12);
        assert!(r.worker_quality.is_none());
    }

    #[test]
    fn mv_tie_breaks_deterministically() {
        let m = matrix(&[(0, 0, 0), (0, 1, 1)], 2);
        let r = MajorityVote.infer(&m).unwrap();
        assert_eq!(r.labels, vec![0], "ties resolve to the smaller label");
    }

    #[test]
    fn mv_rejects_empty() {
        let m = ResponseMatrix::new(2);
        assert!(matches!(
            MajorityVote.infer(&m).unwrap_err(),
            CrowdError::EmptyInput(_)
        ));
    }

    #[test]
    fn wmv_weights_flip_the_outcome() {
        // Two workers say 0, one trusted worker says 1.
        let m = matrix(&[(0, 0, 0), (0, 1, 0), (0, 2, 1)], 2);
        let unweighted = MajorityVote.infer(&m).unwrap();
        assert_eq!(unweighted.labels, vec![0]);
        let wmv = WeightedMajorityVote::new([(WorkerId::new(2), 5.0)], 1.0);
        let weighted = wmv.infer(&m).unwrap();
        assert_eq!(weighted.labels, vec![1]);
    }

    #[test]
    fn wmv_default_weight_applies_to_unknown_workers() {
        let m = matrix(&[(0, 0, 0), (0, 1, 1)], 2);
        // Unknown workers get weight 0 → zero-mass row → uniform → tie → 0.
        let wmv = WeightedMajorityVote::new([(WorkerId::new(1), 1.0)], 0.0);
        let r = wmv.infer(&m).unwrap();
        assert_eq!(r.labels, vec![1], "only worker 1 carries weight");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn wmv_rejects_negative_weights() {
        let _ = WeightedMajorityVote::new([(WorkerId::new(0), -1.0)], 1.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MajorityVote.name(), "mv");
        assert_eq!(WeightedMajorityVote::new([], 1.0).name(), "wmv");
    }
}
