//! Gold-standard (qualification) based quality control.
//!
//! The tutorial's quality-control axis includes *qualification via gold
//! questions*: seed the task stream with questions whose answers are known,
//! score workers on them, and either weight or eliminate workers by their
//! gold accuracy. Unlike the EM family this needs no model assumptions —
//! at the price of spending part of the budget on questions whose answers
//! you already know.
//!
//! * [`GoldSet`] — the known questions and scoring.
//! * [`estimate_worker_quality`] — per-worker gold accuracy with Laplace
//!   smoothing.
//! * [`GoldWeightedVote`] — a [`TruthInferencer`] that weights votes by
//!   gold accuracy and drops workers below an elimination threshold.

use std::collections::BTreeMap;

use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};

use crate::em::{argmax_labels, normalize, posterior_rows};

/// A set of tasks with known answers, used to score workers.
#[derive(Debug, Clone, Default)]
pub struct GoldSet {
    answers: BTreeMap<TaskId, u32>,
}

impl GoldSet {
    /// Creates an empty gold set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from `(task, true label)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (TaskId, u32)>>(pairs: I) -> Self {
        Self {
            answers: pairs.into_iter().collect(),
        }
    }

    /// Registers a gold task.
    pub fn insert(&mut self, task: TaskId, label: u32) {
        self.answers.insert(task, label);
    }

    /// The known label of a task, if it is gold.
    pub fn label(&self, task: TaskId) -> Option<u32> {
        self.answers.get(&task).copied()
    }

    /// Whether a task is gold.
    pub fn contains(&self, task: TaskId) -> bool {
        self.answers.contains_key(&task)
    }

    /// Number of gold tasks.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True if no gold tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
}

/// Per-worker gold performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldScore {
    /// Gold questions the worker answered.
    pub answered: u32,
    /// Of those, answered correctly.
    pub correct: u32,
    /// Laplace-smoothed accuracy estimate `(correct + 1) / (answered + 2)`.
    pub accuracy: f64,
}

/// Scores every worker in `matrix` against the gold set.
///
/// Workers who answered no gold questions get the uninformative prior
/// accuracy of 0.5.
pub fn estimate_worker_quality(
    matrix: &ResponseMatrix,
    gold: &GoldSet,
) -> BTreeMap<WorkerId, GoldScore> {
    let mut scores: BTreeMap<WorkerId, (u32, u32)> = BTreeMap::new();
    for w in 0..matrix.num_workers() {
        scores.insert(matrix.worker_id(w), (0, 0));
    }
    for o in matrix.observations() {
        let task = matrix.task_id(o.task);
        if let Some(truth) = gold.label(task) {
            let e = scores.entry(matrix.worker_id(o.worker)).or_insert((0, 0));
            e.0 += 1;
            if o.label == truth {
                e.1 += 1;
            }
        }
    }
    scores
        .into_iter()
        .map(|(w, (answered, correct))| {
            (
                w,
                GoldScore {
                    answered,
                    correct,
                    accuracy: (correct as f64 + 1.0) / (answered as f64 + 2.0),
                },
            )
        })
        .collect()
}

/// Majority vote weighted by gold accuracy, with hard elimination of
/// workers below `elimination_threshold` (their votes count zero).
///
/// Gold tasks themselves are answered from the gold set, not from votes —
/// you never let the crowd overrule a known answer.
#[derive(Debug, Clone)]
pub struct GoldWeightedVote {
    gold: GoldSet,
    /// Workers with gold accuracy below this are eliminated.
    pub elimination_threshold: f64,
}

impl GoldWeightedVote {
    /// Creates the inferencer with the standard spam threshold of 0.5
    /// (workers at or below chance are eliminated).
    pub fn new(gold: GoldSet) -> Self {
        Self {
            gold,
            elimination_threshold: 0.5,
        }
    }

    /// Overrides the elimination threshold (builder style).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.elimination_threshold = threshold;
        self
    }
}

impl TruthInferencer for GoldWeightedVote {
    fn name(&self) -> &'static str {
        "gold_wmv"
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        if matrix.is_empty() {
            return Err(CrowdError::EmptyInput("response matrix"));
        }
        let run_start = crowdkit_obs::WallTimer::start();
        let k = matrix.num_labels();
        let scores = estimate_worker_quality(matrix, &self.gold);
        let weight_of = |w: usize| -> f64 {
            let s = scores[&matrix.worker_id(w)];
            if s.accuracy <= self.elimination_threshold {
                0.0
            } else {
                // Log-odds weighting: the theoretically optimal vote weight
                // for a one-coin worker.
                (s.accuracy / (1.0 - s.accuracy)).ln().max(0.0)
            }
        };

        let (offsets, entries) = matrix.task_csr();
        let mut posteriors = vec![0.0f64; matrix.num_tasks() * k];
        for (t, row) in posteriors.chunks_mut(k).enumerate() {
            for &(w, l) in &entries[offsets[t] as usize..offsets[t + 1] as usize] {
                row[l as usize] += weight_of(w as usize);
            }
            normalize(row);
        }
        let mut labels = argmax_labels(&posteriors, k);
        let mut posteriors = posterior_rows(&posteriors, k);

        // Gold tasks are fixed to their known answers.
        for t in 0..matrix.num_tasks() {
            if let Some(truth) = self.gold.label(matrix.task_id(t)) {
                labels[t] = truth;
                for (l, p) in posteriors[t].iter_mut().enumerate() {
                    *p = if l == truth as usize { 1.0 } else { 0.0 };
                }
            }
        }

        let worker_quality = Some(
            (0..matrix.num_workers())
                .map(|w| scores[&matrix.worker_id(w)].accuracy)
                .collect(),
        );
        crate::em::obs_run(
            &crowdkit_obs::scope(),
            "gold_wmv",
            matrix,
            1,
            true,
            run_start,
        );
        Ok(InferenceResult {
            labels,
            posteriors,
            worker_quality,
            iterations: 1,
            converged: true,
        })
    }
}

/// Picks every `stride`-th task id from `tasks` as gold, returning the ids
/// chosen — the canonical "inject 10 % gold" pattern (`stride = 10`).
///
/// # Panics
/// Panics if `stride == 0`.
pub fn inject_gold_stride(task_ids: &[TaskId], truths: &[u32], stride: usize) -> GoldSet {
    assert!(stride > 0, "stride must be positive");
    assert_eq!(task_ids.len(), truths.len(), "length mismatch");
    let mut gold = GoldSet::new();
    for i in (0..task_ids.len()).step_by(stride) {
        gold.insert(task_ids[i], truths[i]);
    }
    gold
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

    fn matrix(rows: &[(u64, u64, u32)]) -> ResponseMatrix {
        let mut m = ResponseMatrix::new(2);
        for &(t, w, l) in rows {
            m.push(tid(t), wid(w), l).unwrap();
        }
        m
    }

    #[test]
    fn gold_set_basics() {
        let mut g = GoldSet::new();
        assert!(g.is_empty());
        g.insert(tid(1), 1);
        assert_eq!(g.label(tid(1)), Some(1));
        assert_eq!(g.label(tid(2)), None);
        assert!(g.contains(tid(1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn worker_scores_count_gold_answers_only() {
        // Tasks 0, 1 are gold (truth 1, 0); task 2 is not.
        let gold = GoldSet::from_pairs([(tid(0), 1), (tid(1), 0)]);
        let m = matrix(&[
            (0, 0, 1), // w0 right
            (1, 0, 0), // w0 right
            (0, 1, 0), // w1 wrong
            (1, 1, 0), // w1 right
            (2, 0, 1), // non-gold: ignored for scoring
        ]);
        let scores = estimate_worker_quality(&m, &gold);
        let s0 = scores[&wid(0)];
        let s1 = scores[&wid(1)];
        assert_eq!((s0.answered, s0.correct), (2, 2));
        assert_eq!((s1.answered, s1.correct), (2, 1));
        assert!((s0.accuracy - 3.0 / 4.0).abs() < 1e-12, "laplace smoothing");
        assert!((s1.accuracy - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn unscored_workers_get_the_prior() {
        let gold = GoldSet::from_pairs([(tid(0), 1)]);
        let m = matrix(&[(1, 5, 0)]);
        let scores = estimate_worker_quality(&m, &gold);
        assert_eq!(scores[&wid(5)].answered, 0);
        assert_eq!(scores[&wid(5)].accuracy, 0.5);
    }

    #[test]
    fn gold_vote_eliminates_workers_who_fail_gold() {
        // Worker 9 aces 4 gold tasks; workers 1..=2 fail them all. On the
        // contested task 100, the two bad workers outvote the good one —
        // elimination must side with the good worker.
        let mut rows = Vec::new();
        for t in 0..4u64 {
            rows.push((t, 9, 1));
            rows.push((t, 1, 0));
            rows.push((t, 2, 0));
        }
        rows.push((100, 9, 1));
        rows.push((100, 1, 0));
        rows.push((100, 2, 0));
        let m = matrix(&rows);
        let gold = GoldSet::from_pairs((0..4).map(|t| (tid(t), 1)));
        let algo = GoldWeightedVote::new(gold);
        let r = algo.infer(&m).unwrap();
        let t100 = m.task_index(tid(100)).unwrap();
        assert_eq!(r.labels[t100], 1, "eliminated workers cannot outvote");
        // Gold tasks fixed to truth.
        for t in 0..4u64 {
            let idx = m.task_index(tid(t)).unwrap();
            assert_eq!(r.labels[idx], 1);
            assert_eq!(r.confidence(idx), 1.0);
        }
        let q = r.worker_quality.unwrap();
        assert!(q[m.worker_index(wid(9)).unwrap()] > 0.8);
        assert!(q[m.worker_index(wid(1)).unwrap()] < 0.2);
    }

    #[test]
    fn gold_vote_rejects_empty_matrix() {
        let algo = GoldWeightedVote::new(GoldSet::new());
        assert!(algo.infer(&ResponseMatrix::new(2)).is_err());
    }

    #[test]
    fn inject_gold_stride_selects_every_nth() {
        let ids: Vec<TaskId> = (0..10).map(tid).collect();
        let truths: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let gold = inject_gold_stride(&ids, &truths, 3);
        assert_eq!(gold.len(), 4); // indices 0, 3, 6, 9
        assert_eq!(gold.label(tid(0)), Some(0));
        assert_eq!(gold.label(tid(3)), Some(1));
        assert_eq!(gold.label(tid(1)), None);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        inject_gold_stride(&[], &[], 0);
    }
}
