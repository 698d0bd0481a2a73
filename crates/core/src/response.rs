//! The response matrix: the canonical input to truth-inference algorithms.
//!
//! A [`ResponseMatrix`] packs a set of `(task, worker, label)` observations
//! into dense indices so EM-style algorithms can run over flat vectors.
//! It keeps bidirectional maps between external [`TaskId`]/[`WorkerId`]s
//! and internal dense indices via two [`IdInterner`]s — the sanctioned
//! route from sparse platform ids to flat-array slots.
//!
//! # Memory layout
//!
//! Observations are stored twice:
//!
//! * the **insertion-order log** (`observations`) — the audit trail that
//!   concurrency tests and gold scoring iterate;
//! * a **CSR (compressed sparse row) index** — contiguous `(worker, label)`
//!   pairs grouped by task and `(task, label)` pairs grouped by worker,
//!   each with an offsets array, built lazily in one counting-sort pass and
//!   cached until the next `push`. EM hot loops iterate these flat entry
//!   slices with zero indirection instead of chasing
//!   `Vec<Vec<usize>> → observations[i]`.
//!
//! Offsets and entries are `u32` end to end: at the million-scale workload
//! (1M tasks / 10M observations) the CSR is the dominant resident
//! structure, and `u32` halves it relative to `usize` on 64-bit hosts. A
//! matrix therefore holds at most `u32::MAX` observations — beyond that
//! the counting-sort offsets would wrap — and `push` enforces the cap.

use std::sync::OnceLock;

use crate::answer::Answer;
use crate::error::{CrowdError, Result};
use crate::ids::{TaskId, WorkerId};
use crate::intern::IdInterner;

/// One categorical observation: worker `w` labelled task `t` as `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Dense task index.
    pub task: usize,
    /// Dense worker index.
    pub worker: usize,
    /// Label index in `0..num_labels`.
    pub label: u32,
}

/// The cached CSR groupings of a [`ResponseMatrix`].
///
/// `task_entries[task_offsets[t]..task_offsets[t + 1]]` holds task `t`'s
/// `(worker, label)` pairs in insertion order; the worker side mirrors it
/// with `(task, label)` pairs. Entries are `u32` pairs so a grouping row
/// is one contiguous 8-byte-stride scan, and offsets are `u32` so the
/// index arrays stay half the width of a `usize` layout.
#[derive(Debug, Clone, Default)]
struct CsrIndex {
    /// `task_entries` offsets, one per task plus a trailing total.
    task_offsets: Vec<u32>,
    /// `(worker, label)` pairs grouped by task.
    task_entries: Vec<(u32, u32)>,
    /// `worker_entries` offsets, one per worker plus a trailing total.
    worker_offsets: Vec<u32>,
    /// `(task, label)` pairs grouped by worker.
    worker_entries: Vec<(u32, u32)>,
}

/// A dense-indexed view over categorical crowd answers.
#[derive(Debug, Clone, Default)]
pub struct ResponseMatrix {
    num_labels: usize,
    observations: Vec<Observation>,
    tasks: IdInterner<TaskId>,
    workers: IdInterner<WorkerId>,
    /// Lazily built CSR groupings; invalidated by `push`.
    csr: OnceLock<CsrIndex>,
}

impl ResponseMatrix {
    /// Creates an empty matrix over a label space of size `num_labels`.
    ///
    /// # Panics
    /// Panics if `num_labels == 0`.
    pub fn new(num_labels: usize) -> Self {
        assert!(num_labels > 0, "response matrix needs at least one label");
        Self {
            num_labels,
            ..Default::default()
        }
    }

    /// Creates an empty matrix preallocated for roughly `observations`
    /// pushes, avoiding incremental growth of the observation log and the
    /// id-interning maps.
    pub fn with_capacity(num_labels: usize, observations: usize) -> Self {
        let mut m = Self::new(num_labels);
        m.observations.reserve(observations);
        m.tasks.reserve(observations.min(1024));
        m.workers.reserve(observations.min(1024));
        m
    }

    /// Builds a matrix from [`Answer`]s, using each answer's `Choice` value.
    ///
    /// Fails if any answer is not a `Choice` or its label is out of range.
    pub fn from_answers<'a, I>(num_labels: usize, answers: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Answer>,
    {
        let answers = answers.into_iter();
        let mut m = Self::with_capacity(num_labels, answers.size_hint().0);
        for a in answers {
            let label = a.value.as_choice().ok_or(CrowdError::AnswerTypeMismatch {
                expected: "choice",
                found: a.value.type_name(),
            })?;
            m.push(a.task, a.worker, label)?;
        }
        Ok(m)
    }

    /// Records that `worker` labelled `task` as `label`.
    ///
    /// # Panics
    /// Panics when the matrix already holds `u32::MAX` observations — the
    /// `u32` CSR offsets cannot index past that.
    pub fn push(&mut self, task: TaskId, worker: WorkerId, label: u32) -> Result<()> {
        if label as usize >= self.num_labels {
            return Err(CrowdError::LabelOutOfRange {
                label,
                space: self.num_labels as u32,
            });
        }
        assert!(
            self.observations.len() < u32::MAX as usize,
            "response matrix full: u32 CSR offsets cap observations at u32::MAX"
        );
        let t = self.tasks.intern(task) as usize;
        let w = self.workers.intern(worker) as usize;
        self.observations.push(Observation {
            task: t,
            worker: w,
            label,
        });
        // The cached groupings are stale now; the next accessor rebuilds
        // them in one pass.
        if self.csr.get().is_some() {
            self.csr = OnceLock::new();
        }
        Ok(())
    }

    /// The CSR groupings, building them on first access after a mutation.
    ///
    /// One counting-sort pass over the observation log: per-group order is
    /// insertion order (the sort is stable), so downstream reductions see a
    /// deterministic entry order regardless of when the index was built.
    fn csr(&self) -> &CsrIndex {
        self.csr.get_or_init(|| {
            let n_obs = self.observations.len();
            let mut task_offsets = vec![0u32; self.tasks.len() + 1];
            let mut worker_offsets = vec![0u32; self.workers.len() + 1];
            for o in &self.observations {
                task_offsets[o.task + 1] += 1;
                worker_offsets[o.worker + 1] += 1;
            }
            for i in 1..task_offsets.len() {
                task_offsets[i] += task_offsets[i - 1];
            }
            for i in 1..worker_offsets.len() {
                worker_offsets[i] += worker_offsets[i - 1];
            }
            let mut task_entries = vec![(0u32, 0u32); n_obs];
            let mut worker_entries = vec![(0u32, 0u32); n_obs];
            let mut task_cursor = task_offsets.clone();
            let mut worker_cursor = worker_offsets.clone();
            for o in &self.observations {
                task_entries[task_cursor[o.task] as usize] = (o.worker as u32, o.label);
                task_cursor[o.task] += 1;
                worker_entries[worker_cursor[o.worker] as usize] = (o.task as u32, o.label);
                worker_cursor[o.worker] += 1;
            }
            CsrIndex {
                task_offsets,
                task_entries,
                worker_offsets,
                worker_entries,
            }
        })
    }

    /// Number of labels in the space.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of distinct tasks seen.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of distinct workers seen.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total number of observations.
    #[inline]
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// True if no observations were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// All observations, in insertion order.
    #[inline]
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The task-id interner: dense index ↔ external [`TaskId`].
    #[inline]
    pub fn task_interner(&self) -> &IdInterner<TaskId> {
        &self.tasks
    }

    /// The worker-id interner: dense index ↔ external [`WorkerId`].
    #[inline]
    pub fn worker_interner(&self) -> &IdInterner<WorkerId> {
        &self.workers
    }

    /// The external id of dense task index `t`.
    pub fn task_id(&self, t: usize) -> TaskId {
        self.tasks.ids()[t]
    }

    /// The external id of dense worker index `w`.
    pub fn worker_id(&self, w: usize) -> WorkerId {
        self.workers.ids()[w]
    }

    /// The dense index of an external task id, if present.
    pub fn task_index(&self, task: TaskId) -> Option<usize> {
        self.tasks.dense(task).map(|d| d as usize)
    }

    /// The dense index of an external worker id, if present.
    pub fn worker_index(&self, worker: WorkerId) -> Option<usize> {
        self.workers.dense(worker).map(|d| d as usize)
    }

    /// The flat task grouping: `(offsets, entries)` where the slice
    /// `entries[offsets[t] as usize..offsets[t + 1] as usize]` holds task
    /// `t`'s `(worker, label)` pairs in insertion order.
    ///
    /// This is the hot-path view: EM E-steps walk one contiguous entry
    /// slice per task. Prefer it over [`Self::observations_for_task`] in
    /// inner loops.
    pub fn task_csr(&self) -> (&[u32], &[(u32, u32)]) {
        let csr = self.csr();
        (&csr.task_offsets, &csr.task_entries)
    }

    /// The flat worker grouping: `(offsets, entries)` where the slice
    /// `entries[offsets[w] as usize..offsets[w + 1] as usize]` holds worker
    /// `w`'s `(task, label)` pairs in insertion order.
    ///
    /// The hot-path view for M-step soft-count accumulation over workers.
    pub fn worker_csr(&self) -> (&[u32], &[(u32, u32)]) {
        let csr = self.csr();
        (&csr.worker_offsets, &csr.worker_entries)
    }

    /// Task `t`'s `(worker, label)` pairs as one contiguous slice.
    pub fn task_entries(&self, t: usize) -> &[(u32, u32)] {
        let csr = self.csr();
        &csr.task_entries[csr.task_offsets[t] as usize..csr.task_offsets[t + 1] as usize]
    }

    /// Worker `w`'s `(task, label)` pairs as one contiguous slice.
    pub fn worker_entries(&self, w: usize) -> &[(u32, u32)] {
        let csr = self.csr();
        &csr.worker_entries[csr.worker_offsets[w] as usize..csr.worker_offsets[w + 1] as usize]
    }

    /// Observations on dense task index `t`, in insertion order.
    pub fn observations_for_task(&self, t: usize) -> impl Iterator<Item = Observation> + '_ {
        self.task_entries(t)
            .iter()
            .map(move |&(w, label)| Observation {
                task: t,
                worker: w as usize,
                label,
            })
    }

    /// Observations by dense worker index `w`, in insertion order.
    pub fn observations_by_worker(&self, w: usize) -> impl Iterator<Item = Observation> + '_ {
        self.worker_entries(w)
            .iter()
            .map(move |&(t, label)| Observation {
                task: t as usize,
                worker: w,
                label,
            })
    }

    /// Number of answers each worker gave, indexed densely.
    pub fn answers_per_worker(&self) -> Vec<usize> {
        let offsets = &self.csr().worker_offsets;
        offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect()
    }

    /// Number of answers each task received, indexed densely.
    pub fn answers_per_task(&self) -> Vec<usize> {
        let offsets = &self.csr().task_offsets;
        offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect()
    }

    /// Per-task vote counts: `counts[t][l]` = how many workers labelled
    /// task `t` as `l`.
    pub fn vote_counts(&self) -> Vec<Vec<u32>> {
        let (offsets, entries) = self.task_csr();
        (0..self.num_tasks())
            .map(|t| {
                let mut row = vec![0u32; self.num_labels];
                for &(_, l) in &entries[offsets[t] as usize..offsets[t + 1] as usize] {
                    row[l as usize] += 1;
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerValue;

    fn tid(i: u64) -> TaskId {
        TaskId::new(i)
    }
    fn wid(i: u64) -> WorkerId {
        WorkerId::new(i)
    }

    #[test]
    fn push_interns_ids_densely() {
        let mut m = ResponseMatrix::new(2);
        m.push(tid(100), wid(7), 1).unwrap();
        m.push(tid(200), wid(7), 0).unwrap();
        m.push(tid(100), wid(9), 1).unwrap();
        assert_eq!(m.num_tasks(), 2);
        assert_eq!(m.num_workers(), 2);
        assert_eq!(m.num_observations(), 3);
        assert_eq!(m.task_index(tid(100)), Some(0));
        assert_eq!(m.task_index(tid(200)), Some(1));
        assert_eq!(m.task_id(0), tid(100));
        assert_eq!(m.worker_index(wid(9)), Some(1));
        assert_eq!(m.worker_id(0), wid(7));
        assert_eq!(m.task_index(tid(999)), None);
    }

    #[test]
    fn interners_expose_the_dense_maps() {
        let mut m = ResponseMatrix::new(2);
        m.push(tid(500), wid(42), 0).unwrap();
        assert_eq!(m.task_interner().dense(tid(500)), Some(0));
        assert_eq!(m.worker_interner().id(0), wid(42));
        assert!(!m.task_interner().is_identity(), "sparse ids detected");
    }

    #[test]
    fn out_of_range_label_rejected() {
        let mut m = ResponseMatrix::new(2);
        let err = m.push(tid(0), wid(0), 2).unwrap_err();
        assert!(matches!(
            err,
            CrowdError::LabelOutOfRange { label: 2, space: 2 }
        ));
        assert!(m.is_empty());
    }

    #[test]
    fn groupings_are_consistent() {
        let mut m = ResponseMatrix::new(3);
        m.push(tid(0), wid(0), 0).unwrap();
        m.push(tid(0), wid(1), 1).unwrap();
        m.push(tid(1), wid(0), 2).unwrap();
        assert_eq!(m.answers_per_task(), vec![2, 1]);
        assert_eq!(m.answers_per_worker(), vec![2, 1]);
        let labels_t0: Vec<u32> = m.observations_for_task(0).map(|o| o.label).collect();
        assert_eq!(labels_t0, vec![0, 1]);
        let tasks_w0: Vec<usize> = m.observations_by_worker(0).map(|o| o.task).collect();
        assert_eq!(tasks_w0, vec![0, 1]);
    }

    #[test]
    fn vote_counts_tally_labels() {
        let mut m = ResponseMatrix::new(2);
        m.push(tid(0), wid(0), 1).unwrap();
        m.push(tid(0), wid(1), 1).unwrap();
        m.push(tid(0), wid(2), 0).unwrap();
        let counts = m.vote_counts();
        assert_eq!(counts, vec![vec![1, 2]]);
    }

    #[test]
    fn from_answers_requires_choices() {
        let good = vec![
            Answer::bare(tid(0), wid(0), AnswerValue::Choice(1)),
            Answer::bare(tid(0), wid(1), AnswerValue::Choice(0)),
        ];
        let m = ResponseMatrix::from_answers(2, &good).unwrap();
        assert_eq!(m.num_observations(), 2);

        let bad = vec![Answer::bare(tid(0), wid(0), AnswerValue::Number(0.5))];
        let err = ResponseMatrix::from_answers(2, &bad).unwrap_err();
        assert!(matches!(err, CrowdError::AnswerTypeMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn zero_labels_panics() {
        let _ = ResponseMatrix::new(0);
    }

    #[test]
    fn csr_entries_group_in_insertion_order() {
        let mut m = ResponseMatrix::new(3);
        m.push(tid(0), wid(0), 0).unwrap();
        m.push(tid(1), wid(0), 2).unwrap();
        m.push(tid(0), wid(1), 1).unwrap();
        let (t_off, t_entries) = m.task_csr();
        assert_eq!(t_off, &[0, 2, 3]);
        assert_eq!(t_entries, &[(0, 0), (1, 1), (0, 2)]);
        let (w_off, w_entries) = m.worker_csr();
        assert_eq!(w_off, &[0, 2, 3]);
        assert_eq!(w_entries, &[(0, 0), (1, 2), (0, 1)]);
        assert_eq!(m.task_entries(0), &[(0, 0), (1, 1)]);
        assert_eq!(m.worker_entries(1), &[(0, 1)]);
    }

    #[test]
    fn csr_rebuilds_after_interleaved_push() {
        let mut m = ResponseMatrix::new(2);
        m.push(tid(0), wid(0), 1).unwrap();
        assert_eq!(m.task_entries(0), &[(0, 1)]);
        // Push after a read: the cached index must be invalidated.
        m.push(tid(0), wid(1), 0).unwrap();
        m.push(tid(1), wid(0), 0).unwrap();
        assert_eq!(m.task_entries(0), &[(0, 1), (1, 0)]);
        assert_eq!(m.answers_per_task(), vec![2, 1]);
        assert_eq!(m.answers_per_worker(), vec![2, 1]);
    }
}
