//! Per-inference-run decision lineage: label flip history across EM
//! iterations, posterior margins, contributing votes and final worker
//! weights, distilled into `prov.*` obs events (schema in
//! [`crowdkit_obs::prov`]).
//!
//! A truth inferencer opens a [`RunLineage`] right after it initialises
//! its posterior table, feeds it the *committed* posterior table once per
//! EM iteration (after the E-step commit — on the sparse freeze path the
//! committed table is bit-identical to the dense reference's, so the
//! recorded lineage is too), and closes it with the final posteriors and
//! per-worker quality. All bookkeeping is `O(tasks · labels)` per
//! iteration — a couple of compares per task, on the committed rows in
//! place, with no allocation — and everything is emitted from the sequential
//! tail of the run, in ascending dense-index order, which keeps the
//! stream deterministic at any thread count.

use crowdkit_core::response::ResponseMatrix;
use crowdkit_obs::{Event, Recorder, Scope};

use crate::em::{argmax, argmax_labels};

/// Tasks whose posterior margin (top-1 minus top-2 probability) falls
/// strictly below this count as *contested* in the `prov.run` summary,
/// which reports it as `margin_thr`. `crowdtrace audit` applies its own
/// (flaggable) threshold at read time; this one only feeds the roll-up.
const CONTESTED_MARGIN: f64 = 0.1;

/// One label flip: at iteration `iter` task `task` moved `from` → `to`.
#[derive(Debug, Clone, Copy)]
struct Flip {
    iter: u32,
    task: u32,
    from: u32,
    to: u32,
}

/// Collector for one truth-inference run's decision lineage.
///
/// Constructed via [`RunLineage::begin`], which returns `None` unless the
/// scope has provenance on *and* an enabled recorder — so the
/// instrumentation sites stay a cheap `if let Some(l) = &mut lineage`
/// away from zero cost.
#[derive(Debug)]
pub(crate) struct RunLineage {
    algo: &'static str,
    k: usize,
    /// Current argmax label per task; the baseline is the initial
    /// posterior table (vote fractions for the EM kernels).
    labels: Vec<u32>,
    flips: Vec<Flip>,
}

/// Top-1 minus top-2 probability of one posterior row (1.0 when `k < 2`).
fn margin_of(row: &[f64]) -> f64 {
    if row.len() < 2 {
        return 1.0;
    }
    let mut top1 = f64::NEG_INFINITY;
    let mut top2 = f64::NEG_INFINITY;
    for &p in row {
        if p > top1 {
            top2 = top1;
            top1 = p;
        } else if p > top2 {
            top2 = p;
        }
    }
    top1 - top2
}

impl RunLineage {
    /// Opens a lineage collector for `algo`, baselined on the initial
    /// posterior table (flat `tasks × k`). Returns `None` unless `scope`
    /// captures provenance into an enabled recorder.
    pub(crate) fn begin(
        scope: &Scope,
        algo: &'static str,
        posteriors: &[f64],
        k: usize,
    ) -> Option<Self> {
        if !scope.provenance || !scope.recorder.enabled() {
            return None;
        }
        Some(Self {
            algo,
            k,
            labels: argmax_labels(posteriors, k),
            flips: Vec::new(),
        })
    }

    /// Records the label flips introduced by EM iteration `iter`
    /// (1-based), reading the *committed* posterior table after the
    /// E-step. Call once per completed iteration, from sequential code.
    pub(crate) fn observe_iter(&mut self, iter: usize, posteriors: &[f64]) {
        let rows = posteriors.chunks(self.k);
        for (t, (cur, row)) in self.labels.iter_mut().zip(rows).enumerate() {
            let new = argmax(row);
            if *cur != new {
                self.flips.push(Flip {
                    iter: iter as u32,
                    task: t as u32,
                    from: *cur,
                    to: new,
                });
                *cur = new;
            }
        }
    }

    /// Closes the run: emits `prov.task` and `prov.worker` detail events
    /// (when `rec` wants detail) plus the `prov.run` summary, all from
    /// this thread in ascending dense-index order. `rec` is the recorder
    /// of the scope the run began under.
    ///
    /// `worker_quality` is the algorithm's converged per-worker estimate
    /// (confusion diagonal, reliability, `sigmoid(alpha)`, agreement);
    /// algorithms with no worker model (plain majority vote) pass `None`
    /// and report a uniform weight of 1.
    pub(crate) fn finish(
        mut self,
        rec: &dyn Recorder,
        matrix: &ResponseMatrix,
        posteriors: &[f64],
        worker_quality: Option<&[f64]>,
    ) {
        let n_tasks = matrix.num_tasks();
        let k = self.k;
        // The final committed table is what the last observe_iter saw for
        // the EM kernels, but single-pass algorithms never call it — fold
        // the final table in as one more observation so `labels` is
        // always the final decision.
        self.observe_iter(self.flips.last().map_or(1, |f| f.iter as usize), posteriors);

        let mut margins = vec![0.0f64; n_tasks];
        for (t, row) in posteriors.chunks_exact(k).enumerate().take(n_tasks) {
            margins[t] = margin_of(row);
        }
        let mut contested = 0u64;
        let mut margin_sum = 0.0f64;
        for &m in &margins {
            if m < CONTESTED_MARGIN {
                contested += 1;
            }
            margin_sum += m;
        }
        let margin_mean = if n_tasks == 0 {
            0.0
        } else {
            margin_sum / n_tasks as f64
        };

        if rec.detail() {
            self.emit_tasks(rec, matrix, &margins);
            self.emit_workers(rec, matrix, worker_quality);
        }
        rec.record(
            Event::new("prov.run")
                .str("algo", self.algo)
                .u64("tasks", n_tasks as u64)
                .u64("workers", matrix.num_workers() as u64)
                .u64("contested", contested)
                .f64("margin_thr", CONTESTED_MARGIN)
                .f64("margin_mean", margin_mean)
                .u64("flips", self.flips.len() as u64),
        );
    }

    /// One `prov.task` event per task: final label, margin, contributing
    /// votes ("w3=1,w7=0" in CSR order) and flip timeline ("i2:0>1").
    fn emit_tasks(&self, rec: &dyn Recorder, matrix: &ResponseMatrix, margins: &[f64]) {
        use std::fmt::Write as _;
        let n_tasks = matrix.num_tasks();
        let mut flip_strs: Vec<String> = vec![String::new(); n_tasks];
        for f in &self.flips {
            let s = &mut flip_strs[f.task as usize];
            if !s.is_empty() {
                s.push(',');
            }
            let _ = write!(s, "i{}:{}>{}", f.iter, f.from, f.to);
        }
        let (offsets, entries) = matrix.task_csr();
        for t in 0..n_tasks {
            let span = &entries[offsets[t] as usize..offsets[t + 1] as usize];
            let mut votes = String::new();
            for &(w, l) in span {
                if !votes.is_empty() {
                    votes.push(',');
                }
                let _ = write!(votes, "w{}={}", matrix.worker_id(w as usize).0, l);
            }
            rec.record(
                Event::new("prov.task")
                    .str("algo", self.algo)
                    .u64("task", matrix.task_id(t).0)
                    .u64("label", u64::from(self.labels.get(t).copied().unwrap_or(0)))
                    .f64("margin", margins.get(t).copied().unwrap_or(0.0))
                    .u64("n", span.len() as u64)
                    .str("votes", votes.as_str())
                    .str("flips", flip_strs[t].as_str())
                    .detail(),
            );
        }
    }

    /// One `prov.worker` event per worker: converged weight plus how many
    /// of the worker's answers agree with (or were overruled by) the
    /// final labels.
    fn emit_workers(
        &self,
        rec: &dyn Recorder,
        matrix: &ResponseMatrix,
        worker_quality: Option<&[f64]>,
    ) {
        let (offsets, entries) = matrix.worker_csr();
        for w in 0..matrix.num_workers() {
            let span = &entries[offsets[w] as usize..offsets[w + 1] as usize];
            let answers = span.len() as u64;
            let agree = span
                .iter()
                .filter(|&&(t, l)| self.labels.get(t as usize).copied() == Some(l))
                .count() as u64;
            let weight = worker_quality
                .and_then(|q| q.get(w).copied())
                .unwrap_or(1.0);
            rec.record(
                Event::new("prov.worker")
                    .str("algo", self.algo)
                    .u64("worker", matrix.worker_id(w).0)
                    .f64("weight", weight)
                    .u64("answers", answers)
                    .u64("agree", agree)
                    .u64("overruled", answers - agree)
                    .detail(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_obs::{JsonlRecorder, MemoryRecorder, NullRecorder};
    use std::sync::Arc;

    fn tiny_matrix() -> ResponseMatrix {
        // Two tasks, three workers, binary labels.
        let mut m = ResponseMatrix::new(2);
        m.push(TaskId(10), WorkerId(100), 1).expect("push");
        m.push(TaskId(10), WorkerId(101), 1).expect("push");
        m.push(TaskId(11), WorkerId(100), 0).expect("push");
        m.push(TaskId(11), WorkerId(102), 1).expect("push");
        m
    }

    fn prov_scope(recorder: Arc<dyn Recorder>) -> Scope {
        Scope {
            recorder,
            provenance: true,
        }
    }

    #[test]
    fn begin_requires_provenance_and_an_enabled_recorder() {
        let mem = || -> Arc<dyn Recorder> { Arc::new(MemoryRecorder::new()) };
        assert!(RunLineage::begin(&Scope::default(), "mv", &[0.5, 0.5], 2).is_none());
        let off = Scope {
            provenance: false,
            ..prov_scope(mem())
        };
        assert!(RunLineage::begin(&off, "mv", &[0.5, 0.5], 2).is_none());
        assert!(
            RunLineage::begin(&prov_scope(Arc::new(NullRecorder)), "mv", &[0.5, 0.5], 2).is_none(),
            "null recorder: still off"
        );
        assert!(RunLineage::begin(&prov_scope(mem()), "mv", &[0.5, 0.5], 2).is_some());
    }

    #[test]
    fn margin_is_top1_minus_top2() {
        assert!((margin_of(&[0.7, 0.2, 0.1]) - 0.5).abs() < 1e-12);
        assert_eq!(margin_of(&[1.0]), 1.0);
        assert_eq!(margin_of(&[0.5, 0.5]), 0.0);
    }

    #[test]
    fn flips_and_events_round_trip() {
        let matrix = tiny_matrix();
        let rec = Arc::new(JsonlRecorder::in_memory().with_wall(false));
        let scope = prov_scope(rec.clone());
        // Baseline: task0 -> 1, task1 -> 0.
        let mut l = RunLineage::begin(&scope, "ds", &[0.4, 0.6, 0.8, 0.2], 2).expect("on");
        // Iter 1 flips task1 to label 1.
        l.observe_iter(1, &[0.1, 0.9, 0.3, 0.7]);
        l.finish(
            &*rec,
            &matrix,
            &[0.1, 0.9, 0.3, 0.7],
            Some(&[0.9, 0.8, 0.7]),
        );
        let text = String::from_utf8(rec.take_bytes()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 3 + 1, "2 tasks + 3 workers + run");
        assert!(lines[0].contains("\"key\":\"prov.task\""));
        assert!(lines[0].contains("\"task\":10"));
        assert!(lines[0].contains("\"votes\":\"w100=1,w101=1\""));
        assert!(lines[0].contains("\"flips\":\"\""));
        assert!(lines[1].contains("\"task\":11"));
        assert!(lines[1].contains("\"flips\":\"i1:0>1\""));
        assert!(lines[2].contains("\"key\":\"prov.worker\""));
        assert!(lines[2].contains("\"worker\":100"));
        assert!(lines[2].contains("\"weight\":0.9"));
        // Worker 100 answered task0=1 (agrees) and task1=0 (overruled).
        assert!(lines[2].contains("\"agree\":1"));
        assert!(lines[2].contains("\"overruled\":1"));
        assert!(lines[5].contains("\"key\":\"prov.run\""));
        assert!(lines[5].contains("\"flips\":1"));
        assert!(lines[5].contains("\"tasks\":2"));
        assert!(lines[5].contains("\"margin_thr\":0.1"));
    }

    #[test]
    fn aggregating_recorder_gets_only_the_run_summary() {
        let matrix = tiny_matrix();
        let rec = Arc::new(MemoryRecorder::new());
        let l = RunLineage::begin(&prov_scope(rec.clone()), "mv", &[0.0, 1.0, 1.0, 0.0], 2)
            .expect("on");
        l.finish(&*rec, &matrix, &[0.0, 1.0, 1.0, 0.0], None);
        assert_eq!(rec.count("prov.task"), 0);
        assert_eq!(rec.count("prov.worker"), 0);
        assert_eq!(rec.count("prov.run"), 1);
        // Margins are 1.0, far above the contested threshold.
        assert_eq!(rec.field_sum("prov.run", "contested"), 0.0);
    }
}
