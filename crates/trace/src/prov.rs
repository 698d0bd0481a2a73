//! Decision-provenance analysis: the read side of the `prov.*` events
//! (`crowdtrace why` and `crowdtrace audit`).
//!
//! Provenance capture (`crowdkit_obs::prov`) records, per truth-inference
//! run, the contributing votes, final worker weights, posterior margins,
//! and label flip history (`prov.task` / `prov.worker` detail events plus
//! the `prov.run` summary), and the spend attribution ledger
//! (`prov.spend`, scoped by task, worker, and plan node). This module
//! folds a loaded stream back into per-run records attributed to their
//! experiment (via the surrounding `exp.begin`/`exp.end` span) and renders
//! the two reports:
//!
//! - [`render_why`] answers "why did task T get this label": votes,
//!   weights, margin, flip timeline, and what the task cost — once per
//!   run that saw the task.
//! - [`render_audit`] rolls the whole suite up: contested tasks below a
//!   margin threshold, most-influential and most-overruled workers, and
//!   spend-per-correct-label by experiment.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stream::LoadedStream;

/// One task's recorded lineage within a run (a `prov.task` detail event).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskLineage {
    /// External task id.
    pub task: u64,
    /// Final label decided by the run.
    pub label: u64,
    /// Posterior margin: top-1 minus top-2 probability.
    pub margin: f64,
    /// Contributing votes, `"w3=1,w7=0"` in response order.
    pub votes: String,
    /// Flip timeline, `"i2:0>1,i4:1>0"`; empty when the decision never
    /// moved from the initial baseline.
    pub flips: String,
}

/// One worker's converged standing within a run (a `prov.worker` event).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLineage {
    /// External worker id.
    pub worker: u64,
    /// Converged quality/weight under the run's worker model.
    pub weight: f64,
    /// Answers the worker contributed to the run.
    pub answers: u64,
    /// Answers agreeing with the final labels.
    pub agree: u64,
    /// Answers overruled by the final labels.
    pub overruled: u64,
}

/// The always-on `prov.run` roll-up for one inference run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSummary {
    /// Tasks labeled.
    pub tasks: u64,
    /// Workers contributing.
    pub workers: u64,
    /// Tasks whose margin fell below the contested threshold.
    pub contested: u64,
    /// The contested-margin threshold the run used.
    pub margin_thr: f64,
    /// Mean posterior margin across tasks.
    pub margin_mean: f64,
    /// Label flips across EM iterations.
    pub flips: u64,
}

/// One inference run's provenance, attributed to its experiment span.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvRun {
    /// Experiment id from the surrounding `exp.begin` span (`"-"` when
    /// the run happened outside any experiment).
    pub exp: String,
    /// Algorithm name (`"mv"`, `"ds"`, `"zc"`, `"glad"`, `"kos"`, …).
    pub algo: String,
    /// Per-task lineage detail (empty when the stream was captured
    /// without detail events).
    pub tasks: Vec<TaskLineage>,
    /// Per-worker lineage detail.
    pub workers: Vec<WorkerLineage>,
    /// The run summary.
    pub summary: RunSummary,
}

/// One `prov.spend` row attributed to its experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SpendRow {
    /// Experiment id (`"-"` outside any experiment span).
    pub exp: String,
    /// Attribution scope: `"task"`, `"worker"`, or `"node"`.
    pub scope: String,
    /// Task/worker external id, when scoped to one.
    pub id: Option<u64>,
    /// Plan-node name for `scope:"node"` rows.
    pub node: Option<String>,
    /// Currency attributed to this scope entry.
    pub spend: f64,
    /// Answers (task/worker scope) or questions (node scope) behind it.
    pub answers: u64,
}

/// Every provenance fact in one stream, plus the per-experiment mean
/// accuracy (from `exp.quality`) the audit needs for
/// spend-per-correct-label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvView {
    /// Inference runs, in stream order.
    pub runs: Vec<ProvRun>,
    /// Spend attribution rows, in stream order.
    pub spend: Vec<SpendRow>,
    /// Per-experiment mean `accuracy` quality metric, when reported.
    pub accuracy: BTreeMap<String, f64>,
}

impl ProvView {
    /// True when the stream carried no provenance events at all.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.spend.is_empty()
    }

    /// True when at least one run carries per-task detail.
    pub fn has_detail(&self) -> bool {
        self.runs.iter().any(|r| !r.tasks.is_empty())
    }
}

/// Folds a loaded stream into a [`ProvView`]. Detail events precede their
/// run's `prov.run` summary in the stream (the provenance layer emits
/// them from one sequential tail), so pending detail is buffered per
/// algorithm and claimed by the next matching summary.
pub fn collect(stream: &LoadedStream) -> ProvView {
    let mut view = ProvView::default();
    let mut exp = "-".to_owned();
    // Detail rows buffered until their run's summary closes them, keyed
    // by algorithm (runs of different algorithms never interleave within
    // one experiment thread, but keying defends the invariant cheaply).
    let mut pending: BTreeMap<String, (Vec<TaskLineage>, Vec<WorkerLineage>)> = BTreeMap::new();
    let mut acc_sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();

    for e in &stream.events {
        match e.key.as_str() {
            "exp.begin" => {
                if let Some(id) = e.field_str("id") {
                    exp = id.to_owned();
                }
            }
            "exp.end" => exp = "-".to_owned(),
            "exp.quality" if e.field_str("metric") == Some("accuracy") => {
                if let Some(v) = e.field_f64("value") {
                    let s = acc_sums.entry(exp.clone()).or_insert((0.0, 0));
                    s.0 += v;
                    s.1 += 1;
                }
            }
            "prov.task" => {
                let algo = e.field_str("algo").unwrap_or("-").to_owned();
                pending.entry(algo).or_default().0.push(TaskLineage {
                    task: e.field_u64("task").unwrap_or(0),
                    label: e.field_u64("label").unwrap_or(0),
                    margin: e.field_f64("margin").unwrap_or(0.0),
                    votes: e.field_str("votes").unwrap_or("").to_owned(),
                    flips: e.field_str("flips").unwrap_or("").to_owned(),
                });
            }
            "prov.worker" => {
                let algo = e.field_str("algo").unwrap_or("-").to_owned();
                pending.entry(algo).or_default().1.push(WorkerLineage {
                    worker: e.field_u64("worker").unwrap_or(0),
                    weight: e.field_f64("weight").unwrap_or(0.0),
                    answers: e.field_u64("answers").unwrap_or(0),
                    agree: e.field_u64("agree").unwrap_or(0),
                    overruled: e.field_u64("overruled").unwrap_or(0),
                });
            }
            "prov.run" => {
                let algo = e.field_str("algo").unwrap_or("-").to_owned();
                let (tasks, workers) = pending.remove(&algo).unwrap_or_default();
                view.runs.push(ProvRun {
                    exp: exp.clone(),
                    algo,
                    tasks,
                    workers,
                    summary: RunSummary {
                        tasks: e.field_u64("tasks").unwrap_or(0),
                        workers: e.field_u64("workers").unwrap_or(0),
                        contested: e.field_u64("contested").unwrap_or(0),
                        margin_thr: e.field_f64("margin_thr").unwrap_or(0.0),
                        margin_mean: e.field_f64("margin_mean").unwrap_or(0.0),
                        flips: e.field_u64("flips").unwrap_or(0),
                    },
                });
            }
            "prov.spend" => {
                view.spend.push(SpendRow {
                    exp: exp.clone(),
                    scope: e.field_str("scope").unwrap_or("-").to_owned(),
                    id: e.field_u64("task").or_else(|| e.field_u64("worker")),
                    node: e.field_str("node").map(str::to_owned),
                    spend: e.field_f64("spend").unwrap_or(0.0),
                    answers: e
                        .field_u64("answers")
                        .or_else(|| e.field_u64("questions"))
                        .unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    view.accuracy = acc_sums
        .into_iter()
        .map(|(exp, (sum, n))| (exp, sum / n.max(1) as f64))
        .collect();
    view
}

/// Renders the flip timeline for humans: the raw `"i2:0>1"` list or a
/// stable-decision note when it is empty.
fn render_flips(flips: &str) -> String {
    if flips.is_empty() {
        "none — stable from the initial decision".to_owned()
    } else {
        let n = flips.split(',').count();
        format!("{flips} ({n} flip{})", if n == 1 { "" } else { "s" })
    }
}

/// Worker ids mentioned in a votes string (`"w3=1,w7=0"` → `[3, 7]`).
fn voters(votes: &str) -> Vec<u64> {
    votes
        .split(',')
        .filter_map(|v| v.strip_prefix('w')?.split('=').next()?.parse().ok())
        .collect()
}

/// Renders `crowdtrace why <task-id>`: one block per inference run whose
/// detail mentions the task, filtered by experiment and/or algorithm.
/// Returns `Err` with a human-readable reason when nothing matches (so
/// the CLI can exit non-zero).
pub fn render_why(
    view: &ProvView,
    task: u64,
    exp: Option<&str>,
    algo: Option<&str>,
) -> Result<String, String> {
    if view.is_empty() {
        return Err("stream carries no prov.* events (run with a provenance \
                    scope and --log to capture lineage)"
            .into());
    }
    let runs: Vec<(&ProvRun, &TaskLineage)> = view
        .runs
        .iter()
        .filter(|r| exp.is_none_or(|e| r.exp == e))
        .filter(|r| algo.is_none_or(|a| r.algo == a))
        .filter_map(|r| r.tasks.iter().find(|t| t.task == task).map(|t| (r, t)))
        .collect();
    if runs.is_empty() {
        return Err(if view.has_detail() {
            format!("task {task} not found in any matching run's lineage")
        } else {
            "stream has prov.run summaries but no per-task detail \
             (capture with --log to record full lineage)"
                .into()
        });
    }

    let mut out = String::new();
    let n_exps = {
        let mut exps: Vec<&str> = runs.iter().map(|(r, _)| r.exp.as_str()).collect();
        exps.sort_unstable();
        exps.dedup();
        exps.len()
    };
    let _ = writeln!(
        out,
        "task {task} — {} run(s) across {} experiment(s)",
        runs.len(),
        n_exps
    );
    for (r, t) in &runs {
        let n_votes = if t.votes.is_empty() {
            0
        } else {
            t.votes.split(',').count()
        };
        let _ = writeln!(
            out,
            "\n[{}] algo {} — label {}, margin {:.4}, {} vote(s)",
            r.exp, r.algo, t.label, t.margin, n_votes
        );
        let _ = writeln!(out, "  votes: {}", t.votes.replace(',', " "));
        let _ = writeln!(out, "  flips: {}", render_flips(&t.flips));
        let ws = voters(&t.votes);
        if r.workers.iter().any(|w| ws.contains(&w.worker)) {
            let _ = writeln!(out, "  workers:");
            for w in r.workers.iter().filter(|w| ws.contains(&w.worker)) {
                let _ = writeln!(
                    out,
                    "    w{:<8} weight {:.4}  {} answer(s), {} agree, {} overruled",
                    w.worker, w.weight, w.answers, w.agree, w.overruled
                );
            }
        }
        // Spend is booked per task once per experiment (by the collection
        // layer), not per inference run.
        for s in view
            .spend
            .iter()
            .filter(|s| s.exp == r.exp && s.scope == "task" && s.id == Some(task))
        {
            let _ = writeln!(out, "  spend: {:.4} over {} answer(s)", s.spend, s.answers);
        }
    }
    Ok(out)
}

/// Renders `crowdtrace audit`: suite-wide run table, contested tasks
/// below `margin_thr`, worker influence roll-ups, and
/// spend-per-correct-label by experiment.
pub fn render_audit(view: &ProvView, margin_thr: f64) -> Result<String, String> {
    if view.is_empty() {
        return Err("stream carries no prov.* events (run with a provenance \
                    scope to capture summaries)"
            .into());
    }
    let mut out = String::new();
    let n_exps = {
        let mut exps: Vec<&str> = view.runs.iter().map(|r| r.exp.as_str()).collect();
        exps.sort_unstable();
        exps.dedup();
        exps.len()
    };
    let _ = writeln!(
        out,
        "provenance audit — {} run(s) across {} experiment(s)",
        view.runs.len(),
        n_exps
    );

    let _ = writeln!(
        out,
        "\n{:<24} {:<6} {:>7} {:>9} {:>6} {:>11}",
        "exp", "algo", "tasks", "contested", "flips", "margin_mean"
    );
    for r in &view.runs {
        let _ = writeln!(
            out,
            "{:<24} {:<6} {:>7} {:>9} {:>6} {:>11.4}",
            r.exp,
            r.algo,
            r.summary.tasks,
            r.summary.contested,
            r.summary.flips,
            r.summary.margin_mean
        );
    }

    // Contested tasks from detail, lowest margin first (capped at 10).
    let mut contested: Vec<(&ProvRun, &TaskLineage)> = view
        .runs
        .iter()
        .flat_map(|r| r.tasks.iter().map(move |t| (r, t)))
        .filter(|(_, t)| t.margin < margin_thr)
        .collect();
    contested.sort_by(|a, b| {
        a.1.margin
            .partial_cmp(&b.1.margin)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.task.cmp(&b.1.task))
    });
    let _ = writeln!(
        out,
        "\ncontested tasks (margin < {margin_thr}): {} in detail",
        contested.len()
    );
    for (r, t) in contested.iter().take(10) {
        let _ = writeln!(
            out,
            "  [{}] {} task {} margin {:.4} label {} flips {}",
            r.exp,
            r.algo,
            t.task,
            t.margin,
            t.label,
            render_flips(&t.flips)
        );
    }

    // Worker roll-ups across every run with detail: influence is the
    // weight-mass a worker put behind final decisions.
    let mut by_worker: BTreeMap<u64, (f64, u64, u64)> = BTreeMap::new();
    for r in &view.runs {
        for w in &r.workers {
            let e = by_worker.entry(w.worker).or_insert((0.0, 0, 0));
            e.0 += w.weight * w.answers as f64;
            e.1 += w.overruled;
            e.2 += w.answers;
        }
    }
    if !by_worker.is_empty() {
        let mut influential: Vec<(&u64, &(f64, u64, u64))> = by_worker.iter().collect();
        influential.sort_by(|a, b| {
            b.1 .0
                .partial_cmp(&a.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        let _ = writeln!(out, "\nmost influential workers (Σ weight × answers):");
        for (w, (infl, _, answers)) in influential.iter().take(5) {
            let _ = writeln!(
                out,
                "  w{w:<8} influence {infl:.2} over {answers} answer(s)"
            );
        }
        let mut overruled: Vec<(&u64, &(f64, u64, u64))> = by_worker.iter().collect();
        overruled.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
        let _ = writeln!(out, "most overruled workers:");
        for (w, (_, over, answers)) in overruled.iter().take(5) {
            let _ = writeln!(out, "  w{w:<8} overruled {over} of {answers} answer(s)");
        }
    }

    // Spend per correct label, per experiment: task-scoped spend divided
    // by (mean reported accuracy × the largest task set any run labeled).
    let mut spend_by_exp: BTreeMap<&str, f64> = BTreeMap::new();
    for s in view.spend.iter().filter(|s| s.scope == "task") {
        *spend_by_exp.entry(s.exp.as_str()).or_insert(0.0) += s.spend;
    }
    if !spend_by_exp.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<24} {:>9} {:>7} {:>9} {:>14}",
            "exp", "spend", "tasks", "accuracy", "spend/correct"
        );
        for (exp, spend) in &spend_by_exp {
            let tasks = view
                .runs
                .iter()
                .filter(|r| r.exp == *exp)
                .map(|r| r.summary.tasks)
                .max()
                .unwrap_or(0);
            let acc = view.accuracy.get(*exp).copied();
            let per_correct = match acc {
                Some(a) if a > 0.0 && tasks > 0 => {
                    format!("{:.4}", spend / (a * tasks as f64))
                }
                _ => "-".to_owned(),
            };
            let acc_s = acc.map_or("-".to_owned(), |a| format!("{a:.4}"));
            let _ = writeln!(
                out,
                "{exp:<24} {spend:>9.4} {tasks:>7} {acc_s:>9} {per_correct:>14}"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    fn sample() -> ProvView {
        let text = concat!(
            "{\"key\":\"exp.begin\",\"id\":\"e01\"}\n",
            "{\"key\":\"prov.task\",\"algo\":\"ds\",\"task\":10,\"label\":1,\
             \"margin\":0.8,\"n\":2,\"votes\":\"w100=1,w101=1\",\"flips\":\"\"}\n",
            "{\"key\":\"prov.task\",\"algo\":\"ds\",\"task\":11,\"label\":1,\
             \"margin\":0.05,\"n\":2,\"votes\":\"w100=0,w102=1\",\"flips\":\"i1:0>1\"}\n",
            "{\"key\":\"prov.worker\",\"algo\":\"ds\",\"worker\":100,\"weight\":0.9,\
             \"answers\":2,\"agree\":1,\"overruled\":1}\n",
            "{\"key\":\"prov.worker\",\"algo\":\"ds\",\"worker\":101,\"weight\":0.8,\
             \"answers\":1,\"agree\":1,\"overruled\":0}\n",
            "{\"key\":\"prov.worker\",\"algo\":\"ds\",\"worker\":102,\"weight\":0.7,\
             \"answers\":1,\"agree\":1,\"overruled\":0}\n",
            "{\"key\":\"prov.run\",\"algo\":\"ds\",\"tasks\":2,\"workers\":3,\
             \"contested\":1,\"margin_thr\":0.1,\"margin_mean\":0.425,\"flips\":1}\n",
            "{\"key\":\"prov.spend\",\"scope\":\"task\",\"task\":11,\"spend\":0.3,\
             \"answers\":2}\n",
            "{\"key\":\"prov.spend\",\"scope\":\"worker\",\"worker\":100,\"spend\":0.2,\
             \"answers\":2}\n",
            "{\"key\":\"prov.spend\",\"scope\":\"node\",\"node\":\"CrowdFill\",\
             \"spend\":0.5,\"questions\":4}\n",
            "{\"key\":\"exp.quality\",\"metric\":\"accuracy\",\"value\":0.9}\n",
            "{\"key\":\"exp.end\",\"id\":\"e01\"}\n",
            "{\"key\":\"prov.run\",\"algo\":\"mv\",\"tasks\":5,\"workers\":2,\
             \"contested\":0,\"margin_thr\":0.1,\"margin_mean\":0.9,\"flips\":0}\n",
        );
        collect(&parse_stream(text).expect("stream parses"))
    }

    #[test]
    fn collect_attributes_runs_and_spend_to_experiments() {
        let v = sample();
        assert_eq!(v.runs.len(), 2);
        assert_eq!(v.runs[0].exp, "e01");
        assert_eq!(v.runs[0].algo, "ds");
        assert_eq!(v.runs[0].tasks.len(), 2);
        assert_eq!(v.runs[0].workers.len(), 3);
        assert_eq!(v.runs[0].summary.contested, 1);
        // The second run ran outside any experiment span.
        assert_eq!(v.runs[1].exp, "-");
        assert!(v.runs[1].tasks.is_empty());
        assert_eq!(v.spend.len(), 3);
        assert_eq!(v.spend[0].scope, "task");
        assert_eq!(v.spend[2].node.as_deref(), Some("CrowdFill"));
        assert_eq!(v.spend[2].answers, 4, "node rows carry `questions`");
        assert_eq!(v.accuracy.get("e01"), Some(&0.9));
        assert!(v.has_detail());
    }

    #[test]
    fn why_renders_votes_weights_margin_flips_and_spend() {
        let v = sample();
        let out = render_why(&v, 11, None, None).expect("task found");
        assert!(out.contains("task 11 — 1 run(s)"));
        assert!(out.contains("[e01] algo ds — label 1, margin 0.0500, 2 vote(s)"));
        assert!(out.contains("votes: w100=0 w102=1"));
        assert!(out.contains("flips: i1:0>1 (1 flip)"));
        assert!(out.contains("w100      weight 0.9000  2 answer(s), 1 agree, 1 overruled"));
        assert!(out.contains("w102      weight 0.7000"));
        assert!(!out.contains("w101"), "non-voters are not listed");
        assert!(out.contains("spend: 0.3000 over 2 answer(s)"));
    }

    #[test]
    fn why_filters_and_misses_are_errors() {
        let v = sample();
        assert!(render_why(&v, 11, Some("e01"), Some("ds")).is_ok());
        assert!(render_why(&v, 11, Some("e99"), None).is_err());
        assert!(render_why(&v, 11, None, Some("mv")).is_err());
        assert!(render_why(&v, 999, None, None)
            .unwrap_err()
            .contains("not found"));
        assert!(render_why(&ProvView::default(), 1, None, None)
            .unwrap_err()
            .contains("no prov.* events"));
    }

    #[test]
    fn audit_rolls_up_contested_workers_and_spend() {
        let v = sample();
        let out = render_audit(&v, 0.1).expect("non-empty view");
        assert!(out.contains("provenance audit — 2 run(s)"));
        assert!(out.contains("contested tasks (margin < 0.1): 1 in detail"));
        assert!(out.contains("[e01] ds task 11 margin 0.0500"));
        assert!(out.contains("most influential workers"));
        // w100: 0.9 × 2 = 1.8 influence, tops the list.
        assert!(out.contains("w100      influence 1.80 over 2 answer(s)"));
        assert!(out.contains("most overruled workers"));
        assert!(out.contains("w100      overruled 1 of 2 answer(s)"));
        // spend 0.3 / (0.9 accuracy × 2 tasks) = 0.1667.
        assert!(out.contains("0.1667"));
        assert!(render_audit(&ProvView::default(), 0.1).is_err());
    }

    #[test]
    fn audit_margin_threshold_is_configurable() {
        let v = sample();
        let out = render_audit(&v, 0.01).expect("non-empty view");
        assert!(out.contains("contested tasks (margin < 0.01): 0 in detail"));
    }
}
