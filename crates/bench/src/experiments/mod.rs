// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! The experiment registry. Each module regenerates one table/figure from
//! DESIGN.md's per-experiment index.

pub mod e01_truth_accuracy;
pub mod e02_worker_quality;
pub mod e03_join_cost;
pub mod e04_ranking;
pub mod e05_filter_stopping;
pub mod e06_count_estimation;
pub mod e07_collection;
pub mod e08_assignment;
pub mod e09_latency;
pub mod e10_sql_optimizer;
pub mod e11_datalog_fetch;
pub mod e12_join_ablation;
pub mod e13_gold_injection;
pub mod e14_hit_batching;
pub mod e15_selective_output;
pub mod e16_numeric_aggregation;
pub mod e17_worker_supply;

use std::sync::Arc;

use crowdkit_obs::{self as obs, Event, ExperimentReport, RunReport};

use crate::table::Table;

/// An experiment entry: id, description, and runner.
pub struct Experiment {
    /// Short id ("e1").
    pub id: &'static str,
    /// One-line description (matches DESIGN.md).
    pub description: &'static str,
    /// Produces the experiment's tables.
    pub run: fn() -> Vec<Table>,
}

/// All experiments, in id order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        description: "truth-inference accuracy vs redundancy across crowd mixes",
        run: e01_truth_accuracy::run,
    },
    Experiment {
        id: "e2",
        description: "worker-quality estimation error vs answers per worker",
        run: e02_worker_quality::run,
    },
    Experiment {
        id: "e3",
        description: "crowd join cost ladder: all-pairs vs blocking vs transitivity",
        run: e03_join_cost::run,
    },
    Experiment {
        id: "e4",
        description: "ranking quality (Kendall tau) vs comparison budget",
        run: e04_ranking::run,
    },
    Experiment {
        id: "e5",
        description: "filter cost/accuracy under stopping rules and selectivities",
        run: e05_filter_stopping::run,
    },
    Experiment {
        id: "e6",
        description: "sampling-based COUNT: error and CI width vs sample fraction",
        run: e06_count_estimation::run,
    },
    Experiment {
        id: "e7",
        description: "open-world collection: accumulation curve and Chao92",
        run: e07_collection::run,
    },
    Experiment {
        id: "e8",
        description: "task-assignment policies under fixed budgets",
        run: e08_assignment::run,
    },
    Experiment {
        id: "e9",
        description: "latency: completion time vs round size and straggler policy",
        run: e09_latency::run,
    },
    Experiment {
        id: "e10",
        description: "CrowdSQL optimizer: predicted vs actual spend, naive vs optimized",
        run: e10_sql_optimizer::run,
    },
    Experiment {
        id: "e11",
        description: "crowd-Datalog fetch minimization by body ordering",
        run: e11_datalog_fetch::run,
    },
    Experiment {
        id: "e12",
        description: "ER ablation: transitivity × ask order",
        run: e12_join_ablation::run,
    },
    Experiment {
        id: "e13",
        description: "gold-question injection on spam-heavy crowds",
        run: e13_gold_injection::run,
    },
    Experiment {
        id: "e14",
        description: "HIT batching: pair-based vs cluster-based (CrowdER)",
        run: e14_hit_batching::run,
    },
    Experiment {
        id: "e15",
        description: "selective output: confidence-threshold coverage vs accuracy",
        run: e15_selective_output::run,
    },
    Experiment {
        id: "e16",
        description: "numeric aggregation robustness vs spammer share",
        run: e16_numeric_aggregation::run,
    },
    Experiment {
        id: "e17",
        description: "worker supply: completion time vs churned availability",
        run: e17_worker_supply::run,
    },
];

/// Runs one experiment by id, returning its rendered output, or `None`
/// for an unknown id.
pub fn run_by_name(id: &str) -> Option<String> {
    let e = EXPERIMENTS.iter().find(|e| e.id == id)?;
    let mut out = String::new();
    out.push_str(&format!(
        "=== {} — {} ===\n\n",
        e.id.to_uppercase(),
        e.description
    ));
    for t in (e.run)() {
        out.push_str(&t.render());
        out.push('\n');
    }
    Some(out)
}

/// Runs every experiment, executing them in parallel (each experiment is
/// deterministic and independent) but printing in registry order.
pub fn run_all() -> String {
    let mut results: Vec<String> = Vec::with_capacity(EXPERIMENTS.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = EXPERIMENTS
            .iter()
            .map(|e| scope.spawn(move || run_by_name(e.id).expect("registered id")))
            .collect();
        for h in handles {
            results.push(h.join().expect("experiment thread panicked"));
        }
    });
    results.concat()
}

/// Output of an instrumented suite run ([`run_with_report`]).
pub struct SuiteRun {
    /// Concatenated rendered tables, in registry order (same text as
    /// [`run_all`]).
    pub rendered: String,
    /// Per-experiment cost/latency/quality telemetry plus suite totals —
    /// the `RUNREPORT.json` payload.
    pub report: RunReport,
    /// The merged deterministic JSONL event log (empty unless requested).
    pub events: Vec<u8>,
}

/// Runs the given experiments (in the given order) like [`run_all`], but
/// with telemetry: each experiment executes under its own
/// [`obs::MemoryRecorder`] and the distilled [`ExperimentReport`]s land in
/// a [`RunReport`], in the given order. Returns `None` if any id is
/// unknown.
///
/// With `capture_events` each experiment's full event stream is also
/// captured, by a [`obs::JsonlRecorder`] of its own, and the streams are
/// concatenated in the given order into one JSONL log. The first line is a
/// versioned [`obs::StreamHeader`] carrying run metadata (git rev, thread
/// count, workload id); every line after it omits wall-clock data, so the
/// event bytes are a pure function of the experiments' seeds — identical
/// at any thread count and across repeat runs. `crowdtrace diff` compares
/// exactly that deterministic portion.
pub fn run_with_report(ids: &[&str], capture_events: bool) -> Option<SuiteRun> {
    let selected: Vec<&Experiment> = ids
        .iter()
        .map(|id| EXPERIMENTS.iter().find(|e| e.id == *id))
        .collect::<Option<Vec<_>>>()?;
    // Header first: schema version, provenance (git rev, thread count),
    // and the workload id. Thread count is metadata — the event bytes
    // after it are identical at any parallelism.
    let mut events = Vec::new();
    if capture_events {
        let header = obs::StreamHeader::new(
            git_short_rev(),
            0,
            crowdkit_core::par::default_threads() as u32,
            &if ids.len() == EXPERIMENTS.len() {
                "experiments:all".to_owned()
            } else {
                format!("experiments:{}", ids.join(","))
            },
        );
        events.extend_from_slice(header.to_json().as_bytes());
        events.push(b'\n');
    }
    let mut rendered = String::new();
    let mut report = RunReport::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = selected
            .iter()
            .map(|e| {
                scope.spawn(move || {
                    // The telemetry scope is thread-local, so it must be
                    // entered *inside* the experiment's own thread.
                    // Provenance is on: the summary `prov.run` events
                    // always land (and feed the report), full per-task
                    // lineage only when the recorder captures detail
                    // (--log). The Tee keeps those detail events out of
                    // `mem`, so the report does not depend on --log.
                    let mem = Arc::new(obs::MemoryRecorder::new());
                    let log = capture_events
                        .then(|| Arc::new(obs::JsonlRecorder::in_memory().with_wall(false)));
                    let rec: Arc<dyn obs::Recorder> = match &log {
                        Some(log) => Arc::new(obs::Tee(log.clone(), mem.clone())),
                        None => mem.clone(),
                    };
                    let start = std::time::Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
                    let scope = obs::Scope {
                        recorder: rec,
                        provenance: true,
                    };
                    let text = obs::with_scope(scope, || {
                        obs::record(Event::new("exp.begin").str("id", e.id));
                        let text = run_by_name(e.id).expect("registered id");
                        obs::record(Event::new("exp.end").str("id", e.id));
                        text
                    });
                    let wall_ms = start.elapsed().as_millis() as u64;
                    let rep = ExperimentReport::from_recorder(e.id, e.description, wall_ms, &mem);
                    (text, rep, log.map(|log| log.take_bytes()))
                })
            })
            .collect();
        for h in handles {
            let (text, rep, log) = h.join().expect("experiment thread panicked");
            rendered.push_str(&text);
            report.experiments.push(rep);
            events.extend(log.unwrap_or_default());
        }
    });
    Some(SuiteRun {
        rendered,
        report,
        events,
    })
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// checkout — recorded in the stream header so an archived log says what
/// it measured.
fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for e in EXPERIMENTS {
            assert!(e.id.starts_with('e'));
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
            assert!(!e.description.is_empty());
        }
        assert_eq!(EXPERIMENTS.len(), 17);
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run_by_name("e99").is_none());
    }

    #[test]
    fn the_report_does_not_depend_on_event_capture() {
        let report = |capture_events| {
            let mut run = run_with_report(&["e8"], capture_events).expect("e8 is registered");
            assert_eq!(run.events.is_empty(), !capture_events);
            for e in &mut run.report.experiments {
                e.wall_ms = 0;
            }
            run.report
        };
        let plain = report(false);
        let logged = report(true);
        assert_eq!(plain, logged, "--log must not change RUNREPORT.json");
        let counts = &plain.experiments[0].event_counts;
        assert!(counts.iter().any(|(k, _)| k == "platform.batch"));
        assert!(counts.iter().all(|(k, _)| k != "platform.assign"));
    }

    #[test]
    fn the_log_holds_each_experiment_whole_in_the_given_order() {
        let run = run_with_report(&["e12", "e11"], true).expect("both are registered");
        let text = String::from_utf8(run.events).expect("the log is UTF-8");
        let mut lines = text.lines();
        let header = lines.next().expect("a header line");
        assert!(header.contains("\"workload\":\"experiments:e12,e11\""));
        let markers: Vec<&str> = lines
            .filter(|l| {
                l.starts_with("{\"key\":\"exp.begin\"") || l.starts_with("{\"key\":\"exp.end\"")
            })
            .collect();
        assert_eq!(
            markers,
            [
                "{\"key\":\"exp.begin\",\"id\":\"e12\"}",
                "{\"key\":\"exp.end\",\"id\":\"e12\"}",
                "{\"key\":\"exp.begin\",\"id\":\"e11\"}",
                "{\"key\":\"exp.end\",\"id\":\"e11\"}",
            ]
        );
    }
}
