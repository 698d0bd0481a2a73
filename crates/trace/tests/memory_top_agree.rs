//! The in-process aggregate and `crowdtrace top` fold the same events the
//! same way: one run captured through a `Tee` of a deterministic JSONL
//! stream and a `MemoryRecorder` yields, for every key the recorder saw,
//! the same event count and the same total of every numeric field in both.
//! The run mixes platform batches (one stopped by the budget), sparse
//! Dawid–Skene and majority vote under provenance, and `obs::quality`
//! events.

use std::sync::Arc;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::budget::Budget;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{CrowdOracle, TruthInferencer};
use crowdkit_obs::{self as obs, JsonlRecorder, MemoryRecorder, Tee};
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_trace::replay::replay;
use crowdkit_trace::stream::parse_stream;
use crowdkit_trace::top::{collect, KeyTotals};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{DawidSkene, FreezeConfig, MajorityVote};

const SEED: u64 = 11;

/// Buys 3 then 2 answers on each of 100 binary tasks from a crowd whose
/// budget of 430 runs dry in the second batch, then labels the answers
/// with sparse Dawid–Skene and majority vote and reports how they agree.
fn run() {
    let crowd = PlatformBuilder::new(PopulationBuilder::new().reliable(40, 0.6, 0.95).build(SEED))
        .latency(LatencyModel::human_default())
        .budget(Budget::new(430.0))
        .seed(SEED)
        .build();
    let tasks = LabelingDataset::binary(100, SEED).tasks;
    let mut matrix = ResponseMatrix::new(2);
    let mut budget_stops = 0;
    for redundancy in [3, 2] {
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(redundancy))
            .collect();
        for out in crowd.ask_batch(&reqs).expect("shortfalls are outcomes") {
            budget_stops += usize::from(out.stopped_by_budget());
            for a in out.answers {
                let label = a.value.as_choice().expect("binary tasks");
                matrix.push(a.task, a.worker, label).expect("valid label");
            }
        }
    }
    assert!(budget_stops > 0, "the second batch must run out of budget");

    let ds = DawidSkene::with_config(EmConfig {
        freeze: FreezeConfig::sparse(1e-3),
        ..EmConfig::default()
    })
    .infer(&matrix)
    .expect("non-empty matrix");
    let mv = MajorityVote.infer(&matrix).expect("non-empty matrix");
    let n = ds.labels.len() as f64;
    let agree = ds.labels.iter().zip(&mv.labels).filter(|(a, b)| a == b);
    obs::quality("agreement", agree.count() as f64 / n);
    for r in [&ds, &mv] {
        let confidence = (0..r.labels.len()).map(|t| r.confidence(t)).sum::<f64>();
        obs::quality("confidence", confidence / n);
    }
}

#[test]
fn memory_recorder_and_top_agree_on_counts_and_totals() {
    let tee = Arc::new(Tee(
        JsonlRecorder::in_memory().with_wall(false),
        MemoryRecorder::new(),
    ));
    let scope = obs::Scope {
        recorder: tee.clone(),
        provenance: true,
    };
    obs::with_scope(scope, run);
    let rec = &tee.1;
    let text = String::from_utf8(tee.0.take_bytes()).expect("the stream is UTF-8");
    let stream = parse_stream(&text).expect("the stream parses");
    let view = collect(&stream);

    let mut compared = Vec::new();
    for (key, count) in rec.event_counts() {
        let rows: Vec<(&Option<String>, &KeyTotals)> = view
            .rows
            .iter()
            .filter(|((k, _), _)| k == key)
            .map(|((_, algo), row)| (algo, row))
            .collect();
        let events: u64 = rows.iter().map(|(_, r)| r.events).sum();
        assert_eq!(
            events, count,
            "{key}: top counts {events}, the recorder {count}"
        );
        let split = rows.iter().any(|(algo, _)| algo.is_some());
        let mut names: Vec<&str> = rows
            .iter()
            .flat_map(|(_, r)| r.totals.iter().map(|(n, _)| n.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let mem = rec.field_sum(key, name);
            let mut top = rows
                .iter()
                .filter_map(|(_, r)| r.totals.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v);
            if split {
                // Top totals each `algo` apart and the recorder adds all in
                // arrival order, so only the rounding may differ.
                let top: f64 = top.sum();
                let scale = mem.abs().max(top.abs()).max(f64::MIN_POSITIVE);
                assert!(
                    (mem - top).abs() <= 1e-9 * scale,
                    "{key}.{name}: top {top}, the recorder {mem}"
                );
            } else {
                let top = top.next().expect("one row");
                assert_eq!(
                    mem.to_bits(),
                    top.to_bits(),
                    "{key}.{name}: top {top}, the recorder {mem}"
                );
            }
            compared.push(format!("{key}.{name}"));
        }
    }
    for want in [
        "platform.batch.delivered",
        "platform.batch.spend",
        "platform.batch.budget_stopped",
        "platform.batch.makespan",
        "truth.run.iters",
        "truth.iter.delta",
        "prov.run.margin_mean",
        "exp.quality.value",
    ] {
        assert!(
            compared.iter().any(|c| c == want),
            "{want} was not compared; compared {compared:?}"
        );
    }

    // The one grouped read, the quality means, agrees with replay's.
    let replayed = replay(&stream);
    let [span] = replayed.experiments.as_slice() else {
        panic!("one unmarked span, got {}", replayed.experiments.len());
    };
    let means = rec.group_means("exp.quality", "value");
    assert_eq!(means.len(), 2);
    assert_eq!(means.len(), span.quality.len());
    for ((metric, mean), (replayed, value)) in means.iter().zip(&span.quality) {
        assert_eq!(metric, replayed);
        assert_eq!(mean.to_bits(), value.to_bits(), "{metric}");
    }
}
