//! `RUNREPORT.json` and `crowdtrace replay` read one run's platform totals
//! from the same events: the [`ExperimentReport`] an in-process
//! `MemoryRecorder` distils and a replay of the JSONL stream captured
//! beside it agree on questions, spend, budget stops and simulated
//! makespan, for single-answer asks and batches alike.

use std::sync::Arc;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::budget::Budget;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::{self as obs, ExperimentReport, JsonlRecorder, MemoryRecorder, Tee};
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_trace::replay::replay;
use crowdkit_trace::stream::parse_stream;

#[test]
fn report_and_replay_agree_on_platform_totals() {
    let tee = Arc::new(Tee(
        JsonlRecorder::in_memory().with_wall(false),
        MemoryRecorder::new(),
    ));
    // 10 s per answer and a budget of 8: three single asks, then a batch
    // of six requests for two answers each that runs dry on its third.
    let crowd = PlatformBuilder::new(PopulationBuilder::new().reliable(20, 0.8, 0.95).build(5))
        .latency(LatencyModel::Constant { secs: 10.0 })
        .budget(Budget::new(8.0))
        .seed(5)
        .build();
    let tasks = LabelingDataset::binary(6, 5).tasks;
    obs::with_recorder(tee.clone(), || {
        for t in &tasks[..3] {
            crowd.ask_one(t).expect("budget left");
        }
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(2))
            .collect();
        let outs = crowd.ask_batch(&reqs).expect("shortfalls are outcomes");
        assert_eq!(outs.iter().filter(|o| o.stopped_by_budget()).count(), 4);
    });

    let report = ExperimentReport::from_recorder("it", "report against replay", 0, &tee.1);
    let text = String::from_utf8(tee.0.take_bytes()).expect("the stream is UTF-8");
    let replayed = replay(&parse_stream(&text).expect("the stream parses"));
    let [span] = replayed.experiments.as_slice() else {
        panic!("one unmarked span, got {}", replayed.experiments.len());
    };
    assert_eq!(span.questions, report.cost.questions, "questions");
    assert_eq!(span.spend.to_bits(), report.cost.spend.to_bits(), "spend");
    assert_eq!(span.budget_stops, report.cost.budget_stops, "budget stops");
    assert_eq!(
        span.makespan.to_bits(),
        report.latency.sim_makespan.to_bits(),
        "simulated makespan: replay {} against report {}",
        span.makespan,
        report.latency.sim_makespan
    );

    // Both equal what the platform itself did: eight answers bought, and a
    // clock that moved 10 s per single ask plus 10 s for the batch.
    assert_eq!(report.cost.questions, crowd.answers_delivered());
    assert_eq!(report.cost.spend, crowd.budget().spent());
    assert_eq!(report.cost.budget_stops, 4);
    assert_eq!(report.latency.sim_makespan, crowd.now());
    assert_eq!(crowd.now(), 40.0);
}
