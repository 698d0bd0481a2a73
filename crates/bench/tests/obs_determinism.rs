//! The observability determinism contract, property-tested.
//!
//! Layers emit telemetry only from sequential, fixed-order code paths, so
//! the deterministic JSONL stream (`with_wall(false)`, which drops
//! host-timing data) must be byte-identical no matter how many worker
//! threads the kernels use. These properties drive the two heaviest
//! instrumented paths — batched platform execution and Dawid–Skene
//! inference — at 1, 2 and 8 threads across randomized workload shapes and
//! seeds, and require identical streams.

use std::sync::Arc;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The deterministic JSONL bytes produced by running `f` under a fresh
/// in-memory recorder with wall-clock data omitted.
fn capture(f: impl FnOnce()) -> Vec<u8> {
    let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(false));
    obs::with_recorder(rec.clone(), f);
    rec.take_bytes()
}

/// One batched simulated-crowd run: `n_tasks` × `votes` bought through
/// `ask_batch` on a platform configured with `threads` workers.
fn batch_stream(n_tasks: usize, votes: usize, seed: u64, threads: usize) -> Vec<u8> {
    capture(|| {
        let pop = PopulationBuilder::new().reliable(40, 0.7, 0.95).build(seed);
        let crowd = PlatformBuilder::new(pop)
            .latency(LatencyModel::human_default())
            .seed(seed)
            .threads(threads)
            .build();
        let tasks = LabelingDataset::binary(n_tasks, seed).tasks;
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(votes))
            .collect();
        crowd.ask_batch(&reqs).expect("unlimited budget");
    })
}

/// One Dawid–Skene inference run over a collected matrix, with the EM
/// kernels sharded over `threads` workers.
fn ds_stream(n_tasks: usize, seed: u64, threads: usize) -> Vec<u8> {
    // Collect outside the recorder scope: only the inference events are
    // under test here, and collection happens once per thread count anyway.
    let crowd = crowdkit_sim::SimulatedCrowd::new(
        PopulationBuilder::new().reliable(30, 0.6, 0.95).build(seed),
        seed,
    );
    let tasks = LabelingDataset::binary(n_tasks, seed).tasks;
    let matrix = label_tasks(&crowd, &tasks, 3, &MajorityVote)
        .expect("collection succeeds")
        .matrix;
    capture(|| {
        use crowdkit_core::traits::TruthInferencer;
        let ds = DawidSkene::with_config(EmConfig {
            threads,
            ..EmConfig::default()
        });
        ds.infer(&matrix).expect("non-empty matrix");
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_run_stream_is_thread_count_invariant(
        n_tasks in 20usize..120,
        votes in 1usize..4,
        seed in 0u64..1000,
    ) {
        let reference = batch_stream(n_tasks, votes, seed, THREAD_COUNTS[0]);
        prop_assert!(!reference.is_empty(), "instrumentation must emit events");
        for &threads in &THREAD_COUNTS[1..] {
            let stream = batch_stream(n_tasks, votes, seed, threads);
            prop_assert_eq!(
                &reference, &stream,
                "ask_batch stream diverged at {} threads", threads
            );
        }
    }

    #[test]
    fn dawid_skene_stream_is_thread_count_invariant(
        n_tasks in 20usize..100,
        seed in 0u64..1000,
    ) {
        let reference = ds_stream(n_tasks, seed, THREAD_COUNTS[0]);
        prop_assert!(!reference.is_empty(), "instrumentation must emit events");
        for &threads in &THREAD_COUNTS[1..] {
            let stream = ds_stream(n_tasks, seed, threads);
            prop_assert_eq!(
                &reference, &stream,
                "dawid-skene stream diverged at {} threads", threads
            );
        }
    }
}

/// Repeat runs at a fixed thread count must also be byte-identical — the
/// stream is a pure function of the workload, not of process state.
#[test]
fn repeat_runs_are_byte_identical() {
    let a = batch_stream(60, 3, 42, 4);
    let b = batch_stream(60, 3, 42, 4);
    assert_eq!(a, b);
    let c = ds_stream(60, 42, 4);
    let d = ds_stream(60, 42, 4);
    assert_eq!(c, d);
}
