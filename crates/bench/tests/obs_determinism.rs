//! The observability determinism contract, property-tested.
//!
//! Layers emit telemetry only from sequential, fixed-order code paths, so
//! the deterministic JSONL stream (`with_wall(false)`, which drops
//! host-timing data) must be byte-identical no matter how many worker
//! threads the kernels use. These properties drive the two heaviest
//! instrumented paths — batched platform execution and Dawid–Skene
//! inference — at 1, 2 and 8 threads across randomized workload shapes and
//! seeds, and require identical streams. A width is only a cap (the
//! platform forks for 4,096 answers or more, the EM kernels for 64 Ki
//! `obs · k`), so the workloads are sized above those floors and every
//! 2- and 8-thread run must have forked.

use std::sync::Arc;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};
use proptest::prelude::*;

mod common;

use common::assert_thread_count_invariant;

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

/// Three votes a task on `n_tasks` binary tasks, collected from a
/// simulated crowd.
fn ds_matrix(n_tasks: usize, seed: u64) -> ResponseMatrix {
    let crowd = crowdkit_sim::SimulatedCrowd::new(
        PopulationBuilder::new().reliable(30, 0.6, 0.95).build(seed),
        seed,
    );
    let tasks = LabelingDataset::binary(n_tasks, seed).tasks;
    label_tasks(&crowd, &tasks, 3, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

/// One Dawid–Skene inference run over a collected matrix, with the EM
/// kernels sharded over `threads` workers.
fn ds_stream(matrix: &ResponseMatrix, threads: usize) -> Vec<u8> {
    capture(|| {
        use crowdkit_core::traits::TruthInferencer;
        let ds = DawidSkene::with_config(EmConfig {
            threads,
            ..EmConfig::default()
        });
        ds.infer(matrix).expect("non-empty matrix");
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 4,096+ answers in one batch.
    #[test]
    fn batched_run_stream_is_thread_count_invariant(
        n_tasks in 1_366usize..1_500,
        votes in 3usize..5,
        seed in 0u64..1000,
    ) {
        assert_thread_count_invariant("ask_batch", |threads| {
            batch_stream(n_tasks, votes, seed, threads)
        })?;
    }

    /// 3 votes on 10,923+ binary tasks: 64 Ki `obs · k` or more.
    #[test]
    fn dawid_skene_stream_is_thread_count_invariant(
        n_tasks in 10_923usize..11_100,
        seed in 0u64..1000,
    ) {
        let m = ds_matrix(n_tasks, seed);
        assert_thread_count_invariant("dawid-skene", |threads| ds_stream(&m, threads))?;
    }
}

/// Repeat runs at a fixed thread count must also be byte-identical — the
/// stream is a pure function of the workload, not of process state.
#[test]
fn repeat_runs_are_byte_identical() {
    let a = batch_stream(60, 3, 42, 4);
    let b = batch_stream(60, 3, 42, 4);
    assert_eq!(a, b);
    let m = ds_matrix(60, 42);
    let c = ds_stream(&m, 4);
    let d = ds_stream(&m, 4);
    assert_eq!(c, d);
}
