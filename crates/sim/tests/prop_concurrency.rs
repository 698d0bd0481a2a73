//! Property-based tests for the concurrent batch engine: thread-count
//! invariance of end-to-end inference, and budget safety when batches are
//! submitted from several OS threads at once.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::budget::Budget;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::mv::MajorityVote;
use crowdkit_truth::pipeline::label_tasks;
use proptest::prelude::*;

fn crowd(seed: u64, n_workers: usize, threads: usize) -> SimulatedCrowd {
    let pop = PopulationBuilder::new()
        .reliable(n_workers, 0.6, 0.95)
        .build(seed);
    PlatformBuilder::new(pop)
        .seed(seed)
        .threads(threads)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The worker-pool size never leaks into results: running the same
    /// labeling pipeline on the same seed must produce byte-identical
    /// inference output whether the platform executes batches on 1, 2 or
    /// 8 threads. Every wave asks once per task, and the platform spawns
    /// at most one thread per 2,048 answers, so 16,384+ tasks are what it
    /// takes for all 8 threads to run.
    #[test]
    fn inference_results_are_identical_at_1_2_and_8_threads(
        seed in 0u64..500,
        n_tasks in 16_384usize..16_500,
        k in 1usize..4,
    ) {
        let data = LabelingDataset::binary(n_tasks, seed);
        let run = |threads: usize| {
            let oracle = crowd(seed, 12, threads);
            let out = label_tasks(&oracle, &data.tasks, k, &MajorityVote)
                .expect("unlimited budget");
            (
                out.answers_bought,
                format!("{:?}", out.inference),
                // The matrix's id-lookup maps debug-print in hash order;
                // compare the order-stable observation log instead.
                format!("{:?}", out.matrix.observations()),
            )
        };
        let one = run(1);
        prop_assert_eq!(&one, &run(2));
        prop_assert_eq!(&one, &run(8));
    }

    /// However many OS threads hammer `ask_batch` concurrently, the
    /// platform never sells more answers than the budget covers.
    #[test]
    fn concurrent_batches_never_overspend_the_budget(
        seed in 0u64..500,
        limit in 0u32..40,
        n_threads in 2usize..5,
        reqs_per_thread in 1usize..8,
        redundancy in 1usize..4,
    ) {
        let pop = PopulationBuilder::new().reliable(10, 0.8, 0.9).build(seed);
        let crowd = PlatformBuilder::new(pop)
            .budget(Budget::new(limit as f64))
            .seed(seed)
            .threads(4)
            .build();

        let tasks: Vec<Vec<Task>> = (0..n_threads)
            .map(|t| {
                LabelingDataset::binary(reqs_per_thread, seed ^ (t as u64) << 32).tasks
            })
            .collect();
        let delivered: usize = std::thread::scope(|s| {
            let handles: Vec<_> = tasks
                .iter()
                .map(|ts| {
                    let crowd = &crowd;
                    s.spawn(move || {
                        let reqs: Vec<AskRequest<'_>> = ts
                            .iter()
                            .map(|t| AskRequest::new(t).with_redundancy(redundancy))
                            .collect();
                        crowd
                            .ask_batch(&reqs)
                            .expect("exhaustion is a shortfall, not an error")
                            .iter()
                            .map(|o| o.delivered())
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        prop_assert!(
            delivered as u32 <= limit,
            "sold {} answers against a budget of {}",
            delivered,
            limit
        );
        prop_assert_eq!(delivered as u64, crowd.answers_delivered());
        prop_assert!(crowd.budget().remaining() >= 0.0);
    }
}
