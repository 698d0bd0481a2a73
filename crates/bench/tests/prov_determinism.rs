//! The decision-provenance determinism contract, property-tested.
//!
//! Lineage events (`prov.task`, `prov.worker`, `prov.run`) are emitted
//! from the sequential tail of each inference run, reading the committed
//! posterior tables — so with wall data omitted the provenance stream
//! must be byte-identical no matter how many worker threads the EM
//! kernels use, and a frozen (sparse active-set) run's lineage must equal
//! the dense-reference path's bit for bit: the freeze layer pins exactly
//! the bits the lineage reads. A width is only a cap (the EM kernels fork
//! for 64 Ki `obs · k` or more), so the thread-count property runs above
//! that floor and every 2- and 8-thread run must have forked.

use std::sync::Arc;

use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, FreezeConfig, Glad, MajorityVote};
use proptest::prelude::*;

mod common;

use common::assert_thread_count_invariant;

/// The deterministic JSONL bytes produced by running `f` under a fresh
/// provenance scope and an in-memory recorder with wall data omitted.
/// The JSONL recorder reports detail, so full per-task lineage lands.
fn capture(f: impl FnOnce()) -> Vec<u8> {
    let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(false));
    obs::with_scope(
        obs::Scope {
            recorder: rec.clone(),
            provenance: true,
        },
        f,
    );
    rec.take_bytes()
}

/// Only the `prov.*` lines of a captured stream. The sparse-vs-dense
/// comparison filters to these: the freeze layer's own telemetry
/// (`truth.freeze` active-set counts) legitimately differs between the
/// worklist and dense-reference paths, but the decision lineage may not.
fn prov_lines(stream: &[u8]) -> String {
    std::str::from_utf8(stream)
        .expect("stream is utf8")
        .lines()
        .filter(|l| l.contains("\"key\":\"prov."))
        .collect::<Vec<_>>()
        .join("\n")
}

fn matrix(n_tasks: usize, seed: u64) -> crowdkit_core::response::ResponseMatrix {
    let crowd = SimulatedCrowd::new(
        PopulationBuilder::new().reliable(30, 0.6, 0.95).build(seed),
        seed,
    );
    let tasks = LabelingDataset::binary(n_tasks, seed).tasks;
    label_tasks(&crowd, &tasks, 3, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

fn ds_prov_stream(
    m: &crowdkit_core::response::ResponseMatrix,
    threads: usize,
    freeze: FreezeConfig,
) -> Vec<u8> {
    capture(|| {
        let ds = DawidSkene::with_config(EmConfig {
            threads,
            freeze,
            ..EmConfig::default()
        });
        ds.infer(m).expect("non-empty matrix");
    })
}

fn glad_prov_stream(m: &crowdkit_core::response::ResponseMatrix, threads: usize) -> Vec<u8> {
    capture(|| {
        let glad = Glad::with_config(GladConfig::default().with_threads(threads));
        glad.infer(m).expect("non-empty matrix");
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 3 votes on 10,923+ binary tasks: 64 Ki `obs · k` or more.
    #[test]
    fn provenance_stream_is_thread_count_invariant(
        n_tasks in 10_923usize..11_100,
        seed in 0u64..1000,
    ) {
        let m = matrix(n_tasks, seed);
        let reference = assert_thread_count_invariant("dawid-skene", |threads| {
            ds_prov_stream(&m, threads, FreezeConfig::disabled())
        })?;
        prop_assert!(
            prov_lines(&reference).contains("\"key\":\"prov.task\""),
            "lineage detail must land under a detail recorder"
        );
        prop_assert!(prov_lines(&reference).contains("\"key\":\"prov.run\""));
        assert_thread_count_invariant("glad", |threads| glad_prov_stream(&m, threads))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Small matrices, on one thread: the freezing semantics, not the
    /// width, are under test.
    #[test]
    fn sparse_freeze_lineage_equals_dense_reference(
        n_tasks in 20usize..100,
        seed in 0u64..1000,
        eps in 1e-6f64..1e-3,
    ) {
        let m = matrix(n_tasks, seed);
        let sparse = ds_prov_stream(&m, 1, FreezeConfig::sparse(eps));
        let dense = ds_prov_stream(
            &m,
            1,
            FreezeConfig::sparse(eps).with_dense_reference(true),
        );
        prop_assert!(prov_lines(&sparse).contains("\"key\":\"prov.task\""));
        prop_assert_eq!(
            prov_lines(&sparse), prov_lines(&dense),
            "a frozen task's lineage must equal the dense-reference path's"
        );
    }
}

/// Without a provenance scope no `prov.*` events land, even with a
/// detail recorder active — the scope is the opt-in.
#[test]
fn no_scope_means_no_provenance_events() {
    let m = matrix(30, 7);
    let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(false));
    obs::with_recorder(rec.clone(), || {
        DawidSkene::default().infer(&m).expect("non-empty matrix");
    });
    let text = String::from_utf8(rec.take_bytes()).expect("utf8");
    assert!(!text.contains("\"key\":\"prov."));
    assert!(
        text.contains("\"key\":\"truth.run\""),
        "obs itself still on"
    );
}
