//! Telemetry overhead gate: the full telemetry scope vs the null scope.
//!
//! The observability contract is "near zero cost": under the default
//! [`obs::Scope`] (null recorder, no provenance) every instrumentation
//! site reduces to a branch, and with everything on — an aggregating
//! [`obs::MemoryRecorder`] and provenance capture — the work stays per-wave/per-iteration summaries
//! plus `O(tasks × labels)` lineage compares per EM iteration, never
//! per-observation work inside the kernels. `main` enforces that contract
//! before the benches run: the full-scope arm of each workload must stay
//! within [`MAX_OVERHEAD`] of the null arm. The two workloads cover the
//! instrumented layers that matter for throughput — batched platform
//! execution (`ask_batch` 200×3) and EM truth inference (Dawid–Skene
//! 500×5).
//!
//! Samples are interleaved (null, full, null, …) so clock drift and
//! thermal effects hit both arms equally, and the gate compares minima,
//! the statistic least sensitive to scheduler noise.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use crowdkit_core::ask::AskRequest;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::Task;
use crowdkit_core::traits::{CrowdOracle, TruthInferencer};
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::{mixes, PopulationBuilder};
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};

const N_TASKS: usize = 200;
const VOTES: usize = 3;
const SEED: u64 = 7;
const GATE_SAMPLES: usize = 60;
/// The budget for events and provenance together: the product of the
/// three telemetry layers' former separate budgets (events 1.05 ×
/// metrics 1.03 × provenance 1.05), kept when the metrics layer went.
const MAX_OVERHEAD: f64 = 0.13;

fn workload() -> Vec<Task> {
    LabelingDataset::binary(N_TASKS, SEED).tasks
}

fn crowd() -> SimulatedCrowd {
    let pop = PopulationBuilder::new().reliable(80, 0.8, 0.95).build(SEED);
    PlatformBuilder::new(pop)
        .latency(LatencyModel::human_default())
        .seed(SEED)
        .threads(4)
        .build()
}

fn run_batch(tasks: &[Task]) {
    let crowd = crowd();
    let reqs: Vec<AskRequest<'_>> = tasks
        .iter()
        .map(|t| AskRequest::new(t).with_redundancy(VOTES))
        .collect();
    let outs = crowd.ask_batch(&reqs).expect("unlimited budget");
    assert!(outs.iter().all(|o| o.delivered() == VOTES));
}

fn inference_matrix() -> ResponseMatrix {
    let data = LabelingDataset::binary(500, SEED);
    let crowd = SimulatedCrowd::new(mixes::mixed(60, SEED), SEED);
    label_tasks(&crowd, &data.tasks, 5, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

/// Every signal on, each piece fresh so no state carries between samples.
fn full_scope() -> obs::Scope {
    obs::Scope {
        recorder: Arc::new(obs::MemoryRecorder::new()),
        provenance: true,
    }
}

/// Interleaved min-of-N comparison: runs `f` alternately under the null
/// scope and under a fresh [`full_scope`], returning
/// `(null_min_ns, full_min_ns)`.
fn gate_pair(mut f: impl FnMut()) -> (u64, u64) {
    // Warm both arms.
    f();
    obs::with_scope(full_scope(), &mut f);
    let mut null_min = u64::MAX;
    let mut full_min = u64::MAX;
    for _ in 0..GATE_SAMPLES {
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        f();
        null_min = null_min.min(t0.elapsed().as_nanos() as u64);
        let scope = full_scope();
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        obs::with_scope(scope, &mut f);
        full_min = full_min.min(t0.elapsed().as_nanos() as u64);
    }
    (null_min, full_min)
}

fn check_overhead(name: &str, f: impl FnMut()) {
    let (null_min, full_min) = gate_pair(f); // crowdkit-lint: allow(DET002) — benchmark harness: comparing wall times is the point
    let overhead = full_min as f64 / null_min as f64 - 1.0;
    println!(
        "{name}: null {null_min} ns, full {full_min} ns ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "{name}: telemetry overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}

fn bench_ask_batch(c: &mut Criterion) {
    let tasks = workload();
    let mut group = c.benchmark_group("telemetry_ask_batch_200x3");
    group.bench_function("null", |b| {
        b.iter(|| run_batch(std::hint::black_box(&tasks)));
    });
    group.bench_function("full", |b| {
        b.iter(|| obs::with_scope(full_scope(), || run_batch(std::hint::black_box(&tasks))));
    });
    group.finish();
}

fn bench_dawid_skene(c: &mut Criterion) {
    let m = inference_matrix();
    let ds = DawidSkene::default();
    let mut group = c.benchmark_group("telemetry_dawid_skene_500x5");
    group.bench_function("null", |b| {
        b.iter(|| ds.infer(std::hint::black_box(&m)).unwrap());
    });
    group.bench_function("full", |b| {
        b.iter(|| obs::with_scope(full_scope(), || ds.infer(std::hint::black_box(&m)).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_ask_batch, bench_dawid_skene);

fn main() {
    let tasks = workload();
    check_overhead("ask_batch", || run_batch(&tasks));
    let m = inference_matrix();
    let ds = DawidSkene::default();
    check_overhead("dawid_skene", || {
        std::hint::black_box(ds.infer(&m).unwrap());
    });
    benches();
}
