//! Telemetry overhead gate: the full telemetry scope vs the null scope.
//!
//! The observability contract is "near zero cost": under the default
//! [`obs::Scope`] (null recorder, no provenance) every instrumentation
//! site reduces to a branch, and with everything on — an aggregating
//! [`obs::MemoryRecorder`] and provenance capture — the work stays per-wave/per-iteration summaries
//! plus `O(tasks × labels)` lineage compares per EM iteration, never
//! per-observation work inside the kernels. `main` enforces that contract:
//! the full-scope arm of each workload must stay within [`MAX_OVERHEAD`]
//! of the null arm. The two workloads cover the instrumented layers that
//! matter for throughput — batched platform execution (`ask_batch` 200×3)
//! and EM truth inference (Dawid–Skene 500×5).
//!
//! Samples are taken in pairs (null, then full) so clock drift and
//! thermal effects hit both arms equally, and the gate reads the median of
//! the per-pair ratios, each full sample over the null sample taken just
//! before it. A host stall that slows one sample moves one ratio, not the
//! median, where it could move one arm's minimum alone. Each arm's minimum
//! and median are printed beside the gated figure.

use std::sync::Arc;
use std::time::Instant;

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

/// One arm's wall times: its minimum and median (the upper middle of an
/// even count), in ns.
struct Arm {
    min: u64,
    median: u64,
}

impl Arm {
    fn of(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Self {
            min: ns[0],
            median: ns[ns.len() / 2],
        }
    }
}

/// Interleaved comparison: runs `f` [`GATE_SAMPLES`] times alternately
/// under the null scope and under a fresh [`full_scope`], returning the
/// `(null, full)` wall times in ns, pair by pair.
fn gate_pair(mut f: impl FnMut()) -> (Vec<u64>, Vec<u64>) {
    // Warm both arms.
    f();
    obs::with_scope(full_scope(), &mut f);
    let mut null = Vec::with_capacity(GATE_SAMPLES);
    let mut full = Vec::with_capacity(GATE_SAMPLES);
    for _ in 0..GATE_SAMPLES {
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        f();
        null.push(t0.elapsed().as_nanos() as u64);
        let scope = full_scope();
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        obs::with_scope(scope, &mut f);
        full.push(t0.elapsed().as_nanos() as u64);
    }
    (null, full)
}

fn check_overhead(name: &str, f: impl FnMut()) {
    let (null, full) = gate_pair(f); // crowdkit-lint: allow(DET002) — benchmark harness: comparing wall times is the point
    let ratio = |full_ns: u64, null_ns: u64| full_ns as f64 / null_ns as f64 - 1.0;
    let mut pairs: Vec<f64> = full.iter().zip(&null).map(|(&f, &n)| ratio(f, n)).collect();
    pairs.sort_unstable_by(f64::total_cmp);
    // The upper middle, as for the arms' medians.
    let overhead = pairs[pairs.len() / 2];
    let (null, full) = (Arm::of(null), Arm::of(full));
    println!(
        "{name}: {GATE_SAMPLES} pairs; null min {} ns, median {} ns; \
         full min {} ns, median {} ns; {:+.2}% by the median pair ratio (gated), \
         {:+.2}% by minima, {:+.2}% by medians",
        null.min,
        null.median,
        full.min,
        full.median,
        overhead * 100.0,
        ratio(full.min, null.min) * 100.0,
        ratio(full.median, null.median) * 100.0
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "{name}: telemetry overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}

fn main() {
    let tasks = workload();
    check_overhead("ask_batch", || run_batch(&tasks));
    let m = inference_matrix();
    let ds = DawidSkene::default();
    check_overhead("dawid_skene", || {
        std::hint::black_box(ds.infer(&m).unwrap());
    });
}
