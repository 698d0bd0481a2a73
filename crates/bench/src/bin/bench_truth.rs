// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! Machine-readable truth-inference timings.
//!
//! Times every truth-inference algorithm on the standard E1 workload
//! (1000 binary tasks, 5-vote redundancy) and writes per-algorithm
//! `ns_per_iter` to `BENCH_truth.json` in the current directory, so CI
//! can diff runs without scraping criterion's human-oriented output.
//!
//! `crowdtrace regress` compares the snapshot against a rolling baseline
//! from `BENCH_HISTORY.jsonl` and appends it there once it passed.
//!
//! ```sh
//! cargo run --release -p crowdkit-bench --bin bench_truth
//! cargo run --release -p crowdkit-bench --bin bench_truth -- out.json
//! ```

use crowdkit_core::par::default_threads;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_trace::history::git_short_rev;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, Glad, Kos, MajorityVote, OneCoinEm};
use std::time::Instant;

const N_TASKS: usize = 1000;
const REDUNDANCY: usize = 5;
const WARMUP_ITERS: usize = 2;
const TIMED_ITERS: usize = 10;

fn workload() -> ResponseMatrix {
    let data = LabelingDataset::binary(N_TASKS, 7);
    let crowd = SimulatedCrowd::new(mixes::mixed(60, 7), 7);
    label_tasks(&crowd, &data.tasks, REDUNDANCY, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

/// Median ns per call of `algo.infer` over [`TIMED_ITERS`] samples.
fn time_algo(algo: &dyn TruthInferencer, m: &ResponseMatrix) -> u64 {
    for _ in 0..WARMUP_ITERS {
        std::hint::black_box(algo.infer(std::hint::black_box(m)).unwrap());
    }
    let mut samples: Vec<u64> = (0..TIMED_ITERS)
        .map(|_| {
            let start = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
            std::hint::black_box(algo.infer(std::hint::black_box(m)).unwrap());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_truth.json".to_string());
    let m = workload();
    let algos: Vec<(&str, Box<dyn TruthInferencer>)> = vec![
        ("mv", Box::new(MajorityVote)),
        ("zc", Box::new(OneCoinEm::default())),
        ("ds", Box::new(DawidSkene::default())),
        ("glad", Box::new(Glad::default())),
        ("kos", Box::new(Kos::default())),
    ];

    // Hand-rolled JSON: flat structure, no string escaping needed for the
    // fixed key set, so a serde dependency would be pure weight.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"n_tasks\": {N_TASKS}, \"redundancy\": {REDUNDANCY}, \"observations\": {}}},\n",
        m.num_observations()
    ));
    json.push_str("  \"bench\": \"truth\",\n");
    json.push_str(&format!("  \"threads\": {},\n", default_threads()));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_short_rev()));
    json.push_str("  \"algorithms\": {\n");
    let timings: Vec<(&str, u64)> = algos
        .iter()
        .map(|(name, algo)| (*name, time_algo(algo.as_ref(), &m)))
        .collect();
    for (i, (name, ns)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {{\"ns_per_iter\": {ns}}}{comma}\n"));
        println!("{name:<5} {:>12} ns/iter", ns);
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}
