//! GLAD on the sparse path must converge, and must not lose accuracy to
//! Dawid–Skene or to its own dense run.
//!
//! Each case is a SplitMix-seeded binary matrix of 2,000–4,000 tasks with
//! five votes each over 40–80 workers: 40% of the workers are right with
//! a probability drawn from 0.80–0.95, 40% are spammers (0.5) and 20% are
//! right 65% of the time. Sparse GLAD (`FreezeConfig::sparse(1e-3)`, as
//! the benchmark and `bench_scale` run it) must report `converged` within
//! its default iteration cap and score at least DS − 0.5 points and dense
//! GLAD − 0.5 points. A frozen-edge fold that holds each edge's gradient
//! at its freeze-time ability fails this on every case: abilities drift
//! onto the clamp and accuracy falls several points below both
//! references. A fold linearized in the ability still falls 0.55–0.80
//! points short on three of the nine.

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};
use crowdkit_truth::freeze::FreezeConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, Glad};

/// SplitMix64, so the matrices do not depend on any RNG crate's streams.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Votes per task.
const VOTES: usize = 5;

/// A binary matrix of `tasks` tasks over `workers` workers, with the
/// truth of each task.
fn matrix(seed: u64, tasks: u64, workers: u64) -> (ResponseMatrix, Vec<u32>) {
    let mut rng = SplitMix(seed);
    let accuracy: Vec<f64> = (0..workers)
        .map(|w| match w * 10 / workers {
            0..=3 => 0.80 + 0.15 * rng.unit(),
            4..=7 => 0.5,
            _ => 0.65,
        })
        .collect();
    let mut m = ResponseMatrix::new(2);
    let mut truths = Vec::new();
    for t in 0..tasks {
        let truth = rng.below(2) as u32;
        truths.push(truth);
        let mut asked: Vec<u64> = Vec::new();
        while asked.len() < VOTES {
            let w = rng.below(workers);
            if !asked.contains(&w) {
                asked.push(w);
            }
        }
        for w in asked {
            let right = rng.unit() < accuracy[w as usize];
            let label = if right { truth } else { 1 - truth };
            m.push(TaskId::new(t), WorkerId::new(w), label).unwrap();
        }
    }
    (m, truths)
}

fn accuracy(m: &ResponseMatrix, truths: &[u32], r: &InferenceResult) -> f64 {
    let correct = truths
        .iter()
        .enumerate()
        .filter(|&(t, &truth)| r.labels[m.task_index(TaskId::new(t as u64)).unwrap()] == truth)
        .count();
    correct as f64 / truths.len() as f64
}

#[test]
fn sparse_glad_converges_and_keeps_pace_with_ds_and_dense_glad() {
    let mut failures = Vec::new();
    for case in 0..9u64 {
        let tasks = 2_000 + 250 * case;
        let workers = 40 + 5 * case;
        let (m, truths) = matrix(0x6C61_6400 + case, tasks, workers);
        let sparse =
            Glad::with_config(GladConfig::default().with_freeze(FreezeConfig::sparse(1e-3)))
                .infer(&m)
                .unwrap();
        let dense = Glad::default().infer(&m).unwrap();
        let ds = DawidSkene::default().infer(&m).unwrap();
        let (acc, acc_dense, acc_ds) = (
            accuracy(&m, &truths, &sparse),
            accuracy(&m, &truths, &dense),
            accuracy(&m, &truths, &ds),
        );
        let line = format!(
            "case {case} ({tasks} tasks, {workers} workers): sparse GLAD {:.2}% in {} iterations \
             (converged {}), dense GLAD {:.2}%, DS {:.2}%",
            100.0 * acc,
            sparse.iterations,
            sparse.converged,
            100.0 * acc_dense,
            100.0 * acc_ds,
        );
        println!("{line}");
        if !sparse.converged || acc < acc_ds - 0.005 || acc < acc_dense - 0.005 {
            failures.push(line);
        }
    }
    assert!(
        failures.is_empty(),
        "failing cases:\n{}",
        failures.join("\n")
    );
}
