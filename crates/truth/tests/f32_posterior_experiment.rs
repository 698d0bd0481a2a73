//! Experiment: would `f32` posteriors be good enough?
//!
//! The million-scale roadmap item asks whether the posterior tables (the
//! dominant resident buffer after the CSR) could drop to `f32` and halve
//! again. This test runs a faithful `f32` mirror of the one-coin E/M loop
//! next to the production `f64` kernel on a fixed dataset and **documents**
//! the divergence it finds. It deliberately does not gate on a tight
//! numeric bound: the point is to record the observed error magnitude so
//! the decision ("labels survive, posteriors drift at ~1e-6..1e-3, keep
//! f64 for the determinism contract") stays reproducible in CI output.
//!
//! Outcome this encodes: iterated EM amplifies `f32` rounding — posterior
//! trajectories diverge measurably (well beyond one ulp) and can even
//! change the iteration count, which is why the kernels keep `f64`
//! accumulation and the `FreezeConfig` byte-identity contract is defined
//! over `f64` only.

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::OneCoinEm;

/// Deterministic moderately-noisy dataset: 40 binary tasks, 7 workers of
/// varied reliability, noise from a fixed arithmetic pattern.
fn dataset() -> ResponseMatrix {
    let mut m = ResponseMatrix::new(2);
    for t in 0..40u64 {
        let truth = (t % 2) as u32;
        for w in 0..7u64 {
            // Worker w errs on tasks where (t * 7 + w * 13) % (w + 3) == 0:
            // low-w workers are noisier, high-w workers nearly perfect.
            let wrong = (t * 7 + w * 13) % (w + 3) == 0;
            let label = if wrong { 1 - truth } else { truth };
            m.push(TaskId::new(t), WorkerId::new(w), label).unwrap();
        }
    }
    m
}

/// A line-for-line `f32` port of the one-coin kernel's sequential path
/// (vote-fraction init, reliability M-step, scalar-update E-step, max-delta
/// convergence) with the same constants and iteration policy.
fn one_coin_f32(
    m: &ResponseMatrix,
    max_iters: usize,
    tol: f32,
    smoothing: f32,
) -> (Vec<f32>, Vec<u32>, usize) {
    let k = m.num_labels();
    let n_tasks = m.num_tasks();
    let n_workers = m.num_workers();
    let wrong_share = 1.0f32 / ((k as f32 - 1.0).max(1.0));
    let (t_off, t_entries) = m.task_csr();
    let (w_off, w_entries) = m.worker_csr();

    let mut post = vec![0.0f32; n_tasks * k];
    for (t, row) in post.chunks_mut(k).enumerate() {
        for &(_, l) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
            row[l as usize] += 1.0;
        }
        let total: f32 = row.iter().sum();
        for x in row.iter_mut() {
            *x /= total;
        }
    }
    let mut next = vec![0.0f32; n_tasks * k];
    let mut priors = vec![1.0f32 / k as f32; k];
    let mut log_priors = vec![0.0f32; k];
    let mut reliability = vec![0.8f32; n_workers];
    let mut log_right = vec![0.0f32; n_workers];
    let mut log_wrong = vec![0.0f32; n_workers];

    let mut iterations = 0;
    while iterations < max_iters {
        iterations += 1;
        priors.fill(0.0);
        for row in post.chunks(k) {
            for (l, &p) in row.iter().enumerate() {
                priors[l] += p;
            }
        }
        for p in priors.iter_mut() {
            *p /= n_tasks as f32;
        }
        for (lp, &p) in log_priors.iter_mut().zip(&priors) {
            *lp = p.max(1e-30).ln();
        }
        for w in 0..n_workers {
            let mut correct = smoothing;
            let mut total = 2.0 * smoothing;
            for &(t, l) in &w_entries[w_off[w] as usize..w_off[w + 1] as usize] {
                correct += post[t as usize * k + l as usize];
                total += 1.0;
            }
            reliability[w] = (correct / total).clamp(1e-6, 1.0 - 1e-6);
            log_right[w] = reliability[w].max(1e-30).ln();
            log_wrong[w] = ((1.0 - reliability[w]) * wrong_share).max(1e-30).ln();
        }
        for (t, row) in next.chunks_mut(k).enumerate() {
            row.copy_from_slice(&log_priors);
            let mut base = 0.0f32;
            for &(w, l) in &t_entries[t_off[t] as usize..t_off[t + 1] as usize] {
                let w = w as usize;
                base += log_wrong[w];
                row[l as usize] += log_right[w] - log_wrong[w];
            }
            for x in row.iter_mut() {
                *x += base;
            }
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for x in row.iter_mut() {
                *x = (*x - max).exp();
            }
            let total: f32 = row.iter().sum();
            for x in row.iter_mut() {
                *x /= total;
            }
        }
        let delta = post
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        std::mem::swap(&mut post, &mut next);
        if delta < tol {
            break;
        }
    }
    let labels = post
        .chunks(k)
        .map(|row| {
            let mut best = 0usize;
            for (i, &p) in row.iter().enumerate().skip(1) {
                if p > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect();
    (post, labels, iterations)
}

#[test]
fn f32_posteriors_diverge_from_f64_but_labels_survive() {
    let m = dataset();
    let cfg = EmConfig::default();
    let r64 = OneCoinEm::with_config(cfg).infer(&m).unwrap();
    let (post32, labels32, iters32) =
        one_coin_f32(&m, cfg.max_iters, cfg.tol as f32, cfg.smoothing as f32);

    let mut max_div = 0.0f64;
    for (t, row) in r64.posteriors.iter().enumerate() {
        for (l, &p64) in row.iter().enumerate() {
            let d = (p64 - post32[t * row.len() + l] as f64).abs();
            max_div = max_div.max(d);
        }
    }

    // Document, don't gate: the divergence is real (beyond f64 rounding of
    // the same trajectory) yet small enough that no label flips on this
    // comfortably-separated dataset. The printed numbers are the
    // experiment's record in CI logs.
    println!(
        "f32-vs-f64 one-coin: max posterior divergence {:.3e}, iterations {} (f64) vs {} (f32)",
        max_div, r64.iterations, iters32
    );
    assert!(
        max_div > 0.0,
        "expected measurable f32 drift; an exactly-equal trajectory means this experiment \
         stopped exercising anything"
    );
    assert!(
        max_div < 0.05,
        "f32 drift {max_div:.3e} grew past the 'labels survive' regime this experiment documents"
    );
    assert_eq!(
        r64.labels, labels32,
        "on well-separated data the f32 mirror must still recover the same labels"
    );
}
