//! Property-based tests for crowdkit-core invariants.

use crowdkit_core::budget::Budget;
use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::metrics::{
    accuracy, entropy, js_divergence, kendall_tau, majority, median, pairwise_cluster_f1,
};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::InferenceResult;
use proptest::prelude::*;

/// A synthetic result whose per-task confidence is exactly `confs[t]`
/// (chosen label 0, remaining mass on label 1).
fn result_with_confidences(confs: &[f64]) -> InferenceResult {
    InferenceResult {
        labels: vec![0; confs.len()],
        posteriors: confs.iter().map(|&c| vec![c, 1.0 - c]).collect(),
        worker_quality: None,
        iterations: 1,
        converged: true,
    }
}

proptest! {
    #[test]
    fn accuracy_is_a_probability(pairs in prop::collection::vec((0u8..4, 0u8..4), 1..100)) {
        let (pred, truth): (Vec<u8>, Vec<u8>) = pairs.into_iter().unzip();
        let a = accuracy(&pred, &truth);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn accuracy_of_identical_slices_is_one(xs in prop::collection::vec(0u8..10, 1..100)) {
        prop_assert_eq!(accuracy(&xs, &xs), 1.0);
    }

    #[test]
    fn kendall_tau_bounded_and_symmetric_under_reversal(
        scores in prop::collection::vec(-1000i32..1000, 2..40)
    ) {
        let a: Vec<f64> = scores.iter().map(|&x| x as f64).collect();
        let rev: Vec<f64> = a.iter().map(|x| -x).collect();
        let tau = kendall_tau(&a, &a);
        let tau_rev = kendall_tau(&a, &rev);
        prop_assert!((-1.0..=1.0).contains(&tau));
        prop_assert!((-1.0..=1.0).contains(&tau_rev));
        // tau(a, a) = 1 unless everything ties; reversal negates.
        prop_assert!((tau + tau_rev).abs() < 1e-9, "tau {tau} vs reversed {tau_rev}");
    }

    #[test]
    fn cluster_f1_perfect_for_identical_labelings(
        labels in prop::collection::vec(0usize..5, 2..30)
    ) {
        let pr = pairwise_cluster_f1(&labels, &labels);
        prop_assert_eq!(pr.fp, 0);
        prop_assert_eq!(pr.fn_, 0);
    }

    #[test]
    fn entropy_nonnegative_and_maximal_for_uniform(k in 2usize..12) {
        let uniform = vec![1.0; k];
        let h_uniform = entropy(&uniform);
        prop_assert!((h_uniform - (k as f64).ln()).abs() < 1e-9);
        let mut peaked = vec![0.01; k];
        peaked[0] = 10.0;
        let h_peaked = entropy(&peaked);
        prop_assert!(h_peaked >= 0.0);
        prop_assert!(h_peaked < h_uniform);
    }

    #[test]
    fn js_divergence_symmetric_nonnegative_bounded(
        p in prop::collection::vec(0.001f64..10.0, 2..8),
    ) {
        let q: Vec<f64> = p.iter().rev().cloned().collect();
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= -1e-12);
        prop_assert!(d1 <= (2.0f64).ln() + 1e-9);
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn majority_returns_an_element_with_max_count(xs in prop::collection::vec(0u8..5, 1..60)) {
        let m = majority(&xs).unwrap();
        let count = |v: u8| xs.iter().filter(|&&x| x == v).count();
        let max = (0u8..5).map(count).max().unwrap();
        prop_assert_eq!(count(m), max);
    }

    #[test]
    fn median_lies_within_range(xs in prop::collection::vec(-1e6f64..1e6, 1..80)) {
        let m = median(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn budget_never_overspends(
        limit in 0.0f64..100.0,
        debits in prop::collection::vec(0.0f64..10.0, 0..50)
    ) {
        let mut b = Budget::new(limit);
        for d in debits {
            let _ = b.debit(d);
            prop_assert!(b.spent() <= b.limit() + 1e-6, "spent {} limit {}", b.spent(), b.limit());
            prop_assert!(b.remaining() >= 0.0);
        }
    }

    #[test]
    fn response_matrix_groupings_are_consistent(
        obs in prop::collection::vec((0u64..20, 0u64..10, 0u32..3), 1..200)
    ) {
        let mut m = ResponseMatrix::new(3);
        for (t, w, l) in &obs {
            m.push(TaskId::new(*t), WorkerId::new(*w), *l).unwrap();
        }
        prop_assert_eq!(m.num_observations(), obs.len());
        // Per-task and per-worker partitions cover every observation once.
        let by_task: usize = (0..m.num_tasks()).map(|t| m.observations_for_task(t).count()).sum();
        let by_worker: usize = (0..m.num_workers()).map(|w| m.observations_by_worker(w).count()).sum();
        prop_assert_eq!(by_task, obs.len());
        prop_assert_eq!(by_worker, obs.len());
        // Vote counts tally to the observation count.
        let votes: u32 = m.vote_counts().iter().flatten().sum();
        prop_assert_eq!(votes as usize, obs.len());
        // Ids round-trip through dense indices.
        for t in 0..m.num_tasks() {
            prop_assert_eq!(m.task_index(m.task_id(t)), Some(t));
        }
    }

    #[test]
    fn select_confident_at_tau_zero_selects_everything(
        confs in prop::collection::vec(0.0f64..=1.0, 1..60)
    ) {
        let r = result_with_confidences(&confs);
        // Every posterior entry is >= 0, so tau = 0 can exclude nothing.
        prop_assert_eq!(r.select_confident(0.0).len(), confs.len());
        prop_assert_eq!(r.coverage(0.0), 1.0);
    }

    #[test]
    fn coverage_is_monotone_in_tau_and_matches_selection(
        confs in prop::collection::vec(0.0f64..=1.0, 1..60),
        taus in prop::collection::vec(0.0f64..=1.0, 2..10)
    ) {
        let r = result_with_confidences(&confs);
        let mut taus = taus;
        taus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev_cov = f64::INFINITY;
        for &tau in &taus {
            let sel = r.select_confident(tau);
            let cov = r.coverage(tau);
            prop_assert!((cov - sel.len() as f64 / confs.len() as f64).abs() < 1e-12);
            prop_assert!(cov <= prev_cov, "coverage must not grow as tau rises");
            // Selection is exactly the >= tau set, indices in order.
            let expect: Vec<usize> =
                (0..confs.len()).filter(|&t| confs[t] >= tau).collect();
            prop_assert_eq!(sel, expect);
            prev_cov = cov;
        }
    }

    #[test]
    fn posteriors_stay_nan_free_under_selection(
        confs in prop::collection::vec(0.0f64..=1.0, 1..60),
        tau in 0.0f64..=1.0
    ) {
        let r = result_with_confidences(&confs);
        for &t in &r.select_confident(tau) {
            prop_assert!(r.confidence(t).is_finite());
            prop_assert!(r.posteriors[t].iter().all(|p| p.is_finite()));
        }
    }
}

#[test]
fn select_confident_keeps_exact_boundary_ties() {
    // Confidence exactly equal to tau must be selected (>=, not >).
    let r = result_with_confidences(&[0.5, 0.5 - 1e-12, 0.5 + 1e-12, 0.9]);
    assert_eq!(r.select_confident(0.5), vec![0, 2, 3]);
    assert_eq!(r.coverage(0.5), 0.75);
    // tau = 1.0 keeps only fully-certain tasks.
    let certain = result_with_confidences(&[1.0, 0.999, 1.0]);
    assert_eq!(certain.select_confident(1.0), vec![0, 2]);
}

#[test]
fn coverage_of_empty_result_is_zero_not_nan() {
    let r = result_with_confidences(&[]);
    assert_eq!(r.coverage(0.0), 0.0);
    assert_eq!(r.coverage(1.0), 0.0);
    assert!(r.select_confident(0.0).is_empty());
}
