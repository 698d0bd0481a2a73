//! Property-based tests for truth-inference invariants.

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{StoppingRule, TruthInferencer};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::freeze::FreezeConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::sequential::{FixedK, MajorityMargin, Sprt};
use crowdkit_truth::{DawidSkene, Glad, Kos, MajorityVote, OneCoinEm};
use proptest::prelude::*;

/// Arbitrary non-empty response matrices over k labels.
fn matrix_strategy(k: u32) -> impl Strategy<Value = ResponseMatrix> {
    prop::collection::vec((0u64..15, 0u64..8, 0..k), 1..120).prop_map(move |obs| {
        let mut m = ResponseMatrix::new(k as usize);
        for (t, w, l) in obs {
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
        m
    })
}

fn check_result_invariants(
    m: &ResponseMatrix,
    algo: &dyn TruthInferencer,
) -> std::result::Result<(), TestCaseError> {
    let r = algo.infer(m).expect("non-empty matrix infers");
    prop_assert_eq!(r.labels.len(), m.num_tasks());
    prop_assert_eq!(r.posteriors.len(), m.num_tasks());
    for (t, row) in r.posteriors.iter().enumerate() {
        prop_assert_eq!(row.len(), m.num_labels());
        let sum: f64 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "posterior row sums to {sum}");
        prop_assert!(row.iter().all(|&p| (-1e-9..=1.0 + 1e-9).contains(&p)));
        // The chosen label maximizes its posterior row.
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            row[r.labels[t] as usize] >= max - 1e-9,
            "label {} is not the argmax of {row:?}",
            r.labels[t]
        );
        prop_assert!((r.labels[t] as usize) < m.num_labels());
    }
    if let Some(q) = &r.worker_quality {
        prop_assert_eq!(q.len(), m.num_workers());
        prop_assert!(q.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mv_invariants(m in matrix_strategy(3)) {
        check_result_invariants(&m, &MajorityVote)?;
    }

    #[test]
    fn one_coin_invariants(m in matrix_strategy(3)) {
        check_result_invariants(&m, &OneCoinEm::default())?;
    }

    #[test]
    fn dawid_skene_invariants(m in matrix_strategy(3)) {
        check_result_invariants(&m, &DawidSkene::default())?;
    }

    #[test]
    fn glad_invariants(m in matrix_strategy(2)) {
        check_result_invariants(&m, &Glad::default())?;
    }

    #[test]
    fn kos_invariants_binary(m in matrix_strategy(2)) {
        check_result_invariants(&m, &Kos::default())?;
    }

    #[test]
    fn unanimous_answers_are_respected_by_all_algorithms(
        labels in prop::collection::vec(0u32..2, 2..41),
        workers in 2u64..6,
    ) {
        // Every worker gives the same label per task: every algorithm must
        // return exactly those labels, dense or with freezing on.
        let mut m = ResponseMatrix::new(2);
        for (t, &l) in labels.iter().enumerate() {
            for w in 0..workers {
                m.push(TaskId::new(t as u64), WorkerId::new(w), l).unwrap();
            }
        }
        let sparse = FreezeConfig::sparse(1e-3);
        let em = EmConfig::default().with_freeze(sparse);
        let algos: Vec<(&str, Box<dyn TruthInferencer>)> = vec![
            ("mv", Box::new(MajorityVote)),
            ("one-coin", Box::new(OneCoinEm::default())),
            ("sparse one-coin", Box::new(OneCoinEm::with_config(em))),
            ("ds", Box::new(DawidSkene::default())),
            ("sparse ds", Box::new(DawidSkene::with_config(em))),
            ("glad", Box::new(Glad::default())),
            ("sparse glad", Box::new(Glad::with_config(GladConfig::default().with_freeze(sparse)))),
            ("kos", Box::new(Kos::default())),
        ];
        for (name, algo) in &algos {
            let r = algo.infer(&m).unwrap();
            for (t, &expected) in labels.iter().enumerate() {
                let got = r.labels[m.task_index(TaskId::new(t as u64)).unwrap()];
                prop_assert_eq!(
                    got, expected,
                    "{} flipped a unanimous label on task {}", name, t
                );
            }
        }
    }

    #[test]
    fn stopping_rules_always_stop_at_the_cap(
        votes in prop::collection::vec(0u32..6, 2..4),
        cap in 1u32..12,
    ) {
        // Scale votes so the total equals the cap: every rule must stop.
        let total: u32 = votes.iter().sum();
        prop_assume!(total > 0);
        let mut scaled = votes.clone();
        // Bump the first label until total == cap (or truncate by capping).
        if total < cap {
            scaled[0] += cap - total;
        }
        let rules: Vec<Box<dyn StoppingRule>> = vec![
            Box::new(FixedK { k: cap }),
            Box::new(MajorityMargin { margin: 2 }),
            Box::new(Sprt::default()),
        ];
        for rule in &rules {
            prop_assert!(
                rule.should_stop(&scaled, cap.min(scaled.iter().sum())),
                "{} failed to stop at the cap with votes {scaled:?}",
                rule.name()
            );
        }
    }

    #[test]
    fn margin_rule_is_monotone_in_lead(lead in 0u32..10, base in 0u32..10) {
        let rule = MajorityMargin { margin: 3 };
        let stops_now = rule.should_stop(&[base, base + lead], 1000);
        let stops_later = rule.should_stop(&[base, base + lead + 1], 1000);
        // Growing the lead can only keep or trigger stopping.
        if stops_now {
            prop_assert!(stops_later);
        }
    }
}
