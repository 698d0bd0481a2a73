//! Sampling-based crowd aggregation: COUNT / SUM / proportion estimation.
//!
//! Asking the crowd to verify *every* item of a large population is the
//! naive COUNT plan; the sampling line of work estimates the count from a
//! random sample with a confidence interval, trading a quantified error
//! for an order-of-magnitude cost cut. The whole sample is submitted as
//! one batched request so its verifications overlap in crowd latency.
//! Experiment E6 sweeps the sample fraction against the realized error and
//! interval coverage.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::reconcile::yes_majority;

/// An estimated count with a normal-approximation confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountEstimate {
    /// Point estimate of the number of positive items in the population.
    pub estimate: f64,
    /// Lower bound of the confidence interval (clamped to ≥ 0).
    pub ci_low: f64,
    /// Upper bound of the confidence interval (clamped to ≤ population).
    pub ci_high: f64,
    /// Sample size actually used.
    pub sample_size: usize,
    /// Positives observed in the sample.
    pub sample_positives: usize,
    /// Crowd answers purchased.
    pub questions_asked: usize,
}

/// Estimates how many of `items` are positive by crowd-verifying a random
/// sample of `sample_size` items with `votes` judgements each (majority
/// decides; ties count negative).
///
/// `z` is the normal critical value for the interval (1.96 → 95 %). The
/// interval uses the finite-population correction, so sampling everything
/// collapses it to the exact count.
///
/// Items must be binary single-choice tasks (label 1 = positive).
pub fn estimate_count<O>(
    oracle: &O,
    items: &[Task],
    sample_size: usize,
    votes: u32,
    z: f64,
    seed: u64,
) -> Result<CountEstimate>
where
    O: CrowdOracle + ?Sized,
{
    if items.is_empty() {
        return Err(CrowdError::EmptyInput("population"));
    }
    let n = items.len();
    let m = sample_size.clamp(1, n);

    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(&mut StdRng::seed_from_u64(seed));
    indices.truncate(m);

    let reqs: Vec<AskRequest<'_>> = indices
        .iter()
        .map(|&i| AskRequest::new(&items[i]).with_redundancy(votes.max(1) as usize))
        .collect();
    let outcomes = oracle.ask_batch(&reqs)?;

    let mut positives = 0usize;
    let mut sampled = 0usize;
    let mut questions = 0usize;
    for out in &outcomes {
        out.check()?;
        if out.answers.is_empty() {
            // Exhaustion before this item got any judgement: the sample
            // ends here (later outcomes are starved too).
            break;
        }
        questions += out.answers.len();
        sampled += 1;
        if yes_majority(&out.answers) {
            positives += 1;
        }
    }

    if sampled == 0 {
        return Err(CrowdError::EmptyInput("no sample item received any answer"));
    }

    let p_hat = positives as f64 / sampled as f64;
    let fpc = if sampled < n {
        ((n - sampled) as f64 / (n as f64 - 1.0).max(1.0)).sqrt()
    } else {
        0.0
    };
    let se = (p_hat * (1.0 - p_hat) / sampled as f64).sqrt() * fpc;
    let estimate = p_hat * n as f64;
    let half = z * se * n as f64;

    Ok(CountEstimate {
        estimate,
        ci_low: (estimate - half).max(0.0),
        ci_high: (estimate + half).min(n as f64),
        sample_size: sampled,
        sample_positives: positives,
        questions_asked: questions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::{TaskId, WorkerId};
    use std::cell::{Cell, RefCell};

    struct TruthfulOracle {
        budget: RefCell<Budget>,
        next_worker: Cell<u64>,
        delivered: Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(limit: f64) -> Self {
            Self {
                budget: RefCell::new(Budget::new(limit)),
                next_worker: Cell::new(0),
                delivered: Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            self.delivered.set(self.delivered.get() + 1);
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            Ok(Answer::bare(task.id, w, task.truth.clone().unwrap()))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    fn population(flags: &[bool]) -> Vec<Task> {
        flags
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                Task::binary(TaskId::new(i as u64), format!("i{i}"))
                    .with_truth(AnswerValue::Choice(f as u32))
            })
            .collect()
    }

    #[test]
    fn full_sample_gives_exact_count_with_zero_width_interval() {
        let flags: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let items = population(&flags);
        let oracle = TruthfulOracle::new(1e9);
        let est = estimate_count(&oracle, &items, 100, 1, 1.96, 0).unwrap();
        assert_eq!(est.estimate, 25.0);
        assert_eq!(est.ci_low, 25.0);
        assert_eq!(est.ci_high, 25.0);
        assert_eq!(est.questions_asked, 100);
    }

    #[test]
    fn partial_sample_is_close_and_covered() {
        let flags: Vec<bool> = (0..2000).map(|i| i % 10 < 3).collect(); // 30 %
        let items = population(&flags);
        let oracle = TruthfulOracle::new(1e9);
        let est = estimate_count(&oracle, &items, 400, 1, 1.96, 42).unwrap();
        let truth = 600.0;
        assert!(
            (est.estimate - truth).abs() < 100.0,
            "estimate {} vs truth {truth}",
            est.estimate
        );
        assert!(
            est.ci_low <= truth && truth <= est.ci_high,
            "CI covers truth"
        );
        assert!(est.ci_high - est.ci_low > 0.0);
    }

    #[test]
    fn larger_samples_tighten_the_interval() {
        let flags: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let items = population(&flags);
        let width = |m: usize| -> f64 {
            let oracle = TruthfulOracle::new(1e9);
            let e = estimate_count(&oracle, &items, m, 1, 1.96, 7).unwrap();
            e.ci_high - e.ci_low
        };
        assert!(width(800) < width(100));
    }

    #[test]
    fn budget_exhaustion_estimates_from_partial_sample() {
        let flags = vec![true; 100];
        let items = population(&flags);
        let oracle = TruthfulOracle::new(10.0);
        let est = estimate_count(&oracle, &items, 50, 1, 1.96, 0).unwrap();
        assert_eq!(est.sample_size, 10);
        assert_eq!(est.estimate, 100.0, "all sampled items positive");
    }

    #[test]
    fn empty_population_is_an_error() {
        let oracle = TruthfulOracle::new(10.0);
        assert!(matches!(
            estimate_count(&oracle, &[], 10, 1, 1.96, 0).unwrap_err(),
            CrowdError::EmptyInput(_)
        ));
    }

    #[test]
    fn zero_budget_is_an_error() {
        let items = population(&[true, false]);
        let oracle = TruthfulOracle::new(0.0);
        assert!(estimate_count(&oracle, &items, 2, 1, 1.96, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let flags: Vec<bool> = (0..500).map(|i| i % 3 == 0).collect();
        let items = population(&flags);
        let run = |seed| {
            let oracle = TruthfulOracle::new(1e9);
            estimate_count(&oracle, &items, 50, 1, 1.96, seed).unwrap()
        };
        assert_eq!(run(3), run(3));
    }
}
