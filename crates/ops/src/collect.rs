//! Open-world enumeration (crowd COLLECT) with species-richness
//! estimation.
//!
//! "List all restaurants in this neighbourhood" has no closed item set: the
//! operator keeps buying contributions, deduplicates, and must decide when
//! the unseen tail is small enough to stop. The tutorial's treatment leans
//! on species estimation from ecology (the CrowdDB open-world result and
//! Trushkowsky et al.'s CHAO92-based enumeration): the frequency histogram
//! of observed items tells you how much is missing.
//!
//! * [`good_turing_coverage`] — fraction of the answer mass already seen.
//! * [`chao1`] / [`chao92`] — richness estimators (how many distinct items
//!   exist, seen or not).
//! * [`crowd_collect`] — the buying loop with an accumulation curve and
//!   coverage-based stopping.

use std::collections::BTreeMap;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;

use crate::reconcile::normalize;

/// Frequency histogram of collected items.
#[derive(Debug, Clone, Default)]
pub struct ItemCounts {
    // Key-ordered so [`ItemCounts::items`] iterates deterministically.
    counts: BTreeMap<String, u32>,
    total: u64,
}

impl ItemCounts {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one contribution of `item`, in its [`normalize`]d form.
    pub fn record(&mut self, item: &str) {
        let norm = normalize(item);
        if norm.is_empty() {
            return;
        }
        *self.counts.entry(norm).or_insert(0) += 1;
        self.total += 1;
    }

    /// Distinct items observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total contributions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of items observed exactly `k` times (`f_k`).
    pub fn freq_of_freq(&self, k: u32) -> usize {
        self.counts.values().filter(|&&c| c == k).count()
    }

    /// The observed items, in item order.
    pub fn items(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Good–Turing sample coverage: `C = 1 − f1 / n`, the estimated
/// probability that the next contribution is an already-seen item.
/// Returns 0 for an empty histogram.
pub fn good_turing_coverage(counts: &ItemCounts) -> f64 {
    let n = counts.total() as f64;
    if n == 0.0 {
        return 0.0;
    }
    (1.0 - counts.freq_of_freq(1) as f64 / n).max(0.0)
}

/// Chao1 richness estimate: `S_obs + f1² / (2·f2)` (bias-corrected form
/// `f1·(f1−1) / (2·(f2+1))` when `f2 = 0`).
pub fn chao1(counts: &ItemCounts) -> f64 {
    let s_obs = counts.distinct() as f64;
    let f1 = counts.freq_of_freq(1) as f64;
    let f2 = counts.freq_of_freq(2) as f64;
    if f2 > 0.0 {
        s_obs + f1 * f1 / (2.0 * f2)
    } else {
        s_obs + f1 * (f1 - 1.0).max(0.0) / 2.0
    }
}

/// Chao92 (coverage-based) richness estimate, the estimator used for
/// crowd enumeration: `Ŝ = S_obs / C + n·(1−C)/C · γ²` where `C` is
/// Good–Turing coverage and `γ²` the squared coefficient of variation of
/// item frequencies (skewed worlds hide more of their tail).
///
/// Falls back to [`chao1`] when coverage is zero (every item seen once).
pub fn chao92(counts: &ItemCounts) -> f64 {
    let n = counts.total() as f64;
    let s_obs = counts.distinct() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let c = good_turing_coverage(counts);
    if c <= 0.0 {
        return chao1(counts);
    }
    let s_over_c = s_obs / c;
    // Squared coefficient of variation (Chao & Lee 1992, eq. 2.13).
    let sum_k: f64 = (1..=u32::MAX)
        .take_while(|&k| counts.freq_of_freq(k) > 0 || k <= 32)
        .map(|k| {
            let fk = counts.freq_of_freq(k) as f64;
            (k as f64) * (k as f64 - 1.0) * fk
        })
        .sum();
    let gamma_sq = ((s_over_c * sum_k) / (n * (n - 1.0)).max(1.0) - 1.0).max(0.0);
    s_over_c + n * (1.0 - c) / c * gamma_sq
}

/// One point of the accumulation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccumulationPoint {
    /// Contributions bought so far.
    pub answers: u64,
    /// Distinct items observed so far.
    pub distinct: usize,
    /// Chao92 richness estimate at this point.
    pub chao92_estimate: f64,
    /// Good–Turing coverage at this point.
    pub coverage: f64,
}

/// The outcome of an enumeration run.
#[derive(Debug, Clone)]
pub struct CollectOutcome {
    /// Final item histogram.
    pub counts: ItemCounts,
    /// Accumulation curve, one point per crowd answer.
    pub curve: Vec<AccumulationPoint>,
    /// Crowd answers purchased.
    pub questions_asked: usize,
    /// Whether the coverage target stopped collection (vs. the answer cap
    /// or budget).
    pub stopped_by_coverage: bool,
}

/// Buys collection answers for `task` until Good–Turing coverage reaches
/// `coverage_target`, up to `max_answers` contributions.
///
/// The task must be of kind `Collection`; each answer contributes a batch
/// of items.
pub fn crowd_collect<O>(
    oracle: &O,
    task: &Task,
    coverage_target: f64,
    max_answers: u32,
) -> Result<CollectOutcome>
where
    O: CrowdOracle + ?Sized,
{
    if max_answers == 0 {
        return Err(CrowdError::EmptyInput("max_answers must be positive"));
    }
    let mut counts = ItemCounts::new();
    let mut curve = Vec::new();
    let mut asked = 0usize;
    let mut stopped_by_coverage = false;

    while (asked as u32) < max_answers {
        let out = oracle.ask(&AskRequest::new(task))?;
        out.check()?;
        let Some(answer) = out.answers.first() else {
            break;
        };
        asked += 1;
        if let Some(items) = answer.value.as_items() {
            for item in items {
                counts.record(item);
            }
        }
        let coverage = good_turing_coverage(&counts);
        curve.push(AccumulationPoint {
            answers: asked as u64,
            distinct: counts.distinct(),
            chao92_estimate: chao92(&counts),
            coverage,
        });
        // Require a minimal amount of evidence before trusting coverage
        // (one answer with unique items reads as C = 0, but one answer of
        // duplicates would read C ≈ 1).
        if asked >= 5 && coverage >= coverage_target {
            stopped_by_coverage = true;
            break;
        }
    }

    Ok(CollectOutcome {
        counts,
        curve,
        questions_asked: asked,
        stopped_by_coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_core::task::TaskKind;

    fn hist(pairs: &[(&str, u32)]) -> ItemCounts {
        let mut c = ItemCounts::new();
        for &(item, n) in pairs {
            for _ in 0..n {
                c.record(item);
            }
        }
        c
    }

    #[test]
    fn histogram_normalizes_and_counts() {
        let mut c = ItemCounts::new();
        c.record(" Paris ");
        c.record("paris");
        c.record("Lyon");
        c.record("");
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.total(), 3);
        assert_eq!(c.freq_of_freq(1), 1); // lyon
        assert_eq!(c.freq_of_freq(2), 1); // paris
    }

    #[test]
    fn coverage_zero_when_everything_is_a_singleton() {
        let c = hist(&[("a", 1), ("b", 1)]);
        assert_eq!(good_turing_coverage(&c), 0.0);
    }

    #[test]
    fn coverage_one_when_no_singletons() {
        let c = hist(&[("a", 3), ("b", 2)]);
        assert_eq!(good_turing_coverage(&c), 1.0);
    }

    #[test]
    fn chao1_textbook_value() {
        // S_obs = 3, f1 = 2, f2 = 1 → 3 + 4/2 = 5.
        let c = hist(&[("a", 1), ("b", 1), ("c", 2)]);
        assert_eq!(chao1(&c), 5.0);
    }

    #[test]
    fn chao1_bias_corrected_when_no_doubletons() {
        // S_obs = 2, f1 = 2, f2 = 0 → 2 + 2·1/2 = 3.
        let c = hist(&[("a", 1), ("b", 1)]);
        assert_eq!(chao1(&c), 3.0);
    }

    #[test]
    fn chao92_at_least_observed_richness() {
        let c = hist(&[("a", 5), ("b", 3), ("c", 1), ("d", 1)]);
        assert!(chao92(&c) >= c.distinct() as f64);
    }

    #[test]
    fn chao92_shrinks_toward_observed_as_coverage_grows() {
        let low_cov = hist(&[("a", 1), ("b", 1), ("c", 1), ("d", 2)]);
        let high_cov = hist(&[("a", 5), ("b", 5), ("c", 5), ("d", 5)]);
        let gap = |c: &ItemCounts| chao92(c) - c.distinct() as f64;
        assert!(gap(&low_cov) > gap(&high_cov));
        assert!((chao92(&high_cov) - 4.0).abs() < 1e-9);
    }

    /// Oracle cycling deterministic batches from a fixed pool.
    struct PoolOracle {
        pool: Vec<String>,
        cursor: std::cell::Cell<usize>,
    }

    impl PoolOracle {
        fn new(pool: Vec<String>) -> Self {
            Self {
                pool,
                cursor: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for PoolOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            // Head-heavy: batch i returns items [0, i % len, (i*3) % len].
            let n = self.pool.len();
            let i = self.cursor.get();
            self.cursor.set(i + 1);
            let items = vec![
                self.pool[0].clone(),
                self.pool[i % n].clone(),
                self.pool[(i * 3) % n].clone(),
            ];
            Ok(Answer::bare(
                task.id,
                WorkerId::new(i as u64),
                AnswerValue::Items(items),
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            self.cursor.get() as u64
        }
    }

    fn collection_task() -> Task {
        Task::new(TaskId::new(0), TaskKind::Collection, "enumerate")
    }

    #[test]
    fn collect_accumulates_distinct_items_monotonically() {
        let oracle = PoolOracle::new((0..20).map(|i| format!("item{i}")).collect());
        let out = crowd_collect(&oracle, &collection_task(), 2.0, 30).unwrap();
        assert_eq!(
            out.questions_asked, 30,
            "unreachable coverage target runs to cap"
        );
        assert!(!out.stopped_by_coverage);
        assert!(out.curve.windows(2).all(|w| w[1].distinct >= w[0].distinct));
    }

    #[test]
    fn coverage_stopping_ends_early_on_repetitive_answers() {
        // A pool of 2 items saturates almost immediately.
        let oracle = PoolOracle::new(vec!["a".into(), "b".into()]);
        let out = crowd_collect(&oracle, &collection_task(), 0.9, 100).unwrap();
        assert!(out.stopped_by_coverage);
        assert!(out.questions_asked < 100);
        assert_eq!(out.counts.distinct(), 2);
    }

    /// Answers `left` times with one item, then fails with `why`.
    struct Dying {
        left: std::cell::Cell<u32>,
        why: CrowdError,
    }

    impl CrowdOracle for Dying {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            let left = self.left.get();
            if left == 0 {
                return Err(self.why.clone());
            }
            self.left.set(left - 1);
            let items = AnswerValue::Items(vec![format!("item{left}")]);
            Ok(Answer::bare(task.id, WorkerId::new(u64::from(left)), items))
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            0
        }
    }

    #[test]
    fn exhaustion_ends_collection_and_other_failures_are_errors() {
        let dying = |why| Dying {
            left: std::cell::Cell::new(3),
            why,
        };
        let budget = CrowdError::BudgetExhausted {
            requested: 1.0,
            remaining: 0.0,
        };
        for why in [budget, CrowdError::NoWorkerAvailable] {
            let out = crowd_collect(&dying(why), &collection_task(), 2.0, 10).unwrap();
            assert_eq!(out.questions_asked, 3);
            assert_eq!(out.curve.len(), 3);
            assert!(!out.stopped_by_coverage);
        }
        let down = CrowdError::Execution("platform down".into());
        let err = crowd_collect(&dying(down.clone()), &collection_task(), 2.0, 10).unwrap_err();
        assert_eq!(err, down);
    }

    #[test]
    fn zero_cap_is_an_error() {
        let oracle = PoolOracle::new(vec!["a".into()]);
        assert!(crowd_collect(&oracle, &collection_task(), 0.9, 0).is_err());
    }
}
