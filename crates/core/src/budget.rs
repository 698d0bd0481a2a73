//! Cost models and budget accounting.
//!
//! Cost control is one of the tutorial's central axes: every crowd question
//! costs money, so operators and optimizers compete on *crowd questions
//! asked*, not CPU time. [`CostModel`] prices each task kind; [`Budget`]
//! enforces a spend ceiling; [`CostLedger`] records where money went so
//! experiments can report per-operator breakdowns.

use std::collections::BTreeMap;

use crate::error::{CrowdError, Result};
use crate::task::TaskKind;

/// Prices per task kind, in abstract budget units.
///
/// The defaults mirror common micro-task pricing ratios: simple binary
/// judgements are cheapest; open-ended generation is priciest.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Price of a single-choice judgement.
    pub single_choice: f64,
    /// Price of a numeric estimate.
    pub numeric: f64,
    /// Price of an open-text answer.
    pub open_text: f64,
    /// Price of a pairwise comparison.
    pub pairwise: f64,
    /// Price of one collection contribution.
    pub collection: f64,
    /// Price of filling one cell.
    pub fill: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            single_choice: 1.0,
            numeric: 1.0,
            open_text: 3.0,
            pairwise: 1.0,
            collection: 2.0,
            fill: 2.0,
        }
    }
}

impl CostModel {
    /// A model where every task kind costs exactly one unit; convenient
    /// when experiments report "number of questions" rather than money.
    pub fn unit() -> Self {
        Self {
            single_choice: 1.0,
            numeric: 1.0,
            open_text: 1.0,
            pairwise: 1.0,
            collection: 1.0,
            fill: 1.0,
        }
    }

    /// Price of one answer to a task of the given kind.
    pub fn price(&self, kind: &TaskKind) -> f64 {
        match kind {
            TaskKind::SingleChoice { .. } => self.single_choice,
            TaskKind::Numeric { .. } => self.numeric,
            TaskKind::OpenText => self.open_text,
            TaskKind::Pairwise { .. } => self.pairwise,
            TaskKind::Collection => self.collection,
            TaskKind::Fill { .. } => self.fill,
        }
    }
}

/// A spend ceiling with precise tracking of what has been consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    limit: f64,
    spent: f64,
}

impl Budget {
    /// Creates a budget with the given limit.
    ///
    /// # Panics
    /// Panics if `limit` is negative or not finite.
    pub fn new(limit: f64) -> Self {
        assert!(
            limit.is_finite() && limit >= 0.0,
            "budget limit must be a non-negative finite number, got {limit}"
        );
        Self { limit, spent: 0.0 }
    }

    /// An effectively unlimited budget (`f64::MAX` limit).
    pub fn unlimited() -> Self {
        Self {
            limit: f64::MAX,
            spent: 0.0,
        }
    }

    /// The configured limit.
    #[inline]
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Total spent so far.
    #[inline]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.limit - self.spent).max(0.0)
    }

    /// True if at least `amount` can still be spent.
    #[inline]
    pub fn can_afford(&self, amount: f64) -> bool {
        // Small epsilon guards against accumulated floating-point drift
        // denying the final affordable question of a long run.
        amount <= self.remaining() + 1e-9
    }

    /// Debits `amount`, or fails with [`CrowdError::BudgetExhausted`]
    /// without changing state.
    pub fn debit(&mut self, amount: f64) -> Result<()> {
        debug_assert!(amount >= 0.0, "cannot debit a negative amount");
        if !self.can_afford(amount) {
            return Err(CrowdError::BudgetExhausted {
                requested: amount,
                remaining: self.remaining(),
            });
        }
        self.spent += amount;
        Ok(())
    }
}

/// Records spend per category so experiments can report breakdowns such as
/// "crowd join verification: 412 questions, 412.0 units".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    entries: BTreeMap<String, LedgerEntry>,
}

/// Aggregated spend for one ledger category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerEntry {
    /// Number of debits recorded.
    pub count: u64,
    /// Total units spent.
    pub total: f64,
}

impl LedgerEntry {
    fn add(&mut self, amount: f64) {
        self.count += 1;
        self.total += amount;
    }
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a debit under `category`; only a new category allocates.
    pub fn record(&mut self, category: &str, amount: f64) {
        match self.entries.get_mut(category) {
            Some(e) => e.add(amount),
            None => self
                .entries
                .entry(category.to_owned())
                .or_default()
                .add(amount),
        }
    }

    /// The entry for `category`, if anything was recorded there.
    pub fn entry(&self, category: &str) -> Option<LedgerEntry> {
        self.entries.get(category).copied()
    }

    /// Total units spent across all categories.
    pub fn grand_total(&self) -> f64 {
        self.entries.values().map(|e| e.total).sum()
    }

    /// Total number of debits across all categories.
    pub fn grand_count(&self) -> u64 {
        self.entries.values().map(|e| e.count).sum()
    }

    /// Iterates categories in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, LedgerEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        for (k, v) in &other.entries {
            let e = self.entries.entry(k.clone()).or_default();
            e.count += v.count;
            e.total += v.total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelSpace;

    #[test]
    fn cost_model_prices_by_kind() {
        let m = CostModel::default();
        let sc = TaskKind::SingleChoice {
            labels: LabelSpace::binary(),
        };
        assert_eq!(m.price(&sc), 1.0);
        assert_eq!(m.price(&TaskKind::OpenText), 3.0);
        let u = CostModel::unit();
        assert_eq!(u.price(&TaskKind::OpenText), 1.0);
    }

    #[test]
    fn budget_debits_until_exhausted() {
        let mut b = Budget::new(2.5);
        assert!(b.debit(1.0).is_ok());
        assert!(b.debit(1.0).is_ok());
        assert_eq!(b.spent(), 2.0);
        assert!((b.remaining() - 0.5).abs() < 1e-12);
        let err = b.debit(1.0).unwrap_err();
        assert!(matches!(err, CrowdError::BudgetExhausted { .. }));
        // Failed debit must not change state.
        assert_eq!(b.spent(), 2.0);
        assert!(b.debit(0.5).is_ok());
        assert_eq!(b.remaining(), 0.0);
    }

    #[test]
    fn budget_epsilon_allows_final_question_despite_fp_drift() {
        let mut b = Budget::new(1.0);
        // Spend in ten 0.1 debits — naive comparison would fail the tenth.
        for _ in 0..10 {
            b.debit(0.1).expect("all ten debits affordable");
        }
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn negative_budget_rejected() {
        let _ = Budget::new(-1.0);
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = Budget::unlimited();
        for _ in 0..1000 {
            b.debit(1e12).unwrap();
        }
        assert!(b.remaining() > 0.0);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = CostLedger::new();
        a.record("filter", 1.0);
        a.record("filter", 1.0);
        a.record("join", 2.0);
        assert_eq!(a.entry("filter").unwrap().count, 2);
        assert_eq!(a.entry("filter").unwrap().total, 2.0);
        assert_eq!(a.grand_total(), 4.0);
        assert_eq!(a.grand_count(), 3);

        let mut b = CostLedger::new();
        b.record("join", 1.0);
        a.merge(&b);
        assert_eq!(a.entry("join").unwrap().count, 2);
        assert_eq!(a.entry("join").unwrap().total, 3.0);
    }

    #[test]
    fn ledger_iterates_in_sorted_order() {
        let mut l = CostLedger::new();
        l.record("z", 1.0);
        l.record("a", 1.0);
        let cats: Vec<&str> = l.iter().map(|(k, _)| k).collect();
        assert_eq!(cats, vec!["a", "z"]);
    }
}
