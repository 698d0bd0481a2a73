//! Cost models and budget accounting.
//!
//! Cost control is one of the tutorial's central axes: every crowd question
//! costs money, so operators and optimizers compete on *crowd questions
//! asked*, not CPU time. [`CostModel`] prices each task kind; [`Budget`]
//! enforces a spend ceiling and records what was spent.

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
}
