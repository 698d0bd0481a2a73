//! Crowd-native cost model for CrowdSQL plans.
//!
//! Plans are scored on three axes instead of CPU time:
//! **spend** (expected monetary cost: answers bought, each priced at one
//! unit as under `CostModel::unit`), **rounds** (expected platform
//! round-trips, the latency proxy — one `ask`/`ask_batch` call is one
//! round), and **quality** (probability a majority vote of `redundancy`
//! workers with the assumed accuracy returns the true answer; a plan is as
//! good as its weakest crowd operator).
//!
//! [`SelectivityMemory`] feeds observed pass-rates from prior executions
//! back into the estimator, so crowd-join reordering and predicate
//! placement improve as a session answers queries.

use std::collections::BTreeMap;

use crate::ast::CompareOp;
use crate::catalog::Catalog;
use crate::ir::{BoundPredicate, Plan, Side};

/// Predicted cost of a plan (or one operator) along the three crowd axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostVector {
    /// Expected monetary spend (budget units).
    pub spend: f64,
    /// Expected platform round-trips (latency proxy).
    pub rounds: f64,
    /// Probability the crowd answers driving the result are correct
    /// (1.0 for machine-only plans).
    pub quality: f64,
}

// Scalarization weights used to pick between candidate plans. Spend
// dominates; rounds break ties between equal-spend plans; the quality
// term (on expected error, `1 - quality`) only matters when redundancy
// knobs differ.
const SPEND_WEIGHT: f64 = 1.0;
const ROUNDS_WEIGHT: f64 = 0.05;
const QUALITY_WEIGHT: f64 = 10.0;

impl CostVector {
    /// The zero cost of a machine-only operator.
    pub fn free() -> Self {
        Self {
            spend: 0.0,
            rounds: 0.0,
            quality: 1.0,
        }
    }

    /// Collapses the vector to the single score the optimizer compares.
    pub fn scalarize(&self) -> f64 {
        SPEND_WEIGHT * self.spend
            + ROUNDS_WEIGHT * self.rounds
            + QUALITY_WEIGHT * (1.0 - self.quality)
    }
}

/// Per-operator prediction, in bottom-up plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCost {
    /// The operator's display label.
    pub node: String,
    /// Estimated output rows.
    pub rows_out: f64,
    /// Predicted cost of this operator alone.
    pub cost: CostVector,
}

/// Full prediction for a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCost {
    /// Sum of per-operator spend and rounds; min of per-operator quality.
    pub total: CostVector,
    /// Per-operator breakdown, bottom-up.
    pub nodes: Vec<NodeCost>,
}

/// Observed predicate pass-rates from prior executions, keyed by the
/// predicate's display text. Deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectivityMemory {
    observed: BTreeMap<String, (u64, u64)>,
}

impl SelectivityMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `passed` of `total` rows survived the predicate.
    pub fn record(&mut self, key: &str, passed: u64, total: u64) {
        if total == 0 {
            return;
        }
        let e = self.observed.entry(key.to_owned()).or_insert((0, 0));
        e.0 += passed;
        e.1 += total;
    }

    /// Observed selectivity for a predicate, when any rows were seen.
    pub fn selectivity(&self, key: &str) -> Option<f64> {
        self.observed
            .get(key)
            .map(|(passed, total)| *passed as f64 / *total as f64)
    }

    /// Number of distinct predicates observed.
    pub fn len(&self) -> usize {
        self.observed.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }
}

/// Probability that a strict majority of `votes` independent workers,
/// each correct with probability `accuracy`, returns the true answer
/// (ties count as failures, matching the executor's "no verdict" path).
pub fn majority_prob(accuracy: f64, votes: u32) -> f64 {
    let v = votes.max(1);
    let p = accuracy.clamp(0.0, 1.0);
    let mut total = 0.0;
    for k in (v / 2 + 1)..=v {
        let mut coeff = 1.0;
        for i in 0..k {
            coeff = coeff * (v - i) as f64 / (i + 1) as f64;
        }
        total += coeff * p.powi(k as i32) * (1.0 - p).powi((v - k) as i32);
    }
    total
}

/// Estimates plan cost against catalog statistics and remembered
/// selectivities, pricing every answer at one unit.
pub struct Estimator<'a> {
    catalog: &'a Catalog,
    memory: &'a SelectivityMemory,
    accuracy: f64,
}

impl<'a> Estimator<'a> {
    /// An estimator over the given catalog and memory; `accuracy` is the
    /// assumed per-worker probability of a correct answer.
    pub fn new(catalog: &'a Catalog, memory: &'a SelectivityMemory, accuracy: f64) -> Self {
        Self {
            catalog,
            memory,
            accuracy,
        }
    }

    fn table_rows(&self, table: &str) -> f64 {
        self.catalog
            .rows(table)
            .map(|r| r.len() as f64)
            .unwrap_or(0.0)
    }

    /// Fraction of NULL cells in a base column (1.0 for empty tables,
    /// since an unfilled crowd column starts all-NULL).
    fn null_fraction(&self, table: &str, base_index: usize) -> f64 {
        match self.catalog.rows(table) {
            Ok(rows) if !rows.is_empty() => {
                let nulls = rows
                    .iter()
                    .filter(|r| r.get(base_index).map(|v| v.is_null()).unwrap_or(false))
                    .count();
                nulls as f64 / rows.len() as f64
            }
            _ => 1.0,
        }
    }

    fn predicate_selectivity(&self, pred: &BoundPredicate) -> f64 {
        if let Some(s) = self.memory.selectivity(&pred.to_string()) {
            return s;
        }
        match pred {
            BoundPredicate::Compare { op, .. } => match op {
                CompareOp::Eq => 0.1,
                CompareOp::Ne => 0.9,
                _ => 1.0 / 3.0,
            },
            // Semantic equality across free text: assume sparse matches.
            BoundPredicate::CrowdEqual { .. } => 0.1,
        }
    }

    /// Estimated output rows of a plan (used for crowd-join reordering).
    pub fn rows(&self, plan: &Plan) -> f64 {
        self.walk(plan, &mut Vec::new())
    }

    /// Full cost prediction for a plan.
    pub fn estimate(&self, plan: &Plan) -> PlanCost {
        let mut nodes = Vec::new();
        self.walk(plan, &mut nodes);
        let total = CostVector {
            spend: nodes.iter().map(|n| n.cost.spend).sum(),
            rounds: nodes.iter().map(|n| n.cost.rounds).sum(),
            quality: nodes.iter().map(|n| n.cost.quality).fold(1.0, f64::min),
        };
        PlanCost { total, nodes }
    }

    /// Bottom-up walk returning estimated output rows and appending one
    /// [`NodeCost`] per operator.
    fn walk(&self, plan: &Plan, nodes: &mut Vec<NodeCost>) -> f64 {
        let vote_quality = |redundancy: u32| majority_prob(self.accuracy, redundancy);
        let (rows, cost) = match plan {
            Plan::Scan { table, .. } => (self.table_rows(table), CostVector::free()),
            Plan::CrossJoin { left, right } => {
                let l = self.walk(left, nodes);
                let r = self.walk(right, nodes);
                (l * r, CostVector::free())
            }
            Plan::HashJoin { left, right, .. } => {
                let l = self.walk(left, nodes);
                let r = self.walk(right, nodes);
                // Equi-join estimate: as if the larger side were a key.
                (l * r / l.max(r).max(1.0), CostVector::free())
            }
            Plan::Filter { input, predicates } => {
                let mut rows = self.walk(input, nodes);
                for p in predicates {
                    rows *= self.predicate_selectivity(p);
                }
                (rows, CostVector::free())
            }
            Plan::CrowdFill {
                input,
                slots,
                redundancy,
                batch,
            } => {
                let rows = self.walk(input, nodes);
                // The executor dedupes fills by base cell, so a column is
                // bought at most once per base row even above a join.
                let cells: f64 = slots
                    .iter()
                    .map(|s| {
                        rows.min(self.table_rows(&s.table))
                            * self.null_fraction(&s.table, s.base_index)
                    })
                    .sum();
                let rounds = if *batch > 0 {
                    (cells / *batch as f64).ceil()
                } else {
                    cells
                };
                let cost = CostVector {
                    spend: cells * *redundancy as f64,
                    rounds,
                    quality: if cells > 0.0 {
                        vote_quality(*redundancy)
                    } else {
                        1.0
                    },
                };
                (rows, cost)
            }
            Plan::CrowdCompare {
                input,
                predicates,
                redundancy,
            } => {
                let rows_in = self.walk(input, nodes);
                let verdicts = rows_in * predicates.len() as f64;
                let mut rows = rows_in;
                for p in predicates {
                    rows *= self.predicate_selectivity(p);
                }
                let cost = CostVector {
                    spend: verdicts * *redundancy as f64,
                    rounds: verdicts,
                    quality: if verdicts > 0.0 {
                        vote_quality(*redundancy)
                    } else {
                        1.0
                    },
                };
                (rows, cost)
            }
            Plan::CrowdJoin {
                left,
                right,
                left_expr,
                right_expr,
                redundancy,
                batch,
                outer,
            } => {
                let l = self.walk(left, nodes);
                let r = self.walk(right, nodes);
                let pairs = l * r;
                let (outer_rows, inner_rows) = match outer {
                    Side::Left => (l, r),
                    Side::Right => (r, l),
                };
                let rounds = if *batch > 0 {
                    outer_rows * (inner_rows / *batch as f64).ceil().max(1.0)
                } else {
                    pairs
                };
                let key = format!("CROWDEQUAL({left_expr}, {right_expr})");
                let sel = self.memory.selectivity(&key).unwrap_or(0.1);
                let cost = CostVector {
                    spend: pairs * *redundancy as f64,
                    rounds,
                    quality: if pairs > 0.0 {
                        vote_quality(*redundancy)
                    } else {
                        1.0
                    },
                };
                (pairs * sel, cost)
            }
            Plan::Sort { input, .. } => (self.walk(input, nodes), CostVector::free()),
            Plan::CrowdSort {
                input,
                top_k,
                redundancy,
                ..
            } => {
                let n = self.walk(input, nodes);
                let (matches, rounds) = match top_k {
                    // Single-elimination bracket per winner: the i-th
                    // winner is found by a fresh bracket over the n-i
                    // survivors at n-i-1 matches, so top-k costs
                    // Σ_{i=0..k-1} (n-1-i) matches. Each bracket plays
                    // ~log2 of its field in sequential rounds.
                    Some(k) if (*k as f64) < n => {
                        let k = *k as f64;
                        let matches = k * (n - 1.0) - k * (k - 1.0) / 2.0;
                        (matches, k * n.log2().ceil().max(1.0))
                    }
                    // Full pairwise tournament, bought in one batch.
                    _ => {
                        let pairs = n * (n - 1.0) / 2.0;
                        (pairs, if pairs > 0.0 { 1.0 } else { 0.0 })
                    }
                };
                let cost = CostVector {
                    spend: matches.max(0.0) * *redundancy as f64,
                    rounds,
                    quality: if matches > 0.0 {
                        vote_quality(*redundancy)
                    } else {
                        1.0
                    },
                };
                (n, cost)
            }
            Plan::Limit { input, n } => {
                let rows = self.walk(input, nodes);
                (rows.min(*n as f64), CostVector::free())
            }
            Plan::Project { input, .. } => (self.walk(input, nodes), CostVector::free()),
            Plan::CountStar { input } => {
                self.walk(input, nodes);
                (1.0, CostVector::free())
            }
        };
        nodes.push(NodeCost {
            node: plan.label(),
            rows_out: rows,
            cost,
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::catalog::ColumnType;
    use crate::ir::{FillSlot, SlotRef};
    use crate::parser::parse_statement;
    use crate::value::Value;

    #[test]
    fn majority_prob_matches_binomials() {
        assert!((majority_prob(0.9, 1) - 0.9).abs() < 1e-12);
        // 3 votes at 0.9: p^3 + 3 p^2 (1-p) = 0.729 + 0.243 = 0.972.
        assert!((majority_prob(0.9, 3) - 0.972).abs() < 1e-12);
        // Even vote counts can tie; ties are failures.
        assert!(majority_prob(0.9, 2) < majority_prob(0.9, 3));
        assert!((majority_prob(1.0, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_accumulates_and_reports() {
        let mut m = SelectivityMemory::new();
        assert!(m.is_empty());
        assert_eq!(m.selectivity("x = 1"), None);
        m.record("x = 1", 2, 10);
        m.record("x = 1", 3, 10);
        assert_eq!(m.selectivity("x = 1"), Some(0.25));
        m.record("ignored", 0, 0);
        assert_eq!(m.len(), 1);
    }

    fn catalog_with_rows(n: usize) -> Catalog {
        let mut c = Catalog::new();
        match parse_statement("CREATE TABLE t (id INT, category CROWD TEXT)").unwrap() {
            Statement::CreateTable {
                name,
                columns,
                crowd,
            } => c.create_table(&name, &columns, crowd).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Null])
            .collect();
        c.insert("t", rows).unwrap();
        c
    }

    fn fill_over_scan(input: Plan, redundancy: u32) -> Plan {
        Plan::CrowdFill {
            input: Box::new(input),
            slots: vec![FillSlot {
                slot: 1,
                table: "t".into(),
                column: "category".into(),
                base_index: 1,
                ty: ColumnType::Text,
            }],
            redundancy,
            batch: 0,
        }
    }

    #[test]
    fn filtered_fill_predicted_cheaper_than_eager_fill() {
        let catalog = catalog_with_rows(10);
        let memory = SelectivityMemory::new();
        let est = Estimator::new(&catalog, &memory, 0.9);

        let scan = Plan::Scan {
            table: "t".into(),
            width: 2,
        };
        let pred = BoundPredicate::Compare {
            left: crate::ir::BoundExpr::Slot(SlotRef {
                slot: 0,
                name: "id".into(),
            }),
            op: CompareOp::Eq,
            right: crate::ir::BoundExpr::Literal(Value::Int(3)),
        };
        let eager = est.estimate(&fill_over_scan(scan.clone(), 3));
        let lazy = est.estimate(&fill_over_scan(
            Plan::Filter {
                input: Box::new(scan),
                predicates: vec![pred],
            },
            3,
        ));
        // 10 cells × 3 votes vs (10 × 0.1) cells × 3 votes.
        assert!((eager.total.spend - 30.0).abs() < 1e-9, "{eager:?}");
        assert!(lazy.total.spend < eager.total.spend);
        assert!(eager.total.quality < 1.0 && eager.total.quality > 0.9);
    }

    #[test]
    fn tournament_beats_full_sort_only_when_k_is_small() {
        let memory = SelectivityMemory::new();

        let sort = |catalog: &Catalog, top_k: Option<usize>| {
            let est = Estimator::new(catalog, &memory, 0.95);
            est.estimate(&Plan::CrowdSort {
                input: Box::new(Plan::Scan {
                    table: "t".into(),
                    width: 2,
                }),
                slot: SlotRef {
                    slot: 1,
                    name: "category".into(),
                },
                top_k,
                redundancy: 1,
            })
            .total
        };

        let big = catalog_with_rows(20);
        assert!(sort(&big, Some(2)).spend < sort(&big, None).spend);

        // For n=3, k=2 the replayed brackets cost as much as the 3
        // full-sort pairs and take more round-trips — no win left.
        let small = catalog_with_rows(3);
        let topk = sort(&small, Some(2));
        let full = sort(&small, None);
        assert!(topk.spend >= full.spend);
        assert!(topk.rounds > full.rounds);
    }

    #[test]
    fn weights_prefer_cheaper_spend_then_fewer_rounds() {
        let a = CostVector {
            spend: 10.0,
            rounds: 10.0,
            quality: 0.97,
        };
        let b = CostVector {
            spend: 12.0,
            rounds: 1.0,
            quality: 0.97,
        };
        assert!(a.scalarize() < b.scalarize(), "spend dominates");
        let c = CostVector {
            spend: 10.0,
            rounds: 2.0,
            quality: 0.97,
        };
        assert!(c.scalarize() < a.scalarize(), "rounds break ties");
    }
}
