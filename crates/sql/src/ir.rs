//! Typed relational plan IR for CrowdSQL.
//!
//! The binder lowers a parsed [`Select`](crate::ast::Select) into this IR:
//! names become **slots** (indexes into the concatenated FROM schema),
//! types are checked once, and every crowd operator carries its knobs —
//! `redundancy` (votes per question) and `batch` (questions per platform
//! round-trip) — explicitly, so the rewriter and the cost model reason
//! about money and latency without re-deriving anything from syntax.
//!
//! The same [`Plan`] type serves as logical and physical plan: the binder
//! emits the canonical (naive) tree, [`rewrite`](crate::rewrite) rules
//! transform it, and the crate-private `volcano` executor runs whichever tree
//! the cost model picked. `Display` renders the operator tree exactly as
//! `EXPLAIN` prints it.

use std::fmt;

use crate::ast::CompareOp;
use crate::catalog::ColumnType;
use crate::value::Value;

/// A resolved column: an index into the operator's input row plus the
/// original SQL text (kept for display only — equality uses the slot).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRef {
    /// Index into the row the operator receives.
    pub slot: usize,
    /// The reference as written in the query (`"t.c"` or `"c"`).
    pub name: String,
}

impl fmt::Display for SlotRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A resolved column.
    Slot(SlotRef),
    /// A literal value.
    Literal(Value),
}

impl BoundExpr {
    /// The slot index, when the expression is a column.
    pub fn slot(&self) -> Option<usize> {
        match self {
            BoundExpr::Slot(s) => Some(s.slot),
            BoundExpr::Literal(_) => None,
        }
    }

    /// Rebases a column expression by `-offset` (used when a predicate is
    /// pushed from a join's output schema into its right input).
    pub fn shift_down(&mut self, offset: usize) {
        if let BoundExpr::Slot(s) = self {
            s.slot -= offset;
        }
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Slot(s) => write!(f, "{s}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
        }
    }
}

/// One bound conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundPredicate {
    /// Machine-evaluable comparison.
    Compare {
        /// Left expression.
        left: BoundExpr,
        /// Operator.
        op: CompareOp,
        /// Right expression.
        right: BoundExpr,
    },
    /// `CROWDEQUAL(a, b)` — crowd-verified semantic equality.
    CrowdEqual {
        /// Left expression.
        left: BoundExpr,
        /// Right expression.
        right: BoundExpr,
    },
}

impl BoundPredicate {
    /// Slots the predicate reads.
    pub fn slots(&self) -> Vec<usize> {
        let (l, r) = match self {
            BoundPredicate::Compare { left, right, .. }
            | BoundPredicate::CrowdEqual { left, right } => (left, right),
        };
        l.slot().into_iter().chain(r.slot()).collect()
    }

    /// Rebases every column the predicate reads by `-offset`.
    pub fn shift_down(&mut self, offset: usize) {
        match self {
            BoundPredicate::Compare { left, right, .. }
            | BoundPredicate::CrowdEqual { left, right } => {
                left.shift_down(offset);
                right.shift_down(offset);
            }
        }
    }
}

impl fmt::Display for BoundPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundPredicate::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            BoundPredicate::CrowdEqual { left, right } => {
                write!(f, "CROWDEQUAL({left}, {right})")
            }
        }
    }
}

/// One crowd-fillable cell column inside a [`Plan::CrowdFill`].
#[derive(Debug, Clone, PartialEq)]
pub struct FillSlot {
    /// Index into the operator's input row.
    pub slot: usize,
    /// Owning base table.
    pub table: String,
    /// Column name in the base table.
    pub column: String,
    /// Column index in the base table (for write-back).
    pub base_index: usize,
    /// Declared type (fills parse integers for INT columns).
    pub ty: ColumnType,
}

impl fmt::Display for FillSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Which input a [`Plan::CrowdJoin`] iterates as the outer (probe) side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Iterate the left input, batching questions against the right.
    Left,
    /// Iterate the right input, batching questions against the left.
    Right,
}

/// A relational operator tree. Slot indexes in every node refer to the
/// node's *input* row layout (for joins: left columns then right columns).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan all rows of a base table.
    Scan {
        /// Table name.
        table: String,
        /// Number of columns the scan emits.
        width: usize,
    },
    /// Cross product of two inputs (predicates filter above).
    CrossJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Hash equi-join on a machine column pair; NULL keys never match.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join column on the left input (slot in the joined layout).
        left_slot: SlotRef,
        /// Join column on the right input (slot in the joined layout).
        right_slot: SlotRef,
    },
    /// Machine-evaluable predicate filter.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Conjunctive predicates.
        predicates: Vec<BoundPredicate>,
    },
    /// Fill NULL cells of the listed crowd columns via the crowd.
    CrowdFill {
        /// Input plan.
        input: Box<Plan>,
        /// Columns to fill.
        slots: Vec<FillSlot>,
        /// Votes bought per cell.
        redundancy: u32,
        /// Fill questions per platform round-trip (0 = one ask per cell).
        batch: usize,
    },
    /// Crowd-verified predicate filter (CROWDEQUAL).
    CrowdCompare {
        /// Input plan.
        input: Box<Plan>,
        /// Conjunctive crowd predicates.
        predicates: Vec<BoundPredicate>,
        /// Votes bought per verdict.
        redundancy: u32,
    },
    /// Crowd equi-join: keeps the (left, right) pairs the crowd judges
    /// CROWDEQUAL. Output rows are left-major regardless of `outer`.
    CrowdJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Left join expression (slot in the joined layout).
        left_expr: BoundExpr,
        /// Right join expression (slot in the joined layout).
        right_expr: BoundExpr,
        /// Votes bought per verdict.
        redundancy: u32,
        /// Verdict questions per platform round-trip (0 = one ask per
        /// pair; >0 = one batched round per outer row).
        batch: usize,
        /// Which side drives the probe loop (round-latency knob).
        outer: Side,
    },
    /// Machine sort.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort column.
        slot: SlotRef,
        /// Ascending?
        asc: bool,
    },
    /// Crowd-judged ordering of rows by a column's values (best first).
    CrowdSort {
        /// Input plan.
        input: Box<Plan>,
        /// Compared column.
        slot: SlotRef,
        /// When `Some(k)`, run a top-k tournament instead of a full sort.
        top_k: Option<usize>,
        /// Votes bought per comparison.
        redundancy: u32,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
    /// Project the listed columns (empty = all).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Projected columns.
        slots: Vec<SlotRef>,
    },
    /// `COUNT(*)`: collapse the input to a single row with its row count.
    CountStar {
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Number of columns this operator emits.
    pub fn width(&self) -> usize {
        match self {
            Plan::Scan { width, .. } => *width,
            Plan::CrossJoin { left, right }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrowdJoin { left, right, .. } => left.width() + right.width(),
            Plan::Filter { input, .. }
            | Plan::CrowdFill { input, .. }
            | Plan::CrowdCompare { input, .. }
            | Plan::Sort { input, .. }
            | Plan::CrowdSort { input, .. }
            | Plan::Limit { input, .. } => input.width(),
            Plan::Project { input, slots } => {
                if slots.is_empty() {
                    input.width()
                } else {
                    slots.len()
                }
            }
            Plan::CountStar { .. } => 1,
        }
    }

    /// Whether the subtree contains any crowd operator.
    pub fn needs_crowd(&self) -> bool {
        match self {
            Plan::CrowdFill { .. }
            | Plan::CrowdCompare { .. }
            | Plan::CrowdJoin { .. }
            | Plan::CrowdSort { .. } => true,
            Plan::Scan { .. } => false,
            Plan::CrossJoin { left, right } | Plan::HashJoin { left, right, .. } => {
                left.needs_crowd() || right.needs_crowd()
            }
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Project { input, .. }
            | Plan::CountStar { input } => input.needs_crowd(),
        }
    }

    /// The operator's one-line label, exactly as `EXPLAIN` prints it.
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table, .. } => format!("Scan {table}"),
            Plan::CrossJoin { .. } => "Join (cross)".to_owned(),
            Plan::HashJoin {
                left_slot,
                right_slot,
                ..
            } => format!("HashJoin [{left_slot} = {right_slot}]"),
            Plan::Filter { predicates, .. } => {
                let ps: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                format!("MachineFilter [{}]", ps.join(" AND "))
            }
            Plan::CrowdFill { slots, batch, .. } => {
                let cs: Vec<String> = slots.iter().map(|s| s.to_string()).collect();
                if *batch > 0 {
                    format!("CrowdFill [{}] (batch={batch})", cs.join(", "))
                } else {
                    format!("CrowdFill [{}]", cs.join(", "))
                }
            }
            Plan::CrowdCompare { predicates, .. } => {
                let ps: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                format!("CrowdFilter [{}]", ps.join(" AND "))
            }
            Plan::CrowdJoin {
                left_expr,
                right_expr,
                batch,
                outer,
                ..
            } => {
                let side = match outer {
                    Side::Left => "left",
                    Side::Right => "right",
                };
                if *batch > 0 {
                    format!(
                        "CrowdJoin [CROWDEQUAL({left_expr}, {right_expr})] \
                         (outer={side}, batch={batch})"
                    )
                } else {
                    format!("CrowdJoin [CROWDEQUAL({left_expr}, {right_expr})] (outer={side})")
                }
            }
            Plan::Sort { slot, asc, .. } => {
                format!("MachineSort {slot} {}", if *asc { "ASC" } else { "DESC" })
            }
            Plan::CrowdSort { slot, top_k, .. } => match top_k {
                Some(k) => format!("CrowdSort {slot} (top-{k} tournament)"),
                None => format!("CrowdSort {slot} (full pairwise)"),
            },
            Plan::Limit { n, .. } => format!("Limit {n}"),
            Plan::Project { slots, .. } => {
                if slots.is_empty() {
                    "Project *".to_owned()
                } else {
                    let cs: Vec<String> = slots.iter().map(|c| c.to_string()).collect();
                    format!("Project [{}]", cs.join(", "))
                }
            }
            Plan::CountStar { .. } => "CountStar".to_owned(),
        }
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.label())?;
        match self {
            Plan::CrossJoin { left, right }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrowdJoin { left, right, .. } => {
                left.fmt_tree(f, indent + 1)?;
                right.fmt_tree(f, indent + 1)
            }
            Plan::Filter { input, .. }
            | Plan::CrowdFill { input, .. }
            | Plan::CrowdCompare { input, .. }
            | Plan::Sort { input, .. }
            | Plan::CrowdSort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Project { input, .. }
            | Plan::CountStar { input } => input.fmt_tree(f, indent + 1),
            Plan::Scan { .. } => Ok(()),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_tree(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(i: usize, name: &str) -> SlotRef {
        SlotRef {
            slot: i,
            name: name.to_owned(),
        }
    }

    #[test]
    fn display_matches_explain_conventions() {
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan {
                    table: "t".into(),
                    width: 2,
                }),
                predicates: vec![BoundPredicate::Compare {
                    left: BoundExpr::Slot(slot(0, "id")),
                    op: CompareOp::Ge,
                    right: BoundExpr::Literal(Value::Int(3)),
                }],
            }),
            slots: vec![slot(1, "name")],
        };
        let text = plan.to_string();
        assert_eq!(
            text,
            "Project [name]\n  MachineFilter [id >= 3]\n    Scan t\n"
        );
    }

    #[test]
    fn width_and_crowd_detection() {
        let join = Plan::CrossJoin {
            left: Box::new(Plan::Scan {
                table: "a".into(),
                width: 2,
            }),
            right: Box::new(Plan::Scan {
                table: "b".into(),
                width: 3,
            }),
        };
        assert_eq!(join.width(), 5);
        assert!(!join.needs_crowd());
        let fill = Plan::CrowdFill {
            input: Box::new(join),
            slots: vec![FillSlot {
                slot: 4,
                table: "b".into(),
                column: "c".into(),
                base_index: 2,
                ty: ColumnType::Text,
            }],
            redundancy: 3,
            batch: 0,
        };
        assert!(fill.needs_crowd());
        assert_eq!(fill.width(), 5);
        assert!(fill.to_string().contains("CrowdFill [b.c]"));
    }

    #[test]
    fn predicate_shift_rebases_slots() {
        let mut p = BoundPredicate::CrowdEqual {
            left: BoundExpr::Slot(slot(3, "b.x")),
            right: BoundExpr::Slot(slot(4, "b.y")),
        };
        p.shift_down(3);
        assert_eq!(p.slots(), vec![0, 1]);
    }
}
